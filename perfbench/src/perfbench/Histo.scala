package perfbench

import java.util.SplittableRandom
import repro.climate.ClimateData
import repro.core.{BasicWindows, ExactCorrelation, Network, WindowStats}

/** `histo`: a historical archive in memory (Algorithms 1 and 2).
  *
  *  - sketch: `BasicWindows.sketch` per series, `BasicWindows.pairCorrs`
  *    per pair, over NCEA-shaped data (157 stations × one hourly year), B=50;
  *  - query: a network over an arbitrary, unaligned range of 500…8760
  *    points at θ ∈ {0.5, 0.75, 0.9}, by `Network.fromPairs` over
  *    `ExactCorrelation.arbitrary` for all 12,246 pairs;
  *  - update: one of 50 basic windows arriving after the archive is
  *    sketched into it (`BasicWindows.sketch` per series, `pairCorrs` per
  *    pair); networks over it are answered later by queries.
  */
object Histo {
  val N = 157
  val L = 8760
  val B = 50
  val Arrivals = 50
  val Thetas: Array[Double] = Array(0.5, 0.75, 0.9)
  val MinQueryLen = 500
  val QueryBlock = 20
  val RoundQueries = 2 * QueryBlock
  private val nPairs = Reference.nPairs(N)
  private val archiveWindows = L / B

  /** Generated inputs: the archive, the archive followed by the arriving
    * points, and the arriving basic windows themselves.
    */
  final class Inputs(val archive: Array[Array[Double]], val full: Array[Array[Double]],
                     val arriving: Array[Array[Array[Double]]])

  def inputs(seed: Long): Inputs = {
    val archive = ClimateData.ncea(n = N, len = L, seed = seed)
    val extra = ClimateData.ncea(n = N, len = Arrivals * B, seed = seed + 1000003L)
    val full = Array.tabulate(N)(i => archive(i) ++ extra(i))
    val arriving = Array.tabulate(Arrivals) { k =>
      val w = archiveWindows + k
      Array.tabulate(N)(i => java.util.Arrays.copyOfRange(full(i), w * B, (w + 1) * B))
    }
    new Inputs(archive, full, arriving)
  }

  /** Sketched archive with room for the arriving windows. */
  final class State(val stats: Array[Array[WindowStats]], val c: Array[Array[Double]])

  /** The timed sketch: every series, then every pair. */
  def sketch(archive: Array[Array[Double]]): (Array[Array[WindowStats]], Array[Array[Double]]) = {
    val st = archive.map(BasicWindows.sketch(_, B))
    (st, pairCorrs(archive))
  }

  def pairCorrs(archive: Array[Array[Double]]): Array[Array[Double]] = {
    val n = archive.length
    val pc = new Array[Array[Double]](Reference.nPairs(n))
    var i = 0
    while (i < n) {
      var j = i + 1
      while (j < n) { pc(Reference.pairIndex(n, i, j)) = BasicWindows.pairCorrs(archive(i), archive(j), B); j += 1 }
      i += 1
    }
    pc
  }

  def grow(st: Array[Array[WindowStats]], pc: Array[Array[Double]], windows: Int): State =
    new State(st.map(java.util.Arrays.copyOf(_, windows)), pc.map(java.util.Arrays.copyOf(_, windows)))

  def corrFn(in: Inputs, s: State, start: Int, end: Int): (Int, Int) => Double = {
    val n = s.stats.length
    (i, j) => ExactCorrelation.arbitrary(in.full(i), in.full(j), B, s.stats(i), s.stats(j),
      s.c(Reference.pairIndex(n, i, j)), start, end)
  }

  def query(in: Inputs, s: State, start: Int, end: Int, theta: Double): Network =
    Network.fromPairs(s.stats.length, corrFn(in, s, start, end), theta)

  /** Sketch arriving window k into the archive; returns its window index. */
  def update(in: Inputs, s: State, k: Int): Int = {
    val w = archiveWindows + k
    val win = in.arriving(k)
    val n = win.length
    var i = 0
    while (i < n) { s.stats(i)(w) = BasicWindows.sketch(win(i), B)(0); i += 1 }
    i = 0
    while (i < n) {
      var j = i + 1
      while (j < n) { s.c(Reference.pairIndex(n, i, j))(w) = BasicWindows.pairCorrs(win(i), win(j), B)(0); j += 1 }
      i += 1
    }
    w
  }

  final case class Query(start: Int, end: Int, theta: Double)

  /** Queries in blocks of `QueryBlock` whose lengths step evenly from 500
    * to 8760 and whose θ take turns, so that quantiles of query time do
    * not depend on the luck of one seed; the seed draws starts and order.
    */
  final class Queries(seed: Long) {
    private val rng = new SplittableRandom(seed * 0x9E3779B97F4A7C15L + 17)
    private var block: List[Query] = Nil
    private var made = 0
    def next(): Query = {
      if (block.isEmpty) {
        val qs = Array.tabulate(QueryBlock) { s =>
          val len = MinQueryLen + (L - MinQueryLen) * s / (QueryBlock - 1)
          val start = rng.nextInt(L - len + 1)
          made += 1
          Query(start, start + len - 1, Thetas(made % Thetas.length))
        }
        var k = qs.length - 1
        while (k > 0) { val r = rng.nextInt(k + 1); val t = qs(k); qs(k) = qs(r); qs(r) = t; k -= 1 }
        block = qs.toList
      }
      val q = block.head
      block = block.tail
      q
    }
  }

  /** Untimed warm-up of every timed path on a slice of the inputs. */
  def warmUp(in: Inputs, seed: Long): Unit = {
    val n = 64
    val small = new Inputs(in.archive.take(n), in.full.take(n), in.arriving.map(_.take(n)))
    sketch(small.archive)
    val (st, pc) = sketch(small.archive)
    val s = grow(st, pc, archiveWindows + Arrivals)
    val qs = new Queries(seed + 1)
    (0 until QueryBlock).foreach { _ => val q = qs.next(); query(small, s, q.start, q.end, q.theta) }
    (0 until Arrivals).foreach(k => update(small, s, k))
    Reference.corrs(small.archive, 0, L)
  }

  def run(a: Args, r: Report): Unit = {
    val setup = new Samples
    var in: Inputs = null
    (0 until (if (a.trace) 1 else Probe.LocalSetupReps)).foreach { _ =>
      in = null
      Probe.liveHeapMb()
      val t0 = Probe.nowNs
      in = inputs(a.seed)
      warmUp(in, a.seed)
      setup.add(Probe.msSince(t0) / 1e3)
    }
    r.facts("setup_reps_s") = setup.values.toSeq
    if (a.trace) traced(a, r, in) else timed(a, r, in, setup)
  }

  private def checkQuery(r: Report, what: String, in: Inputs, net: Network, lo: Int, hi: Int, theta: Double): Unit =
    r.check(what, Checker.network(N, Checker.edges(net), Reference.corrs(in.full, lo, hi + 1), theta))

  /** An appended window's sketch against the reference: every series'
    * mean and std, every pair's c_j.
    */
  private def checkUpdate(r: Report, in: Inputs, s: State, w: Int): Unit = {
    val (lo, hi) = (w * B, (w + 1) * B)
    val (mean, std) = Reference.moments(in.full, lo, hi)
    val ref = Reference.corrs(in.full, lo, hi)
    r.check(s"update window $w", Checker.close(s.stats.map(_(w).mean), mean),
      Checker.close(s.stats.map(_(w).std), std), Checker.close(s.c.map(_(w)), ref))
  }

  /** Timed run in rounds of a fresh sketch, then two blocks of queries on
    * it with the `Arrivals` arriving windows interleaved, so that each
    * metric samples the whole run rather than one stretch of a machine
    * whose speed drifts.
    */
  private def timed(a: Args, r: Report, in: Inputs, setup: Samples): Unit = {
    val sketchS, queryMs, updateMs = new Samples
    val qs = new Queries(a.seed)
    var held: State = null // the last round's sketch, for heap_mb
    Probe.loop(min = 5, max = 100, seconds = a.seconds) { _ =>
      held = null
      r.op("sketch") {
        val t0 = Probe.nowNs
        val (st, pc) = sketch(in.archive)
        sketchS.add(Probe.msSince(t0) / 1e3)
        grow(st, pc, archiveWindows + Arrivals)
      }.foreach { state =>
        held = state
        // Queries read the archive only, so arriving windows can interleave.
        (0 until RoundQueries).foreach { i =>
          val q = qs.next()
          r.op("query") {
            val (net, ms) = Probe.timeMs(query(in, state, q.start, q.end, q.theta))
            queryMs.add(ms)
            checkQuery(r, s"query [${q.start},${q.end}] θ=${q.theta}", in, net, q.start, q.end, q.theta)
          }
          // spread the arrivals evenly over the round's queries
          (i * Arrivals / RoundQueries until (i + 1) * Arrivals / RoundQueries).foreach { k =>
            r.op("update") {
              val (w, ms) = Probe.timeMs(update(in, state, k))
              updateMs.add(ms)
              checkUpdate(r, in, state, w)
            }
          }
        }
      }
    }
    r.facts("sketch_reps_s") = sketchS.values.toSeq
    r.facts("gc_ms") = Probe.gcMs()
    r.put("setup_s", Metric(setup.median, "s", "median", setup.n))
    r.put("sketch_s", Metric(sketchS.median, "s", "median", sketchS.n))
    r.percentile("query_p50_ms", queryMs, 0.5)
    r.percentile("query_p90_ms", queryMs, 0.9)
    r.percentile("update_p50_ms", updateMs, 0.5)
    r.percentile("update_p90_ms", updateMs, 0.9)
    r.put("heap_mb", Metric(Probe.liveHeapMb(held), "MB", "live after full GC, sketch held", 1))
  }

  /** Traced run: fixed counts, so that its counters repeat exactly. */
  private def traced(a: Args, r: Report, in: Inputs): Unit = {
    val sketchMs, pairMs, pairAlloc, untracedSketch, tracedSketch = new Samples
    var state: State = null
    (0 until 3).foreach { _ =>
      r.op("sketch") {
        untracedSketch.add(Probe.timeMs(sketch(in.archive))._2)
        val t0 = Probe.nowNs
        val (st, ms) = Probe.timeMs(in.archive.map(BasicWindows.sketch(_, B)))
        sketchMs.add(ms)
        val a0 = Probe.allocatedBytes()
        val (pc, pms) = Probe.timeMs(pairCorrs(in.archive))
        pairAlloc.add((Probe.allocatedBytes() - a0).toDouble)
        pairMs.add(pms)
        tracedSketch.add(Probe.msSince(t0))
        state = grow(st, pc, archiveWindows + Arrivals)
      }
    }
    val qs = new Queries(a.seed)
    val arbMs, arbAlloc, selfMs, overhead, pairs = new Samples
    var folded, partial, edges = 0L
    (0 until 30).foreach { _ =>
      val q = qs.next()
      r.op("query") {
        val corr = corrFn(in, state, q.start, q.end)
        var calls = 0
        val (net, total) = Probe.timeMs(Network.fromPairs(N, (i, j) => { calls += 1; corr(i, j) }, q.theta))
        pairs.add(calls)
        val t0 = Probe.nowNs
        val f = corrFn(in, state, q.start, q.end)
        val out = new Array[Double](nPairs)
        val a0 = Probe.allocatedBytes()
        val (_, ams) = Probe.timeMs {
          var i = 0
          while (i < N) { var j = i + 1; while (j < N) { out(Reference.pairIndex(N, i, j)) = f(i, j); j += 1 }; i += 1 }
        }
        arbAlloc.add((Probe.allocatedBytes() - a0).toDouble)
        arbMs.add(ams)
        selfMs.add(total - ams)
        overhead.add(Probe.msSince(t0) - total)
        val cov = BasicWindows.coverage(q.start, q.end, B)
        val pts = (cov.headRange ++ cov.tailRange).map { case (lo, hi) => hi - lo + 1 }.sum
        folded += cov.fullWindows.size.toLong * nPairs
        partial += pts.toLong * nPairs
        edges += net.edgeCount
        checkQuery(r, s"query [${q.start},${q.end}]", in, net, q.start, q.end, q.theta)
      }
    }
    r.put("core.BasicWindows.sketch_ms", Metric(sketchMs.median, "ms", "median", sketchMs.n))
    r.put("core.BasicWindows.pairCorrs_ms", Metric(pairMs.median, "ms", "median", pairMs.n))
    r.put("core.BasicWindows.pairCorrs_alloc_bytes", Metric(pairAlloc.median, "bytes", "median", pairAlloc.n))
    r.percentile("core.ExactCorrelation.arbitrary_ms", arbMs, 0.5)
    r.percentile("core.ExactCorrelation.arbitrary_alloc_bytes", arbAlloc, 0.5, unit = "bytes")
    r.percentile("core.Network.fromPairs_self_ms", selfMs, 0.5)
    r.percentile("core.pairs", pairs, 0.5, unit = "count")
    r.count("core.windows_folded", folded, stat = "total from coverage")
    r.count("core.partial_points", partial, stat = "total from coverage")
    r.count("core.edges", edges)
    r.put("trace.sketch_overhead_ms",
      Metric(tracedSketch.median - untracedSketch.median, "ms", "median difference", tracedSketch.n))
    r.percentile("trace.query_overhead_ms", overhead, 0.5)
  }
}
