package perfbench

import repro.climate.ClimateData
import repro.core.{SlidingNetwork, WindowStats}
import repro.dft.{ApproxCorrelation, DFT, SlidingApproxNetwork}

/** `realtime`: the sliding network in memory (Algorithm 3, Lemma 2).
  *
  * NCEA-shaped data, B=25 and a sliding query window of 3000 points
  * (n_s = 120 basic windows): Fig 5d's setting at its smallest B.
  *
  *  - sketch: the first n_s windows ingested into a new `SlidingNetwork`;
  *  - update: one arriving window through `SlidingNetwork.ingest` and
  *    `network(0.75)`; the DFT comparator `SlidingApproxNetwork`
  *    (nCoeff = 18 = 75%·B) takes the same window;
  *  - query: `network(θ)` on the current state, θ taking turns in
  *    {0.5, 0.75, 0.9}.
  */
object Realtime {
  val N = 157
  val B = 25
  val NS = 120
  val Len = 8760
  val NCoeff = 18
  val Theta = 0.75
  val Thetas: Array[Double] = Array(0.5, 0.75, 0.9)
  val RoundUpdates = 40
  val RoundBootstraps = 3
  private val nPairs = Reference.nPairs(N)
  private val nWindows = Len / B

  final class Inputs(val data: Array[Array[Double]], val windows: Array[Array[Array[Double]]])

  def inputs(seed: Long, n: Int = N): Inputs = {
    val data = ClimateData.ncea(n = n, len = Len, seed = seed + 7919L)
    new Inputs(data, Array.tabulate(nWindows)(w =>
      Array.tabulate(n)(i => java.util.Arrays.copyOfRange(data(i), w * B, (w + 1) * B))))
  }

  def bootstrap(in: Inputs, ns: Int = NS): SlidingNetwork = {
    val sn = new SlidingNetwork(in.data.length, ns)
    (0 until ns).foreach(w => sn.ingest(in.windows(w)))
    sn
  }

  def bootstrapApprox(in: Inputs, ns: Int = NS): SlidingApproxNetwork = {
    val an = new SlidingApproxNetwork(in.data.length, ns, NCoeff)
    (0 until ns).foreach(w => an.ingest(in.windows(w)))
    an
  }

  /** Reference correlations over the sliding window that ends with window w. */
  def reference(in: Inputs, w: Int, ns: Int = NS): Array[Double] =
    Reference.corrs(in.data, (w + 1 - ns) * B, (w + 1) * B)

  def drift(sn: SlidingNetwork, ref: Array[Double]): Double = {
    val n = sn.nSeries
    var d = 0.0
    var i = 0
    while (i < n) {
      var j = i + 1
      while (j < n) { d = math.max(d, math.abs(sn.corr(i, j) - ref(Reference.pairIndex(n, i, j)))); j += 1 }
      i += 1
    }
    d
  }

  def warmUp(seed: Long): Unit = {
    val small = inputs(seed, n = 24)
    val (sn, an) = (bootstrap(small, 10), bootstrapApprox(small, 10))
    (10 until 60).foreach { w =>
      sn.ingest(small.windows(w)); sn.network(Theta)
      an.ingest(small.windows(w)); an.network(Theta)
    }
    drift(sn, reference(small, 59, 10))
  }

  def run(a: Args, r: Report): Unit = {
    val setup = new Samples
    var in: Inputs = null
    (0 until (if (a.trace) 1 else Probe.LocalSetupReps)).foreach { _ =>
      in = null
      Probe.liveHeapMb()
      val t0 = Probe.nowNs
      in = inputs(a.seed)
      warmUp(a.seed)
      setup.add(Probe.msSince(t0) / 1e3)
    }
    r.facts("setup_reps_s") = setup.values.toSeq
    if (a.trace) traced(r, in) else timed(a, r, in, setup)
  }

  /** Timed run in rounds: fresh bootstraps of both engines, then the
    * same `RoundUpdates` windows, so that each metric samples the whole run.
    */
  private def timed(a: Args, r: Report, in: Inputs, setup: Samples): Unit = {
    val sketchS, updateMs, approxMs, queryMs = new Samples
    var turn = 0
    var maxDrift = 0.0
    var held: AnyRef = null // the last round's engines, for heap_mb
    Probe.loop(min = 4, max = 100, seconds = a.seconds) { _ =>
      held = null
      val sn = (0 until RoundBootstraps).map { _ =>
        r.op("bootstrap") {
          val (sn, ms) = Probe.timeMs(bootstrap(in))
          sketchS.add(ms / 1e3)
          sn
        }
      }.last
      val an = bootstrapApprox(in)
      held = (sn, an)
      sn.foreach { sn =>
        (NS until NS + RoundUpdates).foreach { w =>
          val win = in.windows(w)
          turn += 1
          val theta = Thetas(turn % Thetas.length)
          val net = r.op("update") { val (n, ms) = Probe.timeMs { sn.ingest(win); sn.network(Theta) }; updateMs.add(ms); n }
          val anet = r.op("approx update") { val (n, ms) = Probe.timeMs { an.ingest(win); an.network(Theta) }; approxMs.add(ms); n }
          val qnet = r.op("query") { val (n, ms) = Probe.timeMs(sn.network(theta)); queryMs.add(ms); n }
          val ref = reference(in, w)
          net.foreach(n => r.check(s"update window $w", Checker.network(N, Checker.edges(n), ref, Theta)))
          anet.foreach(n => r.check(s"approx update window $w", Checker.superset(N, Checker.edges(n), ref, Theta)))
          qnet.foreach(n => r.check(s"query window $w θ=$theta", Checker.network(N, Checker.edges(n), ref, theta)))
          maxDrift = math.max(maxDrift, drift(sn, ref))
        }
      }
    }
    r.put("setup_s", Metric(setup.median, "s", "median", setup.n))
    r.put("sketch_s", Metric(sketchS.median, "s", "median", sketchS.n))
    r.percentile("query_p50_ms", queryMs, 0.5)
    r.percentile("query_p90_ms", queryMs, 0.9)
    r.percentile("update_p50_ms", updateMs, 0.5)
    r.percentile("update_p90_ms", updateMs, 0.9)
    r.put("heap_mb", Metric(Probe.liveHeapMb(held), "MB", "live after full GC, sliding state held", 1))
    r.facts("approx_update_p50_ms") = approxMs.median
    r.facts("approx_update_samples") = approxMs.n
    r.facts("max_drift") = maxDrift
  }

  /** Traced run: 60 updates, each timed whole on one engine and layer by
    * layer on a second engine fed the same windows.
    */
  private def traced(r: Report, in: Inputs): Unit = {
    val Updates = 60
    val plain = bootstrap(in)
    val sn = bootstrap(in)
    val an = bootstrapApprox(in)
    val ofMs, pearsonMs, ingestMs, otherMs, allocB, networkMs, dftMs, aIngestMs, aOtherMs, aUpdateMs, overhead =
      new Samples
    var gcMs = 0L
    var maxDrift = 0.0
    (0 until Updates).foreach { k =>
      val w = NS + k
      val win = in.windows(w)
      r.op("update") {
        val (net, untraced) = Probe.timeMs { plain.ingest(win); plain.network(Theta) }
        val t0 = Probe.nowNs
        val (stats, of) = Probe.timeMs(win.map(WindowStats.of))
        val cs = new Array[Double](nPairs)
        val (_, pe) = Probe.timeMs {
          var i = 0
          while (i < N) { var j = i + 1; while (j < N) { cs(Reference.pairIndex(N, i, j)) = WindowStats.pearson(win(i), win(j)); j += 1 }; i += 1 }
        }
        val g0 = Probe.gcMs()
        val a0 = Probe.allocatedBytes()
        val (_, ing) = Probe.timeMs(sn.ingest(win))
        allocB.add((Probe.allocatedBytes() - a0).toDouble)
        val (_, nw) = Probe.timeMs(sn.network(Theta))
        gcMs += Probe.gcMs() - g0
        overhead.add(Probe.msSince(t0) - untraced)
        ofMs.add(of); pearsonMs.add(pe); ingestMs.add(ing); otherMs.add(ing - of - pe); networkMs.add(nw)

        val (_, dft) = Probe.timeMs((0 until N).foreach(i => DFT.transform(ApproxCorrelation.normalize(win(i), stats(i)))))
        val (_, aing) = Probe.timeMs(an.ingest(win))
        val (anet, anw) = Probe.timeMs(an.network(Theta))
        dftMs.add(dft); aIngestMs.add(aing); aOtherMs.add(aing - of - dft); aUpdateMs.add(aing + anw)

        val ref = reference(in, w)
        r.check(s"update window $w", Checker.network(N, Checker.edges(net), ref, Theta),
          Checker.superset(N, Checker.edges(anet), ref, Theta))
        maxDrift = math.max(maxDrift, math.max(drift(sn, ref), drift(plain, ref)))
      }
    }
    r.percentile("core.WindowStats.of_ms", ofMs, 0.5)
    r.percentile("core.WindowStats.pearson_ms", pearsonMs, 0.5)
    r.percentile("core.SlidingNetwork.ingest_ms", ingestMs, 0.5)
    r.percentile("core.SlidingNetwork.ingest_other_ms", otherMs, 0.5)
    r.percentile("core.SlidingNetwork.ingest_alloc_bytes", allocB, 0.5, unit = "bytes")
    r.percentile("core.SlidingNetwork.network_ms", networkMs, 0.5)
    r.put("jvm.gc_ms", Metric(gcMs.toDouble, "ms", "total", Updates))
    r.percentile("dft.DFT.transform_ms", dftMs, 0.5)
    r.percentile("dft.SlidingApproxNetwork.ingest_ms", aIngestMs, 0.5)
    r.percentile("dft.SlidingApproxNetwork.ingest_other_ms", aOtherMs, 0.5)
    r.percentile("dft.SlidingApproxNetwork.update_p50_ms", aUpdateMs, 0.5)
    r.count("core.updates", Updates, stat = "workload parameter")
    r.count("core.cj_computed", Updates.toLong * nPairs, stat = "updates x pairs")
    r.put("core.max_drift", Metric(maxDrift, "abs", "max", Updates))
    r.percentile("trace.update_overhead_ms", overhead, 0.5)
  }
}
