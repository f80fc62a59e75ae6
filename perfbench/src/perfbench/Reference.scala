package perfbench

import java.util.stream.IntStream

/** Independent reference: two-pass Pearson correlation of every pair over
  * a raw range. Pass one takes each series' mean over the range; pass two
  * sums products of deviations from those means. It shares no code with
  * the program, and unlike a power-sum formula it does not lose digits to
  * the series' offset.
  */
object Reference {

  /** Flat index of pair (i, j), i < j, in upper-triangular row order — the
    * order in which `Network.fromPairs` visits pairs.
    */
  def pairIndex(n: Int, i: Int, j: Int): Int = i * n - i * (i + 1) / 2 + (j - i - 1)

  def nPairs(n: Int): Int = n * (n - 1) / 2

  // Deviation rows reused across calls, so that checking an answer does not
  // leave garbage behind for the next timed operation's collector.
  private var buf: Array[Array[Double]] = Array.empty

  private def scratch(n: Int, len: Int): Array[Array[Double]] = {
    if (buf.length != n || buf(0).length < len) buf = Array.ofDim[Double](n, len)
    buf
  }

  /** Two-pass mean and population standard deviation of each series over
    * [from, until).
    */
  def moments(data: Array[Array[Double]], from: Int, until: Int): (Array[Double], Array[Double]) = {
    val len = until - from
    val mean = data.map(x => (from until until).map(x(_)).sum / len)
    val std = data.indices.map { i =>
      math.sqrt((from until until).map(t => (data(i)(t) - mean(i)) * (data(i)(t) - mean(i))).sum / len)
    }.toArray
    (mean, std)
  }

  /** Correlations of all pairs over [from, until), indexed by `pairIndex`.
    * A series that is constant over the range correlates 0 with all.
    */
  def corrs(data: Array[Array[Double]], from: Int, until: Int): Array[Double] = {
    val n = data.length
    val len = until - from
    require(len >= 2 && from >= 0 && data.forall(_.length >= until), s"bad range [$from, $until)")
    val dev = scratch(n, len)
    val norm = new Array[Double](n)
    IntStream.range(0, n).parallel().forEach { i =>
      val x = data(i)
      var s = 0.0
      var t = from
      while (t < until) { s += x(t); t += 1 }
      val mean = s / len
      var ss = 0.0
      t = 0
      while (t < len) { val d = x(from + t) - mean; dev(i)(t) = d; ss += d * d; t += 1 }
      norm(i) = math.sqrt(ss)
    }
    val out = new Array[Double](nPairs(n))
    IntStream.range(0, n).parallel().forEach { i =>
      val di = dev(i)
      var j = i + 1
      while (j < n) {
        val dj = dev(j)
        var s0 = 0.0; var s1 = 0.0
        var t = 0
        while (t + 1 < len) { s0 += di(t) * dj(t); s1 += di(t + 1) * dj(t + 1); t += 2 }
        if (t < len) s0 += di(t) * dj(t)
        val den = norm(i) * norm(j)
        out(pairIndex(n, i, j)) = if (den > 0.0) (s0 + s1) / den else 0.0
        j += 1
      }
    }
    out
  }
}

/** Outcome of checking one operation's answer. */
final case class Verdict(ok: Boolean, mismatches: Int, detail: String)

/** The benchmark's checker. An answer is wrong when it names an edge
  * twice or outside the node range, or when any pair's edge decision
  * (corr > θ) differs from the reference's, except where the reference
  * lies within `Tol` of θ and either decision is defensible.
  */
object Checker {
  val Tol = 1e-9

  /** The (i, j) pairs of a network's edges. */
  def edges(net: repro.core.Network): Iterable[(Int, Int)] = net.edges.view.map(e => (e._1, e._2))

  private def present(n: Int, edges: Iterable[(Int, Int)]): Either[String, Array[Boolean]] = {
    val seen = new Array[Boolean](Reference.nPairs(n))
    val it = edges.iterator
    while (it.hasNext) {
      val (i, j) = it.next()
      if (!(0 <= i && i < j && j < n)) return Left(s"edge ($i,$j) outside the upper triangle of $n nodes")
      val p = Reference.pairIndex(n, i, j)
      if (seen(p)) return Left(s"edge ($i,$j) listed twice")
      seen(p) = true
    }
    Right(seen)
  }

  /** Compare a network's edge list with the reference at threshold θ. */
  def network(n: Int, edges: Iterable[(Int, Int)], ref: Array[Double], theta: Double): Verdict =
    present(n, edges) match {
      case Left(why) => Verdict(ok = false, 1, why)
      case Right(seen) =>
        var bad = 0
        var first = ""
        var p = 0
        while (p < ref.length) {
          val r = ref(p)
          if (math.abs(r - theta) > Tol && (r > theta) != seen(p)) {
            if (bad == 0) first = f"pair $p: reference $r%.12f, edge ${seen(p)}, θ=$theta"
            bad += 1
          }
          p += 1
        }
        Verdict(bad == 0, bad, if (bad == 0) "" else s"$bad edge decisions differ; first $first")
    }

  /** Sketch entries that must equal the reference's within `Tol`, relative
    * to the larger of 1 and the reference value.
    */
  def close(got: Array[Double], ref: Array[Double]): Verdict = {
    require(got.length == ref.length, s"${got.length} values against ${ref.length}")
    val bad = ref.indices.filter(k => !(math.abs(got(k) - ref(k)) <= Tol * math.max(1.0, math.abs(ref(k)))))
    Verdict(bad.isEmpty, bad.size,
      if (bad.isEmpty) "" else s"${bad.size} values differ; first at ${bad.head}: ${got(bad.head)} vs ${ref(bad.head)}")
  }

  /** An approximate network must contain every edge the reference has at
    * θ (Eq 4/5 over-estimate correlation, so they give no false negatives).
    */
  def superset(n: Int, approxEdges: Iterable[(Int, Int)], ref: Array[Double], theta: Double): Verdict =
    present(n, approxEdges) match {
      case Left(why) => Verdict(ok = false, 1, why)
      case Right(seen) =>
        val missing = ref.indices.count(p => ref(p) > theta + Tol && !seen(p))
        Verdict(missing == 0, missing, if (missing == 0) "" else s"$missing exact edges missing")
    }
}
