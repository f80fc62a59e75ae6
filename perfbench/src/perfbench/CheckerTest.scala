package perfbench

import repro.climate.ClimateData
import repro.core.Network

/** Tests of the benchmark's own checker and accounting. Exits non-zero
  * when one fails; run with `python3 perfbench/run.py --self-test`.
  */
object CheckerTest {
  private var failures = 0

  private def test(name: String)(cond: => Boolean): Unit = {
    val ok = try cond catch { case e: Throwable => println(s"  threw $e"); false }
    println(s"${if (ok) "ok  " else "FAIL"} $name")
    if (!ok) failures += 1
  }

  def main(argv: Array[String]): Unit = {
    val n = 12
    val theta = 0.5
    val data = ClimateData.ncea(n = n, len = 400, seed = 3L)
    val ref = Reference.corrs(data, 40, 360)
    val pairs = for (i <- 0 until n; j <- i + 1 until n) yield (i, j)
    def idx(i: Int, j: Int) = Reference.pairIndex(n, i, j)
    def edges(net: Network) = net.edges.map(e => (e._1, e._2))
    val good = Network.fromPairs(n, (i, j) => ref(idx(i, j)), theta)
    val edgeSet = edges(good).toSet
    val nonEdge = pairs.find(p => !edgeSet.contains(p)).get
    val anEdge = edges(good).head

    test("data has edges and non-edges at θ")(edgeSet.nonEmpty && edgeSet.size < pairs.size)
    test("the reference's own network passes")(Checker.network(n, edges(good), ref, theta).ok)

    test("one added edge fails")(!Checker.network(n, edges(good) :+ nonEdge, ref, theta).ok)
    test("one dropped edge fails")(!Checker.network(n, edges(good).filterNot(_ == anEdge), ref, theta).ok)
    test("a duplicated edge fails")(!Checker.network(n, edges(good) :+ anEdge, ref, theta).ok)
    test("an edge outside the triangle fails")(!Checker.network(n, edges(good) :+ ((3, 3)), ref, theta).ok)

    test("one correlation moved across θ fails") {
      val (i, j) = pairs.minBy(p => math.abs(ref(idx(p._1, p._2)) - theta))
      val moved = Network.fromPairs(n, (a, b) =>
        if ((a, b) == (i, j)) 2 * theta - ref(idx(a, b)) else ref(idx(a, b)), theta)
      val v = Checker.network(n, edges(moved), ref, theta)
      !v.ok && v.mismatches == 1
    }

    test("within 1e-9 of θ either decision passes") {
      val p = idx(anEdge._1, anEdge._2)
      val near = ref.clone()
      near(p) = theta + 1e-10
      Checker.network(n, edges(good), near, theta).ok &&
        Checker.network(n, edges(good).filterNot(_ == anEdge), near, theta).ok
    }

    test("a superset of the exact edges passes")(Checker.superset(n, edges(good) :+ nonEdge, ref, theta).ok)
    test("a superset missing one exact edge fails")(
      !Checker.superset(n, edges(good).filterNot(_ == anEdge), ref, theta).ok)

    test("sketch values off by more than 1e-9 fail, within pass") {
      val v = ref.clone()
      Checker.close(v, ref).ok && { v(3) += 1e-12; Checker.close(v, ref).ok } &&
        { v(3) += 1e-6; !Checker.close(v, ref).ok } && { v(3) = Double.NaN; !Checker.close(v, ref).ok }
    }

    test("reference moments are two-pass mean and population std") {
      val (m, s) = Reference.moments(data, 40, 360)
      val x = data(5).slice(40, 360)
      val mx = x.sum / x.length
      math.abs(m(5) - mx) < 1e-12 &&
        math.abs(s(5) - math.sqrt(x.map(v => (v - mx) * (v - mx)).sum / x.length)) < 1e-12
    }

    test("reference is two-pass exact under a 1e7 offset") {
      val shifted = data.map(_.map(_ + 1e7))
      val r2 = Reference.corrs(shifted, 40, 360)
      ref.indices.forall(p => math.abs(ref(p) - r2(p)) < 1e-8)
    }

    test("reference matches a direct textbook Pearson") {
      val (x, y) = (data(2).slice(40, 360), data(7).slice(40, 360))
      val (mx, my) = (x.sum / x.length, y.sum / y.length)
      val cov = x.indices.map(t => (x(t) - mx) * (y(t) - my)).sum
      val c = cov / math.sqrt(x.map(v => (v - mx) * (v - mx)).sum * y.map(v => (v - my) * (v - my)).sum)
      math.abs(c - ref(idx(2, 7))) < 1e-12
    }

    test("a throwing operation counts as attempted and failed") {
      val r = new Report
      r.op("ok")(1)
      r.op("boom")(throw new IllegalStateException("boom"))
      r.attempted == 2 && r.failed == 1
    }

    test("a wrong answer counts as a failed operation") {
      val r = new Report
      r.op("query")(r.check("query", Checker.network(n, edges(good) :+ nonEdge, ref, theta)))
      r.attempted == 1 && r.failed == 1
    }

    test("derived and computed per-layer metrics are labelled so") {
      Seq("core.Network.fromPairs_self_ms", "core.SlidingNetwork.ingest_other_ms",
        "dft.SlidingApproxNetwork.ingest_other_ms", "stream.engine_ms").forall(Layers.kind(_) == "derived") &&
        Seq("core.windows_folded", "core.partial_points", "core.updates", "core.cj_computed")
          .forall(Layers.kind(_) == "computed") &&
        Seq("core.pairs", "core.edges", "core.ExactCorrelation.arbitrary_ms", "spark.pair_rows")
          .forall(Layers.kind(_) == "measured")
    }

    test("quantiles interpolate linearly") {
      val s = new Samples
      (1 to 11).foreach(v => s.add(v.toDouble))
      s.quantile(0.5) == 6.0 && s.quantile(0.9) == 10.0 && math.abs(s.quantile(0.25) - 3.5) < 1e-12
    }

    println(if (failures == 0) "all checker tests passed" else s"$failures checker tests failed")
    sys.exit(if (failures == 0) 0 else 1)
  }
}
