package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestSeries
import repro.climate.ClimateData
import repro.dft.SlidingApproxNetwork

/** SlidingNetwork must, after every ingest, report exactly the direct
  * Pearson correlations of the last n_s·B raw points of every pair.
  */
class SlidingNetworkSpec extends AnyFunSuite {

  private val tol = 1e-8

  private def windowsOf(data: Array[Array[Double]], b: Int, w: Int): Array[Array[Double]] =
    data.map(s => java.util.Arrays.copyOfRange(s, w * b, (w + 1) * b))

  /** Ingest basic window w = [bounds(w), bounds(w + 1)) of every series in
    * turn and, after each, compare the matrix with the reference over the
    * last n_s windows' raw points.
    */
  private def assertTracksReference(data: Array[Array[Double]], bounds: Seq[Int], nWin: Int): Unit = {
    val n = data.length
    val net = new SlidingNetwork(n, nWin)
    for (w <- 0 until bounds.length - 1) {
      net.ingest(data.map(s => java.util.Arrays.copyOfRange(s, bounds(w), bounds(w + 1))))
      val lo = bounds(math.max(0, w + 1 - nWin))
      val hi = bounds(w + 1)
      val m = net.matrix()
      for (i <- 0 until n; j <- i + 1 until n) {
        val expect = TestSeries.refPearson(
          data(i).slice(lo, hi), data(j).slice(lo, hi))
        assert(math.abs(m(i)(j) - expect) < tol, s"window $w pair ($i,$j)")
        assert(m(i)(j) == m(j)(i))
      }
    }
  }

  for ((n, b, nWin) <- Seq((3, 8, 3), (5, 10, 4), (8, 5, 6))) {
    test(s"matrix equals direct Pearson after every ingest (n=$n B=$b n_s=$nWin)") {
      val totalWin = nWin + 4
      val data = ClimateData.series(n, totalWin * b, seed = 11L * n + b)
      assertTracksReference(data, (0 to totalWin).map(_ * b), nWin)
    }
  }

  test("series offset by 1e6 σ match the two-pass reference after every ingest") {
    val n = 5; val b = 10; val nWin = 4; val totalWin = 3 * nWin
    val data = ClimateData.series(n, totalWin * b, seed = 37L).map { s =>
      val offset = 1e6 * WindowStats.of(s).std
      s.map(_ + offset)
    }
    assertTracksReference(data, (0 to totalWin).map(_ * b), nWin)
  }

  test("unequal basic-window sizes stay exact as the ring wraps") {
    val n = 4; val nWin = 3
    val sizes = Seq.tabulate(3 * nWin + 2)(k => Seq(8, 10, 12, 7, 9)(k % 5))
    val bounds = sizes.scanLeft(0)(_ + _)
    assertTracksReference(ClimateData.series(n, bounds.last, seed = 43L), bounds, nWin)
  }

  test("full flag flips once n_s windows arrived") {
    val data = ClimateData.series(3, 40, 1L)
    val net = new SlidingNetwork(3, 3)
    assert(!net.full && net.size == 0)
    net.ingest(windowsOf(data, 10, 0))
    assert(!net.full && net.size == 1)
    net.ingest(windowsOf(data, 10, 1))
    net.ingest(windowsOf(data, 10, 2))
    assert(net.full && net.size == 3)
    net.ingest(windowsOf(data, 10, 3))
    assert(net.full && net.size == 3) // sliding, not growing
  }

  test("network thresholding matches Network.fromMatrix") {
    val data = ClimateData.series(5, 60, 3L)
    val net = new SlidingNetwork(5, 3)
    for (w <- 0 until 3) net.ingest(windowsOf(data, 20, w))
    val viaMatrix = Network.fromMatrix(net.matrix(), 0.5)
    assert(net.network(0.5).edges == viaMatrix.edges)
  }

  /** The exact engine and its DFT subclass share the engine's contract;
    * the suffix names the DFT runs of each case.
    */
  private val engines: Seq[(String, (Int, Int) => SlidingNetwork)] = Seq(
    "" -> ((n, nWin) => new SlidingNetwork(n, nWin)),
    " (dft)" -> ((n, nWin) => new SlidingApproxNetwork(n, nWin, nCoeff = 1)))

  for ((suffix, engine) <- engines) {
    test(s"pairIndex enumerates the upper triangle without collisions$suffix") {
      val net = engine(7, 2)
      val idx = for (i <- 0 until 7; j <- i + 1 until 7) yield net.pairIndex(i, j)
      assert(idx.sorted == (0 until 21))
      intercept[IllegalArgumentException](net.pairIndex(3, 7))
      intercept[IllegalArgumentException](net.pairIndex(2, 2))
    }

    test(s"mismatched window counts rejected$suffix") {
      val net = engine(3, 2)
      intercept[IllegalArgumentException](net.ingest(Array(Array(1.0), Array(2.0))))
    }

    test(s"unequal window lengths rejected$suffix") {
      val net = engine(2, 2)
      intercept[IllegalArgumentException](net.ingest(Array(Array(1.0, 2.0), Array(3.0))))
    }

    test(s"corr before any ingest rejected$suffix") {
      val net = engine(2, 2)
      intercept[IllegalArgumentException](net.corr(0, 1))
    }
  }
}
