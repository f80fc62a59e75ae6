package repro.core

import scala.collection.mutable
import repro.core.ExactCorrelation.Terms

/** All-pair sliding-window correlation state for real-time data
  * (Algorithm 3). Holds, per series, a deque of basic-window sketches and,
  * per pair, a deque of per-window correlations c_j plus the Lemma-1 terms
  * of the current query window; `ingest` advances every pair via Lemma 2.
  *
  * How c_j is estimated is the one thing subclasses change, through
  * `windowCorrs`: exact Pearson here, the DFT estimate 1 − d²/2 in
  * [[repro.dft.SlidingApproxNetwork]] (Equation 6 is Lemma 2 over it).
  *
  * Pairs are stored flat in upper-triangular order: pair (i, j), i < j, at
  * index i·n − i(i+1)/2 + (j − i − 1).
  *
  * @param nSeries  number of time-series (network nodes)
  * @param nWindows n_s: number of basic windows in the sliding query window
  */
class SlidingNetwork(val nSeries: Int, val nWindows: Int) {
  require(nSeries >= 2 && nWindows >= 1)

  private val nPairs = nSeries * (nSeries - 1) / 2
  private val seriesWindows: Array[mutable.ArrayDeque[WindowStats]] =
    Array.fill(nSeries)(mutable.ArrayDeque.empty)
  private val pairCs: Array[mutable.ArrayDeque[Double]] =
    Array.fill(nPairs)(mutable.ArrayDeque.empty)
  private val pairTerms: Array[Terms] = new Array[Terms](nPairs)

  /** Flat index of pair (i, j) with i < j. */
  def pairIndex(i: Int, j: Int): Int = {
    require(0 <= i && i < j && j < nSeries, s"bad pair ($i,$j)")
    i * nSeries - i * (i + 1) / 2 + (j - i - 1)
  }

  /** Number of basic windows currently held. */
  def size: Int = seriesWindows(0).size

  /** True once the sliding window holds n_s basic windows. */
  def full: Boolean = size == nWindows

  /** c_j of the arriving basic window for every pair, in pair-index order.
    * Called once per ingest, before any state changes.
    *
    * @param windows raw basic window per series, all of equal length
    * @param stats   their sketches, `WindowStats.of(windows(i))`
    */
  protected def windowCorrs(windows: Array[Array[Double]], stats: Array[WindowStats]): Array[Double] = {
    val cs = new Array[Double](nPairs)
    var p = 0
    var i = 0
    while (i < nSeries) {
      var j = i + 1
      while (j < nSeries) { cs(p) = WindowStats.pearson(windows(i), windows(j)); p += 1; j += 1 }
      i += 1
    }
    cs
  }

  /** Feed one basic window of raw data for every series. Until the window
    * count reaches n_s this grows the query window (Lemma 2's append
    * special case); afterwards it slides (evict oldest + add newest).
    * Per-pair cost after the O(N·B) sketch and the c_j pass is O(1) —
    * the point of Lemma 2.
    *
    * @param windows raw basic window per series, all of equal length
    */
  def ingest(windows: Array[Array[Double]]): Unit = {
    require(windows.length == nSeries, s"expected $nSeries windows, got ${windows.length}")
    val b = windows(0).length
    require(windows.forall(_.length == b), "all series must deliver equal-size basic windows")
    val stats = windows.map(WindowStats.of)
    val cs = windowCorrs(windows, stats)
    val evicting = full
    var p = 0
    var i = 0
    while (i < nSeries) {
      var j = i + 1
      while (j < nSeries) {
        val c = cs(p)
        if (pairTerms(p) == null) {
          // first window: δ = 0, so terms are the window's own moments
          pairTerms(p) = Terms(b.toLong, b * stats(i).std * stats(j).std * c,
            b * stats(i).variance, b * stats(j).variance, stats(i).mean, stats(j).mean)
        } else if (evicting) {
          val evX = seriesWindows(i).head; val evY = seriesWindows(j).head
          val cEv = pairCs(p).head
          pairTerms(p) = IncrementalCorrelation.slide(pairTerms(p), evX, evY, cEv, stats(i), stats(j), c)
          pairCs(p).removeHead()
        } else {
          pairTerms(p) = IncrementalCorrelation.append(pairTerms(p), stats(i), stats(j), c)
        }
        pairCs(p).append(c)
        p += 1; j += 1
      }
      i += 1
    }
    i = 0
    while (i < nSeries) {
      if (evicting) seriesWindows(i).removeHead()
      seriesWindows(i).append(stats(i))
      i += 1
    }
  }

  /** Current correlation of pair (i, j), i < j. */
  def corr(i: Int, j: Int): Double = {
    val t = pairTerms(pairIndex(i, j))
    require(t != null, "no data ingested yet")
    t.corr
  }

  /** Full symmetric correlation matrix (diagonal = 1). */
  def matrix(): Array[Array[Double]] = {
    val m = Array.fill(nSeries, nSeries)(1.0)
    var i = 0
    while (i < nSeries) {
      var j = i + 1
      while (j < nSeries) { val c = corr(i, j); m(i)(j) = c; m(j)(i) = c; j += 1 }
      i += 1
    }
    m
  }

  /** Thresholded network over the current window. */
  def network(theta: Double): Network = Network.fromMatrix(matrix(), theta)
}
