package repro.core

import repro.core.IncrementalCorrelation.SeriesStep

/** All-pair sliding-window correlation state for real-time data
  * (Algorithm 3); `ingest` advances every pair via Lemma 2.
  *
  * The state is flat and split by owner:
  *  - per series: a ring of the n_s basic windows' mean and σ, plus the
  *    query window's grand mean and T·var;
  *  - per ring slot: the basic window's size B_j (Lemma 2 stays exact for
  *    unequal sizes);
  *  - per pair: the Lemma-2 numerator T·cov, plus a ring of the n_s
  *    per-window correlations c_j.
  * Ring slot s holds series i's window at s·N + i and pair p's c_j at
  * s·nPairs + p. A slot not yet written reads B = 0, σ = 0 and c = 0, so
  * growing the window is the Lemma-2 step with nothing evicted.
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
  private val winMean = new Array[Double](nWindows * nSeries)
  private val winStd = new Array[Double](nWindows * nSeries)
  private val winSize = new Array[Int](nWindows)
  private val grandMean = new Array[Double](nSeries)
  private val tVar = new Array[Double](nSeries)
  private val numer = new Array[Double](nPairs)
  private val pairC = new Array[Double](nWindows * nPairs)
  private var total = 0L  // T: raw points in the query window
  private var oldest = 0  // ring slot of the oldest basic window
  private var held = 0    // basic windows held

  /** Flat index of pair (i, j) with i < j. */
  def pairIndex(i: Int, j: Int): Int = {
    require(0 <= i && i < j && j < nSeries, s"bad pair ($i,$j)")
    i * nSeries - i * (i + 1) / 2 + (j - i - 1)
  }

  /** Number of basic windows currently held. */
  def size: Int = held

  /** True once the sliding window holds n_s basic windows. */
  def full: Boolean = held == nWindows

  /** c_j of the arriving basic window for every pair, in pair-index order.
    * Called once per ingest, before any state changes.
    *
    * Exact Pearson as a Gram product: each series' window is normalized
    * once to z = (x − μ)/(σ√B), then c_ij = z_i · z_j.
    *
    * @param windows raw basic window per series, all of equal length
    * @param stats   their sketches, `WindowStats.of(windows(i))`
    */
  protected def windowCorrs(windows: Array[Array[Double]], stats: Array[WindowStats]): Array[Double] = {
    val b = windows(0).length
    val z = new Array[Double](nSeries * b)
    var i = 0
    while (i < nSeries) { WindowStats.normalizeInto(windows(i), stats(i), z, i * b); i += 1 }
    val cs = new Array[Double](nPairs)
    var p = 0
    i = 0
    while (i < nSeries) {
      val zi = i * b
      var j = i + 1
      while (j < nSeries) {
        val zj = j * b
        var s = 0.0
        var k = 0
        while (k < b) { s += z(zi + k) * z(zj + k); k += 1 }
        cs(p) = s
        p += 1; j += 1
      }
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
    val slot = (oldest + held) % nWindows // the evicted window's slot once full
    val sBase = slot * nSeries
    val cBase = slot * nPairs
    if (held == 0) initTerms(b, stats, cs)
    else slideTerms(b, stats, cs, slot)
    System.arraycopy(cs, 0, pairC, cBase, nPairs)
    var i = 0
    while (i < nSeries) { winMean(sBase + i) = stats(i).mean; winStd(sBase + i) = stats(i).std; i += 1 }
    winSize(slot) = b
    if (full) oldest = (oldest + 1) % nWindows else held += 1
  }

  /** First window: δ = 0, so the terms are the window's own moments. */
  private def initTerms(b: Int, stats: Array[WindowStats], cs: Array[Double]): Unit = {
    var p = 0
    var i = 0
    while (i < nSeries) {
      grandMean(i) = stats(i).mean
      tVar(i) = b * stats(i).variance
      var j = i + 1
      while (j < nSeries) { numer(p) = b * stats(i).std * stats(j).std * cs(p); p += 1; j += 1 }
      i += 1
    }
    total = b
  }

  /** Lemma 2 over the flat state: evict the window in `slot` (nothing
    * while growing) and add the arriving window.
    */
  private def slideTerms(b: Int, stats: Array[WindowStats], cs: Array[Double], slot: Int): Unit = {
    val sBase = slot * nSeries
    val cBase = slot * nPairs
    val bOld = winSize(slot)
    val tNew = total - bOld + b
    val steps = new Array[SeriesStep](nSeries)
    var i = 0
    while (i < nSeries) {
      steps(i) = IncrementalCorrelation.seriesStep(grandMean(i), tVar(i), tNew,
        bOld, winMean(sBase + i), winStd(sBase + i), b, stats(i).mean, stats(i).std)
      i += 1
    }
    var p = 0
    i = 0
    while (i < nSeries) {
      val x = steps(i); val sxOld = winStd(sBase + i); val sxNew = stats(i).std
      var j = i + 1
      while (j < nSeries) {
        numer(p) = IncrementalCorrelation.numerator(numer(p), tNew, x, steps(j),
          bOld, sxOld, winStd(sBase + j), pairC(cBase + p), b, sxNew, stats(j).std, cs(p))
        p += 1; j += 1
      }
      i += 1
    }
    i = 0
    while (i < nSeries) { grandMean(i) += steps(i).alpha; tVar(i) = steps(i).tVar; i += 1 }
    total = tNew
  }

  private def pairCorr(p: Int, i: Int, j: Int): Double = ExactCorrelation.corr(numer(p), tVar(i), tVar(j))

  /** Current correlation of pair (i, j), i < j. */
  def corr(i: Int, j: Int): Double = {
    val p = pairIndex(i, j)
    require(held > 0, "no data ingested yet")
    pairCorr(p, i, j)
  }

  /** Full symmetric correlation matrix (diagonal = 1). */
  def matrix(): Array[Array[Double]] = {
    require(held > 0, "no data ingested yet")
    val m = Array.fill(nSeries, nSeries)(1.0)
    var p = 0
    var i = 0
    while (i < nSeries) {
      var j = i + 1
      while (j < nSeries) { val c = pairCorr(p, i, j); m(i)(j) = c; m(j)(i) = c; p += 1; j += 1 }
      i += 1
    }
    m
  }

  /** Thresholded network over the current window: the edges of
    * `Network.fromMatrix(matrix(), theta)`, in the same order, read
    * straight from the flat state.
    */
  def network(theta: Double): Network = {
    require(held > 0, "no data ingested yet")
    val es = Vector.newBuilder[(Int, Int, Double)]
    var p = 0
    var i = 0
    while (i < nSeries) {
      var j = i + 1
      while (j < nSeries) {
        val c = pairCorr(p, i, j)
        if (c > theta) es += ((i, j, c))
        p += 1; j += 1
      }
      i += 1
    }
    Network(nSeries, es.result())
  }
}
