package repro.dft

import repro.core.{SlidingNetwork, WindowStats}

/** All-pair sliding-window state for the DFT comparator (§3.2.2,
  * Equation 6) — [[repro.core.SlidingNetwork]] with each window's c_j
  * replaced by its DFT estimate 1 − d²/2. Each arriving basic window pays
  * the O(B²) DFT per series plus O(nCoeff) per pair for prefix distances;
  * the per-pair correlation then updates incrementally via Eq 6 (Lemma 2
  * over the per-window DFT correlation estimates).
  *
  * @param nSeries  number of series
  * @param nWindows n_s windows in the sliding query window
  * @param nCoeff   DFT coefficients used for per-window distances
  */
final class SlidingApproxNetwork(nSeries: Int, nWindows: Int, val nCoeff: Int)
    extends SlidingNetwork(nSeries, nWindows) {
  require(nCoeff >= 1)

  override protected def windowCorrs(windows: Array[Array[Double]], stats: Array[WindowStats]): Array[Double] = {
    val n = windows.length
    require(nCoeff <= windows(0).length, s"nCoeff=$nCoeff exceeds window size ${windows(0).length}")
    val sketches = Array.tabulate(n)(i => ApproxCorrelation.sketchWindow(windows(i), stats(i)))
    val cs = new Array[Double](n * (n - 1) / 2)
    var p = 0
    var i = 0
    while (i < n) {
      var j = i + 1
      while (j < n) {
        cs(p) = ApproxCorrelation.corrFromDistSq(ApproxCorrelation.windowDistSq(sketches(i), sketches(j), nCoeff))
        p += 1; j += 1
      }
      i += 1
    }
    cs
  }
}
