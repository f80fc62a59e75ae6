package repro.core

import repro.core.ExactCorrelation.Terms

/** Lemma 2 — incremental update of the query-window correlation when the
  * sliding window advances by one basic window (evict the oldest, append
  * the newest).
  *
  * All deltas are taken w.r.t. the *old* window's (size-weighted) grand
  * mean; the new grand mean shifts by α = (B_new·δ_new − B_old·δ_old)/T'
  * (the paper divides by T — a typo that is immaterial in its equal-size
  * experiments where T' = T; Lemma2Spec validates the T' form against
  * from-scratch recomputation for unequal sizes too).
  *
  * The update splits by owner: [[seriesStep]] is the part that depends on
  * one series only (δ_old, δ_new, α and the new T·var), [[numerator]] the
  * part that depends on the pair. `SlidingNetwork` calls the two steps
  * over its flat state; `slide` and `append` compose them on [[Terms]].
  * Appending without eviction is the step with B_old = 0.
  */
object IncrementalCorrelation {

  /** Per-series half of one Lemma-2 step.
    *
    * @param dOld  δ of the evicted window w.r.t. the old grand mean
    * @param dNew  δ of the arriving window w.r.t. the old grand mean
    * @param alpha shift of the grand mean: new grand mean = old + α
    * @param tVar  T'·σ² of the advanced query window
    */
  final case class SeriesStep(dOld: Double, dNew: Double, alpha: Double, tVar: Double)

  /** Advance one series' grand mean and T·var.
    *
    * @param grandMean size-weighted mean of the current query window
    * @param tVar      T·σ² of the current query window
    * @param tNew      T' = T − B_old + B_new, points in the advanced window
    * @param bOld      size of the evicted window (0 when only appending;
    *                  then `meanOld` and `stdOld` are not used)
    * @param meanOld   mean of the evicted window
    * @param stdOld    σ of the evicted window
    */
  def seriesStep(grandMean: Double, tVar: Double, tNew: Long,
                 bOld: Int, meanOld: Double, stdOld: Double,
                 bNew: Int, meanNew: Double, stdNew: Double): SeriesStep = {
    val dOld = if (bOld == 0) 0.0 else meanOld - grandMean
    val dNew = meanNew - grandMean
    val alpha = (bNew * dNew - bOld * dOld) / tNew
    SeriesStep(dOld, dNew, alpha,
      tVar + bNew * (stdNew * stdNew + dNew * dNew) - bOld * (stdOld * stdOld + dOld * dOld) - tNew * alpha * alpha)
  }

  /** Per-pair half of one Lemma-2 step: the numerator T'·cov(x, y) of the
    * advanced window from the current one, the two series' steps and the
    * evicted / arriving windows' σ and c_j.
    */
  def numerator(num: Double, tNew: Long, x: SeriesStep, y: SeriesStep,
                bOld: Int, sxOld: Double, syOld: Double, cOld: Double,
                bNew: Int, sxNew: Double, syNew: Double, cNew: Double): Double =
    num + bNew * (sxNew * syNew * cNew + x.dNew * y.dNew) -
      bOld * (sxOld * syOld * cOld + x.dOld * y.dOld) - tNew * x.alpha * y.alpha

  /** Slide the Lemma-1 terms one basic window forward.
    *
    * @param st     terms of the current query window (time t)
    * @param evictX sketch of the evicted (oldest) basic window of x
    * @param evictY sketch of the evicted basic window of y
    * @param cEvict c_1: per-window correlation of the evicted windows
    * @param addX   sketch of the arriving basic window of x
    * @param addY   sketch of the arriving basic window of y
    * @param cAdd   c_{n_s+1}: correlation of the arriving windows
    * @return       terms of the advanced query window (time t + B_new)
    */
  def slide(st: Terms,
            evictX: WindowStats, evictY: WindowStats, cEvict: Double,
            addX: WindowStats, addY: WindowStats, cAdd: Double): Terms = {
    require(evictX.size == evictY.size && addX.size == addY.size, "window sizes must align across series")
    step(st, evictX.size, evictX.mean, evictX.std, evictY.mean, evictY.std, cEvict, addX, addY, cAdd)
  }

  /** Grow-only variant: append a new basic window without evicting (used
    * when bootstrapping a sliding window until it reaches n_s windows).
    * Lemma 2 with B_old = 0.
    */
  def append(st: Terms, addX: WindowStats, addY: WindowStats, cAdd: Double): Terms =
    step(st, 0, 0.0, 0.0, 0.0, 0.0, 0.0, addX, addY, cAdd)

  private def step(st: Terms, bOld: Int, mxOld: Double, sxOld: Double, myOld: Double, syOld: Double,
                   cOld: Double, addX: WindowStats, addY: WindowStats, cAdd: Double): Terms = {
    val tNew = st.t - bOld + addX.size
    val x = seriesStep(st.grandMeanX, st.tVarX, tNew, bOld, mxOld, sxOld, addX.size, addX.mean, addX.std)
    val y = seriesStep(st.grandMeanY, st.tVarY, tNew, bOld, myOld, syOld, addY.size, addY.mean, addY.std)
    val num = numerator(st.numerator, tNew, x, y, bOld, sxOld, syOld, cOld, addX.size, addX.std, addY.std, cAdd)
    Terms(tNew, num, x.tVar, y.tVar, st.grandMeanX + x.alpha, st.grandMeanY + y.alpha)
  }
}
