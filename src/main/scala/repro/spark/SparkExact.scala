package repro.spark

import org.apache.spark.sql.{Column, DataFrame, functions => F}

/** Algorithm 2 (Network-Construct-Histo) on Spark: Lemma 1 evaluated as a
  * single Catalyst aggregation per pair over the persisted pair sketch.
  *
  * Lemma 1 is algebraically expanded so no second pass for the grand mean
  * is needed — with gm_x = Σ B·m_x / T:
  *
  *   numerator = Σ B σ_x σ_y c + Σ B m_x m_y − (Σ B m_x)(Σ B m_y)/T
  *   T σ_x²    = Σ B σ_x²      + Σ B m_x²   − (Σ B m_x)²/T
  *
  * which is a fold over per-window products — exactly a `groupBy(i, j)`
  * with nine `sum`s.
  */
object SparkExact {

  /** Exact per-pair correlation on the query window spanned by basic
    * windows [wLo, wHi] (inclusive). Output: (i, j, corr).
    */
  def correlationMatrix(pairSketch: DataFrame, wLo: Long, wHi: Long): DataFrame = {
    val t = F.col("T")
    pairSketch
      .filter(F.col("w").between(wLo, wHi))
      .groupBy("i", "j")
      .agg(
        F.sum(F.col("b")).cast("double").as("T"),
        F.sum(F.col("b") * F.col("mean_x")).as("smx"),
        F.sum(F.col("b") * F.col("mean_y")).as("smy"),
        F.sum(F.col("b") * F.col("mean_x") * F.col("mean_y")).as("smxy"),
        F.sum(F.col("b") * F.col("mean_x") * F.col("mean_x")).as("smx2"),
        F.sum(F.col("b") * F.col("mean_y") * F.col("mean_y")).as("smy2"),
        F.sum(F.col("b") * F.col("std_x") * F.col("std_y") * F.col("c")).as("scov"),
        F.sum(F.col("b") * F.col("std_x") * F.col("std_x")).as("svx"),
        F.sum(F.col("b") * F.col("std_y") * F.col("std_y")).as("svy"),
      )
      .select(
        F.col("i"), F.col("j"),
        (F.col("scov") + F.col("smxy") - F.col("smx") * F.col("smy") / t).as("num"),
        tVar(F.col("svx"), F.col("smx"), F.col("smx2"), t).as("vx"),
        tVar(F.col("svy"), F.col("smy"), F.col("smy2"), t).as("vy"),
      )
      // 0 when either side is constant over the window, as Terms.corr; the
      // guard also keeps ANSI mode from failing the query on a zero divisor
      .select(
        F.col("i"), F.col("j"),
        F.when(F.col("vx") > 0 && F.col("vy") > 0, F.col("num") / F.sqrt(F.col("vx") * F.col("vy")))
          .otherwise(F.lit(0.0)).as("corr"),
      )
  }

  /** T·σ² of one side. When every window is flat (Σ B σ² = 0) it is only
    * the spread of the window means, and a value within the power sums'
    * rounding bound T·ε·Σ B m² cannot be told from 0: a constant series.
    */
  private def tVar(sv: Column, sm: Column, sm2: Column, t: Column): Column = {
    val v = sv + sm2 - sm * sm / t
    F.when(sv === 0 && v <= t * math.ulp(1.0) * sm2, F.lit(0.0)).otherwise(v)
  }

  /** DFT-approximate per-pair correlation on the same window — Equation 5
    * folded through the Lemma-1 aggregation with c replaced by 1 − d²/2.
    * Requires a `d_sq` column (sketch built with `nCoeff > 0`).
    */
  def approxCorrelationMatrix(pairSketch: DataFrame, wLo: Long, wHi: Long): DataFrame =
    correlationMatrix(
      pairSketch.withColumn("c", F.lit(1.0) - F.col("d_sq") / 2.0), wLo, wHi)

  /** Thresholded edge list (i, j, corr > θ) from a correlation matrix. */
  def edges(corrDf: DataFrame, theta: Double): DataFrame =
    corrDf.filter(F.col("corr") > theta)
}
