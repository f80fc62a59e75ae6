package repro.spark

import org.apache.spark.sql.{DataFrame, functions => F}
import org.apache.spark.sql.expressions.UserDefinedFunction
import repro.core.WindowStats
import repro.dft.ApproxCorrelation

/** Algorithm 1 (sketching) on Spark DataFrames.
  *
  * Input is long-format (series_id INT, t INT, value DOUBLE). The sketch
  * is produced in two Catalyst passes:
  *
  *  1. `seriesWindowStats`: group by (series, basic window) → size, mean,
  *     population std, and the window's time-ordered value array (the
  *     array is needed once, to compute pairwise c_j; it is not part of
  *     the persisted sketch).
  *  2. `pairSketch`: self-join aligned windows of pairs (i < j) and
  *     compute the per-window Pearson c_j with a compiled dot-product
  *     UDF — plus, for the DFT comparator, the prefix distance of the
  *     normalized windows' DFT coefficients.
  *
  * The persisted pair sketch row (i, j, w, b, mean/std of both sides, c_j
  * [, d_sq]) is exactly the paper's per-basic-window statistics table.
  */
object Sketcher {

  /** Per-(series, window) statistics with the window's ordered values.
    * Trailing windows shorter than `b` are dropped (paper's model).
    */
  def seriesWindowStats(raw: DataFrame, b: Int): DataFrame =
    raw
      .withColumn("w", F.floor(F.col("t") / b))
      .groupBy("series_id", "w")
      .agg(
        F.count(F.lit(1)).cast("int").as("b"),
        F.avg("value").as("mean"),
        F.stddev_pop("value").as("std"),
        F.expr("transform(array_sort(collect_list(struct(t, value))), s -> s.value)").as("values"),
      )
      .filter(F.col("b") === b)

  /** UDF computing the DFT coefficients (re ++ im, concatenated) of a
    * normalized window, given its raw values, mean and std. O(B²) by
    * design — the comparator's cost the paper measures.
    */
  val dftCoeffsUdf: UserDefinedFunction = F.udf { (values: Seq[Double], mean: Double, std: Double) =>
    val sk = ApproxCorrelation.sketchWindow(values.toArray, WindowStats(values.length, mean, std))
    sk.re.toSeq ++ sk.im.toSeq
  }

  private val distSqUdf: UserDefinedFunction = F.udf { (x: Seq[Double], y: Seq[Double], nCoeff: Int) =>
    val k = x.length / 2
    var d = 0.0
    var f = 0
    while (f < nCoeff) {
      val dr = x(f) - y(f); val di = x(k + f) - y(k + f)
      d += dr * dr + di * di
      f += 1
    }
    d
  }

  /** Compiled dot product — an order of magnitude faster than the
    * interpreted `aggregate(zip_with(...))` higher-order functions on
    * 100+-element windows, which would otherwise dominate (and add noise
    * to) the pairwise sketch cost both algorithms share.
    */
  private val dotUdf: UserDefinedFunction = F.udf { (x: Seq[Double], y: Seq[Double]) =>
    var d = 0.0
    var i = 0
    val n = x.length
    while (i < n) { d += x(i) * y(i); i += 1 }
    d
  }

  /** Add DFT coefficients to a per-series window-stats frame. */
  def withDft(stats: DataFrame): DataFrame =
    stats.withColumn("dft", dftCoeffsUdf(F.col("values"), F.col("mean"), F.col("std")))

  /** Pairwise per-window sketch. When `nCoeff > 0` the input must carry a
    * `dft` column (see `withDft`) and the output gains `d_sq`, the squared
    * prefix distance over the first `nCoeff` coefficients.
    */
  def pairSketch(stats: DataFrame, nCoeff: Int = 0): DataFrame = {
    val hasDft = nCoeff > 0
    val cols = Seq("series_id", "w", "b", "mean", "std", "values") ++ (if (hasDft) Seq("dft") else Nil)
    val left = stats.select(
      F.col("series_id").as("i") +: F.col("w") +: F.col("b") +:
        F.col("mean").as("mean_x") +: F.col("std").as("std_x") +: F.col("values").as("vx") +:
        (if (hasDft) Seq(F.col("dft").as("dft_x")) else Nil): _*)
    val right = stats.select(
      F.col("series_id").as("j") +: F.col("w").as("w2") +: F.col("b").as("b2") +:
        F.col("mean").as("mean_y") +: F.col("std").as("std_y") +: F.col("values").as("vy") +:
        (if (hasDft) Seq(F.col("dft").as("dft_y")) else Nil): _*)
    val joined = left
      .join(right, F.col("w") === F.col("w2") && F.col("i") < F.col("j"))
      .withColumn("dot", dotUdf(F.col("vx"), F.col("vy")))
      .withColumn("c",
        F.when(F.col("std_x") * F.col("std_y") > 0,
          (F.col("dot") / F.col("b") - F.col("mean_x") * F.col("mean_y")) /
            (F.col("std_x") * F.col("std_y"))).otherwise(F.lit(0.0)))
    val withDist =
      if (hasDft) joined.withColumn("d_sq", distSqUdf(F.col("dft_x"), F.col("dft_y"), F.lit(nCoeff)))
      else joined
    val out = Seq("i", "j", "w", "b", "mean_x", "std_x", "mean_y", "std_y", "c") ++
      (if (hasDft) Seq("d_sq") else Nil)
    withDist.select(out.map(F.col): _*)
  }
}
