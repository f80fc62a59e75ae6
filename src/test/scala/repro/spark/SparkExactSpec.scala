package repro.spark

import repro.{Oracle, SparkSpec, TestSeries}
import repro.climate.ClimateData
import repro.core.{BasicWindows, ExactCorrelation, WindowStats}

/** The Catalyst Lemma-1 aggregation must equal the local Lemma 1, the
  * direct Pearson, and DuckDB's `corr` (oracle).
  */
class SparkExactSpec extends SparkSpec {

  private val n = 6
  private val len = 120
  private val b = 20
  private val nWin = len / b
  private lazy val data = ClimateData.series(n, len, seed = 41L)
  private lazy val raw = ClimateData.toDF(spark, data).cache()
  private lazy val sketch = Sketcher.pairSketch(Sketcher.seriesWindowStats(raw, b)).cache()

  test("correlationMatrix equals local Lemma 1 on the full range") {
    val rows = SparkExact.correlationMatrix(sketch, 0, nWin - 1).collect()
    assert(rows.length == n * (n - 1) / 2)
    rows.foreach { r =>
      val i = r.getAs[Int]("i"); val j = r.getAs[Int]("j")
      val local = ExactCorrelation.lemma1(
        BasicWindows.sketch(data(i), b).toIndexedSeq,
        BasicWindows.sketch(data(j), b).toIndexedSeq,
        BasicWindows.pairCorrs(data(i), data(j), b).toIndexedSeq)
      assert(math.abs(r.getAs[Double]("corr") - local) < 1e-9, s"($i,$j)")
    }
  }

  test("correlationMatrix equals direct Pearson on raw data") {
    val rows = SparkExact.correlationMatrix(sketch, 0, nWin - 1).collect()
    rows.foreach { r =>
      val i = r.getAs[Int]("i"); val j = r.getAs[Int]("j")
      assert(math.abs(r.getAs[Double]("corr") - TestSeries.refPearson(data(i), data(j))) < 1e-9)
    }
  }

  for ((wLo, wHi) <- Seq((0, 2), (1, 4), (3, 5), (2, 2))) {
    test(s"correlationMatrix on sub-range of windows [$wLo,$wHi]") {
      val rows = SparkExact.correlationMatrix(sketch, wLo, wHi).collect()
      rows.foreach { r =>
        val i = r.getAs[Int]("i"); val j = r.getAs[Int]("j")
        val expect = TestSeries.refPearson(
          data(i).slice(wLo * b, (wHi + 1) * b), data(j).slice(wLo * b, (wHi + 1) * b))
        assert(math.abs(r.getAs[Double]("corr") - expect) < 1e-9, s"($i,$j)")
      }
    }
  }

  // a constant at 0.0 has exact window moments; at a generic reading the
  // power sums leave a rounding residue in place of a zero variance
  for ((label, level) <- Seq("a generic reading" -> None, "0.0" -> Some(0.0)))
    test(s"correlationMatrix gives 0 for a series constant at $label, as local Lemma 1") {
      val cb = 20
      val cdata = ClimateData.series(3, 60, seed = 43L)
      cdata(1) = Array.fill(60)(level.getOrElse(cdata(1)(0)))
      val csketch = Sketcher.pairSketch(Sketcher.seriesWindowStats(ClimateData.toDF(spark, cdata), cb))
      val rows = SparkExact.correlationMatrix(csketch, 0, 2).collect()
      assert(rows.length == 3)
      rows.foreach { r =>
        val i = r.getAs[Int]("i"); val j = r.getAs[Int]("j")
        val local = ExactCorrelation.lemma1(
          BasicWindows.sketch(cdata(i), cb).toIndexedSeq,
          BasicWindows.sketch(cdata(j), cb).toIndexedSeq,
          BasicWindows.pairCorrs(cdata(i), cdata(j), cb).toIndexedSeq)
        assert(math.abs(r.getAs[Double]("corr") - local) < 1e-9, s"($i,$j)")
      }
    }

  test("ORACLE: sketch-based correlation equals DuckDB corr over raw data") {
    val corrDf = SparkExact.correlationMatrix(sketch, 0, nWin - 1)
    Oracle.assertEquivalent(
      corrDf,
      """SELECT CAST(a.series_id AS INT) AS i, CAST(b.series_id AS INT) AS j,
        |       corr(CAST(a.value AS DOUBLE), CAST(b.value AS DOUBLE)) AS corr
        |FROM raw a JOIN raw b
        |  ON a.t = b.t AND CAST(a.series_id AS INT) < CAST(b.series_id AS INT)
        |GROUP BY 1, 2""".stripMargin,
      "raw" -> raw)
  }

  test("ORACLE: windowed sketch correlation equals DuckDB corr on the window") {
    val corrDf = SparkExact.correlationMatrix(sketch, 1, 3)
    Oracle.assertEquivalent(
      corrDf,
      s"""SELECT CAST(a.series_id AS INT) AS i, CAST(b.series_id AS INT) AS j,
         |       corr(CAST(a.value AS DOUBLE), CAST(b.value AS DOUBLE)) AS corr
         |FROM raw a JOIN raw b
         |  ON a.t = b.t AND CAST(a.series_id AS INT) < CAST(b.series_id AS INT)
         |WHERE CAST(a.t AS INT) BETWEEN ${1 * b} AND ${4 * b - 1}
         |GROUP BY 1, 2""".stripMargin,
      "raw" -> raw)
  }

  test("approxCorrelationMatrix with ALL coefficients equals the exact matrix") {
    val dftSketch = Sketcher.pairSketch(Sketcher.withDft(Sketcher.seriesWindowStats(raw, b)), b)
    val approx = SparkExact.approxCorrelationMatrix(dftSketch, 0, nWin - 1).collect()
      .map(r => ((r.getAs[Int]("i"), r.getAs[Int]("j")), r.getAs[Double]("corr"))).toMap
    val exact = SparkExact.correlationMatrix(sketch, 0, nWin - 1).collect()
    exact.foreach { r =>
      val key = (r.getAs[Int]("i"), r.getAs[Int]("j"))
      assert(math.abs(approx(key) - r.getAs[Double]("corr")) < 1e-7, s"$key")
    }
  }

  test("approxCorrelationMatrix with 75% coefficients over-estimates correlation") {
    val nc = (0.75 * b).toInt
    val dftSketch = Sketcher.pairSketch(Sketcher.withDft(Sketcher.seriesWindowStats(raw, b)), nc)
    val approx = SparkExact.approxCorrelationMatrix(dftSketch, 0, nWin - 1).collect()
      .map(r => ((r.getAs[Int]("i"), r.getAs[Int]("j")), r.getAs[Double]("corr"))).toMap
    SparkExact.correlationMatrix(sketch, 0, nWin - 1).collect().foreach { r =>
      val key = (r.getAs[Int]("i"), r.getAs[Int]("j"))
      // prefix distances under-estimate → per-window ĉ ≥ c; the Lemma-1 fold
      // scales each ĉ by σσ ≥ 0, so the aggregate keeps the bias direction
      assert(approx(key) >= r.getAs[Double]("corr") - 1e-7, s"$key")
    }
  }

  test("edges applies a strict threshold") {
    val corrDf = SparkExact.correlationMatrix(sketch, 0, nWin - 1)
    val all = corrDf.collect().map(r => r.getAs[Double]("corr"))
    val theta = all.sorted.apply(all.length / 2) // median → some pass, some fail
    val kept = SparkExact.edges(corrDf, theta).collect()
    assert(kept.length == all.count(_ > theta))
    assert(kept.forall(_.getAs[Double]("corr") > theta))
  }
}
