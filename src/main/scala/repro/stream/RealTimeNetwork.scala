package repro.stream

import scala.collection.mutable
import org.apache.spark.sql.{Encoders, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.StreamingQuery
import repro.core.{Network, SlidingNetwork}

/** One observation of one series at one timestamp. */
final case class Obs(seriesId: Int, t: Long, value: Double)

/** Algorithm 3 (Network-Construct-RealTime) on Structured Streaming.
  *
  * A MemoryStream of [[Obs]] rows feeds `foreachBatch`; the driver-side
  * assembler buffers out-of-order rows until a full basic window of B
  * points is present *for every series* (the paper: "the algorithm waits
  * until all new B data points arrive"), then hands the window batch to a
  * [[repro.core.SlidingNetwork]], which advances every pair's correlation
  * via Lemma 2. The current network is queryable at any time between
  * batches.
  *
  * A window is complete when every series has reported at each of its B
  * timestamps. A second row for the same (series, t) overwrites the first
  * (last write wins) and is counted in `duplicateRows`; a row for a
  * timestamp already ingested is dropped and counted in `lateRows`.
  *
  * @param spark    session to attach the stream to
  * @param nSeries  number of series
  * @param b        basic window size B
  * @param nWindows n_s windows in the sliding query window (query size m = n_s·B)
  */
final class RealTimeNetwork(spark: SparkSession, val nSeries: Int, val b: Int, val nWindows: Int) {

  val sliding = new SlidingNetwork(nSeries, nWindows)

  /** Values observed so far at one timestamp, and which series sent them. */
  private final class Pending {
    val values = new Array[Double](nSeries)
    val seen = new Array[Boolean](nSeries)
    var reported = 0
  }

  private val pending = mutable.LongMap.empty[Pending]
  private var nextWindowStart = 0L
  private var windowsIngested = 0L
  private var duplicates = 0L
  private var late = 0L

  val input: MemoryStream[Obs] = MemoryStream[Obs](spark)(Encoders.product[Obs])

  private val query: StreamingQuery = input
    .toDS()
    .writeStream
    .outputMode("append")
    .foreachBatch { (batch: org.apache.spark.sql.Dataset[Obs], _: Long) =>
      offer(batch.collect())
    }
    .start()

  /** Driver-side assembly; synchronized because foreachBatch runs on the
    * streaming thread while tests read the matrix from the main thread.
    */
  private def offer(rows: Array[Obs]): Unit = synchronized {
    rows.foreach { o =>
      require(o.seriesId >= 0 && o.seriesId < nSeries, s"bad series ${o.seriesId}")
      if (o.t < nextWindowStart) late += 1
      else {
        val at = pending.getOrElseUpdate(o.t, new Pending)
        if (at.seen(o.seriesId)) duplicates += 1
        else { at.seen(o.seriesId) = true; at.reported += 1 }
        at.values(o.seriesId) = o.value
      }
    }
    var complete = true
    while (complete) {
      var t = nextWindowStart
      while (complete && t < nextWindowStart + b) {
        if (!pending.get(t).exists(_.reported == nSeries)) complete = false
        t += 1
      }
      if (complete) {
        val at = Array.tabulate(b)(k => pending(nextWindowStart + k).values)
        val windows = Array.tabulate(nSeries)(i => Array.tabulate(b)(k => at(k)(i)))
        sliding.ingest(windows)
        (nextWindowStart until nextWindowStart + b).foreach(pending.remove)
        nextWindowStart += b
        windowsIngested += 1
      }
    }
  }

  /** Push rows into the stream and block until they are processed. */
  def sendAndProcess(rows: Seq[Obs]): Unit = {
    input.addData(rows)
    query.processAllAvailable()
  }

  /** Number of complete basic windows ingested so far. */
  def ingestedWindows: Long = synchronized(windowsIngested)

  /** Rows that repeated a (series, t) already received; the later value was kept. */
  def duplicateRows: Long = synchronized(duplicates)

  /** Rows dropped because their timestamp was already ingested. */
  def lateRows: Long = synchronized(late)

  def matrix(): Array[Array[Double]] = synchronized(sliding.matrix())
  def network(theta: Double): Network = synchronized(sliding.network(theta))

  def stop(): Unit = query.stop()
}
