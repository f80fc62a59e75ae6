package perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** One reported metric: its value, unit, the statistic behind it (p50,
  * p90, median, total, …) and the number of samples it was taken over.
  * Its kind (measured, derived or computed) is given by [[Layers]].
  */
final case class Metric(value: Double, unit: String, stat: String, samples: Int)

/** Metrics, failure accounting and free-form facts of one run. */
final class Report {
  val metrics: mutable.LinkedHashMap[String, Metric] = mutable.LinkedHashMap.empty
  val facts: mutable.LinkedHashMap[String, Any] = mutable.LinkedHashMap.empty
  private val failures = mutable.ArrayBuffer.empty[String]
  var attempted = 0L
  var failed = 0L

  /** Run one operation; a throw counts it as failed and yields None. */
  def op[T](what: String)(body: => T): Option[T] = {
    attempted += 1
    try Some(body)
    catch { case NonFatal(e) => fail(s"$what threw $e"); None }
  }

  /** Count an attempted operation as failed (at most once per operation). */
  def fail(why: String): Unit = {
    failed += 1
    if (failures.size < 20) failures += why
  }

  /** Check one operation's verdicts; any failed one fails the operation. */
  def check(what: String, vs: Verdict*): Unit = {
    val bad = vs.filterNot(_.ok)
    if (bad.nonEmpty) fail(s"$what: ${bad.map(_.detail).mkString("; ")}")
  }

  def put(name: String, m: Metric): Unit = {
    require(!metrics.contains(name), s"metric $name reported twice")
    metrics(name) = m
  }

  /** A percentile of timing samples (ms). */
  def percentile(name: String, ms: Samples, q: Double, unit: String = "ms"): Unit =
    put(name, Metric(ms.quantile(q), unit, s"p${(q * 100).round}", ms.n))

  def count(name: String, v: Double, unit: String = "count", stat: String = "total"): Unit =
    put(name, Metric(v, unit, stat, 1))

  def firstFailures: Seq[String] = failures.toSeq
}

/** Samples of one quantity, summarised by linear-interpolated quantiles
  * (the same definition as numpy's default).
  */
final class Samples {
  private val buf = mutable.ArrayBuffer.empty[Double]
  def add(v: Double): Unit = buf += v
  def n: Int = buf.size
  def values: Array[Double] = buf.toArray
  def quantile(q: Double): Double = Samples.quantile(values, q)
  def median: Double = quantile(0.5)
}

object Samples {
  def quantile(xs: Array[Double], q: Double): Double = {
    require(xs.nonEmpty, "no samples")
    val s = xs.sorted
    val h = (s.length - 1) * q
    val lo = math.floor(h).toInt
    val hi = math.ceil(h).toInt
    s(lo) + (h - lo) * (s(hi) - s(lo))
  }
}

/** Clocks and JVM probes used around calls into the program. */
object Probe {
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq

  def nowNs: Long = System.nanoTime()
  def msSince(t0: Long): Double = (System.nanoTime() - t0) / 1e6

  /** Time a block in ms. */
  def timeMs[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, msSince(t0))
  }

  /** Bytes allocated so far by the calling thread. */
  def allocatedBytes(): Long = threads.getCurrentThreadAllocatedBytes

  /** Accumulated collection time of every collector, ms. */
  def gcMs(): Long = gcs.map(_.getCollectionTime).filter(_ >= 0).sum

  /** Live heap after a full collection, MiB. */
  def liveHeapMb(): Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }

  /** Live heap after a full collection while `state` is reachable, MiB. */
  def liveHeapMb(state: AnyRef): Double = {
    val mb = liveHeapMb()
    java.lang.ref.Reference.reachabilityFence(state)
    mb
  }

  /** Set-up is repeated in a run and reported as a median; the local
    * workloads' set-up takes about a second, Spark's several.
    */
  val LocalSetupReps = 5
  val SparkSetupReps = 3

  /** Run a phase until it has at least `min` samples and has used its time
    * share, but never more than `max` samples.
    */
  def loop(min: Int, max: Int, seconds: Double)(step: Int => Unit): Int = {
    val t0 = System.nanoTime()
    var k = 0
    while (k < max && (k < min || (System.nanoTime() - t0) / 1e9 < seconds)) { step(k); k += 1 }
    k
  }
}
