package perfbench

import java.lang.management.ManagementFactory
import org.json4s.{DefaultFormats, Formats}
import org.json4s.jackson.Serialization
import scala.collection.immutable.ListMap

/** Parsed command line of one benchmark run. */
final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean, dir: String)

/** Entry point: runs one workload and prints `RECORD <json>` and then
  * `RESULT <json>` on standard output.
  */
object Main {

  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    Args(kv("workload"), kv("seed").toLong, kv("seconds").toInt, kv("trace") == "1", kv("dir"))
  }

  def main(argv: Array[String]): Unit = {
    val jvmBootS = ManagementFactory.getRuntimeMXBean.getUptime / 1e3
    val a = parse(argv)
    val r = new Report
    a.workload match {
      case "histo"    => Histo.run(a, r)
      case "realtime" => Realtime.run(a, r)
      case "spark"    => SparkBench.run(a, r)
      case w          => throw new IllegalArgumentException(s"unknown workload $w")
    }
    // The JVM starts once per process, so set-up repeats without it.
    r.facts("jvm_boot_s") = jvmBootS

    // run.py checks the names and units against BENCHMARK.json.
    val reported = r.metrics.toSeq
    val rt = Runtime.getRuntime
    val record = ListMap(
      "workload" -> a.workload, "seed" -> a.seed, "seconds" -> a.seconds, "trace" -> a.trace,
      "nproc" -> rt.availableProcessors(), "max_heap_mb" -> rt.maxMemory() / (1024 * 1024),
      "java_version" -> System.getProperty("java.version"),
      "java_vm" -> System.getProperty("java.vm.name"),
      "spark_version" -> org.apache.spark.SPARK_VERSION,
      "scala_version" -> scala.util.Properties.versionNumberString,
      "metrics" -> ListMap(reported.map { case (k, m) =>
        k -> ListMap("value" -> m.value, "unit" -> m.unit, "stat" -> m.stat,
          "samples" -> m.samples, "kind" -> Layers.kind(k))
      }: _*),
      "facts" -> ListMap(r.facts.toSeq: _*),
      "failures" -> r.firstFailures,
    )
    val result = ListMap(
      "correct" -> (r.failed == 0), "attempted" -> r.attempted, "failed" -> r.failed,
      "metrics" -> ListMap(reported.map { case (k, m) => k -> ListMap("value" -> m.value, "unit" -> m.unit) }: _*),
    )
    implicit val formats: Formats = DefaultFormats
    println("RECORD " + Serialization.write(record))
    println("RESULT " + Serialization.write(result))
    System.out.flush()
    // Spark and the reference's pool leave non-daemon threads behind.
    sys.exit(0)
  }
}
