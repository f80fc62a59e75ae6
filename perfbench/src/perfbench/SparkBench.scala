package perfbench

import java.util.SplittableRandom
import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.streaming.StreamingQueryListener
import repro.climate.ClimateData
import repro.core.{Network, SlidingNetwork}
import repro.jobs.Jobs
import repro.spark.{Sketcher, SketchStore, SparkExact}
import repro.stream.{Obs, RealTimeNetwork}

/** Task and shuffle counters per job group, from Spark's public listener
  * API. A marker job run after an action flushes the listener queue, so
  * the counts of that action are complete when read.
  */
final class TaskCounters extends SparkListener {
  final class Acc { val tasks, readBytes, readRecords = new AtomicLong }
  private val stageGroup = new ConcurrentHashMap[Int, String]
  private val acc = new ConcurrentHashMap[String, Acc]
  private val endedJobs = ConcurrentHashMap.newKeySet[Int]()

  private def group(props: java.util.Properties): String =
    Option(props).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse("")

  override def onJobStart(e: SparkListenerJobStart): Unit =
    e.stageIds.foreach(s => stageGroup.put(s, group(e.properties)))

  override def onJobEnd(e: SparkListenerJobEnd): Unit = endedJobs.add(e.jobId)

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val a = acc.computeIfAbsent(stageGroup.getOrDefault(e.stageId, ""), _ => new Acc)
    a.tasks.incrementAndGet()
    Option(e.taskMetrics).foreach { m =>
      a.readBytes.addAndGet(m.shuffleReadMetrics.totalBytesRead)
      a.readRecords.addAndGet(m.shuffleReadMetrics.recordsRead)
    }
  }

  /** Run `body` under job group `g`, then wait until its events arrived. */
  def inGroup[T](spark: SparkSession, g: String)(body: => T): T = {
    val sc = spark.sparkContext
    sc.setJobGroup(g, g)
    val out = try body finally sc.clearJobGroup()
    sc.setJobGroup(s"$g-marker", "flush")
    try sc.parallelize(Seq(1), 1).count() finally sc.clearJobGroup()
    val marker = sc.statusTracker.getJobIdsForGroup(s"$g-marker")
    val deadline = System.nanoTime() + 30e9.toLong
    while (!marker.forall(endedJobs.contains) && System.nanoTime() < deadline) Thread.sleep(5)
    require(marker.forall(endedJobs.contains), s"listener events of $g did not arrive")
    out
  }

  def of(g: String): Acc = acc.computeIfAbsent(g, _ => new Acc)
}

/** Micro-batches and rows of the streaming queries, from their progress events. */
final class StreamCounters extends StreamingQueryListener {
  val batches, rows, started, terminated = new AtomicLong
  // Spark calls onQueryStarted synchronously from start(); the other
  // events arrive later, in order, so termination flushes a query's progress.
  override def onQueryStarted(e: StreamingQueryListener.QueryStartedEvent): Unit = started.incrementAndGet()
  override def onQueryProgress(e: StreamingQueryListener.QueryProgressEvent): Unit =
    if (e.progress.numInputRows > 0) { batches.incrementAndGet(); rows.addAndGet(e.progress.numInputRows) }
  override def onQueryTerminated(e: StreamingQueryListener.QueryTerminatedEvent): Unit = terminated.incrementAndGet()
  def awaitTermination(): Unit = {
    val deadline = System.nanoTime() + 30e9.toLong
    while (terminated.get < started.get && System.nanoTime() < deadline) Thread.sleep(5)
    require(terminated.get == started.get, "streaming query did not report termination")
  }
}

/** `spark`: the Spark deployment on `repro.jobs.Jobs.session` (local[*]).
  *
  *  - sketch: Berkeley-shaped archive (200 series × 960 days), B=120,
  *    `Sketcher.seriesWindowStats` → `pairSketch` → parquet `writePair`;
  *  - query: `readPair` → `SparkExact.correlationMatrix(wLo, wHi)` →
  *    `edges(θ)`, collected, over seeded window ranges within [0, 7];
  *  - update: `RealTimeNetwork(n=157, b=25, nWindows=20)` fed one basic
  *    window per `sendAndProcess`, then `network(0.75)`.
  */
object SparkBench {
  val N = 200
  val L = 960
  val B = 120
  val StreamN = 157
  val StreamB = 25
  val StreamNS = 20
  val StreamWindows = 200
  val RoundQueries = 7
  val RoundUpdates = 17
  val Theta = 0.75
  val Thetas: Array[Double] = Array(0.5, 0.75, 0.9)
  private val nWindows = L / B

  final class Ctx(val spark: SparkSession, val tasks: TaskCounters, val streams: StreamCounters,
                  val archive: Array[Array[Double]], val raw: DataFrame,
                  val feed: Array[Array[Double]], val store: SketchStore)

  def session(): (SparkSession, TaskCounters, StreamCounters) = {
    val spark = Jobs.session("perfbench")
    val tasks = new TaskCounters
    val streams = new StreamCounters
    spark.sparkContext.addSparkListener(tasks)
    spark.streams.addListener(streams)
    (spark, tasks, streams)
  }

  def sketch(c: Ctx): Unit = c.store.writePair(Sketcher.pairSketch(Sketcher.seriesWindowStats(c.raw, B)))

  def query(c: Ctx, lo: Int, hi: Int, theta: Double): Seq[(Int, Int)] =
    SparkExact.edges(SparkExact.correlationMatrix(c.store.readPair(c.spark), lo, hi), theta)
      .collect().toSeq.map(row => (row.getInt(0), row.getInt(1)))

  /** Rows of basic window w of the live feed. */
  def feedRows(feed: Array[Array[Double]], w: Int): Seq[Obs] =
    for (i <- feed.indices; t <- w * StreamB until (w + 1) * StreamB) yield Obs(i, t.toLong, feed(i)(t))

  /** Seeded window ranges [lo, hi] ⊂ [0, 7], all 36 in shuffled blocks;
    * θ takes turns in {0.5, 0.75, 0.9}.
    */
  final class Ranges(seed: Long) {
    private val rng = new SplittableRandom(seed * 0x2545F4914F6CDD1DL + 3)
    private val all = for (lo <- 0 until nWindows; hi <- lo until nWindows) yield (lo, hi)
    private var block: List[(Int, Int)] = Nil
    private var made = 0
    def next(): (Int, Int, Double) = {
      if (block.isEmpty) {
        val a = all.toArray
        var k = a.length - 1
        while (k > 0) { val r = rng.nextInt(k + 1); val t = a(k); a(k) = a(r); a(r) = t; k -= 1 }
        block = a.toList
      }
      val (lo, hi) = block.head
      block = block.tail
      made += 1
      (lo, hi, Thetas(made % Thetas.length))
    }
  }

  /** Untimed warm-up of the sketch, query and stream paths on small inputs. */
  def warmUp(spark: SparkSession, dir: String, seed: Long): Unit = {
    val store = SketchStore(s"$dir/warm")
    val raw = ClimateData.toDF(spark, ClimateData.berkeley(20, 4 * B, seed))
    store.writePair(Sketcher.pairSketch(Sketcher.seriesWindowStats(raw, B)))
    SparkExact.edges(SparkExact.correlationMatrix(store.readPair(spark), 0, 3), Theta).collect()
    store.delete()
    val feed = ClimateData.ncea(5, 4 * StreamB, seed)
    val rt = new RealTimeNetwork(spark, 5, StreamB, 2)
    try (0 until 4).foreach { w => rt.sendAndProcess(feedRows(feed, w)); rt.network(Theta) }
    finally rt.stop()
  }

  def setUp(a: Args): Ctx = {
    val (spark, tasks, streams) = session()
    val archive = ClimateData.berkeley(N, L, a.seed)
    val raw = ClimateData.toDF(spark, archive).cache()
    raw.count()
    val feed = ClimateData.ncea(StreamN, StreamWindows * StreamB, a.seed + 99L)
    warmUp(spark, a.dir, a.seed)
    new Ctx(spark, tasks, streams, archive, raw, feed, SketchStore(s"${a.dir}/store"))
  }

  def run(a: Args, r: Report): Unit = {
    val setup = new Samples
    val reps = if (a.trace) 1 else Probe.SparkSetupReps
    var c: Ctx = null
    (0 until reps).foreach { k =>
      if (c != null) { c.spark.stop(); c = null }
      Probe.liveHeapMb()
      val t0 = Probe.nowNs
      c = setUp(a)
      setup.add(Probe.msSince(t0) / 1e3)
    }
    r.facts("setup_reps_s") = setup.values.toSeq
    try { if (a.trace) traced(a, r, c) else timed(a, r, c, setup) }
    finally { c.store.delete(); c.spark.stop() }
  }

  private def checkRows(r: Report, c: Ctx): Unit = {
    val rows = c.store.readPair(c.spark).count()
    r.facts("pair_rows") = rows
    val want = Reference.nPairs(N).toLong * nWindows
    if (rows != want) r.fail(s"pair sketch has $rows rows, want $want")
  }

  private def checkQuery(r: Report, c: Ctx, edges: Seq[(Int, Int)], lo: Int, hi: Int, theta: Double): Unit =
    r.check(s"query [$lo,$hi] θ=$theta",
      Checker.network(N, edges, Reference.corrs(c.archive, lo * B, (hi + 1) * B), theta))

  /** The live feed: a `RealTimeNetwork` primed untimed with the first n_s
    * windows; `next` sends one more window and checks the network returned.
    */
  final class Feed(r: Report, c: Ctx) {
    val rt = new RealTimeNetwork(c.spark, StreamN, StreamB, StreamNS)
    (0 until StreamNS).foreach(w => rt.sendAndProcess(feedRows(c.feed, w)))
    private var w = StreamNS

    def next(send: (RealTimeNetwork, Int) => Option[Network]): Unit = {
      require(w < StreamWindows, "live feed exhausted")
      send(rt, w).foreach { net =>
        val ref = Reference.corrs(c.feed, (w + 1 - StreamNS) * StreamB, (w + 1) * StreamB)
        r.check(s"stream window $w", Checker.network(StreamN, Checker.edges(net), ref, Theta))
      }
      w += 1
    }

    def close(): Unit = { rt.stop(); c.streams.awaitTermination() }
  }

  /** Timed run in rounds of one sketch, then `RoundUpdates` stream updates
    * with `RoundQueries` queries interleaved, so that each metric samples
    * the whole run.
    */
  private def timed(a: Args, r: Report, c: Ctx, setup: Samples): Unit = {
    val sketchS, queryMs, updateMs = new Samples
    val ranges = new Ranges(a.seed)
    val feed = new Feed(r, c)
    val heapMb = try {
      Probe.loop(min = 3, max = (StreamWindows - StreamNS) / RoundUpdates, seconds = a.seconds) { k =>
        r.op("sketch")(c.tasks.inGroup(c.spark, s"sketch-$k")(Probe.timeMs(sketch(c)))._2)
          .foreach(ms => sketchS.add(ms / 1e3))
        if (k == 0) {
          r.facts("sketch_shuffle_read_bytes") = c.tasks.of("sketch-0").readBytes.get
          checkRows(r, c)
        }
        (0 until RoundUpdates).foreach { i =>
          feed.next { (rt, w) =>
            r.op("stream update") {
              val rows = feedRows(c.feed, w)
              val (net, ms) = Probe.timeMs { rt.sendAndProcess(rows); rt.network(Theta) }
              updateMs.add(ms)
              net
            }
          }
          // spread the queries evenly over the round's updates
          (i * RoundQueries / RoundUpdates until (i + 1) * RoundQueries / RoundUpdates).foreach { _ =>
            val (lo, hi, theta) = ranges.next()
            r.op("query") {
              val (edges, ms) = Probe.timeMs(query(c, lo, hi, theta))
              queryMs.add(ms)
              checkQuery(r, c, edges, lo, hi, theta)
            }
          }
        }
      }
      // the driver's heap with the live feed's sliding state still held
      Probe.liveHeapMb(feed)
    } finally feed.close()
    r.put("setup_s", Metric(setup.median, "s", "median", setup.n))
    r.put("sketch_s", Metric(sketchS.median, "s", "median", sketchS.n))
    r.percentile("query_p50_ms", queryMs, 0.5)
    r.percentile("query_p90_ms", queryMs, 0.9)
    r.percentile("update_p50_ms", updateMs, 0.5)
    r.percentile("update_p90_ms", updateMs, 0.9)
    r.put("heap_mb", Metric(heapMb, "MB", "live after full GC, live feed held", 1))
  }

  /** Traced run: the untraced plan once for its shuffle counters, then each
    * stage cached and timed on its own, a fixed set of queries and stream
    * updates split the same way.
    */
  private def traced(a: Args, r: Report, c: Ctx): Unit = {
    val untraced = r.op("sketch")(c.tasks.inGroup(c.spark, "sketch")(Probe.timeMs(sketch(c))._2)).getOrElse(0.0)
    val sk = c.tasks.of("sketch")
    val (stats, statsMs) = Probe.timeMs { val s = Sketcher.seriesWindowStats(c.raw, B).cache(); s.count(); s }
    val (pairs, pairMs) = Probe.timeMs { val p = Sketcher.pairSketch(stats).cache(); p.count(); p }
    val (_, writeMs) = Probe.timeMs(r.op("traced sketch")(c.store.writePair(pairs)))
    pairs.unpersist(blocking = true); stats.unpersist(blocking = true)
    r.put("spark.Sketcher.seriesWindowStats_ms", Metric(statsMs, "ms", "one run", 1))
    r.put("spark.Sketcher.pairSketch_ms", Metric(pairMs, "ms", "one run", 1))
    r.put("spark.SketchStore.writePair_ms", Metric(writeMs, "ms", "one run", 1))
    r.count("spark.sketch.shuffle_bytes", sk.readBytes.get, "bytes")
    r.count("spark.sketch.shuffle_records", sk.readRecords.get)
    r.count("spark.sketch.tasks", sk.tasks.get)
    r.put("trace.sketch_overhead_ms", Metric(statsMs + pairMs + writeMs - untraced, "ms", "one run", 1))
    r.count("spark.SketchStore.bytes", c.store.sizeBytes, "bytes")
    r.count("spark.pair_rows", c.store.readPair(c.spark).count())
    checkRows(r, c)

    val ranges = new Ranges(a.seed)
    val readMs, corrMs, qBytes, qTasks, overhead = new Samples
    (0 until 8).foreach { k =>
      val (lo, hi, theta) = ranges.next()
      r.op("query") {
        val (edges, plain) = c.tasks.inGroup(c.spark, s"query-$k")(Probe.timeMs(query(c, lo, hi, theta)))
        qBytes.add(c.tasks.of(s"query-$k").readBytes.get.toDouble)
        qTasks.add(c.tasks.of(s"query-$k").tasks.get.toDouble)
        val (skDf, rd) = Probe.timeMs { val d = c.store.readPair(c.spark).cache(); d.count(); d }
        val (_, cm) = Probe.timeMs(SparkExact.edges(SparkExact.correlationMatrix(skDf, lo, hi), theta).collect())
        skDf.unpersist(blocking = true)
        readMs.add(rd); corrMs.add(cm); overhead.add(rd + cm - plain)
        checkQuery(r, c, edges, lo, hi, theta)
      }
    }
    r.percentile("spark.SketchStore.readPair_ms", readMs, 0.5)
    r.percentile("spark.SparkExact.correlationMatrix_ms", corrMs, 0.5)
    r.percentile("spark.query.shuffle_bytes", qBytes, 0.5, unit = "bytes")
    r.percentile("spark.query.tasks", qTasks, 0.5, unit = "count")
    r.percentile("trace.query_overhead_ms", overhead, 0.5)

    val sendMs, engineMs = new Samples
    val engine = new SlidingNetwork(StreamN, StreamNS)
    (0 until StreamNS).foreach(w => engine.ingest(Array.tabulate(StreamN)(i =>
      java.util.Arrays.copyOfRange(c.feed(i), w * StreamB, (w + 1) * StreamB))))
    val batches0 = c.streams.batches.get
    val rows0 = c.streams.rows.get
    val feed = new Feed(r, c)
    try (0 until 20).foreach { _ =>
      feed.next { (rt, w) =>
        r.op("stream update") {
          sendMs.add(Probe.timeMs(rt.sendAndProcess(feedRows(c.feed, w)))._2)
          val win = Array.tabulate(StreamN)(i => java.util.Arrays.copyOfRange(c.feed(i), w * StreamB, (w + 1) * StreamB))
          engineMs.add(Probe.timeMs(engine.ingest(win))._2)
          rt.network(Theta)
        }
      }
    } finally feed.close()
    r.percentile("stream.RealTimeNetwork.sendAndProcess_ms", sendMs, 0.5)
    r.percentile("stream.engine_ms", engineMs, 0.5)
    r.count("stream.microbatches", c.streams.batches.get - batches0)
    r.count("stream.rows", c.streams.rows.get - rows0)
  }
}
