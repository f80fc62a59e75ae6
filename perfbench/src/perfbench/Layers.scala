package perfbench

/** How a per-layer metric is obtained. Which metrics exist, and their units,
  * is listed once, in BENCHMARK.json; a metric not named here is measured
  * (timed, or observed from the program or a JVM or Spark probe).
  *
  *  - derived: one timed call minus the others made on the same inputs;
  *  - computed: a count from the workload's parameters or from the
  *    program's `BasicWindows.coverage`, not observed from the call it
  *    describes, so that it moves only when those do.
  */
object Layers {
  val Derived: Set[String] = Set(
    "core.Network.fromPairs_self_ms", "core.SlidingNetwork.ingest_other_ms",
    "dft.SlidingApproxNetwork.ingest_other_ms", "stream.engine_ms")

  val Computed: Set[String] = Set(
    "core.windows_folded", "core.partial_points", "core.updates", "core.cj_computed")

  def kind(name: String): String =
    if (Derived(name)) "derived" else if (Computed(name)) "computed" else "measured"
}
