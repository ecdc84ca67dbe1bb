package perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

final case class Options(workload: String, seed: Long, seconds: Int, traceFile: String)

object Options {
  def parse(args: Array[String]): Options = {
    require(args.length % 2 == 0, s"expected --key value pairs, got ${args.mkString(" ")}")
    val m = args.grouped(2).map(a => a(0) -> a(1)).toMap
    Options(m("--workload"), m.getOrElse("--seed", "1").toLong,
      m.getOrElse("--seconds", "20").toInt, m.getOrElse("--trace-file", "trace.jsonl"))
  }
}

final case class Metric(name: String, value: Double, unit: String)

/** What the traced build adds to a run: operations replayed layer by layer
  * through each layer's public functions, with spans around every call.
  */
trait TracePlugin {

  /** Called once, after warm-up, with the input every operation uses. */
  def prepare(input: Prepared): Unit

  /** One replayed operation, timed and gated like `Prepared.timedOp`; the
    * gate also fails when the replay's result differs from the one-call
    * result.
    */
  def timedReplay(input: Prepared): (Double, Gate)

  /** Per-layer metrics; `untracedOpS` are the run's untraced operation
    * times, the base of coverage and overhead.
    */
  def metrics(untracedOpS: Seq[Double]): Seq[Metric]

  /** Writes the recorded spans. */
  def finish(): Unit
}

/** One benchmark run: set-up, then operations back to back (a closed loop
  * with one caller) for the requested seconds, then a report whose last
  * line is the JSON result.
  */
object Bench {

  /** Input builds per set-up; `setup_s` counts their median. */
  val Builds = 3

  def main(args: Array[String]): Unit = System.exit(run(Options.parse(args), None))

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  def run(o: Options, plugin: Option[TracePlugin]): Int = {
    val workload = Workload.byName(o.workload)
    val spark = repro.jobs.JobSession.get(s"perfbench-${o.workload}")
    val sessionS =
      (System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3

    // Set-up: build the input several times (each build is checked against
    // the generator's specification and against the first build), keep the
    // last one and warm up on it.
    val setupProblems = ArrayBuffer.empty[String]
    val builds = ArrayBuffer.empty[(Prepared, Double)]
    for (_ <- 0 until Builds) {
      // Release the previous build first: Spark would otherwise serve the
      // identical plan from its cache instead of generating it again.
      builds.lastOption.foreach(_._1.release())
      val (p, s) = Workload.elapsed(workload.build(spark, o.seed))
      setupProblems ++= (if (builds.isEmpty) p.buildProblems else p.differsFrom(builds.head._1))
      builds += p -> s
    }
    val input = builds.last._1
    Console.err.println(s"[perfbench] session ${sessionS} s, builds ${builds.map(_._2).mkString(" ")} s")
    val (_, warmS) = Workload.elapsed {
      for (i <- 0 until workload.warmupOps) {
        val (s, g) = input.timedOp()
        Console.err.println(f"[perfbench] warm-up operation $i: $s%.3f s")
        setupProblems ++= g.problems.map(p => s"warm-up operation $i: $p")
      }
      plugin.foreach(_.prepare(input))
    }
    val setupS = sessionS + median(builds.map(_._2).toSeq) + warmS

    val opS = ArrayBuffer.empty[Double]
    val amis = ArrayBuffer.empty[Double]
    var attempted = 0
    var failed = 0
    val minOps = if (plugin.isDefined) 2 else 1
    val t0 = System.nanoTime()
    val deadline = t0 + o.seconds * 1000000000L
    while (attempted < minOps || System.nanoTime() < deadline) {
      val traced = plugin.isDefined && attempted % 2 == 1
      attempted += 1
      try {
        val (s, g) = if (traced) plugin.get.timedReplay(input) else input.timedOp()
        if (!traced) { opS += s; amis += g.ami }
        Console.err.println(f"[perfbench] operation $attempted${if (traced) " (traced)" else ""}: $s%.3f s")
        if (!g.ok) {
          failed += 1
          Console.err.println(s"[perfbench] operation $attempted failed: ${g.problems.mkString("; ")}")
        }
      } catch {
        case NonFatal(e) =>
          failed += 1
          Console.err.println(s"[perfbench] operation $attempted threw $e")
      }
    }
    val measuredS = (System.nanoTime() - t0) / 1e9

    System.gc()
    System.gc()
    val heapMb = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0

    setupProblems.foreach(p => Console.err.println(s"[perfbench] set-up: $p"))
    if (opS.isEmpty) {
      Console.err.println("[perfbench] no operation completed; no result")
      spark.stop()
      return 1
    }
    val p50 = median(opS.toSeq)
    val metrics = plugin match {
      case None => Seq(
        Metric("setup_s", setupS, "s"),
        Metric("op_s_p50", p50, "s"),
        Metric("points_per_s", input.n / p50, "points/s"),
        Metric("ami", median(amis.toSeq), "ratio"),
        Metric("heap_retained_mb", heapMb, "MiB"))
      case Some(t) => t.metrics(opS.toSeq)
    }
    plugin.foreach(_.finish())

    val master = spark.sparkContext.master
    println(f"workload ${o.workload} seed ${o.seed}: $attempted operations in $measuredS%.1f s " +
      s"(closed loop, one caller, $master)" + (if (plugin.isDefined) ", every second one traced" else ""))
    println(f"  set-up: session $sessionS%.2f s, median of $Builds builds " +
      f"${median(builds.map(_._2).toSeq)}%.2f s, warm-up $warmS%.2f s")
    println(s"  op_s_p50 is the median of ${opS.size} untraced operations; " +
      "no higher percentile has 10 samples beyond it")
    for (m <- metrics) println(f"  ${m.name}%-24s ${m.value}%.6g ${m.unit}")
    println(f"  ${"failed_frac"}%-24s ${failed.toDouble / attempted}%.6g ($failed of $attempted)")
    spark.stop()

    val correct = failed == 0 && setupProblems.isEmpty
    val body = metrics.map(m => s""""${m.name}": {"value": ${Json.num(m.value)}, "unit": "${m.unit}"}""")
    println(s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, """ +
      s""""metrics": {${body.mkString(", ")}}}""")
    0
  }
}

object Json {
  /** A finite double as a JSON number; NaN and infinities become null,
    * which the runner rejects.
    */
  def num(v: Double): String = if (v.isNaN || v.isInfinite) "null" else v.toString
}
