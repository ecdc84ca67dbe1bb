package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col, udf}
import repro.core._
import scala.collection.mutable.ArrayBuffer

/** AdaWave's one-call path replayed through each layer's public functions,
  * with a span around every call. It mirrors `AdaWave.cluster`,
  * `AdaWave.clusterAuto` (including the calibration loop, which calls
  * `coarsen` twice per probed level and `shift` more times before the
  * transform) and `Harness.adaWaveAuto` statement for statement, so that
  * its cost and its result equal the real call's.
  */
final class Replay(spark: SparkSession, tr: Tracer) {

  def cluster(df: DataFrame, cols: Seq[String], cfg: AdaWaveConfig): AdaWaveResult =
    run(quantize(df, cols, cfg.bins), 0, cfg, cols)

  def clusterAuto(df: DataFrame, cols: Seq[String], assignNoise: Boolean): AdaWaveResult = {
    val d = cols.size
    if (d <= 2) return cluster(df, cols, AdaWaveConfig.auto(d, assignNoise = assignNoise))
    val fine = 64
    val q = quantize(df, cols, fine)
    val n = q.cells.values.sum
    var cells = q.cells
    var shift = 0
    while ((fine >> shift) > 4 && coarsen(cells).size > n / 3) {
      cells = coarsen(cells)
      shift += 1
    }
    val cfg = AdaWaveConfig(bins = fine >> shift, levels = 1, family = Wavelet.Haar,
      diagonal = false, assignNoise = assignNoise)
    run(q, shift, cfg, cols)
  }

  /** `Harness.adaWaveAuto`: driver array in, labels in row order out. The
    * collected ids are also checked to come back exactly once; problems go
    * to `problems`.
    */
  def adaWaveAuto(x: Array[Array[Double]], problems: ArrayBuffer[String]): (AdaWaveResult, Array[Int]) = {
    val (df, cols) = tr.span("ingest.todf")(Uci9Prepared.frame(spark, x))
    val res = clusterAuto(df, cols, assignNoise = true)
    val rows = tr.span("collect.labels")(res.points.select("id", AdaWave.ClusterCol).collect())
    val out = Array.ofDim[Int](x.length)
    val seen = Array.ofDim[Boolean](x.length)
    for (r <- rows) {
      val i = r.getLong(0).toInt
      if (seen(i)) problems += s"row $i came back twice"
      seen(i) = true
      out(i) = r.getInt(1)
    }
    if (seen.contains(false)) problems += s"${seen.count(!_)} rows did not come back"
    (res, out)
  }

  private def quantize(df: DataFrame, cols: Seq[String], bins: Int): Quantized =
    tr.span("grid.quantize") {
      val q = Grid.quantize(df, cols, bins)
      tr.count("cells", q.cells.size)
      q
    }

  private def coarsen(cells: Map[Vector[Int], Double]): Map[Vector[Int], Double] =
    tr.span("coarsen") {
      val out = AdaWave.coarsen(cells)
      tr.count("cells_in", cells.size)
      tr.count("cells_out", out.size)
      out
    }

  /** `AdaWave.run`, the private stage sequence both entry points share. */
  private def run(q: Quantized, coarsenShift: Int, cfg: AdaWaveConfig, cols: Seq[String]): AdaWaveResult = {
    val d = cols.size
    var cells = q.cells
    for (_ <- 0 until coarsenShift) cells = coarsen(cells)
    tr.count("coarsen.shift", coarsenShift)

    // `Wavelet.transform` is this loop over `transformDim`; running it here
    // gives each pass's input size, and with it the scatter operations.
    val transformed = tr.span("wavelet.transform") {
      tr.count("cells_in", cells.size)
      var g = cells
      for (_ <- 0 until cfg.levels; dim <- 0 until d) {
        tr.count("scatter_ops", g.size.toDouble * cfg.family.lowPass.length)
        g = Wavelet.transformDim(g, dim, cfg.family.lowPass, cfg.family.center)
      }
      tr.count("cells_out", g.size)
      g
    }

    val (thr, kept) = tr.span("elbow.threshold") {
      val positive = transformed.filter { case (_, v) => v > 0 }
      val thr = Elbow.threshold(positive.values)
      val kept = positive.collect { case (c, v) if v >= thr => c }.toSet
      tr.count("curve_len", positive.size)
      tr.count("kept", kept.size)
      (thr, kept)
    }

    val (labels, numClusters) = tr.span("cc.label") {
      val diagonal = cfg.diagonal && d <= 8
      val labels = ConnectedComponents.label(kept, diagonal)
      val k = if (labels.isEmpty) 0 else labels.values.max
      tr.count("components", k)
      tr.count("probes", kept.size * (if (diagonal) math.pow(3, d) - 1 else 2.0 * d))
      (labels, k)
    }

    val shift = coarsenShift + cfg.levels
    val lookup: Vector[Int] => Int = orig =>
      labels.getOrElse(orig.map(_ >> shift), AdaWave.NoiseLabel)
    val labelUdf = udf((cell: Seq[Int]) => lookup(cell.toVector))
    var labeled = q.points
      .withColumn(AdaWave.ClusterCol, labelUdf(col(Grid.CellCol)))
      .drop(Grid.CellCol)

    if (cfg.assignNoise && numClusters > 0) {
      tr.count("noise.reassigned",
        q.cells.iterator.collect { case (c, v) if lookup(c) == AdaWave.NoiseLabel => v }.sum)
      labeled = tr.span("noise.assign")(AdaWave.assignNoiseToNearest(labeled, cols))
    }
    AdaWaveResult(labeled, numClusters, thr, labels)
  }
}

/** Entry point of traced runs (`--trace 1`). */
object TracedMain {
  def main(args: Array[String]): Unit = {
    val o = Options.parse(args)
    System.exit(Bench.run(o, Some(new LayerTrace(o.traceFile))))
  }
}

/** Replays every second operation of a run layer by layer and turns the
  * spans into the per-layer metrics.
  */
final class LayerTrace(traceFile: String) extends TracePlugin {

  private var spark: SparkSession = _
  private var tracer: Tracer = _
  private var replay: Replay = _
  private var oneCall: Seq[AdaWaveResult] = Nil
  private val opIds = ArrayBuffer.empty[Int]

  def prepare(input: Prepared): Unit = {
    spark = SparkSession.active
    tracer = new Tracer(spark.sparkContext)
    replay = new Replay(spark, tracer)
    oneCall = input match {
      case p: SynthPrepared => Seq(p.workload.call(p.df))
      case p: Uci9Prepared => p.oneCall
    }
  }

  def timedReplay(input: Prepared): (Double, Gate) = {
    val id = opIds.size
    opIds += id
    tracer.startOp(id)
    val problems = ArrayBuffer.empty[String]
    val (results, gate) = tracer.span("op") {
      val alloc0 = Tracer.allocatedBytes()
      val gc0 = Tracer.gcSeconds()
      val out = input match {
        case p: SynthPrepared =>
          val res =
            if (p.workload.autoCalibrated) replay.clusterAuto(p.df, p.workload.cols, assignNoise = false)
            else replay.cluster(p.df, p.workload.cols, AdaWaveConfig.auto(p.workload.cols.size))
          tracer.span("label.pass") {
            p.materialize(res.points)
            tracer.count("rows", p.n)
          }
          (Seq(res), () => p.gate(res.points, res.numClusters))
        case p: Uci9Prepared =>
          val (res, labels) = p.cases.map(c => replay.adaWaveAuto(c.x, problems)).unzip
          (res, () => p.gate(labels))
      }
      tracer.count("alloc_bytes", Tracer.allocatedBytes() - alloc0)
      tracer.count("gc_s", Tracer.gcSeconds() - gc0)
      out
    }
    val seconds = tracer.spansOf(id).find(_.name == "op").get.durationS
    for (((r, o), i) <- results.zip(oneCall).zipWithIndex) {
      if (r.threshold != o.threshold || r.numClusters != o.numClusters || r.cellLabels != o.cellLabels)
        problems += s"replay of call $i differs from the one-call result " +
          s"(threshold ${r.threshold} vs ${o.threshold}, clusters ${r.numClusters} vs ${o.numClusters}, " +
          s"cell labels ${if (r.cellLabels == o.cellLabels) "equal" else "differ"})"
    }
    val g = gate()
    (seconds, g.copy(problems = g.problems ++ problems))
  }

  def metrics(untracedOpS: Seq[Double]): Seq[Metric] = {
    val cores = spark.sparkContext.defaultParallelism
    val perOp = opIds.map(id => LayerTrace.opMetrics(tracer.spansOf(id), cores))
    val base = Bench.median(untracedOpS)
    LayerTrace.Names.map { case (name, unit) =>
      val v = name match {
        case "trace.coverage" => Bench.median(perOp.map(_("layers_s")).toSeq) / base
        case "trace.overhead_frac" => Bench.median(perOp.map(_("op_s")).toSeq) / base - 1
        case _ => Bench.median(perOp.map(_(name)).toSeq)
      }
      Metric(name, v, unit)
    }
  }

  def finish(): Unit = {
    tracer.write(traceFile)
    tracer.close()
  }
}

object LayerTrace {

  /** Every per-layer metric of a traced run, with its unit. */
  val Names: Seq[(String, String)] = Seq(
    "grid.quantize_s" -> "s", "grid.cells" -> "count", "grid.spark_jobs" -> "count",
    "grid.shuffle_bytes" -> "bytes", "grid.task_s" -> "s", "grid.parallel_eff" -> "ratio",
    "label.pass_s" -> "s", "label.rows" -> "count", "label.spark_jobs" -> "count",
    "label.task_s" -> "s",
    "coarsen.s" -> "s", "coarsen.calls" -> "count", "coarsen.cells_in" -> "count",
    "coarsen.cells_out" -> "count", "coarsen.shift" -> "count",
    "wavelet.transform_s" -> "s", "wavelet.cells_in" -> "count", "wavelet.cells_out" -> "count",
    "wavelet.scatter_ops" -> "count",
    "elbow.threshold_s" -> "s", "elbow.curve_len" -> "count", "elbow.kept" -> "count",
    "elbow.kept_ratio" -> "ratio",
    "cc.label_s" -> "s", "cc.components" -> "count", "cc.probes" -> "count",
    "noise.assign_s" -> "s", "noise.reassigned" -> "count",
    "ingest.todf_s" -> "s", "collect.labels_s" -> "s",
    "op.spark_jobs" -> "count", "op.driver_alloc_mb" -> "MiB", "op.gc_s" -> "s",
    "trace.coverage" -> "ratio", "trace.overhead_frac" -> "ratio")

  /** One operation's metrics: layer times are span self-times and counts
    * are summed over the operation's calls into the layer (nine datasets on
    * `uci9_table1`).
    */
  def opMetrics(spans: Seq[Span], cores: Int): Map[String, Double] = {
    val root = spans.find(_.name == "op").get
    val layers = spans.filter(_.parent == root.id)
    def of(name: String) = layers.filter(_.name == name)
    def secs(name: String) = of(name).map(_.durationS).sum
    def count(name: String, key: String) = of(name).map(_.counts.getOrElse(key, 0.0)).sum
    def jobs(name: String) = of(name).map(_.jobs.toDouble).sum
    def taskS(name: String) = of(name).map(_.taskNs / 1e9).sum
    def ratio(a: Double, b: Double) = if (b > 0) a / b else 0.0
    val grid = secs("grid.quantize")
    Map(
      "grid.quantize_s" -> grid,
      "grid.cells" -> count("grid.quantize", "cells"),
      "grid.spark_jobs" -> jobs("grid.quantize"),
      "grid.shuffle_bytes" -> of("grid.quantize").map(_.shuffleBytes.toDouble).sum,
      "grid.task_s" -> taskS("grid.quantize"),
      "grid.parallel_eff" -> ratio(taskS("grid.quantize"), grid * cores),
      "label.pass_s" -> secs("label.pass"),
      "label.rows" -> count("label.pass", "rows"),
      "label.spark_jobs" -> jobs("label.pass"),
      "label.task_s" -> taskS("label.pass"),
      "coarsen.s" -> secs("coarsen"),
      "coarsen.calls" -> of("coarsen").size.toDouble,
      "coarsen.cells_in" -> count("coarsen", "cells_in"),
      "coarsen.cells_out" -> count("coarsen", "cells_out"),
      "coarsen.shift" -> root.counts.getOrElse("coarsen.shift", 0.0),
      "wavelet.transform_s" -> secs("wavelet.transform"),
      "wavelet.cells_in" -> count("wavelet.transform", "cells_in"),
      "wavelet.cells_out" -> count("wavelet.transform", "cells_out"),
      "wavelet.scatter_ops" -> count("wavelet.transform", "scatter_ops"),
      "elbow.threshold_s" -> secs("elbow.threshold"),
      "elbow.curve_len" -> count("elbow.threshold", "curve_len"),
      "elbow.kept" -> count("elbow.threshold", "kept"),
      "elbow.kept_ratio" -> ratio(count("elbow.threshold", "kept"), count("elbow.threshold", "curve_len")),
      "cc.label_s" -> secs("cc.label"),
      "cc.components" -> count("cc.label", "components"),
      "cc.probes" -> count("cc.label", "probes"),
      "noise.assign_s" -> secs("noise.assign"),
      "noise.reassigned" -> root.counts.getOrElse("noise.reassigned", 0.0),
      "ingest.todf_s" -> secs("ingest.todf"),
      "collect.labels_s" -> secs("collect.labels"),
      "op.spark_jobs" -> spans.map(_.jobs.toDouble).sum,
      "op.driver_alloc_mb" -> root.counts.getOrElse("alloc_bytes", 0.0) / 1048576.0,
      "op.gc_s" -> root.counts.getOrElse("gc_s", 0.0),
      "op_s" -> root.durationS,
      "layers_s" -> layers.map(_.durationS).sum)
  }
}
