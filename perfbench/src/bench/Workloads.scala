package perfbench

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{AdaWave, AdaWaveConfig, AdaWaveResult, Grid}
import repro.data.UciLike
import repro.eval.AMI
import repro.harness.Harness

/** Outcome of the correctness gate for one operation. */
final case class Gate(ami: Double, problems: Seq[String]) {
  def ok: Boolean = problems.isEmpty
}

/** A workload's input, built once per set-up and then reused by every
  * operation of the run.
  */
trait Prepared {

  /** Input points one operation clusters. */
  def n: Long

  /** Problems found while building the input; empty when the generator
    * produced exactly what it specifies.
    */
  def buildProblems: Seq[String]


  /** Problems found comparing this build with an earlier one of the same
    * seed; empty when both are identical.
    */
  def differsFrom(other: Prepared): Seq[String]

  /** Runs one timed operation and returns its wall time in seconds and the
    * gate on its output. The gate itself is not timed.
    */
  def timedOp(): (Double, Gate)

  def release(): Unit
}

sealed trait Workload {
  def name: String
  def build(spark: SparkSession, seed: Long): Prepared

  /** Operations run before timing starts, while the JIT warms up. */
  def warmupOps: Int
}

object Workload {
  val all: Seq[Workload] = Seq(Synthetic.Running2d, Synthetic.Blobs8d, Uci9)

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(
        s"unknown workload '$name' (known: ${all.map(_.name).mkString(", ")})"))

  def elapsed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** The synthetic workloads draw one of this many inputs, `seed mod
    * Variants`, so that every seed has a recorded reference AMI.
    */
  val Variants = 16
}

/** A synthetic workload generated on Spark from `spark.range` and seeded
  * `rand`/`randn` columns, so that building 4.5 M points costs a scan and
  * not a driver-side `Row` per point. Columns: `id` (0 until n), `label`
  * (0 = noise, 1..5 = generating cluster) and the coordinates `cols`.
  *
  * @param labelCounts points per label, fixed by construction
  * @param checkBins   bins of the `Grid.quantize` cell map compared between
  *                    two builds of the same seed
  * @param autoCalibrated whether one operation calls `AdaWave.clusterAuto`
  *                       rather than `AdaWave.cluster` with the paper's
  *                       defaults for the dimension
  */
final class Synthetic(
    val name: String,
    val cols: Seq[String],
    val labelCounts: Map[Int, Long],
    val checkBins: Int,
    generate: (SparkSession, Int) => DataFrame,
    val autoCalibrated: Boolean,
    override val warmupOps: Int) extends Workload {

  val n: Long = labelCounts.values.sum

  def call(df: DataFrame): AdaWaveResult =
    if (autoCalibrated) AdaWave.clusterAuto(df, cols)
    else AdaWave.cluster(df, cols, AdaWaveConfig.auto(cols.size))

  def build(spark: SparkSession, seed: Long): SynthPrepared = {
    val variant = Math.floorMod(seed, Workload.Variants.toLong).toInt
    val df = generate(spark, variant).cache()
    val perLabel = df.groupBy("label")
      .agg(count(lit(1)), bit_xor(xxhash64(col("id"))))
      .collect()
      .map(r => r.getInt(0) -> (r.getLong(1), r.getLong(2)))
      .toMap
    val cells = Grid.quantize(df, cols, checkBins).cells
    new SynthPrepared(this, variant, df, perLabel.values.map(_._2).foldLeft(0L)(_ ^ _),
      perLabel.map { case (l, (c, _)) => l -> c }, cells)
  }
}

/** @param cells the checked `Grid.quantize` cell map, only ever compared for
  *              equality, so this build does not depend on the cell type
  */
final class SynthPrepared(
    val workload: Synthetic,
    val variant: Int,
    val df: DataFrame,
    private val idXor: Long,
    private val builtCounts: Map[Int, Long],
    private val cells: AnyRef) extends Prepared {

  def n: Long = workload.n

  val reference: Option[Reference] = References.lookup(workload.name, variant.toString)

  def buildProblems: Seq[String] =
    if (builtCounts == workload.labelCounts) Nil
    else Seq(s"generated per-label counts $builtCounts, specified ${workload.labelCounts}")

  def differsFrom(other: Prepared): Seq[String] = other match {
    case o: SynthPrepared =>
      (if (o.cells == cells) Nil else Seq("Grid.quantize cell maps differ between builds")) ++
        (if (o.idXor == idXor && o.builtCounts == builtCounts) Nil
         else Seq("row ids or labels differ between builds"))
    case _ => Seq("builds of different workloads")
  }

  /** The operation: one AdaWave call plus materialising its labels, which
    * is where the label pass runs.
    */
  def timedOp(): (Double, Gate) = {
    val (res, s) = Workload.elapsed {
      val r = workload.call(df)
      materialize(r.points)
      r
    }
    (s, gate(res.points, res.numClusters))
  }

  def materialize(points: DataFrame): Unit =
    points.write.format("noop").mode("overwrite").save()

  /** Every input row comes back exactly once (count, id sum and id-hash
    * XOR), with its generator label unchanged; cluster ids lie in
    * 0..numClusters; the cluster count and the AMI over non-noise points
    * equal the reference recorded for this input.
    */
  def gate(points: DataFrame, numClusters: Int, checkReference: Boolean = true): Gate = {
    val groups = points.groupBy(col("label"), col(AdaWave.ClusterCol))
      .agg(count(lit(1)), sum(col("id")), bit_xor(xxhash64(col("id"))))
      .collect()
      .map(r => (r.getInt(0), r.getInt(1), r.getLong(2), r.getLong(3), r.getLong(4)))
    val problems = Seq.newBuilder[String]
    val total = groups.map(_._3).sum
    if (total != n) problems += s"$total rows came back, expected $n"
    if (groups.map(_._4).sum != n * (n - 1) / 2 || groups.map(_._5).foldLeft(0L)(_ ^ _) != idXor)
      problems += "row ids came back missing or duplicated"
    val perLabel = groups.groupMapReduce(_._1)(_._3)(_ + _)
    if (perLabel != workload.labelCounts) problems += s"generator labels changed: $perLabel"
    val bad = groups.map(_._2).filter(c => c < 0 || c > numClusters).distinct
    if (bad.nonEmpty) problems += s"cluster ids ${bad.mkString(",")} outside 0..$numClusters"

    // The paper's synthetic protocol (AMI.amiNonNoise): AMI over the points
    // whose generator label is not noise.
    val kept = groups.filter(_._1 != 0)
    val truth = kept.flatMap(g => Array.fill(g._3.toInt)(g._1))
    val pred = kept.flatMap(g => Array.fill(g._3.toInt)(g._2))
    val ami = AMI.ami(truth, pred)
    if (checkReference) {
      val what = s"${workload.name} variant $variant"
      problems ++= References.amiMismatch(what, ami, reference)
      for (r <- reference if r.clusters != numClusters)
        problems += s"$what: $numClusters clusters, reference ${r.clusters}"
    }
    Gate(ami, problems.result())
  }

  def release(): Unit = df.unpersist(blocking = true)
}

object Synthetic {

  /** Spark partitions of the generated input; fixed so that the seeded
    * `rand` streams, and with them the data, do not depend on the cores.
    */
  val Partitions = 8

  private def seeded(variant: Int, stream: Int): Long = 1000003L * (variant + 1) + stream

  /** The paper's running example (§V-B) as `ClusterData.runningExample`
    * draws it — rectangle, two discs, two concentric rings, labels 1..5 —
    * at 75 % uniform noise and 225 000 points per cluster.
    */
  def running2d(spark: SparkSession, variant: Int, clusterSize: Long, noise: Long): DataFrame = {
    val u1 = col("u1")
    val u2 = col("u2")
    val g1 = col("g1")
    val g2 = col("g2")
    val th = u2 * lit(2 * math.Pi)
    def disc(cx: Double, cy: Double, r: Double): (Column, Column) = {
      val rr = lit(r) * sqrt(u1)
      (lit(cx) + rr * cos(th), lit(cy) + rr * sin(th))
    }
    def ring(cx: Double, cy: Double, r: Double, sigma: Double): (Column, Column) = {
      val rr = lit(r) + g1 * sigma
      (lit(cx) + rr * cos(th), lit(cy) + rr * sin(th))
    }
    val shapes: Seq[(Column, Column)] = Seq(
      (lit(0.10) + u1 * 0.16 + g1 * 0.005, lit(0.76) + u2 * 0.08 + g2 * 0.005),
      disc(0.62, 0.74, 0.068),
      disc(0.74, 0.62, 0.068),
      ring(0.30, 0.30, 0.080, 0.008),
      ring(0.30, 0.30, 0.145, 0.008))
    def byLabel(pick: ((Column, Column)) => Column, noiseValue: Column): Column =
      shapes.zipWithIndex.foldLeft(noiseValue) { case (other, (s, i)) =>
        when(col("label") === i + 1, pick(s)).otherwise(other)
      }

    val nClustered = 5 * clusterSize
    spark.range(0, nClustered + noise, 1, Partitions)
      .select(
        col("id"),
        when(col("id") < nClustered, (col("id") / clusterSize).cast("int") + 1)
          .otherwise(0).as("label"),
        rand(seeded(variant, 1)).as("u1"), rand(seeded(variant, 2)).as("u2"),
        randn(seeded(variant, 3)).as("g1"), randn(seeded(variant, 4)).as("g2"))
      .select(col("id"), col("label"),
        byLabel(_._1, u1).as("x"), byLabel(_._2, u2).as("y"))
  }

  /** Five Gaussian blobs (σ = 0.03) plus uniform noise over [0, 1]^d.
    *
    * The centres are fixed, so the seed varies only the point draws: along
    * every dimension the five blobs sit at five distinct levels 0.15 (5σ)
    * apart, in a different order per dimension. With centres drawn at
    * random instead, overlapping layouts moved `clusterAuto`'s AMI between
    * 0.00 and 0.97 from seed to seed, which no single bound can follow.
    */
  def blobs(spark: SparkSession, variant: Int, d: Int, blobSize: Long, noise: Long): DataFrame = {
    val levels = Array(0.22, 0.37, 0.52, 0.67, 0.82)
    val centres = Array.tabulate(5, d)((k, j) => levels(((1 + j % 4) * k + j) % 5))
    val nClustered = 5 * blobSize
    val label = when(col("id") < nClustered, (col("id") / blobSize).cast("int") + 1).otherwise(0)
    val coords = (0 until d).map { j =>
      val centre = element_at(typedLit(centres.map(_(j)).toSeq), col("label"))
      when(col("label") === 0, rand(seeded(variant, 1 + j)))
        .otherwise(centre + randn(seeded(variant, 1 + d + j)) * 0.03)
        .as(s"f$j")
    }
    spark.range(0, nClustered + noise, 1, Partitions)
      .select(col("id"), label.as("label"))
      .select(col("id") +: col("label") +: coords: _*)
  }

  val Running2d = new Synthetic(
    "running2d_4.5m", Seq("x", "y"),
    ((1 to 5).map(_ -> 225000L) :+ (0 -> 3375000L)).toMap,
    checkBins = 128,
    (spark, v) => running2d(spark, v, clusterSize = 225000L, noise = 3375000L),
    autoCalibrated = false, warmupOps = 1)

  val Blobs8d = new Synthetic(
    "blobs8d_200k", (0 until 8).map(j => s"f$j"),
    ((1 to 5).map(_ -> 20000L) :+ (0 -> 100000L)).toMap,
    checkBins = 64,
    // The driver-side stages still speed up by about 10 % from the second
    // operation to the third while the JIT compiles them.
    (spark, v) => blobs(spark, v, d = 8, blobSize = 20000L, noise = 100000L),
    autoCalibrated = true, warmupOps = 2)
}

/** One Table I dataset as the workload feeds it: unit-scaled as in
  * `RealWorldHarness.evaluate`, rows shuffled by the run's seed.
  */
final case class UciCase(name: String, x: Array[Array[Double]], truth: Array[Int])

/** The nine `UciLike.all(20000)` datasets through the Table I path
  * (`Harness.adaWaveAuto`, driver array in, label array out). The seed only
  * permutes rows: the datasets are the ones Table I reports, so the Table I
  * AdaWave row is the reference at every seed.
  */
object Uci9 extends Workload {
  val name = "uci9_table1"

  /** Its 63 Spark jobs per operation still speed up by about 10 % from the
    * second operation to the third.
    */
  override val warmupOps = 2

  def build(spark: SparkSession, seed: Long): Uci9Prepared = {
    val cases = UciLike.all(20000).zipWithIndex.map { case (ds, i) =>
      val order = new scala.util.Random(seed * 31 + i).shuffle(ds.x.indices.toVector).toArray
      val x = UciLike.unitScale(ds.x)
      UciCase(ds.name, order.map(x), order.map(ds.y))
    }
    new Uci9Prepared(spark, cases)
  }
}

final class Uci9Prepared(spark: SparkSession, val cases: Seq[UciCase]) extends Prepared {

  def n: Long = cases.map(_.x.length.toLong).sum

  val references: Seq[Option[Reference]] = cases.map(c => References.lookup(Uci9.name, c.name))

  /** A direct `AdaWave.clusterAuto` call per dataset: the result a traced
    * replay must equal, and the cluster counts `Harness.adaWaveAuto` does
    * not return, for recording references.
    */
  lazy val oneCall: Seq[AdaWaveResult] = cases.map { c =>
    val (df, cols) = Uci9Prepared.frame(spark, c.x)
    AdaWave.clusterAuto(df, cols, assignNoise = true)
  }

  def buildProblems: Seq[String] =
    if (cases.map(_.name) == References.TableI.map(_._1)) Nil
    else Seq(s"datasets ${cases.map(_.name)} are not the Table I datasets")

  def differsFrom(other: Prepared): Seq[String] = other match {
    case o: Uci9Prepared =>
      val same = o.cases.size == cases.size && o.cases.zip(cases).forall { case (a, b) =>
        a.name == b.name && a.truth.sameElements(b.truth) &&
          a.x.length == b.x.length && a.x.indices.forall(i => a.x(i).sameElements(b.x(i)))
      }
      if (same) Nil else Seq("datasets differ between builds")
    case _ => Seq("builds of different workloads")
  }

  def timedOp(): (Double, Gate) = {
    val (labels, s) = Workload.elapsed(
      cases.map(c => Harness.adaWaveAuto(spark, c.x, assignNoise = true)))
    (s, gate(labels))
  }

  /** One label per input row, in 1..numClusters (noise is assigned to the
    * nearest cluster) with numClusters as recorded; each dataset's AMI
    * rounds to its Table I value and equals its recorded value.
    */
  def gate(labels: Seq[Array[Int]]): Gate = {
    val problems = Seq.newBuilder[String]
    val amis = cases.indices.map { i =>
      val c = cases(i)
      val l = labels(i)
      if (l.length != c.x.length) problems += s"${c.name}: ${l.length} labels for ${c.x.length} rows"
      for (r <- references(i)) {
        val lo = if (r.clusters > 0) 1 else 0
        val bad = l.filter(v => v < lo || v > r.clusters).distinct
        if (bad.nonEmpty) problems += s"${c.name}: labels ${bad.take(5).mkString(",")} outside $lo..${r.clusters}"
      }
      val ami = AMI.ami(c.truth, l)
      problems ++= References.tableIMismatch(c.name, ami)
      problems ++= References.amiMismatch(c.name, ami, references(i))
      ami
    }
    Gate(amis.sum / amis.size, problems.result())
  }

  def release(): Unit = ()
}

object Uci9Prepared {

  /** The frame `Harness.adaWaveAuto` builds from a driver array. */
  def frame(spark: SparkSession, x: Array[Array[Double]]): (DataFrame, Seq[String]) =
    (repro.data.ClusterData.toDFn(spark, x, Array.fill(x.length)(0)),
      x.head.indices.map(i => s"f$i"))
}
