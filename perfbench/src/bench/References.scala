package perfbench

import java.nio.file.{Files, Path, Paths}
import scala.jdk.CollectionConverters._

/** What the program produced on one input when the reference was recorded. */
final case class Reference(ami: Double, clusters: Int)

/** References the correctness gate compares each operation with.
  *
  * `perfbench/reference_ami.tsv` holds, per line, a workload, a key (the
  * input variant of a synthetic workload, or a Table I dataset name), the
  * AMI the program produced there at full precision, and its cluster count.
  * Regenerate it with `python3 perfbench/run.py --record <workload>`.
  * Independently of that file, every `uci9_table1` AMI must round to the
  * AdaWave row of Table I in EXPERIMENTS.md.
  */
object References {

  val File: Path = Paths.get("perfbench", "reference_ami.tsv")

  /** AMI of a cluster-id relabelling may differ in the last bits, since the
    * contingency table is summed in another order; a single moved point
    * changes it by far more than this.
    */
  val Tolerance = 1e-9

  /** EXPERIMENTS.md, Table I, AdaWave row, in `UciLike.all` order. */
  val TableI: Seq[(String, Double)] = Seq(
    "Seeds" -> 0.340, "Roadmap" -> 0.617, "Iris" -> 0.586, "Glass" -> 0.249,
    "DUMDH" -> 0.258, "HTRU2" -> 0.234, "Derm." -> 0.423, "Motor" -> 1.000,
    "Whol." -> 0.571)

  private lazy val recorded: Map[(String, String), Reference] =
    if (!Files.exists(File)) Map.empty
    else Files.readAllLines(File).asScala.iterator
      .map(_.trim).filter(l => l.nonEmpty && !l.startsWith("#"))
      .map { l =>
        val Array(w, k, ami, clusters) = l.split("\t")
        (w, k) -> Reference(ami.toDouble, clusters.toInt)
      }.toMap

  def lookup(workload: String, key: String): Option[Reference] = recorded.get((workload, key))

  def amiMismatch(what: String, ami: Double, reference: Option[Reference]): Seq[String] =
    reference match {
      case None => Seq(s"no reference recorded for $what in $File")
      case Some(r) if math.abs(ami - r.ami) > Tolerance => Seq(s"$what: AMI $ami, reference ${r.ami}")
      case _ => Nil
    }

  def tableIMismatch(dataset: String, ami: Double): Seq[String] =
    TableI.find(_._1 == dataset) match {
      case Some((_, t)) if math.abs(math.rint(ami * 1000) / 1000 - t) > 1e-9 =>
        Seq(f"$dataset: AMI $ami%.6f does not round to Table I's $t%.3f")
      case Some(_) => Nil
      case None => Seq(s"$dataset is not a Table I dataset")
    }
}

/** Prints the reference lines of one workload: every input variant of a
  * synthetic workload, or every Table I dataset of `uci9_table1`.
  */
object RecordReferences {
  def main(args: Array[String]): Unit = {
    val spark = repro.jobs.JobSession.get("perfbench-record")
    val lines = Workload.byName(args(0)) match {
      case w: Synthetic =>
        (0 until Workload.Variants).map { v =>
          val p = w.build(spark, v)
          val r = w.call(p.df)
          val g = p.gate(r.points, r.numClusters, checkReference = false)
          p.release()
          require(g.ok, s"variant $v: ${g.problems.mkString("; ")}")
          s"${w.name}\t$v\t${g.ami}\t${r.numClusters}"
        }
      case Uci9 =>
        val p = Uci9.build(spark, 0)
        p.cases.zip(p.oneCall).map { case (c, r) =>
          val labels = repro.harness.Harness.adaWaveAuto(spark, c.x, assignNoise = true)
          val ami = repro.eval.AMI.ami(c.truth, labels)
          val problems = References.tableIMismatch(c.name, ami)
          require(problems.isEmpty, problems.mkString("; "))
          s"${Uci9.name}\t${c.name}\t$ami\t${r.numClusters}"
        }
    }
    lines.foreach(println)
    spark.stop()
  }
}
