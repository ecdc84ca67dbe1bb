package perfbench

import java.io.PrintWriter
import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** One timed call: `parent` is the enclosing span's id (-1 at the top) and
  * `op` the operation the call belongs to. Spark work started inside the
  * span, but not inside a child span, is attributed to it.
  */
final class Span(val id: Int, val name: String, val parent: Int, val op: Int, val start: Long) {
  var end: Long = 0L
  var jobs = 0L
  var taskNs = 0L
  var shuffleBytes = 0L
  val counts: mutable.Map[String, Double] = mutable.LinkedHashMap.empty

  def durationS: Double = (end - start) / 1e9
}

/** In-memory span recorder used from the benchmark's own code, around the
  * calls it makes into each layer. Spans live in memory and are written out
  * once, by [[write]], when the run ends.
  *
  * Spark work is attributed through a thread-local job property: every job
  * submitted inside a span carries the span id, and a `SparkListener` adds
  * the job, its tasks' run time and their shuffle-write bytes to that span.
  */
final class Tracer(sc: SparkContext) {
  import Tracer._

  private val spans = mutable.ArrayBuffer.empty[Span]
  private var open: List[Span] = Nil
  private var op = -1

  private val stageSpan = new java.util.concurrent.ConcurrentHashMap[Int, Int]()
  @volatile private var jobsStarted = 0L
  @volatile private var jobsEnded = 0L

  private val listener = new SparkListener {
    override def onJobStart(e: SparkListenerJobStart): Unit = {
      jobsStarted += 1
      Option(e.properties).flatMap(p => Option(p.getProperty(SpanProperty))).foreach { id =>
        val s = spans.synchronized(spans(id.toInt))
        s.synchronized(s.jobs += 1)
        e.stageIds.foreach(stageSpan.put(_, id.toInt))
      }
    }
    override def onJobEnd(e: SparkListenerJobEnd): Unit = jobsEnded += 1
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
      Option(stageSpan.get(e.stageId)).foreach { id =>
        val s = spans.synchronized(spans(id))
        val m = e.taskMetrics
        if (m != null) s.synchronized {
          s.taskNs += m.executorRunTime * 1000000L
          s.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
        }
      }
  }
  sc.addSparkListener(listener)

  /** Starts operation `id`; spans opened until the next call belong to it. */
  def startOp(id: Int): Unit = op = id

  def span[A](name: String)(body: => A): A = {
    val s = spans.synchronized {
      val s = new Span(spans.size, name, open.headOption.map(_.id).getOrElse(-1), op, System.nanoTime())
      spans += s
      s
    }
    open = s :: open
    sc.setLocalProperty(SpanProperty, s.id.toString)
    try body
    finally {
      s.end = System.nanoTime()
      open = open.tail
      sc.setLocalProperty(SpanProperty, open.headOption.map(_.id.toString).orNull)
    }
  }

  /** Adds `v` to counter `key` of the innermost open span. */
  def count(key: String, v: Double): Unit = {
    val s = open.head
    s.counts(key) = s.counts.getOrElse(key, 0.0) + v
  }

  /** The spans of operation `id`, once the listener has seen all its jobs. */
  def spansOf(id: Int): Seq[Span] = {
    drain()
    spans.filter(_.op == id).toSeq
  }

  /** Waits until the listener bus has delivered every job's events: jobs
    * end before their action returns, so their events are already queued.
    */
  private def drain(): Unit = {
    val deadline = System.nanoTime() + 10000000000L
    while (jobsEnded < jobsStarted && System.nanoTime() < deadline) Thread.sleep(5)
    Thread.sleep(20) // task-end events of the last stage trail its job end
  }

  def write(path: String): Unit = {
    drain()
    val p = Paths.get(path)
    Option(p.getParent).foreach(Files.createDirectories(_))
    val w = new PrintWriter(Files.newBufferedWriter(p))
    try for (s <- spans) {
      val counts = s.counts.map { case (k, v) => s""""$k": ${Json.num(v)}""" }.mkString(", ")
      w.println(s"""{"op": ${s.op}, "id": ${s.id}, "parent": ${s.parent}, "name": "${s.name}", """ +
        s""""start_ns": ${s.start}, "end_ns": ${s.end}, "spark_jobs": ${s.jobs}, """ +
        s""""task_ns": ${s.taskNs}, "shuffle_bytes": ${s.shuffleBytes}, "counts": {$counts}}""")
    }
    finally w.close()
  }

  def close(): Unit = sc.removeSparkListener(listener)
}

object Tracer {
  val SpanProperty = "perfbench.span"

  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Bytes allocated so far by the calling thread. */
  def allocatedBytes(): Long = threads.getCurrentThreadAllocatedBytes

  /** Collection time so far, summed over the JVM's collectors, in seconds. */
  def gcSeconds(): Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum / 1e3
}
