package perfbench

import scala.collection.mutable

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart

/** Spans recorded around the benchmark's calls into each layer, and a
  * listener that attributes every Spark job started inside a span to the
  * `repro.*` method that caused it.
  *
  * Attribution reads the call site of the job's SQL execution
  * (`SparkListenerSQLExecutionStart.details`, joined on the job property
  * `spark.sql.execution.id`). Stage call sites are not used: under adaptive
  * query execution most stages are submitted from a future and report
  * `CompletableFuture`, not the caller. Jobs outside SQL (the RDD jobs of
  * `Correlation.corr`) are submitted from the calling thread, so their
  * result stage (the job's newest, highest-numbered stage; its ancestors
  * may be adaptive stages again) names the caller. The innermost `repro.*`
  * frame wins;
  * a job whose call site holds only benchmark frames materializes the
  * output of the span's own method and is attributed to it.
  */
final class Tracer(sc: SparkContext) extends SparkListener {
  import Tracer._

  private val spans     = mutable.ArrayBuffer.empty[Span]
  private val sqlSites  = mutable.Map.empty[Long, String]
  private val jobs      = mutable.LinkedHashMap.empty[Int, Job]
  private val stageJob  = mutable.Map.empty[Int, Int]
  private val submitted = mutable.ArrayBuffer.empty[Int]
  private var markerJob = -1
  @volatile private var markerEnded = false

  /** Run `body` as a span of `layer`, caused by the `repro` method `method`. */
  def span[T](layer: String, method: String)(body: => T): T = {
    val s = synchronized {
      val s = Span(spans.size, layer, method, System.currentTimeMillis(), 0L)
      spans += s
      s
    }
    sc.setLocalProperty(SpanKey, s.id.toString)
    val t0 = System.nanoTime()
    try body
    finally {
      s.wallS = (System.nanoTime() - t0) / 1e9
      s.endMs = System.currentTimeMillis()
      sc.setLocalProperty(SpanKey, null)
    }
  }

  /** Block until the listener has seen every event posted so far: the bus
    * delivers in order, so once a marker job's end arrives all earlier
    * jobs, stages and tasks have been counted.
    */
  def drain(): Unit = {
    markerEnded = false
    sc.setLocalProperty(SpanKey, MarkerSpan)
    sc.parallelize(Seq(1), 1).count()
    sc.setLocalProperty(SpanKey, null)
    val deadline = System.nanoTime() + 30L * 1000000000L
    while (!markerEnded && System.nanoTime() < deadline) Thread.sleep(5)
    require(markerEnded, "the listener bus did not drain within 30 s")
  }

  def allSpans: Seq[Span] = synchronized { spans.toSeq }

  /** Jobs started inside a span, with their attribution and task totals. */
  def spanJobs: Seq[Job] = synchronized { jobs.values.filter(_.span >= 0).toSeq }

  /** Stages submitted inside a span whose job could not be attributed. */
  def unattributedStages: Seq[Int] = synchronized {
    submitted.filter { st =>
      stageJob.get(st).flatMap(jobs.get) match {
        case Some(j) => j.span >= 0 && j.method.isEmpty
        case None    => true
      }
    }.toSeq
  }

  override def onOtherEvent(event: SparkListenerEvent): Unit = event match {
    case e: SparkListenerSQLExecutionStart => synchronized { sqlSites(e.executionId) = e.details }
    case _                                 =>
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val props = Option(e.properties)
    def prop(k: String) = props.flatMap(p => Option(p.getProperty(k)))
    prop(SpanKey) match {
      case Some(MarkerSpan) => markerJob = e.jobId
      case spanProp =>
        val span = spanProp.map(_.toInt).getOrElse(-1)
        val site = prop("spark.sql.execution.id") match {
          case Some(id) => sqlSites.get(id.toLong)
          case None     => e.stageInfos.maxByOption(_.stageId).map(_.details)
        }
        val method = site.flatMap(callerOf(_, spans.lift(span).map(_.method)))
        jobs(e.jobId) = Job(e.jobId, span, method, e.time)
        e.stageIds.foreach(st => if (!stageJob.contains(st)) stageJob(st) = e.jobId)
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobs.get(e.jobId).foreach(_.endMs = e.time)
    if (e.jobId == markerJob) markerEnded = true
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
    val inSpan = Option(e.properties).flatMap(p => Option(p.getProperty(SpanKey)))
      .exists(_ != MarkerSpan)
    if (inSpan) submitted += e.stageInfo.stageId
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (jid <- stageJob.get(e.stageId); j <- jobs.get(jid); m <- Option(e.taskMetrics)) {
      j.tasks += 1
      j.taskS += m.executorRunTime / 1e3
      j.resultBytes += m.resultSize
      j.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
    }
  }
}

object Tracer {
  private val SpanKey    = "perfbench.span"
  private val MarkerSpan = "marker"

  final case class Span(id: Int, layer: String, method: String, startMs: Long, var endMs: Long) {
    var wallS: Double = 0.0
  }

  final case class Job(id: Int, span: Int, method: Option[String], startMs: Long) {
    var endMs: Long        = -1L
    var tasks: Long        = 0L
    var taskS: Double      = 0.0
    var resultBytes: Long  = 0L
    var shuffleBytes: Long = 0L
  }

  /** `repro.core.ZeroerEM$.moments(ZeroerEM.scala:97)` -> `ZeroerEM.moments`;
    * closures (`$anonfun$fit$3`) resolve to their enclosing method.
    */
  private val Frame = """repro\.(?:[a-z0-9_]+\.)*([A-Za-z0-9_]+)\$*(?:\$\$[^.]*)?\.([^(]+)\(.*""".r

  private def method(frame: String): Option[String] = frame.trim match {
    case Frame(cls, m) =>
      val name = m.split('$').filter(_.nonEmpty).filterNot(_ == "anonfun").headOption
      name.map(n => s"$cls.$n")
    case _ => None
  }

  /** The innermost `repro.*` method in a call site, or the span's method
    * when only benchmark frames triggered the job.
    */
  private[perfbench] def callerOf(site: String, spanMethod: Option[String]): Option[String] = {
    val frames = site.split('\n').map(_.trim).filter(_.nonEmpty)
    frames.iterator.flatMap(method).nextOption()
      .orElse(if (frames.exists(_.startsWith("perfbench."))) spanMethod else None)
  }
}
