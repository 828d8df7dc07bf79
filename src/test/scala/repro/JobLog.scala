package repro

import scala.collection.mutable

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** One Spark job as a [[JobLog]] saw it: the tasks it ran, the shuffle
  * bytes they wrote, its SQL execution id and its result stage's call site.
  */
final case class JobStat(tasks: Int, shuffleBytes: Long, sqlExecution: Option[String], site: String) {
  def where: String = site.linesIterator.take(3).mkString(" | ")
}

object JobLog {

  /** Every job started while `body` runs, in start order, once a listener
    * has seen them all: the bus delivers in order, so once a marker job's
    * end arrives every earlier job, stage and task has been counted.
    */
  def of(sc: SparkContext)(body: => Unit): Seq[JobStat] = {
    val marker = "repro.JobLog.marker"
    val l = new SparkListener {
      val jobs     = mutable.LinkedHashMap.empty[Int, (Option[String], String)]
      val stageJob = mutable.Map.empty[Int, Int]
      val tasks    = mutable.Map.empty[Int, Int].withDefaultValue(0)
      val shuffled = mutable.Map.empty[Int, Long].withDefaultValue(0L)
      @volatile var markerEnded = false
      var markerJob = -1
      override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
        def prop(k: String) = Option(e.properties).flatMap(p => Option(p.getProperty(k)))
        if (prop("spark.job.description").contains(marker)) markerJob = e.jobId
        else {
          e.stageIds.foreach(st => stageJob.getOrElseUpdate(st, e.jobId))
          jobs(e.jobId) = (prop("spark.sql.execution.id"), e.stageInfos.maxBy(_.stageId).details)
        }
      }
      override def onJobEnd(e: SparkListenerJobEnd): Unit =
        if (e.jobId == synchronized(markerJob)) markerEnded = true
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
        stageJob.get(e.stageId).foreach { j =>
          tasks(j) += 1
          Option(e.taskMetrics).foreach(m => shuffled(j) += m.shuffleWriteMetrics.bytesWritten)
        }
      }
    }
    sc.addSparkListener(l)
    try {
      body
      sc.setJobDescription(marker)
      try sc.parallelize(Seq(1), 1).count() finally sc.setJobDescription(null)
      val deadline = System.nanoTime() + 30L * 1000000000L
      while (!l.markerEnded && System.nanoTime() < deadline) Thread.sleep(5)
      assert(l.markerEnded, "the listener bus did not drain within 30 s")
    } finally sc.removeSparkListener(l)
    l.synchronized(l.jobs.toSeq.map { case (j, (sql, site)) => JobStat(l.tasks(j), l.shuffled(j), sql, site) })
  }
}
