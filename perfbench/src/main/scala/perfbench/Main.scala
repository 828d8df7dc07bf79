package perfbench

import java.lang.management.ManagementFactory

import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel

import repro.blocking.Blocking
import repro.core.{Zeroer, ZeroerEM}
import repro.core.Zeroer.FitResult
import repro.core.ZeroerEM.Prepared
import repro.core.ZeroerModel.{Config, TransMode}
import repro.erdata.ErDataset
import repro.eval.Metrics
import repro.sim.FeatureGen

/** Runs one workload of the ZeroER pipeline benchmark and prints one
  * `PERFBENCH_RESULT <json>` line holding every metric's samples, the
  * attempted and failed counts, the gate's errors and the environment.
  *
  *   perfbench.Main --workload ab-alg1 --seed 17 --seconds 20 --trace 0 \
  *                  --f1-bound 0.2 --local-dir .bench_build/spark
  *
  * Set-up (`setup_s`) is what a fresh JVM pays before the pipeline runs
  * at its steady speed: the SparkSession start, input generation and one
  * warm-up pass, which is not timed as a pass and not checked (it computes
  * what every measured pass computes again and checks).
  * The first pass in a JVM is about twice as slow (just-in-time and
  * whole-stage code compilation), by an amount that varies from run to
  * run. Measured rounds then repeat while the next
  * one is expected to end within `--seconds`: at least two untraced ones,
  * so that one slow pass does not set the median, or one traced round.
  * Each metric's samples are reduced to their median by `run.py`. Untraced
  * passes call only the user-facing entry points: `Zeroer.prepareCross`,
  * `Zeroer.prepareSelf`, `Zeroer.fit`, then collect
  * `FitResult.predictions`. With `--trace 1` each round is one untraced
  * pass followed by one traced pass, which calls each layer's public
  * functions itself, inside spans, while a [[Tracer]] attributes every
  * Spark job. Both are warm, so `trace.overhead_s` (traced minus untraced)
  * is the tracing cost plus any work the entry points repeat that the
  * layer-by-layer pass materializes once.
  */
object Main {

  /** Shuffle partitions of the benchmark's session. Smaller than the
    * tests' 64: every scan of a persisted side runs one task per
    * partition, and on a 4-core host a warm fz-alg2 pass took 25 s at 64
    * and 15 s at 16, too long at 64 to measure a warm-up and two passes in
    * a run. F1 depends on this count (floating-point reduction order), so
    * it is recorded with every result.
    */
  val ShufflePartitions = 16

  /** EM jobs must come from one of these; anything else is a tracing fault. */
  private val EmMethods = Set("ZeroerEM.moments", "ZeroerEM.collectRows", "Zeroer.fit")

  final case class Args(workload: Workload, seed: Long, seconds: Double, trace: Boolean,
                        f1Bound: Double, localDir: String)

  def main(argv: Array[String]): Unit = {
    val out = new Bench(parse(argv)).run()
    println("PERFBENCH_RESULT " + Json(out))
  }

  private def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad argument: ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"--$k is required"))
    val w = Workloads.byName(need("workload"))
    Args(w, kv.get("seed").map(_.toLong).getOrElse(w.defaultSeed), need("seconds").toDouble,
         need("trace") == "1", need("f1-bound").toDouble, need("local-dir"))
  }

  private def secs(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private def gcSeconds(): Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum / 1e3

  private def cpuSeconds(): Double = ManagementFactory.getOperatingSystemMXBean match {
    case os: com.sun.management.OperatingSystemMXBean => os.getProcessCpuTime / 1e9
    case _                                            => 0.0
  }

  /** The prepared candidate sets of one pass. */
  final case class Sides(cross: Prepared, left: Option[Prepared], right: Option[Prepared]) {
    def all: Seq[Prepared] = cross +: (left.toSeq ++ right.toSeq)
  }

  final case class Fit(cfg: Config, res: FitResult, preds: Array[Row])

  final case class Pass(sides: Sides, fits: Seq[Fit], prepCrossS: Double, prepSelfS: Double,
                        fitS: Double, cacheMb: Double, gcS: Double, cpuS: Double) {
    def pipelineS: Double = prepCrossS + prepSelfS + fitS
    def release(): Unit = Main.release(sides, fits)
  }

  private def release(sides: Sides, fits: Seq[Fit]): Unit = {
    fits.foreach(_.res.gammaDf.unpersist())
    sides.all.foreach(_.pairs.unpersist())
  }

  final class Bench(args: Args) {
    private val w       = args.workload
    private val samples = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]
    private val errors  = mutable.ArrayBuffer.empty[String]
    private var attempted = 0
    private var failed    = 0
    private var spark: SparkSession = _

    private def record(name: String, v: Double): Unit =
      samples.getOrElseUpdate(name, mutable.ArrayBuffer.empty) += v

    private def fail(msg: String): Unit = errors += msg

    private def startSession(): SparkSession = {
      val s = SparkSession.builder
        .master(s"local[${math.min(Runtime.getRuntime.availableProcessors(), 4)}]")
        .appName(s"perfbench-${w.name}")
        .config("spark.sql.shuffle.partitions", ShufflePartitions)
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", false)
        .config("spark.local.dir", args.localDir)
        .config("spark.sql.warehouse.dir", s"${args.localDir}/warehouse")
        .getOrCreate()
      s.sparkContext.setLogLevel("ERROR")
      s
    }

    private val minRounds = if (args.trace) 1 else 2

    private def generate(): ErDataset = w.gen(spark, w.scale, args.seed)

    def run(): Map[String, Any] = {
      val t0 = System.nanoTime()
      spark = startSession()
      val ds = generate()
      attempt("warm-up pass")(untracedPass(ds).release())
      record("setup_s", secs(t0))

      val w0     = System.nanoTime()
      var last   = 0.0
      var rounds = 0
      while (rounds < minRounds || secs(w0) + last <= args.seconds) {
        val r0 = System.nanoTime()
        round(ds)
        last = secs(r0)
        rounds += 1
      }
      val env = environment(secs(t0))
      spark.stop()
      Map(
        "correct"   -> (failed == 0 && errors.isEmpty),
        "attempted" -> attempted,
        "failed"    -> failed,
        "errors"    -> errors.toSeq,
        "samples"   -> samples.map { case (k, v) => k -> v.toSeq }.toMap,
        "env"       -> env,
      )
    }

    /** One untraced pass, then, when tracing, one traced pass. */
    private def round(ds: ErDataset): Unit = {
      val plain = attempt("untraced pass") {
        val p = untracedPass(ds)
        try {
          record("pipeline_s", p.pipelineS)
          record("f1", check(ds, p))
          record("cache_mb", p.cacheMb)
          if (args.trace) {
            record("core.prepare_cross_s", p.prepCrossS)
            record("core.prepare_self_s", p.prepSelfS)
            record("core.fit_s", p.fitS)
            record("jvm.gc_s", p.gcS)
            record("jvm.cpu_s", p.cpuS)
          }
          (p.pipelineS, p.sides.cross.n, if (args.trace) checksum(p.sides.cross) else 0.0)
        } finally p.release()
      }
      if (args.trace) plain.foreach { case (plainS, n, sum) =>
        attempt("traced pass") {
          val t = new Tracer(spark.sparkContext)
          spark.sparkContext.addSparkListener(t)
          try new TracedPass(t).run(plainS, n, sum)
          finally spark.sparkContext.removeSparkListener(t)
        }
      }
    }

    /** Counts one attempt; an exception or a failed check counts as failed. */
    private def attempt[T](what: String)(body: => T): Option[T] = {
      attempted += 1
      val before = errors.size
      val out =
        try Some(body)
        catch {
          case NonFatal(e) =>
            e.printStackTrace()
            fail(s"$what threw ${e.getClass.getName}: ${e.getMessage}")
            None
        }
      if (errors.size > before) { failed += 1; None } else out
    }

    private def untracedPass(ds: ErDataset): Pass = {
      val gc0 = gcSeconds(); val cpu0 = cpuSeconds()
      val t0 = System.nanoTime()
      val cross = Zeroer.prepareCross(ds)
      val prepCrossS = secs(t0)
      val t1 = System.nanoTime()
      val sides =
        if (w.selfSides) Sides(cross, Some(Zeroer.prepareSelf(ds, "left")), Some(Zeroer.prepareSelf(ds, "right")))
        else Sides(cross, None, None)
      val prepSelfS = secs(t1)
      val cacheMb = storedMb()
      val t2 = System.nanoTime()
      val fits = w.configs.map(fit(sides, _))
      val fitS = secs(t2)
      Pass(sides, fits, prepCrossS, prepSelfS, fitS, cacheMb, gcSeconds() - gc0, cpuSeconds() - cpu0)
    }

    /** One configuration on the sides prepared once; Algorithm 2 gets the
      * within-table sides, as `repro.eval.Tables` passes them.
      */
    private def fit(sides: Sides, cfg: Config): Fit = {
      val alg2 = cfg.transMode == TransMode.Constraint
      val res  = Zeroer.fit(sides.cross, sides.left.filter(_ => alg2), sides.right.filter(_ => alg2), cfg)
      Fit(cfg, res, res.predictions.collect())
    }

    /** Memory plus disk Spark holds for persisted data: the prepared sides. */
    private def storedMb(): Double =
      spark.sparkContext.getRDDStorageInfo.map(i => i.memSize + i.diskSize).sum / 1e6

    /** The correctness gate on one pass, checked on the driver from
      * collected rows; returns the mean F1 of its fits.
      */
    private def check(ds: ErDataset, p: Pass): Double = {
      def keys(df: DataFrame) =
        df.select("left_id", "right_id").collect().map(r => (r.getLong(0), r.getLong(1)))
      val candidates = keys(p.sides.cross.pairs).toSet
      val truth      = keys(ds.truth).toSet
      val f1s = p.fits.map { f =>
        val badGamma = f.res.gammaDf.select("gamma").collect().count(r => !(r.getDouble(0) >= 0.0 && r.getDouble(0) <= 1.0))
        if (badGamma > 0) fail(s"${f.cfg}: $badGamma posteriors are not finite in [0,1]")
        val pred = f.preds.map(r => (r.getAs[Long]("left_id"), r.getAs[Long]("right_id")))
        val predSet = pred.toSet
        if (predSet.size != pred.length) fail(s"${f.cfg}: ${pred.length - predSet.size} duplicate predictions")
        val outside = predSet.count(k => !candidates.contains(k))
        if (outside > 0) fail(s"${f.cfg}: $outside predictions are not candidate pairs")
        val tp = predSet.count(truth.contains).toDouble
        if (tp == 0) 0.0 else 2 * tp / (predSet.size + truth.size)
      }
      val f1 = f1s.sum / f1s.size
      if (args.seed == w.defaultSeed && math.abs(f1 - w.referenceF1) > args.f1Bound * w.referenceF1)
        fail(f"f1 $f1%.6f at the default seed differs from the reference ${w.referenceF1}%.6f " +
             f"by more than ${args.f1Bound * 100}%.1f%%")
      f1
    }

    /** Sum of every scaled feature of every pair: a fingerprint of the
      * prepared side that does not depend on pair ids or row order.
      */
    private def checksum(p: Prepared): Double =
      p.pairs.agg(sum(aggregate(col("features"), lit(0.0), (a, x) => a + x))).head().getDouble(0)

    /** A pass that runs `Zeroer.prepare`'s layers one at a time, each
      * materialized inside its own span, then fits and scores.
      */
    private final class TracedPass(t: Tracer) {
      private val intermediates = mutable.ArrayBuffer.empty[DataFrame]
      private val pairs         = mutable.ArrayBuffer.empty[Long]
      private var evals         = 0L

      private def materialize(df: DataFrame): DataFrame = {
        val p = df.persist(StorageLevel.MEMORY_AND_DISK)
        p.count()
        intermediates += p
        p
      }

      private def prepare(ds: ErDataset, which: String): Prepared = {
        val (l, r) = which match {
          case "cross" => (ds.left, ds.right)
          case "left"  => (ds.left, ds.left)
          case _       => (ds.right, ds.right)
        }
        val cand =
          if (which == "cross")
            t.span("blocking", "Blocking.candidatePairs") {
              materialize(Blocking.candidatePairs(l, r, "id", ds.blockAttr, ds.blockOverlap, ds.blockMaxDf))
            }
          else
            t.span("blocking", "Blocking.selfCandidatePairs") {
              materialize(Blocking.selfCandidatePairs(l, "id", ds.blockAttr, ds.blockOverlap, ds.blockMaxDf))
            }
        val feats = t.span("sim.features", "FeatureGen.addFeatures") {
          materialize(FeatureGen.addFeatures(Blocking.withPairAttrs(cand, l, r, "id", ds.attrs), ds.specs))
        }
        val scaled = t.span("sim.scale", "FeatureGen.imputeAndScale") {
          materialize(FeatureGen.imputeAndScale(feats))
        }
        val groups = FeatureGen.groupIndex(ds.specs)
        val d      = FeatureGen.numFeatures(ds.specs)
        val prep = t.span("core.prep", "Zeroer.prepare") {
          val ps = Blocking.withPairId(scaled)
            .select(col("pair_id"), col("left_id"), col("right_id"), col("features"))
            .persist(StorageLevel.MEMORY_AND_DISK)
          val n = ps.count()
          Prepared(s"${ds.name}-$which", ps, d, groups, n, ZeroerEM.sharedCorrelation(ps, "features", groups))
        }
        pairs += prep.n
        evals += prep.n * d
        prep
      }

      def run(plainS: Double, plainN: Long, plainSum: Double): Unit = {
        val ds      = t.span("erdata", "Datasets.gen") { generate() }
        val records = ds.nLeft + ds.nRight
        val cross   = prepare(ds, "cross")
        val sides =
          if (w.selfSides) Sides(cross, Some(prepare(ds, "left")), Some(prepare(ds, "right")))
          else Sides(cross, None, None)
        intermediates.foreach(_.unpersist())
        val fits = w.configs.map(cfg => t.span("em", "Zeroer.fit") { fit(sides, cfg) })
        fits.foreach(f => t.span("eval", "Metrics.prf") { Metrics.prf(f.res.predictions, ds.truth) })

        // Same program: the layer-by-layer cross side equals Zeroer.prepareCross's.
        val sum = checksum(cross)
        if (cross.n != plainN) fail(s"traced preparation made ${cross.n} cross pairs, Zeroer.prepareCross $plainN")
        if (math.abs(sum - plainSum) > 1e-9 * math.max(1.0, math.abs(plainSum)))
          fail(s"traced preparation feature checksum $sum differs from Zeroer.prepareCross's $plainSum")
        val recall  = Blocking.recall(spark, cross.pairs, ds.truth)
        val matches = ds.nMatch
        try t.drain()
        finally release(sides, fits)
        report(plainS, records, recall, matches, fits)
      }

      private def report(plainS: Double, records: Long, recall: Double, matches: Long,
                         fits: Seq[Fit]): Unit = {
        val spans = t.allSpans
        val jobs  = t.spanJobs
        def wall(layers: String*) = spans.filter(s => layers.contains(s.layer)).map(_.wallS).sum
        def jobsOf(layers: String*) = jobs.filter(j => layers.contains(spans(j.span).layer))
        def mb(js: Seq[Tracer.Job], f: Tracer.Job => Long) = js.map(f).sum / 1e6

        val unattributed = t.unattributedStages
        if (unattributed.nonEmpty)
          fail(s"${unattributed.size} stages inside spans have no repro.* caller: ${unattributed.take(10).mkString(",")}")
        val em = jobsOf("em")
        em.filterNot(_.method.exists(EmMethods)).foreach { j =>
          fail(s"EM job ${j.id} attributed to ${j.method.getOrElse("nothing")}")
        }
        def taskS(m: String) = em.filter(_.method.contains(m)).map(_.taskS).sum

        val emSpans = spans.filter(_.layer == "em")
        val driverS = emSpans.map { s =>
          val ivs = jobs.filter(_.span == s.id).map(j => (j.startMs max s.startMs, j.endMs min s.endMs))
          s.wallS - union(ivs) / 1e3
        }.sum
        val prepLayers = Seq("blocking", "sim.features", "sim.scale", "core.prep")
        val prep  = jobsOf(prepLayers: _*)
        val iters = fits.map(_.res.iters).sum

        record("erdata.gen_s", wall("erdata"))
        record("erdata.records", records.toDouble)
        record("blocking.s", wall("blocking"))
        record("blocking.pairs", pairs.sum.toDouble)
        record("blocking.recall", recall)
        record("blocking.pairs_per_match", pairs.head.toDouble / math.max(matches, 1L))
        record("blocking.jobs", jobsOf("blocking").size.toDouble)
        record("blocking.shuffle_mb", mb(jobsOf("blocking"), _.shuffleBytes))
        record("sim.features_s", wall("sim.features"))
        record("sim.scale_s", wall("sim.scale"))
        record("sim.evals", evals.toDouble)
        record("sim.evals_per_s", evals / wall("sim.features"))
        record("sim.jobs", jobsOf("sim.features", "sim.scale").size.toDouble)
        record("sim.shuffle_mb", mb(jobsOf("sim.features", "sim.scale"), _.shuffleBytes))
        record("core.corr_s", wall("core.prep"))
        record("core.prepare_jobs", prep.size.toDouble)
        record("core.prepare_tasks", prep.map(_.tasks).sum.toDouble)
        record("core.prepare_shuffle_mb", mb(prep, _.shuffleBytes))
        record("em.iters", iters.toDouble)
        record("em.converged", fits.count(_.res.converged).toDouble)
        record("em.s_per_iter", wall("em") / math.max(iters, 1))
        record("em.jobs", em.size.toDouble)
        record("em.jobs_per_iter", em.size.toDouble / math.max(iters, 1))
        record("em.tasks", em.map(_.tasks).sum.toDouble)
        record("em.mstep_task_s", taskS("ZeroerEM.moments"))
        record("em.estep_task_s", taskS("ZeroerEM.collectRows"))
        record("em.final_task_s", taskS("Zeroer.fit"))
        record("em.shuffle_mb", mb(em, _.shuffleBytes))
        record("em.result_mb", mb(em, _.resultBytes))
        record("em.driver_s", driverS)
        record("eval.prf_s", wall("eval"))
        record("trace.overhead_s", wall(prepLayers :+ "em": _*) - plainS)
        jobs.foreach { j =>
          val m = j.method.getOrElse("?")
          attribution(m) = attribution.getOrElse(m, 0) + 1
        }
      }
    }

    /** Jobs per attributed repro method, over every traced pass. */
    private val attribution = mutable.Map.empty[String, Int]

    private def environment(runS: Double): Map[String, Any] = {
      val conf = spark.conf
      Map(
        "workload" -> w.name, "scale" -> w.scale, "seed" -> args.seed, "seconds" -> args.seconds,
        "trace" -> args.trace, "run_s" -> runS,
        "nproc" -> Runtime.getRuntime.availableProcessors(),
        "master" -> spark.sparkContext.master,
        "cores_used" -> spark.sparkContext.defaultParallelism,
        "driver_heap_mb" -> Runtime.getRuntime.maxMemory() / (1024 * 1024),
        "shuffle_partitions" -> conf.get("spark.sql.shuffle.partitions"),
        "aqe" -> conf.get("spark.sql.adaptive.enabled"),
        "broadcast_join_threshold" -> conf.get("spark.sql.autoBroadcastJoinThreshold"),
        "spark" -> spark.version,
        "scala" -> scala.util.Properties.versionNumberString,
        "jdk" -> System.getProperty("java.runtime.version"),
        "attribution" -> attribution.toMap,
      )
    }
  }

  /** Total length of the union of closed intervals. */
  private def union(ivs: Seq[(Long, Long)]): Long = {
    var total = 0L; var end = Long.MinValue
    ivs.filter { case (a, b) => b > a }.sortBy(_._1).foreach { case (a, b) =>
      if (a > end) { total += b - a; end = b }
      else if (b > end) { total += b - end; end = b }
    }
    total
  }
}
