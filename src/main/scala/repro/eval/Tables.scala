package repro.eval

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.baselines.{ActiveLearning, PPJoin, Supervised, Unsupervised}
import repro.core.{Zeroer, ZeroerModel}
import repro.core.ZeroerModel.{Config, CovMode, RegMode, TransMode}
import repro.core.ZeroerEM.Prepared
import repro.erdata.{Datasets, ErDataset}
import repro.sim.FeatureGen

/** Harness producing the paper's evaluation tables, which the bench suites
  * (`sbt bench/test`) print. Prepared candidate sets and the full
  * ZeroER result are memoized per (dataset, scale) within the JVM so
  * Tables 3, 4 and 5 do not redo blocking/EM work.
  */
object Tables {

  final case class PreparedData(ds: ErDataset, cross: Prepared, labeled: DataFrame)

  private val prepCache   = mutable.Map.empty[(String, Double), PreparedData]
  private val selfCache   = mutable.Map.empty[(String, Double), (Prepared, Prepared)]
  private val zeroerCache = mutable.Map.empty[(String, Double), (Double, Long, Int)]

  private def selfSides(spark: SparkSession, name: String, scale: Double): (Prepared, Prepared) =
    selfCache.getOrElseUpdate((name, scale), {
      val ds = prepare(spark, name, scale).ds
      (Zeroer.prepareSelf(ds, "left"), Zeroer.prepareSelf(ds, "right"))
    })

  def prepare(spark: SparkSession, name: String, scale: Double): PreparedData =
    prepCache.getOrElseUpdate((name, scale), {
      val ds      = Datasets.byName(spark, name, scale)
      val cross   = Zeroer.prepareCross(ds)
      val labeled = Metrics.withLabel(cross.pairs, ds.truth).cache()
      labeled.count()
      PreparedData(ds, cross, labeled)
    })

  /** Timed F1: returns (f1, wall-clock ms). */
  private def timed(f: => Double): (Double, Long) = {
    val t0 = System.nanoTime()
    val v  = f
    (v, (System.nanoTime() - t0) / 1000000L)
  }

  // ------------------------------------------------------------------
  // Table 1: covariance vs correlation cosine similarity (ground truth)
  // ------------------------------------------------------------------

  def table1(spark: SparkSession, scale: Double): Seq[CovarianceStudy.Table1Row] =
    Datasets.names.map { n =>
      val p = prepare(spark, n, scale)
      CovarianceStudy.table1Row(n, p.labeled, FeatureGen.groupIndex(p.ds.specs))
    }

  // ------------------------------------------------------------------
  // Table 2: dataset characteristics
  // ------------------------------------------------------------------

  final case class T2Row(dataset: String, nLeft: Long, nRight: Long,
                         nMatch: Long, nAttrs: Int)

  def table2(spark: SparkSession, scale: Double): Seq[T2Row] =
    Datasets.names.map { n =>
      val ds = Datasets.byName(spark, n, scale)
      T2Row(n, ds.nLeft, ds.nRight, ds.nMatch, ds.attrs.size)
    }

  // ------------------------------------------------------------------
  // Table 3: F-score of all methods (+ Figure 7 runtimes for free)
  // ------------------------------------------------------------------

  val table3Methods: Seq[String] =
    Seq("ZeroER", "ECM", "KM-RL", "KM-SK", "GMM", "PP*", "RF", "LR", "MLP", "DM", "AL-RF")

  final case class T3Row(dataset: String, f1: Map[String, Double], ms: Map[String, Long])

  /** Full ZeroER (Algorithm 2, transitivity constraints), memoized. */
  def zeroerFull(spark: SparkSession, name: String, scale: Double): (Double, Long, Int) =
    zeroerCache.getOrElseUpdate((name, scale), {
      val p  = prepare(spark, name, scale)
      val t0 = System.nanoTime()
      val (l, r) = selfSides(spark, name, scale)
      val res = Zeroer.fit(p.cross, Some(l), Some(r),
                           Config(transMode = TransMode.Constraint))
      val f1  = try Metrics.prf(res.predictions, p.ds.truth).f1 finally res.gammaDf.unpersist()
      (f1, (System.nanoTime() - t0) / 1000000L, res.iters)
    })

  def table3Row(spark: SparkSession, name: String, scale: Double,
                methods: Seq[String] = table3Methods, seed: Long = 42): T3Row = {
    val p     = prepare(spark, name, scale)
    val truth = p.ds.truth
    val f1s   = mutable.Map.empty[String, Double]
    val times = mutable.Map.empty[String, Long]
    methods.foreach { m =>
      val (f1, ms) = m match {
        case "ZeroER" =>
          val (f, t, _) = zeroerFull(spark, name, scale); (f, t)
        case "ECM"   => timed(Metrics.prf(Unsupervised.ecm(p.cross.pairs), truth).f1)
        case "KM-RL" => timed(Metrics.prf(Unsupervised.kmRl(p.cross.pairs), truth).f1)
        case "KM-SK" => timed(Metrics.prf(Unsupervised.kmSk(p.cross.pairs, seed), truth).f1)
        case "GMM"   => timed(Metrics.prf(Unsupervised.gmm(p.cross.pairs, seed), truth).f1)
        case "PP*"   => timed(PPJoin.best(p.ds.left, p.ds.right, "id", p.ds.attrs, truth).f1)
        case "AL-RF" => timed(ActiveLearning.alrf(p.labeled, seed, batch = 100, maxRounds = 15).prf.f1)
        case sup     => timed(Supervised.f1(sup, p.labeled, seed).f1)
      }
      f1s(m) = f1; times(m) = ms
    }
    T3Row(name, f1s.toMap, times.toMap)
  }

  // ------------------------------------------------------------------
  // Table 4: labels needed to match ZeroER's F1
  // ------------------------------------------------------------------

  final case class T4Row(dataset: String, target: Double,
                         labels: Map[String, Option[Int]], total: Long)

  def table4Row(spark: SparkSession, name: String, scale: Double,
                seed: Long = 42): T4Row = {
    val p      = prepare(spark, name, scale)
    val target = zeroerFull(spark, name, scale)._1
    val out = mutable.Map.empty[String, Option[Int]]
    Supervised.methods.foreach { m =>
      out(m) = LabelBudget.labelsNeeded(m, p.labeled, target, seed)
    }
    out("AL-RF") = LabelBudget.labelsNeededAl(p.labeled, target, seed)
    T4Row(name, target, out.toMap, p.labeled.count())
  }

  // ------------------------------------------------------------------
  // Table 5: ablations
  // ------------------------------------------------------------------

  val table5Columns: Seq[String] =
    Seq("ZeroER", "diag+share cov", "uniform reg", "post-processing")

  final case class T5Row(dataset: String, f1: Map[String, Double])

  /** Each ablation column replaces exactly ONE innovation with its naive
    * alternative, keeping the other two (the paper's protocol).
    */
  def table5Row(spark: SparkSession, name: String, scale: Double): T5Row = {
    val p      = prepare(spark, name, scale)
    val truth  = p.ds.truth
    val (l, r) = selfSides(spark, name, scale)
    def ablated(cfg: Config): Double = {
      val sides = if (cfg.transMode == TransMode.Constraint) (Some(l), Some(r)) else (None, None)
      val res   = Zeroer.fit(p.cross, sides._1, sides._2, cfg)
      try Metrics.prf(res.predictions, truth).f1 finally res.gammaDf.unpersist()
    }
    val f1s = Map(
      "ZeroER" -> zeroerFull(spark, name, scale)._1,
      "diag+share cov" -> ablated(Config(covMode = CovMode.DiagShared)),
      "uniform reg" -> ablated(Config(regMode = RegMode.Uniform(1e-6))),
      "post-processing" -> ablated(Config(transMode = TransMode.PostProcess)),
    )
    T5Row(name, f1s)
  }

  /** Release every cached DataFrame (bench suites call this at the end). */
  def clear(): Unit = {
    prepCache.values.foreach { p => p.cross.pairs.unpersist(); p.labeled.unpersist() }
    selfCache.values.foreach { case (l, r) => l.pairs.unpersist(); r.pairs.unpersist() }
    prepCache.clear(); selfCache.clear(); zeroerCache.clear()
  }
}
