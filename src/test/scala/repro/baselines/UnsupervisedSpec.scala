package repro.baselines

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types._
import scala.util.Random

import repro.{JobLog, SparkSpec}
import repro.core.Zeroer
import repro.erdata.Datasets
import repro.eval.Metrics

/** Unsupervised baselines on a controlled, well-separated synthetic
  * candidate set where the "right answer" is unambiguous.
  */
class UnsupervisedSpec extends SparkSpec {

  /** nM match-like vectors around 0.9, nU unmatch-like around 0.15, d dims. */
  private def synth(nM: Int, nU: Int, d: Int, seed: Long = 5): (DataFrame, DataFrame) = {
    val r = new Random(seed)
    def vec(center: Double) = Array.fill(d)(math.min(1.0, math.max(0.0, center + r.nextGaussian() * 0.07)))
    val rows =
      (0 until nM).map(i => Row(i.toLong, 1000L + i, 2000L + i, vec(0.9))) ++
      (0 until nU).map(i => Row((nM + i).toLong, 1500L + i, 2500L + i, vec(0.15)))
    val sch = StructType(Seq(
      StructField("pair_id", LongType), StructField("left_id", LongType),
      StructField("right_id", LongType),
      StructField("features", ArrayType(DoubleType, containsNull = false))))
    val df = spark.createDataFrame(spark.sparkContext.parallelize(rows), sch)
    val truthRows = (0 until nM).map(i => Row(1000L + i, 2000L + i))
    val tsch = StructType(Seq(StructField("left_id", LongType), StructField("right_id", LongType)))
    (df, spark.createDataFrame(spark.sparkContext.parallelize(truthRows), tsch))
  }

  test("KM-RL separates a 5% match cluster perfectly") {
    val (df, truth) = synth(50, 950, 6)
    val m = Metrics.prf(Unsupervised.kmRl(df), truth)
    assert(m.f1 > 0.99, s"$m")
  }

  test("KM-RL handles extreme 0.5% imbalance (its calibration point)") {
    val (df, truth) = synth(10, 1990, 6)
    val m = Metrics.prf(Unsupervised.kmRl(df), truth)
    assert(m.f1 > 0.95, s"$m")
  }

  test("KM-SK separates balanced clusters") {
    val (df, truth) = synth(400, 600, 6)
    val m = Metrics.prf(Unsupervised.kmSk(df), truth)
    assert(m.f1 > 0.95, s"$m")
  }

  test("GMM separates well-formed gaussian clusters") {
    val (df, truth) = synth(200, 800, 4)
    val m = Metrics.prf(Unsupervised.gmm(df), truth)
    assert(m.f1 > 0.9, s"$m")
  }

  test("ECM recovers the clusters when binarization is lossless") {
    val (df, truth) = synth(100, 900, 6)
    val m = Metrics.prf(Unsupervised.ecm(df), truth)
    assert(m.f1 > 0.95, s"$m")
  }

  test("ECM loses mid-scale information (binarization at 0.5)") {
    // matches at 0.55, unmatches at 0.45: binarization alone cannot
    // discriminate reliably -> worse than a threshold on the raw value
    val r = new Random(11)
    def vec(c: Double) = Array.fill(4)(math.min(1.0, math.max(0.0, c + r.nextGaussian() * 0.12)))
    val rows = (0 until 100).map(i => Row(i.toLong, 1000L + i, 2000L + i, vec(0.55))) ++
               (0 until 900).map(i => Row((100 + i).toLong, 1500L + i, 2500L + i, vec(0.45)))
    val sch = StructType(Seq(
      StructField("pair_id", LongType), StructField("left_id", LongType),
      StructField("right_id", LongType),
      StructField("features", ArrayType(DoubleType, containsNull = false))))
    val df = spark.createDataFrame(spark.sparkContext.parallelize(rows), sch)
    val tsch = StructType(Seq(StructField("left_id", LongType), StructField("right_id", LongType)))
    val truth = spark.createDataFrame(
      spark.sparkContext.parallelize((0 until 100).map(i => Row(1000L + i, 2000L + i))), tsch)
    val m = Metrics.prf(Unsupervised.ecm(df), truth)
    assert(m.f1 < 0.9, s"ECM should struggle on mid-scale features: $m")
  }

  test("all baselines emit (left_id, right_id) schema") {
    val (df, _) = synth(20, 80, 4)
    for (preds <- Seq(Unsupervised.kmRl(df), Unsupervised.kmSk(df),
                      Unsupervised.gmm(df), Unsupervised.ecm(df))) {
      assert(preds.columns.toSeq == Seq("left_id", "right_id"))
    }
  }

  test("baselines are deterministic given the seed") {
    val (df, _) = synth(30, 170, 4)
    val a = Unsupervised.gmm(df, seed = 7).collect().toSet
    val b = Unsupervised.gmm(df, seed = 7).collect().toSet
    assert(a == b)
  }

  /** ECM and KM-RL at scale 0.3: (tp, fp, fn) of the predictions of the
    * earlier `posexplode` + `groupBy` implementations, which the one-pass
    * ones matched pair for pair.
    */
  private val pinned: Map[(String, String), Metrics.PRF] = Map(
    ("DS", "ECM") -> Metrics.PRF(815, 3, 67),
    ("DS", "KM-RL") -> Metrics.PRF(795, 5, 87),
    ("AB", "ECM") -> Metrics.PRF(282, 446, 33),
    ("AB", "KM-RL") -> Metrics.PRF(310, 3949, 5),
    ("AG", "ECM") -> Metrics.PRF(245, 6151, 145),
    ("AG", "KM-RL") -> Metrics.PRF(215, 6146, 175),
  )

  for (name <- Seq("DS", "AB", "AG"))
    test(s"ECM and KM-RL keep their predictions on $name") {
      val ds    = Datasets.byName(spark, name, scale = 0.3)
      val cross = Zeroer.prepareCross(ds)
      try {
        for ((method, run) <- Seq[(String, DataFrame => DataFrame)](
               ("ECM", Unsupervised.ecm(_)), ("KM-RL", Unsupervised.kmRl(_)))) {
          val preds = run(cross.pairs)
          val (n, prf, want) = (preds.count(), Metrics.prf(preds, ds.truth), pinned((name, method)))
          info(s"$method on $name/0.3: $n pairs, $prf, F1 ${prf.f1}")
          assert(n == want.tp + want.fp && prf == want, s"$method: $n pairs, $prf, expected $want")
        }
      } finally cross.pairs.unpersist()
    }

  test("ECM stops at its fixed point on FZ") {
    // FZ at 0.3 reaches a bit-identical fixed point after 3 of the 60 passes
    val ds    = Datasets.fz(spark, scale = 0.3)
    val cross = Zeroer.prepareCross(ds)
    try {
      val jobs = JobLog.of(spark.sparkContext) { Unsupervised.ecm(cross.pairs).collect(); () }
      assert(jobs.size < 10, s"${jobs.size} jobs: ${jobs.map(_.where).mkString("; ")}")
    } finally cross.pairs.unpersist()
  }
}
