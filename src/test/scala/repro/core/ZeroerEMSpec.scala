package repro.core

import scala.util.Random

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types._

import repro.{JobLog, SparkSpec}
import repro.blocking.Blocking.pairKey
import ZeroerModel._
import ZeroerEM._

class ZeroerEMSpec extends SparkSpec {

  private val cfg = Config(transMode = TransMode.Off)

  private def mkPrepared(nM: Int, nU: Int, d: Int, seed: Long = 3,
                         cM: Double = 0.85, cU: Double = 0.2): Prepared = {
    val r = new Random(seed)
    def vec(c: Double) = Array.fill(d)(math.min(1.0, math.max(0.0, c + r.nextGaussian() * 0.08)))
    val rows = (0 until nM).map(i => Row(1000L + i, 2000L + i, vec(cM))) ++
               (0 until nU).map(i => Row(1500L + i, 2500L + i, vec(cU)))
    val sch = StructType(Seq(
      StructField("left_id", LongType), StructField("right_id", LongType),
      StructField("features", ArrayType(DoubleType, containsNull = false))))
    val df = spark.createDataFrame(spark.sparkContext.parallelize(rows), sch).cache()
    val groups = Array.tabulate(d)(j => j / 2)
    Prepared("synth", df, d, groups, df.count(), sharedCorrelation(df, "features", groups))
  }

  test("sharedCorrelation has unit diagonal and masked cross-group entries") {
    val p = mkPrepared(50, 450, 4)
    assert(p.corr.length == 4)
    (0 until 4).foreach(i => assert(p.corr(i)(i) == 1.0))
    // features 0,1 in group 0; 2,3 in group 1 -> (0,2),(0,3),(1,2),(1,3) masked
    assert(p.corr(0)(2) == 0.0 && p.corr(1)(3) == 0.0)
  }

  test("sharedCorrelation is symmetric and within [-1, 1]") {
    val p = mkPrepared(50, 450, 6)
    for (i <- 0 until 6; j <- 0 until 6) {
      assert(math.abs(p.corr(i)(j) - p.corr(j)(i)) < 1e-9)
      assert(p.corr(i)(j) >= -1.0 - 1e-9 && p.corr(i)(j) <= 1.0 + 1e-9)
    }
  }

  /** Spark's Pearson correlation, masked like `sharedCorrelation` (NaN
    * entries of constant features become 0): the reference it replaced.
    */
  private def sparkCorrelation(df: DataFrame, groups: Array[Int]): Array[Array[Double]] = {
    import org.apache.spark.ml.linalg.{Matrix, Vectors}
    import org.apache.spark.ml.stat.Correlation
    import org.apache.spark.sql.functions.{col, udf}
    val toVec = udf((a: Seq[Double]) => Vectors.dense(a.toArray))
    val Row(m: Matrix) = Correlation.corr(df.select(toVec(col("features")).as("f")), "f").head()
    Array.tabulate(groups.length, groups.length) { (i, j) =>
      if (i == j) 1.0
      else if (groups(i) != groups(j)) 0.0
      else { val v = m(i, j); if (v.isNaN) 0.0 else v }
    }
  }

  test("sharedCorrelation equals Spark's Pearson correlation on FZ and AB") {
    for (ds <- Seq(repro.erdata.Datasets.fz(spark, scale = 0.3),
                   repro.erdata.Datasets.ab(spark, scale = 0.3))) {
      val p = Zeroer.prepareCross(ds)
      try {
        // as prepared, and in one partition, where every sum runs over all pairs
        for ((parts, got) <- Seq(p.pairs.rdd.getNumPartitions -> p.corr,
                                 1 -> sharedCorrelation(p.pairs.coalesce(1), "features", p.groups))) {
          val want = sparkCorrelation(p.pairs.coalesce(parts), p.groups)
          val diff = (for (i <- 0 until p.d; j <- 0 until p.d)
                        yield math.abs(got(i)(j) - want(i)(j))).max
          assert(diff <= 1e-12, s"${ds.name} in $parts partitions: max |r - Spark's r| = $diff")
        }
      } finally p.pairs.unpersist()
    }
  }

  test("sharedCorrelation gives a constant feature a zero row and column") {
    val p0 = mkPrepared(30, 270, 4)
    import org.apache.spark.sql.functions._
    val withConst = udf((x: Seq[Double]) => (x.take(1) :+ 0.25) ++ x.drop(1))
    val df     = p0.pairs.withColumn("features", withConst(col("features")))
    val groups = Array(0, 0, 0, 1, 1)
    val r      = sharedCorrelation(df, "features", groups)
    for (j <- 0 until 5) {
      assert(r(1)(j) == (if (j == 1) 1.0 else 0.0))
      assert(r(j)(1) == (if (j == 1) 1.0 else 0.0))
    }
    assert(math.abs(r(0)(2)) > 0.0, "the other features of the group keep their correlation")
  }

  /** `p`'s share of a one-side moment pass at `params`, keeping the rows `keep` accepts. */
  private def sums(p: Prepared, params: Option[SideParams],
                   keep: GammaRow => Boolean = _ => false): SideSums =
    moments(Seq(p), Seq(pairRows(p)), params.map(Seq(_)), Seq(keep), epsInit = 0.5).head

  test("init moments split by the epsilon threshold") {
    val p = mkPrepared(60, 440, 4)
    val m = sums(p, None).moments(Map.empty)
    assert(math.abs(m.nM - 60.0) < 5.0, s"init nM=${m.nM}")
    assert(m.meanM.sum / 4 > 0.7)
    assert(m.meanU.sum / 4 < 0.35)
  }

  test("moments means/variances match a driver-side computation") {
    val p    = mkPrepared(30, 70, 3)
    val rows = p.pairs.collect().map(r => (pairKey(r.getLong(0), r.getLong(1)), r.getSeq[Double](2).toArray))
    val th   = build(sums(p, None).moments(Map.empty), p.corr, p.groups, cfg)
    val ov   = Map(pairKey(1000, 2000) -> 0.0, pairKey(1005, 2005) -> 0.3, pairKey(1510, 2510) -> 0.9)
    assert(ov.keySet.subsetOf(rows.map(_._1).toSet))
    // (params, overrides, driver-side γ and loglik of one pair)
    val cases: Seq[(Option[SideParams], Map[Long, Double], (Long, Array[Double]) => (Double, Double))] = Seq(
      (None, Map.empty, (_, x) => (if (x.sum / x.length > 0.5) 1.0 else 0.0, 0.0)),
      (Some(th), ov, (id, x) => {
        val (la, lb) = th.logJoint(x)
        (ov.getOrElse(id, 1.0 / (1.0 + math.exp(lb - la))), math.log(math.exp(la) + math.exp(lb)))
      }),
    )
    for ((params, overrides, ref) <- cases) {
      // the overrides go through the driver-side correction of the kept rows
      val m  = sums(p, params, q => overrides.contains(q.pairId)).moments(overrides)
      val gl = rows.map { case (id, x) => ref(id, x) }
      val g  = gl.map(_._1)
      val nM = g.sum
      val nU = rows.length - nM
      assert(math.abs(m.nM - nM) < 1e-12)
      assert(math.abs(m.loglik - gl.map(_._2).sum) < 1e-12, s"loglik ${m.loglik}")
      for (j <- 0 until 3) {
        val xs = rows.map(_._2(j)).zip(g)
        val mM = xs.map { case (x, gi) => gi * x }.sum / nM
        val mU = xs.map { case (x, gi) => (1 - gi) * x }.sum / nU
        val vM = xs.map { case (x, gi) => gi * (x - mM) * (x - mM) }.sum / nM
        val vU = xs.map { case (x, gi) => (1 - gi) * (x - mU) * (x - mU) }.sum / nU
        assert(math.abs(m.meanM(j) - mM) < 1e-12)
        assert(math.abs(m.meanU(j) - mU) < 1e-12)
        assert(math.abs(m.varM(j) - vM) < 1e-12)
        assert(math.abs(m.varU(j) - vU) < 1e-12)
      }
    }
  }

  test("EM converges and recovers the mixture on separable data") {
    val p = mkPrepared(50, 950, 6)
    val res = Zeroer.fit(p, None, None, cfg)
    assert(res.converged, "EM should converge on clean data")
    assert(math.abs(res.params.piM - 0.05) < 0.01, s"piM=${res.params.piM}")
    assert(res.params.muM.sum / 6 > 0.7)
    assert(res.params.muU.sum / 6 < 0.3)
    val preds = res.predictions.count()
    assert(math.abs(preds - 50L) <= 3, s"predicted $preds of 50 matches")
  }

  test("EM is robust to a mis-set epsilon init (paper Fig 8b)") {
    for (eps <- Seq(0.3, 0.5, 0.7)) {
      val p = mkPrepared(50, 950, 6)
      val res = Zeroer.fit(p, None, None, cfg.copy(epsInit = eps))
      val n = res.predictions.count()
      assert(math.abs(n - 50L) <= 5, s"eps=$eps predicted $n")
    }
  }

  test("gamma overrides are honored by the next moment pass") {
    val p = mkPrepared(20, 180, 4)
    val params = build(sums(p, None).moments(Map.empty), p.corr, p.groups, cfg)
    // force pair (1000, 2000) (a match-like vector) to gamma 0
    val ov = Map(pairKey(1000, 2000) -> 0.0)
    val s0 = sums(p, Some(params))
    val m0 = s0.moments(Map.empty)
    val m1 = sums(p, Some(params), q => ov.contains(q.pairId)).moments(ov)
    assert(m1.nM < m0.nM, "override to 0 must reduce the match mass")
    // an override needs its pair's features: a pass that did not keep the pair cannot apply it
    intercept[IllegalArgumentException](s0.moments(ov))
  }

  test("fit takes both within-table sides or neither") {
    val p = mkPrepared(20, 80, 4)
    for ((l, r) <- Seq((Some(p), None), (None, Some(p))))
      intercept[IllegalArgumentException](Zeroer.fit(p, l, r, Config()))
  }

  test("eStep emits gamma, la, lb with gamma = sigmoid(la - lb)") {
    val p = mkPrepared(20, 80, 4)
    val params = build(sums(p, None).moments(Map.empty), p.corr, p.groups, cfg)
    eStep(p, pairRows(p), params, Map.empty).collect().foreach { r =>
      val g = r.getDouble(3); val la = r.getDouble(4); val lb = r.getDouble(5)
      assert(math.abs(g - 1.0 / (1.0 + math.exp(lb - la))) < 1e-9)
    }
  }

  test("degenerate features (zero variance everywhere) do not crash EM") {
    // append a constant feature column to every vector
    val p0 = mkPrepared(30, 270, 4)
    import org.apache.spark.sql.functions._
    val addConst = udf((x: Seq[Double]) => (x :+ 0.0).toArray)
    val df = p0.pairs.withColumn("features", addConst(col("features"))).cache()
    val groups = p0.groups :+ 2
    val p = Prepared("degen", df, 5, groups, df.count(),
                     sharedCorrelation(df, "features", groups))
    val res = Zeroer.fit(p, None, None, cfg)
    assert(res.predictions.count() > 0)
  }

  test("overlapping mixtures yield calibrated (interior) posteriors") {
    val p = mkPrepared(100, 900, 4, cM = 0.6, cU = 0.4)
    val res = Zeroer.fit(p, None, None, cfg)
    import org.apache.spark.sql.functions._
    val interior = res.gammaDf.where(col("gamma") > 0.05 && col("gamma") < 0.95).count()
    assert(interior > 10, "overlapping clusters must produce uncertain posteriors")
  }

  test("every pass of an Algorithm 2 fit is one wave of tasks and starts no SQL execution") {
    val ds    = repro.erdata.Datasets.fz(spark, scale = 0.3)
    val sides = Seq(Zeroer.prepareCross(ds), Zeroer.prepareSelf(ds, "left"), Zeroer.prepareSelf(ds, "right"))
    val cores = spark.sparkContext.defaultParallelism
    try {
      var res: Zeroer.FitResult = null
      val jobs = JobLog.of(spark.sparkContext) {
        res = Zeroer.fit(sides(0), Some(sides(1)), Some(sides(2)), Config(maxIter = 2, tol = -1))
      }
      res.gammaDf.unpersist()
      assert(res.iters == 2)
      // one init pass over all sides, then a cross pass and a within-table pass per iteration
      assert(jobs.count(_.site.contains("ZeroerEM$.moments(")) == 1 + 2 * 2)
      assert(!jobs.exists(_.site.contains("ZeroerEM$.collectRows(")))
      assert(jobs.size <= 6, s"${jobs.size} jobs: ${jobs.map(_.where).mkString("; ")}")
      jobs.foreach { j =>
        assert(j.tasks <= cores, s"a job ran ${j.tasks} tasks on $cores cores: ${j.where}")
        assert(j.sqlExecution.isEmpty, s"SQL execution ${j.sqlExecution} for ${j.where}")
        assert(j.shuffleBytes == 0, s"a job wrote ${j.shuffleBytes} shuffle bytes: ${j.where}")
      }
    } finally sides.foreach(_.pairs.unpersist())
  }
}
