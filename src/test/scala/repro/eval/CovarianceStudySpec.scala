package repro.eval

import org.apache.spark.sql.functions._

import repro.SparkSpec
import repro.core.{Zeroer, ZeroerEM}
import repro.erdata.Datasets
import repro.sim.FeatureGen

class CovarianceStudySpec extends SparkSpec {

  private lazy val (labeled, groups) = {
    val ds    = Datasets.fz(spark, scale = 0.4)
    val cross = Zeroer.prepareCross(ds)
    (Metrics.withLabel(cross.pairs, ds.truth).cache(), FeatureGen.groupIndex(ds.specs))
  }

  test("Table 1 row: correlation cosine exceeds covariance cosine") {
    val row = CovarianceStudy.table1Row("FZ", labeled, groups)
    info(s"Table1 FZ/0.4: cos(S_M,S_U)=${row.cosCov} cos(R_M,R_U)=${row.cosCorr}")
    assert(row.cosCorr > row.cosCov,
      s"correlation sharing premise: ${row.cosCorr} vs ${row.cosCov}")
  }

  test("correlation cosine is high (the paper's sharing justification)") {
    val row = CovarianceStudy.table1Row("FZ", labeled, groups)
    assert(row.cosCorr > 0.8, s"cos(R_M,R_U)=${row.cosCorr}")
  }

  test("cosines are in [-1, 1]") {
    val row = CovarianceStudy.table1Row("FZ", labeled, groups)
    assert(row.cosCov >= -1.0 && row.cosCov <= 1.0 + 1e-9)
    assert(row.cosCorr >= -1.0 && row.cosCorr <= 1.0 + 1e-9)
  }

  test("Table 1 rows on FZ and AB keep their values") {
    // the values of the earlier two-pass computation (one filtered
    // treeAggregate per class, the correlation masked afterwards)
    for ((name, wantCov, wantCorr) <- Seq(("FZ", 0.42326468399896844, 0.8467565378552753),
                                          ("AB", 0.8276749772482892, 0.9877416548046544))) {
      val ds    = Datasets.byName(spark, name, scale = 0.3)
      val cross = Zeroer.prepareCross(ds)
      val lab   = Metrics.withLabel(cross.pairs, ds.truth).cache()
      try {
        val got = CovarianceStudy.table1Row(name, lab, FeatureGen.groupIndex(ds.specs))
        info(s"$name/0.3: $got")
        assert(math.abs(got.cosCov - wantCov) <= 1e-12 && math.abs(got.cosCorr - wantCorr) <= 1e-12,
               s"$got vs ($wantCov, $wantCorr)")
      } finally { lab.unpersist(); cross.pairs.unpersist() }
    }
  }

  test("each class's groupMoments correlation is sharedCorrelation of that class alone on FZ") {
    val ds     = Datasets.fz(spark, scale = 0.3)
    val cross  = Zeroer.prepareCross(ds)
    val lab    = Metrics.withLabel(cross.pairs, ds.truth).cache()
    val groups = FeatureGen.groupIndex(ds.specs)
    try {
      import spark.implicits._
      val rows    = lab.select(when(col("label") === 1.0, 0).otherwise(1), col("features")).as[(Int, Array[Double])]
      val classes = ZeroerEM.groupMoments(rows, 2, groups)
      for ((c, cls) <- Seq((0, col("label") === 1.0), (1, col("label") =!= 1.0))) {
        val alone = lab.where(cls)
        val want  = ZeroerEM.sharedCorrelation(alone, "features", groups)
        val got   = classes(c)
        val worst = want.indices.flatMap(i => want.indices.map(j => math.abs(got.corr(i)(j) - want(i)(j)))).max
        assert(got.n == alone.count() && got.n > 1, s"class $c: n ${got.n}")
        assert(worst <= 1e-12, s"class $c: max |groupMoments - sharedCorrelation| = $worst")
      }
    } finally { lab.unpersist(); cross.pairs.unpersist() }
  }
}
