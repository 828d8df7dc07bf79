package repro.eval

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.SparkSpec
import repro.core.LinAlg
import repro.core.Zeroer
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

  /** Test-only reference: Table 1 from one filtered `treeAggregate` per
    * class, then the unmasked correlation, masked again afterwards.
    */
  private def twoPassRow(name: String, labeled: DataFrame, groups: Array[Int]): CovarianceStudy.Table1Row = {
    val d = groups.length
    def classCov(label: Double): Array[Array[Double]] = {
      val (n, sums, prods) = labeled.where(col("label") === label).select(col("features")).rdd
        .map(r => r.getSeq[Double](0).toArray)
        .treeAggregate((0L, new Array[Double](d), Array.ofDim[Double](d, d)))(
          seqOp = { case ((n, s, p), x) =>
            for (i <- 0 until d) { s(i) += x(i); for (j <- 0 to i) p(i)(j) += x(i) * x(j) }
            (n + 1, s, p)
          },
          combOp = { case ((n1, s1, p1), (n2, s2, p2)) =>
            for (i <- 0 until d) { s1(i) += s2(i); for (j <- 0 to i) p1(i)(j) += p2(i)(j) }
            (n1 + n2, s1, p1)
          })
      val cov = Array.ofDim[Double](d, d)
      if (n > 1) for (i <- 0 until d; j <- 0 to i) {
        val c = prods(i)(j) / n - (sums(i) / n) * (sums(j) / n)
        cov(i)(j) = c; cov(j)(i) = c
      }
      cov
    }
    def mask(m: Array[Array[Double]]) =
      Array.tabulate(d, d)((i, j) => if (groups(i) == groups(j)) m(i)(j) else 0.0)
    def corr(cov: Array[Array[Double]]) = {
      val sd = Array.tabulate(d)(i => math.sqrt(math.max(cov(i)(i), 0.0)))
      Array.tabulate(d, d) { (i, j) =>
        if (i == j) 1.0
        else if (sd(i) <= 1e-12 || sd(j) <= 1e-12) 0.0
        else cov(i)(j) / (sd(i) * sd(j))
      }
    }
    val sM = mask(classCov(1.0)); val sU = mask(classCov(0.0))
    CovarianceStudy.Table1Row(name, LinAlg.cosineFlat(sM, sU),
                              LinAlg.cosineFlat(mask(corr(sM)), mask(corr(sU))))
  }

  test("Table 1 rows equal the two-pass reference on FZ and AB") {
    for (name <- Seq("FZ", "AB")) {
      val ds     = Datasets.byName(spark, name, scale = 0.3)
      val cross  = Zeroer.prepareCross(ds)
      val lab    = Metrics.withLabel(cross.pairs, ds.truth).cache()
      val groups = FeatureGen.groupIndex(ds.specs)
      try {
        val got  = CovarianceStudy.table1Row(name, lab, groups)
        val want = twoPassRow(name, lab, groups)
        info(s"$name/0.3: $got vs $want")
        assert(math.abs(got.cosCov - want.cosCov) <= 1e-12 &&
               math.abs(got.cosCorr - want.cosCorr) <= 1e-12, s"$got vs $want")
      } finally { lab.unpersist(); cross.pairs.unpersist() }
    }
  }
}
