package repro.eval

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.core.LinAlg

/** Table 1 reproduction: using ground truth, compare the sample covariance
  * matrices of matches vs unmatches (`cosine(S_M, S_U)`) and their Pearson
  * correlation matrices (`cosine(R_M, R_U)`) after feature grouping — the
  * empirical justification for correlation sharing (§3.1).
  */
object CovarianceStudy {

  final case class Table1Row(dataset: String, cosCov: Double, cosCorr: Double)

  /** Sample covariance of the matches and of the unmatches, masked to the
    * feature groups, from one shuffle-free pass: each partition sums n, Σx
    * and the lower triangle of Σxᵢxⱼ per label, and the driver adds the
    * sums in partition order.
    */
  private def classCovariances(labeled: DataFrame,
                               groups: Array[Int]): (Array[Array[Double]], Array[Array[Double]]) = {
    val d     = groups.length
    // sums layout per class (match first): n, Σx (d), Σxᵢxⱼ for j <= i
    val width = 1 + d + d * (d + 1) / 2
    val spark = labeled.sparkSession
    import spark.implicits._
    val parts = labeled.select(col("label"), col("features")).as[(Double, Array[Double])]
      .mapPartitions { rows =>
        val s = new Array[Double](2 * width)
        rows.foreach { case (label, x) =>
          val o = if (label == 1.0) 0 else width
          s(o) += 1
          var i = 0; var k = o + 1 + d
          while (i < d) {
            s(o + 1 + i) += x(i)
            var j = 0
            while (j <= i) { s(k) += x(i) * x(j); k += 1; j += 1 }
            i += 1
          }
        }
        Iterator(s)
      }.collect()
    val s = Array.tabulate(2 * width)(k => parts.foldLeft(0.0)(_ + _(k)))
    def cov(o: Int): Array[Array[Double]] = {
      val n = s(o)
      def mean(i: Int) = s(o + 1 + i) / n
      Array.tabulate(d, d) { (i, j) =>
        val (a, b) = if (j <= i) (i, j) else (j, i)
        if (n > 1 && groups(i) == groups(j)) s(o + 1 + d + a * (a + 1) / 2 + b) / n - mean(a) * mean(b)
        else 0.0
      }
    }
    (cov(0), cov(width))
  }

  private def toCorrelation(cov: Array[Array[Double]]): Array[Array[Double]] = {
    val d  = cov.length
    val sd = Array.tabulate(d)(i => math.sqrt(math.max(cov(i)(i), 0.0)))
    Array.tabulate(d, d) { (i, j) =>
      if (i == j) 1.0
      else if (sd(i) <= 1e-12 || sd(j) <= 1e-12) 0.0
      else cov(i)(j) / (sd(i) * sd(j))
    }
  }

  /** @param labeled candidate pairs with `features` and ground-truth `label`
    * @param groups  feature -> attribute-group index (Figure 4(b) blocks)
    */
  def table1Row(name: String, labeled: DataFrame, groups: Array[Int]): Table1Row = {
    val (sM, sU) = classCovariances(labeled, groups)
    Table1Row(name, LinAlg.cosineFlat(sM, sU),
              LinAlg.cosineFlat(toCorrelation(sM), toCorrelation(sU)))
  }
}
