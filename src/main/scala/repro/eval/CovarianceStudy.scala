package repro.eval

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.core.{LinAlg, ZeroerEM}

/** Table 1 reproduction: using ground truth, compare the sample covariance
  * matrices of matches vs unmatches (`cosine(S_M, S_U)`) and their Pearson
  * correlation matrices (`cosine(R_M, R_U)`) after feature grouping — the
  * empirical justification for correlation sharing (§3.1). Both come from
  * [[ZeroerEM.groupMoments]], the estimator of the model's shared R, with
  * the matches and the unmatches as its two classes.
  */
object CovarianceStudy {

  final case class Table1Row(dataset: String, cosCov: Double, cosCorr: Double)

  /** @param labeled candidate pairs with `features` and ground-truth `label`
    * @param groups  feature -> attribute-group index (Figure 4(b) blocks)
    */
  def table1Row(name: String, labeled: DataFrame, groups: Array[Int]): Table1Row = {
    val spark = labeled.sparkSession
    import spark.implicits._
    // class 0 the matches, class 1 the unmatches
    val rows      = labeled.select(when(col("label") === 1.0, 0).otherwise(1), col("features")).as[(Int, Array[Double])]
    val Seq(m, u) = ZeroerEM.groupMoments(rows, 2, groups)
    Table1Row(name, LinAlg.cosineFlat(m.cov, u.cov), LinAlg.cosineFlat(m.corr, u.corr))
  }
}
