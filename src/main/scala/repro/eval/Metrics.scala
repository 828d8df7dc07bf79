package repro.eval

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Precision / recall / F-score over (left_id, right_id) pair sets.
  * The paper reports F-score throughout (§5.1, "Performance Measures").
  */
object Metrics {

  final case class PRF(tp: Long, fp: Long, fn: Long) {
    def precision: Double = if (tp + fp == 0) 0.0 else tp.toDouble / (tp + fp)
    def recall: Double    = if (tp + fn == 0) 0.0 else tp.toDouble / (tp + fn)
    def f1: Double = {
      val p = precision; val r = recall
      if (p + r == 0.0) 0.0 else 2 * p * r / (p + r)
    }
  }

  /** Compare predicted pairs against ground truth (both DataFrames carry
    * `left_id`, `right_id`; other columns are ignored).
    */
  def prf(pred: DataFrame, truth: DataFrame): PRF = {
    val p  = pred.select("left_id", "right_id").distinct()
    val t  = truth.select("left_id", "right_id").distinct()
    val tp = p.join(t, Seq("left_id", "right_id")).count()
    PRF(tp, p.count() - tp, t.count() - tp)
  }

  /** Attach the ground-truth label (1.0 match / 0.0 unmatch) to a candidate
    * pair DataFrame.
    */
  def withLabel(pairs: DataFrame, truth: DataFrame): DataFrame =
    pairs.join(
      truth.select(col("left_id"), col("right_id"), lit(1.0).as("label")),
      Seq("left_id", "right_id"), "left")
      .withColumn("label", coalesce(col("label"), lit(0.0)))
}
