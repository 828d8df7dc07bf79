package repro.baselines

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.blocking.Blocking
import repro.blocking.Blocking.Record
import repro.sim.{Profile, ProfileSims}

/** PPJoin baseline (paper baseline 9, Xiao et al. TODS'11): a set-similarity
  * join with prefix filtering over the *concatenation of all attributes*
  * (PPJoin is single-attribute). Jaccard and Cosine are supported — the two
  * similarity functions the PPJoin paper optimizes — and PP* sweeps the
  * threshold grid {0.2, 0.4, 0.6, 0.8, 1.0} x {jaccard, cosine} and reports
  * the best F1 (only reachable with ground truth, as the paper notes).
  *
  * Prefix filtering is blocking's: [[Blocking.records]] collects both
  * tables, and [[Blocking.probe]] probes the right table's inverted prefix
  * index with each left record, over the tables' [[Blocking.vocabulary]]
  * (tokens by ascending global frequency) and with no df cut-off. A record
  * of s tokens indexes its first `s - ceil(t*s) + 1` (Jaccard) or
  * `s - ceil(t²*s) + 1` (Cosine) tokens: any qualifying partner must share
  * one of them. Verification computes the exact [[ProfileSims.jaccardTokens]]
  * or [[ProfileSims.cosineTokens]] in the same narrow pass, so the filter
  * only needs completeness (asserted against brute force in the tests). No
  * job shuffles.
  */
object PPJoin {

  /** Both tables as [[Record]]s of their concatenated attributes: one job. */
  private def records(left: DataFrame, right: DataFrame, idCol: String, attrs: Seq[String]): Seq[Array[Record]] =
    Blocking.records(Seq(left, right), idCol, concat_ws(" ", attrs.map(col): _*), Nil)

  /** Similarity join: pairs with sim(tokens_l, tokens_r) >= threshold, as
    * `(left_id, right_id, sim)`.
    */
  def join(left: DataFrame, right: DataFrame, idCol: String, attrs: Seq[String],
           sim: String, threshold: Double): DataFrame =
    joinRecords(left.sparkSession, records(left, right, idCol, attrs), sim, threshold)

  /** [[join]] over the tables' [[records]]. */
  private def joinRecords(spark: SparkSession, tables: Seq[Array[Record]], sim: String,
                          threshold: Double): DataFrame = {
    require(sim == "jaccard" || sim == "cosine", s"unsupported sim $sim")
    import spark.implicits._
    val measure: (Profile, Profile) => Double =
      if (sim == "jaccard") ProfileSims.jaccardTokens else ProfileSims.cosineTokens
    // a partner's size ratio is at least t (jaccard) or t² (cosine)
    val ratio = if (sim == "jaccard") threshold else threshold * threshold
    Blocking.probe(spark.sparkContext, tables, s => s - math.ceil(ratio * s).toInt + 1, Long.MaxValue)
      .mapPartitions { pairs =>
        val memo = mutable.HashMap.empty[String, Profile]
        def profile(r: Record) = memo.getOrElseUpdate(r.text, new Profile(r.text))
        pairs.map { case (l, r) => (l.id, r.id, measure(profile(l), profile(r))) }.filter(_._3 >= threshold)
      }.toDF("left_id", "right_id", "sim")
  }

  final case class Best(sim: String, threshold: Double, f1: Double,
                        precision: Double, recall: Double)

  /** PP*: best configuration over the sweep, chosen with ground truth. Both
    * tables are collected once; one join per measure at the lowest
    * threshold, persisted; each threshold keeps its `sim >= t` rows,
    * exactly `join`'s result at t (prefix filtering is complete, and `join`
    * ends with the same filter).
    */
  def best(left: DataFrame, right: DataFrame, idCol: String, attrs: Seq[String],
           truth: DataFrame): Best = {
    val thresholds = Seq(0.2, 0.4, 0.6, 0.8, 1.0)
    val tables     = records(left, right, idCol, attrs)
    Seq("jaccard", "cosine").flatMap { s =>
      val all = joinRecords(left.sparkSession, tables, s, thresholds.min).persist()
      try thresholds.map { t =>
        val prf = repro.eval.Metrics.prf(all.where(col("sim") >= t), truth)
        Best(s, t, prf.f1, prf.precision, prf.recall)
      } finally all.unpersist()
    }.maxBy(_.f1)
  }
}
