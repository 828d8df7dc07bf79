package repro.baselines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.blocking.Blocking
import repro.sim.Profile

/** PPJoin baseline (paper baseline 9, Xiao et al. TODS'11): a set-similarity
  * join with prefix filtering over the *concatenation of all attributes*
  * (PPJoin is single-attribute). Jaccard and Cosine are supported — the two
  * similarity functions the PPJoin paper optimizes — and PP* sweeps the
  * threshold grid {0.2, 0.4, 0.6, 0.8, 1.0} x {jaccard, cosine} and reports
  * the best F1 (only reachable with ground truth, as the paper notes).
  *
  * Prefix filtering: with tokens canonically ordered by ascending global
  * frequency (the [[Blocking.vocabulary]] of both tables, blocking's order,
  * over [[Profile.tokens]]), a record of size s needs only its first
  * `s - ceil(t*s) + 1` (Jaccard) or `s - ceil(t²*s) + 1` (Cosine) tokens
  * indexed — any qualifying partner must share one of them. Verification
  * computes the exact similarity, so the filter only needs completeness
  * (asserted against brute force in the tests).
  */
object PPJoin {

  /** Both tables as records (id, tokens sorted by global-frequency rank,
    * size), over one vocabulary of their concatenated attributes: one
    * [[Blocking.records]] job, then the vocabulary and the tokens on the
    * driver.
    */
  private def tokenized(left: DataFrame, right: DataFrame, idCol: String,
                        attrs: Seq[String]): (DataFrame, DataFrame) = {
    val spark = left.sparkSession
    import spark.implicits._
    val tables = Blocking.records(Seq(left, right), idCol, concat_ws(" ", attrs.map(col): _*), Nil)
    val vocab  = Blocking.vocabulary(tables.iterator.flatten.map(_.text))
    val Seq(l, r) = tables.map(_.toSeq.map { rec =>
      val toks = new Profile(rec.text).tokens.sortBy(vocab(_).rank)
      (rec.id, toks, toks.length)
    }.toDF("rid", "toks", "sz"))
    (l, r)
  }

  /** Similarity join: pairs with sim(tokens_l, tokens_r) >= threshold. */
  def join(left: DataFrame, right: DataFrame, idCol: String, attrs: Seq[String],
           sim: String, threshold: Double): DataFrame = {
    require(sim == "jaccard" || sim == "cosine", s"unsupported sim $sim")
    val (l, r) = tokenized(left, right, idCol, attrs)
    joinTokenized(l, r, sim, threshold)
  }

  /** [[join]] over records already [[tokenized]]. */
  private def joinTokenized(l: DataFrame, r: DataFrame, sim: String, threshold: Double): DataFrame = {
    // a partner's size ratio is at least t (jaccard) or t² (cosine)
    val ratio     = if (sim == "jaccard") threshold else threshold * threshold
    val prefixLen = col("sz") - ceil(lit(ratio) * col("sz")) + 1

    def prefixes(t: DataFrame) =
      t.select(col("rid"), col("sz"),
               explode(slice(col("toks"), lit(1), greatest(prefixLen, lit(1)).cast("int"))).as("tok"))

    // length filter: |y| in [ratio·|x|, |x|/ratio]
    val lenOk = col("r_sz") >= lit(ratio) * col("l_sz") && col("l_sz") >= lit(ratio) * col("r_sz")

    val cand = prefixes(l).withColumnRenamed("rid", "left_id").withColumnRenamed("sz", "l_sz")
      .join(prefixes(r).withColumnRenamed("rid", "right_id").withColumnRenamed("sz", "r_sz"), "tok")
      .where(lenOk)
      .select("left_id", "right_id").distinct()

    val verify = cand
      .join(l.select(col("rid").as("left_id"), col("toks").as("l_toks")), "left_id")
      .join(r.select(col("rid").as("right_id"), col("toks").as("r_toks")), "right_id")
      .withColumn("inter", size(array_intersect(col("l_toks"), col("r_toks"))).cast("double"))
      .withColumn("sim",
        if (sim == "jaccard")
          col("inter") / (size(col("l_toks")) + size(col("r_toks")) - col("inter"))
        else
          col("inter") / sqrt(size(col("l_toks")).cast("double") * size(col("r_toks"))))
    verify.where(col("sim") >= threshold).select("left_id", "right_id", "sim")
  }

  final case class Best(sim: String, threshold: Double, f1: Double,
                        precision: Double, recall: Double)

  /** PP*: best configuration over the sweep, chosen with ground truth. Both
    * tables are tokenized once, over one vocabulary, and persisted for the
    * sweep; one join per measure at the lowest threshold, persisted; each
    * threshold keeps its `sim >= t` rows, exactly `join`'s result at t
    * (prefix filtering is complete, and `join` ends with the same filter).
    */
  def best(left: DataFrame, right: DataFrame, idCol: String, attrs: Seq[String],
           truth: DataFrame): Best = {
    val thresholds = Seq(0.2, 0.4, 0.6, 0.8, 1.0)
    val (l0, r0) = tokenized(left, right, idCol, attrs)
    val (l, r)   = (l0.persist(), r0.persist())
    try Seq("jaccard", "cosine").flatMap { s =>
      val all = joinTokenized(l, r, s, thresholds.min).persist()
      try thresholds.map { t =>
        val prf = repro.eval.Metrics.prf(all.where(col("sim") >= t), truth)
        Best(s, t, prf.f1, prf.precision, prf.recall)
      } finally all.unpersist()
    }.maxBy(_.f1)
    finally { l.unpersist(); r.unpersist() }
  }
}
