package repro.blocking

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Token-prefix blocking (the paper's "locality sensitive hashing blocking
  * scheme" with an *overlapping size* knob, §5.1/§5.4).
  *
  * Every record is indexed under its `overlap` globally-rarest tokens of the
  * blocking attribute (rarest = lowest document frequency across both
  * tables, ties broken lexicographically — the classic prefix-filtering
  * ordering). Two records become a candidate pair iff they share at least
  * one indexed token. A larger `overlap` indexes more tokens per record,
  * i.e. is *less* aggressive (more candidates, higher recall); `maxDf`
  * drops stop-word-like tokens whose inverted lists would explode the
  * candidate set quadratically.
  */
object Blocking {

  /** The distinct lower-case alphanumeric tokens of a string column: the
    * tokenizer of blocking and of PPJoin.
    */
  private[repro] def tokens(text: Column): Column =
    array_distinct(filter(split(lower(text), "[^a-z0-9]+"), t => length(t) > 0))

  private def tokenize(df: DataFrame, idCol: String, attr: String): DataFrame =
    df.select(col(idCol).as("rid"), explode(tokens(col(attr))).as("tok"))

  /** Per-record prefix keys: the `overlap` rarest tokens of `attr`. */
  private def prefixKeys(left: DataFrame, right: DataFrame, idCol: String,
                         attr: String, overlap: Int, maxDf: Long): (DataFrame, DataFrame) = {
    val lt = tokenize(left, idCol, attr)
    val rt = tokenize(right, idCol, attr)
    val dfreq = lt.unionByName(rt).groupBy("tok").agg(count(lit(1)).as("df"))
    def keys(t: DataFrame): DataFrame =
      t.join(dfreq, "tok")
        .where(col("df") <= maxDf)
        .groupBy("rid")
        .agg(slice(array_sort(collect_list(struct(col("df"), col("tok")))), 1, overlap).as("ks"))
        .select(col("rid"), explode(col("ks.tok")).as("tok"))
    (keys(lt), keys(rt))
  }

  /** Cross-table candidate pairs `(left_id, right_id)`, distinct. */
  def candidatePairs(left: DataFrame, right: DataFrame, idCol: String,
                     attr: String, overlap: Int = 5, maxDf: Long = 80): DataFrame = {
    val (lk, rk) = prefixKeys(left, right, idCol, attr, overlap, maxDf)
    lk.join(rk.withColumnRenamed("rid", "rid2"), "tok")
      .select(col("rid").as("left_id"), col("rid2").as("right_id"))
      .distinct()
  }

  /** Within-table candidate pairs with `left_id < right_id`. */
  def selfCandidatePairs(df: DataFrame, idCol: String, attr: String,
                         overlap: Int = 5, maxDf: Long = 80): DataFrame = {
    val (k, _) = prefixKeys(df, df.limit(0), idCol, attr, overlap, maxDf)
    k.join(k.withColumnRenamed("rid", "rid2"), "tok")
      .where(col("rid") < col("rid2"))
      .select(col("rid").as("left_id"), col("rid2").as("right_id"))
      .distinct()
  }

  /** Join the source attributes back onto a `(left_id, right_id)` pair
    * DataFrame as `l_<attr>` / `r_<attr>` columns.
    */
  def withPairAttrs(pairs: DataFrame, left: DataFrame, right: DataFrame,
                    idCol: String, attrs: Seq[String]): DataFrame = {
    val l = left.select(col(idCol).as("left_id") +: attrs.map(a => col(a).as(s"l_$a")): _*)
    val r = right.select(col(idCol).as("right_id") +: attrs.map(a => col(a).as(s"r_$a")): _*)
    pairs.join(l, "left_id").join(r, "right_id")
  }

  /** Pair id `left_id << 32 | right_id`, used as the key of the EM's
    * transitivity overrides. It depends only on the pair, so it is the same
    * however often, and with whatever partitioning, the pairs are computed.
    * Both ids must lie in [0, 2^32).
    */
  def withPairId(pairs: DataFrame): DataFrame =
    pairs.withColumn("pair_id", pairId(col("left_id"), col("right_id")))

  private val MaxId = 0xFFFFFFFFL

  private val pairId = udf { (l: Long, r: Long) =>
    require(l >= 0 && l <= MaxId && r >= 0 && r <= MaxId,
            s"pair ($l, $r): pair ids need both ids in [0, 2^32)")
    l << 32 | r
  }

  /** Blocking recall: fraction of ground-truth matches kept. */
  def recall(spark: SparkSession, pairs: DataFrame, truth: DataFrame): Double = {
    val kept  = pairs.join(truth, Seq("left_id", "right_id")).count()
    val total = truth.count()
    if (total == 0) 1.0 else kept.toDouble / total
  }
}
