package repro.blocking

import scala.collection.mutable

import org.apache.spark.sql.{Column, DataFrame, Dataset, Encoders, SparkSession}
import org.apache.spark.sql.functions._

import repro.sim.Profile

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
  * candidate set quadratically. Tokens are [[Profile.tokens]]; their order
  * is the broadcast [[vocabulary]] of the tables, which PPJoin shares.
  */
object Blocking {

  /** A token's document frequency and its rank in the global order. */
  final case class Term(df: Long, rank: Int)

  /** Every token of `text` over `tables` with its document frequency and
    * its rank from 1 in ascending (df, token) order. One job counts the
    * tokens of each partition and merges the counts on the driver, which
    * sorts the vocabulary. NULL text has no tokens.
    */
  def vocabulary(tables: Seq[DataFrame], text: Column): Map[String, Term] = {
    val texts = tables.map(_.select(coalesce(text, lit(""))).as(Encoders.STRING)).reduce(_ union _)
    val df = texts.rdd.aggregate(mutable.HashMap.empty[String, Long])(
      (m, s) => { new Profile(s).tokens.foreach(t => m(t) = m.getOrElse(t, 0L) + 1); m },
      (a, b) => { b.foreach { case (t, n) => a(t) = a.getOrElse(t, 0L) + n }; a })
    df.toArray.sortBy { case (t, n) => (n, t) }.iterator.zipWithIndex
      .map { case ((t, n), i) => t -> Term(n, i + 1) }.toMap
  }

  private val IdText = Encoders.tuple(Encoders.scalaLong, Encoders.STRING)

  /** `(id, text)` of every record of `df`, NULL text as empty. */
  private[repro] def records(df: DataFrame, idCol: String, text: Column): Dataset[(Long, String)] =
    df.select(col(idCol).cast("long"), coalesce(text, lit(""))).as(IdText)

  /** Each table's `(rid, tok)` prefix keys: a record's `overlap` rarest
    * tokens of df <= `maxDf`, ranked by the vocabulary of all the tables.
    */
  private def prefixKeys(tables: Seq[DataFrame], idCol: String, attr: String,
                         overlap: Int, maxDf: Long): Seq[DataFrame] = {
    val vocab = tables.head.sparkSession.sparkContext.broadcast(vocabulary(tables, col(attr)))
    tables.map(records(_, idCol, col(attr)).flatMap { case (rid, s) =>
      val v = vocab.value
      new Profile(s).tokens.filter(v(_).df <= maxDf).sortBy(v(_).rank).take(overlap).map(rid -> _)
    }(IdText).toDF("rid", "tok"))
  }

  /** Cross-table candidate pairs `(left_id, right_id)`, distinct. */
  def candidatePairs(left: DataFrame, right: DataFrame, idCol: String,
                     attr: String, overlap: Int = 5, maxDf: Long = 80): DataFrame = {
    val Seq(lk, rk) = prefixKeys(Seq(left, right), idCol, attr, overlap, maxDf)
    lk.join(rk.withColumnRenamed("rid", "rid2"), "tok")
      .select(col("rid").as("left_id"), col("rid2").as("right_id"))
      .distinct()
  }

  /** Within-table candidate pairs with `left_id < right_id`. */
  def selfCandidatePairs(df: DataFrame, idCol: String, attr: String,
                         overlap: Int = 5, maxDf: Long = 80): DataFrame = {
    val Seq(k) = prefixKeys(Seq(df), idCol, attr, overlap, maxDf)
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

  /** Pair key `l << 32 | r`, the key of the EM's transitivity overrides.
    * It depends only on the pair, so it is the same however often, and
    * with whatever partitioning, the pairs are computed. Both ids must lie
    * in [0, 2^32).
    */
  def pairKey(l: Long, r: Long): Long = {
    require(l >= 0 && l <= 0xFFFFFFFFL && r >= 0 && r <= 0xFFFFFFFFL,
            s"pair ($l, $r): pair keys need both ids in [0, 2^32)")
    l << 32 | r
  }

  /** `pairs` with a `pair_id` column, the [[pairKey]] of `left_id` and `right_id`. */
  def withPairId(pairs: DataFrame): DataFrame =
    pairs.withColumn("pair_id", udf(pairKey _).apply(col("left_id"), col("right_id")))

  /** Blocking recall: fraction of ground-truth matches kept. */
  def recall(spark: SparkSession, pairs: DataFrame, truth: DataFrame): Double = {
    val kept  = pairs.join(truth, Seq("left_id", "right_id")).count()
    val total = truth.count()
    if (total == 0) 1.0 else kept.toDouble / total
  }
}
