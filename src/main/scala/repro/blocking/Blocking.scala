package repro.blocking

import scala.collection.mutable

import org.apache.spark.sql.{Column, DataFrame, Dataset, Encoders, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{StructField, StructType}

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
    ranked(texts.rdd.aggregate(mutable.HashMap.empty[String, Long])(
      countTokens, (a, b) => { b.foreach { case (t, n) => a(t) = a.getOrElse(t, 0L) + n }; a }))
  }

  /** [[vocabulary]] of texts already on the driver, by the same rule. */
  def vocabulary(texts: Iterator[String]): Map[String, Term] =
    ranked(texts.foldLeft(mutable.HashMap.empty[String, Long])(countTokens))

  /** `df` with each distinct token of `text` counted once more. */
  private def countTokens(df: mutable.HashMap[String, Long], text: String): mutable.HashMap[String, Long] = {
    new Profile(text).tokens.foreach(t => df(t) = df.getOrElse(t, 0L) + 1)
    df
  }

  private def ranked(df: mutable.HashMap[String, Long]): Map[String, Term] =
    df.toArray.sortBy { case (t, n) => (n, t) }.iterator.zipWithIndex
      .map { case ((t, n), i) => t -> Term(n, i + 1) }.toMap

  private val IdText = Encoders.tuple(Encoders.scalaLong, Encoders.STRING)

  /** `(id, text)` of every record of `df`, NULL text as empty. */
  private[repro] def records(df: DataFrame, idCol: String, text: Column): Dataset[(Long, String)] =
    df.select(col(idCol).cast("long"), coalesce(text, lit(""))).as(IdText)

  private val IdPair = Encoders.tuple(Encoders.scalaLong, Encoders.scalaLong)

  /** The inverted prefix index of the `indexed` records `(id, text)`, token
    * -> ids, ranked by `vocab`: a record's prefix is its `overlap` rarest
    * tokens of df <= `maxDf`. It is built on the driver and broadcast; each
    * probe record then looks up its own prefix tokens ([[candidates]]), as
    * PPJoin probes its index record by record. `within` marks a
    * within-table side, whose probe and indexed records are one table.
    */
  final class Index(vocab: Map[String, Term], indexed: Iterable[(Long, String)],
                    overlap: Int, maxDf: Long, within: Boolean) extends Serializable {

    private def prefix(text: String): Array[String] =
      new Profile(text).tokens.filter(vocab(_).df <= maxDf).sortBy(vocab(_).rank).take(overlap)

    private val ids: Map[String, Array[Long]] =
      indexed.iterator.flatMap { case (rid, s) => prefix(s).map(_ -> rid) }.toArray.groupMap(_._1)(_._2)

    /** The distinct indexed records that share a prefix token with the
      * probe record `(id, text)`, in ascending id order (consecutive pairs
      * then differ little, which the column cache of a prepared side
      * compresses); within a table only the ids above `id`.
      */
    def candidates(id: Long, text: String): Array[Long] = {
      val c = prefix(text).flatMap(ids.getOrElse(_, Array.emptyLongArray)).distinct.sorted
      if (within) c.filter(_ > id) else c
    }
  }

  /** Pairs `(left_id, right_id)` of each `probe` record and its
    * [[Index.candidates]] in the index of `indexed`, ranked by the
    * vocabulary of `tables`: the vocabulary job and the indexed table's
    * collect, then one narrow `flatMap` over the probe records without a
    * shuffle. The broadcast index stays alive with the result, whose cache
    * may be recomputed through it.
    */
  private def probeIndex(tables: Seq[DataFrame], probe: DataFrame, indexed: DataFrame, idCol: String,
                         attr: String, overlap: Int, maxDf: Long, within: Boolean): DataFrame = {
    val vocab = vocabulary(tables, col(attr))
    val index = probe.sparkSession.sparkContext.broadcast(
      new Index(vocab, records(indexed, idCol, col(attr)).collect(), overlap, maxDf, within))
    records(probe, idCol, col(attr)).flatMap { case (rid, s) =>
      index.value.candidates(rid, s).map(rid -> _)
    }(IdPair).toDF("left_id", "right_id")
  }

  /** Cross-table candidate pairs `(left_id, right_id)`, distinct: `left`
    * probes the prefix index of `right`.
    */
  def candidatePairs(left: DataFrame, right: DataFrame, idCol: String,
                     attr: String, overlap: Int = 5, maxDf: Long = 80): DataFrame =
    probeIndex(Seq(left, right), left, right, idCol, attr, overlap, maxDf, within = false)

  /** Within-table candidate pairs with `left_id < right_id`, distinct: the
    * table probes its own prefix index.
    */
  def selfCandidatePairs(df: DataFrame, idCol: String, attr: String,
                         overlap: Int = 5, maxDf: Long = 80): DataFrame =
    probeIndex(Seq(df), df, df, idCol, attr, overlap, maxDf, within = true)

  /** `id -> value` of a table's `records`; ids must be unique. */
  private[repro] def byId[V](records: Iterable[(Long, V)], idCol: String): Map[Long, V] = {
    val m = records.toMap
    require(m.size == records.size, s"ids in $idCol are not unique")
    m
  }

  /** `pairs` with each side's source attributes as `l_<attr>` / `r_<attr>`
    * columns after its own, as an inner join on `left_id` and `right_id`
    * would give them: a pair whose id is missing from its table is dropped,
    * and a NULL attribute stays NULL. Each table's `id -> attrs` is
    * collected once (once for both sides when `left` and `right` are the
    * same DataFrame) and broadcast, so the pairs are never shuffled. Ids
    * must be unique within a table ([[byId]]).
    *
    * Part of the DataFrame layer API (with [[candidatePairs]],
    * `FeatureGen.addFeatures` and `FeatureGen.imputeAndScale`) that
    * composes preparation one layer at a time, as the tests and the
    * benchmark's traced pass do. `Zeroer.prepareCross` and `prepareSelf`
    * do not use it: they collect each table once and featurize every pair
    * in the task that probes the index.
    */
  def withPairAttrs(pairs: DataFrame, left: DataFrame, right: DataFrame,
                    idCol: String, attrs: Seq[String]): DataFrame = {
    val sc = pairs.sparkSession.sparkContext
    def table(t: DataFrame) = {
      val rows = t.select(col(idCol).cast("long") +: attrs.map(col): _*).collect()
      sc.broadcast(byId(rows.map(r => r.getLong(0) -> r.toSeq.tail), idCol))
    }
    val l = table(left)
    val r = if (right eq left) l else table(right)
    def fields(side: String, t: DataFrame) = attrs.map(a => StructField(s"${side}_$a", t.schema(a).dataType))
    val out = StructType(pairs.schema.fields ++ fields("l", left) ++ fields("r", right))
    val (li, ri) = (pairs.schema.fieldIndex("left_id"), pairs.schema.fieldIndex("right_id"))
    pairs.mapPartitions { rows =>
      val (lt, rt) = (l.value, r.value)
      rows.flatMap { row =>
        for (la <- lt.get(row.getLong(li)); ra <- rt.get(row.getLong(ri))) yield Row.fromSeq(row.toSeq ++ la ++ ra)
      }
    }(Encoders.row(out))
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
