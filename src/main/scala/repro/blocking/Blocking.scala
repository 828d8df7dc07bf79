package repro.blocking

import scala.collection.mutable

import org.apache.spark.SparkContext
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{Column, DataFrame, Encoders, Row, SparkSession}
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
  * is the [[vocabulary]] of the tables.
  *
  * Candidate generation is [[records]] (one collect) then [[probe]]; the
  * blocking API, `Zeroer.prepareCross`/`prepareSelf` and PPJoin run both
  * in turn. The prefix length is a function of a record's token count:
  * blocking's is the constant `overlap`, PPJoin's follows its similarity
  * threshold.
  */
object Blocking {

  /** A token's document frequency and its rank in the global order. */
  final case class Term(df: Long, rank: Int)

  /** Every token of `texts` with its document frequency (each distinct
    * token of a text counted once) and its rank from 1 in ascending
    * (df, token) order, counted and sorted on the driver.
    */
  def vocabulary(texts: Iterator[String]): Map[String, Term] = {
    val df = mutable.HashMap.empty[String, Long]
    texts.foreach(new Profile(_).tokens.foreach(t => df(t) = df.getOrElse(t, 0L) + 1))
    df.toArray.sortBy { case (t, n) => (n, t) }.iterator.zipWithIndex
      .map { case ((t, n), i) => t -> Term(n, i + 1) }.toMap
  }

  /** A table record: its id, blocking text (NULL as empty) and attributes as strings. */
  final case class Record(id: Long, text: String, attrs: Array[String])

  /** Every record of `tables`, per table in table order, collected in one
    * job: the tables' union, each row tagged with its table. Ids must be
    * unique within a table ([[byId]]).
    */
  def records(tables: Seq[DataFrame], idCol: String, text: Column, attrs: Seq[String]): Seq[Array[Record]] = {
    val k    = attrs.length
    val cols = col(idCol).cast("long") +: coalesce(text, lit("")) +: attrs.map(a => col(a).cast("string"))
    val rows = tables.zipWithIndex.map { case (t, i) => t.select(lit(i) +: cols: _*) }.reduce(_ union _).collect()
    tables.indices.map { i =>
      val t = rows.filter(_.getInt(0) == i)
        .map(r => Record(r.getLong(1), r.getString(2), Array.tabulate(k)(j => r.getString(3 + j))))
      byId(t.map(r => r.id -> r), idCol)
      t
    }
  }

  /** The inverted prefix index of the `indexed` records, token -> records,
    * ranked by `vocab`: a record keeps its tokens of df <= `maxDf`, and its
    * prefix is the `prefixLen(s)` rarest of those s tokens. Each probe
    * record looks up its own prefix tokens ([[candidates]]), as PPJoin
    * probes its index record by record. `within` marks a within-table
    * side, whose probe and indexed records are one table.
    */
  private final class Index(vocab: Map[String, Term], indexed: Array[Record],
                            prefixLen: Int => Int, maxDf: Long, within: Boolean) extends Serializable {

    private def prefix(text: String): Array[String] = {
      val t = new Profile(text).tokens.filter(vocab(_).df <= maxDf).sortBy(vocab(_).rank)
      t.take(prefixLen(t.length))
    }

    private val byToken: Map[String, Array[Record]] =
      indexed.iterator.flatMap(r => prefix(r.text).map(_ -> r)).toArray.groupMap(_._1)(_._2)

    /** The distinct indexed records that share a prefix token with the
      * probe record `p`, in ascending id order (consecutive pairs then
      * differ little, which the column cache of a prepared side
      * compresses); within a table only the ids above `p`'s.
      */
    def candidates(p: Record): Array[Record] = {
      val c = prefix(p.text).flatMap(byToken.getOrElse(_, Array.empty[Record])).distinctBy(_.id).sortBy(_.id)
      if (within) c.filter(_.id > p.id) else c
    }
  }

  /** Each record of `tables.head` paired with its [[Index.candidates]]
    * among `tables.last` (one table for a within-table side), under the
    * [[Index]]'s `prefixLen` and `maxDf`. The driver builds the
    * [[vocabulary]] of `tables` and the index, and broadcasts the index
    * with `prefixLen`, which should therefore capture only what it reads;
    * one narrow pass over the probe records, in table order and one slice
    * per core, probes it. No job runs until the result is read, and none
    * shuffles; the broadcast stays alive with the result.
    */
  def probe(sc: SparkContext, tables: Seq[Array[Record]], prefixLen: Int => Int,
            maxDf: Long): RDD[(Record, Record)] = {
    val index = sc.broadcast(new Index(vocabulary(tables.iterator.flatten.map(_.text)), tables.last,
                                       prefixLen, maxDf, within = tables.size == 1))
    sc.parallelize(tables.head.toSeq, sc.defaultParallelism).mapPartitions { probes =>
      val ix = index.value
      probes.flatMap(p => ix.candidates(p).iterator.map(p -> _))
    }
  }

  /** `(left_id, right_id)` of the pairs [[probe]] finds in `tables`. */
  private def candidateIds(tables: Seq[DataFrame], idCol: String, attr: String,
                           overlap: Int, maxDf: Long): DataFrame = {
    val spark = tables.head.sparkSession
    import spark.implicits._
    probe(spark.sparkContext, records(tables, idCol, col(attr), Nil), _ => overlap, maxDf)
      .map { case (p, c) => (p.id, c.id) }.toDF("left_id", "right_id")
  }

  /** Cross-table candidate pairs `(left_id, right_id)`, distinct: `left`
    * probes the prefix index of `right`.
    */
  def candidatePairs(left: DataFrame, right: DataFrame, idCol: String,
                     attr: String, overlap: Int = 5, maxDf: Long = 80): DataFrame =
    candidateIds(Seq(left, right), idCol, attr, overlap, maxDf)

  /** Within-table candidate pairs with `left_id < right_id`, distinct: the
    * table probes its own prefix index.
    */
  def selfCandidatePairs(df: DataFrame, idCol: String, attr: String,
                         overlap: Int = 5, maxDf: Long = 80): DataFrame =
    candidateIds(Seq(df), idCol, attr, overlap, maxDf)

  /** `id -> value` of a table's `records`; ids must be unique. */
  private def byId[V](records: Iterable[(Long, V)], idCol: String): Map[Long, V] = {
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
    * do not use it: they featurize each pair from its [[Record]]s in the
    * task that [[probe]]s it.
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
