package repro.blocking

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

import repro.{JobLog, SparkSpec}
import repro.erdata.Datasets

class BlockingSpec extends SparkSpec {

  private def tbl(rows: (Long, String)*) = {
    val sch = StructType(Seq(StructField("id", LongType), StructField("name", StringType)))
    spark.createDataFrame(spark.sparkContext.parallelize(rows.map(r => Row(r._1, r._2))), sch)
  }

  /** Blocking as it was planned in Spark SQL before the shared vocabulary:
    * the `split(lower(...))` tokenizer, document frequencies joined back
    * onto every token, and each record's keys by `groupBy(rid)` over the
    * `(df, tok)`-sorted tokens. The reference for exact candidate sets.
    */
  private object SqlBlocking {
    private def tokenize(df: DataFrame, attr: String): DataFrame =
      df.select(col("id").as("rid"), explode(array_distinct(filter(
        split(lower(col(attr)), "[^a-z0-9]+"), t => length(t) > 0))).as("tok"))

    private def prefixKeys(left: DataFrame, right: DataFrame, attr: String,
                           overlap: Int, maxDf: Long): (DataFrame, DataFrame) = {
      val (lt, rt) = (tokenize(left, attr), tokenize(right, attr))
      val dfreq = lt.unionByName(rt).groupBy("tok").agg(count(lit(1)).as("df"))
      def keys(t: DataFrame): DataFrame =
        t.join(dfreq, "tok")
          .where(col("df") <= maxDf)
          .groupBy("rid")
          .agg(slice(array_sort(collect_list(struct(col("df"), col("tok")))), 1, overlap).as("ks"))
          .select(col("rid"), explode(col("ks.tok")).as("tok"))
      (keys(lt), keys(rt))
    }

    private def joined(lk: DataFrame, rk: DataFrame): DataFrame =
      lk.join(rk.withColumnRenamed("rid", "rid2"), "tok")
        .select(col("rid").as("left_id"), col("rid2").as("right_id"))
        .distinct()

    def candidatePairs(left: DataFrame, right: DataFrame, attr: String,
                       overlap: Int, maxDf: Long): DataFrame = {
      val (lk, rk) = prefixKeys(left, right, attr, overlap, maxDf)
      joined(lk, rk)
    }

    def selfCandidatePairs(df: DataFrame, attr: String, overlap: Int, maxDf: Long): DataFrame = {
      val (k, _) = prefixKeys(df, df.limit(0), attr, overlap, maxDf)
      joined(k, k).where(col("left_id") < col("right_id"))
    }
  }

  for (name <- Datasets.names) test(s"candidate sets equal the SQL-tokenizer plan on $name") {
    val ds = Datasets.byName(spark, name, scale = 0.3)
    def pairs(df: DataFrame) = df.collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    val (a, o, m) = (ds.blockAttr, ds.blockOverlap, ds.blockMaxDf)
    val sides = Seq(
      "cross" -> (Blocking.candidatePairs(ds.left, ds.right, "id", a, o, m),
                  SqlBlocking.candidatePairs(ds.left, ds.right, a, o, m))) ++
      Seq("left" -> ds.left, "right" -> ds.right).map { case (side, t) =>
        side -> (Blocking.selfCandidatePairs(t, "id", a, o, m), SqlBlocking.selfCandidatePairs(t, a, o, m))
      }
    for ((side, (got, want)) <- sides) {
      val (g, w) = (pairs(got), pairs(want))
      assert(w.nonEmpty && g == w,
             s"$name $side: ${(g -- w).size} extra and ${(w -- g).size} missing of ${w.size} pairs")
    }
  }

  test("pairs sharing a rare token become candidates") {
    val l = tbl(1L -> "zanzibar cafe", 2L -> "plain diner")
    val r = tbl(10L -> "zanzibar bistro", 11L -> "other place")
    val c = Blocking.candidatePairs(l, r, "id", "name", overlap = 3, maxDf = 100).collect()
    assert(c.exists(row => row.getLong(0) == 1L && row.getLong(1) == 10L))
  }

  test("pairs sharing no token are not candidates") {
    val l = tbl(1L -> "alpha beta")
    val r = tbl(10L -> "gamma delta")
    assert(Blocking.candidatePairs(l, r, "id", "name", 3, 100).count() == 0)
  }

  test("stop-word-like tokens above maxDf are not indexed") {
    val l = tbl((1L to 30L).map(i => i -> s"the shop$i"): _*)
    val r = tbl((101L to 130L).map(i => i -> s"the store${i - 100}"): _*)
    // "the" has df 60 > maxDf 50; each shopN/storeN is unique -> no shared keys
    assert(Blocking.candidatePairs(l, r, "id", "name", 3, 50).count() == 0)
  }

  test("overlap knob controls aggressiveness monotonically") {
    val ds   = Datasets.fz(spark, scale = 0.2)
    val tight = Blocking.candidatePairs(ds.left, ds.right, "id", "name", 1, 60).count()
    val loose = Blocking.candidatePairs(ds.left, ds.right, "id", "name", 5, 60).count()
    assert(loose >= tight)
  }

  test("candidates are a subset of the cross product with correct id spaces") {
    val ds = Datasets.fz(spark, scale = 0.2)
    val c  = Blocking.candidatePairs(ds.left, ds.right, "id", ds.blockAttr,
                                     ds.blockOverlap, ds.blockMaxDf)
    val leftIds  = ds.left.select("id").as[Long](org.apache.spark.sql.Encoders.scalaLong).collect().toSet
    val rightIds = ds.right.select("id").as[Long](org.apache.spark.sql.Encoders.scalaLong).collect().toSet
    c.collect().foreach { row =>
      assert(leftIds.contains(row.getLong(0)))
      assert(rightIds.contains(row.getLong(1)))
    }
  }

  test("candidate pairs are distinct") {
    val ds = Datasets.fz(spark, scale = 0.2)
    val c  = Blocking.candidatePairs(ds.left, ds.right, "id", ds.blockAttr,
                                     ds.blockOverlap, ds.blockMaxDf)
    assert(c.count() == c.distinct().count())
  }

  test("blocking recall on FZ stays high") {
    val ds = Datasets.fz(spark, scale = 0.5)
    val c  = Blocking.candidatePairs(ds.left, ds.right, "id", ds.blockAttr,
                                     ds.blockOverlap, ds.blockMaxDf)
    assert(Blocking.recall(spark, c, ds.truth) > 0.9)
  }

  test("selfCandidatePairs returns ordered within-table pairs") {
    val t = tbl(1L -> "zulu cafe", 2L -> "zulu diner", 3L -> "plain shop")
    val c = Blocking.selfCandidatePairs(t, "id", "name", 3, 100).collect()
    assert(c.forall(r => r.getLong(0) < r.getLong(1)))
    assert(c.exists(r => r.getLong(0) == 1L && r.getLong(1) == 2L))
  }

  test("selfCandidatePairs never pairs a record with itself") {
    val t = tbl(1L -> "alpha", 2L -> "alpha")
    val c = Blocking.selfCandidatePairs(t, "id", "name", 3, 100).collect()
    assert(c.forall(r => r.getLong(0) != r.getLong(1)))
  }

  test("candidate generation is one job without a shuffle") {
    val ds        = Datasets.fz(spark, scale = 0.3)
    val (a, o, m) = (ds.blockAttr, ds.blockOverlap, ds.blockMaxDf)
    val sides = Seq[(String, () => DataFrame)](
      "cross" -> (() => Blocking.candidatePairs(ds.left, ds.right, "id", a, o, m)),
      "left"  -> (() => Blocking.selfCandidatePairs(ds.left, "id", a, o, m)))
    for ((side, pairs) <- sides) {
      val jobs = JobLog.of(spark.sparkContext) { pairs(); () }
      jobs.foreach(j => assert(j.shuffleBytes == 0, s"$side: a job wrote ${j.shuffleBytes} shuffle bytes: ${j.where}"))
      assert(jobs.size == 1, s"$side: ${jobs.size} jobs: ${jobs.map(_.where).mkString("; ")}")
    }
  }

  test("withPairAttrs attaches both sides' attributes") {
    val l = tbl(1L -> "zanzibar cafe")
    val r = tbl(10L -> "zanzibar bistro")
    val p = Blocking.candidatePairs(l, r, "id", "name", 3, 100)
    val w = Blocking.withPairAttrs(p, l, r, "id", Seq("name")).head()
    assert(w.getAs[String]("l_name") == "zanzibar cafe")
    assert(w.getAs[String]("r_name") == "zanzibar bistro")
  }

  test("withPairAttrs joins like an inner join: missing ids drop, NULLs stay, extra columns kept") {
    val l = tbl(1L -> "cafe", 3L -> null)
    val r = tbl(10L -> "bistro", 12L -> "diner")
    val pairs = spark.createDataFrame(Seq((1L, 10L, 0.5), (2L, 10L, 0.6), (1L, 11L, 0.7), (3L, 12L, 0.8)))
      .toDF("left_id", "right_id", "w")
    val got = Blocking.withPairAttrs(pairs, l, r, "id", Seq("name"))
    assert(got.columns.toSeq == Seq("left_id", "right_id", "w", "l_name", "r_name"))
    assert(got.collect().map(_.toSeq).toSet ==
           Set(Seq(1L, 10L, 0.5, "cafe", "bistro"), Seq(3L, 12L, 0.8, null, "diner")))
  }

  test("withPairAttrs gives the same attributes when left and right are one DataFrame") {
    val t     = tbl(1L -> "zulu cafe", 2L -> "zulu diner", 3L -> null)
    val pairs = spark.createDataFrame(Seq((1L, 2L), (1L, 3L), (2L, 3L), (2L, 4L))).toDF("left_id", "right_id")
    def rows(right: DataFrame) =
      Blocking.withPairAttrs(pairs, t, right, "id", Seq("name")).collect().map(_.toSeq).toSet
    val same = rows(t)
    assert(same.size == 3 && same == rows(tbl(1L -> "zulu cafe", 2L -> "zulu diner", 3L -> null)))
  }

  test("withPairId assigns unique ids") {
    val ds = Datasets.fz(spark, scale = 0.2)
    val c  = Blocking.withPairId(
      Blocking.candidatePairs(ds.left, ds.right, "id", ds.blockAttr, 4, 60))
    assert(c.select("pair_id").distinct().count() == c.count())
  }

  test("withPairId packs left_id and right_id into one long") {
    val p = Blocking.withPairId(spark.createDataFrame(Seq((3L, 7L), (0L, 0xFFFFFFFFL)))
      .toDF("left_id", "right_id"))
    assert(p.select("pair_id").collect().map(_.getLong(0)).toSeq ==
           Seq(3L << 32 | 7L, 0xFFFFFFFFL))
  }

  test("withPairId rejects ids outside [0, 2^32)") {
    for (ids <- Seq((-1L, 2L), (1L, 1L << 32))) {
      val p = Blocking.withPairId(spark.createDataFrame(Seq(ids)).toDF("left_id", "right_id"))
      val e = intercept[Exception](p.collect())
      assert(Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
               .exists(t => String.valueOf(t.getMessage).contains("2^32")), e.toString)
    }
  }

  test("Oracle: candidate generation matches SQL token join") {
    val l = tbl(1L -> "zanzibar cafe", 2L -> "plain diner", 3L -> "odd zanzibar")
    val r = tbl(10L -> "zanzibar bistro", 11L -> "plain house", 12L -> "nothing")
    // with overlap >= record token count and no maxDf cut, blocking reduces
    // to: pairs sharing ANY token
    val got = Blocking.candidatePairs(l, r, "id", "name", overlap = 10, maxDf = 1000)
      .select(col("left_id"), col("right_id"))
    repro.Oracle.assertEquivalent(got,
      """SELECT DISTINCT l.id AS left_id, r.id AS right_id
        |FROM (SELECT id, unnest(string_split(name, ' ')) AS tok FROM lt) l
        |JOIN (SELECT id, unnest(string_split(name, ' ')) AS tok FROM rt) r
        |USING (tok)""".stripMargin,
      "lt" -> l, "rt" -> r)
  }
}
