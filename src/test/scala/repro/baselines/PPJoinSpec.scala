package repro.baselines

import org.apache.spark.sql.Row
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

import repro.{JobLog, SparkSpec}
import repro.blocking.Blocking
import repro.erdata.Datasets
import repro.sim.StringSims

class PPJoinSpec extends SparkSpec {

  private def tbl(rows: (Long, String)*) = {
    val sch = StructType(Seq(StructField("id", LongType), StructField("name", StringType)))
    spark.createDataFrame(spark.sparkContext.parallelize(rows.map(r => Row(r._1, r._2))), sch)
  }

  test("identical records join at threshold 1.0") {
    val l = tbl(1L -> "alpha beta gamma")
    val r = tbl(10L -> "alpha beta gamma")
    val out = PPJoin.join(l, r, "id", Seq("name"), "jaccard", 1.0).collect()
    assert(out.length == 1)
    assert(out.head.getDouble(2) == 1.0)
  }

  test("disjoint records never join") {
    val l = tbl(1L -> "alpha beta")
    val r = tbl(10L -> "gamma delta")
    assert(PPJoin.join(l, r, "id", Seq("name"), "jaccard", 0.2).count() == 0)
  }

  test("jaccard similarity value is exact") {
    val l = tbl(1L -> "a b c")
    val r = tbl(10L -> "b c d")
    val out = PPJoin.join(l, r, "id", Seq("name"), "jaccard", 0.2).head()
    assert(math.abs(out.getDouble(2) - 0.5) < 1e-9)
  }

  test("cosine similarity value is exact") {
    val l = tbl(1L -> "a b c")
    val r = tbl(10L -> "b c d")
    val out = PPJoin.join(l, r, "id", Seq("name"), "cosine", 0.2).head()
    assert(math.abs(out.getDouble(2) - 2.0 / 3.0) < 1e-9)
  }

  test("attributes are concatenated before joining") {
    val sch = StructType(Seq(StructField("id", LongType),
      StructField("a", StringType), StructField("b", StringType)))
    val l = spark.createDataFrame(
      spark.sparkContext.parallelize(Seq(Row(1L, "x y", null))), sch)
    val r = spark.createDataFrame(
      spark.sparkContext.parallelize(Seq(Row(9L, null, "x y"))), sch)
    val out = PPJoin.join(l, r, "id", Seq("a", "b"), "jaccard", 0.9)
    assert(out.count() == 1) // both concatenate to {x, y}
  }

  test("prefix filtering is complete against brute force (jaccard)") {
    val ds = Datasets.fz(spark, scale = 0.3)
    for (t <- Seq(0.4, 0.6, 0.8)) {
      val got = PPJoin.join(ds.left, ds.right, "id", ds.attrs, "jaccard", t)
        .select("left_id", "right_id").collect()
        .map(r => (r.getLong(0), r.getLong(1))).toSet
      // brute force over the full cross product
      val lrec = ds.left.select(col("id"),
        concat_ws(" ", ds.attrs.map(a => coalesce(col(a), lit(""))): _*).as("s")).collect()
      val rrec = ds.right.select(col("id"),
        concat_ws(" ", ds.attrs.map(a => coalesce(col(a), lit(""))): _*).as("s")).collect()
      val brute = (for {
        lr <- lrec; rr <- rrec
        if StringSims.jaccardTokens(lr.getString(1), rr.getString(1)) >= t
      } yield (lr.getLong(0), rr.getLong(0))).toSet
      assert(got == brute, s"threshold $t: ppjoin=${got.size} brute=${brute.size}")
    }
  }

  test("prefix filtering is complete against brute force (cosine)") {
    val ds = Datasets.fz(spark, scale = 0.2)
    val t  = 0.6
    val got = PPJoin.join(ds.left, ds.right, "id", ds.attrs, "cosine", t)
      .select("left_id", "right_id").collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSet
    val lrec = ds.left.select(col("id"),
      concat_ws(" ", ds.attrs.map(a => coalesce(col(a), lit(""))): _*).as("s")).collect()
    val rrec = ds.right.select(col("id"),
      concat_ws(" ", ds.attrs.map(a => coalesce(col(a), lit(""))): _*).as("s")).collect()
    val brute = (for {
      lr <- lrec; rr <- rrec
      if StringSims.cosineTokens(lr.getString(1), rr.getString(1)) >= t
    } yield (lr.getLong(0), rr.getLong(0))).toSet
    assert(got == brute, s"ppjoin=${got.size} brute=${brute.size}")
  }

  test("a join on FZ writes no shuffle bytes") {
    val ds = Datasets.fz(spark, scale = 0.3)
    for (sim <- Seq("jaccard", "cosine")) {
      val jobs = JobLog.of(spark.sparkContext) {
        PPJoin.join(ds.left, ds.right, "id", ds.attrs, sim, 0.4).collect(); ()
      }
      assert(jobs.nonEmpty)
      jobs.foreach(j => assert(j.shuffleBytes == 0, s"$sim: a job wrote ${j.shuffleBytes} shuffle bytes: ${j.where}"))
    }
  }

  test("higher thresholds return fewer pairs (monotone)") {
    val ds = Datasets.fz(spark, scale = 0.3)
    val counts = Seq(0.2, 0.4, 0.6).map(t =>
      PPJoin.join(ds.left, ds.right, "id", ds.attrs, "jaccard", t).count())
    assert(counts(0) >= counts(1) && counts(1) >= counts(2))
  }

  test("token ranks equal a global-window ranking on FZ") {
    import org.apache.spark.sql.expressions.Window
    val ds = Datasets.fz(spark, scale = 0.3)
    def toks(df: org.apache.spark.sql.DataFrame) =
      df.select(explode(array_distinct(filter(
        split(lower(concat_ws(" ", ds.attrs.map(a => coalesce(col(a), lit(""))): _*)),
              "[^a-z0-9]+"), t => length(t) > 0))).as("tok"))
    val window = toks(ds.left).unionByName(toks(ds.right))
      .groupBy("tok").agg(count(lit(1)).as("df"))
      .select(col("tok"), col("df"), row_number().over(Window.orderBy(col("df"), col("tok"))).as("r"))
      .collect().map(r => r.getString(0) -> Blocking.Term(r.getLong(1), r.getInt(2))).toMap
    val tables = Blocking.records(Seq(ds.left, ds.right), "id", concat_ws(" ", ds.attrs.map(col): _*), Nil)
    val got    = Blocking.vocabulary(tables.iterator.flatten.map(_.text))
    assert(got.nonEmpty && got == window)
  }

  test("PP* picks the best configuration on FZ and scores well") {
    val ds   = Datasets.fz(spark, scale = 0.3)
    val best = PPJoin.best(ds.left, ds.right, "id", ds.attrs, ds.truth)
    info(s"PP* on FZ/0.3: $best")
    assert(best.f1 > 0.5, s"PP* should do reasonably on the easy dataset: $best")
  }

  test("PP* keeps its best configuration on FZ") {
    // the best of the earlier sweep of one PPJoin.join per configuration
    val ds   = Datasets.fz(spark, scale = 0.3)
    val best = PPJoin.best(ds.left, ds.right, "id", ds.attrs, ds.truth)
    val want = PPJoin.Best("jaccard", 0.4, 0.9428571428571428, 0.8918918918918919, 1.0)
    assert(best.sim == want.sim && best.threshold == want.threshold, s"$best vs $want")
    assert(math.abs(best.f1 - want.f1) <= 1e-12 && math.abs(best.precision - want.precision) <= 1e-12 &&
           math.abs(best.recall - want.recall) <= 1e-12, s"$best vs $want")
  }

  test("Oracle: verification-phase jaccard matches SQL computation") {
    val l = tbl(1L -> "a b c", 2L -> "x y")
    val r = tbl(10L -> "b c d", 11L -> "x z")
    val got = PPJoin.join(l, r, "id", Seq("name"), "jaccard", 0.1)
      .select(col("left_id"), col("right_id"), round(col("sim"), 6).as("sim"))
    repro.Oracle.assertEquivalent(got,
      """WITH lt AS (SELECT id, unnest(string_split(name, ' ')) AS tok FROM ltab),
        |     rt AS (SELECT id, unnest(string_split(name, ' ')) AS tok FROM rtab),
        |     inter AS (SELECT lt.id AS left_id, rt.id AS right_id, count(*) AS i
        |               FROM lt JOIN rt USING (tok) GROUP BY 1, 2),
        |     sizes AS (SELECT id, count(*) AS n FROM lt GROUP BY 1),
        |     sizesr AS (SELECT id, count(*) AS n FROM rt GROUP BY 1)
        |SELECT left_id, right_id,
        |       round(i * 1.0 / (s.n + sr.n - i), 6) AS sim
        |FROM inter
        |JOIN sizes s ON s.id = left_id
        |JOIN sizesr sr ON sr.id = right_id
        |WHERE i * 1.0 / (s.n + sr.n - i) >= 0.1""".stripMargin,
      "ltab" -> l, "rtab" -> r)
  }
}
