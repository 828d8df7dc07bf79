package repro.eval

import org.apache.spark.sql.Row
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

import repro.SparkSpec

class MetricsSpec extends SparkSpec {

  private def pairs(ps: (Long, Long)*) = {
    val sch = StructType(Seq(StructField("left_id", LongType), StructField("right_id", LongType)))
    spark.createDataFrame(spark.sparkContext.parallelize(ps.map(p => Row(p._1, p._2))), sch)
  }

  test("perfect prediction gives F1 = 1") {
    val t = pairs(1L -> 10L, 2L -> 20L)
    val m = Metrics.prf(t, t)
    assert(m.tp == 2 && m.fp == 0 && m.fn == 0)
    assert(m.f1 == 1.0)
  }

  test("empty prediction gives recall 0 and F1 0") {
    val m = Metrics.prf(pairs(), pairs(1L -> 10L))
    assert(m.f1 == 0.0 && m.recall == 0.0 && m.precision == 0.0)
  }

  test("half precision half recall") {
    val m = Metrics.prf(pairs(1L -> 10L, 3L -> 30L), pairs(1L -> 10L, 2L -> 20L))
    assert(m.tp == 1 && m.fp == 1 && m.fn == 1)
    assert(math.abs(m.f1 - 0.5) < 1e-12)
  }

  test("duplicate predictions are counted once") {
    val m = Metrics.prf(pairs(1L -> 10L, 1L -> 10L), pairs(1L -> 10L))
    assert(m.tp == 1 && m.fp == 0)
  }

  test("f1 formula matches harmonic mean") {
    val m = Metrics.PRF(tp = 3, fp = 1, fn = 2)
    val p = 0.75; val r = 0.6
    assert(math.abs(m.f1 - 2 * p * r / (p + r)) < 1e-12)
  }

  test("degenerate PRF with no predictions and no truth") {
    val m = Metrics.PRF(0, 0, 0)
    assert(m.precision == 0.0 && m.recall == 0.0 && m.f1 == 0.0)
  }

  test("withLabel marks matches 1.0 and unmatches 0.0") {
    val cand = pairs(1L -> 10L, 2L -> 20L, 3L -> 30L)
    val t    = pairs(2L -> 20L)
    val lab  = Metrics.withLabel(cand, t).orderBy("left_id")
      .select("label").collect().map(_.getDouble(0)).toSeq
    assert(lab == Seq(0.0, 1.0, 0.0))
  }

  test("Oracle: true-positive count equals SQL intersection") {
    val pred  = pairs(1L -> 10L, 2L -> 20L, 4L -> 40L)
    val truth = pairs(1L -> 10L, 2L -> 21L, 4L -> 40L)
    val got = pred.join(truth, Seq("left_id", "right_id"))
      .groupBy().agg(count(lit(1)).as("tp"))
    repro.Oracle.assertEquivalent(got,
      "SELECT count(*) AS tp FROM pred JOIN truth USING (left_id, right_id)",
      "pred" -> pred, "truth" -> truth)
    assert(Metrics.prf(pred, truth).tp == 2)
  }

  test("Oracle: precision/recall denominators via SQL") {
    val pred  = pairs(1L -> 10L, 2L -> 20L)
    val truth = pairs(1L -> 10L, 3L -> 30L, 4L -> 40L)
    val got = pred.select(lit(1).as("k")).groupBy("k").agg(count(lit(1)).as("n"))
      .join(truth.select(lit(1).as("k")).groupBy("k").agg(count(lit(1)).as("m")), "k")
      .select("n", "m")
    repro.Oracle.assertEquivalent(got,
      """SELECT (SELECT count(*) FROM pred) AS n, (SELECT count(*) FROM truth) AS m""",
      "pred" -> pred, "truth" -> truth)
  }
}
