package repro.eval

import repro.SparkSpec

class TablesSpec extends SparkSpec {

  test("table5Row keeps only the prepared sides and labeled pairs cached") {
    def cached = spark.sparkContext.getPersistentRDDs.keySet.toSet
    val before = cached
    val row    = Tables.table5Row(spark, "FZ", 0.3)
    assert(row.f1.keySet == Tables.table5Columns.toSet)
    // the cross, left and right sides and `labeled`; no fit's posteriors
    assert((cached -- before).size == 4, s"cached after table5Row: ${cached -- before}")
    Tables.clear()
    assert(cached == before)
  }
}
