package repro.core

import org.apache.spark.sql.{DataFrame, Row}

import repro.{JobLog, SparkSpec}
import repro.blocking.Blocking
import repro.core.ZeroerEM.Prepared
import repro.core.ZeroerModel.Config
import repro.erdata.{Datasets, ErDataset}
import repro.sim.StringSims

/** `Zeroer.prepareCross` / `prepareSelf` against a driver-side reference,
  * and the identity and caching of what they return.
  */
class PrepareSpec extends SparkSpec {

  /** The `StringSims` definition of every similarity function, by name. */
  private val stringSim: Map[String, (String, String) => Double] = Map(
    "lev_sim"   -> StringSims.levSim,
    "jar_wnk"   -> StringSims.jaroWinkler,
    "jac_qgm_3" -> (StringSims.jaccardQgram(_, _)),
    "cos_qgm_3" -> (StringSims.cosineQgram(_, _)),
    "jac_tok"   -> StringSims.jaccardTokens,
    "cos_tok"   -> StringSims.cosineTokens,
    "dice_tok"  -> StringSims.diceTokens,
    "ovl_tok"   -> StringSims.overlapTokens,
    "exm"       -> StringSims.exact,
    "dig_exm"   -> StringSims.digitsExact,
    "rel_sim"   -> StringSims.numericSim,
  )

  /** The candidate pairs of `which` side, from the DataFrame blocking API. */
  private def candidates(ds: ErDataset, which: String): DataFrame = which match {
    case "cross" => Blocking.candidatePairs(ds.left, ds.right, "id", ds.blockAttr, ds.blockOverlap, ds.blockMaxDf)
    case side    => Blocking.selfCandidatePairs(table(ds, side), "id", ds.blockAttr, ds.blockOverlap, ds.blockMaxDf)
  }

  private def table(ds: ErDataset, side: String): DataFrame = if (side == "left") ds.left else ds.right

  /** The `withPairAttrs` rows of `which` side's candidate pairs. */
  private def pairsWithAttrs(ds: ErDataset, which: String): DataFrame = {
    val (l, r) = if (which == "cross") (ds.left, ds.right) else (table(ds, which), table(ds, which))
    Blocking.withPairAttrs(candidates(ds, which), l, r, "id", ds.attrs)
  }

  private def prepare(ds: ErDataset, which: String): Prepared =
    if (which == "cross") Zeroer.prepareCross(ds) else Zeroer.prepareSelf(ds, which)

  /** Scaled features per (left_id, right_id), computed on the driver from
    * the collected `withPairAttrs` rows: each function's string definition,
    * NaN for a NULL side, then mean imputation (the mean summed exactly)
    * and min-max scaling.
    */
  private def reference(ds: ErDataset, which: String): Map[(Long, Long), Array[Double]] = {
    val rows = pairsWithAttrs(ds, which).collect()
    val raw = rows.map { row =>
      val x = ds.specs.flatMap { s =>
        val a = row.getAs[String](s"l_${s.attr}"); val b = row.getAs[String](s"r_${s.attr}")
        s.sims.map(f => if (a == null || b == null) Double.NaN else stringSim(f.name)(a, b))
      }.toArray
      (row.getAs[Long]("left_id"), row.getAs[Long]("right_id")) -> x
    }
    val d = raw.headOption.map(_._2.length).getOrElse(0)
    val scaled = (0 until d).map { j =>
      val vs   = raw.map(_._2(j)).filterNot(_.isNaN)
      val mn   = if (vs.isEmpty) 0.0 else vs.min
      val mx   = if (vs.isEmpty) 0.0 else vs.max
      val mean = if (vs.isEmpty) 0.0 else (vs.map(BigDecimal(_)).sum / vs.length).toDouble
      raw.map { case (_, x) =>
        val v = if (x(j).isNaN) mean else x(j)
        if (mx - mn <= 0.0) 0.0 else (v - mn) / (mx - mn)
      }
    }
    raw.indices.map(i => raw(i)._1 -> Array.tabulate(d)(j => scaled(j)(i))).toMap
  }

  private def prepared(p: Prepared): Map[(Long, Long), Array[Double]] =
    p.pairs.collect().map(r => (r.getLong(0), r.getLong(1)) -> r.getSeq[Double](2).toArray).toMap

  for (name <- Datasets.names) test(s"prepared features equal the string-function reference on $name") {
    val ds = Datasets.byName(spark, name, scale = 0.3)
    for (which <- Seq("cross", "left", "right")) {
      val p   = if (which == "cross") Zeroer.prepareCross(ds) else Zeroer.prepareSelf(ds, which)
      val got = try prepared(p) finally p.pairs.unpersist()
      val want = reference(ds, which)
      assert(got.size == p.n && got.keySet == want.keySet, s"$name $which: pair sets differ")
      val worst = want.iterator.map { case (k, x) =>
        x.indices.map(j => math.abs(x(j) - got(k)(j))).maxOption.getOrElse(0.0)
      }.maxOption.getOrElse(0.0)
      assert(worst <= 1e-12, s"$name $which: max |feature - reference| = $worst")
    }
  }

  test("prepared sides hold only the ids and features; posteriors key pairs by their ids") {
    val ds    = Datasets.fz(spark, scale = 0.3)
    val sides = Seq(Zeroer.prepareCross(ds), Zeroer.prepareSelf(ds, "left"), Zeroer.prepareSelf(ds, "right"))
    try {
      sides.foreach(s => assert(s.pairs.columns.toSeq == Seq("left_id", "right_id", "features"), s.name))
      val res = Zeroer.fit(sides(0), Some(sides(1)), Some(sides(2)), Config())
      try {
        val rows = res.gammaDf.select("pair_id", "left_id", "right_id").collect()
        assert(rows.length == sides(0).n)
        assert(rows.forall { case Row(id: Long, l: Long, r: Long) => id == (l << 32 | r) })
      } finally res.gammaDf.unpersist()
    } finally sides.foreach(_.pairs.unpersist())
  }

  // The order of a side's pairs is what its column cache compresses: each
  // probe record's candidates in ascending id order, probe records in table order.
  for (name <- Datasets.names) test(s"prepared sides keep the blocking order of their pairs on $name") {
    val ds = Datasets.byName(spark, name, scale = 0.3)
    for (which <- Seq("cross", "left", "right")) {
      val p   = prepare(ds, which)
      val got = try p.pairs.select("left_id", "right_id").collect().map(r => (r.getLong(0), r.getLong(1)))
                finally p.pairs.unpersist()
      val want = candidates(ds, which).collect().map(r => (r.getLong(0), r.getLong(1)))
      assert(got.length == want.length, s"$name $which: ${got.length} pairs, blocking gives ${want.length}")
      got.indices.find(i => got(i) != want(i)).foreach { i =>
        fail(s"$name $which: pair $i is ${got(i)}, blocking gives ${want(i)}")
      }
    }
  }

  test("prepared sides hold one partition per core") {
    val ds    = Datasets.fz(spark, scale = 0.3)
    val cores = spark.sparkContext.defaultParallelism
    for (which <- Seq("cross", "left", "right")) {
      val p = prepare(ds, which)
      // the probe records are sliced into one partition per core
      try assert(p.pairs.rdd.getNumPartitions == cores, s"$which: ${p.pairs.rdd.getNumPartitions} on $cores cores")
      finally p.pairs.unpersist()
    }
  }

  test("Algorithm 2 on FZ is unchanged when every pass recomputes its sides") {
    val ds    = Datasets.fz(spark, scale = 0.3)
    val sides = Seq(Zeroer.prepareCross(ds), Zeroer.prepareSelf(ds, "left"), Zeroer.prepareSelf(ds, "right"))
    def outcome(): (Set[(Long, Long)], Map[(Long, Long), Double]) = {
      val res = Zeroer.fit(sides(0), Some(sides(1)), Some(sides(2)), Config())
      try (res.predictions.collect().map(r => (r.getLong(0), r.getLong(1))).toSet,
           res.gammaDf.collect().map(r => (r.getLong(1), r.getLong(2)) -> r.getDouble(3)).toMap)
      finally res.gammaDf.unpersist()
    }
    val (preds, gammas) = try outcome() finally sides.foreach(_.pairs.unpersist(blocking = true))
    val (preds2, gammas2) = outcome()
    assert(preds.nonEmpty && preds2 == preds)
    assert(gammas2.keySet == gammas.keySet)
    val diff = gammas.map { case (k, g) => math.abs(g - gammas2(k)) }.max
    assert(diff <= 1e-9, s"max |Δγ| = $diff")
  }

  test("preparing a side writes no shuffle and runs at most 3 jobs") {
    val ds = Datasets.fz(spark, scale = 0.3)
    for (which <- Seq("cross", "left", "right")) {
      var p: Prepared = null
      val jobs = JobLog.of(spark.sparkContext) {
        p = prepare(ds, which)
      }
      p.pairs.unpersist()
      jobs.foreach(j => assert(j.shuffleBytes == 0, s"$which: a job wrote ${j.shuffleBytes} shuffle bytes: ${j.where}"))
      assert(jobs.size <= 3, s"$which: ${jobs.size} jobs: ${jobs.map(_.where).mkString("; ")}")
    }
  }

  test("a repeated id within a table is rejected") {
    val ds  = Datasets.fz(spark, scale = 0.3)
    val dup = ds.left.union(ds.left.limit(1))
    val (a, o, m) = (ds.blockAttr, ds.blockOverlap, ds.blockMaxDf)
    val callers = Seq[(String, () => Any)](
      "candidatePairs, probe table"   -> (() => Blocking.candidatePairs(dup, ds.right, "id", a, o, m)),
      "candidatePairs, indexed table" -> (() => Blocking.candidatePairs(ds.right, dup, "id", a, o, m)),
      "selfCandidatePairs"            -> (() => Blocking.selfCandidatePairs(dup, "id", a, o, m)),
      "prepareCross"                  -> (() => Zeroer.prepareCross(ds.copy(left = dup))))
    for ((caller, call) <- callers) {
      val e = intercept[IllegalArgumentException](call())
      assert(e.getMessage.contains("ids in id are not unique"), s"$caller: ${e.getMessage}")
    }
  }

  test("preparation leaves only the prepared side cached") {
    val ds     = Datasets.fz(spark, scale = 0.3)
    def cached = spark.sparkContext.getPersistentRDDs.keySet.toSet
    val before = cached
    val p      = Zeroer.prepareCross(ds)
    try assert((cached -- before).size == 1)
    finally p.pairs.unpersist(blocking = true)
  }
}
