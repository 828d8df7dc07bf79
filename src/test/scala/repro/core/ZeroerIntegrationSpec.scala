package repro.core

import repro.SparkSpec
import repro.erdata.{Datasets, ErDataset}
import repro.eval.Metrics
import repro.core.ZeroerModel._

/** End-to-end ZeroER on small benchmark datasets (subset scales keep the
  * suite fast; the full scales run in bench/).
  */
class ZeroerIntegrationSpec extends SparkSpec {

  lazy val fzHalf = Datasets.fz(spark, scale = 0.5)

  test("ZeroER (no transitivity) reaches high F1 on FZ at half scale") {
    val res = Zeroer.run(spark, fzHalf,
      Config(transMode = TransMode.Off, maxIter = 40))
    val prf = Metrics.prf(res.predictions, fzHalf.truth)
    info(s"FZ/2 no-trans: P=${prf.precision} R=${prf.recall} F1=${prf.f1} iters=${res.iters}")
    assert(prf.f1 > 0.85, s"expected F1 > 0.85, got ${prf.f1}")
  }

  test("ZeroER with transitivity constraints does not hurt FZ") {
    val res = Zeroer.run(spark, fzHalf,
      Config(transMode = TransMode.Constraint, maxIter = 40))
    val prf = Metrics.prf(res.predictions, fzHalf.truth)
    info(s"FZ/2 trans: P=${prf.precision} R=${prf.recall} F1=${prf.f1} iters=${res.iters}")
    assert(prf.f1 > 0.85, s"expected F1 > 0.85, got ${prf.f1}")
  }

  test("ZeroER outperforms its no-grouping/no-adaptive-reg ablation on FZ") {
    val full = Zeroer.run(spark, fzHalf,
      Config(transMode = TransMode.Off, maxIter = 40))
    val abl = Zeroer.run(spark, fzHalf,
      Config(covMode = CovMode.DiagShared, regMode = RegMode.Uniform(1e-6),
             transMode = TransMode.Off, maxIter = 40))
    val f1Full = Metrics.prf(full.predictions, fzHalf.truth).f1
    val f1Abl  = Metrics.prf(abl.predictions, fzHalf.truth).f1
    info(s"FZ/2 full=$f1Full ablated=$f1Abl")
    assert(f1Full >= f1Abl - 0.05, s"full $f1Full should not lose to ablation $f1Abl")
  }

  test("posterior gamma is a probability for every candidate pair") {
    val res = Zeroer.run(spark, fzHalf, Config(transMode = TransMode.Off, maxIter = 10))
    import org.apache.spark.sql.functions._
    val bad = res.gammaDf.where(col("gamma") < 0 || col("gamma") > 1 || isnan(col("gamma"))).count()
    assert(bad == 0)
  }

  /** Fits `mode` on `ds`'s prepared sides, then again on the same sides
    * moved to 1, 3 and 37 partitions in a different row order: the same
    * predictions and γ within 1e-9.
    */
  private def assertPartitionFree(ds: ErDataset, mode: TransMode): Unit = {
    import org.apache.spark.sql.functions.{col, lit, xxhash64}
    val sides = Zeroer.prepareCross(ds) +: (
      if (mode == TransMode.Constraint) Seq(Zeroer.prepareSelf(ds, "left"), Zeroer.prepareSelf(ds, "right"))
      else Nil)
    def outcome(ss: Seq[ZeroerEM.Prepared]): (Set[(Long, Long)], Map[(Long, Long), Double]) = {
      val res = Zeroer.fit(ss(0), ss.lift(1), ss.lift(2), Config(transMode = mode))
      try (res.predictions.collect().map(r => (r.getLong(0), r.getLong(1))).toSet,
           res.gammaDf.collect().map(r => (r.getLong(1), r.getLong(2)) -> r.getDouble(3)).toMap)
      finally res.gammaDf.unpersist()
    }
    try {
      val (preds, gammas) = outcome(sides)
      for (k <- Seq(1, 3, 37)) {
        val moved = sides.map(s => s.copy(pairs = s.pairs.repartition(k)
          .sortWithinPartitions(xxhash64(col("left_id"), col("right_id"), lit(k))).persist()))
        try {
          val (p2, g2) = outcome(moved)
          val (added, lost) = (p2 diff preds, preds diff p2)
          assert(added.isEmpty && lost.isEmpty,
            s"${ds.name} $mode at $k partitions: ${preds.size} -> ${p2.size} predictions")
          assert(g2.size == gammas.size)
          val diff = gammas.map { case (key, g) => math.abs(g - g2(key)) }.max
          assert(diff <= 1e-9, s"${ds.name} $mode at $k partitions: max |Δγ| = $diff")
        } finally moved.foreach(_.pairs.unpersist())
      }
    } finally sides.foreach(_.pairs.unpersist())
  }

  test("Algorithm 2 does not depend on the partitioning or row order of the prepared sides") {
    for (ds <- Seq(Datasets.ds(spark, scale = 0.3), Datasets.fz(spark, scale = 0.3)))
      assertPartitionFree(ds, TransMode.Constraint)
  }

  test("Algorithm 1 does not depend on the partitioning or row order of the prepared side") {
    for (ds <- Seq(Datasets.ab(spark, scale = 0.3), Datasets.ds(spark, scale = 0.3)))
      assertPartitionFree(ds, TransMode.Off)
  }

  test("PostProcess predicts one-to-one: postProcess of the fit's own matches") {
    import org.apache.spark.sql.functions._
    for (ds <- Seq(Datasets.fz(spark, scale = 0.3), Datasets.ds(spark, scale = 0.3))) {
      val cross = Zeroer.prepareCross(ds)
      try {
        val res = Zeroer.fit(cross, None, None, Config(transMode = TransMode.PostProcess))
        try {
          val preds = res.predictions.collect().map(r => (r.getLong(0), r.getLong(1), r.getDouble(2)))
          assert(preds.nonEmpty)
          assert(preds.map(_._1).distinct.length == preds.length &&
                 preds.map(_._2).distinct.length == preds.length, s"${ds.name}: not one-to-one")
          val matches = res.gammaDf.where(col("gamma") > 0.5).collect().toSeq.map(r =>
            ZeroerEM.GammaRow(r.getLong(0), r.getLong(1), r.getLong(2), r.getDouble(3), r.getDouble(4), r.getDouble(5)))
          val want = Transitivity.postProcess(matches).map(m => (m.leftId, m.rightId, m.gamma))
          assert(preds.toSet == want.toSet && preds.length == want.length, s"${ds.name}")
        } finally res.gammaDf.unpersist()
      } finally cross.pairs.unpersist()
    }
  }
}
