package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel

import repro.blocking.Blocking
import repro.erdata.ErDataset
import repro.sim.FeatureGen

import ZeroerModel._
import ZeroerEM._

/** The full ZeroER pipeline (Algorithms 1 and 2): blocking -> feature
  * generation -> shared-correlation estimation -> EM with adaptive
  * regularization and (optionally) transitivity constraints linking the
  * cross-, left- and right-table generative components.
  */
object Zeroer {

  final case class FitResult(
      predictions: DataFrame, // left_id, right_id, gamma (> 0.5)
      gammaDf: DataFrame,     // full posterior over the candidate set
      params: SideParams,     // cross-side parameters at convergence
      iters: Int,
      converged: Boolean,
      runtimeMs: Long,
  )

  /** Build a prepared cross-table side: blocked candidate pairs with
    * scaled features and the shared correlation matrix.
    */
  def prepareCross(ds: ErDataset): Prepared = {
    val cand = Blocking.candidatePairs(ds.left, ds.right, "id", ds.blockAttr,
                                       ds.blockOverlap, ds.blockMaxDf)
    prepare(s"${ds.name}-cross", Blocking.withPairAttrs(cand, ds.left, ds.right, "id", ds.attrs), ds)
  }

  /** Prepared within-table side (`which` = "left" | "right") for the
    * three-component model of §4.3.
    */
  def prepareSelf(ds: ErDataset, which: String): Prepared = {
    val tbl  = if (which == "left") ds.left else ds.right
    val cand = Blocking.selfCandidatePairs(tbl, "id", ds.blockAttr,
                                           ds.blockOverlap, ds.blockMaxDf)
    prepare(s"${ds.name}-$which", Blocking.withPairAttrs(cand, tbl, tbl, "id", ds.attrs), ds)
  }

  /** Features every candidate pair once: the raw features are persisted
    * for the one scaling-statistics job and the scaling pass that reads
    * them, then released, so only the scaled side stays cached. The scaled
    * side is counted as an RDD: `Dataset.count` would add an exchange, and
    * with it a shuffle, to an otherwise shuffle-free preparation.
    */
  private def prepare(name: String, pairsWithAttrs: DataFrame, ds: ErDataset): Prepared = {
    val groups = FeatureGen.groupIndex(ds.specs)
    val d      = FeatureGen.numFeatures(ds.specs)
    val raw = FeatureGen.addFeatures(pairsWithAttrs, ds.specs)
      .select(col("left_id"), col("right_id"), col("features"))
      .persist(StorageLevel.MEMORY_AND_DISK)
    val (pairs, n) =
      try {
        val p = FeatureGen.imputeAndScale(raw).persist(StorageLevel.MEMORY_AND_DISK)
        (p, p.rdd.count())
      } finally raw.unpersist(blocking = true)
    val corr = sharedCorrelation(pairs, "features", groups)
    Prepared(name, pairs, d, groups, n, corr)
  }

  /** Fit the generative model. With `TransMode.Constraint` and both
    * within-table sides, Algorithm 2 fits all three sides and resolves
    * transitivity between them; otherwise only the cross side is fitted
    * (Algorithm 1). The within-table sides come both or neither.
    */
  def fit(cross: Prepared, leftSide: Option[Prepared], rightSide: Option[Prepared],
          cfg: Config): FitResult = {
    require(leftSide.isDefined == rightSide.isDefined,
            "fit takes both within-table sides or neither")
    val t0 = System.nanoTime()
    // Index-aligned with Transitivity's sides: 0 cross, 1 left, 2 right.
    val sides: Seq[Prepared] =
      if (cfg.transMode == TransMode.Constraint) cross +: (leftSide.toSeq ++ rightSide.toSeq)
      else Seq(cross)
    val constrained = sides.size == 3
    // Every pass of this fit maps these, each planned once.
    val rows = sides.map(pairRows)

    // Initialization M-step from the thresholded γ (Algorithm 1 lines 4, 8-12).
    var params = sides.zip(rows).map { case (s, r) =>
      build(moments(s, r, None, Map.empty, cfg.epsInit), s.corr, s.groups, cfg)
    }
    var overrides: Seq[Map[Long, Double]] = sides.map(_ => Map.empty)
    var prevLL    = Double.NegativeInfinity
    var iter      = 0
    var converged = false

    while (iter < cfg.maxIter && !converged) {
      // E-step + transitivity resolution (Algorithm 2 lines 5-7).
      if (constrained) {
        val crossM = collectRows(rows(0), params(0), _.gamma >= 0.5)
        // A degenerate intermediate model can flood Q' with the whole
        // candidate set; constraints would be meaningless and quadratic.
        overrides =
          if (crossM.size <= math.max(1000, 20 * math.sqrt(cross.n.toDouble).toLong)) {
            def within(i: Int, ids: Set[Long]): Seq[GammaRow] =
              if (ids.isEmpty) Nil
              else collectRows(rows(i), params(i), r => ids(r.leftId) && ids(r.rightId))
            val o = Transitivity.resolve(crossM, within(1, crossM.map(_.leftId).toSet),
                                         within(2, crossM.map(_.rightId).toSet))
            Seq(o.cross, o.left, o.right)
          } else sides.map(_ => Map.empty)
      }

      // M-step over the (possibly constraint-adjusted) posteriors
      val moms = sides.indices.map(i => moments(sides(i), rows(i), Some(params(i)), overrides(i), cfg.epsInit))
      val ll   = moms.map(_.loglik).sum
      params   = sides.indices.map(i => build(moms(i), sides(i).corr, sides(i).groups, cfg))

      converged = math.abs(ll - prevLL) <= cfg.tol * (1.0 + math.abs(ll))
      prevLL = ll
      iter += 1
    }

    // Final posteriors and predictions.
    val gammaDf = eStep(cross, rows(0), params(0), overrides(0)).persist(StorageLevel.MEMORY_AND_DISK)
    gammaDf.count() // materialize before the caller unpersists the inputs
    val matches = gammaDf.where(col("gamma") > 0.5)
    val preds = cfg.transMode match {
      case TransMode.PostProcess =>
        val spark = gammaDf.sparkSession
        import spark.implicits._
        val kept = Transitivity.postProcess(
          matches.as[(Long, Long, Long, Double, Double, Double)].collect().toSeq.map(GammaRow.tupled))
        kept.map(r => (r.leftId, r.rightId, r.gamma)).toDF("left_id", "right_id", "gamma")
      case _ =>
        matches.select("left_id", "right_id", "gamma")
    }
    FitResult(preds, gammaDf, params(0), iter, converged, (System.nanoTime() - t0) / 1000000L)
  }

  /** End-to-end: blocking + features + fit on a benchmark dataset. */
  def run(spark: SparkSession, ds: ErDataset,
          cfg: Config = Config()): FitResult = {
    val cross = prepareCross(ds)
    val (l, r) =
      if (cfg.transMode == TransMode.Constraint)
        (Some(prepareSelf(ds, "left")), Some(prepareSelf(ds, "right")))
      else (None, None)
    try fit(cross, l, r, cfg)
    finally {
      cross.pairs.unpersist()
      l.foreach(_.pairs.unpersist()); r.foreach(_.pairs.unpersist())
    }
  }
}
