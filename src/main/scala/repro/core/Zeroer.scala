package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel

import repro.blocking.Blocking
import repro.erdata.ErDataset
import repro.sim.{FeatureGen, Featurizer, Scaling}

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
    * scaled features and the shared correlation matrix. The left table
    * probes the prefix index of the right table.
    */
  def prepareCross(ds: ErDataset): Prepared = prepare(s"${ds.name}-cross", ds, Seq(ds.left, ds.right))

  /** Prepared within-table side (`which` = "left" | "right") for the
    * three-component model of §4.3: the table probes its own index.
    */
  def prepareSelf(ds: ErDataset, which: String): Prepared =
    prepare(s"${ds.name}-$which", ds, Seq(if (which == "left") ds.left else ds.right))

  /** Prepares one side of `tables` (the probe table, then the indexed one;
    * one table for a within-table side) in three jobs, none of which
    * shuffles:
    *
    *  - [[Blocking.records]] collects the tables' ids, blocking texts and
    *    spec attributes;
    *  - [[Blocking.probe]] pairs each probe record with its candidates in
    *    one narrow pass, in table order and one slice per core, and a
    *    per-task [[Featurizer]] featurizes each pair in the same pass. Its
    *    raw `(left_id, right_id, features)` are persisted for the one
    *    scaling-statistics job ([[Scaling]]);
    *  - the correlation job scales them into the side's cache and counts the
    *    pairs. Then the raw pairs are released, so only the scaled side
    *    stays cached, one partition per core.
    *
    * Ids must be unique within a table.
    */
  private def prepare(name: String, ds: ErDataset, tables: Seq[DataFrame]): Prepared = {
    val spark = ds.left.sparkSession
    import spark.implicits._
    val specs   = ds.specs
    val groups  = FeatureGen.groupIndex(specs)
    val records = Blocking.records(tables, "id", col(ds.blockAttr), specs.map(_.attr))
    // a local, so the broadcast index captures the Int and not the dataset
    val overlap = ds.blockOverlap
    val raw = Blocking.probe(spark.sparkContext, records, _ => overlap, ds.blockMaxDf).mapPartitions { pairs =>
      val features = new Featurizer(specs)
      pairs.map { case (l, r) => (l.id, r.id, features(l.attrs, r.attrs)) }
    }.persist(StorageLevel.MEMORY_AND_DISK)
    val (pairs, (corr, n)) =
      try {
        val scaling = Scaling.fit(raw.map(_._3))
        val p = raw.map { case (l, r, x) => (l, r, scaling(x)) }.toDF("left_id", "right_id", "features")
          .persist(StorageLevel.MEMORY_AND_DISK)
        (p, correlationAndCount(p, "features", groups))
      } finally raw.unpersist(blocking = true)
    Prepared(name, pairs, FeatureGen.numFeatures(specs), groups, n, corr)
  }

  /** One EM iteration's E-step at `params`: each side's moment sums, and the
    * overrides that transitivity resolution (Algorithm 2 lines 5-7) sets.
    * With one side it is one moment pass. With the three sides (index 0
    * cross, 1 left, 2 right, as in [[Transitivity]]) it is two: the cross
    * pass keeps Q′'s premises (γ ≥ 0.5), the driver derives their
    * conclusions ([[Transitivity.conclusionKeys]]), and one pass over both
    * within-table sides keeps the conclusions' rows. A conclusion absent
    * from its side is a blocked pair, which [[Transitivity.resolve]] treats
    * as such. Every override is of a kept row, so [[SideSums.moments]] can
    * apply it.
    */
  private[core] def iterate(sides: Seq[Prepared], rows: Seq[PairRows], params: Seq[SideParams],
                            epsInit: Double): (Seq[SideSums], Seq[Map[Long, Double]]) =
    if (sides.size < 3)
      (moments(sides, rows, Some(params), sides.map(_ => (_: GammaRow) => false), epsInit),
       sides.map(_ => Map.empty))
    else {
      val cross    = moments(sides.take(1), rows.take(1), Some(params.take(1)), Seq(_.gamma >= 0.5), epsInit).head
      val premises = cross.kept.map(_._1)
      // A degenerate intermediate model can flood Q' with the whole
      // candidate set; constraints would be meaningless and quadratic.
      val guarded  = premises.size > math.max(1000, 20 * math.sqrt(sides(0).n.toDouble).toLong)
      val (lk, rk) = if (guarded) (Set.empty[Long], Set.empty[Long]) else Transitivity.conclusionKeys(premises)
      // a within-table pair has left_id < right_id, so its key is its conclusion's
      def conclusion(keys: Set[Long]): GammaRow => Boolean = q => keys(q.pairId)
      val within = moments(sides.drop(1), rows.drop(1), Some(params.drop(1)),
                           Seq(conclusion(lk), conclusion(rk)), epsInit)
      val overrides =
        if (guarded) sides.map(_ => Map.empty[Long, Double])
        else {
          val o = Transitivity.resolve(premises, within(0).kept.map(_._1), within(1).kept.map(_._1))
          Seq(o.cross, o.left, o.right)
        }
      (cross +: within, overrides)
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
    // In Transitivity's side order: 0 cross, 1 left, 2 right.
    val sides: Seq[Prepared] =
      if (cfg.transMode == TransMode.Constraint) cross +: (leftSide.toSeq ++ rightSide.toSeq)
      else Seq(cross)
    // Every pass of this fit maps these, each planned once.
    val rows = sides.map(pairRows)
    def built(moms: Seq[Moments]): Seq[SideParams] =
      sides.indices.map(i => build(moms(i), sides(i).corr, sides(i).groups, cfg))

    // Initialization M-step from the thresholded γ (Algorithm 1 lines 4, 8-12).
    var params    = built(moments(sides, rows, None, Nil, cfg.epsInit).map(_.moments(Map.empty)))
    var overrides: Seq[Map[Long, Double]] = sides.map(_ => Map.empty)
    var prevLL    = Double.NegativeInfinity
    var iter      = 0
    var converged = false

    while (iter < cfg.maxIter && !converged) {
      // E-step and transitivity, then the M-step over the adjusted posteriors
      val (sums, o) = iterate(sides, rows, params, cfg.epsInit)
      val moms = sides.indices.map(i => sums(i).moments(o(i)))
      val ll   = moms.map(_.loglik).sum
      overrides = o
      params    = built(moms)

      converged = math.abs(ll - prevLL) <= cfg.tol * (1.0 + math.abs(ll))
      prevLL = ll
      iter += 1
    }

    // Final posteriors and predictions, materialized before the caller
    // unpersists the inputs: as an RDD, since `Dataset.count` adds an exchange.
    val gammaDf = eStep(cross, rows(0), params(0), overrides(0)).persist(StorageLevel.MEMORY_AND_DISK)
    gammaDf.rdd.count()
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
