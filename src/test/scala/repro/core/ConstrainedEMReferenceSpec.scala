package repro.core

import repro.SparkSpec
import repro.blocking.Blocking.pairKey
import repro.erdata.Datasets
import ZeroerEM._
import ZeroerModel._

/** The constrained EM iteration as it ran before the moment sums took their
  * overrides on the driver: one moment pass per side with the overrides
  * applied in the pass, after collecting the cross premises and every
  * within-table row among their tuples. Test-only: the reference that
  * [[Zeroer.iterate]] is checked against.
  */
object ConstrainedEMReference {

  private def posterior(params: SideParams, overrides: Map[Long, Double],
                        l: Long, r: Long, x: Array[Double]): GammaRow = {
    val (la, lb) = params.logJoint(x)
    val key      = pairKey(l, r)
    GammaRow(key, l, r, overrides.getOrElse(key, LinAlg.posterior(la, lb)), la, lb)
  }

  /** One side's moment pass with `overrides` applied to each pair's γ in the pass. */
  def moments(p: Prepared, rows: PairRows, params: Option[SideParams],
              overrides: Map[Long, Double], epsInit: Double): Moments = {
    val d = p.d
    val (gx, gxx, sx, sxx) = (2, 2 + d, 2 + 2 * d, 2 + 3 * d)
    val parts = rows.mapPartitions { part =>
      val s = new Array[Double](2 + 4 * d)
      part.foreach { case (l, r, x) =>
        val (g, ll) = params match {
          case Some(th) =>
            val q = posterior(th, overrides, l, r, x)
            (q.gamma, LinAlg.logSumExp(q.logA, q.logB))
          case None => (if (x.sum / d > epsInit) 1.0 else 0.0, 0.0)
        }
        s(0) += g; s(1) += ll
        var j = 0
        while (j < d) {
          s(gx + j) += g * x(j); s(gxx + j) += g * x(j) * x(j)
          s(sx + j) += x(j);     s(sxx + j) += x(j) * x(j)
          j += 1
        }
      }
      Iterator(s)
    }.collect()
    val s = Array.tabulate(2 + 4 * d)(k => parts.foldLeft(0.0)(_ + _(k)))

    val nM    = math.max(s(0), 1e-9)
    val nU    = math.max(p.n - nM, 1e-9)
    val meanM = Array.tabulate(d)(j => s(gx + j) / nM)
    val meanU = Array.tabulate(d)(j => (s(sx + j) - s(gx + j)) / nU)
    val varM  = Array.tabulate(d)(j => math.max(s(gxx + j) / nM - meanM(j) * meanM(j), 0.0))
    val varU  = Array.tabulate(d)(j =>
      math.max((s(sxx + j) - s(gxx + j)) / nU - meanU(j) * meanU(j), 0.0))
    Moments(p.n, nM, meanM, meanU, varM, varU, s(1))
  }

  /** The E-step rows (no overrides) that `keep` accepts. */
  def collectRows(rows: PairRows, params: SideParams, keep: GammaRow => Boolean): Seq[GammaRow] =
    rows.map { case (l, r, x) => posterior(params, Map.empty, l, r, x) }.filter(keep).collect().toSeq

  /** One constrained iteration over the three sides at `params`: each side's
    * moments, the overrides, and the rows collected per side.
    */
  def iterate(sides: Seq[Prepared], rows: Seq[PairRows], params: Seq[SideParams],
              epsInit: Double): (Seq[Moments], Seq[Map[Long, Double]], Seq[Int]) = {
    val crossM = collectRows(rows(0), params(0), _.gamma >= 0.5)
    var collected = Seq(crossM.size, 0, 0)
    val overrides =
      if (crossM.size <= math.max(1000, 20 * math.sqrt(sides(0).n.toDouble).toLong)) {
        def within(i: Int, ids: Set[Long]): Seq[GammaRow] =
          if (ids.isEmpty) Nil
          else collectRows(rows(i), params(i), r => ids(r.leftId) && ids(r.rightId))
        val (wl, wr) = (within(1, crossM.map(_.leftId).toSet), within(2, crossM.map(_.rightId).toSet))
        collected = Seq(crossM.size, wl.size, wr.size)
        val o = Transitivity.resolve(crossM, wl, wr)
        Seq(o.cross, o.left, o.right)
      } else sides.map(_ => Map.empty[Long, Double])
    (sides.indices.map(i => moments(sides(i), rows(i), Some(params(i)), overrides(i), epsInit)),
     overrides, collected)
  }
}

class ConstrainedEMReferenceSpec extends SparkSpec {

  private val cfg = Config()

  /** Largest absolute difference between two moment sets and the params built from them. */
  private def maxDiff(a: Moments, b: Moments, corr: Array[Array[Double]], groups: Array[Int]): Double = {
    val (pa, pb) = (build(a, corr, groups, cfg), build(b, corr, groups, cfg))
    def d(x: Array[Double], y: Array[Double]) = x.indices.map(j => math.abs(x(j) - y(j))).max
    Seq(math.abs(a.nM - b.nM), d(a.meanM, b.meanM), d(a.meanU, b.meanU), d(a.varM, b.varM),
        d(a.varU, b.varU), math.abs(pa.piM - pb.piM), d(pa.muM, pb.muM), d(pa.muU, pb.muU),
        d(pa.varM, pb.varM), d(pa.varU, pb.varU), d(pa.kappa, pb.kappa)).max
  }

  test("constrained iterations equal the in-pass-override reference on FZ, DS and AB") {
    var withinOverrides = 0
    for (name <- Seq("FZ", "DS", "AB")) {
      val ds    = Datasets.byName(spark, name, scale = 0.3)
      val sides = Seq(Zeroer.prepareCross(ds), Zeroer.prepareSelf(ds, "left"), Zeroer.prepareSelf(ds, "right"))
      try {
        val rows = sides.map(pairRows)
        def built(moms: Seq[Moments]) =
          sides.indices.map(i => build(moms(i), sides(i).corr, sides(i).groups, cfg))
        val init = moments(sides, rows, None, Nil, cfg.epsInit).map(_.moments(Map.empty))
        for (i <- sides.indices) {
          val ref = ConstrainedEMReference.moments(sides(i), rows(i), None, Map.empty, cfg.epsInit)
          val diff = maxDiff(init(i), ref, sides(i).corr, sides(i).groups)
          assert(diff <= 1e-9, s"$name init side $i: $diff")
        }
        var params = built(init)
        for (it <- 1 to 6) {
          val (sums, o)              = Zeroer.iterate(sides, rows, params, cfg.epsInit)
          val (refMoms, refO, refN)  = ConstrainedEMReference.iterate(sides, rows, params, cfg.epsInit)
          assert(o == refO, s"$name iteration $it: overrides differ")
          val moms = sides.indices.map(i => sums(i).moments(o(i)))
          for (i <- sides.indices) {
            val diff = maxDiff(moms(i), refMoms(i), sides(i).corr, sides(i).groups)
            assert(diff <= 1e-9, s"$name iteration $it side $i: max |Δ| = $diff")
            assert(math.abs(moms(i).loglik - refMoms(i).loglik) <= 1e-9 * math.abs(refMoms(i).loglik))
          }
          val (lk, rk) = Transitivity.conclusionKeys(sums(0).kept.map(_._1))
          assert(sums(1).kept.size <= lk.size && sums(2).kept.size <= rk.size, s"$name iteration $it")
          info(s"$name iteration $it: rows collected (cross, left, right) ${refN.mkString(", ")} -> " +
               s"${sums.map(_.kept.size).mkString(", ")}; overrides ${o.map(_.size).mkString(", ")}")
          withinOverrides += o(1).size + o(2).size
          params = built(moms)
        }
      } finally sides.foreach(_.pairs.unpersist())
    }
    assert(withinOverrides > 0, "no within-table override was compared")
  }
}
