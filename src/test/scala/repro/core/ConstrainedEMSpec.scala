package repro.core

import repro.SparkSpec
import repro.blocking.Blocking.pairKey
import repro.erdata.Datasets
import repro.eval.Metrics
import ZeroerEM._
import ZeroerModel._

/** Constrained EM iterations ([[Zeroer.iterate]]) on DS, where transitivity
  * overrides pairs of the cross and the right side in every iteration.
  */
class ConstrainedEMSpec extends SparkSpec {

  private val cfg = Config()

  // DS at 0.3, prepared once: the cross side, then the left and right sides
  private lazy val ds    = Datasets.byName(spark, "DS", scale = 0.3)
  private lazy val sides = Seq(Zeroer.prepareCross(ds), Zeroer.prepareSelf(ds, "left"), Zeroer.prepareSelf(ds, "right"))

  override def afterAll(): Unit = {
    sides.foreach(_.pairs.unpersist())
    super.afterAll()
  }

  /** A side's moments at `params` with γ′ in place of γ for the pairs in
    * `overrides`, computed on the driver from the collected pairs.
    */
  private def recompute(rows: Array[(Long, Long, Array[Double])], params: SideParams,
                        overrides: Map[Long, Double]): Moments = {
    val gl = rows.map { case (l, r, x) =>
      val (la, lb) = params.logJoint(x)
      (overrides.getOrElse(pairKey(l, r), LinAlg.posterior(la, lb)), LinAlg.logSumExp(la, lb))
    }
    val g  = gl.map(_._1)
    val nM = g.sum
    val nU = rows.length - nM
    val d  = rows.head._3.length
    def mean(w: Int => Double, n: Double, j: Int) = rows.indices.map(i => w(i) * rows(i)._3(j)).sum / n
    def variance(w: Int => Double, n: Double, j: Int, m: Double) =
      rows.indices.map(i => w(i) * (rows(i)._3(j) - m) * (rows(i)._3(j) - m)).sum / n
    val meanM = Array.tabulate(d)(j => mean(g(_), nM, j))
    val meanU = Array.tabulate(d)(j => mean(1 - g(_), nU, j))
    Moments(rows.length, nM, meanM, meanU,
            Array.tabulate(d)(j => variance(g(_), nM, j, meanM(j))),
            Array.tabulate(d)(j => variance(1 - g(_), nU, j, meanU(j))), gl.map(_._2).sum)
  }

  test("constrained iterations on DS set the pinned overrides and apply them to the moments") {
    val rows = sides.map(pairRows)
    def built(moms: Seq[Moments]) =
      sides.indices.map(i => build(moms(i), sides(i).corr, sides(i).groups, cfg))
    var params = built(moments(sides, rows, None, Nil, cfg.epsInit).map(_.moments(Map.empty)))
    val counts = (1 to 6).map { it =>
      val (sums, o) = Zeroer.iterate(sides, rows, params, cfg.epsInit)
      val moms      = sides.indices.map(i => sums(i).moments(o(i)))
      if (it == 1) {
        assert(o(2).nonEmpty, "iteration 1 overrides no within-table pair")
        for (i <- sides.indices) {
          val (got, want) = (moms(i), recompute(rows(i).collect(), params(i), o(i)))
          def diff(x: Array[Double], y: Array[Double]) = x.indices.map(j => math.abs(x(j) - y(j))).max
          val worst = Seq(math.abs(got.nM - want.nM), diff(got.meanM, want.meanM), diff(got.meanU, want.meanU),
                          diff(got.varM, want.varM), diff(got.varU, want.varU)).max
          assert(got.n == want.n && worst <= 1e-9, s"side $i: max |moment - recompute| = $worst")
          assert(math.abs(got.loglik - want.loglik) <= 1e-9 * math.abs(want.loglik), s"side $i loglik")
        }
      }
      params = built(moms)
      o.map(_.size)
    }
    // (cross, left, right) overrides per iteration, as the constrained
    // iteration that applied them inside its moment passes set them
    assert(counts == Seq(Seq(32, 0, 10), Seq(42, 0, 7), Seq(50, 0, 11),
                         Seq(58, 0, 16), Seq(60, 0, 16), Seq(65, 0, 16)))
  }

  test("posterior constraints add F1 on DS, and post-processing loses it (Table 5's shape)") {
    def f1(mode: TransMode): Double = {
      val res = Zeroer.fit(sides(0), Some(sides(1)), Some(sides(2)), Config(transMode = mode))
      try {
        val f = Metrics.prf(res.predictions, ds.truth).f1
        info(s"DS/0.3 $mode: F1 $f, ${res.iters} iterations")
        f
      } finally res.gammaDf.unpersist()
    }
    val (alg1, alg2, post) = (f1(TransMode.Off), f1(TransMode.Constraint), f1(TransMode.PostProcess))
    assert(alg2 >= alg1 + 0.02, s"Algorithm 2 $alg2 vs Algorithm 1 $alg1")
    assert(post <= alg2 - 0.05, s"post-processing $post vs Algorithm 2 $alg2")
  }
}
