package repro.core

import org.scalatest.funsuite.AnyFunSuite

import ZeroerModel._

class ZeroerModelSpec extends AnyFunSuite {

  private def identityCorr(d: Int) =
    Array.tabulate(d, d)((i, j) => if (i == j) 1.0 else 0.0)

  private val cfg = Config()

  private def gamma(p: SideParams, x: Array[Double]): Double = {
    val (la, lb) = p.logJoint(x)
    LinAlg.posterior(la, lb)
  }

  private def mkMoments(d: Int = 2): Moments = Moments(
    n = 1000, nM = 100,
    meanM = Array.fill(d)(0.9), meanU = Array.fill(d)(0.2),
    varM = Array.fill(d)(0.01), varU = Array.fill(d)(0.04),
    loglik = 0.0)

  test("blocksOf groups features by attribute") {
    val b = blocksOf(Array(0, 0, 1, 1, 1, 2))
    assert(b.map(_.toSeq).toSeq == Seq(Seq(0, 1), Seq(2, 3, 4), Seq(5)))
  }

  test("build estimates piM = nM / n") {
    val p = build(mkMoments(), identityCorr(2), Array(0, 1), cfg)
    assert(math.abs(p.piM - 0.1) < 1e-12)
  }

  test("build swaps components when EM drifted (M must have higher mean)") {
    val m = mkMoments().copy(meanM = Array(0.1, 0.1), meanU = Array(0.8, 0.8))
    val p = build(m, identityCorr(2), Array(0, 1), cfg)
    assert(p.muM.sum > p.muU.sum)
    assert(math.abs(p.piM - 0.9) < 1e-12) // swapped prior
  }

  test("gamma is higher for match-like vectors") {
    val p = build(mkMoments(), identityCorr(2), Array(0, 1), cfg)
    assert(gamma(p, Array(0.9, 0.9)) > 0.9)
    assert(gamma(p, Array(0.2, 0.2)) < 0.1)
  }

  test("gamma is monotone along the U->M direction") {
    val p = build(mkMoments(), identityCorr(2), Array(0, 1), cfg)
    val gs = (0 to 10).map(i => gamma(p, Array(0.2 + 0.07 * i, 0.2 + 0.07 * i)))
    assert(gs.zip(gs.tail).forall { case (a, b) => b >= a - 1e-9 })
  }

  test("adaptive regularization adds positive kappa on separated features") {
    val p = build(mkMoments(), identityCorr(2), Array(0, 1), cfg)
    assert(p.kappa.forall(_ > 0.0))
  }

  test("RegMode.Uniform applies the constant") {
    for (k <- Seq(0.5, 0.0)) {
      val p = build(mkMoments(), identityCorr(2), Array(0, 1),
                    cfg.copy(regMode = RegMode.Uniform(k)))
      assert(p.kappa.forall(_ == k), s"kappa $k")
    }
  }

  test("a zero-variance feature does not produce an infinite density") {
    val m = mkMoments().copy(varM = Array(0.0, 0.01))
    val p = build(m, identityCorr(2), Array(0, 1), cfg)
    val lp = p.mDist.logpdf(Array(0.9, 0.9))
    assert(!lp.isInfinite && !lp.isNaN)
  }

  test("DiagShared pools variances across components") {
    val p = build(mkMoments(), identityCorr(2), Array(0, 1),
                  cfg.copy(covMode = CovMode.DiagShared))
    assert(p.varM.toSeq == p.varU.toSeq)
    // pooled = (100*0.01 + 900*0.04)/1000 = 0.037
    assert(math.abs(p.varM(0) - 0.037) < 1e-12)
  }

  test("correlated block density differs from independent density") {
    val corr = Array(Array(1.0, 0.9), Array(0.9, 1.0))
    val pc = build(mkMoments(), corr, Array(0, 0), cfg.copy(regMode = RegMode.Uniform(0.0)))
    val pi = build(mkMoments(), identityCorr(2), Array(0, 0), cfg.copy(regMode = RegMode.Uniform(0.0)))
    // a vector breaking the correlation pattern is less likely under pc
    val x = Array(0.9 + 0.1, 0.9 - 0.1)
    assert(pc.mDist.logpdf(x) < pi.mDist.logpdf(x))
  }

  test("cross-group correlations are ignored (block structure)") {
    val corr = Array(Array(1.0, 0.9), Array(0.9, 1.0))
    // same matrix but features in DIFFERENT groups -> independence
    val pDiff = build(mkMoments(), corr, Array(0, 1), cfg.copy(regMode = RegMode.Uniform(0.0)))
    val pId   = build(mkMoments(), identityCorr(2), Array(0, 1), cfg.copy(regMode = RegMode.Uniform(0.0)))
    val x = Array(0.95, 0.85)
    assert(math.abs(pDiff.mDist.logpdf(x) - pId.mDist.logpdf(x)) < 1e-9)
  }

  test("logpdf matches the closed-form univariate Gaussian") {
    val m = mkMoments(1).copy(meanM = Array(0.5), meanU = Array(0.1),
                              varM = Array(0.04), varU = Array(0.04))
    val p = build(m, identityCorr(1), Array(0), cfg.copy(regMode = RegMode.Uniform(0.0)))
    val x = 0.7
    val expected = -0.5 * (math.log(2 * math.Pi) + math.log(0.04) +
                           (x - 0.5) * (x - 0.5) / 0.04)
    assert(math.abs(p.mDist.logpdf(Array(x)) - expected) < 1e-9)
  }

  test("loglik is logsumexp of the two joint densities") {
    val p = build(mkMoments(), identityCorr(2), Array(0, 1), cfg)
    val x = Array(0.5, 0.5)
    val (la, lb) = p.logJoint(x)
    val ll = LinAlg.logSumExp(la, lb)
    assert(math.abs(ll - math.log(math.exp(la) + math.exp(lb))) < 1e-12)
    assert(math.abs(LinAlg.posterior(la, lb) - math.exp(la - ll)) < 1e-12)
  }

  test("piM is clamped away from 0 and 1") {
    val m0 = mkMoments().copy(nM = 0.0)
    assert(build(m0, identityCorr(2), Array(0, 1), cfg).piM > 0.0)
    val m1 = mkMoments().copy(nM = 1000.0)
    assert(build(m1, identityCorr(2), Array(0, 1), cfg).piM < 1.0)
  }
}
