package repro.core

/** Parameterization and assembly of the ZeroER generative model (§3).
  *
  * The free parameters are exactly the paper's Θ = {π_M, μ_M, μ_U, Λ_M,
  * Λ_U}: per-feature means and standard deviations of the two components.
  * The full covariances are *derived* each M-step as Σ_C = Λ_C R Λ_C + K,
  * where `R` is the shared block-diagonal correlation matrix (estimated
  * once from all data, §3.1) and `K` the regularization diagonal (§3.2).
  */
object ZeroerModel {

  sealed trait CovMode
  object CovMode {
    /** Feature grouping + correlation sharing (the paper's model). */
    case object GroupedShared extends CovMode
    /** Ablation (Table 5 col 2): diagonal covariance shared by M and U. */
    case object DiagShared extends CovMode
  }

  sealed trait RegMode
  object RegMode {
    /** Equal-BC-increase adaptive ridge (the paper's model), κ' in [0,1]. */
    final case class Adaptive(kappaPrime: Double = 0.01) extends RegMode
    /** Ablation (Table 5 col 3): uniform ridge, sklearn's reg_covar default. */
    final case class Uniform(kappa: Double = 1e-6) extends RegMode
  }

  sealed trait TransMode
  object TransMode {
    /** Posterior constraints inside EM (the paper's model, §4). */
    case object Constraint extends TransMode
    /** Ablation (Table 5 col 4): duplicate-free post-processing. */
    case object PostProcess extends TransMode
    case object Off extends TransMode
  }

  final case class Config(
      covMode: CovMode = CovMode.GroupedShared,
      regMode: RegMode = RegMode.Adaptive(0.01),
      transMode: TransMode = TransMode.Constraint,
      maxIter: Int = 60,
      tol: Double = 1e-4,
      epsInit: Double = 0.5,
  )

  /** A multivariate Gaussian with block-diagonal covariance, stored as
    * per-block inverses + total log-determinant for O(Σ|b|²) density
    * evaluation inside the E-step closure.
    */
  final case class BlockGaussian(
      mu: Array[Double],
      blocks: Array[Array[Int]],          // feature indices per block
      inv: Array[Array[Array[Double]]],   // per-block inverse covariance
      logdet: Double,
  ) extends Serializable {
    def logpdf(x: Array[Double]): Double = {
      var quad = 0.0
      var b = 0
      while (b < blocks.length) {
        val idx  = blocks(b)
        val invB = inv(b)
        var i = 0
        while (i < idx.length) {
          val di = x(idx(i)) - mu(idx(i))
          var j = 0
          var row = 0.0
          while (j < idx.length) { row += invB(i)(j) * (x(idx(j)) - mu(idx(j))); j += 1 }
          quad += di * row
          i += 1
        }
        b += 1
      }
      -0.5 * (mu.length * math.log(2.0 * math.Pi) + logdet + quad)
    }
  }

  /** One side's fitted parameters (cross, left, or right table). */
  final case class SideParams(
      piM: Double,
      muM: Array[Double], muU: Array[Double],
      varM: Array[Double], varU: Array[Double], // pre-regularization variances
      kappa: Array[Double],                     // applied ridge diagonal
      mDist: BlockGaussian, uDist: BlockGaussian,
  ) extends Serializable {
    def logJoint(x: Array[Double]): (Double, Double) = {
      val la = math.log(piM) + mDist.logpdf(x)
      val lb = math.log1p(-piM) + uDist.logpdf(x)
      (la, lb)
    }
  }

  /** Sufficient statistics of one weighted M-step pass. */
  final case class Moments(
      n: Long, nM: Double,
      meanM: Array[Double], meanU: Array[Double],
      varM: Array[Double], varU: Array[Double],
      loglik: Double,
  )

  /** Feature-group block index sets from a `feature -> group` map. */
  def blocksOf(groups: Array[Int]): Array[Array[Int]] =
    groups.zipWithIndex.groupBy(_._1).toSeq.sortBy(_._1)
      .map(_._2.map(_._2).sorted).toArray

  private def blockGaussian(mu: Array[Double], cov: Array[Array[Double]],
                            blocks: Array[Array[Int]]): BlockGaussian = {
    var logdet = 0.0
    val invs = blocks.map { idx =>
      val sub = Array.tabulate(idx.length, idx.length)((i, j) => cov(idx(i))(idx(j)))
      val (l, _) = LinAlg.choleskyJittered(sub)
      logdet += LinAlg.logdetFromCholesky(l)
      LinAlg.invFromCholesky(l)
    }
    BlockGaussian(mu, blocks, invs, logdet)
  }

  /** M-step parameter assembly from moments (Algorithm 1, lines 8-12):
    * component identification (M = higher-mean component), covariance
    * construction per `covMode`, and regularization per `regMode`.
    */
  def build(m0: Moments, corr: Array[Array[Double]], groups: Array[Int],
            cfg: Config): SideParams = {
    // Identifiability: the match component is the one with higher mean
    // similarity; swap if EM drifted (matches have higher sims by design).
    val swap = m0.meanM.sum < m0.meanU.sum
    val (nM, meanM, meanU, varM0, varU0) =
      if (!swap) (m0.nM, m0.meanM, m0.meanU, m0.varM, m0.varU)
      else (m0.n - m0.nM, m0.meanU, m0.meanM, m0.varU, m0.varM)

    val d   = meanM.length
    val piM = math.min(math.max(nM / m0.n, 1e-6), 1.0 - 1e-6)

    val (varM, varU) = cfg.covMode match {
      case CovMode.GroupedShared => (varM0, varU0)
      case CovMode.DiagShared =>
        // tied diagonal covariance: pooled within-component variance
        val pooled = Array.tabulate(d)(j =>
          (nM * varM0(j) + (m0.n - nM) * varU0(j)) / m0.n)
        (pooled, pooled)
    }

    val kappa: Array[Double] = cfg.regMode match {
      case RegMode.Adaptive(kp) => AdaptiveReg.adaptiveK(varM, varU, meanM, meanU, kp)
      case RegMode.Uniform(k)   => Array.fill(d)(k)
    }

    val blocks = cfg.covMode match {
      case CovMode.GroupedShared => blocksOf(groups)
      case CovMode.DiagShared    => Array.tabulate(d)(j => Array(j)) // diagonal
    }

    def cov(sd: Array[Double], kap: Array[Double]): Array[Array[Double]] = {
      val c = Array.ofDim[Double](d, d)
      var i = 0
      while (i < d) {
        var j = 0
        while (j < d) {
          c(i)(j) = sd(i) * sd(j) * (if (i == j) 1.0 else corr(i)(j))
          j += 1
        }
        // variance floor keeps a fully degenerate, unregularized feature
        // from producing an infinite density (the singularity of §3.2)
        c(i)(i) = math.max(c(i)(i) + kap(i), 1e-10)
        i += 1
      }
      c
    }
    val sdM = varM.map(math.sqrt)
    val sdU = varU.map(math.sqrt)

    SideParams(piM, meanM, meanU, varM, varU, kappa,
      blockGaussian(meanM, cov(sdM, kappa), blocks),
      blockGaussian(meanU, cov(sdU, kappa), blocks))
  }
}
