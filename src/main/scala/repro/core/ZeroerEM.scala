package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.blocking.Blocking.pairKey

import LinAlg.addCompensated
import ZeroerModel._

/** Distributed E/M passes of the ZeroER EM algorithm.
  *
  * The candidate-pair DataFrame never leaves the cluster: the E-step is a
  * typed map over the (small) model parameters, and the M-step reduces to
  * per-feature weighted moments — thanks to correlation sharing (§3.1) the
  * only free covariance parameters are the per-feature standard deviations,
  * so each moment pass is one shuffle-free job of per-partition sums.
  * Every pass maps one RDD of a side's cached rows ([[pairRows]]), derived
  * once per fit. Each pass derives a pair's key from its ids: [[repro.blocking.Blocking.pairKey]].
  */
object ZeroerEM {

  /** A candidate-pair side ready for EM: scaled features + shared
    * correlation matrix (block-masked to the feature groups). `pairs` holds
    * `left_id`, `right_id` and `features`, and is cached.
    */
  final case class Prepared(
      name: String,
      pairs: DataFrame,
      d: Int,
      groups: Array[Int],
      n: Long,
      corr: Array[Array[Double]],
  )

  /** A side's pairs as `(left_id, right_id, features)`: see [[pairRows]]. */
  type PairRows = RDD[(Long, Long, Array[Double])]

  /** One posterior row: the pair's key and ids, γ, la and lb. */
  final case class GammaRow(pairId: Long, leftId: Long, rightId: Long,
                            gamma: Double, logA: Double, logB: Double)

  /** Shared correlation matrix R (§3.1), estimated once over the entire
    * candidate set, masked to the feature-group block structure.
    *
    * One job without a shuffle: each partition sums x, x² and the
    * within-group products xᵢxⱼ, and the driver adds the sums in partition
    * order, both with compensation ([[LinAlg.addCompensated]]). The
    * covariance subtracts two close terms, so plain sums over large
    * partitions lose digits of r; compensated ones are exact to about an ulp
    * whatever the partitioning. Pearson's r is formed as Spark's
    * `Correlation.corr` forms it (sample covariance over the product of
    * standard deviations). A constant feature (variance within 1e-12 of
    * zero, Spark's cut-off) has no defined correlation: its row and column
    * are 0 off the diagonal.
    */
  def sharedCorrelation(features: DataFrame, featCol: String, groups: Array[Int]): Array[Array[Double]] = {
    val d = groups.length
    val (pi, pj) =
      (for (i <- 0 until d; j <- i + 1 until d if groups(i) == groups(j)) yield (i, j)).toArray.unzip
    // per partition: n at 0, then m sums from 1, Σx (d), Σx² (d) and Σxᵢxⱼ
    // (one per within-group pair), each with its compensation m places on
    val m = 2 * d + pi.length
    val spark = features.sparkSession
    import spark.implicits._
    val parts = features.select(col(featCol)).as[Array[Double]].mapPartitions { rows =>
      val s = new Array[Double](1 + 2 * m)
      def add(k: Int, v: Double): Unit = addCompensated(s, 1 + k, 1 + m + k, v)
      rows.foreach { x =>
        s(0) += 1
        var j = 0
        while (j < d) { add(j, x(j)); add(d + j, x(j) * x(j)); j += 1 }
        var k = 0
        while (k < pi.length) { add(2 * d + k, x(pi(k)) * x(pj(k))); k += 1 }
      }
      Iterator(s)
    }.collect()
    val tot = new Array[Double](2 * m) // sum k at k, its compensation at m + k
    for (p <- parts; k <- 0 until m) {
      addCompensated(tot, k, m + k, p(1 + k))
      addCompensated(tot, k, m + k, p(1 + m + k))
    }
    def sum(k: Int): Double = tot(k) + tot(m + k)

    val n    = parts.foldLeft(0.0)(_ + _(0))
    val mean = Array.tabulate(d)(j => sum(j) / n)
    def cov(i: Int, j: Int, gram: Double): Double =
      gram / (n - 1) - n / (n - 1) * mean(i) * mean(j)
    val sd = Array.tabulate(d) { j =>
      val v = if (n > 1) cov(j, j, sum(d + j)) else 0.0
      if (math.abs(v) <= 1e-12) 0.0 else math.sqrt(v)
    }
    val r = Array.tabulate(d, d)((i, j) => if (i == j) 1.0 else 0.0)
    for (k <- pi.indices) {
      val i = pi(k); val j = pj(k)
      if (sd(i) > 0.0 && sd(j) > 0.0) {
        r(i)(j) = cov(i, j, sum(2 * d + k)) / (sd(j) * sd(i))
        r(j)(i) = r(i)(j)
      }
    }
    r
  }

  /** Pair (l, r)'s posterior row; γ is its transitivity override where one is set. */
  private def posterior(params: SideParams, overrides: Map[Long, Double],
                        l: Long, r: Long, x: Array[Double]): GammaRow = {
    val (la, lb) = params.logJoint(x)
    val key      = pairKey(l, r)
    GammaRow(key, l, r, overrides.getOrElse(key, LinAlg.posterior(la, lb)), la, lb)
  }

  /** Weighted moment pass (M-step statistics, Eq. 5 restricted to the 4d+1
    * free parameters). `params = None` means the initialization pass
    * (Algorithm 1 line 4: γ = 1 iff mean scaled similarity > ε).
    *
    * One job without a shuffle over `p`'s `rows` ([[pairRows]]): each
    * partition evaluates the model once per pair and sums γ, the
    * log-likelihood, γx, γx², x and x²; the partition sums are added in
    * partition order.
    */
  def moments(p: Prepared, rows: PairRows, params: Option[SideParams],
              overrides: Map[Long, Double], epsInit: Double): Moments = {
    val d = p.d
    // sums layout: Σγ, Σll, then Σγx, Σγx², Σx, Σx² (d each) from these offsets
    val (gx, gxx, sx, sxx) = (2, 2 + d, 2 + 2 * d, 2 + 3 * d)
    val parts = rows.mapPartitions { part =>
      val s = new Array[Double](2 + 4 * d)
      part.foreach { case (l, r, x) =>
        require(x.length == d, s"pair ($l, $r) has ${x.length} features, expected $d")
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

  /** `(left_id, right_id, features)` of every pair of `p`, as an RDD over
    * the side's cached rows. A fit derives it once per side and maps every
    * pass over it, so a pass is one plain job: no query planning, SQL
    * execution or row encoders of its own. Derive it where it is used: a
    * plan kept after its side is unpersisted would rebuild that side's cache.
    */
  def pairRows(p: Prepared): PairRows = {
    val spark = p.pairs.sparkSession
    import spark.implicits._
    p.pairs.select(col("left_id"), col("right_id"), col("features")).as[(Long, Long, Array[Double])].rdd
  }

  /** The E-step over `rows`: one posterior row per pair. */
  private def posteriors(rows: PairRows, params: SideParams,
                         overrides: Map[Long, Double]): RDD[GammaRow] =
    rows.map { case (l, r, x) => posterior(params, overrides, l, r, x) }

  /** E-step posterior DataFrame of `p`, from its `rows`: pair_id, left_id,
    * right_id, gamma, la, lb.
    */
  def eStep(p: Prepared, rows: PairRows, params: SideParams, overrides: Map[Long, Double]): DataFrame = {
    val spark = p.pairs.sparkSession
    import spark.implicits._
    posteriors(rows, params, overrides).toDF("pair_id", "left_id", "right_id", "gamma", "la", "lb")
  }

  /** The E-step rows (no overrides) that `keep` accepts, collected for
    * transitivity resolution.
    */
  def collectRows(rows: PairRows, params: SideParams, keep: GammaRow => Boolean): Seq[GammaRow] =
    posteriors(rows, params, Map.empty).filter(keep).collect().toSeq
}
