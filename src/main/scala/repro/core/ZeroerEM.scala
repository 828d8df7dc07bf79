package repro.core

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Dataset}
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
    * candidate set, masked to the feature-group block structure: the
    * correlation of [[groupMoments]] with every row in one class.
    */
  def sharedCorrelation(features: DataFrame, featCol: String, groups: Array[Int]): Array[Array[Double]] =
    correlationAndCount(features, featCol, groups)._1

  /** [[sharedCorrelation]] and the number of rows it read, which its job
    * counts anyway.
    */
  private[core] def correlationAndCount(features: DataFrame, featCol: String,
                                        groups: Array[Int]): (Array[Array[Double]], Long) = {
    val spark = features.sparkSession
    import spark.implicits._
    val m = groupMoments(features.select(lit(0), col(featCol)).as[(Int, Array[Double])], 1, groups).head
    (m.corr, m.n)
  }

  /** One class's rows, their sample covariance and their Pearson
    * correlation, both masked to the feature groups (0 across groups).
    */
  final case class ClassMoments(n: Long, cov: Array[Array[Double]], corr: Array[Array[Double]])

  /** The [[ClassMoments]] of each class `0 until classes` of `rows`
    * (class, x), in class order.
    *
    * One job without a shuffle: each partition sums, per class, n, x, x²
    * and the within-group products xᵢxⱼ, and the driver adds the sums in
    * partition order, both with compensation ([[LinAlg.addCompensated]]).
    * The covariance subtracts two close terms, so plain sums over large
    * partitions lose digits of r; compensated ones are exact to about an ulp
    * whatever the partitioning. Pearson's r is formed as Spark's
    * `Correlation.corr` forms it (sample covariance over the product of
    * standard deviations). A constant feature (variance within 1e-12 of
    * zero, Spark's cut-off) has no defined correlation: its row and column
    * are 0 off the diagonal. A class of fewer than two rows has zero
    * covariance and the identity as correlation.
    */
  def groupMoments(rows: Dataset[(Int, Array[Double])], classes: Int, groups: Array[Int]): Seq[ClassMoments] = {
    val d = groups.length
    val (pi, pj) =
      (for (i <- 0 until d; j <- i + 1 until d if groups(i) == groups(j)) yield (i, j)).toArray.unzip
    // per class and partition: n at 0, then m sums from 1, Σx (d), Σx² (d)
    // and Σxᵢxⱼ (one per within-group pair), each with its compensation m
    // places on
    val m     = 2 * d + pi.length
    val width = 1 + 2 * m
    val spark = rows.sparkSession
    import spark.implicits._
    val parts = rows.mapPartitions { it =>
      val s = new Array[Double](classes * width)
      it.foreach { case (c, x) =>
        val o = c * width
        def add(k: Int, v: Double): Unit = addCompensated(s, o + 1 + k, o + 1 + m + k, v)
        s(o) += 1
        var j = 0
        while (j < d) { add(j, x(j)); add(d + j, x(j) * x(j)); j += 1 }
        var k = 0
        while (k < pi.length) { add(2 * d + k, x(pi(k)) * x(pj(k))); k += 1 }
      }
      Iterator(s)
    }.collect()

    (0 until classes).map { c =>
      val o   = c * width
      val tot = new Array[Double](2 * m) // sum k at k, its compensation at m + k
      for (p <- parts; k <- 0 until m) {
        addCompensated(tot, k, m + k, p(o + 1 + k))
        addCompensated(tot, k, m + k, p(o + 1 + m + k))
      }
      def sum(k: Int): Double = tot(k) + tot(m + k)

      val n    = parts.foldLeft(0.0)(_ + _(o))
      val mean = Array.tabulate(d)(j => sum(j) / n)
      def cov(i: Int, j: Int, gram: Double): Double =
        if (n > 1) gram / (n - 1) - n / (n - 1) * mean(i) * mean(j) else 0.0
      val s  = Array.tabulate(d, d)((i, j) => if (i == j) cov(j, j, sum(d + j)) else 0.0)
      val sd = Array.tabulate(d) { j =>
        val v = s(j)(j)
        if (math.abs(v) <= 1e-12) 0.0 else math.sqrt(v)
      }
      val r = Array.tabulate(d, d)((i, j) => if (i == j) 1.0 else 0.0)
      for (k <- pi.indices) {
        val i = pi(k); val j = pj(k)
        s(i)(j) = cov(i, j, sum(2 * d + k))
        s(j)(i) = s(i)(j)
        if (sd(i) > 0.0 && sd(j) > 0.0) {
          r(i)(j) = s(i)(j) / (sd(j) * sd(i))
          r(j)(i) = r(i)(j)
        }
      }
      ClassMoments(n.toLong, s, r)
    }
  }

  /** Pair (l, r)'s posterior row at `params`. */
  private def posterior(params: SideParams, l: Long, r: Long, x: Array[Double]): GammaRow = {
    val (la, lb) = params.logJoint(x)
    GammaRow(pairKey(l, r), l, r, LinAlg.posterior(la, lb), la, lb)
  }

  /** One side's share of a moment pass ([[moments]]): the side's `n`, its
    * sums at its params with no override (Σγ, Σll, then Σγx, Σγx², Σx and
    * Σx², d each), and the posterior rows its predicate kept, with their
    * features.
    */
  final case class SideSums(n: Long, sums: Array[Double], kept: Seq[(GammaRow, Array[Double])]) {

    /** M-step statistics (Eq. 5 restricted to the 4d+1 free parameters),
      * with γ′ in place of γ for every pair in `overrides` (pair key → γ′).
      * The sums gain Σ(γ′ − γ)·(1, x, x²) over the overridden pairs, whose
      * x the kept rows hold; the log-likelihood does not depend on γ.
      */
    def moments(overrides: Map[Long, Double]): Moments = {
      val d = (sums.length - 2) / 4
      val (gx, gxx, sx, sxx) = (2, 2 + d, 2 + 2 * d, 2 + 3 * d)
      val s = sums.clone()
      var applied = 0
      for ((q, x) <- kept; g <- overrides.get(q.pairId)) {
        val dg = g - q.gamma
        s(0) += dg
        var j = 0
        while (j < d) { s(gx + j) += dg * x(j); s(gxx + j) += dg * x(j) * x(j); j += 1 }
        applied += 1
      }
      require(applied == overrides.size, s"${overrides.size - applied} overridden pairs are not among the kept rows")

      val nM    = math.max(s(0), 1e-9)
      val nU    = math.max(n - nM, 1e-9)
      val meanM = Array.tabulate(d)(j => s(gx + j) / nM)
      val meanU = Array.tabulate(d)(j => (s(sx + j) - s(gx + j)) / nU)
      val varM  = Array.tabulate(d)(j => math.max(s(gxx + j) / nM - meanM(j) * meanM(j), 0.0))
      val varU  = Array.tabulate(d)(j =>
        math.max((s(sxx + j) - s(gxx + j)) / nU - meanU(j) * meanU(j), 0.0))
      Moments(n, nM, meanM, meanU, varM, varU, s(1))
    }
  }

  /** Weighted moment pass (M-step statistics) over one or more sides, each
    * at its own params: `params = None` means the initialization pass
    * (Algorithm 1 line 4: γ = 1 iff mean scaled similarity > ε). With
    * params, `keep(i)` selects the posterior rows of side i to return; at
    * initialization nothing is kept and `keep` is not read.
    *
    * One job without a shuffle over the sides' `rows` ([[pairRows]]): each
    * partition evaluates the model once per pair and sums γ, the
    * log-likelihood, γx, γx², x and x². The sides' partitions are coalesced
    * to one per core, so the job is one wave; the driver adds each side's
    * partition sums in partition order.
    */
  def moments(sides: Seq[Prepared], rows: Seq[PairRows], params: Option[Seq[SideParams]],
              keep: Seq[GammaRow => Boolean], epsInit: Double): Seq[SideSums] = {
    val perSide = sides.indices.map { i =>
      val d  = sides(i).d
      val th = params.map(ps => (ps(i), keep(i)))
      // sums layout: Σγ, Σll, then Σγx, Σγx², Σx, Σx² (d each) from these offsets
      val (gx, gxx, sx, sxx) = (2, 2 + d, 2 + 2 * d, 2 + 3 * d)
      rows(i).mapPartitionsWithIndex { (part, it) =>
        val s    = new Array[Double](2 + 4 * d)
        val kept = ArrayBuffer.empty[(GammaRow, Array[Double])]
        it.foreach { case (l, r, x) =>
          require(x.length == d, s"pair ($l, $r) has ${x.length} features, expected $d")
          val (g, ll) = th match {
            case Some((t, k)) =>
              val q = posterior(t, l, r, x)
              if (k(q)) kept += ((q, x))
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
        Iterator((i, part, s, kept.toArray))
      }
    }
    val sc    = rows.head.sparkContext
    val parts = sc.union(perSide).coalesce(sc.defaultParallelism).collect().sortBy(p => (p._1, p._2))
    sides.indices.map { i =>
      val mine = parts.filter(_._1 == i)
      SideSums(sides(i).n, Array.tabulate(2 + 4 * sides(i).d)(k => mine.foldLeft(0.0)(_ + _._3(k))),
               mine.toSeq.flatMap(_._4))
    }
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

  /** E-step posterior DataFrame of `p`, from its `rows`: pair_id, left_id,
    * right_id, gamma, la, lb; γ is the pair's transitivity override where
    * one is set.
    */
  def eStep(p: Prepared, rows: PairRows, params: SideParams, overrides: Map[Long, Double]): DataFrame = {
    val spark = p.pairs.sparkSession
    import spark.implicits._
    rows.map { case (l, r, x) =>
      val q = posterior(params, l, r, x)
      overrides.get(q.pairId).fold(q)(g => q.copy(gamma = g))
    }.toDF("pair_id", "left_id", "right_id", "gamma", "la", "lb")
  }
}
