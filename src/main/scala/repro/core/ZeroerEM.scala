package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import ZeroerModel._

/** Distributed E/M passes of the ZeroER EM algorithm.
  *
  * The candidate-pair DataFrame never leaves the cluster: the E-step is a
  * closure over the (small) broadcast parameters, and the M-step reduces to
  * per-feature weighted moments via `posexplode` + `groupBy(j)` — thanks to
  * correlation sharing (§3.1) the only free covariance parameters are the
  * per-feature standard deviations, so no pairwise products are shuffled.
  */
object ZeroerEM {

  /** A candidate-pair side ready for EM: scaled features + shared
    * correlation matrix (block-masked to the feature groups).
    */
  final case class Prepared(
      name: String,
      pairs: DataFrame, // pair_id, left_id, right_id, features (cached)
      d: Int,
      groups: Array[Int],
      n: Long,
      corr: Array[Array[Double]],
  )

  /** One posterior row, as collected for transitivity resolution. */
  final case class GammaRow(pairId: Long, leftId: Long, rightId: Long,
                            gamma: Double, logA: Double, logB: Double)

  /** Shared correlation matrix R (§3.1), estimated once over the entire
    * candidate set, masked to the feature-group block structure.
    *
    * One job without a shuffle: each partition sums x, x² and the
    * within-group products xᵢxⱼ, and the driver adds the sums in partition
    * order and forms Pearson's r as Spark's `Correlation.corr` does (sample
    * covariance over the product of standard deviations). A constant
    * feature (variance within 1e-12 of zero, Spark's cut-off) has no
    * defined correlation: its row and column are 0 off the diagonal.
    */
  def sharedCorrelation(features: DataFrame, featCol: String, groups: Array[Int]): Array[Array[Double]] = {
    val d = groups.length
    val (pi, pj) =
      (for (i <- 0 until d; j <- i + 1 until d if groups(i) == groups(j)) yield (i, j)).toArray.unzip
    // sums layout: n, then Σx (d), Σx² (d), Σxᵢxⱼ (one per within-group pair)
    val width = 1 + 2 * d + pi.length
    val spark = features.sparkSession
    import spark.implicits._
    val parts = features.select(col(featCol)).as[Array[Double]].mapPartitions { rows =>
      val s = new Array[Double](width)
      rows.foreach { x =>
        s(0) += 1
        var j = 0
        while (j < d) { s(1 + j) += x(j); s(1 + d + j) += x(j) * x(j); j += 1 }
        var k = 0
        while (k < pi.length) { s(1 + 2 * d + k) += x(pi(k)) * x(pj(k)); k += 1 }
      }
      Iterator(s)
    }.collect()
    val s = Array.tabulate(width)(k => parts.foldLeft(0.0)(_ + _(k)))

    val n    = s(0)
    val mean = Array.tabulate(d)(j => s(1 + j) / n)
    def cov(i: Int, j: Int, gram: Double): Double =
      gram / (n - 1) - n / (n - 1) * mean(i) * mean(j)
    val sd = Array.tabulate(d) { j =>
      val v = if (n > 1) cov(j, j, s(1 + d + j)) else 0.0
      if (math.abs(v) <= 1e-12) 0.0 else math.sqrt(v)
    }
    val r = Array.tabulate(d, d)((i, j) => if (i == j) 1.0 else 0.0)
    for (k <- pi.indices) {
      val i = pi(k); val j = pj(k)
      if (sd(i) > 0.0 && sd(j) > 0.0) {
        r(i)(j) = cov(i, j, s(1 + 2 * d + k)) / (sd(j) * sd(i))
        r(j)(i) = r(i)(j)
      }
    }
    r
  }

  private def gammaColumn(params: SideParams, overrides: Map[Long, Double]) =
    udf { (id: Long, x: Seq[Double]) =>
      overrides.getOrElse(id, params.gamma(x.toArray))
    }

  private def initGammaColumn(eps: Double) =
    udf { (x: Seq[Double]) => if (x.sum / x.length > eps) 1.0 else 0.0 }

  private def loglikColumn(params: SideParams) =
    udf { (x: Seq[Double]) => params.loglik(x.toArray) }

  /** Weighted moment pass (M-step statistics, Eq. 5 restricted to the 4d+1
    * free parameters). `params = None` means the initialization pass
    * (Algorithm 1 line 4: γ = 1 iff mean scaled similarity > ε).
    */
  def moments(p: Prepared, params: Option[SideParams],
              overrides: Map[Long, Double], epsInit: Double): Moments = {
    val withG = params match {
      case Some(th) =>
        p.pairs.select(
          col("features"),
          gammaColumn(th, overrides)(col("pair_id"), col("features")).as("g"),
          loglikColumn(th)(col("features")).as("ll"),
        )
      case None =>
        p.pairs.select(
          col("features"),
          initGammaColumn(epsInit)(col("features")).as("g"),
          lit(0.0).as("ll"),
        )
    }
    val rows = withG
      .select(col("g"), col("ll"), posexplode(col("features")).as(Seq("j", "x")))
      .groupBy("j")
      .agg(
        sum("g").as("sg"),
        sum(col("g") * col("x")).as("sgx"),
        sum(col("g") * col("x") * col("x")).as("sgxx"),
        sum("x").as("sx"),
        sum(col("x") * col("x")).as("sxx"),
        sum("ll").as("sll"),
      )
      .collect()
      .sortBy(_.getInt(0))
    require(rows.length == p.d, s"moment pass returned ${rows.length} features, expected ${p.d}")

    val n  = p.n.toDouble
    val nM = math.max(rows(0).getDouble(1), 1e-9)
    val nU = math.max(n - nM, 1e-9)
    val meanM = new Array[Double](p.d); val meanU = new Array[Double](p.d)
    val varM  = new Array[Double](p.d); val varU  = new Array[Double](p.d)
    rows.foreach { r =>
      val j = r.getInt(0)
      val sgx = r.getDouble(2); val sgxx = r.getDouble(3)
      val sx  = r.getDouble(4); val sxx  = r.getDouble(5)
      meanM(j) = sgx / nM
      meanU(j) = (sx - sgx) / nU
      varM(j)  = math.max(sgxx / nM - meanM(j) * meanM(j), 0.0)
      varU(j)  = math.max((sxx - sgxx) / nU - meanU(j) * meanU(j), 0.0)
    }
    Moments(p.n, nM, meanM, meanU, varM, varU, rows(0).getDouble(6))
  }

  /** E-step posterior DataFrame: pair_id, left_id, right_id, gamma, la, lb. */
  def eStep(p: Prepared, params: SideParams, overrides: Map[Long, Double]): DataFrame = {
    val post = udf { (id: Long, x: Seq[Double]) =>
      val arr      = x.toArray
      val (la, lb) = params.logJoint(arr)
      val g0       = 1.0 / (1.0 + math.exp(lb - la))
      Array(overrides.getOrElse(id, g0), la, lb)
    }
    p.pairs
      .withColumn("plb", post(col("pair_id"), col("features")))
      .select(
        col("pair_id"), col("left_id"), col("right_id"),
        col("plb").getItem(0).as("gamma"),
        col("plb").getItem(1).as("la"),
        col("plb").getItem(2).as("lb"),
      )
  }

  def collectRows(df: DataFrame): Seq[GammaRow] =
    df.collect().toSeq.map(r => GammaRow(r.getLong(0), r.getLong(1), r.getLong(2),
                                         r.getDouble(3), r.getDouble(4), r.getDouble(5)))
}
