package repro.baselines

import java.util.Arrays

import org.apache.spark.ml.clustering.{GaussianMixture, KMeans}
import org.apache.spark.ml.functions.array_to_vector
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.core.LinAlg

/** The clustering baselines of Table 3: naive GMM (sklearn-equivalent),
  * KM-SK (vanilla k-means, k=2), KM-RL (the recordlinkage-toolkit k-means
  * calibrated for the two-cluster ER task).
  */
object Unsupervised {

  private def withVec(pairs: DataFrame): DataFrame =
    pairs.withColumn("fvec", array_to_vector(col("features")))

  /** Naive full-covariance 2-component GMM (paper baseline 7). The match
    * component is the one with the higher total mean similarity.
    */
  def gmm(pairs: DataFrame, seed: Long = 42): DataFrame = {
    val df    = withVec(pairs)
    val model = new GaussianMixture().setK(2).setSeed(seed).setMaxIter(100)
      .setFeaturesCol("fvec").setTol(1e-4).fit(df)
    val matchCluster =
      if (model.gaussians(0).mean.toArray.sum >= model.gaussians(1).mean.toArray.sum) 0 else 1
    model.transform(df)
      .where(col("prediction") === matchCluster)
      .select("left_id", "right_id")
  }

  /** KM-SK (paper baseline 5): scikit-learn-style k-means, k=2, random init. */
  def kmSk(pairs: DataFrame, seed: Long = 42): DataFrame = {
    val df    = withVec(pairs)
    val model = new KMeans().setK(2).setSeed(seed).setMaxIter(50)
      .setFeaturesCol("fvec").fit(df)
    val matchCluster =
      if (model.clusterCenters(0).toArray.sum >= model.clusterCenters(1).toArray.sum) 0 else 1
    model.transform(df)
      .where(col("prediction") === matchCluster)
      .select("left_id", "right_id")
  }

  /** KM-RL (paper baseline 6): the recordlinkage-toolkit variant calibrated
    * for ER's extreme cluster imbalance — Lloyd's algorithm with centroids
    * *fixed-initialized* at similarity 0.05 (unmatch) and 0.95 (match) in
    * every dimension, so the tiny match cluster cannot be swallowed by a
    * random init. Each update is the plain per-cluster mean from one pass
    * summing each cluster's count and Σx, until a fixed point; a typed
    * filter returns the pairs.
    */
  def kmRl(pairs: DataFrame): DataFrame = {
    val d = pairs.select(size(col("features"))).head().getInt(0)
    var (cU, cM) = (Array.fill(d)(0.05), Array.fill(d)(0.95))
    var fixed = false
    for (_ <- 0 until KmRlUpdates if !fixed) {
      val (u, m) = (cU, cM)
      // sums layout: count of U, count of M, then Σx of U and of M (d each)
      val s = sums(pairs, 2 + 2 * d) { (s, x) =>
        val k = if (nearerM(x, u, m)) 1 else 0
        s(k) += 1
        var j = 0
        while (j < d) { s(2 + k * d + j) += x(j); j += 1 }
      }
      // an empty cluster keeps its centroid (recordlinkage behaviour)
      def mean(k: Int, c: Array[Double]) =
        if (s(k) == 0) c else Array.tabulate(d)(j => s(2 + k * d + j) / s(k))
      cU = mean(0, u); cM = mean(1, m)
      fixed = Arrays.equals(cU, u) && Arrays.equals(cM, m)
    }
    val (u, m) = (cU, cM)
    matches(pairs)(nearerM(_, u, m))
  }

  /** ECM (paper baseline 8): Fellegi-Sunter with binary features and a
    * Bernoulli mixture fitted by expectation-conditional-maximization.
    * Features are binarized at 0.5 of their scaled range — the information
    * loss the paper blames for ECM's poor results. Each iteration is one
    * pass summing n, Σγ, Σγ·b and Σb, until a fixed point; a typed filter
    * returns the pairs.
    */
  def ecm(pairs: DataFrame): DataFrame = {
    val d = pairs.select(size(col("features"))).head().getInt(0)
    var (pi, pM, pU) = (0.1, Array.fill(d)(0.8), Array.fill(d)(0.2))
    def clampP(p: Double) = math.min(math.max(p, 1e-4), 1.0 - 1e-4)
    var fixed = false
    for (_ <- 0 until EcmIters if !fixed) {
      val (bpi, bpM, bpU) = (pi, pM, pU)
      // sums layout: n, Σγ, then Σγ·b and Σb (d each)
      val s = sums(pairs, 2 + 2 * d) { (s, x) =>
        val g = ecmGamma(x, bpi, bpM, bpU)
        s(0) += 1; s(1) += g
        var j = 0
        while (j < d) { if (bit(x(j))) { s(2 + j) += g; s(2 + d + j) += 1 }; j += 1 }
      }
      val nM = math.max(s(1), 1e-9)
      val nU = math.max(s(0) - nM, 1e-9)
      pi = math.min(math.max(nM / s(0), 1e-6), 1.0 - 1e-6)
      pM = Array.tabulate(d)(j => clampP(s(2 + j) / nM))
      pU = Array.tabulate(d)(j => clampP((s(2 + d + j) - s(2 + j)) / nU))
      fixed = pi == bpi && Arrays.equals(pM, bpM) && Arrays.equals(pU, bpU)
    }
    // the match component is the one with the higher mean Bernoulli rate
    val (fpi, fM, fU) = if (pM.sum >= pU.sum) (pi, pM, pU) else (1.0 - pi, pU, pM)
    matches(pairs)(ecmGamma(_, fpi, fM, fU) > 0.5)
  }

  // Caps on the updates. KM-RL and ECM stop earlier at a fixed point, an
  // update that leaves every parameter bit for bit as it was: a pass is a
  // deterministic function of the parameters over the same pairs, so every
  // later pass would repeat it and no prediction could change. KM-RL makes
  // at most 15 passes: 14 centroid updates, then the assignment returned.
  private val KmRlUpdates = 14
  private val EcmIters    = 60

  /** KM-RL's rule: x is strictly nearer the match centroid `m` than `u`. */
  private def nearerM(x: Array[Double], u: Array[Double], m: Array[Double]): Boolean = {
    var dU = 0.0; var dM = 0.0
    var j = 0
    while (j < x.length) {
      val du = x(j) - u(j); val dm = x(j) - m(j)
      dU += du * du; dM += dm * dm
      j += 1
    }
    dM < dU
  }

  /** ECM's rule: γ of x's bits under prior `pi` and Bernoulli rates `pM`, `pU`. */
  private def ecmGamma(x: Array[Double], pi: Double, pM: Array[Double], pU: Array[Double]): Double = {
    var la = math.log(pi); var lb = math.log1p(-pi)
    var j = 0
    while (j < x.length) {
      if (bit(x(j))) { la += math.log(pM(j)); lb += math.log(pU(j)) }
      else           { la += math.log1p(-pM(j)); lb += math.log1p(-pU(j)) }
      j += 1
    }
    LinAlg.posterior(la, lb)
  }

  private def bit(v: Double): Boolean = v > 0.5

  /** One job without a shuffle: per-partition sums of `width` doubles over
    * the feature vectors, added on the driver in partition order.
    */
  private def sums(pairs: DataFrame, width: Int)(add: (Array[Double], Array[Double]) => Unit): Array[Double] = {
    val spark = pairs.sparkSession
    import spark.implicits._
    val parts = pairs.select(col("features")).as[Array[Double]].mapPartitions { rows =>
      val s = new Array[Double](width)
      rows.foreach(add(s, _))
      Iterator(s)
    }.collect()
    Array.tabulate(width)(k => parts.foldLeft(0.0)(_ + _(k)))
  }

  /** (left_id, right_id) of the pairs whose features `keep` accepts. */
  private def matches(pairs: DataFrame)(keep: Array[Double] => Boolean): DataFrame = {
    val spark = pairs.sparkSession
    import spark.implicits._
    pairs.select("left_id", "right_id", "features").as[(Long, Long, Array[Double])]
      .filter(r => keep(r._3)).select("left_id", "right_id")
  }
}
