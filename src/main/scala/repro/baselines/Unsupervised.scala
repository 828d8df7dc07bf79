package repro.baselines

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
    * random init. Each update is the plain mean of each cluster.
    */
  def kmRl(pairs: DataFrame, iters: Int = 15): DataFrame = {
    val d = pairs.select(size(col("features"))).head().getInt(0)
    var cU = Array.fill(d)(0.05)
    var cM = Array.fill(d)(0.95)
    var assigned: DataFrame = null
    for (_ <- 0 until iters) {
      val (bU, bM) = (cU, cM)
      val assign = udf { (x: Seq[Double]) =>
        var dU = 0.0; var dM = 0.0
        var j = 0
        while (j < x.length) {
          val du = x(j) - bU(j); val dm = x(j) - bM(j)
          dU += du * du; dM += dm * dm
          j += 1
        }
        if (dM < dU) 1 else 0
      }
      assigned = pairs.withColumn("cluster", assign(col("features")))
      val stats = assigned
        .select(col("cluster"), posexplode(col("features")).as(Seq("j", "x")))
        .groupBy("cluster", "j").agg(avg("x").as("m"))
        .collect()
      val nM = Array.fill(d)(Double.NaN)
      val nU = Array.fill(d)(Double.NaN)
      stats.foreach { r =>
        val c = r.getInt(0); val j = r.getInt(1)
        if (c == 1) nM(j) = r.getDouble(2) else nU(j) = r.getDouble(2)
      }
      // empty cluster: keep previous centroid (recordlinkage behaviour)
      cM = Array.tabulate(d)(j => if (nM(j).isNaN) cM(j) else nM(j))
      cU = Array.tabulate(d)(j => if (nU(j).isNaN) cU(j) else nU(j))
    }
    assigned.where(col("cluster") === 1).select("left_id", "right_id")
  }

  /** ECM (paper baseline 8): Fellegi-Sunter with binary features and a
    * Bernoulli mixture fitted by expectation-conditional-maximization.
    * Features are binarized at 0.5 of their scaled range — the information
    * loss the paper blames for ECM's poor results.
    */
  def ecm(pairs: DataFrame, iters: Int = 60, binThreshold: Double = 0.5): DataFrame = {
    val d   = pairs.select(size(col("features"))).head().getInt(0)
    val bin = udf((x: Seq[Double]) => x.map(v => if (v > binThreshold) 1.0 else 0.0).toArray)
    val df  = pairs.withColumn("b", bin(col("features"))).select("left_id", "right_id", "b")
    val n   = df.count().toDouble

    var piM = 0.1
    var pM  = Array.fill(d)(0.8)
    var pU  = Array.fill(d)(0.2)
    def clampP(p: Double) = math.min(math.max(p, 1e-4), 1.0 - 1e-4)

    var it = 0
    while (it < iters) {
      val (bpM, bpU, bpi) = (pM, pU, piM)
      val g = udf { (b: Seq[Double]) =>
        var la = math.log(bpi); var lb = math.log1p(-bpi)
        var j = 0
        while (j < b.length) {
          if (b(j) > 0.5) { la += math.log(bpM(j)); lb += math.log(bpU(j)) }
          else            { la += math.log1p(-bpM(j)); lb += math.log1p(-bpU(j)) }
          j += 1
        }
        LinAlg.posterior(la, lb)
      }
      val rows = df.select(g(col("b")).as("g"), posexplode(col("b")).as(Seq("j", "x")))
        .groupBy("j")
        .agg(sum("g").as("sg"), sum(col("g") * col("x")).as("sgx"), sum("x").as("sx"))
        .collect().sortBy(_.getInt(0))
      val nM = math.max(rows(0).getDouble(1), 1e-9)
      val nU = math.max(n - nM, 1e-9)
      pM  = rows.map(r => clampP(r.getDouble(2) / nM))
      pU  = rows.map(r => clampP((r.getDouble(3) - r.getDouble(2)) / nU))
      piM = math.min(math.max(nM / n, 1e-6), 1.0 - 1e-6)
      it += 1
    }
    // identify match component = higher mean Bernoulli rate
    val (fM, fU, fpi) = if (pM.sum >= pU.sum) (pM, pU, piM) else (pU, pM, 1.0 - piM)
    val gFinal = udf { (b: Seq[Double]) =>
      var la = math.log(fpi); var lb = math.log1p(-fpi)
      var j = 0
      while (j < b.length) {
        if (b(j) > 0.5) { la += math.log(fM(j)); lb += math.log(fU(j)) }
        else            { la += math.log1p(-fM(j)); lb += math.log1p(-fU(j)) }
        j += 1
      }
      LinAlg.posterior(la, lb)
    }
    df.where(gFinal(col("b")) > 0.5).select("left_id", "right_id")
  }
}
