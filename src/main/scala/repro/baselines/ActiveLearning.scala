package repro.baselines

import org.apache.spark.ml.classification.RandomForestClassifier
import org.apache.spark.ml.functions.array_to_vector
import org.apache.spark.ml.linalg.Vector
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.blocking.Blocking
import repro.eval.Metrics

/** AL-RF (paper baseline 10): uncertainty-sampling active learning over a
  * 50-tree random forest, as in modAL. Starts from 10 random labels, repeatedly
  * queries the pool examples whose match probability is closest to 0.5,
  * and stops once it has labeled 50% of all matches or 50% of the pool
  * (§5.1). Queries are batched (modAL's default queries one example per
  * iteration; batching only changes wall-clock, not the sampling policy).
  */
object ActiveLearning {

  final case class AlResult(prf: Metrics.PRF, labelsUsed: Int,
                            history: Seq[(Int, Double)]) // (labels, F1 on pool)

  /** @param labeled candidate pairs (`left_id`, `right_id`) with `features`
    *                and ground-truth `label`; each gets its `pair_id` here
    * @param batch   queries per iteration
    * @param maxRounds safety cap on AL iterations
    */
  def alrf(labeled: DataFrame, seed: Long = 42, batch: Int = 50,
           maxRounds: Int = 30): AlResult = {
    val pool0 = Blocking.withPairId(labeled)
      .select(col("pair_id"), col("left_id"), col("right_id"),
              array_to_vector(col("features")).as("fvec"), col("label"))
      .cache()
    val n        = pool0.count()
    val nMatches = pool0.where(col("label") === 1.0).count()
    val stopAt   = math.min(nMatches / 2.0, n / 2.0)

    // pair_id -> label of the labeled pairs, collected with each query
    var labels = Map.empty[Long, Double]
    def label(query: DataFrame): Int = {
      val rows = query.select("pair_id", "label").collect()
      labels ++= rows.map(r => r.getLong(0) -> r.getDouble(1))
      rows.length
    }
    label(pool0.orderBy(rand(seed)).limit(10))
    var history  = Vector.empty[(Int, Double)]
    var lastPrf  = Metrics.PRF(0, 0, 0)
    var round    = 0
    var done     = false

    while (round < maxRounds && !done) {
      val ids       = pool0.sparkSession.sparkContext.broadcast(labels)
      val isLabeled = udf((id: Long) => ids.value.contains(id))
      val train = pool0.where(isLabeled(col("pair_id")))
      val rest  = pool0.where(!isLabeled(col("pair_id")))
      val rf = new RandomForestClassifier().setNumTrees(50).setMaxDepth(10)
        .setSeed(seed + round).setFeaturesCol("fvec").setLabelCol("label")
      val model = rf.fit(Supervised.oversample(train))
      val scored = model.transform(rest).cache()

      // a 10-example random seed set can be single-class -> probability
      // vector of length 1; treat that as "no match evidence yet"
      val pMatch = udf((v: Vector) => if (v.size > 1) v(1) else 0.0)
      lastPrf = Metrics.prf(
        scored.where(col("prediction") === 1.0).select("left_id", "right_id"),
        rest.where(col("label") === 1.0).select("left_id", "right_id"))
      history :+= ((labels.size, lastPrf.f1))

      if (labels.count(_._2 == 1.0) >= stopAt || labels.size >= n / 2.0) done = true
      else {
        // uncertainty sampling: probability closest to 0.5, ties (a whole
        // single-class pool scores alike) by pair_id, so reruns agree
        done = label(scored
          .withColumn("unc", abs(pMatch(col("probability")) - lit(0.5)))
          .orderBy(col("unc"), col("pair_id"))
          .limit(batch)) == 0
      }
      scored.unpersist()
      ids.destroy()
      round += 1
    }
    pool0.unpersist()
    AlResult(lastPrf, labels.size, history)
  }
}
