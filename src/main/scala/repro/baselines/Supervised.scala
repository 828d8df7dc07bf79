package repro.baselines

import org.apache.spark.ml.classification._
import org.apache.spark.ml.functions.array_to_vector
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Supervised baselines of Table 3 (LR, RF, MLP) plus the DeepMatcher
  * stand-in (GBT; see DESIGN.md "Dataset substitution"): 50/50 train-test
  * split over the candidate set, match oversampling against class
  * imbalance, evaluation on the held-out half (§5.1).
  */
object Supervised {

  val methods: Seq[String] = Seq("LR", "RF", "MLP", "DM")

  /** labeled: left_id, right_id, features, label (from
    * [[repro.eval.Metrics.withLabel]]).
    */
  final case class Split(train: DataFrame, test: DataFrame)

  def split5050(labeled: DataFrame, seed: Long): Split = {
    val Array(tr, te) = labeled.randomSplit(Array(0.5, 0.5), seed)
    Split(tr, te)
  }

  /** Duplicate match rows so matches are ~1/4 of the training set — the
    * standard imbalance mitigation the paper applies (§5.1).
    */
  def oversample(train: DataFrame): DataFrame = {
    val nM = train.where(col("label") === 1.0).count()
    val nU = train.count() - nM
    if (nM == 0) return train
    val factor = math.max(1L, nU / (3 * math.max(nM, 1L))).toInt
    if (factor <= 1) train
    else train.withColumn("rep",
           when(col("label") === 1.0, lit(factor)).otherwise(lit(1)))
      .withColumn("rep", explode(array_repeat(lit(1), col("rep"))))
      .drop("rep")
  }

  private def classifier(method: String, d: Int, seed: Long) = method match {
    case "LR" =>
      new LogisticRegression().setMaxIter(100).setRegParam(0.01)
        .setFeaturesCol("fvec").setLabelCol("label")
    case "RF" =>
      new RandomForestClassifier().setNumTrees(100).setMaxDepth(12)
        .setMinInstancesPerNode(2).setSeed(seed)
        .setFeaturesCol("fvec").setLabelCol("label")
    case "MLP" =>
      new MultilayerPerceptronClassifier().setLayers(Array(d, 50, 10, 2))
        .setMaxIter(60).setSeed(seed)
        .setFeaturesCol("fvec").setLabelCol("label")
    case "DM" => // DeepMatcher stand-in: gradient-boosted trees
      new GBTClassifier().setMaxIter(40).setMaxDepth(6).setSeed(seed)
        .setFeaturesCol("fvec").setLabelCol("label")
    case other => throw new IllegalArgumentException(s"unknown method $other")
  }

  /** Train on `train` (already labeled), predict matches among `test`. */
  def trainPredict(method: String, train: DataFrame, test: DataFrame,
                   seed: Long = 42): DataFrame = {
    val d   = train.select(size(col("features"))).head().getInt(0)
    val tr  = oversample(train).withColumn("fvec", array_to_vector(col("features")))
    val te  = test.withColumn("fvec", array_to_vector(col("features")))
    val model = classifier(method, d, seed).fit(tr)
    model.transform(te)
      .where(col("prediction") === 1.0)
      .select("left_id", "right_id")
  }

  /** Table 3 protocol: F1 of `method` on the held-out half. */
  def f1(method: String, labeled: DataFrame, seed: Long = 42): repro.eval.Metrics.PRF = {
    val s     = split5050(labeled, seed)
    val preds = trainPredict(method, s.train, s.test, seed)
    repro.eval.Metrics.prf(preds, s.test.where(col("label") === 1.0))
  }
}
