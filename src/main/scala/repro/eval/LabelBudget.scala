package repro.eval

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.baselines.{ActiveLearning, Supervised}

/** Table 4 reproduction: the number of labeled examples a supervised (or
  * active learning) method needs to match ZeroER's F1. A random labeled
  * subset of size k is drawn (labeling is blind — you cannot choose
  * informative examples without labels), the model is trained on it and
  * evaluated on the remainder; the smallest k on an increasing grid that
  * reaches the target F1 is reported. `None` = never reaches it (the
  * paper's asterisk entries, reported as the total pair count).
  */
object LabelBudget {

  def grid(n: Long): Seq[Int] =
    Seq(50, 200, 800, 3200, 12800).filter(_ < n) :+ n.toInt

  /** Cap the evaluation remainder so a budget search over a 300k-pair
    * candidate set does not pay a full-scan transform per grid point;
    * the sampled F1 estimate is what the search thresholds on.
    */
  private val EvalCap = 60000L

  /** Smallest label budget on the grid reaching `targetF1`. */
  def labelsNeeded(method: String, labeled: DataFrame, targetF1: Double,
                   seed: Long = 42): Option[Int] = {
    val n = labeled.count()
    grid(n).iterator.map { k =>
      val f1 =
        if (k >= n) Supervised.f1(method, labeled, seed).f1 // all data: 50/50 protocol
        else {
          val train = labeled.orderBy(rand(seed + k)).limit(k)
          val rest  = labeled.join(train.select("left_id", "right_id"), Seq("left_id", "right_id"), "left_anti")
          val test  = if (n - k > EvalCap) rest.sample(EvalCap.toDouble / (n - k), seed) else rest
          if (train.where(col("label") === 1.0).count() == 0) 0.0
          else Metrics.prf(
            Supervised.trainPredict(method, train, test, seed),
            test.where(col("label") === 1.0)).f1
        }
      (k, f1)
    }.collectFirst { case (k, f1) if f1 >= targetF1 => k }
  }

  /** Label budget for AL-RF: first point in the AL history reaching target. */
  def labelsNeededAl(labeled: DataFrame, targetF1: Double,
                     seed: Long = 42): Option[Int] = {
    val res = ActiveLearning.alrf(labeled, seed)
    res.history.collectFirst { case (k, f1) if f1 >= targetF1 => k }
  }
}
