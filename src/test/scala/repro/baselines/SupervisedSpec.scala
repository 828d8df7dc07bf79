package repro.baselines

import org.apache.spark.sql.functions._

import repro.SparkSpec
import repro.blocking.Blocking
import repro.core.Zeroer
import repro.erdata.Datasets
import repro.eval.{LabelBudget, Metrics}

class SupervisedSpec extends SparkSpec {

  /** Labeled FZ candidate pairs at small scale, cached once per suite. */
  private lazy val labeled = {
    val ds    = Datasets.fz(spark, scale = 0.4)
    val cross = Zeroer.prepareCross(ds)
    Metrics.withLabel(cross.pairs, ds.truth).cache()
  }

  test("split5050 partitions the candidate set") {
    val s = Supervised.split5050(labeled, seed = 1)
    val n = labeled.count()
    assert(s.train.count() + s.test.count() == n)
    assert(s.train.join(s.test, Seq("left_id", "right_id")).count() == 0)
  }

  test("oversample raises the match fraction") {
    val s = Supervised.split5050(labeled, seed = 1)
    val before = s.train.where(col("label") === 1.0).count().toDouble / s.train.count()
    val over   = Supervised.oversample(s.train)
    val after  = over.where(col("label") === 1.0).count().toDouble / over.count()
    assert(after > before)
    assert(after >= 0.15, s"oversampled match fraction $after")
  }

  test("oversample keeps all unmatch rows") {
    val s = Supervised.split5050(labeled, seed = 1)
    val u0 = s.train.where(col("label") === 0.0).count()
    val u1 = Supervised.oversample(s.train).where(col("label") === 0.0).count()
    assert(u0 == u1)
  }

  for (method <- Supervised.methods) {
    test(s"$method achieves high F1 on the easy dataset") {
      val prf = Supervised.f1(method, labeled, seed = 42)
      info(s"$method on FZ/0.4: $prf")
      assert(prf.f1 > 0.8, s"$method: $prf")
    }
  }

  test("unknown method is rejected") {
    intercept[IllegalArgumentException] {
      Supervised.f1("SVM-QUANTUM", labeled)
    }
  }

  test("trainPredict only predicts pairs from the test set") {
    val s = Supervised.split5050(labeled, seed = 3)
    val preds = Supervised.trainPredict("RF", s.train, s.test)
    val outside = preds.join(
      s.test.select("left_id", "right_id"), Seq("left_id", "right_id"), "left_anti")
    assert(outside.count() == 0)
  }

  test("AL-RF reaches high F1 with a fraction of the labels") {
    val res = ActiveLearning.alrf(labeled, seed = 42, batch = 25, maxRounds = 12)
    info(s"AL-RF on FZ/0.4: ${res.prf} with ${res.labelsUsed} labels")
    assert(res.prf.f1 > 0.7, s"${res.prf}")
    assert(res.labelsUsed < labeled.count() / 2 + 25)
    assert(res.history.nonEmpty)
    // tied uncertainties are queried in pair_id order, so a rerun is identical
    assert(ActiveLearning.alrf(labeled, seed = 42, batch = 25, maxRounds = 12) == res)
  }

  test("label budget grid is increasing and capped at n") {
    val g = LabelBudget.grid(1000)
    assert(g == g.sorted)
    assert(g.last == 1000)
    assert(g.forall(_ <= 1000))
  }

  test("labelsNeeded finds a budget on an easy dataset") {
    val needed = LabelBudget.labelsNeeded("RF", labeled, targetF1 = 0.5, seed = 42)
    info(s"RF labels needed for F1>=0.5 on FZ/0.4: $needed")
    assert(needed.isDefined)
    assert(needed.get <= labeled.count())
  }

  test("labelsNeeded returns None for an unreachable target") {
    val needed = LabelBudget.labelsNeeded("LR", labeled.limit(60), targetF1 = 1.1)
    assert(needed.isEmpty)
  }
}
