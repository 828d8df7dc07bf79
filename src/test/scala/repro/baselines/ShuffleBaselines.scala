package repro.baselines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.core.LinAlg
import repro.eval.Metrics

/** Test-only reference: the earlier ECM, KM-RL and PP* implementations, a
  * `posexplode` + `groupBy` aggregate and a fresh UDF per iteration, and one
  * `PPJoin.join` per configuration of the sweep. The one-pass versions in
  * [[Unsupervised]] and [[PPJoin.best]] must give the same results.
  */
object ShuffleBaselines {

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
      cM = Array.tabulate(d)(j => if (nM(j).isNaN) cM(j) else nM(j))
      cU = Array.tabulate(d)(j => if (nU(j).isNaN) cU(j) else nU(j))
    }
    assigned.where(col("cluster") === 1).select("left_id", "right_id")
  }

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

  def ppBest(left: DataFrame, right: DataFrame, idCol: String, attrs: Seq[String],
             truth: DataFrame): PPJoin.Best = {
    val configs = for {
      s <- Seq("jaccard", "cosine")
      t <- Seq(0.2, 0.4, 0.6, 0.8, 1.0)
    } yield (s, t)
    configs.map { case (s, t) =>
      val prf = Metrics.prf(PPJoin.join(left, right, idCol, attrs, s, t), truth)
      PPJoin.Best(s, t, prf.f1, prf.precision, prf.recall)
    }.maxBy(_.f1)
  }
}
