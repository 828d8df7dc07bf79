package perfbench

import org.apache.spark.sql.SparkSession

import repro.core.ZeroerModel.{Config, TransMode}
import repro.erdata.{Datasets, ErDataset}

/** One benchmark workload: a dataset generator at a fixed scale, whether the
  * within-table sides are prepared (Algorithm 2 needs them), and the EM
  * configurations fitted, in order, on the sides prepared once per pass.
  *
  * Every configuration runs a fixed number of EM iterations (a negative
  * `tol` disables the convergence test). The iteration count at which EM
  * converges moves with the seed (4 to 10 on AB, 2 to 4 on FZ), and with it
  * a third of a pass's time; a fixed budget keeps the work per pass the same
  * for every seed, so the run-to-run spread measures the program, not the
  * input's convergence speed.
  *
  * `referenceF1` is the mean F1 over `configs` at `defaultSeed` with
  * `Main.ShufflePartitions` shuffle partitions, measured on the program as
  * it was when the benchmark was defined. F1 depends on the partition count
  * (floating-point reduction order), so it is only comparable at the
  * benchmark's own Spark settings.
  */
final case class Workload(
    name: String,
    gen: (SparkSession, Double, Long) => ErDataset,
    scale: Double,
    defaultSeed: Long,
    selfSides: Boolean,
    configs: Seq[Config],
    referenceF1: Double,
)

object Workloads {

  // Why each workload is here (both are small: Spark's per-job cost, not the
  // row count, sets most of a pass's time, and a run, a warm-up pass and
  // at least one measured pass in a fresh JVM, must stay near a minute):
  //  - ab-alg1: blocking and similarity features over long product text do
  //    most of the work (~11k cross pairs, prep ~2/3 of a pass); EM is one
  //    side with no transitivity.
  //  - fz-alg2: Algorithm 2 on three sides; constrained EM iterations (3
  //    moment passes and 3 posterior collections each) are a third of a pass
  //    on a small n, so it shows per-job and per-iteration overhead and is
  //    the only workload on the transitivity path.
  val all: Seq[Workload] = Seq(
    Workload("ab-alg1", Datasets.ab, 0.2, 17, selfSides = false,
             Seq(Config(transMode = TransMode.Off, maxIter = 6, tol = -1.0)), referenceF1 = 0.696697),
    Workload("fz-alg2", Datasets.fz, 0.3, 7, selfSides = true,
             Seq(Config(transMode = TransMode.Constraint, maxIter = 2, tol = -1.0)), referenceF1 = 0.927536),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(
        s"unknown workload '$name' (one of ${all.map(_.name).mkString(", ")})"))
}
