package repro.sim

import scala.collection.mutable

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Encoders, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{ArrayType, DoubleType}

import repro.core.LinAlg.addCompensated

/** A named similarity function on two attribute-value profiles, e.g.
  * `lev_sim` ([[ProfileSims.levSim]]).
  */
final case class SimFn(name: String, f: (Profile, Profile) => Double)

/** All similarity functions applied to one aligned attribute — the paper's
  * *feature group* (§3.1): features inside one group share a covariance
  * block; features across groups are independent.
  */
final case class AttrSpec(attr: String, sims: Seq[SimFn])

/** The per-pair feature kernel: the similarity vector of a pair from its
  * two records' values of the spec attributes, in spec order (NULL as
  * null). One instance lives in one task and profiles every distinct
  * value it meets once (a memo of [[Profile]]s); every function of every
  * pair is then evaluated on the two profiles. A NULL on either side of
  * an attribute gives NaN for that group's features.
  */
final class Featurizer(specs: Seq[AttrSpec]) {
  private val sims = specs.map(_.sims.map(_.f).toArray).toArray
  private val d    = FeatureGen.numFeatures(specs)
  private val memo = mutable.HashMap.empty[String, Profile]

  private def profile(s: String): Profile = if (s == null) null else memo.getOrElseUpdate(s, new Profile(s))

  def apply(left: Array[String], right: Array[String]): Array[Double] = {
    val feats = new Array[Double](d)
    var k = 0
    var g = 0
    while (g < sims.length) {
      val l = profile(left(g))
      val r = profile(right(g))
      sims(g).foreach { f =>
        feats(k) = if (l == null || r == null) Double.NaN else f(l, r)
        k += 1
      }
      g += 1
    }
    feats
  }
}

/** Mean imputation then min-max scaling of one feature vector (paper
  * §3.3: "we first use a min-max scaler to normalize every feature into
  * [0,1]"), with the statistics [[Scaling.fit]] takes: a NaN becomes the
  * feature's mean; a constant feature scales to 0, and so does a feature
  * with no value.
  */
final case class Scaling(mn: Array[Double], mx: Array[Double], mean: Array[Double]) {
  def apply(xs: Array[Double]): Array[Double] = {
    val out = new Array[Double](xs.length)
    var j = 0
    while (j < xs.length) {
      val raw   = if (xs(j).isNaN) mean(j) else xs(j)
      val range = mx(j) - mn(j)
      out(j) = if (range <= 0.0) 0.0 else (raw - mn(j)) / range
      j += 1
    }
    out
  }
}

object Scaling {

  /** The scaling statistics of `features`, in one job without a shuffle:
    * each partition summarizes its vectors, and the driver merges the
    * summaries. Means are summed with compensation, so they are exact to
    * about an ulp whatever the partitioning and row order.
    */
  def fit(features: RDD[Array[Double]]): Scaling = {
    // per partition and feature j, over the non-NaN values: min at j, max
    // at d + j, sum at 2d + j with its compensation at 3d + j, count at 4d + j
    val parts = features.mapPartitions { rows =>
      if (!rows.hasNext) Iterator.empty
      else {
        val first = rows.next()
        val d     = first.length
        val s = Array.tabulate(5 * d)(k => if (k < d) Double.PositiveInfinity
                                           else if (k < 2 * d) Double.NegativeInfinity else 0.0)
        def add(x: Array[Double]): Unit = {
          require(x.length == d, s"feature vectors of length ${x.length} and $d")
          var j = 0
          while (j < d) {
            val v = x(j)
            if (!v.isNaN) {
              s(j) = math.min(s(j), v); s(d + j) = math.max(s(d + j), v)
              addCompensated(s, 2 * d + j, 3 * d + j, v); s(4 * d + j) += 1
            }
            j += 1
          }
        }
        add(first)
        rows.foreach(add)
        Iterator(s)
      }
    }.collect()
    require(parts.map(_.length).distinct.length <= 1, "feature vectors of different lengths")
    val d     = parts.headOption.map(_.length / 5).getOrElse(0)
    val count = Array.tabulate(d)(j => parts.map(_(4 * d + j)).sum)
    val sum   = new Array[Double](2 * d) // compensated sum at j, its error at d + j
    for (p <- parts; j <- 0 until d) {
      addCompensated(sum, j, d + j, p(2 * d + j))
      addCompensated(sum, j, d + j, p(3 * d + j))
    }
    Scaling(Array.tabulate(d)(j => if (count(j) > 0) parts.map(_(j)).min else 0.0),
            Array.tabulate(d)(j => if (count(j) > 0) parts.map(_(d + j)).max else 0.0),
            Array.tabulate(d)(j => if (count(j) > 0) (sum(j) + sum(d + j)) / count(j) else 0.0))
  }
}

/** Magellan-style feature generation (paper §2.1, Figure 1(c)): the specs
  * of each attribute's similarity functions, and the DataFrame layer API
  * over [[Featurizer]] and [[Scaling]].
  *
  * A pair's feature vector holds one similarity per (attribute, function)
  * combination, in spec order. A pair with a NULL on either side of an
  * attribute gets NaN for that group's features; NaNs are later
  * mean-imputed by [[Scaling]] (the reference ZeroER implementation does
  * the same for Magellan's NaNs).
  */
object FeatureGen {

  /** Standard spec for a short string attribute (name, title, venue...). */
  def stringSims: Seq[SimFn] = Seq(
    SimFn("lev_sim", ProfileSims.levSim),
    SimFn("jar_wnk", ProfileSims.jaroWinkler),
    SimFn("jac_qgm_3", ProfileSims.jaccardQgram),
    SimFn("cos_qgm_3", ProfileSims.cosineQgram),
    SimFn("dice_tok", ProfileSims.diceTokens),
    SimFn("ovl_tok", ProfileSims.overlapTokens),
    SimFn("exm", ProfileSims.exact),
  )

  /** Spec for long text (product descriptions): token-set measures only —
    * edit distance on 60-token strings is meaningless and slow.
    */
  def textSims: Seq[SimFn] = Seq(
    SimFn("jac_tok", ProfileSims.jaccardTokens),
    SimFn("cos_tok", ProfileSims.cosineTokens),
    SimFn("dice_tok", ProfileSims.diceTokens),
    SimFn("ovl_tok", ProfileSims.overlapTokens),
  )

  /** Spec for short / near-categorical strings (city, venue, cuisine...):
    * Magellan applies a smaller function set to short attributes, which
    * also avoids amplifying coincidental equality of low-cardinality
    * attributes into a dominant covariance block.
    */
  def shortStringSims: Seq[SimFn] = Seq(
    SimFn("lev_sim", ProfileSims.levSim),
    SimFn("jac_qgm_3", ProfileSims.jaccardQgram),
    SimFn("exm", ProfileSims.exact),
  )

  /** Spec for categorical codes: equality only. */
  def categoricalSims: Seq[SimFn] = Seq(SimFn("exm", ProfileSims.exact))

  /** Spec for phone-like attributes: formatting-robust digit equality. */
  def phoneSims: Seq[SimFn] = Seq(
    SimFn("dig_exm", ProfileSims.digitsExact),
    SimFn("lev_sim", ProfileSims.levSim),
    SimFn("jac_qgm_3", ProfileSims.jaccardQgram),
  )

  /** Spec for numeric attributes (year, price). */
  def numericSims: Seq[SimFn] = Seq(
    SimFn("rel_sim", ProfileSims.numericSim),
    SimFn("exm", ProfileSims.exact),
  )

  /** Flat feature names, `<attr>_<simname>`, in vector order. */
  def featureNames(specs: Seq[AttrSpec]): Seq[String] =
    specs.flatMap(s => s.sims.map(f => s"${s.attr}_${f.name}"))

  /** Feature index -> group (attribute) index, the block structure of §3.1. */
  def groupIndex(specs: Seq[AttrSpec]): Array[Int] =
    specs.zipWithIndex.flatMap { case (s, g) => Seq.fill(s.sims.size)(g) }.toArray

  def numFeatures(specs: Seq[AttrSpec]): Int = specs.map(_.sims.size).sum

  /** Append `features: array<double>` to a pair DataFrame that carries
    * `l_<attr>` and `r_<attr>` string columns for every spec attribute,
    * evaluated by one [[Featurizer]] per task. The pairs are first
    * coalesced (narrow, no shuffle) to at most one partition per core of
    * the session, so every later scan of the result is one wave of tasks.
    *
    * Part of the DataFrame layer API, with `Blocking.withPairAttrs`, that
    * composes preparation one layer at a time, as the tests and the
    * benchmark's traced pass do; `Zeroer.prepareCross` and `prepareSelf`
    * call the [[Featurizer]] in the task that probes the blocking index.
    */
  def addFeatures(pairs: DataFrame, specs: Seq[AttrSpec]): DataFrame = {
    val width = pairs.columns.length
    val attrs = specs.flatMap(s => Seq(col(s"l_${s.attr}"), col(s"r_${s.attr}"))).map(_.cast("string"))
    val out   = pairs.schema.add("features", ArrayType(DoubleType, containsNull = false))
    pairs.select(pairs.columns.toSeq.map(c => pairs.col(s"`$c`")) ++ attrs: _*)
      .coalesce(pairs.sparkSession.sparkContext.defaultParallelism)
      .mapPartitions { rows =>
        val features = new Featurizer(specs)
        rows.map { r =>
          def side(o: Int) = Array.tabulate(specs.length)(g => r.getString(width + 2 * g + o))
          Row.fromSeq(r.toSeq.take(width) :+ features(side(0), side(1)))
        }
      }(Encoders.row(out))
  }

  /** `df` with its `featCol` vectors imputed and scaled ([[Scaling]]) by
    * the statistics of `df` itself, taken in one job.
    */
  def imputeAndScale(df: DataFrame, featCol: String = "features"): DataFrame = {
    val spark = df.sparkSession
    import spark.implicits._
    val scaling = Scaling.fit(df.select(col(featCol)).as[Array[Double]].rdd)
    df.withColumn(featCol, udf((xs: Seq[Double]) => scaling(xs.toArray)).apply(col(featCol)))
  }
}
