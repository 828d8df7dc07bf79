package repro.sim

import scala.collection.mutable

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

/** Magellan-style feature generation (paper §2.1, Figure 1(c)).
  *
  * Given a pair DataFrame with `l_<attr>` / `r_<attr>` columns, emits a
  * `features: array<double>` column holding one similarity per (attribute,
  * function) combination, in spec order. A pair with a NULL on either side
  * of an attribute gets NaN for that group's features; NaNs are later
  * mean-imputed by [[FeatureGen.imputeAndScale]] (the reference ZeroER
  * implementation does the same for Magellan's NaNs).
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
    * `l_<attr>` and `r_<attr>` string columns for every spec attribute.
    * The pairs are first coalesced (narrow, no shuffle) to at most one
    * partition per core of the session, so every later scan of the result
    * (scaling, correlation, each EM pass) is one wave of tasks. Each task
    * profiles every distinct attribute value it meets once (a task-local
    * memo of [[Profile]]s), then evaluates every function of every pair on
    * the two profiles.
    */
  def addFeatures(pairs: DataFrame, specs: Seq[AttrSpec]): DataFrame = {
    val sims  = specs.map(_.sims.map(_.f).toArray).toArray
    val d     = numFeatures(specs)
    val width = pairs.columns.length
    val attrs = specs.flatMap(s => Seq(col(s"l_${s.attr}"), col(s"r_${s.attr}"))).map(_.cast("string"))
    val out   = pairs.schema.add("features", ArrayType(DoubleType, containsNull = false))
    pairs.select(pairs.columns.toSeq.map(c => pairs.col(s"`$c`")) ++ attrs: _*)
      .coalesce(pairs.sparkSession.sparkContext.defaultParallelism)
      .mapPartitions { rows =>
        val memo = mutable.HashMap.empty[String, Profile]
        def profile(r: Row, i: Int): Profile =
          if (r.isNullAt(i)) null
          else { val s = r.getString(i); memo.getOrElseUpdate(s, new Profile(s)) }
        rows.map { r =>
          val feats = new Array[Double](d)
          var k = 0
          var g = 0
          while (g < sims.length) {
            val l  = profile(r, width + 2 * g)
            val rt = profile(r, width + 2 * g + 1)
            sims(g).foreach { f =>
              feats(k) = if (l == null || rt == null) Double.NaN else f(l, rt)
              k += 1
            }
            g += 1
          }
          Row.fromSeq(r.toSeq.take(width) :+ feats)
        }
      }(Encoders.row(out))
  }

  /** Mean-impute NaNs then min-max scale each feature to [0,1] (paper §3.3:
    * "we first use a min-max scaler to normalize every feature into [0,1]").
    * Constant features scale to 0; a feature with no value scales to 0.
    * Stats are computed over `df` itself in one job without a shuffle:
    * each partition summarizes its rows, and the driver merges the
    * summaries. Means are summed with compensation, so they are exact to
    * about an ulp whatever the partitioning and row order.
    */
  def imputeAndScale(df: DataFrame, featCol: String = "features"): DataFrame = {
    val spark = df.sparkSession
    import spark.implicits._
    // per partition and feature j, over the non-NaN values: min at j, max
    // at d + j, sum at 2d + j with its compensation at 3d + j, count at 4d + j
    val parts = df.select(col(featCol)).as[Array[Double]].mapPartitions { rows =>
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
    val mn   = Array.tabulate(d)(j => if (count(j) > 0) parts.map(_(j)).min else 0.0)
    val mx   = Array.tabulate(d)(j => if (count(j) > 0) parts.map(_(d + j)).max else 0.0)
    val mean = Array.tabulate(d)(j => if (count(j) > 0) (sum(j) + sum(d + j)) / count(j) else 0.0)
    val scale = udf { (xs: Seq[Double]) =>
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
    df.withColumn(featCol, scale(col(featCol)))
  }
}
