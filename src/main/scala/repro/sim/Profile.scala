package repro.sim

import java.util.regex.Pattern

/** What the similarity measures read from one attribute value, each part
  * computed at most once (on first use): the normalized string, its sorted
  * distinct word tokens and padded q-grams, its digits and its value as a
  * number. [[FeatureGen]] builds one profile per distinct value and task
  * and evaluates every measure of every pair on profiles.
  */
final class Profile(val raw: String, q: Int = 3) {
  lazy val norm: String = Profile.normalize(raw)

  /** Word tokens (split on non-alphanumeric), distinct and sorted. */
  lazy val tokens: Array[String] = Profile.splitTokens(norm).distinct.sorted

  /** Character q-grams of the padded string, distinct and sorted. Strings
    * shorter than q yield the padded grams so the measure stays defined.
    */
  lazy val qgrams: Array[String] =
    if (norm.isEmpty) Array.empty
    else {
      val pad = ("#" * (q - 1)) + norm + ("#" * (q - 1))
      Array.tabulate(pad.length - q + 1)(i => pad.substring(i, i + q)).distinct.sorted
    }

  lazy val digits: String = raw.filter(_.isDigit)

  lazy val number: Option[Double] = raw.trim.toDoubleOption
}

/** The string operations behind [[Profile]] and [[ProfileSims]]. */
object Profile {

  private val Whitespace = Pattern.compile("\\s+")
  private val NonAlnum   = Pattern.compile("[^a-z0-9]+")

  /** Lowercase, collapse whitespace, strip leading/trailing space. */
  def normalize(s: String): String =
    Whitespace.matcher(s.toLowerCase).replaceAll(" ").trim

  private[sim] def splitTokens(normalized: String): Array[String] =
    NonAlnum.split(normalized).filter(_.nonEmpty)

  /** Levenshtein edit distance (iterative two-row DP). */
  def levenshtein(a: String, b: String): Int = {
    if (a == b) return 0
    if (a.isEmpty) return b.length
    if (b.isEmpty) return a.length
    var prev = Array.tabulate(b.length + 1)(identity)
    var curr = new Array[Int](b.length + 1)
    var i = 1
    while (i <= a.length) {
      curr(0) = i
      var j = 1
      while (j <= b.length) {
        val cost = if (a.charAt(i - 1) == b.charAt(j - 1)) 0 else 1
        curr(j) = math.min(math.min(curr(j - 1) + 1, prev(j) + 1), prev(j - 1) + cost)
        j += 1
      }
      val t = prev; prev = curr; curr = t
      i += 1
    }
    prev(b.length)
  }
}

/** The similarity measures of Magellan-style feature vectors (Figure 1(c)
  * of the paper), on two [[Profile]]s: the one implementation of each
  * measure. Every measure returns a similarity in [0, 1] (1 = identical)
  * and is deterministic and symmetric; NULL values are handled by
  * [[FeatureGen]] before these are called. Set measures merge the
  * profiles' sorted distinct arrays.
  */
object ProfileSims {

  /** Levenshtein similarity: 1 - dist / max(len). Empty-vs-empty = 1. */
  def levSim(a: Profile, b: Profile): Double = {
    val m = math.max(a.norm.length, b.norm.length)
    if (m == 0) 1.0 else 1.0 - Profile.levenshtein(a.norm, b.norm).toDouble / m
  }

  /** Jaro similarity. */
  def jaro(a: Profile, b: Profile): Double = jaroOf(a.norm, b.norm)

  /** Jaro-Winkler similarity with standard scaling p=0.1, prefix cap 4. */
  def jaroWinkler(a: Profile, b: Profile): Double = {
    val x = a.norm; val y = b.norm
    val j = jaroOf(x, y)
    var prefix = 0
    while (prefix < math.min(4, math.min(x.length, y.length)) &&
           x.charAt(prefix) == y.charAt(prefix)) prefix += 1
    j + prefix * 0.1 * (1.0 - j)
  }

  /** Jaro similarity of two normalized strings. */
  private def jaroOf(a: String, b: String): Double = {
    if (a.isEmpty && b.isEmpty) return 1.0
    if (a.isEmpty || b.isEmpty) return 0.0
    val window = math.max(0, math.max(a.length, b.length) / 2 - 1)
    val aMatched = new Array[Boolean](a.length)
    val bMatched = new Array[Boolean](b.length)
    var matches = 0
    var i = 0
    while (i < a.length) {
      val lo = math.max(0, i - window)
      val hi = math.min(b.length - 1, i + window)
      var j = lo
      var done = false
      while (j <= hi && !done) {
        if (!bMatched(j) && a.charAt(i) == b.charAt(j)) {
          aMatched(i) = true; bMatched(j) = true; matches += 1; done = true
        }
        j += 1
      }
      i += 1
    }
    if (matches == 0) return 0.0
    // transpositions: compare matched chars in order
    var transpositions = 0
    var k = 0
    i = 0
    while (i < a.length) {
      if (aMatched(i)) {
        while (!bMatched(k)) k += 1
        if (a.charAt(i) != b.charAt(k)) transpositions += 1
        k += 1
      }
      i += 1
    }
    val m = matches.toDouble
    (m / a.length + m / b.length + (m - transpositions / 2.0) / m) / 3.0
  }

  /** Size of the intersection of two sorted distinct arrays. */
  private def common(x: Array[String], y: Array[String]): Int = {
    var i = 0; var j = 0; var n = 0
    while (i < x.length && j < y.length) {
      val c = x(i).compareTo(y(j))
      if (c == 0) { n += 1; i += 1; j += 1 }
      else if (c < 0) i += 1
      else j += 1
    }
    n
  }

  def jaccard(x: Array[String], y: Array[String]): Double = {
    if (x.isEmpty && y.isEmpty) 1.0
    else if (x.isEmpty || y.isEmpty) 0.0
    else {
      val inter = common(x, y).toDouble
      inter / (x.length + y.length - inter)
    }
  }

  def cosine(x: Array[String], y: Array[String]): Double = {
    if (x.isEmpty && y.isEmpty) 1.0
    else if (x.isEmpty || y.isEmpty) 0.0
    else common(x, y).toDouble / math.sqrt(x.length.toDouble * y.length)
  }

  def dice(x: Array[String], y: Array[String]): Double = {
    if (x.isEmpty && y.isEmpty) 1.0
    else if (x.isEmpty || y.isEmpty) 0.0
    else 2.0 * common(x, y) / (x.length + y.length)
  }

  def overlap(x: Array[String], y: Array[String]): Double = {
    if (x.isEmpty && y.isEmpty) 1.0
    else if (x.isEmpty || y.isEmpty) 0.0
    else common(x, y).toDouble / math.min(x.length, y.length)
  }

  def jaccardQgram(a: Profile, b: Profile): Double = jaccard(a.qgrams, b.qgrams)
  def cosineQgram(a: Profile, b: Profile): Double  = cosine(a.qgrams, b.qgrams)

  def jaccardTokens(a: Profile, b: Profile): Double = jaccard(a.tokens, b.tokens)
  def cosineTokens(a: Profile, b: Profile): Double  = cosine(a.tokens, b.tokens)
  def diceTokens(a: Profile, b: Profile): Double    = dice(a.tokens, b.tokens)
  def overlapTokens(a: Profile, b: Profile): Double = overlap(a.tokens, b.tokens)

  /** Exact match after normalization. */
  def exact(a: Profile, b: Profile): Double = if (a.norm == b.norm) 1.0 else 0.0

  /** Relative similarity of two numeric strings: 1 - |a-b| / max(|a|,|b|).
    * Non-parsable values fall back to exact match.
    */
  def numericSim(a: Profile, b: Profile): Double = (a.number, b.number) match {
    case (Some(x), Some(y)) =>
      val m = math.max(math.abs(x), math.abs(y))
      if (m == 0.0) 1.0 else math.max(0.0, 1.0 - math.abs(x - y) / m)
    case _ => exact(a, b)
  }

  /** Similarity on digits only — robust to phone formatting divergence
    * between the source tables (`213/467-1108` vs `213-467-1108`).
    */
  def digitsExact(a: Profile, b: Profile): Double = if (a.digits == b.digits) 1.0 else 0.0
}
