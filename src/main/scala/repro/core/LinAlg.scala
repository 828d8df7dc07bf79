package repro.core

/** Small dense symmetric linear algebra for the block-diagonal covariance
  * matrices of the ZeroER generative model (§3.1). Blocks are one per
  * attribute, i.e. at most ~7x7 — driver-side scalar code is the right
  * tool; Spark only ever sees the precomputed inverses via closures.
  */
object LinAlg {

  /** Cholesky factor L (lower) of a symmetric PD matrix, or None if the
    * matrix is not (numerically) positive definite.
    */
  def cholesky(a: Array[Array[Double]]): Option[Array[Array[Double]]] = {
    val n = a.length
    val l = Array.ofDim[Double](n, n)
    var i = 0
    while (i < n) {
      var j = 0
      while (j <= i) {
        var s = a(i)(j)
        var k = 0
        while (k < j) { s -= l(i)(k) * l(j)(k); k += 1 }
        if (i == j) {
          if (s <= 0.0 || s.isNaN) return None
          l(i)(i) = math.sqrt(s)
        } else l(i)(j) = s / l(j)(j)
        j += 1
      }
      i += 1
    }
    Some(l)
  }

  /** Cholesky with escalating diagonal jitter; returns (L, jitter used).
    * The covariance of a near-duplicate feature pair (correlation ~= 1) is
    * numerically singular — jitter is the standard fix and only perturbs
    * the density, not the EM fixed point, at these magnitudes.
    */
  def choleskyJittered(a: Array[Array[Double]]): (Array[Array[Double]], Double) = {
    cholesky(a) match {
      case Some(l) => (l, 0.0)
      case None =>
        var jitter = 1e-10
        while (jitter < 1.0) {
          val b = a.map(_.clone())
          var i = 0
          while (i < b.length) { b(i)(i) += jitter; i += 1 }
          cholesky(b) match {
            case Some(l) => return (l, jitter)
            case None    => jitter *= 10
          }
        }
        // Fully degenerate: fall back to the diagonal.
        val b = Array.ofDim[Double](a.length, a.length)
        var i = 0
        while (i < a.length) { b(i)(i) = math.max(a(i)(i), 1e-8); i += 1 }
        (cholesky(b).get, -1.0)
    }
  }

  /** Inverse from a Cholesky factor: A^-1 = L^-T L^-1. */
  def invFromCholesky(l: Array[Array[Double]]): Array[Array[Double]] = {
    val n = l.length
    // forward-substitute columns of I to get L^-1
    val linv = Array.ofDim[Double](n, n)
    var c = 0
    while (c < n) {
      var i = c
      while (i < n) {
        var s = if (i == c) 1.0 else 0.0
        var k = c
        while (k < i) { s -= l(i)(k) * linv(k)(c); k += 1 }
        linv(i)(c) = s / l(i)(i)
        i += 1
      }
      c += 1
    }
    val inv = Array.ofDim[Double](n, n)
    var i = 0
    while (i < n) {
      var j = 0
      while (j <= i) {
        var s = 0.0
        var k = math.max(i, j)
        while (k < n) { s += linv(k)(i) * linv(k)(j); k += 1 }
        inv(i)(j) = s; inv(j)(i) = s
        j += 1
      }
      i += 1
    }
    inv
  }

  /** log det(A) = 2 * sum log L_ii. */
  def logdetFromCholesky(l: Array[Array[Double]]): Double = {
    var s = 0.0
    var i = 0
    while (i < l.length) { s += math.log(l(i)(i)); i += 1 }
    2.0 * s
  }

  /** Adds `v` to the compensated sum held at `a(k)` with its running
    * error at `a(c)` (Neumaier's variant of Kahan summation).
    */
  def addCompensated(a: Array[Double], k: Int, c: Int, v: Double): Unit = {
    val t = a(k) + v
    a(c) += (if (math.abs(a(k)) >= math.abs(v)) (a(k) - t) + v else (v - t) + a(k))
    a(k) = t
  }

  /** Numerically stable log(exp(a) + exp(b)). */
  def logSumExp(a: Double, b: Double): Double = {
    val m = math.max(a, b)
    if (m.isNegInfinity) Double.NegativeInfinity
    else m + math.log(math.exp(a - m) + math.exp(b - m))
  }

  /** Posterior weight of the first of two components from their log
    * joints: e^a / (e^a + e^b) = 1 / (1 + e^(b−a)).
    */
  def posterior(a: Double, b: Double): Double = 1.0 / (1.0 + math.exp(b - a))

  /** Cosine similarity of two matrices flattened to vectors (Table 1). */
  def cosineFlat(a: Array[Array[Double]], b: Array[Array[Double]]): Double = {
    var dot = 0.0; var na = 0.0; var nb = 0.0
    var i = 0
    while (i < a.length) {
      var j = 0
      while (j < a(i).length) {
        dot += a(i)(j) * b(i)(j)
        na += a(i)(j) * a(i)(j)
        nb += b(i)(j) * b(i)(j)
        j += 1
      }
      i += 1
    }
    if (na == 0.0 || nb == 0.0) 0.0 else dot / math.sqrt(na * nb)
  }
}
