package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen

import LinAlg._

class LinAlgSpec extends AnyFunSuite with repro.GenChecks {

  private def matMul(a: Array[Array[Double]], b: Array[Array[Double]]): Array[Array[Double]] =
    Array.tabulate(a.length, b(0).length)((i, j) =>
      a(i).indices.map(k => a(i)(k) * b(k)(j)).sum)

  private val psdGen: Gen[Array[Array[Double]]] = for {
    n <- Gen.choose(1, 6)
    vals <- Gen.listOfN(n * n, Gen.choose(-1.0, 1.0))
  } yield {
    val b = vals.grouped(n).map(_.toArray).toArray
    // A = B B^T + I is symmetric positive definite
    val a = matMul(b, b.map(identity).transpose)
    (0 until n).foreach(i => a(i)(i) += 1.0)
    a
  }

  test("cholesky of identity is identity") {
    val id = Array(Array(1.0, 0.0), Array(0.0, 1.0))
    val l  = cholesky(id).get
    assert(l(0)(0) == 1.0 && l(1)(1) == 1.0 && l(1)(0) == 0.0)
  }

  test("cholesky known 2x2") {
    val a = Array(Array(4.0, 2.0), Array(2.0, 3.0))
    val l = cholesky(a).get
    assert(math.abs(l(0)(0) - 2.0) < 1e-12)
    assert(math.abs(l(1)(0) - 1.0) < 1e-12)
    assert(math.abs(l(1)(1) - math.sqrt(2.0)) < 1e-12)
  }

  test("cholesky rejects non-PD matrix") {
    assert(cholesky(Array(Array(1.0, 2.0), Array(2.0, 1.0))).isEmpty)
    assert(cholesky(Array(Array(0.0))).isEmpty)
  }

  test("choleskyJittered recovers from singular matrix") {
    val (l, jit) = choleskyJittered(Array(Array(1.0, 1.0), Array(1.0, 1.0)))
    assert(jit > 0.0)
    assert(l(0)(0) > 0.0)
  }

  test("L L^T reconstructs A (property)") {
    forAllG(psdGen) { a =>
      val l = cholesky(a).get
      val r = matMul(l, l.map(identity).transpose)
      for (i <- a.indices; j <- a.indices)
        assert(math.abs(a(i)(j) - r(i)(j)) < 1e-8)
    }
  }

  test("invFromCholesky gives A * A^-1 = I (property)") {
    forAllG(psdGen) { a =>
      val inv = invFromCholesky(cholesky(a).get)
      val id  = matMul(a, inv)
      for (i <- a.indices; j <- a.indices)
        assert(math.abs(id(i)(j) - (if (i == j) 1.0 else 0.0)) < 1e-7)
    }
  }

  test("logdet matches product of eigen-free 1x1 and 2x2 formulas") {
    val a = Array(Array(4.0, 2.0), Array(2.0, 3.0)) // det = 8
    assert(math.abs(logdetFromCholesky(cholesky(a).get) - math.log(8.0)) < 1e-12)
    val b = Array(Array(5.0))
    assert(math.abs(logdetFromCholesky(cholesky(b).get) - math.log(5.0)) < 1e-12)
  }

  test("logSumExp basic identities") {
    assert(math.abs(logSumExp(0.0, 0.0) - math.log(2.0)) < 1e-12)
    assert(logSumExp(Double.NegativeInfinity, Double.NegativeInfinity).isNegInfinity)
    assert(math.abs(logSumExp(-1000.0, 0.0) - 0.0) < 1e-12)
  }

  test("logSumExp is stable for large magnitudes") {
    val v = logSumExp(-1e6, -1e6)
    assert(math.abs(v - (-1e6 + math.log(2.0))) < 1e-6)
  }

  test("cosineFlat of identical matrices is 1") {
    val a = Array(Array(1.0, 2.0), Array(3.0, 4.0))
    assert(math.abs(cosineFlat(a, a) - 1.0) < 1e-12)
  }
  test("cosineFlat of orthogonal matrices is 0") {
    val a = Array(Array(1.0, 0.0), Array(0.0, 0.0))
    val b = Array(Array(0.0, 1.0), Array(0.0, 0.0))
    assert(cosineFlat(a, b) == 0.0)
  }
  test("cosineFlat of zero matrix is 0 (no NaN)") {
    val z = Array(Array(0.0, 0.0), Array(0.0, 0.0))
    assert(cosineFlat(z, z) == 0.0)
  }
}
