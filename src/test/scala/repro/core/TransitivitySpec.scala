package repro.core

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

import repro.blocking.Blocking.pairKey
import Transitivity._
import ZeroerEM.GammaRow

class TransitivitySpec extends AnyFunSuite {

  // logA > logB ~ the model prefers match; equal logs are neutral
  private def row(id: Long, l: Long, r: Long, g: Double,
                  la: Double = 0.0, lb: Double = 0.0) = GammaRow(id, l, r, g, la, lb)

  test("no constraints -> no overrides") {
    val ov = resolve(Seq(row(1, 10, 20, 0.9)), Nil, Nil)
    assert(ov.size == 0)
  }

  test("satisfied constraint is untouched") {
    // (l=10,r=20) and (l=10,r=21) matched, right pair (20,21) has high gamma
    val cross = Seq(row(1, 10, 20, 0.9), row(2, 10, 21, 0.9))
    val wr    = Seq(row(3, 20, 21, 0.95))
    assert(resolve(cross, Nil, wr).size == 0)
  }

  test("violated constraint with absent conclusion kills the weaker premise (Example 1.3)") {
    // two cross matches share right tuple zg2; left pair (fd1, fd3) was
    // blocked out -> gamma 0 -> the weaker cross match must drop to 0
    val strong = row(1, 10, 20, 0.95, la = 2.0, lb = -2.0)
    val weak   = row(2, 11, 20, 0.60, la = 0.1, lb = -0.1)
    val ov     = resolve(Seq(strong, weak), Nil, Nil)
    assert(ov.cross.contains(2L), "weaker premise should be adjusted")
    assert(math.abs(ov.cross(2L)) <= 1e-6)
    assert(!ov.cross.contains(1L), "stronger premise should survive")
  }

  test("violated constraint with present conclusion can raise the conclusion") {
    // conclusion pair exists with la >> lb: raising its gamma increases F
    val cross = Seq(row(1, 10, 20, 0.9, la = 1.0, lb = -1.0),
                    row(2, 10, 21, 0.9, la = 1.0, lb = -1.0))
    val wr    = Seq(row(3, 20, 21, 0.4, la = 3.0, lb = -3.0))
    val ov    = resolve(cross, Nil, wr)
    assert(ov.right.contains(3L))
    assert(math.abs(ov.right(3L) - 0.81) <= 1e-9) // gamma1 * gamma2
  }

  test("conclusion with strongly-unmatch evidence pushes a premise down instead") {
    val cross = Seq(row(1, 10, 20, 0.9, la = 0.5, lb = 0.5),
                    row(2, 10, 21, 0.6, la = -2.0, lb = 2.0))
    val wr    = Seq(row(3, 20, 21, 0.01, la = -8.0, lb = 8.0))
    val ov    = resolve(cross, Nil, wr)
    // raising the conclusion to 0.54 would cost much free energy (lb >> la);
    // lowering the weak premise (whose evidence also favors U) is cheaper
    assert(ov.cross.contains(2L))
    assert(ov.cross(2L) < 0.6)
  }

  test("direction locks prevent later constraints from undoing adjustments") {
    // star: left 10 matches rights 20, 21, 22; all right pairs absent
    val cross = Seq(
      row(1, 10, 20, 0.95, la = 3.0, lb = -3.0),
      row(2, 10, 21, 0.80, la = 1.0, lb = -1.0),
      row(3, 10, 22, 0.70, la = 0.5, lb = -0.5))
    val ov = resolve(cross, Nil, Nil)
    // the strongest survives; others get zeroed by their constraint with it
    assert(!ov.cross.contains(1L))
    assert(ov.cross.get(2L).forall(_ < 0.5))
    assert(ov.cross.get(3L).forall(_ < 0.5))
  }

  test("within-table matches are NOT premises (no sibling cascade)") {
    // left near-duplicates (10,11) + cross match (10, 20): the cross pair
    // (11, 20) must NOT be raised — mixed-premise trios are pruned so that
    // spurious within-table "matches" (duplicate-free tables have no true
    // match cluster) cannot cascade cross-table false positives.
    val cross = Seq(row(1, 10, 20, 0.9, la = 1.0, lb = -1.0),
                    row(2, 11, 20, 0.1, la = 2.0, lb = -2.0))
    val wl    = Seq(row(3, 10, 11, 0.9, la = 1.0, lb = -1.0))
    val ov    = resolve(cross, wl, Nil)
    assert(!ov.cross.contains(2L))
    assert(ov.size == 0)
  }

  test("transitivity on DS-style right duplicates does not zero both matches") {
    // one left record genuinely matches two right duplicates; the right
    // pair exists with high gamma -> constraint satisfied, nothing killed
    val cross = Seq(row(1, 10, 20, 0.92), row(2, 10, 21, 0.88))
    val wr    = Seq(row(3, 20, 21, 0.9))
    val ov    = resolve(cross, Nil, wr)
    assert(!ov.cross.contains(1L) && !ov.cross.contains(2L))
  }

  test("postProcess keeps only the best partner per tuple (greedy 1-1)") {
    val kept = postProcess(Seq(
      row(1, 10, 20, 0.95), row(2, 10, 21, 0.80), row(3, 11, 21, 0.70),
      row(4, 12, 22, 0.60)))
    assert(kept.map(_.pairId).toSet == Set(1L, 3L, 4L))
    // tied posteriors (saturated at 1.0) keep the same partner in any order
    val tied = Seq(row(5, 13, 23, 1.0), row(6, 13, 24, 1.0))
    assert(postProcess(tied).map(_.pairId) == Seq(5L))
    assert(postProcess(tied.reverse).map(_.pairId) == Seq(5L))
  }

  test("postProcess on a clean 1-1 set keeps everything") {
    val ms = Seq(row(1, 10, 20, 0.9), row(2, 11, 21, 0.8), row(3, 12, 22, 0.7))
    assert(postProcess(ms).size == 3)
  }

  test("overrides never leave [0,1]") {
    val cross = Seq(row(1, 10, 20, 0.99, la = 5.0, lb = -5.0),
                    row(2, 10, 21, 0.99, la = 5.0, lb = -5.0))
    val wr = Seq(row(3, 20, 21, 0.5, la = 0.0, lb = 0.0))
    val ov = resolve(cross, Nil, wr)
    (ov.cross.values ++ ov.left.values ++ ov.right.values).foreach { g =>
      assert(g >= 0.0 && g <= 1.0)
    }
  }

  test("conclusionKeys are exactly the within-table conclusions that resolve constrains") {
    def cross(l: Long, r: Long, g: Double) = row(pairKey(l, r), l, r, g, la = 5.0, lb = -5.0)
    // Left hub 10 with 60 premises: rights 130..159 at γ 0.95, then 100..129
    // tied at 0.9, of which the cap keeps the first 20 in pair order. The
    // higher-γ premise has the larger id, so conclusions arrive as (max, min).
    val hub = (130L to 159L).map(cross(10, _, 0.95)) ++ (100L to 129L).map(cross(10, _, 0.9))
    // Right tuple 500 shared by lefts 20..24, the larger ids at higher or tied γ.
    val shared = Seq(20L -> 0.7, 21L -> 0.8, 22L -> 0.9, 23L -> 0.8, 24L -> 0.8).map { case (l, g) => cross(l, 500, g) }
    val premises = hub ++ shared :+ cross(10, 160, 0.4) // γ < 0.5: not a premise
    def pairsOf(ids: Seq[Long]) =
      (for (a <- ids; b <- ids if a < b) yield pairKey(a, b)).toSet
    val wantRight = pairsOf((100L to 119L) ++ (130L to 159L))
    val wantLeft  = pairsOf(20L to 24L)

    val (left, right) = conclusionKeys(premises)
    assert(left == wantLeft && right == wantRight)
    assert(conclusionKeys(new Random(5).shuffle(premises)) == (left, right), "depends on the premises' order")

    // Every pair among the touched tuples is present at γ 0 with evidence for
    // a match, so resolve raises each conclusion it constrains, and only those.
    def within(ids: Seq[Long]) =
      for (a <- ids; b <- ids if a < b) yield row(pairKey(a, b), a, b, 0.0, la = 10.0, lb = -10.0)
    val ov = resolve(premises, within(20L to 24L), within((100L to 160L) :+ 500L))
    assert(ov.left.keySet == left && ov.right.keySet == right)
  }
}
