package repro.core

import scala.collection.mutable

import ZeroerEM.GammaRow

/** Transitivity as posterior constraints (paper §4).
  *
  * The reduced constraint set Q′ (Eq. 19) only involves premise pairs with
  * γ ≥ 0.5 — orders of magnitude fewer than the candidate set — so the
  * resolution runs on the driver over collected posteriors and returns
  * per-side override maps (pair key → adjusted γ, the key being
  * [[repro.blocking.Blocking.pairKey]] of the pair's ids) that the next
  * E-step and moment pass apply in place of the model's γ.
  *
  * For a violated constraint γ₁·γ₂ ≤ γ_c the three axis projections of
  * Eq. 18 are: lower premise 1 to γ_c/γ₂, lower premise 2 to γ_c/γ₁, or
  * raise the conclusion to γ₁·γ₂. We pick the feasible projection with the
  * largest free energy F(Θ, γ) (Eq. 14), greedily locking each adjusted
  * variable's direction so later constraints cannot undo earlier ones
  * (§4.2 "handling multiple constraints"). A conclusion pair absent from
  * its candidate set is a blocked pair with γ fixed at 0 (§4.2), so only
  * the premise-lowering projections are available — this is exactly what
  * kills the (fd3, zg2) false positive of Example 1.3.
  */
object Transitivity {

  /** Sides are indexed: 0 = cross (T x T'), 1 = left (T x T), 2 = right. */
  final case class Overrides(cross: Map[Long, Double], left: Map[Long, Double],
                             right: Map[Long, Double]) {
    def size: Int = cross.size + left.size + right.size
  }

  private final class Var(val side: Int, val pairId: Long, val present: Boolean,
                          var value: Double, val la: Double, val lb: Double) {
    var lock: Int = 0 // 0 free, -1 lowered, +1 raised
    var changed: Boolean = false
  }

  private def clamp(g: Double): Double = math.min(math.max(g, 1e-9), 1.0 - 1e-9)

  /** Per-variable free energy term of Eq. 14. */
  private def fTerm(g0: Double, la: Double, lb: Double): Double = {
    val g = clamp(g0)
    g * (la - math.log(g)) + (1.0 - g) * (lb - math.log1p(-g))
  }

  /** Maximum premise partners considered per shared tuple; a pathological
    * hub tuple would otherwise contribute O(deg²) constraints.
    */
  private val MaxFanout = 50

  /** Resolve Q′ over the collected posteriors of the three sides.
    *
    * @param cross      cross-table rows with γ ≥ 0.5 plus any rows needed
    *                   as conclusions (both tuples touched by a match)
    * @param withinLeft left-table rows among matched left tuples (any γ)
    * @param withinRight right-table rows among matched right tuples
    */
  def resolve(cross: Seq[GammaRow], withinLeft: Seq[GammaRow],
              withinRight: Seq[GammaRow]): Overrides = {
    val vars = mutable.Map.empty[(Int, Long, Long), Var]
    def key(a: Long, b: Long): (Long, Long) = if (a <= b) (a, b) else (b, a)
    def register(side: Int, r: GammaRow): Var = {
      val k = (side, key(r.leftId, r.rightId)._1, key(r.leftId, r.rightId)._2)
      vars.getOrElseUpdate(k, new Var(side, r.pairId, present = true, r.gamma, r.logA, r.logB))
    }
    cross.foreach(register(0, _))
    withinLeft.foreach(register(1, _))
    withinRight.foreach(register(2, _))
    def lookup(side: Int, a: Long, b: Long): Var = {
      val (x, y) = key(a, b)
      vars.getOrElseUpdate((side, x, y),
        new Var(side, -1L, present = false, 0.0, 0.0, 0.0)) // blocked pair: γ = 0
    }

    // Enumerate Q′ (premises γ >= 0.5), in pair order so that tied γ and
    // tied violations resolve the same way whatever the collection order.
    val crossM  = cross.filter(_.gamma >= 0.5).sortBy(r => (r.leftId, r.rightId))
    val constraints = mutable.ArrayBuffer.empty[(Var, Var, Var)]

    // (a) two cross matches share a LEFT tuple -> right-pair conclusion
    crossM.groupBy(_.leftId).foreach { case (_, ms0) =>
      val ms = ms0.sortBy(-_.gamma).take(MaxFanout)
      for (i <- ms.indices; j <- (i + 1) until ms.length)
        constraints += ((lookup(0, ms(i).leftId, ms(i).rightId),
                         lookup(0, ms(j).leftId, ms(j).rightId),
                         lookup(2, ms(i).rightId, ms(j).rightId)))
    }
    // (b) two cross matches share a RIGHT tuple -> left-pair conclusion
    crossM.groupBy(_.rightId).foreach { case (_, ms0) =>
      val ms = ms0.sortBy(-_.gamma).take(MaxFanout)
      for (i <- ms.indices; j <- (i + 1) until ms.length)
        constraints += ((lookup(0, ms(i).leftId, ms(i).rightId),
                         lookup(0, ms(j).leftId, ms(j).rightId),
                         lookup(1, ms(i).leftId, ms(j).leftId)))
    }
    // NOTE: trios whose premises mix a within-table match with a cross
    // match (conclusion = another cross pair) are deliberately NOT
    // enforced, mirroring the reference implementation's pruning: a
    // duplicate-free table gives the within-table model no true match
    // cluster, so its spurious "matches" (e.g. product-family siblings)
    // would cascade cross-table false positives through such constraints.
    // Within-table posteriors only serve as conclusions for (a)/(b).

    // Greedy resolution, worst violation first.
    val ordered = constraints.distinct
      .sortBy { case (p1, p2, c) => -(p1.value * p2.value - c.value) }
    ordered.foreach { case (p1, p2, c) =>
      val prod = p1.value * p2.value
      if (prod > c.value + 1e-12) {
        // candidate projections: (variable, new value)
        val cands = mutable.ArrayBuffer.empty[(Var, Double)]
        if (p2.value > 0 && p1.lock != 1) cands += ((p1, clamp(c.value / p2.value)))
        if (p1.value > 0 && p2.lock != 1) cands += ((p2, clamp(c.value / p1.value)))
        if (c.present && c.lock != -1) cands += ((c, clamp(prod)))
        if (cands.nonEmpty) {
          val (v, nv) = cands.maxBy { case (v, nv) =>
            if (!v.present) Double.NegativeInfinity
            else fTerm(nv, v.la, v.lb) - fTerm(v.value, v.la, v.lb)
          }
          val dir = if (nv < v.value) -1 else 1
          v.value = nv; v.lock = dir; v.changed = true
        } // else: all axes conflict-locked -> skip (paper §4.2)
      }
    }

    val out = Array(mutable.Map.empty[Long, Double], mutable.Map.empty[Long, Double],
                    mutable.Map.empty[Long, Double])
    vars.values.foreach { v =>
      if (v.changed && v.present) out(v.side)(v.pairId) = v.value
    }
    Overrides(out(0).toMap, out(1).toMap, out(2).toMap)
  }

  /** Post-processing ablation (Table 5, right column): assume both tables
    * duplicate-free, so of two cross matches sharing a tuple only the one
    * with the higher posterior survives — i.e. greedy one-to-one matching.
    * Tied posteriors go in pair order, not collection order.
    */
  def postProcess(matches: Seq[GammaRow]): Seq[GammaRow] = {
    val sorted    = matches.sortBy(m => (-m.gamma, m.leftId, m.rightId))
    val usedLeft  = mutable.Set.empty[Long]
    val usedRight = mutable.Set.empty[Long]
    sorted.filter { m =>
      val ok = !usedLeft.contains(m.leftId) && !usedRight.contains(m.rightId)
      if (ok) { usedLeft += m.leftId; usedRight += m.rightId }
      ok
    }
  }
}
