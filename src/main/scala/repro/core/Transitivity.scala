package repro.core

import scala.collection.mutable

import repro.blocking.Blocking.pairKey

import ZeroerEM.GammaRow

/** Transitivity as posterior constraints (paper §4).
  *
  * The reduced constraint set Q′ (Eq. 19) only involves premise pairs with
  * γ ≥ 0.5 — orders of magnitude fewer than the candidate set — so the
  * resolution runs on the driver over the collected premises and
  * conclusions and returns per-side override maps (pair key → adjusted γ,
  * the key being [[repro.blocking.Blocking.pairKey]] of the pair's ids) that
  * the M-step's sums ([[ZeroerEM.SideSums.moments]]) and the final E-step
  * apply in place of the model's γ.
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

  /** A pair's ids in (min, max) order: within-table pairs are unordered. */
  private def key(a: Long, b: Long): (Long, Long) = if (a <= b) (a, b) else (b, a)

  /** The trios of Q′ over the cross rows with γ ≥ 0.5 (the premises): two
    * premises that share a tuple, and the within-table conclusion pair of
    * their other tuples, as (premise, premise, conclusion side, its ids in
    * (min, max) order). Premises go in pair order, and per shared tuple by
    * descending γ, capped at [[MaxFanout]], so that tied γ and tied
    * violations resolve the same way whatever the collection order.
    */
  private def trios(cross: Seq[GammaRow]): Seq[(GammaRow, GammaRow, Int, (Long, Long))] = {
    val crossM = cross.filter(_.gamma >= 0.5).sortBy(r => (r.leftId, r.rightId))
    def sharing(shared: GammaRow => Long, other: GammaRow => Long, side: Int) =
      crossM.groupBy(shared).toSeq.flatMap { case (_, ms0) =>
        val ms = ms0.sortBy(-_.gamma).take(MaxFanout)
        for (i <- ms.indices; j <- (i + 1) until ms.length)
          yield (ms(i), ms(j), side, key(other(ms(i)), other(ms(j))))
      }
    // (a) two cross matches share a LEFT tuple -> right-pair conclusion;
    // (b) two cross matches share a RIGHT tuple -> left-pair conclusion
    sharing(_.leftId, _.rightId, 2) ++ sharing(_.rightId, _.leftId, 1)
  }

  /** The pair keys ([[repro.blocking.Blocking.pairKey]] of the (min, max)
    * ids) of Q′'s left and right conclusions over the premises `cross`: the
    * only within-table pairs that [[resolve]] can constrain, so the only
    * within-table rows it needs.
    */
  def conclusionKeys(cross: Seq[GammaRow]): (Set[Long], Set[Long]) = {
    val t = trios(cross)
    def keys(side: Int) = t.collect { case (_, _, `side`, (a, b)) => pairKey(a, b) }.toSet
    (keys(1), keys(2))
  }

  /** Resolve Q′ over the collected posteriors of the three sides.
    *
    * @param cross       cross-table rows; those with γ ≥ 0.5 are the premises
    * @param withinLeft  left-table rows among Q′'s conclusions
    *                    ([[conclusionKeys]]); any other row is never read
    * @param withinRight right-table rows among Q′'s conclusions
    */
  def resolve(cross: Seq[GammaRow], withinLeft: Seq[GammaRow],
              withinRight: Seq[GammaRow]): Overrides = {
    val vars = mutable.Map.empty[(Int, Long, Long), Var]
    def register(side: Int, r: GammaRow): Var = {
      val (a, b) = key(r.leftId, r.rightId)
      vars.getOrElseUpdate((side, a, b), new Var(side, r.pairId, present = true, r.gamma, r.logA, r.logB))
    }
    cross.foreach(register(0, _))
    withinLeft.foreach(register(1, _))
    withinRight.foreach(register(2, _))
    def lookup(side: Int, a: Long, b: Long): Var = {
      val (x, y) = key(a, b)
      vars.getOrElseUpdate((side, x, y),
        new Var(side, -1L, present = false, 0.0, 0.0, 0.0)) // blocked pair: γ = 0
    }

    val constraints = trios(cross).map { case (p1, p2, side, (a, b)) =>
      (lookup(0, p1.leftId, p1.rightId), lookup(0, p2.leftId, p2.rightId), lookup(side, a, b))
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
