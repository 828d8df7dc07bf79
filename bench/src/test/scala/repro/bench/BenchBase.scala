package repro.bench

import repro.SparkSpec

/** Shared bench scaffolding: scale factor from BENCH_SCALE (default 1.0 =
  * the paper's dataset sizes, with DS's right table scaled per DESIGN.md),
  * and a fixed-width row printer for the paper-vs-measured rows.
  */
trait BenchBase extends SparkSpec {
  val scale: Double = sys.env.get("BENCH_SCALE").map(_.toDouble).getOrElse(1.0)

  def printRow(cells: Seq[String]): Unit =
    println(cells.map(c => f"$c%14s").mkString(" | "))

  def fmt(v: Double): String = f"$v%.3f"
  def banner(title: String): Unit = {
    println("=" * 90)
    println(s"$title (BENCH_SCALE=$scale)")
    println("=" * 90)
  }
}
