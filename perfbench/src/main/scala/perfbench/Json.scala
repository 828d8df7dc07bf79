package perfbench

/** Minimal JSON rendering for the result line (maps, sequences, strings,
  * booleans and numbers; non-finite numbers are refused).
  */
object Json {
  def apply(v: Any): String = v match {
    case m: Map[_, _] =>
      m.toSeq.map { case (k, x) => quote(k.toString) + ":" + apply(x) }.mkString("{", ",", "}")
    case s: Iterable[_] => s.map(apply).mkString("[", ",", "]")
    case s: String      => quote(s)
    case b: Boolean     => b.toString
    case d: Double      =>
      require(!d.isNaN && !d.isInfinite, s"non-finite number $d")
      d.toString
    case n: Int         => n.toString
    case n: Long        => n.toString
    case other          => quote(String.valueOf(other))
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'           => b ++= "\\\""
      case '\\'          => b ++= "\\\\"
      case c if c < ' '  => b ++= f"\\u${c.toInt}%04x"
      case c             => b += c
    }
    b += '"'
    b.toString
  }
}
