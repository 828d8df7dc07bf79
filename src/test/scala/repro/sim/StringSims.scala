package repro.sim

/** The similarity measures as `(String, String)` functions, for tests and
  * driver-side references: each profiles both strings and calls its
  * [[ProfileSims]] measure, the one implementation the features use.
  */
object StringSims {

  /** Word tokens (split on non-alphanumeric). */
  def tokens(s: String): Set[String] = new Profile(s).tokens.toSet

  /** Character q-grams of the padded string, as a set. */
  def qgrams(s: String, q: Int = 3): Set[String] = new Profile(s, q).qgrams.toSet

  private def on(f: (Profile, Profile) => Double)(a: String, b: String): Double =
    f(new Profile(a), new Profile(b))

  def levSim(a: String, b: String): Double = on(ProfileSims.levSim)(a, b)
  def jaro(a: String, b: String): Double = on(ProfileSims.jaro)(a, b)
  def jaroWinkler(a: String, b: String): Double = on(ProfileSims.jaroWinkler)(a, b)

  private def onQgrams(f: (Array[String], Array[String]) => Double)(a: String, b: String,
                                                                     q: Int): Double =
    f(new Profile(a, q).qgrams, new Profile(b, q).qgrams)

  def jaccardQgram(a: String, b: String, q: Int = 3): Double = onQgrams(ProfileSims.jaccard)(a, b, q)
  def cosineQgram(a: String, b: String, q: Int = 3): Double  = onQgrams(ProfileSims.cosine)(a, b, q)
  def diceQgram(a: String, b: String, q: Int = 3): Double    = onQgrams(ProfileSims.dice)(a, b, q)
  def overlapQgram(a: String, b: String, q: Int = 3): Double = onQgrams(ProfileSims.overlap)(a, b, q)

  def jaccardTokens(a: String, b: String): Double = on(ProfileSims.jaccardTokens)(a, b)
  def cosineTokens(a: String, b: String): Double  = on(ProfileSims.cosineTokens)(a, b)
  def diceTokens(a: String, b: String): Double    = on(ProfileSims.diceTokens)(a, b)
  def overlapTokens(a: String, b: String): Double = on(ProfileSims.overlapTokens)(a, b)

  def exact(a: String, b: String): Double = on(ProfileSims.exact)(a, b)
  def numericSim(a: String, b: String): Double = on(ProfileSims.numericSim)(a, b)
  def digitsExact(a: String, b: String): Double = on(ProfileSims.digitsExact)(a, b)
}

