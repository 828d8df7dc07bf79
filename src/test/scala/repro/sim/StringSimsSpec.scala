package repro.sim

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen

import Profile.{levenshtein, normalize}
import StringSims._

class StringSimsSpec extends AnyFunSuite with repro.GenChecks {

  private val word = Gen.nonEmptyListOf(Gen.alphaLowerChar).map(_.mkString).suchThat(_.nonEmpty)
  private val phrase = Gen.listOfN(4, word).map(_.mkString(" "))

  // ----- normalize / tokens / qgrams -----

  test("normalize lowercases and collapses whitespace") {
    assert(normalize("  Hello   WORLD ") == "hello world")
  }
  test("normalize of empty string") { assert(normalize("") == "") }
  test("tokens split on punctuation") {
    assert(tokens("foo-bar, baz!") == Set("foo", "bar", "baz"))
  }
  test("tokens of empty string is empty") { assert(tokens("") == Set.empty) }
  test("qgrams pads the string") {
    assert(qgrams("ab", 3) == Set("##a", "#ab", "ab#", "b##"))
  }
  test("qgrams of empty string is empty") { assert(qgrams("", 3) == Set.empty) }
  test("qgrams count is len + q - 1 for distinct-gram strings") {
    assert(qgrams("abcdef", 3).size == 8)
  }

  // ----- levenshtein -----

  test("levenshtein known distances") {
    assert(levenshtein("kitten", "sitting") == 3)
    assert(levenshtein("flaw", "lawn") == 2)
    assert(levenshtein("", "abc") == 3)
    assert(levenshtein("abc", "") == 3)
    assert(levenshtein("abc", "abc") == 0)
  }
  test("levSim identical strings is 1") { assert(levSim("Foo Bar", "foo  bar") == 1.0) }
  test("levSim disjoint strings near 0") { assert(levSim("aaaa", "zzzz") == 0.0) }
  test("levSim empty vs empty is 1") { assert(levSim("", "") == 1.0) }
  test("levenshtein symmetry (property)") {
    forAllG2(word, word) { (a, b) => assert(levenshtein(a, b) == levenshtein(b, a)) }
  }
  test("levenshtein triangle inequality (property)") {
    forAllG3(word, word, word) { (a, b, c) =>
      assert(levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c))
    }
  }
  test("levSim in [0,1] (property)") {
    forAllG2(phrase, phrase) { (a, b) =>
      val s = levSim(a, b); assert(s >= 0.0 && s <= 1.0)
    }
  }

  // ----- jaro / jaro-winkler -----

  test("jaro known value MARTHA/MARHTA") {
    assert(math.abs(jaro("martha", "marhta") - 0.944444) < 1e-4)
  }
  test("jaro known value DIXON/DICKSONX") {
    assert(math.abs(jaro("dixon", "dicksonx") - 0.766667) < 1e-4)
  }
  test("jaro disjoint is 0") { assert(jaro("abc", "xyz") == 0.0) }
  test("jaro identical is 1") { assert(jaro("hello", "hello") == 1.0) }
  test("jaroWinkler boosts common prefix") {
    assert(jaroWinkler("prefixes", "prefixed") > jaro("prefixes", "prefixed"))
  }
  test("jaroWinkler known value MARTHA/MARHTA") {
    assert(math.abs(jaroWinkler("martha", "marhta") - 0.961111) < 1e-4)
  }
  test("jaro symmetry (property)") {
    forAllG2(word, word) { (a, b) => assert(math.abs(jaro(a, b) - jaro(b, a)) < 1e-12) }
  }
  test("jaroWinkler in [0,1] (property)") {
    forAllG2(word, word) { (a, b) =>
      val s = jaroWinkler(a, b); assert(s >= 0.0 && s <= 1.0 + 1e-12)
    }
  }

  // ----- set measures -----

  test("jaccardTokens known value") {
    // {a,b,c} vs {b,c,d}: 2/4
    assert(jaccardTokens("a b c", "b c d") == 0.5)
  }
  test("cosineTokens known value") {
    assert(math.abs(cosineTokens("a b c", "b c d") - 2.0 / 3.0) < 1e-12)
  }
  test("diceTokens known value") {
    assert(math.abs(diceTokens("a b c", "b c d") - 2.0 * 2 / 6) < 1e-12)
  }
  test("overlapTokens known value") {
    assert(overlapTokens("a b", "a b c d") == 1.0)
  }
  test("set measures: both empty = 1, one empty = 0") {
    for (f <- Seq(jaccardTokens _, cosineTokens _, diceTokens _, overlapTokens _)) {
      assert(f("", "") == 1.0)
      assert(f("a", "") == 0.0)
      assert(f("", "a") == 0.0)
    }
  }
  test("qgram measures identical strings are 1") {
    for (f <- Seq(jaccardQgram(_: String, _: String, 3), cosineQgram(_: String, _: String, 3),
                  diceQgram(_: String, _: String, 3), overlapQgram(_: String, _: String, 3)))
      assert(f("hello world", "hello world") == 1.0)
  }
  test("jaccard <= dice <= overlap ordering (property)") {
    forAllG2(phrase, phrase) { (a, b) =>
      val j = jaccardTokens(a, b); val d = diceTokens(a, b); val o = overlapTokens(a, b)
      assert(j <= d + 1e-12)
      assert(d <= o + 1e-12)
    }
  }
  test("jaccardQgram symmetry and range (property)") {
    forAllG2(word, word) { (a, b) =>
      val s = jaccardQgram(a, b)
      assert(math.abs(s - jaccardQgram(b, a)) < 1e-12)
      assert(s >= 0.0 && s <= 1.0)
    }
  }

  // ----- exact / numeric / digits -----

  test("exact match is normalization-insensitive") {
    assert(exact("Foo  Bar", "foo bar") == 1.0)
    assert(exact("foo", "bar") == 0.0)
  }
  test("numericSim equal numbers is 1") { assert(numericSim("42", "42.0") == 1.0) }
  test("numericSim relative difference") {
    assert(math.abs(numericSim("90", "100") - 0.9) < 1e-12)
  }
  test("numericSim zero vs zero") { assert(numericSim("0", "0") == 1.0) }
  test("numericSim falls back to exact for non-numbers") {
    assert(numericSim("n/a", "n/a") == 1.0)
    assert(numericSim("n/a", "42") == 0.0)
  }
  test("numericSim clamps at 0 for wildly different magnitudes") {
    assert(numericSim("-50", "100") == 0.0)
  }
  test("digitsExact ignores formatting") {
    assert(digitsExact("404/237-2700", "404-237-2700") == 1.0)
    assert(digitsExact("404/237-2700", "404-237-2701") == 0.0)
  }

  test("all sims are reflexive: sim(x,x) = 1 (property)") {
    forAllG(phrase) { a =>
      if (a.exists(_.isLetter)) {
        assert(levSim(a, a) == 1.0)
        assert(jaroWinkler(a, a) == 1.0)
        assert(jaccardTokens(a, a) == 1.0)
        assert(exact(a, a) == 1.0)
      }
    }
  }
}
