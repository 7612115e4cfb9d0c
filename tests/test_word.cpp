// Coding-word machinery tests: parsing, the O/G/W recursions of Lemma 4.4
// (checked exactly against Table I), validity conditions, enumeration, and
// the closed-form word throughput vs. bisection cross-check.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "bmp/core/word.hpp"
#include "bmp/core/word_throughput.hpp"
#include "bmp/core/bounds.hpp"
#include "test_helpers.hpp"

namespace bmp {
namespace {

using util::Rational;

TEST(Word, ParseAndPrint) {
  const Word w = make_word("GOG OG");
  EXPECT_EQ(to_string(w), "GOGOG");
  EXPECT_EQ(count_open(w), 2);
  EXPECT_EQ(count_guarded(w), 3);
  EXPECT_THROW(make_word("OXG"), std::invalid_argument);
}

TEST(Word, EnumerateCountsAreBinomial) {
  EXPECT_EQ(enumerate_words(0, 0).size(), 1u);
  EXPECT_EQ(enumerate_words(3, 0).size(), 1u);
  EXPECT_EQ(enumerate_words(2, 3).size(), 10u);  // C(5,2)
  EXPECT_EQ(enumerate_words(4, 4).size(), 70u);  // C(8,4)
  EXPECT_THROW(enumerate_words(-1, 2), std::invalid_argument);
}

TEST(Word, EnumerateIsDuplicateFreeWithRightCounts) {
  const auto words = enumerate_words(3, 2);
  for (std::size_t a = 0; a < words.size(); ++a) {
    EXPECT_EQ(count_open(words[a]), 3);
    EXPECT_EQ(count_guarded(words[a]), 2);
    for (std::size_t b = a + 1; b < words.size(); ++b) {
      EXPECT_NE(to_string(words[a]), to_string(words[b]));
    }
  }
}

// Table I of the paper: execution of Algorithm 2 on the Fig. 1 instance at
// T = 4. States after each letter of GOGOG.
TEST(PrefixState, ReproducesTableIExactly) {
  const RationalInstance inst = testing::fig1_rational();
  const Rational T(4);
  auto st = PrefixState<Rational>::initial(inst);
  EXPECT_EQ(st.open_avail, Rational(6));
  EXPECT_EQ(st.guarded_avail, Rational(0));
  EXPECT_EQ(st.open_open, Rational(0));

  const struct {
    char letter;
    std::int64_t O, G, W;
  } expected[] = {
      {'G', 2, 4, 0}, {'O', 7, 0, 0}, {'G', 3, 1, 0}, {'O', 5, 0, 3}, {'G', 1, 1, 3},
  };
  for (const auto& step : expected) {
    const Letter l = step.letter == 'O' ? Letter::kOpen : Letter::kGuarded;
    ASSERT_TRUE(st.can_append(l, inst, T));
    st.append(l, inst, T);
    EXPECT_EQ(st.open_avail, Rational(step.O));
    EXPECT_EQ(st.guarded_avail, Rational(step.G));
    EXPECT_EQ(st.open_open, Rational(step.W));
  }
}

TEST(CheckWord, Fig1WordsAtT4) {
  const RationalInstance inst = testing::fig1_rational();
  // Both the greedy word (Fig. 5) and the Fig. 2 word are valid at T=4.
  EXPECT_TRUE(check_word(inst, make_word("GOGOG"), Rational(4)));
  EXPECT_TRUE(check_word(inst, make_word("GOOGG"), Rational(4)));
  // The all-guarded-first word is not: b0=6 cannot feed two guarded nodes.
  EXPECT_FALSE(check_word(inst, make_word("GGOOG"), Rational(4)));
  // Wrong letter counts are rejected.
  EXPECT_FALSE(check_word(inst, make_word("GOGO"), Rational(4)));
}

TEST(CheckWord, MonotoneInT) {
  const Instance inst = testing::fig1_instance();
  const Word w = make_word("GOGOG");
  bool prev_ok = true;
  for (double T = 0.0; T <= 6.0; T += 0.05) {
    const bool ok = check_word(inst, w, T);
    if (!prev_ok) EXPECT_FALSE(ok) << "validity must be an interval, T=" << T;
    prev_ok = ok;
  }
}

TEST(WordThroughput, ExactOnFig1Words) {
  const RationalInstance inst = testing::fig1_rational();
  EXPECT_EQ(word_throughput_exact(inst, make_word("GOGOG")), Rational(4));
  EXPECT_EQ(word_throughput_exact(inst, make_word("GOOGG")), Rational(4));
}

TEST(WordThroughput, ExactValueIsTightBoundary) {
  util::Xoshiro256 rng(99);
  for (int rep = 0; rep < 60; ++rep) {
    const int n = 1 + static_cast<int>(rng.below(4));
    const int m = static_cast<int>(rng.below(4));
    const auto pair = testing::random_int_instance(rng, n, m);
    const auto words = enumerate_words(n, m);
    const Word& w = words[rng.below(words.size())];
    const Rational t = word_throughput_exact(pair.rat, w);
    EXPECT_TRUE(check_word(pair.rat, w, t)) << to_string(w);
    const Rational above = t * Rational(1000001, 1000000);
    if (t > Rational(0)) {
      const bool still_valid = check_word(pair.rat, w, above);
      EXPECT_FALSE(still_valid) << to_string(w);
    }
  }
}

TEST(WordThroughput, BisectionMatchesClosedForm) {
  util::Xoshiro256 rng(7);
  for (int rep = 0; rep < 60; ++rep) {
    const int n = 1 + static_cast<int>(rng.below(5));
    const int m = static_cast<int>(rng.below(5));
    const Instance inst = testing::random_instance(rng, n, m);
    const auto words = enumerate_words(n, m);
    const Word& w = words[rng.below(words.size())];
    const double closed = word_throughput_closed_form(inst, w);
    const double bisect = word_throughput(inst, w);
    EXPECT_NEAR(closed, bisect, 1e-7 * std::max(1.0, closed)) << to_string(w);
  }
}

/// word_throughput's bisection without its fixed-point stop: every one of
/// `iters` halvings probes check_word.
double full_bisection(const Instance& inst, const Word& w, int iters) {
  double hi = cyclic_upper_bound(inst);
  if (check_word(inst, w, hi)) return hi;
  double lo = 0.0;
  for (int k = 0; k < iters; ++k) {
    const double mid = 0.5 * (lo + hi);
    (check_word(inst, w, mid) ? lo : hi) = mid;
  }
  return lo;
}

// The bisection stops once lo and hi are adjacent doubles (~54 halvings):
// from there every probe repeats an earlier one, so the default cap of 100
// returns exactly what 2000 do, and what 100 unconditional halvings did.
TEST(WordThroughput, EarlyStopIsTheFullBisection) {
  util::Xoshiro256 rng(7);
  int bisected = 0;
  for (int rep = 0; rep < 120; ++rep) {
    const int n = 1 + static_cast<int>(rng.below(5));
    const int m = static_cast<int>(rng.below(5));
    const Instance inst = testing::random_instance(rng, n, m);
    const auto words = enumerate_words(n, m);
    const Word& w = words[rng.below(words.size())];
    const double capped = word_throughput(inst, w, 100);
    const double full = word_throughput(inst, w, 2000);
    const double unstopped = full_bisection(inst, w, 100);
    EXPECT_EQ(std::memcmp(&capped, &full, sizeof(double)), 0)
        << to_string(w) << ": " << capped << " vs " << full;
    EXPECT_EQ(std::memcmp(&capped, &unstopped, sizeof(double)), 0)
        << to_string(w) << ": " << capped << " vs " << unstopped;
    if (capped < cyclic_upper_bound(inst)) ++bisected;
  }
  EXPECT_GE(bisected, 60);
  const Instance fig1 = testing::fig1_instance();
  for (const char* text : {"GOGOG", "GOOGG", "OOGGG"}) {
    const double capped = word_throughput(fig1, make_word(text), 100);
    const double full = word_throughput(fig1, make_word(text), 2000);
    EXPECT_EQ(std::memcmp(&capped, &full, sizeof(double)), 0) << text;
  }
  // A cap below the fixed point still bounds the search.
  EXPECT_EQ(word_throughput(fig1, make_word("GOGOG"), 8),
            full_bisection(fig1, make_word("GOGOG"), 8));
}

TEST(WordThroughput, EmptyWordReturnsSourceBandwidth) {
  const Instance inst(3.5, {}, {});
  EXPECT_DOUBLE_EQ(word_throughput_closed_form(inst, {}), 3.5);
  EXPECT_DOUBLE_EQ(word_throughput(inst, {}), 3.5);
}

TEST(WordThroughput, MismatchedWordThrows) {
  const Instance inst = testing::fig1_instance();
  EXPECT_THROW(word_throughput_closed_form(inst, make_word("GG")),
               std::invalid_argument);
}

// Open-only sanity: for m = 0 the only word is O^n and its throughput is
// the §III.B closed form min(b0, S_{n-1}/n).
TEST(WordThroughput, OpenOnlyMatchesAlgorithm1Formula) {
  util::Xoshiro256 rng(2024);
  for (int rep = 0; rep < 40; ++rep) {
    const int n = 1 + static_cast<int>(rng.below(8));
    const Instance inst = testing::random_instance(rng, n, 0);
    Word w(static_cast<std::size_t>(n), Letter::kOpen);
    EXPECT_NEAR(word_throughput_closed_form(inst, w), acyclic_open_optimal(inst),
                1e-9);
  }
}

}  // namespace
}  // namespace bmp
