// Algorithm 2 "GreedyTest" tests (§IV.B): the Fig. 1 execution, exactness
// against the brute-force word enumeration (Lemma 4.5), monotonicity, and
// the dichotomic search for T*_ac.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "bmp/core/acyclic_search.hpp"
#include "bmp/core/bounds.hpp"
#include "bmp/core/exact.hpp"
#include "bmp/core/greedy_test.hpp"
#include "bmp/core/word_throughput.hpp"
#include "bmp/theory/instances.hpp"
#include "test_helpers.hpp"

namespace bmp {
namespace {

using util::Rational;

TEST(GreedyTest, Fig1ProducesPaperWordAtT4) {
  const RationalInstance inst = testing::fig1_rational();
  const auto word = greedy_test(inst, Rational(4));
  ASSERT_TRUE(word.has_value());
  // Table I / Fig. 5: σ = 031425, i.e. word GOGOG.
  EXPECT_EQ(to_string(*word), "GOGOG");
}

TEST(GreedyTest, Fig1FailsAbove4) {
  const RationalInstance inst = testing::fig1_rational();
  EXPECT_FALSE(greedy_test(inst, Rational(41, 10)).has_value());
  EXPECT_FALSE(greedy_test(inst, Rational(22, 5)).has_value());
}

TEST(GreedyTest, ReturnedWordIsValid) {
  util::Xoshiro256 rng(17);
  for (int rep = 0; rep < 200; ++rep) {
    const int n = 1 + static_cast<int>(rng.below(6));
    const int m = static_cast<int>(rng.below(6));
    const auto pair = testing::random_int_instance(rng, n, m);
    // Probe a few integer and half-integer rates.
    for (std::int64_t num = 1; num <= 12; ++num) {
      const Rational T(num, 2);
      const auto word = greedy_test(pair.rat, T);
      if (word.has_value()) {
        EXPECT_TRUE(check_word(pair.rat, *word, T))
            << to_string(*word) << " at T=" << T;
      }
    }
  }
}

// Lemma 4.5: GreedyTest succeeds iff some word is valid. We compare against
// full enumeration on small instances, in exact arithmetic.
TEST(GreedyTest, ExactnessAgainstEnumeration) {
  util::Xoshiro256 rng(23);
  for (int rep = 0; rep < 120; ++rep) {
    const int n = 1 + static_cast<int>(rng.below(4));
    const int m = static_cast<int>(rng.below(4));
    const auto pair = testing::random_int_instance(rng, n, m, 8);
    const ExactAcyclic exact = optimal_acyclic_exact(pair.rat);
    // Greedy must accept exactly at the optimum...
    EXPECT_TRUE(greedy_test(pair.rat, exact.throughput).has_value())
        << "n=" << n << " m=" << m << " T*=" << exact.throughput;
    // ...and reject slightly above it.
    const Rational above = exact.throughput * Rational(1000001, 1000000);
    EXPECT_FALSE(greedy_test(pair.rat, above).has_value())
        << "n=" << n << " m=" << m << " T*=" << exact.throughput;
  }
}

TEST(GreedyTest, MonotoneInT) {
  util::Xoshiro256 rng(29);
  for (int rep = 0; rep < 50; ++rep) {
    const int n = 1 + static_cast<int>(rng.below(8));
    const int m = static_cast<int>(rng.below(8));
    const Instance inst = testing::random_instance(rng, n, m);
    bool was_feasible = true;
    for (double T = 0.05; T < 2.0 * cyclic_upper_bound(inst); T += 0.1) {
      const bool ok = greedy_test(inst, T).has_value();
      if (!was_feasible) {
        EXPECT_FALSE(ok) << "feasibility must be monotone, T=" << T;
      }
      was_feasible = ok;
    }
  }
}

TEST(DichotomicSearch, MatchesExactOptimumOnSmallInstances) {
  util::Xoshiro256 rng(31);
  for (int rep = 0; rep < 80; ++rep) {
    const int n = 1 + static_cast<int>(rng.below(4));
    const int m = static_cast<int>(rng.below(4));
    const auto pair = testing::random_int_instance(rng, n, m, 10);
    const double exact = optimal_acyclic_exact(pair.rat).throughput.to_double();
    const double searched = optimal_acyclic_throughput(pair.dbl);
    EXPECT_NEAR(searched, exact, 1e-7 * std::max(1.0, exact))
        << "n=" << n << " m=" << m;
  }
}

TEST(DichotomicSearch, OpenOnlyMatchesClosedForm) {
  util::Xoshiro256 rng(37);
  for (int rep = 0; rep < 60; ++rep) {
    const int n = 1 + static_cast<int>(rng.below(12));
    const Instance inst = testing::random_instance(rng, n, 0);
    EXPECT_NEAR(optimal_acyclic_throughput(inst), acyclic_open_optimal(inst),
                1e-8);
  }
}

TEST(DichotomicSearch, NoReceivers) {
  const Instance inst(2.5, {}, {});
  EXPECT_DOUBLE_EQ(optimal_acyclic_throughput(inst), 2.5);
}

TEST(DichotomicSearch, GuardedOnlyIsSourceSplit) {
  // Only the source can feed guarded nodes: T*_ac = b0/m.
  const Instance inst(6.0, {}, {2.0, 2.0, 2.0});
  EXPECT_NEAR(optimal_acyclic_throughput(inst), 2.0, 1e-9);
}

TEST(DichotomicSearch, AcyclicNeverExceedsCyclicBound) {
  util::Xoshiro256 rng(41);
  for (int rep = 0; rep < 100; ++rep) {
    const int n = 1 + static_cast<int>(rng.below(10));
    const int m = static_cast<int>(rng.below(10));
    const Instance inst = testing::random_instance(rng, n, m);
    EXPECT_LE(optimal_acyclic_throughput(inst),
              cyclic_upper_bound(inst) + 1e-9);
  }
}

// Theorem 6.2 lower bound, checked as a property on random instances:
// T*_ac >= (5/7) T*.
TEST(DichotomicSearch, FiveSeventhsBoundHolds) {
  util::Xoshiro256 rng(43);
  for (int rep = 0; rep < 300; ++rep) {
    const int n = 1 + static_cast<int>(rng.below(12));
    const int m = static_cast<int>(rng.below(12));
    const Instance inst = testing::random_instance(rng, n, m, 0.1, 50.0);
    const double t_ac = optimal_acyclic_throughput(inst);
    const double t_star = cyclic_upper_bound(inst);
    EXPECT_GE(t_ac, 5.0 / 7.0 * t_star - 1e-7)
        << "n=" << n << " m=" << m;
  }
}

TEST(GreedyPolicies, AblationsNeverBeatPaperPolicy) {
  util::Xoshiro256 rng(47);
  for (int rep = 0; rep < 60; ++rep) {
    const int n = 1 + static_cast<int>(rng.below(6));
    const int m = static_cast<int>(rng.below(6));
    const Instance inst = testing::random_instance(rng, n, m);
    const double full = optimal_acyclic_throughput(inst, GreedyPolicy::kPaper);
    for (const auto policy :
         {GreedyPolicy::kNoLookahead, GreedyPolicy::kNoLastGuardedRule,
          GreedyPolicy::kBandwidthGreedy}) {
      const double ablated = optimal_acyclic_throughput(inst, policy);
      EXPECT_LE(ablated, full + 1e-7);
    }
  }
}

// Regression: tight homogeneous instances hit GreedyTest's decision
// boundaries exactly at dyadic T (e.g. (n,m,Delta)=(16,12,14) at T=3/4 and
// T=11/16), where double roundoff used to flip the branch and spuriously
// reject a feasible throughput, breaking the dichotomic search's
// monotonicity assumption.
TEST(GreedyTest, TieBreakingOnTightHomogeneousBoundaries) {
  const Instance inst(
      1.0, std::vector<double>(16, 25.0 / 16.0),  // o = (m-1+Delta)/n
      std::vector<double>(12, 1.0 / 6.0));        // g = (n-Delta)/m
  EXPECT_TRUE(greedy_test(inst, 0.75).has_value());
  EXPECT_TRUE(greedy_test(inst, 0.6875).has_value());
  EXPECT_GE(optimal_acyclic_throughput(inst), 0.96);
  // Exact-rational execution confirms T = 3/4 is feasible per Lemma 4.5.
  const RationalInstance rinst(
      Rational(1), std::vector<Rational>(16, Rational(25, 16)),
      std::vector<Rational>(12, Rational(1, 6)));
  EXPECT_TRUE(greedy_test(rinst, Rational(3, 4)).has_value());
  EXPECT_TRUE(greedy_test(rinst, Rational(11, 16)).has_value());
}

// Denser monotonicity fuzz on structured (boundary-rich) instances.
TEST(GreedyTest, MonotoneOnTightHomogeneousGrid) {
  for (int n = 2; n <= 14; n += 3) {
    for (int m = 1; m <= 13; m += 3) {
      for (int d = 0; d <= 4; ++d) {
        std::vector<double> open(static_cast<std::size_t>(n),
                                 (m - 1 + n * d / 4.0) / n);
        std::vector<double> guarded(static_cast<std::size_t>(m),
                                    (n - n * d / 4.0) / m);
        const Instance inst(1.0, open, guarded);
        bool was_ok = true;
        for (int t = 1; t <= 64; ++t) {
          const bool ok = greedy_test(inst, t / 64.0).has_value();
          if (!was_ok) {
            EXPECT_FALSE(ok) << "n=" << n << " m=" << m << " d=" << d
                             << " T=" << t / 64.0;
          }
          was_ok = ok;
        }
      }
    }
  }
}

TEST(SolveAcyclic, ReturnsConsistentBundle) {
  const Instance inst = testing::fig1_instance();
  const AcyclicSolution sol = solve_acyclic(inst);
  EXPECT_NEAR(sol.throughput, 4.0, 1e-7);
  EXPECT_EQ(count_open(sol.word), inst.n());
  EXPECT_EQ(count_guarded(sol.word), inst.m());
  EXPECT_TRUE(sol.scheme.validate(inst).empty());
  EXPECT_TRUE(sol.scheme.is_acyclic());
  EXPECT_LE(sol.scheme.max_inflow_deviation(sol.throughput), 1e-6);
}

// The dichotomic search stops once lo and hi are adjacent doubles: from
// there every probe repeats an earlier one, so a cap of 100 halvings must
// return exactly what 2000 do.
TEST(AcyclicSearch, EarlyStopIsTheFullBisection) {
  util::Xoshiro256 rng(1407);
  std::vector<Instance> instances;
  for (int rep = 0; rep < 12; ++rep) {
    instances.push_back(testing::random_instance(
        rng, 1 + static_cast<int>(rng.below(8)),
        static_cast<int>(rng.below(8))));
  }
  for (int n = 2; n <= 16; n += 7) {
    for (int m = 1; m <= 12; m += 4) {
      for (int d = 0; d <= 4; ++d) {
        instances.push_back(theory::tight_homogeneous(n, m, n * d / 4.0));
      }
    }
  }
  for (int rep = 0; rep < 12; ++rep) {  // guarded-heavy: few small opens
    std::vector<double> open(static_cast<std::size_t>(rng.below(3)));
    for (double& b : open) b = rng.uniform(0.5, 3.0);
    std::vector<double> guarded(static_cast<std::size_t>(4 + rng.below(10)));
    for (double& b : guarded) b = rng.uniform(1.0, 10.0);
    instances.emplace_back(rng.uniform(0.5, 4.0), open, guarded);
  }
  int bisected = 0;
  for (const Instance& inst : instances) {
    const AcyclicSolution capped = solve_acyclic(inst, 100);
    const AcyclicSolution full = solve_acyclic(inst, 2000);
    EXPECT_EQ(std::memcmp(&capped.throughput, &full.throughput,
                          sizeof(double)),
              0)
        << capped.throughput << " vs " << full.throughput;
    EXPECT_EQ(to_string(capped.word), to_string(full.word));
    if (capped.throughput < cyclic_upper_bound(inst)) ++bisected;
  }
  // Most instances must actually bisect (the upper-bound probe fails).
  EXPECT_GE(bisected, static_cast<int>(instances.size()) / 2);

  // Values of the search without the early stop: the converged optimum,
  // and a cap below the fixed point, which still bounds the search.
  const Instance fig1 = testing::fig1_instance();
  const Instance tight = theory::tight_homogeneous(16, 12, 14);
  EXPECT_EQ(solve_acyclic(fig1).throughput, 4.0000000000054996);
  EXPECT_EQ(solve_acyclic(tight).throughput, 0.988095238096238);
  const AcyclicSolution fig1_coarse = solve_acyclic(fig1, 8);
  EXPECT_EQ(fig1_coarse.throughput, 3.9875000000000003);
  EXPECT_EQ(to_string(fig1_coarse.word), "GOGOG");
  const AcyclicSolution tight_coarse = solve_acyclic(tight, 8);
  EXPECT_EQ(tight_coarse.throughput, 0.984375);
  EXPECT_EQ(to_string(tight_coarse.word), "OOGOGOOGOGOOGOGOGOOGOGOOGOGG");
}

}  // namespace
}  // namespace bmp
