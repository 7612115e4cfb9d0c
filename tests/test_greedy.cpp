// Algorithm 2 "GreedyTest" tests (§IV.B): the Fig. 1 execution, exactness
// against the brute-force word enumeration (Lemma 4.5), monotonicity, and
// the dichotomic search for T*_ac.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bmp/core/acyclic_search.hpp"
#include "bmp/core/bounds.hpp"
#include "bmp/core/exact.hpp"
#include "bmp/core/greedy_test.hpp"
#include "bmp/core/word_throughput.hpp"
#include "bmp/gen/distributions.hpp"
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

/// Random, tight homogeneous (dyadic-tie) and guarded-heavy instances on
/// which the search's stopping rule and replay are checked.
std::vector<Instance> early_stop_instances() {
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
  return instances;
}

// The dichotomic search stops once lo and hi are adjacent doubles: from
// there every probe repeats an earlier one, so a cap of 100 halvings must
// return exactly what 2000 do.
TEST(AcyclicSearch, EarlyStopIsTheFullBisection) {
  const std::vector<Instance> instances = early_stop_instances();
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

/// The dichotomic search as it was before the bracket replay: the cold
/// bisection over [0, cyclic_upper_bound] probing every midpoint. The
/// replay must return its bits exactly.
struct ColdResult {
  double throughput;
  std::optional<Word> word;
};

ColdResult cold_search(const Instance& instance, GreedyPolicy policy,
                       int iters) {
  if (instance.n() + instance.m() == 0) return {instance.b(0), Word{}};
  const double hi0 = cyclic_upper_bound(instance);
  const double tie_tol = greedy_tie_tolerance(instance, hi0);
  Word best;
  Word probe;
  if (greedy_test_into(instance, hi0, best, policy, tie_tol)) {
    return {hi0, std::move(best)};
  }
  double lo = 0.0;
  double hi = hi0;
  bool has_best = greedy_test_into(instance, lo, best, policy, tie_tol);
  for (int k = 0; k < iters; ++k) {
    const double mid = 0.5 * (lo + hi);
    if (mid == lo || mid == hi) break;
    if (greedy_test_into(instance, mid, probe, policy, tie_tol)) {
      lo = mid;
      std::swap(best, probe);
      has_best = true;
    } else {
      hi = mid;
    }
  }
  if (!has_best) return {lo, std::nullopt};
  return {lo, std::move(best)};
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// A churn-like platform: 150 peers, about half of them guarded, with
/// bandwidths from the uniform and log-normal classes.
Instance churn_platform(util::Xoshiro256& rng) {
  std::vector<double> open;
  std::vector<double> guarded;
  for (int k = 0; k < 150; ++k) {
    const bool uniform_class = k < 90;
    const double b = gen::sample(
        uniform_class ? gen::Dist::kUnif100 : gen::Dist::kLogNormal1, rng);
    (rng.uniform(0.0, 1.0) < (uniform_class ? 0.6 : 0.4) ? open : guarded)
        .push_back(b);
  }
  return Instance(rng.uniform(3000.0, 5000.0), std::move(open),
                  std::move(guarded));
}

/// The platforms one churn event or renegotiation away: one node joins,
/// one leaves, and the broker rescales every bandwidth.
std::vector<Instance> churn_neighbours(const Instance& inst,
                                       util::Xoshiro256& rng) {
  std::vector<double> open;
  std::vector<double> guarded;
  for (int i = 1; i < inst.size(); ++i) {
    (inst.is_guarded(i) ? guarded : open).push_back(inst.b(i));
  }
  std::vector<Instance> out;
  {
    std::vector<double> o = open;
    std::vector<double> g = guarded;
    const double b = gen::sample(gen::Dist::kUnif100, rng);
    (rng.below(2) == 0 ? o : g).push_back(b);
    out.emplace_back(inst.b(0), std::move(o), std::move(g));
  }
  {
    std::vector<double> o = open;
    std::vector<double> g = guarded;
    std::vector<double>& from = (rng.below(2) == 0 && !o.empty()) ? o : g;
    const auto k = static_cast<std::ptrdiff_t>(rng.below(from.size()));
    from.erase(from.begin() + k);
    out.emplace_back(inst.b(0), std::move(o), std::move(g));
  }
  for (const double fraction : {0.3, 0.05}) {
    std::vector<double> o = open;
    std::vector<double> g = guarded;
    for (double& b : o) b *= fraction;
    for (double& b : g) b *= fraction;
    out.emplace_back(inst.b(0) * fraction, std::move(o), std::move(g));
  }
  return out;
}

/// True iff some ablated policy's GreedyTest passes above a T it fails,
/// on a grid of 64 rates up to the bound.
bool ablation_is_non_monotone(const Instance& inst) {
  const double hi = cyclic_upper_bound(inst);
  for (const auto policy : {GreedyPolicy::kNoLookahead,
                            GreedyPolicy::kNoLastGuardedRule,
                            GreedyPolicy::kBandwidthGreedy}) {
    bool failed = false;
    for (int t = 1; t <= 64; ++t) {
      const bool ok = greedy_test(inst, hi * t / 64.0, policy).has_value();
      if (ok && failed) return true;
      failed = failed || !ok;
    }
  }
  return false;
}

/// Checks every iteration cap and policy on `inst` against the cold
/// bisection. Returns the probes solve_acyclic made at the default cap
/// when the search bisected (0 when the bound itself passed).
int expect_replay_is_cold(const Instance& inst, const char* what, int index) {
  int probes = 0;
  for (const int iters : {0, 1, 8, 20, 100}) {
    const ColdResult cold = cold_search(inst, GreedyPolicy::kPaper, iters);
    if (cold.word.has_value()) {
      const AcyclicSolution sol = solve_acyclic(inst, iters);
      EXPECT_TRUE(same_bits(sol.throughput, cold.throughput))
          << what << " #" << index << " iters=" << iters << ": "
          << sol.throughput << " vs cold " << cold.throughput;
      EXPECT_EQ(to_string(sol.word), to_string(*cold.word))
          << what << " #" << index << " iters=" << iters;
      if (iters == 100 && sol.throughput < cyclic_upper_bound(inst)) {
        probes = sol.probes;
      }
    } else {
      EXPECT_THROW(solve_acyclic(inst, iters), std::logic_error);
    }
    for (const auto policy :
         {GreedyPolicy::kPaper, GreedyPolicy::kNoLookahead,
          GreedyPolicy::kNoLastGuardedRule, GreedyPolicy::kBandwidthGreedy}) {
      const double replayed = optimal_acyclic_throughput(inst, policy, iters);
      const double expected = cold_search(inst, policy, iters).throughput;
      EXPECT_TRUE(same_bits(replayed, expected))
          << what << " #" << index << " iters=" << iters << " policy "
          << static_cast<int>(policy) << ": " << replayed << " vs cold "
          << expected;
    }
  }
  return probes;
}

// The search answers the cold bisection's midpoints from a bracket of
// probed GreedyTest results (plus, under the paper's policy only, a
// gallop over the all-pass prefix and one speculative pair at the
// witness word's closed form). By Lemma 4.5's monotonicity that must
// reproduce the cold search bit for bit — throughput and witness word —
// at every iteration cap, while probing far less.
TEST(AcyclicSearch, ReplayIsTheColdBisection) {
  const std::vector<Instance> small = early_stop_instances();
  for (std::size_t k = 0; k < small.size(); ++k) {
    expect_replay_is_cold(small[k], "early-stop", static_cast<int>(k));
  }
  int index = 0;
  for (int n = 2; n <= 14; n += 3) {
    for (int m = 1; m <= 13; m += 3) {
      for (int d = 0; d <= 4; ++d) {
        expect_replay_is_cold(theory::tight_homogeneous(n, m, n * d / 4.0),
                              "tight", index++);
      }
    }
  }
  expect_replay_is_cold(theory::tight_homogeneous(16, 12, 14), "tight", index);
  // Small platforms on which an ablated policy is not monotone in T: extra
  // probes would break its replay there, so it must get none.
  util::Xoshiro256 small_rng(7);
  int non_monotone = 0;
  for (int rep = 0; rep < 4000; ++rep) {
    const int n = 1 + static_cast<int>(small_rng.below(8));
    const int m = static_cast<int>(small_rng.below(8));
    const Instance inst = testing::random_instance(small_rng, n, m);
    if (ablation_is_non_monotone(inst)) {
      expect_replay_is_cold(inst, "non-monotone", rep);
      ++non_monotone;
    }
  }
  EXPECT_GE(non_monotone, 10);

  util::Xoshiro256 rng(2026);
  long total_probes = 0;
  int bisected = 0;
  int solves = 0;
  const auto check = [&](const Instance& inst, const char* what, int rep) {
    const int probes = expect_replay_is_cold(inst, what, rep);
    total_probes += probes;
    bisected += probes > 0 ? 1 : 0;
    ++solves;
  };
  for (int rep = 0; rep < 200; ++rep) {
    const Instance platform = churn_platform(rng);
    check(platform, "platform", rep);
    for (const Instance& next : churn_neighbours(platform, rng)) {
      check(next, "neighbour", rep);
    }
  }
  // Like churn's platforms, nearly all must bisect (T*_ac below the bound),
  // where the cold search makes ~56 probes per solve.
  EXPECT_GE(bisected, solves * 9 / 10);
  const double mean = static_cast<double>(total_probes) / bisected;
  EXPECT_LE(mean, 20.0) << "mean GreedyTest probes per bisecting solve";
  std::printf("mean GreedyTest probes per bisecting solve: %.2f over %d\n",
              mean, bisected);
}

}  // namespace
}  // namespace bmp
