// Planning-engine tests: fingerprint canonicalization, plan-cache
// accounting, batch determinism across thread counts, and churn-session
// repair-vs-replan decisions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <numeric>
#include <vector>

#include "bmp/core/acyclic_search.hpp"
#include "bmp/core/bounds.hpp"
#include "bmp/engine/fingerprint.hpp"
#include "bmp/engine/plan_cache.hpp"
#include "bmp/engine/planner.hpp"
#include "bmp/engine/session.hpp"
#include "bmp/flow/maxflow.hpp"
#include "bmp/sim/churn.hpp"
#include "test_helpers.hpp"

namespace bmp::engine {
namespace {

// ------------------------------------------------------------- fingerprint

TEST(Fingerprint, InsensitiveToInputOrder) {
  const Instance a(6.0, {5.0, 3.0, 4.0}, {2.0, 1.0});
  const Instance b(6.0, {4.0, 5.0, 3.0}, {1.0, 2.0});
  EXPECT_EQ(fingerprint(a), fingerprint(b));
}

TEST(Fingerprint, SensitiveToBandwidths) {
  const Instance a(6.0, {5.0, 5.0}, {4.0, 1.0, 1.0});
  const Instance b(6.0, {5.0, 5.0}, {4.0, 1.0, 2.0});
  const Instance c(7.0, {5.0, 5.0}, {4.0, 1.0, 1.0});
  EXPECT_NE(fingerprint(a), fingerprint(b));
  EXPECT_NE(fingerprint(a), fingerprint(c));
}

TEST(Fingerprint, SensitiveToClassAssignment) {
  // Same bandwidth multiset, different open/guarded split.
  const Instance a(6.0, {5.0, 4.0}, {3.0});
  const Instance b(6.0, {5.0}, {4.0, 3.0});
  EXPECT_NE(fingerprint(a), fingerprint(b));
  EXPECT_NE(fingerprint(a).n, fingerprint(b).n);
}

TEST(Fingerprint, BucketsAbsorbJitter) {
  const Instance base(6.0, {5.0, 5.0}, {4.0});
  const Instance jittered(6.0 + 1e-9, {5.0 - 2e-9, 5.0}, {4.0 + 1e-9});
  const Instance shifted(6.0, {5.0, 5.1}, {4.0});
  EXPECT_EQ(fingerprint(base, 1e-3), fingerprint(jittered, 1e-3));
  EXPECT_NE(fingerprint(base, 1e-3), fingerprint(shifted, 1e-3));
}

TEST(Fingerprint, InvalidBucketThrows) {
  const Instance a(1.0, {1.0}, {});
  EXPECT_THROW((void)fingerprint(a, 0.0), std::invalid_argument);
  EXPECT_THROW((void)fingerprint(a, -1.0), std::invalid_argument);
  EXPECT_THROW(IncrementalFingerprint(a, 0.0), std::invalid_argument);
}

// ------------------------------------------------- incremental fingerprint

TEST(IncrementalFingerprint, MatchesFullRehashUnderRandomChurn) {
  // The ROADMAP perf-frontier contract: the live fingerprint maintained in
  // O(1) per join/leave delta must equal the full rehash of the survivor
  // platform after *every* event of a randomized churn sequence.
  for (const double bucket : {1e-6, 1e-3}) {
    util::Xoshiro256 rng(2027);
    std::vector<double> open;
    std::vector<double> guarded;
    for (int i = 0; i < 40; ++i) {
      (i % 3 == 0 ? guarded : open)
          .push_back(1.0 + static_cast<double>(rng.below(1000)) / 7.0);
    }
    const double source_bw = 100.0;
    IncrementalFingerprint live(Instance(source_bw, open, guarded), bucket);
    for (int step = 0; step < 300; ++step) {
      const bool join = rng.uniform() < 0.45 || open.size() + guarded.size() < 4;
      const bool pick_guarded = rng.uniform() < 0.4;
      auto& cls = pick_guarded ? guarded : open;
      if (join) {
        const double bandwidth = static_cast<double>(rng.below(1000)) / 3.0;
        cls.push_back(bandwidth);
        if (pick_guarded) {
          live.add_guarded(bandwidth);
        } else {
          live.add_open(bandwidth);
        }
      } else if (!cls.empty()) {
        const std::size_t victim = rng.below(cls.size());
        const double bandwidth = cls[victim];
        cls.erase(cls.begin() + static_cast<std::ptrdiff_t>(victim));
        if (pick_guarded) {
          live.remove_guarded(bandwidth);
        } else {
          live.remove_open(bandwidth);
        }
      }
      const Fingerprint rehash =
          fingerprint(Instance(source_bw, open, guarded), bucket);
      ASSERT_EQ(live.value(), rehash) << "step " << step << " bucket " << bucket;
    }
  }
}

TEST(IncrementalFingerprint, RemoveBySortedIdTracksRemoveNodes) {
  util::Xoshiro256 rng(99);
  Instance platform(50.0, {9.0, 3.0, 7.0, 5.0, 1.0}, {8.0, 2.0, 6.0});
  IncrementalFingerprint live(platform, 1e-6);
  while (platform.size() > 2) {
    const int victim = 1 + static_cast<int>(rng.below(
                               static_cast<std::uint64_t>(platform.size() - 1)));
    live.remove(platform, victim);
    platform = sim::remove_nodes(platform, {victim});
    ASSERT_EQ(live.value(), fingerprint(platform, 1e-6));
  }
  EXPECT_THROW(live.remove(platform, 0), std::invalid_argument);
  EXPECT_THROW(live.remove(platform, platform.size()), std::invalid_argument);
}

TEST(IncrementalFingerprint, PlannerAcceptsPrecomputedKeys) {
  // The fingerprint-forwarding plan path must hit the cache entries the
  // rehashing path populated, and vice versa.
  Planner planner;
  const Instance platform(20.0, {6.0, 5.0, 4.0}, {3.0, 2.0});
  const PlanResponse computed = planner.plan(platform, Algorithm::kAcyclic, 0);
  EXPECT_FALSE(computed.cache_hit);
  const IncrementalFingerprint live(platform,
                                    planner.config().fingerprint_bucket);
  const PlanResponse hit =
      planner.plan(platform, Algorithm::kAcyclic, 0, live.value());
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_DOUBLE_EQ(hit.throughput, computed.throughput);
  EXPECT_EQ(planner.request_key(platform, Algorithm::kAcyclic, 0),
            planner.request_key(live.value(), Algorithm::kAcyclic, 0));
}

TEST(IncrementalFingerprint, SessionChurnKeysMatchTheRehashedPlatform) {
  // After a full-replan churn event, a fresh request for the session's
  // survivor platform must be a cache hit: the session's incrementally
  // maintained key and the rehashed key agree.
  Planner planner;
  SessionConfig config;
  config.replan_threshold = 1.0;  // replan aggressively to exercise the key
  Session session(planner, Instance(12.0, {8.0, 7.0, 6.0, 5.0, 4.0}, {3.0, 2.0}),
                  config);
  // The three strongest uploaders depart: no repair can reach the old
  // design rate, so the session full-replans through its incremental key.
  const ChurnOutcome outcome = session.on_departure({1, 2, 3});
  ASSERT_TRUE(outcome.full_replan);
  const PlanResponse again =
      planner.plan(session.instance(), config.algorithm, config.max_out_degree);
  EXPECT_TRUE(again.cache_hit);
}

// -------------------------------------------------------------- plan cache

std::shared_ptr<const PlanResponse> dummy_plan(double throughput) {
  auto response = std::make_shared<PlanResponse>();
  response->throughput = throughput;
  return response;
}

Fingerprint key_of(std::uint64_t h) {
  Fingerprint key;
  key.hash = h;
  key.n = 1;
  key.m = 0;
  return key;
}

TEST(PlanCache, HitMissAccounting) {
  PlanCache cache(8, 2);
  EXPECT_EQ(cache.lookup(key_of(1)), nullptr);
  cache.insert(key_of(1), dummy_plan(4.0));
  const auto hit = cache.lookup(key_of(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_DOUBLE_EQ(hit->throughput, 4.0);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.size, 1u);
}

TEST(PlanCache, EvictsLeastRecentlyUsed) {
  // Single shard so the LRU order is global and predictable.
  PlanCache cache(2, 1);
  cache.insert(key_of(1), dummy_plan(1.0));
  cache.insert(key_of(2), dummy_plan(2.0));
  EXPECT_NE(cache.lookup(key_of(1)), nullptr);  // 1 is now MRU
  cache.insert(key_of(3), dummy_plan(3.0));     // evicts 2
  EXPECT_EQ(cache.lookup(key_of(2)), nullptr);
  EXPECT_NE(cache.lookup(key_of(1)), nullptr);
  EXPECT_NE(cache.lookup(key_of(3)), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().size, 2u);
}

TEST(PlanCache, ZeroCapacityDisables) {
  PlanCache cache(0, 4);
  cache.insert(key_of(1), dummy_plan(1.0));
  EXPECT_EQ(cache.lookup(key_of(1)), nullptr);
  EXPECT_EQ(cache.stats().size, 0u);
}

TEST(PlanCache, ClearEmptiesAllShards) {
  PlanCache cache(32, 4);
  for (std::uint64_t k = 0; k < 20; ++k) cache.insert(key_of(k), dummy_plan(1.0));
  EXPECT_GT(cache.size(), 0u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

// ----------------------------------------------------------------- planner

TEST(Planner, MatchesDirectSolve) {
  const Instance platform = bmp::testing::fig1_instance();
  Planner planner;
  const PlanResponse response =
      planner.plan(PlanRequest{platform, Algorithm::kAcyclic, 0});
  const AcyclicSolution direct = solve_acyclic(platform);
  EXPECT_NEAR(response.throughput, direct.throughput, 1e-9);
  EXPECT_FALSE(response.cache_hit);
  ASSERT_NE(response.scheme, nullptr);
  EXPECT_TRUE(response.scheme->validate(platform).empty());
  EXPECT_NEAR(flow::scheme_throughput(*response.scheme), response.throughput,
              1e-6);
}

TEST(Planner, SecondCallHitsCache) {
  Planner planner;
  const PlanRequest request{bmp::testing::fig1_instance(), Algorithm::kAcyclic, 0};
  const PlanResponse first = planner.plan(request);
  const PlanResponse second = planner.plan(request);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(first.scheme.get(), second.scheme.get());  // shared, not copied
  EXPECT_EQ(planner.cache_stats().hits, 1u);
}

TEST(Planner, KeyDependsOnAlgorithmAndBound) {
  Planner planner;
  const Instance platform = bmp::testing::fig1_instance();
  const Fingerprint acyclic =
      planner.request_key(PlanRequest{platform, Algorithm::kAcyclic, 0});
  const Fingerprint autoalg =
      planner.request_key(PlanRequest{platform, Algorithm::kAuto, 0});
  const Fingerprint bounded =
      planner.request_key(PlanRequest{platform, Algorithm::kAcyclic, 3});
  EXPECT_NE(acyclic, autoalg);
  EXPECT_NE(acyclic, bounded);
}

TEST(Planner, CyclicOnOpenOnlyReachesTheorem52) {
  const Instance platform = bmp::testing::fig14_instance();
  Planner planner;
  const PlanResponse response =
      planner.plan(PlanRequest{platform, Algorithm::kCyclic, 0});
  EXPECT_EQ(response.algorithm, Algorithm::kCyclic);
  EXPECT_NEAR(response.throughput, cyclic_open_optimal(platform), 1e-9);
  EXPECT_TRUE(response.scheme->validate(platform).empty());
}

TEST(Planner, CyclicFallsBackWithGuardedNodes) {
  Planner planner;
  const PlanResponse response = planner.plan(
      PlanRequest{bmp::testing::fig1_instance(), Algorithm::kCyclic, 0});
  EXPECT_EQ(response.algorithm, Algorithm::kAcyclic);
}

TEST(Planner, AutoHonorsDegreeBound) {
  bmp::util::Xoshiro256 rng(5);
  Planner planner;
  for (int rep = 0; rep < 10; ++rep) {
    const Instance platform = bmp::testing::random_instance(rng, 8, 4);
    const PlanResponse bounded =
        planner.plan(PlanRequest{platform, Algorithm::kAuto, 3});
    if (bounded.degree_bound_met) {
      EXPECT_LE(bounded.max_degree, 3);
    }
    EXPECT_TRUE(bounded.scheme->validate(platform).empty());
  }
}

TEST(Planner, BatchDeterministicAcrossThreadCounts) {
  bmp::util::Xoshiro256 rng(11);
  std::vector<PlanRequest> stream;
  for (int r = 0; r < 40; ++r) {
    // 10 distinct platforms, each requested 4 times.
    bmp::util::Xoshiro256 fork = rng.fork(static_cast<std::uint64_t>(r % 10));
    stream.push_back(PlanRequest{
        bmp::testing::random_instance(fork, 10, 5), Algorithm::kAuto, 0});
  }

  std::vector<std::vector<PlanResponse>> runs;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}, std::size_t{7}}) {
    PlannerConfig config;
    config.threads = threads;
    Planner planner(config);
    runs.push_back(planner.plan_batch(stream));
  }
  for (std::size_t run = 1; run < runs.size(); ++run) {
    ASSERT_EQ(runs[run].size(), runs[0].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_DOUBLE_EQ(runs[run][i].throughput, runs[0][i].throughput);
      EXPECT_EQ(runs[run][i].algorithm, runs[0][i].algorithm);
      EXPECT_EQ(runs[run][i].max_degree, runs[0][i].max_degree);
      EXPECT_EQ(runs[run][i].cache_hit, runs[0][i].cache_hit);
      EXPECT_EQ(runs[run][i].scheme->edge_count(), runs[0][i].scheme->edge_count());
    }
  }
}

TEST(Planner, BatchDedupesDuplicates) {
  PlannerConfig config;
  config.threads = 4;
  Planner planner(config);
  const std::vector<PlanRequest> stream(
      8, PlanRequest{bmp::testing::fig1_instance(), Algorithm::kAcyclic, 0});
  const std::vector<PlanResponse> responses = planner.plan_batch(stream);
  ASSERT_EQ(responses.size(), 8u);
  EXPECT_FALSE(responses[0].cache_hit);
  for (std::size_t i = 1; i < responses.size(); ++i) {
    EXPECT_TRUE(responses[i].cache_hit);
    EXPECT_EQ(responses[i].scheme.get(), responses[0].scheme.get());
  }
  // Only one miss was ever planned.
  EXPECT_EQ(planner.cache_stats().misses, 1u);
  EXPECT_EQ(planner.cache_stats().insertions, 1u);
}

// ----------------------------------------------------------------- session

TEST(Session, RepairRestoresOrphanedNode) {
  // Generous slack: the source alone could re-feed a lost subtree.
  const Instance platform(20.0, {10.0, 10.0, 10.0}, {5.0, 5.0});
  Planner planner;
  Session session(planner, platform);
  const double design = session.design_rate();
  ASSERT_GT(design, 0.0);

  const ChurnOutcome outcome = session.on_departure({1});
  EXPECT_FALSE(outcome.full_replan);
  EXPECT_GE(outcome.achieved_rate, 0.9 * design - 1e-9);
  EXPECT_EQ(session.incremental_replans(), 1);
  EXPECT_EQ(session.full_replans(), 0);
  EXPECT_EQ(session.instance().size(), platform.size() - 1);
  // The repaired overlay is valid and its verified throughput is honest.
  EXPECT_TRUE(session.scheme().validate(session.instance()).empty());
  EXPECT_NEAR(flow::scheme_throughput(session.scheme()),
              session.current_rate(), 1e-6);
}

TEST(Session, CatastrophicDepartureForcesFullReplan) {
  // Removing the big open nodes leaves survivors that cannot sustain the
  // design rate: Lemma 5.1 caps them strictly below 90% of it.
  const Instance platform(10.0, {10.0, 10.0, 10.0, 10.0}, {1.0, 1.0});
  Planner planner;
  Session session(planner, platform);
  const double design = session.design_rate();
  ASSERT_GT(design, 0.0);

  const ChurnOutcome outcome = session.on_departure({1, 2, 3});
  const Instance& survivors = session.instance();
  EXPECT_TRUE(outcome.full_replan);
  EXPECT_EQ(session.full_replans(), 1);
  // Full replan resets the design rate to the survivors' optimum.
  EXPECT_NEAR(session.design_rate(), solve_acyclic(survivors).throughput, 1e-9);
  EXPECT_TRUE(session.scheme().validate(survivors).empty());
}

TEST(Session, EmptyDepartureIsNoop) {
  Planner planner;
  Session session(planner, bmp::testing::fig1_instance());
  const ChurnOutcome outcome = session.on_departure({});
  EXPECT_EQ(outcome.departed, 0);
  EXPECT_DOUBLE_EQ(outcome.achieved_rate, session.design_rate());
  EXPECT_EQ(session.incremental_replans(), 0);
  EXPECT_EQ(session.full_replans(), 0);
}

TEST(Session, BadDepartureIdThrows) {
  Planner planner;
  Session session(planner, bmp::testing::fig1_instance());
  EXPECT_THROW(session.on_departure({0}), std::invalid_argument);
  EXPECT_THROW(session.on_departure({99}), std::invalid_argument);
}

TEST(RepairScheme, PatchKeepsSchemeValid) {
  bmp::util::Xoshiro256 rng(21);
  for (int rep = 0; rep < 8; ++rep) {
    const Instance platform = bmp::testing::random_instance(rng, 12, 6);
    const AcyclicSolution solution = solve_acyclic(platform);
    if (solution.throughput <= 0.0) continue;
    const std::vector<int> departed{3, 9};
    const Instance survivors = sim::remove_nodes(platform, departed);
    const BroadcastScheme restricted =
        sim::restrict_scheme(solution.scheme, departed);
    const RepairResult repair =
        repair_scheme(survivors, restricted, solution.throughput);
    EXPECT_TRUE(repair.scheme.validate(survivors).empty());
    EXPECT_TRUE(repair.scheme.is_acyclic());
    // Repair can only improve on doing nothing.
    EXPECT_GE(repair.throughput,
              flow::scheme_throughput(restricted) - 1e-9);
  }
}

TEST(Session, CapacitiesExposesPlannedPlatform) {
  const Instance platform = bmp::testing::fig1_instance();
  Planner planner;
  Session session(planner, platform);
  const std::vector<double> caps = session.capacities();
  ASSERT_EQ(caps.size(), static_cast<std::size_t>(platform.size()));
  for (int i = 0; i < platform.size(); ++i) {
    EXPECT_DOUBLE_EQ(caps[static_cast<std::size_t>(i)], platform.b(i));
  }
}

TEST(Session, RescaleIsExact) {
  Planner planner;
  Session session(planner, bmp::testing::fig1_instance());
  const double design = session.design_rate();
  const int edges = session.scheme().edge_count();
  ASSERT_GT(design, 0.0);

  session.rescale(0.25);
  EXPECT_NEAR(session.design_rate(), 0.25 * design, 1e-12);
  EXPECT_NEAR(session.current_rate(), 0.25 * design, 1e-12);
  EXPECT_EQ(session.scheme().edge_count(), edges);  // same overlay, scaled
  EXPECT_TRUE(session.scheme().validate(session.instance()).empty());
  EXPECT_NEAR(flow::scheme_throughput(session.scheme()),
              session.current_rate(), 1e-9);
  // Scaled caps are visible through the broker-facing accessor.
  EXPECT_NEAR(session.capacities()[0],
              0.25 * bmp::testing::fig1_instance().b(0), 1e-12);

  session.rescale(4.0);  // round-trips back to the original platform
  EXPECT_NEAR(session.design_rate(), design, 1e-9);

  EXPECT_THROW(session.rescale(0.0), std::invalid_argument);
  EXPECT_THROW(session.rescale(-1.0), std::invalid_argument);
}

TEST(Session, RescaledSessionStillAbsorbsChurn) {
  const Instance platform(20.0, {10.0, 10.0, 10.0}, {5.0, 5.0});
  Planner planner;
  Session session(planner, platform);
  session.rescale(0.5);
  const double design = session.design_rate();
  const ChurnOutcome outcome = session.on_departure({1});
  EXPECT_GE(outcome.achieved_rate, 0.9 * design - 1e-9);
  EXPECT_TRUE(session.scheme().validate(session.instance()).empty());
}

// -------------------------------------------- repair_scheme edge cases

TEST(RepairScheme, NoSurvivorWithSpareUploadLeavesDeficit) {
  // Source -> 1 -> 2 chain at rate 1 saturates every positive budget;
  // node 3 (zero upload) is orphaned and no survivor has spare upload to
  // re-feed it. The patch must add nothing and stay valid rather than
  // oversubscribe someone.
  const Instance survivors(1.0, {1.0, 0.0, 0.0}, {});
  BroadcastScheme restricted(4);
  restricted.add(0, 1, 1.0);
  restricted.add(1, 2, 1.0);
  const RepairResult repair = repair_scheme(survivors, restricted, 1.0);
  EXPECT_DOUBLE_EQ(repair.added_rate, 0.0);
  EXPECT_TRUE(repair.scheme.validate(survivors).empty());
  EXPECT_DOUBLE_EQ(repair.throughput, 0.0);  // node 3 is unreachable
}

TEST(RepairScheme, SurvivesDepartureOfHighestBandwidthRelay) {
  // Node 1 is the dominant open relay; its departure orphans most of the
  // overlay. Source slack plus the remaining opens must re-feed everyone.
  const Instance platform(20.0, {12.0, 6.0, 6.0}, {3.0, 3.0});
  const AcyclicSolution solution = solve_acyclic(platform);
  ASSERT_GT(solution.throughput, 0.0);
  ASSERT_GT(solution.scheme.out_rate(1), 0.0);  // it really relays

  const std::vector<int> departed{1};
  const Instance survivors = sim::remove_nodes(platform, departed);
  const BroadcastScheme restricted =
      sim::restrict_scheme(solution.scheme, departed);
  const RepairResult repair =
      repair_scheme(survivors, restricted, solution.throughput);
  EXPECT_TRUE(repair.scheme.validate(survivors).empty());
  EXPECT_TRUE(repair.scheme.is_acyclic());
  EXPECT_GE(repair.throughput, flow::scheme_throughput(restricted) - 1e-9);
  EXPECT_GT(repair.added_rate, 0.0);  // the orphans were actually patched
}

TEST(RepairScheme, CyclicOverlayPassesThroughUnpatched) {
  // session.hpp documents cyclic overlays as unpatched: the repair must
  // return the scheme bit-for-bit and still measure its throughput.
  const Instance survivors(2.0, {2.0, 2.0}, {});
  BroadcastScheme cyclic(3);
  cyclic.add(0, 1, 1.0);
  cyclic.add(1, 2, 1.0);
  cyclic.add(2, 1, 0.5);  // closes the 1 <-> 2 cycle
  ASSERT_FALSE(cyclic.is_acyclic());

  const RepairResult repair = repair_scheme(survivors, cyclic, 2.0);
  EXPECT_DOUBLE_EQ(repair.added_rate, 0.0);
  EXPECT_EQ(repair.scheme.edge_count(), cyclic.edge_count());
  for (int i = 0; i < cyclic.num_nodes(); ++i) {
    for (const auto& [to, rate] : cyclic.out_edges(i)) {
      EXPECT_DOUBLE_EQ(repair.scheme.rate(i, to), rate);
    }
  }
  EXPECT_NEAR(repair.throughput, flow::scheme_throughput(cyclic), 1e-12);
}

TEST(RepairScheme, TrimMakesReducedTargetsFeasible) {
  bmp::util::Xoshiro256 rng(33);
  int repaired_to_target = 0;
  for (int rep = 0; rep < 8; ++rep) {
    const Instance platform = bmp::testing::random_instance(rng, 14, 7);
    const AcyclicSolution solution = solve_acyclic(platform);
    if (solution.throughput <= 0.0) continue;
    const std::vector<int> departed{2};
    const Instance survivors = sim::remove_nodes(platform, departed);
    const BroadcastScheme restricted =
        sim::restrict_scheme(solution.scheme, departed);
    const double target = 0.9 * solution.throughput;
    const RepairResult repair = repair_scheme(survivors, restricted, target);
    EXPECT_TRUE(repair.scheme.validate(survivors).empty());
    if (repair.throughput >= target - 1e-6) ++repaired_to_target;
  }
  // One small departure should nearly always be absorbable at 90%.
  EXPECT_GE(repaired_to_target, 6);
}

// ------------------------------------------------------ pinned repair sweep

/// A random acyclic plan on `platform`: peers join in a random order after
/// the source, and each draws 1-3 in-edges from earlier nodes (never
/// guarded -> guarded) at rates from dust (under 2% of `rate`) up to
/// 0.9 `rate`, capped by the sender's spare upload. Inflows land above and
/// below `rate`, so every repair pass has work.
BroadcastScheme random_acyclic_plan(const Instance& platform, double rate,
                                    bmp::util::Xoshiro256& rng) {
  const int size = platform.size();
  std::vector<int> order(static_cast<std::size_t>(size));
  std::iota(order.begin(), order.end(), 0);
  for (int k = size - 1; k > 1; --k) {
    const int j = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(k)));
    std::swap(order[static_cast<std::size_t>(k)],
              order[static_cast<std::size_t>(j)]);
  }
  std::vector<double> spare(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i) spare[static_cast<std::size_t>(i)] = platform.b(i);
  BroadcastScheme plan(size);
  for (int k = 1; k < size; ++k) {
    const int to = order[static_cast<std::size_t>(k)];
    const int edges = 1 + static_cast<int>(rng.below(3));
    for (int e = 0; e < edges; ++e) {
      const int from = order[static_cast<std::size_t>(
          rng.below(static_cast<std::uint64_t>(k)))];
      const double want = rng.below(4) == 0 ? rng.uniform(0.002, 0.02) * rate
                                            : rng.uniform(0.1, 0.9) * rate;
      const double take = std::min(want, spare[static_cast<std::size_t>(from)]);
      if ((platform.is_guarded(from) && platform.is_guarded(to)) ||
          take <= 1e-6 * rate) {
        continue;
      }
      plan.add(from, to, take);
      spare[static_cast<std::size_t>(from)] -= take;
    }
  }
  return plan;
}

struct SweepCase {
  Instance survivors;
  BroadcastScheme restricted;
  double design_rate;
};

/// Seeded churn sweep over random mixed open/guarded platforms: even cases
/// start from the §IV plan (solve_acyclic), odd ones from a random acyclic
/// plan at the platform's acyclic optimum; then 1-3 random departures.
std::vector<SweepCase> repair_sweep_cases() {
  bmp::util::Xoshiro256 rng(0xBEEF);
  std::vector<SweepCase> cases;
  for (int c = 0; c < 24; ++c) {
    const int n = 3 + static_cast<int>(rng.below(10));
    const int m = 2 + static_cast<int>(rng.below(8));
    const Instance platform = bmp::testing::random_instance(rng, n, m);
    const AcyclicSolution solution = solve_acyclic(platform);
    const double design = solution.throughput;
    const BroadcastScheme plan =
        c % 2 == 0 ? solution.scheme
                   : random_acyclic_plan(platform, design, rng);
    std::vector<int> departed =
        sim::sample_departures(n + m, 1 + rng.below(3), rng);
    std::sort(departed.begin(), departed.end());
    cases.push_back({sim::remove_nodes(platform, departed),
                     sim::restrict_scheme(plan, departed), design});
  }
  return cases;
}

/// FNV-1a over the edge list in (from, to) order, rates bit for bit.
std::uint64_t edge_hash(const BroadcastScheme& scheme) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xFF;
      h *= 1099511628211ull;
    }
  };
  for (int from = 0; from < scheme.num_nodes(); ++from) {
    for (const auto& [to, rate] : scheme.out_edges(from)) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &rate, sizeof bits);
      mix(static_cast<std::uint64_t>(from));
      mix(static_cast<std::uint64_t>(to));
      mix(bits);
    }
  }
  return h;
}

struct PinnedRepair {
  std::uint64_t edges;
  double throughput;
  double added_rate;
};

// Recorded from the O(n^2) repair (per-node in_rate scans, full
// topological re-sort per tentative swap); the linear-time repair must
// reproduce every bit. One row per (case, target) in sweep order.
constexpr PinnedRepair kPinnedRepairs[] = {
    {0x7aadd880ccc7b595ull, 4.8034932113464546, 7.6691913063526176},
    {0xe14e0b100fb2bccfull, 4.5633185508352714, 6.8669819459267387},
    {0x502fe4fec53ad187ull, 4.3231438902649941, 6.146457964215907},
    {0x516e8a9e7c88f920ull, 2.1477462836832952, 22.003713167205333},
    {0x8f7cc247b8325352ull, 2.1477462836832952, 20.188456223557331},
    {0x347ce0bdbdbe4e71ull, 2.1477462836832952, 18.244283385881708},
    {0xee1cbd1d7f3b4342ull, 4.809200853629739, 0},
    {0xf1e52a8dcbf920c5ull, 4.5687408109482517, 0},
    {0x16fbc9b3c38344f2ull, 4.3282807682667652, 0},
    {0xf2a7a189bccd2b70ull, 3.5003870254541667, 30.790025866008914},
    {0x94cd50f8971ef0feull, 3.7943603546799238, 30.496052536783157},
    {0x3c4ed87d2e29c1ccull, 4.3281807570712916, 29.72194200888881},
    {0x82272f4d263c9472ull, 4.7598268541045012, 7.8609026857877407},
    {0x217315ac8da4ee41ull, 4.5218355113992761, 7.1469286576720652},
    {0x584bb026bb8c128eull, 4.2838441686940509, 6.575105108478823},
    {0x065fde348fac87c9ull, 1.0227968579186053, 16.489643178467077},
    {0x241a2f4bde4c0a79ull, 1.4064695909240263, 15.837900900400152},
    {0x89ebccd13afe5c71ull, 1.4434972077740467, 15.26239180089202},
    {0x9699a6e722b4f10bull, 4.8041238991627235, 6.5761559383958446},
    {0x7a3c9424f4cd5aa7ull, 5.0443161162358496, 6.2853675116546697},
    {0x8800a9a4c47766c5ull, 4.7788257943287, 5.4888965459332217},
    {0x0e60e969a745aa0dull, 0, 4.28584604603091},
    {0x490c8f1608a40650ull, 0, 3.6029255936276461},
    {0x458441a9158a2e1full, 4.097522714419588, 7.1500855156842551},
    {0x52a175cd4baafc46ull, 3.086878674599812, 12.730259155140844},
    {0x59f89b0593eec0abull, 2.9325347408698215, 11.958539486490892},
    {0x05ab0e1c72d54f94ull, 2.7781908071398309, 11.186819817840938},
    {0xc857b1fd3f190758ull, 0, 17.665410317927709},
    {0xa61c639a9ad250dfull, 0.089148643607099315, 23.083753071607614},
    {0x3c0ce2c473e0c928ull, 0.089148643607099315, 21.467381726795299},
    {0xe045c8bff70f184aull, 0.82689390681056274, 4.7778221674198065},
    {0xdc353437e669d8d6ull, 4.4055122704226006, 7.9841306340346385},
    {0x71b09c6c1fcd86eaull, 4.1736432035582531, 7.5203925003059435},
    {0x2247bc9edb2ca202ull, 0, 3.2242151467148168},
    {0x4420ab08107350fdull, 0, 2.9547982865037041},
    {0x7b013403609d646eull, 1.2123758709500059, 3.9392117280833157},
    {0x81a9e3616cd62877ull, 5.0602480190911265, 14.776662872054967},
    {0xd5b09da69b313ce6ull, 5.572520245484216, 13.726999029938913},
    {0x98bac35f343d7e21ull, 5.2792297062482065, 11.967255794522849},
    {0xe610dbe477cb00aeull, 0, 12.57704731915665},
    {0xdaa2b97c4c6c9e16ull, 0, 11.94578941526596},
    {0x4279c598932d9145ull, 0, 11.034717269081433},
    {0xce1b6c86d6ff6f57ull, 4.6628814099979605, 12.429232177335155},
    {0xbfe9ad70b6e3a719ull, 4.4297373395787369, 11.263511824814437},
    {0xb9a2aeb7a9725344ull, 4.1965932690745928, 10.154116836622293},
    {0xfdaa2ffc5ecf7468ull, 0.17452429889756624, 3.1620363349446237},
    {0xc62c2a2b4af7f634ull, 0.17452429889756624, 2.8352374897183146},
    {0x736a27cc594f7b58ull, 0.17452429889756624, 2.5084386444920055},
    {0x045d561b60c321d8ull, 5.37027958302264, 5.0238621250946602},
    {0xcc2194dba421edf2ull, 5.1017656039438641, 4.3836964578537412},
    {0x84e03477ff186e26ull, 4.8332516247889243, 3.747218461101677},
    {0xa2ea85b7b2207eb0ull, 0, 19.996344989448456},
    {0x0449a8ff83648041ull, 0, 19.719298985664629},
    {0x4fe5ee8fc7ea5743ull, 0, 19.442252981880813},
    {0x8589ae33aa60a917ull, 2.1498743884241147, 0},
    {0x0bdce7778c6549a7ull, 2.0423806690029118, 0},
    {0x5b73563a8e4e0357ull, 1.934886949581706, 0},
    {0xad88c329bdf28979ull, 0.13381751070940995, 4.5129454723366402},
    {0xa3b6fb77ff707f0eull, 0.18409809444746339, 4.1921103946976537},
    {0x98811e594d007b7eull, 0.23437867818551672, 3.8904268922693337},
    {0xb974399743cc2882ull, 0.68808770516679574, 0},
    {0x41c1e7c4d4608690ull, 0.65368331990845596, 0},
    {0xdf87b35e12b2531aull, 0.61927893465011619, 0},
    {0x4b44de63c905b02cull, 0, 14.451843511345956},
    {0xaead6d8b6f7d7b32ull, 0, 13.788097186478396},
    {0x6cff52ef03c2e646ull, 0, 13.063442764525053},
    {0x941db210f590323cull, 2.1163315815448613, 5.6696786081470369},
    {0x3eeb8a38dec09dadull, 2.0105150024676184, 5.246412291838066},
    {0x2f264c868d885960ull, 1.9046984233903752, 4.8231459755290933},
    {0xa4d5af2b6afc217full, 3.1644387627472481, 21.141283123699203},
    {0xd30f54b24910eeb0ull, 3.0062168246098855, 19.559063742325577},
    {0x58036847373160e6ull, 2.8479948864725233, 17.976844360951954},
};

TEST(RepairScheme, SweepOutputsArePinned) {
  const std::vector<SweepCase> cases = repair_sweep_cases();
  const double ladder[] = {1.0, 0.95, 0.9};
  RepairCounts seen;
  std::size_t row = 0;
  for (const SweepCase& sweep : cases) {
    for (const double fraction : ladder) {
      const RepairResult repair = repair_scheme(
          sweep.survivors, sweep.restricted, fraction * sweep.design_rate);
      ASSERT_LT(row, std::size(kPinnedRepairs));
      const PinnedRepair& pinned = kPinnedRepairs[row];
      EXPECT_EQ(edge_hash(repair.scheme), pinned.edges) << "row " << row;
      EXPECT_EQ(repair.throughput, pinned.throughput) << "row " << row;
      EXPECT_EQ(repair.added_rate, pinned.added_rate) << "row " << row;
      EXPECT_TRUE(repair.scheme.validate(sweep.survivors).empty());
      EXPECT_TRUE(repair.scheme.is_acyclic());
      seen.dust_dropped += repair.counts.dust_dropped;
      seen.trim_cuts += repair.counts.trim_cuts;
      seen.patch_adds += repair.counts.patch_adds;
      seen.reroutes_kept += repair.counts.reroutes_kept;
      seen.reroutes_reverted += repair.counts.reroutes_reverted;
      ++row;
    }
  }
  EXPECT_EQ(row, std::size(kPinnedRepairs));
  // The sweep must drive every branch the pins are meant to guard.
  EXPECT_GT(seen.dust_dropped, 0);
  EXPECT_GT(seen.trim_cuts, 0);
  EXPECT_GT(seen.patch_adds, 0);
  EXPECT_GT(seen.reroutes_kept, 0);
  EXPECT_GT(seen.reroutes_reverted, 0);
}

}  // namespace
}  // namespace bmp::engine
