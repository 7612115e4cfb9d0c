// Profiler determinism tests — the acceptance surface of the performance
// attribution subsystem (obs/profiler.hpp):
//   * unit: phase aggregation is order-independent, null hooks are free,
//     wall time stays out of the deterministic exports;
//   * byte-identity: the full five-layer closed loop (the 500-node control
//     acceptance scenario) produces byte-identical to_json/to_collapsed/
//     summary_json across repeated runs AND across planner thread counts;
//   * parallel verify: the deterministic pool-parallel tier-2 sink sweep
//     (the VerifyOptions::auto_pool default) reports exactly the serial
//     sweep's throughput, solve count, BFS rounds, and profiler counters.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bmp/core/bounds.hpp"
#include "bmp/core/cyclic_open.hpp"
#include "bmp/flow/verify.hpp"
#include "bmp/gen/generator.hpp"
#include "bmp/obs/profiler.hpp"
#include "bmp/runtime/runtime.hpp"
#include "bmp/runtime/scenario.hpp"
#include "bmp/util/rng.hpp"
#include "bmp/util/thread_pool.hpp"

namespace bmp {
namespace {

// ----------------------------------------------------------------- units

TEST(Profiler, AggregationIsInsertionOrderIndependent) {
  obs::Profiler a;
  a.enter("plan/compute");
  a.count("plan/compute", "solves", 3);
  a.count("verify/tier2", "bfs_rounds", 7);
  a.enter("verify/tier2");
  a.count("plan/compute", "solves", 2);

  obs::Profiler b;  // same totals, different arrival order
  b.count("verify/tier2", "bfs_rounds", 7);
  b.count("plan/compute", "solves", 2);
  b.enter("verify/tier2");
  b.enter("plan/compute");
  b.count("plan/compute", "solves", 3);

  EXPECT_EQ(a.calls("plan/compute"), 1u);
  EXPECT_EQ(a.counter("plan/compute", "solves"), 5u);
  EXPECT_EQ(a.work("plan/compute"), 5u);   // counters, not calls
  EXPECT_EQ(a.work("verify/tier2"), 7u);
  EXPECT_EQ(a.total("solves"), 5u);
  EXPECT_EQ(a.total_work(), 12u);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.to_collapsed(), b.to_collapsed());
  EXPECT_EQ(a.summary_json(), b.summary_json());
}

TEST(Profiler, WorkFallsBackToCallsWithoutCounters) {
  obs::Profiler profiler;
  profiler.enter("runtime/step");
  profiler.enter("runtime/step");
  EXPECT_EQ(profiler.work("runtime/step"), 2u);
  EXPECT_EQ(profiler.total_work(), 2u);
}

TEST(Profiler, NullHooksAreSafeAndFree) {
  // The disabled-hook contract: every RAII helper must be a no-op with a
  // null profiler — this is the branch every call site pays by default.
  {
    const obs::PhaseScope scope(nullptr, "never/recorded");
    obs::ScopedCounter counter(nullptr, "never/recorded", "events");
    ++counter;
    counter.add(41);
    EXPECT_EQ(counter.value(), 42u);
  }
  obs::Profiler profiler;
  EXPECT_TRUE(profiler.empty());
  EXPECT_EQ(profiler.phase_count(), 0u);
  EXPECT_EQ(profiler.total_work(), 0u);
}

TEST(Profiler, WallTimeNeverLeaksIntoDeterministicExports) {
  obs::Profiler walled(obs::ProfilerConfig{/*wall_time=*/true});
  ASSERT_TRUE(walled.wall_time());
  walled.add_wall("plan/compute", 123.5);
  walled.enter("plan/compute");
  EXPECT_GT(walled.wall_us("plan/compute"), 0.0);
  // to_json carries per-phase wall fields only for a wall-enabled
  // profiler (the header always states the wall_time config)...
  EXPECT_NE(walled.to_json().find("wall_us"), std::string::npos);
  // ...and the flat summary (what BENCH_*.json embeds and the perf gate
  // diffs exactly) never does.
  EXPECT_EQ(walled.summary_json().find("wall"), std::string::npos);

  obs::Profiler cold;  // default: wall time dropped at the hook
  cold.add_wall("plan/compute", 123.5);
  EXPECT_DOUBLE_EQ(cold.wall_us("plan/compute"), 0.0);
  EXPECT_EQ(cold.to_json().find("wall_us"), std::string::npos);
}

// --------------------------------------- closed-loop byte-identity proofs

/// The ISSUE 5 control-acceptance scenario: a brownout hits 10% of the
/// peers mid-stream and the adaptive loop re-plans around it. Exercises
/// every instrumented layer: planner, tiered verifier, session churn,
/// broker rebalance, dataplane scheduler, controller decide.
runtime::ScenarioScript adaptive_script(int peers, double horizon,
                                        std::uint64_t seed) {
  runtime::Scenario scenario(horizon, seed);
  scenario.source(4000.0)
      .population({peers * 3 / 5, 0.7, gen::Dist::kUnif100})
      .population({peers * 2 / 5, 0.3, gen::Dist::kLogNormal1})
      .channel({0.0, -1.0, 1.0, /*fraction=*/0.5});
  runtime::BrownoutSpec brownout;
  brownout.time = 3.0;
  brownout.duration = -1.0;
  brownout.fraction = 0.10;
  brownout.capacity_factor = 0.25;
  scenario.brownout(brownout);
  return scenario.build();
}

/// Runs the adaptive closed loop with `profiler` attached to every layer
/// and returns after the horizon; the profiler holds the attribution.
void run_profiled_loop(const runtime::ScenarioScript& script,
                       std::size_t planner_threads, obs::Profiler* profiler) {
  runtime::RuntimeConfig config;
  config.collect_timing = false;
  config.broker_headroom = 0.05;
  config.planner.threads = planner_threads;
  config.dataplane.execute = true;
  config.dataplane.execution.chunk_size = 4.0;
  config.dataplane.execution.receiver_window = 16;
  config.control.enabled = true;
  config.profiler = profiler;
  runtime::Runtime rt(config, script.source_bandwidth, script.initial_peers);
  for (const runtime::Event& event : script.events) rt.step(event);
  EXPECT_TRUE(rt.validate().empty());
}

TEST(ProfilerDeterminism, ByteIdenticalAcrossRuns) {
  const runtime::ScenarioScript script = adaptive_script(500, 24.0, 2026);
  obs::Profiler first;
  obs::Profiler second;
  run_profiled_loop(script, 0, &first);
  run_profiled_loop(script, 0, &second);

  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first.to_json(), second.to_json());
  EXPECT_EQ(first.to_collapsed(), second.to_collapsed());
  EXPECT_EQ(first.summary_json(), second.summary_json());

  // The attribution must actually span the layers, not just exist.
  for (const char* phase :
       {"runtime/step", "planner/compute", "runtime/session/build",
        "dataplane/advance", "dataplane/scheduler",
        "runtime/control/decide"}) {
    EXPECT_GT(first.work(phase), 0u) << phase;
  }
  EXPECT_GT(first.counter("dataplane/advance", "delivered"), 0u);
}

TEST(ProfilerDeterminism, ByteIdenticalAcrossPlannerThreadCounts) {
  // Worker threads only ever add commutative counter sums, so the report
  // cannot depend on how plan_batch work interleaved.
  const runtime::ScenarioScript script = adaptive_script(150, 14.0, 11);
  obs::Profiler one_thread;
  obs::Profiler four_threads;
  run_profiled_loop(script, 1, &one_thread);
  run_profiled_loop(script, 4, &four_threads);

  ASSERT_FALSE(one_thread.empty());
  EXPECT_EQ(one_thread.to_json(), four_threads.to_json());
  EXPECT_EQ(one_thread.to_collapsed(), four_threads.to_collapsed());
  EXPECT_EQ(one_thread.summary_json(), four_threads.summary_json());
}

TEST(ProfilerDeterminism, ControlDecideWallTimeIsOptIn) {
  // The decide phase is timed through a PhaseScope: with wall time off its
  // report is the same bytes as before it was timed (FNV-1a pin of the
  // JSON), with wall time on the phase accumulates wall microseconds over
  // the same one entry per tick.
  const runtime::ScenarioScript script = adaptive_script(150, 14.0, 11);
  obs::Profiler cold;
  run_profiled_loop(script, 0, &cold);
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : cold.to_json()) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  EXPECT_EQ(hash, 0xb10fd5f4997cf314ULL) << std::hex << hash;
  EXPECT_DOUBLE_EQ(cold.wall_us("runtime/control/decide"), 0.0);

  obs::Profiler walled(obs::ProfilerConfig{/*wall_time=*/true});
  run_profiled_loop(script, 0, &walled);
  EXPECT_GT(walled.wall_us("runtime/control/decide"), 0.0);
  EXPECT_EQ(walled.calls("runtime/control/decide"),
            cold.calls("runtime/control/decide"));
  EXPECT_GT(cold.calls("runtime/control/decide"), 0u);
}

// ------------------------------------ parallel tier-2 verify sweep parity

TEST(ParallelVerify, PoolSweepExactAndPoolSizeIndependent) {
  // A cyclic overlay over enough sinks to clear parallel_min_sinks, so the
  // chunked sweep actually engages.
  util::Xoshiro256 rng(7);
  std::vector<double> open_bw(400);
  for (auto& b : open_bw) b = rng.uniform(1.0, 10.0);
  const Instance open_only(rng.uniform(5.0, 10.0), std::move(open_bw), {});
  const double t_star = cyclic_open_optimal(open_only);
  const BroadcastScheme cyclic = build_cyclic_open(open_only, t_star);

  obs::Profiler serial_profile;
  flow::VerifyOptions serial_options;
  serial_options.auto_pool = false;
  serial_options.profiler = &serial_profile;
  flow::Verifier serial(serial_options);
  const flow::VerifyResult serial_result = serial.verify(cyclic);
  EXPECT_EQ(serial.stats().parallel_sweeps, 0u);
  EXPECT_EQ(serial_result.tier, flow::VerifyTier::kWarmMaxFlow);

  // Two explicit pools of different sizes: the chunked sweep must engage
  // on both (pool size > 1) and — because the chunk split is a fixed
  // option, never pool-derived — produce byte-identical attribution and
  // the exact serial throughput. Solve/BFS counts legitimately differ
  // from the *serial* sweep (per-chunk running minima tighten more slowly
  // than one global minimum), which is exactly why the invariant that
  // matters is pool-size-independence.
  util::ThreadPool two(2);
  util::ThreadPool four(4);
  obs::Profiler two_profile;
  obs::Profiler four_profile;
  flow::VerifyResult results[2];
  obs::Profiler* profiles[2] = {&two_profile, &four_profile};
  util::ThreadPool* pools[2] = {&two, &four};
  for (int i = 0; i < 2; ++i) {
    flow::VerifyOptions options;
    options.pool = pools[i];
    options.profiler = profiles[i];
    flow::Verifier verifier(options);
    results[i] = verifier.verify(cyclic);
    EXPECT_EQ(verifier.stats().parallel_sweeps, 1u);
  }

  EXPECT_EQ(results[0].throughput, serial_result.throughput);
  EXPECT_EQ(results[1].throughput, serial_result.throughput);
  EXPECT_EQ(results[0].maxflow_solves, results[1].maxflow_solves);
  EXPECT_EQ(results[0].bfs_rounds, results[1].bfs_rounds);
  EXPECT_EQ(two_profile.summary_json(), four_profile.summary_json());
  EXPECT_GT(two_profile.counter("verify/tier2_maxflow", "graph_copies"), 0u);
}

TEST(ParallelVerify, PoolSweepIsDeterministicAcrossRepeats) {
  util::Xoshiro256 rng(13);
  std::vector<double> open_bw(300);
  for (auto& b : open_bw) b = rng.uniform(1.0, 10.0);
  const Instance open_only(rng.uniform(5.0, 10.0), std::move(open_bw), {});
  const BroadcastScheme cyclic =
      build_cyclic_open(open_only, cyclic_open_optimal(open_only));

  std::string first_report;
  double first_throughput = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    obs::Profiler profile;
    flow::VerifyOptions options;
    options.profiler = &profile;
    flow::Verifier verifier(options);
    const flow::VerifyResult result = verifier.verify(cyclic);
    if (rep == 0) {
      first_report = profile.summary_json();
      first_throughput = result.throughput;
      continue;
    }
    EXPECT_EQ(profile.summary_json(), first_report);
    EXPECT_EQ(result.throughput, first_throughput);
  }
}

}  // namespace
}  // namespace bmp
