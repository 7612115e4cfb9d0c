// Data-plane tests: deterministic event ordering, exact pipe timing,
// rarest-first duplicate avoidance, window backpressure, loss/retransmit,
// live patching mid-stream, the bounded multi-port audit — and the ISSUE 4
// acceptance bars: a lossless zero-latency 500-node acyclic scheme must
// *achieve* >= 0.95x the planner's verified throughput end-to-end, and a
// churning multi-channel runtime must sustain >= 0.85x design rate with
// live-patched repairs only, replaying bit-identically across runs and
// planner thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ostream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "bmp/core/acyclic_search.hpp"
#include "bmp/dataplane/event_queue.hpp"
#include "bmp/dataplane/execution.hpp"
#include "bmp/flow/verify.hpp"
#include "bmp/gen/generator.hpp"
#include "bmp/obs/lineage.hpp"
#include "bmp/obs/profiler.hpp"
#include "bmp/runtime/runtime.hpp"
#include "bmp/runtime/scenario.hpp"
#include "bmp/util/rng.hpp"

namespace bmp::dataplane {
namespace {

// ------------------------------------------------------------ event queue

TEST(EventQueue, OrdersByTimeThenPushSequence) {
  EventQueue queue;
  ChunkEvent event;
  event.time = 2.0;
  event.chunk = 0;
  queue.push(event);
  event.time = 1.0;
  event.chunk = 1;
  queue.push(event);
  event.time = 1.0;  // tie: must pop after the earlier push at t = 1
  event.chunk = 2;
  queue.push(event);
  event.time = 0.5;
  event.chunk = 3;
  queue.push(event);
  std::vector<int> order;
  while (!queue.empty()) order.push_back(queue.pop().chunk);
  EXPECT_EQ(order, (std::vector<int>{3, 1, 2, 0}));
}

// ------------------------------------------------------------ exact timing

ExecutionConfig file_config(int chunks) {
  ExecutionConfig config;
  config.chunk_size = 1.0;
  config.total_chunks = chunks;
  config.emission_rate = 0.0;  // everything available at t = 0
  config.warmup_chunks = 0;
  return config;
}

TEST(Execution, ChainDeliversAtExactPipeTiming) {
  Execution exec(file_config(3));
  const int source = exec.add_node(1.0);
  const int a = exec.add_node(1.0);
  const int b = exec.add_node(0.0);
  exec.set_edge(source, a, 1.0);
  exec.set_edge(a, b, 1.0);
  exec.run_to_completion();
  // Serial unit-rate pipes: A gets chunk k at k + 1; B pipelines one hop
  // behind, its last chunk lands at 4.
  EXPECT_DOUBLE_EQ(exec.completion_time(a), 3.0);
  EXPECT_DOUBLE_EQ(exec.completion_time(b), 4.0);
  EXPECT_EQ(exec.delivered(a), 3);
  EXPECT_EQ(exec.delivered(b), 3);
  EXPECT_EQ(exec.delivered_chunks(), 6u);
  EXPECT_EQ(exec.losses(), 0u);
  EXPECT_EQ(exec.duplicates(), 0u);
}

TEST(Execution, LatencyPipelinesThroughPropagation) {
  ExecutionConfig config = file_config(4);
  config.latency = 0.25;
  Execution exec(config);
  const int source = exec.add_node(1.0);
  const int a = exec.add_node(0.0);
  exec.set_edge(source, a, 1.0);
  exec.run_to_completion();
  // The pipe frees at transmission end, so chunks pipeline through the
  // propagation delay: completion shifts by one latency, not four.
  EXPECT_DOUBLE_EQ(exec.completion_time(a), 4.25);
}

TEST(Execution, RarestFirstSplitsParentsWithoutDuplicates) {
  Execution exec(file_config(40));
  const int source = exec.add_node(2.0);
  const int a = exec.add_node(1.0);
  const int b = exec.add_node(1.0);
  const int c = exec.add_node(0.0);
  exec.set_edge(source, a, 1.0);
  exec.set_edge(source, b, 1.0);
  exec.set_edge(a, c, 1.0);
  exec.set_edge(b, c, 1.0);
  exec.run_to_completion();
  // Both parents receive the full stream at rate 1, so C is availability
  // bound: chunk k exists upstream at time k + 1 and crosses one hop later.
  // The point: two pipes race for every chunk, yet the in-flight
  // reservations mean each chunk crosses to C exactly once.
  EXPECT_EQ(exec.delivered(c), 40);
  EXPECT_EQ(exec.duplicates(), 0u);
  EXPECT_GE(exec.completion_time(c), 40.0);
  EXPECT_LE(exec.completion_time(c), 42.0);
}

TEST(Execution, WindowBackpressureStallsButDelivers) {
  ExecutionConfig config = file_config(10);
  config.receiver_window = 1;
  config.latency = 0.5;  // keeps the window occupied while propagating
  Execution exec(config);
  const int source = exec.add_node(1.0);
  const int a = exec.add_node(0.0);
  exec.set_edge(source, a, 1.0);
  exec.run_to_completion();
  EXPECT_EQ(exec.delivered(a), 10);
  EXPECT_GT(exec.hol_stalls(), 0u);
  // Window 1 + latency 0.5 serializes chunk k's arrival before chunk k+1's
  // send: one chunk per 1.5s instead of 1s.
  EXPECT_NEAR(exec.completion_time(a), 10.0 * 1.5 - 0.5 + 0.5, 1e-9);
}

TEST(Execution, LossRetransmitsAndReplaysBitIdentically) {
  const auto run = [] {
    ExecutionConfig config = file_config(50);
    config.loss_rate = 0.3;
    config.seed = 99;
    Execution exec(config);
    const int source = exec.add_node(1.0);
    const int a = exec.add_node(1.0);
    const int b = exec.add_node(0.0);
    exec.set_edge(source, a, 1.0);
    exec.set_edge(a, b, 1.0);
    exec.run_to_completion();
    return exec;
  };
  const Execution first = run();
  const Execution second = run();
  EXPECT_EQ(first.delivered(2), 50);
  EXPECT_GT(first.losses(), 0u);
  EXPECT_EQ(first.losses(), first.retransmits());
  EXPECT_EQ(first.losses(), second.losses());
  EXPECT_DOUBLE_EQ(first.completion_time(1), second.completion_time(1));
  EXPECT_DOUBLE_EQ(first.completion_time(2), second.completion_time(2));
}

TEST(Execution, RejectsMalformedConfigAndOps) {
  ExecutionConfig config;
  config.chunk_size = 0.0;
  EXPECT_THROW(Execution{config}, std::invalid_argument);
  config = ExecutionConfig{};
  config.loss_rate = 0.99;
  EXPECT_THROW(Execution{config}, std::invalid_argument);
  config = ExecutionConfig{};
  config.overtake_factor = 1.0;
  EXPECT_THROW(Execution{config}, std::invalid_argument);

  Execution exec(file_config(1));
  const int source = exec.add_node(1.0);
  const int a = exec.add_node(1.0);
  EXPECT_THROW(exec.set_edge(source, source, 1.0), std::invalid_argument);
  EXPECT_THROW(exec.set_edge(source, 7, 1.0), std::invalid_argument);
  EXPECT_THROW(exec.remove_node(source), std::invalid_argument);
  exec.remove_node(a);
  EXPECT_THROW(exec.remove_node(a), std::invalid_argument);
  EXPECT_THROW(exec.run_until(-1.0), std::invalid_argument);
}

// ----------------------------------------------------------- live patching

TEST(Execution, LivePatchDropsInflightAndSplicesNewEdges) {
  ExecutionConfig config;
  config.chunk_size = 1.0;
  config.total_chunks = 30;
  config.emission_rate = 1.0;  // paced stream
  config.warmup_chunks = 0;
  // Propagation latency puts chunks *in the wire* (sent, not yet arrived)
  // at the removal instant: their window slots and reservations must be
  // released with the pipes, or B would wait on them forever.
  config.latency = 0.5;
  Execution exec(config);
  const int source = exec.add_node(1.0);
  const int a = exec.add_node(1.0);
  const int b = exec.add_node(0.0);
  exec.set_edge(source, a, 1.0);
  exec.set_edge(a, b, 1.0);
  exec.run_until(10.25);  // mid-propagation: a chunk is in flight to B
  const int delivered_before = exec.delivered(b);
  EXPECT_GT(delivered_before, 0);
  // A departs mid-stream; the repaired overlay feeds B from the source.
  // Chunks in flight on A's pipes drop, their reservations release, and B
  // re-requests them over the spliced edge — the stream never restarts.
  exec.remove_node(a);
  EXPECT_FALSE(exec.node_alive(a));
  exec.reconcile_edges({{source, b, 1.0}});
  exec.run_to_completion();
  EXPECT_EQ(exec.delivered(b), 30);
  EXPECT_GE(exec.completion_time(b), 30.0);
  EXPECT_TRUE(exec.validate().empty());
}

TEST(Execution, LateJoinerStartsAtTheLiveEdge) {
  ExecutionConfig config;
  config.chunk_size = 1.0;
  config.total_chunks = 20;
  config.emission_rate = 1.0;
  config.warmup_chunks = 0;
  Execution exec(config);
  const int source = exec.add_node(2.0);
  const int a = exec.add_node(1.0);
  exec.set_edge(source, a, 1.0);
  exec.run_until(10.0);
  const int late = exec.add_node(0.0);
  exec.set_edge(source, late, 1.0);
  exec.run_to_completion();
  const NodeProgress progress = exec.progress(late);
  EXPECT_GT(progress.skipped, 0);
  EXPECT_EQ(progress.delivered, 20 - progress.skipped);
  EXPECT_GE(progress.completion_time, 0.0);
  EXPECT_EQ(exec.delivered(a), 20);
}

// ------------------------------------------------------- effective world

TEST(Execution, EffectiveCapacityThrottlesProportionally) {
  // Nominal plan: two rate-1 pipes out of the source. A brownout capping
  // the source at 1.0 halves every transmission's wire rate, so the run
  // takes twice as long — and removing the cap restores nominal timing.
  const auto run = [](double cap) {
    Execution exec(file_config(4));
    const int source = exec.add_node(2.0);
    const int a = exec.add_node(0.0);
    const int b = exec.add_node(0.0);
    exec.set_edge(source, a, 1.0);
    exec.set_edge(source, b, 1.0);
    if (cap > 0.0) exec.set_effective_capacity(source, cap);
    exec.run_to_completion();
    return std::max(exec.completion_time(a), exec.completion_time(b));
  };
  EXPECT_DOUBLE_EQ(run(-1.0), 4.0);
  EXPECT_DOUBLE_EQ(run(1.0), 8.0);
  // A plan refitted inside the cap is not throttled at all: that is the
  // lever the adaptive control plane pulls.
  Execution refit(file_config(4));
  const int source = refit.add_node(2.0);
  const int a = refit.add_node(0.0);
  refit.set_effective_capacity(source, 1.0);
  refit.set_edge(source, a, 1.0);  // planned egress == effective capacity
  refit.run_to_completion();
  EXPECT_DOUBLE_EQ(refit.completion_time(a), 4.0);
}

TEST(Execution, EgressProfileClassesAndEdgeOverride) {
  ExecutionConfig config = file_config(60);
  config.seed = 17;
  const auto run = [&](bool lossy_egress, bool clean_override) {
    Execution exec(config);
    const int source = exec.add_node(1.0);
    const int a = exec.add_node(0.0);
    if (lossy_egress) exec.set_egress_profile(source, {0.3, 0.0, 0.0});
    if (clean_override) exec.set_edge_profile(source, a, LinkProfile{});
    exec.set_edge(source, a, 1.0);
    exec.run_to_completion();
    return exec;
  };
  const Execution clean = run(false, false);
  EXPECT_EQ(clean.losses(), 0u);
  const Execution lossy = run(true, false);
  EXPECT_GT(lossy.losses(), 0u);
  std::vector<EdgeStats> stats;
  lossy.edge_stats_into(stats);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].lost, lossy.losses());
  EXPECT_EQ(stats[0].delivered, 60u);
  EXPECT_EQ(stats[0].sent, 60u + lossy.losses());
  // A per-edge override beats the sender's egress class.
  const Execution overridden = run(true, true);
  EXPECT_EQ(overridden.losses(), 0u);
}

TEST(Execution, RateJitterSlowsButReplaysDeterministically) {
  ExecutionConfig config = file_config(50);
  config.seed = 23;
  const auto run = [&] {
    Execution exec(config);
    const int source = exec.add_node(1.0);
    const int a = exec.add_node(0.0);
    exec.set_egress_profile(source, {0.0, 0.0, 0.5});
    exec.set_edge(source, a, 1.0);
    exec.run_to_completion();
    return exec.completion_time(1);
  };
  const double jittered = run();
  EXPECT_GT(jittered, 50.0);       // strictly slower than nominal
  EXPECT_LT(jittered, 2.0 * 50.0); // jitter is bounded below 2x
  EXPECT_DOUBLE_EQ(jittered, run());
}

// One seeded differential scenario for the scan-index sweep: a paced
// lossy stream over a random overlay with a 100-chunk scan horizon (windows
// straddle 64-bit words), rescue armed at a tiny backlog, a brownout, late
// joiners whose first wanted chunk falls mid-word (their `have` bitsets
// start empty, shorter than any window), a peer crash, a departure, and a
// source crash followed by failover (write-offs).
Execution run_index_scenario(std::uint64_t seed, bool indexed,
                             obs::Profiler* profiler = nullptr) {
  util::Xoshiro256 rng(seed);
  const Instance platform =
      gen::random_instance({40, 0.6, gen::Dist::kUnif100}, rng);
  const AcyclicSolution solution = solve_acyclic(platform);
  const double rate = solution.throughput;
  ExecutionConfig config;
  config.chunk_size = rate * 0.05;
  config.total_chunks = 320;
  config.emission_rate = rate;
  config.loss_rate = 0.04;
  config.latency = 0.01;
  config.seed = seed;
  config.scan_limit = 100;
  config.rescue_factor = 0.5;
  config.rescue_buffer_windows = 0.25;
  config.overtake_factor = 0.5;
  config.use_scan_index = indexed;
  config.profiler = profiler;
  Execution exec(platform, solution.scheme, config);
  const int peers = exec.num_nodes();
  const auto pick_peer = [&] {
    int peer = 0;
    while (!exec.node_alive(peer) || peer == exec.origin()) {
      peer = 1 + static_cast<int>(rng.uniform() * (peers - 1));
    }
    return peer;
  };
  const auto join_mid_word = [&] {
    while (exec.emitted() % 64 == 0) exec.run_until(exec.now() + 0.01);
    const int late = exec.add_node(rate);
    exec.set_edge(pick_peer(), late, rate * 0.6);
    exec.set_edge(exec.origin(), late, rate * 0.3);
    exec.set_edge(late, pick_peer(), rate * 0.5);
  };
  exec.run_until(2.0);
  exec.set_effective_capacity(pick_peer(), rate * 0.2);
  join_mid_word();
  exec.run_until(4.0);
  exec.crash_node(pick_peer());
  join_mid_word();
  exec.run_until(6.0);
  exec.remove_node(pick_peer());
  exec.run_until(9.0);
  exec.crash_node(exec.origin());
  exec.failover_source();
  exec.run_to_completion();
  return exec;
}

TEST(Execution, ScanIndexPicksMatchTheLinearScan) {
  // Differential sweep: the indexed rarest-first pick must choose the
  // identical chunk as the linear window scan at every send, so both runs
  // replay the same event stream to the bit — loss, rescue, overtaking,
  // brownout, late joins, crashes and failover write-offs included.
  std::uint64_t written_off = 0;
  std::uint64_t duplicates = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Execution with_index = run_index_scenario(seed, true);
    const Execution without = run_index_scenario(seed, false);
    ASSERT_EQ(with_index.num_nodes(), without.num_nodes()) << "seed " << seed;
    for (int node = 1; node < with_index.num_nodes(); ++node) {
      EXPECT_DOUBLE_EQ(with_index.completion_time(node),
                       without.completion_time(node))
          << "seed " << seed << " node " << node;
      EXPECT_EQ(with_index.delivered(node), without.delivered(node))
          << "seed " << seed << " node " << node;
    }
    const NodeProgress late = with_index.progress(with_index.num_nodes() - 1);
    EXPECT_NE(late.skipped % 64, 0) << "seed " << seed;
    EXPECT_EQ(with_index.losses(), without.losses()) << "seed " << seed;
    EXPECT_EQ(with_index.duplicates(), without.duplicates()) << "seed " << seed;
    EXPECT_EQ(with_index.hol_stalls(), without.hol_stalls()) << "seed " << seed;
    EXPECT_EQ(with_index.written_off(), without.written_off())
        << "seed " << seed;
    EXPECT_TRUE(with_index.validate().empty()) << "seed " << seed;
    written_off += with_index.written_off();
    duplicates += with_index.duplicates();
  }
  // The sweep must actually reach the write-off and overtake/rescue paths.
  EXPECT_GT(written_off, 0u);
  EXPECT_GT(duplicates, 0u);
}

TEST(Execution, ScanIndexProfilerCountersArePinned) {
  // The scheduler's index_picks / linear_scans split is a gated profile
  // counter: a pick counts as indexed when its window fits the probe budget
  // or its (replicas, id) rank does. Both scenarios yield both classes; the
  // expected values were recorded from the per-rarity bucket index this
  // classification originally described.
  struct Pin {
    std::uint64_t attempts, index_picks, linear_scans, no_chunk;
  };
  const auto scheduler = [](const obs::Profiler& profiler) {
    const auto counter = [&](const char* name) {
      return profiler.counter("dataplane/scheduler", name);
    };
    return Pin{counter("attempts"), counter("index_picks"),
               counter("linear_scans"), counter("no_chunk")};
  };
  const auto expect_pin = [](const Pin& got, const Pin& want) {
    EXPECT_EQ(got.attempts, want.attempts);
    EXPECT_EQ(got.index_picks, want.index_picks);
    EXPECT_EQ(got.linear_scans, want.linear_scans);
    EXPECT_EQ(got.no_chunk, want.no_chunk);
  };

  // Deep backlog: a file transfer (every chunk emitted at t = 0) over a
  // 400-chunk window, with losses and a mid-run crash.
  util::Xoshiro256 rng(31);
  const Instance platform =
      gen::random_instance({50, 0.6, gen::Dist::kUnif100}, rng);
  const AcyclicSolution solution = solve_acyclic(platform);
  obs::Profiler deep;
  ExecutionConfig config;
  config.chunk_size = solution.throughput * 0.05;
  config.total_chunks = 400;
  config.loss_rate = 0.02;
  config.seed = 5;
  config.profiler = &deep;
  Execution exec(platform, solution.scheme, config);
  exec.run_until(10.0);
  exec.crash_node(7);
  exec.run_to_completion();
  expect_pin(scheduler(deep), {26852, 6082, 20770, 6720});

  // Paced stream whose 100-chunk horizon straddles the probe budget.
  obs::Profiler paced;
  run_index_scenario(3, true, &paced);
  expect_pin(scheduler(paced), {26448, 20878, 5569, 13705});
}

TEST(Execution, SharpUpwardRerateRestartsTheInFlightTransmission) {
  ExecutionConfig config = file_config(5);
  Execution exec(config);
  const int source = exec.add_node(10.0);
  const int a = exec.add_node(0.0);
  exec.set_edge(source, a, 0.01);  // a trickle: 100 s per chunk
  exec.run_until(1.0);             // mid-glacial-transmission
  EXPECT_EQ(exec.delivered(a), 0);
  // Re-planned as an artery: the squatting transmission restarts at the
  // new rate instead of blocking the wire for another 99 virtual seconds.
  exec.set_edge(source, a, 10.0);
  exec.run_to_completion();
  EXPECT_EQ(exec.delivered(a), 5);
  EXPECT_LT(exec.completion_time(a), 2.0);
}

// ------------------------------------------------- pinned mixed-latency replay

/// 64-bit FNV-1a over the exact bytes of what a run exposes, so a pin
/// catches any change in event order, timing or bookkeeping.
struct Fnv {
  std::uint64_t hash = 14695981039346656037ULL;
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash = (hash ^ p[i]) * 1099511628211ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void i(int v) {
    u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
  }
  void d(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void s(const std::string& v) {
    u64(v.size());
    bytes(v.data(), v.size());
  }
};

struct MixedPins {
  std::uint64_t edges, report, latencies, lineage, validate;
  friend bool operator==(const MixedPins& a, const MixedPins& b) {
    return a.edges == b.edges && a.report == b.report &&
           a.latencies == b.latencies && a.lineage == b.lineage &&
           a.validate == b.validate;
  }
};

/// The pins plus the fault-path tallies that show the script reached them.
struct MixedRun {
  MixedPins pins;
  std::uint64_t losses, duplicates, damaged, written_off, hol_stalls;
};

std::ostream& operator<<(std::ostream& out, const MixedPins& pins) {
  return out << std::hex << "{0x" << pins.edges << "ULL, 0x" << pins.report
             << "ULL, 0x" << pins.latencies << "ULL, 0x" << pins.lineage
             << "ULL, 0x" << pins.validate << "ULL}" << std::dec;
}

/// Node budgets, planned pipes (in set_edge order) and the stream rate.
struct MixedOverlay {
  std::vector<double> budgets;
  std::vector<std::tuple<int, int, double>> pipes;
  double rate = 0.0;
};

/// The planner's acyclic overlay of a random 30-peer platform.
MixedOverlay planned_overlay(util::Xoshiro256& rng) {
  const Instance platform =
      gen::random_instance({30, 0.6, gen::Dist::kUnif100}, rng);
  const AcyclicSolution solution = solve_acyclic(platform);
  MixedOverlay overlay;
  overlay.rate = solution.throughput;
  for (int i = 0; i < platform.size(); ++i) {
    overlay.budgets.push_back(platform.b(i));
    for (const auto& [to, rate] : solution.scheme.out_edges(i)) {
      overlay.pipes.emplace_back(i, to, rate);
    }
  }
  return overlay;
}

/// A 16-node DAG whose pipe rates are 1, 2 or 4 with budgets equal to the
/// planned out-rates. With a 1/4 chunk, 1/16 s emission spacing and
/// latencies of 1/8 and 1/16 s every event time is exact in binary, so many
/// events tie: the case where the order of equal-time events decides.
MixedOverlay dyadic_overlay(util::Xoshiro256& rng) {
  MixedOverlay overlay;
  overlay.rate = 4.0;
  overlay.budgets.assign(16, 0.0);
  const auto add_pipe = [&](int from, int to) {
    const double rate = static_cast<double>(1 << rng.below(3));
    overlay.pipes.emplace_back(from, to, rate);
    overlay.budgets[static_cast<std::size_t>(from)] += rate;
  };
  for (int to = 1; to < 16; ++to) {
    const auto below_to = [&] {
      return static_cast<int>(rng.below(static_cast<std::uint64_t>(to)));
    };
    const int first = below_to();
    const int second = below_to();
    add_pipe(first, to);
    if (second != first) add_pipe(second, to);
  }
  return overlay;
}

// A paced lossy stream where every third sender's egress class carries
// propagation latency (some with jitter) and the rest transmit at zero
// latency, plus per-edge overrides in both directions. The script walks
// the fault paths that tear transmissions down mid-flight: a corrupting
// relay, a partition, a trickle pipe sharply re-rated (restart), a
// reconcile_edges splice, a peer crash and its synthesized departure, and a
// source crash with failover.
MixedRun run_mixed_scenario(std::uint64_t seed, bool verify,
                            obs::Profiler* profiler = nullptr,
                            bool dyadic = false) {
  util::Xoshiro256 rng(seed);
  const MixedOverlay overlay =
      dyadic ? dyadic_overlay(rng) : planned_overlay(rng);
  const double rate = overlay.rate;
  obs::LineageSink lineage;
  ExecutionConfig config;
  config.chunk_size = dyadic ? 0.25 : rate * 0.05;
  config.total_chunks = 280;
  config.emission_rate = rate;
  config.loss_rate = 0.03;
  // The dyadic overlay's pipes outrun the stream; a one-slot window (the
  // effective window is still the in-degree) keeps backpressure in play.
  config.receiver_window = dyadic ? 1 : 4;
  config.seed = seed;
  config.collect_latencies = true;
  config.verify_payloads = verify;
  config.lineage = &lineage;
  config.trace_id = 3;
  config.profiler = profiler;
  Execution exec(config);
  for (const double budget : overlay.budgets) exec.add_node(budget);
  for (const auto& [from, to, pipe_rate] : overlay.pipes) {
    exec.set_edge(from, to, pipe_rate);
  }
  const int peers = exec.num_nodes();
  for (int id = 0; id < peers; ++id) {
    if (id % 3 != 1) continue;
    exec.set_egress_profile(
        id, dyadic ? LinkProfile{0.02, id % 2 == 0 ? 0.125 : 0.0625, 0.0}
                   : LinkProfile{0.02, 0.015, id % 2 == 0 ? 0.2 : 0.0});
  }
  std::vector<EdgeStats> rows;
  exec.edge_stats_into(rows);
  // Overrides both ways: a zero-latency edge out of a latency class and a
  // latency edge out of a zero-latency one.
  for (const EdgeStats& row : rows) {
    if (row.from % 3 == 1 && row.to % 2 == 0) {
      exec.set_edge_profile(row.from, row.to, {0.0, 0.0, 0.0});
      break;
    }
  }
  for (const EdgeStats& row : rows) {
    if (row.from % 3 != 1 && row.to % 2 == 1) {
      exec.set_edge_profile(row.from, row.to,
                            dyadic ? LinkProfile{0.05, 0.125, 0.0}
                                   : LinkProfile{0.05, 0.03, 0.1});
      break;
    }
  }
  const auto pick_peer = [&] {
    int peer = 0;
    while (!exec.node_alive(peer) || peer == exec.origin()) {
      peer = 1 + static_cast<int>(rng.uniform() * (peers - 1));
    }
    return peer;
  };
  std::vector<std::string> audits;
  const auto audit = [&] {
    for (const std::string& line : exec.validate()) audits.push_back(line);
  };
  exec.set_corrupt_rate(pick_peer(), 0.25);
  exec.run_until(1.5);
  audit();
  const int cut = pick_peer();
  exec.set_partition_group(cut, 1);
  const int trickle_from = pick_peer();
  int trickle_to = pick_peer();
  while (trickle_to == trickle_from) trickle_to = pick_peer();
  // The added pipes come with budget to match, so the multi-port audit
  // stays clean and validate() reports only bookkeeping leaks.
  exec.set_node_budget(
      trickle_from,
      overlay.budgets[static_cast<std::size_t>(trickle_from)] + rate * 0.3);
  exec.set_edge(trickle_from, trickle_to, rate * 0.002);
  exec.run_until(3.0);
  audit();
  exec.set_partition_group(cut, 0);
  // Sharply re-rated while busy: the trickle's transmission restarts.
  exec.set_edge(trickle_from, trickle_to, rate * 0.3);
  exec.run_until(4.0);
  audit();
  // Splice: drop the first live edge, halve the second, add a new one.
  exec.edge_stats_into(rows);
  std::vector<std::tuple<int, int, double>> desired;
  for (std::size_t k = 1; k < rows.size(); ++k) {
    desired.emplace_back(rows[k].from, rows[k].to,
                         k == 1 ? rows[k].rate * 0.5 : rows[k].rate);
  }
  const int spliced = pick_peer();
  exec.set_node_budget(exec.origin(), overlay.budgets[0] + rate * 0.2);
  desired.emplace_back(exec.origin(), spliced, rate * 0.2);
  exec.reconcile_edges(desired);
  exec.run_until(5.0);
  audit();
  const int crashed = pick_peer();
  exec.crash_node(crashed);
  exec.run_until(6.0);
  audit();
  exec.remove_node(crashed);
  exec.run_until(8.0);
  audit();
  exec.crash_node(exec.origin());
  exec.failover_source();
  exec.run_to_completion();
  audit();

  MixedPins pins{};
  Fnv edges;
  exec.edge_stats_into(rows);
  for (const EdgeStats& row : rows) {
    edges.i(row.from);
    edges.i(row.to);
    edges.d(row.rate);
    edges.d(row.busy_time);
    edges.d(row.completed);
    edges.u64(row.sent);
    edges.u64(row.delivered);
    edges.u64(row.lost);
    edges.i(row.busy ? 1 : 0);
    edges.d(row.pending_duration);
    edges.u64(row.attempts);
    edges.u64(row.window_stalls);
    edges.u64(row.no_chunk);
  }
  pins.edges = edges.hash;
  Fnv report;
  const ExecutionReport summary = exec.report(rate);
  report.d(summary.now);
  report.i(summary.emitted);
  report.u64(summary.delivered_chunks);
  report.u64(summary.losses);
  report.u64(summary.retransmits);
  report.u64(summary.hol_stalls);
  report.u64(summary.duplicates);
  report.d(summary.achieved_rate);
  report.d(summary.stretch);
  report.u64(exec.corruptions());
  report.u64(exec.corrupted_accepted());
  report.u64(exec.written_off());
  for (const NodeProgress& node : summary.nodes) {
    report.i(node.id);
    report.i(node.alive ? 1 : 0);
    report.i(node.delivered);
    report.i(node.skipped);
    report.d(node.joined);
    report.d(node.completion_time);
    report.d(node.steady_rate);
    report.i(node.max_buffer);
  }
  pins.report = report.hash;
  Fnv latencies;
  for (const double latency : exec.drain_latencies()) latencies.d(latency);
  pins.latencies = latencies.hash;
  Fnv hops;
  for (const obs::HopRecord& hop : lineage.hops()) {
    hops.i(hop.chunk);
    hops.i(hop.from);
    hops.i(hop.to);
    hops.i(hop.channel);
    hops.d(hop.enqueue);
    hops.d(hop.start);
    hops.d(hop.finish);
    hops.i(hop.retransmits);
    hops.d(hop.loss_time);
    hops.i(hop.hol_stalled ? 1 : 0);
    hops.i(hop.overtake ? 1 : 0);
  }
  pins.lineage = hops.hash;
  Fnv validate;
  for (const std::string& line : audits) validate.s(line);
  pins.validate = validate.hash;
  return {pins, exec.losses(), exec.duplicates(),
          exec.corruptions() + exec.corrupted_accepted(), exec.written_off(),
          exec.hol_stalls()};
}

TEST(Execution, MixedLatencyReplayIsPinned) {
  // Byte-level pins recorded from the two-event (send-complete, arrival)
  // engine: zero-latency transmissions may be processed as one event, but
  // the replay must not move a bit.
  struct Case {
    std::uint64_t seed;
    bool verify;
    MixedPins want;
  };
  // validate() stays silent at every checkpoint: its pin is the empty hash.
  constexpr std::uint64_t kClean = 0xcbf29ce484222325ULL;
  const Case cases[] = {
      {1, false,
       {0x2737790c53c1d830ULL, 0xd5a50dbb3bd377ddULL,
        0xcefaf194d1de6481ULL, 0x1ec7490571e0ac2dULL, kClean}},
      {1, true,
       {0x1c986bc54dc2b53ULL, 0xf36a8c9dafb5b4bdULL,
        0xfc6839ed475512b1ULL, 0x1f73d589abe989c4ULL, kClean}},
      {2, false,
       {0xf90863f8224124ceULL, 0x485c0bc5e0a68bdfULL,
        0xa1ce302c637e5f63ULL, 0x53f2323f290cbe03ULL, kClean}},
      {2, true,
       {0xb09a786170b87369ULL, 0x8f7d382f089ebf29ULL,
        0xbb2e976753393443ULL, 0x70f65f54a28c0ef2ULL, kClean}},
      {3, false,
       {0x18f8b2415fecd5ccULL, 0xac5e5cd235a75382ULL,
        0x3c50c1d42b1c1fe3ULL, 0xc5e840a3a991c5b4ULL, kClean}},
      {3, true,
       {0x702ca14f0058c19bULL, 0x4ba3a6b3b563074ULL,
        0x6da5be40499a2ea5ULL, 0x21671a0cca7e434eULL, kClean}},
  };
  // Exact-tie overlays: equal-time events are everywhere.
  const Case dyadic[] = {
      {4, false,
       {0x7e6e7b5a88151b55ULL, 0x5069b98c47b850e8ULL,
        0x69bac75e0e030ba1ULL, 0x382ab51c38d703bbULL, kClean}},
      {5, true,
       {0x1fa555c5de6d2befULL, 0xc3a5a9632558cfa7ULL,
        0xaa38f598de7c3251ULL, 0xf66b404a7c52e119ULL, kClean}},
  };
  for (const Case& c : cases) {
    const MixedRun run = run_mixed_scenario(c.seed, c.verify);
    EXPECT_EQ(run.pins, c.want) << "seed " << c.seed << " verify " << c.verify;
    // Every case reaches loss, overtaking, corruption, failover write-offs
    // and window backpressure.
    EXPECT_GT(run.losses, 0u);
    EXPECT_GT(run.duplicates, 0u);
    EXPECT_GT(run.damaged, 0u);
    EXPECT_GT(run.written_off, 0u);
    EXPECT_GT(run.hol_stalls, 0u);
  }
  for (const Case& c : dyadic) {
    const MixedRun run = run_mixed_scenario(c.seed, c.verify, nullptr, true);
    EXPECT_EQ(run.pins, c.want) << "dyadic seed " << c.seed;
    EXPECT_GT(run.losses, 0u);
    EXPECT_GT(run.hol_stalls, 0u);
  }
}

TEST(Execution, AdvanceCountersArePinned) {
  // Every dataplane/advance and dataplane/scheduler counter, pinned. The
  // events counter counts logical events: a zero-latency transmission's
  // send-complete and arrival count two, however they are queued.
  const char* const advance[] = {"events",      "emitted",    "delivered",
                                 "losses",      "retransmits", "duplicates",
                                 "hol_stalls"};
  const char* const scheduler[] = {"attempts", "window_stalls", "no_chunk",
                                   "index_picks", "linear_scans"};
  const auto counters = [&](const obs::Profiler& profiler) {
    std::vector<std::uint64_t> out;
    for (const char* name : advance) {
      out.push_back(profiler.counter("dataplane/advance", name));
    }
    for (const char* name : scheduler) {
      out.push_back(profiler.counter("dataplane/scheduler", name));
    }
    return out;
  };

  // Zero latency everywhere: a lossy paced stream, advanced in steps.
  util::Xoshiro256 rng(41);
  const Instance platform =
      gen::random_instance({40, 0.6, gen::Dist::kUnif100}, rng);
  const AcyclicSolution solution = solve_acyclic(platform);
  obs::Profiler zero;
  ExecutionConfig config;
  config.chunk_size = solution.throughput * 0.05;
  config.total_chunks = 300;
  config.emission_rate = solution.throughput;
  config.loss_rate = 0.02;
  config.receiver_window = 2;  // narrow enough to stall at zero latency
  config.seed = 7;
  config.profiler = &zero;
  Execution exec(platform, solution.scheme, config);
  for (double t = 0.5; t < 10.0; t += 0.5) exec.run_until(t);
  exec.run_to_completion();
  EXPECT_EQ(counters(zero), (std::vector<std::uint64_t>{
                                25029, 300, 12000, 271, 271, 93, 9139,  //
                                23350, 9139, 1847, 14135, 76}));

  obs::Profiler mixed;
  run_mixed_scenario(2, true, &mixed);
  EXPECT_EQ(counters(mixed), (std::vector<std::uint64_t>{
                                 7244, 280, 3272, 115, 146, 56, 92,  //
                                 6847, 92, 3274, 5900, 855}));
}

TEST(Execution, PipeIndexSurvivesSlotRecycling) {
  // Pipes are added, removed and re-added so freed slots come back out of
  // (from, to) order; a node departure frees a batch; a splice carries
  // duplicate keys. The (from, to) index must keep rows ascending, count
  // exactly the live pipes and leave the books balanced at every stage.
  ExecutionConfig config;
  config.chunk_size = 0.5;
  config.total_chunks = 160;
  config.emission_rate = 4.0;
  config.loss_rate = 0.05;
  config.seed = 11;
  Execution exec(config);
  for (int i = 0; i < 8; ++i) exec.add_node(40.0);
  std::vector<std::uint64_t> pins;
  std::vector<EdgeStats> rows;
  const auto rate_of = [&](int from, int to) {
    exec.edge_stats_into(rows);
    for (const EdgeStats& row : rows) {
      if (row.from == from && row.to == to) return row.rate;
    }
    return 0.0;
  };
  const auto stage = [&](const char* name) {
    exec.edge_stats_into(rows);
    EXPECT_EQ(static_cast<int>(rows.size()), exec.num_pipes()) << name;
    for (std::size_t k = 1; k < rows.size(); ++k) {
      EXPECT_LT(std::make_pair(rows[k - 1].from, rows[k - 1].to),
                std::make_pair(rows[k].from, rows[k].to))
          << name;
    }
    EXPECT_TRUE(exec.validate().empty()) << name;
    Fnv fnv;
    for (const EdgeStats& row : rows) {
      fnv.i(row.from);
      fnv.i(row.to);
      fnv.d(row.rate);
      fnv.d(row.busy_time);
      fnv.d(row.completed);
      fnv.u64(row.sent);
      fnv.u64(row.lost);
      fnv.u64(row.attempts);
      fnv.u64(row.window_stalls);
    }
    pins.push_back(fnv.hash);
    pins.push_back(static_cast<std::uint64_t>(exec.num_pipes()));
  };
  for (int to = 1; to < 8; ++to) exec.set_edge(to - 1, to, 3.0);
  exec.set_edge(0, 4, 2.0);
  exec.set_edge(0, 6, 2.0);
  exec.set_edge(2, 7, 1.5);
  exec.run_until(3.0);
  stage("built");
  // Freed in (from, to) order; the free list hands them back reversed.
  exec.set_edge(0, 4, 0.0);
  exec.set_edge(2, 3, 0.0);
  exec.set_edge(5, 6, 0.0);
  exec.set_edge(1, 5, 2.5);
  exec.set_edge(3, 6, 2.0);
  exec.set_edge(2, 3, 1.0);
  exec.run_until(6.0);
  stage("recycled");
  exec.remove_node(4);
  const int joiner = exec.add_node(30.0);
  exec.set_edge(3, joiner, 2.0);
  exec.set_edge(joiner, 7, 1.0);
  exec.run_until(9.0);
  stage("departed");
  // Splice in reverse order with duplicate keys: the last positive rate of
  // a key wins, a later non-positive duplicate does not remove it.
  exec.edge_stats_into(rows);
  std::vector<std::tuple<int, int, double>> desired;
  for (std::size_t k = rows.size(); k-- > 1;) {
    desired.emplace_back(rows[k].from, rows[k].to,
                         k == 2 ? rows[k].rate * 3.0 : rows[k].rate);
  }
  desired.emplace_back(1, 6, 1.0);
  desired.emplace_back(0, 2, 0.5);
  desired.emplace_back(1, 6, 2.5);
  desired.emplace_back(0, 2, 0.0);
  exec.reconcile_edges(desired);
  EXPECT_DOUBLE_EQ(rate_of(1, 6), 2.5);
  EXPECT_DOUBLE_EQ(rate_of(0, 2), 0.5);
  exec.run_until(12.0);
  stage("spliced");
  exec.run_to_completion();
  stage("drained");
  std::ostringstream got;
  for (const std::uint64_t pin : pins) got << std::hex << "0x" << pin << ", ";
  // (rows hash, num_pipes) per stage, recorded with the std::map-keyed
  // pipe index this merge-based one replaced.
  EXPECT_EQ(pins, (std::vector<std::uint64_t>{
                      0xc3eb341d794f7bdfULL, 10, 0xe5b9759e48a32769ULL, 10,
                      0xb908f861755067e7ULL, 10, 0x15e80f0019f0daebULL, 11,
                      0xef4c5b9ddd787147ULL, 11}))
      << got.str();
}

// ------------------------------------------- acceptance: plan vs achieved

TEST(DataPlaneAcceptance, Achieves95PercentOfVerifiedThroughputOn500Nodes) {
  util::Xoshiro256 rng(2026);
  const Instance platform =
      gen::random_instance({500, 0.6, gen::Dist::kUnif100}, rng);
  const AcyclicSolution solution = solve_acyclic(platform);
  ASSERT_TRUE(solution.scheme.is_acyclic());
  const double verified = flow::verify_throughput(solution.scheme).throughput;
  ASSERT_NEAR(verified, solution.throughput, 1e-6 * solution.throughput);

  ExecutionConfig config;
  config.chunk_size = solution.throughput * 0.05;  // 20 chunks per second
  config.total_chunks = 300;
  config.emission_rate = solution.throughput;
  config.warmup_chunks = 60;
  Execution exec(platform, solution.scheme, config);
  exec.run_to_completion();

  const ExecutionReport report = exec.report(solution.throughput);
  // Lossless, zero latency: every node must sustain >= 0.95x the verified
  // fluid rate chunk-by-chunk...
  EXPECT_GE(report.achieved_rate, 0.95 * verified);
  // ... and the data plane can never beat the flow bound (small slack for
  // the windowed empirical measurement).
  EXPECT_LE(report.achieved_rate, verified * 1.02 + 1e-9);
  EXPECT_LE(report.stretch, 1.0 / 0.95);
  EXPECT_EQ(report.losses, 0u);
  for (int node = 1; node < exec.num_nodes(); ++node) {
    EXPECT_EQ(exec.delivered(node), 300) << "node " << node;
    EXPECT_GE(exec.completion_time(node), 0.0);
  }
  EXPECT_TRUE(exec.validate().empty());
}

// --------------------------------------- runtime execution mode acceptance

runtime::ScenarioScript churn_script(std::uint64_t seed) {
  runtime::Scenario scenario(6.0, seed);
  scenario.source(2000.0)
      .population({72, 0.7, gen::Dist::kUnif100})
      .population({48, 0.3, gen::Dist::kLogNormal1})
      .channel({0.0, -1.0, /*weight=*/2.0, /*fraction=*/0.4})
      .channel({0.0, -1.0, 1.0, 0.2})
      .channel({0.2, -1.0, 1.0, 0.15})
      .poisson_channels({0.8, 1.5, 1.0, 0.1})
      .flash_crowd({1.8, 24, {0, 0.8, gen::Dist::kUnif100}, 0.7, 1.2})
      .diurnal_churn({3.0, 0.8, 8.0, 0.45, {0, 0.5, gen::Dist::kUnif100}})
      .correlated_failure({4.5, 0.10})
      .renegotiate_every(1.2, 0.95);
  return scenario.build();
}

runtime::RuntimeConfig execution_config(std::size_t planner_threads) {
  runtime::RuntimeConfig config;
  config.collect_timing = false;
  config.broker_headroom = 0.05;
  config.planner.threads = planner_threads;
  config.dataplane.execute = true;
  config.dataplane.execution.chunk_size = 4.0;
  return config;
}

TEST(DataPlaneAcceptance, ChurningRuntimeSustains85PercentWithLivePatches) {
  const runtime::ScenarioScript script = churn_script(7);
  runtime::RuntimeConfig config = execution_config(0);
  runtime::Runtime runtime(config, script.source_bandwidth,
                           script.initial_peers);
  runtime.run(script.events);
  const std::vector<runtime::StreamReport> drained = runtime.drain(6.0);
  EXPECT_FALSE(drained.empty());
  ASSERT_GT(runtime.stream_log().size(), drained.size());  // closes happened
  ASSERT_GT(runtime.metrics().counter("dataplane.delivered"), 1000u);

  int judged = 0;
  for (const runtime::StreamReport& report : runtime.stream_log()) {
    // Streams too short to emit a meaningful number of chunks don't make
    // a ratio worth judging.
    if (report.expected_chunks < 10.0) continue;
    ++judged;
    EXPECT_GE(report.sustained_ratio, 0.85)
        << "channel " << report.channel << " open at " << report.open_time;
    EXPECT_TRUE(report.rate_within_verified) << "channel " << report.channel;
  }
  EXPECT_GT(judged, 0);
  EXPECT_EQ(runtime.metrics().counter("dataplane.rate_audit_failures"), 0u);
  // The churn actually exercised live patching.
  EXPECT_GT(runtime.metrics().counter("repairs.incremental") +
                runtime.metrics().counter("repairs.full"),
            0u);
}

TEST(DataPlaneAcceptance, ReplayIsIdenticalAcrossRunsAndThreadCounts) {
  const runtime::ScenarioScript script = churn_script(11);
  struct Outcome {
    std::string snapshot;
    std::vector<runtime::StreamReport> streams;
  };
  const auto run = [&](std::size_t planner_threads) {
    runtime::Runtime runtime(execution_config(planner_threads),
                             script.source_bandwidth, script.initial_peers);
    runtime.run(script.events);
    runtime.drain(6.0);
    return Outcome{runtime.metrics().snapshot().to_string(false),
                   runtime.stream_log()};
  };
  const Outcome base = run(1);
  const Outcome again = run(1);
  const Outcome threaded = run(4);

  // Identical dataplane.* metric snapshots (timing.* excluded) across two
  // runs and across planner thread counts...
  EXPECT_EQ(base.snapshot, again.snapshot);
  EXPECT_EQ(base.snapshot, threaded.snapshot);
  EXPECT_NE(base.snapshot.find("counter dataplane.delivered"),
            std::string::npos);
  EXPECT_NE(base.snapshot.find("histogram dataplane.chunk_latency"),
            std::string::npos);

  // ... and identical per-stream outcomes, chunk for chunk.
  ASSERT_EQ(base.streams.size(), threaded.streams.size());
  for (std::size_t i = 0; i < base.streams.size(); ++i) {
    const runtime::StreamReport& a = base.streams[i];
    const runtime::StreamReport& b = threaded.streams[i];
    EXPECT_EQ(a.channel, b.channel);
    EXPECT_EQ(a.emitted, b.emitted);
    EXPECT_EQ(a.delivered_chunks, b.delivered_chunks);
    EXPECT_DOUBLE_EQ(a.sustained_ratio, b.sustained_ratio);
    EXPECT_DOUBLE_EQ(a.achieved_rate, b.achieved_rate);
  }
}

TEST(DataPlaneAcceptance, PerNodeCompletionTimesReplayIdentically) {
  // Two independent executions of the same planned overlay: every node's
  // completion time must match to the bit.
  util::Xoshiro256 rng(5);
  const Instance platform =
      gen::random_instance({120, 0.6, gen::Dist::kUnif100}, rng);
  const AcyclicSolution solution = solve_acyclic(platform);
  ExecutionConfig config;
  config.chunk_size = solution.throughput * 0.05;
  config.total_chunks = 200;
  config.emission_rate = solution.throughput;
  config.loss_rate = 0.05;  // loss in the mix: the rng must replay too
  config.seed = 31;
  const auto run = [&] {
    Execution exec(platform, solution.scheme, config);
    exec.run_to_completion();
    return exec;
  };
  const Execution first = run();
  const Execution second = run();
  ASSERT_EQ(first.num_nodes(), second.num_nodes());
  for (int node = 1; node < first.num_nodes(); ++node) {
    EXPECT_DOUBLE_EQ(first.completion_time(node), second.completion_time(node))
        << "node " << node;
  }
  EXPECT_EQ(first.losses(), second.losses());
  EXPECT_EQ(first.hol_stalls(), second.hol_stalls());
}

}  // namespace
}  // namespace bmp::dataplane
