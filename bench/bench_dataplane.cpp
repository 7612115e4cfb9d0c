// Data-plane bench — the numbers the chunk engine exists for:
//   * plan vs achieved: a 500-node acyclic overlay executed chunk by chunk
//     must deliver >= 0.95x the planner's verified throughput (lossless,
//     zero latency) — the ISSUE 4 acceptance bar;
//   * robustness: the same overlay under 2% loss + propagation latency
//     (informational: how far dynamics pull below the fluid bound);
//   * event-loop speed: chunk deliveries per wall-second;
//   * churn: the bench_runtime scenario with execution mode on — every
//     channel's stream must sustain >= 0.85x its design-rate integral with
//     live-patched repairs only, and replay deterministically.
// `--quick` (or BMP_DATAPLANE_QUICK=1) shrinks everything for CI smoke.
// `--json <path>` writes the machine-readable report (git SHA stamped).
#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bmp/core/acyclic_search.hpp"
#include "bmp/dataplane/execution.hpp"
#include "bmp/flow/verify.hpp"
#include "bmp/obs/export.hpp"
#include "bmp/obs/lineage.hpp"
#include "bmp/obs/trace.hpp"
#include "bmp/gen/generator.hpp"
#include "bmp/runtime/runtime.hpp"
#include "bmp/runtime/scenario.hpp"
#include "bmp/util/table.hpp"
#include "bench_util.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

bmp::runtime::ScenarioScript churn_script(int peers, double horizon,
                                          std::uint64_t seed) {
  using namespace bmp::runtime;
  Scenario scenario(horizon, seed);
  scenario.source(2000.0)
      .population({peers * 3 / 5, 0.7, bmp::gen::Dist::kUnif100})
      .population({peers * 2 / 5, 0.3, bmp::gen::Dist::kLogNormal1})
      .channel({0.0, -1.0, /*weight=*/2.0, /*fraction=*/0.4})
      .channel({0.0, -1.0, 1.0, 0.2})
      .channel({0.2, -1.0, 1.0, 0.15})
      .poisson_channels({0.8, horizon / 4.0, 1.0, 0.1})
      .flash_crowd({horizon * 0.3, peers / 5,
                    {0, 0.8, bmp::gen::Dist::kUnif100}, 0.7, horizon * 0.2})
      .diurnal_churn({horizon / 2.0, 0.8, 8.0, 0.45,
                      {0, 0.5, bmp::gen::Dist::kUnif100}})
      .correlated_failure({horizon * 0.75, 0.10})
      .renegotiate_every(horizon / 5.0, 0.95);
  return scenario.build();
}

}  // namespace

int main(int argc, char** argv) {
  bmp::benchutil::CommonCli cli(argc, argv);
  const bool quick =
      cli.quick || bmp::benchutil::env_int("BMP_DATAPLANE_QUICK", 0) != 0;
  const std::string& json_path = cli.json;
  const std::string& trace_path = cli.trace;
  const int peers =
      bmp::benchutil::env_int("BMP_DATAPLANE_PEERS", quick ? 150 : 500);
  const int chunks = quick ? 200 : 300;

  bmp::util::print_banner(std::cout,
                          "Chunk-level data plane — plan vs achieved");
  std::cout << peers << "-node acyclic overlay, " << chunks << " chunks"
            << (quick ? "  [quick]\n\n" : "\n\n");

  bmp::benchutil::JsonReport json;
  bmp::benchutil::add_header(json, "dataplane");
  json.add("peers", peers);
  json.add("chunks", chunks);
  bool ok = true;

  // ------------------------------------------- plan vs achieved (lossless)
  bmp::util::Xoshiro256 rng(2026);
  const bmp::Instance platform = bmp::gen::random_instance(
      {peers, 0.6, bmp::gen::Dist::kUnif100}, rng);
  const bmp::AcyclicSolution solution = bmp::solve_acyclic(platform);
  const double verified =
      bmp::flow::verify_throughput(solution.scheme).throughput;

  bmp::dataplane::ExecutionConfig config;
  config.chunk_size = solution.throughput * 0.05;
  config.total_chunks = chunks;
  config.emission_rate = solution.throughput;
  config.warmup_chunks = chunks / 5;
  config.profiler = cli.profiler();

  const auto lossless_start = std::chrono::steady_clock::now();
  bmp::dataplane::Execution lossless(platform, solution.scheme, config);
  lossless.run_to_completion();
  const double lossless_s = seconds_since(lossless_start);
  const bmp::dataplane::ExecutionReport clean = lossless.report(verified);
  const double clean_ratio = clean.achieved_rate / verified;
  const double chunks_per_sec =
      static_cast<double>(clean.delivered_chunks) / lossless_s;

  // ------------------------------------------------ loss + latency variant
  config.profiler = nullptr;  // attribution covers the headline lossless run
  config.loss_rate = 0.02;
  config.latency = 0.01;
  config.seed = 7;
  bmp::dataplane::Execution lossy(platform, solution.scheme, config);
  lossy.run_to_completion();
  const bmp::dataplane::ExecutionReport noisy = lossy.report(verified);

  bmp::util::Table table({"case", "achieved/planned", "stretch", "chunks/s",
                          "stalls", "retransmits"});
  table.add_row({"lossless", bmp::util::Table::num(clean_ratio, 4),
                 bmp::util::Table::num(clean.stretch, 3),
                 bmp::util::Table::num(chunks_per_sec, 0),
                 bmp::util::Table::num(clean.hol_stalls),
                 bmp::util::Table::num(clean.retransmits)});
  table.add_row({"2% loss + 10ms",
                 bmp::util::Table::num(noisy.achieved_rate / verified, 4),
                 bmp::util::Table::num(noisy.stretch, 3), "-",
                 bmp::util::Table::num(noisy.hol_stalls),
                 bmp::util::Table::num(noisy.retransmits)});
  table.print(std::cout);
  table.maybe_write_csv("dataplane");

  ok = ok && clean_ratio >= 0.95;
  std::cout << (clean_ratio >= 0.95 ? "[OK] " : "[WARN] ")
            << "lossless execution achieved " << 100.0 * clean_ratio
            << "% of the verified throughput (bar: 95%)\n";
  const bool bounded = clean.achieved_rate <= verified * 1.02 + 1e-9;
  ok = ok && bounded;
  std::cout << (bounded ? "[OK] " : "[WARN] ")
            << "achieved rate stays within the flow::Verifier bound\n";

  json.add("planned_rate", solution.throughput);
  json.add("verified_rate", verified);
  json.add("achieved_rate", clean.achieved_rate);
  json.add("achieved_over_planned", clean_ratio);
  json.add("lossy_achieved_over_planned", noisy.achieved_rate / verified);
  json.add("chunks_per_sec", chunks_per_sec);
  json.add("retransmits_lossy", noisy.retransmits);

  // ----------------------------------------- straggler spread (tail shape)
  // Per-node completion times of the lossless run: the spread between the
  // median node and the worst straggler is the tail the lineage analyzer
  // attributes. Scenario-time, fully deterministic — bench_diff gates these
  // under its lower-better `latency.` class.
  std::vector<double> completions;
  for (int node = 0; node < lossless.num_nodes(); ++node) {
    if (node == lossless.origin()) continue;
    const double done = lossless.completion_time(node);
    if (done >= 0.0) completions.push_back(done);
  }
  std::sort(completions.begin(), completions.end());
  const auto at_quantile = [&](double q) {
    if (completions.empty()) return 0.0;
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(completions.size() - 1) + 0.5);
    return completions[rank];
  };
  const double completion_p50 = at_quantile(0.50);
  const double completion_p99 = at_quantile(0.99);
  const double completion_worst =
      completions.empty() ? 0.0 : completions.back();
  const double straggler_ratio =
      completion_p50 > 0.0 ? completion_worst / completion_p50 : 1.0;
  std::cout << "\nstraggler spread: completion p50 " << completion_p50
            << "s, p99 " << completion_p99 << "s, worst/median "
            << straggler_ratio << "x\n";
  json.add("latency.completion_p50", completion_p50);
  json.add("latency.completion_p99", completion_p99);
  json.add("latency.straggler_ratio", straggler_ratio);

  // ------------------------------------------- lineage overhead, A/B wall
  // The bench's lossy scenario with the lineage sink attached must cost
  // <= 5% wall time over the disabled baseline (disabled cost: one branch
  // per delivery; losses exercise the retry-tally path too). Estimator:
  // the two variants run back-to-back within each of 21 rounds (run order
  // flips every round so a within-round drift cannot systematically tax
  // one variant), and the reported overhead is the ratio of the two *min*
  // walls. Scheduler noise is additive — it only ever inflates a wall —
  // so the per-variant min over 21 interleaved samples converges on the
  // true cost even when ambient load swings the individual walls by tens
  // of percent, where medians (or per-pair ratios) drift with the load.
  // The on-runs rotate across three independently allocated sinks: a
  // record buffer that happens to land on pages conflicting with the
  // simulator's hot set taxes every run that reuses it, and the min can
  // only discount that placement luck if the samples don't all share it.
  const auto ab_run = [&](bmp::obs::LineageSink* sink) {
    bmp::dataplane::ExecutionConfig ab_config = config;
    ab_config.profiler = nullptr;
    ab_config.lineage = sink;
    const auto start = std::chrono::steady_clock::now();
    bmp::dataplane::Execution exec(platform, solution.scheme, ab_config);
    exec.run_to_completion();
    return seconds_since(start);
  };
  std::vector<bmp::obs::LineageSink> sinks(3);
  const auto ab_measure = [&] {
    std::vector<double> ab_on_walls;
    std::vector<double> ab_off_walls;
    const int ab_rounds = 21;
    for (int round = 0; round < ab_rounds; ++round) {
      bmp::obs::LineageSink& lineage = sinks[round % sinks.size()];
      if (round % 2 == 0) {
        ab_off_walls.push_back(ab_run(nullptr));
        lineage.clear();  // fresh records, warm buffers: same work per run
        ab_on_walls.push_back(ab_run(&lineage));
      } else {
        lineage.clear();
        ab_on_walls.push_back(ab_run(&lineage));
        ab_off_walls.push_back(ab_run(nullptr));
      }
    }
    const auto best = [](const std::vector<double>& walls) {
      return *std::min_element(walls.begin(), walls.end());
    };
    return std::pair<double, double>(best(ab_on_walls), best(ab_off_walls));
  };
  auto [ab_on_wall, ab_off_wall] = ab_measure();
  if (ab_on_wall > 1.05 * ab_off_wall) {
    // One retry before declaring a regression: an ambient burst spanning a
    // whole measurement occasionally inflates the estimate a few percent
    // past the bar; a genuine recording regression fails both attempts.
    const auto [retry_on, retry_off] = ab_measure();
    if (retry_on * ab_off_wall < ab_on_wall * retry_off) {
      ab_on_wall = retry_on;
      ab_off_wall = retry_off;
    }
  }
  const bmp::obs::LineageSink& lineage = sinks.front();
  const double lineage_overhead =
      ab_off_wall > 0.0 ? ab_on_wall / ab_off_wall : 1.0;
  const bool lineage_cheap = lineage_overhead <= 1.05;
  ok = ok && lineage_cheap && lineage.recorded() > 0;
  std::cout << (lineage_cheap ? "[OK] " : "[WARN] ")
            << "lineage recording costs " << lineage_overhead
            << "x wall vs disabled (bar: <= 1.05x, "
            << lineage.recorded() << " hops/run, baseline "
            << ab_off_wall * 1e3 << "ms)\n";
  json.add("lineage_overhead_ratio", lineage_overhead);
  json.add("lineage_hops", lineage.recorded());

  // -------------------------- scheduler scan index vs linear deep backlog
  // A file-mode relay chain keeps every receiver's backlog window full
  // (scan_limit deep), the worst case for the linear rarest-first scan.
  // The word-parallel pick must choose identical chunks (differentially
  // asserted in tests) and must never be slower — the no-regression bar.
  const int backlog_chunks = quick ? 6000 : 30000;
  const auto scan_case = [&](bool use_index) {
    bmp::dataplane::ExecutionConfig scan_config;
    scan_config.chunk_size = 1.0;
    scan_config.total_chunks = backlog_chunks;
    scan_config.emission_rate = 0.0;  // file mode: the backlog exists at t=0
    scan_config.warmup_chunks = 0;
    scan_config.use_scan_index = use_index;
    const auto start = std::chrono::steady_clock::now();
    bmp::dataplane::Execution exec(scan_config);
    const int source = exec.add_node(1000.0);
    const int relay = exec.add_node(1000.0);
    const int leaf = exec.add_node(0.0);
    exec.set_edge(source, relay, 1000.0);
    exec.set_edge(relay, leaf, 1000.0);
    exec.run_to_completion();
    if (exec.delivered(leaf) != backlog_chunks) std::abort();
    return seconds_since(start);
  };
  const double linear_s = scan_case(false);
  const double indexed_s = scan_case(true);
  const double scan_speedup = linear_s / indexed_s;
  std::cout << "\ndeep-backlog scheduler: linear scan " << linear_s
            << "s, word-parallel pick " << indexed_s << "s (" << scan_speedup
            << "x)\n";
  ok = ok && indexed_s <= linear_s * 1.05;
  std::cout << (indexed_s <= linear_s * 1.05 ? "[OK] " : "[WARN] ")
            << "scan index is no slower than the linear scan (bar: <= 1.05x)\n";
  json.add("scan_linear_seconds", linear_s);
  json.add("scan_indexed_seconds", indexed_s);
  json.add("scan_index_speedup", scan_speedup);

  // --------------------------------------------- churn scenario, executed
  const int churn_peers = quick ? 120 : 500;
  const double horizon = quick ? 6.0 : 20.0;
  const bmp::runtime::ScenarioScript script = churn_script(
      churn_peers, horizon,
      static_cast<std::uint64_t>(bmp::benchutil::env_int("BMP_DATAPLANE_SEED", 7)));
  bmp::runtime::RuntimeConfig runtime_config;
  runtime_config.broker_headroom = 0.05;
  runtime_config.collect_timing = false;
  runtime_config.dataplane.execute = true;
  runtime_config.dataplane.execution.chunk_size = quick ? 4.0 : 20.0;
  bmp::obs::TraceSink trace;
  if (!trace_path.empty()) runtime_config.trace = &trace;
  runtime_config.profiler = cli.profiler();

  const auto churn_start = std::chrono::steady_clock::now();
  bmp::runtime::Runtime runtime(runtime_config, script.source_bandwidth,
                                script.initial_peers);
  runtime.run(script.events);
  runtime.drain(horizon);
  const double churn_s = seconds_since(churn_start);
  if (!trace_path.empty()) {
    std::cout << (trace.write(trace_path) ? "trace written to "
                                          : "[WARN] could not write ")
              << trace_path << " (" << trace.events() << " events, "
              << trace.spans() << " spans)\n";
  }

  double worst_sustained = 1.0;
  int judged = 0;
  for (const bmp::runtime::StreamReport& report : runtime.stream_log()) {
    if (report.expected_chunks < 10.0) continue;
    ++judged;
    worst_sustained = std::min(worst_sustained, report.sustained_ratio);
  }
  const std::uint64_t churn_delivered =
      runtime.metrics().counter("dataplane.delivered");
  const std::uint64_t audit_failures =
      runtime.metrics().counter("dataplane.rate_audit_failures");

  std::cout << "\nchurn scenario: " << script.events.size() << " events, "
            << judged << " streams judged, " << churn_delivered
            << " chunks delivered (" << churn_delivered / churn_s
            << " chunks/s wall)\n";
  ok = ok && worst_sustained >= 0.85 && judged > 0;
  std::cout << (worst_sustained >= 0.85 && judged > 0 ? "[OK] " : "[WARN] ")
            << "worst stream sustained " << 100.0 * worst_sustained
            << "% of its design-rate integral (bar: 85%, live patches only)\n";
  ok = ok && audit_failures == 0;
  std::cout << (audit_failures == 0 ? "[OK] " : "[WARN] ") << audit_failures
            << " achieved-above-verified audit failures\n";

  // Replay determinism, execution mode included.
  runtime_config.profiler = nullptr;  // attribution covers the measured run
  bmp::runtime::Runtime replay(runtime_config, script.source_bandwidth,
                               script.initial_peers);
  replay.run(script.events);
  replay.drain(horizon);
  const bool deterministic =
      replay.metrics().snapshot().to_string(false) ==
      runtime.metrics().snapshot().to_string(false);
  ok = ok && deterministic;
  std::cout << (deterministic ? "[OK] " : "[WARN] ")
            << "replay reproduced the dataplane metrics byte-for-byte\n";

  json.add("churn_streams_judged", judged);
  json.add("churn_worst_sustained_ratio", worst_sustained);
  json.add("churn_chunks_delivered", churn_delivered);
  json.add("churn_chunks_per_sec", static_cast<double>(churn_delivered) / churn_s);
  json.add("rate_audit_failures", audit_failures);
  json.add_string("status", ok ? "ok" : "warn");
  bmp::benchutil::add_profile(json, cli.prof);
  json.add_raw("metrics", bmp::obs::to_json(runtime.metrics().snapshot(),
                                            /*include_timing=*/false));
  if (!json_path.empty()) {
    if (json.write(json_path)) {
      std::cout << "json written to " << json_path << "\n";
    } else {
      std::cout << "[WARN] could not write " << json_path << "\n";
      ok = false;
    }
  }
  if (!cli.metrics.empty()) {
    std::ofstream out(cli.metrics);
    out << bmp::obs::to_prometheus(runtime.metrics().snapshot());
    ok = static_cast<bool>(out) && ok;
  }
  ok = cli.write_profile() && ok;
  return ok ? 0 : 1;
}
