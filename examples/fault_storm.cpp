// Chaos smoke: a seeded fault storm against the full five-layer loop.
//
// A 160-peer live channel is hit, mid-stream, by every fault kind the
// injector knows (src/fault/):
//
//   * three abrupt crashes — no leave event; the runtime must notice the
//     telemetry silence, synthesize the departure, reclaim the broker
//     grants and repair the overlay around the holes;
//   * a network partition cutting off an eight-node island, healed three
//     and a half scenario-hours later — traffic across the cut drops on
//     the wire while counters keep moving, so it must NOT read as a crash;
//   * payload corruption on one relay's egress — hardened receivers
//     (checksum verify, the runtime default) detect, drop and re-request;
//   * a telemetry blackout over three nodes — the control plane sees
//     frozen samples and must not demote on "no data";
//   * a planner outage window — plan() throws, sessions fall back to the
//     best verified incremental repair, the runtime retries with backoff.
//
// The same storm replayed with every defense off (no checksums, no crash
// detection, controller frozen) shows what the tolerance machinery buys:
// corrupted payloads propagate downstream and the worst survivor starves.
//
// Exit code is the smoke verdict: 0 only if, in the hardened run, every
// survivor keeps progressing after the heal, validate() stays clean, and
// no corrupted chunk was ever silently accepted.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bmp/engine/planner.hpp"
#include "bmp/fault/fault.hpp"
#include "bmp/fault/injector.hpp"
#include "bmp/obs/export.hpp"
#include "bmp/obs/flight_recorder.hpp"
#include "bmp/obs/slo.hpp"
#include "bmp/obs/trace.hpp"
#include "bmp/runtime/runtime.hpp"
#include "bmp/runtime/scenario.hpp"
#include "bmp/util/table.hpp"
#include "bench_util.hpp"

namespace {

constexpr int kPeers = 160;
constexpr double kHorizon = 14.0;
constexpr double kFraction = 0.5;  // channel's capacity share
constexpr double kHealTime = 8.0;

bmp::runtime::ScenarioScript build_storm() {
  using namespace bmp::runtime;
  Scenario scenario(kHorizon, /*seed=*/7);
  scenario.source(3000.0)
      .population({kPeers * 3 / 5, 0.7, bmp::gen::Dist::kUnif100})
      .population({kPeers * 2 / 5, 0.3, bmp::gen::Dist::kLogNormal1})
      .channel({0.0, -1.0, /*weight=*/1.0, kFraction});
  ScenarioScript script = scenario.build();

  bmp::fault::FaultPlan plan;
  plan.crashes.push_back({3.5, 7});
  plan.crashes.push_back({4.0, 23});
  plan.crashes.push_back({6.5, 41});
  bmp::fault::PartitionSpec partition;
  partition.time = 4.5;
  partition.heal_time = kHealTime;
  for (int id = 60; id < 68; ++id) partition.group_b.push_back(id);
  plan.partitions.push_back(partition);
  plan.corruptions.push_back({3.0, 7.0, /*node=*/12, /*rate=*/0.3});
  bmp::fault::BlackoutSpec blackout;
  blackout.time = 5.0;
  blackout.end_time = 7.5;
  blackout.nodes = {30, 31, 32};
  plan.blackouts.push_back(blackout);
  plan.planner_outages.push_back({4.0, 6.0});
  bmp::fault::Injector::inject(script, plan);
  return script;
}

struct Run {
  double worst_rate = 0.0;     ///< worst survivor, post-heal window
  int stalled = 0;             ///< survivors with zero post-heal progress
  std::uint64_t corrupt_dropped = 0;   ///< checksum catches (re-requested)
  std::uint64_t corrupt_accepted = 0;  ///< silent acceptances (propagation)
  std::uint64_t crashes_detected = 0;
  std::uint64_t opens_deferred = 0;
  std::uint64_t stale_windows = 0;     ///< controller windows skipped dark
  std::vector<std::string> violations;
  std::uint64_t slo_pages = 0;
  std::uint64_t slo_warns = 0;
  bool slo_paged_in_storm = false;  ///< a page alert inside the fault window
  bool slo_ok_at_end = false;       ///< state recovered to ok after the heal
  std::string prometheus;           ///< final snapshot (--metrics)
};

Run run(const bmp::runtime::ScenarioScript& script, bool hardened,
        double chunk, bmp::obs::TraceSink* trace,
        bmp::obs::FlightRecorder* recorder, bmp::obs::Profiler* profiler) {
  bmp::runtime::RuntimeConfig config;
  config.collect_timing = false;
  config.broker_headroom = 0.05;
  config.dataplane.execute = true;
  config.dataplane.execution.chunk_size = chunk;
  config.dataplane.execution.receiver_window = 16;
  config.control.enabled = hardened;
  config.control.slo_enabled = hardened;
  if (!hardened) {
    config.dataplane.execution.verify_payloads = false;
    config.fault.detect_crashes = false;
  }
  config.trace = trace;
  config.recorder = recorder;
  config.profiler = profiler;

  bmp::runtime::Runtime rt(config, script.source_bandwidth,
                           script.initial_peers);
  std::size_t next = 0;
  const auto run_until = [&](double t) {
    while (next < script.events.size() && script.events[next].time <= t) {
      rt.step(script.events[next++]);
    }
    bmp::runtime::Event marker;
    marker.type = bmp::runtime::EventType::kNodeJoin;  // empty: clock only
    marker.time = t;
    rt.step(marker);
  };
  const auto snapshot = [&] {
    const bmp::dataplane::Execution* exec = rt.execution(0);
    std::vector<int> delivered(static_cast<std::size_t>(exec->num_nodes()),
                               -1);
    for (int dp = 1; dp < exec->num_nodes(); ++dp) {
      if (exec->node_alive(dp)) {
        delivered[static_cast<std::size_t>(dp)] = exec->delivered(dp);
      }
    }
    return delivered;
  };

  // Probe the post-heal window: by t=10 every fault has landed and the
  // partition healed; survivors must all be moving again.
  run_until(10.0);
  const std::vector<int> before = snapshot();
  run_until(kHorizon);
  const std::vector<int> after = snapshot();

  Run result;
  result.worst_rate = 1e300;
  for (std::size_t k = 1; k < after.size(); ++k) {
    if (after[k] < 0 || before[k] < 0) continue;  // crashed: not a survivor
    const double rate = (after[k] - before[k]) * chunk / (kHorizon - 10.0);
    if (after[k] == before[k]) ++result.stalled;
    result.worst_rate = std::min(result.worst_rate, rate);
  }
  const bmp::dataplane::Execution* exec = rt.execution(0);
  result.corrupt_dropped = exec->corruptions();
  result.corrupt_accepted = exec->corrupted_accepted();
  result.crashes_detected = rt.metrics().counter("fault.crashes_detected");
  result.opens_deferred = rt.metrics().counter("fault.opens_deferred");
  result.stale_windows = rt.metrics().counter("control.stale_nodes");
  result.violations = rt.validate();
  // The SLO verdict: the monitor must have paged while the faults were
  // live (first crash at 3.5 through the heal) and be back to ok now.
  if (const bmp::obs::SloMonitor* slo = rt.slo_monitor(0)) {
    result.slo_pages = slo->pages();
    result.slo_warns = slo->warns();
    result.slo_ok_at_end = slo->state() == bmp::obs::SloState::kOk;
    for (const bmp::obs::SloAlert& alert : slo->alerts()) {
      if (alert.to == bmp::obs::SloState::kPage && alert.time >= 3.5 &&
          alert.time <= kHealTime + 2.0) {
        result.slo_paged_in_storm = true;
      }
    }
  }
  result.prometheus = bmp::obs::to_prometheus(rt.metrics().snapshot());
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  // Shared observability CLI (benchutil::CommonCli): --trace/--profile/
  // --metrics as everywhere else (--metrics includes the slo.* series and
  // per-channel slo.state gauge), plus --dump <path> to write the flight
  // recorder's post-storm state (CI archives the artifacts).
  bmp::benchutil::CommonCli cli(argc, argv, {}, {"--dump"});
  const std::string dump_path = bmp::benchutil::arg_value(argc, argv, "--dump");

  const bmp::runtime::ScenarioScript script = build_storm();

  // Reference rate: the optimum of the platform as the storm leaves it —
  // the surviving population on its nominal capacity, channel share applied.
  std::vector<char> crashed(script.initial_peers.size() + 1, 0);
  for (const bmp::runtime::Event& event : script.events) {
    if (event.type != bmp::runtime::EventType::kFault) continue;
    for (const bmp::runtime::FaultAction& fault : event.faults) {
      if (fault.kind == bmp::runtime::FaultAction::Kind::kCrash) {
        crashed[static_cast<std::size_t>(fault.node)] = 1;
      }
    }
  }
  std::vector<double> open_bw;
  std::vector<double> guarded_bw;
  for (std::size_t k = 0; k < script.initial_peers.size(); ++k) {
    if (crashed[k + 1]) continue;
    const bmp::runtime::NodeSpec& peer = script.initial_peers[k];
    (peer.guarded ? guarded_bw : open_bw)
        .push_back(peer.bandwidth * kFraction);
  }
  const bmp::Instance survivors(script.source_bandwidth * kFraction,
                                std::move(open_bw), std::move(guarded_bw));
  const double optimum =
      bmp::engine::Planner::plan_uncached(survivors,
                                          bmp::engine::Algorithm::kAcyclic, 0)
          .throughput;
  const double chunk = optimum / 40.0;

  std::cout << "fault storm: " << script.initial_peers.size()
            << " peers; 3 crashes, an 8-node partition healing at t="
            << kHealTime << ", 30% egress corruption on node 12, a 3-node "
            << "telemetry blackout, a planner outage in [4, 6)\n"
            << "post-storm survivor optimum: " << optimum << "\n\n";

  bmp::obs::TraceSink trace;
  bmp::obs::FlightRecorder recorder;
  const Run hardened =
      run(script, true, chunk, cli.trace.empty() ? nullptr : &trace,
          &recorder, cli.profiler());
  const Run frozen = run(script, false, chunk, nullptr, nullptr, nullptr);

  bmp::util::Table table({"run", "worst survivor", "vs optimum", "stalled",
                          "corrupt dropped/accepted", "crashes detected"});
  const auto row = [&](const char* name, const Run& r) {
    table.add_row({name, bmp::util::Table::num(r.worst_rate, 2),
                   bmp::util::Table::num(r.worst_rate / optimum, 3),
                   bmp::util::Table::num(r.stalled),
                   bmp::util::Table::num(r.corrupt_dropped) + "/" +
                       bmp::util::Table::num(r.corrupt_accepted),
                   bmp::util::Table::num(r.crashes_detected)});
  };
  row("hardened", hardened);
  row("defenseless", frozen);
  table.print(std::cout);
  std::cout << "\nhardened run: " << hardened.crashes_detected
            << " crashes detected from telemetry silence, "
            << hardened.opens_deferred << " opens deferred through the "
            << "planner outage, " << hardened.stale_windows
            << " dark controller windows skipped (no blackout demotions)\n";
  std::cout << "SLO monitor: " << hardened.slo_pages << " pages, "
            << hardened.slo_warns << " warns"
            << (hardened.slo_ok_at_end ? ", ok at end\n" : "\n");

  bool ok = true;
  if (!hardened.slo_paged_in_storm) {
    ok = false;
    std::cout << "[FAIL] the SLO monitor never paged while the faults "
              << "were live\n";
  }
  if (!hardened.slo_ok_at_end) {
    ok = false;
    std::cout << "[FAIL] the SLO monitor did not return to ok after "
              << "the heal\n";
  }
  if (!hardened.violations.empty()) {
    ok = false;
    std::cout << "[FAIL] hardened validate():\n";
    for (const std::string& v : hardened.violations) {
      std::cout << "  " << v << "\n";
    }
  }
  if (hardened.stalled != 0) {
    ok = false;
    std::cout << "[FAIL] " << hardened.stalled
              << " survivors made no post-heal progress\n";
  }
  if (hardened.corrupt_accepted != 0) {
    ok = false;
    std::cout << "[FAIL] hardened run silently accepted "
              << hardened.corrupt_accepted << " corrupted chunks\n";
  }
  if (hardened.corrupt_dropped == 0) {
    ok = false;
    std::cout << "[FAIL] corruption was injected but never caught\n";
  }
  if (frozen.corrupt_accepted == 0) {
    ok = false;
    std::cout << "[FAIL] defenseless run accepted no corruption - "
              << "storm too gentle to prove anything\n";
  }

  if (!cli.trace.empty()) {
    std::cout << (trace.write(cli.trace) ? "trace written to "
                                         : "[WARN] could not write ")
              << cli.trace << " (" << trace.events() << " events)\n";
  }
  if (!dump_path.empty()) {
    std::cout << (recorder.dump(dump_path) ? "flight recorder dumped to "
                                           : "[WARN] could not write ")
              << dump_path << "\n";
  }
  if (!cli.metrics.empty()) {
    std::ofstream out(cli.metrics);
    out << hardened.prometheus;
    if (out) {
      std::cout << "metrics written to " << cli.metrics << "\n";
    } else {
      std::cout << "[WARN] could not write " << cli.metrics << "\n";
      ok = false;
    }
  }
  ok = cli.write_profile() && ok;
  std::cout << (ok ? "\nOK\n" : "\nFAILED\n");
  return ok ? 0 : 1;
}
