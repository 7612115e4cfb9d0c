// End-to-end broadcast benchmark: runs one named workload (stream, churn,
// storm — see workloads.hpp) through the public runtime::Runtime API as a
// closed loop with a single caller, checks the outputs, and prints every
// metric with its unit. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}.
//
//   bench_e2e --workload <stream|churn|storm> --seed <n> --seconds <s>
//             --trace <0|1> [--size <full|tiny>]
//
// A pass sets up and runs every scenario of the workload's panel (each:
// every event, validate, drain). A run repeats passes until `--seconds` have
// been measured and reports medians. Before every real event, and on the
// workload's sampling grid, the loop issues a clock-only step (an empty
// kNodeJoin), so plain and traced passes execute the same steps.
// `--trace 0` prints the end-to-end metrics (host wall, set-up, rate,
// memory). `--trace 1` alternates plain and traced passes — traced ones add
// an obs::Profiler for per-layer work counters — and prints the per-layer
// ledger: spans around each call into the runtime plus an explicit
// `untraced` remainder, which must add up to the traced wall within
// kLedgerTolerance, and probes timing engine / flow / obs entry points.
//
// Host times in the result line are host-normalized: a shared host's speed
// drifts by a fifth and more over tens of seconds, so a fixed reference
// computation (the host probe) runs before every scenario, and each pass's
// times are scaled by the probe's median in that pass. The raw times are
// printed next to them.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bmp/core/bounds.hpp"
#include "bmp/engine/plan_cache.hpp"
#include "bmp/engine/planner.hpp"
#include "bmp/engine/session.hpp"
#include "bmp/flow/verify.hpp"
#include "bmp/obs/export.hpp"
#include "bmp/obs/lineage.hpp"
#include "bmp/obs/profiler.hpp"
#include "bmp/obs/rollup.hpp"
#include "bmp/runtime/runtime.hpp"
#include "bmp/util/rng.hpp"
#include "workloads.hpp"

namespace {

using bmp::runtime::Event;
using bmp::runtime::EventType;
using Clock = std::chrono::steady_clock;

/// The ledger's stated tolerance: the spans around the runtime calls must
/// cover all but this share of the traced wall (the rest is the benchmark's
/// own loop and bookkeeping, reported as `untraced`).
constexpr double kLedgerTolerance = 0.05;
/// A departure repair fails when its post-event rate falls below this
/// share of the design rate (the runtime's ChurnReport acceptance bar).
constexpr double kRepairBar = 0.85;
/// Share of the post-storm optimum the worst survivor's window rate must
/// hold for the stream to count as recovered (bench_chaos's definition).
constexpr double kRecoverShare = 0.7;
constexpr int kProbeReps = 5;
/// Extra set-ups timed at the start of a run: set-up is short next to a
/// pass, so its median needs more samples than the passes give.
constexpr int kSetupReps = 41;
/// Work of one host probe (random DAGs ordered and indexed), and the
/// probe's time on the host the bounds were tuned on (a 4-vCPU Xeon VM):
/// normalized times read as seconds on a host where the probe takes this.
constexpr int kProbeGraphs = 25;
constexpr double kProbeReferenceS = 4e-3;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ------------------------------------------------------------------- CLI

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  e2e::Size size = e2e::Size::kFull;
};

bool parse_uint(std::string_view text, std::uint64_t& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end && !text.empty();
}

/// Strict parser: every flag is known, takes exactly one value, and appears
/// at most once; the four measured flags are required. Any slip is an error
/// (an unknown flag silently ignored would measure the wrong thing).
bool parse_options(int argc, char** argv, Options& opt, std::string& error) {
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--size") {
      error = "unknown argument: " + flag;
      return false;
    }
    if (!seen.insert(flag).second) {
      error = "duplicate flag: " + flag;
      return false;
    }
    if (i + 1 >= argc || std::string_view(argv[i + 1]).rfind("--", 0) == 0) {
      error = "flag needs a value: " + flag;
      return false;
    }
    const std::string value = argv[++i];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      if (!e2e::is_workload(value)) {
        error = "unknown workload: " + value;
        return false;
      }
      opt.workload = value;
    } else if (flag == "--seed") {
      // Panel scenario seeds are seed * kMaxPanel + k: keep that in range.
      constexpr std::uint64_t kSeedLimit =
          std::numeric_limits<std::uint64_t>::max() / e2e::kMaxPanel;
      if (!parse_uint(value, opt.seed) || opt.seed > kSeedLimit) {
        error = "--seed wants a non-negative integer below 2^58";
        return false;
      }
    } else if (flag == "--seconds") {
      if (!parse_uint(value, number) || number < 1 || number > 600) {
        error = "--seconds wants an integer in [1, 600]";
        return false;
      }
      opt.seconds = static_cast<int>(number);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        error = "--trace wants 0 or 1";
        return false;
      }
      opt.trace = value == "1" ? 1 : 0;
    } else {
      if (value != "full" && value != "tiny") {
        error = "--size wants full or tiny";
        return false;
      }
      opt.size = value == "tiny" ? e2e::Size::kTiny : e2e::Size::kFull;
    }
  }
  for (const char* required :
       {"--workload", "--seed", "--seconds", "--trace"}) {
    if (seen.count(required) == 0) {
      error = std::string("missing required flag: ") + required;
      return false;
    }
  }
  return true;
}

// ------------------------------------------------------------- helpers

/// Nearest-rank quantile; 0 for an empty sample.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Keeps the host probe's work observable to the optimizer.
std::uint64_t probe_sink = 0;

/// Host probe: fixed work shaped like the runtime's session-repair hot path
/// (adjacency-list DAG build, Kahn topological order, ordered-map inserts).
/// It is the benchmark's own code on constant inputs, so no change to the
/// program moves it; only the host's speed does. Runs twice and times the
/// warm run, so the scenario before it leaves no cache footprint in it.
/// Returns the host factor: probe time over kProbeReferenceS.
double host_factor() {
  std::uint64_t checksum = 0;
  double seconds = 0.0;
  for (int run = 0; run < 2; ++run) {
    const auto start = Clock::now();
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    const auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    for (int graph = 0; graph < kProbeGraphs; ++graph) {
      constexpr int kNodes = 300;
      std::vector<std::vector<int>> out(kNodes);
      std::vector<int> indegree(kNodes, 0);
      for (int v = 1; v < kNodes; ++v) {
        for (int e = 1 + static_cast<int>(next() % 4); e > 0; --e) {
          out[next() % static_cast<std::uint64_t>(v)].push_back(v);
          ++indegree[static_cast<std::size_t>(v)];
        }
      }
      std::vector<int> order;
      std::vector<int> ready{0};
      while (!ready.empty()) {
        const int u = ready.back();
        ready.pop_back();
        order.push_back(u);
        for (const int w : out[static_cast<std::size_t>(u)]) {
          if (--indegree[static_cast<std::size_t>(w)] == 0) ready.push_back(w);
        }
      }
      std::map<double, int> index;
      for (const int v : order) {
        index.emplace(static_cast<double>(next() % 1000) + v * 1e-3, v);
      }
      checksum += order.size() + static_cast<std::uint64_t>(
                                     index.begin()->second);
    }
    seconds = since(start);
  }
  probe_sink += checksum;
  return seconds / kProbeReferenceS;
}

std::string fmt(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

/// FNV-1a over the deterministic (sim) outputs of a pass.
struct Digest {
  std::uint64_t hash = 1469598103934665603ULL;
  void add(std::string_view text) {
    for (const char c : text) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ULL;
    }
  }
  void field(double value) {
    add(fmt(value));
    add(",");
  }
  [[nodiscard]] std::string hex() const {
    char buffer[20];
    std::snprintf(buffer, sizeof buffer, "%016llx",
                  static_cast<unsigned long long>(hash));
    return buffer;
  }
};

/// The metrics snapshot without timing.* plus the churn, control and stream
/// logs: everything the modelled network did, nothing the host clock saw.
void add_sim_outputs(Digest& d, const bmp::runtime::Runtime& rt) {
  d.add(bmp::obs::to_json(rt.metrics().snapshot(), /*include_timing=*/false));
  for (const bmp::runtime::ChurnReport& c : rt.churn_log()) {
    d.add(bmp::runtime::to_string(c.type));
    for (const double v : {c.time, double(c.channel), double(c.departed),
                           double(c.full_replan), c.design_rate,
                           c.achieved_rate}) {
      d.field(v);
    }
  }
  for (const bmp::runtime::ControlReport& c : rt.control_log()) {
    for (const double v :
         {c.time, double(c.channel), double(c.demotions), double(c.restores),
          double(c.reroutes), double(c.stragglers), double(c.degraded_edges),
          c.drift, double(c.replan), double(c.full_replan), c.rate_before,
          c.rate_after, double(c.evidence.size())}) {
      d.field(v);
    }
  }
  for (const bmp::runtime::StreamReport& s : rt.stream_log()) {
    for (const double v :
         {double(s.channel), s.open_time, s.end_time, double(s.emitted),
          double(s.delivered_chunks), double(s.retransmits),
          double(s.hol_stalls), double(s.duplicates), s.expected_chunks,
          s.sustained_ratio, s.achieved_rate, s.verified_rate,
          double(s.rate_within_verified)}) {
      d.field(v);
    }
  }
}

const EventType kEventTypes[] = {
    EventType::kChannelOpen, EventType::kChannelClose, EventType::kNodeJoin,
    EventType::kNodeLeave,   EventType::kRenegotiate,  EventType::kDegrade,
    EventType::kFault};

// ----------------------------------------------------------------- pass

/// Host time of one pass, split by the call it was spent in.
struct Ledger {
  double wall = 0.0;
  double advance = 0.0;  ///< clock-only steps
  std::map<std::string, double> event;  ///< real steps, by event type
  double drain = 0.0;
  double validate = 0.0;
  [[nodiscard]] double spans() const {
    double sum = advance + drain + validate;
    for (const auto& [type, seconds] : event) sum += seconds;
    return sum;
  }
  [[nodiscard]] double untraced() const { return wall - spans(); }
  [[nodiscard]] bool telescopes() const {
    const double rest = untraced();
    return wall > 0.0 && rest >= 0.0 && rest <= kLedgerTolerance * wall;
  }
};

/// One pass over the panel. Counts and sim outcomes are identical in every
/// pass of a run; host times are what this pass measured.
struct PassResult {
  bool traced = false;
  double setup_s = 0.0;
  Ledger ledger;
  std::vector<double> host;  ///< host factor probed before each scenario
  [[nodiscard]] double host_median() const { return median(host); }
  std::vector<double> event_ms;  ///< every real step
  std::map<std::string, std::vector<double>> event_ms_by_type;
  std::string error;  ///< exception that escaped a step
  std::vector<std::string> violations;
  bool rates_within_verified = true;
  Digest sim;
  // operations
  std::uint64_t opens = 0, opens_failed = 0;
  std::uint64_t repairs = 0, repairs_failed = 0;
  std::uint64_t deliveries = 0, deliveries_failed = 0;
  std::uint64_t real_events = 0;
  std::uint64_t chunks = 0;  ///< chunk deliveries (stream reports)
  std::uint64_t streams = 0;  ///< stream reports
  [[nodiscard]] std::uint64_t attempted() const {
    return opens + repairs + deliveries;
  }
  [[nodiscard]] std::uint64_t failed() const {
    return opens_failed + repairs_failed + deliveries_failed;
  }
  // sim outcomes (-1: no scenario produced one)
  double sustained_min = -1.0;
  double recovery_min = -1.0;
  std::vector<bmp::obs::RollupSnapshot> telemetry;  ///< one per scenario
  std::vector<double> recover_each;  ///< per storm scenario; inf = never
  /// Waterfall sums: bound, planned, verified, achieved, sustained.
  double wf[5] = {};
  int wf_streams = 0;
  double detect_sum = 0.0;
  std::uint64_t detect_count = 0;
  std::map<std::string, double> layer;  ///< per-layer sums over the panel
};

double min_or_first(double current, double value) {
  return current < 0.0 ? value : std::min(current, value);
}

/// What a scenario run hosts: the compiled workload, the obs sinks it wires
/// in, and the runtime, which keeps pointers to those sinks (hence the
/// heap: moving a Host must not move them).
struct Host {
  e2e::Workload w;
  std::unique_ptr<bmp::obs::ShardRegistry> registry;
  std::unique_ptr<bmp::obs::LineageSink> sink;
  std::unique_ptr<bmp::obs::Profiler> profiler;
  std::unique_ptr<bmp::runtime::Runtime> rt;
};

/// The benchmark's set-up (what setup_s times): scenario compile, fault
/// injection, chunk sizing, and Runtime construction.
Host set_up(const Options& opt, std::uint64_t seed, bool traced) {
  Host h;
  h.w = e2e::make_workload(opt.workload, seed, opt.size);
  h.registry = std::make_unique<bmp::obs::ShardRegistry>();
  bmp::obs::LineageConfig lineage_config;
  lineage_config.auto_sample_target = 1u << 13;
  h.sink = std::make_unique<bmp::obs::LineageSink>(lineage_config);
  h.profiler = std::make_unique<bmp::obs::Profiler>();
  bmp::runtime::RuntimeConfig config = h.w.config;
  if (h.w.telemetry) config.telemetry = h.registry.get();
  if (h.w.lineage) config.lineage = h.sink.get();
  if (traced) config.profiler = h.profiler.get();
  h.rt = std::make_unique<bmp::runtime::Runtime>(
      config, h.w.script.source_bandwidth, h.w.script.initial_peers);
  return h;
}

/// Sets up and runs one scenario — the closed loop over every event, then
/// validate, drain, validate — and adds what it measured to `r`.
void run_scenario(const Options& opt, std::uint64_t seed, bool traced,
                  PassResult& r) {
  const auto setup_start = Clock::now();
  Host host = set_up(opt, seed, traced);
  r.setup_s += since(setup_start);
  const e2e::Workload& w = host.w;
  bmp::runtime::Runtime& rt = *host.rt;

  Ledger& ledger = r.ledger;  // the pass ledger sums its scenarios
  const auto timed = [](double& bucket, auto&& call) {
    const auto start = Clock::now();
    call();
    const double seconds = since(start);
    bucket += seconds;
    return seconds;
  };
  Event marker;
  marker.type = EventType::kNodeJoin;  // empty join: advances the clock only
  const auto advance_to = [&](double t) {
    marker.time = t;
    timed(ledger.advance, [&] { rt.step(marker); });
  };

  std::set<int> pending_opens;
  const auto track_opens = [&](const Event& event) {
    if (event.type == EventType::kChannelOpen) {
      ++r.opens;
      pending_opens.insert(event.channel);
    } else if (event.type == EventType::kChannelClose &&
               pending_opens.erase(event.channel) != 0) {
      ++r.opens_failed;  // closed before it ever went live
    }
    for (auto it = pending_opens.begin(); it != pending_opens.end();) {
      it = rt.session(*it) != nullptr ? pending_opens.erase(it) : std::next(it);
    }
  };

  // The storm's streams are sampled on the grid: each execution node's
  // delivered count at the previous grid point gives the worst survivor's
  // window rate (recover_s).
  std::set<int> channels;
  for (const Event& event : w.script.events) {
    if (event.type == EventType::kChannelOpen) channels.insert(event.channel);
  }
  const bool storm = w.storm_start >= 0.0;
  std::map<int, std::vector<int>> previous;
  std::vector<std::pair<double, double>> worst_window;  // (t, rate)
  const auto sample = [&](double t) {
    double worst = -1.0;
    for (const int ch : channels) {
      const bmp::dataplane::Execution* exec = rt.execution(ch);
      if (exec == nullptr) continue;
      std::vector<int> now(static_cast<std::size_t>(exec->num_nodes()), -1);
      const std::vector<int>& before = previous[ch];
      for (int dp = 0; dp < exec->num_nodes(); ++dp) {
        const auto k = static_cast<std::size_t>(dp);
        if (dp == exec->origin() || !exec->node_alive(dp)) continue;
        now[k] = exec->delivered(dp);
        if (k >= before.size() || before[k] < 0) continue;
        worst = min_or_first(
            worst, (now[k] - before[k]) * exec->config().chunk_size / w.grid);
      }
      previous[ch] = std::move(now);
    }
    if (worst >= 0.0) worst_window.emplace_back(t, worst);
  };
  // Delivery accounting across drain, which releases the executions: at
  // the horizon, each live stream's promise (every chunk emitted since a
  // surviving node joined) and what those survivors already hold; drain
  // only completes the tail, and every tail delivery lands on a survivor.
  struct DeliveryMark {
    std::uint64_t promised = 0;
    std::uint64_t held = 0;
    std::uint64_t total = 0;  ///< the execution's delivery count so far
  };
  std::map<int, DeliveryMark> at_horizon;
  const auto mark_deliveries = [&] {
    for (const int ch : channels) {
      const bmp::dataplane::Execution* exec = rt.execution(ch);
      if (exec == nullptr) continue;
      DeliveryMark& mark = at_horizon[ch];
      mark.total = exec->delivered_chunks();
      for (int dp = 0; dp < exec->num_nodes(); ++dp) {
        if (dp == exec->origin() || !exec->node_alive(dp)) continue;
        const bmp::dataplane::NodeProgress p = exec->progress(dp);
        mark.promised += static_cast<std::uint64_t>(
            std::max(0, exec->emitted() - p.skipped));
        mark.held += static_cast<std::uint64_t>(p.delivered);
      }
      // A corrupted chunk a receiver accepted is not a delivery.
      r.deliveries_failed += exec->corrupted_accepted();
    }
  };

  double wf_bound = 0.0;
  double wf_planned = 0.0;
  const auto wall_start = Clock::now();
  try {
    const std::vector<Event>& events = w.script.events;
    std::size_t next = 0;
    const auto run_events_until = [&](double t) {
      while (next < events.size() && events[next].time <= t) {
        const Event& event = events[next++];
        const char* type = bmp::runtime::to_string(event.type);
        advance_to(event.time);
        const double seconds =
            timed(ledger.event[type], [&] { rt.step(event); });
        r.event_ms.push_back(seconds * 1e3);
        r.event_ms_by_type[type].push_back(seconds * 1e3);
        ++r.real_events;
        track_opens(event);
        if (w.grid > 0.0 && event.type == EventType::kChannelOpen &&
            event.channel == 0 && rt.session(0) != nullptr) {
          // Waterfall head: the paper bound and the plan on the channel's
          // granted platform.
          wf_bound = bmp::cyclic_upper_bound(rt.session(0)->instance());
          wf_planned = rt.session(0)->design_rate();
        }
      }
    };
    const int grid_points =
        w.grid > 0.0 ? static_cast<int>(w.horizon / w.grid + 1e-9) : 0;
    for (int k = 1; k <= grid_points; ++k) {
      const double t = k * w.grid;
      run_events_until(t);
      advance_to(t);
      if (storm) sample(t);
    }
    run_events_until(w.horizon);
    mark_deliveries();
    timed(ledger.validate, [&] {
      for (std::string& v : rt.validate()) r.violations.push_back(std::move(v));
    });
    timed(ledger.drain, [&] { rt.drain(w.horizon); });
    timed(ledger.validate, [&] {
      for (std::string& v : rt.validate()) r.violations.push_back(std::move(v));
    });
  } catch (const std::exception& e) {
    if (r.error.empty()) {
      r.error = "scenario seed " + std::to_string(seed) + ": " + e.what();
    }
  }
  ledger.wall += since(wall_start);
  r.opens_failed += pending_opens.size();  // never went live

  // ---- outcomes (outside the timed wall)
  add_sim_outputs(r.sim, rt);
  std::map<std::string, double>& L = r.layer;
  for (const bmp::runtime::ChurnReport& c : rt.churn_log()) {
    if (c.design_rate > 0.0) {
      r.recovery_min =
          min_or_first(r.recovery_min, c.achieved_rate / c.design_rate);
    }
    L["engine.full_replans"] += c.full_replan;
    if (c.type != EventType::kNodeLeave) continue;
    ++r.repairs;
    if (c.achieved_rate < kRepairBar * c.design_rate - 1e-9) ++r.repairs_failed;
  }
  for (const bmp::runtime::StreamReport& s : rt.stream_log()) {
    r.rates_within_verified = r.rates_within_verified && s.rate_within_verified;
    r.chunks += s.delivered_chunks;
    ++r.streams;
    r.sustained_min = min_or_first(r.sustained_min, s.sustained_ratio);
    L["dataplane.retransmits"] += double(s.retransmits);
    L["dataplane.duplicates"] += double(s.duplicates);
    L["dataplane.hol_stalls"] += double(s.hol_stalls);
    const auto mark = at_horizon.find(s.channel);
    if (mark != at_horizon.end() && s.end_time == w.horizon) {
      const std::uint64_t received =
          mark->second.held + (s.delivered_chunks - mark->second.total);
      r.deliveries += mark->second.promised;
      if (received < mark->second.promised) {
        r.deliveries_failed += mark->second.promised - received;
      }
    }
    if (s.channel == 0 && wf_planned > 0.0) {
      const double rates[5] = {wf_bound, wf_planned, s.verified_rate,
                               s.achieved_rate, s.sustained_ratio * wf_planned};
      for (int i = 0; i < 5; ++i) r.wf[i] += rates[i];
      ++r.wf_streams;
    }
  }

  // obs: snapshot + rollup and the blame walk, timed on this run's sinks.
  if (w.telemetry) {
    const auto start = Clock::now();
    r.telemetry.push_back(bmp::obs::rollup({host.registry->snapshot()}));
    L["obs.snapshot_ms"] += since(start) * 1e3;
  }
  if (w.lineage) {
    const auto start = Clock::now();
    const bmp::obs::BlameTable blame = bmp::obs::analyze_critical_path(
        host.sink->hops(), -1, 10, host.sink->sample_mod());
    L["obs.blame_ms"] += since(start) * 1e3;
    L["obs.lineage_hops"] += static_cast<double>(host.sink->hops().size());
    if (!blame.valid) r.violations.push_back("lineage: no blame table");
  }

  const bmp::engine::CacheStats cache = rt.planner().cache_stats();
  L["engine.cache_hits"] += static_cast<double>(cache.hits);
  L["engine.cache_misses"] += static_cast<double>(cache.misses);
  if (traced) {
    const bmp::obs::Profiler& prof = *host.profiler;
    L["dataplane.events"] +=
        double(prof.counter("dataplane/advance", "events"));
    for (const char* name :
         {"attempts", "index_picks", "no_chunk", "window_stalls"}) {
      L[std::string("dataplane.") + name] +=
          double(prof.counter("dataplane/scheduler", name));
    }
    L["flow.tier1_sweeps"] += double(prof.calls("verify/tier1_sweep"));
    L["flow.maxflow_solves"] +=
        double(prof.counter("verify/tier2_maxflow", "solves") +
               prof.counter("verify/oracle", "solves"));
  }
  for (const bmp::runtime::ControlReport& c : rt.control_log()) {
    L["control.ticks"] += 1.0;
    L["control.demotions"] += c.demotions;
    L["control.restores"] += c.restores;
    L["control.reroutes"] += c.reroutes;
    L["control.replans"] += c.replan;
    L["control.actions"] += c.demotions + c.restores + c.reroutes + c.replan;
  }
  for (const Event& event : w.script.events) {
    L["fault.injected"] += double(event.faults.size());
  }
  L["fault.crashes_detected"] +=
      double(rt.metrics().counter("fault.crashes_detected"));
  if (const bmp::runtime::WindowedHistogram* detect =
          rt.metrics().histogram("fault.detect_latency")) {
    r.detect_sum += detect->sum();
    r.detect_count += detect->count();
  }

  // recover_s: first grid point after the heal whose worst survivor window
  // rate holds kRecoverShare of the post-storm optimum, from the first fault.
  const std::optional<bmp::runtime::Grant> grant = rt.broker().grant(0);
  if (storm && grant) {
    const double optimum =
        bmp::engine::Planner::plan_uncached(
            e2e::final_instance(w.script, w.horizon, grant->fraction),
            bmp::engine::Algorithm::kAcyclic, 0)
            .throughput;
    double recover = std::numeric_limits<double>::infinity();
    for (const auto& [t, rate] : worst_window) {
      if (t > w.heal_time && rate >= kRecoverShare * optimum) {
        recover = t - w.storm_start;
        break;
      }
    }
    r.recover_each.push_back(recover);
  }
}

/// One pass: every scenario of the workload's panel, back to back.
PassResult run_pass(const Options& opt, bool traced) {
  PassResult r;
  r.traced = traced;
  for (int k = 0; k < e2e::panel_size(opt.workload, opt.size); ++k) {
    r.host.push_back(host_factor());
    run_scenario(opt, e2e::scenario_seed(opt.seed, k), traced, r);
  }
  return r;
}

/// Set-up alone for the whole panel (hosts torn down outside the timing).
double time_setup(const Options& opt) {
  double seconds = 0.0;
  for (int k = 0; k < e2e::panel_size(opt.workload, opt.size); ++k) {
    const auto start = Clock::now();
    const Host host = set_up(opt, e2e::scenario_seed(opt.seed, k), false);
    seconds += since(start);
  }
  return seconds;
}

// --------------------------------------------------------------- probes

/// Median milliseconds of kProbeReps calls of `call` (each gets its own
/// state from `prepare`, untimed).
template <typename Prepare, typename Call>
double probe_ms(Prepare&& prepare, Call&& call) {
  std::vector<double> ms;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    auto state = prepare();
    const auto start = Clock::now();
    call(state);
    ms.push_back(since(start) * 1e3);
  }
  return median(ms);
}

/// Engine and flow entry points timed on the initial platform of the
/// panel's first scenario.
std::map<std::string, double> run_probes(const Options& opt) {
  const std::uint64_t seed = e2e::scenario_seed(opt.seed, 0);
  const e2e::Workload w = e2e::make_workload(opt.workload, seed, opt.size);
  const bmp::Instance instance = e2e::initial_instance(w.script);
  std::map<std::string, double> out;
  bmp::engine::PlanResponse plan;
  out["engine.plan_ms"] = probe_ms([] { return 0; }, [&](int) {
    plan = bmp::engine::Planner::plan_uncached(
        instance, bmp::engine::Algorithm::kAcyclic, 0);
  });
  // A fixed, seeded 5% departure set in the session's sorted numbering.
  bmp::util::Xoshiro256 rng = bmp::util::Xoshiro256(seed).fork(0xDE9A);
  std::set<int> picked;
  const int peers = instance.size() - 1;
  while (static_cast<int>(picked.size()) < std::max(1, peers / 20)) {
    picked.insert(
        1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(peers))));
  }
  const std::vector<int> departed(picked.begin(), picked.end());
  bmp::engine::Planner planner(w.config.planner);
  out["engine.repair_ms"] = probe_ms(
      [&] { return std::make_unique<bmp::engine::Session>(planner, instance); },
      [&](std::unique_ptr<bmp::engine::Session>& session) {
        session->on_departure(departed);
      });
  bmp::flow::Verifier verifier;
  out["flow.verify_ms"] = probe_ms([] { return 0; }, [&](int) {
    verifier.verify(*plan.scheme);
  });
  return out;
}

// --------------------------------------------------------------- report

struct Row {
  std::string name;
  double value;
  std::string unit;
  std::string kind;  ///< host | norm (host-normalized) | sim | count
  std::size_t samples;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_rows(const std::vector<Row>& rows) {
  std::printf("%-36s %22s  %-6s %-5s %s\n", "metric", "value", "unit", "kind",
              "samples");
  for (const Row& row : rows) {
    std::printf("%-36s %22.6f  %-6s %-5s %zu\n", row.name.c_str(), row.value,
                row.unit.c_str(), row.kind.c_str(), row.samples);
  }
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const std::vector<Row>& rows) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out << (i ? ", " : "") << "\"" << rows[i].name << "\": {\"value\": "
        << fmt(rows[i].value) << ", \"unit\": \"" << rows[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

/// The sim outcomes every pass shares, printed with --trace 0 next to the
/// machine-read metrics (each applies to some workloads only; -1 = n/a).
std::vector<Row> detail_rows(const PassResult& p, double wall_s,
                             std::size_t passes,
                             const std::vector<double>& event_ms) {
  double p50 = -1.0, p99 = -1.0;
  std::uint64_t samples = 0;
  if (!p.telemetry.empty()) {
    const bmp::obs::RollupSnapshot all = bmp::obs::rollup(p.telemetry);
    const auto it = all.sketches.find("dataplane.chunk_latency");
    if (it != all.sketches.end() && it->second.count() > 0) {
      p50 = it->second.quantile(0.5);
      p99 = it->second.quantile(0.99);
      samples = it->second.count();
    }
  }
  double recover = -1.0;
  if (!p.recover_each.empty()) {
    recover = median(p.recover_each);  // never-recovered scenarios sort last
    if (recover == std::numeric_limits<double>::infinity()) recover = -1.0;
  }
  const double attempted = static_cast<double>(p.attempted());
  return {
      {"ops_per_s", attempted / wall_s, "1/s", "host", passes},
      {"chunks_per_s", double(p.chunks) / wall_s, "1/s", "host", passes},
      {"events_per_s", double(p.real_events) / wall_s, "1/s", "host", passes},
      {"event_p50_ms", quantile(event_ms, 0.5), "ms", "host", event_ms.size()},
      {"event_p99_ms", quantile(event_ms, 0.99), "ms", "host", event_ms.size()},
      {"failed_share", attempted > 0.0 ? double(p.failed()) / attempted : 0.0,
       "ratio", "count", p.attempted()},
      {"sustained_ratio_min", p.sustained_min, "ratio", "sim", p.streams},
      {"recovery_ratio_min", p.recovery_min, "ratio", "sim", p.repairs},
      {"chunk_latency_p50_s", p50, "s", "sim", samples},
      {"chunk_latency_p99_s", p99, "s", "sim", samples},
      {"recover_s", recover, "s", "sim", p.recover_each.size()},
  };
}

/// Per-layer rows of the traced run: the ledger and counters of the
/// median traced pass, the probes, and the tracing overhead.
std::vector<Row> layer_rows(const Options& opt, const PassResult& t,
                            const std::vector<const PassResult*>& traced,
                            double base_wall, double overhead) {
  const Ledger& lg = t.ledger;
  std::map<std::string, double> L = t.layer;
  for (const auto& [name, value] : run_probes(opt)) L[name] = value;
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };

  std::vector<Row> rows;
  const auto add = [&](const std::string& name, double value, const char* unit,
                       const char* kind, std::size_t samples = 1) {
    rows.push_back({name, value, unit, kind, samples});
  };
  const auto counts = [&](std::initializer_list<const char*> names) {
    for (const char* name : names) add(name, L[name], "count", "count");
  };
  add("runtime.advance_s", lg.advance, "s", "host");
  for (const EventType type : kEventTypes) {
    const std::string name = bmp::runtime::to_string(type);
    const auto it = lg.event.find(name);
    const auto n = t.event_ms_by_type.find(name);
    add("runtime.event_s." + name, it == lg.event.end() ? 0.0 : it->second,
        "s", "host", n == t.event_ms_by_type.end() ? 0 : n->second.size());
  }
  for (const std::string type : {"node_leave", "node_join"}) {
    std::vector<double> ms;
    for (const PassResult* p : traced) {
      const auto it = p->event_ms_by_type.find(type);
      if (it == p->event_ms_by_type.end()) continue;
      ms.insert(ms.end(), it->second.begin(), it->second.end());
    }
    const std::string name = "runtime.event_ms." + type;
    add(name + "_p50", quantile(ms, 0.5), "ms", "host", ms.size());
    add(name + "_p99", quantile(ms, 0.99), "ms", "host", ms.size());
  }
  add("runtime.drain_s", lg.drain, "s", "host");
  add("runtime.validate_s", lg.validate, "s", "host");
  add("ledger.untraced_s", lg.untraced(), "s", "host");
  add("ledger.traced_wall_s", lg.wall, "s", "host");
  add("ledger.untraced_share", ratio(lg.untraced(), lg.wall), "ratio", "host");
  add("ledger.base_wall_s", base_wall, "s", "host");
  add("ledger.overhead_x", overhead, "ratio", "host", traced.size());
  counts({"engine.cache_hits", "engine.cache_misses"});
  add("engine.hit_ratio",
      ratio(L["engine.cache_hits"],
            L["engine.cache_hits"] + L["engine.cache_misses"]),
      "ratio", "count");
  counts({"engine.full_replans"});
  add("engine.plan_ms", L["engine.plan_ms"], "ms", "host", kProbeReps);
  add("engine.repair_ms", L["engine.repair_ms"], "ms", "host", kProbeReps);
  add("flow.verify_ms", L["flow.verify_ms"], "ms", "host", kProbeReps);
  counts({"flow.tier1_sweeps", "flow.maxflow_solves", "dataplane.events",
          "dataplane.attempts", "dataplane.index_picks", "dataplane.no_chunk",
          "dataplane.window_stalls"});
  add("dataplane.useful_ratio",
      ratio(double(t.chunks), L["dataplane.attempts"]), "ratio", "count");
  add("dataplane.ns_per_event", ratio(lg.advance * 1e9, L["dataplane.events"]),
      "ns", "host");
  counts({"dataplane.retransmits", "dataplane.duplicates",
          "dataplane.hol_stalls", "control.ticks", "control.actions",
          "control.demotions", "control.restores", "control.reroutes",
          "control.replans", "fault.injected", "fault.crashes_detected"});
  add("fault.detect_latency_s", ratio(t.detect_sum, double(t.detect_count)),
      "s", "sim", t.detect_count);
  add("obs.snapshot_ms", L["obs.snapshot_ms"], "ms", "host");
  add("obs.blame_ms", L["obs.blame_ms"], "ms", "host");
  counts({"obs.lineage_hops"});
  const char* stages[5] = {"bound", "planned", "verified", "achieved",
                           "sustained"};
  for (int i = 0; i < 5; ++i) {
    add(std::string("waterfall.") + stages[i], ratio(t.wf[i], t.wf_streams),
        "rate", "sim", static_cast<std::size_t>(t.wf_streams));
  }
  return rows;
}

/// Human-readable ledger, waterfall and the layer split each workload was
/// designed to produce.
void print_ledger(const Options& opt, const PassResult& t, double overhead,
                  double base_wall) {
  const Ledger& lg = t.ledger;
  std::cout << "-- wall ledger (median traced pass; tolerance: untraced <= "
            << kLedgerTolerance * 100.0 << "% of traced wall)\n";
  const auto share = [&](const std::string& label, double seconds) {
    std::printf("  %-28s %10.6f s  %6.2f%%\n", label.c_str(), seconds,
                100.0 * seconds / lg.wall);
  };
  share("runtime.advance (clock-only)", lg.advance);
  for (const auto& [type, seconds] : lg.event) {
    share("runtime.event." + type, seconds);
  }
  share("runtime.validate", lg.validate);
  share("runtime.drain", lg.drain);
  share("untraced", lg.untraced());
  std::printf("  %-28s %10.6f s  (%s; overhead %.4fx over a %.6f s base)\n",
              "traced wall", lg.wall,
              lg.telescopes() ? "telescopes" : "DOES NOT telescope", overhead,
              base_wall);
  if (t.wf_streams > 0) {
    std::cout << "-- throughput waterfall, channel 0, mean of " << t.wf_streams
              << " scenario(s) (sim rates; each gap charged to a layer)\n";
    const char* stages[5] = {
        "bound      core/bounds.hpp cyclic bound, granted platform",
        "planned    engine: acyclic plan",
        "verified   flow: peak verified rate",
        "achieved   dataplane: min steady rate",
        "sustained  dataplane + control: worst node, whole stream"};
    for (int i = 0; i < 5; ++i) {
      const double rate = t.wf[i] / t.wf_streams;
      const double gap = i == 0 ? 0.0 : rate - t.wf[i - 1] / t.wf_streams;
      std::printf("  %10.4f (gap %+9.4f)  %s\n", rate, gap, stages[i]);
    }
  }
  const auto share_of = [&](std::initializer_list<const char*> types) {
    double seconds = 0.0;
    for (const char* type : types) {
      const auto it = lg.event.find(type);
      if (it != lg.event.end()) seconds += it->second;
    }
    return 100.0 * seconds / lg.wall;
  };
  const auto layer = [&](const char* name) {
    const auto it = t.layer.find(name);
    return it == t.layer.end() ? 0.0 : it->second;
  };
  if (opt.workload == "stream") {
    std::printf("layer split: advance %.1f%% of traced wall "
                "(designed >= 90%%)\n",
                100.0 * lg.advance / lg.wall);
  } else if (opt.workload == "churn") {
    std::printf("layer split: join+leave %.1f%% (designed >= 80%%), "
                "advance %.2f%% (designed ~0)\n",
                share_of({"node_join", "node_leave"}),
                100.0 * lg.advance / lg.wall);
  } else {
    std::printf("layer split: control actions %.0f, crashes detected %.0f, "
                "lineage hops %.0f (designed nonzero)\n",
                layer("control.actions"), layer("fault.crashes_detected"),
                layer("obs.lineage_hops"));
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string error;
  if (!parse_options(argc, argv, opt, error)) {
    std::cerr << "bench_e2e: " << error
              << "\nusage: bench_e2e --workload <stream|churn|storm> --seed <n>"
                 " --seconds <s> --trace <0|1> [--size <full|tiny>]\n";
    return 2;
  }
  const bool traced_run = opt.trace == 1;
  const bool tiny = opt.size == e2e::Size::kTiny;
  // Enough passes for a median even when one pass outlasts --seconds
  // (traced runs need fewer: per-layer metrics have no bound).
  const std::size_t min_passes = tiny ? 1 : traced_run ? 2 : 3;

  // Set-up samples, raw and host-normalized (each extra set-up is
  // normalized by a probe run just before it).
  std::vector<double> setups, setups_norm;
  for (int rep = 0; rep < (traced_run ? 0 : kSetupReps); ++rep) {
    const double factor = host_factor();
    setups.push_back(time_setup(opt));
    setups_norm.push_back(setups.back() / factor);
  }
  std::vector<PassResult> passes;
  const auto run_start = Clock::now();
  for (;;) {
    passes.push_back(run_pass(opt, /*traced=*/false));
    if (traced_run) passes.push_back(run_pass(opt, /*traced=*/true));
    const std::size_t rounds = traced_run ? passes.size() / 2 : passes.size();
    if (rounds >= min_passes && since(run_start) >= opt.seconds) break;
    if (!passes.back().error.empty()) break;
  }
  const double measured_s = since(run_start);

  // ---- correctness gate
  bool correct = true;
  const std::string digest = passes.front().sim.hex();
  for (const PassResult& p : passes) {
    if (!p.error.empty()) {
      std::cout << "[FAIL] exception escaped a step: " << p.error << "\n";
    }
    for (const std::string& v : p.violations) {
      std::cout << "[FAIL] validate: " << v << "\n";
    }
    if (!p.rates_within_verified) {
      std::cout << "[FAIL] a stream beat its verified rate\n";
    }
    if (p.sim.hex() != digest) {
      std::cout << "[FAIL] sim digest differs between passes\n";
    }
    if (p.traced && !p.ledger.telescopes()) {
      std::cout << "[FAIL] ledger: untraced " << p.ledger.untraced() << " s of "
                << p.ledger.wall << " s exceeds the "
                << kLedgerTolerance * 100.0 << "% tolerance\n";
    }
    correct = correct && p.error.empty() && p.violations.empty() &&
              p.rates_within_verified && p.sim.hex() == digest &&
              (!p.traced || p.ledger.telescopes());
  }

  const PassResult& first = passes.front();
  std::vector<const PassResult*> traced;
  std::vector<double> walls, walls_norm, hosts, event_ms;
  for (const PassResult& p : passes) {
    if (p.traced) {
      traced.push_back(&p);
      continue;
    }
    walls.push_back(p.ledger.wall);
    walls_norm.push_back(p.ledger.wall / p.host_median());
    hosts.push_back(p.host_median());
    setups.push_back(p.setup_s);
    setups_norm.push_back(p.setup_s / p.host_median());
    event_ms.insert(event_ms.end(), p.event_ms.begin(), p.event_ms.end());
  }
  const double wall_s = median(walls);

  std::cout << "workload " << opt.workload << " seed " << opt.seed
            << (tiny ? " [tiny]" : "") << ": panel of "
            << e2e::panel_size(opt.workload, opt.size) << " scenarios; "
            << walls.size() << " timed pass(es)"
            << (traced_run ? ", " + std::to_string(traced.size()) + " traced"
                           : "")
            << " in " << measured_s << " s\n"
            << "sim digest " << digest << " (same in all " << passes.size()
            << " passes: " << (correct ? "checked" : "see above") << ")\n"
            << "pass walls (s):";
  for (const double wall : walls) std::cout << " " << wall;
  std::cout << "\nhost factor per pass (probe / " << kProbeReferenceS * 1e3
            << " ms):";
  for (const double host : hosts) std::cout << " " << host;
  std::cout << "\noperations: " << first.attempted() << " attempted ("
            << first.deliveries << " deliveries, " << first.opens << " opens, "
            << first.repairs << " repairs), " << first.failed() << " failed ("
            << first.deliveries_failed << ", " << first.opens_failed << ", "
            << first.repairs_failed << ")\n";

  if (!traced_run) {
    const std::vector<Row> rows = {
        {"setup_s", median(setups_norm), "s", "norm", setups_norm.size()},
        {"wall_norm_s", median(walls_norm), "s", "norm", walls_norm.size()},
        {"rss_mb", peak_rss_mb(), "MB", "host", 1},
    };
    print_rows(rows);
    std::cout << "-- raw host times and per-workload detail "
                 "(-1 = not applicable)\n";
    std::vector<Row> detail = {
        {"setup_raw_s", median(setups), "s", "host", setups.size()},
        {"wall_s", wall_s, "s", "host", walls.size()},
        {"host_factor", median(hosts), "ratio", "host", hosts.size()},
    };
    for (Row& row : detail_rows(first, wall_s, walls.size(), event_ms)) {
      detail.push_back(std::move(row));
    }
    print_rows(detail);
    std::cout << result_json(correct, first.attempted(), first.failed(), rows)
              << std::endl;
    return correct ? 0 : 1;
  }

  std::vector<const PassResult*> by_wall = traced;
  std::sort(by_wall.begin(), by_wall.end(),
            [](const PassResult* a, const PassResult* b) {
              return a->ledger.wall < b->ledger.wall;
            });
  const PassResult& t = *by_wall[by_wall.size() / 2];
  // Tracing overhead: median traced wall over median plain wall, both
  // host-normalized (plain and traced passes alternate, so each pair can
  // meet a different host speed).
  const double overhead =
      t.ledger.wall / t.host_median() / median(walls_norm);
  const std::vector<Row> rows = layer_rows(opt, t, traced, wall_s, overhead);
  print_rows(rows);
  print_ledger(opt, t, overhead, wall_s);
  std::cout << result_json(correct, first.attempted(), first.failed(), rows)
            << std::endl;
  return correct ? 0 : 1;
}
