// The end-to-end benchmark's three workloads. Each is compiled from a seed
// into a runtime::ScenarioScript plus the RuntimeConfig that hosts it; the
// runtime only ever sees the generated script.
//
//   stream  one long channel on a mixed open/guarded platform, lossless
//           rate-limited pipes, no churn / faults / control: the paper's
//           steady state. Isolates the dataplane scheduler and event queue.
//   churn   execution off; Poisson channel arrivals, a flash crowd, diurnal
//           churn, a correlated failure and broker renegotiation. Isolates
//           session repair, re-planning, flow verification and the broker.
//   storm   two channels under diurnal churn, a lossy WAN class, a
//           brownout and a seeded fault plan, with control, SLO, telemetry
//           rollup and lineage on. The only workload that exercises the
//           control, fault and obs layers.
#pragma once

#include <cstdint>
#include <string>

#include "bmp/core/instance.hpp"
#include "bmp/runtime/runtime.hpp"
#include "bmp/runtime/scenario.hpp"

namespace e2e {

/// `kTiny` shrinks every workload for the smoke check; `kFull` is measured.
enum class Size { kFull, kTiny };

[[nodiscard]] bool is_workload(const std::string& name);

/// Scenarios one pass runs back to back, each compiled from its own seed.
/// A single scenario's cost swings several-fold with its event stream
/// (repair work depends on which peers leave when), so a pass sums a fixed
/// panel: the workload's cost over many draws, not one draw's luck.
[[nodiscard]] int panel_size(const std::string& name, Size size);
constexpr int kMaxPanel = 64;
/// Seed of panel scenario `k` (< kMaxPanel) of a run with seed `seed`.
[[nodiscard]] std::uint64_t scenario_seed(std::uint64_t seed, int k);

struct Workload {
  bmp::runtime::ScenarioScript script;
  /// Hooks (telemetry, lineage, profiler) are left null: the pass that
  /// hosts the workload owns those objects and wires them in.
  bmp::runtime::RuntimeConfig config;
  double horizon = 0.0;
  /// Clock-only step interval on the scenario clock (0: only the step
  /// before each real event). Streams are sampled on it.
  double grid = 0.0;
  bool telemetry = false;  ///< attach an obs::ShardRegistry
  bool lineage = false;    ///< attach a budgeted obs::LineageSink
  /// storm only: first fault and partition heal (recover_s reference).
  double storm_start = -1.0;
  double heal_time = -1.0;
};

/// Compiles workload `name` for `seed`: scenario build, fault injection,
/// chunk sizing. This is the benchmark's set-up work (with Runtime
/// construction). Throws std::invalid_argument on an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed, Size size);

/// The script's initial platform as a paper instance (source + peers).
[[nodiscard]] bmp::Instance initial_instance(
    const bmp::runtime::ScenarioScript& script, double fraction = 1.0);

/// The effective platform the script leaves at `horizon`: departed and
/// crashed peers removed, joiners added, brownout factors applied, every
/// bandwidth scaled by `fraction`. The storm's recovery reference.
[[nodiscard]] bmp::Instance final_instance(
    const bmp::runtime::ScenarioScript& script, double horizon,
    double fraction);

}  // namespace e2e
