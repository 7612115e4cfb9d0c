// Long-lived planning sessions: a Session owns a planned overlay for one
// platform and absorbs churn events without going back to the full planner
// when it can avoid it. On a departure the overlay is first *restricted*
// to the survivors (sim::restrict_scheme) and then *repaired* in place —
// inflow deficits are patched greedily from survivors that still receive
// the full stream and have spare upload. Only when the repaired overlay's
// verified throughput falls below `replan_threshold` of the design rate
// does the session pay for a full re-plan (which still goes through the
// planner's cache, so identical survivor platforms across sessions dedupe).
#pragma once

#include <memory>
#include <tuple>
#include <vector>

#include "bmp/core/instance.hpp"
#include "bmp/core/scheme.hpp"
#include "bmp/engine/planner.hpp"
#include "bmp/flow/verify.hpp"

namespace bmp::obs {
class TraceSink;
}  // namespace bmp::obs

namespace bmp::engine {

/// What each pass of repair_scheme did (diagnostics and tests).
struct RepairCounts {
  int dust_dropped = 0;       ///< edges under 2% of the target removed
  int trim_cuts = 0;          ///< edge cuts toward a reduced target
  int patch_adds = 0;         ///< direct sender -> receiver additions
  int reroutes_kept = 0;      ///< Lemma 4.3 swaps applied
  int reroutes_reverted = 0;  ///< swaps undone because they closed a cycle
};

struct RepairResult {
  BroadcastScheme scheme;
  double throughput = 0.0;  ///< verified (min max-flow) after patching
  double added_rate = 0.0;  ///< total edge rate the patch added
  RepairCounts counts{};
};

/// Incremental repair of a restricted overlay toward `target_rate`: drops
/// dust edges, trims nodes fed above the target, pulls each node's inflow
/// deficit from non-descendant senders with residual upload, and reroutes
/// open upload to starved guarded nodes, honoring bandwidth caps, the
/// firewall constraint and acyclicity. Node k of
/// `restricted` must be node k of `survivors` (the numbering produced by
/// sim::remove_nodes + sim::restrict_scheme). Cyclic overlays are returned
/// unpatched (their throughput is still measured).
[[nodiscard]] RepairResult repair_scheme(const Instance& survivors,
                                         const BroadcastScheme& restricted,
                                         double target_rate);

/// Same repair, but the final throughput verification runs through the
/// caller's Verifier — a session reuses one engine (and its scratch) across
/// every churn event and keeps per-tier statistics for the runtime's
/// metrics. `verifier` may be nullptr (falls back to the thread-local one).
[[nodiscard]] RepairResult repair_scheme(const Instance& survivors,
                                         const BroadcastScheme& restricted,
                                         double target_rate,
                                         flow::Verifier* verifier);

struct SessionConfig {
  /// Keep the incremental repair iff its verified throughput reaches this
  /// fraction of the design rate; otherwise fall back to a full re-plan.
  double replan_threshold = 0.9;
  /// Planning knobs used for the initial plan and every full re-plan.
  /// kAcyclic by default: its DAG structure is what repair patches best.
  Algorithm algorithm = Algorithm::kAcyclic;
  int max_out_degree = 0;
  /// Options for the session-owned verification engine (timing collection,
  /// parallel sweep pool, tier forcing).
  flow::VerifyOptions verify{};
  /// Span per repair/adapt outcome (null = off); `trace_id` labels the
  /// channel this session serves in multi-channel hosts.
  obs::TraceSink* trace = nullptr;
  int trace_id = -1;
};

/// A capacity-override adaptation of a live session, issued by the control
/// plane when telemetry shows nominal capacities are no longer real.
struct AdaptationRequest {
  /// Effective upload capacity per *current* slot (index 0 = source); size
  /// must equal instance().size(). Values at or above the nominal cap mean
  /// "restored"; below, "demoted".
  std::vector<double> capacities;
  /// (from, to, max_rate) clamps in current slot numbering — degraded
  /// edges (lossy WAN paths) the repair should route around rather than
  /// keep loading at a rate the wire no longer honors.
  std::vector<std::tuple<int, int, double>> edge_limits;
  /// Skip the incremental patch: re-plan the effective instance through
  /// the planner cache directly (the controller escalates to this when the
  /// effective platform drifts past its fingerprint-distance bound).
  bool force_replan = false;
};

struct ChurnOutcome {
  int departed = 0;
  int survivors = 0;
  double design_rate = 0.0;   ///< reference rate before the event
  double degraded_rate = 0.0; ///< restricted overlay, before repair
  double repaired_rate = 0.0; ///< after incremental patching
  double achieved_rate = 0.0; ///< after the chosen reaction
  bool full_replan = false;   ///< true when repair was not good enough
  /// The event wanted a full re-plan but the planner was down
  /// (PlannerUnavailable): the session kept its best verified incremental
  /// repair instead — degraded but live, with bounded staleness. The host
  /// decides whether to re-plan when the outage clears.
  bool planner_fault = false;
  // Verification telemetry for this event: deltas of the session verifier's
  // stats, plus the planner-side verification when a full re-plan computes
  // (not cache-hits) its plan. Counts are deterministic; verify_us is wall
  // clock, covers only the session's own verifier (planner verification
  // time is attributed to planning), and belongs under a `timing.` prefix.
  int verify_calls = 0;       ///< throughput verifications performed
  int verify_sweep = 0;       ///< ... served by the tier-1 acyclic sweep
  int verify_maxflow = 0;     ///< ... that needed max-flow solves
  double verify_us = 0.0;     ///< wall-clock microseconds spent verifying
};

class Session {
 public:
  /// Plans the initial overlay through `planner` (which must outlive the
  /// session). `instance` carries the per-node upload caps the session plans
  /// against — a broker that partitions node budgets across sessions hands
  /// each one a scaled instance rather than the full platform.
  Session(Planner& planner, Instance instance, SessionConfig config = {});

  [[nodiscard]] const Instance& instance() const { return instance_; }
  [[nodiscard]] const BroadcastScheme& scheme() const { return *scheme_; }
  /// The per-node upload capacity vector currently planned against, in the
  /// instance's sorted numbering (index 0 = source). This is the session's
  /// side of the broker contract: callers audit brokered allocations against
  /// it instead of re-reading the full platform.
  [[nodiscard]] std::vector<double> capacities() const;
  /// Throughput of the last *full* plan — the reference churn is judged by.
  [[nodiscard]] double design_rate() const { return design_rate_; }
  /// Verified throughput of the overlay currently in service.
  [[nodiscard]] double current_rate() const { return current_rate_; }
  [[nodiscard]] int incremental_replans() const { return incremental_replans_; }
  [[nodiscard]] int full_replans() const { return full_replans_; }
  /// Cumulative statistics of the session's verification engine (tier
  /// counts, solve counts, wall-clock time).
  [[nodiscard]] const flow::VerifyStats& verify_stats() const {
    return verifier_.stats();
  }
  /// Whether the constructor's plan was verified planner-side (it was
  /// computed, not served from cache, with verify_plans on) — so a host
  /// can count session creation in its verification telemetry.
  [[nodiscard]] bool initial_plan_verified() const {
    return initial_plan_verified_;
  }
  [[nodiscard]] flow::VerifyTier initial_plan_tier() const {
    return initial_plan_tier_;
  }

  /// Absorbs the departure of `departed` (current sorted-instance node ids,
  /// source excluded; throws on bad ids). Updates the session's platform
  /// and overlay and reports what happened.
  ChurnOutcome on_departure(const std::vector<int>& departed);

  /// Re-plans the session on *effective* capacities (the control plane's
  /// telemetry-derived view of what each node can actually push). Same
  /// node set, new caps: the overlay is first permuted into the effective
  /// instance's sorted order, clamped to the per-edge limits and the new
  /// sender caps, then patched incrementally toward the capacity-scaled
  /// design rate — falling back to a full (cached) re-plan when the patch
  /// misses the replan threshold or `force_replan` demands it. Slot order
  /// may change (caps re-sort); callers remap through
  /// instance().original_id exactly as after on_departure.
  ChurnOutcome adapt(const AdaptationRequest& request);

  /// Capacity renegotiation: multiplies every node's upload cap by `factor`
  /// (> 0, finite). Scaling all caps uniformly scales the optimal overlay by
  /// the same factor, so the current scheme and rates are rescaled exactly —
  /// no re-plan, no cache traffic — and node k stays node k.
  void rescale(double factor);

 private:
  /// Emits the span for one absorbed churn/adaptation event (no-op when
  /// tracing is off).
  void trace_churn(const char* name, const ChurnOutcome& outcome,
                   double wall_us) const;

  Planner& planner_;
  SessionConfig config_;
  Instance instance_;
  /// The platform fingerprint, maintained incrementally: O(1) per departed
  /// node instead of rehashing every survivor bandwidth on each churn
  /// event. Always equals fingerprint(instance_, planner cache bucket).
  IncrementalFingerprint instance_fp_;
  /// Owned verification engine: scratch and stats persist across every
  /// churn event this session absorbs.
  flow::Verifier verifier_;
  std::shared_ptr<const BroadcastScheme> scheme_;
  double design_rate_ = 0.0;
  /// Total capacity of the platform design_rate_ was planned on — the
  /// denominator of adapt()'s capacity-ratio target, so repeated repair-
  /// path adaptations never compound against an already-adapted total.
  double design_total_ = 0.0;
  double current_rate_ = 0.0;
  int incremental_replans_ = 0;
  int full_replans_ = 0;
  bool initial_plan_verified_ = false;
  flow::VerifyTier initial_plan_tier_ = flow::VerifyTier::kOracle;
};

}  // namespace bmp::engine
