// The control plane's policy engine — the deterministic brain that closes
// the plan -> execute -> observe loop. One Controller watches one stream
// (one channel): each sampling window it differences the dataplane's
// cumulative telemetry, updates per-node and per-edge estimators and
// hysteresis detectors, and escalates deterministically:
//
//   * a node whose egress goodput (observed wire rate x (1 - loss) against
//     the planned pipe rates) degrades is *demoted* — its capacity class
//     drops to the quantized telemetry estimate, and the host patches the
//     overlay via engine::Session::adapt (repair_scheme underneath);
//   * a straggler (delivered-rate integral falling behind the stream's
//     emission integral) is demoted too — a peer that cannot keep up
//     cannot be trusted to relay at full rate;
//   * a degraded edge whose sender is otherwise healthy is *rerouted
//     around*: its planned rate is clamped to the observed goodput and the
//     receiver's deficit is repaired from healthier senders;
//   * when one directive moves the effective platform past the
//     fingerprint-distance bound (L1 capacity drift / granted total), the
//     controller escalates to a full re-plan through the planner cache;
//   * a demoted node whose detectors recover is *restored* (its class
//     raised back to the telemetry estimate), on a longer cooldown.
//
// Every decision is a pure function of the sample stream: tick() walks its
// inputs in their required ascending order (nodes by id, edges by
// (from, to)), keeps its state in flat id-indexed storage, and uses no
// clocks and no randomness — identical inputs give identical directives on
// any thread count, which the determinism tests replay to the byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "bmp/control/detector.hpp"
#include "bmp/control/telemetry.hpp"

namespace bmp::control {

struct ControllerConfig {
  /// Scenario-clock sampling period (the host ticks on this grid).
  double sample_interval = 0.5;
  double ewma_alpha = 0.35;  ///< window-ratio smoothing for the detectors
  /// Straggler detector: on the EWMA of each node's per-window delivered
  /// rate over the stream's emission rate, *normalized by the cohort
  /// median* — chunk dynamics deliver a few percent under the fluid plan
  /// for everyone, so an absolute reference would leave half the
  /// population hovering at the threshold. A straggler is a node doing
  /// materially worse than its cohort.
  DetectorConfig straggler{0.8, 0.92, 3};
  DetectorConfig egress{0.85, 0.95, 2};  ///< on per-node goodput ratio
  DetectorConfig edge{0.8, 0.95, 3};     ///< on per-edge goodput ratio
  /// Min seconds between actions on the same node/edge (anti-flap). Note
  /// demotions and reroutes fire on detector *transitions* (one action per
  /// trip), so the cooldown only bounds escalations of an ongoing episode.
  double action_cooldown = 0.75;
  /// Min seconds after a node's last action before it may be restored —
  /// longer than action_cooldown so a demote/restore cycle costs at least
  /// one restore_cooldown, the no-flap bound. Every restore probe that
  /// fails (the node is demoted again before its next probe would fire)
  /// doubles the node's probe interval up to restore_backoff_max x this,
  /// so a *persistent* degradation converges to a quiet overlay instead of
  /// being re-probed — and re-spliced — forever.
  double restore_cooldown = 1.5;
  double restore_backoff_max = 8.0;
  /// Restore probes only fire on every restore_grid-th tick, so staggered
  /// per-node probes coalesce into one overlay patch instead of re-splicing
  /// the stream's pipes at every sampling boundary.
  int restore_grid = 4;
  /// Capacity classes: demotions quantize the telemetry estimate to
  /// multiples of 1/capacity_classes (never below demote_floor).
  int capacity_classes = 8;
  double demote_floor = 0.125;
  /// Fingerprint-distance bound: a directive whose L1 capacity change
  /// exceeds this fraction of the granted total escalates from incremental
  /// patching to a full re-plan through the planner cache — correlated
  /// degradations (a regional brownout) re-plan once, properly, while
  /// isolated demotions stay cheap local patches. Full re-plans resplice
  /// the whole running overlay, so the bound must not be so low that
  /// routine probe traffic triggers them.
  double replan_drift = 0.05;
  /// Judging gates. The *service* ratio (observed wire rate vs planned) is
  /// meaningful from a single transmission — each send's duration is
  /// individually informative — so it is judged from min_service_sends in
  /// windows with at least min_edge_utilization busy fraction (a slow pipe
  /// completing one send per window must still be judged: those are
  /// exactly the browned ones). The *loss* ratio needs a real sample: its
  /// EWMA only updates in windows with at least min_edge_sends
  /// transmissions and carries over otherwise.
  double min_edge_utilization = 0.2;
  int min_service_sends = 1;
  int min_edge_sends = 8;
  /// Nodes are only judged in windows expected to carry at least this many
  /// chunks — below that the per-window ratio is granularity noise.
  double min_expected_chunks = 4.0;
  /// Nodes are only judged once their join is at least this many seconds
  /// old (pipeline fill + rarest-first warm-up grace).
  double warmup_grace = 1.0;
  /// Stale-telemetry guard TTL. A window whose edge counters (sent AND
  /// attempts) stand still is *frozen* — a telemetry blackout, not a
  /// measurement of zero — so the controller skips judging and carries its
  /// estimates instead of manufacturing a false brownout (a frozen window
  /// would otherwise read as sustained ratio 0 and demote the node). After
  /// stale_ttl consecutive frozen windows the carried estimates expire:
  /// the smoothed signals are discarded and re-seed from the first fresh
  /// window, so pre-blackout history cannot mask a degradation that
  /// happened in the dark.
  int stale_ttl = 6;
};

/// Causal audit record: *why* the controller acted. One entry per
/// demotion, restore, edge clamp and re-plan escalation in a Directive —
/// the telemetry window, the smoothed signal the detector judged, the
/// threshold it crossed and the capacity estimate behind the new class.
/// The host links these into the trace and exports them in ControlReport,
/// so every overlay change is explainable without a re-run. Detector and
/// action names are string literals (stable, cheap to copy).
struct Evidence {
  const char* detector = "";  ///< "egress"|"straggler"|"edge"|"restore"|"drift"
  const char* action = "";    ///< "demote"|"restore"|"clamp"|"replan"
  int node = -1;              ///< subject node (demote/restore), else -1
  int from = -1;              ///< subject edge (clamp), else -1
  int to = -1;
  double window_value = 1.0;  ///< last raw per-window sample of the signal
  double ewma = 1.0;          ///< smoothed signal the detector judged
  double threshold = 0.0;     ///< detector bound crossed (enter; exit for restores)
  double estimate = 1.0;      ///< estimated capacity fraction vs nominal (nodes)
                              ///< or clamped goodput rate (edges)
  double factor_before = 1.0; ///< capacity factor (nodes) / planned rate (edges)
  double factor_after = 1.0;  ///< ... after the action
  double drift = 0.0;         ///< directive L1 drift (replan evidence only)
  int trips = 0;              ///< detector episode count at decision time
};

/// What the controller wants done after a tick. The host applies it via
/// engine::Session::adapt (mapping stable ids to plan slots) and
/// live-patches the running stream.
struct Directive {
  bool act = false;          ///< anything to apply at all
  bool force_replan = false; ///< drift bound exceeded: full re-plan
  /// Stable node id -> effective capacity factor in (0, 1]; ids absent
  /// from the map are at factor 1 (nominal). Always the *complete* current
  /// override set, not a delta.
  std::map<int, double> factors;
  /// Stable-id (from, to, max_rate) clamps for degraded edges.
  std::vector<std::tuple<int, int, double>> edge_limits;
  // Telemetry of the decision, for metrics/logging.
  int demotions = 0;
  int restores = 0;
  int reroutes = 0;
  int stragglers = 0;       ///< nodes currently flagged as stragglers
  int degraded_edges = 0;   ///< edges currently flagged as degraded
  int straggler_trips = 0;  ///< fresh healthy->degraded flips this tick
  int edge_trips = 0;       ///< fresh degraded-edge detections this tick
  int stale_nodes = 0;      ///< nodes skipped this tick (frozen telemetry)
  int stale_edges = 0;      ///< edges skipped this tick (frozen telemetry)
  double drift = 0.0;       ///< L1 capacity drift fraction of this directive
  /// One audit record per action above (plus one for a replan escalation);
  /// non-empty whenever `act` is set.
  std::vector<Evidence> evidence;
};

/// Introspection snapshot of one node's controller state (tests and
/// debugging; not needed to operate the loop).
struct NodeHealth {
  bool known = false;
  double factor = 1.0;
  double egress_ewma = 1.0;
  double sustained_ewma = 1.0;
  bool egress_degraded = false;
  bool straggler = false;
  int egress_trips = 0;
  int straggler_trips = 0;
  int straggler_recoveries = 0;
  int stale_windows = 0;  ///< consecutive frozen windows (blackout length)
};

class Controller {
 public:
  explicit Controller(ControllerConfig config = {});

  /// One sampling boundary: ingest cumulative telemetry, update detectors,
  /// decide. Throws std::invalid_argument (and changes nothing) unless
  /// `nodes` are strictly ascending by id, `edges` strictly ascending by
  /// (from, to), every id is >= 0 and `now` is later than the previous
  /// tick's.
  Directive tick(const TickInputs& inputs);

  [[nodiscard]] const ControllerConfig& config() const { return config_; }

  /// Voids everything measured about `id` while it was unreachable — a
  /// partition heal makes every estimate taken across the cut an artifact
  /// of the cut, not of the node. Detectors, estimators and probe backoff
  /// restart (adjacent edges included); a pending demotion is pardoned on
  /// the next tick through a regular restore action, so the host re-adapts
  /// off an acting directive instead of a silent factor flip. No-op for
  /// nodes the controller has never judged.
  void forgive(int id);

  /// Current capacity factor of a node (1.0 when never demoted).
  [[nodiscard]] double factor(int id) const;
  [[nodiscard]] NodeHealth node_health(int id) const;
  [[nodiscard]] int ticks() const { return ticks_; }

 private:
  struct NodeState {
    bool known = false;  ///< sampled at least once (else factor 1, no state)
    Ewma egress;        ///< goodput ratio of the node's egress pipes
    Ewma loss;          ///< egress loss fraction (well-sampled windows only)
    Ewma sustained;     ///< delivered / expected ratio
    double last_egress_raw = 1.0;
    double last_sustained_raw = 1.0;  ///< last cohort-normalized window ratio
    /// Absolute effective-capacity estimate (fraction of nominal): goodput
    /// ratio x planned egress load / nominal — exact under proportional
    /// throttling whether or not the plan saturates the node.
    double last_estimate = 1.0;
    HysteresisDetector straggler;
    HysteresisDetector egress_health;
    /// Fresh healthy->degraded flips this tick: actions are transition-
    /// driven (one demote per trip), which is what stops a persistently
    /// degraded signal from ratcheting the node's class down every tick.
    bool egress_tripped = false;
    bool straggler_tripped = false;
    double factor = 1.0;
    /// Factor the node held when forgive() pardoned it (< 0: no pardon
    /// pending). The next tick lifts the demotion via a restore action.
    double pardon_from = -1.0;
    double last_action = -1e300;
    double last_restore = -1e300;
    double probe_interval = 0.0;  ///< 0 = use restore_cooldown
    double prev_delivered = 0.0;
    /// Consecutive windows in which every adjacent edge was frozen and no
    /// delivery moved — the stale-telemetry guard's counter. While > 0 the
    /// node is not judged; past stale_ttl its estimates expire.
    int stale_windows = 0;
  };
  struct EdgeState {
    int from = -1;
    int to = -1;
    Ewma goodput;
    Ewma loss;  ///< loss fraction (well-sampled windows only)
    double last_raw = 1.0;  ///< last raw per-window goodput ratio
    HysteresisDetector health;
    bool tripped = false;
    double last_action = -1e300;
    double prev_busy = 0.0;
    double prev_completed = 0.0;
    std::uint64_t prev_sent = 0;
    std::uint64_t prev_lost = 0;
    std::uint64_t prev_attempts = 0;
    int stale_windows = 0;  ///< consecutive frozen windows on this pipe
  };
  /// One window's egress totals of a sender across its live pipes.
  struct SenderAcc {
    double completed = 0.0;
    double busy = 0.0;
    double busy_rate = 0.0;  ///< sum of busy_i x rate_i (expected data)
    double planned = 0.0;    ///< sum of active pipe rates (egress load)
    std::uint64_t sent = 0;
    std::uint64_t lost = 0;
  };
  /// One edge sample's deltas this window, parallel to inputs.edges.
  struct EdgeWork {
    std::size_t edge = 0;  ///< index into edges_
    double busy_delta = 0.0;
    double completed_delta = 0.0;
    std::uint64_t sent_delta = 0;
    std::uint64_t lost_delta = 0;
  };

  [[nodiscard]] double quantize(double value) const;
  /// Throws unless `inputs` keep tick()'s contract; returns the largest id.
  [[nodiscard]] int check_inputs(const TickInputs& inputs) const;
  /// The state of edge (from, to), created on first sight. `cursor` walks
  /// out_[from] forward across one sender's ascending run of samples.
  [[nodiscard]] std::size_t edge_index(int from, int to, std::size_t& cursor);

  ControllerConfig config_;
  /// Per stable node id (dense: ids are the host's small population ids).
  std::vector<NodeState> nodes_;
  /// Every edge ever sampled, in first-seen order. A vanished pipe keeps
  /// its state, so a reappearing one differences against its last counters
  /// (or restarts, when a resplice reset them).
  std::vector<EdgeState> edges_;
  /// Per sender id: (to, index into edges_), ascending by `to`.
  std::vector<std::vector<std::pair<int, std::size_t>>> out_;
  // Per-tick scratch, reused across ticks. The id-indexed entries a tick
  // reads are zeroed for exactly the ids in its inputs before use.
  std::vector<SenderAcc> acc_;        ///< per sender id
  std::vector<int> adjacent_;         ///< per id: sampled adjacent edges
  std::vector<int> frozen_;           ///< per id: frozen adjacent edges
  std::vector<char> dark_;            ///< per id: stale this window
  std::vector<double> delivered_;     ///< per node sample: delivered delta
  std::vector<EdgeWork> work_;        ///< per edge sample
  std::vector<std::pair<std::size_t, double>> judged_;  ///< (sample, ratio)
  std::vector<double> ratios_;
  double last_now_ = 0.0;
  int ticks_ = 0;
};

}  // namespace bmp::control
