// The multi-channel broadcast runtime: an event-driven service loop that
// hosts many concurrent broadcast channels on one shared node population.
//
// Each channel is an engine::Session planned on a *scaled* platform: the
// CapacityBroker grants the channel a fraction g of every node's bounded
// multi-port upload budget, and the session plans against {g * b_i}. All
// sessions share one engine::Planner (sharded plan cache + thread pool), so
// identical survivor platforms across channels dedupe.
//
// The loop consumes a deterministic timestamped Event stream (see
// event.hpp, produced by runtime::Scenario):
//   kChannelOpen   broker admission -> plan -> channel goes live
//   kChannelClose  teardown, fraction reclaimed
//   kNodeLeave     every hosting channel absorbs the departure through
//                  Session::on_departure (incremental repair, full re-plan
//                  fallback)
//   kNodeJoin      population grows; per JoinPolicy, live channels re-plan
//                  (through the shared cache) to recruit the new uploaders
//   kRenegotiate   broker rebalances grants; affected sessions rescale
//                  exactly (no re-plan)
// Determinism contract: node ids are assigned sequentially in event order,
// channel maps are ordered, and nothing depends on wall-clock or thread
// timing, so identical (population, event stream) pairs produce identical
// metrics snapshots (timing.* excluded) and churn logs.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bmp/control/controller.hpp"
#include "bmp/dataplane/execution.hpp"
#include "bmp/engine/planner.hpp"
#include "bmp/engine/session.hpp"
#include "bmp/obs/rollup.hpp"
#include "bmp/obs/slo.hpp"
#include "bmp/runtime/capacity_broker.hpp"
#include "bmp/runtime/event.hpp"
#include "bmp/runtime/metrics.hpp"

namespace bmp::obs {
class Profiler;
class TraceSink;
class FlightRecorder;
class LineageSink;
}  // namespace bmp::obs

namespace bmp::runtime {

/// What live channels do when peers join the population.
enum class JoinPolicy {
  kIgnore,  ///< joiners only serve channels opened later
  kReplan,  ///< re-plan every live channel on the grown platform (cached)
};

/// Opt-in chunk-level execution: every channel drives a
/// dataplane::Execution on the scenario's clock — the source streams
/// chunks at the channel's verified rate, churn live-patches the running
/// execution (departed nodes' in-flight chunks dropped, repaired edges
/// spliced in, renegotiated rates applied) without restarting the stream,
/// and dataplane.* metrics report what the stream *actually achieved*
/// against what the planner promised.
struct DataPlaneConfig {
  bool execute = false;
  /// Per-stream engine knobs (chunk_size, window, latency, loss, warmup,
  /// ...), passed through to every channel's Execution. The runtime owns
  /// the stream lifecycle, so four fields are overridden per channel:
  /// total_chunks (0: live until close/drain), emission_rate (paced at the
  /// session's verified rate), start_time (channel open), and seed (forked
  /// per channel from this seed). Size chunk_size so a channel emits
  /// hundreds — not millions — of chunks over the scenario horizon.
  /// collect_latencies defaults on here (unlike standalone Executions):
  /// the runtime drains latencies into dataplane.chunk_latency per event,
  /// so the pending buffer stays bounded.
  dataplane::ExecutionConfig execution = [] {
    dataplane::ExecutionConfig config;
    config.collect_latencies = true;
    // Runtime streams are hardened by default: receivers checksum payloads
    // and re-request corrupted chunks (standalone Executions default to the
    // frozen comparison mode instead — see ExecutionConfig).
    config.verify_payloads = true;
    return config;
  }();
};

/// Tolerance policy for injected faults (kFault events, src/fault). All
/// reactions are deterministic functions of the scenario clock and the
/// dataplane's counters, so chaos runs replay bit-identically.
struct FaultToleranceConfig {
  /// Crash detection: a crashed node sends no leave event, so the runtime
  /// watches each stream's counters on the control grid — a peer whose
  /// delivered count and adjacent pipe activity (attempts + sent) all stand
  /// still for `crash_silence_windows` consecutive windows is declared dead
  /// and a churn repair is synthesized across *every* hosting channel at
  /// once. Requires execution + control mode (the telemetry source); crashes
  /// degrade to immediate synthesized departures without it.
  bool detect_crashes = true;
  int crash_silence_windows = 3;
  /// Planner-outage fallback: channels keep serving their last verified
  /// plan (bounded staleness — rebuilt when the outage ends), and channel
  /// opens that failed against a down planner are queued and retried with
  /// exponential backoff instead of being dropped.
  bool planner_fallback = true;
  double planner_retry_initial = 0.5;  ///< first retry delay (seconds)
  double planner_retry_max = 4.0;      ///< backoff ceiling (seconds)
};

/// Opt-in adaptive control plane (requires execution mode): one
/// control::Controller per channel samples its stream's telemetry on the
/// scenario clock, detects stragglers and degraded edges, and closes the
/// loop — demotions / reroutes / full re-plans flow through
/// engine::Session::adapt (every adapted scheme flow-verified) and are
/// live-patched into the running execution. Deterministic: control.*
/// metrics and the control log replay byte-identically.
struct ControlConfig {
  bool enabled = false;
  control::ControllerConfig controller;
  /// Per-channel SLO monitor on the control sample grid (requires
  /// `enabled`): worst-node windowed sustained ratio, chunk-latency p99 and
  /// time-to-recover SLIs feed a multi-window burn-rate ok/warn/page state
  /// machine (obs::SloMonitor). Alert sequences are byte-identical across
  /// runs and planner thread counts.
  bool slo_enabled = false;
  obs::SloConfig slo;
  /// Control ticks spanned by the windowed sustained SLI: the worst node's
  /// delivered delta over the emission promise across the last N ticks —
  /// windowed (not cumulative), so a healed partition recovers to ok.
  int slo_sustained_window = 4;
};

struct RuntimeConfig {
  engine::PlannerConfig planner;  ///< shared cache / thread pool knobs
  engine::SessionConfig session;  ///< repair-vs-replan policy per channel
  double broker_headroom = 0.0;   ///< budget fraction withheld from channels
  JoinPolicy join_policy = JoinPolicy::kReplan;
  bool collect_timing = true;     ///< record timing.* event-loop latency
  DataPlaneConfig dataplane;      ///< chunk-level execution mode
  ControlConfig control;          ///< telemetry-driven adaptation
  FaultToleranceConfig fault;     ///< reaction policy for injected faults
  /// Cross-layer tracing (null = off): the runtime threads this sink into
  /// its planner, every session/verifier, every execution and the control
  /// plane, and stamps it with the scenario clock — a whole run lands in
  /// one Perfetto-loadable timeline. Non-owning; must outlive the runtime.
  obs::TraceSink* trace = nullptr;
  /// Flight recorder (null = off): recent scenario/control/churn events per
  /// channel, auto-dumped when validate() or a stream's rate audit fails.
  obs::FlightRecorder* recorder = nullptr;
  /// Performance attribution (null = off): the runtime threads this
  /// profiler into its planner, every session verifier and every chunk
  /// stream, and records its own loop phases (runtime/step, session
  /// churn/adapt, broker rebalance, control decide). Counters are
  /// deterministic; wall time only when the profiler opted in. Non-owning;
  /// must outlive the runtime.
  obs::Profiler* profiler = nullptr;
  /// Chunk lineage (null = off): every execution records one hop per
  /// delivered chunk into this sink — the critical-path analyzer's input
  /// (obs::analyze_critical_path). Non-owning; must outlive the runtime.
  obs::LineageSink* lineage = nullptr;
  /// Sharded telemetry rollup (null = off): the runtime pre-registers its
  /// scale-facing series here at construction — chunk-latency /
  /// sustained-ratio / SLO sketches plus bounded top-K heavy-hitter tables
  /// of the worst nodes and edges by retransmit, stall and demotion weight
  /// — and records through interned O(1) handles, replacing any
  /// record-everything-per-node series. One registry per shard (it is
  /// single-threaded, like the runtime); shard snapshots roll up to a
  /// byte-identical global obs::RollupSnapshot regardless of merge order
  /// or planner thread count. Non-owning; must outlive the runtime.
  obs::ShardRegistry* telemetry = nullptr;
  /// Disambiguates node/edge heavy-hitter keys across shards (each shard
  /// numbers its nodes from 0): keys render as
  /// `node:<prefix><id>` / `edge:<prefix><from>-><to>`.
  std::string telemetry_node_prefix;
};

/// One line of the runtime's churn audit trail: how a channel fared at one
/// population event. `design_rate` is the channel's *post-event* design
/// rate on its broker-granted capacity — the reference the acceptance bar
/// (achieved >= 0.85 x design) is measured against.
struct ChurnReport {
  double time = 0.0;
  int channel = -1;
  EventType type = EventType::kNodeLeave;  ///< kNodeLeave or kNodeJoin
  int departed = 0;
  bool full_replan = false;
  double design_rate = 0.0;
  double achieved_rate = 0.0;
};

/// What one channel's chunk stream actually delivered, produced when the
/// channel closes (or at drain()). The acceptance bar of the execution
/// mode: `sustained_ratio` — the worst node's delivered chunks against the
/// time-integral of the channel's design rate since that node joined —
/// must stay >= 0.85 through churn, with live patches only (no restart).
struct StreamReport {
  int channel = -1;
  double open_time = 0.0;
  double end_time = 0.0;
  int emitted = 0;
  std::uint64_t delivered_chunks = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t hol_stalls = 0;
  std::uint64_t duplicates = 0;
  /// Chunks the design rate promised over the channel's life (integral of
  /// the post-event design rate / chunk_size).
  double expected_chunks = 0.0;
  double sustained_ratio = 1.0;
  /// Min steady-state rate over surviving nodes (dataplane measurement).
  double achieved_rate = 0.0;
  /// Highest verified (flow) throughput the channel was ever planned at;
  /// the data plane can never beat the flow bound: achieved <= verified.
  double verified_rate = 0.0;
  bool rate_within_verified = true;
};

/// One line of the adaptation audit trail: what a channel's controller did
/// at one sampling boundary (only boundaries with actions are logged).
struct ControlReport {
  double time = 0.0;
  int channel = -1;
  int demotions = 0;
  int restores = 0;
  int reroutes = 0;
  int stragglers = 0;      ///< straggler count at decision time
  int degraded_edges = 0;
  double drift = 0.0;      ///< L1 capacity drift of the directive
  bool replan = false;     ///< controller escalated past the drift bound
  bool full_replan = false;///< session actually re-planned (incl. fallback)
  double rate_before = 0.0;
  double rate_after = 0.0; ///< flow-verified rate of the adapted overlay
  /// Causal audit: one record per demotion/restore/clamp/replan in the
  /// directive — why the controller acted (control::Evidence).
  std::vector<control::Evidence> evidence;
};

class Runtime {
 public:
  /// `initial_peers[k]` becomes runtime node id k + 1; id 0 is the source.
  /// Nodes joining later get the next ids in event order.
  Runtime(RuntimeConfig config, double source_bandwidth,
          const std::vector<NodeSpec>& initial_peers);

  /// Replays a time-sorted stream (throws on out-of-order events).
  void run(const std::vector<Event>& events);
  /// Processes one event; `event.time` must not precede the loop clock.
  void step(const Event& event);

  [[nodiscard]] double now() const { return now_; }
  [[nodiscard]] int alive_peers() const { return alive_peers_; }
  [[nodiscard]] std::size_t open_channels() const { return channels_.size(); }
  [[nodiscard]] const CapacityBroker& broker() const { return broker_; }
  [[nodiscard]] const engine::Planner& planner() const { return planner_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }
  [[nodiscard]] const std::vector<ChurnReport>& churn_log() const {
    return churn_log_;
  }
  /// The live session of `channel`, nullptr if not open.
  [[nodiscard]] const engine::Session* session(int channel) const;
  /// The live chunk execution of `channel`; nullptr unless execution mode
  /// is on and the channel is open (and not yet drained).
  [[nodiscard]] const dataplane::Execution* execution(int channel) const;
  /// The channel's controller (keyed by runtime node ids); nullptr unless
  /// the control plane is on and the channel is open.
  [[nodiscard]] const control::Controller* controller(int channel) const;
  /// The channel's SLO monitor; nullptr unless control.slo_enabled and the
  /// channel is open.
  [[nodiscard]] const obs::SloMonitor* slo_monitor(int channel) const;
  /// Stream outcomes of closed (or drained) channels, in close order.
  [[nodiscard]] const std::vector<StreamReport>& stream_log() const {
    return stream_log_;
  }
  /// Adaptation actions taken by per-channel controllers, in tick order.
  [[nodiscard]] const std::vector<ControlReport>& control_log() const {
    return control_log_;
  }
  /// Execution mode: advances every live chunk stream to time `t`
  /// (>= now()), lets their tails drain, and finalizes a StreamReport per
  /// still-open channel — the end-of-scenario bookend after run(). The
  /// channels stay open; their executions are released. No-op per channel
  /// when execution mode is off.
  std::vector<StreamReport> drain(double t);

  /// Audits the cross-layer invariants: every node's summed per-channel
  /// allocation (Session::capacities()) stays within its multi-port budget
  /// b_i, the broker's granted fractions fit its usable pool, each
  /// channel's slot map and execution node map agree, and every live
  /// execution passes its own no-orphan audit (dataplane::Execution::
  /// validate — windows, reservations and in-flight copies reconcile even
  /// mid-fault). Returns human-readable violations (empty = ok); failures
  /// auto-dump the flight recorder when one is configured.
  [[nodiscard]] std::vector<std::string> validate(double tol = 1e-7) const;

 private:
  struct Node {
    double bandwidth = 0.0;
    bool guarded = false;
    bool alive = true;
    // Effective-world state (kDegrade events): applied to every channel's
    // execution, invisible to the planner — the control plane's problem.
    double capacity_factor = 1.0;
    bool wan = false;  ///< `profile` overrides the execution-config default
    dataplane::LinkProfile profile;
    // ---- fault state (kFault events) ----
    /// Died by kCrash: already dead in every execution, but the *sessions*
    /// still plan around it until crash detection synthesizes the leave.
    bool crashed = false;
    double crash_time = 0.0;   ///< when the crash landed (detection latency)
    int partition_group = 0;   ///< != group ⇒ traffic between them is lost
    bool blackout = false;     ///< telemetry frozen: controller sees cached
    double corrupt_rate = 0.0; ///< egress payload-corruption probability
  };
  struct Channel {
    Grant grant;
    std::unique_ptr<engine::Session> session;
    /// Session slot (sorted instance id) -> runtime node id; slot 0 = source.
    std::vector<int> node_of_slot;
    // ---- execution mode ----
    std::unique_ptr<dataplane::Execution> execution;
    /// (runtime node id, execution node id) rows, ascending runtime id —
    /// one per session slot, rebuilt by sync_execution's merge.
    std::vector<std::pair<int, int>> dp_of_node;
    /// Execution node id of runtime node `rid` (-1: not in the stream).
    [[nodiscard]] int dp_of(int rid) const;
    /// Per execution node: channel design integral at its join (so a late
    /// joiner is only expected chunks emitted after it arrived).
    std::map<int, double> expected_at_join;
    double open_time = 0.0;
    double design_integral = 0.0;  ///< integral of design rate / chunk_size
    double max_verified = 0.0;     ///< peak verified rate over the life
    // ---- control plane ----
    std::unique_ptr<control::Controller> controller;
    double control_expected = 0.0;   ///< emission integral since last tick
    double last_control_time = 0.0;  ///< previous sampling boundary
    // ---- SLO monitor ----
    std::unique_ptr<obs::SloMonitor> slo;
    /// Rolling per-tick snapshots for the windowed sustained SLI: the
    /// emission promise integral and each node's delivered bytes at the
    /// last `slo_sustained_window` boundaries.
    struct SloSnapshot {
      double expected = 0.0;
      /// (node id, delivered) rows in ascending id order — built from the
      /// already-sorted control samples, so the windowed comparison is a
      /// two-pointer walk with no per-tick tree allocations.
      std::vector<std::pair<int, double>> delivered;
    };
    std::deque<SloSnapshot> slo_history;
    double slo_expected_total = 0.0;
    // counter snapshots for delta export into the metrics registry
    std::uint64_t seen_delivered = 0;
    std::uint64_t seen_losses = 0;
    std::uint64_t seen_retransmits = 0;
    std::uint64_t seen_stalls = 0;
    std::uint64_t seen_duplicates = 0;
    // ---- telemetry memory across control ticks ----
    /// Per runtime node id: crash-silence tracking — the last observed
    /// activity counter (delivered + adjacent attempts + sent) and how many
    /// consecutive control windows it stood still — and the last sample
    /// actually observed, substituted while the node is blacked out so a
    /// blackout freezes what the controller sees (the stale-telemetry
    /// guard's input) instead of leaking fresh data.
    struct NodeMemo {
      std::optional<std::uint64_t> activity;
      int silent_windows = 0;
      std::optional<control::NodeSample> sample;
    };
    /// Per overlay edge (packed runtime ids, from << 32 | to): the blackout
    /// cache of its last observed sample, the heavy-hitter watermarks —
    /// the (lost, window_stalls) last fed to the telemetry hook — and the
    /// edge's heavy-hitter keys, built the first time it reports.
    struct EdgeMemo {
      std::optional<control::EdgeSample> sample;
      std::uint64_t lost = 0;
      std::uint64_t stalls = 0;
      std::string edge_key;  ///< "edge:<prefix><from>-><to>" (lazy)
      std::string node_key;  ///< "node:<prefix><from>" (lazy)
    };
    /// Hash maps: looked up and pruned only, never iterated in output
    /// order, so the unordered layout cannot leak into the deterministic
    /// output. Departed nodes are pruned (runtime ids are never reused).
    std::unordered_map<int, NodeMemo> node_memo;
    std::unordered_map<std::uint64_t, EdgeMemo> edge_memo;
    /// The last frame's row layout. While the rows' (from, to) keys repeat
    /// — the pipe set did not change — read_frame reuses the sort and the
    /// memo lookups instead of redoing them every tick.
    struct FrameLayout {
      std::vector<std::uint64_t> keys;  ///< per row, packed runtime ids
      std::vector<std::uint32_t> order; ///< row indices ascending by key
      std::vector<EdgeMemo*> memo;      ///< per row, into edge_memo
    };
    FrameLayout layout;
    /// >= 0: the session wanted a full re-plan but the planner was down; it
    /// kept serving the incremental repair since this instant. Rebuilt
    /// through the planner when the outage ends.
    double plan_stale_since = -1.0;
  };
  /// A channel open refused by a planner outage, queued for retry.
  struct PendingOpen {
    Event event;
    double next_retry = 0.0;
    double backoff = 0.0;
  };

  void on_channel_open(const Event& event);
  void on_channel_close(const Event& event);
  void on_node_join(const Event& event);
  void on_node_leave(const Event& event);
  void on_renegotiate(const Event& event);
  void on_degrade(const Event& event);
  void on_fault(const Event& event);

  /// The per-channel churn machinery of on_node_leave, callable on nodes
  /// already marked dead: every hosting channel absorbs the departure
  /// (repair / re-plan), slot maps remap, streams live-patch. `when` stamps
  /// the reports (event time, or the control boundary that detected a
  /// crash).
  void apply_departures(const std::set<int>& departed, double when);
  /// Declares nodes silent past the crash threshold dead and synthesizes
  /// their departure across all hosting channels at once.
  void detect_crashes(const std::set<int>& candidates, double t);
  /// Retries channel opens deferred by a planner outage whose backoff
  /// expired (`force` ignores the backoff — the outage just ended).
  void retry_pending_opens(double t, bool force);
  /// Re-plans channels serving a stale overlay once the planner is back.
  void rebuild_stale_channels();

  /// Execution mode: run every live stream up to `t` on the scenario clock
  /// and accumulate each channel's design-rate integral. With the control
  /// plane on, the advance stops at every sampling boundary on the global
  /// interval grid and ticks each channel's controller there.
  void advance_executions(double t);
  /// One contiguous segment of stream time (no control boundary inside).
  void advance_streams_to(double t);
  /// Samples every live channel's telemetry at boundary `t`, runs its
  /// controller, and applies any resulting directive.
  void control_tick(double t);
  void apply_directive(int id, Channel& channel,
                       const control::Directive& directive, double t);
  /// Reconciles a channel's execution with its (re)planned session: nodes
  /// added/removed, pipes spliced to the current overlay, emission paced at
  /// the verified current rate. Called after every session change.
  void sync_execution(int id, Channel& channel);
  /// Reads the channel's pipes once into frame_, re-keyed to runtime ids,
  /// with the channel's layout (row order by runtime ids, memo per row)
  /// refreshed when the keys changed, and, with the telemetry hook on,
  /// streams each edge's (lost, window_stalls) deltas past its watermarks
  /// into the heavy-hitter tables. Called at every control tick and at
  /// stream finalize (so control-less runs still attribute).
  void read_frame(Channel& channel);
  /// Drains the stream's chunk latencies into dataplane.chunk_latency, the
  /// telemetry sketch and the SLO monitor.
  void tee_latencies(Channel& channel);
  /// Exports the execution's counter deltas / latencies into dataplane.*.
  void export_dataplane_metrics(int id, Channel& channel);
  /// Lets the stream tail drain, reports, and releases the execution.
  StreamReport finalize_stream(int id, Channel& channel);

  /// (Re)plans `channel` on the current alive population scaled by its
  /// granted fraction, and rebuilds the slot -> node mapping.
  void build_session(int id, Channel& channel);
  void set_channel_gauges(int id, const Channel& channel);
  [[nodiscard]] std::string channel_metric(int id, const char* what) const;

  /// Interned hot-path metric cells (satellite of the telemetry-at-scale
  /// work): the per-event metrics the loop used to reach through
  /// string-keyed map lookups are resolved once — lazily, on first use, so
  /// snapshot contents match the old create-on-first-touch behavior — and
  /// bumped through stable pointers thereafter (MetricsRegistry handles).
  /// None of these series is ever erase()d.
  struct HotMetrics {
    std::uint64_t* events_total = nullptr;
    std::uint64_t* events_by_type[8] = {};
    std::uint64_t* broker_admitted = nullptr;
    std::uint64_t* broker_rejected = nullptr;
    std::uint64_t* broker_released = nullptr;
    double* broker_allocated = nullptr;
    double* channels_open = nullptr;
    double* population_alive = nullptr;
    WindowedHistogram* timing_event_loop = nullptr;
    std::uint64_t* dp_delivered = nullptr;
    std::uint64_t* dp_losses = nullptr;
    std::uint64_t* dp_retransmits = nullptr;
    std::uint64_t* dp_hol_stalls = nullptr;
    std::uint64_t* dp_duplicates = nullptr;
    WindowedHistogram* dp_chunk_latency = nullptr;
    std::uint64_t* control_samples = nullptr;
  };
  /// Shard-registry handles, registered at construction when
  /// config_.telemetry is set (all O(1) to record through).
  struct Telemetry {
    obs::ShardRegistry::CounterHandle delivered;
    obs::ShardRegistry::CounterHandle losses;
    obs::ShardRegistry::CounterHandle retransmits;
    obs::ShardRegistry::CounterHandle hol_stalls;
    obs::ShardRegistry::CounterHandle duplicates;
    obs::ShardRegistry::CounterHandle events;
    obs::ShardRegistry::GaugeHandle alive;
    obs::ShardRegistry::SketchHandle latency;
    obs::ShardRegistry::SketchHandle sustained;
    obs::ShardRegistry::SketchHandle slo_worst;
    obs::ShardRegistry::SketchHandle recovered;
    obs::ShardRegistry::TopKHandle node_retransmits;
    obs::ShardRegistry::TopKHandle node_stalls;
    obs::ShardRegistry::TopKHandle edge_retransmits;
    obs::ShardRegistry::TopKHandle node_demotions;
  };

  RuntimeConfig config_;
  /// Planner-failure injection target, wired into the planner's config
  /// (declared first: the planner copies the pointer at construction).
  /// kPlannerOutageStart/End events toggle `outage_->down`.
  engine::PlannerOutage planner_outage_;
  engine::PlannerOutage* outage_ = nullptr;
  engine::Planner planner_;
  CapacityBroker broker_;
  MetricsRegistry metrics_;
  HotMetrics hot_;
  Telemetry tel_;
  std::vector<Node> nodes_;  // index = runtime node id, 0 = source
  int alive_peers_ = 0;
  std::map<int, Channel> channels_;  // ordered: deterministic event handling
  std::vector<ChurnReport> churn_log_;
  std::vector<StreamReport> stream_log_;
  std::vector<ControlReport> control_log_;
  std::vector<PendingOpen> pending_opens_;
  double now_ = 0.0;
  double dp_clock_ = 0.0;  ///< time every live execution has reached
  /// One stream's pipes as read at a control tick (or a finalize): every
  /// consumer of the tick — controller samples, crash-silence activity,
  /// heavy hitters — reads these rows instead of the execution. Reused
  /// across ticks and channels, so the steady state allocates nothing.
  struct Frame {
    /// Raw cumulative rows in (from, to) execution-id order, with from/to
    /// re-keyed to runtime ids (rows the channel no longer maps dropped).
    /// The channel's `layout` orders them by runtime ids.
    std::vector<dataplane::EdgeStats> edges;
    std::vector<int> rid_of_dp;  ///< execution id -> runtime id, -1: none
    // read_frame scratch: the rows' packed runtime-id keys, and a layout
    // refresh's order and memos (swapped with the channel's layout).
    std::vector<std::uint64_t> keys;
    std::vector<std::uint32_t> order;
    std::vector<Channel::EdgeMemo*> memo;
    std::vector<int> first_row;  ///< per runtime id: its first row, or -1
    std::vector<double> granted;          ///< per runtime id (tick only)
    std::vector<std::uint64_t> activity;  ///< per runtime id (tick only)
    control::TickInputs inputs;           ///< the controller's (tick only)
  };
  Frame frame_;
  /// Sampling boundaries processed so far: boundary k + 1 sits at
  /// (k + 1) * sample_interval on the scenario clock (an integer counter,
  /// so the grid never accumulates floating-point drift).
  std::int64_t control_ticks_done_ = 0;
};

}  // namespace bmp::runtime
