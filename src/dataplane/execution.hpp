// Chunk-level data plane — the layer that *moves data* through a planned
// overlay and closes the plan-vs-achieved loop. The planner (engine::),
// verifier (flow::) and host (runtime::) reason about fluid rates; an
// Execution takes those rates literally and streams discrete fixed-size
// chunks through them:
//
//   * the source emits a stream of chunks, paced at the planned rate (or
//     all at t = 0 for file-transfer style runs);
//   * every directed overlay edge is a serial, rate-limited pipe — one
//     chunk in transmission at a time, transmission time chunk_size / rate,
//     optional propagation latency (the pipe frees at transmission end, so
//     consecutive chunks pipeline through the latency), optional i.i.d.
//     per-transmission loss with retransmit;
//   * each node's bounded multi-port budget b_i is respected structurally
//     (the planned edge rates sum to <= b_i, and every pipe is capped at
//     its planned rate); validate() audits the invariant on demand;
//   * a per-node send scheduler picks, whenever a pipe frees, the
//     rarest-first chunk the sender holds, the receiver lacks, and nobody
//     is already sending to that receiver — with backpressure when the
//     receiver's in-flight window fills (head-of-line stalls are counted);
//   * a deterministic event loop (event_queue.hpp) advances emission /
//     send-complete / arrival events in timestamp-then-id order, so
//     replays are bit-identical. A zero-latency transmission queues its
//     send-complete and arrival as one combined event (they could never
//     pop apart); the profiler still counts logical events, two for it.
//
// The topology is *live-patchable*: nodes and edges can be added, removed
// and re-rated mid-stream — a departed node's in-flight chunks are dropped
// (reservations released, so survivors re-request the chunks elsewhere) and
// a repaired overlay's new edges splice in without restarting the stream.
// runtime::Runtime drives one Execution per channel this way.
//
// Units: rates share the instance's bandwidth unit (e.g. Mbit/s),
// chunk_size the matching data unit (Mbit), times the matching seconds.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bmp/core/instance.hpp"
#include "bmp/core/scheme.hpp"
#include "bmp/dataplane/event_queue.hpp"
#include "bmp/dataplane/link_profile.hpp"
#include "bmp/util/rng.hpp"

namespace bmp::obs {
class Profiler;
class TraceSink;
class FlightRecorder;
class LineageSink;
}  // namespace bmp::obs

namespace bmp::dataplane {

struct ExecutionConfig {
  double chunk_size = 1.0;  ///< data per chunk, in the bandwidth unit x s
  /// Chunks the source will emit; 0 = unbounded stream (stop_emission() or
  /// a rate of 0 ends it).
  int total_chunks = 0;
  /// Source pacing: chunk k becomes available at start_time + k * s / rate.
  /// <= 0 emits every chunk at start_time (file-transfer mode). Mutable at
  /// run time through set_emission_rate (live renegotiation).
  double emission_rate = 0.0;
  double start_time = 0.0;    ///< the execution's epoch (channel open time)
  /// Max chunks in flight toward one receiver. A receiver always grants at
  /// least one outstanding chunk per in-pipe (the effective window is
  /// max(receiver_window, in-degree)), otherwise a fan-in wider than the
  /// window would throttle below the planned rate by construction.
  int receiver_window = 8;
  /// Reservation overtaking ("endgame" duplicate suppression): a pipe may
  /// re-request a chunk already in flight to the receiver iff it can land
  /// its copy within this fraction of the current copy's remaining transfer
  /// time. Without it, one near-zero-rate pipe grabbing a chunk would hold
  /// the whole receiver hostage; with it, duplicates stay rare and bounded.
  /// 0 disables overtaking (strictly exclusive reservations).
  double overtake_factor = 0.5;
  /// Hostage rescue: a *reserved* chunk competes with unreserved ones
  /// (rarest-first order) for senders that can land a copy within this
  /// fraction of the current copy's remaining transfer time. Without it, a
  /// near-zero-rate pipe (re-planned overlays carry such residue edges)
  /// that grabs a rare chunk pins the receiver's in-order frontier for the
  /// whole glacial transmission — buffers balloon and the delivered-rate
  /// integral stalls even though every other pipe is healthy. 1/8 means
  /// the rescuer must be at least 8x faster, so near-peer pipes never
  /// duplicate each other. 0 disables rescue (endgame overtaking only).
  double rescue_factor = 0.125;
  /// Rescue at `rescue_factor` arms only while the receiver's out-of-order
  /// backlog exceeds this many effective windows — the signature of a
  /// pinned frontier. A healthy stream idles at a benign backlog of a few
  /// windows (each slow-but-productive in-pipe holds up to one in-flight
  /// chunk), so the threshold sits well above that: arming rescue at the
  /// benign level would just duplicate productive transmissions.
  double rescue_buffer_windows = 8.0;
  /// Hard rescue, always armed: reservations held by *extremely* slow
  /// copies (the rescuer at least 32x faster) are contested regardless of
  /// backlog. Planned overlays rarely spread same-receiver pipe rates that
  /// far, but re-planned ones carry residue trickle edges that do — and a
  /// trickle reservation is a multi-second hostage. 0 disables.
  double rescue_factor_hard = 0.03125;
  /// Default link behaviour — seeds every node's egress LinkProfile. Edges
  /// resolve their profile per transmission: explicit set_edge_profile
  /// override first, then the sender's egress profile (set_egress_profile,
  /// how WAN edge classes are assigned), then these defaults.
  double latency = 0.0;       ///< propagation delay per pipe, seconds
  double loss_rate = 0.0;     ///< i.i.d. per-transmission loss in [0, 0.95]
  std::uint64_t seed = 1;     ///< loss/jitter-stream seed (per-pipe forked)
  /// Deliveries per node excluded from the steady-rate window (startup
  /// transient: pipeline fill, rarest-first warm-up).
  int warmup_chunks = 16;
  /// Rarest-first scan horizon past a receiver's first missing chunk; caps
  /// scheduler cost when a slow node accumulates a deep backlog.
  int scan_limit = 4096;
  /// Word-parallel rarest-first pick: the scheduler sweeps the window's
  /// 64-bit words of sender.have & ~receiver.have and checks reservations
  /// only for chunks rarer than the best so far, instead of testing every
  /// chunk of the window one by one. Picks are bit-identical with this off
  /// (the per-chunk linear scan is the semantics of record); the flag
  /// exists for differential tests.
  bool use_scan_index = true;
  /// Keep per-delivery chunk latencies for drain_latencies() (the runtime
  /// feeds them into its dataplane.chunk_latency histogram).
  bool collect_latencies = false;
  /// Payload checksum verification (the hardened path): an arrival whose
  /// synthetic checksum mismatches is treated like a loss — reservation
  /// released, chunk re-requested from another holder — and counted in
  /// corruptions(). Off, a corrupted chunk is silently delivered, marked,
  /// and *forwarded corrupted* (counted in corrupted_accepted()) — the
  /// frozen-comparison failure mode the chaos tests contrast against.
  bool verify_payloads = false;
  /// Sampled chunk-lifecycle tracing (null = off): chunks whose id is a
  /// multiple of `trace_sample` log their emission, losses and every
  /// delivery as instant events on the execution lane — enough to follow a
  /// chunk through the overlay without one event per delivery.
  obs::TraceSink* trace = nullptr;
  int trace_sample = 64;  ///< chunk-id sampling stride; <= 0 disables
  /// Flight recorder for validate() failures: each violation is recorded
  /// and the recorder's configured dump is written (null = off).
  obs::FlightRecorder* recorder = nullptr;
  int trace_id = -1;  ///< channel label in trace/recorder output
  /// Performance attribution (null = off): event/delivery counters under
  /// "dataplane/advance" and scheduler pick telemetry under
  /// "dataplane/scheduler", flushed once per run_until — the per-event hot
  /// path never touches the profiler, and pays one predictable branch per
  /// site when profiling is off.
  obs::Profiler* profiler = nullptr;
  /// Chunk lineage (null = off): every delivery records a hop (edge, the
  /// enqueue/start/finish scenario times, retransmit count, HOL-stall and
  /// overtake flags) into the sink — the delivery DAG the critical-path
  /// analyzer walks. Disabled, each delivery pays one branch.
  obs::LineageSink* lineage = nullptr;
};

/// Per-node outcome of a run (ids are Execution node ids; node 0 = source).
struct NodeProgress {
  int id = 0;
  bool alive = true;
  int delivered = 0;   ///< chunks received (loss retries excluded)
  int skipped = 0;     ///< chunks emitted before the node joined (live edge)
  double joined = 0.0;
  /// Time the node held every chunk of its window [skipped, emitted);
  /// negative while incomplete.
  double completion_time = -1.0;
  /// Data rate between the warmup-th and the latest delivery; the
  /// execution's steady-state throughput measure for this node.
  double steady_rate = 0.0;
  int max_buffer = 0;  ///< peak out-of-order backlog (received - in-order)
};

/// Aggregate outcome; `achieved_rate` is the min steady rate over alive
/// non-source nodes — directly comparable to the planner's throughput T.
struct ExecutionReport {
  double now = 0.0;
  int emitted = 0;
  std::uint64_t delivered_chunks = 0;
  std::uint64_t losses = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t hol_stalls = 0;
  std::uint64_t duplicates = 0;  ///< overtaken copies that arrived late
  double achieved_rate = 0.0;
  double planned_rate = 0.0;  ///< caller-supplied reference (scheme T)
  /// planned / achieved; 1 means the plan's fluid rate was met exactly,
  /// +inf when nothing was delivered.
  double stretch = std::numeric_limits<double>::infinity();
  std::vector<NodeProgress> nodes;
};

/// Cumulative per-pipe telemetry, the raw signal the control plane's
/// capacity estimators difference across sampling windows. `busy_time` and
/// `completed` only count *finished* transmissions, so completed/busy_time
/// is the pipe's observed service rate — degradation shows up as that
/// ratio falling below `rate` while losses show up in lost/sent.
struct EdgeStats {
  int from = 0;
  int to = 0;
  double rate = 0.0;           ///< current planned pipe rate
  double busy_time = 0.0;      ///< summed transmission durations completed
  double completed = 0.0;      ///< data that finished transmitting
  std::uint64_t sent = 0;      ///< transmissions completed (lost included)
  std::uint64_t delivered = 0; ///< arrivals that were not lost
  std::uint64_t lost = 0;      ///< arrivals flagged lost (retransmitted)
  bool busy = false;           ///< a transmission is in the wire right now
  double pending_duration = 0.0;  ///< its full transmission time
  // Scheduling outcomes: how often the idle pipe was offered work and why
  // it declined (window backpressure vs nothing eligible to send).
  std::uint64_t attempts = 0;
  std::uint64_t window_stalls = 0;
  std::uint64_t no_chunk = 0;
};

class Execution {
 public:
  explicit Execution(ExecutionConfig config);
  /// Convenience: node k of `scheme`/`instance` becomes Execution node k
  /// (budgets from the instance, pipes from the scheme's edges).
  Execution(const Instance& instance, const BroadcastScheme& scheme,
            ExecutionConfig config);

  // ------------------------------------------------------- live topology
  /// Adds a node and returns its id; the first node added is the source.
  /// A node added mid-stream joins at the live edge: chunks emitted before
  /// its join are skipped (neither wanted nor forwardable).
  int add_node(double upload_budget);
  /// Removes a node: its pipes vanish, chunks in flight from or to it are
  /// dropped, and reservations held on live receivers are released so the
  /// scheduler re-requests those chunks from surviving senders. A node that
  /// crash_node() already tore down may be removed again (the runtime's
  /// crash detection synthesizes the departure later) — that second call
  /// just detaches the frozen pipes.
  void remove_node(int id);
  /// Abrupt crash — the impolite remove_node. The node dies *without*
  /// leaving the overlay: its chunk state and reservations are torn down
  /// (in-flight transmissions stranded, window slots handed back to live
  /// receivers) but every adjacent pipe stays attached with its counters
  /// frozen. Frozen attempts/sent deltas are exactly the silence signature
  /// runtime crash detection reads from EdgeStats. Crashing the current
  /// origin pauses emission until failover_source(). Idempotent on dead
  /// nodes; the source rule is the origin's, not id 0's.
  void crash_node(int id);
  /// Moves the node to a partition group (default 0). Transmissions whose
  /// endpoints sit in different groups are silently dropped on the wire:
  /// the sender keeps sending (attempts/sent/lost keep counting — a
  /// partition looks *different* from a crash to the detector), nothing
  /// arrives until the groups merge again.
  void set_partition_group(int id, int group);
  [[nodiscard]] int partition_group(int id) const;
  /// Egress corruption injection: each chunk the node sends corrupts in
  /// flight with probability `rate` (plus deterministic propagation — a
  /// node that silently accepted a corrupted copy forwards it corrupted).
  void set_corrupt_rate(int id, double rate);
  /// True when the node's stored copy of `chunk` is corrupted (only ever
  /// true with verify_payloads off — hardened receivers never accept one).
  [[nodiscard]] bool chunk_corrupted(int id, int chunk) const;
  /// Source-crash failover: requires the current origin dead; promotes the
  /// most-complete surviving node (max delivered, ties to lowest id) to
  /// origin, writes off chunks with zero surviving replicas (they count in
  /// written_off(), survivors' completion no longer waits on them), and
  /// re-arms emission from the new origin. Returns the new origin id.
  int failover_source();
  [[nodiscard]] int origin() const { return origin_; }
  void set_node_budget(int id, double budget);
  /// Adds or re-rates the (from, to) pipe; rate <= 0 removes it. Re-rating
  /// a busy pipe applies to its next transmission.
  void set_edge(int from, int to, double rate);
  /// Diffs the live pipe set against `desired` {from, to, rate}: missing
  /// pipes are added, absent ones removed, rates updated — in-flight
  /// transmissions on surviving pipes are untouched. This is how a repaired
  /// or rescaled overlay splices in without restarting the stream. One
  /// sorted merge against the senders' `out` lists: removals first, then
  /// adds and re-rates, each in (from, to) order; a key listed twice keeps
  /// its last rate above zero.
  void reconcile_edges(const std::vector<std::tuple<int, int, double>>& desired);
  /// Live emission-rate change (renegotiation). A no-op when unchanged;
  /// otherwise the next emission is rescheduled at the new cadence.
  void set_emission_rate(double rate);
  void stop_emission() { set_emission_rate(0.0); }

  // -------------------------------------------------------- effective world
  // The planned overlay keeps its nominal rates; these knobs model what the
  // network *actually* does underneath — the degradations the adaptive
  // control plane detects from telemetry and re-plans around.
  /// Caps the node's *effective* egress capacity (a brownout): while the
  /// planned rates of its active out-pipes sum past the cap, every
  /// transmission is throttled by cap / planned_out_total — proportional
  /// sharing of the reduced capacity. A plan re-fitted inside the cap runs
  /// at full planned rate again, which is exactly the lever the control
  /// plane pulls. `capacity` < 0 removes the cap (the default).
  void set_effective_capacity(int id, double capacity);
  [[nodiscard]] double effective_capacity(int id) const;
  /// Assigns the node's egress WAN class: every pipe out of `id` without an
  /// explicit per-edge override uses this profile (current and future pipes
  /// alike — re-planned edges inherit it).
  void set_egress_profile(int id, const LinkProfile& profile);
  [[nodiscard]] const LinkProfile& egress_profile(int id) const;
  /// Per-edge override, stronger than the sender's egress profile; persists
  /// across reconcile_edges (a re-planned edge re-acquires it).
  void set_edge_profile(int from, int to, const LinkProfile& profile);
  void clear_edge_profile(int from, int to);

  /// Cumulative per-pipe counters, ordered by (from, to) — deterministic —
  /// into a caller-owned buffer (cleared first). The runtime reads each
  /// stream once per control tick into one reused frame, so the steady
  /// state allocates nothing (Runtime::read_frame).
  void edge_stats_into(std::vector<EdgeStats>& out) const;

  // ------------------------------------------------------------ advance
  /// Processes every event with time <= t and advances the clock to t.
  void run_until(double t);
  /// Drains the queue completely (requires a bounded stream: total_chunks
  /// set or emission stopped — throws otherwise).
  void run_to_completion();

  // ------------------------------------------------------------- observe
  [[nodiscard]] double now() const { return now_; }
  [[nodiscard]] int emitted() const { return emitted_; }
  [[nodiscard]] int num_nodes() const { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] int alive_nodes() const { return alive_nodes_; }
  [[nodiscard]] int num_pipes() const {
    return static_cast<int>(pipes_.size() - free_pipes_.size());
  }
  [[nodiscard]] bool node_alive(int id) const;
  [[nodiscard]] int delivered(int id) const;
  [[nodiscard]] double completion_time(int id) const;
  [[nodiscard]] std::uint64_t delivered_chunks() const { return delivered_chunks_; }
  [[nodiscard]] std::uint64_t losses() const { return losses_; }
  [[nodiscard]] std::uint64_t retransmits() const { return retransmits_; }
  [[nodiscard]] std::uint64_t hol_stalls() const { return hol_stalls_; }
  [[nodiscard]] std::uint64_t duplicates() const { return duplicates_; }
  /// Corrupted arrivals caught by checksum verification (re-requested).
  [[nodiscard]] std::uint64_t corruptions() const { return corruptions_; }
  /// Corrupted arrivals silently accepted (verify_payloads off).
  [[nodiscard]] std::uint64_t corrupted_accepted() const {
    return corrupted_accepted_;
  }
  /// Chunks whose every replica died with crashed nodes (failover wrote
  /// them off; survivors complete without them).
  [[nodiscard]] std::uint64_t written_off() const { return written_off_; }
  [[nodiscard]] const ExecutionConfig& config() const { return config_; }

  [[nodiscard]] NodeProgress progress(int id) const;
  [[nodiscard]] ExecutionReport report(double planned_rate) const;

  /// Per-delivery chunk latencies (arrival - emission) accumulated since
  /// the last drain; empty unless config.collect_latencies.
  std::vector<double> drain_latencies();

  /// Audits the execution's invariants. (1) Bounded multi-port: the summed
  /// rates of every node's *concurrently transmitting* pipes stay within
  /// its budget. (2) No orphans — the mid-fault teardown paths must leak
  /// nothing: every in-flight copy toward a live receiver is backed by a
  /// reservation (or the chunk was already delivered and the copy is a
  /// doomed duplicate), every reservation counts exactly its in-flight
  /// copies, window_used equals the total copies toward the node, dead
  /// nodes hold zero window slots and reservations, and each node's
  /// planned_out matches its active out-pipes. Returns human-readable
  /// violations (empty = ok); failures auto-dump the flight recorder.
  [[nodiscard]] std::vector<std::string> validate(double tol = 1e-7) const;

 private:
  struct Node {
    double budget = 0.0;
    bool alive = false;
    /// Dead by crash_node(): chunk state is torn down but the frozen pipes
    /// are still attached, and a later remove_node() must be accepted (the
    /// runtime's synthesized departure finishes the cleanup).
    bool crashed = false;
    /// Partition group; transmissions across groups drop on the wire.
    int partition_group = 0;
    /// Injected egress corruption probability per transmission.
    double corrupt_rate = 0.0;
    /// Effective egress cap (brownout; < 0 = uncapped) and WAN class.
    double effective_capacity = -1.0;
    /// Summed planned rates of the node's active out-pipes, maintained at
    /// every pipe add/re-rate/remove — the throttle denominator, so the
    /// hot send path never re-sums the adjacency list.
    double planned_out = 0.0;
    LinkProfile egress;
    double joined = 0.0;
    int skip_before = 0;   ///< chunks < this id are outside the window
    int next_missing = 0;  ///< smallest wanted chunk id not yet received
    int delivered = 0;
    int window_used = 0;   ///< chunks currently in flight toward this node
    int max_buffer = 0;
    double completion_time = -1.0;
    double warmup_time = -1.0;  ///< time of the warmup-th delivery
    double last_time = -1.0;    ///< time of the latest delivery
    std::vector<std::uint64_t> have;     // received bitset
    std::vector<std::uint64_t> corrupt;  // received-but-damaged bitset
    /// Active transmissions toward this node, one entry per chunk, kept
    /// sorted by chunk. `eta` is the min arrival time among them
    /// (conservative under cancellations: a stale min only makes
    /// overtaking harder, never unsafe). Every copy holds a window slot, so
    /// the list never outgrows the effective window: a flat vector the
    /// ascending pick scans walk with one cursor.
    struct Reservation {
      int chunk = 0;
      int count = 0;
      double eta = 0.0;
    };
    std::vector<Reservation> inflight;
    /// The first reservation with chunk >= `chunk` (end() if none).
    [[nodiscard]] std::vector<Reservation>::iterator reservation_at(int chunk);
    /// Drops one copy of `chunk`'s reservation, erasing it at zero.
    void release_copy(int chunk);
    std::vector<int> out;  ///< pipe slots, kept sorted by receiver id
    std::vector<int> in;   ///< pipe slots, kept sorted by sender id
  };
  /// Lineage bookkeeping for one pending transmission (filled iff
  /// config_.lineage != nullptr): when the successful attempt started and
  /// what the scheduler saw when it claimed the chunk.
  struct LineagePending {
    double start = 0.0;
    bool hol = false;
    bool overtake = false;
  };

  struct Pipe {
    int from = -1;
    int to = -1;
    double rate = 0.0;
    std::uint64_t generation = 0;
    bool active = false;
    bool busy = false;
    /// Chunks sent on this pipe whose arrival (or loss notice) is still
    /// pending — the transmitting chunk plus any pipelining through the
    /// propagation latency. Removal releases every one of them, or the
    /// receiver's window slots and reservations would leak when the
    /// generation bump strands the queued arrivals.
    std::vector<int> in_flight;
    /// Parallel to in_flight, same indices (maintained iff
    /// config_.lineage != nullptr): per-transmission lineage state. A
    /// vector, not a map — the hot path must not hash or allocate.
    std::vector<LineagePending> lineage_inflight;
    /// window_stalls watermark at this pipe's last successful claim; a
    /// delta since then marks the next hop HOL-stalled.
    std::uint64_t lineage_stall_mark = 0;
    util::Xoshiro256 rng{0};
    // Telemetry (cumulative over the pipe's life; dies with the pipe).
    double busy_time = 0.0;
    double completed = 0.0;
    double pending_duration = 0.0;  ///< duration of the transmission in wire
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t lost = 0;
    std::uint64_t attempts = 0;
    std::uint64_t window_stalls = 0;
    std::uint64_t no_chunk = 0;
  };

  static bool bit(const std::vector<std::uint64_t>& bits, int i);
  static void set_bit(std::vector<std::uint64_t>& bits, int i);

  [[nodiscard]] bool node_has(const Node& node, int chunk) const;
  Node& node_at(int id, const char* who);

  [[nodiscard]] const LinkProfile& profile_for(const Pipe& pipe) const;

  /// Runs one queued event; returns the logical events it stands for (a
  /// combined zero-latency send-complete + arrival counts two).
  int process(const ChunkEvent& event);
  void emit_chunks();
  void schedule_next_emission();
  void on_send_complete(const ChunkEvent& event);
  void on_arrival(const ChunkEvent& event);
  void deliver(Node& node, int node_id, int chunk);
  /// Rarest-first candidate selection: `pick_linear` is the semantics of
  /// record (per-chunk ascending window scan); `pick_indexed` sweeps the
  /// window word by word over sender.have & ~receiver.have. Both produce
  /// the identical pick.
  void pick_linear(const Node& sender, const Node& receiver, double my_eta,
                   double rescue, int start, int end, int& best,
                   int& overtake) const;
  void pick_indexed(const Node& sender, const Node& receiver, double my_eta,
                    double rescue, int start, int end, int& best,
                    int& overtake) const;
  /// Profiler classification of a pick as index_picks (vs linear_scans):
  /// the window [start, end) holds at most kIndexProbeBudget chunks, or
  /// `best` ranks within that many in (replicas, id) order over it.
  [[nodiscard]] bool within_probe_budget(int start, int end, int best) const;
  /// Rarest-first pick + transmission start for one idle pipe.
  void try_send(int pipe_slot);
  void activate_sender(int node_id);
  void activate_receiver(int node_id);
  /// The live (from, to) pipe's slot, by binary search of the sender's
  /// `out` list; -1 when there is none.
  [[nodiscard]] int pipe_slot(int from, int to) const;
  /// Re-rates live pipe `slot`, or adds (from, to) at `rate` when slot < 0
  /// (set_edge's checks and semantics; `rate` > kMinRate).
  void put_pipe(int slot, int from, int to, double rate);
  void remove_pipe(int pipe_slot);
  /// Drops one cancelled transmission's reservation + window slot on a
  /// live receiver so the chunk is re-requested elsewhere.
  void release_reservation(int receiver_id, int chunk);

  /// Hands every alive node the chunk (no delivered credit) so completion
  /// stops waiting on data nobody holds — failover's answer to chunks whose
  /// last replica crashed.
  void write_off_chunk(int chunk);

  ExecutionConfig config_;
  EventQueue queue_;
  double now_ = 0.0;
  int emitted_ = 0;
  int origin_ = 0;  ///< emitting node; moves on failover_source()
  double last_emit_time_ = 0.0;
  std::uint64_t emission_generation_ = 0;
  double emission_rate_ = 0.0;

  std::vector<Node> nodes_;
  int alive_nodes_ = 0;
  /// Pipe slots; the live ones are indexed by their sender's `out` list
  /// (ascending receiver), so walking nodes_ in id order visits every live
  /// pipe in (from, to) order. A freed slot goes to free_pipes_ and is
  /// recycled last-freed first.
  std::vector<Pipe> pipes_;
  std::vector<int> free_pipes_;
  std::uint64_t pipe_streams_ = 0;  ///< loss-stream index of the next pipe

  std::vector<double> emit_time_;  ///< per chunk, for latency measurement
  std::vector<int> replicas_;      ///< per chunk, alive holders (rarest-first)
  /// (from, to) -> explicit LinkProfile override (outlives the pipe).
  std::map<std::pair<int, int>, LinkProfile> edge_profiles_;

  std::uint64_t delivered_chunks_ = 0;
  std::uint64_t losses_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t hol_stalls_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t corruptions_ = 0;
  std::uint64_t corrupted_accepted_ = 0;
  std::uint64_t written_off_ = 0;
  std::vector<double> pending_latencies_;

  // Lineage failed-attempt tally per (receiver, chunk) — touched only on
  // losses/corruptions, so a map is fine off the hot path. The per-
  // transmission state lives in Pipe::lineage_inflight.
  struct LineageRetry {
    int count = 0;
    double wasted = 0.0;
  };
  static std::uint64_t lineage_key(int a, int b) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
           static_cast<std::uint32_t>(b);
  }
  std::unordered_map<std::uint64_t, LineageRetry> lineage_retry_;
  /// Outstanding lineage_retry_ entries per receiver; lets the delivery
  /// path skip the hash lookup for receivers with no pending retry tally.
  std::vector<std::uint16_t> lineage_retry_nodes_;

  // Profiling only (maintained iff config_.profiler != nullptr): scheduler
  // pick telemetry plus the last-flushed counter snapshot, so run_until
  // records deltas without per-event profiler calls.
  std::uint64_t sched_attempts_ = 0;
  std::uint64_t sched_no_chunk_ = 0;
  std::uint64_t sched_index_picks_ = 0;
  std::uint64_t sched_linear_scans_ = 0;
  struct ProfileMark {
    std::uint64_t delivered = 0;
    std::uint64_t losses = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t hol_stalls = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t attempts = 0;
    std::uint64_t no_chunk = 0;
    std::uint64_t index_picks = 0;
    std::uint64_t linear_scans = 0;
    int emitted = 0;
  };
  ProfileMark profile_mark_;
  /// Flushes counter deltas since the last flush into the profiler.
  void flush_profile(std::uint64_t events);
};

}  // namespace bmp::dataplane
