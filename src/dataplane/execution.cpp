#include "bmp/dataplane/execution.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "bmp/obs/flight_recorder.hpp"
#include "bmp/obs/lineage.hpp"
#include "bmp/obs/profiler.hpp"
#include "bmp/obs/trace.hpp"

namespace bmp::dataplane {

namespace {
/// Chunk-lifecycle sampling gate: id stride keeps sampled chunks traceable
/// end to end (every hop of chunk k appears, or none of them).
bool traced_chunk(const ExecutionConfig& config, int chunk) {
  return config.trace != nullptr && config.trace_sample > 0 &&
         chunk % config.trace_sample == 0;
}
/// Below this a pipe rate is treated as edge removal (mirrors the scheme's
/// kZeroTol: planned overlays never carry meaningful rates this small).
constexpr double kMinRate = 1e-12;
/// A busy pipe re-rated upward by more than this factor restarts its
/// in-flight transmission at the new rate: the old (slow) transmission
/// would otherwise squat the wire — a pipe re-planned from a trickle to a
/// main artery could stay "busy" for minutes of virtual time while its
/// receiver starves on a planned inflow that never materializes.
constexpr double kRerateRestartFactor = 2.0;
/// Profiler classification of a pick (the gated index_picks/linear_scans
/// split): "indexed" when the window holds at most this many chunks or the
/// pick ranks within this many in (replicas, id) order over the window.
constexpr int kIndexProbeBudget = 96;
constexpr std::uint64_t kAllBits = ~std::uint64_t{0};
}  // namespace

Execution::Execution(ExecutionConfig config) : config_(config) {
  if (!(config_.chunk_size > 0.0) || !std::isfinite(config_.chunk_size)) {
    throw std::invalid_argument("Execution: chunk_size must be > 0");
  }
  if (config_.total_chunks < 0) {
    throw std::invalid_argument("Execution: total_chunks must be >= 0");
  }
  if (config_.receiver_window < 1) {
    throw std::invalid_argument("Execution: receiver_window must be >= 1");
  }
  if (config_.latency < 0.0 || !std::isfinite(config_.latency)) {
    throw std::invalid_argument("Execution: latency must be finite, >= 0");
  }
  if (config_.loss_rate < 0.0 || config_.loss_rate > 0.95) {
    // 1.0 would retransmit forever; 0.95 is already absurd for a WAN.
    throw std::invalid_argument("Execution: loss_rate in [0, 0.95]");
  }
  if (config_.warmup_chunks < 0 || config_.scan_limit < 1) {
    throw std::invalid_argument("Execution: bad warmup/scan limit");
  }
  if (config_.overtake_factor < 0.0 || config_.overtake_factor >= 1.0 ||
      !std::isfinite(config_.overtake_factor)) {
    throw std::invalid_argument("Execution: overtake_factor in [0, 1)");
  }
  if (config_.rescue_factor < 0.0 || config_.rescue_factor >= 1.0 ||
      !std::isfinite(config_.rescue_factor) ||
      config_.rescue_factor_hard < 0.0 || config_.rescue_factor_hard >= 1.0 ||
      !std::isfinite(config_.rescue_factor_hard)) {
    throw std::invalid_argument("Execution: rescue factors in [0, 1)");
  }
  now_ = config_.start_time;
  last_emit_time_ = config_.start_time;
  emission_rate_ = std::max(0.0, config_.emission_rate);
  if (config_.total_chunks > 0 || emission_rate_ > 0.0) {
    ChunkEvent first;
    first.time = config_.start_time;
    first.kind = ChunkEventKind::kEmission;
    first.generation = emission_generation_;
    queue_.push(first);
  }
}

Execution::Execution(const Instance& instance, const BroadcastScheme& scheme,
                     ExecutionConfig config)
    : Execution(config) {
  if (scheme.num_nodes() != instance.size()) {
    throw std::invalid_argument("Execution: instance/scheme size mismatch");
  }
  for (int i = 0; i < instance.size(); ++i) add_node(instance.b(i));
  for (int i = 0; i < scheme.num_nodes(); ++i) {
    for (const auto& [to, rate] : scheme.out_edges(i)) set_edge(i, to, rate);
  }
}

// ----------------------------------------------------------------- bitsets

bool Execution::bit(const std::vector<std::uint64_t>& bits, int i) {
  const std::size_t word = static_cast<std::size_t>(i) >> 6;
  if (word >= bits.size()) return false;
  return (bits[word] >> (static_cast<unsigned>(i) & 63U)) & 1U;
}

void Execution::set_bit(std::vector<std::uint64_t>& bits, int i) {
  const std::size_t word = static_cast<std::size_t>(i) >> 6;
  if (word >= bits.size()) bits.resize(word + 1, 0);
  bits[word] |= std::uint64_t{1} << (static_cast<unsigned>(i) & 63U);
}

bool Execution::node_has(const Node& node, int chunk) const {
  return chunk >= node.skip_before && bit(node.have, chunk);
}

Execution::Node& Execution::node_at(int id, const char* who) {
  if (id < 0 || id >= static_cast<int>(nodes_.size())) {
    throw std::invalid_argument(std::string(who) + ": unknown node");
  }
  return nodes_[static_cast<std::size_t>(id)];
}

std::vector<Execution::Node::Reservation>::iterator
Execution::Node::reservation_at(int chunk) {
  return std::lower_bound(
      inflight.begin(), inflight.end(), chunk,
      [](const Reservation& r, int c) { return r.chunk < c; });
}

void Execution::Node::release_copy(int chunk) {
  const auto it = reservation_at(chunk);
  if (it != inflight.end() && it->chunk == chunk && --it->count <= 0) {
    inflight.erase(it);
  }
}

// ---------------------------------------------------------- live topology

int Execution::add_node(double upload_budget) {
  if (!is_valid_bandwidth(upload_budget)) {
    throw std::invalid_argument("Execution::add_node: invalid budget");
  }
  const int id = static_cast<int>(nodes_.size());
  Node node;
  node.budget = upload_budget;
  node.alive = true;
  // Until a WAN class is assigned, the node's egress behaves per the
  // config-wide defaults (the pre-LinkProfile semantics).
  node.egress = LinkProfile{config_.loss_rate, config_.latency, 0.0};
  node.joined = now_;
  node.skip_before = emitted_;  // live-edge join: no catch-up of old chunks
  node.next_missing = emitted_;
  nodes_.push_back(std::move(node));
  ++alive_nodes_;
  if (id == 0 && (emission_rate_ > 0.0 ||
                  (config_.total_chunks > 0 &&
                   emitted_ < config_.total_chunks))) {
    // The source just came into existence: re-arm the emission chain in
    // case an emission event already fired into the empty execution and
    // died there.
    ++emission_generation_;
    ChunkEvent first;
    first.time = std::max(now_, config_.start_time);
    first.kind = ChunkEventKind::kEmission;
    first.generation = emission_generation_;
    queue_.push(first);
  }
  return id;
}

void Execution::remove_node(int id) {
  if (id == 0) {
    throw std::invalid_argument("Execution::remove_node: source is immortal");
  }
  Node& node = node_at(id, "Execution::remove_node");
  if (!node.alive) {
    if (!node.crashed) {
      throw std::invalid_argument("Execution::remove_node: node already dead");
    }
    // crash_node already tore down the chunk state and reservations but
    // left the frozen pipes attached (their silence is the detection
    // signal). The synthesized departure finishes the job: detach them.
    node.crashed = false;
    std::vector<int> doomed = node.in;
    doomed.insert(doomed.end(), node.out.begin(), node.out.end());
    std::vector<int> wake;
    for (const int slot : doomed) {
      const int receiver = pipes_[static_cast<std::size_t>(slot)].to;
      remove_pipe(slot);
      if (receiver != id) wake.push_back(receiver);
    }
    for (const int receiver : wake) activate_receiver(receiver);
    return;
  }
  node.alive = false;
  --alive_nodes_;
  // The departed copies stop counting toward rarity.
  for (int chunk = node.skip_before; chunk < emitted_; ++chunk) {
    if (bit(node.have, chunk)) --replicas_[static_cast<std::size_t>(chunk)];
  }
  std::vector<int> doomed = node.in;
  doomed.insert(doomed.end(), node.out.begin(), node.out.end());
  std::vector<int> wake;
  for (const int slot : doomed) {
    const int receiver = pipes_[static_cast<std::size_t>(slot)].to;
    remove_pipe(slot);
    if (receiver != id) wake.push_back(receiver);
  }
  // Free the dead node's chunk state — a churny channel would otherwise
  // accumulate one bitset per departed peer forever.
  node.have.clear();
  node.have.shrink_to_fit();
  node.inflight.clear();
  node.window_used = 0;
  for (const int receiver : wake) activate_receiver(receiver);
}

void Execution::crash_node(int id) {
  Node& node = node_at(id, "Execution::crash_node");
  if (!node.alive) return;  // a crash on a corpse is a no-op
  node.alive = false;
  node.crashed = true;
  --alive_nodes_;
  // The crashed copies stop counting toward rarity — survivors must
  // re-spread anything the corpse alone held onward.
  for (int chunk = node.skip_before; chunk < emitted_; ++chunk) {
    if (bit(node.have, chunk)) --replicas_[static_cast<std::size_t>(chunk)];
  }
  // Freeze every adjacent pipe *in place*: strand in-flight transmissions
  // (generation bump), hand their window slots and reservations back to
  // live receivers, but keep the pipes attached and active. try_send's
  // aliveness check stops all future traffic, so the pipes' attempts/sent
  // counters flatline — the exact silence signature crash detection reads.
  std::vector<int> wake;
  const auto freeze = [&](int slot) {
    Pipe& pipe = pipes_[static_cast<std::size_t>(slot)];
    for (const int chunk : pipe.in_flight) {
      release_reservation(pipe.to, chunk);
    }
    pipe.in_flight.clear();
    pipe.lineage_inflight.clear();
    ++pipe.generation;
    pipe.busy = false;
    pipe.pending_duration = 0.0;
    if (pipe.to != id) wake.push_back(pipe.to);
  };
  for (const int slot : node.out) freeze(slot);
  for (const int slot : node.in) freeze(slot);
  node.have.clear();
  node.have.shrink_to_fit();
  node.corrupt.clear();
  node.corrupt.shrink_to_fit();
  node.inflight.clear();
  node.window_used = 0;
  if (id == origin_) ++emission_generation_;  // emission pauses at the crash
  for (const int receiver : wake) activate_receiver(receiver);
}

void Execution::set_partition_group(int id, int group) {
  node_at(id, "Execution::set_partition_group").partition_group = group;
}

int Execution::partition_group(int id) const {
  if (id < 0 || id >= static_cast<int>(nodes_.size())) {
    throw std::invalid_argument("Execution::partition_group: unknown node");
  }
  return nodes_[static_cast<std::size_t>(id)].partition_group;
}

void Execution::set_corrupt_rate(int id, double rate) {
  if (rate < 0.0 || rate > 1.0 || !std::isfinite(rate)) {
    throw std::invalid_argument("Execution::set_corrupt_rate: rate in [0, 1]");
  }
  node_at(id, "Execution::set_corrupt_rate").corrupt_rate = rate;
}

bool Execution::chunk_corrupted(int id, int chunk) const {
  if (id < 0 || id >= static_cast<int>(nodes_.size())) {
    throw std::invalid_argument("Execution::chunk_corrupted: unknown node");
  }
  return bit(nodes_[static_cast<std::size_t>(id)].corrupt, chunk);
}

void Execution::write_off_chunk(int chunk) {
  ++written_off_;
  int holders = 0;
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    Node& node = nodes_[id];
    if (!node.alive || chunk < node.skip_before) continue;
    ++holders;
    if (bit(node.have, chunk)) continue;
    set_bit(node.have, chunk);  // no delivered credit: the data is gone
    while (node.next_missing < emitted_ && bit(node.have, node.next_missing)) {
      ++node.next_missing;
    }
    if (config_.total_chunks > 0 && emitted_ == config_.total_chunks &&
        node.next_missing >= config_.total_chunks &&
        node.completion_time < 0.0) {
      node.completion_time = now_;
    }
  }
  replicas_[static_cast<std::size_t>(chunk)] = holders;
}

int Execution::failover_source() {
  const Node& old_origin = nodes_.at(static_cast<std::size_t>(origin_));
  if (old_origin.alive) {
    throw std::invalid_argument(
        "Execution::failover_source: the origin is still alive");
  }
  int best = -1;
  int best_delivered = -1;
  for (int id = 0; id < static_cast<int>(nodes_.size()); ++id) {
    const Node& node = nodes_[static_cast<std::size_t>(id)];
    if (!node.alive) continue;
    if (node.delivered > best_delivered) {
      best = id;
      best_delivered = node.delivered;
    }
  }
  if (best < 0) {
    throw std::invalid_argument("Execution::failover_source: no survivors");
  }
  origin_ = best;
  // Chunks whose every replica died with the old origin are unrecoverable:
  // write them off so survivors' completion doesn't wait forever.
  for (int chunk = 0; chunk < emitted_; ++chunk) {
    if (replicas_[static_cast<std::size_t>(chunk)] == 0) {
      write_off_chunk(chunk);
    }
  }
  // Re-arm emission from the new origin (the crash paused it).
  ++emission_generation_;
  if (emission_rate_ > 0.0 ||
      (config_.total_chunks > 0 && emitted_ < config_.total_chunks)) {
    ChunkEvent next;
    next.time = emission_rate_ > 0.0 && emitted_ > 0
                    ? std::max(now_, last_emit_time_ +
                                         config_.chunk_size / emission_rate_)
                    : std::max(now_, config_.start_time);
    next.kind = ChunkEventKind::kEmission;
    next.generation = emission_generation_;
    queue_.push(next);
  }
  activate_sender(best);
  return best;
}

void Execution::set_node_budget(int id, double budget) {
  if (!is_valid_bandwidth(budget)) {
    throw std::invalid_argument("Execution::set_node_budget: invalid budget");
  }
  node_at(id, "Execution::set_node_budget").budget = budget;
}

int Execution::pipe_slot(int from, int to) const {
  if (from < 0 || from >= static_cast<int>(nodes_.size())) return -1;
  const std::vector<int>& out = nodes_[static_cast<std::size_t>(from)].out;
  const auto it = std::lower_bound(
      out.begin(), out.end(), to, [this](int slot, int receiver) {
        return pipes_[static_cast<std::size_t>(slot)].to < receiver;
      });
  if (it == out.end() || pipes_[static_cast<std::size_t>(*it)].to != to) {
    return -1;
  }
  return *it;
}

void Execution::set_edge(int from, int to, double rate) {
  if (from == to) {
    throw std::invalid_argument("Execution::set_edge: self-loop");
  }
  const int slot = pipe_slot(from, to);
  if (rate <= kMinRate) {
    if (slot < 0) return;
    const int receiver = pipes_[static_cast<std::size_t>(slot)].to;
    remove_pipe(slot);
    activate_receiver(receiver);
    return;
  }
  put_pipe(slot, from, to, rate);
}

void Execution::put_pipe(int slot, int from, int to, double rate) {
  if (slot < 0 && from == to) {
    throw std::invalid_argument("Execution::set_edge: self-loop");
  }
  if (!std::isfinite(rate)) {
    throw std::invalid_argument("Execution::set_edge: rate must be finite");
  }
  if (slot >= 0) {
    // Re-rate in place; an in-flight transmission keeps its old timing, the
    // next one uses the new rate — unless the new rate is sharply higher,
    // in which case the slow transmission is cancelled (reservations
    // released, chunks re-requested) and the pipe restarts immediately.
    Pipe& pipe = pipes_[static_cast<std::size_t>(slot)];
    const bool restart =
        pipe.busy && rate > pipe.rate * kRerateRestartFactor;
    nodes_[static_cast<std::size_t>(pipe.from)].planned_out +=
        rate - pipe.rate;
    pipe.rate = rate;
    if (restart) {
      for (const int chunk : pipe.in_flight) {
        release_reservation(pipe.to, chunk);
      }
      pipe.in_flight.clear();
      pipe.lineage_inflight.clear();
      ++pipe.generation;  // strands the cancelled transmission's events
      pipe.busy = false;
      pipe.pending_duration = 0.0;
      const int receiver = pipe.to;
      try_send(slot);
      // The released window slots may unblock other in-pipes too.
      activate_receiver(receiver);
    }
    return;
  }
  Node& sender = node_at(from, "Execution::set_edge");
  Node& receiver = node_at(to, "Execution::set_edge");
  if (!sender.alive || !receiver.alive) {
    throw std::invalid_argument("Execution::set_edge: endpoint is dead");
  }
  if (!free_pipes_.empty()) {
    slot = free_pipes_.back();
    free_pipes_.pop_back();
  } else {
    slot = static_cast<int>(pipes_.size());
    pipes_.emplace_back();
  }
  Pipe& pipe = pipes_[static_cast<std::size_t>(slot)];
  pipe.from = from;
  pipe.to = to;
  pipe.rate = rate;
  pipe.active = true;
  pipe.busy = false;
  pipe.in_flight.clear();  // a recycled slot starts with a clean wire
  pipe.busy_time = 0.0;
  pipe.completed = 0.0;
  pipe.pending_duration = 0.0;
  pipe.sent = 0;
  pipe.delivered = 0;
  pipe.lost = 0;
  pipe.attempts = 0;
  pipe.window_stalls = 0;
  pipe.no_chunk = 0;
  // One independent, replay-stable loss stream per pipe creation: the
  // stream index is a deterministic function of the operation sequence.
  pipe.rng = util::Xoshiro256(config_.seed).fork(++pipe_streams_);
  sender.planned_out += rate;
  sender.out.insert(
      std::upper_bound(sender.out.begin(), sender.out.end(), slot,
                       [this](int a, int b) {
                         return pipes_[static_cast<std::size_t>(a)].to <
                                pipes_[static_cast<std::size_t>(b)].to;
                       }),
      slot);
  receiver.in.insert(
      std::upper_bound(receiver.in.begin(), receiver.in.end(), slot,
                       [this](int a, int b) {
                         return pipes_[static_cast<std::size_t>(a)].from <
                                pipes_[static_cast<std::size_t>(b)].from;
                       }),
      slot);
  try_send(slot);
}

void Execution::reconcile_edges(
    const std::vector<std::tuple<int, int, double>>& desired) {
  // The wanted set in (from, to) order; a repeated key keeps its last
  // positive rate.
  std::vector<std::tuple<int, int, double>> want;
  want.reserve(desired.size());
  for (const auto& edge : desired) {
    if (std::get<2>(edge) > kMinRate) want.push_back(edge);
  }
  const auto key_less = [](const std::tuple<int, int, double>& a,
                           const std::tuple<int, int, double>& b) {
    return std::get<0>(a) < std::get<0>(b) ||
           (std::get<0>(a) == std::get<0>(b) && std::get<1>(a) < std::get<1>(b));
  };
  std::stable_sort(want.begin(), want.end(), key_less);
  std::size_t kept = 0;
  for (std::size_t k = 0; k < want.size(); ++k) {
    if (k + 1 < want.size() && !key_less(want[k], want[k + 1])) continue;
    want[kept++] = want[k];
  }
  want.resize(kept);
  // Merge against the live pipes, which every sender's out list holds in
  // ascending receiver order: a pipe nobody wants is doomed, a wanted key
  // resolves to its live slot (or -1: new).
  std::vector<int> slot_of(want.size(), -1);
  std::vector<int> doomed;
  std::size_t w = 0;
  for (std::size_t from = 0; from < nodes_.size(); ++from) {
    for (const int slot : nodes_[from].out) {
      const auto key = std::make_tuple(static_cast<int>(from),
                                       pipes_[static_cast<std::size_t>(slot)].to,
                                       0.0);
      while (w < want.size() && key_less(want[w], key)) ++w;
      if (w < want.size() && !key_less(key, want[w])) {
        slot_of[w++] = slot;
      } else {
        doomed.push_back(slot);
      }
    }
  }
  std::vector<int> wake;
  for (const int slot : doomed) {
    wake.push_back(pipes_[static_cast<std::size_t>(slot)].to);
    remove_pipe(slot);
  }
  for (std::size_t k = 0; k < want.size(); ++k) {
    const auto& [from, to, rate] = want[k];
    put_pipe(slot_of[k], from, to, rate);
  }
  for (const int receiver : wake) {
    if (nodes_[static_cast<std::size_t>(receiver)].alive) {
      activate_receiver(receiver);
    }
  }
}

void Execution::set_emission_rate(double rate) {
  if (rate < 0.0 || !std::isfinite(rate)) {
    throw std::invalid_argument("Execution: emission rate must be finite, >= 0");
  }
  if (rate == emission_rate_) return;  // no-op: keep the scheduled cadence
  ++emission_generation_;  // invalidate the queued emission, if any
  emission_rate_ = rate;
  if (rate <= 0.0) return;
  ChunkEvent next;
  // Resume from the last emission instant, never before now: a rate change
  // must not double-emit or starve the stream.
  next.time = emitted_ == 0
                  ? std::max(now_, config_.start_time)
                  : std::max(now_, last_emit_time_ + config_.chunk_size / rate);
  next.kind = ChunkEventKind::kEmission;
  next.generation = emission_generation_;
  queue_.push(next);
}

// --------------------------------------------------------- effective world

void Execution::set_effective_capacity(int id, double capacity) {
  // Accept strictly negative (uncap) or positive-finite; reject 0, NaN, inf.
  if (!(capacity < 0.0) && (!(capacity > 0.0) || !std::isfinite(capacity))) {
    throw std::invalid_argument(
        "Execution::set_effective_capacity: capacity must be > 0 (or < 0 to "
        "remove the cap)");
  }
  node_at(id, "Execution::set_effective_capacity").effective_capacity =
      capacity < 0.0 ? -1.0 : capacity;
}

double Execution::effective_capacity(int id) const {
  if (id < 0 || id >= static_cast<int>(nodes_.size())) {
    throw std::invalid_argument("Execution::effective_capacity: unknown node");
  }
  return nodes_[static_cast<std::size_t>(id)].effective_capacity;
}

void Execution::set_egress_profile(int id, const LinkProfile& profile) {
  check_link_profile(profile, "Execution::set_egress_profile");
  node_at(id, "Execution::set_egress_profile").egress = profile;
}

const LinkProfile& Execution::egress_profile(int id) const {
  if (id < 0 || id >= static_cast<int>(nodes_.size())) {
    throw std::invalid_argument("Execution::egress_profile: unknown node");
  }
  return nodes_[static_cast<std::size_t>(id)].egress;
}

void Execution::set_edge_profile(int from, int to, const LinkProfile& profile) {
  check_link_profile(profile, "Execution::set_edge_profile");
  edge_profiles_[std::make_pair(from, to)] = profile;
}

void Execution::clear_edge_profile(int from, int to) {
  edge_profiles_.erase(std::make_pair(from, to));
}

const LinkProfile& Execution::profile_for(const Pipe& pipe) const {
  const auto it = edge_profiles_.find(std::make_pair(pipe.from, pipe.to));
  if (it != edge_profiles_.end()) return it->second;
  return nodes_[static_cast<std::size_t>(pipe.from)].egress;
}

void Execution::edge_stats_into(std::vector<EdgeStats>& out) const {
  out.clear();
  out.reserve(static_cast<std::size_t>(num_pipes()));
  for (const Node& node : nodes_) {
    for (const int slot : node.out) {
      const Pipe& pipe = pipes_[static_cast<std::size_t>(slot)];
      EdgeStats entry;
      entry.from = pipe.from;
      entry.to = pipe.to;
      entry.rate = pipe.rate;
      entry.busy_time = pipe.busy_time;
      entry.completed = pipe.completed;
      entry.sent = pipe.sent;
      entry.delivered = pipe.delivered;
      entry.lost = pipe.lost;
      entry.busy = pipe.busy;
      entry.pending_duration = pipe.busy ? pipe.pending_duration : 0.0;
      entry.attempts = pipe.attempts;
      entry.window_stalls = pipe.window_stalls;
      entry.no_chunk = pipe.no_chunk;
      out.push_back(entry);
    }
  }
}

void Execution::remove_pipe(int slot) {
  Pipe& pipe = pipes_[static_cast<std::size_t>(slot)];
  if (!pipe.active) return;
  // Every transmission still pending on this pipe — the one in the wire
  // *and* any pipelining through the propagation latency — must hand its
  // window slot and reservation back, because the generation bump below
  // strands their queued arrival events.
  for (const int chunk : pipe.in_flight) {
    release_reservation(pipe.to, chunk);
  }
  pipe.in_flight.clear();
  pipe.lineage_inflight.clear();
  ++pipe.generation;  // strands the pipe's queued events
  pipe.active = false;
  pipe.busy = false;
  nodes_[static_cast<std::size_t>(pipe.from)].planned_out -= pipe.rate;
  auto detach = [slot](std::vector<int>& list) {
    list.erase(std::remove(list.begin(), list.end(), slot), list.end());
  };
  detach(nodes_[static_cast<std::size_t>(pipe.from)].out);
  detach(nodes_[static_cast<std::size_t>(pipe.to)].in);
  free_pipes_.push_back(slot);
}

void Execution::release_reservation(int receiver_id, int chunk) {
  Node& receiver = nodes_[static_cast<std::size_t>(receiver_id)];
  if (!receiver.alive) return;  // a dead receiver's bookkeeping died with it
  receiver.release_copy(chunk);
  --receiver.window_used;
}

// ----------------------------------------------------------------- advance

void Execution::run_until(double t) {
  if (t < now_) {
    throw std::invalid_argument("Execution::run_until: time went backwards");
  }
  std::uint64_t events = 0;
  while (!queue_.empty() && queue_.top().time <= t) {
    const ChunkEvent event = queue_.pop();
    now_ = event.time;
    events += process(event);
  }
  now_ = t;
  if (config_.profiler != nullptr) flush_profile(events);
}

void Execution::run_to_completion() {
  if (emission_rate_ > 0.0 && config_.total_chunks == 0) {
    throw std::invalid_argument(
        "Execution::run_to_completion: unbounded stream (set total_chunks or "
        "stop_emission first)");
  }
  std::uint64_t events = 0;
  while (!queue_.empty()) {
    const ChunkEvent event = queue_.pop();
    now_ = event.time;
    events += process(event);
  }
  if (config_.profiler != nullptr) flush_profile(events);
}

void Execution::flush_profile(std::uint64_t events) {
  obs::Profiler& prof = *config_.profiler;
  ProfileMark& mark = profile_mark_;
  prof.enter("dataplane/advance");
  prof.count("dataplane/advance", "events", events);
  prof.count("dataplane/advance", "emitted",
             static_cast<std::uint64_t>(emitted_ - mark.emitted));
  prof.count("dataplane/advance", "delivered", delivered_chunks_ - mark.delivered);
  prof.count("dataplane/advance", "losses", losses_ - mark.losses);
  prof.count("dataplane/advance", "retransmits", retransmits_ - mark.retransmits);
  prof.count("dataplane/advance", "duplicates", duplicates_ - mark.duplicates);
  prof.count("dataplane/advance", "hol_stalls", hol_stalls_ - mark.hol_stalls);
  prof.enter("dataplane/scheduler");
  prof.count("dataplane/scheduler", "attempts", sched_attempts_ - mark.attempts);
  prof.count("dataplane/scheduler", "window_stalls",
             hol_stalls_ - mark.hol_stalls);
  prof.count("dataplane/scheduler", "no_chunk", sched_no_chunk_ - mark.no_chunk);
  prof.count("dataplane/scheduler", "index_picks",
             sched_index_picks_ - mark.index_picks);
  prof.count("dataplane/scheduler", "linear_scans",
             sched_linear_scans_ - mark.linear_scans);
  mark.emitted = emitted_;
  mark.delivered = delivered_chunks_;
  mark.losses = losses_;
  mark.retransmits = retransmits_;
  mark.duplicates = duplicates_;
  mark.hol_stalls = hol_stalls_;
  mark.attempts = sched_attempts_;
  mark.no_chunk = sched_no_chunk_;
  mark.index_picks = sched_index_picks_;
  mark.linear_scans = sched_linear_scans_;
}

int Execution::process(const ChunkEvent& event) {
  switch (event.kind) {
    case ChunkEventKind::kEmission:
      if (event.generation == emission_generation_) emit_chunks();
      return 1;
    case ChunkEventKind::kSendComplete:
      on_send_complete(event);
      return 1;
    case ChunkEventKind::kArrival:
      on_arrival(event);
      return 1;
    case ChunkEventKind::kSendAndArrival:
      on_send_complete(event);
      on_arrival(event);
      return 2;
  }
  return 1;
}

void Execution::emit_chunks() {
  if (nodes_.empty()) return;  // nobody to hold the stream yet
  const bool paced = emission_rate_ > 0.0;
  const int target = config_.total_chunks > 0
                         ? config_.total_chunks
                         : (paced ? emitted_ + 1 : emitted_);
  // Paced: one chunk per event. File mode (rate <= 0): everything at once.
  int burst = paced ? 1 : target - emitted_;
  Node& source = nodes_[static_cast<std::size_t>(origin_)];
  while (burst-- > 0 && emitted_ < target) {
    const int chunk = emitted_++;
    last_emit_time_ = now_;
    emit_time_.push_back(now_);
    replicas_.push_back(source.alive ? 1 : 0);
    set_bit(source.have, chunk);
    if (config_.lineage != nullptr) {
      config_.lineage->record_emit(config_.trace_id, origin_, chunk, now_);
    }
    if (traced_chunk(config_, chunk)) {
      config_.trace->instant_at(obs::Lane::kExecution, "dataplane", "emit",
                                now_,
                                {{"channel", config_.trace_id},
                                 {"chunk", chunk}});
    }
  }
  activate_sender(origin_);
  schedule_next_emission();
}

void Execution::schedule_next_emission() {
  if (emission_rate_ <= 0.0) return;
  if (config_.total_chunks > 0 && emitted_ >= config_.total_chunks) return;
  ChunkEvent next;
  next.time = now_ + config_.chunk_size / emission_rate_;
  next.kind = ChunkEventKind::kEmission;
  next.generation = emission_generation_;
  queue_.push(next);
}

void Execution::on_send_complete(const ChunkEvent& event) {
  Pipe& pipe = pipes_[static_cast<std::size_t>(event.pipe)];
  if (!pipe.active || pipe.generation != event.generation) return;
  pipe.busy = false;
  pipe.busy_time += pipe.pending_duration;
  pipe.completed += config_.chunk_size;
  ++pipe.sent;
  try_send(event.pipe);
}

void Execution::on_arrival(const ChunkEvent& event) {
  Pipe& pipe = pipes_[static_cast<std::size_t>(event.pipe)];
  if (!pipe.active || pipe.generation != event.generation) return;
  const auto flight =
      std::find(pipe.in_flight.begin(), pipe.in_flight.end(), event.chunk);
  LineagePending pending;
  if (config_.lineage != nullptr) {
    const auto index = flight - pipe.in_flight.begin();
    pending = pipe.lineage_inflight[static_cast<std::size_t>(index)];
    pipe.lineage_inflight.erase(pipe.lineage_inflight.begin() + index);
  }
  pipe.in_flight.erase(flight);
  const int receiver_id = pipe.to;
  Node& receiver = nodes_[static_cast<std::size_t>(receiver_id)];
  --receiver.window_used;
  // A checksum mismatch on the hardened path is a loss with a different
  // counter: the reservation opens back up and the chunk is re-requested
  // from another holder.
  const bool checksum_failed =
      !event.lost && event.corrupted && config_.verify_payloads;
  if (event.lost || checksum_failed) ++pipe.lost; else ++pipe.delivered;
  if (event.lost || checksum_failed) {
    receiver.release_copy(event.chunk);
    if (checksum_failed) ++corruptions_; else ++losses_;
    // The loss notice re-opens the chunk for scheduling; every loss leads
    // to exactly one fresh transmission attempt somewhere.
    ++retransmits_;
    if (config_.lineage != nullptr) {
      const auto [retry, inserted] =
          lineage_retry_.try_emplace(lineage_key(receiver_id, event.chunk));
      if (inserted) {
        if (static_cast<std::size_t>(receiver_id) >=
            lineage_retry_nodes_.size()) {
          lineage_retry_nodes_.resize(receiver_id + 1, 0);
        }
        ++lineage_retry_nodes_[receiver_id];
      }
      ++retry->second.count;
      retry->second.wasted += now_ - pending.start;
    }
    if (traced_chunk(config_, event.chunk)) {
      config_.trace->instant_at(obs::Lane::kExecution, "dataplane",
                                checksum_failed ? "corrupt" : "loss", now_,
                                {{"channel", config_.trace_id},
                                 {"chunk", event.chunk},
                                 {"from", pipe.from},
                                 {"to", receiver_id}});
    }
    activate_receiver(receiver_id);
    return;
  }
  if (bit(receiver.have, event.chunk)) {
    // An overtaken copy landing after the chunk was already delivered.
    ++duplicates_;
    activate_receiver(receiver_id);
    return;
  }
  // Later copies arrive as duplicates.
  const auto reserved = receiver.reservation_at(event.chunk);
  if (reserved != receiver.inflight.end() && reserved->chunk == event.chunk) {
    receiver.inflight.erase(reserved);
  }
  if (event.corrupted) {
    // Frozen path (verify_payloads off): the damage is silently accepted —
    // and, worse, forwarded — the failure mode the hardened path closes.
    set_bit(receiver.corrupt, event.chunk);
    ++corrupted_accepted_;
  }
  deliver(receiver, receiver_id, event.chunk);
  if (config_.lineage != nullptr) {
    const bool kept = config_.lineage->record_hop(
        config_.trace_id, pipe.from, receiver_id, event.chunk, pending.start,
        now_, pending.hol, pending.overtake);
    // Per-receiver outstanding-retry counter keeps the common (no prior
    // loss for this receiver) delivery free of any hash lookup.
    if (static_cast<std::size_t>(receiver_id) < lineage_retry_nodes_.size() &&
        lineage_retry_nodes_[receiver_id] != 0) {
      const auto retry =
          lineage_retry_.find(lineage_key(receiver_id, event.chunk));
      if (retry != lineage_retry_.end()) {
        if (kept && retry->second.count > 0) {
          config_.lineage->record_hop_retry(retry->second.count,
                                            retry->second.wasted);
        }
        --lineage_retry_nodes_[receiver_id];
        lineage_retry_.erase(retry);
      }
    }
  }
  activate_receiver(receiver_id);
  activate_sender(receiver_id);
}

void Execution::deliver(Node& node, int node_id, int chunk) {
  set_bit(node.have, chunk);
  ++node.delivered;
  const int replicas = ++replicas_[static_cast<std::size_t>(chunk)];
  ++delivered_chunks_;
  if (traced_chunk(config_, chunk)) {
    config_.trace->instant_at(obs::Lane::kExecution, "dataplane", "deliver",
                              now_,
                              {{"channel", config_.trace_id},
                               {"chunk", chunk},
                               {"node", node_id},
                               {"replicas", replicas}});
  }
  while (node.next_missing < emitted_ && bit(node.have, node.next_missing)) {
    ++node.next_missing;
  }
  const int buffered = node.delivered - (node.next_missing - node.skip_before);
  node.max_buffer = std::max(node.max_buffer, buffered);
  if (node.delivered == config_.warmup_chunks) node.warmup_time = now_;
  node.last_time = now_;
  if (config_.collect_latencies) {
    pending_latencies_.push_back(now_ -
                                 emit_time_[static_cast<std::size_t>(chunk)]);
  }
  if (config_.total_chunks > 0 && emitted_ == config_.total_chunks &&
      node.next_missing >= config_.total_chunks &&
      node.completion_time < 0.0) {
    node.completion_time = now_;
  }
}

// Rarest-first candidate selection, linear form — the semantics of record:
// the eligible unreserved chunk held by the fewest alive nodes; ties break
// to the oldest (smallest id), which the ascending scan gives for free.
// Chunks already in flight to this receiver are only considered for
// *overtaking* — and only when no unreserved chunk is available — to keep
// duplicates rare.
void Execution::pick_linear(const Node& sender, const Node& receiver,
                            double my_eta, double rescue, int start, int end,
                            int& best, int& overtake) const {
  best = -1;
  overtake = -1;
  int best_replicas = std::numeric_limits<int>::max();
  int overtake_replicas = std::numeric_limits<int>::max();
  // The reservations are sorted by chunk and the scan ascends: one cursor.
  auto reserved = receiver.inflight.begin();
  const auto reservations_end = receiver.inflight.end();
  for (int chunk = start; chunk < end; ++chunk) {
    if (bit(receiver.have, chunk)) continue;
    if (!node_has(sender, chunk)) continue;
    while (reserved != reservations_end && reserved->chunk < chunk) ++reserved;
    const bool unreserved =
        reserved == reservations_end || reserved->chunk != chunk;
    const int rep = replicas_[static_cast<std::size_t>(chunk)];
    if (unreserved ||
        (rescue > 0.0 && my_eta - now_ < rescue * (reserved->eta - now_))) {
      // Unreserved, or reserved on a pipe so slow this sender can rescue
      // it: both compete in rarest-first order.
      if (rep < best_replicas) {
        best = chunk;
        best_replicas = rep;
      }
    } else if (config_.overtake_factor > 0.0 && rep < overtake_replicas &&
               my_eta - now_ <
                   config_.overtake_factor * (reserved->eta - now_)) {
      overtake = chunk;
      overtake_replicas = rep;
    }
  }
}

// Word-parallel form: one pass over the window's 64-bit words of
// sender.have & ~receiver.have, walking set bits in id order and keeping
// the min (replicas, id). The reservations are consulted only for a
// chunk whose replica count beats the current best, through a cursor that
// only moves forward, so a deep backlog costs a word sweep plus one pass
// over the (window-bounded) reservation list. Overtake candidates are
// tracked as in pick_linear; they only matter when no best exists, and
// then every candidate was examined, so the pick is identical.
void Execution::pick_indexed(const Node& sender, const Node& receiver,
                             double my_eta, double rescue, int start, int end,
                             int& best, int& overtake) const {
  best = -1;
  overtake = -1;
  int best_replicas = std::numeric_limits<int>::max();
  int overtake_replicas = std::numeric_limits<int>::max();
  const int from = std::max(start, sender.skip_before);
  if (from >= end) return;
  const auto first = static_cast<std::size_t>(from) >> 6;
  const auto last = static_cast<std::size_t>(end - 1) >> 6;
  // The sender holds nothing past its bitset; the receiver lacks it all.
  const std::size_t stop = std::min(last + 1, sender.have.size());
  auto reserved = receiver.inflight.begin();
  const auto reservations_end = receiver.inflight.end();
  for (std::size_t w = first; w < stop; ++w) {
    std::uint64_t word = sender.have[w];
    if (w < receiver.have.size()) word &= ~receiver.have[w];
    if (w == first) word &= kAllBits << (static_cast<unsigned>(from) & 63U);
    if (w == last) word &= kAllBits >> (63U - ((end - 1U) & 63U));
    for (; word != 0; word &= word - 1) {
      const int chunk = static_cast<int>(w << 6) + __builtin_ctzll(word);
      const int rep = replicas_[static_cast<std::size_t>(chunk)];
      if (rep >= best_replicas) continue;
      while (reserved != reservations_end && reserved->chunk < chunk) {
        ++reserved;
      }
      if (reserved == reservations_end || reserved->chunk != chunk ||
          (rescue > 0.0 && my_eta - now_ < rescue * (reserved->eta - now_))) {
        best = chunk;
        best_replicas = rep;
      } else if (config_.overtake_factor > 0.0 && rep < overtake_replicas &&
                 my_eta - now_ <
                     config_.overtake_factor * (reserved->eta - now_)) {
        overtake = chunk;
        overtake_replicas = rep;
      }
    }
  }
}

bool Execution::within_probe_budget(int start, int end, int best) const {
  if (end - start <= kIndexProbeBudget) return true;
  if (best < 0) return false;
  const int best_replicas = replicas_[static_cast<std::size_t>(best)];
  int rank = 0;
  for (int chunk = start; chunk < end; ++chunk) {
    const int rep = replicas_[static_cast<std::size_t>(chunk)];
    if ((rep < best_replicas || (rep == best_replicas && chunk <= best)) &&
        ++rank > kIndexProbeBudget) {
      return false;
    }
  }
  return true;
}

void Execution::try_send(int pipe_slot) {
  Pipe& pipe = pipes_[static_cast<std::size_t>(pipe_slot)];
  if (!pipe.active || pipe.busy) return;
  Node& sender = nodes_[static_cast<std::size_t>(pipe.from)];
  Node& receiver = nodes_[static_cast<std::size_t>(pipe.to)];
  if (!sender.alive || !receiver.alive) return;
  ++pipe.attempts;
  if (config_.profiler != nullptr) ++sched_attempts_;
  // Backpressure: the effective window grants at least one outstanding
  // chunk per in-pipe so a wide fan-in is never throttled structurally.
  const int window = std::max(config_.receiver_window,
                              static_cast<int>(receiver.in.size()));
  if (receiver.window_used >= window) {
    ++hol_stalls_;  // one head-of-line stall per denied send opportunity
    ++pipe.window_stalls;
    return;
  }
  // The *effective* send rate: when the sender's planned out-rates exceed
  // its browned-out capacity, every transmission shares the shortfall
  // proportionally. Jitter is drawn per transmission below; the ETA
  // estimate stays pre-jitter (a conservative reservation estimate).
  const LinkProfile& profile = profile_for(pipe);
  double throttle = 1.0;
  if (sender.effective_capacity >= 0.0 &&
      sender.planned_out > sender.effective_capacity) {
    throttle = sender.effective_capacity / sender.planned_out;
  }
  const double send_rate = pipe.rate * throttle;
  const double my_eta =
      now_ + config_.chunk_size / send_rate + profile.latency;
  const int start = receiver.next_missing;
  const int end = std::min(emitted_, start + config_.scan_limit);
  // Rescue arms only under a pinned in-order frontier (bloated backlog):
  // a healthy stream never pays rescue duplicates.
  const int buffered =
      receiver.delivered - (receiver.next_missing - receiver.skip_before);
  const double rescue =
      config_.rescue_factor > 0.0 &&
              buffered >= config_.rescue_buffer_windows * window
          ? config_.rescue_factor
          : config_.rescue_factor_hard;
  int best = -1;
  int overtake = -1;
  if (config_.use_scan_index) {
    pick_indexed(sender, receiver, my_eta, rescue, start, end, best, overtake);
  } else {
    pick_linear(sender, receiver, my_eta, rescue, start, end, best, overtake);
  }
  if (config_.profiler != nullptr) {
    config_.use_scan_index && within_probe_budget(start, end, best)
        ? ++sched_index_picks_
        : ++sched_linear_scans_;
  }
  const bool used_overtake = best < 0 && overtake >= 0;
  if (best < 0) best = overtake;
  if (best < 0) {
    ++pipe.no_chunk;
    if (config_.profiler != nullptr) ++sched_no_chunk_;
    return;
  }
  pipe.busy = true;
  pipe.in_flight.push_back(best);
  if (config_.lineage != nullptr) {
    // HOL flag: this pipe ate at least one window stall since its last
    // successful claim — the chunk spent scheduler time blocked, not queued.
    LineagePending pending;
    pending.start = now_;
    pending.overtake = used_overtake;
    pending.hol = pipe.window_stalls > pipe.lineage_stall_mark;
    pipe.lineage_stall_mark = pipe.window_stalls;
    pipe.lineage_inflight.push_back(pending);
  }
  auto reservation = receiver.reservation_at(best);
  if (reservation == receiver.inflight.end() || reservation->chunk != best) {
    reservation = receiver.inflight.insert(reservation, {best, 0, my_eta});
  }
  reservation->eta = std::min(reservation->eta, my_eta);
  ++reservation->count;
  ++receiver.window_used;
  double wire_rate = send_rate;
  if (profile.rate_jitter > 0.0) {
    wire_rate *= 1.0 - profile.rate_jitter * pipe.rng.uniform();
  }
  const double duration = config_.chunk_size / wire_rate;
  pipe.pending_duration = duration;
  const double done = now_ + duration;
  // A partitioned wire eats everything: the sender keeps transmitting (its
  // counters keep moving — which is what tells the crash detector this is
  // *not* a crash) but nothing lands until the groups merge.
  const bool partitioned =
      sender.partition_group != receiver.partition_group;
  const bool lost =
      partitioned ||
      (profile.loss_rate > 0.0 && pipe.rng.uniform() < profile.loss_rate);
  // Corruption: a sender holding a damaged copy forwards the damage
  // deterministically; injected egress corruption flips clean payloads
  // with probability corrupt_rate.
  const bool corrupted =
      !lost && (bit(sender.corrupt, best) ||
                (sender.corrupt_rate > 0.0 &&
                 pipe.rng.uniform() < sender.corrupt_rate));
  ChunkEvent event;
  event.time = done;
  event.pipe = pipe_slot;
  event.generation = pipe.generation;
  event.chunk = best;
  event.lost = lost;
  event.corrupted = corrupted;
  if (profile.latency == 0.0) {
    // The arrival coincides with the send-complete: one combined event.
    event.kind = ChunkEventKind::kSendAndArrival;
    queue_.push(event);
    return;
  }
  // Send-complete before the arrival; at positive latency the two are
  // separate heap entries, so other events interleave between them.
  event.kind = ChunkEventKind::kSendComplete;
  queue_.push(event);
  event.time = done + profile.latency;
  event.kind = ChunkEventKind::kArrival;
  queue_.push(event);
}

// A busy pipe declines before try_send counts anything, so the wake-ups
// skip it inline.
void Execution::activate_sender(int node_id) {
  const Node& node = nodes_[static_cast<std::size_t>(node_id)];
  for (const int slot : node.out) {
    if (!pipes_[static_cast<std::size_t>(slot)].busy) try_send(slot);
  }
}

void Execution::activate_receiver(int node_id) {
  const Node& node = nodes_[static_cast<std::size_t>(node_id)];
  for (const int slot : node.in) {
    if (!pipes_[static_cast<std::size_t>(slot)].busy) try_send(slot);
  }
}

// ----------------------------------------------------------------- observe

bool Execution::node_alive(int id) const {
  return id >= 0 && id < static_cast<int>(nodes_.size()) &&
         nodes_[static_cast<std::size_t>(id)].alive;
}

int Execution::delivered(int id) const {
  return nodes_.at(static_cast<std::size_t>(id)).delivered;
}

double Execution::completion_time(int id) const {
  return nodes_.at(static_cast<std::size_t>(id)).completion_time;
}

NodeProgress Execution::progress(int id) const {
  const Node& node = nodes_.at(static_cast<std::size_t>(id));
  NodeProgress progress;
  progress.id = id;
  progress.alive = node.alive;
  progress.delivered = node.delivered;
  progress.skipped = node.skip_before;
  progress.joined = node.joined;
  progress.completion_time = node.completion_time;
  progress.max_buffer = node.max_buffer;
  // Steady-state rate over the post-warmup window; nodes that never cleared
  // warmup fall back to their whole lifetime (short runs, late joiners).
  if (node.delivered > config_.warmup_chunks && node.warmup_time >= 0.0 &&
      node.last_time > node.warmup_time) {
    progress.steady_rate = (node.delivered - config_.warmup_chunks) *
                           config_.chunk_size /
                           (node.last_time - node.warmup_time);
  } else if (node.delivered > 0 && node.last_time > node.joined) {
    progress.steady_rate =
        node.delivered * config_.chunk_size / (node.last_time - node.joined);
  }
  return progress;
}

ExecutionReport Execution::report(double planned_rate) const {
  ExecutionReport report;
  report.now = now_;
  report.emitted = emitted_;
  report.delivered_chunks = delivered_chunks_;
  report.losses = losses_;
  report.retransmits = retransmits_;
  report.hol_stalls = hol_stalls_;
  report.duplicates = duplicates_;
  report.planned_rate = planned_rate;
  report.nodes.reserve(nodes_.size());
  // Steady-state rate: min over nodes whose post-warmup window is valid.
  // Nodes that never cleared warmup (late joiners, very short runs) only
  // speak up when *nobody* cleared it — their lifetime-average fallback
  // would otherwise drown the steady-state signal.
  bool any_steady = false;
  bool any = false;
  double min_steady = std::numeric_limits<double>::infinity();
  double min_rate = std::numeric_limits<double>::infinity();
  for (int id = 0; id < static_cast<int>(nodes_.size()); ++id) {
    report.nodes.push_back(progress(id));
    const NodeProgress& node = report.nodes.back();
    if (id == 0 || !node.alive) continue;
    any = true;
    min_rate = std::min(min_rate, node.steady_rate);
    if (node.delivered > config_.warmup_chunks) {
      any_steady = true;
      min_steady = std::min(min_steady, node.steady_rate);
    }
  }
  report.achieved_rate = any_steady ? min_steady : (any ? min_rate : 0.0);
  if (report.achieved_rate > 0.0) {
    report.stretch = planned_rate / report.achieved_rate;
  }
  return report;
}

std::vector<double> Execution::drain_latencies() {
  std::vector<double> out;
  out.swap(pending_latencies_);
  return out;
}

std::vector<std::string> Execution::validate(double tol) const {
  std::vector<double> active(nodes_.size(), 0.0);
  std::vector<double> planned(nodes_.size(), 0.0);
  std::vector<int> copies_toward(nodes_.size(), 0);
  std::map<std::pair<int, int>, int> copies;  // (receiver, chunk) -> count
  for (const Node& node : nodes_) {
    for (const int slot : node.out) {
      const Pipe& pipe = pipes_[static_cast<std::size_t>(slot)];
      if (pipe.busy) active[static_cast<std::size_t>(pipe.from)] += pipe.rate;
      planned[static_cast<std::size_t>(pipe.from)] += pipe.rate;
      for (const int chunk : pipe.in_flight) {
        ++copies_toward[static_cast<std::size_t>(pipe.to)];
        ++copies[std::make_pair(pipe.to, chunk)];
      }
    }
  }
  std::vector<std::string> violations;
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    const Node& node = nodes_[id];
    if (active[id] > node.budget * (1.0 + tol) + tol) {
      violations.push_back("node " + std::to_string(id) +
                           " uploading at " + std::to_string(active[id]) +
                           " over budget " + std::to_string(node.budget));
    }
    if (std::abs(planned[id] - node.planned_out) >
        tol * (1.0 + std::abs(planned[id]))) {
      violations.push_back("node " + std::to_string(id) + " planned_out " +
                           std::to_string(node.planned_out) +
                           " drifted from its out-pipes' sum " +
                           std::to_string(planned[id]));
    }
    if (!node.alive) {
      // Dead — politely or by crash — means *zero* dataplane residue; any
      // leftover is a leak from a mid-fault teardown path.
      if (node.window_used != 0) {
        violations.push_back("dead node " + std::to_string(id) + " holds " +
                             std::to_string(node.window_used) +
                             " window slots");
      }
      if (!node.inflight.empty()) {
        violations.push_back("dead node " + std::to_string(id) + " holds " +
                             std::to_string(node.inflight.size()) +
                             " reservations");
      }
      if (copies_toward[id] != 0) {
        violations.push_back(std::to_string(copies_toward[id]) +
                             " in-flight copies toward dead node " +
                             std::to_string(id));
      }
      continue;
    }
    if (node.window_used != copies_toward[id]) {
      violations.push_back("node " + std::to_string(id) + " window_used " +
                           std::to_string(node.window_used) +
                           " != in-flight copies " +
                           std::to_string(copies_toward[id]));
    }
    for (const Node::Reservation& reservation : node.inflight) {
      const int chunk = reservation.chunk;
      if (bit(node.have, chunk)) {
        violations.push_back("node " + std::to_string(id) +
                             " holds a reservation for delivered chunk " +
                             std::to_string(chunk));
        continue;
      }
      const auto it = copies.find(std::make_pair(static_cast<int>(id), chunk));
      const int in_flight = it == copies.end() ? 0 : it->second;
      if (reservation.count != in_flight) {
        violations.push_back("node " + std::to_string(id) + " chunk " +
                             std::to_string(chunk) + " reservation count " +
                             std::to_string(reservation.count) +
                             " != in-flight copies " +
                             std::to_string(in_flight));
      }
    }
  }
  // Copies without a reservation are legal only as doomed duplicates of a
  // chunk the receiver already delivered.
  for (const auto& [key, count] : copies) {
    const Node& node = nodes_[static_cast<std::size_t>(key.first)];
    if (!node.alive) continue;  // reported above
    if (!bit(node.have, key.second) &&
        std::none_of(node.inflight.begin(), node.inflight.end(),
                     [&](const Node::Reservation& reservation) {
                       return reservation.chunk == key.second;
                     })) {
      violations.push_back(std::to_string(count) +
                           " unreserved in-flight copies of chunk " +
                           std::to_string(key.second) + " toward node " +
                           std::to_string(key.first));
    }
  }
  if (!violations.empty() && config_.recorder != nullptr) {
    config_.recorder->record_failure(now_, config_.trace_id,
                                     "Execution::validate", violations);
  }
  return violations;
}

}  // namespace bmp::dataplane
