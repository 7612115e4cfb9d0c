#include "bmp/runtime/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <unordered_set>

#include "bmp/obs/flight_recorder.hpp"
#include "bmp/obs/profiler.hpp"
#include "bmp/obs/trace.hpp"

namespace bmp::runtime {

const char* to_string(EventType type) {
  switch (type) {
    case EventType::kChannelOpen: return "channel_open";
    case EventType::kChannelClose: return "channel_close";
    case EventType::kNodeJoin: return "node_join";
    case EventType::kNodeLeave: return "node_leave";
    case EventType::kRenegotiate: return "renegotiate";
    case EventType::kDegrade: return "degrade";
    case EventType::kFault: return "fault";
  }
  throw std::invalid_argument("unknown event type");
}

const char* to_string(FaultAction::Kind kind) {
  switch (kind) {
    case FaultAction::Kind::kCrash: return "crash";
    case FaultAction::Kind::kPartitionStart: return "partition_start";
    case FaultAction::Kind::kPartitionHeal: return "partition_heal";
    case FaultAction::Kind::kCorruptStart: return "corrupt_start";
    case FaultAction::Kind::kCorruptEnd: return "corrupt_end";
    case FaultAction::Kind::kBlackoutStart: return "blackout_start";
    case FaultAction::Kind::kBlackoutEnd: return "blackout_end";
    case FaultAction::Kind::kPlannerOutageStart: return "planner_outage_start";
    case FaultAction::Kind::kPlannerOutageEnd: return "planner_outage_end";
  }
  throw std::invalid_argument("unknown fault kind");
}

namespace {

/// Edge-memo key: runtime ids packed as from << 32 | to.
std::uint64_t edge_key(int from, int to) {
  return static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) << 32 |
         static_cast<std::uint32_t>(to);
}

// The trace sink and profiler ride into the planner through its config;
// the planner is constructed in the member-init list, so the splice
// happens in a value helper rather than in the constructor body.
engine::PlannerConfig with_obs(engine::PlannerConfig planner,
                               obs::TraceSink* trace,
                               obs::Profiler* profiler,
                               engine::PlannerOutage* outage) {
  planner.trace = trace;
  planner.profiler = profiler;
  // Fault events toggle the runtime-owned outage unless the caller wired
  // in an external one (tests driving the outage by hand).
  if (planner.outage == nullptr) planner.outage = outage;
  return planner;
}

}  // namespace

int Runtime::Channel::dp_of(int rid) const {
  const auto it = std::lower_bound(
      dp_of_node.begin(), dp_of_node.end(), rid,
      [](const std::pair<int, int>& row, int id) { return row.first < id; });
  return it != dp_of_node.end() && it->first == rid ? it->second : -1;
}

Runtime::Runtime(RuntimeConfig config, double source_bandwidth,
                 const std::vector<NodeSpec>& initial_peers)
    : config_(config),
      planner_(with_obs(config.planner, config.trace, config.profiler,
                        &planner_outage_)),
      broker_(config.broker_headroom) {
  outage_ = planner_.config().outage;
  // One timing switch for the whole loop: a runtime that opts out of
  // timing.* metrics must not pay the per-verify clock reads inside its
  // sessions either.
  config_.session.verify.collect_timing = config_.collect_timing;
  // One trace switch likewise: the runtime's sink reaches every session
  // (and its event-loop verifier) and every chunk stream. Planner-pool
  // thread-local verifiers stay untraced by design — see VerifyOptions.
  config_.session.trace = config_.trace;
  config_.session.verify.trace = config_.trace;
  config_.dataplane.execution.trace = config_.trace;
  config_.dataplane.execution.recorder = config_.recorder;
  // One profiler switch likewise: the event-loop verifier and every chunk
  // stream attribute their work to the same tree the planner writes into.
  config_.session.verify.profiler = config_.profiler;
  config_.dataplane.execution.profiler = config_.profiler;
  // One lineage switch likewise: every chunk stream records delivery hops
  // into the shared sink (records carry the channel id, so streams never
  // collide).
  config_.dataplane.execution.lineage = config_.lineage;
  if (!is_valid_bandwidth(source_bandwidth)) {
    throw std::invalid_argument("Runtime: invalid source bandwidth");
  }
  if (config_.control.enabled && !config_.dataplane.execute) {
    throw std::invalid_argument(
        "Runtime: the control plane needs execution mode (its telemetry "
        "source) — set dataplane.execute");
  }
  nodes_.reserve(1 + initial_peers.size());
  Node source;
  source.bandwidth = source_bandwidth;
  nodes_.push_back(source);
  for (const NodeSpec& spec : initial_peers) {
    if (!is_valid_bandwidth(spec.bandwidth)) {
      throw std::invalid_argument("Runtime: invalid peer bandwidth");
    }
    if (spec.wan) dataplane::check_link_profile(spec.profile, "Runtime: peer");
    Node node;
    node.bandwidth = spec.bandwidth;
    node.guarded = spec.guarded;
    node.wan = spec.wan;
    node.profile = spec.profile;
    nodes_.push_back(node);
  }
  alive_peers_ = static_cast<int>(initial_peers.size());
  // These two gauges exist from construction, so their handles can be
  // interned eagerly; everything else in hot_ resolves lazily on first
  // use to keep snapshot contents identical to create-on-first-touch.
  hot_.population_alive = metrics_.gauge_handle("population.alive");
  hot_.channels_open = metrics_.gauge_handle("channels.open");
  *hot_.population_alive = static_cast<double>(alive_peers_);
  *hot_.channels_open = 0.0;
  if (config_.telemetry != nullptr) {
    // Scale-facing series, registered once; recording is an array index.
    obs::ShardRegistry& shard = *config_.telemetry;
    tel_.delivered = shard.counter("dataplane.delivered");
    tel_.losses = shard.counter("dataplane.losses");
    tel_.retransmits = shard.counter("dataplane.retransmits");
    tel_.hol_stalls = shard.counter("dataplane.hol_stalls");
    tel_.duplicates = shard.counter("dataplane.duplicates");
    tel_.events = shard.counter("events.total");
    tel_.alive = shard.gauge("population.alive", obs::GaugeReduction::kSum);
    tel_.latency = shard.sketch("dataplane.chunk_latency");
    tel_.sustained = shard.sketch("dataplane.sustained_ratio");
    tel_.slo_worst = shard.sketch("slo.sustained_worst");
    tel_.recovered = shard.sketch("control.recovered_ratio");
    tel_.node_retransmits = shard.topk("hot.node_retransmits");
    tel_.node_stalls = shard.topk("hot.node_stalls");
    tel_.edge_retransmits = shard.topk("hot.edge_retransmits");
    tel_.node_demotions = shard.topk("hot.node_demotion_weight");
    shard.set(tel_.alive, static_cast<double>(alive_peers_));
  }
}

void Runtime::run(const std::vector<Event>& events) {
  for (std::size_t i = 1; i < events.size(); ++i) {
    if (event_before(events[i], events[i - 1])) {
      throw std::invalid_argument("Runtime::run: events not time-sorted");
    }
  }
  for (const Event& event : events) step(event);
}

void Runtime::step(const Event& event) {
  if (event.time < now_) {
    throw std::invalid_argument("Runtime::step: event precedes loop clock");
  }
  now_ = event.time;
  const auto start = config_.collect_timing
                         ? std::chrono::steady_clock::now()
                         : std::chrono::steady_clock::time_point{};
  // Execution mode: every live chunk stream catches up to this instant on
  // the pre-event overlays before the event reshapes them.
  advance_executions(event.time);
  // After the catch-up (control ticks pin the clock to their boundaries):
  // everything the handlers emit is stamped with this event's sim-time.
  if (config_.trace != nullptr) config_.trace->set_clock(event.time);
  if (config_.recorder != nullptr) {
    std::string detail = to_string(event.type);
    if (event.channel >= 0) {
      detail += " channel=" + std::to_string(event.channel);
    }
    if (!event.joins.empty()) {
      detail += " joins=" + std::to_string(event.joins.size());
    }
    if (!event.leaves.empty()) {
      detail += " leaves=" + std::to_string(event.leaves.size());
    }
    if (!event.degrades.empty()) {
      detail += " degrades=" + std::to_string(event.degrades.size());
    }
    if (!event.faults.empty()) {
      detail += " faults=" + std::to_string(event.faults.size());
    }
    config_.recorder->record(event.time, event.channel, "event",
                             std::move(detail));
  }
  // Deferred channel opens whose backoff expired get their retry before the
  // event lands (the queue drains on the event clock, deterministically).
  if (!pending_opens_.empty()) retry_pending_opens(event.time, false);
  switch (event.type) {
    case EventType::kChannelOpen:
      try {
        on_channel_open(event);
      } catch (const engine::PlannerUnavailable&) {
        if (!config_.fault.planner_fallback) throw;
        // The broker grant was already released by on_channel_open's
        // unwind; queue the open and retry once the planner may be back.
        PendingOpen pending;
        pending.event = event;
        pending.backoff = config_.fault.planner_retry_initial;
        pending.next_retry = now_ + pending.backoff;
        pending_opens_.push_back(std::move(pending));
        metrics_.inc("fault.opens_deferred");
        if (config_.recorder != nullptr) {
          config_.recorder->record(now_, event.channel, "open_deferred",
                                   "planner outage; retry at " +
                                       std::to_string(pending_opens_.back()
                                                          .next_retry));
        }
      }
      break;
    case EventType::kChannelClose: on_channel_close(event); break;
    case EventType::kNodeJoin: on_node_join(event); break;
    case EventType::kNodeLeave: on_node_leave(event); break;
    case EventType::kRenegotiate: on_renegotiate(event); break;
    case EventType::kDegrade: on_degrade(event); break;
    case EventType::kFault: on_fault(event); break;
  }
  // Interned hot-path counters: the names resolve to storage cells once
  // (on first use, preserving create-on-first-touch snapshot contents) and
  // every later event is a pointer bump, not a map walk.
  if (hot_.events_total == nullptr) {
    hot_.events_total = metrics_.counter_handle("events.total");
  }
  ++*hot_.events_total;
  std::uint64_t*& by_type =
      hot_.events_by_type[static_cast<std::size_t>(event.type)];
  if (by_type == nullptr) {
    by_type = metrics_.counter_handle(std::string("events.") +
                                      to_string(event.type));
  }
  ++*by_type;
  if (config_.telemetry != nullptr) config_.telemetry->inc(tel_.events);
  if (config_.profiler != nullptr) {
    config_.profiler->enter("runtime/step");
    config_.profiler->count("runtime/step", to_string(event.type));
  }
  // The broker is the single source of truth for admission accounting;
  // mirror its totals instead of double-counting at every call site.
  if (hot_.broker_admitted == nullptr) {
    hot_.broker_admitted = metrics_.counter_handle("broker.admitted");
    hot_.broker_rejected = metrics_.counter_handle("broker.rejected");
    hot_.broker_released = metrics_.counter_handle("broker.released");
    hot_.broker_allocated = metrics_.gauge_handle("broker.allocated");
  }
  *hot_.broker_admitted = broker_.admissions();
  *hot_.broker_rejected = broker_.rejections();
  *hot_.broker_released = broker_.releases();
  *hot_.broker_allocated = broker_.allocated();
  *hot_.channels_open = static_cast<double>(channels_.size());
  *hot_.population_alive = static_cast<double>(alive_peers_);
  if (config_.telemetry != nullptr) {
    config_.telemetry->set(tel_.alive, static_cast<double>(alive_peers_));
  }
  if (config_.dataplane.execute) {
    for (auto& [id, channel] : channels_) {
      export_dataplane_metrics(id, channel);
    }
  }
  if (config_.collect_timing) {
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    if (hot_.timing_event_loop == nullptr) {
      hot_.timing_event_loop =
          metrics_.histogram_handle("timing.event_loop_us");
    }
    hot_.timing_event_loop->observe(us);
    if (config_.profiler != nullptr && config_.profiler->wall_time()) {
      config_.profiler->add_wall("runtime/step", us);
    }
    if (config_.trace != nullptr) {
      config_.trace->complete(
          obs::Lane::kRuntime, "runtime", to_string(event.type),
          {{"channel", event.channel},
           {"channels_open", static_cast<int>(channels_.size())},
           {"alive", alive_peers_}},
          config_.trace->wall_durations() ? us : -1.0);
    }
  } else if (config_.trace != nullptr) {
    config_.trace->complete(obs::Lane::kRuntime, "runtime",
                            to_string(event.type),
                            {{"channel", event.channel},
                             {"channels_open", static_cast<int>(channels_.size())},
                             {"alive", alive_peers_}});
  }
}

std::string Runtime::channel_metric(int id, const char* what) const {
  return "channel." + std::to_string(id) + "." + what;
}

void Runtime::set_channel_gauges(int id, const Channel& channel) {
  metrics_.set(channel_metric(id, "fraction"), channel.grant.fraction);
  metrics_.set(channel_metric(id, "design_rate"),
               channel.session->design_rate());
  metrics_.set(channel_metric(id, "achieved_rate"),
               channel.session->current_rate());
}

void Runtime::build_session(int id, Channel& channel) {
  // Gather the alive population in runtime-id order, opens before guardeds
  // — the instance's caller-side numbering the slot map is derived from.
  std::vector<double> open_bw;
  std::vector<double> guarded_bw;
  std::vector<int> open_ids;
  std::vector<int> guarded_ids;
  const double fraction = channel.grant.fraction;
  for (int node = 1; node < static_cast<int>(nodes_.size()); ++node) {
    const Node& info = nodes_[static_cast<std::size_t>(node)];
    if (!info.alive) continue;
    if (info.guarded) {
      guarded_bw.push_back(info.bandwidth * fraction);
      guarded_ids.push_back(node);
    } else {
      open_bw.push_back(info.bandwidth * fraction);
      open_ids.push_back(node);
    }
  }
  Instance scaled(nodes_[0].bandwidth * fraction, std::move(open_bw),
                  std::move(guarded_bw));
  engine::SessionConfig session_config = config_.session;
  session_config.trace_id = id;  // repair/adapt spans name their channel
  channel.session = std::make_unique<engine::Session>(planner_, scaled,
                                                      session_config);
  if (channel.session->initial_plan_verified()) {
    // Channel opens and join replans verify their computed plans too —
    // without this the verify.* counters would only see leave events.
    metrics_.inc("verify.calls");
    metrics_.inc(channel.session->initial_plan_tier() ==
                         flow::VerifyTier::kAcyclicSweep
                     ? "verify.tier_sweep"
                     : "verify.tier_maxflow");
  }
  // original_id(slot) indexes [source, opens..., guardeds...] directly.
  channel.node_of_slot.assign(static_cast<std::size_t>(scaled.size()), 0);
  for (int slot = 1; slot < scaled.size(); ++slot) {
    const int input_id = scaled.original_id(slot);
    channel.node_of_slot[static_cast<std::size_t>(slot)] =
        input_id <= static_cast<int>(open_ids.size())
            ? open_ids[static_cast<std::size_t>(input_id - 1)]
            : guarded_ids[static_cast<std::size_t>(
                  input_id - 1 - static_cast<int>(open_ids.size()))];
  }
  if (config_.profiler != nullptr) {
    config_.profiler->enter("runtime/session/build");
    config_.profiler->count("runtime/session/build", "nodes",
                            static_cast<std::uint64_t>(scaled.size()));
  }
  set_channel_gauges(id, channel);
  // A live chunk stream follows every re-plan without restarting.
  sync_execution(id, channel);
}

void Runtime::on_channel_open(const Event& event) {
  if (channels_.count(event.channel) != 0) {
    throw std::invalid_argument("Runtime: channel already open");
  }
  const std::optional<Grant> granted =
      broker_.admit(event.channel, event.weight, event.fraction);
  if (config_.trace != nullptr) {
    if (granted) {
      config_.trace->instant(obs::Lane::kBroker, "runtime", "admit",
                             {{"channel", event.channel},
                              {"fraction", granted->fraction},
                              {"weight", event.weight}});
    } else {
      config_.trace->instant(obs::Lane::kBroker, "runtime", "reject",
                             {{"channel", event.channel},
                              {"requested", event.fraction}});
    }
  }
  if (config_.recorder != nullptr) {
    config_.recorder->record(now_, event.channel,
                             granted ? "admit" : "reject",
                             granted ? "fraction=" +
                                           std::to_string(granted->fraction)
                                     : "requested=" +
                                           std::to_string(event.fraction));
  }
  if (!granted) return;  // counted via broker_.rejections()
  Channel channel;
  channel.grant = *granted;
  try {
    if (config_.dataplane.execute) {
      // The operator's engine knobs pass through wholesale; the runtime
      // owns the stream lifecycle, so only these four are overridden.
      dataplane::ExecutionConfig exec_config = config_.dataplane.execution;
      exec_config.total_chunks = 0;  // live stream: paced until close/drain
      exec_config.emission_rate = 0.0;  // set by sync once the plan exists
      exec_config.start_time = now_;
      exec_config.seed = engine::mix64(
          config_.dataplane.execution.seed ^
          static_cast<std::uint64_t>(event.channel) * 0x9E3779B97F4A7C15ULL);
      exec_config.trace_id = event.channel;
      channel.open_time = now_;
      channel.execution = std::make_unique<dataplane::Execution>(exec_config);
      if (config_.control.enabled) {
        channel.controller =
            std::make_unique<control::Controller>(config_.control.controller);
        channel.last_control_time = now_;
        if (config_.control.slo_enabled) {
          channel.slo = std::make_unique<obs::SloMonitor>(
              event.channel, config_.control.slo, config_.recorder);
        }
      }
    }
    build_session(event.channel, channel);
  } catch (...) {
    // The broker grant must not leak when plan or stream setup throws
    // mid-open: a channel that never went live holds no capacity.
    broker_.release(event.channel);
    throw;
  }
  channels_.emplace(event.channel, std::move(channel));
}

void Runtime::on_channel_close(const Event& event) {
  // A close for a channel still waiting in the retry queue cancels the
  // pending open — its lifetime ended before the planner came back.
  for (auto pending = pending_opens_.begin();
       pending != pending_opens_.end();) {
    if (pending->event.channel == event.channel) {
      metrics_.inc("fault.opens_abandoned");
      pending = pending_opens_.erase(pending);
    } else {
      ++pending;
    }
  }
  const auto it = channels_.find(event.channel);
  if (it == channels_.end()) {
    // Scenarios emit open/close pairs without knowing whether the broker
    // admitted the open; closing a never-admitted channel is expected data.
    metrics_.inc("broker.close_ignored");
    return;
  }
  if (it->second.execution) {
    stream_log_.push_back(finalize_stream(event.channel, it->second));
  }
  broker_.release(event.channel);
  // Drop the per-channel gauges: under Poisson channel arrivals a
  // long-lived runtime would otherwise accumulate dead entries forever.
  metrics_.erase(channel_metric(event.channel, "fraction"));
  metrics_.erase(channel_metric(event.channel, "design_rate"));
  metrics_.erase(channel_metric(event.channel, "achieved_rate"));
  metrics_.erase(channel_metric(event.channel, "control.stragglers"));
  metrics_.erase(channel_metric(event.channel, "control.degraded_edges"));
  metrics_.erase(channel_metric(event.channel, "control.overrides"));
  metrics_.erase(channel_metric(event.channel, "slo.state"));
  channels_.erase(it);
}

void Runtime::on_node_join(const Event& event) {
  // Validate the whole batch before mutating: a rejected event must leave
  // the population untouched.
  for (const NodeSpec& spec : event.joins) {
    if (!is_valid_bandwidth(spec.bandwidth)) {
      throw std::invalid_argument("Runtime: invalid join bandwidth");
    }
    if (spec.wan) dataplane::check_link_profile(spec.profile, "Runtime: join");
  }
  for (const NodeSpec& spec : event.joins) {
    Node node;
    node.bandwidth = spec.bandwidth;
    node.guarded = spec.guarded;
    node.wan = spec.wan;
    node.profile = spec.profile;
    nodes_.push_back(node);
    ++alive_peers_;
  }
  if (event.joins.empty() || config_.join_policy == JoinPolicy::kIgnore) {
    return;
  }
  // Recruit the new uploaders: re-plan every live channel on the grown
  // platform. The shared cache dedupes channels whose scaled platforms
  // collide; the session's design rate resets to the new optimum.
  for (auto& [id, channel] : channels_) {
    try {
      build_session(id, channel);
    } catch (const engine::PlannerUnavailable&) {
      if (!config_.fault.planner_fallback) throw;
      // Planner down: the channel keeps its pre-join overlay (the joiner
      // is simply not recruited yet) and is rebuilt when the outage ends.
      if (channel.plan_stale_since < 0.0) channel.plan_stale_since = now_;
      metrics_.inc("fault.planner_faults");
      if (config_.recorder != nullptr) {
        config_.recorder->record(now_, id, "plan_stale",
                                 "join replan refused (planner outage)");
      }
      continue;
    }
    metrics_.inc("replans.join");
    ChurnReport report;
    report.time = now_;
    report.channel = id;
    report.type = EventType::kNodeJoin;
    report.full_replan = true;
    report.design_rate = channel.session->design_rate();
    report.achieved_rate = channel.session->current_rate();
    churn_log_.push_back(report);
    if (config_.recorder != nullptr) {
      config_.recorder->record(
          now_, id, "churn",
          "join replan design=" + std::to_string(report.design_rate));
    }
  }
}

void Runtime::on_node_leave(const Event& event) {
  // Validate the whole batch (range, aliveness, in-event duplicates)
  // before mutating: a rejected event must leave the population untouched.
  // Exception: a node that already died by kCrash is *skipped silently* —
  // a chaos plan may crash a peer whose scripted polite leave lands later,
  // and the crash already was its departure.
  std::set<int> departed;
  std::unordered_set<int> seen;
  for (const int node : event.leaves) {
    if (node <= 0 || node >= static_cast<int>(nodes_.size())) {
      throw std::invalid_argument("Runtime: departure of unknown node");
    }
    if (!seen.insert(node).second) {
      throw std::invalid_argument("Runtime: duplicate departure");
    }
    const Node& info = nodes_[static_cast<std::size_t>(node)];
    if (!info.alive) {
      if (info.crashed) continue;
      throw std::invalid_argument("Runtime: departure of dead node");
    }
    departed.insert(node);
  }
  if (departed.empty()) return;
  for (const int node : departed) {
    nodes_[static_cast<std::size_t>(node)].alive = false;
    --alive_peers_;
  }
  apply_departures(departed, now_);
}

void Runtime::apply_departures(const std::set<int>& departed, double when) {
  for (auto& [id, channel] : channels_) {
    // Translate runtime ids to this channel's session slots. Channels
    // opened after a joiner arrived include it; older ones may not.
    std::vector<int> slots;
    const std::vector<int>& node_of_slot = channel.node_of_slot;
    for (int slot = 1; slot < static_cast<int>(node_of_slot.size()); ++slot) {
      if (departed.count(node_of_slot[static_cast<std::size_t>(slot)]) != 0) {
        slots.push_back(slot);
      }
    }
    if (slots.empty()) continue;

    // Survivors in the session's *current sorted order*, opens first: this
    // is exactly the caller-side numbering sim::remove_nodes hands the
    // post-churn instance, so original_id() maps new slots back into it.
    std::vector<int> survivors;
    survivors.reserve(node_of_slot.size() - slots.size() - 1);
    for (int pass = 0; pass < 2; ++pass) {
      for (int slot = 1; slot < static_cast<int>(node_of_slot.size());
           ++slot) {
        const int node = node_of_slot[static_cast<std::size_t>(slot)];
        if (departed.count(node) != 0) continue;
        if (nodes_[static_cast<std::size_t>(node)].guarded == (pass == 1)) {
          survivors.push_back(node);
        }
      }
    }

    const engine::ChurnOutcome outcome = channel.session->on_departure(slots);
    const Instance& instance = channel.session->instance();
    std::vector<int> remapped(static_cast<std::size_t>(instance.size()),
                              node_of_slot[0]);
    for (int slot = 1; slot < instance.size(); ++slot) {
      remapped[static_cast<std::size_t>(slot)] =
          survivors[static_cast<std::size_t>(instance.original_id(slot) - 1)];
    }
    channel.node_of_slot = std::move(remapped);

    if (outcome.planner_fault) {
      // The session wanted a full re-plan but the planner was down; it kept
      // its incremental repair. Mark the channel stale for the rebuild pass
      // that runs when the outage ends.
      if (channel.plan_stale_since < 0.0) channel.plan_stale_since = when;
      metrics_.inc("fault.planner_faults");
      if (config_.recorder != nullptr) {
        config_.recorder->record(when, id, "plan_stale",
                                 "departure replan refused (planner outage)");
      }
    }
    metrics_.inc(outcome.full_replan ? "repairs.full" : "repairs.incremental");
    // Verification telemetry: tier counts are deterministic (structure
    // decides the tier), so they live beside the repair counters; the
    // wall-clock cost goes under timing.* like every other latency.
    metrics_.inc("verify.calls", static_cast<std::uint64_t>(outcome.verify_calls));
    metrics_.inc("verify.tier_sweep",
                 static_cast<std::uint64_t>(outcome.verify_sweep));
    metrics_.inc("verify.tier_maxflow",
                 static_cast<std::uint64_t>(outcome.verify_maxflow));
    if (config_.collect_timing) {
      metrics_.observe("timing.verify.us", outcome.verify_us);
    }
    if (config_.profiler != nullptr) {
      obs::Profiler& prof = *config_.profiler;
      prof.enter("runtime/session/churn");
      prof.count("runtime/session/churn", "departures",
                 static_cast<std::uint64_t>(outcome.departed));
      prof.count("runtime/session/churn",
                 outcome.full_replan ? "full_replans" : "incremental_repairs");
      prof.count("runtime/session/churn", "verify_calls",
                 static_cast<std::uint64_t>(outcome.verify_calls));
    }
    set_channel_gauges(id, channel);
    // Live-patch the running stream: the departed peers' in-flight chunks
    // drop, the repaired overlay's edges splice in — no restart.
    sync_execution(id, channel);
    ChurnReport report;
    report.time = when;
    report.channel = id;
    report.type = EventType::kNodeLeave;
    report.departed = outcome.departed;
    report.full_replan = outcome.full_replan;
    report.design_rate = channel.session->design_rate();
    report.achieved_rate = outcome.achieved_rate;
    churn_log_.push_back(report);
    if (config_.recorder != nullptr) {
      config_.recorder->record(
          when, id, "churn",
          std::string(outcome.full_replan ? "replan" : "repair") +
              " departed=" + std::to_string(outcome.departed) +
              " achieved=" + std::to_string(outcome.achieved_rate));
    }
    if (report.design_rate > 0.0) {
      metrics_.observe("channel.recovery_ratio",
                       report.achieved_rate / report.design_rate);
    }
  }
  // Departed peers carry no telemetry history forward: drop their node and
  // edge memos everywhere (runtime ids are never reused).
  for (auto& [id, channel] : channels_) {
    (void)id;
    for (const int node : departed) channel.node_memo.erase(node);
    channel.layout = {};  // its memo pointers may dangle now
    for (auto it = channel.edge_memo.begin(); it != channel.edge_memo.end();) {
      const auto from = static_cast<int>(it->first >> 32);
      const auto to = static_cast<int>(it->first & 0xffffffffu);
      if (departed.count(from) != 0 || departed.count(to) != 0) {
        it = channel.edge_memo.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void Runtime::on_renegotiate(const Event& event) {
  const std::vector<Grant> changed = broker_.rebalance(event.utilization);
  for (const Grant& grant : changed) {
    const auto it = channels_.find(grant.channel);
    if (it == channels_.end()) continue;
    Channel& channel = it->second;
    const double factor = grant.fraction / channel.grant.fraction;
    channel.session->rescale(factor);
    channel.grant = grant;
    metrics_.inc("broker.renegotiated");
    if (config_.profiler != nullptr) {
      config_.profiler->enter("runtime/broker/rebalance");
      config_.profiler->count("runtime/broker/rebalance", "rescales");
    }
    if (config_.trace != nullptr) {
      config_.trace->instant(obs::Lane::kBroker, "runtime", "renegotiate",
                             {{"channel", grant.channel},
                              {"fraction", grant.fraction},
                              {"factor", factor}});
    }
    if (config_.recorder != nullptr) {
      config_.recorder->record(
          now_, grant.channel, "renegotiate",
          "fraction=" + std::to_string(grant.fraction));
    }
    set_channel_gauges(grant.channel, channel);
    // Renegotiated rates reach the stream live: pipes re-rate in place,
    // the source re-paces its emission.
    sync_execution(grant.channel, channel);
  }
}

void Runtime::on_degrade(const Event& event) {
  // Validate the whole batch before mutating (mirrors join/leave). A node
  // dead by kCrash is tolerated — a chaos plan may schedule a brownout for
  // a peer that crashed first; the degradation is simply moot.
  for (const Degradation& degrade : event.degrades) {
    if (degrade.node <= 0 ||
        degrade.node >= static_cast<int>(nodes_.size())) {
      throw std::invalid_argument("Runtime: degradation of unknown node");
    }
    const Node& info = nodes_[static_cast<std::size_t>(degrade.node)];
    if (!info.alive && !info.crashed) {
      throw std::invalid_argument("Runtime: degradation of dead node");
    }
    if (degrade.set_factor &&
        (!(degrade.capacity_factor > 0.0) || degrade.capacity_factor > 1.0)) {
      throw std::invalid_argument("Runtime: capacity_factor in (0, 1]");
    }
    if (degrade.set_profile && degrade.clear_profile) {
      throw std::invalid_argument(
          "Runtime: set_profile and clear_profile are exclusive");
    }
    if (degrade.set_profile) {
      dataplane::check_link_profile(degrade.profile, "Runtime: degradation");
    }
  }
  const dataplane::LinkProfile defaults{
      config_.dataplane.execution.loss_rate,
      config_.dataplane.execution.latency, 0.0};
  for (const Degradation& degrade : event.degrades) {
    Node& info = nodes_[static_cast<std::size_t>(degrade.node)];
    if (!info.alive) continue;  // crashed first: nothing left to degrade
    if (degrade.set_factor) info.capacity_factor = degrade.capacity_factor;
    if (degrade.set_profile) {
      info.wan = true;
      info.profile = degrade.profile;
    } else if (degrade.clear_profile) {
      info.wan = false;
      info.profile = dataplane::LinkProfile{};
    }
    metrics_.inc("degrade.nodes");
  }
  if (!config_.dataplane.execute) return;
  // The planner is deliberately not told; only the live executions change.
  for (auto& [id, channel] : channels_) {
    (void)id;
    if (!channel.execution) continue;
    for (const Degradation& degrade : event.degrades) {
      const Node& info = nodes_[static_cast<std::size_t>(degrade.node)];
      if (!info.alive) continue;
      const int dp = channel.dp_of(degrade.node);
      if (dp < 0) continue;
      if (degrade.set_factor) {
        channel.execution->set_effective_capacity(
            dp, info.capacity_factor < 1.0
                    ? info.capacity_factor * info.bandwidth *
                          channel.grant.fraction
                    : -1.0);
      }
      if (degrade.set_profile) {
        channel.execution->set_egress_profile(dp, degrade.profile);
      } else if (degrade.clear_profile) {
        channel.execution->set_egress_profile(dp, defaults);
      }
    }
  }
}

void Runtime::on_fault(const Event& event) {
  // Validate every action before mutating (mirrors the other handlers).
  // The source (node 0) never faults: its crash would be a different paper.
  const auto check_node = [this](int node, FaultAction::Kind kind) {
    if (node <= 0 || node >= static_cast<int>(nodes_.size())) {
      throw std::invalid_argument(std::string("Runtime: ") + to_string(kind) +
                                  " of unknown node");
    }
  };
  for (const FaultAction& fault : event.faults) {
    switch (fault.kind) {
      case FaultAction::Kind::kCrash:
      case FaultAction::Kind::kCorruptEnd:
        check_node(fault.node, fault.kind);
        break;
      case FaultAction::Kind::kCorruptStart:
        check_node(fault.node, fault.kind);
        if (!(fault.rate >= 0.0) || fault.rate > 1.0) {
          throw std::invalid_argument("Runtime: corruption rate in [0, 1]");
        }
        break;
      case FaultAction::Kind::kPartitionStart:
        if (fault.group <= 0) {
          throw std::invalid_argument("Runtime: partition group must be > 0");
        }
        [[fallthrough]];
      case FaultAction::Kind::kBlackoutStart:
      case FaultAction::Kind::kBlackoutEnd:
        for (const int node : fault.nodes) check_node(node, fault.kind);
        break;
      case FaultAction::Kind::kPartitionHeal:
      case FaultAction::Kind::kPlannerOutageStart:
      case FaultAction::Kind::kPlannerOutageEnd:
        break;
    }
  }

  const auto note = [&](const FaultAction& fault, const std::string& detail) {
    metrics_.inc(std::string("fault.") + to_string(fault.kind));
    if (config_.trace != nullptr) {
      config_.trace->instant(obs::Lane::kRuntime, "runtime",
                             to_string(fault.kind),
                             {{"node", fault.node},
                              {"group", fault.group},
                              {"rate", fault.rate}});
    }
    if (config_.recorder != nullptr) {
      config_.recorder->record(now_, -1, to_string(fault.kind), detail);
    }
  };

  for (const FaultAction& fault : event.faults) {
    switch (fault.kind) {
      case FaultAction::Kind::kCrash: {
        Node& info = nodes_[static_cast<std::size_t>(fault.node)];
        if (!info.alive) break;  // idempotent: already dead (crash or leave)
        info.alive = false;
        info.crashed = true;
        info.crash_time = now_;
        --alive_peers_;
        // The dataplane sees the crash instantly (in-flight transmissions
        // from/to the peer die, its reservations release, pipes freeze);
        // the *sessions* do not — they keep planning around a ghost until
        // crash detection reads the silence off the telemetry.
        for (auto& [id, channel] : channels_) {
          (void)id;
          if (!channel.execution) continue;
          const int dp = channel.dp_of(fault.node);
          if (dp >= 0) channel.execution->crash_node(dp);
        }
        note(fault, "node=" + std::to_string(fault.node));
        if (config_.fault.detect_crashes &&
            (!config_.dataplane.execute || !config_.control.enabled)) {
          // Detection is wanted but there is no telemetry path to read the
          // silence from: degrade to an immediate synthesized departure so
          // sessions stay consistent. With detection off the crash simply
          // festers — that is the un-hardened baseline the chaos tests
          // compare against.
          apply_departures({fault.node}, now_);
        }
        break;
      }
      case FaultAction::Kind::kPartitionStart: {
        for (const int node : fault.nodes) {
          Node& info = nodes_[static_cast<std::size_t>(node)];
          if (!info.alive) continue;
          info.partition_group = fault.group;
          for (auto& [id, channel] : channels_) {
            (void)id;
            if (!channel.execution) continue;
            const int dp = channel.dp_of(node);
            if (dp >= 0) channel.execution->set_partition_group(dp, fault.group);
          }
        }
        note(fault, "group=" + std::to_string(fault.group) +
                        " nodes=" + std::to_string(fault.nodes.size()));
        break;
      }
      case FaultAction::Kind::kPartitionHeal: {
        std::vector<int> healed;
        for (std::size_t n = 0; n < nodes_.size(); ++n) {
          if (nodes_[n].partition_group != 0) {
            healed.push_back(static_cast<int>(n));
            nodes_[n].partition_group = 0;
          }
        }
        for (auto& [id, channel] : channels_) {
          if (channel.execution) {
            for (const auto& [rid, dp] : channel.dp_of_node) {
              (void)rid;
              channel.execution->set_partition_group(dp, 0);
            }
          }
          if (channel.controller) {
            // Everything the controller measured about the island it
            // measured across the cut — demotions, clamps and straggler
            // verdicts get pardoned, not probed back over half an hour.
            for (const int rid : healed) {
              channel.controller->forgive(rid);
              metrics_.inc("fault.heal_pardons");
            }
          }
          // Reconcile immediately: re-splice pipes to the session overlay
          // and re-pace emission so post-heal recovery starts this instant
          // (receivers re-request everything the partition swallowed).
          sync_execution(id, channel);
        }
        note(fault, "all groups collapse");
        break;
      }
      case FaultAction::Kind::kCorruptStart:
      case FaultAction::Kind::kCorruptEnd: {
        Node& info = nodes_[static_cast<std::size_t>(fault.node)];
        if (!info.alive) break;
        info.corrupt_rate =
            fault.kind == FaultAction::Kind::kCorruptStart ? fault.rate : 0.0;
        for (auto& [id, channel] : channels_) {
          (void)id;
          if (!channel.execution) continue;
          const int dp = channel.dp_of(fault.node);
          if (dp >= 0) channel.execution->set_corrupt_rate(dp, info.corrupt_rate);
        }
        note(fault, "node=" + std::to_string(fault.node) +
                        " rate=" + std::to_string(info.corrupt_rate));
        break;
      }
      case FaultAction::Kind::kBlackoutStart:
      case FaultAction::Kind::kBlackoutEnd: {
        const bool dark = fault.kind == FaultAction::Kind::kBlackoutStart;
        for (const int node : fault.nodes) {
          nodes_[static_cast<std::size_t>(node)].blackout = dark;
        }
        note(fault, "nodes=" + std::to_string(fault.nodes.size()));
        break;
      }
      case FaultAction::Kind::kPlannerOutageStart: {
        outage_->down = true;
        note(fault, "planner down");
        break;
      }
      case FaultAction::Kind::kPlannerOutageEnd: {
        outage_->down = false;
        note(fault, "planner back; failures=" +
                        std::to_string(outage_->failures));
        // The outage is over: deferred opens get their final retry now and
        // channels serving a stale overlay rebuild through the planner.
        retry_pending_opens(now_, true);
        rebuild_stale_channels();
        break;
      }
    }
  }
  metrics_.set("population.alive", static_cast<double>(alive_peers_));
}

void Runtime::retry_pending_opens(double t, bool force) {
  for (auto it = pending_opens_.begin(); it != pending_opens_.end();) {
    if (!force && it->next_retry > t) {
      ++it;
      continue;
    }
    try {
      on_channel_open(it->event);
      metrics_.inc("fault.opens_recovered");
      if (config_.recorder != nullptr) {
        config_.recorder->record(t, it->event.channel, "open_retried",
                                 "recovered after planner outage");
      }
      it = pending_opens_.erase(it);
    } catch (const engine::PlannerUnavailable&) {
      it->backoff = std::min(it->backoff * 2.0,
                             config_.fault.planner_retry_max);
      it->next_retry = t + it->backoff;
      ++it;
    }
  }
}

void Runtime::rebuild_stale_channels() {
  for (auto& [id, channel] : channels_) {
    if (channel.plan_stale_since < 0.0) continue;
    try {
      build_session(id, channel);
    } catch (const engine::PlannerUnavailable&) {
      continue;  // overlapping outages: the next outage end retries
    }
    metrics_.inc("fault.stale_rebuilds");
    if (config_.recorder != nullptr) {
      config_.recorder->record(
          now_, id, "plan_rebuilt",
          "stale since " + std::to_string(channel.plan_stale_since));
    }
    channel.plan_stale_since = -1.0;
  }
}

const engine::Session* Runtime::session(int channel) const {
  const auto it = channels_.find(channel);
  return it == channels_.end() ? nullptr : it->second.session.get();
}

const dataplane::Execution* Runtime::execution(int channel) const {
  const auto it = channels_.find(channel);
  return it == channels_.end() ? nullptr : it->second.execution.get();
}

const control::Controller* Runtime::controller(int channel) const {
  const auto it = channels_.find(channel);
  return it == channels_.end() ? nullptr : it->second.controller.get();
}

const obs::SloMonitor* Runtime::slo_monitor(int channel) const {
  const auto it = channels_.find(channel);
  return it == channels_.end() ? nullptr : it->second.slo.get();
}

void Runtime::advance_executions(double t) {
  if (!config_.dataplane.execute) return;
  if (!config_.control.enabled) {
    advance_streams_to(t);
    return;
  }
  // Stop at every sampling boundary on the global interval grid so each
  // channel's controller observes its stream at deterministic instants,
  // regardless of how event times fall between them.
  const double interval = config_.control.controller.sample_interval;
  while (true) {
    const double boundary =
        static_cast<double>(control_ticks_done_ + 1) * interval;
    if (boundary > t) break;
    advance_streams_to(boundary);
    ++control_ticks_done_;
    control_tick(boundary);
  }
  advance_streams_to(t);
}

void Runtime::advance_streams_to(double t) {
  const double dt = t - dp_clock_;
  for (auto& [id, channel] : channels_) {
    (void)id;
    if (!channel.execution) continue;
    if (dt > 0.0) {
      // Integrate the design-rate promise while it was in force; the
      // StreamReport's sustained_ratio is measured against this.
      channel.design_integral += channel.session->design_rate() * dt /
                                 config_.dataplane.execution.chunk_size;
      // ... and the *emission* promise (the controller's straggler
      // reference: what the stream actually tried to deliver).
      channel.control_expected += channel.session->current_rate() * dt;
    }
    channel.execution->run_until(t);
  }
  dp_clock_ = t;
}

void Runtime::control_tick(double t) {
  // Everything downstream (session adapt spans, directive audit) is
  // stamped at this sampling boundary, not the triggering event's time.
  if (config_.trace != nullptr) config_.trace->set_clock(t);
  // Peers silent past the crash threshold in *any* hosting channel, applied
  // once across all of them after the sampling sweep.
  std::set<int> crash_candidates;
  for (auto& [id, channel] : channels_) {
    if (!channel.execution || !channel.controller) continue;
    const dataplane::Execution& exec = *channel.execution;
    const engine::Session& session = *channel.session;
    const double chunk = config_.dataplane.execution.chunk_size;
    if (hot_.control_samples == nullptr) {
      hot_.control_samples = metrics_.counter_handle("control.samples");
    }
    ++*hot_.control_samples;

    // Crash detection. A crashed peer sends no leave event, but its
    // signature is unmistakable: delivered stands still and every adjacent
    // pipe's attempts + sent counters freeze (try_send bails on a dead
    // endpoint *before* counting the attempt). A partitioned peer is the
    // opposite — senders keep attempting and losing — so partitions never
    // false-trigger. Counters are read from the raw rows (the failure
    // detector is not behind the blackout's telemetry veil), but
    // blacked-out peers still get the benefit of the doubt: their silence
    // counters pause rather than accumulate.
    const bool watch_crashes =
        config_.fault.detect_crashes && session.current_rate() > 0.0;
    read_frame(channel);
    if (watch_crashes) frame_.activity.assign(nodes_.size(), 0);

    // Per-edge samples in ascending runtime-id order (the layout's sort).
    // The controller sees a blacked-out endpoint's edges frozen at their
    // last observed sample; the crash detector and the heavy hitters read
    // the raw row.
    control::TickInputs& inputs = frame_.inputs;
    inputs.nodes.clear();
    inputs.edges.clear();
    inputs.now = t;
    inputs.window = t - channel.last_control_time;
    channel.last_control_time = t;
    inputs.expected_delta = channel.control_expected;
    inputs.chunk_size = chunk;
    channel.control_expected = 0.0;
    for (const std::uint32_t row : channel.layout.order) {
      const dataplane::EdgeStats& stats = frame_.edges[row];
      const auto from = static_cast<std::size_t>(stats.from);
      const auto to = static_cast<std::size_t>(stats.to);
      if (watch_crashes) {
        frame_.activity[from] += stats.attempts + stats.sent;
        frame_.activity[to] += stats.attempts + stats.sent;
      }
      control::EdgeSample sample{
          stats.from,      stats.to,   stats.rate, stats.busy_time,
          stats.completed, stats.sent, stats.lost, stats.attempts};
      std::optional<control::EdgeSample>& cached =
          channel.layout.memo[row]->sample;
      if (!nodes_[from].blackout && !nodes_[to].blackout) {
        cached = sample;
      } else if (cached) {
        sample = *cached;
      }
      inputs.edges.push_back(sample);
    }

    // Per-node samples in ascending runtime-id order (dp_of_node's order);
    // capacities come from the session's current slots.
    const Instance& instance = session.instance();
    frame_.granted.assign(nodes_.size(), 0.0);
    for (int slot = 0; slot < instance.size(); ++slot) {
      frame_.granted[static_cast<std::size_t>(
          channel.node_of_slot[static_cast<std::size_t>(slot)])] =
          instance.b(slot);
    }
    const double warmup_grace = config_.control.controller.warmup_grace;
    const int source_rid = channel.node_of_slot[0];
    for (const auto& [rid, dp] : channel.dp_of_node) {
      const Node& info = nodes_[static_cast<std::size_t>(rid)];
      Channel::NodeMemo& memo = channel.node_memo[rid];
      control::NodeSample sample;
      sample.id = rid;
      sample.nominal = info.bandwidth * channel.grant.fraction;
      sample.granted = frame_.granted[static_cast<std::size_t>(rid)];
      sample.delivered = exec.delivered(dp) * chunk;
      const dataplane::NodeProgress progress = exec.progress(dp);
      sample.judgeable = dp != 0 && progress.alive &&
                         progress.joined + warmup_grace <= t - inputs.window;
      if (!info.blackout) {
        memo.sample = sample;
      } else if (memo.sample) {
        // Telemetry blackout: the collector is dark, so the controller
        // sees the last sample it actually observed, frozen — the exact
        // signature its stale-telemetry guard refuses to judge — never
        // fresh data it could not have collected.
        sample = *memo.sample;
      }
      inputs.nodes.push_back(sample);

      // Correlated silence across a whole region is a partition
      // signature, not a crash — real failure detectors gate on quorum for
      // exactly this reason. Pause the counter until the heal.
      if (!watch_crashes || rid == source_rid || info.blackout ||
          info.partition_group != 0) {
        continue;
      }
      const std::uint64_t observed =
          frame_.activity[static_cast<std::size_t>(rid)] +
          static_cast<std::uint64_t>(exec.delivered(dp));
      if (memo.activity == observed) {
        if (++memo.silent_windows >= config_.fault.crash_silence_windows) {
          crash_candidates.insert(rid);
        }
      } else {
        memo.silent_windows = 0;
      }
      memo.activity = observed;
    }

    control::Directive directive;
    {
      obs::PhaseScope decide(config_.profiler, "runtime/control/decide");
      directive = channel.controller->tick(inputs);
    }
    if (config_.profiler != nullptr) {
      obs::Profiler& prof = *config_.profiler;
      prof.count("runtime/control/decide", "node_samples",
                 inputs.nodes.size());
      prof.count("runtime/control/decide", "edge_samples",
                 inputs.edges.size());
      prof.count("runtime/control/decide", "straggler_trips",
                 static_cast<std::uint64_t>(directive.straggler_trips));
      prof.count("runtime/control/decide", "edge_trips",
                 static_cast<std::uint64_t>(directive.edge_trips));
      if (directive.act) prof.count("runtime/control/decide", "directives");
    }
    metrics_.inc("control.straggler_detections",
                 static_cast<std::uint64_t>(directive.straggler_trips));
    metrics_.inc("control.edge_detections",
                 static_cast<std::uint64_t>(directive.edge_trips));
    metrics_.set(channel_metric(id, "control.stragglers"),
                 static_cast<double>(directive.stragglers));
    metrics_.set(channel_metric(id, "control.degraded_edges"),
                 static_cast<double>(directive.degraded_edges));
    metrics_.set(channel_metric(id, "control.overrides"),
                 static_cast<double>(directive.factors.size()));
    metrics_.inc("control.stale_nodes",
                 static_cast<std::uint64_t>(directive.stale_nodes));
    metrics_.inc("control.stale_edges",
                 static_cast<std::uint64_t>(directive.stale_edges));
    if (directive.act) apply_directive(id, channel, directive, t);

    if (channel.slo) {
      // Fresh latency SLI input at the boundary (the per-event drain of
      // export_dataplane_metrics, just not deferred to the next event).
      tee_latencies(channel);
      // Windowed sustained SLI: the worst judgeable node's delivered delta
      // against the emission promise over the last slo_sustained_window
      // ticks. Windowed — not cumulative — so a node crippled by a healed
      // partition recovers to ok once its recent windows look healthy
      // again, even though it can never make up the backlog.
      double worst = 1.0;
      const double expected_total =
          channel.slo_expected_total + inputs.expected_delta;
      const int window_ticks =
          std::max(1, config_.control.slo_sustained_window);
      if (static_cast<int>(channel.slo_history.size()) >= window_ticks) {
        const Channel::SloSnapshot& base = channel.slo_history.front();
        const double promised = expected_total - base.expected;
        if (promised > 1e-12) {
          // Both sides are sorted by node id, so the join is a linear
          // two-pointer walk.
          auto prev = base.delivered.begin();
          for (const control::NodeSample& sample : inputs.nodes) {
            if (!sample.judgeable) continue;
            while (prev != base.delivered.end() && prev->first < sample.id) {
              ++prev;
            }
            if (prev == base.delivered.end()) break;
            if (prev->first != sample.id) continue;
            worst = std::min(worst,
                             (sample.delivered - prev->second) / promised);
          }
        }
      }
      channel.slo_expected_total = expected_total;
      Channel::SloSnapshot snap;
      snap.expected = expected_total;
      snap.delivered.reserve(inputs.nodes.size());
      for (const control::NodeSample& sample : inputs.nodes) {
        snap.delivered.emplace_back(sample.id, sample.delivered);
      }
      channel.slo_history.push_back(std::move(snap));
      while (static_cast<int>(channel.slo_history.size()) > window_ticks) {
        channel.slo_history.pop_front();
      }
      const std::uint64_t pages_before = channel.slo->pages();
      const std::uint64_t warns_before = channel.slo->warns();
      const obs::SloState state = channel.slo->evaluate(t, worst);
      metrics_.set(channel_metric(id, "slo.state"),
                   static_cast<double>(state));
      metrics_.observe("slo.sustained_worst", worst);
      metrics_.inc("slo.pages", channel.slo->pages() - pages_before);
      metrics_.inc("slo.warns", channel.slo->warns() - warns_before);
      if (config_.telemetry != nullptr) {
        config_.telemetry->observe(tel_.slo_worst, worst);
      }
    }
  }
  if (!crash_candidates.empty()) detect_crashes(crash_candidates, t);
}

void Runtime::detect_crashes(const std::set<int>& candidates, double t) {
  std::set<int> departed;
  for (const int node : candidates) {
    Node& info = nodes_[static_cast<std::size_t>(node)];
    if (info.alive) {
      // The detector can evict a live-but-totally-silent peer too; after
      // crash_silence_windows of nothing the distinction no longer pays
      // its way — real failure detectors are exactly this ruthless.
      info.alive = false;
      --alive_peers_;
    }
    departed.insert(node);
    metrics_.inc("fault.crashes_detected");
    if (info.crashed) {
      metrics_.observe("fault.detect_latency", t - info.crash_time);
    }
    if (config_.trace != nullptr) {
      config_.trace->instant(obs::Lane::kRuntime, "runtime", "crash_detected",
                             {{"node", node}});
    }
    if (config_.recorder != nullptr) {
      config_.recorder->record(
          t, -1, "crash_detected",
          "node=" + std::to_string(node) + " silent for " +
              std::to_string(config_.fault.crash_silence_windows) +
              " windows");
    }
  }
  // One synthesized leave across *every* hosting channel at once: the
  // crashed peer's grants reclaim everywhere in the same boundary instead
  // of each channel's controller re-detecting on its own schedule.
  apply_departures(departed, t);
  metrics_.set("population.alive", static_cast<double>(alive_peers_));
}

void Runtime::apply_directive(int id, Channel& channel,
                              const control::Directive& directive, double t) {
  // Arm the time-to-recover SLI: the sustained ratio now has
  // recover_timeout seconds to climb back over its target.
  if (channel.slo) channel.slo->on_directive(t);
  const double rate_before = channel.session->current_rate();
  const Instance& instance = channel.session->instance();
  engine::AdaptationRequest request;
  request.force_replan = directive.force_replan;
  // Effective caps per current slot: the broker-granted nominal scaled by
  // the controller's capacity-class factor.
  request.capacities.resize(static_cast<std::size_t>(instance.size()));
  std::vector<int> slot_of_node(nodes_.size(), -1);
  for (int slot = 0; slot < instance.size(); ++slot) {
    const int rid = channel.node_of_slot[static_cast<std::size_t>(slot)];
    slot_of_node[static_cast<std::size_t>(rid)] = slot;
    double factor = 1.0;
    const auto it = directive.factors.find(rid);
    if (it != directive.factors.end()) factor = it->second;
    request.capacities[static_cast<std::size_t>(slot)] =
        nodes_[static_cast<std::size_t>(rid)].bandwidth *
        channel.grant.fraction * factor;
  }
  for (const auto& [from, to, limit] : directive.edge_limits) {
    const int from_slot = slot_of_node[static_cast<std::size_t>(from)];
    const int to_slot = slot_of_node[static_cast<std::size_t>(to)];
    if (from_slot < 0 || to_slot < 0) continue;
    request.edge_limits.emplace_back(from_slot, to_slot, limit);
  }

  const engine::ChurnOutcome outcome = channel.session->adapt(request);
  // Same node set, new sorted order: remap slots through original_id.
  const Instance& updated = channel.session->instance();
  std::vector<int> remapped(static_cast<std::size_t>(updated.size()));
  for (int slot = 0; slot < updated.size(); ++slot) {
    remapped[static_cast<std::size_t>(slot)] =
        channel.node_of_slot[static_cast<std::size_t>(
            updated.original_id(slot))];
  }
  channel.node_of_slot = std::move(remapped);

  if (outcome.planner_fault) {
    if (channel.plan_stale_since < 0.0) channel.plan_stale_since = t;
    metrics_.inc("fault.planner_faults");
    if (config_.recorder != nullptr) {
      config_.recorder->record(t, id, "plan_stale",
                               "adapt replan refused (planner outage)");
    }
  }
  if (config_.profiler != nullptr) {
    obs::Profiler& prof = *config_.profiler;
    prof.enter("runtime/session/adapt");
    prof.count("runtime/session/adapt", "demotions",
               static_cast<std::uint64_t>(directive.demotions));
    prof.count("runtime/session/adapt", "restores",
               static_cast<std::uint64_t>(directive.restores));
    prof.count("runtime/session/adapt", "reroutes",
               static_cast<std::uint64_t>(directive.reroutes));
    prof.count("runtime/session/adapt",
               outcome.full_replan ? "replans" : "repairs");
    prof.count("runtime/session/adapt", "verify_calls",
               static_cast<std::uint64_t>(outcome.verify_calls));
  }
  metrics_.inc("control.demotions",
               static_cast<std::uint64_t>(directive.demotions));
  metrics_.inc("control.restores",
               static_cast<std::uint64_t>(directive.restores));
  metrics_.inc("control.reroutes",
               static_cast<std::uint64_t>(directive.reroutes));
  metrics_.inc(outcome.full_replan ? "control.replans" : "control.repairs");
  metrics_.observe("control.drift", directive.drift);
  // Every adapted overlay went through flow verification (repair_scheme's
  // verifier or the planner's verify_plans) — fold into the verify.* view.
  metrics_.inc("verify.calls",
               static_cast<std::uint64_t>(outcome.verify_calls));
  metrics_.inc("verify.tier_sweep",
               static_cast<std::uint64_t>(outcome.verify_sweep));
  metrics_.inc("verify.tier_maxflow",
               static_cast<std::uint64_t>(outcome.verify_maxflow));
  if (config_.collect_timing) {
    metrics_.observe("timing.verify.us", outcome.verify_us);
  }
  if (rate_before > 0.0) {
    metrics_.observe("control.recovered_ratio",
                     outcome.achieved_rate / rate_before);
    if (config_.telemetry != nullptr && outcome.achieved_rate >= 0.0) {
      config_.telemetry->observe(tel_.recovered,
                                 outcome.achieved_rate / rate_before);
    }
  }
  if (config_.telemetry != nullptr) {
    // Heavy-hitter view of the control plane: which nodes keep costing
    // capacity. Weight = milli-units of capacity factor surrendered, so a
    // node demoted 1.0 -> 0.25 outweighs ten 0.95 -> 0.90 nudges.
    for (const control::Evidence& ev : directive.evidence) {
      if (ev.node < 0 || std::strcmp(ev.action, "demote") != 0) continue;
      const double drop = std::max(0.0, ev.factor_before - ev.factor_after);
      config_.telemetry->offer(
          tel_.node_demotions,
          "node:" + config_.telemetry_node_prefix + std::to_string(ev.node),
          std::max<std::uint64_t>(
              1, static_cast<std::uint64_t>(std::lround(drop * 1000.0))));
    }
  }
  set_channel_gauges(id, channel);
  // The adapted overlay splices into the running stream — no restart; the
  // source re-paces to the newly verified rate.
  sync_execution(id, channel);

  ControlReport report;
  report.time = t;
  report.channel = id;
  report.demotions = directive.demotions;
  report.restores = directive.restores;
  report.reroutes = directive.reroutes;
  report.stragglers = directive.stragglers;
  report.degraded_edges = directive.degraded_edges;
  report.drift = directive.drift;
  report.replan = directive.force_replan;
  report.full_replan = outcome.full_replan;
  report.rate_before = rate_before;
  report.rate_after = outcome.achieved_rate;
  report.evidence = directive.evidence;
  if (config_.trace != nullptr) {
    config_.trace->complete_at(
        obs::Lane::kControl, "control", "directive", t, 0.0,
        {{"channel", id},
         {"demotions", directive.demotions},
         {"restores", directive.restores},
         {"reroutes", directive.reroutes},
         {"drift", directive.drift},
         {"replan", directive.force_replan},
         {"rate_before", rate_before},
         {"rate_after", outcome.achieved_rate}});
    // The causal audit, event by event: each record names the detector
    // that judged, the signal it saw and the capacity move it drove.
    for (const control::Evidence& ev : directive.evidence) {
      config_.trace->instant_at(obs::Lane::kControl, "control", ev.action, t,
                                {{"channel", id},
                                 {"detector", ev.detector},
                                 {"node", ev.node},
                                 {"from", ev.from},
                                 {"to", ev.to},
                                 {"window", ev.window_value},
                                 {"ewma", ev.ewma},
                                 {"threshold", ev.threshold},
                                 {"estimate", ev.estimate},
                                 {"factor_before", ev.factor_before},
                                 {"factor_after", ev.factor_after},
                                 {"drift", ev.drift},
                                 {"trips", ev.trips}});
    }
  }
  if (config_.recorder != nullptr) {
    for (const control::Evidence& ev : directive.evidence) {
      std::string detail = std::string(ev.detector);
      if (ev.node >= 0) detail += " node=" + std::to_string(ev.node);
      if (ev.from >= 0) {
        detail += " edge=" + std::to_string(ev.from) + "->" +
                  std::to_string(ev.to);
      }
      detail += " ewma=" + std::to_string(ev.ewma) +
                " threshold=" + std::to_string(ev.threshold);
      config_.recorder->record(t, id, ev.action, std::move(detail));
    }
  }
  control_log_.push_back(report);
}

void Runtime::sync_execution(int id, Channel& channel) {
  (void)id;
  if (!channel.execution) return;
  dataplane::Execution& exec = *channel.execution;
  const engine::Session& session = *channel.session;
  const Instance& instance = session.instance();
  const auto slots = static_cast<std::size_t>(instance.size());
  // Nodes: the session's current platform, keyed by runtime node id. One
  // merge of the slots (by runtime id) against the execution map finds the
  // departed, the kept and the new.
  std::vector<std::pair<int, int>> slot_of_node(slots);  // (rid, slot)
  for (std::size_t slot = 0; slot < slots; ++slot) {
    slot_of_node[slot] = {channel.node_of_slot[slot], static_cast<int>(slot)};
  }
  std::sort(slot_of_node.begin(), slot_of_node.end());
  std::vector<int> dp_of_slot(slots, -1);
  auto kept = channel.dp_of_node.begin();
  const auto depart_before = [&](int rid) {
    for (; kept != channel.dp_of_node.end() && kept->first < rid; ++kept) {
      // Departed (or dropped from the overlay): in-flight chunks vanish,
      // reservations release, survivors re-request elsewhere.
      exec.remove_node(kept->second);
      channel.expected_at_join.erase(kept->second);
    }
  };
  for (const auto& [rid, slot] : slot_of_node) {
    depart_before(rid);
    if (kept != channel.dp_of_node.end() && kept->first == rid) {
      dp_of_slot[static_cast<std::size_t>(slot)] = kept->second;
      ++kept;
    }
  }
  depart_before(std::numeric_limits<int>::max());
  for (std::size_t slot = 0; slot < slots; ++slot) {
    const int node = channel.node_of_slot[slot];
    const Node& info = nodes_[static_cast<std::size_t>(node)];
    int& dp = dp_of_slot[slot];
    if (dp < 0) {
      dp = exec.add_node(instance.b(static_cast<int>(slot)));
      // A live-edge joiner is only on the hook for chunks emitted after it
      // arrived.
      channel.expected_at_join.emplace(dp, channel.design_integral);
      // The effective world follows the node into this stream: an already
      // WAN-classed, partitioned or corrupting peer joins on its current
      // fault state, not a clean slate.
      if (info.wan) exec.set_egress_profile(dp, info.profile);
      if (info.partition_group != 0) {
        exec.set_partition_group(dp, info.partition_group);
      }
      if (info.corrupt_rate > 0.0) exec.set_corrupt_rate(dp, info.corrupt_rate);
    } else {
      // An abruptly crashed node stays in the session's platform until the
      // silence detector synthesizes its departure; until then its stream
      // slot is a corpse — nothing to budget or cap.
      if (!exec.node_alive(dp)) continue;
      exec.set_node_budget(dp, instance.b(static_cast<int>(slot)));
    }
    // Brownout caps are absolute (a fraction of the *nominal* channel
    // grant), so they survive demotions and follow renegotiations.
    exec.set_effective_capacity(
        dp, info.capacity_factor < 1.0
                ? info.capacity_factor * info.bandwidth * channel.grant.fraction
                : -1.0);
  }
  channel.dp_of_node.resize(slots);
  for (std::size_t k = 0; k < slots; ++k) {
    const auto& [rid, slot] = slot_of_node[k];
    channel.dp_of_node[k] = {rid, dp_of_slot[static_cast<std::size_t>(slot)]};
  }
  // Pipes: splice the session's current overlay in, preserving in-flight
  // transmissions on edges that survived.
  const BroadcastScheme& scheme = session.scheme();
  std::vector<std::tuple<int, int, double>> desired;
  desired.reserve(static_cast<std::size_t>(scheme.edge_count()));
  for (int slot = 0; slot < scheme.num_nodes(); ++slot) {
    const int from = dp_of_slot.at(static_cast<std::size_t>(slot));
    // Splice around crashed-but-undetected nodes: the plan still names
    // them, but their pipes stay down until detection repairs the overlay.
    if (!exec.node_alive(from)) continue;
    for (const auto& [to_slot, rate] : scheme.out_edges(slot)) {
      const int to = dp_of_slot.at(static_cast<std::size_t>(to_slot));
      if (!exec.node_alive(to)) continue;
      desired.emplace_back(from, to, rate);
    }
  }
  exec.reconcile_edges(desired);
  // Emit at the verified rate of the overlay actually in service — the
  // stream can never outrun what the flow bound proves deliverable.
  exec.set_emission_rate(session.current_rate());
  channel.max_verified = std::max(channel.max_verified, session.current_rate());
}

void Runtime::export_dataplane_metrics(int id, Channel& channel) {
  if (!channel.execution) return;
  dataplane::Execution& exec = *channel.execution;
  // Interned delta export: each dataplane counter's cell resolves once
  // (lazily, on the first positive delta — so a run that never loses a
  // chunk still never materializes dataplane.losses) and the telemetry
  // shard mirrors the same delta through its O(1) handle.
  const auto delta = [this](std::uint64_t*& slot, const char* name,
                            obs::ShardRegistry::CounterHandle mirror,
                            std::uint64_t current, std::uint64_t& seen) {
    if (current > seen) {
      if (slot == nullptr) slot = metrics_.counter_handle(name);
      *slot += current - seen;
      if (config_.telemetry != nullptr) {
        config_.telemetry->inc(mirror, current - seen);
      }
      seen = current;
    }
  };
  delta(hot_.dp_delivered, "dataplane.delivered", tel_.delivered,
        exec.delivered_chunks(), channel.seen_delivered);
  delta(hot_.dp_losses, "dataplane.losses", tel_.losses, exec.losses(),
        channel.seen_losses);
  delta(hot_.dp_retransmits, "dataplane.retransmits", tel_.retransmits,
        exec.retransmits(), channel.seen_retransmits);
  delta(hot_.dp_hol_stalls, "dataplane.hol_stalls", tel_.hol_stalls,
        exec.hol_stalls(), channel.seen_stalls);
  delta(hot_.dp_duplicates, "dataplane.duplicates", tel_.duplicates,
        exec.duplicates(), channel.seen_duplicates);
  tee_latencies(channel);
  metrics_.set(channel_metric(id, "dataplane.delivered"),
               static_cast<double>(exec.delivered_chunks()));
}

void Runtime::tee_latencies(Channel& channel) {
  for (const double latency : channel.execution->drain_latencies()) {
    if (hot_.dp_chunk_latency == nullptr) {
      hot_.dp_chunk_latency =
          metrics_.histogram_handle("dataplane.chunk_latency");
    }
    hot_.dp_chunk_latency->observe(latency);
    if (config_.telemetry != nullptr) {
      config_.telemetry->observe(tel_.latency, latency);
    }
    if (channel.slo) channel.slo->observe_latency(latency);
  }
}

void Runtime::read_frame(Channel& channel) {
  const dataplane::Execution& exec = *channel.execution;
  std::vector<dataplane::EdgeStats>& rows = frame_.edges;
  std::vector<int>& rid_of_dp = frame_.rid_of_dp;
  std::vector<std::uint64_t>& keys = frame_.keys;
  exec.edge_stats_into(rows);
  rid_of_dp.assign(static_cast<std::size_t>(exec.num_nodes()), -1);
  for (const auto& [rid, dp] : channel.dp_of_node) {
    rid_of_dp[static_cast<std::size_t>(dp)] = rid;
  }
  std::size_t kept = 0;
  keys.clear();
  for (dataplane::EdgeStats& stats : rows) {
    stats.from = rid_of_dp[static_cast<std::size_t>(stats.from)];
    stats.to = rid_of_dp[static_cast<std::size_t>(stats.to)];
    if (stats.from < 0 || stats.to < 0) continue;
    rows[kept++] = stats;
    keys.push_back(edge_key(stats.from, stats.to));
  }
  rows.resize(kept);
  Channel::FrameLayout& layout = channel.layout;
  if (keys != layout.keys) {
    // The pipe set changed since the last frame. Rows come grouped by
    // sender, so the runtime-id order is the senders' groups in
    // dp_of_node's order, each sorted by receiver (a handful of rows).
    std::vector<std::uint32_t>& order = frame_.order;
    std::vector<int>& first_row = frame_.first_row;
    first_row.assign(nodes_.size(), -1);
    for (std::size_t k = kept; k-- > 0;) {
      first_row[static_cast<std::size_t>(rows[k].from)] = static_cast<int>(k);
    }
    order.clear();
    for (const auto& node : channel.dp_of_node) {
      const int rid = node.first;
      const int first = first_row[static_cast<std::size_t>(rid)];
      if (first < 0) continue;
      const auto group = static_cast<std::ptrdiff_t>(order.size());
      for (auto k = static_cast<std::size_t>(first);
           k < kept && rows[k].from == rid; ++k) {
        order.push_back(static_cast<std::uint32_t>(k));
      }
      std::sort(order.begin() + group, order.end(),
                [&keys](std::uint32_t a, std::uint32_t b) {
                  return keys[a] < keys[b];
                });
    }
    // Memos: both layouts walk their keys ascending, so one merge hands
    // the surviving edges their old memo; only new edges hit the table.
    std::vector<Channel::EdgeMemo*>& memo = frame_.memo;
    memo.assign(kept, nullptr);
    std::size_t old = 0;
    for (const std::uint32_t row : order) {
      const std::uint64_t key = keys[row];
      while (old < layout.order.size() &&
             layout.keys[layout.order[old]] < key) {
        ++old;
      }
      memo[row] = old < layout.order.size() &&
                          layout.keys[layout.order[old]] == key
                      ? layout.memo[layout.order[old]]
                      : &channel.edge_memo[key];
    }
    layout.keys.swap(keys);
    layout.order.swap(order);
    layout.memo.swap(memo);
  }
  if (config_.telemetry == nullptr) return;
  obs::ShardRegistry& shard = *config_.telemetry;
  const std::string& prefix = config_.telemetry_node_prefix;
  for (std::size_t k = 0; k < kept; ++k) {
    const dataplane::EdgeStats& stats = rows[k];
    Channel::EdgeMemo& memo = *layout.memo[k];
    // Pipes reset their counters when an overlay patch re-splices them; a
    // counter below its watermark restarts the delta from zero.
    const std::uint64_t lost_delta =
        stats.lost >= memo.lost ? stats.lost - memo.lost : stats.lost;
    const std::uint64_t stall_delta = stats.window_stalls >= memo.stalls
                                          ? stats.window_stalls - memo.stalls
                                          : stats.window_stalls;
    memo.lost = stats.lost;
    memo.stalls = stats.window_stalls;
    if (lost_delta == 0 && stall_delta == 0) continue;
    if (memo.node_key.empty()) {
      memo.node_key = "node:" + prefix + std::to_string(stats.from);
    }
    if (lost_delta > 0) {
      if (memo.edge_key.empty()) {
        memo.edge_key = "edge:" + prefix + std::to_string(stats.from) + "->" +
                        std::to_string(stats.to);
      }
      shard.offer(tel_.edge_retransmits, memo.edge_key, lost_delta);
      shard.offer(tel_.node_retransmits, memo.node_key, lost_delta);
    }
    if (stall_delta > 0) {
      shard.offer(tel_.node_stalls, memo.node_key, stall_delta);
    }
  }
}

StreamReport Runtime::finalize_stream(int id, Channel& channel) {
  dataplane::Execution& exec = *channel.execution;
  // End of stream: stop the source and let the in-flight tail drain (in
  // virtual time) so backpressured chunks still count.
  exec.stop_emission();
  exec.run_to_completion();
  export_dataplane_metrics(id, channel);
  const dataplane::ExecutionReport executed =
      exec.report(channel.session->current_rate());
  StreamReport report;
  report.channel = id;
  report.open_time = channel.open_time;
  report.end_time = now_;
  report.emitted = executed.emitted;
  report.delivered_chunks = executed.delivered_chunks;
  report.retransmits = executed.retransmits;
  report.hol_stalls = executed.hol_stalls;
  report.duplicates = executed.duplicates;
  report.expected_chunks = channel.design_integral;
  report.achieved_rate = executed.achieved_rate;
  report.verified_rate = channel.max_verified;
  for (const auto& [node, dp] : channel.dp_of_node) {
    (void)node;
    if (dp == 0 || !exec.node_alive(dp)) continue;
    const double expected =
        channel.design_integral - channel.expected_at_join.at(dp);
    if (expected < 1.0) continue;  // too young for a meaningful ratio
    report.sustained_ratio =
        std::min(report.sustained_ratio, exec.delivered(dp) / expected);
  }
  // flow::Verifier cross-check: a windowed empirical rate may wobble a few
  // percent above the fluid bound on short windows, never materially.
  report.rate_within_verified =
      report.achieved_rate <= report.verified_rate * 1.02 + 1e-9;
  metrics_.inc("dataplane.streams_finalized");
  if (config_.trace != nullptr) {
    config_.trace->complete_at(obs::Lane::kExecution, "dataplane",
                               "stream_end", now_, 0.0,
                               {{"channel", id},
                                {"emitted", report.emitted},
                                {"delivered", report.delivered_chunks},
                                {"achieved", report.achieved_rate},
                                {"verified", report.verified_rate},
                                {"audit_ok", report.rate_within_verified}});
  }
  if (config_.recorder != nullptr) {
    config_.recorder->record(
        now_, id, "stream_end",
        "achieved=" + std::to_string(report.achieved_rate) +
            " verified=" + std::to_string(report.verified_rate));
  }
  if (!report.rate_within_verified) {
    metrics_.inc("dataplane.rate_audit_failures");
    // Budget audit failed: snapshot the channel's recent history to disk
    // (if a dump path is configured) while the cause is still in the ring.
    if (config_.recorder != nullptr) {
      config_.recorder->record_failure(
          now_, id, "Runtime::finalize_stream",
          {"achieved rate " + std::to_string(report.achieved_rate) +
           " exceeds verified " + std::to_string(report.verified_rate)});
    }
  }
  metrics_.observe("dataplane.sustained_ratio", report.sustained_ratio);
  metrics_.observe("dataplane.achieved_rate", report.achieved_rate);
  if (config_.telemetry != nullptr) {
    config_.telemetry->observe(tel_.sustained,
                               std::max(0.0, report.sustained_ratio));
    // Control-less runs never tick; the close-out read attributes
    // whatever accumulated since the last boundary.
    read_frame(channel);
  }
  metrics_.erase(channel_metric(id, "dataplane.delivered"));
  channel.execution.reset();
  return report;
}

std::vector<StreamReport> Runtime::drain(double t) {
  std::vector<StreamReport> reports;
  if (!config_.dataplane.execute) return reports;
  if (t < dp_clock_) {
    throw std::invalid_argument("Runtime::drain: time went backwards");
  }
  now_ = std::max(now_, t);
  advance_executions(t);
  if (config_.trace != nullptr) config_.trace->set_clock(now_);
  for (auto& [id, channel] : channels_) {
    if (!channel.execution) continue;
    reports.push_back(finalize_stream(id, channel));
    stream_log_.push_back(reports.back());
  }
  return reports;
}

std::vector<std::string> Runtime::validate(double tol) const {
  std::vector<double> allocated(nodes_.size(), 0.0);
  for (const auto& [id, channel] : channels_) {
    (void)id;
    const std::vector<double> caps = channel.session->capacities();
    for (std::size_t slot = 0; slot < caps.size(); ++slot) {
      allocated[static_cast<std::size_t>(channel.node_of_slot[slot])] +=
          caps[slot];
    }
  }
  std::vector<std::string> violations;
  for (std::size_t node = 0; node < nodes_.size(); ++node) {
    const double budget = nodes_[node].bandwidth;
    if (allocated[node] > budget * (1.0 + tol) + tol) {
      violations.push_back("node " + std::to_string(node) +
                           " oversubscribed: allocated " +
                           std::to_string(allocated[node]) + " > budget " +
                           std::to_string(budget));
    }
  }
  // Broker audit: granted fractions fit the usable pool even after faulty
  // teardowns (a leaked grant from a mid-fault unwind would show up here).
  if (broker_.allocated() > broker_.usable() * (1.0 + tol) + tol) {
    violations.push_back(
        "broker oversubscribed: allocated " +
        std::to_string(broker_.allocated()) + " > usable " +
        std::to_string(broker_.usable()));
  }
  for (const auto& [id, channel] : channels_) {
    // Slot map <-> execution map consistency: every planned slot resolves
    // to exactly one live dataplane node.
    if (channel.execution) {
      for (std::size_t slot = 0; slot < channel.node_of_slot.size(); ++slot) {
        if (channel.dp_of(channel.node_of_slot[slot]) < 0) {
          violations.push_back(
              "channel " + std::to_string(id) + " slot " +
              std::to_string(slot) + " (node " +
              std::to_string(channel.node_of_slot[slot]) +
              ") missing from its execution map");
        }
      }
      // The stream's own no-orphan audit: windows, reservations and
      // in-flight copies reconcile even mid-crash / mid-partition.
      for (const std::string& violation : channel.execution->validate(tol)) {
        violations.push_back("channel " + std::to_string(id) +
                             " execution: " + violation);
      }
    }
  }
  // An invariant breach is exactly when the flight recorder earns its keep:
  // capture the violations beside the recent history (and auto-dump).
  if (!violations.empty() && config_.recorder != nullptr) {
    config_.recorder->record_failure(now_, -1, "Runtime::validate",
                                     violations);
  }
  return violations;
}

}  // namespace bmp::runtime
