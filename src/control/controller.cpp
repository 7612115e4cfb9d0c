#include "bmp/control/controller.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace bmp::control {

Controller::Controller(ControllerConfig config) : config_(config) {
  if (!(config.sample_interval > 0.0) || !std::isfinite(config.sample_interval)) {
    throw std::invalid_argument("Controller: sample_interval must be > 0");
  }
  if (!(config.ewma_alpha > 0.0) || config.ewma_alpha > 1.0) {
    throw std::invalid_argument("Controller: ewma_alpha in (0, 1]");
  }
  if (config.capacity_classes < 1) {
    throw std::invalid_argument("Controller: capacity_classes must be >= 1");
  }
  if (!(config.demote_floor > 0.0) || config.demote_floor > 1.0) {
    throw std::invalid_argument("Controller: demote_floor in (0, 1]");
  }
  if (config.action_cooldown < 0.0 || config.restore_cooldown < 0.0) {
    throw std::invalid_argument("Controller: cooldowns must be >= 0");
  }
  if (!(config.replan_drift > 0.0)) {
    throw std::invalid_argument("Controller: replan_drift must be > 0");
  }
  if (config.restore_grid < 1) {
    throw std::invalid_argument("Controller: restore_grid must be >= 1");
  }
  if (config.stale_ttl < 1) {
    throw std::invalid_argument("Controller: stale_ttl must be >= 1");
  }
  // Detector configs validate themselves on first construction.
  (void)HysteresisDetector(config.straggler);
  (void)HysteresisDetector(config.egress);
  (void)HysteresisDetector(config.edge);
}

double Controller::quantize(double value) const {
  const double classes = static_cast<double>(config_.capacity_classes);
  double q = std::floor(value * classes + 1e-9) / classes;
  return std::clamp(q, config_.demote_floor, 1.0);
}

void Controller::forgive(int id) {
  if (id >= 0 && id < static_cast<int>(nodes_.size()) &&
      nodes_[static_cast<std::size_t>(id)].known) {
    NodeState& node = nodes_[static_cast<std::size_t>(id)];
    if (node.factor < 1.0 && node.pardon_from < 0.0) {
      node.pardon_from = node.factor;
    }
    node.egress_health = HysteresisDetector(config_.egress);
    node.straggler = HysteresisDetector(config_.straggler);
    node.egress = Ewma();
    node.loss = Ewma();
    node.sustained = Ewma();
    node.stale_windows = 0;
    node.probe_interval = 0.0;
    node.egress_tripped = false;
    node.straggler_tripped = false;
    // prev_delivered stays: the raw counter is still monotone, wiping it
    // would turn the whole stream history into one giant first delta.
  }
  for (EdgeState& edge : edges_) {
    if (edge.from != id && edge.to != id) continue;
    edge.health = HysteresisDetector(config_.edge);
    edge.goodput = Ewma();
    edge.loss = Ewma();
    edge.stale_windows = 0;
    edge.tripped = false;
    edge.last_action = -1e300;
    // prev_* counters stay, same reason as above.
  }
}

double Controller::factor(int id) const {
  if (id < 0 || id >= static_cast<int>(nodes_.size())) return 1.0;
  return nodes_[static_cast<std::size_t>(id)].factor;
}

NodeHealth Controller::node_health(int id) const {
  NodeHealth health;
  if (id < 0 || id >= static_cast<int>(nodes_.size())) return health;
  const NodeState& node = nodes_[static_cast<std::size_t>(id)];
  if (!node.known) return health;
  health.known = true;
  health.factor = node.factor;
  health.egress_ewma = node.egress.value();
  health.sustained_ewma = node.sustained.value();
  health.egress_degraded = node.egress_health.degraded();
  health.straggler = node.straggler.degraded();
  health.egress_trips = node.egress_health.trips();
  health.straggler_trips = node.straggler.trips();
  health.straggler_recoveries = node.straggler.recoveries();
  health.stale_windows = node.stale_windows;
  return health;
}

int Controller::check_inputs(const TickInputs& inputs) const {
  if (!std::isfinite(inputs.now) || (ticks_ > 0 && !(inputs.now > last_now_))) {
    throw std::invalid_argument(
        "Controller::tick: now must be finite and increase");
  }
  int max_id = -1;  // the last node id so far, then raised by the edges
  for (const NodeSample& sample : inputs.nodes) {
    if (sample.id < 0) {
      throw std::invalid_argument("Controller::tick: negative node id");
    }
    if (sample.id <= max_id) {
      throw std::invalid_argument(
          "Controller::tick: nodes not strictly ascending by id");
    }
    max_id = sample.id;
  }
  const EdgeSample* last = nullptr;
  for (const EdgeSample& sample : inputs.edges) {
    if (sample.from < 0 || sample.to < 0) {
      throw std::invalid_argument("Controller::tick: negative edge endpoint");
    }
    if (last != nullptr &&
        std::make_pair(sample.from, sample.to) <=
            std::make_pair(last->from, last->to)) {
      throw std::invalid_argument(
          "Controller::tick: edges not strictly ascending by (from, to)");
    }
    last = &sample;
    max_id = std::max({max_id, sample.from, sample.to});
  }
  return max_id;
}

std::size_t Controller::edge_index(int from, int to, std::size_t& cursor) {
  auto& out = out_[static_cast<std::size_t>(from)];
  while (cursor < out.size() && out[cursor].first < to) ++cursor;
  if (cursor < out.size() && out[cursor].first == to) {
    return out[cursor].second;
  }
  EdgeState fresh;
  fresh.from = from;
  fresh.to = to;
  fresh.health = HysteresisDetector(config_.edge);
  edges_.push_back(std::move(fresh));
  out.insert(out.begin() + static_cast<std::ptrdiff_t>(cursor),
             std::make_pair(to, edges_.size() - 1));
  return edges_.size() - 1;
}

Directive Controller::tick(const TickInputs& inputs) {
  const int max_id = check_inputs(inputs);
  last_now_ = inputs.now;
  ++ticks_;
  Directive out;

  const auto ids = static_cast<std::size_t>(max_id + 1);
  if (nodes_.size() < ids) nodes_.resize(ids);
  if (out_.size() < ids) out_.resize(ids);
  if (acc_.size() < ids) {
    acc_.resize(ids);
    adjacent_.resize(ids);
    frozen_.resize(ids);
    dark_.resize(ids);
  }
  const auto clear = [this](int id) {
    const auto i = static_cast<std::size_t>(id);
    acc_[i] = SenderAcc();
    adjacent_[i] = 0;
    frozen_[i] = 0;
    dark_[i] = 0;
  };
  for (const NodeSample& sample : inputs.nodes) clear(sample.id);
  for (const EdgeSample& sample : inputs.edges) {
    clear(sample.from);
    clear(sample.to);
  }

  // ---- ingest per-edge telemetry -----------------------------------------
  // Node-level egress health aggregates the raw deltas across *all* of a
  // sender's pipes before judging: a browned-out node whose upload is
  // spread over many thin pipes still accumulates enough transmissions per
  // window at the node level, where each pipe alone would be unjudgeable.
  //
  // Stale-telemetry detection is node-centric: the collector substitutes a
  // whole node's sample set at once (its node counters plus every adjacent
  // edge), so an edge only counts as stale when one of its *endpoints* is a
  // stale node. A merely glacial pipe — one transmission crawling across a
  // whole window leaves both sent and attempts at zero — still has a live
  // endpoint (deliveries or sibling pipes moving) and must keep weighing on
  // its sender's egress ratio, or a deep brownout would read as health.
  work_.clear();
  int cursor_from = -1;
  std::size_t cursor = 0;
  for (const EdgeSample& sample : inputs.edges) {
    if (sample.from != cursor_from) {
      cursor_from = sample.from;
      cursor = 0;
    }
    EdgeWork work;
    work.edge = edge_index(sample.from, sample.to, cursor);
    EdgeState& edge = edges_[work.edge];
    edge.tripped = false;
    double busy_delta = sample.busy_time - edge.prev_busy;
    double completed_delta = sample.completed - edge.prev_completed;
    std::uint64_t sent_delta = sample.sent - edge.prev_sent;
    std::uint64_t lost_delta = sample.lost - edge.prev_lost;
    std::uint64_t attempts_delta = sample.attempts - edge.prev_attempts;
    if (busy_delta < 0.0 || completed_delta < 0.0 ||
        sample.sent < edge.prev_sent || sample.lost < edge.prev_lost ||
        sample.attempts < edge.prev_attempts) {
      // The pipe was respliced by a re-plan; its counters restarted.
      busy_delta = sample.busy_time;
      completed_delta = sample.completed;
      sent_delta = sample.sent;
      lost_delta = sample.lost;
      attempts_delta = sample.attempts;
    }
    edge.prev_busy = sample.busy_time;
    edge.prev_completed = sample.completed;
    edge.prev_sent = sample.sent;
    edge.prev_lost = sample.lost;
    edge.prev_attempts = sample.attempts;
    // Freeze signature: a live pipe's counters move nearly every window
    // (even an idle pipe is offered work, bumping attempts); sent AND
    // attempts standing still together is this edge's staleness vote for
    // its endpoints. The vote alone proves nothing — see the census below.
    const bool frozen = sent_delta == 0 && attempts_delta == 0;
    ++adjacent_[static_cast<std::size_t>(sample.from)];
    ++adjacent_[static_cast<std::size_t>(sample.to)];
    if (frozen) {
      ++frozen_[static_cast<std::size_t>(sample.from)];
      ++frozen_[static_cast<std::size_t>(sample.to)];
    }
    work.busy_delta = busy_delta;
    work.completed_delta = completed_delta;
    work.sent_delta = sent_delta;
    work.lost_delta = lost_delta;
    work_.push_back(work);
  }

  // ---- stale-node census ------------------------------------------------
  // A node is dark when nothing about it moved this window: no delivery
  // progress and every adjacent pipe frozen. "No data" is not "data says
  // zero" — dark windows update no estimator and trip no detector, so a
  // telemetry blackout cannot manufacture a brownout.
  delivered_.resize(inputs.nodes.size());
  for (std::size_t k = 0; k < inputs.nodes.size(); ++k) {
    const NodeSample& sample = inputs.nodes[k];
    const auto id = static_cast<std::size_t>(sample.id);
    NodeState& node = nodes_[id];
    if (!node.known) {
      node.known = true;
      node.straggler = HysteresisDetector(config_.straggler);
      node.egress_health = HysteresisDetector(config_.egress);
    }
    double delivered_delta = sample.delivered - node.prev_delivered;
    if (delivered_delta < 0.0) delivered_delta = sample.delivered;
    node.prev_delivered = sample.delivered;
    delivered_[k] = delivered_delta;
    if (adjacent_[id] > 0 && delivered_delta <= 0.0 &&
        frozen_[id] == adjacent_[id]) {
      dark_[id] = 1;
    }
  }

  for (std::size_t j = 0; j < inputs.edges.size(); ++j) {
    const EdgeSample& sample = inputs.edges[j];
    const EdgeWork& work = work_[j];
    EdgeState& edge = edges_[work.edge];
    if (dark_[static_cast<std::size_t>(sample.from)] != 0 ||
        dark_[static_cast<std::size_t>(sample.to)] != 0) {
      ++edge.stale_windows;
      ++out.stale_edges;
      if (edge.health.degraded()) ++out.degraded_edges;
      continue;
    }
    if (edge.stale_windows >= config_.stale_ttl) {
      // The carried estimates outlived their TTL in the dark; re-seed from
      // this first fresh window rather than trusting pre-blackout history.
      edge.goodput = Ewma();
      edge.loss = Ewma();
    }
    edge.stale_windows = 0;
    if (sample.rate > 0.0 && inputs.window > 0.0) {
      SenderAcc& acc = acc_[static_cast<std::size_t>(sample.from)];
      acc.completed += work.completed_delta;
      acc.busy += work.busy_delta;
      acc.busy_rate += work.busy_delta * sample.rate;
      acc.planned += sample.rate;
      acc.sent += work.sent_delta;
      acc.lost += work.lost_delta;
      // The per-edge detector (reroute trigger): service is judged from a
      // couple of sends (each transmission's duration is individually
      // informative); the loss EWMA only moves on well-sampled windows.
      if (work.sent_delta >=
          static_cast<std::uint64_t>(config_.min_edge_sends)) {
        edge.loss.observe(static_cast<double>(work.lost_delta) /
                              static_cast<double>(work.sent_delta),
                          config_.ewma_alpha);
      }
      if (work.sent_delta >=
              static_cast<std::uint64_t>(config_.min_service_sends) &&
          work.busy_delta >= config_.min_edge_utilization * inputs.window) {
        const double service =
            (work.completed_delta / work.busy_delta) / sample.rate;
        const double goodput = service * (1.0 - edge.loss.value(0.0));
        edge.last_raw = goodput;
        edge.goodput.observe(goodput, config_.ewma_alpha);
        if (edge.health.update(edge.goodput.value()) &&
            edge.health.degraded()) {
          edge.tripped = true;
          ++out.edge_trips;
        }
      }
    }
    if (edge.health.degraded()) ++out.degraded_edges;
  }

  // ---- ingest per-node telemetry ----------------------------------------
  judged_.clear();
  for (std::size_t k = 0; k < inputs.nodes.size(); ++k) {
    const NodeSample& sample = inputs.nodes[k];
    const auto id = static_cast<std::size_t>(sample.id);
    NodeState& node = nodes_[id];
    node.egress_tripped = false;
    node.straggler_tripped = false;
    if (dark_[id] != 0) {
      ++node.stale_windows;
      ++out.stale_nodes;
      continue;  // the stragglers census below still sees the node
    }
    if (node.stale_windows >= config_.stale_ttl) {
      // Carried estimates expired in the dark: re-seed from fresh data.
      node.egress = Ewma();
      node.loss = Ewma();
      node.sustained = Ewma();
    }
    node.stale_windows = 0;
    const SenderAcc& acc = acc_[id];
    if (acc.busy_rate > 0.0) {
      if (acc.sent >= static_cast<std::uint64_t>(config_.min_edge_sends)) {
        node.loss.observe(static_cast<double>(acc.lost) /
                              static_cast<double>(acc.sent),
                          config_.ewma_alpha);
      }
      if (acc.sent >=
              static_cast<std::uint64_t>(config_.min_service_sends) &&
          acc.busy >= config_.min_edge_utilization * inputs.window) {
        const double service = acc.completed / acc.busy_rate;
        node.last_egress_raw = service * (1.0 - node.loss.value(0.0));
        node.egress.observe(node.last_egress_raw, config_.ewma_alpha);
        if (sample.nominal > 0.0) {
          // Under proportional throttling the observed ratio is
          // effective / planned_load, so ratio x planned_load / nominal
          // recovers the *absolute* capacity fraction — exact whether or
          // not the current plan saturates the node, which is what lets
          // one demotion land on the right class instead of iterating.
          node.last_estimate = std::min(
              1.0, node.last_egress_raw * acc.planned / sample.nominal);
        }
        if (node.egress_health.update(node.egress.value()) &&
            node.egress_health.degraded()) {
          node.egress_tripped = true;
        }
      }
    }
    // Judge the sustained ratio only in windows wide enough that chunk
    // granularity is not the signal; the detector update itself waits for
    // the cohort median (second pass below).
    if (sample.judgeable && inputs.window > 0.0 &&
        inputs.expected_delta >=
            config_.min_expected_chunks * inputs.chunk_size) {
      judged_.emplace_back(k, delivered_[k] / inputs.expected_delta);
    }
  }
  // Cohort-relative straggling: normalize each node's window ratio by the
  // median ratio, so the chunk engine's generic few-percent slack under
  // the fluid plan cancels out and only *relative* victims trip.
  if (!judged_.empty()) {
    ratios_.clear();
    for (const auto& [k, ratio] : judged_) ratios_.push_back(ratio);
    std::nth_element(ratios_.begin(), ratios_.begin() + ratios_.size() / 2,
                     ratios_.end());
    const double median = std::max(ratios_[ratios_.size() / 2], 1e-9);
    for (const auto& [k, ratio] : judged_) {
      NodeState& node = nodes_[static_cast<std::size_t>(inputs.nodes[k].id)];
      // Catch-up bursts are capped: being twice ahead this window must
      // not bank credit against falling behind later.
      const double normalized = std::min(ratio / median, 2.0);
      node.last_sustained_raw = normalized;
      node.sustained.observe(normalized, config_.ewma_alpha);
      if (node.straggler.update(node.sustained.value()) &&
          node.straggler.degraded()) {
        node.straggler_tripped = true;
        ++out.straggler_trips;
      }
    }
  }
  for (const NodeSample& sample : inputs.nodes) {
    if (nodes_[static_cast<std::size_t>(sample.id)].straggler.degraded()) {
      ++out.stragglers;
    }
  }

  // ---- decide: demotions and restores (ascending node id) ---------------
  const double step = 1.0 / static_cast<double>(config_.capacity_classes);
  for (const NodeSample& sample : inputs.nodes) {
    NodeState& node = nodes_[static_cast<std::size_t>(sample.id)];
    if (node.pardon_from >= 0.0) {
      // A forgive() pardon outranks everything else this window: lift the
      // demotion in one step (the probes' doubling climb is for *suspected*
      // recoveries; a heal is a certainty the platform told us about).
      Evidence ev;
      ev.detector = "heal";
      ev.action = "restore";
      ev.node = sample.id;
      ev.threshold = config_.egress.exit;
      ev.estimate = node.last_estimate;
      ev.factor_before = node.pardon_from;
      ev.factor_after = 1.0;
      out.evidence.push_back(ev);
      node.factor = 1.0;
      node.pardon_from = -1.0;
      node.last_action = inputs.now;
      node.last_restore = inputs.now;
      ++out.restores;
      continue;
    }
    if (node.stale_windows > 0) {
      // No actions from frozen windows — neither demotions (no evidence of
      // degradation) nor restore probes (no telemetry to judge the probe).
      // The current override set is carried unchanged.
      if (node.factor < 1.0) {
        out.factors.emplace_hint(out.factors.end(), sample.id, node.factor);
      }
      continue;
    }
    // Actions fire on detector *transitions* — one demote per trip — plus
    // an escalation path while degraded when the latest reading sits well
    // below the current class (a deepening brownout, or the first demote
    // under-shooting on an unsaturated sender).
    double desired = node.factor;
    bool egress_cause = false;  // which detector drove the demotion
    if (node.egress_health.degraded()) {
      const double target = quantize(node.last_estimate);
      if (node.egress_tripped || target <= node.factor - 1.5 * step) {
        if (target < desired) egress_cause = true;
        desired = std::min(desired, target);
      }
    }
    if (node.straggler_tripped) {
      // A straggler can only relay what it receives — but its upload is
      // the symptom, not the cause (the browned-out *senders* are caught
      // by the egress path). Step it down one class, gently: mass-demoting
      // victims would shrink the platform and cascade.
      const double target = quantize(node.factor - step);
      if (target < desired) egress_cause = false;
      desired = std::min(desired, target);
    }
    const double probe_interval = node.probe_interval > 0.0
                                      ? node.probe_interval
                                      : config_.restore_cooldown;
    if (desired < node.factor - 1e-12) {
      if (inputs.now - node.last_action >= config_.action_cooldown) {
        Evidence ev;
        ev.action = "demote";
        ev.node = sample.id;
        if (egress_cause) {
          ev.detector = "egress";
          ev.window_value = node.last_egress_raw;
          ev.ewma = node.egress.value();
          ev.threshold = config_.egress.enter;
          ev.trips = node.egress_health.trips();
        } else {
          ev.detector = "straggler";
          ev.window_value = node.last_sustained_raw;
          ev.ewma = node.sustained.value();
          ev.threshold = config_.straggler.enter;
          ev.trips = node.straggler.trips();
        }
        ev.estimate = node.last_estimate;
        ev.factor_before = node.factor;
        ev.factor_after = desired;
        out.evidence.push_back(ev);
        node.factor = desired;
        node.last_action = inputs.now;
        // A demotion on the heels of a restore is a failed probe: back the
        // probe off exponentially so a persistent degradation goes quiet
        // instead of re-splicing the overlay forever.
        if (inputs.now - node.last_restore <= 2.0 * probe_interval) {
          node.probe_interval =
              std::min(2.0 * probe_interval,
                       config_.restore_backoff_max * config_.restore_cooldown);
        } else {
          node.probe_interval = 0.0;  // fresh degradation: fresh probes
        }
        ++out.demotions;
      }
    } else if (node.factor < 1.0 && !node.egress_health.degraded() &&
               !node.straggler.degraded() &&
               ticks_ % config_.restore_grid == 0 &&
               inputs.now - node.last_action >= probe_interval) {
      // Restores are *probes*: a demoted node's pipes run inside its cap,
      // so telemetry cannot show headroom — step the class up (doubling,
      // never past nominal) and let the detectors demote again if the
      // degradation persists. The probe interval bounds the flap rate.
      const double up = quantize(std::min(1.0, node.factor * 2.0));
      if (up > node.factor + 1e-12) {
        Evidence ev;
        ev.detector = "restore";
        ev.action = "restore";
        ev.node = sample.id;
        ev.window_value = node.last_egress_raw;
        ev.ewma = node.egress.value();
        ev.threshold = config_.egress.exit;
        ev.estimate = node.last_estimate;
        ev.factor_before = node.factor;
        ev.factor_after = up;
        ev.trips = node.egress_health.trips();
        out.evidence.push_back(ev);
        node.factor = up;
        node.last_action = inputs.now;
        node.last_restore = inputs.now;
        ++out.restores;
      }
    }
    if (node.factor < 1.0) {
      out.factors.emplace_hint(out.factors.end(), sample.id, node.factor);
    }
  }

  // ---- decide: reroutes around degraded edges ---------------------------
  for (std::size_t j = 0; j < inputs.edges.size(); ++j) {
    const EdgeSample& sample = inputs.edges[j];
    EdgeState& edge = edges_[work_[j].edge];
    if (edge.stale_windows > 0) continue;  // no clamps from frozen windows
    if (!edge.health.degraded()) continue;
    // A demoted sender is already being routed around as a whole.
    if (factor(sample.from) < 1.0) continue;
    if (inputs.now - edge.last_action < config_.action_cooldown) continue;
    const double limit =
        sample.rate * std::clamp(edge.goodput.value(), 0.02, 1.0);
    // Clamp on the trip; afterwards only when it still buys a meaningful
    // cut (a lossy edge ratchets toward zero, i.e. gets routed around).
    if (!edge.tripped && limit >= sample.rate * 0.9) continue;
    if (limit >= sample.rate * (1.0 - 1e-9)) continue;
    edge.last_action = inputs.now;
    out.edge_limits.emplace_back(sample.from, sample.to, limit);
    Evidence ev;
    ev.detector = "edge";
    ev.action = "clamp";
    ev.from = sample.from;
    ev.to = sample.to;
    ev.window_value = edge.last_raw;
    ev.ewma = edge.goodput.value();
    ev.threshold = config_.edge.enter;
    ev.estimate = limit;
    ev.factor_before = sample.rate;
    ev.factor_after = limit;
    ev.trips = edge.health.trips();
    out.evidence.push_back(ev);
    ++out.reroutes;
  }

  // ---- escalate: drift past the fingerprint-distance bound --------------
  out.act = out.demotions + out.restores + out.reroutes > 0;
  if (out.act) {
    double granted_total = 0.0;
    double delta = 0.0;
    for (const NodeSample& sample : inputs.nodes) {
      granted_total += sample.granted;
      delta += std::abs(sample.nominal * factor(sample.id) - sample.granted);
    }
    out.drift = granted_total > 0.0 ? delta / granted_total : 0.0;
    out.force_replan = out.drift > config_.replan_drift;
    if (out.force_replan) {
      Evidence ev;
      ev.detector = "drift";
      ev.action = "replan";
      ev.drift = out.drift;
      ev.threshold = config_.replan_drift;
      out.evidence.push_back(ev);
    }
  }
  return out;
}

}  // namespace bmp::control
