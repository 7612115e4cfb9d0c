#include "bmp/engine/session.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <utility>

#include "bmp/flow/maxflow.hpp"
#include "bmp/obs/trace.hpp"
#include "bmp/sim/churn.hpp"

namespace bmp::engine {

namespace {

/// Depth-first reachability over a scheme with scratch reused across
/// calls: a node is visited iff its stamp equals the current sweep's, so a
/// sweep costs only the part of the overlay it explores.
class ReachScratch {
 public:
  explicit ReachScratch(int num_nodes)
      : stamp_of_(static_cast<std::size_t>(num_nodes), 0) {}

  /// True iff `to` is reachable from `from` (a node reaches itself).
  bool reaches(const BroadcastScheme& scheme, int from, int to) {
    return from == to || sweep(scheme, from, to);
  }

  /// Marks `from` and every node reachable from it; marked() answers
  /// until the next call.
  void mark_reachable(const BroadcastScheme& scheme, int from) {
    sweep(scheme, from, -1);
  }
  [[nodiscard]] bool marked(int v) const {
    return stamp_of_[static_cast<std::size_t>(v)] == stamp_;
  }

 private:
  /// Visits nodes reachable from `from`; stops early once `stop_at` shows.
  bool sweep(const BroadcastScheme& scheme, int from, int stop_at) {
    ++stamp_;
    stamp_of_[static_cast<std::size_t>(from)] = stamp_;
    stack_.assign(1, from);
    while (!stack_.empty()) {
      const int v = stack_.back();
      stack_.pop_back();
      for (const auto& [next, rate] : scheme.out_edges(v)) {
        (void)rate;
        if (next == stop_at) return true;
        if (stamp_of_[static_cast<std::size_t>(next)] != stamp_) {
          stamp_of_[static_cast<std::size_t>(next)] = stamp_;
          stack_.push_back(next);
        }
      }
    }
    return false;
  }

  std::vector<std::uint64_t> stamp_of_;
  std::uint64_t stamp_ = 0;
  std::vector<int> stack_;
};

}  // namespace

RepairResult repair_scheme(const Instance& survivors,
                           const BroadcastScheme& restricted,
                           double target_rate) {
  return repair_scheme(survivors, restricted, target_rate, nullptr);
}

RepairResult repair_scheme(const Instance& survivors,
                           const BroadcastScheme& restricted,
                           double target_rate, flow::Verifier* verifier) {
  if (restricted.num_nodes() != survivors.size()) {
    throw std::invalid_argument("repair_scheme: instance/scheme size mismatch");
  }
  RepairResult result{restricted, 0.0, 0.0, {}};
  BroadcastScheme& scheme = result.scheme;
  const int num_nodes = scheme.num_nodes();
  if (scheme.is_acyclic() && target_rate > 0.0 && num_nodes > 1) {
    const double tol = 1e-9 * std::max(1.0, target_rate);
    // Patch each node's inflow up to target_rate. Any sender works as long
    // as the overlay stays a DAG — i.e. the sender is not a *descendant* of
    // the receiver in the current (partially patched) overlay. Acyclicity
    // plus inflow >= tau everywhere is sufficient for throughput tau: for
    // any source/j cut, the topologically first node outside the cut has
    // all its in-edges crossing it, so min-cut(0 -> j) >= tau. The final
    // rate is re-verified by max-flow below either way.
    std::vector<double> out(static_cast<std::size_t>(num_nodes), 0.0);
    for (int i = 0; i < num_nodes; ++i) {
      out[static_cast<std::size_t>(i)] = scheme.out_rate(i);
    }
    std::vector<double> in = scheme.in_rates();
    ReachScratch reach(num_nodes);
    // Conservative sender preference (the paper's Lemma 4.3 principle):
    // guarded upload cannot reach guarded receivers, so open receivers
    // drain guarded senders first, keeping source + open upload for the
    // guarded nodes that have no alternative. Guarded receivers are
    // patched first for the same reason.
    std::vector<int> receivers;
    receivers.reserve(static_cast<std::size_t>(num_nodes - 1));
    for (int i = 1; i < num_nodes; ++i) {
      if (survivors.is_guarded(i)) receivers.push_back(i);
    }
    for (int i = 1; i < num_nodes; ++i) {
      if (!survivors.is_guarded(i)) receivers.push_back(i);
    }
    std::vector<int> sender_order;
    sender_order.reserve(static_cast<std::size_t>(num_nodes));
    for (int i = 1; i < num_nodes; ++i) {
      if (survivors.is_guarded(i)) sender_order.push_back(i);
    }
    for (int i = 1; i < num_nodes; ++i) {
      if (!survivors.is_guarded(i)) sender_order.push_back(i);
    }
    sender_order.push_back(0);
    // Dust consolidation: an edge carrying under 2% of the target is
    // scheduling residue — in a chunk-level execution one transmission on
    // it takes dozens of chunk periods, squatting receiver window slots
    // and taking rare chunks hostage. Drop such edges outright; the patch
    // pass below re-sources the freed inflow from senders with real
    // residual capacity, as few, fat edges.
    const double dust = 0.02 * target_rate;
    std::vector<std::tuple<int, int, double>> dust_edges;
    for (int sender = 0; sender < num_nodes; ++sender) {
      for (const auto& [to, rate] : scheme.out_edges(sender)) {
        if (rate > tol && rate < dust) dust_edges.emplace_back(sender, to, rate);
      }
    }
    for (const auto& [sender, to, rate] : dust_edges) {
      scheme.add(sender, to, -rate);
      out[static_cast<std::size_t>(sender)] -= rate;
      in[static_cast<std::size_t>(to)] -= rate;
      ++result.counts.dust_dropped;
    }
    // Trim pass: when repairing toward a *reduced* target, survivors still
    // fed at the old (higher) design rate hold upload hostage. Cut their
    // inflow down to the target, releasing open/source upload first — it
    // is the only class guarded receivers can draw from. Within a class,
    // cut the *smallest* edges first: the receiver's main arteries survive
    // repeated repairs untouched (a live stream keeps its in-flight pipes)
    // and residue trickle edges are garbage-collected before real ones.
    // Trimming a receiver only touches edges into it, so one sweep lists
    // every candidate cut up front, sorted into the order above: receivers
    // ascending, open senders before guarded ones, smallest edges first.
    std::vector<std::tuple<int, bool, double, int>> cuts;
    for (int sender = 0; sender < num_nodes; ++sender) {
      const bool sender_guarded = survivors.is_guarded(sender);
      for (const auto& [to, rate] : scheme.out_edges(sender)) {
        if (to != 0 && rate > tol &&
            in[static_cast<std::size_t>(to)] - target_rate > tol) {
          cuts.emplace_back(to, sender_guarded, rate, sender);
        }
      }
    }
    std::sort(cuts.begin(), cuts.end());
    int trimmed = -1;
    double excess = 0.0;
    for (const auto& [receiver, sender_guarded, rate, sender] : cuts) {
      if (receiver != trimmed) {
        trimmed = receiver;
        excess = in[static_cast<std::size_t>(receiver)] - target_rate;
      }
      if (excess <= tol) continue;
      const double cut = std::min(excess, rate);
      scheme.add(sender, receiver, -cut);
      out[static_cast<std::size_t>(sender)] -= cut;
      in[static_cast<std::size_t>(receiver)] -= cut;
      excess -= cut;
      ++result.counts.trim_cuts;
    }
    for (const int receiver : receivers) {
      double deficit = target_rate - in[static_cast<std::size_t>(receiver)];
      if (deficit <= tol) continue;
      // Senders reachable *from* the receiver would close a cycle.
      reach.mark_reachable(scheme, receiver);
      for (const int sender : sender_order) {
        if (deficit <= tol) break;
        if (reach.marked(sender)) continue;
        if (survivors.is_guarded(sender) && survivors.is_guarded(receiver)) {
          continue;
        }
        const double residual =
            survivors.b(sender) - out[static_cast<std::size_t>(sender)];
        if (residual <= tol) continue;
        const double take = std::min(deficit, residual);
        scheme.add(sender, receiver, take);
        out[static_cast<std::size_t>(sender)] += take;
        in[static_cast<std::size_t>(receiver)] += take;
        result.added_rate += take;
        deficit -= take;
        ++result.counts.patch_adds;
      }
    }
    // Reroute pass for guarded receivers the direct patch could not fill:
    // source/open upload may be fully committed to *open* receivers that
    // idle guarded upload could serve instead. Swap such an edge over
    // (guarded g takes the open receiver x, open sender s turns to the
    // guarded receiver) — the conservative exchange of Lemma 4.3. Each
    // swap is applied tentatively and reverted if it would close a cycle.
    // The overlay is a DAG before the swap, so a new cycle must run
    // through one of the two added edges g->x or s->receiver: checking
    // x ~> g and receiver ~> s gives the full acyclicity verdict.
    for (const int receiver : receivers) {
      if (!survivors.is_guarded(receiver)) break;  // guardeds lead the list
      double deficit = target_rate - in[static_cast<std::size_t>(receiver)];
      if (deficit <= tol) continue;
      for (const int s : sender_order) {
        if (deficit <= tol) break;
        if (survivors.is_guarded(s)) continue;  // need an open/source sender
        // A copy: the swaps below add to s's own edge list.
        const BroadcastScheme::EdgeList edges = scheme.out_edges(s);
        for (const auto& [x, rate_sx] : edges) {
          if (deficit <= tol) break;
          if (x == receiver || survivors.is_guarded(x)) continue;
          double movable = std::min(deficit, rate_sx);
          for (const int g : sender_order) {
            if (movable <= tol || deficit <= tol) break;
            if (!survivors.is_guarded(g) || g == x) continue;
            const double residual_g =
                survivors.b(g) - out[static_cast<std::size_t>(g)];
            if (residual_g <= tol) continue;
            const double delta = std::min(movable, residual_g);
            scheme.add(g, x, delta);
            scheme.add(s, x, -delta);
            scheme.add(s, receiver, delta);
            if (reach.reaches(scheme, x, g) ||
                reach.reaches(scheme, receiver, s)) {
              scheme.add(s, receiver, -delta);
              scheme.add(s, x, delta);
              scheme.add(g, x, -delta);
              ++result.counts.reroutes_reverted;
              continue;
            }
            out[static_cast<std::size_t>(g)] += delta;
            in[static_cast<std::size_t>(receiver)] += delta;
            result.added_rate += delta;
            deficit -= delta;
            movable -= delta;
            ++result.counts.reroutes_kept;
          }
        }
      }
    }
  }
  if (num_nodes <= 1) {
    result.throughput = 0.0;
  } else if (verifier != nullptr) {
    result.throughput = verifier->verify(scheme).throughput;
  } else {
    result.throughput = flow::scheme_throughput(scheme);
  }
  return result;
}

Session::Session(Planner& planner, Instance instance, SessionConfig config)
    : planner_(planner),
      config_(config),
      instance_(std::move(instance)),
      instance_fp_(instance_, planner.config().fingerprint_bucket),
      verifier_(config.verify) {
  if (config_.replan_threshold < 0.0 || config_.replan_threshold > 1.0) {
    throw std::invalid_argument("Session: replan_threshold in [0,1]");
  }
  const PlanResponse response = planner_.plan(
      instance_, config_.algorithm, config_.max_out_degree, instance_fp_.value());
  scheme_ = response.scheme;
  design_rate_ = response.throughput;
  design_total_ = instance_.total_sum();
  current_rate_ = response.throughput;
  initial_plan_verified_ =
      !response.cache_hit && response.verified_throughput >= 0.0;
  initial_plan_tier_ = response.verified_tier;
}

std::vector<double> Session::capacities() const {
  std::vector<double> caps(static_cast<std::size_t>(instance_.size()));
  for (int i = 0; i < instance_.size(); ++i) {
    caps[static_cast<std::size_t>(i)] = instance_.b(i);
  }
  return caps;
}

void Session::rescale(double factor) {
  if (!std::isfinite(factor) || factor <= 0.0) {
    throw std::invalid_argument("Session::rescale: factor must be > 0");
  }
  // Rebuild the instance from its sorted order: scaling by a positive factor
  // preserves the non-increasing order, and the stable per-class sort keeps
  // every node at its current index.
  std::vector<double> open;
  std::vector<double> guarded;
  for (int i = 1; i < instance_.size(); ++i) {
    (instance_.is_guarded(i) ? guarded : open).push_back(instance_.b(i) * factor);
  }
  Instance scaled(instance_.b(0) * factor, std::move(open), std::move(guarded));
  BroadcastScheme scheme(scheme_->num_nodes());
  for (int i = 0; i < scheme_->num_nodes(); ++i) {
    for (const auto& [to, rate] : scheme_->out_edges(i)) {
      scheme.add(i, to, rate * factor);
    }
  }
  instance_ = std::move(scaled);
  // Every bandwidth moved: reseed the fingerprint (O(n), like the rescale
  // itself — renegotiations are rare next to churn deltas).
  instance_fp_ = IncrementalFingerprint(instance_,
                                        planner_.config().fingerprint_bucket);
  scheme_ = std::make_shared<const BroadcastScheme>(std::move(scheme));
  design_rate_ *= factor;
  design_total_ *= factor;
  current_rate_ *= factor;
}

void Session::trace_churn(const char* name, const ChurnOutcome& outcome,
                          double wall_us) const {
  if (config_.trace == nullptr) return;
  config_.trace->complete(obs::Lane::kSession, "engine", name,
                          {{"channel", config_.trace_id},
                           {"departed", outcome.departed},
                           {"survivors", outcome.survivors},
                           {"degraded_rate", outcome.degraded_rate},
                           {"repaired_rate", outcome.repaired_rate},
                           {"achieved_rate", outcome.achieved_rate},
                           {"full_replan", outcome.full_replan},
                           {"planner_fault", outcome.planner_fault},
                           {"verify_calls", outcome.verify_calls}},
                          wall_us);
}

ChurnOutcome Session::adapt(const AdaptationRequest& request) {
  const obs::WallTimer timer(config_.trace);
  ChurnOutcome outcome;
  outcome.design_rate = design_rate_;
  const int size = instance_.size();
  if (static_cast<int>(request.capacities.size()) != size) {
    throw std::invalid_argument("Session::adapt: capacities size mismatch");
  }
  for (const double cap : request.capacities) {
    if (!is_valid_bandwidth(cap)) {
      throw std::invalid_argument("Session::adapt: invalid capacity");
    }
  }
  // Validate everything up front: once the fingerprint starts absorbing
  // capacity deltas below, a throw would leave it desynced from instance_.
  for (const auto& [from, to, limit] : request.edge_limits) {
    if (from < 0 || from >= size || to < 0 || to >= size || from == to ||
        limit < 0.0 || !std::isfinite(limit)) {
      throw std::invalid_argument("Session::adapt: bad edge limit");
    }
  }
  outcome.survivors = size - 1;
  if (size <= 1) {
    outcome.achieved_rate = current_rate_;
    return outcome;
  }

  // Effective platform in the *current slot* caller numbering: class sizes
  // are unchanged, so the new instance's original_id(j) is directly the old
  // slot the (possibly re-sorted) node j came from.
  std::vector<double> open;
  std::vector<double> guarded;
  for (int i = 1; i < size; ++i) {
    (instance_.is_guarded(i) ? guarded : open).push_back(request.capacities[
        static_cast<std::size_t>(i)]);
  }
  Instance effective(request.capacities[0], std::move(open),
                     std::move(guarded));
  // The fingerprint follows the capacity deltas node by node (most
  // adaptations touch a handful of nodes, not the platform).
  for (int i = 1; i < size; ++i) {
    const double before = instance_.b(i);
    const double after = request.capacities[static_cast<std::size_t>(i)];
    if (before == after) continue;
    if (instance_.is_guarded(i)) {
      instance_fp_.remove_guarded(before);
      instance_fp_.add_guarded(after);
    } else {
      instance_fp_.remove_open(before);
      instance_fp_.add_open(after);
    }
  }
  if (instance_.b(0) != request.capacities[0]) {
    instance_fp_.set_source(request.capacities[0]);
  }

  // Permute the live overlay into the effective numbering.
  std::vector<int> new_of_old(static_cast<std::size_t>(size), 0);
  for (int j = 0; j < size; ++j) {
    new_of_old[static_cast<std::size_t>(effective.original_id(j))] = j;
  }
  BroadcastScheme permuted(size);
  for (int i = 0; i < size; ++i) {
    for (const auto& [to, rate] : scheme_->out_edges(i)) {
      permuted.add(new_of_old[static_cast<std::size_t>(i)],
                   new_of_old[static_cast<std::size_t>(to)], rate);
    }
  }
  // Degraded-edge clamps: cut each named edge down to the goodput the wire
  // actually honors, so the repair pulls the receiver's deficit from
  // healthier senders instead.
  for (const auto& [from, to, limit] : request.edge_limits) {
    const int nf = new_of_old[static_cast<std::size_t>(from)];
    const int nt = new_of_old[static_cast<std::size_t>(to)];
    const double rate = permuted.rate(nf, nt);
    if (rate > limit) permuted.add(nf, nt, -(rate - limit));
  }
  // Sender clamp: a demoted node's planned out-rate may exceed what it can
  // push now — scale its out-edges proportionally into the effective cap.
  for (int i = 0; i < size; ++i) {
    const double out = permuted.out_rate(i);
    const double cap = effective.b(i);
    if (out <= cap || out <= 0.0) continue;
    const double scale = cap / out;
    // A copy: scaling an edge down to residue erases it from the list.
    const BroadcastScheme::EdgeList edges = permuted.out_edges(i);
    for (const auto& [to, rate] : edges) {
      permuted.add(i, to, -(rate * (1.0 - scale)));
    }
  }

  const flow::VerifyStats before = verifier_.stats();
  outcome.degraded_rate = verifier_.verify(permuted).throughput;
  // The reference the adaptation is judged by: the design rate scaled by
  // the capacity ratio against the *design* platform total (uniformly
  // rescaling every cap by f rescales the optimum by exactly f, so this
  // is the natural first-order target — a 4x brownout of 10% of the
  // platform targets ~0.925x design, and a later restore back to nominal
  // targets exactly the design rate again instead of compounding ratios
  // of already-adapted totals).
  const double new_total = effective.total_sum();
  const double target = design_total_ > 0.0
                            ? design_rate_ * (new_total / design_total_)
                            : design_rate_;
  const double tol = 1e-9 * std::max(1.0, design_rate_);
  const double bar = config_.replan_threshold * target;
  bool replan_verified = false;
  flow::VerifyTier replan_tier = flow::VerifyTier::kOracle;
  bool patched = false;
  // Best below-bar repair, held back in case the full re-plan finds the
  // planner down (fault injection): verified, just not good enough — which
  // beats serving nothing during an outage.
  std::optional<RepairResult> kept_repair;
  if (!request.force_replan) {
    const double fractions[] = {1.0, (1.0 + config_.replan_threshold) / 2.0,
                                config_.replan_threshold};
    RepairResult repair = repair_scheme(effective, permuted, target, &verifier_);
    for (std::size_t f = 1; f < 3 && repair.throughput + tol < bar; ++f) {
      RepairResult attempt =
          repair_scheme(effective, permuted, fractions[f] * target, &verifier_);
      if (attempt.throughput > repair.throughput) repair = std::move(attempt);
    }
    outcome.repaired_rate = repair.throughput;
    if (repair.throughput + tol >= bar) {
      scheme_ = std::make_shared<const BroadcastScheme>(std::move(repair.scheme));
      current_rate_ = repair.throughput;
      ++incremental_replans_;
      patched = true;
    } else {
      kept_repair.emplace(std::move(repair));
    }
  }
  if (!patched) {
    try {
      const PlanResponse response =
          planner_.plan(effective, config_.algorithm, config_.max_out_degree,
                        instance_fp_.value());
      replan_verified = !response.cache_hit && response.verified_throughput >= 0.0;
      replan_tier = response.verified_tier;
      scheme_ = response.scheme;
      design_rate_ = response.throughput;
      design_total_ = new_total;
      current_rate_ = response.throughput;
      ++full_replans_;
      outcome.full_replan = true;
    } catch (const PlannerUnavailable&) {
      // Planner outage: keep serving on the incremental repair (computing
      // one now if force_replan skipped it). The overlay is verified and at
      // most one churn event stale; the host re-plans when the outage ends.
      outcome.planner_fault = true;
      if (!kept_repair) {
        kept_repair.emplace(
            repair_scheme(effective, permuted, target, &verifier_));
        outcome.repaired_rate = kept_repair->throughput;
      }
      scheme_ = std::make_shared<const BroadcastScheme>(
          std::move(kept_repair->scheme));
      current_rate_ = kept_repair->throughput;
      ++incremental_replans_;
    }
  }
  instance_ = std::move(effective);
  const flow::VerifyStats& after = verifier_.stats();
  outcome.verify_calls = static_cast<int>(after.calls - before.calls);
  outcome.verify_sweep = static_cast<int>(after.tier_sweep - before.tier_sweep);
  outcome.verify_maxflow =
      static_cast<int>(after.tier_maxflow - before.tier_maxflow);
  outcome.verify_us = after.total_us - before.total_us;
  if (replan_verified) {
    ++outcome.verify_calls;
    (replan_tier == flow::VerifyTier::kAcyclicSweep ? outcome.verify_sweep
                                                    : outcome.verify_maxflow) += 1;
  }
  outcome.achieved_rate = current_rate_;
  trace_churn("adapt", outcome, timer.elapsed_us());
  return outcome;
}

ChurnOutcome Session::on_departure(const std::vector<int>& departed) {
  const obs::WallTimer timer(config_.trace);
  ChurnOutcome outcome;
  outcome.design_rate = design_rate_;
  if (departed.empty()) {
    outcome.survivors = instance_.size() - 1;
    outcome.degraded_rate = current_rate_;
    outcome.repaired_rate = current_rate_;
    outcome.achieved_rate = current_rate_;
    return outcome;
  }

  Instance survivors = sim::remove_nodes(instance_, departed);
  BroadcastScheme restricted = sim::restrict_scheme(*scheme_, departed);
  // remove_nodes validated the ids (and tolerates duplicates via its
  // bitmap — mirror that); the fingerprint follows the platform in O(1)
  // per departure instead of rehashing every survivor.
  std::vector<char> gone(static_cast<std::size_t>(instance_.size()), 0);
  for (const int node : departed) {
    if (gone[static_cast<std::size_t>(node)]) continue;
    gone[static_cast<std::size_t>(node)] = 1;
    instance_fp_.remove(instance_, node);
  }
  outcome.departed = static_cast<int>(departed.size());
  outcome.survivors = survivors.size() - 1;
  if (outcome.survivors <= 0) {
    instance_ = std::move(survivors);
    scheme_ = std::make_shared<const BroadcastScheme>(std::move(restricted));
    current_rate_ = 0.0;
    outcome.achieved_rate = 0.0;
    return outcome;
  }

  const flow::VerifyStats before = verifier_.stats();
  outcome.degraded_rate = verifier_.verify(restricted).throughput;
  const double tol = 1e-9 * std::max(1.0, design_rate_);
  const double bar = config_.replan_threshold * design_rate_;
  // Descending target ladder: full design rate first, then reduced targets
  // down to the acceptance bar (each one trims over-fed survivors to free
  // upload for the deficits). Keep the first repair that clears the bar.
  const double fractions[] = {1.0, (1.0 + config_.replan_threshold) / 2.0,
                              config_.replan_threshold};
  RepairResult repair =
      repair_scheme(survivors, restricted, design_rate_, &verifier_);
  for (std::size_t f = 1; f < 3 && repair.throughput + tol < bar; ++f) {
    if (fractions[f] >= 1.0) continue;
    RepairResult attempt = repair_scheme(
        survivors, restricted, fractions[f] * design_rate_, &verifier_);
    if (attempt.throughput > repair.throughput) repair = std::move(attempt);
  }
  outcome.repaired_rate = repair.throughput;
  bool replan_verified = false;
  flow::VerifyTier replan_tier = flow::VerifyTier::kOracle;
  if (repair.throughput + tol >= config_.replan_threshold * design_rate_) {
    instance_ = std::move(survivors);
    scheme_ = std::make_shared<const BroadcastScheme>(std::move(repair.scheme));
    current_rate_ = repair.throughput;
    ++incremental_replans_;
  } else {
    try {
      const PlanResponse response =
          planner_.plan(survivors, config_.algorithm, config_.max_out_degree,
                        instance_fp_.value());
      // Cache hits reuse a plan whose verification already happened (and was
      // already counted) when it was first computed.
      replan_verified =
          !response.cache_hit && response.verified_throughput >= 0.0;
      replan_tier = response.verified_tier;
      instance_ = std::move(survivors);
      scheme_ = response.scheme;
      design_rate_ = response.throughput;
      design_total_ = instance_.total_sum();
      current_rate_ = response.throughput;
      ++full_replans_;
      outcome.full_replan = true;
    } catch (const PlannerUnavailable&) {
      // Planner outage: the below-bar repair is still a verified overlay of
      // exactly the survivor set — keep serving on it rather than stalling
      // the stream. The host re-plans when the outage ends.
      outcome.planner_fault = true;
      instance_ = std::move(survivors);
      scheme_ =
          std::make_shared<const BroadcastScheme>(std::move(repair.scheme));
      current_rate_ = repair.throughput;
      ++incremental_replans_;
    }
  }
  const flow::VerifyStats& after = verifier_.stats();
  outcome.verify_calls = static_cast<int>(after.calls - before.calls);
  outcome.verify_sweep = static_cast<int>(after.tier_sweep - before.tier_sweep);
  outcome.verify_maxflow =
      static_cast<int>(after.tier_maxflow - before.tier_maxflow);
  outcome.verify_us = after.total_us - before.total_us;
  if (replan_verified) {
    // The computed full re-plan was verified planner-side (thread-local
    // verifier); count it here so the runtime's verify.* metrics cover
    // every verification this event triggered. Its wall-clock cost is
    // attributed to planning, not verify_us.
    ++outcome.verify_calls;
    (replan_tier == flow::VerifyTier::kAcyclicSweep ? outcome.verify_sweep
                                                    : outcome.verify_maxflow) += 1;
  }
  outcome.achieved_rate = current_rate_;
  trace_churn("repair", outcome, timer.elapsed_us());
  return outcome;
}

}  // namespace bmp::engine
