#include "workloads.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bmp/engine/planner.hpp"
#include "bmp/fault/fault.hpp"
#include "bmp/fault/injector.hpp"
#include "bmp/util/rng.hpp"

namespace e2e {

namespace {

using bmp::gen::Dist;
using bmp::runtime::Event;
using bmp::runtime::EventType;
using bmp::runtime::FaultAction;
using bmp::runtime::RuntimeConfig;
using bmp::runtime::Scenario;
using bmp::runtime::ScenarioScript;

constexpr double kSourceBandwidth = 4000.0;

RuntimeConfig base_config() {
  RuntimeConfig config;
  // The benchmark times the runtime from outside; in-loop timing would
  // add wall-clock reads to every step of the measured path.
  config.collect_timing = false;
  config.broker_headroom = 0.05;
  // The runtime never batches plans, so pool workers would only idle; one
  // keeps Runtime construction (part of set-up) from spawning a thread per
  // core on a shared host.
  config.planner.threads = 1;
  return config;
}

/// Planned throughput of the script's initial platform at `fraction` —
/// sizes chunks so a channel emits a fixed number of chunks per second
/// whatever the seed's bandwidth draws.
double initial_optimum(const ScenarioScript& script, double fraction) {
  return bmp::engine::Planner::plan_uncached(
             initial_instance(script, fraction),
             bmp::engine::Algorithm::kAcyclic, 0)
      .throughput;
}

bmp::runtime::NodeClassSpec peer_class(int count, double p_open, Dist dist) {
  bmp::runtime::NodeClassSpec spec;
  spec.count = count;
  spec.p_open = p_open;
  spec.dist = dist;
  return spec;
}

/// `count` distinct runtime node ids drawn from [1, peers].
std::vector<int> pick_nodes(bmp::util::Xoshiro256& rng, int peers,
                            int count) {
  std::vector<int> ids(static_cast<std::size_t>(peers));
  for (int k = 0; k < peers; ++k) ids[static_cast<std::size_t>(k)] = k + 1;
  for (int k = 0; k < count; ++k) {
    const auto j = static_cast<std::size_t>(k) +
                   static_cast<std::size_t>(rng.below(
                       static_cast<std::uint64_t>(peers - k)));
    std::swap(ids[static_cast<std::size_t>(k)], ids[j]);
  }
  ids.resize(static_cast<std::size_t>(count));
  return ids;
}

Workload make_stream(std::uint64_t seed, Size size) {
  const bool tiny = size == Size::kTiny;
  const int peers = tiny ? 60 : 250;
  const double fraction = 0.5;
  Workload w;
  w.horizon = tiny ? 3.0 : 12.0;
  w.grid = 0.5;
  Scenario scenario(w.horizon, seed);
  scenario.source(kSourceBandwidth)
      .population(peer_class(peers * 3 / 5, 0.7, Dist::kUnif100))
      .population(peer_class(peers * 2 / 5, 0.3, Dist::kLogNormal1))
      .channel({0.0, -1.0, 1.0, fraction});
  w.script = scenario.build();
  w.config = base_config();
  w.config.dataplane.execute = true;
  w.config.dataplane.execution.chunk_size =
      initial_optimum(w.script, fraction) / 60.0;
  w.config.dataplane.execution.receiver_window = 16;
  // The runtime exposes whole-run chunk-latency quantiles only through the
  // telemetry registry's sketch, so the stream carries one (no lineage, no
  // control, no SLO).
  w.telemetry = true;
  return w;
}

Workload make_churn(std::uint64_t seed, Size size) {
  const bool tiny = size == Size::kTiny;
  const int peers = tiny ? 40 : 150;
  Workload w;
  w.horizon = tiny ? 4.0 : 20.0;
  const double h = w.horizon;
  Scenario scenario(h, seed);
  scenario.source(kSourceBandwidth)
      .population(peer_class(peers * 3 / 5, 0.7, Dist::kUnif100))
      .population(peer_class(peers * 2 / 5, 0.3, Dist::kLogNormal1))
      .channel({0.0, -1.0, /*weight=*/2.0, /*fraction=*/0.3})
      .channel({0.0, -1.0, 1.0, 0.2})
      .poisson_channels({0.4, h / 8.0, 1.0, 0.05})
      .flash_crowd({h * 0.3, peers / 5, peer_class(0, 0.8, Dist::kUnif100),
                    0.7, h * 0.2})
      .diurnal_churn({h / 2.0, 0.8, 0.6 * peers, 0.45,
                      peer_class(0, 0.5, Dist::kUnif100)})
      .correlated_failure({h * 0.75, 0.10})
      // Fair shares sum to 0.6 of the broker: the headroom keeps every
      // Poisson arrival admissible between renegotiations.
      .renegotiate_every(h / 5.0, 0.6);
  w.script = scenario.build();
  w.config = base_config();
  return w;
}

Workload make_storm(std::uint64_t seed, Size size) {
  const bool tiny = size == Size::kTiny;
  const int peers = tiny ? 60 : 100;
  const double fraction = 0.45;
  Workload w;
  w.horizon = tiny ? 10.0 : 16.0;
  w.grid = 0.5;
  w.storm_start = 3.0;
  w.heal_time = 7.5;
  Scenario scenario(w.horizon, seed);
  bmp::runtime::NodeClassSpec wan =
      peer_class(peers * 2 / 5, 0.3, Dist::kLogNormal1);
  wan.wan = true;
  wan.profile.loss_rate = 0.02;
  wan.profile.latency = 0.02;
  bmp::runtime::BrownoutSpec brownout;
  brownout.time = w.storm_start;
  brownout.fraction = 0.10;
  brownout.capacity_factor = 0.25;
  scenario.source(kSourceBandwidth)
      .population(peer_class(peers * 3 / 5, 0.7, Dist::kUnif100))
      .population(wan)
      .channel({0.0, -1.0, 1.0, fraction})
      .channel({0.0, -1.0, 1.0, fraction})
      .brownout(brownout)
      .diurnal_churn({w.horizon / 2.0, 0.5, tiny ? 2.0 : 8.0, 0.5,
                      peer_class(0, 0.5, Dist::kUnif100)});
  w.script = scenario.build();

  // The storm scales with the platform (bench_chaos's shape): ~2% of the
  // peers crash, ~4% sit behind a partition that heals, two relays corrupt
  // their egress, three go telemetry-dark, and the planner is down through
  // the worst of it. Victims are drawn from the seed.
  bmp::util::Xoshiro256 rng = bmp::util::Xoshiro256(seed).fork(0x570E);
  const int crashes = std::max(2, peers / 50);
  const int island = std::max(4, peers / 25);
  const std::vector<int> victims =
      pick_nodes(rng, peers, crashes + island + 2 + 3);
  auto next = victims.begin();
  bmp::fault::FaultPlan plan;
  for (int k = 0; k < crashes; ++k) {
    plan.crashes.push_back({w.storm_start + 0.25 + 0.5 * k, *next++});
  }
  bmp::fault::PartitionSpec partition;
  partition.time = w.storm_start + 1.0;
  partition.heal_time = w.heal_time;
  partition.group_b.assign(next, next + island);
  next += island;
  plan.partitions.push_back(partition);
  for (int k = 0; k < 2; ++k) {
    plan.corruptions.push_back({w.storm_start, -1.0, *next++, 0.4});
  }
  bmp::fault::BlackoutSpec blackout;
  blackout.time = w.storm_start + 2.0;
  blackout.end_time = w.heal_time + 0.5;
  blackout.nodes.assign(next, next + 3);
  plan.blackouts.push_back(blackout);
  plan.planner_outages.push_back({w.storm_start + 1.0, w.storm_start + 3.0});
  bmp::fault::Injector::inject(w.script, plan);

  w.config = base_config();
  w.config.dataplane.execute = true;
  w.config.dataplane.execution.chunk_size =
      initial_optimum(w.script, fraction) / 40.0;
  w.config.dataplane.execution.receiver_window = 16;
  w.config.control.enabled = true;
  w.config.control.slo_enabled = true;
  w.telemetry = true;
  w.lineage = true;
  return w;
}

}  // namespace

bool is_workload(const std::string& name) {
  return name == "stream" || name == "churn" || name == "storm";
}

int panel_size(const std::string& name, Size size) {
  if (size == Size::kTiny) return 2;
  if (name == "stream") return 8;
  return name == "churn" ? 32 : 24;
}

std::uint64_t scenario_seed(std::uint64_t seed, int k) {
  return seed * kMaxPanel + static_cast<std::uint64_t>(k);
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       Size size) {
  if (name == "stream") return make_stream(seed, size);
  if (name == "churn") return make_churn(seed, size);
  if (name == "storm") return make_storm(seed, size);
  throw std::invalid_argument("unknown workload: " + name);
}

bmp::Instance initial_instance(const ScenarioScript& script,
                               double fraction) {
  std::vector<double> open_bw;
  std::vector<double> guarded_bw;
  for (const bmp::runtime::NodeSpec& peer : script.initial_peers) {
    (peer.guarded ? guarded_bw : open_bw).push_back(peer.bandwidth * fraction);
  }
  return bmp::Instance(script.source_bandwidth * fraction, std::move(open_bw),
                       std::move(guarded_bw));
}

bmp::Instance final_instance(const ScenarioScript& script, double horizon,
                             double fraction) {
  struct Peer {
    double bandwidth;
    bool guarded;
    bool alive;
    double factor;
  };
  // Runtime node ids: initial peer k is id k + 1, joiners follow in event
  // order (the runtime's numbering rule).
  std::vector<Peer> peers{{0.0, false, false, 1.0}};
  for (const bmp::runtime::NodeSpec& spec : script.initial_peers) {
    peers.push_back({spec.bandwidth, spec.guarded, true, 1.0});
  }
  for (const Event& event : script.events) {
    if (event.time > horizon) break;
    switch (event.type) {
      case EventType::kNodeJoin:
        for (const bmp::runtime::NodeSpec& spec : event.joins) {
          peers.push_back({spec.bandwidth, spec.guarded, true, 1.0});
        }
        break;
      case EventType::kNodeLeave:
        for (const int id : event.leaves) {
          peers[static_cast<std::size_t>(id)].alive = false;
        }
        break;
      case EventType::kDegrade:
        for (const bmp::runtime::Degradation& d : event.degrades) {
          if (d.set_factor) {
            peers[static_cast<std::size_t>(d.node)].factor = d.capacity_factor;
          }
        }
        break;
      case EventType::kFault:
        for (const FaultAction& fault : event.faults) {
          if (fault.kind == FaultAction::Kind::kCrash) {
            peers[static_cast<std::size_t>(fault.node)].alive = false;
          }
        }
        break;
      default:
        break;
    }
  }
  std::vector<double> open_bw;
  std::vector<double> guarded_bw;
  for (const Peer& peer : peers) {
    if (!peer.alive) continue;
    (peer.guarded ? guarded_bw : open_bw)
        .push_back(peer.bandwidth * peer.factor * fraction);
  }
  return bmp::Instance(script.source_bandwidth * fraction, std::move(open_bw),
                       std::move(guarded_bw));
}

}  // namespace e2e
