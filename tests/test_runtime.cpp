// Runtime subsystem tests: broker admission/reclaim/rebalance accounting,
// metrics registry determinism, scenario compilation, event-loop handling,
// and the acceptance scenario — 3 channels on a 500-node heterogeneous
// platform replaying deterministically, never oversubscribing a node's
// multi-port budget, and holding >= 0.85x design throughput through churn —
// plus a pin of the control tick's telemetry consumers (controller samples,
// crash detector, heavy hitters) on a lossy, faulted, blacked-out stream.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bmp/fault/fault.hpp"
#include "bmp/fault/injector.hpp"
#include "bmp/flow/maxflow.hpp"
#include "bmp/obs/rollup.hpp"
#include "bmp/runtime/capacity_broker.hpp"
#include "bmp/runtime/metrics.hpp"
#include "bmp/runtime/runtime.hpp"
#include "bmp/runtime/scenario.hpp"

namespace bmp::runtime {
namespace {

// --------------------------------------------------------- capacity broker

TEST(CapacityBroker, AdmitsUntilPoolExhausted) {
  CapacityBroker broker;
  EXPECT_DOUBLE_EQ(broker.usable(), 1.0);
  ASSERT_TRUE(broker.admit(1, 2.0, 0.5).has_value());
  ASSERT_TRUE(broker.admit(2, 1.0, 0.3).has_value());
  EXPECT_NEAR(broker.available(), 0.2, 1e-12);
  // 0.3 > 0.2 left: would oversubscribe every node's budget.
  EXPECT_FALSE(broker.admit(3, 1.0, 0.3).has_value());
  EXPECT_TRUE(broker.admit(3, 1.0, 0.2).has_value());
  EXPECT_EQ(broker.channels(), 3u);
  EXPECT_EQ(broker.admissions(), 3u);
  EXPECT_EQ(broker.rejections(), 1u);
}

TEST(CapacityBroker, ReleaseReclaimsFraction) {
  CapacityBroker broker;
  ASSERT_TRUE(broker.admit(7, 1.0, 0.6).has_value());
  EXPECT_FALSE(broker.admit(8, 1.0, 0.5).has_value());
  EXPECT_DOUBLE_EQ(broker.release(7), 0.6);
  EXPECT_TRUE(broker.admit(8, 1.0, 0.5).has_value());
  EXPECT_EQ(broker.releases(), 1u);
  EXPECT_THROW(broker.release(7), std::invalid_argument);
}

TEST(CapacityBroker, RebalanceRestoresWeightedFairShares) {
  CapacityBroker broker;
  ASSERT_TRUE(broker.admit(1, 3.0, 0.5).has_value());
  ASSERT_TRUE(broker.admit(2, 1.0, 0.1).has_value());
  const std::vector<Grant> changed = broker.rebalance(0.8);
  ASSERT_EQ(changed.size(), 2u);
  EXPECT_NEAR(broker.grant(1)->fraction, 0.8 * 3.0 / 4.0, 1e-12);
  EXPECT_NEAR(broker.grant(2)->fraction, 0.8 * 1.0 / 4.0, 1e-12);
  EXPECT_NEAR(broker.allocated(), 0.8, 1e-12);
  // Already at fair shares: nothing to change.
  EXPECT_TRUE(broker.rebalance(0.8).empty());
}

TEST(CapacityBroker, HeadroomShrinksThePool) {
  CapacityBroker broker(0.25);
  EXPECT_DOUBLE_EQ(broker.usable(), 0.75);
  EXPECT_FALSE(broker.admit(1, 1.0, 0.8).has_value());
  EXPECT_TRUE(broker.admit(1, 1.0, 0.75).has_value());
}

TEST(CapacityBroker, ReleaseMidRenegotiationKeepsAccountingExact) {
  // A channel closing between a rebalance and the next one must reclaim
  // exactly its renegotiated fraction, and the following rebalance must
  // redistribute over the surviving weights only.
  CapacityBroker broker;
  ASSERT_TRUE(broker.admit(1, 2.0, 0.5).has_value());
  ASSERT_TRUE(broker.admit(2, 1.0, 0.3).has_value());
  ASSERT_TRUE(broker.admit(3, 1.0, 0.1).has_value());
  (void)broker.rebalance(1.0);
  EXPECT_NEAR(broker.grant(1)->fraction, 0.5, 1e-12);
  // Channel 1 closes holding its renegotiated half of the pool.
  EXPECT_NEAR(broker.release(1), 0.5, 1e-12);
  EXPECT_NEAR(broker.allocated(), 0.5, 1e-12);
  // A newcomer fits in the reclaimed space, to the boundary.
  EXPECT_TRUE(broker.admit(4, 1.0, 0.5).has_value());
  EXPECT_FALSE(broker.admit(5, 1.0, 0.1).has_value());
  // The next rebalance never resurrects the closed channel's weight.
  (void)broker.rebalance(0.9);
  EXPECT_FALSE(broker.grant(1).has_value());
  EXPECT_NEAR(broker.grant(2)->fraction, 0.9 / 3.0, 1e-12);
  EXPECT_NEAR(broker.grant(3)->fraction, 0.9 / 3.0, 1e-12);
  EXPECT_NEAR(broker.grant(4)->fraction, 0.9 / 3.0, 1e-12);
  EXPECT_NEAR(broker.allocated(), 0.9, 1e-12);
  // Releasing everything settles the pool back to exactly empty.
  broker.release(2);
  broker.release(3);
  broker.release(4);
  EXPECT_DOUBLE_EQ(broker.allocated(), 0.0);
  EXPECT_TRUE(broker.rebalance(1.0).empty());
}

TEST(CapacityBroker, RejectsMalformedRequests) {
  CapacityBroker broker;
  EXPECT_THROW(broker.admit(1, 0.0, 0.5), std::invalid_argument);
  EXPECT_THROW(broker.admit(1, 1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(broker.admit(1, 1.0, 1.5), std::invalid_argument);
  ASSERT_TRUE(broker.admit(1, 1.0, 0.5).has_value());
  EXPECT_THROW(broker.admit(1, 1.0, 0.1), std::invalid_argument);  // duplicate
  EXPECT_THROW(broker.rebalance(0.0), std::invalid_argument);
  EXPECT_THROW(CapacityBroker(1.0), std::invalid_argument);
}

// ----------------------------------------------------------------- metrics

TEST(Metrics, WindowedHistogramStats) {
  WindowedHistogram hist(4);
  for (const double v : {4.0, 1.0, 3.0, 2.0}) hist.observe(v);
  EXPECT_EQ(hist.count(), 4u);
  EXPECT_DOUBLE_EQ(hist.sum(), 10.0);
  EXPECT_DOUBLE_EQ(hist.min(), 1.0);
  EXPECT_DOUBLE_EQ(hist.max(), 4.0);
  EXPECT_DOUBLE_EQ(hist.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(hist.quantile(1.0), 4.0);
  // The window slides: 4.0 falls out, cumulative min/max remain.
  hist.observe(0.5);
  EXPECT_EQ(hist.window_size(), 4u);
  EXPECT_DOUBLE_EQ(hist.quantile(1.0), 3.0);
  EXPECT_DOUBLE_EQ(hist.max(), 4.0);
  EXPECT_THROW((void)hist.quantile(1.5), std::invalid_argument);
  EXPECT_THROW(WindowedHistogram(0), std::invalid_argument);
}

TEST(Metrics, RegistrySnapshotIsNameSorted) {
  MetricsRegistry metrics;
  metrics.inc("zeta");
  metrics.inc("alpha", 2);
  metrics.set("gauge.x", 1.5);
  metrics.observe("hist.y", 3.0);
  EXPECT_EQ(metrics.counter("alpha"), 2u);
  EXPECT_EQ(metrics.counter("absent"), 0u);
  const MetricsSnapshot snap = metrics.snapshot();
  const std::string text = snap.to_string();
  EXPECT_LT(text.find("counter alpha 2"), text.find("counter zeta 1"));
  EXPECT_NE(text.find("gauge gauge.x 1.5"), std::string::npos);
  EXPECT_NE(text.find("histogram hist.y count=1"), std::string::npos);
}

TEST(Metrics, SetCounterMirrorsAndEraseDrops) {
  MetricsRegistry metrics;
  metrics.set_counter("mirrored", 7);
  metrics.set_counter("mirrored", 9);
  EXPECT_EQ(metrics.counter("mirrored"), 9u);
  metrics.set("gauge.dead", 1.0);
  metrics.observe("hist.dead", 2.0);
  metrics.erase("gauge.dead");
  metrics.erase("hist.dead");
  metrics.erase("never.existed");  // no-op
  const std::string text = metrics.snapshot().to_string();
  EXPECT_EQ(text.find("dead"), std::string::npos);
  EXPECT_NE(text.find("mirrored"), std::string::npos);
}

TEST(Metrics, TimingMetricsExcludedFromDeterministicView) {
  // The convention is centralized in MetricsRegistry::is_timing — the
  // snapshot export and the obs exporters all defer to it.
  EXPECT_TRUE(MetricsRegistry::is_timing("timing.event_loop_us"));
  EXPECT_FALSE(MetricsRegistry::is_timing("events.total"));
  EXPECT_FALSE(MetricsRegistry::is_timing("tim"));
  MetricsRegistry metrics;
  metrics.inc("events.total");
  metrics.observe("timing.event_loop_us", 123.0);
  metrics.set("timing.last", 9.0);
  const MetricsSnapshot snap = metrics.snapshot();
  EXPECT_NE(snap.to_string(true).find(MetricsRegistry::kTimingPrefix),
            std::string::npos);
  EXPECT_EQ(snap.to_string(false).find(MetricsRegistry::kTimingPrefix),
            std::string::npos);
  EXPECT_NE(snap.to_string(false).find("events.total"), std::string::npos);
}

// ---------------------------------------------------------------- scenario

bool same_events(const std::vector<Event>& a, const std::vector<Event>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].time != b[i].time || a[i].type != b[i].type ||
        a[i].channel != b[i].channel || a[i].weight != b[i].weight ||
        a[i].fraction != b[i].fraction || a[i].leaves != b[i].leaves ||
        a[i].joins.size() != b[i].joins.size()) {
      return false;
    }
    for (std::size_t j = 0; j < a[i].joins.size(); ++j) {
      if (a[i].joins[j].bandwidth != b[i].joins[j].bandwidth ||
          a[i].joins[j].guarded != b[i].joins[j].guarded) {
        return false;
      }
    }
  }
  return true;
}

Scenario small_scenario(std::uint64_t seed) {
  Scenario scenario(8.0, seed);
  scenario.source(300.0)
      .population({30, 0.7, gen::Dist::kUnif100})
      .population({10, 0.2, gen::Dist::kLogNormal1})
      .channel({0.0, -1.0, 2.0, 0.4})
      .channel({0.5, 6.0, 1.0, 0.3})
      .poisson_channels({0.5, 2.0, 1.0, 0.2})
      .flash_crowd({2.0, 8, {0, 0.8, gen::Dist::kUnif100}, 0.5, 2.0})
      .diurnal_churn({4.0, 0.6, 5.0, 0.5, {0, 0.5, gen::Dist::kUnif100}})
      .correlated_failure({6.0, 0.1})
      .renegotiate_every(3.0, 0.9);
  return scenario;
}

TEST(Scenario, BuildIsDeterministicPerSeed) {
  const ScenarioScript a = small_scenario(11).build();
  const ScenarioScript b = small_scenario(11).build();
  const ScenarioScript c = small_scenario(12).build();
  ASSERT_EQ(a.initial_peers.size(), 40u);
  EXPECT_TRUE(same_events(a.events, b.events));
  EXPECT_FALSE(same_events(a.events, c.events));
}

TEST(Scenario, EventsAreSortedAndLeavesAreAlive) {
  const ScenarioScript script = small_scenario(3).build();
  ASSERT_FALSE(script.events.empty());
  std::vector<char> alive(script.initial_peers.size() + 1, 1);
  for (std::size_t i = 0; i < script.events.size(); ++i) {
    const Event& event = script.events[i];
    if (i > 0) EXPECT_FALSE(event_before(event, script.events[i - 1]));
    EXPECT_EQ(event.sequence, i);
    for (const NodeSpec& join : event.joins) {
      EXPECT_TRUE(std::isfinite(join.bandwidth));
      alive.push_back(1);
    }
    for (const int id : event.leaves) {
      ASSERT_GT(id, 0);
      ASSERT_LT(static_cast<std::size_t>(id), alive.size());
      EXPECT_TRUE(alive[static_cast<std::size_t>(id)]) << "double departure";
      alive[static_cast<std::size_t>(id)] = 0;
    }
  }
}

TEST(Scenario, RejectsMalformedSpecs) {
  EXPECT_THROW(Scenario(0.0, 1), std::invalid_argument);
  Scenario scenario(1.0, 1);
  EXPECT_THROW(scenario.population({-1, 0.5, gen::Dist::kUnif100}),
               std::invalid_argument);
  EXPECT_THROW(scenario.population({1, 2.0, gen::Dist::kUnif100}),
               std::invalid_argument);
  EXPECT_THROW(scenario.channel({-1.0, -1.0, 1.0, 0.1}),
               std::invalid_argument);
  EXPECT_THROW(scenario.channel({0.0, -1.0, 1.0, 1.5}),  // fraction > 1
               std::invalid_argument);
  EXPECT_THROW(scenario.channel({0.5, 0.2, 1.0, 0.1}),  // closes before open
               std::invalid_argument);
  EXPECT_THROW(scenario.poisson_channels({1.0, 1.0, 1.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(scenario.correlated_failure({0.5, 1.0}), std::invalid_argument);
  EXPECT_THROW(scenario.renegotiate_every(0.0), std::invalid_argument);
}

// ----------------------------------------------------------------- runtime

std::vector<NodeSpec> uniform_peers(int count, double bandwidth,
                                    int guarded_every = 3) {
  std::vector<NodeSpec> peers;
  for (int i = 0; i < count; ++i) {
    peers.push_back(NodeSpec{bandwidth, i % guarded_every == 0});
  }
  return peers;
}

Event open_event(double time, int channel, double weight, double fraction) {
  Event event;
  event.time = time;
  event.type = EventType::kChannelOpen;
  event.channel = channel;
  event.weight = weight;
  event.fraction = fraction;
  return event;
}

TEST(Runtime, OpenPlansOnScaledPlatform) {
  RuntimeConfig config;
  config.collect_timing = false;
  Runtime runtime(config, 100.0, uniform_peers(12, 10.0));
  runtime.step(open_event(0.0, 5, 1.0, 0.5));
  ASSERT_EQ(runtime.open_channels(), 1u);
  const engine::Session* session = runtime.session(5);
  ASSERT_NE(session, nullptr);
  // The session's platform is the population scaled by the granted 0.5.
  EXPECT_NEAR(session->capacities()[0], 50.0, 1e-12);
  EXPECT_NEAR(session->instance().b(1), 5.0, 1e-12);
  EXPECT_GT(session->design_rate(), 0.0);
  EXPECT_TRUE(runtime.validate().empty());
  EXPECT_EQ(runtime.metrics().counter("broker.admitted"), 1u);
  EXPECT_NEAR(runtime.metrics().gauge("channel.5.design_rate"),
              session->design_rate(), 1e-12);
}

TEST(Runtime, RejectedAdmissionLeavesNoChannel) {
  RuntimeConfig config;
  config.collect_timing = false;
  Runtime runtime(config, 100.0, uniform_peers(6, 10.0));
  runtime.step(open_event(0.0, 0, 1.0, 0.8));
  runtime.step(open_event(1.0, 1, 1.0, 0.5));  // 0.5 > 0.2 left
  EXPECT_EQ(runtime.open_channels(), 1u);
  EXPECT_EQ(runtime.session(1), nullptr);
  EXPECT_EQ(runtime.metrics().counter("broker.rejected"), 1u);
  // Closing the never-admitted channel is tolerated, not fatal.
  Event close;
  close.time = 2.0;
  close.type = EventType::kChannelClose;
  close.channel = 1;
  runtime.step(close);
  EXPECT_EQ(runtime.metrics().counter("broker.close_ignored"), 1u);
}

TEST(Runtime, RenegotiateRescalesSessionsExactly) {
  RuntimeConfig config;
  config.collect_timing = false;
  Runtime runtime(config, 100.0, uniform_peers(10, 10.0));
  runtime.step(open_event(0.0, 0, 3.0, 0.5));
  runtime.step(open_event(0.0, 1, 1.0, 0.25));
  const double design0 = runtime.session(0)->design_rate();
  ASSERT_GT(design0, 0.0);

  Event renegotiate;
  renegotiate.time = 1.0;
  renegotiate.type = EventType::kRenegotiate;
  renegotiate.utilization = 1.0;
  runtime.step(renegotiate);
  // Fair shares: 3/4 and 1/4 of the pool; channel 0 grew from 0.5 to 0.75,
  // and its design rate scaled by exactly the same factor.
  EXPECT_NEAR(runtime.broker().grant(0)->fraction, 0.75, 1e-12);
  EXPECT_NEAR(runtime.broker().grant(1)->fraction, 0.25, 1e-12);
  EXPECT_NEAR(runtime.session(0)->design_rate(), design0 * 1.5, 1e-9);
  EXPECT_TRUE(runtime.validate().empty());
  EXPECT_EQ(runtime.metrics().counter("broker.renegotiated"), 1u);
}

TEST(Runtime, JoinPolicyReplanRecruitsNewUploaders) {
  RuntimeConfig config;
  config.collect_timing = false;
  Runtime runtime(config, 100.0, uniform_peers(8, 4.0));
  runtime.step(open_event(0.0, 0, 1.0, 1.0));
  const double before = runtime.session(0)->design_rate();

  Event join;
  join.time = 1.0;
  join.type = EventType::kNodeJoin;
  join.joins.assign(4, NodeSpec{40.0, false});
  runtime.step(join);
  EXPECT_EQ(runtime.alive_peers(), 12);
  EXPECT_EQ(runtime.metrics().counter("replans.join"), 1u);
  // Fat joiners raise the plannable rate; the channel must exploit them.
  EXPECT_GT(runtime.session(0)->design_rate(), before + 1e-9);
  EXPECT_TRUE(runtime.validate().empty());
}

TEST(Runtime, DepartureRepairsEveryHostingChannel) {
  RuntimeConfig config;
  config.collect_timing = false;
  Runtime runtime(config, 200.0, uniform_peers(20, 10.0));
  runtime.step(open_event(0.0, 0, 1.0, 0.5));
  runtime.step(open_event(0.0, 1, 1.0, 0.5));

  Event leave;
  leave.time = 1.0;
  leave.type = EventType::kNodeLeave;
  leave.leaves = {3, 7};
  runtime.step(leave);
  EXPECT_EQ(runtime.alive_peers(), 18);
  ASSERT_EQ(runtime.churn_log().size(), 2u);
  for (const ChurnReport& report : runtime.churn_log()) {
    EXPECT_EQ(report.departed, 2);
    EXPECT_GE(report.achieved_rate, 0.85 * report.design_rate - 1e-9);
  }
  for (const int channel : {0, 1}) {
    const engine::Session* session = runtime.session(channel);
    EXPECT_EQ(session->instance().size(), 19);  // source + 18 peers
    EXPECT_TRUE(session->scheme().validate(session->instance()).empty());
  }
  EXPECT_TRUE(runtime.validate().empty());
  // Departing again with a dead id is a scenario-contract violation, and
  // the rejected event must not touch the population — even when a live
  // node precedes the bad id in the batch.
  Event again;
  again.time = 2.0;
  again.type = EventType::kNodeLeave;
  again.leaves = {5, 3};
  EXPECT_THROW(runtime.step(again), std::invalid_argument);
  again.leaves = {5, 5};
  EXPECT_THROW(runtime.step(again), std::invalid_argument);
  EXPECT_EQ(runtime.alive_peers(), 18);
  EXPECT_EQ(runtime.churn_log().size(), 2u);  // nothing was repaired
}

TEST(Runtime, ZeroCapacityNodeClassAdmitsRebalancesAndChurns) {
  // A class of zero-upload peers (pure leechers) must ride through
  // admission, renegotiation, and departure without wedging the broker,
  // the planner, or the budget audit.
  RuntimeConfig config;
  config.collect_timing = false;
  std::vector<NodeSpec> peers = uniform_peers(8, 10.0);
  for (int i = 0; i < 4; ++i) peers.push_back(NodeSpec{0.0, i % 2 == 0});
  Runtime runtime(config, 100.0, peers);
  runtime.step(open_event(0.0, 0, 2.0, 0.5));
  runtime.step(open_event(0.0, 1, 1.0, 0.25));
  ASSERT_EQ(runtime.open_channels(), 2u);
  // Zero-capacity peers are planned in (they still receive the stream).
  EXPECT_EQ(runtime.session(0)->instance().size(), 13);
  EXPECT_GT(runtime.session(0)->design_rate(), 0.0);

  Event renegotiate;
  renegotiate.time = 1.0;
  renegotiate.type = EventType::kRenegotiate;
  runtime.step(renegotiate);
  EXPECT_NEAR(runtime.broker().grant(0)->fraction, 2.0 / 3.0, 1e-12);

  Event leave;
  leave.time = 2.0;
  leave.type = EventType::kNodeLeave;
  leave.leaves = {9, 10};  // two of the zero-capacity peers
  runtime.step(leave);
  EXPECT_EQ(runtime.alive_peers(), 10);
  for (const ChurnReport& report : runtime.churn_log()) {
    EXPECT_GE(report.achieved_rate, 0.85 * report.design_rate - 1e-9);
  }
  EXPECT_TRUE(runtime.validate().empty());
}

TEST(Runtime, CloseBetweenRenegotiationsReclaimsTheRenegotiatedFraction) {
  // kRenegotiate / kChannelClose / kRenegotiate in sequence: the close
  // must reclaim the channel's *renegotiated* fraction, and the second
  // rebalance must hand the survivors their new fair shares exactly.
  RuntimeConfig config;
  config.collect_timing = false;
  Runtime runtime(config, 100.0, uniform_peers(10, 10.0));
  runtime.step(open_event(0.0, 0, 3.0, 0.4));
  runtime.step(open_event(0.0, 1, 1.0, 0.4));

  Event renegotiate;
  renegotiate.time = 1.0;
  renegotiate.type = EventType::kRenegotiate;
  runtime.step(renegotiate);
  EXPECT_NEAR(runtime.broker().grant(0)->fraction, 0.75, 1e-12);

  Event close;
  close.time = 1.0;  // same timestamp: sequence ordering decides
  close.type = EventType::kChannelClose;
  close.channel = 0;
  runtime.step(close);
  EXPECT_EQ(runtime.open_channels(), 1u);
  EXPECT_NEAR(runtime.broker().allocated(), 0.25, 1e-12);

  renegotiate.time = 1.0;
  runtime.step(renegotiate);
  EXPECT_NEAR(runtime.broker().grant(1)->fraction, 1.0, 1e-12);
  EXPECT_NEAR(runtime.session(1)->capacities()[0], 100.0, 1e-9);
  EXPECT_TRUE(runtime.validate().empty());
  // The freed capacity is immediately admittable after a release-heavy
  // sequence (no float residue locking the pool).
  runtime.step(open_event(2.0, 2, 1.0, 1.0));
  EXPECT_EQ(runtime.metrics().counter("broker.rejected"), 1u);
}

TEST(Runtime, GrantNeverLeaksWhenChannelSetupThrows) {
  // A malformed data-plane config makes stream setup throw mid-open; the
  // broker grant must be released on the way out (no capacity leak).
  RuntimeConfig config;
  config.collect_timing = false;
  config.dataplane.execute = true;
  config.dataplane.execution.chunk_size = 0.0;  // invalid: Execution ctor throws
  Runtime runtime(config, 100.0, uniform_peers(6, 10.0));
  EXPECT_THROW(runtime.step(open_event(0.0, 0, 1.0, 0.9)),
               std::invalid_argument);
  EXPECT_EQ(runtime.open_channels(), 0u);
  EXPECT_DOUBLE_EQ(runtime.broker().allocated(), 0.0);
  EXPECT_EQ(runtime.broker().channels(), 0u);
}

TEST(Runtime, RejectsOutOfOrderEvents) {
  RuntimeConfig config;
  config.collect_timing = false;
  Runtime runtime(config, 10.0, uniform_peers(4, 5.0));
  runtime.step(open_event(5.0, 0, 1.0, 0.5));
  EXPECT_THROW(runtime.step(open_event(4.0, 1, 1.0, 0.25)),
               std::invalid_argument);
  std::vector<Event> unsorted{open_event(3.0, 2, 1.0, 0.1),
                              open_event(2.0, 3, 1.0, 0.1)};
  unsorted[0].sequence = 0;
  unsorted[1].sequence = 1;
  EXPECT_THROW(runtime.run(unsorted), std::invalid_argument);
}

// ------------------------------------------------- acceptance (ISSUE 2)

// 3 channels on a 500-node heterogeneous platform: replay determinism,
// the shared-budget invariant after every event, and the churn bar.
TEST(RuntimeAcceptance, ThreeChannels500NodesDeterministicAndWithinBudget) {
  Scenario scenario(10.0, /*seed=*/2024);
  scenario.source(3000.0)
      .population({300, 0.75, gen::Dist::kUnif100})
      .population({200, 0.25, gen::Dist::kLogNormal1})
      .channel({0.0, -1.0, /*weight=*/2.0, /*fraction=*/0.4})
      .channel({0.0, -1.0, 1.0, 0.3})
      .channel({0.1, -1.0, 1.0, 0.2})
      .flash_crowd({2.0, 40, {0, 0.8, gen::Dist::kUnif100}, 0.5, 3.0})
      .diurnal_churn({5.0, 0.5, 8.0, 0.4, {0, 0.5, gen::Dist::kUnif100}})
      .correlated_failure({8.0, 0.10})
      .renegotiate_every(4.0, 0.95);
  const ScenarioScript script = scenario.build();
  ASSERT_EQ(script.initial_peers.size(), 500u);

  RuntimeConfig config;
  config.collect_timing = false;

  const auto replay = [&](bool audit_every_event) {
    Runtime runtime(config, script.source_bandwidth, script.initial_peers);
    for (const Event& event : script.events) {
      runtime.step(event);
      if (audit_every_event) {
        // Summed per-channel allocation <= b_i for every node, always.
        const auto violations = runtime.validate();
        EXPECT_TRUE(violations.empty())
            << "after t=" << event.time << ": " << violations.front();
      }
    }
    return runtime.metrics().snapshot().to_string(/*include_timing=*/false);
  };

  Runtime runtime(config, script.source_bandwidth, script.initial_peers);
  runtime.run(script.events);

  // All three scripted channels were admitted and stayed live.
  EXPECT_GE(runtime.metrics().counter("broker.admitted"), 3u);
  for (const int channel : {0, 1, 2}) {
    ASSERT_NE(runtime.session(channel), nullptr);
    EXPECT_GT(runtime.session(channel)->design_rate(), 0.0);
  }
  EXPECT_LE(runtime.broker().allocated(), runtime.broker().usable() + 1e-9);
  EXPECT_TRUE(runtime.validate().empty());

  // The platform actually churned, and every hosting channel held the bar:
  // achieved >= 0.85x its broker-granted design rate after every event.
  ASSERT_GT(runtime.churn_log().size(), 10u);
  int leaves = 0;
  for (const ChurnReport& report : runtime.churn_log()) {
    if (report.type == EventType::kNodeLeave) ++leaves;
    ASSERT_GT(report.design_rate, 0.0);
    EXPECT_GE(report.achieved_rate, 0.85 * report.design_rate - 1e-9)
        << "channel " << report.channel << " at t=" << report.time;
  }
  EXPECT_GT(leaves, 0);

  // Replay determinism: identical seed => identical metrics snapshot,
  // including a run audited step-by-step.
  const std::string first = replay(true);
  const std::string second = replay(false);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, runtime.metrics().snapshot().to_string(false));
  EXPECT_NE(first.find("counter repairs.incremental"), std::string::npos);
}

// ------------------------------------------------ per-tick telemetry frame

// Every control tick reads a stream's pipes once and three consumers share
// the rows: the controller (blackout-substituted samples), the crash
// detector (raw activity, blacked-out and partitioned peers paused) and the
// heavy-hitter tables (raw loss / stall watermark deltas). The benchmark's
// digest does not cover the telemetry rollup, so its integer outputs are
// pinned here on a scenario that exercises every rule: a lossy WAN class,
// a blackout on lossy senders, a crash, and a partition that heals.
ScenarioScript frame_script() {
  Scenario scenario(12.0, /*seed=*/31);
  NodeClassSpec wan{16, 0.6, gen::Dist::kUnif100};
  wan.wan = true;
  wan.profile.loss_rate = 0.12;
  wan.profile.latency = 0.01;
  scenario.source(400.0)
      .population({24, 0.5, gen::Dist::kUnif100})
      .population(wan)
      .channel({0.0, -1.0, 1.0, 0.5});
  ScenarioScript script = scenario.build();
  fault::FaultPlan plan;
  plan.crashes.push_back({3.0, 7});
  plan.blackouts.push_back({4.0, 10.0, {22, 25, 26, 27, 28, 29, 30, 31, 32}});
  fault::PartitionSpec partition;
  partition.time = 5.0;
  partition.heal_time = 8.0;
  partition.group_b = {25, 26, 27, 28, 29, 30, 31, 32};
  plan.partitions.push_back(partition);
  fault::Injector::inject(script, plan);
  return script;
}

using HotRows = std::vector<std::pair<std::string, std::uint64_t>>;

HotRows top3(const obs::ShardRegistry& reg, const char* table) {
  HotRows rows;
  for (const obs::TopKEntry& entry : reg.snapshot().topks.at(table).top(3)) {
    rows.emplace_back(entry.key, entry.count);
  }
  return rows;
}

struct FrameRun {
  std::uint64_t samples = 0;
  std::uint64_t stale_nodes = 0;
  std::uint64_t stale_edges = 0;
  std::uint64_t demotions = 0;
  std::uint64_t crashes_detected = 0;
  std::vector<double> leave_times;
  std::size_t control_log = 0;
  HotRows edge_retransmits;
  HotRows node_retransmits;
  HotRows node_stalls;
};

FrameRun run_frame_scenario(bool control) {
  const ScenarioScript script = frame_script();
  obs::ShardRegistry reg;
  RuntimeConfig config;
  config.collect_timing = false;
  config.broker_headroom = 0.05;
  config.dataplane.execute = true;
  config.dataplane.execution.chunk_size = 0.25;
  config.dataplane.execution.receiver_window = 6;
  config.control.enabled = control;
  config.control.slo_enabled = control;
  config.telemetry = &reg;
  // A two-window crash detector against a four-window straggler detector:
  // a peer starved by the partition stays silent long enough that reading
  // its blacked-out parents' frozen samples would evict it — only the raw
  // rows keep it alive.
  config.fault.crash_silence_windows = 2;
  config.control.controller.egress.windows = 4;
  Runtime rt(config, script.source_bandwidth, script.initial_peers);
  std::size_t next = 0;
  for (double t = 1.0; t <= 12.0 + 1e-9; t += 1.0) {
    while (next < script.events.size() && script.events[next].time <= t) {
      rt.step(script.events[next++]);
    }
    Event marker;
    marker.type = EventType::kNodeJoin;  // empty: clock only
    marker.time = t;
    rt.step(marker);
  }
  // Control-less runs attribute heavy hitters only at the stream close-out.
  if (!control) rt.drain(12.0);
  EXPECT_TRUE(rt.validate().empty());

  FrameRun run;
  const MetricsRegistry& metrics = rt.metrics();
  run.samples = metrics.counter("control.samples");
  run.stale_nodes = metrics.counter("control.stale_nodes");
  run.stale_edges = metrics.counter("control.stale_edges");
  run.demotions = metrics.counter("control.demotions");
  run.crashes_detected = metrics.counter("fault.crashes_detected");
  for (const ChurnReport& report : rt.churn_log()) {
    if (report.type == EventType::kNodeLeave) {
      run.leave_times.push_back(report.time);
    }
  }
  run.control_log = rt.control_log().size();
  run.edge_retransmits = top3(reg, "hot.edge_retransmits");
  run.node_retransmits = top3(reg, "hot.node_retransmits");
  run.node_stalls = top3(reg, "hot.node_stalls");
  return run;
}

// Feeding the crash detector or the heavy hitters the blackout-frozen
// rows, or the controller the raw ones, moves these values.
TEST(RuntimeTelemetry, TickFrameOutputsArePinned) {
  const FrameRun run = run_frame_scenario(true);
  EXPECT_EQ(run.samples, 24u);
  EXPECT_EQ(run.stale_nodes, 51u);
  EXPECT_EQ(run.stale_edges, 143u);
  EXPECT_EQ(run.demotions, 33u);
  EXPECT_EQ(run.crashes_detected, 1u);
  EXPECT_EQ(run.leave_times, std::vector<double>{5.0});
  EXPECT_EQ(run.control_log, 17u);
  EXPECT_EQ(run.edge_retransmits,
            (HotRows{{"edge:25->15", 398}, {"edge:29->1", 375},
                     {"edge:5->29", 340}}));
  EXPECT_EQ(run.node_retransmits,
            (HotRows{{"node:0", 661}, {"node:25", 519}, {"node:29", 481}}));
  EXPECT_EQ(run.node_stalls,
            (HotRows{{"node:33", 707}, {"node:29", 539}, {"node:24", 528}}));

  // Without the control plane nothing ticks: the crash departs at once and
  // the heavy hitters are attributed by the close-out read at drain.
  const FrameRun drained = run_frame_scenario(false);
  EXPECT_EQ(drained.samples, 0u);
  EXPECT_EQ(drained.leave_times, std::vector<double>{3.0});
  EXPECT_EQ(drained.edge_retransmits,
            (HotRows{{"edge:25->15", 566}, {"edge:26->20", 473},
                     {"edge:29->1", 448}}));
  EXPECT_EQ(drained.node_retransmits,
            (HotRows{{"node:0", 708}, {"node:25", 602}, {"node:29", 600}}));
  EXPECT_EQ(drained.node_stalls,
            (HotRows{{"node:27", 839}, {"node:24", 754}, {"node:33", 605}}));
}

}  // namespace
}  // namespace bmp::runtime
