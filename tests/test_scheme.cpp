// BroadcastScheme container tests: rate accumulation and removal, the
// zero-tolerance behavior that keeps float residue from inflating degrees,
// topology queries, validation and DOT export.
#include <gtest/gtest.h>

#include <vector>

#include "bmp/core/scheme.hpp"
#include "test_helpers.hpp"

namespace bmp {
namespace {

TEST(Scheme, AddAccumulatesAndSubtracts) {
  BroadcastScheme s(3);
  s.add(0, 1, 1.5);
  s.add(0, 1, 0.5);
  EXPECT_DOUBLE_EQ(s.rate(0, 1), 2.0);
  s.add(0, 1, -0.5);
  EXPECT_DOUBLE_EQ(s.rate(0, 1), 1.5);
  EXPECT_EQ(s.edge_count(), 1);
}

TEST(Scheme, TinyResidueVanishesButTinyScalesWork) {
  BroadcastScheme s(3);
  s.add(0, 1, 1.0);
  s.add(0, 1, -1.0 + 1e-12);  // residue far below the update's magnitude
  EXPECT_DOUBLE_EQ(s.rate(0, 1), 0.0);
  EXPECT_EQ(s.out_degree(0), 0);
  // Tolerances are relative: a genuinely tiny-scale edge is preserved
  // (platforms measured in bit/s must work like Gbit/s ones).
  s.add(0, 2, 1e-12);
  EXPECT_EQ(s.edge_count(), 1);
  EXPECT_DOUBLE_EQ(s.rate(0, 2), 1e-12);
}

TEST(Scheme, RejectsBadEdges) {
  BroadcastScheme s(3);
  EXPECT_THROW(s.add(0, 0, 1.0), std::invalid_argument);   // self loop
  EXPECT_THROW(s.add(0, 5, 1.0), std::out_of_range);       // bad id
  EXPECT_THROW(s.add(-1, 1, 1.0), std::out_of_range);
  s.add(0, 1, 1.0);
  EXPECT_THROW(s.add(0, 1, -2.0), std::invalid_argument);  // below zero
  EXPECT_THROW(BroadcastScheme(0), std::invalid_argument);
}

TEST(Scheme, RatesAndDegrees) {
  BroadcastScheme s(4);
  s.add(0, 1, 2.0);
  s.add(0, 2, 3.0);
  s.add(1, 3, 1.0);
  s.add(2, 3, 1.0);
  EXPECT_DOUBLE_EQ(s.out_rate(0), 5.0);
  EXPECT_DOUBLE_EQ(s.in_rate(3), 2.0);
  EXPECT_EQ(s.out_degree(0), 2);
  EXPECT_EQ(s.in_degree(3), 2);
  EXPECT_EQ(s.max_out_degree(), 2);
  EXPECT_DOUBLE_EQ(s.total_rate(), 7.0);
}

TEST(Scheme, InRatesMatchPerNodeSumsBitForBit) {
  // in_rates() must add each node's in-edges in in_rate()'s order
  // (ascending sender): repair and the download-cap checks rely on it.
  util::Xoshiro256 rng(5);
  BroadcastScheme s(40);
  for (int k = 0; k < 600; ++k) {
    const int from = static_cast<int>(rng.below(40));
    const int to = static_cast<int>(rng.below(40));
    if (from != to) s.add(from, to, rng.uniform(1e-3, 7.0));
  }
  const std::vector<double> in = s.in_rates();
  ASSERT_EQ(in.size(), 40u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(in[static_cast<std::size_t>(i)], s.in_rate(i)) << "node " << i;
  }
}

TEST(Scheme, TopologicalOrderOnDag) {
  BroadcastScheme s(4);
  s.add(0, 2, 1.0);
  s.add(2, 1, 1.0);
  s.add(1, 3, 1.0);
  ASSERT_TRUE(s.is_acyclic());
  const std::vector<int> topo = s.topological_order();
  ASSERT_EQ(topo.size(), 4u);
  std::vector<int> pos(4);
  for (int p = 0; p < 4; ++p) pos[static_cast<std::size_t>(topo[static_cast<std::size_t>(p)])] = p;
  EXPECT_LT(pos[0], pos[2]);
  EXPECT_LT(pos[2], pos[1]);
  EXPECT_LT(pos[1], pos[3]);
}

TEST(Scheme, CycleDetection) {
  BroadcastScheme s(3);
  s.add(0, 1, 1.0);
  s.add(1, 2, 1.0);
  EXPECT_TRUE(s.is_acyclic());
  s.add(2, 1, 0.5);
  EXPECT_FALSE(s.is_acyclic());
  EXPECT_TRUE(s.topological_order().empty());
  // Removing the back edge restores acyclicity.
  s.add(2, 1, -0.5);
  EXPECT_TRUE(s.is_acyclic());
}

TEST(Scheme, ValidateBandwidthAndFirewall) {
  const Instance inst(2.0, {1.0}, {1.0, 1.0});
  BroadcastScheme s(inst.size());
  s.add(0, 2, 1.5);
  s.add(0, 3, 1.0);  // source over budget: 2.5 > 2.0
  s.add(2, 3, 0.5);  // guarded -> guarded
  const auto issues = s.validate(inst);
  ASSERT_EQ(issues.size(), 2u);
  EXPECT_NE(issues[0].find("bandwidth"), std::string::npos);
  EXPECT_NE(issues[1].find("firewall"), std::string::npos);
  // Mismatched sizes reported.
  BroadcastScheme wrong(2);
  EXPECT_EQ(wrong.validate(inst).size(), 1u);
}

TEST(Scheme, InflowDeviation) {
  BroadcastScheme s(3);
  s.add(0, 1, 2.0);
  s.add(0, 2, 1.5);
  EXPECT_DOUBLE_EQ(s.max_inflow_deviation(2.0), 0.5);
  EXPECT_DOUBLE_EQ(s.max_inflow_deviation(1.75), 0.25);
}

TEST(Scheme, DotExportContainsEdges) {
  BroadcastScheme s(3);
  s.add(0, 1, 1.25);
  s.add(1, 2, 1.0);
  const std::string dot = s.to_dot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("C0 -> C1"), std::string::npos);
  EXPECT_NE(dot.find("1.25"), std::string::npos);
}

TEST(Scheme, OutEdgesAreSortedByTarget) {
  BroadcastScheme s(5);
  s.add(0, 4, 1.0);
  s.add(0, 1, 1.0);
  s.add(0, 3, 1.0);
  int prev = -1;
  for (const auto& [to, r] : s.out_edges(0)) {
    EXPECT_GT(to, prev);
    prev = to;
  }
}

}  // namespace
}  // namespace bmp
