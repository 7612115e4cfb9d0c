// BroadcastScheme container tests: rate accumulation and removal, the
// zero-tolerance behavior that keeps float residue from inflating degrees,
// topology queries, validation and DOT export.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <utility>
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

/// FNV-1a over raw bytes: pins an observable state bit for bit.
class Fnv1a {
 public:
  template <typename T>
  void mix(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) {
      hash_ ^= b;
      hash_ *= 0x100000001B3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/// Everything a caller can read off a scheme: edge lists in iteration
/// order, per-node sums and degrees, the in_rates sweep and the
/// topological order.
void mix_scheme(Fnv1a& h, const BroadcastScheme& s) {
  h.mix(s.num_nodes());
  for (int i = 0; i < s.num_nodes(); ++i) {
    h.mix(s.out_degree(i));
    for (const auto& [to, r] : s.out_edges(i)) {
      h.mix(to);
      h.mix(r);
    }
    h.mix(s.out_rate(i));
    h.mix(s.in_rate(i));
    h.mix(s.in_degree(i));
  }
  for (const double r : s.in_rates()) h.mix(r);
  h.mix(s.edge_count());
  h.mix(s.max_out_degree());
  h.mix(s.total_rate());
  const std::vector<int> order = s.topological_order();
  h.mix(order.size());
  for (const int v : order) h.mix(v);
}

/// One seeded edit sequence: random and ascending inserts, accumulations,
/// partial and exact (tolerance-erasing) negative deltas, re-inserts of
/// erased edges, zero deltas and rejected updates. `dag` keeps every edge
/// pointing to a higher id so the topological order is non-trivial.
std::uint64_t edit_sequence_hash(std::uint64_t seed, int n, bool dag) {
  util::Xoshiro256 rng(seed);
  BroadcastScheme s(n);
  Fnv1a h;
  const auto pick_edge = [&](int& from, int& to) {
    do {
      from = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
      to = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
      if (dag && from > to) std::swap(from, to);
    } while (from == to);
  };
  std::vector<std::pair<int, int>> erased;
  for (int step = 0; step < 400; ++step) {
    int from = 0;
    int to = 0;
    pick_edge(from, to);
    const double old = s.rate(from, to);
    switch (rng.below(8)) {
      case 0:
      case 1:  // out-of-order insert or accumulate
        s.add(from, to, rng.uniform(1e-3, 5.0));
        break;
      case 2: {  // an ascending run of targets from one sender
        const int first = dag ? from + 1 : 0;
        for (int t = first; t < n; t += 1 + static_cast<int>(rng.below(4))) {
          if (t != from) s.add(from, t, rng.uniform(0.1, 2.0));
        }
        break;
      }
      case 3:  // partial negative delta
        if (old > 0.0) s.add(from, to, -old * rng.uniform(0.05, 0.95));
        break;
      case 4:  // drains to residue far below the update: erased
        if (old > 0.0) {
          s.add(from, to, -old * (1.0 - 1e-13));
          erased.emplace_back(from, to);
        }
        break;
      case 5:  // exact cancellation
        if (old > 0.0) {
          s.add(from, to, -old);
          erased.emplace_back(from, to);
        }
        break;
      case 6:  // re-insert an erased edge
        if (!erased.empty()) {
          const auto [f, t] = erased[rng.below(erased.size())];
          s.add(f, t, rng.uniform(1e-6, 3.0));
        }
        break;
      default:  // zero delta, then an update driving the rate negative
        s.add(from, to, 0.0);
        if (old > 0.0) {
          EXPECT_THROW(s.add(from, to, -2.0 * old - 1.0),
                       std::invalid_argument);
        }
        break;
    }
    h.mix(step);
    h.mix(s.rate(from, to));
    if (step % 50 == 49) mix_scheme(h, s);
  }
  mix_scheme(h, s);
  return h.value();
}

TEST(BroadcastScheme, SeededEditSequenceIsPinned) {
  // Recorded against the std::map-backed storage: the flat sorted-vector
  // storage must iterate, sum and order exactly as it did.
  Fnv1a h;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const std::uint64_t dag = edit_sequence_hash(seed, 24, true);
    const std::uint64_t any = edit_sequence_hash(seed, 24, false);
    h.mix(dag);
    h.mix(any);
  }
  EXPECT_EQ(h.value(), 0xc1bb0dedb77410f4ULL) << std::hex << h.value();
}

}  // namespace
}  // namespace bmp
