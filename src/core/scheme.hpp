// A broadcast scheme: the weighted overlay digraph {c_ij} produced by the
// algorithms (paper §II.D). Node i sends to node j at rate c_ij; the scheme
// is subject to the bandwidth constraint (sum_j c_ij <= b_i) and the
// firewall constraint (no guarded->guarded edge). Throughput is
// min_k maxflow(C0 -> Ck) — computed in bmp/flow (scheme_throughput) to keep
// this type dependency-free.
//
// Storage: each node's out-edges are one std::vector<std::pair<int, double>>
// sorted by target — the overlays of Lemma 4.6 give every node only a few
// edges, so a flat sorted list beats a tree on every access. Costs, with d
// the sender's out-degree:
//   add(from, to, ·)   O(log d) to find the edge; appending past the last
//                      target (the order the builders and restrict_scheme
//                      emit) is O(1), a mid-list insert or erase O(d).
//   rate(from, to)     O(log d).
//   in_rate / in_degree  one binary search per node: O(n log d).
// Iteration is in ascending target order whatever the insertion history,
// so every sum over a node's edges adds the same terms in the same order.
//
// Copy before mutate: add() may insert into or erase from the very vector
// out_edges(from) returns, invalidating its iterators. A loop that calls
// add(i, ...) while walking out_edges(i) must walk a copy of the list.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "bmp/core/instance.hpp"

namespace bmp {

class BroadcastScheme {
 public:
  /// One node's out-edges as (target, rate), sorted by target.
  using EdgeList = std::vector<std::pair<int, double>>;

  explicit BroadcastScheme(int num_nodes);

  [[nodiscard]] int num_nodes() const { return static_cast<int>(out_.size()); }

  /// Adds `delta` (may be negative, for the cyclic rerouting steps) to edge
  /// (from,to). Rates that land within a *relative* kZeroTol of zero
  /// (relative to |old| + |delta|) are removed so floating-point residue
  /// never inflates degrees; driving a rate significantly below zero
  /// throws. Tolerances are scale-free.
  void add(int from, int to, double delta);

  /// Current rate of edge (from,to); 0 if absent.
  [[nodiscard]] double rate(int from, int to) const;

  /// Outgoing edges of node i as (target, rate), ordered by target id.
  /// Invalidated by add(i, ...): see the copy-before-mutate rule above.
  [[nodiscard]] const EdgeList& out_edges(int i) const;

  [[nodiscard]] double out_rate(int i) const;
  /// in_rate(i) and in_degree(i) search every node's out-edges: O(n log d)
  /// per call. Fine for tests and one-off queries; loops over all nodes use
  /// in_rates() instead.
  [[nodiscard]] double in_rate(int i) const;
  [[nodiscard]] int out_degree(int i) const;
  [[nodiscard]] int in_degree(int i) const;
  /// Every node's in_rate in one O(E) sweep. Senders are visited in
  /// ascending order, so in_rates()[i] adds the same terms in the same
  /// order as in_rate(i) — the sums are bit-identical.
  [[nodiscard]] std::vector<double> in_rates() const;
  [[nodiscard]] int max_out_degree() const;
  [[nodiscard]] int edge_count() const;
  /// Sum of all edge rates (total traffic).
  [[nodiscard]] double total_rate() const;

  /// True iff the communication graph is a DAG (paper's acyclic schemes).
  [[nodiscard]] bool is_acyclic() const;
  /// A topological order if acyclic, empty vector otherwise.
  [[nodiscard]] std::vector<int> topological_order() const;

  /// Human-readable violation list; empty means the scheme satisfies the
  /// bandwidth and firewall constraints of `instance` within `tol`.
  [[nodiscard]] std::vector<std::string> validate(const Instance& instance,
                                                  double tol = 1e-7) const;

  /// Max |in_rate(i) - T| over non-source nodes — our constructive schemes
  /// feed every node at exactly the target rate.
  [[nodiscard]] double max_inflow_deviation(double T) const;

  /// Graphviz dot output (used by examples).
  [[nodiscard]] std::string to_dot() const;

  static constexpr double kZeroTol = 1e-9;

 private:
  std::vector<EdgeList> out_;
};

}  // namespace bmp
