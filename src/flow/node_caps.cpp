#include "bmp/flow/node_caps.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "bmp/flow/verify.hpp"

namespace bmp::flow {

std::vector<std::string> validate_download_caps(
    const BroadcastScheme& scheme, const std::vector<double>& download_cap,
    double tol) {
  if (static_cast<int>(download_cap.size()) != scheme.num_nodes()) {
    throw std::invalid_argument("validate_download_caps: size mismatch");
  }
  std::vector<std::string> issues;
  const std::vector<double> in_rates = scheme.in_rates();
  for (int v = 1; v < scheme.num_nodes(); ++v) {
    const double in = in_rates[static_cast<std::size_t>(v)];
    if (in > download_cap[static_cast<std::size_t>(v)] + tol) {
      std::ostringstream os;
      os << "download cap violated at node " << v << ": receives " << in
         << " > cap " << download_cap[static_cast<std::size_t>(v)];
      issues.push_back(os.str());
    }
  }
  return issues;
}

DownloadCapProbe::DownloadCapProbe(const BroadcastScheme& scheme)
    : num_nodes_(scheme.num_nodes()) {
  const int N = num_nodes_;
  // Split every node v into v_in (= v) and v_out (= v + N); scheme edges
  // run u_out -> v_in; the internal edge v_in -> v_out carries the cap.
  // The source's internal edge must not bind: total_rate upper-bounds any
  // flow, and stays on the scheme's own scale (an "infinite" sentinel
  // would wreck the solver's relative tolerances).
  unbounded_ = scheme.total_rate() + 1.0;
  graph_.assign(2 * N);
  cap_edge_.assign(static_cast<std::size_t>(N), -1);
  cap_.assign(static_cast<std::size_t>(N), unbounded_);
  inflow_.assign(static_cast<std::size_t>(N), 0.0);
  for (int v = 0; v < N; ++v) {
    cap_edge_[static_cast<std::size_t>(v)] = graph_.add_edge(v, v + N, unbounded_);
    for (const auto& [to, rate] : scheme.out_edges(v)) {
      graph_.add_edge(v + N, to, rate);
      inflow_[static_cast<std::size_t>(to)] += rate;
    }
  }
}

void DownloadCapProbe::set_caps(const std::vector<double>& download_cap) {
  if (static_cast<int>(download_cap.size()) != num_nodes_) {
    throw std::invalid_argument("DownloadCapProbe: size mismatch");
  }
  for (int v = 1; v < num_nodes_; ++v) {
    const double cap =
        std::min(download_cap[static_cast<std::size_t>(v)], unbounded_);
    cap_[static_cast<std::size_t>(v)] = cap;
    graph_.set_capacity(cap_edge_[static_cast<std::size_t>(v)], cap);
  }
}

void DownloadCapProbe::set_uniform_cap(double cap) {
  const double clamped = std::min(cap, unbounded_);
  for (int v = 1; v < num_nodes_; ++v) {
    cap_[static_cast<std::size_t>(v)] = clamped;
    graph_.set_capacity(cap_edge_[static_cast<std::size_t>(v)], clamped);
  }
}

double DownloadCapProbe::throughput() {
  const int N = num_nodes_;
  if (N <= 1) return 0.0;
  // min(inflow, cap) upper-bounds the flow into every sink in any digraph.
  // The sink's own download cap applies: measure flow into v_out (v + N).
  sink_order_.clear();
  sink_order_.reserve(static_cast<std::size_t>(N - 1));
  for (int v = 1; v < N; ++v) {
    sink_order_.emplace_back(std::min(inflow_[static_cast<std::size_t>(v)],
                                      cap_[static_cast<std::size_t>(v)]),
                             v + N);
  }
  return limit_bounded_sink_sweep(graph_, /*source=*/N, sink_order_);
}

double scheme_throughput_with_download_caps(
    const BroadcastScheme& scheme, const std::vector<double>& download_cap) {
  if (static_cast<int>(download_cap.size()) != scheme.num_nodes()) {
    throw std::invalid_argument(
        "scheme_throughput_with_download_caps: size mismatch");
  }
  DownloadCapProbe probe(scheme);
  probe.set_caps(download_cap);
  return probe.throughput();
}

double minimal_uniform_download_cap(const BroadcastScheme& scheme, double T,
                                    double tol) {
  if (T <= 0.0) return 0.0;
  double lo = 0.0;
  double hi = 0.0;
  const std::vector<double> in_rates = scheme.in_rates();
  for (int v = 1; v < scheme.num_nodes(); ++v) {
    hi = std::max(hi, in_rates[static_cast<std::size_t>(v)]);
  }
  if (hi <= 0.0) return 0.0;
  // One probe for all 50 bisection iterations: only the N internal-edge
  // capacities change between evaluations.
  DownloadCapProbe probe(scheme);
  for (int iter = 0; iter < 50; ++iter) {
    const double mid = 0.5 * (lo + hi);
    probe.set_uniform_cap(mid);
    const double reached = probe.throughput();
    if (reached + tol >= T) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

}  // namespace bmp::flow
