// `bmp_plan` — standalone overlay planner CLI (the downstream-user entry
// point). Reads a platform file, plans the optimal low-degree acyclic
// broadcast overlay (or the cyclic one for open-only platforms), prints a
// report and emits the scheme / Graphviz dot.
//
//   usage: bmp_plan <platform-file> [--cyclic] [--rate R] [--dot] [--edges]
//   platform file format:
//       source  25.0
//       open    10.0  worker-a
//       guarded  2.5  laptop-b
//
// Run without arguments for a demo on a built-in platform.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bmp/bmp.hpp"
#include "bmp/core/depth.hpp"
#include "bmp/net/instance_io.hpp"
#include "bmp/util/table.hpp"
#include "bench_util.hpp"

namespace {

constexpr const char* kDemoPlatform = R"(# demo platform
source 24
open 20 relay-a
open 12 relay-b
guarded 16 office-nat
guarded 6 home-1
guarded 4 home-2
guarded 2 mobile
)";

int run(const bmp::net::PlatformFile& platform, bool cyclic, double rate,
        bool dot, bool edges) {
  using bmp::util::Table;
  const bmp::Instance& inst = platform.instance;
  const double t_star = bmp::cyclic_upper_bound(inst);

  bmp::BroadcastScheme scheme(inst.size());
  double T = 0.0;
  std::string algorithm;
  if (cyclic) {
    if (inst.m() != 0) {
      std::cerr << "--cyclic requires an open-only platform (the optimal "
                   "cyclic+guarded problem needs unbounded degrees; see "
                   "DESIGN.md / Fig. 6)\n";
      return 2;
    }
    T = rate > 0.0 ? rate : bmp::cyclic_open_optimal(inst);
    scheme = bmp::build_cyclic_open(inst, T);
    algorithm = "cyclic (Theorem 5.2)";
  } else {
    const bmp::AcyclicSolution sol = bmp::solve_acyclic(inst);
    if (rate > 0.0 && rate < sol.throughput) {
      const auto word = bmp::greedy_test(inst, rate);
      if (!word) {
        std::cerr << "requested rate " << rate << " is infeasible\n";
        return 2;
      }
      T = rate;
      scheme = bmp::build_scheme_from_word(inst, *word, T).scheme;
    } else {
      T = sol.throughput;
      scheme = sol.scheme;
    }
    algorithm = "acyclic (Theorem 4.1)";
  }

  Table report({"quantity", "value"});
  report.add_row({"algorithm", algorithm});
  report.add_row({"nodes", Table::num(inst.size()) + " (" +
                               Table::num(inst.n()) + " open, " +
                               Table::num(inst.m()) + " guarded)"});
  report.add_row({"throughput T", Table::num(T, 4)});
  report.add_row({"cyclic bound T*", Table::num(t_star, 4)});
  report.add_row({"efficiency", Table::num(100.0 * T / t_star, 1) + "%"});
  report.add_row({"connections", Table::num(scheme.edge_count())});
  report.add_row({"max outdegree", Table::num(scheme.max_out_degree())});
  if (scheme.is_acyclic()) {
    const bmp::DepthReport depth = bmp::analyze_depth(scheme);
    report.add_row({"max depth", Table::num(depth.max_depth)});
    report.add_row({"mean weighted depth", Table::num(depth.max_weighted_depth, 2)});
  }
  report.add_row({"verified (max-flow)",
                  Table::num(bmp::flow::scheme_throughput(scheme), 4)});
  report.print(std::cout);

  if (edges) {
    std::cout << "\n# scheme edges (from to rate)\n"
              << bmp::net::serialize_scheme(scheme);
  }
  if (dot) std::cout << "\n" << scheme.to_dot();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bmp::benchutil::CommonCli cli(
      argc, argv, {"--cyclic", "--dot", "--edges", "--help"}, {"--rate"});
  bool cyclic = false;
  bool dot = false;
  bool edges = false;
  double rate = 0.0;
  std::string path;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--cyclic") {
      cyclic = true;
    } else if (arg == "--dot") {
      dot = true;
    } else if (arg == "--edges") {
      edges = true;
    } else if (arg == "--rate" && a + 1 < argc) {
      rate = std::stod(argv[++a]);
    } else if (arg == "--quick" || arg == "--profile-wall") {
      // observability flags, already consumed by CommonCli
    } else if (arg == "--json" || arg == "--trace" || arg == "--profile" ||
               arg == "--metrics" || arg == "--lineage") {
      ++a;  // flag + value pair, consumed by CommonCli
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: bmp_plan <platform-file> [--cyclic] [--rate R] "
                   "[--dot] [--edges] [--json P] [--profile P]\n";
      return 0;
    } else {
      path = arg;
    }
  }

  try {
    int rc = 0;
    {
      const bmp::obs::PhaseScope plan_scope(cli.profiler(), "example/bmp_plan");
      if (path.empty()) {
        std::cout << "(no platform file given; planning the built-in demo)\n\n";
        rc = run(bmp::net::parse_platform_string(kDemoPlatform), cyclic, rate,
                 dot, /*edges=*/true);
      } else {
        std::ifstream in(path);
        if (!in) {
          std::cerr << "cannot open " << path << "\n";
          return 2;
        }
        rc = run(bmp::net::parse_platform(in), cyclic, rate, dot, edges);
      }
    }
    if (!cli.json.empty() || !cli.profile.empty()) {
      bmp::benchutil::finish(cli, "bmp_plan", rc == 0);
    }
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
