// Planning-engine demo: the library run as a *service* instead of a
// one-shot call. A Planner is fed a synthetic stream of overlay-planning
// requests (many near-duplicate platforms, as a live deployment would see),
// answered in one deduped, thread-parallel batch; then a long-lived Session
// absorbs a sequence of churn events with incremental repair.
//
// Usage:
//   engine_demo [platform.txt ...]
// With no arguments a synthetic fleet of random platforms is generated.
// Platform files use the src/net/instance_io.hpp text format.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "bmp/bmp.hpp"
#include "bmp/engine/plan_cache.hpp"
#include "bmp/gen/generator.hpp"
#include "bmp/net/instance_io.hpp"
#include "bmp/util/rng.hpp"
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace bmp;
  benchutil::CommonCli cli(argc, argv);
  const obs::PhaseScope example_scope(cli.profiler(), "example/engine_demo");

  // 1. Collect base platforms: files from the command line, or synthetic.
  std::vector<Instance> platforms;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--quick" || arg == "--profile-wall") continue;
    if (arg == "--json" || arg == "--trace" || arg == "--profile" ||
        arg == "--metrics" || arg == "--lineage") {
      ++a;  // flag + value pair, consumed by CommonCli
      continue;
    }
    std::ifstream in(argv[a]);
    if (!in) {
      std::cerr << "cannot open " << argv[a] << "\n";
      return 1;
    }
    try {
      platforms.push_back(net::parse_platform(in).instance);
    } catch (const std::exception& e) {
      std::cerr << argv[a] << ": " << e.what() << "\n";
      return 1;
    }
    std::cout << "loaded " << argv[a] << ": " << platforms.back().n()
              << " open + " << platforms.back().m() << " guarded\n";
  }
  util::Xoshiro256 rng(2026);
  if (platforms.empty()) {
    gen::InstanceConfig config;
    config.size = 60;
    config.p_open = 0.4;
    for (int k = 0; k < 8; ++k) platforms.push_back(gen::random_instance(config, rng));
    std::cout << "generated " << platforms.size() << " synthetic platforms ("
              << config.size << " peers each)\n";
  }

  // 2. A request stream with heavy repetition: each request picks one of the
  //    base platforms and re-measures it with sub-bucket jitter, the way
  //    repeated LastMile estimates of the same platform would look.
  engine::PlannerConfig planner_config;
  planner_config.fingerprint_bucket = 1e-3;
  planner_config.profiler = cli.profiler();
  engine::Planner planner(planner_config);

  std::vector<engine::PlanRequest> stream;
  for (int r = 0; r < 200; ++r) {
    const Instance& base = platforms[rng.below(platforms.size())];
    std::vector<double> open, guarded;
    for (int i = 1; i <= base.n(); ++i) {
      open.push_back(base.b(i) + rng.uniform(-1e-5, 1e-5));
    }
    for (int i = base.n() + 1; i < base.size(); ++i) {
      guarded.push_back(base.b(i) + rng.uniform(-1e-5, 1e-5));
    }
    engine::PlanRequest request{Instance(base.b(0), open, guarded),
                                engine::Algorithm::kAuto, /*max_out_degree=*/8};
    stream.push_back(std::move(request));
  }

  const std::vector<engine::PlanResponse> responses = planner.plan_batch(stream);
  int hits = 0;
  double worst_ratio = 1.0;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    hits += responses[i].cache_hit ? 1 : 0;
    const double ceiling = cyclic_upper_bound(stream[i].instance);
    if (ceiling > 0) {
      worst_ratio = std::min(worst_ratio, responses[i].throughput / ceiling);
    }
  }
  const engine::CacheStats stats = planner.cache_stats();
  std::cout << "\nplanned " << responses.size() << " requests: " << hits
            << " served without a fresh plan\n"
            << "cache: " << stats.hits << " hits / " << stats.misses
            << " misses / " << stats.evictions << " evictions ("
            << stats.size << " resident)\n"
            << "worst throughput vs cyclic ceiling: " << worst_ratio
            << " (unbounded-degree plans never fall below 5/7 by Theorem 6.2;"
               " the degree bound here may cost more)\n";

  // 3. A long-lived session riding out churn: peers leave in waves; the
  //    session repairs in place while it can and re-plans when it must.
  std::cout << "\nchurn session on platform 0 (design rate fixed reference):\n";
  engine::Session session(planner, platforms[0]);
  std::cout << "  initial rate " << session.design_rate() << "\n";
  for (int wave = 1; wave <= 5 && session.instance().size() > 4; ++wave) {
    const int peers = session.instance().size() - 1;
    std::vector<int> departed;
    for (int k = 0; k < std::max(1, peers / 10); ++k) {
      const int id = 1 + static_cast<int>(rng.below(peers));
      if (std::find(departed.begin(), departed.end(), id) == departed.end()) {
        departed.push_back(id);
      }
    }
    const engine::ChurnOutcome outcome = session.on_departure(departed);
    std::cout << "  wave " << wave << ": -" << outcome.departed << " peers, "
              << (outcome.full_replan ? "FULL replan" : "incremental repair")
              << ", rate " << outcome.achieved_rate << " (degraded was "
              << outcome.degraded_rate << ")\n";
  }
  std::cout << "  " << session.incremental_replans() << " incremental / "
            << session.full_replans() << " full replans\n";
  return benchutil::finish(cli, "engine_demo", true);
}
