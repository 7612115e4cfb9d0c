// obs_query — offline rollup of dumped shard telemetry snapshots.
//
//   obs_query <shard.json>... [--quantile NAME:Q]... [--top NAME[:K]]...
//             [--json] [--prometheus] [--out FILE]
//
// Inputs are RollupSnapshot::to_json() dumps (one per shard — bench_obs
// and the sharded_rollup example write them). The tool merges them into
// the global rollup (merge order cannot matter — the snapshots' merge is
// exact and commutative) and prints:
//   default        the human-readable global rollup (counters, gauges,
//                  sketch summaries, heavy-hitter tables)
//   --quantile     one `NAME qQ = value` line per query, answered from the
//                  merged sketch under its alpha relative-error contract
//   --top          the K heaviest entries of top-K series NAME
//   --json         the merged rollup in lossless snapshot JSON (pipe it
//                  back into obs_query to continue a hierarchy offline)
//   --prometheus   the merged rollup in Prometheus exposition format
//   --out          also write the lossless merged snapshot to FILE
// Q must be a finite number in [0, 1] and K an integer >= 1, each the
// whole token after the last ':'; anything else (and an unknown flag) is a
// usage error. Exit codes: 0 ok, 1 usage, 2 unreadable/malformed input, 3 a
// query named a series the rollup does not carry.
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bmp/obs/export.hpp"
#include "bmp/obs/rollup.hpp"

namespace {

int usage() {
  std::cerr << "usage: obs_query <shard.json>... [--quantile NAME:Q]..."
               " [--top NAME[:K]]... [--json] [--prometheus] [--out FILE]\n";
  return 1;
}

// Whole-token numbers: "0.5abc", " 2", "" and out-of-range values fail.
bool parse_double(const std::string& text, double& out) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  out = std::strtod(text.c_str(), &end);
  return errno == 0 && end == text.c_str() + text.size();
}

bool parse_count(const std::string& text, std::size_t& out) {
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  out = static_cast<std::size_t>(value);
  return errno == 0 && end == text.c_str() + text.size() && value >= 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> files;
  std::vector<std::pair<std::string, double>> quantiles;
  std::vector<std::pair<std::string, std::size_t>> tops;
  bool as_json = false;
  bool as_prometheus = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      as_json = true;
    } else if (arg == "--prometheus") {
      as_prometheus = true;
    } else if (arg == "--out") {
      if (i + 1 >= argc) return usage();
      out_path = argv[++i];
    } else if (arg == "--quantile") {
      if (i + 1 >= argc) return usage();
      const std::string spec = argv[++i];
      const std::size_t colon = spec.rfind(':');
      double q = 0.0;
      if (colon == std::string::npos ||
          !parse_double(spec.substr(colon + 1), q) || !std::isfinite(q) ||
          q < 0.0 || q > 1.0) {
        return usage();
      }
      quantiles.emplace_back(spec.substr(0, colon), q);
    } else if (arg == "--top") {
      if (i + 1 >= argc) return usage();
      const std::string spec = argv[++i];
      const std::size_t colon = spec.rfind(':');
      std::size_t k = 0;
      if (colon == std::string::npos) {
        tops.emplace_back(spec, 0);
      } else if (parse_count(spec.substr(colon + 1), k)) {
        tops.emplace_back(spec.substr(0, colon), k);
      } else {
        return usage();
      }
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) return usage();

  bmp::obs::RollupSnapshot global;
  global.shards = 0;
  for (const std::string& path : files) {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "obs_query: cannot read " << path << "\n";
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bmp::obs::RollupSnapshot shard;
    if (!bmp::obs::parse_rollup_json(buffer.str(), shard)) {
      std::cerr << "obs_query: " << path
                << " is not a rollup dump (RollupSnapshot::to_json format)\n";
      return 2;
    }
    global.merge(shard);
  }

  if (!out_path.empty() && !global.write(out_path)) {
    std::cerr << "obs_query: cannot write " << out_path << "\n";
    return 2;
  }

  if (as_json) {
    std::cout << global.to_json() << "\n";
  } else if (as_prometheus) {
    std::cout << bmp::obs::to_prometheus(global);
  } else if (quantiles.empty() && tops.empty()) {
    std::cout << global.to_text();
  }

  for (const auto& [name, q] : quantiles) {
    const auto it = global.sketches.find(name);
    if (it == global.sketches.end()) {
      std::cerr << "obs_query: no sketch named '" << name << "'\n";
      return 3;
    }
    char line[160];
    std::snprintf(line, sizeof(line), "%s q%.6g = %.12g (alpha=%g)\n",
                  name.c_str(), q, it->second.quantile(q),
                  it->second.config().alpha);
    std::cout << line;
  }
  for (const auto& [name, k] : tops) {
    const auto it = global.topks.find(name);
    if (it == global.topks.end()) {
      std::cerr << "obs_query: no top-k series named '" << name << "'\n";
      return 3;
    }
    std::cout << "topk " << name << " total=" << it->second.total_weight()
              << "\n";
    for (const bmp::obs::TopKEntry& row : it->second.top(k)) {
      std::cout << "  " << row.key << " count=" << row.count
                << " (overcount<=" << row.error << ")\n";
    }
  }
  return 0;
}
