// lineage_report — renders a dumped chunk-lineage file as the
// critical-path blame table.
//
//   lineage_report <lineage.json> [--channel N] [--top N] [--json out.json]
//
// The input is a LineageSink::to_json() dump (examples/adaptive_wan
// --lineage writes one). The tool re-runs obs::analyze_critical_path on the
// parsed hops, prints the human-readable table, and optionally writes the
// machine-readable blame JSON. --channel takes an integer (-1: the channel
// of the globally last delivery), --top an integer >= 1; a malformed
// value, a missing value or an unknown flag is a usage error. Exit codes:
// 0 ok, 1 usage, 2 unreadable or malformed input, 3 the blame invariant
// failed (attributed segment delays do not sum to the last node's
// completion time).
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

#include "bmp/obs/lineage.hpp"

namespace {

int usage() {
  std::cerr << "usage: lineage_report <lineage.json> [--channel N] [--top N]"
               " [--json out.json]\n";
  return 1;
}

// A whole-token base-10 integer: "abc", "3x", " 3" and "" fail.
bool parse_int(const char* text, long long& out) {
  if (*text == '\0' || std::isspace(static_cast<unsigned char>(*text))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  out = std::strtoll(text, &end, 10);
  return errno == 0 && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || argv[1][0] == '-') return usage();
  int channel = -1;
  std::size_t top_n = 10;
  const char* json_path = nullptr;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();  // every flag takes a value
    const char* value = argv[++i];
    long long number = 0;
    if (arg == "--channel") {
      if (!parse_int(value, number) || number != static_cast<int>(number)) {
        return usage();
      }
      channel = static_cast<int>(number);
    } else if (arg == "--top") {
      if (!parse_int(value, number) || number < 1) return usage();
      top_n = static_cast<std::size_t>(number);
    } else if (arg == "--json") {
      json_path = value;
    } else {
      return usage();
    }
  }

  std::ifstream in(argv[1]);
  if (!in) {
    std::cerr << "lineage_report: cannot read " << argv[1] << "\n";
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();

  std::vector<bmp::obs::HopRecord> hops;
  std::uint64_t dropped = 0;
  std::uint64_t sampled_out = 0;
  std::uint32_t sample_mod = 1;
  if (!bmp::obs::parse_lineage_json(buffer.str(), hops, dropped, sampled_out,
                                    sample_mod)) {
    std::cerr << "lineage_report: " << argv[1]
              << " is not a lineage dump (LineageSink::to_json format)\n";
    return 2;
  }

  const bmp::obs::BlameTable table =
      bmp::obs::analyze_critical_path(hops, channel, top_n, sample_mod);
  std::cout << "hops: " << hops.size() << " (dropped " << dropped
            << ", sampled out " << sampled_out << ", 1-in-" << sample_mod
            << " chunk sample)\n"
            << table.to_text();
  if (json_path != nullptr) {
    std::ofstream out(json_path);
    out << table.to_json() << "\n";
    if (!out) {
      std::cerr << "lineage_report: cannot write " << json_path << "\n";
      return 2;
    }
  }
  if (table.valid &&
      std::fabs(table.attributed_total - table.completion_time) > 1e-6) {
    std::cerr << "lineage_report: blame invariant FAILED: attributed "
              << table.attributed_total << " vs completion "
              << table.completion_time << "\n";
    return 3;
  }
  return 0;
}
