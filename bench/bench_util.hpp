// Shared helpers for the experiment binaries.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bmp/obs/profiler.hpp"

namespace bmp::benchutil {

/// BENCH_*.json schema version. tools/bench_diff refuses to compare
/// reports across schema versions, so bump this whenever a field changes
/// meaning (adding fields is backward-compatible — the comparator walks
/// the intersection).
inline constexpr int kBenchSchema = 2;

/// Integer env override with default (e.g. BMP_FIG19_REPS).
inline int env_int(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::atoi(value);
}

/// Commit id for stamping JSON perf reports, so BENCH_*.json artifacts
/// line up into a trajectory across commits: GITHUB_SHA when CI provides
/// it, `git rev-parse HEAD` for local runs, "unknown" outside a checkout.
inline std::string git_sha() {
  if (const char* env = std::getenv("GITHUB_SHA");
      env != nullptr && *env != '\0') {
    return env;
  }
  std::string sha;
  if (FILE* pipe = ::popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buffer[128];
    if (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) sha = buffer;
    ::pclose(pipe);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
    sha.pop_back();
  }
  return sha.empty() ? "unknown" : sha;
}

/// Machine-readable bench output: a flat JSON object written next to the
/// human table so CI can archive one BENCH_<name>.json per run and chart
/// the perf trajectory across commits. Insertion order is preserved.
class JsonReport {
 public:
  void add(const std::string& key, double value) {
    // inf/nan are not JSON tokens; a degenerate measurement must not make
    // the whole artifact unparseable.
    if (!std::isfinite(value)) {
      fields_.emplace_back(key, "null");
      return;
    }
    std::ostringstream os;
    os.precision(17);
    os << value;
    fields_.emplace_back(key, os.str());
  }
  void add(const std::string& key, std::uint64_t value) {
    fields_.emplace_back(key, std::to_string(value));
  }
  void add(const std::string& key, int value) {
    fields_.emplace_back(key, std::to_string(value));
  }
  void add_string(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, "\"" + escaped(value) + "\"");
  }
  /// Embeds an already-serialized JSON value verbatim (e.g. the final
  /// obs::to_json metrics snapshot) — the caller vouches for validity.
  void add_raw(const std::string& key, const std::string& json) {
    fields_.emplace_back(key, json);
  }

  [[nodiscard]] std::string to_string() const {
    std::string out = "{\n";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      out += "  \"" + escaped(fields_[i].first) + "\": " + fields_[i].second;
      if (i + 1 < fields_.size()) out += ",";
      out += "\n";
    }
    out += "}\n";
    return out;
  }

  /// Writes the report; returns false (and prints nothing) on IO failure.
  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << to_string();
    return static_cast<bool>(out);
  }

 private:
  static std::string escaped(const std::string& text) {
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
      if (c == '"' || c == '\\') {
        out.push_back('\\');
        out.push_back(c);
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Stamps a report with the trajectory header every BENCH_*.json carries:
/// schema version, bench name, commit, and the machine fields bench_diff
/// uses to warn when two reports came from different hardware or build
/// flavors. Call first so the header leads the artifact.
inline void add_header(JsonReport& report, const std::string& bench_name) {
  report.add("schema", kBenchSchema);
  report.add_string("bench", bench_name);
  report.add_string("git_sha", git_sha());
  report.add("machine_cores",
             static_cast<int>(std::thread::hardware_concurrency()));
#if defined(NDEBUG)
  report.add_string("build_type", "release");
#else
  report.add_string("build_type", "debug");
#endif
#if defined(__VERSION__)
  report.add_string("compiler", __VERSION__);
#else
  report.add_string("compiler", "unknown");
#endif
}

/// Embeds the profiler's flat per-phase summary under "profile" — the
/// deterministic counters bench_diff gates exactly (never wall time).
inline void add_profile(JsonReport& report, const obs::Profiler& profiler) {
  if (!profiler.empty()) report.add_raw("profile", profiler.summary_json());
}

/// Parses `--<name> <value>` from argv; empty string when absent.
inline std::string arg_value(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return {};
}

/// True when `flag` (e.g. "--quick") appears in argv.
inline bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

/// The observability CLI every bench/example binary shares:
///   --quick            reduced problem sizes (bench-specific meaning)
///   --json <path>      machine-readable BENCH_*.json report
///   --trace <path>     Perfetto/Chrome trace of the run
///   --profile <path>   attribution profile: JSON report at <path>, a
///                      flamegraph-ready collapsed stack beside it, and a
///                      top-N table on stdout
///   --metrics <path>   final metrics snapshot in Prometheus exposition
///                      format (binaries with a metrics registry)
///   --lineage <path>   per-chunk delivery lineage dump plus the
///                      critical-path blame table ("<path>.blame.json";
///                      binaries that thread an obs::LineageSink)
///   --profile-wall     also record wall time per phase (off by default so
///                      --profile artifacts stay byte-identical per build)
/// Binaries parse once up front and thread `cli.profiler()` into their
/// configs; a null return keeps every hook on its disabled branch.
///
/// Parsing is strict: an unknown `--` flag, or a valued flag missing its
/// value, prints a usage line and exits 2 — a typo such as `--jsn` must not
/// run the bench and silently write nothing. Positional arguments pass
/// through. Binaries with flags of their own declare them: `switches` take
/// no value, `options` take one (the binary still reads them itself).
struct CommonCli {
  bool quick = false;
  std::string json;
  std::string trace;
  std::string profile;
  std::string metrics;
  std::string lineage;
  obs::Profiler prof;

  // The profiler member makes this non-copyable; parse in place.
  CommonCli(int argc, char** argv, const std::vector<std::string>& switches = {},
            const std::vector<std::string>& options = {})
      : prof(obs::ProfilerConfig{has_flag(argc, argv, "--profile-wall")}) {
    const std::pair<const char*, std::string*> valued[] = {
        {"--json", &json},       {"--trace", &trace},
        {"--profile", &profile}, {"--metrics", &metrics},
        {"--lineage", &lineage}};
    const auto declared = [](const std::vector<std::string>& names,
                             const std::string& arg) {
      return std::find(names.begin(), names.end(), arg) != names.end();
    };
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) continue;  // positional
      if (arg == "--quick") {
        quick = true;
        continue;
      }
      if (arg == "--profile-wall" || declared(switches, arg)) continue;
      std::string* field = nullptr;
      for (const auto& [name, target] : valued) {
        if (arg == name) field = target;
      }
      if (field == nullptr && !declared(options, arg)) {
        usage_exit(argv[0], "unknown flag " + arg, switches, options);
      }
      if (i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
        usage_exit(argv[0], arg + " needs a value", switches, options);
      }
      ++i;
      if (field != nullptr) *field = argv[i];
    }
  }

  [[noreturn]] static void usage_exit(const char* program,
                                      const std::string& error,
                                      const std::vector<std::string>& switches,
                                      const std::vector<std::string>& options) {
    std::cerr << program << ": " << error << "\nusage: " << program
              << " [--quick] [--json P] [--trace P] [--profile P]"
                 " [--profile-wall] [--metrics P] [--lineage P]";
    for (const std::string& name : switches) std::cerr << " [" << name << "]";
    for (const std::string& name : options) std::cerr << " [" << name << " V]";
    std::cerr << "\n";
    std::exit(2);
  }

  /// The profiler to thread into configs; null when --profile is absent so
  /// disabled runs pay nothing but the null checks.
  [[nodiscard]] obs::Profiler* profiler() {
    return profile.empty() ? nullptr : &prof;
  }

  /// Writes the --profile artifacts (JSON + "<path>.collapsed") and prints
  /// the attribution table. No-op without --profile. Returns false on IO
  /// failure.
  bool write_profile() {
    if (profile.empty()) return true;
    bool ok = prof.write_json(profile);
    ok = prof.write_collapsed(collapsed_path()) && ok;
    std::cout << prof.attribution_table();
    if (!ok) std::cerr << "failed to write profile to " << profile << "\n";
    return ok;
  }

  /// "<profile>.collapsed", with a ".json" suffix swapped out first.
  [[nodiscard]] std::string collapsed_path() const {
    std::string base = profile;
    const std::string suffix = ".json";
    if (base.size() > suffix.size() &&
        base.compare(base.size() - suffix.size(), suffix.size(), suffix) == 0) {
      base.resize(base.size() - suffix.size());
    }
    return base + ".collapsed";
  }
};

/// Wrap-up for binaries without a bespoke report: writes the minimal
/// BENCH_*.json (header + status + profile) when --json was given, emits
/// the --profile artifacts, and folds IO failures into the exit code.
inline int finish(CommonCli& cli, const std::string& name, bool ok) {
  if (!cli.json.empty()) {
    JsonReport json;
    add_header(json, name);
    json.add_string("status", ok ? "ok" : "warn");
    add_profile(json, cli.prof);
    if (json.write(cli.json)) {
      std::cout << "json written to " << cli.json << "\n";
    } else {
      std::cout << "[WARN] could not write " << cli.json << "\n";
      ok = false;
    }
  }
  if (!cli.write_profile()) ok = false;
  return ok ? 0 : 1;
}

/// CI regression-gate self-test hook: sleeps BMP_PERF_SELFTEST_SLEEP_US
/// microseconds (default none) inside one bench phase, so the perf-gate
/// job can inject a deliberate slowdown and assert that tools/bench_diff
/// catches it. Never set outside that self-test.
inline void selftest_sleep() {
  static const int us = env_int("BMP_PERF_SELFTEST_SLEEP_US", 0);
  if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
}

}  // namespace bmp::benchutil
