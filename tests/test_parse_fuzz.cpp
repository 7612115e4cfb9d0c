// Parser mutation fuzz: seeded byte flips, truncations and insertions over
// valid serializations, fed to every text loader the CLIs expose —
// obs::parse_rollup_json (obs_query), obs::parse_lineage_json followed by
// analyze_critical_path (lineage_report), and net::parse_platform_string /
// net::parse_scheme_string (bmp_plan). Each mutated input must be rejected
// (false or std::invalid_argument) or load into a value that re-serializes;
// any other exception, crash or sanitizer report fails the suite. The seeds
// are fixed, so a failure replays exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "bmp/core/acyclic_search.hpp"
#include "bmp/net/instance_io.hpp"
#include "bmp/obs/lineage.hpp"
#include "bmp/obs/rollup.hpp"
#include "bmp/util/rng.hpp"
#include "test_helpers.hpp"

namespace bmp {
namespace {

constexpr int kMutantsPerCorpus = 3000;

// Fragments that hit number and structure edge cases more often than random
// bytes do.
const char* const kSnippets[] = {
    "-",    "0",   "-1",  "1e400", "nan", "inf",  "\"",  "\\",   "{",
    "}",    "[",   "]",   ",",     ":",   "#",    "\n",  " ",    "e",
    ".",    "99999999999999999999", "18446744073709551616", "2147483648",
    "null", "true", "\"\":", "0x1p3",
};

/// Applies 1-4 random edits: a byte overwrite, a truncation, or an
/// insertion of a random byte or an edge-case fragment.
std::string mutate(const std::string& text, util::Xoshiro256& rng) {
  std::string out = text;
  const int edits = 1 + static_cast<int>(rng.below(4));
  for (int e = 0; e < edits; ++e) {
    const std::size_t at = out.empty() ? 0 : rng.below(out.size() + 1);
    switch (rng.below(4)) {
      case 0:  // flip
        if (at < out.size()) out[at] = static_cast<char>(rng.below(256));
        break;
      case 1:  // truncate
        out.resize(at);
        break;
      case 2:  // insert a byte
        out.insert(at, 1, static_cast<char>(rng.below(256)));
        break;
      default: {  // insert a fragment
        const std::size_t pick =
            rng.below(sizeof(kSnippets) / sizeof(kSnippets[0]));
        out.insert(at, kSnippets[pick]);
        break;
      }
    }
  }
  return out;
}

/// Runs `load` on kMutantsPerCorpus mutants of each corpus entry. `load`
/// returns normally (rejected or re-serialized) or throws; only
/// std::invalid_argument counts as a rejection.
template <class Load>
void fuzz(const std::vector<std::string>& corpus, std::uint64_t seed,
          Load load) {
  util::Xoshiro256 rng(seed);
  int loaded = 0;
  for (const std::string& valid : corpus) {
    ASSERT_TRUE(load(valid)) << "the unmutated corpus must load";
    for (int k = 0; k < kMutantsPerCorpus; ++k) {
      const std::string input = mutate(valid, rng);
      try {
        if (load(input)) ++loaded;
      } catch (const std::invalid_argument&) {
      } catch (const std::exception& error) {
        ADD_FAILURE() << "unexpected " << error.what() << " on input:\n"
                      << input;
        return;
      }
    }
  }
  // Some mutants (a flipped digit, a truncated comment) are still valid;
  // the fixed-point checks above must have run on them.
  EXPECT_GT(loaded, 0);
}

std::string rollup_corpus() {
  obs::ShardRegistry reg;
  const auto delivered = reg.counter("dataplane.delivered");
  const auto alive = reg.gauge("population.alive", obs::GaugeReduction::kSum);
  const auto worst = reg.gauge("slo.worst", obs::GaugeReduction::kMin);
  const auto latency = reg.sketch("latency", obs::SketchConfig{0.01, 1e-9});
  const auto hot = reg.topk("hot.edge_retransmits", 4);
  reg.inc(delivered, 4242);
  reg.set(alive, 500.0);
  reg.set(worst, 0.875);
  for (int k = 1; k <= 40; ++k) reg.observe(latency, 0.01 * k * k);
  for (int k = 0; k < 9; ++k) {
    reg.offer(hot, "edge:" + std::to_string(k) + "->" + std::to_string(k + 1),
              static_cast<std::uint64_t>(10 + 3 * k));
  }
  return reg.snapshot().to_json();
}

TEST(ParseFuzz, RollupJsonRejectsOrRoundTrips) {
  fuzz({rollup_corpus()}, 0x5EED0001, [](const std::string& text) {
    obs::RollupSnapshot snap;
    if (!obs::parse_rollup_json(text, snap)) return false;
    // A loaded snapshot re-serializes to a fixed point.
    const std::string once = snap.to_json();
    obs::RollupSnapshot again;
    EXPECT_TRUE(obs::parse_rollup_json(once, again)) << text;
    EXPECT_EQ(again.to_json(), once) << text;
    return true;
  });
}

std::string lineage_corpus() {
  obs::LineageSink sink;
  sink.record_emit(0, 0, 0, 0.0);
  sink.record_emit(0, 0, 1, 0.5);
  const auto hop = [](int chunk, int from, int to, double start,
                      double finish, int retransmits) {
    obs::HopRecord record;
    record.chunk = chunk;
    record.from = from;
    record.to = to;
    record.start = start;
    record.finish = finish;
    record.retransmits = retransmits;
    record.loss_time = retransmits > 0 ? 0.1 : 0.0;
    return record;
  };
  sink.record(hop(0, 0, 1, 0.1, 0.6, 0));
  sink.record(hop(0, 1, 2, 0.7, 1.4, 1));
  sink.record(hop(1, 0, 2, 0.6, 1.1, 0));
  sink.record(hop(1, 2, 1, 1.2, 1.9, 0));
  return sink.to_json();
}

TEST(ParseFuzz, LineageJsonRejectsOrAnalyzes) {
  fuzz({lineage_corpus()}, 0x5EED0002, [](const std::string& text) {
    std::vector<obs::HopRecord> hops;
    std::uint64_t dropped = 0;
    std::uint64_t sampled_out = 0;
    std::uint32_t sample_mod = 1;
    if (!obs::parse_lineage_json(text, hops, dropped, sampled_out,
                                 sample_mod)) {
      return false;
    }
    // Whatever loaded, the analyzer renders a table from it.
    const obs::BlameTable table =
        obs::analyze_critical_path(hops, -1, 10, sample_mod);
    EXPECT_FALSE(table.to_json().empty());
    EXPECT_FALSE(table.to_text().empty());
    return true;
  });
}

TEST(ParseFuzz, PlatformTextRejectsOrRoundTrips) {
  const std::string labelled =
      "# platform\nsource 24\nopen 20 relay-a\nguarded 6 home # NAT\n"
      "open 12\n\nguarded 1.5\n";
  const std::string plain =
      net::serialize_platform(testing::fig1_instance());
  fuzz({labelled, plain}, 0x5EED0003, [](const std::string& text) {
    const net::PlatformFile file = net::parse_platform_string(text);
    const std::string once = net::serialize_platform(file.instance);
    EXPECT_EQ(net::serialize_platform(
                  net::parse_platform_string(once).instance),
              once)
        << text;
    return true;
  });
}

TEST(ParseFuzz, SchemeTextRejectsOrRoundTrips) {
  const Instance instance = testing::fig1_instance();
  const std::string valid =
      net::serialize_scheme(solve_acyclic(instance).scheme);
  const int nodes = instance.size();
  fuzz({valid}, 0x5EED0004, [nodes](const std::string& text) {
    const BroadcastScheme scheme = net::parse_scheme_string(text, nodes);
    const std::string once = net::serialize_scheme(scheme);
    EXPECT_EQ(net::serialize_scheme(net::parse_scheme_string(once, nodes)),
              once)
        << text;
    return true;
  });
}

}  // namespace
}  // namespace bmp
