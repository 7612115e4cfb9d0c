#include "bmp/core/acyclic_search.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bmp/core/bounds.hpp"
#include "bmp/core/word_schedule.hpp"
#include "bmp/core/word_throughput.hpp"

namespace bmp {

namespace {

struct SearchResult {
  double throughput;
  std::optional<Word> word;
  int probes;
};

/// First prefix length the gallop probes. T*_ac usually lies well inside
/// the last 2^-8 of the bound; if not, three more probes bisect [0, 8).
constexpr std::size_t kGallopStart = 8;

/// Relative half-width of the speculative pair around a word's estimated
/// GreedyTest threshold: 4 to 8 ulps each side.
constexpr double kSpeculationSpread = 0x1p-49;

/// GreedyTest answers of one search, kept as the tightest probed bracket:
/// a pass at `pass_at` (whose word is kept) and a fail at `fail_at`. Under
/// Lemma 4.5 every T <= pass_at passes and every T >= fail_at fails, so
/// only a T strictly inside is probed. The bisection only ever asks about
/// points strictly inside its own [lo, hi], which the bracket contains, so
/// without extra probes the bracket *is* [lo, hi] and decides nothing.
class Bracket {
 public:
  Bracket(const Instance& instance, GreedyPolicy policy, double tie_tol)
      : instance_(instance),
        policy_(policy),
        tie_tol_(tie_tol),
        speculate_(policy == GreedyPolicy::kPaper) {}

  /// Runs GreedyTest(0): the bisection's starting lo, passed or not.
  void probe_zero() {
    if (test(0.0)) {
      record_pass(0.0);
    } else if (policy_ == GreedyPolicy::kPaper) {
      fail_at_ = 0.0;  // monotone: nothing above 0 passes either
    }
  }

  /// GreedyTest(T) as decided by the bracket, probing only inside it.
  bool passes(double T) {
    if (has_pass_ && T <= pass_at_) return true;
    if (T >= fail_at_) return false;
    if (!test(T)) {
      fail_at_ = T;
      return false;
    }
    // The previous pass returned this word too. T = 0 does not count:
    // every word is valid there, so its word says nothing about T*_ac.
    const bool repeated = has_pass_ && pass_at_ > 0.0 && probe_ == word_;
    record_pass(T);
    if (repeated && speculate_) speculate();
    return true;
  }

  /// The word GreedyTest returns at `lo`, a point the bracket decided
  /// passes: the kept word if `lo` is the probed pass, else a re-probe
  /// (a capped search can end below the bracket).
  std::optional<Word> word_at(double lo) {
    if (!has_pass_) return std::nullopt;
    if (lo == pass_at_) return std::move(word_);
    if (!test(lo)) {
      throw std::logic_error("acyclic search: GreedyTest not monotone in T");
    }
    return std::move(probe_);
  }

  [[nodiscard]] int probes() const { return probes_; }

 private:
  bool test(double T) {
    ++probes_;
    return greedy_test_into(instance_, T, probe_, policy_, tie_tol_);
  }

  void record_pass(double T) {
    pass_at_ = T;
    has_pass_ = true;
    std::swap(word_, probe_);
  }

  /// Two passes in a row returned the same word: guess where
  /// GreedyTest stops accepting it — the word's closed form plus the tie
  /// tolerance's slack on its binding term — and probe just below and just
  /// above. A confirmed pair leaves only a few cold midpoints to probe;
  /// an unconfirmed one still tightens the bracket.
  void speculate() {
    int binding = 1;
    const double estimate =
        word_throughput_closed_form(instance_, word_, &binding) +
        tie_tol_ / binding;
    if (estimate == last_estimate_) return;
    last_estimate_ = estimate;
    speculate_ = false;  // the pair's own passes must not recurse
    const bool below = passes(estimate * (1.0 - kSpeculationSpread));
    const bool above = passes(estimate * (1.0 + kSpeculationSpread));
    speculate_ = !(below && !above);
  }

  const Instance& instance_;
  GreedyPolicy policy_;
  double tie_tol_;
  double pass_at_ = 0.0;
  double fail_at_ = std::numeric_limits<double>::infinity();
  bool has_pass_ = false;
  bool speculate_;
  double last_estimate_ = -1.0;
  Word word_;   ///< GreedyTest's word at pass_at_.
  Word probe_;  ///< the in-flight probe's word.
  int probes_ = 0;
};

SearchResult search(const Instance& instance, GreedyPolicy policy, int iters) {
  if (instance.n() + instance.m() == 0) {
    return {instance.b(0), Word{}, 0};
  }
  const double hi0 = cyclic_upper_bound(instance);
  // Allocation-free probing: the bracket reuses two Word buffers and the
  // tie tolerance is hoisted out of the loop — it is computed once at the
  // search's upper bound, which dominates every probe below it.
  const double tie_tol = greedy_tie_tolerance(instance, hi0);
  Bracket bracket(instance, policy, tie_tol);
  if (bracket.passes(hi0)) {
    return {hi0, bracket.word_at(hi0), bracket.probes()};
  }
  bracket.probe_zero();

  if (policy == GreedyPolicy::kPaper) {
    // The cold search's lo after j straight passes, for every j it can
    // reach. T*_ac usually sits just below hi0, so the search passes many
    // times in a row: find the last passing prefix point by galloping and
    // then bisecting over j instead of walking it one probe at a time.
    std::vector<double> prefix;
    for (double lo = 0.0; static_cast<int>(prefix.size()) < iters;) {
      const double mid = 0.5 * (lo + hi0);
      if (mid == lo || mid == hi0) break;
      prefix.push_back(mid);
      lo = mid;
    }
    std::size_t good = 0;  // prefix[good - 1] passes (0: none known)
    std::size_t bad = prefix.size() + 1;
    for (std::size_t j = std::min(kGallopStart, prefix.size());
         j != 0 && j <= prefix.size(); j *= 2) {
      if (!bracket.passes(prefix[j - 1])) {
        bad = j;
        break;
      }
      good = j;
    }
    while (bad - good > 1) {
      const std::size_t j = good + (bad - good) / 2;
      (bracket.passes(prefix[j - 1]) ? good : bad) = j;
    }
  }

  // The cold bisection's midpoint sequence, answered by the bracket.
  double lo = 0.0;
  double hi = hi0;
  for (int k = 0; k < iters; ++k) {
    const double mid = 0.5 * (lo + hi);
    // Fixed point: lo and hi are adjacent doubles (or equal), so mid
    // repeats a probe already made. GreedyTest is deterministic, so every
    // later iteration would leave lo unchanged.
    if (mid == lo || mid == hi) break;
    (bracket.passes(mid) ? lo : hi) = mid;
  }
  std::optional<Word> word = bracket.word_at(lo);
  return {lo, std::move(word), bracket.probes()};
}

}  // namespace

double optimal_acyclic_throughput(const Instance& instance, GreedyPolicy policy,
                                  int iters) {
  return search(instance, policy, iters).throughput;
}

AcyclicSolution solve_acyclic(const Instance& instance, int iters) {
  SearchResult found = search(instance, GreedyPolicy::kPaper, iters);
  if (!found.word.has_value()) {
    throw std::logic_error("solve_acyclic: even T=0 rejected (empty instance?)");
  }
  WordSchedule ws =
      build_scheme_from_word(instance, *found.word, found.throughput);
  return {found.throughput, std::move(*found.word), std::move(ws.scheme),
          found.probes};
}

}  // namespace bmp
