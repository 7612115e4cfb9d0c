#include "bmp/core/word_throughput.hpp"

#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bmp/core/bounds.hpp"

namespace bmp {

namespace {

/// Shared closed-form evaluation; Num is double or util::Rational.
/// `binding`, when set, receives the denominator of the minimal term.
template <typename Num>
Num closed_form(const BasicInstance<Num>& instance, const Word& word,
                int* binding = nullptr) {
  if (count_open(word) != instance.n() || count_guarded(word) != instance.m()) {
    throw std::invalid_argument("word_throughput: letter counts mismatch");
  }
  if (word.empty()) return instance.b(0);

  bool has_bound = false;
  Num best{};
  const auto consider = [&](const Num& cand, int denominator) {
    if (!has_bound || cand < best) {
      best = cand;
      has_bound = true;
      if (binding != nullptr) *binding = denominator;
    }
  };

  // osum includes b0; gsum is the guarded bandwidth placed so far.
  Num osum = instance.b(0);
  Num gsum(0);
  int opens = 0;
  int guardeds = 0;
  // Breakpoints of W(π): (x = opens including that O letter, gs at the time).
  std::vector<std::pair<int, Num>> breakpoints;

  for (const Letter letter : word) {
    if (letter == Letter::kOpen) {
      consider((osum + gsum) / Num(opens + guardeds + 1), opens + guardeds + 1);
      breakpoints.emplace_back(opens + 1, gsum);
      ++opens;
      osum = osum + instance.b(opens);
    } else {
      consider(osum / Num(guardeds + 1), guardeds + 1);
      for (const auto& [x, gs] : breakpoints) {
        consider((osum + gs) / Num(guardeds + 1 + x), guardeds + 1 + x);
      }
      ++guardeds;
      gsum = gsum + instance.b(instance.n() + guardeds);
    }
  }
  return best;
}

}  // namespace

util::Rational word_throughput_exact(const RationalInstance& instance,
                                     const Word& word) {
  return closed_form<util::Rational>(instance, word);
}

double word_throughput_closed_form(const Instance& instance, const Word& word,
                                   int* binding_denominator) {
  return closed_form<double>(instance, word, binding_denominator);
}

double word_throughput(const Instance& instance, const Word& word, int iters) {
  if (word.empty()) return instance.b(0);
  double hi = cyclic_upper_bound(instance);
  if (check_word(instance, word, hi)) return hi;
  double lo = 0.0;
  for (int k = 0; k < iters; ++k) {
    const double mid = 0.5 * (lo + hi);
    // Fixed point: lo and hi are adjacent doubles (or equal), so every
    // later iteration would repeat this probe and leave lo unchanged.
    if (mid == lo || mid == hi) break;
    if (check_word(instance, word, mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace bmp
