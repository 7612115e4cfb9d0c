// Optimal acyclic throughput for a FIXED coding word, T*_ac(π).
//
// From the validity conditions (appendix IX-C) and the closed form of W(π)
// (Lemma 4.4), the feasible throughputs of a word form an interval [0, T*]
// whose endpoint is a minimum of linear-fractional expressions:
//
//   before an O letter (i opens, j guardeds placed, sums osum/gsum incl b0):
//       T <= (osum + gsum) / (i + j + 1)
//   before a G letter, for W(π)'s max over breakpoints (x opens placed up
//   to an earlier O letter, gs = guarded sum before it):
//       T <= osum / (j + 1)                       (W = 0 branch)
//       T <= (osum + gs) / (j + 1 + x)            (per breakpoint)
//
// word_throughput_exact evaluates the minimum exactly over rationals in
// O(L^2); word_throughput bisects check_word (O(L log(1/eps))) — used for
// the ω1/ω2 series of Fig. 19 at n = 1000.
#pragma once

#include "bmp/core/instance.hpp"
#include "bmp/core/word.hpp"
#include "bmp/util/rational.hpp"

namespace bmp {

/// Exact T*_ac(π). Empty words return b0 by convention.
util::Rational word_throughput_exact(const RationalInstance& instance,
                                     const Word& word);

/// Same closed-form evaluation in doubles (O(L^2)); exact up to roundoff.
/// If `binding_denominator` is non-null it receives the denominator of the
/// binding (minimal) term — the coefficient of T in the constraint that
/// fixes T*_ac(π), so a slack s on that constraint moves T*_ac(π) by s/k.
double word_throughput_closed_form(const Instance& instance, const Word& word,
                                   int* binding_denominator = nullptr);

/// Bisection on check_word; at most `iters` halvings starting from the
/// Lemma 5.1 upper bound. The search stops early once the bracket cannot
/// shrink (adjacent doubles, ~54 halvings), so any cap >= that returns the
/// same bits as an unbounded search. Returns a feasible lower estimate
/// within one ulp-scale step of T*_ac(π).
double word_throughput(const Instance& instance, const Word& word, int iters = 100);

}  // namespace bmp
