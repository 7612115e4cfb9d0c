// Optimal acyclic throughput with guarded nodes (Theorem 4.1): GreedyTest
// is exact and monotone in T (Lemma 4.5), so a dichotomic search over
// [0, Lemma-5.1-bound] converges to T*_ac; the witness word then yields the
// low-degree scheme of Lemma 4.6.
//
// Bracket replay: the search walks the cold bisection's exact midpoint
// sequence from [0, cyclic_upper_bound], but answers it from a bracket of
// probed results — a pass at lo_b (its word kept) and a fail at hi_b. A
// midpoint <= lo_b is an implied pass, one >= hi_b an implied fail, and
// only midpoints strictly inside are probed. By monotonicity this returns
// the cold search's bits; the word is GreedyTest's at the final lo (re-
// probed once if a capped `iters` stops below lo_b).
//
// Extra probes feed the bracket under GreedyPolicy::kPaper only — the
// ablated policies carry no monotonicity guarantee, so for them the loop
// is the plain cold search:
//   - a gallop, then a bisection, over the all-pass prefix: the cold lo
//     after j straight passes, hi0 (1 - 2^-j) up to rounding;
//   - once two passing probes in a row return the same word w, one pair
//     at e (1 -+ 2^-49), e = closed form of w + tie tolerance / k (k the
//     binding term's denominator). Speculation stops after a confirmed
//     pair (pass below, fail above).
// On churn-like platforms this cuts ~54 probes per solve to ~15.
#pragma once

#include "bmp/core/greedy_test.hpp"
#include "bmp/core/instance.hpp"
#include "bmp/core/scheme.hpp"
#include "bmp/core/word.hpp"

namespace bmp {

/// T*_ac by bisection; at most `iters` halvings. The search stops early
/// once lo and hi cannot shrink (adjacent doubles, ~54 halvings), so any
/// cap >= that returns the same bits as an unbounded search.
/// Also works for open-only instances (where it equals the closed form).
double optimal_acyclic_throughput(const Instance& instance,
                                  GreedyPolicy policy = GreedyPolicy::kPaper,
                                  int iters = 100);

struct AcyclicSolution {
  double throughput = 0.0;
  Word word;              ///< witness word from GreedyTest at `throughput`.
  BroadcastScheme scheme; ///< low-degree scheme feeding every node at rate T.
  int probes = 0;         ///< GreedyTest calls the search made.
};

/// Full §IV pipeline: dichotomic search + Lemma 4.6 scheme construction.
AcyclicSolution solve_acyclic(const Instance& instance, int iters = 100);

}  // namespace bmp
