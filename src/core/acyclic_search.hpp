// Optimal acyclic throughput with guarded nodes (Theorem 4.1): GreedyTest
// is exact and monotone in T (Lemma 4.5), so a dichotomic search over
// [0, Lemma-5.1-bound] converges to T*_ac; the witness word then yields the
// low-degree scheme of Lemma 4.6.
#pragma once

#include "bmp/core/greedy_test.hpp"
#include "bmp/core/instance.hpp"
#include "bmp/core/scheme.hpp"
#include "bmp/core/word.hpp"

namespace bmp {

/// T*_ac by bisection; at most `iters` halvings. The search stops early
/// once the bracket cannot shrink (adjacent doubles, ~54 halvings), so any
/// cap >= that returns the same bits as an unbounded search.
/// Also works for open-only instances (where it equals the closed form).
double optimal_acyclic_throughput(const Instance& instance,
                                  GreedyPolicy policy = GreedyPolicy::kPaper,
                                  int iters = 100);

struct AcyclicSolution {
  double throughput = 0.0;
  Word word;              ///< witness word from GreedyTest at `throughput`.
  BroadcastScheme scheme; ///< low-degree scheme feeding every node at rate T.
};

/// Full §IV pipeline: dichotomic search + Lemma 4.6 scheme construction.
AcyclicSolution solve_acyclic(const Instance& instance, int iters = 100);

}  // namespace bmp
