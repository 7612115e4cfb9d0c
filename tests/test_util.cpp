// Unit tests for the util substrate: exact rationals, statistics, RNG
// determinism, thread pool, and table rendering.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <random>
#include <sstream>
#include <vector>

#include "bmp/util/rational.hpp"
#include "bmp/util/rng.hpp"
#include "bmp/util/stats.hpp"
#include "bmp/util/table.hpp"
#include "bmp/util/thread_pool.hpp"

namespace bmp::util {
namespace {

TEST(Rational, NormalizesOnConstruction) {
  const Rational r(6, 8);
  EXPECT_EQ(r.num(), 3);
  EXPECT_EQ(r.den(), 4);
  const Rational negative(3, -9);
  EXPECT_EQ(negative.num(), -1);
  EXPECT_EQ(negative.den(), 3);
}

TEST(Rational, ZeroDenominatorThrows) {
  EXPECT_THROW(Rational(1, 0), std::domain_error);
}

TEST(Rational, Arithmetic) {
  const Rational a(1, 2);
  const Rational b(1, 3);
  EXPECT_EQ(a + b, Rational(5, 6));
  EXPECT_EQ(a - b, Rational(1, 6));
  EXPECT_EQ(a * b, Rational(1, 6));
  EXPECT_EQ(a / b, Rational(3, 2));
  EXPECT_EQ(-a, Rational(-1, 2));
}

TEST(Rational, ComparisonIsExact) {
  EXPECT_LT(Rational(5, 7), Rational(714286, 1000000));
  EXPECT_GT(Rational(5, 7), Rational(714285, 1000000));
  EXPECT_EQ(Rational(10, 14), Rational(5, 7));
}

TEST(Rational, DivisionByZeroThrows) {
  EXPECT_THROW(Rational(1, 2) / Rational(0), std::domain_error);
}

TEST(Rational, ToDoubleAndStr) {
  EXPECT_DOUBLE_EQ(Rational(1, 4).to_double(), 0.25);
  EXPECT_EQ(Rational(22, 5).str(), "22/5");
  EXPECT_EQ(Rational(8, 4).str(), "2");
}

TEST(Rational, LargeIntermediatesReduce) {
  // (a/b) * (b/a) = 1 even when a*b would overflow int64 without __int128.
  const Rational a(3037000499LL, 7);
  const Rational b(7, 3037000499LL);
  EXPECT_EQ(a * b, Rational(1));
}

TEST(Rational, OverflowThrows) {
  const Rational big(INT64_MAX / 2, 1);
  EXPECT_THROW(big * big, std::overflow_error);
}

TEST(Rational, MinMaxHelpers) {
  EXPECT_EQ(min(Rational(1, 2), Rational(1, 3)), Rational(1, 3));
  EXPECT_EQ(max(Rational(1, 2), Rational(1, 3)), Rational(1, 2));
}

TEST(RunningStats, MatchesBatch) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 10.0};
  RunningStats rs;
  for (const double x : xs) rs.add(x);
  EXPECT_DOUBLE_EQ(rs.mean(), mean(xs));
  EXPECT_NEAR(rs.stddev(), stddev(xs), 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), 1.0);
  EXPECT_DOUBLE_EQ(rs.max(), 10.0);
  EXPECT_EQ(rs.count(), 5u);
}

TEST(Stats, QuantileType7) {
  const std::vector<double> xs{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 1.75);
}

TEST(Stats, QuantileValidation) {
  EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(quantile({1.0}, 1.5), std::invalid_argument);
}

TEST(Stats, BoxStats) {
  std::vector<double> xs;
  for (int i = 1; i <= 101; ++i) xs.push_back(static_cast<double>(i));
  const BoxStats b = box_stats(xs);
  EXPECT_DOUBLE_EQ(b.median, 51.0);
  EXPECT_DOUBLE_EQ(b.q25, 26.0);
  EXPECT_DOUBLE_EQ(b.q75, 76.0);
  EXPECT_DOUBLE_EQ(b.min, 1.0);
  EXPECT_DOUBLE_EQ(b.max, 101.0);
  EXPECT_EQ(b.n, 101u);
  EXPECT_FALSE(to_string(b).empty());
}

TEST(Rng, DeterministicAcrossRuns) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, ForkIndependence) {
  const Xoshiro256 base(7);
  Xoshiro256 c1 = base.fork(1);
  Xoshiro256 c2 = base.fork(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (c1() == c2()) ? 1 : 0;
  EXPECT_LT(equal, 4);
}

TEST(Rng, UniformInRange) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, BelowIsUniformish) {
  Xoshiro256 rng(5);
  std::vector<int> buckets(10, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) ++buckets[rng.below(10)];
  for (const int count : buckets) {
    EXPECT_NEAR(count, draws / 10, draws / 100);
  }
}

TEST(Rng, WorksWithStdDistributions) {
  Xoshiro256 rng(11);
  std::normal_distribution<double> normal(0.0, 1.0);
  RunningStats rs;
  for (int i = 0; i < 20000; ++i) rs.add(normal(rng));
  EXPECT_NEAR(rs.mean(), 0.0, 0.05);
  EXPECT_NEAR(rs.stddev(), 1.0, 0.05);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, 0, 1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelSumMatchesSerial) {
  ThreadPool pool(3);
  std::atomic<long long> sum{0};
  parallel_for(pool, 1, 10001, [&](std::size_t i) {
    sum.fetch_add(static_cast<long long>(i));
  });
  EXPECT_EQ(sum.load(), 10001LL * 10000 / 2);
}

TEST(ThreadPool, WorkersStartWithTheFirstSubmit) {
  // size() (parallel_for's chunking input) is the configured count from
  // construction on; a pool that never gets work waits and tears down
  // without ever starting a thread.
  {
    ThreadPool idle(3);
    EXPECT_EQ(idle.size(), 3u);
    idle.wait_idle();
  }
  EXPECT_GE(ThreadPool(0).size(), 1u);
  ThreadPool pool(3);
  std::atomic<int> count{0};
  parallel_for(pool, 0, 30, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 30);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  parallel_for(pool, 5, 5, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, TaskExceptionRethrownInWaitIdle) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The exception is consumed: the pool is reusable afterwards.
  std::atomic<int> count{0};
  pool.submit([&] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  ThreadPool pool(4);
  std::atomic<int> executed{0};
  EXPECT_THROW(
      parallel_for(
          pool, 0, 100,
          [&](std::size_t i) {
            executed.fetch_add(1);
            if (i == 13) throw std::invalid_argument("bad cell");
          },
          /*chunk=*/1),
      std::invalid_argument);
  // All other tasks still ran: one failure does not abandon the batch.
  EXPECT_EQ(executed.load(), 100);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(2);
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> count{0};
    parallel_for(pool, 0, 100, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 100);
  }
}

TEST(Table, RendersAlignedAndCsv) {
  Table t({"name", "value"});
  t.add_row({"alpha", Table::num(1.5, 2)});
  t.add_row({"b", Table::num(42)});
  std::ostringstream os;
  t.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("1.50"), std::string::npos);
  EXPECT_EQ(t.to_csv(), "name,value\nalpha,1.50\nb,42\n");
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.add_row({"x"});
  EXPECT_EQ(t.to_csv(), "a,b,c\nx,,\n");
}

}  // namespace
}  // namespace bmp::util
