// Seeded differential fuzzing: every algorithm/configuration must describe
// the same step function (tests the harness itself, too).
//
// The seed budget scales with the environment: TAGG_FUZZ_SEEDS=500 (as the
// CI smoke step sets) runs 500 seeded workloads; the default keeps local
// `ctest` runs quick.  On divergence the assertion message contains the
// reproducing seed — replay it with RunDifferentialSeed(seed) under a
// debugger.

#include "testing/differential.h"

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "gtest/gtest.h"

namespace tagg {
namespace testing {
namespace {

size_t SeedBudget(size_t fallback) {
  const char* env = std::getenv("TAGG_FUZZ_SEEDS");
  if (env == nullptr) return fallback;
  const long parsed = std::atol(env);
  return parsed > 0 ? static_cast<size_t>(parsed) : fallback;
}

TEST(DifferentialFuzzTest, SeededWorkloadsAgreeAcrossAllConfigurations) {
  const size_t seeds = SeedBudget(60);
  const Result<DifferentialSummary> summary = RunDifferentialRange(1, seeds);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->seeds_run, seeds);
  // Every seed walks the whole grid, so a configuration dropping out of
  // it lowers the fewest comparisons any seed made.  Per aggregate:
  //   6 batch series (aggregation tree, linked list, balanced tree,
  //     two-scan, k-ordered presorted and k = n),
  //   8 partitioned configurations,
  //   4 column-scan configurations,
  //   2 live-index loads x (series, aggregation-tree equality, timeslice),
  //   4 sharded configurations x (series, timeslice);
  // and for the exact aggregates (COUNT, MIN, MAX) one more identity check
  // per column-scan and per sharded configuration.  The two windowed
  // column scans run only for aggregates whose reference has >= 4
  // intervals; seed 1 runs them for all five, so the busiest seed makes
  // exactly the whole grid's comparisons.
  constexpr size_t kPerAggregate = 6 + 8 + 4 + 2 * 3 + 4 * 2;
  constexpr size_t kPerExactAggregate = 4 + 4;
  constexpr size_t kPerSeed = 5 * kPerAggregate + 3 * kPerExactAggregate;
  constexpr size_t kWindowedPerSeed = 5 * 2;
  EXPECT_GE(summary->min_seed_comparisons, kPerSeed);
  EXPECT_EQ(summary->max_seed_comparisons, kPerSeed + kWindowedPerSeed);
  std::fprintf(stderr, "[differential] %zu seeds, %zu series comparisons\n",
               summary->seeds_run, summary->comparisons);
}

TEST(DifferentialFuzzTest, GeneratorIsDeterministic) {
  for (const uint64_t seed : {3ull, 17ull, 999ull, 123456789ull}) {
    WorkloadInfo info_a;
    WorkloadInfo info_b;
    const Result<Relation> a = GenerateDifferentialRelation(seed, &info_a);
    const Result<Relation> b = GenerateDifferentialRelation(seed, &info_b);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(info_a.shape, info_b.shape);
    ASSERT_EQ(a->size(), b->size());
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ(a->tuple(i), b->tuple(i)) << "seed " << seed << " tuple "
                                          << i;
    }
  }
}

TEST(DifferentialFuzzTest, GeneratorCoversEveryAdversarialShape) {
  std::set<std::string> shapes;
  for (uint64_t seed = 0; seed < 300; ++seed) {
    WorkloadInfo info;
    const Result<Relation> rel = GenerateDifferentialRelation(seed, &info);
    ASSERT_TRUE(rel.ok()) << "seed " << seed << ": "
                          << rel.status().ToString();
    shapes.insert(info.shape);
  }
  for (const char* expected :
       {"empty", "single-tuple", "timeline-boundaries", "point-periods",
        "duplicate-starts", "adjacent-boundaries", "mixed-magnitude",
        "random-workload", "near-k-ordered", "mixed-shapes"}) {
    EXPECT_TRUE(shapes.count(expected) > 0)
        << "300 seeds never produced shape " << expected;
  }
}

// --- the comparison policy itself -----------------------------------------

std::vector<ResultInterval> Series(
    std::initializer_list<ResultInterval> intervals) {
  return std::vector<ResultInterval>(intervals);
}

TEST(ComparePolicyTest, CoalescingDifferencesAreNotDivergences) {
  const auto coalesced = Series({{Period(kOrigin, 10), Value::Int(1)},
                                 {Period(11, kForever), Value::Int(0)}});
  const auto split = Series({{Period(kOrigin, 5), Value::Int(1)},
                             {Period(6, 10), Value::Int(1)},
                             {Period(11, kForever), Value::Int(0)}});
  EXPECT_TRUE(
      CompareSeries(coalesced, split, AggregateKind::kCount).ok());
  EXPECT_TRUE(
      CompareSeries(split, coalesced, AggregateKind::kCount).ok());
}

TEST(ComparePolicyTest, CountIsComparedExactly) {
  const auto a = Series({{Period(kOrigin, kForever), Value::Int(2)}});
  const auto b = Series({{Period(kOrigin, kForever), Value::Int(3)}});
  const Status diff = CompareSeries(a, b, AggregateKind::kCount);
  EXPECT_FALSE(diff.ok());
  EXPECT_NE(diff.message().find("COUNT mismatch"), std::string::npos);
}

TEST(ComparePolicyTest, NullVersusZeroIsABugNotRounding) {
  const auto null_side =
      Series({{Period(kOrigin, kForever), Value::Null()}});
  const auto zero_side =
      Series({{Period(kOrigin, kForever), Value::Double(0.0)}});
  const Status diff =
      CompareSeries(null_side, zero_side, AggregateKind::kSum);
  EXPECT_FALSE(diff.ok());
  EXPECT_NE(diff.message().find("empty-interval mismatch"),
            std::string::npos);
}

TEST(ComparePolicyTest, SumHonorsRelativeTolerance) {
  const auto a =
      Series({{Period(kOrigin, kForever), Value::Double(1e17)}});
  const auto within =
      Series({{Period(kOrigin, kForever), Value::Double(1e17 + 16.0)}});
  const auto beyond =
      Series({{Period(kOrigin, kForever), Value::Double(1.001e17)}});
  EXPECT_TRUE(CompareSeries(a, within, AggregateKind::kSum).ok());
  EXPECT_FALSE(CompareSeries(a, beyond, AggregateKind::kSum).ok());
}

TEST(ComparePolicyTest, MinMaxAreComparedExactly) {
  const auto a =
      Series({{Period(kOrigin, kForever), Value::Double(2.0)}});
  const auto b = Series(
      {{Period(kOrigin, kForever), Value::Double(2.0000000001)}});
  EXPECT_FALSE(CompareSeries(a, b, AggregateKind::kMax).ok());
  EXPECT_TRUE(CompareSeries(a, a, AggregateKind::kMax).ok());
}

TEST(ComparePolicyTest, RejectsNonPartitions) {
  const auto gap = Series({{Period(kOrigin, 10), Value::Int(0)},
                           {Period(12, kForever), Value::Int(0)}});
  const auto whole =
      Series({{Period(kOrigin, kForever), Value::Int(0)}});
  EXPECT_FALSE(CompareSeries(gap, whole, AggregateKind::kCount).ok());
  EXPECT_FALSE(CompareSeries(whole, gap, AggregateKind::kCount).ok());
}

// --- divergence reporting --------------------------------------------------

TEST(DifferentialFuzzTest, DivergenceMessagesNameTheReproducingSeed) {
  // A seed that generates a non-empty workload (shape coverage test above
  // proves these exist); the run must succeed, and the error plumbing is
  // exercised by CompareSeries policy tests.  Sanity-check the seed is
  // embedded by probing the helper's formatting through a forced failure:
  // an empty relation cannot diverge, so instead assert the happy path
  // reports comparisons for a specific seed.
  size_t comparisons = 0;
  const Status status = RunDifferentialSeed(42, DifferentialOptions{},
                                            &comparisons);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_GT(comparisons, 0u);
}

}  // namespace
}  // namespace testing
}  // namespace tagg
