#include "core/balanced_tree.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/aggregation_tree.h"
#include "core/workload.h"
#include "tests/core/test_util.h"

namespace tagg {
namespace {

TEST(BalancedTreeTest, EmptyInput) {
  BalancedTreeAggregator<CountOp> agg;
  auto out = agg.FinishTyped();
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0], (TypedInterval<int64_t>{kOrigin, kForever, 0}));
}

TEST(BalancedTreeTest, DomainTreePartitionsItsDomain) {
  // A tree over [10, 40] emits exactly that range, and a period covering
  // the whole domain lands on the root in one step.
  BalancedTreeAggregator<CountOp> agg(10, 40);
  ASSERT_TRUE(agg.Add(Period(15, 20), 0).ok());
  ASSERT_TRUE(agg.FinishTyped().ok());
  const size_t steps = agg.stats().work_steps;
  ASSERT_TRUE(agg.Add(Period(10, 40), 0).ok());
  ASSERT_TRUE(agg.Validate().ok());
  auto out = agg.FinishTyped();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(agg.stats().work_steps, steps + 1);
  ASSERT_EQ(out->size(), 3u);
  EXPECT_EQ((*out)[0], (TypedInterval<int64_t>{10, 14, 1}));
  EXPECT_EQ((*out)[1], (TypedInterval<int64_t>{15, 20, 2}));
  EXPECT_EQ((*out)[2], (TypedInterval<int64_t>{21, 40, 1}));
  EXPECT_TRUE(agg.Add(Period(5, 12), 0).IsInvalidArgument());
  EXPECT_TRUE(agg.Add(Period(35, 41), 0).IsInvalidArgument());
}

TEST(BalancedTreeTest, EmployedCountsMatchKnownResult) {
  Relation employed = MakeFigure1EmployedRelation();
  AggregateOptions options;
  options.algorithm = AlgorithmKind::kBalancedTree;
  auto series = ComputeTemporalAggregate(employed, options);
  ASSERT_TRUE(series.ok());
  ASSERT_EQ(series->intervals.size(), 7u);
  EXPECT_EQ(series->intervals[2],
            (ResultInterval{Period(8, 12), Value::Int(2)}));
  testutil::ExpectValidPartition(*series);
}

TEST(BalancedTreeTest, SortedInputStaysLogarithmic) {
  // The whole point of the Section 7 proposal: sorted input must NOT
  // degenerate into a linear spine.
  BalancedTreeAggregator<CountOp> agg;
  const int n = 4096;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(agg.Add(Period(i * 10, i * 10 + 5), 0).ok());
  }
  ASSERT_TRUE(agg.Validate().ok());
  // ~2n+1 leaves; AVL height <= 1.44 log2(nodes) + small slack.
  const double limit = 1.45 * std::log2(4.0 * n + 2) + 3;
  EXPECT_LE(agg.height(), static_cast<int>(limit));
}

TEST(BalancedTreeTest, ValidateHoldsThroughRandomInserts) {
  WorkloadSpec spec;
  spec.num_tuples = 500;
  spec.lifespan = 20000;
  spec.long_lived_fraction = 0.4;
  spec.seed = 77;
  auto relation = GenerateEmployedRelation(spec);
  ASSERT_TRUE(relation.ok());
  BalancedTreeAggregator<CountOp> agg;
  size_t i = 0;
  for (const Tuple& t : *relation) {
    ASSERT_TRUE(agg.Add(t.valid(), 0).ok());
    if (++i % 100 == 0) {
      ASSERT_TRUE(agg.Validate().ok()) << "after " << i << " inserts";
    }
  }
  ASSERT_TRUE(agg.Validate().ok());
}

TEST(BalancedTreeTest, MatchesReferenceAcrossOrdersAndAggregates) {
  for (TupleOrder order :
       {TupleOrder::kRandom, TupleOrder::kSorted, TupleOrder::kKOrdered}) {
    WorkloadSpec spec;
    spec.num_tuples = 250;
    spec.lifespan = 30000;
    spec.long_lived_fraction = 0.4;
    spec.order = order;
    spec.k = 4;
    spec.k_percentage = 0.1;
    spec.seed = 31 + static_cast<uint64_t>(order);
    auto relation = GenerateEmployedRelation(spec);
    ASSERT_TRUE(relation.ok());
    for (AggregateKind agg :
         {AggregateKind::kCount, AggregateKind::kSum, AggregateKind::kMin,
          AggregateKind::kMax, AggregateKind::kAvg}) {
      testutil::ExpectMatchesReference(*relation, agg,
                                       AlgorithmKind::kBalancedTree);
    }
  }
}

TEST(BalancedTreeTest, RotationsPreserveStatesUnderFullOverlaps) {
  // Long tuples that completely overlap internal nodes exercise the
  // push-down logic in rotations.
  BalancedTreeAggregator<CountOp> agg;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(agg.Add(Period(i * 100, i * 100 + 10), 0).ok());
    ASSERT_TRUE(agg.Add(Period(0, i * 100 + 500), 0).ok());
  }
  ASSERT_TRUE(agg.Validate().ok());
  auto out = agg.FinishTyped();
  ASSERT_TRUE(out.ok());
  // Compare against the unbalanced tree on the same stream.
  AggregationTreeAggregator<CountOp> plain;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(plain.Add(Period(i * 100, i * 100 + 10), 0).ok());
    ASSERT_TRUE(plain.Add(Period(0, i * 100 + 500), 0).ok());
  }
  auto want = plain.FinishTyped();
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(*out, *want);
}

TEST(BalancedTreeTest, StatsReportNodes) {
  BalancedTreeAggregator<CountOp> agg;
  ASSERT_TRUE(agg.Add(Period(10, 19), 0).ok());
  ASSERT_TRUE(agg.FinishTyped().ok());
  EXPECT_EQ(agg.stats().relation_scans, 1u);
  EXPECT_EQ(agg.stats().intervals_emitted, 3u);
  EXPECT_EQ(agg.stats().peak_live_nodes, 5u);  // 3 leaves + 2 internal
}

}  // namespace
}  // namespace tagg
