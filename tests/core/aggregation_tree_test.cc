#include "core/aggregation_tree.h"

#include <gtest/gtest.h>

#include "core/workload.h"
#include "tests/core/test_util.h"

namespace tagg {
namespace {

using Tree = internal::SplitTree<CountOp>;

TEST(SplitTreeTest, InitialTreeIsSingleLeaf) {
  Tree tree;
  EXPECT_TRUE(tree.root->IsLeaf());
  EXPECT_EQ(tree.CountLeaves(), 1u);
  EXPECT_EQ(tree.Depth(), 1u);
  EXPECT_TRUE(tree.Validate().ok());
}

// Figure 3.b: inserting [18, forever] splits the root once because the end
// coincides with the tree boundary.
TEST(SplitTreeTest, Figure3bFirstInsert) {
  Tree tree;
  tree.Add(18, kForever, 0);
  ASSERT_FALSE(tree.root->IsLeaf());
  EXPECT_EQ(tree.root->split, 17);
  EXPECT_TRUE(tree.root->left->IsLeaf());
  EXPECT_TRUE(tree.root->right->IsLeaf());
  EXPECT_EQ(tree.root->left->state, 0);
  EXPECT_EQ(tree.root->right->state, 1);
  EXPECT_EQ(tree.CountLeaves(), 2u);
  EXPECT_TRUE(tree.Validate().ok());
}

// Figure 3.c: inserting [8, 20] then splits [0,17] at 8 and [18,forever]
// at 20.
TEST(SplitTreeTest, Figure3cSecondInsert) {
  Tree tree;
  tree.Add(18, kForever, 0);
  tree.Add(8, 20, 0);
  EXPECT_EQ(tree.CountLeaves(), 4u);
  EXPECT_TRUE(tree.Validate().ok());
  // Left subtree of the root: [0,17] split at 7; [8,17] counted once.
  const auto* left = tree.root->left;
  ASSERT_FALSE(left->IsLeaf());
  EXPECT_EQ(left->split, 7);
  EXPECT_EQ(left->left->state, 0);   // [0,7]
  EXPECT_EQ(left->right->state, 1);  // [8,17]
  // Right subtree: [18,forever] split at 20.  The first tuple's count
  // stays as the partial state of the (now internal) [18,forever] node;
  // the [18,20] leaf carries only the second tuple.  A leaf's final value
  // is the combine along its root path: 1 + 1 = 2 for [18,20].
  const auto* right = tree.root->right;
  ASSERT_FALSE(right->IsLeaf());
  EXPECT_EQ(right->split, 20);
  EXPECT_EQ(right->state, 1);
  EXPECT_EQ(right->left->state, 1);   // [18,20]
  EXPECT_EQ(right->right->state, 0);  // [21,forever]
}

// The paper's Section 5.1 shortcut: a node completely overlapped by the
// tuple absorbs the value without descending to its leaves.
TEST(SplitTreeTest, CompleteOverlapStopsDescent) {
  Tree tree;
  tree.Add(18, kForever, 0);
  tree.Add(8, 20, 0);
  // Now insert [5, 50]: node [8,17] is completely covered, so its internal
  // state is bumped rather than its leaves.
  const auto* left = tree.root->left;  // [0,17], split 7
  const auto before_left_leaf = left->right->state;
  tree.Add(5, 50, 0);
  EXPECT_EQ(tree.root->left->right->state, before_left_leaf + 1);
  EXPECT_TRUE(tree.Validate().ok());
}

TEST(SplitTreeTest, EmitVisitsLeavesInTimeOrder) {
  Tree tree;
  tree.Add(18, kForever, 0);
  tree.Add(8, 20, 0);
  tree.Add(7, 12, 0);
  tree.Add(18, 21, 0);
  std::vector<TypedInterval<int64_t>> out;
  tree.EmitSubtree(tree.root, tree.lo, kForever, CountOp::Identity(),
                   [&](Instant s, Instant e, int64_t c) {
                     out.push_back({s, e, c});
                   });
  ASSERT_EQ(out.size(), 7u);
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_EQ(out[i - 1].end + 1, out[i].start);
  }
  // The Employed relation's well-known counts (Table 1 derivation).
  EXPECT_EQ(out[0], (TypedInterval<int64_t>{0, 6, 0}));
  EXPECT_EQ(out[1], (TypedInterval<int64_t>{7, 7, 1}));
  EXPECT_EQ(out[2], (TypedInterval<int64_t>{8, 12, 2}));
  EXPECT_EQ(out[3], (TypedInterval<int64_t>{13, 17, 1}));
  EXPECT_EQ(out[4], (TypedInterval<int64_t>{18, 20, 3}));
  EXPECT_EQ(out[5], (TypedInterval<int64_t>{21, 21, 2}));
  EXPECT_EQ(out[6], (TypedInterval<int64_t>{22, kForever, 1}));
}

TEST(SplitTreeTest, SortedInputDegeneratesToLinearDepth) {
  // Section 5.1: "in the worst case, the tuples are ordered in time, and
  // the tree becomes a linear list".
  Tree tree;
  const int n = 64;
  for (int i = 0; i < n; ++i) {
    tree.Add(i * 10, i * 10 + 5, 0);
  }
  EXPECT_GE(tree.Depth(), static_cast<size_t>(n));
  EXPECT_TRUE(tree.Validate().ok());
}

TEST(SplitTreeTest, EachUniqueTimestampAddsOneSplit) {
  Tree tree;
  tree.Add(10, 19, 0);
  const size_t leaves_once = tree.CountLeaves();
  tree.Add(10, 19, 0);  // no new unique timestamps
  EXPECT_EQ(tree.CountLeaves(), leaves_once);
}

TEST(SplitTreeTest, FreeSubtreeReturnsNodes) {
  Tree tree;
  tree.Add(10, 19, 0);
  tree.Add(30, 39, 0);
  const size_t live = tree.arena.live_nodes();
  ASSERT_FALSE(tree.root->IsLeaf());
  const size_t left_leaves = 3u;  // rough: just assert live decreases
  (void)left_leaves;
  tree.FreeSubtree(tree.root->left);
  EXPECT_LT(tree.arena.live_nodes(), live);
}

TEST(AggregationTreeAggregatorTest, MatchesReferenceAcrossAggregates) {
  WorkloadSpec spec;
  spec.num_tuples = 300;
  spec.lifespan = 5000;
  spec.long_lived_fraction = 0.4;
  spec.seed = 5;
  auto relation = GenerateEmployedRelation(spec);
  ASSERT_TRUE(relation.ok());
  for (AggregateKind agg :
       {AggregateKind::kCount, AggregateKind::kSum, AggregateKind::kMin,
        AggregateKind::kMax, AggregateKind::kAvg}) {
    testutil::ExpectMatchesReference(*relation, agg,
                                     AlgorithmKind::kAggregationTree);
  }
}

TEST(AggregationTreeAggregatorTest, StatsCountNodes) {
  AggregationTreeAggregator<CountOp> agg;
  ASSERT_TRUE(agg.Add(Period(10, 19), 0).ok());
  ASSERT_TRUE(agg.Add(Period(30, 39), 0).ok());
  auto out = agg.FinishTyped();
  ASSERT_TRUE(out.ok());
  const ExecutionStats& stats = agg.stats();
  EXPECT_EQ(stats.relation_scans, 1u);
  EXPECT_EQ(stats.tuples_processed, 2u);
  EXPECT_EQ(stats.intervals_emitted, 5u);
  // 5 leaves + 4 internal nodes.
  EXPECT_EQ(stats.peak_live_nodes, 9u);
  EXPECT_EQ(stats.peak_paper_bytes, 9 * kPaperNodeBytes);
}

TEST(AggregationTreeAggregatorTest, RandomOrderIsShallowerThanSorted) {
  WorkloadSpec spec;
  spec.num_tuples = 512;
  spec.lifespan = 100000;
  spec.seed = 17;
  spec.order = TupleOrder::kSorted;
  auto sorted = GenerateEmployedRelation(spec);
  spec.order = TupleOrder::kRandom;
  auto random = GenerateEmployedRelation(spec);
  ASSERT_TRUE(sorted.ok());
  ASSERT_TRUE(random.ok());

  auto depth_of = [](const Relation& r) {
    AggregationTreeAggregator<CountOp> agg;
    for (const Tuple& t : r) EXPECT_TRUE(agg.Add(t.valid(), 0).ok());
    return agg.tree().Depth();
  };
  // "The aggregation tree works best if the relation is randomly ordered
  // by time, since the tree that results is more balanced."
  EXPECT_LT(depth_of(*random) * 4, depth_of(*sorted));
}

}  // namespace
}  // namespace tagg
