// Machine-independent validation of the paper's complexity claims.
//
// Wall-clock benchmarks (bench/) show the shapes of Figures 6-8; these
// tests pin the *asymptotics* using the algorithms' work_steps counters
// (node/cell visits during insertion), which do not depend on the host:
//
//   * aggregation tree over SORTED input: "the tree becomes a linear
//     list" -> Theta(n^2) (Section 5.1);
//   * aggregation tree over RANDOM input: ~n log n;
//   * k-ordered tree with k=1 over sorted input: the live tree is tiny,
//     so work is Theta(n);
//   * linked list: Theta(n^2) regardless of order (head-first walks);
//   * balanced tree: Theta(n log n) even on sorted input (Section 7),
//     including as the partitioned evaluation's MIN/MAX kernel;
//   * long-lived tuples make the sorted aggregation tree CHEAPER
//     (Section 6.1's "paradoxical" improvement).

#include <gtest/gtest.h>

#include <cmath>

#include "core/aggregates.h"
#include "core/partitioned_agg.h"
#include "core/workload.h"

namespace tagg {
namespace {

size_t WorkOf(const Relation& relation, AlgorithmKind algorithm,
              int64_t k = 1) {
  AggregateOptions options;
  options.algorithm = algorithm;
  options.k = k;
  auto series = ComputeTemporalAggregate(relation, options);
  EXPECT_TRUE(series.ok()) << series.status().ToString();
  EXPECT_GT(series->stats.work_steps, 0u);
  return series->stats.work_steps;
}

Relation Workload(size_t n, TupleOrder order, double long_lived = 0.0,
                  uint64_t seed = 7) {
  WorkloadSpec spec;
  spec.num_tuples = n;
  spec.lifespan = 1'000'000;
  spec.order = order;
  spec.long_lived_fraction = long_lived;
  spec.seed = seed;
  return GenerateEmployedRelation(spec).value();
}

/// work(2n) / work(n), averaged over two seeds to damp noise.
double GrowthRatio(AlgorithmKind algorithm, TupleOrder order, size_t n,
                   int64_t k = 1) {
  double total = 0;
  for (uint64_t seed : {11u, 13u}) {
    const size_t small = WorkOf(Workload(n, order, 0.0, seed), algorithm, k);
    const size_t big =
        WorkOf(Workload(2 * n, order, 0.0, seed), algorithm, k);
    total += static_cast<double>(big) / static_cast<double>(small);
  }
  return total / 2.0;
}

/// Disjoint sorted tuples — the exact "tuples are ordered in time, and
/// the tree becomes a linear list" worst case of Section 5.1.  (The Table
/// 3 generator softens the pathology at scale because a fixed lifespan
/// makes tuples overlap ever more densely, interleaving their endpoint
/// keys; the clean claim needs disjoint intervals.)
Relation DisjointSorted(size_t n) {
  Relation r(EmployedSchema(), "disjoint");
  for (size_t i = 0; i < n; ++i) {
    const auto s = static_cast<Instant>(i) * 10;
    r.AppendUnchecked(
        Tuple({Value::String("x"), Value::Int(1)}, Period(s, s + 5)));
  }
  return r;
}

TEST(ComplexityTest, AggregationTreeSortedIsQuadratic) {
  const size_t small = WorkOf(DisjointSorted(4096),
                              AlgorithmKind::kAggregationTree);
  const size_t big = WorkOf(DisjointSorted(8192),
                            AlgorithmKind::kAggregationTree);
  const double ratio = static_cast<double>(big) / static_cast<double>(small);
  EXPECT_GT(ratio, 3.4);  // Theta(n^2): doubling n ~quadruples the work
  EXPECT_LT(ratio, 4.6);
}

TEST(ComplexityTest, AggregationTreeRandomIsNearLinearithmic) {
  const double ratio =
      GrowthRatio(AlgorithmKind::kAggregationTree, TupleOrder::kRandom, 4096);
  EXPECT_GT(ratio, 1.9);  // n log n: ratio = 2 * (log 2n / log n) ~ 2.17
  EXPECT_LT(ratio, 2.8);
}

TEST(ComplexityTest, KOrderedTreeSortedIsLinear) {
  const size_t small =
      WorkOf(DisjointSorted(4096), AlgorithmKind::kKOrderedTree, 1);
  const size_t big =
      WorkOf(DisjointSorted(8192), AlgorithmKind::kKOrderedTree, 1);
  const double ratio = static_cast<double>(big) / static_cast<double>(small);
  EXPECT_GT(ratio, 1.8);
  EXPECT_LT(ratio, 2.3);  // Theta(n): the live tree stays O(1)
}

TEST(ComplexityTest, LinkedListIsQuadraticOnAnyOrder) {
  for (TupleOrder order : {TupleOrder::kSorted, TupleOrder::kRandom}) {
    const double ratio =
        GrowthRatio(AlgorithmKind::kLinkedList, order, 2048);
    EXPECT_GT(ratio, 3.4) << "order " << static_cast<int>(order);
    EXPECT_LT(ratio, 4.6) << "order " << static_cast<int>(order);
  }
}

TEST(ComplexityTest, BalancedTreeSortedIsLinearithmic) {
  const double ratio =
      GrowthRatio(AlgorithmKind::kBalancedTree, TupleOrder::kSorted, 4096);
  EXPECT_GT(ratio, 1.9);
  EXPECT_LT(ratio, 2.8);
}

/// Work steps of the partitioned MAX kernel (the balanced tree) over
/// `relation`; they are deterministic for a fixed input, region count and
/// worker count, so a second run must repeat them exactly.
size_t PartitionedMaxWork(const Relation& relation) {
  PartitionedOptions options;
  options.aggregate = AggregateKind::kMax;
  options.attribute = 1;
  options.partitions = 12;
  options.parallel_workers = 3;
  auto first = ComputePartitionedAggregate(relation, options);
  auto second = ComputePartitionedAggregate(relation, options);
  EXPECT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(second.ok()) << second.status().ToString();
  if (!first.ok() || !second.ok()) return 0;
  EXPECT_EQ(first->stats.work_steps, second->stats.work_steps);
  return first->stats.work_steps;
}

TEST(ComplexityTest, PartitionedMaxOnSortedInputIsLinearithmic) {
  // The partitioned MIN/MAX kernel is the balanced tree: each region's
  // build stays O(n log n) on time-sorted input, where the Section 5.1
  // tree would walk a right spine per insert.
  const size_t n = 64 * 1024;
  const size_t work = PartitionedMaxWork(Workload(n, TupleOrder::kSorted));
  EXPECT_GT(work, n);
  EXPECT_LE(static_cast<double>(work),
            4.0 * static_cast<double>(n) * std::log2(static_cast<double>(n)));
}

TEST(ComplexityTest, PartitionedMaxLongLivedTuplesCostOneStepPerRegion) {
  // A long-lived tuple covers most regions whole.  Each region's tree
  // spans that region only, so a covering entry lands on the root in one
  // step; a tree over all time would split it into O(log n) nodes.
  const size_t n = 64 * 1024;
  const size_t short_lived =
      PartitionedMaxWork(Workload(n, TupleOrder::kRandom, 0.0));
  const size_t long_lived =
      PartitionedMaxWork(Workload(n, TupleOrder::kRandom, 0.8));
  EXPECT_GT(long_lived, n);
  EXPECT_LT(long_lived, 2 * short_lived);
}

TEST(ComplexityTest, KOrderedBeatsPlainTreeOnSortedInput) {
  const Relation relation = Workload(8192, TupleOrder::kSorted);
  const size_t tree = WorkOf(relation, AlgorithmKind::kAggregationTree);
  const size_t ktree = WorkOf(relation, AlgorithmKind::kKOrderedTree, 1);
  EXPECT_GT(tree, 50 * ktree);  // quadratic vs linear at 8K tuples
}

TEST(ComplexityTest, LongLivedTuplesHelpTheSortedAggregationTree) {
  // Section 6.1: "Paradoxically, the aggregation tree's performance
  // improves in the presence of many long-lived tuples" on sorted input,
  // because the end timestamps pre-populate the right side of the tree.
  const size_t n = 8192;
  const size_t short_lived = WorkOf(
      Workload(n, TupleOrder::kSorted, 0.0), AlgorithmKind::kAggregationTree);
  const size_t long_lived = WorkOf(
      Workload(n, TupleOrder::kSorted, 0.8), AlgorithmKind::kAggregationTree);
  EXPECT_LT(long_lived * 4, short_lived);
}

TEST(ComplexityTest, LinkedListIndifferentToLongLivedTuples) {
  // Section 6.1: "the performance of the aggregation tree and the linked
  // list was unaffected by the presence of long-lived tuples" (random
  // order).  Work may differ somewhat (more overlapped cells per tuple)
  // but must stay within a small factor, not change asymptotically.
  const size_t n = 2048;
  const size_t none = WorkOf(Workload(n, TupleOrder::kRandom, 0.0),
                             AlgorithmKind::kLinkedList);
  const size_t heavy = WorkOf(Workload(n, TupleOrder::kRandom, 0.8),
                              AlgorithmKind::kLinkedList);
  EXPECT_LT(heavy, 3 * none);
  EXPECT_GT(3 * heavy, none);
}

TEST(ComplexityTest, LargerKCostsMoreWork) {
  // Section 6.1: "Smaller values of k are more efficient because the
  // number of tuples that are maintained in the tree is smaller."
  WorkloadSpec spec;
  spec.num_tuples = 8192;
  spec.lifespan = 1'000'000;
  spec.order = TupleOrder::kKOrdered;
  spec.k_percentage = 0.02;
  spec.seed = 5;

  spec.k = 4;
  auto small_k = GenerateEmployedRelation(spec).value();
  spec.k = 400;
  auto large_k = GenerateEmployedRelation(spec).value();

  const size_t work_small =
      WorkOf(small_k, AlgorithmKind::kKOrderedTree, 4);
  const size_t work_large =
      WorkOf(large_k, AlgorithmKind::kKOrderedTree, 400);
  EXPECT_LT(work_small * 2, work_large);
}

}  // namespace
}  // namespace tagg
