// Multi-threaded stress test for LiveAggregateIndex: one writer absorbing
// a shuffled Table-3 workload while N readers query concurrently.
//
// Two phases:
//
//   1. Checkpointed: the writer inserts a chunk, everyone meets at a
//      barrier, every reader verifies the full series against a reference
//      answer precomputed for exactly that prefix, barrier, next chunk.
//      This proves the absorbed state is *correct* at known epochs.
//   2. Churn: the writer inserts continuously while readers probe
//      AggregateAt at random instants, recording the (epoch, instant,
//      value) triples their snapshots reported.  After joining, every
//      probe is checked against the tuples visible at that epoch — the
//      snapshot-isolation contract: a reader never sees a half-applied
//      insert or a value from a different version than the epoch it was
//      told.
//
// Built with -fsanitize=thread in CI (the live-tsan job); a reader
// touching writer-owned scratch state shows up as a race here.  Both
// phases cover the index's one engine, the copy-on-write tree; its
// specific hazards (path-copy publication, epoch pinning, reclamation)
// get their own deeper test in cow_stress_test.cc.

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <random>
#include <thread>
#include <vector>

#include "core/workload.h"
#include "live/live_index.h"

namespace tagg {
namespace {

constexpr size_t kNumReaders = 4;
constexpr size_t kCheckpoints = 8;

/// COUNT of `tuples[0..n)` whose validity contains `t` — the scan oracle
/// the index must agree with at epoch n.
int64_t CountVisibleAt(const std::vector<Tuple>& tuples, size_t n,
                       Instant t) {
  int64_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    if (tuples[i].start() <= t && t <= tuples[i].end()) ++count;
  }
  return count;
}

AggregateSeries ReferencePrefix(const Schema& schema,
                                const std::vector<Tuple>& tuples, size_t n) {
  Relation prefix(schema, "prefix");
  for (size_t i = 0; i < n; ++i) prefix.AppendUnchecked(tuples[i]);
  AggregateOptions options;
  options.aggregate = AggregateKind::kCount;
  options.algorithm = AlgorithmKind::kReference;
  auto series = ComputeTemporalAggregate(prefix, options);
  EXPECT_TRUE(series.ok()) << series.status().ToString();
  return std::move(series).value();
}

TEST(LiveStressTest, CheckpointedReadersSeeExactPrefixAnswers) {
  WorkloadSpec spec;
  spec.num_tuples = 1600;
  spec.lifespan = 100'000;
  spec.long_lived_fraction = 0.4;
  spec.seed = 808;
  auto relation = GenerateEmployedRelation(spec);
  ASSERT_TRUE(relation.ok());
  const std::vector<Tuple> tuples(relation->begin(), relation->end());
  const size_t chunk = tuples.size() / kCheckpoints;

  // Reference answers for every checkpoint prefix, computed up front so
  // the threaded section does no reference work.
  std::vector<AggregateSeries> expected;
  expected.reserve(kCheckpoints);
  for (size_t c = 1; c <= kCheckpoints; ++c) {
    expected.push_back(
        ReferencePrefix(relation->schema(), tuples, c * chunk));
  }

  auto created = LiveAggregateIndex::Create(LiveIndexOptions());
  ASSERT_TRUE(created.ok());
  LiveAggregateIndex& index = **created;

  std::barrier sync(static_cast<std::ptrdiff_t>(kNumReaders + 1));
  std::atomic<size_t> mismatches{0};

  std::thread writer([&] {
    for (size_t c = 0; c < kCheckpoints; ++c) {
      for (size_t i = c * chunk; i < (c + 1) * chunk; ++i) {
        ASSERT_TRUE(index.InsertTuple(tuples[i]).ok());
      }
      sync.arrive_and_wait();  // chunk published; readers verify
      sync.arrive_and_wait();  // readers done; next chunk may start
    }
  });

  std::vector<std::thread> readers;
  for (size_t r = 0; r < kNumReaders; ++r) {
    readers.emplace_back([&] {
      for (size_t c = 0; c < kCheckpoints; ++c) {
        sync.arrive_and_wait();
        uint64_t epoch = 0;
        auto got =
            index.AggregateOver(Period::All(), /*coalesce=*/false, &epoch);
        if (!got.ok() || epoch != (c + 1) * chunk ||
            got->intervals != expected[c].intervals) {
          mismatches.fetch_add(1);
        }
        sync.arrive_and_wait();
      }
    });
  }

  writer.join();
  for (std::thread& th : readers) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(index.epoch(), tuples.size());
}

TEST(LiveStressTest, ChurnProbesMatchTheirSnapshotEpoch) {
  WorkloadSpec spec;
  spec.num_tuples = 3000;
  spec.lifespan = 50'000;
  spec.long_lived_fraction = 0.3;
  spec.seed = 909;
  auto relation = GenerateEmployedRelation(spec);
  ASSERT_TRUE(relation.ok());
  const std::vector<Tuple> tuples(relation->begin(), relation->end());

  auto created = LiveAggregateIndex::Create(LiveIndexOptions());
  ASSERT_TRUE(created.ok());
  LiveAggregateIndex& index = **created;

  struct Probe {
    uint64_t epoch;
    Instant at;
    int64_t value;
  };
  std::atomic<bool> done{false};
  std::atomic<size_t> readers_started{0};

  std::thread writer([&] {
    // Don't start until every reader has landed its first probe, and
    // yield regularly, so readers genuinely interleave with the inserts
    // instead of observing only epoch 0 and the final state.
    while (readers_started.load(std::memory_order_acquire) < kNumReaders) {
      std::this_thread::yield();
    }
    for (size_t i = 0; i < tuples.size(); ++i) {
      ASSERT_TRUE(index.InsertTuple(tuples[i]).ok());
      if (i % 64 == 0) std::this_thread::yield();
    }
    done.store(true, std::memory_order_release);
  });

  std::vector<std::vector<Probe>> per_reader(kNumReaders);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kNumReaders; ++r) {
    readers.emplace_back([&, r] {
      std::mt19937_64 rng(1000 + r);
      std::uniform_int_distribution<Instant> pick(0, spec.lifespan - 1);
      uint64_t last_epoch = 0;
      bool announced = false;
      // Keep probing until the writer finishes, then take one final
      // fully-loaded probe so every reader also checks the end state.
      // Recording is bounded (the post-hoc oracle scan is
      // O(probes x tuples)): the first kProbesPerReader probes, plus one
      // probe per epoch transition the reader observes — the latter
      // guarantees mid-stream snapshots are verified no matter how the
      // threads interleave.
      constexpr size_t kProbesPerReader = 1000;
      while (!done.load(std::memory_order_acquire)) {
        const Instant t = pick(rng);
        uint64_t epoch = 0;
        auto got = index.AggregateAt(t, &epoch);
        ASSERT_TRUE(got.ok());
        // Epochs are monotone for a single reader.
        ASSERT_GE(epoch, last_epoch);
        last_epoch = epoch;
        if (per_reader[r].size() < kProbesPerReader ||
            epoch != per_reader[r].back().epoch) {
          per_reader[r].push_back({epoch, t, got->AsInt()});
        }
        if (!announced) {
          announced = true;
          readers_started.fetch_add(1, std::memory_order_release);
        }
      }
      uint64_t epoch = 0;
      auto got = index.AggregateAt(pick(rng), &epoch);
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(epoch, tuples.size());
    });
  }

  writer.join();
  for (std::thread& th : readers) th.join();

  // Post-hoc verification: every probe equals the scan oracle over the
  // prefix its snapshot epoch names.  (The workload has no NULLs, so
  // epoch == number of inserted tuples.)
  size_t verified = 0;
  size_t mid_stream = 0;
  for (const std::vector<Probe>& probes : per_reader) {
    for (const Probe& p : probes) {
      ASSERT_LE(p.epoch, tuples.size());
      EXPECT_EQ(p.value,
                CountVisibleAt(tuples, static_cast<size_t>(p.epoch), p.at))
          << "epoch=" << p.epoch << " at=" << p.at;
      ++verified;
      if (p.epoch > 0 && p.epoch < tuples.size()) ++mid_stream;
    }
  }
  EXPECT_GT(verified, 0u);
  // At least one probe must have raced the writer mid-stream — otherwise
  // the test silently degraded to a sequential check and proves nothing
  // about snapshot isolation.
  EXPECT_GT(mid_stream, 0u);
}

}  // namespace
}  // namespace tagg
