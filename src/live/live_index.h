// Live temporal aggregate index: a resident, concurrently-queryable,
// incrementally-updatable serving structure.
//
// Every batch algorithm in src/core builds its structure from a whole
// relation, emits the result once, and throws the structure away.  The
// aggregation tree of Section 5.1, however, already stores *partial*
// aggregate states per node — exactly the shape needed to answer point
// and range queries and to absorb new tuples without a rebuild.  This
// module keeps one copy-on-write split tree resident (live/cow_index.h):
//
//   * Insert(period, input)    — O(depth) amortized, same as one batch
//                                insertion; the tree only ever grows
//                                (no §5.3 garbage collection: a serving
//                                index must answer about the whole past);
//   * AggregateAt(t)           — descend ONE root path combining the
//                                partial states, O(depth), allocation-free;
//   * AggregateOver(period)    — walk the canonical cover of the query
//                                range (subtrees disjoint from the range
//                                are pruned at their topmost node),
//                                emitting the coalesced constant-interval
//                                series, O(depth + answer);
//   * FoldOver(period)         — same walk, but the per-interval states
//                                are folded into a single value with the
//                                monoid Combine.
//
// FoldOver semantics: the fold is over the *constant-interval series*,
// one Combine per interval.  For the idempotent monoids (MIN, MAX) this
// is the true range aggregate — "the maximum salary at any instant in
// [a, b]".  For the additive monoids (COUNT, SUM, AVG) a tuple spanning
// several constant intervals contributes once per interval, so the fold
// answers "the sum over the series", not "the sum over distinct tuples";
// callers wanting per-tuple semantics should consume the series.
//
// Concurrency: one writer and any number of readers may run against the
// index simultaneously; every reader observes a consistent epoch-stamped
// snapshot.  The engine is a copy-on-write split tree with epoch-based
// reclamation (live/cow_index.h): readers are lock-free and never block
// the writer.  All five monoids of core/aggregates.h are supported,
// including AVG's (sum, count) pair.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/aggregates.h"
#include "obs/metrics.h"
#include "temporal/tuple.h"

namespace tagg {

namespace internal {

// Registry instruments shared by every live index, defined once in
// live_index.cc so the engine's template methods (live/cow_index.h) can
// publish without each instantiation re-resolving the name.
obs::Histogram& LiveProbeSeconds();
obs::Counter& LiveInsertsTotal();
obs::Counter& LiveProbesTotal();

}  // namespace internal

/// What a live index aggregates and how it serves.
struct LiveIndexOptions {
  AggregateKind aggregate = AggregateKind::kCount;
  /// Index of the aggregated attribute in the tuples passed to
  /// InsertTuple(); AggregateOptions::kNoAttribute for COUNT(*).
  size_t attribute = AggregateOptions::kNoAttribute;
  /// Publish a new version every N single-tuple Insert()/InsertTuple()
  /// calls instead of per call, amortizing the O(depth) path copy over
  /// the batch (unpublished tuples are invisible to readers until the
  /// next publish or Flush()).  0 behaves as 1.  InsertBatch() always
  /// publishes once per call regardless.
  size_t publish_every_n = 1;
};

/// A point-in-time view of a live index's counters.
struct LiveIndexStats {
  /// Published version: the number of tuples the index has seen (absorbed
  /// or skipped as NULL).  Comparing this against the backing relation's
  /// size tells whether the index is fresh.
  uint64_t epoch = 0;
  /// Tuples actually folded into the tree (NULL inputs are seen but
  /// skipped, matching the batch path's SQL NULL semantics).
  uint64_t inserts_absorbed = 0;
  /// Point, range, and fold queries answered since construction.
  uint64_t queries_served = 0;
  /// Seconds since the current version was published (data staleness as
  /// observed by a reader arriving now).
  double snapshot_age_seconds = 0.0;
  size_t tree_depth = 0;
  size_t live_nodes = 0;
  /// Actual resident bytes of the tree's nodes, plus the paper's
  /// 16-bytes-per-node accounting of the same count (Section 6.2) for
  /// comparison with the batch algorithms' memory study.
  size_t live_bytes = 0;
  size_t paper_bytes = 0;
  /// Immutable tree versions published so far (equals epoch when
  /// publish_every_n == 1).
  uint64_t versions_published = 0;
  /// Path-copied nodes retired but not yet recycled (they drain to 0
  /// after readers quiesce and the next publish reclaims).
  size_t retired_pending = 0;
  uint64_t nodes_retired = 0;
  uint64_t nodes_reclaimed = 0;

  std::string ToString() const;
};

/// Type-erased handle to a live temporal aggregate index.  Obtain one
/// from Create(); the concrete monoid is chosen by options.aggregate.
class LiveAggregateIndex {
 public:
  virtual ~LiveAggregateIndex() = default;

  /// Builds an empty index.  Fails when a value aggregate (SUM/MIN/MAX/
  /// AVG) is requested without an attribute.
  static Result<std::unique_ptr<LiveAggregateIndex>> Create(
      const LiveIndexOptions& options);

  const LiveIndexOptions& options() const { return options_; }

  // --- writer API (exclusive section per call) -------------------------

  /// Folds one (validity, input) pair into the index and publishes the
  /// new version.
  virtual Status Insert(const Period& valid, double input) = 0;

  /// Extracts the configured attribute from `tuple` and inserts.  NULL
  /// attribute values advance the epoch without contributing (SQL
  /// aggregate semantics; COUNT(attr) counts only non-null values).
  Status InsertTuple(const Tuple& tuple);

  /// Folds a batch of (validity, input) pairs under ONE writer section /
  /// ONE published version: bulk ingest amortizes the per-insert path
  /// copies to near the in-place cost.
  virtual Status InsertBatch(
      const std::vector<std::pair<Period, double>>& batch) = 0;

  /// InsertTuple over a whole batch: extracts the configured attribute
  /// from every tuple, folds the non-NULL ones under one published
  /// version via InsertBatch, and advances the epoch for NULLs exactly
  /// like InsertTuple.  The network serving layer's InsertBatch op lands
  /// here so remote bulk ingest gets the same amortization as local.
  Status InsertTuples(const std::vector<Tuple>& tuples);

  /// Publishes any inserts a publish_every_n > 1 configuration is still
  /// holding back.  With nothing pending it only reclaims retired nodes.
  virtual void Flush() = 0;

  // --- reader API (lock-free; any number of threads) -------------------

  /// The aggregate's value at instant `t`: one root-path descent, O(depth).
  /// When `snapshot_epoch` is non-null it receives the epoch the answer
  /// was computed at.
  virtual Result<Value> AggregateAt(
      Instant t, uint64_t* snapshot_epoch = nullptr) const = 0;

  /// The constant-interval series restricted to `query`, in time order,
  /// exactly covering the query period.  `coalesce` merges adjacent
  /// value-equal intervals (TSQL2 coalescing) before returning.
  virtual Result<AggregateSeries> AggregateOver(
      const Period& query, bool coalesce = true,
      uint64_t* snapshot_epoch = nullptr) const = 0;

  /// The monoid fold of the constant-interval series over `query` (see
  /// the file comment for the per-monoid semantics).
  virtual Result<Value> FoldOver(
      const Period& query, uint64_t* snapshot_epoch = nullptr) const = 0;

  /// Lock-free peek at the published epoch (= tuples seen).  Freshness
  /// checks compare this against the backing relation's size.
  virtual uint64_t epoch() const = 0;

  virtual LiveIndexStats Stats() const = 0;

 protected:
  explicit LiveAggregateIndex(const LiveIndexOptions& options)
      : options_(options) {}

  /// Advances the epoch without folding anything (NULL input seen).
  virtual void NoteSkippedTuple() = 0;

 private:
  LiveIndexOptions options_;
};

}  // namespace tagg
