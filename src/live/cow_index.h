// Copy-on-write live index engine: lock-free snapshot reads.
//
// The live index's one engine.  An in-place SplitTree behind a
// shared_mutex would make every probe pay a lock round-trip and stall
// readers whenever the ingest thread holds the writer section; this
// engine keeps the lock off the read path entirely, with Section 5.1
// semantics unchanged (the differential harness requires its series to
// be bit-identical to the batch aggregation tree's):
//
//   * Nodes are immutable once published.  An insert *path-copies* the
//     O(depth) root-to-boundary nodes it would have mutated (the standard
//     segment-tree argument: at most two nodes per level are partially
//     overlapped) into fresh arena nodes tagged with the version being
//     built, and leaves every untouched subtree shared with the previous
//     version.
//   * Publication is ONE atomic pointer swap: the writer stores an
//     immutable VersionRecord (root + epoch + stats snapshot, so readers
//     never touch writer-side counters) and then advances the EpochGate
//     version counter.  Everything a reader needs is reachable from the
//     record with plain loads.
//   * Readers pin a version through EpochGate (live/epoch.h): one
//     slot-CAS and one seq_cst confirm to enter, one release store to
//     leave, ZERO atomics in the descent loop.  No shared_ptr per-node
//     refcounting — nodes stay four words + a version tag, and the
//     paper's 16-bytes-per-node accounting still applies unchanged.
//   * Replaced nodes are retired into per-version lists in the NodeArena
//     and recycled in batches once EpochGate::MinActiveVersion() proves
//     no pinned reader can still observe them.  Memory is bounded:
//     pending retirees drain as readers churn, and a Flush() on an idle
//     index returns them all.
//
// Writer-side batching: publishing per insert makes every insert pay the
// full O(depth) path copy.  InsertBatch() and the publish_every_n option
// amortize it — inserts between publishes find most of their path
// already tagged with the building version (the first insert copied it)
// and mutate those private nodes in place, so bulk ingest approaches an
// in-place tree's cost while readers still only ever see complete
// batches.
//
// Single writer at a time (an internal mutex serializes writers); any
// number of readers.  Destruction requires all readers drained.

#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "core/aggregates.h"
#include "core/node_arena.h"
#include "live/epoch.h"
#include "live/live_index.h"

namespace tagg {
namespace internal {

inline int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The copy-on-write engine for one monoid.
template <typename Op>
class CowLiveIndexImpl final : public LiveAggregateIndex {
 public:
  using State = typename Op::State;
  using Input = typename Op::Input;

  /// Same layout as SplitTree::Node plus the version tag that tells the
  /// writer whether a node is private to the version being built (then it
  /// may be mutated in place) or shared with a published version (then it
  /// must be copied).  Readers never look at `version`.
  struct Node {
    Instant split;
    State state;
    Node* left;
    Node* right;
    uint64_t version;

    bool IsLeaf() const { return left == nullptr; }
  };

  explicit CowLiveIndexImpl(const LiveIndexOptions& options, Op op = Op())
      : LiveAggregateIndex(options),
        op_(std::move(op)),
        publish_every_(options.publish_every_n == 0
                           ? 1
                           : options.publish_every_n),
        node_arena_(sizeof(Node)),
        record_arena_(sizeof(VersionRecord)) {
    std::lock_guard<std::mutex> lock(writer_mutex_);
    working_root_ = NewLeaf();
    PublishLocked();  // version 1: the empty tree, before any reader
  }

  // --- writer API ------------------------------------------------------

  Status Insert(const Period& valid, double input) override {
    std::lock_guard<std::mutex> lock(writer_mutex_);
    AddLocked(valid.start(), valid.end(), input);
    ++tuples_seen_;
    ++inserts_absorbed_;
    ++pending_;
    LiveInsertsTotal().Increment();
    if (pending_ >= publish_every_) PublishLocked();
    return Status::OK();
  }

  Status InsertBatch(
      const std::vector<std::pair<Period, double>>& batch) override {
    if (batch.empty()) return Status::OK();
    std::lock_guard<std::mutex> lock(writer_mutex_);
    for (const auto& [valid, input] : batch) {
      AddLocked(valid.start(), valid.end(), input);
    }
    tuples_seen_ += batch.size();
    inserts_absorbed_ += batch.size();
    pending_ += batch.size();
    LiveInsertsTotal().Increment(batch.size());
    PublishLocked();  // one version per batch, however large
    return Status::OK();
  }

  void Flush() override {
    std::lock_guard<std::mutex> lock(writer_mutex_);
    if (pending_ > 0) {
      PublishLocked();
    } else {
      // Nothing to publish, but an explicit Flush on an idle index still
      // drains every retire list no reader can observe any more.
      ReclaimLocked();
      PublishStatCountersLocked();
    }
  }

  // --- reader API (lock-free) ------------------------------------------

  Result<Value> AggregateAt(Instant t,
                            uint64_t* snapshot_epoch) const override {
    if (t < kOrigin || t > kForever) {
      return Status::InvalidArgument("instant " + std::to_string(t) +
                                     " outside the time-line");
    }
    obs::ScopedLatencyTimer probe_timer(LiveProbeSeconds());
    LiveProbesTotal().Increment();
    queries_served_.fetch_add(1, std::memory_order_relaxed);
    EpochGate::Pin pin = gate_.EnterReader();
    const VersionRecord* rec = record_.load(std::memory_order_acquire);
    if (snapshot_epoch != nullptr) *snapshot_epoch = rec->tuples_seen;
    return Op::Finalize(DescendAt(rec->root, t));
  }

  Result<AggregateSeries> AggregateOver(
      const Period& query, bool coalesce,
      uint64_t* snapshot_epoch) const override {
    obs::ScopedLatencyTimer probe_timer(LiveProbeSeconds());
    LiveProbesTotal().Increment();
    queries_served_.fetch_add(1, std::memory_order_relaxed);
    AggregateSeries series;
    {
      EpochGate::Pin pin = gate_.EnterReader();
      const VersionRecord* rec = record_.load(std::memory_order_acquire);
      if (snapshot_epoch != nullptr) *snapshot_epoch = rec->tuples_seen;
      // Reserve the leaf-count bound, clamped by the query's width (an
      // interval covers at least one instant; a closed period inside the
      // time-line has a width that fits in uint64), so point-ish probes
      // do not pre-allocate for the whole tree.
      const uint64_t width = static_cast<uint64_t>(query.end()) -
                             static_cast<uint64_t>(query.start()) + 1;
      series.intervals.reserve(static_cast<size_t>(
          std::min<uint64_t>(width, rec->live_nodes / 2 + 1)));
      WalkRange(rec->root, query,
                [&](Instant lo, Instant hi, const State& st) {
                  series.intervals.push_back(
                      {Period(lo, hi), Op::Finalize(st)});
                });
      series.stats.tuples_processed = rec->inserts_absorbed;
      series.stats.peak_live_nodes = rec->live_nodes;
      series.stats.peak_live_bytes = rec->live_bytes;
      series.stats.peak_paper_bytes = rec->live_nodes * kPaperNodeBytes;
      series.stats.nodes_allocated = rec->total_allocated;
      series.stats.tree_depth = rec->depth;
    }
    if (coalesce) {
      series.intervals = CoalesceEqualValues(std::move(series.intervals));
    }
    series.stats.intervals_emitted = series.intervals.size();
    return series;
  }

  Result<Value> FoldOver(const Period& query,
                         uint64_t* snapshot_epoch) const override {
    obs::ScopedLatencyTimer probe_timer(LiveProbeSeconds());
    LiveProbesTotal().Increment();
    queries_served_.fetch_add(1, std::memory_order_relaxed);
    EpochGate::Pin pin = gate_.EnterReader();
    const VersionRecord* rec = record_.load(std::memory_order_acquire);
    if (snapshot_epoch != nullptr) *snapshot_epoch = rec->tuples_seen;
    State acc = op_.Identity();
    WalkRange(rec->root, query, [&](Instant, Instant, const State& st) {
      acc = op_.Combine(acc, st);
    });
    return Op::Finalize(acc);
  }

  uint64_t epoch() const override {
    return published_tuples_.load(std::memory_order_acquire);
  }

  LiveIndexStats Stats() const override {
    LiveIndexStats stats;
    EpochGate::Pin pin = gate_.EnterReader();
    const VersionRecord* rec = record_.load(std::memory_order_acquire);
    stats.epoch = rec->tuples_seen;
    stats.inserts_absorbed = rec->inserts_absorbed;
    stats.queries_served = queries_served_.load(std::memory_order_relaxed);
    const double age =
        static_cast<double>(SteadyNowNs() - rec->published_at_ns) * 1e-9;
    stats.snapshot_age_seconds = age < 0.0 ? 0.0 : age;
    stats.tree_depth = rec->depth;
    stats.live_nodes = rec->live_nodes;
    stats.live_bytes = rec->live_bytes;
    stats.paper_bytes = rec->live_nodes * kPaperNodeBytes;
    stats.versions_published = rec->version;
    stats.retired_pending =
        retired_pending_stat_.load(std::memory_order_relaxed);
    stats.nodes_retired =
        nodes_retired_stat_.load(std::memory_order_relaxed);
    stats.nodes_reclaimed =
        nodes_reclaimed_stat_.load(std::memory_order_relaxed);
    return stats;
  }

 protected:
  void NoteSkippedTuple() override {
    std::lock_guard<std::mutex> lock(writer_mutex_);
    // The epoch (tuples seen) advances with an unchanged tree: the
    // skipped tuple is now accounted for in the index's view.
    ++tuples_seen_;
    ++pending_;
    if (pending_ >= publish_every_) PublishLocked();
  }

 private:
  /// Everything one published version hands its readers, immutable after
  /// the record_ store: the root plus the stats snapshot, so reader-side
  /// Stats()/series stats never race writer-side counters.
  struct VersionRecord {
    const Node* root;
    uint64_t version;
    uint64_t tuples_seen;
    uint64_t inserts_absorbed;
    int64_t published_at_ns;
    size_t live_nodes;
    size_t live_bytes;
    size_t total_allocated;
    size_t depth;
  };

  /// The aggregate's state at instant `t`: the Combine of every partial
  /// state on the root path to the leaf whose range contains t (Section
  /// 5.1's leaf evaluation, without materializing any other leaf).
  State DescendAt(const Node* n, Instant t) const {
    State acc = op_.Identity();
    while (true) {
      acc = op_.Combine(acc, n->state);
      if (n->IsLeaf()) return acc;
      n = t <= n->split ? n->left : n->right;
    }
  }

  /// In-order walk over the part of the tree overlapping `query`, with
  /// leaf ranges clipped to the query period; calls emit(lo, hi, state)
  /// per constant interval.  Subtrees disjoint from the query are pruned
  /// at their topmost node (the canonical-cover shortcut), so the walk
  /// visits O(depth + leaves overlapping query) nodes.  The stack is
  /// function-local and nodes are only read: safe for any number of
  /// concurrent readers, with zero atomics in the loop.
  template <typename EmitFn>
  void WalkRange(const Node* root, const Period& query, EmitFn&& emit) const {
    struct Frame {
      const Node* n;
      Instant lo;
      Instant hi;
      State acc;
    };
    std::vector<Frame> stack;
    stack.reserve(64);  // bounded by tree depth
    Frame f{root, kOrigin, kForever, op_.Identity()};
    while (true) {
      // Descend the left spine in place, stacking only right siblings:
      // left children never round-trip through the stack, which halves
      // the frame traffic of the naive push-both scheme.
      for (;;) {
        const Instant cs = f.lo > query.start() ? f.lo : query.start();
        const Instant ce = f.hi < query.end() ? f.hi : query.end();
        if (cs > ce) break;  // disjoint from the query: prune
        const Node* n = f.n;
        const State combined = op_.Combine(f.acc, n->state);
        if (n->IsLeaf()) {
          emit(cs, ce, combined);
          break;
        }
        stack.push_back({n->right, n->split + 1, f.hi, combined});
        f = {n->left, f.lo, n->split, combined};
      }
      if (stack.empty()) return;
      f = stack.back();
      stack.pop_back();
    }
  }

  struct AddFrame {
    Node* n;  // already private to the building version
    Instant lo;
    Instant hi;
    size_t depth;
  };

  Node* NewLeaf() {
    Node* n = static_cast<Node*>(node_arena_.Allocate());
    n->split = 0;
    n->state = op_.Identity();
    n->left = nullptr;
    n->right = nullptr;
    n->version = building_version_;
    return n;
  }

  /// A node the writer may mutate: `n` itself when it was created for the
  /// version being built, otherwise a fresh copy (the shared original is
  /// retired — unreachable from the new version on, recycled once no
  /// pinned reader can observe it).
  Node* Own(Node* n) {
    if (n->version == building_version_) return n;
    Node* copy = static_cast<Node*>(node_arena_.Allocate());
    *copy = *n;
    copy->version = building_version_;
    node_arena_.Retire(n, building_version_);
    return copy;
  }

  /// SplitTree::Add with path-copying: identical descent and split rules
  /// (Section 5.1), but every node about to be touched is Own()ed first,
  /// so published versions stay immutable.
  void AddLocked(Instant s, Instant e, Input input) {
    working_root_ = Own(working_root_);
    add_stack_.clear();
    add_stack_.push_back({working_root_, kOrigin, kForever, 1});
    while (!add_stack_.empty()) {
      const AddFrame f = add_stack_.back();
      add_stack_.pop_back();
      const Instant cs = s > f.lo ? s : f.lo;
      const Instant ce = e < f.hi ? e : f.hi;
      if (cs == f.lo && ce == f.hi) {
        // Completely overlapped: absorb into the private copy and stop.
        op_.Add(f.n->state, input);
        continue;
      }
      if (f.n->IsLeaf()) {
        // Partially overlapped leaf: split.  Both fresh children are
        // private by construction.
        f.n->split = (cs > f.lo) ? cs - 1 : ce;
        f.n->left = NewLeaf();
        f.n->right = NewLeaf();
        if (f.depth + 1 > depth_) depth_ = f.depth + 1;
      }
      if (cs <= f.n->split) {
        f.n->left = Own(f.n->left);
        add_stack_.push_back({f.n->left, f.lo, f.n->split, f.depth + 1});
      }
      if (ce > f.n->split) {
        f.n->right = Own(f.n->right);
        add_stack_.push_back(
            {f.n->right, f.n->split + 1, f.hi, f.depth + 1});
      }
    }
  }

  void PublishLocked() {
    // Reclaim first so the record's counters describe the post-reclaim
    // state (and the publish that follows never frees anything a reader
    // of the *current* version could hold: lists tagged with the building
    // version are above MinActiveVersion until after the publish).
    ReclaimLocked();
    auto* rec = static_cast<VersionRecord*>(record_arena_.Allocate());
    rec->root = working_root_;
    rec->version = building_version_;
    rec->tuples_seen = tuples_seen_;
    rec->inserts_absorbed = inserts_absorbed_;
    rec->published_at_ns = SteadyNowNs();
    rec->live_nodes =
        node_arena_.live_nodes() - node_arena_.retired_pending();
    rec->live_bytes = rec->live_nodes * node_arena_.slot_size();
    rec->total_allocated = node_arena_.total_allocated_nodes();
    rec->depth = depth_;
    const VersionRecord* old = record_.load(std::memory_order_relaxed);
    // Publication: record first (release), then the version counter
    // (seq_cst, inside Publish) — a reader announcing the new version is
    // thereby guaranteed to load at least this record.
    record_.store(rec, std::memory_order_release);
    published_tuples_.store(tuples_seen_, std::memory_order_release);
    const uint64_t published = gate_.Publish();
    if (old != nullptr) {
      record_arena_.Retire(const_cast<VersionRecord*>(old), published);
    }
    building_version_ = published + 1;
    pending_ = 0;
    PublishStatCountersLocked();
  }

  void ReclaimLocked() {
    const uint64_t min_active = gate_.MinActiveVersion();
    node_arena_.ReclaimThrough(min_active);
    record_arena_.ReclaimThrough(min_active);
  }

  /// Mirrors the arenas' retire counters into reader-visible atomics and
  /// the global obs instruments (deltas batched per publish, keeping the
  /// per-node retire path free of shared-counter traffic).
  void PublishStatCountersLocked() {
    const uint64_t retired =
        node_arena_.retired_total() + record_arena_.retired_total();
    const uint64_t reclaimed =
        node_arena_.reclaimed_total() + record_arena_.reclaimed_total();
    LiveNodesRetiredTotal().Increment(retired - obs_retired_reported_);
    LiveNodesReclaimedTotal().Increment(reclaimed -
                                        obs_reclaimed_reported_);
    obs_retired_reported_ = retired;
    obs_reclaimed_reported_ = reclaimed;
    if (obs::Enabled()) {
      LiveRetiredPendingGauge().Set(static_cast<double>(
          node_arena_.retired_pending() + record_arena_.retired_pending()));
    }
    retired_pending_stat_.store(node_arena_.retired_pending(),
                                std::memory_order_relaxed);
    nodes_retired_stat_.store(node_arena_.retired_total(),
                              std::memory_order_relaxed);
    nodes_reclaimed_stat_.store(node_arena_.reclaimed_total(),
                                std::memory_order_relaxed);
  }

  Op op_;

  // --- writer state (guarded by writer_mutex_) -------------------------
  mutable std::mutex writer_mutex_;
  const size_t publish_every_;
  NodeArena node_arena_;
  NodeArena record_arena_;
  Node* working_root_ = nullptr;
  /// The version the next publish will carry; nodes tagged with it are
  /// private to the writer.  Starts at 1 (EpochGate::kIdle is 0).
  uint64_t building_version_ = 1;
  uint64_t tuples_seen_ = 0;
  uint64_t inserts_absorbed_ = 0;
  uint64_t pending_ = 0;
  size_t depth_ = 1;
  uint64_t obs_retired_reported_ = 0;
  uint64_t obs_reclaimed_reported_ = 0;
  std::vector<AddFrame> add_stack_;  // writer scratch, reused per insert

  // --- publication point and reader-visible state ----------------------
  EpochGate gate_;
  std::atomic<const VersionRecord*> record_{nullptr};
  /// Lock-free epoch() peek (the record itself must only be dereferenced
  /// under a pin).
  std::atomic<uint64_t> published_tuples_{0};
  mutable std::atomic<uint64_t> queries_served_{0};
  std::atomic<size_t> retired_pending_stat_{0};
  std::atomic<uint64_t> nodes_retired_stat_{0};
  std::atomic<uint64_t> nodes_reclaimed_stat_{0};
};

}  // namespace internal
}  // namespace tagg
