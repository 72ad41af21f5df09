#include "core/column_scan.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/balanced_tree.h"
#include "core/sweep_columnar.h"
#include "obs/metrics.h"
#include "util/cpu_features.h"

namespace tagg {
namespace {

/// One window-clipped row on the non-invertible (tree) path.
struct ClippedEntry {
  Instant start;
  Instant end;
  double input;
};

/// The footer summary of one block as an Op state (MIN/MAX only: the
/// non-invertible monoids compose by Combine, not by baseline addition).
template <typename Op>
typename Op::State BlockSummary(const ColumnBlockInfo& block);

template <>
MinOp::State BlockSummary<MinOp>(const ColumnBlockInfo& block) {
  return {block.min_value, block.rows > 0};
}

template <>
MaxOp::State BlockSummary<MaxOp>(const ColumnBlockInfo& block) {
  return {block.max_value, block.rows > 0};
}

void PublishScanStats(const ColumnScanStats& stats) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  static obs::Counter& scans = reg.GetCounter(
      "tagg_column_scan_scans_total",
      "Pruned scans evaluated over columnar stored relations");
  static obs::Counter& skipped = reg.GetCounter(
      "tagg_column_scan_blocks_skipped_total",
      "Blocks zone-map-proved disjoint from the window (never read)");
  static obs::Counter& summarized = reg.GetCounter(
      "tagg_column_scan_blocks_summarized_total",
      "Fully-covering blocks answered from footer summaries (never read)");
  static obs::Counter& decoded = reg.GetCounter(
      "tagg_column_scan_blocks_decoded_total",
      "Boundary-straddling blocks decoded and swept");
  static obs::Counter& bytes_decoded = reg.GetCounter(
      "tagg_column_scan_bytes_decoded_total",
      "Encoded block bytes read and decoded by pruned scans");
  static obs::Counter& bytes_pruned = reg.GetCounter(
      "tagg_column_scan_bytes_pruned_total",
      "Encoded block bytes pruning avoided reading");
  static obs::Counter& rows_decoded = reg.GetCounter(
      "tagg_column_scan_rows_decoded_total",
      "Rows decoded from straddling blocks by pruned scans");
  scans.Increment();
  skipped.Increment(stats.blocks_skipped);
  summarized.Increment(stats.blocks_summarized);
  decoded.Increment(stats.blocks_decoded);
  bytes_decoded.Increment(stats.bytes_decoded);
  bytes_pruned.Increment(stats.bytes_pruned);
  rows_decoded.Increment(stats.rows_decoded);
}

/// Per-worker decode state: blocks are work-stolen off one atomic cursor
/// and decoded straight into these buffers — no Tuple materialization, no
/// shared mutable state until the post-join merge.
///
/// On the invertible path the count deltas are implied (+1 for a start,
/// -1 for an end), so both event buffers leave dn empty.
struct DecodeSlot {
  EventColumns starts;                // invertible path
  EventColumns ends;
  std::vector<ClippedEntry> entries;  // MIN/MAX path
  ColumnScanStats stats;
  int64_t elapsed_ns = 0;
  Status status;
};

/// One decoded block's start events: [begin, end) of a slot's `starts`.
/// The file is start-sorted and clipping to the window is monotone, so
/// each run is already in time order, and so is the sequence of runs in
/// file order; only the end events need sorting.
struct StartRun {
  const EventColumns* starts = nullptr;
  size_t begin = 0;
  size_t end = 0;
};

/// Events the merge hands the sweeper at a time: small enough to stay in
/// cache, large enough that the per-chunk call amortizes.
constexpr size_t kMergeChunk = 4096;

/// Merges the start runs (in file order) with the sorted end events and
/// feeds the result to `sweeper` chunk by chunk.  At equal instants ends
/// go first, so a row ending just before another starts leaves the
/// running sum at exactly zero when the active count empties.
template <bool kCountOnly>
void MergeIntoSweeper(const std::vector<StartRun>& runs,
                      const EventColumns& ends, ColumnarSweeper* sweeper) {
  EventColumns chunk;
  chunk.at.resize(kMergeChunk);
  if (!kCountOnly) chunk.dv.resize(kMergeChunk);
  chunk.dn.resize(kMergeChunk);
  size_t k = 0;
  auto flush = [&] {
    sweeper->Consume(chunk.at.data(), kCountOnly ? nullptr : chunk.dv.data(),
                     chunk.dn.data(), k);
    k = 0;
  };
  auto emit = [&](Instant at, double dv, int64_t dn) {
    chunk.at[k] = at;
    if constexpr (!kCountOnly) chunk.dv[k] = dv;
    chunk.dn[k] = dn;
    if (++k == kMergeChunk) flush();
  };
  const Instant* e_at = ends.at.data();
  const double* e_dv = ends.dv.data();
  const size_t n_ends = ends.size();
  size_t e = 0;
  for (const StartRun& run : runs) {
    const Instant* s_at = run.starts->at.data();
    const double* s_dv = run.starts->dv.data();
    size_t i = run.begin;
    // Starts and ends interleave unpredictably, so each step selects its
    // source with a comparison instead of a branch.
    while (i < run.end && e < n_ends) {
      const bool end_first = e_at[e] <= s_at[i];
      emit(end_first ? e_at[e] : s_at[i],
           kCountOnly ? 0.0 : (end_first ? e_dv[e] : s_dv[i]),
           end_first ? -1 : 1);
      e += end_first;
      i += !end_first;
    }
    for (; i < run.end; ++i) emit(s_at[i], kCountOnly ? 0.0 : s_dv[i], 1);
  }
  for (; e < n_ends; ++e) emit(e_at[e], kCountOnly ? 0.0 : e_dv[e], -1);
  if (k > 0) flush();
}

template <typename Op>
Result<AggregateSeries> RunColumnScan(const ColumnRelation& relation,
                                      const ColumnScanOptions& options,
                                      ColumnScanStats* stats_out) {
  using State = typename Op::State;
  constexpr bool kInvertible = SweepTraits<Op>::kInvertible;
  constexpr bool kCountOnly = std::is_same_v<Op, CountOp>;
  const Instant qlo = options.window.start();
  const Instant qhi = options.window.end();
  const std::vector<ColumnBlockInfo>& blocks = relation.blocks();

  ColumnScanStats stats;
  stats.blocks_total = blocks.size();

  // -------------------------------------------------------------------
  // Classify every block off the resident footer: skip, summarize, or
  // decode.  min_start is nondecreasing across blocks (the file is
  // time-sorted), so every block after the first one starting past the
  // window is skipped without further tests.
  // -------------------------------------------------------------------
  double base_sum = 0.0;  // summary baseline (invertible monoids)
  int64_t base_n = 0;
  State base_state = Op::Identity();  // summary baseline (MIN/MAX)
  std::vector<size_t> decode_list;
  for (size_t i = 0; i < blocks.size(); ++i) {
    const ColumnBlockInfo& b = blocks[i];
    if (options.prune && b.min_start > qhi) {
      // The tail of the block list all starts past the window.
      for (size_t j = i; j < blocks.size(); ++j) {
        ++stats.blocks_skipped;
        stats.bytes_pruned += blocks[j].encoded_bytes;
      }
      break;
    }
    if (options.prune && b.max_end < qlo) {
      ++stats.blocks_skipped;
      stats.bytes_pruned += b.encoded_bytes;
      continue;
    }
    if (options.prune && options.use_summaries && b.max_start <= qlo &&
        b.min_end >= qhi) {
      ++stats.blocks_summarized;
      stats.bytes_pruned += b.encoded_bytes;
      if constexpr (kInvertible) {
        base_sum += b.sum;
        base_n += static_cast<int64_t>(b.rows);
      } else {
        base_state = Op::Combine(base_state, BlockSummary<Op>(b));
      }
      continue;
    }
    decode_list.push_back(i);
  }

  // -------------------------------------------------------------------
  // Decode phase: straddling blocks routed to workers, events produced
  // per worker, merged after the join.
  // -------------------------------------------------------------------
  const size_t workers =
      std::max<size_t>(1, std::min(std::max<size_t>(
                                       options.parallel_workers, 1),
                                   std::max<size_t>(decode_list.size(), 1)));
  obs::Span decode_span(options.profile, "decode");
  std::vector<DecodeSlot> slots(workers);
  // Indexed like decode_list; each worker writes only the entries of the
  // blocks it decoded.
  std::vector<StartRun> runs(kInvertible ? decode_list.size() : 0);
  std::atomic<size_t> next{0};
  auto decode_worker = [&](size_t w) {
    const auto t0 = std::chrono::steady_clock::now();
    DecodeSlot& slot = slots[w];
    auto reader = relation.NewReader();
    if (!reader.ok()) {
      slot.status = reader.status();
      return;
    }
    std::vector<ColumnRecord> rows;
    while (true) {
      const size_t j = next.fetch_add(1);
      if (j >= decode_list.size()) break;
      const size_t bi = decode_list[j];
      rows.clear();
      if (Status st = (*reader)->ReadBlock(bi, &rows); !st.ok()) {
        slot.status = st;
        return;
      }
      ++slot.stats.blocks_decoded;
      slot.stats.bytes_decoded += blocks[bi].encoded_bytes;
      slot.stats.rows_decoded += rows.size();
      const size_t run_begin = slot.starts.size();
      for (const ColumnRecord& r : rows) {
        // Rows inside a straddling block may still miss the window; they
        // are start-sorted (ReadBlock checks), so the first one starting
        // past it ends the block.
        if (r.start > qhi) break;
        if (r.end < qlo) continue;
        const Instant s = std::max(r.start, qlo);
        const Instant e = std::min(r.end, qhi);
        const double v = static_cast<double>(r.salary);
        if constexpr (kInvertible) {
          slot.starts.at.push_back(s);
          if constexpr (!kCountOnly) slot.starts.dv.push_back(v);
          if (e < qhi) {
            slot.ends.at.push_back(e + 1);
            if constexpr (!kCountOnly) slot.ends.dv.push_back(-v);
          }
        } else {
          slot.entries.push_back({s, e, v});
        }
      }
      if constexpr (kInvertible) {
        runs[j] = {&slot.starts, run_begin, slot.starts.size()};
      }
    }
    slot.elapsed_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  };
  if (workers <= 1 || decode_list.empty()) {
    decode_worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
      pool.emplace_back(decode_worker, w);
    }
    for (std::thread& th : pool) th.join();
  }
  size_t events_total = 0;
  for (size_t w = 0; w < workers; ++w) {
    const DecodeSlot& slot = slots[w];
    TAGG_RETURN_IF_ERROR(slot.status);
    stats.blocks_decoded += slot.stats.blocks_decoded;
    stats.bytes_decoded += slot.stats.bytes_decoded;
    stats.rows_decoded += slot.stats.rows_decoded;
    events_total += kInvertible ? slot.starts.size() + slot.ends.size()
                                : slot.entries.size();
    decode_span.Annotate("w" + std::to_string(w) + "_blocks",
                         slot.stats.blocks_decoded);
    decode_span.Annotate("w" + std::to_string(w) + "_ns", slot.elapsed_ns);
  }
  decode_span.Annotate("workers", workers);
  decode_span.Annotate("blocks_decoded", stats.blocks_decoded);
  decode_span.Annotate("rows_decoded", stats.rows_decoded);
  decode_span.End();

  // -------------------------------------------------------------------
  // Sweep (invertible) or tree (MIN/MAX) over the decode output, with
  // the summary baseline folded into every emitted segment.
  // -------------------------------------------------------------------
  AggregateSeries series;
  if constexpr (kInvertible) {
    // Only the end events need sorting: gather them into one buffer and
    // radix-sort it (the scratch is freed before the merge).
    obs::Span sort_span(options.profile, "sort");
    EventColumns ends = std::move(slots[0].ends);
    for (size_t w = 1; w < workers; ++w) {
      const EventColumns& more = slots[w].ends;
      ends.at.insert(ends.at.end(), more.at.begin(), more.at.end());
      ends.dv.insert(ends.dv.end(), more.dv.begin(), more.dv.end());
    }
    {
      EventColumns scratch;
      SortEventColumns(ends, scratch);
    }
    sort_span.Annotate("end_events", ends.size());
    sort_span.End();

    obs::Span sweep_span(options.profile, "sweep");
    const SimdLevel simd = options.force_scalar_kernel
                               ? SimdLevel::kScalar
                               : ActiveSimdLevel();
    ColumnarSweeper sweeper(qlo, qhi, simd, kCountOnly);
    MergeIntoSweeper<kCountOnly>(runs, ends, &sweeper);
    sweeper.Finish();
    const std::vector<Instant>& lo = sweeper.seg_lo();
    const std::vector<Instant>& hi = sweeper.seg_hi();
    const std::vector<double>& sums = sweeper.seg_sum();
    const std::vector<int64_t>& ns = sweeper.seg_n();
    series.intervals.reserve(lo.size());
    for (size_t i = 0; i < lo.size(); ++i) {
      const State state =
          SweepTraits<Op>::Make(sums[i] + base_sum, ns[i] + base_n);
      series.intervals.push_back({Period(lo[i], hi[i]),
                                  Op::Finalize(state)});
    }
    sweep_span.Annotate("events", events_total);
    sweep_span.Annotate("intervals", series.intervals.size());
  } else {
    // The tree spans the window only: a row covering all of it costs one
    // step at the root, like a summarized block.
    obs::Span tree_span(options.profile, "tree");
    BalancedTreeAggregator<Op> tree(qlo, qhi);
    for (DecodeSlot& slot : slots) {
      for (const ClippedEntry& e : slot.entries) {
        TAGG_RETURN_IF_ERROR(tree.Add(Period(e.start, e.end), e.input));
      }
      slot.entries.clear();
    }
    TAGG_ASSIGN_OR_RETURN(std::vector<TypedInterval<State>> typed,
                          tree.FinishTyped());
    series.intervals.reserve(typed.size());
    for (const TypedInterval<State>& ti : typed) {
      const State state = Op::Combine(ti.state, base_state);
      series.intervals.push_back({Period(ti.start, ti.end),
                                  Op::Finalize(state)});
    }
    tree_span.Annotate("entries", events_total);
    tree_span.Annotate("intervals", series.intervals.size());
  }

  series.stats.tuples_processed = stats.rows_decoded;
  series.stats.relation_scans = 1;
  series.stats.work_steps = events_total;
  series.stats.nodes_allocated = events_total;
  series.stats.peak_live_nodes = events_total;
  series.stats.intervals_emitted = series.intervals.size();
  PublishScanStats(stats);
  if (stats_out != nullptr) *stats_out = stats;
  return series;
}

}  // namespace

Result<AggregateSeries> ComputeColumnScanAggregate(
    const ColumnRelation& relation, const ColumnScanOptions& options,
    ColumnScanStats* stats) {
  const bool needs_attribute =
      options.aggregate != AggregateKind::kCount ||
      options.attribute != AggregateOptions::kNoAttribute;
  if (needs_attribute && options.attribute != kColumnValueAttribute) {
    return Status::NotSupported(
        "column relations store a single value column (the salary "
        "attribute, index " +
        std::to_string(kColumnValueAttribute) +
        "); the pruned scan serves COUNT(*) and aggregates of that "
        "column only");
  }
  switch (options.aggregate) {
    case AggregateKind::kCount:
      return RunColumnScan<CountOp>(relation, options, stats);
    case AggregateKind::kSum:
      return RunColumnScan<SumOp>(relation, options, stats);
    case AggregateKind::kMin:
      return RunColumnScan<MinOp>(relation, options, stats);
    case AggregateKind::kMax:
      return RunColumnScan<MaxOp>(relation, options, stats);
    case AggregateKind::kAvg:
      return RunColumnScan<AvgOp>(relation, options, stats);
  }
  return Status::InvalidArgument("unknown aggregate kind");
}

Result<Value> ComputeColumnScanAt(const ColumnRelation& relation, Instant t,
                                  const ColumnScanOptions& options,
                                  ColumnScanStats* stats) {
  ColumnScanOptions point = options;
  point.window = Period::At(t);
  TAGG_ASSIGN_OR_RETURN(AggregateSeries series,
                        ComputeColumnScanAggregate(relation, point, stats));
  if (series.intervals.size() != 1) {
    return Status::Internal("point scan did not produce exactly one "
                            "interval");
  }
  return series.intervals[0].value;
}

}  // namespace tagg
