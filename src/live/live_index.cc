#include "live/live_index.h"

#include "live/cow_index.h"
#include "util/str.h"

namespace tagg {

namespace internal {

obs::Histogram& LiveProbeSeconds() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      "tagg_live_probe_seconds",
      "Latency of live-index point, range, and fold queries");
  return h;
}

obs::Counter& LiveInsertsTotal() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tagg_live_inserts_total",
      "Tuples folded into live indexes (ingest rate source)");
  return c;
}

obs::Counter& LiveProbesTotal() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tagg_live_probes_total",
      "Live-index queries served (point + range + fold)");
  return c;
}

}  // namespace internal

std::string LiveIndexStats::ToString() const {
  return StringPrintf(
      "epoch=%llu absorbed=%llu queries=%llu age=%.3fs depth=%zu "
      "nodes=%zu bytes=%zu (paper %zu) versions=%llu retired=%llu "
      "reclaimed=%llu pending=%zu",
      static_cast<unsigned long long>(epoch),
      static_cast<unsigned long long>(inserts_absorbed),
      static_cast<unsigned long long>(queries_served),
      snapshot_age_seconds, tree_depth, live_nodes, live_bytes,
      paper_bytes, static_cast<unsigned long long>(versions_published),
      static_cast<unsigned long long>(nodes_retired),
      static_cast<unsigned long long>(nodes_reclaimed), retired_pending);
}

Status LiveAggregateIndex::InsertTuple(const Tuple& tuple) {
  const LiveIndexOptions& opts = options();
  const bool needs_attribute =
      opts.aggregate != AggregateKind::kCount ||
      opts.attribute != AggregateOptions::kNoAttribute;
  double input = 0.0;
  if (needs_attribute) {
    if (opts.attribute >= tuple.arity()) {
      return Status::InvalidArgument(StringPrintf(
          "live index aggregates attribute %zu but tuple has arity %zu",
          opts.attribute, tuple.arity()));
    }
    const Value& v = tuple.value(opts.attribute);
    // SQL semantics, matching ComputeTemporalAggregate: aggregates skip
    // NULL inputs, and COUNT(attr) counts only non-null values.  The
    // epoch still advances so freshness checks see the tuple.
    if (v.is_null()) {
      NoteSkippedTuple();
      return Status::OK();
    }
    if (opts.aggregate != AggregateKind::kCount) {
      TAGG_ASSIGN_OR_RETURN(input, v.ToNumeric());
    }
  }
  return Insert(tuple.valid(), input);
}

Status LiveAggregateIndex::InsertTuples(const std::vector<Tuple>& tuples) {
  const LiveIndexOptions& opts = options();
  const bool needs_attribute =
      opts.aggregate != AggregateKind::kCount ||
      opts.attribute != AggregateOptions::kNoAttribute;
  std::vector<std::pair<Period, double>> batch;
  batch.reserve(tuples.size());
  size_t skipped = 0;
  for (const Tuple& tuple : tuples) {
    double input = 0.0;
    if (needs_attribute) {
      if (opts.attribute >= tuple.arity()) {
        return Status::InvalidArgument(StringPrintf(
            "live index aggregates attribute %zu but tuple has arity %zu",
            opts.attribute, tuple.arity()));
      }
      const Value& v = tuple.value(opts.attribute);
      if (v.is_null()) {
        ++skipped;
        continue;
      }
      if (opts.aggregate != AggregateKind::kCount) {
        TAGG_ASSIGN_OR_RETURN(input, v.ToNumeric());
      }
    }
    batch.emplace_back(tuple.valid(), input);
  }
  TAGG_RETURN_IF_ERROR(InsertBatch(batch));
  // NULL inputs advance the epoch without contributing, exactly like
  // InsertTuple; the tree is order-independent (commutative monoid), so
  // accounting for them after the batch publish is equivalent.
  for (size_t i = 0; i < skipped; ++i) NoteSkippedTuple();
  return Status::OK();
}

Result<std::unique_ptr<LiveAggregateIndex>> LiveAggregateIndex::Create(
    const LiveIndexOptions& options) {
  if (options.aggregate != AggregateKind::kCount &&
      options.attribute == AggregateOptions::kNoAttribute) {
    return Status::InvalidArgument(
        std::string(AggregateKindToString(options.aggregate)) +
        " live index requires an attribute to aggregate");
  }
  const auto make =
      [&options](auto op) -> Result<std::unique_ptr<LiveAggregateIndex>> {
    return std::unique_ptr<LiveAggregateIndex>(
        new internal::CowLiveIndexImpl<decltype(op)>(options, op));
  };
  switch (options.aggregate) {
    case AggregateKind::kCount: return make(CountOp());
    case AggregateKind::kSum: return make(SumOp());
    case AggregateKind::kMin: return make(MinOp());
    case AggregateKind::kMax: return make(MaxOp());
    case AggregateKind::kAvg: return make(AvgOp());
  }
  return Status::InvalidArgument("unknown aggregate kind");
}

}  // namespace tagg
