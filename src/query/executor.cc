#include "query/executor.h"

#include <algorithm>
#include <cstdlib>
#include <map>

#include "core/column_scan.h"
#include "core/multi_agg.h"
#include "core/partitioned_agg.h"
#include "core/span_agg.h"
#include "storage/column_relation.h"
#include "obs/metrics.h"
#include "query/parser.h"
#include "util/env.h"
#include "util/str.h"

namespace tagg {
namespace {

Result<bool> EvalPredicate(const BoundPredicate& pred, const Tuple& tuple) {
  switch (pred.kind) {
    case Predicate::Kind::kComparison: {
      const Value& v = tuple.value(pred.attribute);
      // SQL three-valued logic collapsed to two: comparisons against NULL
      // are false.
      if (v.is_null()) return false;
      TAGG_ASSIGN_OR_RETURN(int cmp, v.Compare(pred.literal));
      switch (pred.op) {
        case CompareOp::kEq:
          return cmp == 0;
        case CompareOp::kNe:
          return cmp != 0;
        case CompareOp::kLt:
          return cmp < 0;
        case CompareOp::kLe:
          return cmp <= 0;
        case CompareOp::kGt:
          return cmp > 0;
        case CompareOp::kGe:
          return cmp >= 0;
      }
      return Status::Internal("unknown comparison op");
    }
    case Predicate::Kind::kValidOverlaps:
      return tuple.valid().Overlaps(pred.period);
    case Predicate::Kind::kAnd: {
      TAGG_ASSIGN_OR_RETURN(bool l, EvalPredicate(*pred.lhs, tuple));
      if (!l) return false;
      return EvalPredicate(*pred.rhs, tuple);
    }
    case Predicate::Kind::kOr: {
      TAGG_ASSIGN_OR_RETURN(bool l, EvalPredicate(*pred.lhs, tuple));
      if (l) return true;
      return EvalPredicate(*pred.rhs, tuple);
    }
    case Predicate::Kind::kNot: {
      TAGG_ASSIGN_OR_RETURN(bool l, EvalPredicate(*pred.lhs, tuple));
      return !l;
    }
  }
  return Status::Internal("unknown predicate kind");
}

/// Deterministic ordering of group keys for stable result order.
struct GroupKeyLess {
  bool operator()(const std::vector<Value>& a,
                  const std::vector<Value>& b) const {
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      auto cmp = a[i].Compare(b[i]);
      const int c = cmp.ok() ? cmp.value() : 0;
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  }
};

/// The "no tuples here" value of an aggregate, used when dropping empty
/// rows: COUNT() of an empty set is 0, the others are NULL.
Value EmptyValueOf(AggregateKind kind) {
  return kind == AggregateKind::kCount ? Value::Int(0) : Value::Null();
}

obs::Counter& QueriesTotal() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tagg_query_executions_total", "SELECT statements executed");
  return c;
}

obs::Histogram& QuerySeconds() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      "tagg_query_seconds", "end-to-end ExecuteSelect latency");
  return h;
}

obs::Counter& PartitionedRoutedTotal() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tagg_query_partitioned_routed_total",
      "queries evaluated through the parallel partitioned path");
  return c;
}

obs::Counter& ShardRoutedTotal() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tagg_query_shard_routed_total",
      "queries answered scatter-gather by the sharded live index");
  return c;
}

obs::Counter& ColumnScanRoutedTotal() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tagg_query_column_scan_routed_total",
      "queries served by the pruned scan over a columnar backing");
  return c;
}

/// Resolves the worker count: explicit option, else the TAGG_WORKERS
/// environment variable (hardened: garbage, negatives, and huge values
/// warn and clamp — util/env.h), else 1 (sequential).
size_t ResolveWorkers(size_t requested) {
  if (requested > 0) return requested;
  return ResolveCountEnv("TAGG_WORKERS", 1, 256);
}

/// The relation's columnar backing when it can answer `agg` exactly: the
/// file holds the relation's current rows and the aggregate targets the
/// stored value column, or is COUNT(*) (stored files hold no NULLs).
std::shared_ptr<const ColumnRelation> FreshColumnBacking(
    const BoundQuery& query, const BoundAggregate& agg) {
  const bool attribute_ok =
      agg.attribute == kColumnValueAttribute ||
      (agg.kind == AggregateKind::kCount &&
       agg.attribute == AggregateOptions::kNoAttribute);
  if (!attribute_ok) return nullptr;
  auto backing =
      std::dynamic_pointer_cast<const ColumnRelation>(query.column_backing);
  if (backing == nullptr || backing->row_count() != query.relation->size()) {
    return nullptr;
  }
  return backing;
}

/// The `movable` argument of RowAssembler::Append when every aggregate
/// value is consumed by its row.
constexpr auto kAlwaysMovable = [](size_t) { return true; };

/// Builds result rows in place.  Drop-empty is decided on the aggregate
/// values before a row exists; with options.coalesce (TSQL2 coalescing) a
/// row equal to the last one over a period it meets extends that row;
/// otherwise the output columns are filled straight into a new row.
class RowAssembler {
 public:
  RowAssembler(const BoundQuery& query, const ExecutorOptions& options,
               std::vector<QueryResultRow>& rows)
      : columns_(query.columns),
        drop_empty_(options.drop_empty),
        coalesce_(options.coalesce),
        rows_(rows) {
    for (const BoundAggregate& agg : query.aggregates) {
      empty_.push_back(EmptyValueOf(agg.kind));
    }
    // Output columns that are exactly the aggregates in order are filled
    // from the aggregate values with no projection.
    in_order_ = columns_.size() == empty_.size();
    for (size_t c = 0; in_order_ && c < columns_.size(); ++c) {
      in_order_ = columns_[c].is_aggregate && columns_[c].index == c;
    }
  }

  /// The group whose rows follow; its key fills the GROUP BY columns.
  void set_key(const std::vector<Value>& key) { key_ = &key; }

  /// Appends the row whose j-th aggregate value is value(j) over `valid`.
  /// value(j) is moved into the row when movable(j), else copied.
  template <typename ValueAt, typename Movable>
  void Append(const ValueAt& value, const Movable& movable,
              const Period& valid) {
    if (drop_empty_) {
      bool empty = true;
      for (size_t j = 0; empty && j < empty_.size(); ++j) {
        empty = value(j) == empty_[j];
      }
      if (empty) return;
    }
    auto column = [&](size_t c) -> const Value& {
      if (in_order_) return value(c);
      const BoundOutputColumn& col = columns_[c];
      return col.is_aggregate ? value(col.index) : (*key_)[col.index];
    };
    if (coalesce_ && !rows_.empty() && rows_.back().valid.MeetsBefore(valid)) {
      QueryResultRow& last = rows_.back();
      bool equal = true;
      for (size_t c = 0; equal && c < columns_.size(); ++c) {
        equal = last.values[c] == column(c);
      }
      if (equal) {
        last.valid = Period(last.valid.start(), valid.end());
        return;
      }
    }
    QueryResultRow& row = rows_.emplace_back();
    row.valid = valid;
    row.values.reserve(columns_.size());
    for (size_t c = 0; c < columns_.size(); ++c) {
      if (in_order_ && movable(c)) {
        row.values.push_back(std::move(value(c)));
      } else {
        row.values.push_back(column(c));
      }
    }
  }

 private:
  const std::vector<BoundOutputColumn>& columns_;
  const bool drop_empty_;
  const bool coalesce_;
  std::vector<QueryResultRow>& rows_;
  std::vector<Value> empty_;  // each aggregate's "no tuples here" value
  bool in_order_ = true;
  const std::vector<Value>* key_ = nullptr;
};

/// Result rows of a routed single-aggregate query's series, timed as the
/// `assemble` span.
std::vector<QueryResultRow> SeriesRows(const BoundQuery& query,
                                       std::vector<ResultInterval> intervals,
                                       const ExecutorOptions& options) {
  obs::Span assemble_span(options.profile, "assemble");
  std::vector<QueryResultRow> rows;
  rows.reserve(intervals.size());
  RowAssembler assembler(query, options, rows);
  for (ResultInterval& ri : intervals) {
    assembler.Append([&](size_t) -> Value& { return ri.value; },
                     kAlwaysMovable, ri.period);
  }
  assemble_span.Annotate("rows", rows.size());
  return rows;
}

}  // namespace

std::string QueryResult::ToString(size_t max_rows) const {
  std::vector<std::string> headers = column_names;
  headers.push_back("VALID");
  std::vector<std::vector<std::string>> cells;
  const size_t shown = std::min(max_rows, rows.size());
  for (size_t r = 0; r < shown; ++r) {
    std::vector<std::string> row;
    for (const Value& v : rows[r].values) row.push_back(v.ToString());
    row.push_back(rows[r].valid.ToString());
    cells.push_back(std::move(row));
  }
  std::vector<size_t> widths(headers.size());
  for (size_t c = 0; c < headers.size(); ++c) {
    widths[c] = headers[c].size();
    for (const auto& row : cells) widths[c] = std::max(widths[c],
                                                       row[c].size());
  }
  std::string out;
  auto append_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      out += row[c];
      out.append(widths[c] - row[c].size() + 2, ' ');
    }
    out += "\n";
  };
  append_row(headers);
  for (size_t c = 0; c < headers.size(); ++c) {
    out.append(widths[c], '-');
    out.append(2, ' ');
  }
  out += "\n";
  for (const auto& row : cells) append_row(row);
  if (shown < rows.size()) {
    out += "... (" + std::to_string(rows.size() - shown) + " more rows)\n";
  }
  return out;
}

std::string QueryResult::ExplainAnalyzeString() const {
  std::string out = "Plan: ";
  out += AlgorithmKindToString(plan.algorithm);
  if (plan.algorithm == AlgorithmKind::kKOrderedTree) {
    out += " (k=" + std::to_string(plan.k) +
           (plan.presort ? ", presort" : "") + ")";
  }
  out += "\n  " + plan.rationale + "\n";
  if (profile != nullptr) {
    out += profile->Render();
  }
  return out;
}

Result<QueryResult> ExecuteSelect(const BoundQuery& query,
                                  const ExecutorOptions& options) {
  const Relation& relation = *query.relation;
  QueriesTotal().Increment();
  obs::ScopedLatencyTimer latency_timer(QuerySeconds());
  obs::QueryProfile* profile = options.profile;
  obs::Span exec_span(profile, "execute");
  exec_span.Annotate("relation", relation.name());
  exec_span.Annotate("input_tuples", relation.size());

  // 0. Resident routing: a single-aggregate instant-grouped query without
  // WHERE or GROUP BY is answered from state that already holds the
  // relation's aggregate instead of re-aggregating the in-memory tuples:
  //   * the sharded live index (src/shard), scatter-gather across the
  //     topology, when every shard has absorbed exactly the relation's
  //     current contents;
  //   * else the columnar backing file, by the pruned scan
  //     (core/column_scan) — zone-map skipping, footer-summary
  //     composition, and decode only where needed — when the file holds
  //     exactly the relation's rows.
  // A forced algorithm admits only the source that implements it.
  // Anything else falls through to the batch path below.
  if (query.where == nullptr && query.group_attributes.empty() &&
      query.aggregates.size() == 1 &&
      query.temporal.kind == TemporalGrouping::Kind::kInstant) {
    auto allows = [&](AlgorithmKind kind) {
      return !options.force_algorithm.has_value() ||
             *options.force_algorithm == kind;
    };
    const BoundAggregate& agg = query.aggregates[0];
    const shard::ShardedLiveService* sharded = options.sharded_service;
    if (sharded != nullptr &&
        (!allows(AlgorithmKind::kLiveIndex) ||
         !sharded->ServesFresh(relation, agg.kind, agg.attribute))) {
      sharded = nullptr;
    }
    std::shared_ptr<const ColumnRelation> backing;
    if (sharded == nullptr && allows(AlgorithmKind::kColumnScan)) {
      backing = FreshColumnBacking(query, agg);
    }
    if (sharded != nullptr || backing != nullptr) {
      QueryResult routed;
      routed.analyzed = query.analyze;
      for (const BoundOutputColumn& col : query.columns) {
        routed.column_names.push_back(col.name);
      }
      const bool plan_only = query.explain && !query.analyze;
      AggregateSeries series;
      if (sharded != nullptr) {
        routed.plan.algorithm = AlgorithmKind::kLiveIndex;
        routed.plan.rationale =
            "served scatter-gather from the sharded live index for '" +
            relation.name() + "' (" + std::to_string(sharded->num_shards()) +
            " shard(s), topology v" +
            std::to_string(sharded->topology_version()) + ")";
        if (plan_only) return routed;
        ShardRoutedTotal().Increment();
        obs::Span probe_span(profile, "shard_scatter");
        probe_span.Annotate("shards", sharded->num_shards());
        TAGG_ASSIGN_OR_RETURN(
            series, sharded->AggregateOver(relation.name(), agg.kind,
                                           agg.attribute, Period::All(),
                                           /*coalesce=*/false));
        probe_span.Annotate("intervals", series.intervals.size());
      } else {
        routed.plan.algorithm = AlgorithmKind::kColumnScan;
        routed.plan.rationale =
            "pruned scan over the columnar backing '" + backing->path() +
            "' (" + std::to_string(backing->blocks().size()) +
            " block(s); zone-map skipping + footer summaries)";
        if (plan_only) return routed;
        ColumnScanRoutedTotal().Increment();
        obs::Span scan_span(profile, "column_scan");
        ColumnScanOptions copts;
        copts.aggregate = agg.kind;
        copts.attribute = agg.attribute;
        copts.window = Period::All();
        copts.parallel_workers = ResolveWorkers(options.parallel_workers);
        copts.profile = profile;
        ColumnScanStats scan_stats;
        TAGG_ASSIGN_OR_RETURN(
            series, ComputeColumnScanAggregate(*backing, copts, &scan_stats));
        scan_span.Annotate("blocks_total", scan_stats.blocks_total);
        scan_span.Annotate("blocks_skipped", scan_stats.blocks_skipped);
        scan_span.Annotate("blocks_summarized", scan_stats.blocks_summarized);
        scan_span.Annotate("blocks_decoded", scan_stats.blocks_decoded);
        scan_span.Annotate("rows_decoded", scan_stats.rows_decoded);
        scan_span.Annotate("intervals", series.intervals.size());
      }
      routed.rows = SeriesRows(query, std::move(series.intervals), options);
      return routed;
    }
  }
  if (options.force_algorithm == AlgorithmKind::kColumnScan) {
    return Status::InvalidArgument(
        "column scan was forced but the query is not a single-aggregate "
        "instant-grouped query without WHERE or GROUP BY, or the "
        "relation's columnar backing is missing, stale, or does not store "
        "the aggregated attribute");
  }

  // 1. Filter.  Without WHERE the relation is aggregated in place.
  obs::Span filter_span(profile, "filter");
  Relation filtered(relation.schema(), relation.name());
  if (query.where != nullptr) {
    for (const Tuple& t : relation) {
      TAGG_ASSIGN_OR_RETURN(bool keep, EvalPredicate(*query.where, t));
      if (keep) filtered.AppendUnchecked(t);
    }
  }
  const Relation& input = query.where == nullptr ? relation : filtered;
  filter_span.Annotate("tuples_in", relation.size());
  filter_span.Annotate("tuples_out", input.size());
  filter_span.End();

  // 2. Plan (Section 6.3 rules, unless overridden).
  obs::Span plan_span(profile, "plan");
  PlannerInput planner_input;
  planner_input.num_tuples = input.size();
  planner_input.sorted = query.stats.known_sorted || input.IsSortedByTime();
  planner_input.declared_k = query.stats.declared_k;
  planner_input.memory_budget_bytes = options.memory_budget_bytes;
  if (query.temporal.kind == TemporalGrouping::Kind::kSpan &&
      query.temporal.has_window) {
    const Instant width =
        query.temporal.window_end - query.temporal.window_start + 1;
    planner_input.expected_result_intervals = static_cast<size_t>(
        (width + query.temporal.span_width - 1) / query.temporal.span_width);
  }
  Plan plan = ChoosePlan(planner_input);
  if (options.force_algorithm.has_value()) {
    plan.algorithm = *options.force_algorithm;
    plan.rationale = "forced by executor options";
  }
  // Parallel partitioned routing: with workers > 1 (from the option or
  // TAGG_WORKERS), an instant-grouped query is evaluated region by region
  // with parallel routing and builds, one evaluation per aggregate.  A
  // forced algorithm other than kPartitioned is respected as-is.
  const size_t workers = ResolveWorkers(options.parallel_workers);
  const bool partitioned_eligible =
      query.temporal.kind == TemporalGrouping::Kind::kInstant;
  if (partitioned_eligible &&
      (options.force_algorithm == AlgorithmKind::kPartitioned ||
       (workers > 1 && !options.force_algorithm.has_value()))) {
    plan.algorithm = AlgorithmKind::kPartitioned;
    plan.rationale = "parallel partitioned evaluation with " +
                     std::to_string(workers) +
                     " worker(s): sharded routing, per-region builds, "
                     "stitched result";
  }
  if (plan.algorithm == AlgorithmKind::kPartitioned &&
      !partitioned_eligible) {
    return Status::InvalidArgument(
        "partitioned evaluation requires instant grouping; span grouping "
        "uses the sequential algorithms");
  }
  plan_span.Annotate("algorithm", AlgorithmKindToString(plan.algorithm));
  plan_span.Annotate("workers", workers);
  if (plan.algorithm == AlgorithmKind::kKOrderedTree) {
    plan_span.Annotate("k", plan.k);
  }
  plan_span.End();

  // EXPLAIN: report the chosen plan without executing.  EXPLAIN ANALYZE
  // falls through and executes so the profile carries real timings.
  if (query.explain && !query.analyze) {
    QueryResult explained;
    explained.plan = plan;
    for (const BoundOutputColumn& col : query.columns) {
      explained.column_names.push_back(col.name);
    }
    return explained;
  }

  // 3. Group by value (Section 4.1's aggregation sets), preserving tuple
  // order within each group so sortedness properties survive.  Without
  // GROUP BY the one group is the input itself (none when it is empty).
  obs::Span group_span(profile, "group");
  std::map<std::vector<Value>, std::vector<size_t>, GroupKeyLess> groups;
  if (!query.group_attributes.empty()) {
    for (size_t i = 0; i < input.size(); ++i) {
      std::vector<Value> key;
      key.reserve(query.group_attributes.size());
      for (size_t attr : query.group_attributes) {
        key.push_back(input.tuple(i).value(attr));
      }
      groups[std::move(key)].push_back(i);
    }
  }
  const bool single_group = query.group_attributes.empty() && !input.empty();
  group_span.Annotate("groups", single_group ? 1 : groups.size());
  group_span.End();

  // Span grouping shares one window across groups: explicit bounds, or the
  // filtered relation's lifespan.
  Period span_window;
  if (query.temporal.kind == TemporalGrouping::Kind::kSpan) {
    if (query.temporal.has_window) {
      TAGG_ASSIGN_OR_RETURN(span_window,
                            Period::Make(query.temporal.window_start,
                                         query.temporal.window_end));
    } else {
      if (input.empty()) {
        return Status::InvalidArgument(
            "span grouping without FROM/TO requires a non-empty relation "
            "to derive the window");
      }
      TAGG_ASSIGN_OR_RETURN(span_window, input.Lifespan());
    }
  }

  QueryResult result;
  result.plan = plan;
  result.analyzed = query.analyze;
  for (const BoundOutputColumn& col : query.columns) {
    result.column_names.push_back(col.name);
  }

  // 4. Aggregate each group and append its rows in one pass that drops
  // empty rows, projects the output columns and coalesces neighbours.
  obs::Span agg_span(profile, "aggregate");
  ExecutionStats agg_stats;  // accumulated across groups
  agg_stats.relation_scans = 0;
  size_t intervals_total = 0;
  RowAssembler assembler(query, options, result.rows);
  auto absorb_stats = [&](const ExecutionStats& stats) {
    agg_stats.work_steps += stats.work_steps;
    agg_stats.nodes_allocated += stats.nodes_allocated;
    agg_stats.peak_live_nodes =
        std::max(agg_stats.peak_live_nodes, stats.peak_live_nodes);
    agg_stats.peak_paper_bytes =
        std::max(agg_stats.peak_paper_bytes, stats.peak_paper_bytes);
    agg_stats.tree_depth = std::max(agg_stats.tree_depth, stats.tree_depth);
  };

  auto aggregate_group = [&](const Relation& group_relation,
                             const std::vector<Value>& key) -> Status {
    assembler.set_key(key);
    if (query.temporal.kind == TemporalGrouping::Kind::kSpan) {
      // Span grouping: fixed buckets, one series per aggregate, zipped
      // (boundaries are the spans, identical by construction).
      std::vector<AggregateSeries> per_aggregate;
      per_aggregate.reserve(query.aggregates.size());
      for (const BoundAggregate& agg : query.aggregates) {
        SpanAggregateOptions span_options;
        span_options.aggregate = agg.kind;
        span_options.attribute = agg.attribute;
        span_options.window = span_window;
        span_options.span_width = query.temporal.span_width;
        TAGG_ASSIGN_OR_RETURN(
            AggregateSeries series,
            ComputeSpanAggregate(group_relation, span_options));
        agg_stats.work_steps += series.stats.work_steps;
        agg_stats.nodes_allocated += series.stats.nodes_allocated;
        per_aggregate.push_back(std::move(series));
      }
      const std::vector<ResultInterval>& spans = per_aggregate[0].intervals;
      for (size_t i = 0; i < spans.size(); ++i) {
        assembler.Append(
            [&](size_t j) -> Value& {
              return per_aggregate[j].intervals[i].value;
            },
            kAlwaysMovable, spans[i].period);
      }
      intervals_total += spans.size();
      return Status::OK();
    }
    if (plan.algorithm == AlgorithmKind::kPartitioned) {
      // Parallel partitioned path: each aggregate evaluated separately
      // (Epstein's recipe, Section 3), region by region with `workers`
      // threads in both phases.
      PartitionedRoutedTotal().Increment();
      std::vector<AggregateSeries> per_aggregate;
      per_aggregate.reserve(query.aggregates.size());
      size_t longest = 0;
      for (const BoundAggregate& agg : query.aggregates) {
        PartitionedOptions popts;
        popts.aggregate = agg.kind;
        popts.attribute = agg.attribute;
        popts.parallel_workers = workers;
        // Enough regions that work-stealing balances uneven tuple density.
        popts.partitions = std::max<size_t>(8, workers * 4);
        popts.profile = profile;
        TAGG_ASSIGN_OR_RETURN(
            AggregateSeries series,
            ComputePartitionedAggregate(group_relation, popts));
        absorb_stats(series.stats);
        longest = std::max(longest, series.intervals.size());
        per_aggregate.push_back(std::move(series));
      }
      obs::Span assemble_span(profile, "assemble");
      const size_t rows_before = result.rows.size();
      if (single_group) result.rows.reserve(longest);
      // Zip over the common refinement: every series partitions
      // [kOrigin, kForever], so each row ends at the smallest end under
      // the cursors, and a series whose interval ends there moves its
      // value out and advances.  A NULL input drops a tuple from one
      // series only, so the rows keep the fused pass's boundaries.
      std::vector<size_t> cursor(per_aggregate.size(), 0);
      auto current = [&](size_t j) -> ResultInterval& {
        return per_aggregate[j].intervals[cursor[j]];
      };
      Instant lo = kOrigin;
      while (true) {
        Instant hi = kForever;
        for (size_t j = 0; j < per_aggregate.size(); ++j) {
          hi = std::min(hi, current(j).period.end());
        }
        auto ends_here = [&](size_t j) {
          return current(j).period.end() == hi;
        };
        assembler.Append(
            [&](size_t j) -> Value& { return current(j).value; },
            ends_here, Period(lo, hi));
        for (size_t j = 0; j < per_aggregate.size(); ++j) {
          if (ends_here(j)) ++cursor[j];
        }
        ++intervals_total;
        if (hi == kForever) break;
        lo = hi + 1;
      }
      assemble_span.Annotate("rows", result.rows.size() - rows_before);
      return Status::OK();
    }
    // Instant grouping: all aggregates fused into one algorithm pass
    // (MultiOp), so the constant intervals are computed once per group
    // rather than once per aggregate.
    MultiAggregateOptions multi;
    multi.specs.reserve(query.aggregates.size());
    for (const BoundAggregate& agg : query.aggregates) {
      multi.specs.push_back({agg.kind, agg.attribute});
    }
    multi.algorithm = plan.algorithm;
    multi.k = plan.k;
    multi.presort = plan.presort;
    auto series = ComputeMultiAggregate(group_relation, multi);
    if (!series.ok() && series.status().IsInvalidArgument() &&
        plan.algorithm == AlgorithmKind::kKOrderedTree && !plan.presort) {
      // The declared k-ordering was wrong for this partition; fall back
      // to the paper's safe strategy: sort, then k = 1.
      multi.presort = true;
      multi.k = 1;
      series = ComputeMultiAggregate(group_relation, multi);
    }
    if (!series.ok()) return series.status();
    absorb_stats(series->stats);
    intervals_total += series->periods.size();
    if (single_group) result.rows.reserve(series->periods.size());
    for (size_t i = 0; i < series->periods.size(); ++i) {
      assembler.Append(
          [&](size_t j) -> Value& { return series->values[i][j]; },
          kAlwaysMovable, series->periods[i]);
    }
    return Status::OK();
  };

  if (single_group) TAGG_RETURN_IF_ERROR(aggregate_group(input, {}));
  for (const auto& [key, indices] : groups) {
    Relation group_relation(input.schema(), input.name());
    group_relation.Reserve(indices.size());
    for (size_t i : indices) group_relation.AppendUnchecked(input.tuple(i));
    TAGG_RETURN_IF_ERROR(aggregate_group(group_relation, key));
  }
  agg_span.Annotate("intervals", intervals_total);
  agg_span.Annotate("work_steps", agg_stats.work_steps);
  agg_span.Annotate("nodes_allocated", agg_stats.nodes_allocated);
  agg_span.Annotate("peak_live_nodes", agg_stats.peak_live_nodes);
  agg_span.Annotate("paper_bytes", agg_stats.peak_paper_bytes);
  agg_span.Annotate("tree_depth", agg_stats.tree_depth);
  agg_span.End();

  exec_span.Annotate("rows_out", result.rows.size());
  return result;
}

Result<QueryResult> RunQuery(std::string_view sql, const Catalog& catalog,
                             const ExecutorOptions& options) {
  // Every result carries its trace tree; the spans cost two clock reads
  // each and are recorded per query, not per tuple.
  auto profile = std::make_shared<obs::QueryProfile>();
  obs::Span parse_span(profile.get(), "parse");
  auto stmt = ParseSelect(sql);
  parse_span.End();
  if (!stmt.ok()) return stmt.status();

  obs::Span analyze_span(profile.get(), "analyze");
  auto bound = Analyze(stmt.value(), catalog);
  analyze_span.End();
  if (!bound.ok()) return bound.status();

  ExecutorOptions traced = options;
  if (traced.profile == nullptr) traced.profile = profile.get();
  auto result = ExecuteSelect(bound.value(), traced);
  profile->Finish();
  if (!result.ok()) return result.status();
  QueryResult out = std::move(result).value();
  if (out.profile == nullptr && traced.profile == profile.get()) {
    out.profile = std::move(profile);
  }
  return out;
}

}  // namespace tagg
