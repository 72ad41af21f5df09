// batch_sql: the paper's own question — how fast is one temporal
// aggregate over a stored relation — asked through the SQL layer.
//
// One caller in a closed loop runs RunQuery with 3 parallel workers over
// two 64K-tuple Table-3 relations: `rand` in random order and `kord`
// k-ordered (k = 64, 2% of tuples displaced).  Single aggregates take the
// partitioned path (columnar sweep for COUNT/SUM, tree kernel for MAX);
// COUNT(*), AVG(salary), MAX(salary) goes through the Section 6.3 planner,
// which picks the aggregation tree for `rand` and the k-ordered tree for
// `kord`.  Every checked answer is diffed against the exact oracle.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>

#include "core/analyze.h"
#include "core/partitioned_agg.h"
#include "core/workload.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/analyzer.h"
#include "query/executor.h"
#include "query/parser.h"
#include "testing/differential.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {

using tagg::Period;
using tagg::Result;
using tagg::ResultInterval;
using tagg::Status;
using tagg::Value;

namespace {

constexpr size_t kTuples = 64 * 1024;
constexpr size_t kWorkers = 3;

struct Query {
  size_t relation;  // index into BatchFixture::relations
  std::vector<AggregateKind> aggregates;
};

const char* const kRelationNames[] = {"rand", "kord"};

/// The rotation: every single-aggregate form on both relations, and the
/// planner's multi-aggregate form on both.
std::vector<Query> MakeQueries() {
  std::vector<Query> out;
  for (size_t r = 0; r < 2; ++r) {
    out.push_back({r, {AggregateKind::kCount}});
    out.push_back({r, {AggregateKind::kSum}});
    out.push_back({r, {AggregateKind::kMax}});
    out.push_back({r,
                   {AggregateKind::kCount, AggregateKind::kAvg,
                    AggregateKind::kMax}});
  }
  return out;
}

std::string SqlOf(const Query& q) {
  std::string cols;
  for (AggregateKind k : q.aggregates) {
    if (!cols.empty()) cols += ", ";
    cols += k == AggregateKind::kCount
                ? "COUNT(*)"
                : std::string(tagg::AggregateKindToString(k)) + "(salary)";
  }
  return "SELECT " + cols + " FROM " + kRelationNames[q.relation];
}

/// Both relations, registered with their analyzed statistics, plus the
/// oracle series for every aggregate the rotation asks for.
struct BatchFixture {
  tagg::Catalog catalog;
  std::shared_ptr<tagg::Relation> relations[2];
  std::vector<Row> rows[2];
  std::map<std::pair<size_t, AggregateKind>, std::vector<ResultInterval>>
      oracle;

  const std::vector<ResultInterval>& Oracle(size_t r, AggregateKind kind) {
    auto [it, fresh] = oracle.try_emplace({r, kind});
    if (fresh) it->second = OracleSeries(rows[r], kind);
    return it->second;
  }

  Status Build(uint64_t seed) {
    for (size_t r = 0; r < 2; ++r) {
      tagg::WorkloadSpec ws;
      ws.num_tuples = kTuples;
      ws.order = r == 0 ? tagg::TupleOrder::kRandom : tagg::TupleOrder::kKOrdered;
      ws.k = 64;
      ws.k_percentage = 0.02;
      ws.seed = Mix(seed, 10 + r);
      TAGG_ASSIGN_OR_RETURN(tagg::Relation rel,
                            tagg::GenerateEmployedRelation(ws));
      relations[r] = std::make_shared<tagg::Relation>(
          tagg::Relation(rel.schema(), kRelationNames[r]));
      relations[r]->Reserve(rel.size());
      for (const tagg::Tuple& t : rel) relations[r]->AppendUnchecked(t);
      rows[r] = RowsOf(*relations[r]);
      TAGG_RETURN_IF_ERROR(catalog.Register(relations[r]));
      if (r == 1) {
        // ANALYZE declares the k-ordering the planner's rules key on; the
        // random relation carries no declaration, as loaded data would.
        TAGG_RETURN_IF_ERROR(catalog.SetStats(
            kRelationNames[r],
            tagg::ToRelationStats(tagg::AnalyzeRelation(*relations[r]))));
      }
    }
    return Status::OK();
  }
};

tagg::ExecutorOptions Options() {
  tagg::ExecutorOptions o;
  o.parallel_workers = kWorkers;
  return o;
}

Value EmptyOf(AggregateKind kind) {
  return kind == AggregateKind::kCount ? Value::Int(0) : Value::Null();
}

/// Column `col` of a query result as a partition of the whole time-line:
/// the executor drops empty intervals, so gaps are filled with the
/// aggregate's empty value.
std::vector<ResultInterval> ColumnSeries(const tagg::QueryResult& result,
                                         size_t col, AggregateKind kind) {
  std::vector<ResultInterval> out;
  Instant cursor = tagg::kOrigin;
  for (const tagg::QueryResultRow& row : result.rows) {
    if (row.valid.start() > cursor) {
      out.push_back({Period(cursor, row.valid.start() - 1), EmptyOf(kind)});
    }
    out.push_back({row.valid, row.values[col]});
    if (row.valid.end() == tagg::kForever) return out;
    cursor = row.valid.end() + 1;
  }
  out.push_back({Period(cursor, tagg::kForever), EmptyOf(kind)});
  return out;
}

/// Diffs every column of `result` against the oracle.
Status CheckResult(const Query& q, const tagg::QueryResult& result,
                   BatchFixture& fx) {
  for (size_t c = 0; c < q.aggregates.size(); ++c) {
    const AggregateKind kind = q.aggregates[c];
    Status diff = tagg::testing::CompareSeries(
        fx.Oracle(q.relation, kind), ColumnSeries(result, c, kind), kind);
    if (!diff.ok()) {
      return Status::Internal(SqlOf(q) + " column " + std::to_string(c) +
                              ": " + std::string(diff.message()));
    }
  }
  return Status::OK();
}

}  // namespace

WorkloadResult RunBatchSql(const RunContext& ctx) {
  WorkloadResult res;
  Outcome& outcome = res.outcome;
  Samples setup;
  std::unique_ptr<BatchFixture> fx;
  Status built = TimeSetups(ctx.setup_reps, [&]() -> Status {
    fx = std::make_unique<BatchFixture>();
    TAGG_RETURN_IF_ERROR(fx->Build(ctx.seed));
    // Warm-up: every query form once.
    for (const Query& q : MakeQueries()) {
      TAGG_RETURN_IF_ERROR(
          tagg::RunQuery(SqlOf(q), fx->catalog, Options()).status());
    }
    return Status::OK();
  }, &setup);
  if (!built.ok()) {
    outcome.Fail("setup: " + built.ToString());
    return res;
  }
  // Peak memory of the program with its data loaded and every query form
  // warmed, read before the oracle allocates anything.
  const double rss_mb = PeakRssMb();
  if (Status st = CheckOracleAgainstReference(fx->rows[0], 400); !st.ok()) {
    outcome.Wrong(st.ToString());
  }
  const std::vector<Query> queries = MakeQueries();
  const size_t forms = queries.size();
  std::vector<bool> checked(queries.size(), false);
  tagg::Rng rng(Mix(ctx.seed, 20));
  const ClosedLoop run_loop = [&](double seconds, FormTimes* times) {
    const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
    std::vector<size_t> order(queries.size());
    size_t next = order.size();
    while (NowNs() < end || times->count() < 100) {
      // A shuffled pass over every form keeps the mix identical per run.
      if (next == order.size()) {
        for (size_t i = 0; i < order.size(); ++i) order[i] = i;
        rng.Shuffle(order.size(),
                    [&](size_t a, size_t b) { std::swap(order[a], order[b]); });
        next = 0;
      }
      const size_t qi = order[next++];
      const Query& q = queries[qi];
      ++outcome.attempted;
      const int64_t t0 = NowNs();
      auto result = tagg::RunQuery(SqlOf(q), fx->catalog, Options());
      const int64_t took = NowNs() - t0;
      if (!result.ok()) {
        outcome.Fail(SqlOf(q) + ": " + result.status().ToString());
        continue;
      }
      times->Add(qi, static_cast<double>(took) * 1e-6,
                 static_cast<double>(fx->relations[q.relation]->size()));
      // Check each form the first time, then a seeded quarter.
      if (!checked[qi] || rng.Bernoulli(0.25)) {
        checked[qi] = true;
        Status st = CheckResult(q, *result, *fx);
        if (!st.ok()) outcome.Wrong(st.ToString());
      }
    }
  };

  if (ctx.trace) {
    PriceClosedLoopTracing(run_loop, forms, ctx.seconds, &res.layers);
    return res;
  }

  FormTimes times(forms);
  run_loop(ctx.seconds, &times);

  ReportClosedLoop(setup, times, rss_mb, &res);
  return res;
}

namespace {

/// Duration of the first span called `name` in a query's profile, in ms;
/// -1 when absent.
double SpanMs(const tagg::QueryResult& r, const char* name) {
  if (!r.profile) return -1.0;
  const tagg::obs::SpanNode* node = r.profile->Find(name);
  return node == nullptr || node->duration_ns < 0
             ? -1.0
             : static_cast<double>(node->duration_ns) * 1e-6;
}

tagg::PartitionedOptions ExecutorPartitioning() {
  // Exactly what the executor hands the partitioned path (see
  // query/executor.cc): regions = max(8, 4 * workers).
  tagg::PartitionedOptions p;
  p.aggregate = AggregateKind::kCount;
  p.parallel_workers = kWorkers;
  p.partitions = std::max<size_t>(8, kWorkers * 4);
  return p;
}

/// The deterministic counts of one fixture: the sequential tree's stats
/// and the partitioned path's region counts.
struct CoreCounts {
  tagg::ExecutionStats tree;
  uint64_t regions = 0;
  uint64_t simd_regions = 0;
  size_t partitioned_intervals = 0;
};

Result<CoreCounts> CountsOf(const BatchFixture& fx) {
  CoreCounts c;
  tagg::AggregateOptions tree;
  tree.aggregate = AggregateKind::kCount;
  tree.algorithm = tagg::AlgorithmKind::kAggregationTree;
  TAGG_ASSIGN_OR_RETURN(tagg::AggregateSeries t,
                        tagg::ComputeTemporalAggregate(*fx.relations[0], tree));
  c.tree = t.stats;
  const uint64_t r0 = CounterValue("tagg_partitioned_regions_total");
  const uint64_t s0 = CounterValue("tagg_partitioned_columnar_simd_regions_total");
  TAGG_ASSIGN_OR_RETURN(
      tagg::AggregateSeries p,
      tagg::ComputePartitionedAggregate(*fx.relations[0],
                                        ExecutorPartitioning()));
  c.regions = CounterValue("tagg_partitioned_regions_total") - r0;
  c.simd_regions =
      CounterValue("tagg_partitioned_columnar_simd_regions_total") - s0;
  c.partitioned_intervals = p.intervals.size();
  return c;
}

}  // namespace

void BatchLayers(const RunContext& ctx, Report* L, Outcome* outcome) {
  BatchFixture fx;
  if (Status st = fx.Build(ctx.seed); !st.ok()) {
    outcome->Fail("batch layer set-up: " + st.ToString());
    return;
  }
  const std::vector<Query> queries = MakeQueries();
  std::vector<std::string> sqls;
  for (const Query& q : queries) sqls.push_back(SqlOf(q));

  // Parser and analyzer, on the rotation's statements.
  const size_t kCalls = 2000;
  Samples parse_us;
  Samples analyze_us;
  for (size_t i = 0; i < kCalls; ++i) {
    const std::string& sql = sqls[i % sqls.size()];
    int64_t t0 = NowNs();
    auto stmt = tagg::ParseSelect(sql);
    parse_us.Add(static_cast<double>(NowNs() - t0) * 1e-3);
    if (!stmt.ok()) {
      outcome->Fail("parse " + sql);
      continue;
    }
    t0 = NowNs();
    auto bound = tagg::Analyze(*stmt, fx.catalog);
    analyze_us.Add(static_cast<double>(NowNs() - t0) * 1e-3);
    if (!bound.ok()) outcome->Fail("analyze " + sql);
  }
  outcome->attempted += 2 * kCalls;
  L->Set("query.parse_us", parse_us.Median(), "us");
  L->Set("query.analyze_us", analyze_us.Median(), "us");

  // The executor's EXPLAIN ANALYZE spans over two passes of the rotation.
  Samples filter_ms, group_ms, aggregate_ms, route_ms, build_ms, stitch_ms,
      rows_out, count_rand_ms;
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      ++outcome->attempted;
      const int64_t t0 = NowNs();
      auto r = tagg::RunQuery(sqls[qi], fx.catalog, Options());
      const double took_ms = static_cast<double>(NowNs() - t0) * 1e-6;
      if (!r.ok()) {
        outcome->Fail(sqls[qi]);
        continue;
      }
      if (Status st = CheckResult(queries[qi], *r, fx); !st.ok()) {
        outcome->Wrong(st.ToString());
      }
      filter_ms.Add(SpanMs(*r, "filter"));
      group_ms.Add(SpanMs(*r, "group"));
      aggregate_ms.Add(SpanMs(*r, "aggregate"));
      if (SpanMs(*r, "partitioned") >= 0) {
        route_ms.Add(SpanMs(*r, "route"));
        build_ms.Add(SpanMs(*r, "build"));
        stitch_ms.Add(SpanMs(*r, "stitch"));
      }
      rows_out.Add(static_cast<double>(r->rows.size()));
      if (qi == 0) count_rand_ms.Add(took_ms);  // COUNT(*) FROM rand
    }
  }
  L->Set("query.filter_ms", filter_ms.Median(), "ms");
  L->Set("query.group_ms", group_ms.Median(), "ms");
  L->Set("query.aggregate_ms", aggregate_ms.Median(), "ms");
  L->Set("query.rows_out", rows_out.Median(), "count");
  L->Set("core.route_ms", route_ms.Median(), "ms");
  L->Set("core.build_ms", build_ms.Median(), "ms");
  L->Set("core.stitch_ms", stitch_ms.Median(), "ms");

  // Direct core calls on the same relations.
  auto median_ms = [&](int reps, const std::function<bool()>& fn) {
    Samples s;
    for (int i = 0; i < reps; ++i) {
      ++outcome->attempted;
      const int64_t t0 = NowNs();
      if (!fn()) outcome->Fail("direct core call");
      s.Add(static_cast<double>(NowNs() - t0) * 1e-6);
    }
    return s.Median();
  };
  const double partitioned_ms = median_ms(5, [&] {
    return tagg::ComputePartitionedAggregate(*fx.relations[0],
                                             ExecutorPartitioning())
        .ok();
  });
  L->Set("core.partitioned_ms", partitioned_ms, "ms");
  L->Set("query.assemble_ms",
         count_rand_ms.Median() - partitioned_ms -
             (parse_us.Median() + analyze_us.Median()) * 1e-3,
         "ms");
  tagg::AggregateOptions tree;
  tree.aggregate = AggregateKind::kCount;
  tree.algorithm = tagg::AlgorithmKind::kAggregationTree;
  L->Set("core.tree_ms", median_ms(3, [&] {
           return tagg::ComputeTemporalAggregate(*fx.relations[0], tree).ok();
         }), "ms");
  tagg::AggregateOptions kordered;
  kordered.aggregate = AggregateKind::kCount;
  kordered.algorithm = tagg::AlgorithmKind::kKOrderedTree;
  kordered.k = 64;
  L->Set("core.kordered_ms", median_ms(3, [&] {
           return tagg::ComputeTemporalAggregate(*fx.relations[1], kordered)
               .ok();
         }), "ms");

  // Deterministic counts, and the check that they repeat exactly on a
  // second fixture generated from the same seed.
  auto first = CountsOf(fx);
  BatchFixture again;
  Status rebuilt = again.Build(ctx.seed);
  auto second = rebuilt.ok() ? CountsOf(again)
                             : Result<CoreCounts>(rebuilt);
  if (!first.ok() || !second.ok()) {
    outcome->Fail("core counts");
    return;
  }
  const CoreCounts& c = *first;
  L->Set("core.work_steps", static_cast<double>(c.tree.work_steps), "count");
  L->Set("core.nodes_allocated", static_cast<double>(c.tree.nodes_allocated),
         "count");
  L->Set("core.tree_depth", static_cast<double>(c.tree.tree_depth), "count");
  L->Set("core.intervals_emitted",
         static_cast<double>(c.tree.intervals_emitted), "count");
  L->Set("core.regions", static_cast<double>(c.regions), "count");
  L->Set("core.simd_regions", static_cast<double>(c.simd_regions), "count");
  const CoreCounts& d = *second;
  if (c.tree.work_steps != d.tree.work_steps ||
      c.tree.nodes_allocated != d.tree.nodes_allocated ||
      c.tree.intervals_emitted != d.tree.intervals_emitted ||
      c.regions != d.regions ||
      c.partitioned_intervals != d.partitioned_intervals) {
    outcome->Wrong("core counts differ between two fixtures of one seed");
  }
}


}  // namespace perfbench
