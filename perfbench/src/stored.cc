// stored_scan: pruned scans over columnar stored relations.
//
// Set-up writes two 1M-row TCR1 files — `short` with no long-lived tuples
// and `mixed` with 40% — and attaches each as the column backing of its
// in-memory relation.  One caller in a closed loop then runs, in a
// shuffled rotation, ComputeColumnScanAggregate over windows of 0.1%, 10%
// and 100% of the lifespan for COUNT, SUM and MAX, and full-window SQL
// COUNT(*) / SUM(salary), which the executor routes to the same scan.
// Windowed SQL cannot reach that route (a VALID OVERLAPS clause is a
// WHERE, and the route requires none), so windows call the scan directly.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>

#include "core/column_scan.h"
#include "core/workload.h"
#include "obs/metrics.h"
#include "query/executor.h"
#include "storage/column_relation.h"
#include "storage/relation_io.h"
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

constexpr size_t kRows = 1'000'000;
constexpr Instant kLifespan = 1'000'000;
constexpr size_t kWorkers = 3;
const char* const kFileNames[] = {"short", "mixed"};
const double kLongLived[] = {0.0, 0.4};

enum Width : int { kNarrow = 0, kMid = 1, kFull = 2 };
const char* const kWidthNames[] = {"narrow", "mid", "full"};
const Instant kWidthChronons[] = {kLifespan / 1000, kLifespan / 10, 0};

/// One operation of the rotation: a direct scan (width, kind) or a SQL
/// full-window query (sql = true).
struct ScanOp {
  size_t file;
  int width;
  AggregateKind kind;
  bool sql;
};

std::vector<ScanOp> MakeOps() {
  std::vector<ScanOp> ops;
  for (size_t f = 0; f < 2; ++f) {
    for (int w = kNarrow; w <= kFull; ++w) {
      for (AggregateKind k :
           {AggregateKind::kCount, AggregateKind::kSum, AggregateKind::kMax}) {
        if (k == AggregateKind::kMax && w != kNarrow) continue;
        ops.push_back({f, w, k, false});
      }
    }
    ops.push_back({f, kFull, AggregateKind::kCount, true});
    ops.push_back({f, kFull, AggregateKind::kSum, true});
  }
  return ops;
}

std::string SqlOf(const ScanOp& op) {
  return std::string("SELECT ") +
         (op.kind == AggregateKind::kCount ? "COUNT(*)" : "SUM(salary)") +
         " FROM " + kFileNames[op.file];
}

Period WindowOf(int width, tagg::Rng& rng) {
  if (width == kFull) return Period::All();
  const Instant lo = rng.Uniform(0, kLifespan - kWidthChronons[width]);
  return Period(lo, lo + kWidthChronons[width] - 1);
}

tagg::ColumnScanOptions ScanOptions(AggregateKind kind, const Period& w) {
  tagg::ColumnScanOptions o;
  o.aggregate = kind;
  o.attribute = kind == AggregateKind::kCount ? tagg::AggregateOptions::kNoAttribute
                                              : tagg::kColumnValueAttribute;
  o.window = w;
  o.parallel_workers = kWorkers;
  return o;
}

struct StoredFixture {
  tagg::Catalog catalog;
  std::shared_ptr<const tagg::ColumnRelation> files[2];
  std::vector<Row> rows[2];
  double convert_s = 0.0;
  std::map<std::pair<size_t, AggregateKind>, std::vector<ResultInterval>>
      oracle;

  const std::vector<ResultInterval>& Oracle(size_t f, AggregateKind kind) {
    auto [it, fresh] = oracle.try_emplace({f, kind});
    if (fresh) it->second = OracleSeries(rows[f], kind);
    return it->second;
  }

  Status Build(uint64_t seed, const std::string& dir) {
    for (size_t f = 0; f < 2; ++f) {
      tagg::WorkloadSpec ws;
      ws.num_tuples = kRows;
      ws.lifespan = kLifespan;
      ws.long_lived_fraction = kLongLived[f];
      ws.seed = Mix(seed, 30 + f);
      TAGG_ASSIGN_OR_RETURN(tagg::Relation generated,
                            tagg::GenerateEmployedRelation(ws));
      auto relation = std::make_shared<tagg::Relation>(generated.schema(),
                                                       kFileNames[f]);
      relation->Reserve(generated.size());
      for (const tagg::Tuple& t : generated) relation->AppendUnchecked(t);
      rows[f] = RowsOf(*relation);
      const int64_t t0 = NowNs();
      TAGG_ASSIGN_OR_RETURN(
          files[f], tagg::WriteRelationToColumnFile(
                        *relation, dir + "/" + kFileNames[f] + ".tcr1"));
      convert_s += SecondsSince(t0);
      TAGG_RETURN_IF_ERROR(catalog.Register(relation));
      TAGG_RETURN_IF_ERROR(
          catalog.AttachColumnBacking(kFileNames[f], files[f]));
    }
    return Status::OK();
  }

  double bytes_ratio() const {
    return static_cast<double>(files[0]->file_bytes() +
                               files[1]->file_bytes()) /
           (2.0 * kRows * sizeof(tagg::ColumnRecord));
  }
};

tagg::ExecutorOptions SqlOptions() {
  tagg::ExecutorOptions o;
  o.parallel_workers = kWorkers;
  o.drop_empty = false;
  return o;
}

/// Runs one op; returns the series it produced (a partition of `window`).
Result<std::vector<ResultInterval>> RunOp(const StoredFixture& fx,
                                          const ScanOp& op,
                                          const Period& window) {
  if (!op.sql) {
    TAGG_ASSIGN_OR_RETURN(
        tagg::AggregateSeries s,
        tagg::ComputeColumnScanAggregate(*fx.files[op.file],
                                         ScanOptions(op.kind, window)));
    return std::move(s.intervals);
  }
  TAGG_ASSIGN_OR_RETURN(tagg::QueryResult r,
                        tagg::RunQuery(SqlOf(op), fx.catalog, SqlOptions()));
  if (r.plan.algorithm != tagg::AlgorithmKind::kColumnScan) {
    return Status::Internal(SqlOf(op) + " did not take the column route");
  }
  std::vector<ResultInterval> out;
  out.reserve(r.rows.size());
  for (tagg::QueryResultRow& row : r.rows) {
    out.push_back({row.valid, std::move(row.values[0])});
  }
  return out;
}

}  // namespace

WorkloadResult RunStoredScan(const RunContext& ctx) {
  WorkloadResult res;
  Outcome& outcome = res.outcome;
  Samples setup;
  std::unique_ptr<StoredFixture> fx;
  Status built = TimeSetups(ctx.setup_reps, [&]() -> Status {
    fx = std::make_unique<StoredFixture>();
    TAGG_RETURN_IF_ERROR(fx->Build(ctx.seed, ctx.work_dir));
    // Warm-up: every scan kind once on a narrow window, and the SQL
    // route once per file.
    tagg::Rng warm(Mix(ctx.seed, 40));
    for (const ScanOp& op : MakeOps()) {
      if (!op.sql && op.width != kNarrow) continue;
      if (op.sql && op.kind != AggregateKind::kCount) continue;
      TAGG_RETURN_IF_ERROR(RunOp(*fx, op, WindowOf(op.width, warm)).status());
    }
    return Status::OK();
  }, &setup);
  if (!built.ok()) {
    outcome.Fail("setup: " + built.ToString());
    return res;
  }
  // Peak memory of the program with its data loaded and every op warmed,
  // read before the oracle allocates anything.
  const double rss_mb = PeakRssMb();
  if (Status st = CheckOracleAgainstReference(fx->rows[1], 400); !st.ok()) {
    outcome.Wrong(st.ToString());
  }
  const std::vector<ScanOp> ops = MakeOps();
  const size_t forms = ops.size();
  std::vector<bool> checked(ops.size(), false);
  tagg::Rng rng(Mix(ctx.seed, 41));
  const ClosedLoop run_loop = [&](double seconds, FormTimes* times) {
    const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
    std::vector<size_t> order(ops.size());
    while (NowNs() < end || times->count() < 100) {
      // A shuffled pass over every op keeps the mix identical per run.
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      rng.Shuffle(order.size(),
                  [&](size_t a, size_t b) { std::swap(order[a], order[b]); });
      for (size_t oi : order) {
        const ScanOp& op = ops[oi];
        const Period window = WindowOf(op.width, rng);
        ++outcome.attempted;
        const int64_t t0 = NowNs();
        auto series = RunOp(*fx, op, window);
        const int64_t took = NowNs() - t0;
        if (!series.ok()) {
          outcome.Fail(series.status().ToString());
          continue;
        }
        times->Add(oi, static_cast<double>(took) * 1e-6,
                   static_cast<double>(kRows));
        if (!checked[oi] || rng.Bernoulli(0.1)) {
          checked[oi] = true;
          Status st = CompareOnWindow(fx->Oracle(op.file, op.kind), *series,
                                      op.kind, window);
          if (!st.ok()) {
            outcome.Wrong(std::string(kFileNames[op.file]) + " " +
                          kWidthNames[op.width] + " " +
                          std::string(tagg::AggregateKindToString(op.kind)) +
                          (op.sql ? " (SQL)" : "") + ": " + st.ToString());
          }
        }
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
  res.details.Set("stored_bytes_ratio", fx->bytes_ratio(), "ratio");
  res.details.Set("storage.convert_s", fx->convert_s, "s");
  return res;
}

namespace {

/// What one window's pruned scans did on one file.
struct ScanCounts {
  tagg::ColumnScanStats stats;
  /// Rows of the decoded blocks whose period overlaps the window.
  uint64_t useful_rows = 0;
};

/// The per-layer windows: one narrow and one mid window per seed, the
/// same on every run with that seed.
Period LayerWindow(int width, uint64_t seed) {
  tagg::Rng rng(Mix(seed, 60 + static_cast<uint64_t>(width)));
  return WindowOf(width, rng);
}

/// Scan counts for every (width, file) at the seed's windows.
Result<std::vector<ScanCounts>> CountsOf(const StoredFixture& fx,
                                         uint64_t seed) {
  std::vector<ScanCounts> out;
  for (int w = kNarrow; w <= kMid; ++w) {
    const Period window = LayerWindow(w, seed);
    for (size_t f = 0; f < 2; ++f) {
      ScanCounts c;
      TAGG_RETURN_IF_ERROR(
          tagg::ComputeColumnScanAggregate(
              *fx.files[f], ScanOptions(AggregateKind::kCount, window),
              &c.stats)
              .status());
      // Rows overlapping the window, less those in blocks the scan
      // summarized (a block is summarized when all its rows cover the
      // window; see core/column_scan.h) — what remains was decoded.
      uint64_t overlapping = 0;
      for (const Row& r : fx.rows[f]) {
        if (r.start <= window.end() && window.start() <= r.end) ++overlapping;
      }
      uint64_t summarized = 0;
      for (const tagg::ColumnBlockInfo& b : fx.files[f]->blocks()) {
        if (b.max_start <= window.start() && b.min_end >= window.end()) {
          summarized += b.rows;
        }
      }
      c.useful_rows = overlapping - summarized;
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

void StoredLayers(const RunContext& ctx, Report* L, Outcome* outcome) {
  auto owned = std::make_unique<StoredFixture>();
  StoredFixture& fx = *owned;
  if (Status st = fx.Build(ctx.seed, ctx.work_dir); !st.ok()) {
    outcome->Fail("stored layer set-up: " + st.ToString());
    return;
  }
  L->Set("storage.convert_s", fx.convert_s, "s");
  L->Set("storage.stored_bytes_ratio", fx.bytes_ratio(), "ratio");

  // Block reads: every block of the mixed file, in order, several times.
  {
    auto reader = fx.files[1]->NewReader();
    if (!reader.ok()) {
      outcome->Fail("reader: " + reader.status().ToString());
      return;
    }
    std::vector<tagg::ColumnRecord> records;
    Samples us;
    const size_t blocks = fx.files[1]->blocks().size();
    for (size_t i = 0; i < std::max<size_t>(1000, blocks); ++i) {
      records.clear();
      ++outcome->attempted;
      const int64_t t0 = NowNs();
      if (!(*reader)->ReadBlock(i % blocks, &records).ok()) {
        outcome->Fail("ReadBlock");
      }
      us.Add(static_cast<double>(NowNs() - t0) * 1e-3);
    }
    L->Set("storage.read_block_us", us.Median(), "us");
  }

  // Scan times per width and file (COUNT), at the seed's windows.
  auto scan_ms = [&](size_t f, const Period& window, int reps) {
    Samples s;
    for (int i = 0; i < reps; ++i) {
      ++outcome->attempted;
      const int64_t t0 = NowNs();
      if (!tagg::ComputeColumnScanAggregate(
               *fx.files[f], ScanOptions(AggregateKind::kCount, window))
               .ok()) {
        outcome->Fail("scan");
      }
      s.Add(static_cast<double>(NowNs() - t0) * 1e-6);
    }
    return s.Median();
  };
  const int reps[] = {21, 9, 3};
  for (int w = kNarrow; w <= kFull; ++w) {
    const Period window = LayerWindow(w, ctx.seed);
    for (size_t f = 0; f < 2; ++f) {
      L->Set(std::string("core.scan_") + kWidthNames[w] + "_ms." +
                 kFileNames[f],
             scan_ms(f, window, reps[w]), "ms");
    }
  }
  // The SQL column route against the direct full-window scan it wraps.
  {
    Samples sql_ms;
    for (int i = 0; i < 3; ++i) {
      ++outcome->attempted;
      const int64_t t0 = NowNs();
      if (!RunOp(fx, {1, kFull, AggregateKind::kCount, true}, Period::All())
               .ok()) {
        outcome->Fail("SQL column route");
      }
      sql_ms.Add(static_cast<double>(NowNs() - t0) * 1e-6);
    }
    L->Set("query.column_route_overhead_ms",
           sql_ms.Median() - L->Get("core.scan_full_ms.mixed"), "ms");
  }

  // Pruning counts, and the check that they — and the file itself —
  // repeat exactly when the same seed is built again.
  auto first = CountsOf(fx, ctx.seed);
  const uint64_t bytes[] = {fx.files[0]->file_bytes(),
                            fx.files[1]->file_bytes()};
  owned.reset();  // one fixture in memory at a time
  StoredFixture again;
  Status rebuilt = again.Build(ctx.seed, ctx.work_dir);
  auto second = rebuilt.ok() ? CountsOf(again, ctx.seed)
                             : Result<std::vector<ScanCounts>>(rebuilt);
  if (!first.ok() || !second.ok()) {
    outcome->Fail("scan counts");
    return;
  }
  double useful_rows = 0.0;
  double decoded_rows = 0.0;
  size_t i = 0;
  for (int w = kNarrow; w <= kMid; ++w) {
    for (size_t f = 0; f < 2; ++f, ++i) {
      const ScanCounts& c = (*first)[i];
      const ScanCounts& d = (*second)[i];
      const std::string suffix =
          std::string(".") + kWidthNames[w] + "." + kFileNames[f];
      L->Set("storage.blocks_skipped" + suffix,
             static_cast<double>(c.stats.blocks_skipped), "count");
      L->Set("storage.blocks_summarized" + suffix,
             static_cast<double>(c.stats.blocks_summarized), "count");
      L->Set("storage.blocks_decoded" + suffix,
             static_cast<double>(c.stats.blocks_decoded), "count");
      L->Set("storage.bytes_decoded" + suffix,
             static_cast<double>(c.stats.bytes_decoded), "B");
      useful_rows += static_cast<double>(c.useful_rows);
      decoded_rows += static_cast<double>(c.stats.rows_decoded);
      if (c.stats.blocks_decoded != d.stats.blocks_decoded ||
          c.stats.blocks_skipped != d.stats.blocks_skipped ||
          c.stats.bytes_decoded != d.stats.bytes_decoded) {
        outcome->Wrong("scan counts differ between two builds of one seed");
      }
    }
  }
  L->Set("storage.decode_useful_frac",
         decoded_rows > 0 ? useful_rows / decoded_rows : 0.0, "ratio");
  if (bytes[0] != again.files[0]->file_bytes() ||
      bytes[1] != again.files[1]->file_bytes()) {
    outcome->Wrong("stored file bytes differ between two builds of one seed");
  }
}


}  // namespace perfbench
