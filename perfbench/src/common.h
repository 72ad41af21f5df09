// Shared plumbing for the perfbench workloads: clocks, sample statistics,
// the metric report, the exact oracle every workload checks against, and
// the run context parsed from the command line.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/aggregates.h"
#include "temporal/relation.h"

namespace perfbench {

using tagg::AggregateKind;
using tagg::Instant;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// A bag of measurements with nearest-rank quantiles.
class Samples {
 public:
  void Add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    sorted_ = false;
  }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  /// Nearest-rank quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Max() const { return Quantile(1.0); }

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

/// Closed-loop query times kept per query form.  A run's mix holds every
/// form equally often, and its forms' times span orders of magnitude, so
/// the summaries are geometric means over forms of per-form statistics:
/// unlike the median of all samples, they do not jump when the middle of
/// the mix falls in a gap between two forms' times.
class FormTimes {
 public:
  explicit FormTimes(size_t forms) : ms_(forms), tuples_(forms, 0.0) {}
  void Add(size_t form, double ms, double tuples) {
    ms_[form].Add(ms);
    all_ms.Add(ms);
    tuples_[form] = tuples;
  }
  size_t count() const { return all_ms.size(); }
  /// Geometric mean over forms of each form's median time.
  double TypicalMs() const;
  /// Geometric mean over forms of each form's 90th-percentile time.
  double TailMs() const;
  /// Input tuples per second of query time, one query of each form.
  double TuplesPerSecond() const;

  Samples all_ms;

 private:
  std::vector<Samples> ms_;
  std::vector<double> tuples_;
};

/// Times `reps` set-ups.  All but the last run in forked children, so
/// their memory never reaches this process's peak; the last runs here and
/// leaves its fixture with the caller.  Fails if any set-up fails.
tagg::Status TimeSetups(int reps, const std::function<tagg::Status()>& setup,
                        Samples* seconds);

/// Current value of a counter in the program's metrics registry.
uint64_t CounterValue(const char* name);

/// Peak resident set size of this process (VmHWM), in MB.
double PeakRssMb();

/// Ordered name -> (value, unit) map that renders as the result line's
/// "metrics" object.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  double Get(const std::string& name) const;
  std::string Unit(const std::string& name) const;
  /// {"name": {"value": v, "unit": "u"}, ...}
  std::string ToJson() const;
  /// One aligned "name  value unit" line per metric.
  std::string ToText(const std::string& indent) const;
  const std::vector<std::string>& names() const { return order_; }

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Counts every operation a workload attempts, and the ones that failed,
/// were refused or answered wrongly.  Any wrong answer fails the run.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  std::vector<std::string> errors;  // first few, for the log

  void Fail(const std::string& what);
  void Wrong(const std::string& what);
  bool correct() const { return wrong == 0 && failed == 0; }
  /// Failed, refused or wrong operations over operations attempted.
  double failed_frac() const {
    return static_cast<double>(failed) /
           static_cast<double>(attempted == 0 ? 1 : attempted);
  }
};

/// Command-line settings shared by every workload.
struct RunContext {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// How many times the workload sets up; setup_s is the median.  The
  /// traced run sets up once.
  int setup_reps = 3;
  /// Scratch directory inside the checkout for stored files.
  std::string work_dir;
};

/// The result a workload hands back to main.
struct WorkloadResult {
  Outcome outcome;
  /// The end-to-end metrics BENCHMARK.json lists (--trace 0).
  Report end_to_end;
  /// The workload's own named metrics (probe_p50_us, query_p50_ms, ...),
  /// printed as a report above the JSON line.
  Report details;
  /// Per-layer metrics (--trace 1).
  Report layers;
};

/// A closed-loop workload's run: `seconds` of queries into `times`.
using ClosedLoop = std::function<void(double seconds, FormTimes* times)>;

/// The traced run's `trace.overhead_frac` for a closed loop: the typical
/// query time with the program's metrics on against off, a quarter of
/// the run each.
void PriceClosedLoopTracing(const ClosedLoop& loop, size_t forms,
                            double seconds, Report* layers);

/// Fills the end-to-end and report metrics every closed-loop workload
/// shares.
void ReportClosedLoop(const Samples& setup, const FormTimes& times,
                      double rss_mb, WorkloadResult* result);

// ---------------------------------------------------------------------------
// Inputs and the oracle
// ---------------------------------------------------------------------------

/// One generated Table-3 tuple, as the benchmark keeps it for checking.
struct Row {
  Instant start = 0;
  Instant end = 0;
  int64_t salary = 0;
};

std::vector<Row> RowsOf(const tagg::Relation& relation);

/// The exact constant-interval series of `kind` over `rows`, partitioning
/// [kOrigin, kForever]: an event sweep with integer state (salaries are
/// integers, so COUNT and SUM are exact) and a multiset for MAX.  It is
/// cross-checked against core/reference_agg.h on a sample at set-up
/// (CheckOracleAgainstReference).
std::vector<tagg::ResultInterval> OracleSeries(const std::vector<Row>& rows,
                                               AggregateKind kind);

/// Runs the oracle and tagg::ReferenceAggregator over the first `n` rows
/// and diffs them with CompareSeries; an error names the aggregate.
tagg::Status CheckOracleAgainstReference(const std::vector<Row>& rows,
                                         size_t n);

/// The timeslice aggregate at `t` (snapshot reducibility): the plain
/// aggregate over the rows whose period contains t.  COUNT and SUM only.
double TimesliceAggregate(const std::vector<Row>& rows, AggregateKind kind,
                          Instant t);

/// Diffs `actual` (a partition of `window`) against the full-timeline
/// `expected`, restricted to `window`: both are padded with NULL outside
/// the window, since CompareSeries wants partitions of the whole
/// time-line.
tagg::Status CompareOnWindow(const std::vector<tagg::ResultInterval>& expected,
                             const std::vector<tagg::ResultInterval>& actual,
                             AggregateKind kind, const tagg::Period& window);

/// One splitmix64 step: derives independent sub-seeds from the run seed.
uint64_t Mix(uint64_t seed, uint64_t salt);

}  // namespace perfbench
