#include "common.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "core/reference_agg.h"
#include "obs/metrics.h"
#include "testing/differential.h"

namespace perfbench {

using tagg::Period;
using tagg::Result;
using tagg::ResultInterval;
using tagg::Status;
using tagg::Value;

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double rank = std::ceil(q * static_cast<double>(values_.size()));
  const size_t i = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values_[std::min(i, values_.size() - 1)];
}

namespace {

/// exp(mean(log(q-quantile of each non-empty sample set))).
double GeoMeanOfQuantile(const std::vector<Samples>& sets, double q) {
  double log_sum = 0.0;
  size_t n = 0;
  for (const Samples& s : sets) {
    if (s.empty()) continue;
    log_sum += std::log(std::max(s.Quantile(q), 1e-9));
    ++n;
  }
  return n == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(n));
}

}  // namespace

double FormTimes::TypicalMs() const { return GeoMeanOfQuantile(ms_, 0.5); }

double FormTimes::TailMs() const { return GeoMeanOfQuantile(ms_, 0.9); }

double FormTimes::TuplesPerSecond() const {
  double tuples = 0.0;
  double ms = 0.0;
  for (size_t f = 0; f < ms_.size(); ++f) {
    if (ms_[f].empty()) continue;
    tuples += tuples_[f];
    ms += ms_[f].Median();
  }
  return ms > 0 ? tuples / (ms * 1e-3) : 0.0;
}

void PriceClosedLoopTracing(const ClosedLoop& loop, size_t forms,
                            double seconds, Report* layers) {
  FormTimes off(forms);
  FormTimes on(forms);
  tagg::obs::SetEnabled(false);
  loop(seconds * 0.25, &off);
  tagg::obs::SetEnabled(true);
  loop(seconds * 0.25, &on);
  layers->Set("trace.overhead_frac", on.TypicalMs() / off.TypicalMs() - 1.0,
              "ratio");
}

void ReportClosedLoop(const Samples& setup, const FormTimes& times,
                      double rss_mb, WorkloadResult* result) {
  Report& d = result->details;
  d.Set("setup_s", setup.Median(), "s");
  d.Set("query_p50_ms", times.all_ms.Median(), "ms");
  d.Set("query_p90_ms", times.all_ms.Quantile(0.9), "ms");
  d.Set("tuples_per_s", times.TuplesPerSecond(), "1/s");
  d.Set("typical_query_ms", times.TypicalMs(), "ms");
  d.Set("read_tail_us", times.TailMs() * 1e3, "us");
  d.Set("rss_peak_mb", rss_mb, "MB");
  d.Set("ops_failed_frac", result->outcome.failed_frac(), "ratio");
  d.Set("samples.queries", static_cast<double>(times.count()), "count");

  Report& e = result->end_to_end;
  e.Set("setup_s", setup.Median(), "s");
  e.Set("read_typical_us", times.TypicalMs() * 1e3, "us");
  e.Set("throughput_per_s", times.TuplesPerSecond(), "1/s");
  e.Set("rss_peak_mb", rss_mb, "MB");
}

Status TimeSetups(int reps, const std::function<Status()>& setup,
                  Samples* seconds) {
  for (int rep = 0; rep + 1 < reps; ++rep) {
    int fds[2];
    if (::pipe(fds) != 0) return Status::IOError("pipe");
    const pid_t pid = ::fork();
    if (pid < 0) return Status::IOError("fork");
    if (pid == 0) {
      ::close(fds[0]);
      const int64_t t0 = NowNs();
      const bool ok = setup().ok();
      const double took = SecondsSince(t0);
      const ssize_t n = ::write(fds[1], &took, sizeof(took));
      ::_exit(ok && n == sizeof(took) ? 0 : 1);
    }
    ::close(fds[1]);
    double took = 0.0;
    const ssize_t n = ::read(fds[0], &took, sizeof(took));
    ::close(fds[0]);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (n != sizeof(took) || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      return Status::Internal("set-up failed in a child process");
    }
    seconds->Add(took);
  }
  const int64_t t0 = NowNs();
  TAGG_RETURN_IF_ERROR(setup());
  seconds->Add(SecondsSince(t0));
  return Status::OK();
}

uint64_t CounterValue(const char* name) {
  return tagg::obs::MetricsRegistry::Global().GetCounter(name).Value();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  if (values_.find(name) == values_.end()) order_.push_back(name);
  values_[name] = {value, unit};
}

double Report::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second.first;
}

std::string Report::Unit(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? std::string() : it->second.second;
}

namespace {

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

std::string Report::ToJson() const {
  std::ostringstream out;
  out << "{";
  for (size_t i = 0; i < order_.size(); ++i) {
    const auto& [value, unit] = values_.at(order_[i]);
    out << (i == 0 ? "" : ", ") << "\"" << order_[i] << "\": {\"value\": "
        << FormatNumber(value) << ", \"unit\": \"" << unit << "\"}";
  }
  out << "}";
  return out.str();
}

std::string Report::ToText(const std::string& indent) const {
  std::ostringstream out;
  for (const std::string& name : order_) {
    const auto& [value, unit] = values_.at(name);
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s%-44s %14s %s\n", indent.c_str(),
                  name.c_str(), FormatNumber(value).c_str(), unit.c_str());
    out << buf;
  }
  return out.str();
}

void Outcome::Fail(const std::string& what) {
  ++failed;
  if (errors.size() < 8) errors.push_back("failed: " + what);
}

void Outcome::Wrong(const std::string& what) {
  ++wrong;
  ++failed;
  if (errors.size() < 8) errors.push_back("wrong answer: " + what);
}

std::vector<Row> RowsOf(const tagg::Relation& relation) {
  std::vector<Row> rows;
  rows.reserve(relation.size());
  for (const tagg::Tuple& t : relation) {
    rows.push_back({t.start(), t.end(), t.value(1).AsInt()});
  }
  return rows;
}

std::vector<ResultInterval> OracleSeries(const std::vector<Row>& rows,
                                         AggregateKind kind) {
  // Events: +row at start, -row at end+1, swept in time order.
  struct Event {
    Instant at;
    int64_t salary;
    bool open;
  };
  std::vector<Event> events;
  events.reserve(rows.size() * 2);
  for (const Row& r : rows) {
    events.push_back({r.start, r.salary, true});
    if (r.end < tagg::kForever) events.push_back({r.end + 1, r.salary, false});
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.at < b.at; });

  int64_t count = 0;
  int64_t sum = 0;
  std::multiset<int64_t> live;
  auto value = [&]() -> Value {
    switch (kind) {
      case AggregateKind::kCount:
        return Value::Int(count);
      case AggregateKind::kSum:
        return count == 0 ? Value::Null()
                          : Value::Double(static_cast<double>(sum));
      case AggregateKind::kAvg:
        return count == 0 ? Value::Null()
                          : Value::Double(static_cast<double>(sum) /
                                          static_cast<double>(count));
      case AggregateKind::kMax:
        return count == 0 ? Value::Null()
                          : Value::Double(static_cast<double>(*live.rbegin()));
      case AggregateKind::kMin:
        return count == 0 ? Value::Null()
                          : Value::Double(static_cast<double>(*live.begin()));
    }
    return Value::Null();
  };
  const bool need_set =
      kind == AggregateKind::kMax || kind == AggregateKind::kMin;

  std::vector<ResultInterval> out;
  Instant cursor = tagg::kOrigin;
  size_t i = 0;
  while (i < events.size()) {
    const Instant at = events[i].at;
    if (at > cursor) {
      out.push_back({Period(cursor, at - 1), value()});
      cursor = at;
    }
    for (; i < events.size() && events[i].at == at; ++i) {
      const Event& e = events[i];
      if (e.open) {
        ++count;
        sum += e.salary;
        if (need_set) live.insert(e.salary);
      } else {
        --count;
        sum -= e.salary;
        if (need_set) live.erase(live.find(e.salary));
      }
    }
  }
  out.push_back({Period(cursor, tagg::kForever), value()});
  return out;
}

namespace {

template <typename Op>
Result<std::vector<ResultInterval>> ReferenceOf(const std::vector<Row>& rows,
                                                size_t n) {
  tagg::ReferenceAggregator<Op> ref;
  for (size_t i = 0; i < n && i < rows.size(); ++i) {
    TAGG_RETURN_IF_ERROR(ref.Add(Period(rows[i].start, rows[i].end),
                                 static_cast<double>(rows[i].salary)));
  }
  TAGG_ASSIGN_OR_RETURN(auto typed, ref.FinishTyped());
  std::vector<ResultInterval> out;
  out.reserve(typed.size());
  for (const auto& ti : typed) {
    out.push_back({Period(ti.start, ti.end), Op::Finalize(ti.state)});
  }
  return out;
}

}  // namespace

Status CheckOracleAgainstReference(const std::vector<Row>& rows, size_t n) {
  const std::vector<Row> sample(rows.begin(),
                                rows.begin() + std::min(n, rows.size()));
  const std::pair<AggregateKind, Result<std::vector<ResultInterval>>>
      refs[] = {
          {AggregateKind::kCount, ReferenceOf<tagg::CountOp>(sample, n)},
          {AggregateKind::kSum, ReferenceOf<tagg::SumOp>(sample, n)},
          {AggregateKind::kMax, ReferenceOf<tagg::MaxOp>(sample, n)},
          {AggregateKind::kAvg, ReferenceOf<tagg::AvgOp>(sample, n)},
      };
  for (const auto& [kind, ref] : refs) {
    if (!ref.ok()) return ref.status();
    Status diff = tagg::testing::CompareSeries(*ref, OracleSeries(sample, kind),
                                               kind);
    if (!diff.ok()) {
      return Status::Internal("oracle disagrees with the reference on " +
                              std::string(tagg::AggregateKindToString(kind)) +
                              ": " + std::string(diff.message()));
    }
  }
  return Status::OK();
}

double TimesliceAggregate(const std::vector<Row>& rows, AggregateKind kind,
                          Instant t) {
  int64_t count = 0;
  int64_t sum = 0;
  for (const Row& r : rows) {
    if (r.start <= t && t <= r.end) {
      ++count;
      sum += r.salary;
    }
  }
  return static_cast<double>(kind == AggregateKind::kCount ? count : sum);
}

namespace {

/// `series` restricted to `window` and padded with NULL outside it.
std::vector<ResultInterval> PadToTimeline(
    const std::vector<ResultInterval>& series, const Period& window) {
  std::vector<ResultInterval> out;
  out.reserve(series.size() + 2);
  if (window.start() > tagg::kOrigin) {
    out.push_back({Period(tagg::kOrigin, window.start() - 1), Value::Null()});
  }
  for (const ResultInterval& ri : series) {
    if (ri.period.end() < window.start() || ri.period.start() > window.end()) {
      continue;
    }
    out.push_back({Period(std::max(ri.period.start(), window.start()),
                          std::min(ri.period.end(), window.end())),
                   ri.value});
  }
  if (window.end() < tagg::kForever) {
    out.push_back({Period(window.end() + 1, tagg::kForever), Value::Null()});
  }
  return out;
}

}  // namespace

Status CompareOnWindow(const std::vector<ResultInterval>& expected,
                       const std::vector<ResultInterval>& actual,
                       AggregateKind kind, const Period& window) {
  return tagg::testing::CompareSeries(PadToTimeline(expected, window),
                                      PadToTimeline(actual, window), kind);
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + salt * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
