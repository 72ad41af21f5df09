// serve_read and serve_ingest: the served path end to end.
//
// Each run builds the server exactly as taggd does — a Catalog, a
// ShardedLiveService front (1 shard, or 4 re-cut at the data's
// quantiles), ServingState{catalog, nullptr, &sharded} — with 1 event loop
// and 2 executor workers, preloads it over the wire, warms every opcode,
// then drives it from one open-loop generator thread over two
// connections.  Answers are checked against the benchmark's own copy of
// every tuple it sent.
#include <sys/socket.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>

#include "core/workload.h"
#include "live/service.h"
#include "loadgen.h"
#include "net/client.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "server/protocol.h"
#include "server/server.h"
#include "shard/sharded_service.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {

namespace net = tagg::net;
using tagg::Period;
using tagg::Status;

namespace {

constexpr Instant kLifespan = 1'000'000;
constexpr double kLongLived = 0.4;
constexpr size_t kSalaryAttr = 1;  // Employed schema: name, salary
constexpr size_t kPreloadBatch = 4096;

enum Kind : int { kAt = 0, kOver = 1, kIngest = 2, kFlush = 3 };
const char* const kKindNames[] = {"aggregate_at", "aggregate_over", "ingest",
                                  "flush"};

/// One served workload's frozen shape.  Rates and the p99 limit are
/// fixed here so every commit is measured at the same offered load.
struct ServeSpec {
  size_t preload;
  size_t shards;
  double mix[4];          // share of kAt, kOver, kIngest, kFlush
  size_t ingest_tuples;   // 1 = single Insert, else InsertBatch size
  Instant over_width;     // AggregateOver window, chronons
  double reference_rps;   // the fixed rate latencies are taken at
  double p99_limit_us;    // max_rate_rps criterion
  size_t check_every_over;  // decode-check every Nth range response
};

const ServeSpec kServeRead = {
    256 * 1024, 1, {0.88, 0.10, 0.02, 0.0}, 1, 1000,
    4000.0, 5000.0, 1};
const ServeSpec kServeIngest = {
    256 * 1024, 4, {0.0, 0.35, 0.60, 0.05}, 64,
    kLifespan / 10, 200.0, 250000.0, 64};

/// Table-3 tuples for the live inserts: uniform starts over the lifespan,
/// 40% long-lived (20%-80% of the lifespan), the rest 1-1000 chronons.
class TupleSource {
 public:
  explicit TupleSource(uint64_t seed) : rng_(seed) {}
  Row Next() {
    const bool long_lived = rng_.Bernoulli(kLongLived);
    while (true) {
      const Instant start = rng_.Uniform(0, kLifespan - 1);
      const Instant duration =
          long_lived ? rng_.Uniform(kLifespan / 5, kLifespan * 4 / 5)
                     : rng_.Uniform(1, 1000);
      const Instant end = start + duration - 1;
      if (end < kLifespan) return {start, end, rng_.Uniform(30000, 100000)};
    }
  }

 private:
  tagg::Rng rng_;
};

net::WireTuple ToWire(const Row& r) {
  net::WireTuple w;
  w.start = r.start;
  w.end = r.end;
  w.values = {tagg::Value::String("bench"), tagg::Value::Int(r.salary)};
  return w;
}

tagg::Tuple ToTuple(const Row& r) {
  return tagg::Tuple({tagg::Value::String("bench"), tagg::Value::Int(r.salary)},
                     Period(r.start, r.end));
}

/// Bucket counts of a registry histogram, for quantiles of a delta.
std::vector<uint64_t> HistogramBuckets(const char* name) {
  auto& h = tagg::obs::MetricsRegistry::Global().GetHistogram(name);
  std::vector<uint64_t> out(h.bounds().size() + 1);
  for (size_t i = 0; i < out.size(); ++i) out[i] = h.BucketCount(i);
  return out;
}

/// Upper bound (seconds) of the bucket holding quantile q of the
/// observations between two snapshots.
double HistogramQuantile(const char* name, const std::vector<uint64_t>& before,
                         const std::vector<uint64_t>& after, double q) {
  auto& h = tagg::obs::MetricsRegistry::Global().GetHistogram(name);
  uint64_t total = 0;
  for (size_t i = 0; i < after.size(); ++i) total += after[i] - before[i];
  if (total == 0) return 0.0;
  const auto target = static_cast<uint64_t>(std::ceil(q * total));
  uint64_t seen = 0;
  for (size_t i = 0; i < after.size(); ++i) {
    seen += after[i] - before[i];
    if (seen >= target) {
      return i < h.bounds().size() ? h.bounds()[i] : h.bounds().back() * 2;
    }
  }
  return h.bounds().back();
}

/// The served stack plus the benchmark's record of what it ingested.
class ServeStack {
 public:
  ServeStack() = default;
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;
  ~ServeStack() {
    if (server_) server_->Shutdown();
  }

  /// Generates the preload from `seed`, starts the server, preloads it
  /// over the wire, re-cuts the shards, and warms every opcode the spec
  /// uses.  `first_range_ms` receives the first AggregateOver's latency.
  Status Start(const ServeSpec& spec, uint64_t seed, double* first_range_ms);

  std::vector<int> fds() const {
    std::vector<int> out;
    for (const auto& c : clients_) out.push_back(c.fd());
    return out;
  }
  Status Reconnect();

  /// The schedule's request i.  Inserts are appended to rows().
  void Plan(uint64_t i, PlannedRequest* out);
  bool CheckResponse(int kind, std::string_view payload) const;

  /// Flushes, then checks sampled probes against the oracle.
  void CheckAnswers(uint64_t seed, Outcome* outcome);

  /// Send every request as a sampled traced frame (0xC6), so the server
  /// records its per-stage spans.
  void set_sample_traces(bool on) { sample_traces_ = on; }

  const ServeSpec& spec() const { return *spec_; }
  std::vector<Row>& rows() { return rows_; }
  tagg::shard::ShardedLiveService& sharded() { return *sharded_; }
  const tagg::server::ServingState& state() const { return state_; }
  uint16_t port() const { return server_->port(); }

 private:
  const ServeSpec* spec_ = nullptr;
  tagg::Catalog catalog_;
  std::unique_ptr<tagg::shard::ShardedLiveService> sharded_;
  tagg::server::ServingState state_;
  std::unique_ptr<tagg::server::Server> server_;
  std::vector<net::Client> clients_;
  std::vector<Row> rows_;
  std::unique_ptr<TupleSource> inserts_;
  std::unique_ptr<tagg::Rng> plan_rng_;
  bool sample_traces_ = false;
};

Status ServeStack::Start(const ServeSpec& spec, uint64_t seed,
                         double* first_range_ms) {
  spec_ = &spec;
  tagg::WorkloadSpec ws;
  ws.num_tuples = spec.preload;
  ws.lifespan = kLifespan;
  ws.long_lived_fraction = kLongLived;
  ws.order = tagg::TupleOrder::kRandom;
  ws.seed = Mix(seed, 1);
  TAGG_ASSIGN_OR_RETURN(tagg::Relation generated,
                        tagg::GenerateEmployedRelation(ws));
  rows_ = RowsOf(generated);
  inserts_ = std::make_unique<TupleSource>(Mix(seed, 2));
  plan_rng_ = std::make_unique<tagg::Rng>(Mix(seed, 3));

  TAGG_RETURN_IF_ERROR(catalog_.Register(std::make_shared<tagg::Relation>(
      generated.schema(), "employed")));
  tagg::shard::ShardedServiceOptions so;
  so.shards = spec.shards;
  // The scatter pool gets the one core the loop, the two workers and
  // the generator leave free (a worker waiting on its gather sleeps).
  so.scatter_workers = 1;
  sharded_ = std::make_unique<tagg::shard::ShardedLiveService>(so);
  TAGG_RETURN_IF_ERROR(
      sharded_->RegisterIndex(catalog_, "employed", AggregateKind::kCount));
  state_ = tagg::server::ServingState{&catalog_, nullptr, sharded_.get()};

  tagg::server::ServerOptions opts;
  opts.port = 0;
  opts.num_loops = 1;
  opts.num_workers = 2;
  opts.admin.enabled = false;
  server_ = std::make_unique<tagg::server::Server>(opts, state_);
  TAGG_RETURN_IF_ERROR(server_->Start());
  TAGG_RETURN_IF_ERROR(Reconnect());

  // Preload over the wire, as a client would.
  net::Client& c = clients_[0];
  std::vector<net::WireTuple> batch;
  batch.reserve(kPreloadBatch);
  for (size_t i = 0; i < rows_.size(); ++i) {
    batch.push_back(ToWire(rows_[i]));
    if (batch.size() == kPreloadBatch || i + 1 == rows_.size()) {
      TAGG_ASSIGN_OR_RETURN(uint32_t n, c.InsertBatch("employed", batch));
      if (n != batch.size()) return Status::Internal("short preload batch");
      batch.clear();
    }
  }
  TAGG_RETURN_IF_ERROR(c.Flush("employed"));
  if (spec.shards > 1) {
    // taggd --shards N: re-cut the boot boundaries at the data's quantiles.
    TAGG_RETURN_IF_ERROR(sharded_->Reshard(spec.shards));
  }

  // Warm-up: issue every opcode once before any timing.  The first range
  // read after a large preload stalls (see README); it is timed here and
  // reported, never folded into the steady-state latencies.
  const int64_t t0 = NowNs();
  TAGG_RETURN_IF_ERROR(c.AggregateOver("employed", 0,
                                       net::kWireNoAttribute, kLifespan / 2,
                                       kLifespan / 2 + spec.over_width - 1)
                           .status());
  if (first_range_ms != nullptr) *first_range_ms = SecondsSince(t0) * 1e3;
  TAGG_RETURN_IF_ERROR(
      c.AggregateAt("employed", 0, net::kWireNoAttribute, kLifespan / 3)
          .status());
  std::vector<net::WireTuple> one;
  for (size_t i = 0; i < std::max<size_t>(spec.ingest_tuples, 1); ++i) {
    rows_.push_back(inserts_->Next());
    one.push_back(ToWire(rows_.back()));
  }
  if (spec.ingest_tuples == 1) {
    TAGG_RETURN_IF_ERROR(c.Insert("employed", one[0]));
  } else {
    TAGG_RETURN_IF_ERROR(c.InsertBatch("employed", one).status());
  }
  TAGG_RETURN_IF_ERROR(c.Flush("employed"));
  return Status::OK();
}

Status ServeStack::Reconnect() {
  clients_.clear();
  for (int i = 0; i < 2; ++i) {
    TAGG_ASSIGN_OR_RETURN(net::Client c, net::Client::ConnectTo(port()));
    clients_.push_back(std::move(c));
  }
  return Status::OK();
}

void ServeStack::Plan(uint64_t i, PlannedRequest* out) {
  const double u = plan_rng_->NextDouble();
  const AggregateKind kind =
      AggregateKind::kCount;
  const uint32_t attr = kind == AggregateKind::kCount
                            ? net::kWireNoAttribute
                            : static_cast<uint32_t>(kSalaryAttr);
  double acc = 0.0;
  int k = kAt;
  for (; k < kFlush; ++k) {
    acc += spec_->mix[k];
    if (u < acc) break;
  }
  out->kind = k;
  net::Opcode opcode = net::Opcode::kFlush;
  std::string payload;
  switch (k) {
    case kAt:
      opcode = net::Opcode::kAggregateAt;
      payload = net::EncodeAggregateAt({"employed", static_cast<uint8_t>(kind),
                                        attr,
                                        plan_rng_->Uniform(0, kLifespan - 1)});
      break;
    case kOver: {
      const Instant lo = plan_rng_->Uniform(0, kLifespan - spec_->over_width);
      opcode = net::Opcode::kAggregateOver;
      payload = net::EncodeAggregateOver({"employed",
                                          static_cast<uint8_t>(kind), attr, lo,
                                          lo + spec_->over_width - 1, true});
      break;
    }
    case kIngest:
      if (spec_->ingest_tuples == 1) {
        rows_.push_back(inserts_->Next());
        opcode = net::Opcode::kInsert;
        payload = net::EncodeInsert({"employed", ToWire(rows_.back())});
      } else {
        net::InsertBatchRequest r;
        r.relation = "employed";
        r.tuples.reserve(spec_->ingest_tuples);
        for (size_t j = 0; j < spec_->ingest_tuples; ++j) {
          rows_.push_back(inserts_->Next());
          r.tuples.push_back(ToWire(rows_.back()));
        }
        opcode = net::Opcode::kInsertBatch;
        payload = net::EncodeInsertBatch(r);
      }
      break;
    default:
      payload = net::EncodeFlush({"employed"});
      break;
  }
  out->frame = sample_traces_
                   ? net::EncodeTracedRequestFrame(opcode, i + 1,
                                                   net::kTraceFlagSampled,
                                                   payload)
                   : net::EncodeRequestFrame(opcode, payload);
}

bool ServeStack::CheckResponse(int kind, std::string_view payload) const {
  if (kind == kAt) return net::DecodeAggregateAtResponse(payload).ok();
  if (kind != kOver) return true;
  auto resp = net::DecodeAggregateOverResponse(payload);
  if (!resp.ok() || resp->intervals.empty()) return false;
  // The series must partition the requested window: contiguous, with the
  // window's width.
  const auto& iv = resp->intervals;
  for (size_t i = 1; i < iv.size(); ++i) {
    if (iv[i].start != iv[i - 1].end + 1) return false;
  }
  return iv.back().end - iv.front().start + 1 == spec_->over_width;
}

void ServeStack::CheckAnswers(uint64_t seed, Outcome* outcome) {
  net::Client& c = clients_[0];
  Status flushed = c.Flush("employed");
  if (!flushed.ok()) {
    outcome->Fail("flush before checks: " + flushed.ToString());
    return;
  }
  tagg::Rng rng(Mix(seed, 4));
  // Point probes against the timeslice aggregate, and snapshot
  // reducibility: a range read's value at t equals the probe at t.
  for (int i = 0; i < 48; ++i) {
    const Instant t = rng.Uniform(0, kLifespan - 1);
    for (AggregateKind kind : {AggregateKind::kCount}) {
      ++outcome->attempted;
      const uint32_t attr = kind == AggregateKind::kCount
                                ? net::kWireNoAttribute
                                : static_cast<uint32_t>(kSalaryAttr);
      auto at = c.AggregateAt("employed", static_cast<uint8_t>(kind), attr, t);
      const Instant lo = std::max<Instant>(0, t - 50);
      auto over = c.AggregateOver("employed", static_cast<uint8_t>(kind), attr,
                                  lo, lo + 100);
      if (!at.ok() || !over.ok()) {
        outcome->Fail("check probe at " + std::to_string(t));
        continue;
      }
      const double expect = TimesliceAggregate(rows_, kind, t);
      auto got = at->value.ToNumeric();
      if (!got.ok() || *got != expect) {
        outcome->Wrong(std::string(tagg::AggregateKindToString(kind)) +
                       " at " + std::to_string(t) + ": got " +
                       at->value.ToString() + ", want " +
                       std::to_string(expect));
        continue;
      }
      bool reducible = false;
      for (const auto& wi : over->intervals) {
        if (wi.start <= t && t <= wi.end) {
          reducible = wi.value == at->value;
          break;
        }
      }
      if (!reducible) {
        outcome->Wrong("snapshot reducibility at " + std::to_string(t));
      }
    }
  }
  // Whole range series against the oracle on sampled windows.
  const auto expected = OracleSeries(rows_, AggregateKind::kCount);
  for (int i = 0; i < 4; ++i) {
    ++outcome->attempted;
    const Instant lo = rng.Uniform(0, kLifespan - spec_->over_width);
    const Instant hi = lo + spec_->over_width - 1;
    auto over = c.AggregateOver("employed", 0, net::kWireNoAttribute, lo, hi);
    if (!over.ok()) {
      outcome->Fail("check range");
      continue;
    }
    std::vector<tagg::ResultInterval> got;
    for (const auto& wi : over->intervals) {
      got.push_back({Period(wi.start, wi.end), wi.value});
    }
    Status diff =
        CompareOnWindow(expected, got, AggregateKind::kCount, Period(lo, hi));
    if (!diff.ok()) outcome->Wrong("range series: " + diff.ToString());
  }
}

/// One open-loop phase on the stack's two connections.
OpenLoopResult RunPhase(ServeStack& stack, double rate, double seconds) {
  const ServeSpec& spec = stack.spec();
  uint64_t over_seen = 0;
  OpenLoopResult load = RunOpenLoop(
      stack.fds(), rate, seconds,
      [&](uint64_t i, PlannedRequest* r) { stack.Plan(i, r); },
      [&](int kind, std::string_view payload) {
        if (kind == kOver && (over_seen++ % spec.check_every_over) != 0) {
          return true;
        }
        return stack.CheckResponse(kind, payload);
      },
      5.0);
  if (load.unanswered > 0) {
    // Late responses would be misattributed to the next phase.
    (void)stack.Reconnect();
  }
  return load;
}

/// One max-rate step: three back-to-back sub-windows at `rate`.  It
/// passes when nothing was refused or left unanswered and the median of
/// the sub-windows' p99 latencies meets the limit, so one transient stall
/// cannot fail a rate the server sustains.
bool RateHolds(ServeStack& stack, double rate, double seconds,
               Outcome* outcome) {
  Samples p99;
  bool clean = true;
  for (int w = 0; w < 3; ++w) {
    const OpenLoopResult load = RunPhase(stack, rate, seconds / 3);
    outcome->attempted += load.sent;
    clean = clean && load.failures() == 0;
    p99.Add(load.all_latency_us.Quantile(0.99));
  }
  return clean && p99.Median() <= stack.spec().p99_limit_us;
}

/// Highest offered rate meeting the spec's p99 limit with no growing
/// backlog: doubling from the reference rate, then bisecting until the
/// last step is under 5%.  Refusals while probing above capacity are the
/// search's signal, not failures of the run.
double MaxRate(ServeStack& stack, double budget_s, Outcome* outcome) {
  const ServeSpec& spec = stack.spec();
  const double step_s = budget_s / 9.0;
  double lo = spec.reference_rps;
  double hi = 0.0;
  int steps = 0;
  double rate = lo * 2.0;
  while (steps < 5) {
    ++steps;
    if (!RateHolds(stack, rate, step_s, outcome)) {
      hi = rate;
      break;
    }
    lo = rate;
    rate *= 2.0;
  }
  if (hi == 0.0) return lo;
  while ((hi - lo) / lo > 0.05 && steps < 12) {
    ++steps;
    const double mid = 0.5 * (lo + hi);
    (RateHolds(stack, mid, step_s, outcome) ? lo : hi) = mid;
  }
  return lo;
}

void AddLoadOutcome(const OpenLoopResult& load, Outcome* outcome) {
  outcome->attempted += load.sent;
  for (uint64_t i = 0; i < load.busy; ++i) outcome->Fail("SERVER_BUSY");
  if (load.errors > 0) {
    outcome->Wrong(std::to_string(load.errors) +
                   " error or malformed response(s)");
    outcome->failed += load.errors - 1;
  }
  if (load.unanswered > 0) {
    outcome->Fail(std::to_string(load.unanswered) + " unanswered request(s)");
    outcome->failed += load.unanswered - 1;
  }
}

WorkloadResult RunServed(const ServeSpec& spec, const RunContext& ctx) {
  WorkloadResult res;
  Outcome& outcome = res.outcome;

  // Set-up several times; the median is setup_s, the last stack is used.
  Samples setup;
  std::unique_ptr<ServeStack> stack;
  double first_range_ms = 0.0;
  Status built = TimeSetups(ctx.setup_reps, [&]() -> Status {
    stack = std::make_unique<ServeStack>();
    TAGG_RETURN_IF_ERROR(stack->Start(spec, ctx.seed, &first_range_ms));
    // A short unmeasured burst at the reference rate finishes warm-up.
    RunPhase(*stack, spec.reference_rps, 0.25);
    return Status::OK();
  }, &setup);
  if (!built.ok()) {
    outcome.Fail("setup: " + built.ToString());
    return res;
  }
  if (Status oracle = CheckOracleAgainstReference(stack->rows(), 400);
      !oracle.ok()) {
    outcome.Wrong(oracle.ToString());
  }
  const int read_kind = spec.mix[kAt] > 0 ? kAt : kOver;

  if (ctx.trace) {
    // Price the tracing: the reference rate with the program's
    // instrumentation off, then with it on and every request sampled.
    const double half = std::max(1.0, ctx.seconds * 0.25);
    tagg::obs::SetEnabled(false);
    const OpenLoopResult quiet = RunPhase(*stack, spec.reference_rps, half);
    tagg::obs::SetEnabled(true);
    stack->set_sample_traces(true);
    const OpenLoopResult traced = RunPhase(*stack, spec.reference_rps, half);
    stack->set_sample_traces(false);
    AddLoadOutcome(quiet, &outcome);
    AddLoadOutcome(traced, &outcome);
    stack->CheckAnswers(ctx.seed, &outcome);
    const double off = quiet.latency_us[read_kind].Median();
    const double on = traced.latency_us[read_kind].Median();
    res.layers.Set("trace.overhead_frac", off > 0 ? on / off - 1.0 : 0.0,
                   "ratio");
    return res;
  }

  // Latencies at the frozen reference rate, in eight back-to-back
  // windows; the reported p50 and tail are medians over the windows, so a
  // stall in one window moves them by at most one rank.
  const double ref_s = ctx.seconds * 0.5;
  const auto qw_before = HistogramBuckets("tagg_executor_queue_wait_seconds");
  OpenLoopResult L;
  Samples win_p50[kMaxRequestKinds];
  Samples win_p90[kMaxRequestKinds];
  Samples win_p99[kMaxRequestKinds];
  for (int w = 0; w < 8; ++w) {
    // The generator visits every CPU in turn: which core it shares with
    // which server thread moves a loopback round trip by tens of percent
    // on a small VM, and rotating averages that out within each run.
    PinCallingThread(w);
    const OpenLoopResult window =
        RunPhase(*stack, spec.reference_rps, ref_s / 8);
    PinCallingThread(-1);
    AddLoadOutcome(window, &outcome);
    for (int k = 0; k < kMaxRequestKinds; ++k) {
      win_p50[k].Add(window.latency_us[k].Median());
      win_p90[k].Add(window.latency_us[k].Quantile(0.9));
      win_p99[k].Add(window.latency_us[k].Quantile(0.99));
      L.latency_us[k].Append(window.latency_us[k]);
    }
    L.late_us.Append(window.late_us);
  }
  const auto qw_after = HistogramBuckets("tagg_executor_queue_wait_seconds");
  // Peak memory of the program through set-up and the reference load,
  // read before the rate search (whose extra inserts depend on how far
  // it climbs) and before the answer checks build their oracle.
  const double rss_mb = PeakRssMb();
  // Capacity: a closed loop at depth 16 per connection, where the server
  // never idles; four sub-windows with the generator rotated over CPUs.
  Samples capacity;
  for (int w = 0; w < 4; ++w) {
    PinCallingThread(w);
    OpenLoopResult sat = RunClosedLoop(
        stack->fds(), 16, ctx.seconds * 0.05,
        [&](uint64_t i, PlannedRequest* r) { stack->Plan(i, r); },
        [&](int kind, std::string_view payload) {
          return kind != kAt || stack->CheckResponse(kind, payload);
        });
    PinCallingThread(-1);
    AddLoadOutcome(sat, &outcome);
    if (sat.unanswered > 0) (void)stack->Reconnect();
    capacity.Add(static_cast<double>(sat.ok) / sat.elapsed_s);
  }
  const double max_rate = MaxRate(*stack, ctx.seconds * 0.3, &outcome);
  stack->CheckAnswers(ctx.seed, &outcome);

  Report& d = res.details;
  d.Set("setup_s", setup.Median(), "s");
  if (spec.mix[kAt] > 0) {
    d.Set("probe_p50_us", L.latency_us[kAt].Median(), "us");
    d.Set("probe_p99_us", L.latency_us[kAt].Quantile(0.99), "us");
  }
  d.Set("range_p50_us", L.latency_us[kOver].Median(), "us");
  d.Set("range_p99_us", L.latency_us[kOver].Quantile(0.99), "us");
  d.Set("ingest_p50_us", L.latency_us[kIngest].Median(), "us");
  d.Set("ingest_p99_us", L.latency_us[kIngest].Quantile(0.99), "us");
  d.Set("max_rate_rps", max_rate, "1/s");
  d.Set("capacity_rps", capacity.Median(), "1/s");
  d.Set("rss_peak_mb", rss_mb, "MB");
  d.Set("ops_failed_frac", outcome.failed_frac(), "ratio");
  d.Set("reference_rps", spec.reference_rps, "1/s");
  d.Set("loadgen.late_p99_us", L.late_us.Quantile(0.99), "us");
  d.Set("loadgen.late_max_us", L.late_us.Max(), "us");
  d.Set("server.first_range_ms", first_range_ms, "ms");
  d.Set("server.queue_wait_p99_us",
        1e6 * HistogramQuantile("tagg_executor_queue_wait_seconds", qw_before,
                                qw_after, 0.99),
        "us");
  for (int k = 0; k < 4; ++k) {
    d.Set(std::string("samples.") + kKindNames[k],
          static_cast<double>(L.latency_us[k].size()), "count");
  }

  // serve_read's probes are many enough for a p99 in every window;
  // serve_ingest's range reads are not, so its tail is the windows' p90.
  d.Set("read_tail_us",
        (read_kind == kAt ? win_p99 : win_p90)[read_kind].Median(), "us");

  Report& e = res.end_to_end;
  e.Set("setup_s", setup.Median(), "s");
  e.Set("read_typical_us", win_p50[read_kind].Median(), "us");
  e.Set("throughput_per_s", capacity.Median(), "1/s");
  e.Set("rss_peak_mb", rss_mb, "MB");
  return res;
}

}  // namespace

WorkloadResult RunServeRead(const RunContext& ctx) {
  return RunServed(kServeRead, ctx);
}

WorkloadResult RunServeIngest(const RunContext& ctx) {
  return RunServed(kServeIngest, ctx);
}

namespace {

constexpr size_t kLadderCalls = 2000;

/// Median per-call time of fn(i) over `calls` calls, in nanoseconds,
/// after one untimed pass over the same calls so every rung is measured
/// with the same warm caches.
template <typename Fn>
double PerCallNs(size_t calls, Fn&& fn) {
  for (size_t i = 0; i < calls; ++i) fn(i);
  Samples s;
  for (size_t i = 0; i < calls; ++i) {
    const int64_t t0 = NowNs();
    fn(i);
    s.Add(static_cast<double>(NowNs() - t0));
  }
  return s.Median();
}

/// Median per-call times of several rungs doing the same calls, measured
/// in interleaved blocks (each block warmed once, then timed; the rung
/// order rotates per block) so every rung sees the same cache state and
/// drift.
std::vector<double> LadderNs(
    size_t calls, const std::vector<std::function<void(size_t)>>& rungs) {
  const size_t kBlock = 100;
  std::vector<Samples> per(rungs.size());
  size_t rotation = 0;
  for (size_t base = 0; base < calls; base += kBlock, ++rotation) {
    const size_t end = std::min(calls, base + kBlock);
    for (size_t k = 0; k < rungs.size(); ++k) {
      const size_t r = (k + rotation) % rungs.size();
      for (size_t i = base; i < end; ++i) rungs[r](i);
      for (size_t i = base; i < end; ++i) {
        const int64_t t0 = NowNs();
        rungs[r](i);
        per[r].Add(static_cast<double>(NowNs() - t0));
      }
    }
  }
  std::vector<double> out;
  for (const Samples& s : per) out.push_back(s.Median());
  return out;
}

/// Fails the run when rung `upper` is cheaper than rung `lower` by more
/// than the noise bound (20% plus 100 ns): each rung wraps the one below,
/// so an inverted ladder means a measurement went wrong.
void CheckRung(const Report& r, const std::string& lower,
               const std::string& upper, Outcome* outcome) {
  const double lo = r.Get(lower);
  const double hi = r.Get(upper);
  if (hi < lo * 0.8 - 100.0) {
    outcome->Wrong("layer ladder inverted: " + upper + " = " +
                   std::to_string(hi) + " ns < " + lower + " = " +
                   std::to_string(lo) + " ns");
  }
}

std::vector<tagg::Tuple> TupleBatch(TupleSource& src, size_t n) {
  std::vector<tagg::Tuple> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(ToTuple(src.Next()));
  return out;
}

/// The served ladder on the serve_read stack (1 shard): the same
/// AggregateAt / narrow AggregateOver at every rung, from the COW index
/// up to a loopback round trip, plus the live index's write-side counts.
void ReadStackLayers(const RunContext& ctx, Report* L, Outcome* outcome) {
  ServeStack stack;
  double first_range_ms = 0.0;
  if (Status st = stack.Start(kServeRead, ctx.seed, &first_range_ms);
      !st.ok()) {
    outcome->Fail("layer set-up: " + st.ToString());
    return;
  }
  L->Set("server.first_range_ms", first_range_ms, "ms");

  // The lower rungs need the LiveService itself, which the router keeps
  // private: a plain LiveService loaded with the same tuples stands in.
  tagg::Catalog catalog;
  (void)catalog.Register(std::make_shared<tagg::Relation>(
      tagg::EmployedSchema(), "employed"));
  tagg::LiveService live;
  if (Status st = live.RegisterIndex(catalog, "employed",
                                     AggregateKind::kCount);
      !st.ok()) {
    outcome->Fail("layer live service: " + st.ToString());
    return;
  }
  {
    const std::vector<Row>& rows = stack.rows();
    for (size_t i = 0; i < rows.size(); i += kPreloadBatch) {
      std::vector<tagg::Tuple> batch;
      for (size_t j = i; j < std::min(rows.size(), i + kPreloadBatch); ++j) {
        batch.push_back(ToTuple(rows[j]));
      }
      (void)live.IngestBatch("employed", std::move(batch));
    }
    (void)live.Flush();
  }
  const tagg::LiveAggregateIndex* index =
      live.Find("employed", AggregateKind::kCount,
                tagg::AggregateOptions::kNoAttribute);
  if (index == nullptr) {
    outcome->Fail("layer live index missing");
    return;
  }

  tagg::Rng rng(Mix(ctx.seed, 50));
  std::vector<Instant> ts(kLadderCalls);
  for (Instant& t : ts) t = rng.Uniform(0, kLifespan - 1);
  std::vector<std::string> at_payloads;
  std::vector<std::string> over_payloads;
  for (Instant t : ts) {
    at_payloads.push_back(
        net::EncodeAggregateAt({"employed", 0, net::kWireNoAttribute, t}));
    const Instant lo = std::min(t, kLifespan - kServeRead.over_width);
    over_payloads.push_back(net::EncodeAggregateOver(
        {"employed", 0, net::kWireNoAttribute, lo,
         lo + kServeRead.over_width - 1, true}));
  }
  auto window = [&](size_t i) {
    const Instant lo = std::min(ts[i], kLifespan - kServeRead.over_width);
    return Period(lo, lo + kServeRead.over_width - 1);
  };
  const auto& state = stack.state();
  auto& sharded = stack.sharded();
  const size_t no_attr = tagg::AggregateOptions::kNoAttribute;
  auto client = net::Client::ConnectTo(stack.port());
  if (!client.ok()) {
    outcome->Fail("layer client: " + client.status().ToString());
    return;
  }
  uint64_t bad = 0;
  uint64_t calls = 0;
  auto expect = [&](bool ok) {
    ++calls;
    bad += ok ? 0 : 1;
  };

  // AggregateAt, rung by rung.
  const char* at_ladder[] = {"live.index_at_ns", "live.service_at_ns",
                             "shard.router_at_ns", "server.execute_at_ns",
                             "net.rtt_at_ns"};
  const std::vector<double> at_ns = LadderNs(kLadderCalls, {
      [&](size_t i) { expect(index->AggregateAt(ts[i]).ok()); },
      [&](size_t i) {
        const tagg::LiveAggregateIndex* idx =
            live.Find("employed", AggregateKind::kCount, no_attr);
        expect(idx != nullptr && idx->AggregateAt(ts[i]).ok());
      },
      [&](size_t i) {
        expect(sharded.AggregateAt("employed", AggregateKind::kCount, no_attr,
                                   ts[i]).ok());
      },
      [&](size_t i) {
        expect(tagg::server::ExecuteBinaryRequest(
                   state, static_cast<uint8_t>(net::Opcode::kAggregateAt),
                   at_payloads[i], nullptr)
                   .ok());
      },
      [&](size_t i) {
        expect(client->AggregateAt("employed", 0, net::kWireNoAttribute,
                                   ts[i]).ok());
      }});
  for (size_t r = 0; r < at_ns.size(); ++r) L->Set(at_ladder[r], at_ns[r], "ns");
  L->Set("net.rtt_at_depth8_ns",
         PerCallNs(kLadderCalls / 8, [&](size_t i) {
           for (size_t j = 0; j < 8; ++j) {
             expect(client->Send(net::Opcode::kAggregateAt,
                                 at_payloads[(i * 8 + j) % kLadderCalls])
                        .ok());
           }
           for (size_t j = 0; j < 8; ++j) {
             auto r = client->Receive();
             expect(r.ok() && r->code == tagg::StatusCode::kOk);
           }
         }) / 8.0, "ns");
  L->Set("shard.router_overhead_ns",
         L->Get("shard.router_at_ns") - L->Get("live.service_at_ns"), "ns");
  L->Set("server.codec_overhead_ns",
         L->Get("server.execute_at_ns") - L->Get("shard.router_at_ns"), "ns");
  L->Set("net.transport_overhead_ns",
         L->Get("net.rtt_at_ns") - L->Get("server.execute_at_ns"), "ns");

  // The narrow AggregateOver, rung by rung.
  const char* over_ladder[] = {"live.index_over_ns", "live.service_over_ns",
                               "shard.router_over_ns",
                               "server.execute_over_ns", "net.rtt_over_ns"};
  const std::vector<double> over_ns = LadderNs(kLadderCalls, {
      [&](size_t i) { expect(index->AggregateOver(window(i)).ok()); },
      [&](size_t i) {
        const tagg::LiveAggregateIndex* idx =
            live.Find("employed", AggregateKind::kCount, no_attr);
        expect(idx != nullptr && idx->AggregateOver(window(i)).ok());
      },
      [&](size_t i) {
        expect(sharded.AggregateOver("employed", AggregateKind::kCount,
                                     no_attr, window(i)).ok());
      },
      [&](size_t i) {
        expect(tagg::server::ExecuteBinaryRequest(
                   state, static_cast<uint8_t>(net::Opcode::kAggregateOver),
                   over_payloads[i], nullptr)
                   .ok());
      },
      [&](size_t i) {
        const Period w = window(i);
        expect(client->AggregateOver("employed", 0, net::kWireNoAttribute,
                                     w.start(), w.end()).ok());
      }});
  for (size_t r = 0; r < over_ns.size(); ++r) {
    L->Set(over_ladder[r], over_ns[r], "ns");
  }

  // Instrumentation cost on the smallest operation: blocks of router
  // probes with the program's metrics off and on, interleaved so drift
  // cancels.
  Samples router_off;
  Samples router_on;
  for (int block = 0; block < 20; ++block) {
    const bool on = (block & 1) != 0;
    tagg::obs::SetEnabled(on);
    (on ? router_on : router_off).Add(PerCallNs(200, [&](size_t i) {
      expect(sharded.AggregateAt("employed", AggregateKind::kCount, no_attr,
                                 ts[(block * 200 + i) % kLadderCalls]).ok());
    }));
  }
  tagg::obs::SetEnabled(true);
  L->Set("obs.overhead_at_ns", router_on.Median() - router_off.Median(), "ns");

  // Per-stage server spans of sampled requests (the trace flag).
  const size_t kSampled = 200;
  for (size_t i = 0; i < kSampled; ++i) {
    auto r = client->CallTraced(net::Opcode::kAggregateAt, 1000 + i,
                                net::kTraceFlagSampled, at_payloads[i]);
    expect(r.ok() && r->code == tagg::StatusCode::kOk);
  }
  Samples stage[tagg::obs::kNumRequestStages];
  for (const auto& rec :
       tagg::obs::RequestTraceRegistry::Global().SnapshotAll()) {
    if (!rec.sampled() || rec.trace_id < 1000 ||
        rec.trace_id >= 1000 + kSampled) {
      continue;
    }
    for (int st = 0; st < tagg::obs::kNumRequestStages; ++st) {
      if (rec.stage_ns[st] >= 0) stage[st].Add(rec.stage_ns[st] * 1e-3);
    }
  }
  L->Set("net.recv_us", stage[tagg::obs::kStageRecv].Median(), "us");
  L->Set("net.decode_us", stage[tagg::obs::kStageDecode].Median(), "us");
  L->Set("server.queue_us", stage[tagg::obs::kStageQueueWait].Median(), "us");
  L->Set("server.execute_us", stage[tagg::obs::kStageExecute].Median(), "us");
  L->Set("net.encode_us", stage[tagg::obs::kStageEncode].Median(), "us");
  L->Set("net.write_us", stage[tagg::obs::kStageWrite].Median(), "us");

  // Index shape, then the write side: 64-tuple IngestBatch + Flush on the
  // COW index, with its allocation and reclamation counts.
  const tagg::LiveIndexStats before = index->Stats();
  L->Set("live.tree_depth", static_cast<double>(before.tree_depth), "count");
  L->Set("live.live_nodes", static_cast<double>(before.live_nodes), "count");
  auto allocated = [&]() -> double {
    auto s = index->AggregateOver(Period(0, 0));
    return s.ok() ? static_cast<double>(s->stats.nodes_allocated) : 0.0;
  };
  const double alloc0 = allocated();
  TupleSource src(Mix(ctx.seed, 51));
  const size_t kBatches = 1000;
  double pending_max = 0.0;
  Samples ingest_ns;
  for (size_t b = 0; b < kBatches; ++b) {
    std::vector<tagg::Tuple> batch = TupleBatch(src, 64);
    const int64_t t0 = NowNs();
    expect(live.IngestBatch("employed", std::move(batch)).ok());
    expect(live.Flush("employed").ok());
    ingest_ns.Add(static_cast<double>(NowNs() - t0));
    pending_max = std::max(
        pending_max, static_cast<double>(index->Stats().retired_pending));
  }
  const tagg::LiveIndexStats after = index->Stats();
  const double inserted = 64.0 * kBatches;
  L->Set("live.ingest_batch_ns", ingest_ns.Median(), "ns");
  L->Set("live.nodes_allocated_per_insert", (allocated() - alloc0) / inserted,
         "count");
  L->Set("live.nodes_retired_per_insert",
         static_cast<double>(after.nodes_retired - before.nodes_retired) /
             inserted,
         "count");
  L->Set("live.retired_pending_max", pending_max, "count");

  // Queueing at the reference rate, from the program's own histogram.
  const auto qw0 = HistogramBuckets("tagg_executor_queue_wait_seconds");
  const uint64_t busy0 = CounterValue("tagg_server_busy_total");
  const uint64_t req0 = CounterValue("tagg_server_requests_total");
  const OpenLoopResult phase = RunPhase(stack, kServeRead.reference_rps, 2.0);
  AddLoadOutcome(phase, outcome);
  const auto qw1 = HistogramBuckets("tagg_executor_queue_wait_seconds");
  L->Set("server.queue_wait_p50_us",
         1e6 * HistogramQuantile("tagg_executor_queue_wait_seconds", qw0, qw1,
                                 0.5),
         "us");
  L->Set("server.queue_wait_p99_us",
         1e6 * HistogramQuantile("tagg_executor_queue_wait_seconds", qw0, qw1,
                                 0.99),
         "us");
  const double requests =
      static_cast<double>(CounterValue("tagg_server_requests_total") - req0);
  L->Set("server.busy_frac",
         static_cast<double>(CounterValue("tagg_server_busy_total") - busy0) /
             std::max(requests, 1.0),
         "ratio");
  L->Set("loadgen.late_p99_us", phase.late_us.Quantile(0.99), "us");
  L->Set("loadgen.late_max_us", phase.late_us.Max(), "us");

  outcome->attempted += calls;
  if (bad > 0) outcome->Fail(std::to_string(bad) + " ladder call(s) failed");
  // Only the AggregateAt ladder is gated.  The narrow AggregateOver's two
  // lowest rungs do identical work yet can differ by tens of percent from
  // one allocation pattern to the next, so that ladder is reported only.
  for (size_t i = 1; i < 5; ++i) {
    CheckRung(*L, at_ladder[i - 1], at_ladder[i], outcome);
  }
}

/// Scatter-gather and boundary-clipped ingest on the serve_ingest stack
/// (4 shards), plus the wire's byte and read-pause counts under its mix.
void IngestStackLayers(const RunContext& ctx, Report* L, Outcome* outcome) {
  ServeStack stack;
  if (Status st = stack.Start(kServeIngest, ctx.seed, nullptr); !st.ok()) {
    outcome->Fail("layer set-up: " + st.ToString());
    return;
  }
  auto& sharded = stack.sharded();
  const size_t no_attr = tagg::AggregateOptions::kNoAttribute;
  tagg::Rng rng(Mix(ctx.seed, 52));
  uint64_t bad = 0;

  const size_t kRanges = 40;
  const uint64_t scatter0 = CounterValue("tagg_shard_scatter_total");
  const uint64_t sub0 = CounterValue("tagg_shard_scatter_subqueries_total");
  const uint64_t inline0 = CounterValue("tagg_shard_scatter_inline_total");
  L->Set("shard.scatter_over_ns", PerCallNs(kRanges, [&](size_t) {
           const Instant lo =
               rng.Uniform(0, kLifespan - kServeIngest.over_width);
           bad += sharded.AggregateOver("employed", AggregateKind::kCount,
                                        no_attr,
                                        Period(lo, lo + kServeIngest.over_width - 1))
                          .ok()
                      ? 0
                      : 1;
         }), "ns");
  const double scatters =
      static_cast<double>(CounterValue("tagg_shard_scatter_total") - scatter0);
  const double subs = static_cast<double>(
      CounterValue("tagg_shard_scatter_subqueries_total") - sub0);
  L->Set("shard.subqueries_per_range", subs / kRanges, "count");
  L->Set("shard.scatter_inline_frac",
         subs > 0 ? static_cast<double>(
                        CounterValue("tagg_shard_scatter_inline_total") -
                        inline0) /
                        subs
                  : 0.0,
         "ratio");
  L->Set("shard.scatters_per_range", scatters / kRanges, "count");

  TupleSource src(Mix(ctx.seed, 53));
  const size_t kBatches = 1000;
  const uint64_t split0 = CounterValue("tagg_shard_straddle_splits_total");
  Samples ingest_ns;
  for (size_t b = 0; b < kBatches; ++b) {
    std::vector<tagg::Tuple> batch = TupleBatch(src, 64);
    const int64_t t0 = NowNs();
    bad += sharded.IngestBatch("employed", std::move(batch)).ok() ? 0 : 1;
    bad += sharded.Flush("employed").ok() ? 0 : 1;
    ingest_ns.Add(static_cast<double>(NowNs() - t0));
  }
  L->Set("shard.ingest_batch_ns", ingest_ns.Median(), "ns");
  L->Set("shard.straddle_splits_per_tuple",
         static_cast<double>(CounterValue("tagg_shard_straddle_splits_total") -
                             split0) /
             (64.0 * kBatches),
         "count");

  // The served InsertBatch without a socket.
  std::vector<std::string> payloads;
  for (size_t b = 0; b < kBatches; ++b) {
    net::InsertBatchRequest r;
    r.relation = "employed";
    for (size_t j = 0; j < 64; ++j) r.tuples.push_back(ToWire(src.Next()));
    payloads.push_back(net::EncodeInsertBatch(r));
  }
  L->Set("server.execute_insert_batch_ns",
         PerCallNs(kBatches, [&](size_t i) {
           bad += tagg::server::ExecuteBinaryRequest(
                      stack.state(),
                      static_cast<uint8_t>(net::Opcode::kInsertBatch),
                      payloads[i], nullptr)
                          .ok()
                      ? 0
                      : 1;
         }), "ns");

  const uint64_t pauses0 = CounterValue("tagg_net_read_pauses_total");
  const OpenLoopResult phase =
      RunPhase(stack, kServeIngest.reference_rps, 2.0);
  AddLoadOutcome(phase, outcome);
  L->Set("net.bytes_per_op",
         static_cast<double>(phase.bytes_sent + phase.bytes_received) /
             std::max<double>(1.0, static_cast<double>(phase.sent)),
         "B");
  L->Set("net.read_pauses",
         static_cast<double>(CounterValue("tagg_net_read_pauses_total") -
                             pauses0),
         "count");
  outcome->attempted += kRanges + 3 * kBatches;
  if (bad > 0) outcome->Fail(std::to_string(bad) + " shard call(s) failed");
}

}  // namespace

void ServedLayers(const RunContext& ctx, Report* layers, Outcome* outcome) {
  ReadStackLayers(ctx, layers, outcome);
  IngestStackLayers(ctx, layers, outcome);
}


}  // namespace perfbench
