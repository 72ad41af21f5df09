// perfbench: runs one workload and prints its metrics.
//
//   perfbench --workload <name|all> --seed N --seconds S --trace 0|1
//             [--work-dir DIR]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  The lines above it are a readable report: the workload's
// own named metrics and any errors.  Exit status is 0 whenever the
// result line is printed, whether or not every answer was right
// ("correct" says so); bad arguments exit 2 without one.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

using perfbench::Report;
using perfbench::RunContext;
using perfbench::WorkloadResult;

struct Entry {
  const char* name;
  WorkloadResult (*run)(const RunContext&);
};

const Entry kWorkloads[] = {
    {"serve_read", perfbench::RunServeRead},
    {"serve_ingest", perfbench::RunServeIngest},
    {"batch_sql", perfbench::RunBatchSql},
    {"stored_scan", perfbench::RunStoredScan},
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve_read|serve_ingest|"
               "batch_sql|stored_scan|all --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunContext ctx;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      ctx.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      ctx.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      ctx.seconds = std::atof(value);
    } else if (arg == "--trace") {
      ctx.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--work-dir") {
      ctx.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload || ctx.seconds <= 0) return Usage();
  if (ctx.work_dir.empty()) ctx.work_dir = ".bench_build/work";
  std::error_code ec;
  std::filesystem::create_directories(ctx.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", ctx.work_dir.c_str());
    return 1;
  }

  std::vector<const Entry*> selected;
  for (const Entry& e : kWorkloads) {
    if (ctx.workload == "all" || ctx.workload == e.name) selected.push_back(&e);
  }
  if (selected.empty()) return Usage();

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Report metrics;
  for (const Entry* entry : selected) {
    RunContext one = ctx;
    one.workload = entry->name;
    if (ctx.trace) one.setup_reps = 1;
    WorkloadResult result = entry->run(one);
    if (ctx.trace) {
      // The workload priced its own tracing above; now every layer suite.
      perfbench::ServedLayers(one, &result.layers, &result.outcome);
      perfbench::BatchLayers(one, &result.layers, &result.outcome);
      perfbench::StoredLayers(one, &result.layers, &result.outcome);
    }
    std::printf("== %s (seed %llu)\n", entry->name,
                static_cast<unsigned long long>(ctx.seed));
    std::printf("%s", result.details.ToText("  ").c_str());
    if (ctx.trace) std::printf("%s", result.layers.ToText("  ").c_str());
    for (const std::string& err : result.outcome.errors) {
      std::printf("  ! %s\n", err.c_str());
    }
    correct = correct && result.outcome.correct();
    attempted += result.outcome.attempted;
    failed += result.outcome.failed;
    const Report& chosen = ctx.trace ? result.layers : result.end_to_end;
    if (selected.size() == 1) {
      metrics = chosen;
    } else {
      for (const std::string& name : chosen.names()) {
        metrics.Set(std::string(entry->name) + "." + name, chosen.Get(name),
                    chosen.Unit(name));
      }
    }
  }
  std::filesystem::remove_all(ctx.work_dir, ec);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(attempted, 1)),
              static_cast<unsigned long long>(failed),
              metrics.ToJson().c_str());
  return 0;
}
