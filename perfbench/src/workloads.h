// The four workloads and the per-layer suites, one entry point each.
#pragma once

#include "common.h"

namespace perfbench {

/// serve_read / serve_ingest: an in-process server driven over loopback
/// by the open-loop generator.
WorkloadResult RunServeRead(const RunContext& ctx);
WorkloadResult RunServeIngest(const RunContext& ctx);

/// batch_sql: closed-loop RunQuery over two 64K Table-3 relations.
WorkloadResult RunBatchSql(const RunContext& ctx);

/// stored_scan: closed-loop pruned scans over two 1M-row TCR1 files.
WorkloadResult RunStoredScan(const RunContext& ctx);

/// Per-layer suites for the traced run.  Each adds its layer metrics to
/// `layers` and its failures to `outcome`.
void ServedLayers(const RunContext& ctx, Report* layers, Outcome* outcome);
void BatchLayers(const RunContext& ctx, Report* layers, Outcome* outcome);
void StoredLayers(const RunContext& ctx, Report* layers, Outcome* outcome);

}  // namespace perfbench
