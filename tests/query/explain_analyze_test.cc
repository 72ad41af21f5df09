// EXPLAIN ANALYZE end-to-end: the statement parses, the query actually
// executes, and the attached QueryProfile forms a well-nested span tree
// whose stage durations are consistent with the total wall time.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "core/workload.h"
#include "obs/metrics.h"
#include "query/executor.h"
#include "shard/sharded_service.h"
#include "storage/relation_io.h"

namespace tagg {
namespace {

class ExplainAnalyzeTest : public testing::Test {
 protected:
  void SetUp() override {
    auto employed =
        std::make_shared<Relation>(MakeFigure1EmployedRelation());
    ASSERT_TRUE(catalog_.Register(employed).ok());
  }

  Catalog catalog_;
};

TEST_F(ExplainAnalyzeTest, ExecutesAndMarksTheResult) {
  auto result =
      RunQuery("EXPLAIN ANALYZE SELECT COUNT(name) FROM employed",
               catalog_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->analyzed);
  // Unlike plain EXPLAIN, the rows are real.
  EXPECT_EQ(result->rows.size(), 6u);
}

TEST_F(ExplainAnalyzeTest, PlainExplainStillPlansOnly) {
  auto result =
      RunQuery("EXPLAIN SELECT COUNT(name) FROM employed", catalog_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->analyzed);
  EXPECT_TRUE(result->rows.empty());
}

TEST_F(ExplainAnalyzeTest, ProfileSpansNestAndCoverTheStages) {
  auto result =
      RunQuery("EXPLAIN ANALYZE SELECT COUNT(name) FROM employed",
               catalog_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->profile, nullptr);
  const obs::QueryProfile& profile = *result->profile;

  // The root holds parse, analyze, execute in statement order.
  const obs::SpanNode& root = profile.root();
  ASSERT_EQ(root.children.size(), 3u);
  EXPECT_EQ(root.children[0]->name, "parse");
  EXPECT_EQ(root.children[1]->name, "analyze");
  EXPECT_EQ(root.children[2]->name, "execute");

  // The pipeline stages are children of execute, not siblings of it.
  const obs::SpanNode& execute = *root.children[2];
  for (const char* stage : {"filter", "plan", "group", "aggregate"}) {
    const obs::SpanNode* node = profile.Find(stage);
    ASSERT_NE(node, nullptr) << stage;
    EXPECT_GE(node->duration_ns, 0) << stage;
    bool is_child = false;
    for (const auto& child : execute.children) {
      if (child.get() == node) is_child = true;
    }
    EXPECT_TRUE(is_child) << stage << " must nest under execute";
  }

  // Well-nested timing: every stage fits inside execute, and the stages
  // together cannot exceed the execute span (they are disjoint).
  int64_t stage_sum = 0;
  for (const auto& child : execute.children) {
    EXPECT_GE(child->start_ns, execute.start_ns);
    EXPECT_LE(child->start_ns + child->duration_ns,
              execute.start_ns + execute.duration_ns);
    stage_sum += child->duration_ns;
  }
  EXPECT_LE(stage_sum, execute.duration_ns);
  // And the query total bounds everything.
  EXPECT_LE(execute.duration_ns, profile.total_ns());
  EXPECT_GT(profile.total_ns(), 0);
}

TEST_F(ExplainAnalyzeTest, AnnotationsCarryExecutionStats) {
  auto result =
      RunQuery("EXPLAIN ANALYZE SELECT COUNT(name) FROM employed",
               catalog_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->profile, nullptr);

  const obs::SpanNode* filter = result->profile->Find("filter");
  ASSERT_NE(filter, nullptr);
  const size_t employed_size = MakeFigure1EmployedRelation().size();
  bool has_tuples_out = false;
  for (const auto& [key, value] : filter->annotations) {
    if (key == "tuples_out") {
      has_tuples_out = true;
      EXPECT_EQ(value, std::to_string(employed_size));
    }
  }
  EXPECT_TRUE(has_tuples_out);

  const obs::SpanNode* aggregate = result->profile->Find("aggregate");
  ASSERT_NE(aggregate, nullptr);
  bool has_work_steps = false;
  for (const auto& [key, value] : aggregate->annotations) {
    if (key == "work_steps") has_work_steps = true;
  }
  EXPECT_TRUE(has_work_steps);
}

TEST_F(ExplainAnalyzeTest, RenderingShowsPlanAndTimedStages) {
  auto result =
      RunQuery("EXPLAIN ANALYZE SELECT COUNT(name) FROM employed",
               catalog_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string text = result->ExplainAnalyzeString();
  EXPECT_NE(text.find("Plan: "), std::string::npos);
  EXPECT_NE(text.find("query"), std::string::npos);
  EXPECT_NE(text.find("execute"), std::string::npos);
  EXPECT_NE(text.find("aggregate"), std::string::npos);
  EXPECT_NE(text.find("ms"), std::string::npos);
}

TEST_F(ExplainAnalyzeTest, EveryResultCarriesAProfile) {
  auto result = RunQuery("SELECT COUNT(name) FROM employed", catalog_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->analyzed);
  ASSERT_NE(result->profile, nullptr);
  EXPECT_NE(result->profile->Find("execute"), nullptr);
}

/// The `rows` annotation of `node`; -1 when absent.
long RowsAnnotation(const obs::SpanNode& node) {
  for (const auto& [key, value] : node.annotations) {
    if (key == "rows") return std::stol(value);
  }
  return -1;
}

/// The child of `parent` called `name`; nullptr when absent.
const obs::SpanNode* Child(const obs::SpanNode& parent,
                           std::string_view name) {
  for (const auto& child : parent.children) {
    if (child->name == name) return child.get();
  }
  return nullptr;
}

TEST_F(ExplainAnalyzeTest, PartitionedRouteTimesRowAssemblyUnderAggregate) {
  ExecutorOptions options;
  options.parallel_workers = 2;
  for (const char* sql :
       {"EXPLAIN ANALYZE SELECT COUNT(name) FROM employed",
        "EXPLAIN ANALYZE SELECT COUNT(*), MAX(salary) FROM employed"}) {
    SCOPED_TRACE(sql);
    auto result = RunQuery(sql, catalog_, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->plan.algorithm, AlgorithmKind::kPartitioned);
    ASSERT_NE(result->profile, nullptr);
    const obs::SpanNode* aggregate = result->profile->Find("aggregate");
    ASSERT_NE(aggregate, nullptr);
    // One assemble span after the partitioned evaluations it zips.
    const obs::SpanNode* assemble = Child(*aggregate, "assemble");
    ASSERT_NE(assemble, nullptr);
    EXPECT_EQ(aggregate->children.back().get(), assemble);
    EXPECT_GE(assemble->duration_ns, 0);
    EXPECT_GE(assemble->start_ns, aggregate->start_ns);
    EXPECT_EQ(RowsAnnotation(*assemble),
              static_cast<long>(result->rows.size()));
    EXPECT_GT(result->rows.size(), 0u);
  }
}

TEST_F(ExplainAnalyzeTest, ShardedRouteTimesRowAssemblyBesideTheScatter) {
  shard::ShardedLiveService service;
  ASSERT_TRUE(
      service.RegisterIndex(catalog_, "employed", AggregateKind::kCount)
          .ok());
  ExecutorOptions options;
  options.sharded_service = &service;
  auto result = RunQuery("EXPLAIN ANALYZE SELECT COUNT(*) FROM employed",
                         catalog_, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->plan.algorithm, AlgorithmKind::kLiveIndex);
  ASSERT_NE(result->profile, nullptr);
  const obs::SpanNode* execute = result->profile->Find("execute");
  ASSERT_NE(execute, nullptr);
  ASSERT_NE(Child(*execute, "shard_scatter"), nullptr);
  const obs::SpanNode* assemble = Child(*execute, "assemble");
  ASSERT_NE(assemble, nullptr);
  EXPECT_GE(assemble->duration_ns, 0);
  EXPECT_EQ(RowsAnnotation(*assemble),
            static_cast<long>(result->rows.size()));
  EXPECT_EQ(result->rows.size(), 6u);  // Table 1 of the paper
}

// A query served from a columnar backing file: the pruned scan's phases
// are children of the executor's column_scan span.
class ExplainAnalyzeColumnScanTest : public ExplainAnalyzeTest {
 protected:
  void SetUp() override {
    ExplainAnalyzeTest::SetUp();
    path_ = testing::TempDir() + "tagg_explain_column_" +
            std::to_string(::getpid()) + ".tcr";
    auto relation = catalog_.Get("employed");
    ASSERT_TRUE(relation.ok());
    auto column =
        WriteRelationToColumnFile(**relation, path_, /*rows_per_block=*/2);
    ASSERT_TRUE(column.ok()) << column.status().ToString();
    ASSERT_TRUE(catalog_.AttachColumnBacking("employed", *column).ok());
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }

  std::string path_;
};

TEST_F(ExplainAnalyzeColumnScanTest, ScanPhasesNestUnderColumnScan) {
  obs::Counter& rows_decoded = obs::MetricsRegistry::Global().GetCounter(
      "tagg_column_scan_rows_decoded_total", "");
  const struct {
    const char* sql;
    std::vector<std::string> phases;
  } cases[] = {
      {"EXPLAIN ANALYZE SELECT COUNT(*) FROM employed",
       {"decode", "sort", "sweep"}},
      {"EXPLAIN ANALYZE SELECT SUM(salary) FROM employed",
       {"decode", "sort", "sweep"}},
      {"EXPLAIN ANALYZE SELECT MAX(salary) FROM employed",
       {"decode", "tree"}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.sql);
    const uint64_t rows_before = rows_decoded.Value();
    auto result = RunQuery(c.sql, catalog_);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->plan.algorithm, AlgorithmKind::kColumnScan);
    ASSERT_NE(result->profile, nullptr);
    const obs::SpanNode* scan = result->profile->Find("column_scan");
    ASSERT_NE(scan, nullptr);
    ASSERT_EQ(scan->children.size(), c.phases.size());
    int64_t phase_sum = 0;
    for (size_t i = 0; i < c.phases.size(); ++i) {
      const obs::SpanNode& phase = *scan->children[i];
      EXPECT_EQ(phase.name, c.phases[i]);
      EXPECT_GE(phase.duration_ns, 0) << phase.name;
      EXPECT_GE(phase.start_ns, scan->start_ns) << phase.name;
      phase_sum += phase.duration_ns;
    }
    EXPECT_LE(phase_sum, scan->duration_ns);
    // The full window decodes every row of the Figure 1 relation.
    const size_t rows = MakeFigure1EmployedRelation().size();
    bool has_rows_decoded = false;
    for (const auto& [key, value] : scan->children[0]->annotations) {
      if (key == "rows_decoded") {
        has_rows_decoded = true;
        EXPECT_EQ(value, std::to_string(rows));
      }
    }
    EXPECT_TRUE(has_rows_decoded);
    EXPECT_EQ(rows_decoded.Value() - rows_before, rows);
    // Row assembly is its own span beside the scan, not a scan phase.
    const obs::SpanNode* execute = result->profile->Find("execute");
    ASSERT_NE(execute, nullptr);
    const obs::SpanNode* assemble = Child(*execute, "assemble");
    ASSERT_NE(assemble, nullptr);
    EXPECT_GE(assemble->start_ns, scan->start_ns + scan->duration_ns);
    EXPECT_EQ(RowsAnnotation(*assemble),
              static_cast<long>(result->rows.size()));
  }
}

}  // namespace
}  // namespace tagg
