#include "storage/column_relation.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/column_scan.h"
#include "storage/heap_file.h"
#include "storage/record_codec.h"
#include "storage/relation_io.h"
#include "temporal/relation.h"
#include "temporal/schema.h"

namespace tagg {
namespace {

namespace fs = std::filesystem;

std::string TestPath(const std::string& stem) {
  return (fs::temp_directory_path() /
          (stem + "_" + std::to_string(::getpid()) + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           ".tcr"))
      .string();
}

Schema EmployedSchema() {
  auto schema = Schema::Make(
      {{"name", ValueType::kString}, {"salary", ValueType::kInt}});
  EXPECT_TRUE(schema.ok());
  return std::move(schema).value();
}

/// A deterministic relation whose starts are *not* sorted, with name
/// lengths 0..15 and negative salaries in the mix.
Relation TestRelation(size_t n) {
  Relation relation(EmployedSchema(), "employed");
  for (size_t i = 0; i < n; ++i) {
    const Instant start = static_cast<Instant>((i * 131) % 997);
    const Instant end = start + static_cast<Instant>((i * 17) % 300);
    std::string name = std::string(i % 16, static_cast<char>('a' + i % 26));
    const int64_t salary =
        static_cast<int64_t>(i) * 1000 - static_cast<int64_t>(n) * 250;
    relation.AppendUnchecked(
        Tuple({Value::String(std::move(name)), Value::Int(salary)},
              Period(start, end)));
  }
  return relation;
}

ColumnRecord MakeRecord(Instant start, Instant end, int64_t salary) {
  ColumnRecord r{};
  r.start = start;
  r.end = end;
  r.salary = salary;
  r.name0 = 0x01'61ull;  // length 1, "a"
  r.name1 = 0;
  return r;
}

TEST(ColumnRelationTest, WriteOpenScanRoundTrips) {
  const std::string path = TestPath("column_relation");
  auto writer = ColumnRelationWriter::Create(path, /*rows_per_block=*/4);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  std::vector<ColumnRecord> written;
  for (int i = 0; i < 11; ++i) {
    written.push_back(MakeRecord(10 * i, 10 * i + 25, 100 * i - 300));
    ASSERT_TRUE((*writer)->Append(written.back()).ok());
  }
  ASSERT_TRUE((*writer)->Finish().ok());
  EXPECT_EQ((*writer)->row_count(), 11u);

  auto relation = ColumnRelation::Open(path);
  ASSERT_TRUE(relation.ok()) << relation.status().ToString();
  EXPECT_EQ((*relation)->row_count(), 11u);
  EXPECT_EQ((*relation)->rows_per_block(), 4u);
  ASSERT_EQ((*relation)->blocks().size(), 3u);  // 4 + 4 + 3

  auto reader = (*relation)->NewReader();
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  std::vector<ColumnRecord> read;
  for (size_t b = 0; b < (*relation)->blocks().size(); ++b) {
    ASSERT_TRUE((*reader)->ReadBlock(b, &read).ok());
  }
  ASSERT_EQ(read.size(), written.size());
  for (size_t i = 0; i < read.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(&read[i], &written[i], sizeof(ColumnRecord)))
        << "row " << i;
  }
  fs::remove(path);
}

TEST(ColumnRelationTest, FooterCarriesZoneMapAndSummaries) {
  const std::string path = TestPath("column_relation");
  auto writer = ColumnRelationWriter::Create(path, /*rows_per_block=*/8);
  ASSERT_TRUE(writer.ok());
  // One block: periods [5,40], [7,12], [9,90]; salaries -10, 50, 20.
  ASSERT_TRUE((*writer)->Append(MakeRecord(5, 40, -10)).ok());
  ASSERT_TRUE((*writer)->Append(MakeRecord(7, 12, 50)).ok());
  ASSERT_TRUE((*writer)->Append(MakeRecord(9, 90, 20)).ok());
  ASSERT_TRUE((*writer)->Finish().ok());

  auto relation = ColumnRelation::Open(path);
  ASSERT_TRUE(relation.ok()) << relation.status().ToString();
  ASSERT_EQ((*relation)->blocks().size(), 1u);
  const ColumnBlockInfo& b = (*relation)->blocks()[0];
  EXPECT_EQ(b.rows, 3u);
  EXPECT_EQ(b.min_start, 5);
  EXPECT_EQ(b.max_start, 9);
  EXPECT_EQ(b.min_end, 12);
  EXPECT_EQ(b.max_end, 90);
  EXPECT_EQ(b.sum, 60.0);
  EXPECT_EQ(b.min_value, -10.0);
  EXPECT_EQ(b.max_value, 50.0);
  EXPECT_EQ(b.offset, kColumnHeaderSize);
  fs::remove(path);
}

TEST(ColumnRelationTest, RejectsOutOfOrderAppend) {
  const std::string path = TestPath("column_relation");
  auto writer = ColumnRelationWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(MakeRecord(50, 60, 1)).ok());
  const Status status = (*writer)->Append(MakeRecord(49, 70, 1));
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  fs::remove(path);
}

TEST(ColumnRelationTest, EmptyRelationRoundTrips) {
  const std::string path = TestPath("column_relation");
  auto writer = ColumnRelationWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Finish().ok());
  auto relation = ColumnRelation::Open(path);
  ASSERT_TRUE(relation.ok()) << relation.status().ToString();
  EXPECT_EQ((*relation)->row_count(), 0u);
  EXPECT_TRUE((*relation)->blocks().empty());
  fs::remove(path);
}

TEST(ColumnRelationTest, ReadBlockOutOfRangeFails) {
  const std::string path = TestPath("column_relation");
  auto writer = ColumnRelationWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(MakeRecord(1, 2, 3)).ok());
  ASSERT_TRUE((*writer)->Finish().ok());
  auto relation = ColumnRelation::Open(path);
  ASSERT_TRUE(relation.ok());
  auto reader = (*relation)->NewReader();
  ASSERT_TRUE(reader.ok());
  std::vector<ColumnRecord> rows;
  EXPECT_TRUE((*reader)->ReadBlock(1, &rows).IsOutOfRange());
  fs::remove(path);
}

// --- corruption ------------------------------------------------------------

class ColumnRelationCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TestPath("column_relation_corrupt");
    auto writer = ColumnRelationWriter::Create(path_, /*rows_per_block=*/16);
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE((*writer)->Append(MakeRecord(i, i + 10, i * 7)).ok());
    }
    ASSERT_TRUE((*writer)->Finish().ok());
    file_size_ = fs::file_size(path_);
  }

  void TearDown() override { fs::remove(path_); }

  void FlipByteAt(uint64_t offset) {
    std::FILE* f = std::fopen(path_.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    std::fputc(c ^ 0x40, f);
    std::fclose(f);
  }

  /// Rewrites the file from `blocks` (encoded TCB1 blocks) and `infos`
  /// (their footer entries, offsets and sizes recomputed here), keeping
  /// the original header and resealing the trailer's footer CRC, so only
  /// the blocks' contents can disagree with the footer.
  void Rewrite(const std::vector<std::string>& blocks,
               std::vector<ColumnBlockInfo> infos) {
    ASSERT_EQ(blocks.size(), infos.size());
    std::string bytes(file_size_, '\0');
    std::FILE* in = std::fopen(path_.c_str(), "rb");
    ASSERT_NE(in, nullptr);
    ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), in), bytes.size());
    std::fclose(in);

    std::string out = bytes.substr(0, kColumnHeaderSize);
    for (size_t i = 0; i < blocks.size(); ++i) {
      infos[i].offset = out.size();
      infos[i].encoded_bytes = blocks[i].size();
      out += blocks[i];
    }
    std::string footer(infos.size() * kColumnBlockInfoSize, '\0');
    std::memcpy(footer.data(), infos.data(), footer.size());
    out += footer;
    std::string trailer = bytes.substr(bytes.size() - kColumnTrailerSize);
    const uint32_t crc = Crc32(0, footer.data(), footer.size());
    std::memcpy(trailer.data() + 24, &crc, sizeof(crc));
    out += trailer;

    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(out.data(), 1, out.size(), f), out.size());
    std::fclose(f);
  }

  /// Every block of the fixture file, decoded, plus its footer entries.
  void ReadAll(std::vector<std::vector<ColumnRecord>>* rows,
               std::vector<ColumnBlockInfo>* infos) {
    auto relation = ColumnRelation::Open(path_);
    ASSERT_TRUE(relation.ok()) << relation.status().ToString();
    auto reader = (*relation)->NewReader();
    ASSERT_TRUE(reader.ok());
    *infos = (*relation)->blocks();
    rows->assign(infos->size(), {});
    for (size_t i = 0; i < infos->size(); ++i) {
      ASSERT_TRUE((*reader)->ReadBlock(i, &(*rows)[i]).ok());
    }
  }

  /// Opens the (rewritten) file and asserts it opens, that ReadBlock of
  /// `bad` fails with Corruption leaving the output untouched while its
  /// neighbours still read, and that a full-window scan fails too.
  void ExpectBlockCorruption(size_t bad) {
    auto relation = ColumnRelation::Open(path_);
    ASSERT_TRUE(relation.ok()) << relation.status().ToString();
    auto reader = (*relation)->NewReader();
    ASSERT_TRUE(reader.ok());
    std::vector<ColumnRecord> rows;
    const Status status = (*reader)->ReadBlock(bad, &rows);
    EXPECT_TRUE(status.IsCorruption()) << status.ToString();
    EXPECT_TRUE(rows.empty());
    EXPECT_TRUE((*reader)->ReadBlock(bad + 1, &rows).ok());
    for (AggregateKind kind : {AggregateKind::kCount, AggregateKind::kSum,
                               AggregateKind::kMax}) {
      ColumnScanOptions options;
      options.aggregate = kind;
      options.attribute = kind == AggregateKind::kCount
                              ? AggregateOptions::kNoAttribute
                              : kColumnValueAttribute;
      options.parallel_workers = 2;
      const Status scan =
          ComputeColumnScanAggregate(**relation, options).status();
      EXPECT_TRUE(scan.IsCorruption())
          << AggregateKindToString(kind) << ": " << scan.ToString();
    }
  }

  std::string path_;
  uint64_t file_size_ = 0;
};

TEST_F(ColumnRelationCorruptionTest, CrcValidBlockOutOfStartOrderFailsRead) {
  // Re-encode block 0 with two rows swapped: its CRC is valid and its
  // rows stay inside the zone map, but they are no longer start-sorted,
  // which pruning and the scan's presorted start events rely on.
  std::vector<std::vector<ColumnRecord>> rows;
  std::vector<ColumnBlockInfo> infos;
  ReadAll(&rows, &infos);
  std::swap(rows[0][3], rows[0][4]);
  std::vector<std::string> blocks(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(EncodeTemporalBlock(ColumnRecordLayout(), rows[i].data(),
                                    rows[i].size(), &blocks[i])
                    .ok());
  }
  Rewrite(blocks, infos);
  ExpectBlockCorruption(0);
}

TEST_F(ColumnRelationCorruptionTest, RowOutsideTheZoneMapFailsRead) {
  // Shrink block 1's max_end below its last row's end and reseal the
  // footer: Open accepts the (self-consistent) footer, the block's CRC
  // still holds, but a row now lies outside the zone map pruning trusts.
  std::vector<std::vector<ColumnRecord>> rows;
  std::vector<ColumnBlockInfo> infos;
  ReadAll(&rows, &infos);
  std::vector<std::string> blocks(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(EncodeTemporalBlock(ColumnRecordLayout(), rows[i].data(),
                                    rows[i].size(), &blocks[i])
                    .ok());
  }
  --infos[1].max_end;
  Rewrite(blocks, infos);
  ExpectBlockCorruption(1);
}

TEST_F(ColumnRelationCorruptionTest, BitFlipInBlockFailsReadAsCorruption) {
  // Flip a byte inside the first block's payload: Open (which only reads
  // header/footer/trailer) still succeeds, but decoding the block must
  // fail the TCB1 CRC.
  FlipByteAt(kColumnHeaderSize + kTemporalBlockHeaderSize + 3);
  auto relation = ColumnRelation::Open(path_);
  ASSERT_TRUE(relation.ok()) << relation.status().ToString();
  auto reader = (*relation)->NewReader();
  ASSERT_TRUE(reader.ok());
  std::vector<ColumnRecord> rows;
  const Status status = (*reader)->ReadBlock(0, &rows);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
}

TEST_F(ColumnRelationCorruptionTest, BitFlipInFooterFailsOpen) {
  // The footer sits between the blocks and the 32-byte trailer; its CRC
  // lives in the trailer, so any footer flip must fail Open.
  const uint64_t footer_offset =
      file_size_ - kColumnTrailerSize - kColumnBlockInfoSize * 4 + 11;
  FlipByteAt(footer_offset);
  const Status status = ColumnRelation::Open(path_).status();
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
}

TEST_F(ColumnRelationCorruptionTest, BitFlipInTrailerFailsOpen) {
  FlipByteAt(file_size_ - 5);
  EXPECT_FALSE(ColumnRelation::Open(path_).ok());
}

TEST_F(ColumnRelationCorruptionTest, BadHeaderMagicFailsOpen) {
  FlipByteAt(0);
  const Status status = ColumnRelation::Open(path_).status();
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
}

TEST_F(ColumnRelationCorruptionTest, TruncationFailsOpen) {
  fs::resize_file(path_, file_size_ - 9);
  EXPECT_FALSE(ColumnRelation::Open(path_).ok());
}

TEST_F(ColumnRelationCorruptionTest, TruncationToNothingFailsOpen) {
  fs::resize_file(path_, 7);
  EXPECT_FALSE(ColumnRelation::Open(path_).ok());
}

// --- byte-level conversion round trip --------------------------------------

TEST(ColumnRelationConversionTest, HeapToColumnarToScanIsByteIdentical) {
  const std::string heap_path = TestPath("convert_heap");
  const std::string column_path = TestPath("convert_column");
  Relation original = TestRelation(100);
  auto heap = WriteRelationToHeapFile(original, heap_path);
  ASSERT_TRUE(heap.ok()) << heap.status().ToString();

  auto column = ConvertHeapFileToColumnFile(**heap, column_path,
                                            /*rows_per_block=*/7);
  ASSERT_TRUE(column.ok()) << column.status().ToString();
  EXPECT_EQ((*column)->row_count(), original.size());

  auto loaded = LoadRelationFromColumnFile(**column, "employed");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // The column file stores a time-sorted copy; compare the 128-byte
  // record encodings (the strongest equality the codec offers).
  Relation sorted = original;
  sorted.SortByTime();
  ASSERT_EQ(loaded->size(), sorted.size());
  char expect[kRecordSize];
  char actual[kRecordSize];
  for (size_t i = 0; i < sorted.size(); ++i) {
    ASSERT_TRUE(EncodeEmployedRecord(sorted.tuple(i), expect).ok());
    ASSERT_TRUE(EncodeEmployedRecord(loaded->tuple(i), actual).ok());
    EXPECT_EQ(0, std::memcmp(expect, actual, kRecordSize)) << "row " << i;
  }
  fs::remove(heap_path);
  fs::remove(column_path);
}

TEST(ColumnRelationConversionTest, PackRejectsNullsAndLongNames) {
  ColumnRecord record;
  const Tuple null_tuple({Value::Null(), Value::Int(5)}, Period(1, 2));
  EXPECT_FALSE(PackColumnRecord(null_tuple, &record).ok());

  const Tuple long_name(
      {Value::String("sixteen-chars-xx"), Value::Int(5)}, Period(1, 2));
  EXPECT_FALSE(PackColumnRecord(long_name, &record).ok());
}

}  // namespace
}  // namespace tagg
