// ValueRow: the first value inline, the rest in one heap block.  Every
// special member is checked with the values inline (one value) and with
// them spilled to the heap (three values).  Long strings make each value
// own heap memory, so a double free or a leak shows under ASan.

#include "query/value_row.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace tagg {
namespace {

Value Long(int i) {
  return Value::String("a string too long for the small-string buffer #" +
                       std::to_string(i));
}

ValueRow RowOf(size_t n) {
  ValueRow row;
  for (size_t i = 0; i < n; ++i) row.push_back(Long(static_cast<int>(i)));
  return row;
}

void ExpectHolds(const ValueRow& row, size_t n) {
  ASSERT_EQ(row.size(), n);
  EXPECT_EQ(row.empty(), n == 0);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(row[i], Long(static_cast<int>(i))) << "value " << i;
  }
}

class ValueRowSpecialMembersTest : public testing::TestWithParam<size_t> {};

TEST_P(ValueRowSpecialMembersTest, CopyConstructs) {
  const ValueRow source = RowOf(GetParam());
  ValueRow copy(source);
  ExpectHolds(copy, GetParam());
  ExpectHolds(source, GetParam());
  copy.push_back(Value::Int(7));  // the copy owns its own storage
  ExpectHolds(source, GetParam());
}

TEST_P(ValueRowSpecialMembersTest, MoveConstructs) {
  ValueRow source = RowOf(GetParam());
  ValueRow moved(std::move(source));
  ExpectHolds(moved, GetParam());
  EXPECT_TRUE(source.empty());  // NOLINT(bugprone-use-after-move)
  source.push_back(Value::Int(1));
  EXPECT_EQ(source.size(), 1u);
}

TEST_P(ValueRowSpecialMembersTest, CopyAssignsOverEveryShape) {
  for (size_t target_size : {0, 1, 3, 6}) {
    SCOPED_TRACE("target size " + std::to_string(target_size));
    const ValueRow source = RowOf(GetParam());
    ValueRow target = RowOf(target_size);
    target = source;
    ExpectHolds(target, GetParam());
    ExpectHolds(source, GetParam());
  }
}

TEST_P(ValueRowSpecialMembersTest, MoveAssignsOverEveryShape) {
  for (size_t target_size : {0, 1, 3, 6}) {
    SCOPED_TRACE("target size " + std::to_string(target_size));
    ValueRow source = RowOf(GetParam());
    ValueRow target = RowOf(target_size);
    target = std::move(source);
    ExpectHolds(target, GetParam());
    EXPECT_TRUE(source.empty());  // NOLINT(bugprone-use-after-move)
  }
}

TEST_P(ValueRowSpecialMembersTest, SelfAssignKeepsTheValues) {
  ValueRow row = RowOf(GetParam());
  ValueRow& alias = row;
  row = alias;
  ExpectHolds(row, GetParam());
  row = std::move(alias);
  ExpectHolds(row, GetParam());
}

INSTANTIATE_TEST_SUITE_P(InlineAndSpilled, ValueRowSpecialMembersTest,
                         testing::Values(size_t{1}, size_t{3}),
                         [](const testing::TestParamInfo<size_t>& shape) {
                           return shape.param == 1 ? std::string("Inline")
                                                   : std::string("Spilled");
                         });

TEST(ValueRowTest, GrowsPastTheInlineSlot) {
  ValueRow row;
  EXPECT_TRUE(row.empty());
  for (int i = 0; i < 40; ++i) {
    row.push_back(Long(i));
    ExpectHolds(row, static_cast<size_t>(i) + 1);
  }
  std::vector<Value> seen(row.begin(), row.end());
  ASSERT_EQ(seen.size(), 40u);
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], Long(static_cast<int>(i)));
  }
}

TEST(ValueRowTest, ReserveKeepsValuesAndPushesIntoTheBlock) {
  ValueRow row = RowOf(2);
  row.reserve(8);
  ExpectHolds(row, 2);
  for (int i = 2; i < 8; ++i) row.push_back(Long(i));
  ExpectHolds(row, 8);
  row.reserve(1);  // never shrinks
  ExpectHolds(row, 8);
}

TEST(ValueRowTest, PushingItsOwnValueWhileGrowingIsSafe) {
  ValueRow row = RowOf(2);  // the heap block is full: the next push regrows
  row.push_back(row[1]);
  row.push_back(row[0]);
  ASSERT_EQ(row.size(), 4u);
  EXPECT_EQ(row[2], Long(1));
  EXPECT_EQ(row[3], Long(0));
}

TEST(ValueRowTest, ElementsAreWritableInPlace) {
  ValueRow row = RowOf(3);
  row[0] = Value::Int(10);
  row[2] = Value::Double(2.5);
  for (Value& v : row) {
    if (v.type() == ValueType::kString) v = Value::Null();
  }
  EXPECT_EQ(row[0], Value::Int(10));
  EXPECT_TRUE(row[1].is_null());
  EXPECT_EQ(row[2], Value::Double(2.5));
}

TEST(ValueRowTest, EqualityComparesSizeAndEveryValue) {
  EXPECT_EQ(ValueRow(), ValueRow());
  EXPECT_EQ(RowOf(1), RowOf(1));
  EXPECT_EQ(RowOf(3), RowOf(3));
  EXPECT_NE(RowOf(1), RowOf(2));
  EXPECT_NE(RowOf(3), RowOf(2));
  EXPECT_NE(ValueRow(), RowOf(1));

  ValueRow a = RowOf(3);
  ValueRow b = RowOf(3);
  b[0] = Value::Int(0);
  EXPECT_NE(a, b);  // differs inline
  b = a;
  b[2] = Value::Int(0);
  EXPECT_NE(a, b);  // differs in the heap block
  // Strict Value equality: int 1 is not double 1.0.
  ValueRow ints;
  ints.push_back(Value::Int(1));
  ValueRow doubles;
  doubles.push_back(Value::Double(1.0));
  EXPECT_NE(ints, doubles);
}

TEST(ValueRowTest, AnEmptiedRowIgnoresItsOldInlineValue) {
  // A moved-from row is empty even though its inline slot was moved from;
  // it compares equal to a fresh row and refills from the first slot.
  ValueRow row = RowOf(1);
  ValueRow taken(std::move(row));
  EXPECT_EQ(row, ValueRow());  // NOLINT(bugprone-use-after-move)
  row.push_back(Value::Int(3));
  ASSERT_EQ(row.size(), 1u);
  EXPECT_EQ(row[0], Value::Int(3));
  ExpectHolds(taken, 1);
}

}  // namespace
}  // namespace tagg
