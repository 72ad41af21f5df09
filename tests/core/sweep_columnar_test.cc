#include "core/sweep_columnar.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "util/cpu_features.h"

namespace tagg {
namespace {

// Both dispatch bodies must pass every test; kAvx2 silently clamps to the
// scalar body on hardware (or builds) without AVX2, so the suite stays
// green everywhere while exercising the vector path wherever it exists.
const SimdLevel kLevels[] = {SimdLevel::kScalar, SimdLevel::kAvx2};

std::string LevelName(SimdLevel level) {
  return std::string(SimdLevelToString(level));
}

// --- SortEventColumns -------------------------------------------------------

EventColumns MakeColumns(const std::vector<int64_t>& at) {
  EventColumns cols;
  cols.at = at;
  for (size_t i = 0; i < at.size(); ++i) {
    cols.dv.push_back(static_cast<double>(i));  // payload tags the origin
    cols.dn.push_back(static_cast<int64_t>(i));
  }
  return cols;
}

void ExpectSortedAndStable(const EventColumns& cols,
                           const std::vector<int64_t>& original) {
  ASSERT_EQ(cols.size(), original.size());
  for (size_t i = 1; i < cols.size(); ++i) {
    ASSERT_LE(cols.at[i - 1], cols.at[i]) << "not sorted at " << i;
    if (cols.at[i - 1] == cols.at[i]) {
      // Stability: the payload indices of equal keys stay in input order.
      EXPECT_LT(cols.dn[i - 1], cols.dn[i]) << "unstable tie at " << i;
    }
  }
  // Permutation check: every payload index appears exactly once and the
  // key it rides with matches the original array.
  std::vector<bool> seen(original.size(), false);
  for (size_t i = 0; i < cols.size(); ++i) {
    const size_t idx = static_cast<size_t>(cols.dn[i]);
    ASSERT_LT(idx, seen.size());
    EXPECT_FALSE(seen[idx]) << "payload " << idx << " duplicated";
    seen[idx] = true;
    EXPECT_EQ(cols.at[i], original[idx]) << "payload " << idx
                                         << " separated from its key";
    EXPECT_EQ(cols.dv[i], static_cast<double>(idx));
  }
}

TEST(SortEventColumnsTest, SortsSmallInputsViaFallback) {
  // Below the radix threshold the sort runs through std::stable_sort on
  // an index permutation; correctness must be identical.
  std::vector<int64_t> keys = {5, -3, 5, 0, 100, -3, 7};
  EventColumns cols = MakeColumns(keys);
  EventColumns scratch;
  SortEventColumns(cols, scratch);
  ExpectSortedAndStable(cols, keys);
}

TEST(SortEventColumnsTest, SortsLargeRandomInput) {
  std::mt19937_64 rng(42);
  std::vector<int64_t> keys;
  for (int i = 0; i < 10000; ++i) {
    keys.push_back(static_cast<int64_t>(rng() % 100000) - 50000);
  }
  EventColumns cols = MakeColumns(keys);
  EventColumns scratch;
  SortEventColumns(cols, scratch);
  ExpectSortedAndStable(cols, keys);
}

TEST(SortEventColumnsTest, SortsExtremeKeyRange) {
  // Keys spanning the full int64 range force all eight radix passes and
  // exercise the bias (signed-to-unsigned) mapping at both ends.
  std::mt19937_64 rng(7);
  std::vector<int64_t> keys = {std::numeric_limits<int64_t>::min(),
                               std::numeric_limits<int64_t>::max(), 0, -1, 1};
  for (int i = 0; i < 2000; ++i) keys.push_back(static_cast<int64_t>(rng()));
  EventColumns cols = MakeColumns(keys);
  EventColumns scratch;
  SortEventColumns(cols, scratch);
  ExpectSortedAndStable(cols, keys);
}

TEST(SortEventColumnsTest, NarrowRangeSkipsHighPasses) {
  // All keys within one byte of each other: the pass-skip logic must not
  // corrupt the permutation (and the sort still has to be stable).
  std::mt19937_64 rng(11);
  std::vector<int64_t> keys;
  for (int i = 0; i < 5000; ++i) {
    keys.push_back(1'000'000'000 + static_cast<int64_t>(rng() % 200));
  }
  EventColumns cols = MakeColumns(keys);
  EventColumns scratch;
  SortEventColumns(cols, scratch);
  ExpectSortedAndStable(cols, keys);
}

TEST(SortEventColumnsTest, AlreadySortedAndEmptyAreNoOps) {
  EventColumns scratch;
  EventColumns empty;
  SortEventColumns(empty, scratch);
  EXPECT_TRUE(empty.empty());

  std::vector<int64_t> keys;
  for (int64_t i = 0; i < 1000; ++i) keys.push_back(i * 3);
  EventColumns cols = MakeColumns(keys);
  SortEventColumns(cols, scratch);
  ExpectSortedAndStable(cols, keys);
}

TEST(SortEventColumnsTest, SortsWithoutValueColumn) {
  // COUNT regions never materialize dv; the sort must handle its absence.
  std::mt19937_64 rng(3);
  EventColumns cols;
  for (int i = 0; i < 3000; ++i) {
    cols.at.push_back(static_cast<int64_t>(rng() % 1000));
    cols.dn.push_back(i);
  }
  EventColumns scratch;
  SortEventColumns(cols, scratch);
  EXPECT_TRUE(cols.dv.empty());
  for (size_t i = 1; i < cols.size(); ++i) {
    ASSERT_LE(cols.at[i - 1], cols.at[i]);
    if (cols.at[i - 1] == cols.at[i]) {
      EXPECT_LT(cols.dn[i - 1], cols.dn[i]) << "unstable tie at " << i;
    }
  }
}

// --- ColumnarSweeper --------------------------------------------------------

struct Seg {
  int64_t lo;
  int64_t hi;
  double sum;
  int64_t n;
  bool operator==(const Seg& o) const {
    return lo == o.lo && hi == o.hi && sum == o.sum && n == o.n;
  }
};

std::vector<Seg> Segments(const ColumnarSweeper& sweeper) {
  std::vector<Seg> out;
  for (size_t i = 0; i < sweeper.segment_count(); ++i) {
    out.push_back({sweeper.seg_lo()[i], sweeper.seg_hi()[i],
                   sweeper.seg_sum()[i], sweeper.seg_n()[i]});
  }
  return out;
}

// The reference: a plain scalar endpoint sweep with Neumaier-compensated
// accumulation and the reset-to-0.0 rule, restated directly.
std::vector<Seg> ReferenceSweep(int64_t lo, int64_t hi,
                                const EventColumns& cols) {
  std::vector<Seg> out;
  int64_t cur = lo;
  double sum = 0.0, comp = 0.0;
  int64_t n = 0;
  for (size_t i = 0; i < cols.size(); ++i) {
    const int64_t at = cols.at[i];
    if (at > hi) break;
    if (at > cur) {
      out.push_back({cur, at - 1, sum + comp, n});
      cur = at;
    }
    const double x = cols.dv.empty() ? 0.0 : cols.dv[i];
    const double t = sum + x;
    if (std::abs(sum) >= std::abs(x)) {
      comp += (sum - t) + x;
    } else {
      comp += (x - t) + sum;
    }
    sum = t;
    n += cols.dn[i];
    if (n == 0) {
      sum = 0.0;
      comp = 0.0;
    }
  }
  out.push_back({cur, hi, sum + comp, n});
  return out;
}

void ExpectSweepMatchesReference(int64_t lo, int64_t hi,
                                 const EventColumns& cols, SimdLevel level,
                                 size_t chunk = 0) {
  const std::vector<Seg> want = ReferenceSweep(lo, hi, cols);
  ColumnarSweeper sweeper(lo, hi, level, cols.dv.empty());
  if (chunk == 0) {
    sweeper.Consume(cols);
  } else {
    for (size_t i = 0; i < cols.size(); i += chunk) {
      const size_t n = std::min(chunk, cols.size() - i);
      sweeper.Consume(cols.at.data() + i,
                      cols.dv.empty() ? nullptr : cols.dv.data() + i,
                      cols.dn.data() + i, n);
    }
  }
  sweeper.Finish();
  EXPECT_EQ(Segments(sweeper), want)
      << LevelName(level) << " chunk=" << chunk;
}

EventColumns RandomSortedEvents(uint64_t seed, size_t n, int64_t lo,
                                int64_t hi, bool with_values) {
  std::mt19937_64 rng(seed);
  EventColumns cols;
  std::vector<int64_t> open;
  for (size_t i = 0; i < n; ++i) {
    // Mostly in-range instants with a sprinkle past hi (must be ignored).
    int64_t at = lo + static_cast<int64_t>(rng() % (hi - lo + 10));
    cols.at.push_back(at);
    if (with_values) {
      cols.dv.push_back(static_cast<double>(rng() % 100) - 50.0);
    }
    cols.dn.push_back((rng() % 2) ? 1 : -1);
  }
  EventColumns scratch;
  SortEventColumns(cols, scratch);
  return cols;
}

TEST(ColumnarSweeperTest, EmptyInputEmitsOneFullSegment) {
  for (SimdLevel level : kLevels) {
    ColumnarSweeper sweeper(0, 99, level, false);
    sweeper.Finish();
    EXPECT_EQ(Segments(sweeper), (std::vector<Seg>{{0, 99, 0.0, 0}}))
        << LevelName(level);
  }
}

TEST(ColumnarSweeperTest, BasicOpenCloseMatchesReference) {
  // One tuple [10, 19] value 5 in region [0, 99]: open at 10, close at 20.
  EventColumns cols;
  cols.at = {10, 20};
  cols.dv = {5.0, -5.0};
  cols.dn = {1, -1};
  for (SimdLevel level : kLevels) {
    ColumnarSweeper sweeper(0, 99, level, false);
    sweeper.Consume(cols);
    sweeper.Finish();
    EXPECT_EQ(Segments(sweeper),
              (std::vector<Seg>{
                  {0, 9, 0.0, 0}, {10, 19, 5.0, 1}, {20, 99, 0.0, 0}}))
        << LevelName(level);
  }
}

TEST(ColumnarSweeperTest, EqualTimestampsCoalesce) {
  // Four events at the same instant produce one boundary, not four.
  EventColumns cols;
  cols.at = {5, 5, 5, 5, 9};
  cols.dv = {1.0, 2.0, 3.0, 4.0, -10.0};
  cols.dn = {1, 1, 1, 1, -4};
  for (SimdLevel level : kLevels) {
    ColumnarSweeper sweeper(0, 20, level, false);
    sweeper.Consume(cols);
    sweeper.Finish();
    EXPECT_EQ(Segments(sweeper),
              (std::vector<Seg>{
                  {0, 4, 0.0, 0}, {5, 8, 10.0, 4}, {9, 20, 0.0, 0}}))
        << LevelName(level);
  }
}

TEST(ColumnarSweeperTest, EventsPastHiAreIgnored) {
  EventColumns cols;
  cols.at = {5, 30, 40};
  cols.dv = {2.0, -2.0, 7.0};
  cols.dn = {1, -1, 1};
  for (SimdLevel level : kLevels) {
    ColumnarSweeper sweeper(0, 19, level, false);
    sweeper.Consume(cols);
    sweeper.Finish();
    EXPECT_EQ(Segments(sweeper),
              (std::vector<Seg>{{0, 4, 0.0, 0}, {5, 19, 2.0, 1}}))
        << LevelName(level);
  }
}

TEST(ColumnarSweeperTest, CancellationResetsToExactZero) {
  // 1e17 + 1 absorbs the 1; the reset-on-empty plus Neumaier carry must
  // still report exactly 1.0 after the large tuple retires, and exactly
  // 0.0 (not a rounding residue) once everything retires.
  EventColumns cols;
  cols.at = {0, 10, 20, 40};
  cols.dv = {1e17, 1.0, -1e17, -1.0};
  cols.dn = {1, 1, -1, -1};
  for (SimdLevel level : kLevels) {
    ColumnarSweeper sweeper(0, 99, level, false);
    sweeper.Consume(cols);
    sweeper.Finish();
    // The middle segment reports 1e17: sum holds 1e17 (the +1 was
    // absorbed), comp carries the 1, and sum + comp rounds back to 1e17
    // (the ulp there is 16).  The carried 1 is what keeps [20, 39] exact.
    EXPECT_EQ(Segments(sweeper),
              (std::vector<Seg>{{0, 9, 1e17, 1},
                                {10, 19, 1e17, 2},
                                {20, 39, 1.0, 1},
                                {40, 99, 0.0, 0}}))
        << LevelName(level);
  }
}

TEST(ColumnarSweeperTest, CountOnlySkipsValueColumn) {
  EventColumns cols;
  cols.at = {2, 4, 4, 8};
  cols.dn = {1, 1, -1, -1};
  for (SimdLevel level : kLevels) {
    ColumnarSweeper sweeper(0, 9, level, true);
    sweeper.Consume(cols.at.data(), nullptr, cols.dn.data(), cols.size());
    sweeper.Finish();
    EXPECT_EQ(Segments(sweeper),
              (std::vector<Seg>{{0, 1, 0.0, 0},
                                {2, 3, 0.0, 1},
                                {4, 7, 0.0, 1},
                                {8, 9, 0.0, 0}}))
        << LevelName(level);
  }
}

TEST(ColumnarSweeperTest, MatchesReferenceOnRandomStreams) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    for (bool count_only : {false, true}) {
      EventColumns cols =
          RandomSortedEvents(seed, 2000, 0, 5000, !count_only);
      for (SimdLevel level : kLevels) {
        ExpectSweepMatchesReference(0, 5000, cols, level);
      }
    }
  }
}

TEST(ColumnarSweeperTest, ChunkBoundariesAreInvisible) {
  // Feeding the same stream in chunks of every awkward size — including
  // sizes that split equal-timestamp runs — must not change the output.
  EventColumns cols = RandomSortedEvents(99, 500, 0, 300, true);
  for (SimdLevel level : kLevels) {
    for (size_t chunk : {1, 2, 3, 5, 7, 64, 499}) {
      ExpectSweepMatchesReference(0, 300, cols, level, chunk);
    }
  }
}

TEST(ColumnarSweeperTest, DrainBetweenChunksPreservesSegments) {
  EventColumns cols = RandomSortedEvents(123, 800, 0, 1000, true);
  const std::vector<Seg> want = ReferenceSweep(0, 1000, cols);
  for (SimdLevel level : kLevels) {
    ColumnarSweeper sweeper(0, 1000, level, false);
    std::vector<Seg> got;
    const size_t chunk = 97;
    for (size_t i = 0; i < cols.size(); i += chunk) {
      const size_t n = std::min(chunk, cols.size() - i);
      sweeper.Consume(cols.at.data() + i, cols.dv.data() + i,
                      cols.dn.data() + i, n);
      for (const Seg& s : Segments(sweeper)) got.push_back(s);
      sweeper.ClearSegments();
    }
    sweeper.Finish();
    for (const Seg& s : Segments(sweeper)) got.push_back(s);
    EXPECT_EQ(got, want) << LevelName(level);
  }
}

// --- runtime dispatch -------------------------------------------------------

TEST(CpuFeaturesTest, OverrideForcesScalar) {
  SimdLevelOverride forced(SimdLevel::kScalar);
  EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
}

TEST(CpuFeaturesTest, OverrideNests) {
  SimdLevelOverride outer(SimdLevel::kScalar);
  {
    SimdLevelOverride inner(SimdLevel::kAvx2);
    // inner requests AVX2 but can never exceed the hardware level.
    EXPECT_EQ(ActiveSimdLevel(), DetectSimdLevel());
  }
  EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
}

TEST(CpuFeaturesTest, ActiveNeverExceedsHardware) {
  EXPECT_LE(static_cast<int>(ActiveSimdLevel()),
            static_cast<int>(DetectSimdLevel()));
}

TEST(CpuFeaturesTest, LevelNames) {
  EXPECT_EQ(SimdLevelToString(SimdLevel::kScalar), "scalar");
  EXPECT_EQ(SimdLevelToString(SimdLevel::kAvx2), "avx2");
}

TEST(ColumnarSweeperTest, SweeperClampsLevelToBuildCapability) {
  // Whatever level is requested, the sweeper must report a level it can
  // actually execute (kScalar everywhere; kAvx2 only when compiled in and
  // supported — either way the constructor must not lie).
  ColumnarSweeper sweeper(0, 9, SimdLevel::kAvx2, false);
  if (DetectSimdLevel() == SimdLevel::kScalar) {
    EXPECT_EQ(sweeper.level(), SimdLevel::kScalar);
  }
  sweeper.Finish();
}

}  // namespace
}  // namespace tagg
