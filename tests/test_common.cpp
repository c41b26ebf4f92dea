#include <gtest/gtest.h>

#include <set>

#include "common/check.hpp"
#include "common/geometry.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"

namespace dagt {
namespace {

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

TEST(Check, ThrowsWithLocationAndMessage) {
  try {
    DAGT_CHECK_MSG(1 == 2, "one is " << 1);
    FAIL() << "expected a CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("one is 1"), std::string::npos);
    EXPECT_NE(what.find("test_common.cpp"), std::string::npos);
  }
}

TEST(Check, PassesSilently) {
  EXPECT_NO_THROW(DAGT_CHECK(true));
  EXPECT_NO_THROW(DAGT_CHECK_MSG(2 > 1, "unused"));
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, UniformIsInRangeWithSaneMoments) {
  Rng rng(123);
  double sum = 0.0, sumSq = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
    sumSq += u * u;
  }
  const double mean = sum / kN;
  const double var = sumSq / kN - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.01);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.005);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(7);
  double sum = 0.0, sumSq = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double z = rng.normal();
    sum += z;
    sumSq += z * z;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.03);
  EXPECT_NEAR(sumSq / kN, 1.0, 0.05);
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 300; ++i) seen.insert(rng.uniformInt(7ULL));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 6u);
  for (int i = 0; i < 100; ++i) {
    const auto v = rng.uniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(Rng, SampleIndicesAreDistinctAndBounded) {
  Rng rng(11);
  const auto picks = rng.sampleIndices(100, 40);
  EXPECT_EQ(picks.size(), 40u);
  std::set<std::size_t> unique(picks.begin(), picks.end());
  EXPECT_EQ(unique.size(), 40u);
  for (const auto p : picks) EXPECT_LT(p, 100u);
  EXPECT_THROW(rng.sampleIndices(5, 6), CheckError);
}

TEST(Rng, SplitDecorrelates) {
  Rng parent(42);
  Rng childA = parent.split();
  Rng childB = parent.split();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (childA.next() == childB.next()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(5);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// ---------------------------------------------------------------------------
// Geometry
// ---------------------------------------------------------------------------

TEST(Geometry, ManhattanAndRect) {
  EXPECT_FLOAT_EQ(manhattan({0, 0}, {3, 4}), 7.0f);
  Rect r{{1, 1}, {1, 1}};
  r.expand({4, 2});
  r.expand({0, 5});
  EXPECT_FLOAT_EQ(r.width(), 4.0f);
  EXPECT_FLOAT_EQ(r.height(), 4.0f);
  EXPECT_FLOAT_EQ(r.halfPerimeter(), 8.0f);
  EXPECT_TRUE(r.contains({2, 2}));
  EXPECT_FALSE(r.contains({5, 2}));
}

// ---------------------------------------------------------------------------
// TextTable
// ---------------------------------------------------------------------------

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.addRow({"a", "1"});
  t.addSeparator();
  t.addRow({"longer-name", "2.50"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name "), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  // Every line has equal width.
  std::size_t lineLen = out.find('\n');
  for (std::size_t pos = 0; pos < out.size();) {
    const std::size_t next = out.find('\n', pos);
    if (next == std::string::npos) break;
    EXPECT_EQ(next - pos, lineLen);
    pos = next + 1;
  }
}

TEST(TextTable, RejectsWrongArity) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.addRow({"only-one"}), CheckError);
}

TEST(TextTable, NumFormatsPrecision) {
  EXPECT_EQ(TextTable::num(1.23456, 2), "1.23");
  EXPECT_EQ(TextTable::num(-0.5), "-0.500");
}

}  // namespace
}  // namespace dagt
