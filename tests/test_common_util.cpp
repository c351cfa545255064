#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "c2b/common/log.h"
#include "c2b/common/math_util.h"
#include "c2b/common/table.h"

namespace c2b {
namespace {

TEST(MathUtil, AlmostEqual) {
  EXPECT_TRUE(almost_equal(1.0, 1.0 + 1e-12));
  EXPECT_TRUE(almost_equal(0.0, 1e-13));
  EXPECT_FALSE(almost_equal(1.0, 1.001));
  EXPECT_TRUE(almost_equal(1e9, 1e9 * (1 + 1e-10)));
}

TEST(MathUtil, Pow2Sweep) {
  const auto v = pow2_sweep(1, 1000);
  EXPECT_EQ(v.front(), 1);
  EXPECT_EQ(v.back(), 1000);  // hi appended even when not a power of two
  for (std::size_t i = 1; i + 1 < v.size(); ++i) EXPECT_EQ(v[i], v[i - 1] * 2);
}

TEST(MathUtil, ClampAndPow2Predicates) {
  EXPECT_DOUBLE_EQ(clamp(5.0, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(clamp(-5.0, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(clamp(0.5, 0.0, 1.0), 0.5);
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(65));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_EQ(floor_log2(1), 0u);
  EXPECT_EQ(floor_log2(64), 6u);
  EXPECT_EQ(floor_log2(65), 6u);
}

TEST(Table, AlignedRendering) {
  Table t({"name", "value"});
  t.add_row({std::string("x"), std::int64_t{42}});
  t.add_row({std::string("longer"), 3.14159});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
  EXPECT_NE(s.find("3.142"), std::string::npos);  // default precision 4
}

TEST(Table, RowWidthEnforced) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({std::string("only one")}), std::invalid_argument);
}

TEST(Table, CsvEscaping) {
  Table t({"col"});
  t.add_row({std::string("plain")});
  t.add_row({std::string("has,comma")});
  t.add_row({std::string("has\"quote")});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("plain\n"), std::string::npos);
  EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"has\"\"quote\""), std::string::npos);
}

TEST(Table, WriteCsvCreatesFile) {
  Table t({"x"});
  t.add_row({std::int64_t{1}});
  const std::string path = testing::TempDir() + "/c2b_table_test/out.csv";
  EXPECT_TRUE(t.write_csv(path));
  std::ifstream in(path);
  EXPECT_TRUE(in.good());
}

TEST(Log, ThresholdFilters) {
  const LogLevel before = log_threshold();
  set_log_threshold(LogLevel::kError);
  EXPECT_EQ(log_threshold(), LogLevel::kError);
  // These must not crash; output goes to stderr.
  C2B_LOG(LogLevel::kDebug, "test") << "suppressed";
  C2B_LOG(LogLevel::kError, "test") << "visible";
  set_log_threshold(before);
}

}  // namespace
}  // namespace c2b
