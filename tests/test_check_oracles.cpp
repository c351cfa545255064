// Tier-1 wiring of the three differential oracle families. Each test runs
// one family at a fixed seed, so a CI failure replays locally with the
// printed C2B_CHECK_SEED/C2B_CHECK_CASE line. The analytic-vs-sim test
// also exports its tolerance bands as JSON — the artifact CI uploads.

#include "c2b/check/oracles.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "c2b/trace/workloads.h"

namespace c2b::check {
namespace {

std::string joined(const std::vector<std::string>& failures) {
  std::ostringstream os;
  for (const std::string& f : failures) os << "\n  " << f;
  return os.str();
}

TEST(CheckOracles, AnalyticVsSimWithinToleranceBands) {
  OracleOptions options;
  options.seed = 42;
  const std::string bands_path =
      (std::filesystem::path(testing::TempDir()) / "c2b_tolerance_bands.json").string();

  const OracleReport report = run_analytic_vs_sim_oracle(options);
  EXPECT_TRUE(report.passed()) << joined(report.failures);
  // One asserted band per built-in workload, every one exercised.
  EXPECT_EQ(report.bands.size(), workload_catalog().size());
  for (const ToleranceBand& band : report.bands) {
    EXPECT_GT(band.samples, 0u) << band.workload;
    EXPECT_TRUE(band.passed) << band.workload << " mean " << band.mean_abs_rel_error
                             << " max " << band.max_abs_rel_error;
  }

  ASSERT_TRUE(write_tolerance_bands_json(bands_path, report.bands));
  std::ifstream in(bands_path);
  std::stringstream contents;
  contents << in.rdbuf();
  EXPECT_NE(contents.str().find("\"workload\""), std::string::npos);
  EXPECT_NE(contents.str().find("mean_abs_rel_error"), std::string::npos);
  std::filesystem::remove(bands_path);
}

TEST(CheckOracles, DeterminismHoldsOn100RandomConfigs) {
  OracleOptions options;
  options.seed = 42;
  options.dse_configs = 100;  // the acceptance floor: >= 100 random configs
  options.aps_configs = 3;
  const OracleReport report = run_determinism_oracle(options);
  EXPECT_TRUE(report.passed()) << joined(report.failures);
  // 100 configs x (3 thread counts + 1 warm-cache replay) + APS sweeps.
  EXPECT_GE(report.checks, 403u);
}

TEST(CheckOracles, InvariantRegistryHolds) {
  OracleOptions options;
  options.seed = 42;
  const OracleReport report = run_invariant_oracle(options);
  EXPECT_TRUE(report.passed()) << joined(report.failures);
  EXPECT_GE(report.checks, 100u);
}

TEST(CheckOracles, ToleranceBandJsonRoundTripsShape) {
  const std::string path =
      (std::filesystem::path(testing::TempDir()) / "c2b_bands_shape.json").string();
  const std::vector<ToleranceBand> bands{
      {.workload = "w1", .samples = 3, .mean_abs_rel_error = 0.125,
       .max_abs_rel_error = 0.5, .mean_tolerance = 0.6, .max_tolerance = 1.5,
       .passed = true}};
  ASSERT_TRUE(write_tolerance_bands_json(path, bands));
  std::ifstream in(path);
  std::stringstream contents;
  contents << in.rdbuf();
  EXPECT_NE(contents.str().find("\"workload\": \"w1\""), std::string::npos);
  EXPECT_NE(contents.str().find("\"passed\": true"), std::string::npos);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace c2b::check
