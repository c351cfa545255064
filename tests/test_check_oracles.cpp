// Tier-1 wiring of three differential oracle families. Each test runs one
// family at a fixed seed, so a CI failure replays locally with the printed
// `c2b check --family F --seed S` line. The analytic-vs-sim test also
// exports its tolerance bands as JSON — the artifact CI uploads.

#include "c2b/check/oracles.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string_view>

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
  const OracleReport report = run_determinism_oracle(options);
  EXPECT_TRUE(report.passed()) << joined(report.failures);
  // The acceptance floor: 100 configs x (3 thread counts + 1 warm-cache
  // replay) + APS sweeps.
  EXPECT_GE(report.checks, 403u);
}

TEST(CheckOracles, InvariantRegistryHolds) {
  OracleOptions options;
  options.seed = 42;
  const OracleReport report = run_invariant_oracle(options);
  EXPECT_TRUE(report.passed()) << joined(report.failures);
  EXPECT_GE(report.checks, 100u);
}

// A failure's repro must be a command `c2b check` runs: the --family value
// the CLI accepts (not the report's family name) and the failing seed.
TEST(CheckOracles, ReproCommandRerunsTheFailingFamily) {
  EXPECT_EQ(repro_command("analytic_vs_sim", 7, 3),
            "c2b check --family analytic --seed 7 (case 3)");
  EXPECT_EQ(repro_command("persistent_cache", 7, 90'001),
            "c2b check --family cache --seed 7 (case 90001)");
  EXPECT_EQ(repro_command("kernel", 1, 50'003),
            "c2b check --family kernel --seed 1 (case 50003)");
  std::set<std::string_view> flags;
  for (const OracleFamily& family : oracle_families()) {
    flags.insert(family.flag);
    EXPECT_EQ(repro_command(family.report_name, 42, 0),
              "c2b check --family " + std::string(family.flag) + " --seed 42 (case 0)");
  }
  EXPECT_EQ(flags, (std::set<std::string_view>{"analytic", "determinism", "invariants",
                                               "kernel", "constraint", "surrogate",
                                               "cache"}));
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
