#include "c2b/metrics/amat.h"

namespace c2b {

double amat(const AmatParams& p) {
  C2B_REQUIRE(p.hit_time > 0.0, "hit time must be positive");
  C2B_REQUIRE(p.miss_rate >= 0.0 && p.miss_rate <= 1.0, "miss rate in [0,1]");
  C2B_REQUIRE(p.miss_penalty >= 0.0, "miss penalty must be non-negative");
  return p.hit_time + p.miss_rate * p.miss_penalty;
}

double camat(const CamatParams& p) {
  C2B_REQUIRE(p.hit_time > 0.0, "hit time must be positive");
  C2B_REQUIRE(p.hit_concurrency >= 1.0, "hit concurrency must be >= 1");
  C2B_REQUIRE(p.miss_concurrency >= 1.0, "miss concurrency must be >= 1");
  C2B_REQUIRE(p.pure_miss_rate >= 0.0 && p.pure_miss_rate <= 1.0, "pure miss rate in [0,1]");
  C2B_REQUIRE(p.pure_miss_penalty >= 0.0, "pure miss penalty must be non-negative");
  return p.hit_time / p.hit_concurrency +
         p.pure_miss_rate * p.pure_miss_penalty / p.miss_concurrency;
}

double concurrency(const AmatParams& a, const CamatParams& c) {
  const double denominator = camat(c);
  C2B_REQUIRE(denominator > 0.0, "C-AMAT must be positive");
  return amat(a) / denominator;
}

CamatParams camat_from_sequential(const AmatParams& p) {
  CamatParams c;
  c.hit_time = p.hit_time;
  c.hit_concurrency = 1.0;
  c.pure_miss_rate = p.miss_rate;
  c.pure_miss_penalty = p.miss_penalty;
  c.miss_concurrency = 1.0;
  return c;
}

double data_stall_camat(double f_mem, double camat_cycles, double overlap_ratio_cm) {
  C2B_REQUIRE(f_mem >= 0.0 && f_mem <= 1.0, "f_mem in [0,1]");
  C2B_REQUIRE(camat_cycles >= 0.0, "C-AMAT must be non-negative");
  C2B_REQUIRE(overlap_ratio_cm >= 0.0 && overlap_ratio_cm <= 1.0, "overlap ratio in [0,1]");
  return f_mem * camat_cycles * (1.0 - overlap_ratio_cm);
}

double recursive_camat(const std::vector<CamatLevel>& levels, double memory_camat) {
  C2B_REQUIRE(!levels.empty(), "need at least one cache level");
  C2B_REQUIRE(memory_camat > 0.0, "terminal memory C-AMAT must be positive");
  // Compose bottom-up: the deepest level's pure misses are served by DRAM.
  double below = memory_camat;
  for (std::size_t i = levels.size(); i-- > 0;) {
    const CamatLevel& level = levels[i];
    C2B_REQUIRE(level.hit_time > 0.0, "hit time must be positive");
    C2B_REQUIRE(level.hit_concurrency >= 1.0, "C_H >= 1");
    C2B_REQUIRE(level.pure_miss_rate >= 0.0 && level.pure_miss_rate <= 1.0, "pMR in [0,1]");
    C2B_REQUIRE(level.kappa >= 0.0, "kappa must be non-negative");
    below = level.hit_time / level.hit_concurrency +
            level.pure_miss_rate * level.kappa * below;
  }
  return below;
}

}  // namespace c2b
