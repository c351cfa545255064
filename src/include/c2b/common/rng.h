#pragma once

// Deterministic, fast pseudo-random number generation (xoshiro256**).
//
// All stochastic components in the library (trace generators, ANN weight
// initialization, k-means seeding, noise injection) take an explicit Rng so
// experiments are reproducible from a single seed.

#include <cstdint>
#include <vector>

#include "c2b/common/assert.h"

namespace c2b {

/// xoshiro256** 1.0 by Blackman & Vigna — excellent statistical quality and
/// ~1 ns per draw; state is seeded via splitmix64 so any 64-bit seed works.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ull; }

  result_type operator()() noexcept { return next(); }
  std::uint64_t next() noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t uniform_below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Standard normal via Box–Muller (cached second variate).
  double normal() noexcept;
  double normal(double mean, double stddev) noexcept { return mean + stddev * normal(); }

  /// Bernoulli draw with probability p of true.
  bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Geometric-like Zipf/power-law sample over [0, n): P(k) ∝ (k+1)^-s.
  /// One-off draw; repeated draws with fixed (n, s) should hold a
  /// ZipfDistribution instead.
  std::size_t zipf(std::size_t n, double s) noexcept;

  /// Sample an index from an (unnormalized, non-negative) weight vector.
  std::size_t categorical(const std::vector<double>& weights) noexcept;

  /// Split off an independent stream (for per-core generators).
  Rng split() noexcept { return Rng(next() ^ 0xA0761D6478BD642Full); }

  /// Derive a per-stream seed from a base seed with splitmix64 finalization
  /// mixing both words. Linear schemes such as `seed + 17 * stream` collide
  /// systematically (e.g. (seed=18, stream=0) == (seed=1, stream=1)); the
  /// mixed derivation has no such structural collisions.
  static std::uint64_t derive_stream_seed(std::uint64_t seed, std::uint64_t stream) noexcept;

  /// The generator's whole state: set_state(state()) on any Rng resumes
  /// this one's stream exactly, cached normal variate included.
  struct State {
    std::uint64_t words[4];
    double cached_normal;
    bool has_cached_normal;
  };
  State state() const noexcept;
  void set_state(const State& state) noexcept;

 private:
  std::uint64_t s_[4]{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// Zipf/power-law sampler over [0, n): P(k) ∝ (k+1)^-s, with the per-(n, s)
/// constants computed once. Used by trace generators to produce realistic
/// reuse-distance skew; draws are bit-identical to Rng::zipf(n, s).
class ZipfDistribution {
 public:
  ZipfDistribution(std::size_t n, double s) noexcept;

  std::size_t operator()(Rng& rng) const noexcept;

 private:
  std::size_t n_;
  double s_;
  double top_;      ///< (n+1)^(1-s); log(n+1) when s == 1
  double inverse_;  ///< 1 / (1-s)
};

}  // namespace c2b
