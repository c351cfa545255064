#include "c2b/common/rng.h"

#include <cmath>
#include <numbers>

namespace c2b {
namespace {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t Rng::derive_stream_seed(std::uint64_t seed, std::uint64_t stream) noexcept {
  // Two chained splitmix64 steps: the first scrambles the base seed, the
  // second advances the scrambled state by the stream index. Collisions
  // would need the avalanche-mixed seeds of two bases to differ by an
  // exact multiple of the golden gamma — nothing like the systematic
  // collisions of linear schemes (seed + k * stream).
  std::uint64_t state = seed;
  const std::uint64_t mixed_seed = splitmix64(state);
  state = mixed_seed + stream * 0x9E3779B97F4A7C15ull;
  return splitmix64(state);
}

void Rng::reseed(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  has_cached_normal_ = false;
}

Rng::State Rng::state() const noexcept {
  return State{{s_[0], s_[1], s_[2], s_[3]}, cached_normal_, has_cached_normal_};
}

void Rng::set_state(const State& state) noexcept {
  for (int i = 0; i < 4; ++i) s_[i] = state.words[i];
  cached_normal_ = state.cached_normal;
  has_cached_normal_ = state.has_cached_normal;
}

std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::uniform_below(std::uint64_t bound) noexcept {
  if (bound == 0) return 0;
  // Lemire's nearly-divisionless rejection method.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  if (lo >= hi) return lo;
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(uniform_below(span));
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

std::size_t Rng::zipf(std::size_t n, double s) noexcept {
  return ZipfDistribution(n, s)(*this);
}

ZipfDistribution::ZipfDistribution(std::size_t n, double s) noexcept
    : n_(n), s_(s), top_(0.0), inverse_(0.0) {
  if (n <= 1) return;
  const double nd = static_cast<double>(n);
  if (s == 1.0) {
    top_ = std::log(nd + 1.0);
    return;
  }
  const double one_minus_s = 1.0 - s;
  top_ = std::pow(nd + 1.0, one_minus_s);
  inverse_ = 1.0 / one_minus_s;
}

std::size_t ZipfDistribution::operator()(Rng& rng) const noexcept {
  if (n_ <= 1) return 0;
  // Inverse-CDF sampling via rejection against the continuous bounding
  // distribution (Devroye). Exact for the discrete Zipf over [1, n].
  if (s_ == 1.0) {
    // Harmonic special case: invert the log CDF.
    const double u = rng.uniform();
    const double k = std::exp(u * top_);
    const auto idx = static_cast<std::size_t>(k) - 1;
    return idx >= n_ ? n_ - 1 : idx;
  }
  for (;;) {
    const double u = rng.uniform();
    // Inverse of the continuous CDF F(x) = (x^{1-s} - 1) / ((n+1)^{1-s} - 1).
    const double x = std::pow(u * (top_ - 1.0) + 1.0, inverse_);
    const auto k = static_cast<std::size_t>(x);
    if (k >= 1 && k <= n_) {
      // Accept with ratio of discrete pmf to continuous envelope; the
      // envelope is tight so acceptance is ~1 for s in (0, 4].
      const double ratio = std::pow(static_cast<double>(k) / x, s_);
      if (rng.uniform() <= ratio) return k - 1;
    }
  }
}

std::size_t Rng::categorical(const std::vector<double>& weights) noexcept {
  double total = 0.0;
  for (const double w : weights) total += (w > 0.0 ? w : 0.0);
  if (total <= 0.0) return 0;
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (target < w) return i;
    target -= w;
  }
  return weights.size() - 1;
}

}  // namespace c2b
