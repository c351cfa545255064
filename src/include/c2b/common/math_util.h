#pragma once

// Small numeric helpers shared across modules.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace c2b {

/// Relative-plus-absolute tolerance comparison suitable for quantities that
/// may legitimately be zero.
inline bool almost_equal(double a, double b, double rel = 1e-9, double abs = 1e-12) noexcept {
  const double diff = std::fabs(a - b);
  if (diff <= abs) return true;
  return diff <= rel * std::max(std::fabs(a), std::fabs(b));
}

/// Integer geometric sweep: 1, 2, 4, ... capped at hi (used for core-count
/// axes in the figure reproductions).
std::vector<int> pow2_sweep(int lo, int hi);

inline double clamp(double x, double lo, double hi) noexcept {
  return x < lo ? lo : (x > hi ? hi : x);
}

/// True if `value` is a power of two (> 0).
constexpr bool is_pow2(std::size_t value) noexcept {
  return value != 0 && (value & (value - 1)) == 0;
}

/// floor(log2(value)) for value > 0.
constexpr unsigned floor_log2(std::size_t value) noexcept {
  unsigned result = 0;
  while (value >>= 1) ++result;
  return result;
}

/// x / d and x % d for a divisor d >= 1 fixed at construction, both exact:
/// a shift and a mask when d is a power of two, the hardware divide
/// otherwise. The simulator's per-access index maps (cache sets, bank and
/// slice interleaving, DRAM rows) use it; every DSE geometry has
/// power-of-two counts, so its hot path never divides.
class FixedDivisor {
 public:
  explicit constexpr FixedDivisor(std::uint64_t d) noexcept
      : d_(d), mask_(d - 1), shift_(floor_log2(d)), pow2_(is_pow2(d)) {}

  constexpr std::uint64_t div(std::uint64_t x) const noexcept {
    return pow2_ ? x >> shift_ : x / d_;
  }
  constexpr std::uint64_t mod(std::uint64_t x) const noexcept {
    return pow2_ ? x & mask_ : x % d_;
  }

 private:
  std::uint64_t d_;
  std::uint64_t mask_;
  unsigned shift_;
  bool pow2_;
};

}  // namespace c2b
