#pragma once

// Event selection for the replay kernel (private header).
//
// The kernel keeps one next-event cycle per core and processes the core
// with the smallest one; among equal cycles the lowest core index must win,
// which is the per-cycle reference kernel's core scan order. argmin_u64 is
// that selection: a strict `<` scan, so ties keep the first index.

#include <cstddef>
#include <cstdint>

namespace c2b::sim::detail {

/// Lane counts up to this use the inline scan below; wider slices go
/// through the runtime-dispatched blocked reduction.
constexpr std::size_t kInlineArgminLanes = 16;

/// Wide-slice argmin: a portable blocked reduction, or AVX2 when the CPU
/// has it (picked once at startup). Same contract as argmin_u64.
std::size_t argmin_u64_wide(const std::uint64_t* values, std::size_t count);

/// Index of the smallest value in [values, values + count); the lowest
/// index wins ties. Precondition: count > 0. Small slices (most events:
/// single cores and modest core counts) skip the indirect dispatch call.
inline std::size_t argmin_u64(const std::uint64_t* values, std::size_t count) {
  if (count > kInlineArgminLanes) return argmin_u64_wide(values, count);
  std::size_t best = 0;
  for (std::size_t i = 1; i < count; ++i)
    if (values[i] < values[best]) best = i;
  return best;
}

}  // namespace c2b::sim::detail
