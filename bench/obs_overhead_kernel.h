#pragma once

// A tiny FNV-style arithmetic kernel used to price the telemetry macros.
// Two variants of the identical loop:
//   * plain         — no instrumentation at all (the baseline);
//   * instrumented  — one C2B_COUNTER_INC per iteration.

#include <cstddef>
#include <cstdint>

namespace c2b::bench {

std::uint64_t obs_kernel_plain(std::size_t iterations);
std::uint64_t obs_kernel_instrumented(std::size_t iterations);

}  // namespace c2b::bench
