#pragma once

// Parallel speedup laws (paper Section II-B).
//
// Sun-Ni's memory-bounded speedup (Eq. 4):
//     S(N) = [f_seq + (1 - f_seq) g(N)] / [f_seq + (1 - f_seq) g(N) / N]
// with the special cases g = 1 (Amdahl) and g = N (Gustafson).

#include "c2b/laws/scaling.h"

namespace c2b {

/// Amdahl's law: fixed problem size.
[[nodiscard]] double amdahl_speedup(double f_seq, double n);

/// Gustafson's law: problem scales linearly with N.
[[nodiscard]] double gustafson_speedup(double f_seq, double n);

/// Sun-Ni's law, Eq. (4), with an explicit g(N) value.
[[nodiscard]] double sunni_speedup(double f_seq, double g_of_n, double n);

/// Sun-Ni's law with a ScalingFunction.
[[nodiscard]] double sunni_speedup(double f_seq, const ScalingFunction& g, double n);

}  // namespace c2b
