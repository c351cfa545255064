#pragma once

// Section V: on-chip-memory-bounded problem size.
//
//     max Z   s.t.   Y(Z) <= X
//
// where Z is the problem size, Y(Z) the (monotone) working-set size, and X
// the on-chip memory (LLC for inclusive hierarchies). Applications whose
// real problem size b exceeds the bound a are memory-bound: performance is
// limited by the processor<->DRAM rate and is sensitive to capacity and
// concurrency; otherwise they are processor-bound.

#include <functional>

namespace c2b {

/// Monotone non-decreasing working-set model Y(Z) (lines as a function of
/// problem size).
using WorkingSetFn = std::function<double(double)>;

/// Largest Z in [z_lo, z_hi] with Y(Z) <= on_chip_lines (bisection; exact to
/// `tolerance` in Z). Returns z_lo if even the smallest problem overflows.
double capacity_bounded_problem_size(const WorkingSetFn& working_set, double on_chip_lines,
                                     double z_lo = 1.0, double z_hi = 1e15,
                                     double tolerance = 1e-6);

enum class BoundRegime {
  kProcessorBound,  ///< working set fits on chip: capacity-insensitive
  kMemoryBound,     ///< working set overflows: capacity/concurrency-sensitive
};

/// Classify a real problem size b against the capacity bound a.
BoundRegime classify_problem(double real_problem_size, double capacity_bounded_size);

}  // namespace c2b
