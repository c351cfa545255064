#pragma once

// Instruction-trace representation shared by the generators, the phase
// picker, and the cycle-level simulator. A trace is a stream of retired
// instructions; memory instructions carry a byte address. This is the
// substitute for the paper's SPLASH-2 / PARSEC SimPoint traces: the
// generators below expose the knobs those benchmarks matter through
// (f_mem, locality, working set, phase structure).

#include <cstdint>
#include <string>
#include <vector>

namespace c2b {

enum class InstrKind : std::uint8_t { kCompute = 0, kLoad = 1, kStore = 2 };

struct TraceRecord {
  InstrKind kind = InstrKind::kCompute;
  /// True when this memory access consumes the value of the previous memory
  /// access (pointer chasing): the core cannot overlap it, which is what
  /// drives memory concurrency C toward 1 for such codes.
  bool depends_on_prev_mem = false;
  std::uint64_t address = 0;  ///< byte address; meaningful for load/store only
};

/// A materialized trace window plus its provenance.
struct Trace {
  std::string name;
  std::vector<TraceRecord> records;

  std::uint64_t instruction_count() const noexcept { return records.size(); }
  std::uint64_t memory_access_count() const noexcept;
  /// Fraction of instructions that access memory (the paper's f_mem).
  double f_mem() const noexcept;
  /// Number of distinct cache lines touched (working-set proxy).
  std::uint64_t distinct_lines(std::uint32_t line_bytes = 64) const;
};

/// Pull-based generator interface; all generators are deterministic given
/// their construction parameters and seed.
class TraceGenerator {
 public:
  virtual ~TraceGenerator() = default;
  /// Produce the next retired instruction.
  virtual TraceRecord next() = 0;
  /// Restart the stream from the beginning (same sequence).
  virtual void reset() = 0;
  virtual const std::string& name() const noexcept = 0;

  /// Materialize `count` records into a Trace.
  Trace generate(std::uint64_t count);
};

}  // namespace c2b
