#pragma once

// Synthetic kernel trace generators. Each reproduces the address pattern
// and instruction mix of a kernel family the paper leans on (Table I and
// the PARSEC/SPLASH-2 evaluation): tiled matrix multiply, stencil, FFT
// butterflies, band-sparse SpMV, pointer chasing, and a Zipf-skewed
// big-data stream standing in for fluidanimate's large working set.
//
// All generators emit an interleaving of kCompute records and kLoad/kStore
// records with concrete byte addresses, deterministically from their
// parameters + seed, so every experiment is reproducible.

#include <memory>

#include "c2b/common/rng.h"
#include "c2b/trace/trace.h"

namespace c2b {

namespace detail {

/// Refill-buffer base: subclasses produce one loop-nest step per refill.
class BufferedGenerator : public TraceGenerator {
 public:
  TraceRecord next() final;
  void reset() final;
  const std::string& name() const noexcept final { return name_; }

 protected:
  explicit BufferedGenerator(std::string name) : name_(std::move(name)) {}
  /// Append the next batch of records to `out`; called when drained.
  virtual void refill(std::vector<TraceRecord>& out) = 0;
  /// Restore generator state to the beginning of the stream.
  virtual void rewind() = 0;

  static TraceRecord compute() { return {.kind = InstrKind::kCompute}; }
  static TraceRecord load(std::uint64_t address) {
    return {.kind = InstrKind::kLoad, .address = address};
  }
  static TraceRecord store(std::uint64_t address) {
    return {.kind = InstrKind::kStore, .address = address};
  }
  static TraceRecord dependent_load(std::uint64_t address) {
    return {.kind = InstrKind::kLoad, .depends_on_prev_mem = true, .address = address};
  }

 private:
  std::string name_;
  std::vector<TraceRecord> buffer_;
  std::size_t position_ = 0;
};

}  // namespace detail

/// Tiled dense matrix multiply C += A*B (paper Table I row 1; W ~ n^3,
/// M ~ n^2, g(N) = N^{3/2}). Emits the exact address stream of the
/// (ii,jj,kk)(i,j,k) tiled loop nest over double elements.
class TiledMatMulGenerator final : public detail::BufferedGenerator {
 public:
  TiledMatMulGenerator(std::size_t matrix_dim, std::size_t tile_dim,
                       std::uint64_t base_address = 0);

 private:
  void refill(std::vector<TraceRecord>& out) override;
  void rewind() override;

  std::size_t n_;
  std::size_t tile_;
  std::uint64_t base_a_, base_b_, base_c_;
  // Loop-nest odometer: tile indices then intra-tile indices.
  std::size_t ii_ = 0, jj_ = 0, kk_ = 0, i_ = 0, j_ = 0, k_ = 0;
};

/// 5-point Jacobi stencil over an n x n grid (Table I row 3; g(N) = N).
class StencilGenerator final : public detail::BufferedGenerator {
 public:
  explicit StencilGenerator(std::size_t grid_dim, std::uint64_t base_address = 0);

 private:
  void refill(std::vector<TraceRecord>& out) override;
  void rewind() override;

  std::size_t n_;
  std::uint64_t base_in_, base_out_;
  std::size_t i_ = 1, j_ = 1;
};

/// Radix-2 FFT butterfly address pattern over 2^log2_n complex doubles
/// (Table I row 4; g(N) = 2N at M = N).
class FftGenerator final : public detail::BufferedGenerator {
 public:
  explicit FftGenerator(unsigned log2_n, std::uint64_t base_address = 0);

 private:
  void refill(std::vector<TraceRecord>& out) override;
  void rewind() override;

  unsigned log2_n_;
  std::size_t n_;
  std::uint64_t base_;
  unsigned stage_ = 0;
  std::size_t group_ = 0, butterfly_ = 0;
};

/// Band sparse matrix-vector product y = A x with semi-bandwidth `band`
/// (Table I row 2; g(N) = N).
class BandSparseGenerator final : public detail::BufferedGenerator {
 public:
  BandSparseGenerator(std::size_t rows, std::size_t band, std::uint64_t base_address = 0);

 private:
  void refill(std::vector<TraceRecord>& out) override;
  void rewind() override;

  std::size_t rows_, band_;
  std::uint64_t base_vals_, base_x_, base_y_;
  std::size_t row_ = 0;
};

/// Dependent pointer chase over a random permutation of `lines` cache
/// lines: minimal locality AND minimal memory concurrency (every load
/// depends on the previous one). The low-C extreme of the paper's Fig. 7.
class PointerChaseGenerator final : public detail::BufferedGenerator {
 public:
  PointerChaseGenerator(std::size_t lines, unsigned computes_per_access, std::uint64_t seed,
                        std::uint64_t base_address = 0);

 private:
  void refill(std::vector<TraceRecord>& out) override;
  void rewind() override;

  std::vector<std::uint32_t> permutation_;  ///< the Sattolo cycle, immutable after construction
  unsigned computes_per_access_;
  std::uint64_t base_;
  std::size_t current_ = 0;
};

/// Zipf-skewed independent access stream over a large working set with a
/// tunable f_mem and write ratio; stands in for fluidanimate-style
/// big-working-set irregular behavior. High memory-level parallelism
/// (accesses are independent), tunable locality via the Zipf exponent.
class ZipfStreamGenerator final : public detail::BufferedGenerator {
 public:
  struct Params {
    std::size_t working_set_lines = 1 << 16;
    double zipf_exponent = 0.8;   ///< higher -> more locality
    double f_mem = 0.3;           ///< fraction of memory instructions
    double write_ratio = 0.3;     ///< stores among memory accesses
    std::uint64_t seed = 1;
    std::uint64_t base_address = 0;
  };

  explicit ZipfStreamGenerator(const Params& params);

 private:
  void refill(std::vector<TraceRecord>& out) override;
  void rewind() override;

  Params params_;
  Rng rng_;
  ZipfDistribution rank_;  ///< popularity rank of each access
  /// Permutation so hot lines are scattered. Immutable after construction.
  std::vector<std::uint32_t> hot_order_;
};

/// GUPS-style random update: load-modify-store to uniformly random lines
/// over a huge table. The classic bandwidth/latency stress case (RandomAccess
/// of the HPC Challenge suite); near-zero locality but full independence, so
/// concurrency is all that keeps it moving.
class GupsGenerator final : public detail::BufferedGenerator {
 public:
  GupsGenerator(std::size_t table_lines, std::uint64_t seed, std::uint64_t base_address = 0);

 private:
  void refill(std::vector<TraceRecord>& out) override;
  void rewind() override;

  std::size_t table_lines_;
  std::uint64_t seed_;
  Rng rng_;
  std::uint64_t base_;
};

/// Streaming reduction: one sequential read pass with an accumulator —
/// perfectly prefetchable, compute-light, g(N) = N.
class ReductionGenerator final : public detail::BufferedGenerator {
 public:
  explicit ReductionGenerator(std::size_t elements, std::uint64_t base_address = 0);

 private:
  void refill(std::vector<TraceRecord>& out) override;
  void rewind() override;

  std::size_t elements_;
  std::uint64_t base_;
  std::size_t index_ = 0;
};

/// Blocked matrix transpose: reads rows, writes columns — one side streams,
/// the other strides by the full row, stressing set-conflict behavior.
class TransposeGenerator final : public detail::BufferedGenerator {
 public:
  TransposeGenerator(std::size_t matrix_dim, std::size_t block_dim,
                     std::uint64_t base_address = 0);

 private:
  void refill(std::vector<TraceRecord>& out) override;
  void rewind() override;

  std::size_t n_, block_;
  std::uint64_t base_in_, base_out_;
  std::size_t bi_ = 0, bj_ = 0, i_ = 0, j_ = 0;
};

/// BFS-like frontier expansion: reads a sequential frontier array, then a
/// burst of random neighbor lookups per vertex — alternating regular and
/// irregular access within one kernel, like graph analytics.
class FrontierGenerator final : public detail::BufferedGenerator {
 public:
  struct Params {
    std::size_t vertices = 1 << 16;     ///< graph size in vertices (1 line each)
    unsigned neighbors_per_vertex = 6;  ///< random lookups per frontier entry
    std::uint64_t seed = 1;
    std::uint64_t base_address = 0;
  };
  explicit FrontierGenerator(const Params& params);

 private:
  void refill(std::vector<TraceRecord>& out) override;
  void rewind() override;

  Params params_;
  Rng rng_;
  std::uint64_t base_frontier_, base_adjacency_;
  std::size_t frontier_index_ = 0;
};

/// Concatenates child generators in a repeating schedule of fixed-length
/// phases, reproducing the paper's "behavior changes phase by phase"
/// observation (Section IV).
class PhasedGenerator final : public detail::BufferedGenerator {
 public:
  struct Phase {
    std::shared_ptr<TraceGenerator> generator;
    std::uint64_t length = 0;  ///< instructions before switching
  };

  explicit PhasedGenerator(std::vector<Phase> phases);

 private:
  void refill(std::vector<TraceRecord>& out) override;
  void rewind() override;

  std::vector<Phase> phases_;
  std::size_t phase_index_ = 0;
  std::uint64_t emitted_in_phase_ = 0;
};

}  // namespace c2b
