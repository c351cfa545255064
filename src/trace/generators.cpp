#include "c2b/trace/generators.h"

#include <algorithm>
#include <numeric>

#include "c2b/common/assert.h"

namespace c2b {

namespace detail {

TraceRecord BufferedGenerator::next() {
  while (position_ >= buffer_.size()) {
    buffer_.clear();
    position_ = 0;
    refill(buffer_);
    C2B_ASSERT(!buffer_.empty(), "generator refill produced no records");
  }
  return buffer_[position_++];
}

void BufferedGenerator::reset() {
  buffer_.clear();
  position_ = 0;
  rewind();
}

}  // namespace detail

namespace {

constexpr std::uint64_t kElem = 8;   // sizeof(double)
constexpr std::uint64_t kLine = 64;  // cache-line bytes

}  // namespace

// ---------------------------------------------------------------------------
// TiledMatMulGenerator

TiledMatMulGenerator::TiledMatMulGenerator(std::size_t matrix_dim, std::size_t tile_dim,
                                           std::uint64_t base_address)
    : BufferedGenerator("tmm"), n_(matrix_dim), tile_(tile_dim) {
  C2B_REQUIRE(matrix_dim >= 1, "matrix dimension must be >= 1");
  C2B_REQUIRE(tile_dim >= 1 && tile_dim <= matrix_dim, "tile must fit in the matrix");
  base_a_ = base_address;
  base_b_ = base_a_ + static_cast<std::uint64_t>(n_) * n_ * kElem;
  base_c_ = base_b_ + static_cast<std::uint64_t>(n_) * n_ * kElem;
}

void TiledMatMulGenerator::refill(std::vector<TraceRecord>& out) {
  // One (i, j): the full k-run of the current tile, so the C element is
  // loaded once, accumulated over k, and stored once — like real code.
  const std::size_t i = ii_ + i_;
  const std::size_t j = jj_ + j_;
  out.push_back(load(base_c_ + (static_cast<std::uint64_t>(i) * n_ + j) * kElem));
  const std::size_t k_end = std::min(kk_ + tile_, n_);
  for (std::size_t k = kk_; k < k_end; ++k) {
    out.push_back(load(base_a_ + (static_cast<std::uint64_t>(i) * n_ + k) * kElem));
    out.push_back(load(base_b_ + (static_cast<std::uint64_t>(k) * n_ + j) * kElem));
    out.push_back(compute());  // multiply
    out.push_back(compute());  // add
  }
  out.push_back(store(base_c_ + (static_cast<std::uint64_t>(i) * n_ + j) * kElem));

  // Advance the (ii, jj, kk)(i, j) odometer; k is consumed whole per refill.
  auto advance = [&] {
    if (++j_ < tile_ && jj_ + j_ < n_) return;
    j_ = 0;
    if (++i_ < tile_ && ii_ + i_ < n_) return;
    i_ = 0;
    kk_ += tile_;
    if (kk_ < n_) return;
    kk_ = 0;
    jj_ += tile_;
    if (jj_ < n_) return;
    jj_ = 0;
    ii_ += tile_;
    if (ii_ < n_) return;
    ii_ = 0;  // whole multiply done; loop forever
  };
  advance();
}

void TiledMatMulGenerator::rewind() { ii_ = jj_ = kk_ = i_ = j_ = k_ = 0; }

// ---------------------------------------------------------------------------
// StencilGenerator

StencilGenerator::StencilGenerator(std::size_t grid_dim, std::uint64_t base_address)
    : BufferedGenerator("stencil"), n_(grid_dim) {
  C2B_REQUIRE(grid_dim >= 3, "stencil grid must be at least 3x3");
  base_in_ = base_address;
  base_out_ = base_in_ + static_cast<std::uint64_t>(n_) * n_ * kElem;
}

void StencilGenerator::refill(std::vector<TraceRecord>& out) {
  auto at = [&](std::uint64_t base, std::size_t r, std::size_t c) {
    return base + (static_cast<std::uint64_t>(r) * n_ + c) * kElem;
  };
  out.push_back(load(at(base_in_, i_, j_)));
  out.push_back(load(at(base_in_, i_ - 1, j_)));
  out.push_back(load(at(base_in_, i_ + 1, j_)));
  out.push_back(load(at(base_in_, i_, j_ - 1)));
  out.push_back(load(at(base_in_, i_, j_ + 1)));
  for (int c = 0; c < 5; ++c) out.push_back(compute());
  out.push_back(store(at(base_out_, i_, j_)));

  if (++j_ >= n_ - 1) {
    j_ = 1;
    if (++i_ >= n_ - 1) i_ = 1;  // next sweep
  }
}

void StencilGenerator::rewind() {
  i_ = 1;
  j_ = 1;
}

// ---------------------------------------------------------------------------
// FftGenerator

FftGenerator::FftGenerator(unsigned log2_n, std::uint64_t base_address)
    : BufferedGenerator("fft"), log2_n_(log2_n), n_(std::size_t{1} << log2_n), base_(base_address) {
  C2B_REQUIRE(log2_n >= 1 && log2_n <= 30, "FFT size must be 2^1 .. 2^30");
}

void FftGenerator::refill(std::vector<TraceRecord>& out) {
  // Stage s pairs elements `half` apart within groups of size 2*half;
  // complex doubles are 16 bytes.
  const std::size_t half = std::size_t{1} << stage_;
  const std::size_t idx_a = group_ * (half * 2) + butterfly_;
  const std::size_t idx_b = idx_a + half;
  constexpr std::uint64_t kComplex = 16;

  out.push_back(load(base_ + idx_a * kComplex));
  out.push_back(load(base_ + idx_b * kComplex));
  for (int c = 0; c < 6; ++c) out.push_back(compute());  // twiddle multiply + add/sub
  out.push_back(store(base_ + idx_a * kComplex));
  out.push_back(store(base_ + idx_b * kComplex));

  if (++butterfly_ >= half) {
    butterfly_ = 0;
    const std::size_t groups = n_ / (half * 2);
    if (++group_ >= groups) {
      group_ = 0;
      if (++stage_ >= log2_n_) stage_ = 0;  // next transform
    }
  }
}

void FftGenerator::rewind() {
  stage_ = 0;
  group_ = butterfly_ = 0;
}

// ---------------------------------------------------------------------------
// BandSparseGenerator

BandSparseGenerator::BandSparseGenerator(std::size_t rows, std::size_t band,
                                         std::uint64_t base_address)
    : BufferedGenerator("band_sparse"), rows_(rows), band_(band) {
  C2B_REQUIRE(rows >= 1, "need at least one row");
  C2B_REQUIRE(band >= 1 && band <= rows, "band must be in [1, rows]");
  const std::uint64_t nnz = static_cast<std::uint64_t>(rows_) * (2 * band_ + 1);
  base_vals_ = base_address;
  base_x_ = base_vals_ + nnz * kElem;
  base_y_ = base_x_ + static_cast<std::uint64_t>(rows_) * kElem;
}

void BandSparseGenerator::refill(std::vector<TraceRecord>& out) {
  // y[row] = sum over the band of A(row, col) * x[col].
  const std::size_t width = 2 * band_ + 1;
  const std::uint64_t row_vals = base_vals_ + static_cast<std::uint64_t>(row_) * width * kElem;
  const std::size_t col_lo = row_ >= band_ ? row_ - band_ : 0;
  const std::size_t col_hi = std::min(row_ + band_, rows_ - 1);
  for (std::size_t col = col_lo; col <= col_hi; ++col) {
    out.push_back(load(row_vals + (col - col_lo) * kElem));
    out.push_back(load(base_x_ + static_cast<std::uint64_t>(col) * kElem));
    out.push_back(compute());
    out.push_back(compute());
  }
  out.push_back(store(base_y_ + static_cast<std::uint64_t>(row_) * kElem));
  if (++row_ >= rows_) row_ = 0;
}

void BandSparseGenerator::rewind() { row_ = 0; }

// ---------------------------------------------------------------------------
// PointerChaseGenerator

PointerChaseGenerator::PointerChaseGenerator(std::size_t lines, unsigned computes_per_access,
                                             std::uint64_t seed, std::uint64_t base_address)
    : BufferedGenerator("pointer_chase"),
      computes_per_access_(computes_per_access),
      base_(base_address) {
  C2B_REQUIRE(lines >= 2, "pointer chase needs at least two lines");
  std::vector<std::uint32_t> permutation(lines);
  std::iota(permutation.begin(), permutation.end(), 0u);
  // Sattolo's algorithm: a single cycle through every line, so the chase
  // visits the whole working set before repeating.
  Rng rng(seed);
  for (std::size_t i = lines - 1; i > 0; --i) {
    const std::size_t j = rng.uniform_below(i);
    std::swap(permutation[i], permutation[j]);
  }
  permutation_ = std::move(permutation);
}

void PointerChaseGenerator::refill(std::vector<TraceRecord>& out) {
  out.push_back(dependent_load(base_ + static_cast<std::uint64_t>(current_) * kLine));
  for (unsigned c = 0; c < computes_per_access_; ++c) out.push_back(compute());
  current_ = permutation_[current_];
}

void PointerChaseGenerator::rewind() { current_ = 0; }

// ---------------------------------------------------------------------------
// ZipfStreamGenerator

ZipfStreamGenerator::ZipfStreamGenerator(const Params& params)
    : BufferedGenerator("zipf_stream"),
      params_(params),
      rng_(params.seed),
      rank_(params.working_set_lines, params.zipf_exponent) {
  C2B_REQUIRE(params.working_set_lines >= 1, "working set must be non-empty");
  C2B_REQUIRE(params.zipf_exponent >= 0.0, "zipf exponent must be >= 0");
  C2B_REQUIRE(params.f_mem > 0.0 && params.f_mem <= 1.0, "f_mem in (0,1]");
  C2B_REQUIRE(params.write_ratio >= 0.0 && params.write_ratio <= 1.0, "write ratio in [0,1]");
  // Scatter the popularity ranks over the address space so hot lines do not
  // all sit in the same cache sets.
  std::vector<std::uint32_t> hot_order(params.working_set_lines);
  std::iota(hot_order.begin(), hot_order.end(), 0u);
  Rng shuffle_rng(params.seed ^ 0x5bf03635u);
  for (std::size_t i = hot_order.size() - 1; i > 0; --i) {
    const std::size_t j = shuffle_rng.uniform_below(i + 1);
    std::swap(hot_order[i], hot_order[j]);
  }
  hot_order_ = std::move(hot_order);
}

void ZipfStreamGenerator::refill(std::vector<TraceRecord>& out) {
  if (!rng_.bernoulli(params_.f_mem)) {
    out.push_back(compute());
    return;
  }
  const std::uint64_t line = hot_order_[rank_(rng_)];
  const std::uint64_t address = params_.base_address + line * kLine;
  if (rng_.bernoulli(params_.write_ratio)) {
    out.push_back(store(address));
  } else {
    out.push_back(load(address));
  }
}

void ZipfStreamGenerator::rewind() {
  rng_.reseed(params_.seed);
}

// ---------------------------------------------------------------------------
// GupsGenerator

GupsGenerator::GupsGenerator(std::size_t table_lines, std::uint64_t seed,
                             std::uint64_t base_address)
    : BufferedGenerator("gups"), table_lines_(table_lines), seed_(seed), rng_(seed),
      base_(base_address) {
  C2B_REQUIRE(table_lines >= 1, "GUPS table must be non-empty");
}

void GupsGenerator::refill(std::vector<TraceRecord>& out) {
  const std::uint64_t address = base_ + rng_.uniform_below(table_lines_) * kLine;
  out.push_back(load(address));
  out.push_back(compute());  // the update (xor/add)
  out.push_back(store(address));
}

void GupsGenerator::rewind() { rng_.reseed(seed_); }

// ---------------------------------------------------------------------------
// ReductionGenerator

ReductionGenerator::ReductionGenerator(std::size_t elements, std::uint64_t base_address)
    : BufferedGenerator("reduction"), elements_(elements), base_(base_address) {
  C2B_REQUIRE(elements >= 1, "reduction needs at least one element");
}

void ReductionGenerator::refill(std::vector<TraceRecord>& out) {
  out.push_back(load(base_ + static_cast<std::uint64_t>(index_) * kElem));
  out.push_back(compute());  // accumulate
  if (++index_ >= elements_) index_ = 0;
}

void ReductionGenerator::rewind() { index_ = 0; }

// ---------------------------------------------------------------------------
// TransposeGenerator

TransposeGenerator::TransposeGenerator(std::size_t matrix_dim, std::size_t block_dim,
                                       std::uint64_t base_address)
    : BufferedGenerator("transpose"), n_(matrix_dim), block_(block_dim) {
  C2B_REQUIRE(matrix_dim >= 1, "matrix dimension must be >= 1");
  C2B_REQUIRE(block_dim >= 1 && block_dim <= matrix_dim, "block must fit in the matrix");
  base_in_ = base_address;
  base_out_ = base_in_ + static_cast<std::uint64_t>(n_) * n_ * kElem;
}

void TransposeGenerator::refill(std::vector<TraceRecord>& out) {
  const std::size_t row = bi_ + i_;
  const std::size_t col = bj_ + j_;
  out.push_back(load(base_in_ + (static_cast<std::uint64_t>(row) * n_ + col) * kElem));
  out.push_back(store(base_out_ + (static_cast<std::uint64_t>(col) * n_ + row) * kElem));

  auto advance = [&] {
    if (++j_ < block_ && bj_ + j_ < n_) return;
    j_ = 0;
    if (++i_ < block_ && bi_ + i_ < n_) return;
    i_ = 0;
    bj_ += block_;
    if (bj_ < n_) return;
    bj_ = 0;
    bi_ += block_;
    if (bi_ < n_) return;
    bi_ = 0;  // whole transpose done; loop
  };
  advance();
}

void TransposeGenerator::rewind() { bi_ = bj_ = i_ = j_ = 0; }

// ---------------------------------------------------------------------------
// FrontierGenerator

FrontierGenerator::FrontierGenerator(const Params& params)
    : BufferedGenerator("frontier"), params_(params), rng_(params.seed) {
  C2B_REQUIRE(params.vertices >= 2, "graph needs at least two vertices");
  C2B_REQUIRE(params.neighbors_per_vertex >= 1, "need at least one neighbor per vertex");
  base_frontier_ = params.base_address;
  base_adjacency_ = base_frontier_ + static_cast<std::uint64_t>(params.vertices) * kElem;
}

void FrontierGenerator::refill(std::vector<TraceRecord>& out) {
  // Sequential frontier read...
  out.push_back(load(base_frontier_ + static_cast<std::uint64_t>(frontier_index_) * kElem));
  out.push_back(compute());  // dequeue/bounds
  // ...then a burst of random neighbor lookups with a visited-flag store.
  for (unsigned e = 0; e < params_.neighbors_per_vertex; ++e) {
    const std::uint64_t neighbor = rng_.uniform_below(params_.vertices);
    out.push_back(load(base_adjacency_ + neighbor * kLine));
    out.push_back(compute());  // visited test
    if (rng_.bernoulli(0.25))
      out.push_back(store(base_adjacency_ + neighbor * kLine));  // mark visited
  }
  if (++frontier_index_ >= params_.vertices) frontier_index_ = 0;
}

void FrontierGenerator::rewind() {
  frontier_index_ = 0;
  rng_.reseed(params_.seed);
}

// ---------------------------------------------------------------------------
// PhasedGenerator

PhasedGenerator::PhasedGenerator(std::vector<Phase> phases)
    : BufferedGenerator("phased"), phases_(std::move(phases)) {
  C2B_REQUIRE(!phases_.empty(), "phased generator needs at least one phase");
  for (const Phase& p : phases_) {
    C2B_REQUIRE(p.generator != nullptr, "phase generator must not be null");
    C2B_REQUIRE(p.length > 0, "phase length must be positive");
  }
}

void PhasedGenerator::refill(std::vector<TraceRecord>& out) {
  if (emitted_in_phase_ >= phases_[phase_index_].length) {
    emitted_in_phase_ = 0;
    phase_index_ = (phase_index_ + 1) % phases_.size();
  }
  out.push_back(phases_[phase_index_].generator->next());
  ++emitted_in_phase_;
}

void PhasedGenerator::rewind() {
  phase_index_ = 0;
  emitted_in_phase_ = 0;
  for (Phase& p : phases_) p.generator->reset();
}

}  // namespace c2b
