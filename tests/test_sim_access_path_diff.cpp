// Differential tests for the simulator's per-access path. The production
// structures compute their index maps with shifts and masks (exact only
// when the divisor is a power of two, so every other count keeps the
// divide), store the cache ways struct-of-arrays, fold the MSHR retire
// scan into the lookup and bucket power-of-two-width histograms by a
// reciprocal multiply. Each test drives a production structure and a
// test-local copy of the straightforward array-of-structs / divide-always
// formulation with the same random operation stream and requires every
// observable result to match, on geometries and counts that are and are
// not powers of two.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "c2b/common/rng.h"
#include "c2b/obs/registry.h"
#include "c2b/sim/cache/cache.h"
#include "c2b/sim/dram/dram.h"
#include "c2b/sim/noc/noc.h"

namespace c2b::sim {
namespace {

// ---------------------------------------------------------------------------
// Reference cache: array-of-structs ways, set and tag by division.

class ReferenceCache {
 public:
  ReferenceCache(const CacheGeometry& geometry, ReplacementPolicy policy,
                 std::uint64_t victim_stream)
      : geometry_(geometry),
        policy_(policy),
        rng_state_(Rng::derive_stream_seed(0x9E3779B97F4A7C15ull, victim_stream)) {
    if (rng_state_ == 0) rng_state_ = 0x9E3779B97F4A7C15ull;
    ways_.resize(geometry_.sets() * geometry_.associativity);
    if (policy_ == ReplacementPolicy::kTreePlru) plru_.assign(geometry_.sets(), 0);
  }

  bool probe(std::uint64_t address, bool mark_dirty) {
    ++probes_;
    Way* way = find(address);
    if (way == nullptr) return false;
    ++hits_;
    if (mark_dirty) way->dirty = true;
    const std::size_t set = set_of(line_of(address));
    note_use(set, static_cast<std::uint32_t>(way - (ways_.data() + set * assoc())));
    return true;
  }
  bool contains(std::uint64_t address) { return find(address) != nullptr; }
  bool is_dirty(std::uint64_t address) {
    const Way* way = find(address);
    return way != nullptr && way->dirty;
  }
  std::optional<CacheArray::Evicted> fill(std::uint64_t address, bool dirty) {
    const std::uint64_t line = line_of(address);
    const std::size_t set = set_of(line);
    if (Way* existing = find(address)) {
      existing->dirty = existing->dirty || dirty;
      note_use(set, static_cast<std::uint32_t>(existing - (ways_.data() + set * assoc())));
      return std::nullopt;
    }
    const std::uint32_t victim_index = pick_victim(set);
    Way& victim = ways_[set * assoc() + victim_index];
    std::optional<CacheArray::Evicted> evicted;
    if (victim.valid) {
      const std::uint64_t victim_line = victim.tag * geometry_.sets() + set;
      evicted = CacheArray::Evicted{victim_line * geometry_.line_bytes, victim.dirty};
      if (victim.dirty) ++dirty_evictions_;
    }
    victim = Way{.tag = line / geometry_.sets(), .last_used = 0, .valid = true, .dirty = dirty};
    note_use(set, victim_index);
    return evicted;
  }
  bool invalidate(std::uint64_t address) {
    Way* way = find(address);
    if (way == nullptr) return false;
    *way = Way{};
    return true;
  }

  std::uint64_t probes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t dirty_evictions_ = 0;

 private:
  struct Way {
    std::uint64_t tag = 0;
    std::uint64_t last_used = 0;
    bool valid = false;
    bool dirty = false;
  };

  std::uint32_t assoc() const { return geometry_.associativity; }
  std::uint64_t line_of(std::uint64_t address) const { return address / geometry_.line_bytes; }
  std::size_t set_of(std::uint64_t line) const { return line % geometry_.sets(); }

  Way* find(std::uint64_t address) {
    const std::uint64_t line = line_of(address);
    Way* base = ways_.data() + set_of(line) * assoc();
    for (std::uint32_t i = 0; i < assoc(); ++i)
      if (base[i].valid && base[i].tag == line / geometry_.sets()) return base + i;
    return nullptr;
  }

  void note_use(std::size_t set, std::uint32_t way) {
    if (policy_ == ReplacementPolicy::kLru) {
      ways_[set * assoc() + way].last_used = ++clock_;
    } else if (policy_ == ReplacementPolicy::kTreePlru) {
      std::uint64_t& tree = plru_[set];
      std::uint32_t node = 1;
      for (std::uint32_t span = assoc() / 2; span >= 1; span /= 2) {
        const bool right = (way / span) & 1;
        if (right) {
          tree &= ~(std::uint64_t{1} << node);
        } else {
          tree |= (std::uint64_t{1} << node);
        }
        node = 2 * node + (right ? 1 : 0);
      }
    }
  }

  std::uint32_t pick_victim(std::size_t set) {
    Way* base = ways_.data() + set * assoc();
    for (std::uint32_t i = 0; i < assoc(); ++i)
      if (!base[i].valid) return i;
    switch (policy_) {
      case ReplacementPolicy::kLru: {
        std::uint32_t victim = 0;
        for (std::uint32_t i = 1; i < assoc(); ++i)
          if (base[i].last_used < base[victim].last_used) victim = i;
        return victim;
      }
      case ReplacementPolicy::kTreePlru: {
        const std::uint64_t tree = plru_[set];
        std::uint32_t node = 1;
        std::uint32_t way = 0;
        for (std::uint32_t span = assoc() / 2; span >= 1; span /= 2) {
          const bool right = (tree >> node) & 1;
          if (right) way += span;
          node = 2 * node + (right ? 1 : 0);
        }
        return way;
      }
      case ReplacementPolicy::kRandom:
        rng_state_ ^= rng_state_ >> 12;
        rng_state_ ^= rng_state_ << 25;
        rng_state_ ^= rng_state_ >> 27;
        return static_cast<std::uint32_t>((rng_state_ * 0x2545F4914F6CDD1Dull) % assoc());
    }
    return 0;
  }

  CacheGeometry geometry_;
  ReplacementPolicy policy_;
  std::vector<Way> ways_;
  std::vector<std::uint64_t> plru_;
  std::uint64_t clock_ = 0;
  std::uint64_t rng_state_;
};

std::uint64_t pick(Rng& rng, const std::vector<std::uint64_t>& values) {
  return values[rng.uniform_below(values.size())];
}

TEST(AccessPathDiff, CacheArrayMatchesArrayOfStructsReference) {
  Rng rng(20261018);
  const ReplacementPolicy policies[] = {ReplacementPolicy::kLru, ReplacementPolicy::kTreePlru,
                                        ReplacementPolicy::kRandom};
  int non_pow2_sets = 0;
  for (int trial = 0; trial < 240; ++trial) {
    const ReplacementPolicy policy = policies[trial % 3];
    const std::uint32_t line_bytes =
        static_cast<std::uint32_t>(pick(rng, {1, 2, 8, 32, 64, 128}));
    const std::uint32_t assoc = static_cast<std::uint32_t>(
        policy == ReplacementPolicy::kTreePlru ? pick(rng, {1, 2, 4, 8, 16})
                                               : 1 + rng.uniform_below(16));
    // Half the trials take a power-of-two set count, half any count.
    const std::uint64_t sets = trial % 2 == 0 ? std::uint64_t{1} << rng.uniform_below(7)
                                              : 1 + rng.uniform_below(48);
    if ((sets & (sets - 1)) != 0) ++non_pow2_sets;
    const CacheGeometry geometry{.size_bytes = sets * assoc * line_bytes,
                                 .line_bytes = line_bytes,
                                 .associativity = assoc};
    const std::uint64_t stream = rng.uniform_below(8);
    SCOPED_TRACE("trial " + std::to_string(trial) + ": line " + std::to_string(line_bytes) +
                 " B, " + std::to_string(sets) + " sets x " + std::to_string(assoc) +
                 " ways, policy " + std::to_string(static_cast<int>(policy)));
    CacheArray cache(geometry, policy, stream);
    ReferenceCache reference(geometry, policy, stream);

    // Lines drawn from ~3x the capacity keep both hits and evictions
    // frequent; a high base exercises the upper tag bits.
    const std::uint64_t span_lines = 3 * sets * assoc + 1;
    const std::uint64_t high = trial % 5 == 0 ? (std::uint64_t{1} << 40) / line_bytes : 0;
    for (int op = 0; op < 600; ++op) {
      const std::uint64_t line = high + rng.uniform_below(span_lines);
      const std::uint64_t address = line * line_bytes + rng.uniform_below(line_bytes);
      const bool dirty = rng.bernoulli(0.3);
      switch (rng.uniform_below(5)) {
        case 0:
          ASSERT_EQ(cache.probe(address, dirty), reference.probe(address, dirty)) << "op " << op;
          break;
        case 1: {
          const auto got = cache.fill(address, dirty);
          const auto want = reference.fill(address, dirty);
          ASSERT_EQ(got.has_value(), want.has_value()) << "op " << op;
          if (got) {
            ASSERT_EQ(got->address, want->address) << "op " << op;
            ASSERT_EQ(got->dirty, want->dirty) << "op " << op;
          }
          break;
        }
        case 2:
          ASSERT_EQ(cache.contains(address), reference.contains(address)) << "op " << op;
          break;
        case 3:
          ASSERT_EQ(cache.is_dirty(address), reference.is_dirty(address)) << "op " << op;
          break;
        default:
          if (rng.bernoulli(0.3)) {  // invalidations are rarer than accesses
            ASSERT_EQ(cache.invalidate(address), reference.invalidate(address)) << "op " << op;
          }
          break;
      }
      ASSERT_EQ(cache.probe_count(), reference.probes_);
      ASSERT_EQ(cache.hit_count(), reference.hits_);
      ASSERT_EQ(cache.dirty_evictions(), reference.dirty_evictions_);
    }
  }
  EXPECT_GT(non_pow2_sets, 60);
}

// ---------------------------------------------------------------------------
// Reference MSHR file: a retire pass, then a separate lookup pass.

class ReferenceMshr {
 public:
  explicit ReferenceMshr(std::uint32_t capacity) : capacity_(capacity) {}

  MshrFile::Grant request(std::uint64_t line, std::uint64_t cycle) {
    retire_before(cycle);
    for (const Entry& e : entries_) {
      if (e.line == line) {
        ++merges_;
        return {.start_cycle = cycle, .merged = true, .merged_completion = e.completion};
      }
    }
    std::uint64_t start = cycle;
    if (entries_.size() >= capacity_) {
      ++full_stalls_;
      std::uint64_t earliest = 0;
      for (const Entry& e : entries_)
        if (e.completion != 0 && (earliest == 0 || e.completion < earliest)) earliest = e.completion;
      if (earliest > start) start = earliest;
      retire_before(start);
      if (entries_.size() >= capacity_) entries_.erase(entries_.begin());
    }
    entries_.push_back({line, 0});
    return {.start_cycle = start, .merged = false, .merged_completion = 0};
  }

  void complete(std::uint64_t line, std::uint64_t completion) {
    for (Entry& e : entries_) {
      if (e.line == line && e.completion == 0) {
        e.completion = completion;
        return;
      }
    }
    FAIL() << "complete for a line with no in-flight entry";
  }

  /// Lines whose completion is still unknown (complete() candidates).
  std::vector<std::uint64_t> pending() const {
    std::vector<std::uint64_t> lines;
    for (const Entry& e : entries_)
      if (e.completion == 0) lines.push_back(e.line);
    return lines;
  }

  std::size_t in_flight() const { return entries_.size(); }
  std::uint64_t full_stalls_ = 0;
  std::uint64_t merges_ = 0;

 private:
  struct Entry {
    std::uint64_t line;
    std::uint64_t completion;
  };
  void retire_before(std::uint64_t cycle) {
    std::vector<Entry> kept;
    for (const Entry& e : entries_)
      if (e.completion == 0 || e.completion > cycle) kept.push_back(e);
    entries_ = kept;
  }

  std::vector<Entry> entries_;
  std::uint32_t capacity_;
};

TEST(AccessPathDiff, MshrFileMatchesTwoPassReference) {
  Rng rng(7);
  std::uint64_t stalls_seen = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const std::uint32_t capacity = 1 + static_cast<std::uint32_t>(rng.uniform_below(8));
    SCOPED_TRACE("trial " + std::to_string(trial) + ", capacity " + std::to_string(capacity));
    MshrFile mshr(capacity);
    ReferenceMshr reference(capacity);
    std::uint64_t cycle = 1;
    const std::uint64_t lines = 2 + rng.uniform_below(3 * capacity);
    for (int op = 0; op < 400; ++op) {
      const std::vector<std::uint64_t> pending = reference.pending();
      // Mostly request; complete a pending entry some of the time, leaving
      // others unknown so the file fills and stalls.
      if (!pending.empty() && rng.bernoulli(0.45)) {
        const std::uint64_t line = pick(rng, pending);
        const std::uint64_t completion = cycle + 1 + rng.uniform_below(40);
        mshr.complete(line, completion);
        reference.complete(line, completion);
      } else {
        cycle += rng.uniform_below(6);
        const std::uint64_t line = rng.uniform_below(lines);
        const MshrFile::Grant got = mshr.request(line, cycle);
        const MshrFile::Grant want = reference.request(line, cycle);
        ASSERT_EQ(got.start_cycle, want.start_cycle) << "op " << op;
        ASSERT_EQ(got.merged, want.merged) << "op " << op;
        ASSERT_EQ(got.merged_completion, want.merged_completion) << "op " << op;
      }
      ASSERT_EQ(mshr.in_flight(), reference.in_flight()) << "op " << op;
      ASSERT_EQ(mshr.merge_count(), reference.merges_) << "op " << op;
      ASSERT_EQ(mshr.full_stall_events(), reference.full_stalls_) << "op " << op;
    }
    stalls_seen += mshr.full_stall_events();
  }
  EXPECT_GT(stalls_seen, 0u);
}

// ---------------------------------------------------------------------------
// Index maps at counts that are not powers of two.

TEST(AccessPathDiff, BankPortSchedulerMatchesModuloReference) {
  Rng rng(11);
  for (const std::uint32_t banks : {1u, 3u, 4u, 5u, 6u, 7u, 12u, 16u}) {
    SCOPED_TRACE("banks " + std::to_string(banks));
    const std::uint32_t ports = 1 + static_cast<std::uint32_t>(rng.uniform_below(3));
    BankPortScheduler scheduler(banks, ports);
    struct Bank {
      std::uint64_t cycle = 0;
      std::uint32_t used = 0;
    };
    std::vector<Bank> reference(banks);
    std::uint64_t contention = 0;
    std::uint64_t earliest = 0;
    for (int op = 0; op < 2000; ++op) {
      earliest += rng.uniform_below(3);
      const std::uint64_t line = rng.uniform_below(1u << 20);
      Bank& bank = reference[line % banks];
      std::uint64_t want;
      if (earliest > bank.cycle) {
        bank = {earliest, 1};
        want = earliest;
      } else if (bank.used < ports) {
        ++bank.used;
        contention += bank.cycle - earliest;
        want = bank.cycle;
      } else {
        bank = {bank.cycle + 1, 1};
        contention += bank.cycle - earliest;
        want = bank.cycle;
      }
      ASSERT_EQ(scheduler.schedule(line, earliest), want) << "op " << op;
    }
    EXPECT_EQ(scheduler.contention_cycles(), contention);
  }
}

TEST(AccessPathDiff, DramModelMatchesDivideReference) {
  Rng rng(13);
  for (const std::uint32_t banks : {1u, 3u, 8u, 12u}) {
    for (const std::uint32_t lines_per_row : {1u, 6u, 64u, 100u}) {
      for (const std::uint32_t t_bus : {3u, 4u}) {
        SCOPED_TRACE("banks " + std::to_string(banks) + ", lines/row " +
                     std::to_string(lines_per_row) + ", t_bus " + std::to_string(t_bus));
        const DramConfig config{.banks = banks, .lines_per_row = lines_per_row, .t_cas = 5,
                                .t_rcd = 7, .t_rp = 9, .t_bus = t_bus};
        DramModel dram(config);
        struct Bank {
          std::uint64_t open_row = 0;
          bool open = false;
          std::uint64_t ready = 0;
        };
        std::vector<Bank> reference(banks);
        std::uint64_t bus_free = 0, row_hits = 0, conflicts = 0, total_latency = 0;
        std::uint64_t arrival = 0;
        for (int op = 0; op < 1500; ++op) {
          arrival += rng.uniform_below(8);
          const std::uint64_t line = rng.uniform_below(4 * banks * lines_per_row);
          const std::uint64_t row = line / lines_per_row;
          Bank& bank = reference[row % banks];
          const std::uint64_t start = std::max(arrival, bank.ready);
          std::uint64_t column_ready = start + config.t_cas;
          if (bank.open && bank.open_row == row) {
            ++row_hits;
          } else if (!bank.open) {
            column_ready += config.t_rcd;
          } else {
            ++conflicts;
            column_ready += config.t_rp + config.t_rcd;
          }
          bank = {row, true, column_ready};
          const std::uint64_t completion = std::max(column_ready, bus_free) + config.t_bus;
          bus_free = completion;
          total_latency += completion - arrival;
          ASSERT_EQ(dram.access(line, arrival), completion) << "op " << op;
        }
        EXPECT_EQ(dram.stats().row_hits, row_hits);
        EXPECT_EQ(dram.stats().row_conflicts, conflicts);
        EXPECT_EQ(dram.stats().total_latency, total_latency);
      }
    }
  }
}

TEST(AccessPathDiff, MeshNocMatchesRecomputingReference) {
  Rng rng(17);
  for (const std::uint32_t nodes : {1u, 2u, 5u, 7u, 12u, 13u, 16u, 20u, 64u}) {
    SCOPED_TRACE("nodes " + std::to_string(nodes));
    const NocConfig config{.nodes = nodes, .hop_latency = 2, .injection_latency = 1,
                           .congestion_per_load = rng.uniform(0.0, 1.5)};
    MeshNoc noc(config);
    const auto side = static_cast<std::uint32_t>(std::ceil(std::sqrt(static_cast<double>(nodes))));
    auto hops = [&](std::uint32_t a, std::uint32_t b) {
      const std::uint32_t ax = a % side, ay = a / side, bx = b % side, by = b / side;
      return (ax > bx ? ax - bx : bx - ax) + (ay > by ? ay - by : by - ay);
    };
    std::uint64_t messages = 0, total_hops = 0;
    auto latency = [&](std::uint32_t a, std::uint32_t b) {
      const double average =
          messages == 0 ? 0.0 : static_cast<double>(total_hops) / static_cast<double>(messages);
      return config.injection_latency + std::uint64_t{hops(a, b)} * config.hop_latency +
             static_cast<std::uint64_t>(config.congestion_per_load * average);
    };
    for (int op = 0; op < 1000; ++op) {
      const std::uint64_t line = rng.uniform_below(std::uint64_t{1} << 30);
      ASSERT_EQ(noc.slice_of(line), line % nodes) << "op " << op;
      const auto a = static_cast<std::uint32_t>(rng.uniform_below(nodes));
      const auto b = static_cast<std::uint32_t>(rng.uniform_below(nodes));
      if (rng.bernoulli(0.5)) {
        ASSERT_EQ(noc.latency(a, b), latency(a, b)) << "op " << op;
      } else {
        const std::uint64_t want = 2 * latency(a, b);
        messages += 2;
        total_hops += 2ull * hops(a, b);
        ASSERT_EQ(noc.round_trip(a, b), want) << "op " << op;
      }
    }
    EXPECT_EQ(noc.message_count(), messages);
  }
}

// ---------------------------------------------------------------------------
// LocalHistogram buckets exactly as histogram_bin, whatever the width.

TEST(AccessPathDiff, LocalHistogramBinsMatchHistogramBin) {
  struct Shape {
    double lo, hi;
    std::size_t bins;
  };
  // Widths 1, 4, 0.25 and 2^-10 are powers of two; 1.5625, 10/3, 0.3 and
  // 0.1 are not (at 0.1, dividing and multiplying by the rounded reciprocal
  // disagree on some of the sub-bin samples below).
  const Shape shapes[] = {{0.0, 64.0, 64},  {0.0, 256.0, 64}, {-3.0, 5.0, 32},
                          {0.0, 1.0, 1024}, {0.0, 100.0, 64}, {0.0, 10.0, 3},
                          {-1.5, 1.5, 10},  {0.0, 6.4, 64}};
  Rng rng(19);
  for (const Shape& shape : shapes) {
    const double width = (shape.hi - shape.lo) / static_cast<double>(shape.bins);
    SCOPED_TRACE("width " + std::to_string(width));
    obs::LocalHistogram local(shape.lo, shape.hi, shape.bins);
    std::vector<std::uint64_t> want(shape.bins, 0);
    auto record = [&](double x) {
      local.record(x);
      ++want[obs::histogram_bin(x, shape.lo, width, shape.bins)];
    };
    for (std::size_t edge = 0; edge <= shape.bins; ++edge) {
      const double x = shape.lo + static_cast<double>(edge) * width;
      record(x);
      record(std::nextafter(x, -std::numeric_limits<double>::infinity()));
      record(std::nextafter(x, std::numeric_limits<double>::infinity()));
    }
    for (std::size_t step = 0; step < 40 * shape.bins; ++step)
      record(shape.lo + static_cast<double>(step) * width / 40.0);
    for (int i = 0; i < 5000; ++i) {
      const double span = shape.hi - shape.lo;
      record(rng.uniform(shape.lo - 0.25 * span, shape.hi + 0.25 * span));
    }
    record(-std::numeric_limits<double>::infinity());
    record(std::numeric_limits<double>::infinity());
    record(std::numeric_limits<double>::quiet_NaN());
    record(std::numeric_limits<double>::denorm_min());

    obs::ConcurrentHistogram merged(shape.lo, shape.hi, shape.bins);
    merged.merge(local);
    for (std::size_t bin = 0; bin < shape.bins; ++bin)
      ASSERT_EQ(merged.bin_count(bin), want[bin]) << "bin " << bin;
  }
}

}  // namespace
}  // namespace c2b::sim
