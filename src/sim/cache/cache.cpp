#include "c2b/sim/cache/cache.h"

#include <algorithm>

#include "c2b/common/math_util.h"
#include "c2b/common/rng.h"

namespace c2b::sim {

namespace {
/// Base for the per-instance kRandom victim streams (golden-ratio constant,
/// the same value every array shared before streams existed).
constexpr std::uint64_t kVictimSeedBase = 0x9E3779B97F4A7C15ull;
}  // namespace

void CacheGeometry::validate() const {
  C2B_REQUIRE(line_bytes > 0 && is_pow2(line_bytes), "line size must be a power of two");
  C2B_REQUIRE(size_bytes >= line_bytes, "cache smaller than one line");
  C2B_REQUIRE(size_bytes % line_bytes == 0, "size must be a multiple of the line size");
  C2B_REQUIRE(associativity >= 1, "associativity must be >= 1");
  C2B_REQUIRE(lines() % associativity == 0, "lines must divide evenly into sets");
  C2B_REQUIRE(sets() >= 1, "cache must have at least one set");
}

CacheArray::CacheArray(const CacheGeometry& geometry, ReplacementPolicy policy,
                       std::uint64_t victim_stream)
    : geometry_(geometry),
      policy_(policy),
      line_shift_(floor_log2(geometry.line_bytes)),
      assoc_(geometry.associativity),
      sets_(geometry.sets()),
      rng_state_(Rng::derive_stream_seed(kVictimSeedBase, victim_stream)) {
  if (rng_state_ == 0) rng_state_ = kVictimSeedBase;  // xorshift must not start at 0
  geometry_.validate();
  C2B_REQUIRE(policy_ != ReplacementPolicy::kTreePlru || is_pow2(geometry_.associativity),
              "tree-PLRU requires power-of-two associativity");
  const std::size_t slots = geometry_.sets() * assoc_;
  keys_.assign(slots, 0);
  dirty_.assign(slots, 0);
  if (policy_ == ReplacementPolicy::kLru) used_.assign(slots, 0);
  if (policy_ == ReplacementPolicy::kTreePlru) plru_.assign(geometry_.sets(), 0);
}

void CacheArray::note_use(std::size_t set, std::uint32_t way) {
  switch (policy_) {
    case ReplacementPolicy::kLru:
      used_[set * assoc_ + way] = ++clock_;
      break;
    case ReplacementPolicy::kTreePlru: {
      // Walk root->leaf; at each node record "went the other way" so the
      // PLRU victim path points away from this way.
      std::uint64_t& tree = plru_[set];
      std::uint32_t node = 1;  // 1-based heap index
      for (std::uint32_t span = assoc_ / 2; span >= 1; span /= 2) {
        const bool right = (way / span) & 1;
        if (right) {
          tree &= ~(std::uint64_t{1} << node);  // bit 0 => victim goes left
        } else {
          tree |= (std::uint64_t{1} << node);   // bit 1 => victim goes right
        }
        node = 2 * node + (right ? 1 : 0);
      }
      break;
    }
    case ReplacementPolicy::kRandom:
      break;  // stateless
  }
}

std::uint32_t CacheArray::pick_victim(std::size_t set) {
  const std::size_t base = set * assoc_;
  for (std::uint32_t i = 0; i < assoc_; ++i)
    if (keys_[base + i] == 0) return i;

  switch (policy_) {
    case ReplacementPolicy::kLru: {
      const std::uint64_t* used = used_.data() + base;
      std::uint32_t victim = 0;
      for (std::uint32_t i = 1; i < assoc_; ++i)
        if (used[i] < used[victim]) victim = i;
      return victim;
    }
    case ReplacementPolicy::kTreePlru: {
      const std::uint64_t tree = plru_[set];
      std::uint32_t node = 1;
      std::uint32_t way = 0;
      for (std::uint32_t span = assoc_ / 2; span >= 1; span /= 2) {
        const bool right = (tree >> node) & 1;
        if (right) way += span;
        node = 2 * node + (right ? 1 : 0);
      }
      return way;
    }
    case ReplacementPolicy::kRandom: {
      // xorshift64*
      rng_state_ ^= rng_state_ >> 12;
      rng_state_ ^= rng_state_ << 25;
      rng_state_ ^= rng_state_ >> 27;
      return static_cast<std::uint32_t>((rng_state_ * 0x2545F4914F6CDD1Dull) % assoc_);
    }
  }
  return 0;
}

bool CacheArray::probe(std::uint64_t byte_address, bool mark_dirty) {
  ++probes_;
  const std::uint64_t line = line_of(byte_address);
  const std::size_t set = set_of(line);
  const std::size_t slot = find_slot(set, key_of(line));
  if (slot == kAbsent) return false;
  ++hits_;
  if (mark_dirty) dirty_[slot] = 1;
  note_use(set, static_cast<std::uint32_t>(slot - set * assoc_));
  return true;
}

bool CacheArray::contains(std::uint64_t byte_address) const {
  return find_slot(byte_address) != kAbsent;
}

bool CacheArray::is_dirty(std::uint64_t byte_address) const {
  const std::size_t slot = find_slot(byte_address);
  return slot != kAbsent && dirty_[slot] != 0;
}

std::optional<CacheArray::Evicted> CacheArray::fill(std::uint64_t byte_address, bool dirty) {
  const std::uint64_t line = line_of(byte_address);
  const std::size_t set = set_of(line);
  const std::uint64_t key = key_of(line);

  // If already present (e.g. a merged miss filled first), refresh state.
  if (const std::size_t slot = find_slot(set, key); slot != kAbsent) {
    if (dirty) dirty_[slot] = 1;
    note_use(set, static_cast<std::uint32_t>(slot - set * assoc_));
    return std::nullopt;
  }

  const std::uint32_t victim_way = pick_victim(set);
  const std::size_t slot = set * assoc_ + victim_way;
  std::optional<Evicted> evicted;
  if (keys_[slot] != 0) {
    evicted = Evicted{(keys_[slot] - 1) << line_shift_, dirty_[slot] != 0};
    if (dirty_[slot] != 0) ++dirty_evictions_;
  }
  keys_[slot] = key;
  dirty_[slot] = dirty ? 1 : 0;
  note_use(set, victim_way);
  return evicted;
}

bool CacheArray::invalidate(std::uint64_t byte_address) {
  const std::size_t slot = find_slot(byte_address);
  if (slot == kAbsent) return false;
  keys_[slot] = 0;
  dirty_[slot] = 0;
  return true;
}

BankPortScheduler::BankPortScheduler(std::uint32_t banks, std::uint32_t ports_per_bank)
    : bank_of_(banks), ports_(ports_per_bank) {
  C2B_REQUIRE(banks >= 1, "need at least one bank");
  C2B_REQUIRE(ports_per_bank >= 1, "need at least one port per bank");
  state_.resize(banks);
}

std::uint64_t BankPortScheduler::schedule(std::uint64_t line, std::uint64_t earliest) {
  BankState& bank = state_[bank_of_.mod(line)];
  if (earliest > bank.cycle) {
    bank.cycle = earliest;
    bank.used = 1;
    return earliest;
  }
  // earliest <= bank.cycle: the bank is already busy at/after our arrival.
  if (bank.used < ports_) {
    ++bank.used;
    contention_cycles_ += bank.cycle - earliest;
    return bank.cycle;
  }
  ++bank.cycle;
  bank.used = 1;
  contention_cycles_ += bank.cycle - earliest;
  return bank.cycle;
}

MshrFile::MshrFile(std::uint32_t entries) : capacity_(entries) {
  C2B_REQUIRE(entries >= 1, "MSHR file needs at least one entry");
  entries_.reserve(entries);
}

void MshrFile::retire_before(std::uint64_t cycle) {
  // Fast path: nothing in flight completes at or before `cycle`, so the
  // scan below would keep every entry — skip it. earliest_completion_ is
  // exactly the minimum nonzero completion, maintained by complete() and
  // the compaction here.
  if (earliest_completion_ == 0 || earliest_completion_ > cycle) return;
  std::size_t keep = 0;
  std::uint64_t earliest = 0;
  for (const Entry& e : entries_) {
    if (e.completion != 0 && e.completion <= cycle) continue;
    if (e.completion != 0 && (earliest == 0 || e.completion < earliest)) earliest = e.completion;
    entries_[keep++] = e;
  }
  entries_.resize(keep);
  earliest_completion_ = earliest;
}

MshrFile::Grant MshrFile::request(std::uint64_t line, std::uint64_t cycle) {
  // One pass retires the entries complete by `cycle` (only when
  // earliest_completion_ says some are) and looks `line` up among the
  // survivors — exactly retire_before(cycle) followed by the lookup.
  constexpr std::size_t kNone = ~std::size_t{0};
  std::size_t match = kNone;
  if (earliest_completion_ != 0 && earliest_completion_ <= cycle) {
    std::size_t keep = 0;
    std::uint64_t earliest = 0;
    for (const Entry& e : entries_) {
      if (e.completion != 0 && e.completion <= cycle) continue;
      if (e.completion != 0 && (earliest == 0 || e.completion < earliest)) earliest = e.completion;
      if (match == kNone && e.line == line) match = keep;
      entries_[keep++] = e;
    }
    entries_.resize(keep);
    earliest_completion_ = earliest;
  } else {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].line == line) {
        match = i;
        break;
      }
    }
  }
  if (match != kNone) {
    ++merges_;
    return {.start_cycle = cycle, .merged = true, .merged_completion = entries_[match].completion};
  }
  std::uint64_t start = cycle;
  if (entries_.size() >= capacity_) {
    // Structural stall: wait until the earliest known completion frees a
    // slot (the incrementally maintained value — no scan needed).
    ++full_stalls_;
    if (earliest_completion_ > start) start = earliest_completion_;
    retire_before(start);
    if (entries_.size() >= capacity_) {
      // Everything in flight had unknown completion: overwrite the oldest
      // entry (bounded state; should not happen in the normal flow, where
      // each access completes its entry before the next request).
      C2B_ASSERT(entries_.front().completion == 0,
                 "full MSHR with a known completion survived retire_before");
      entries_.erase(entries_.begin());
    }
  }
  entries_.push_back({line, 0});
  return {.start_cycle = start, .merged = false, .merged_completion = 0};
}

void MshrFile::complete(std::uint64_t line, std::uint64_t completion_cycle) {
  C2B_REQUIRE(completion_cycle != 0, "completion cycle 0 is the 'unknown' sentinel");
  // Live lines are unique (request() only appends a line it did not find),
  // so the newest entry — the one the caller usually just requested — is
  // checked first and the scan is the fallback.
  auto record = [&](Entry& e) {
    e.completion = completion_cycle;
    if (earliest_completion_ == 0 || completion_cycle < earliest_completion_)
      earliest_completion_ = completion_cycle;
  };
  if (!entries_.empty() && entries_.back().line == line && entries_.back().completion == 0) {
    record(entries_.back());
    return;
  }
  for (Entry& e : entries_) {
    if (e.line == line && e.completion == 0) {
      record(e);
      return;
    }
  }
  C2B_ASSERT(false, "MshrFile::complete for a line with no in-flight entry");
}

}  // namespace c2b::sim
