// Property: the batched-replay grouping key (trace_class_key) agrees with a
// brute-force comparison of the record streams a design's simulation would
// consume. Equal keys MUST mean bit-identical streams — that is the safety
// contract batching rests on. (The converse is allowed to be conservative:
// two contexts may produce the same streams under different keys, e.g. when
// a per-core-cap change is absorbed by the window clamp; splitting such a
// class only costs regeneration, never correctness.)

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "c2b/aps/dse.h"
#include "c2b/check/generators.h"
#include "c2b/common/rng.h"
#include "c2b/trace/workloads.h"

namespace c2b {
namespace {

/// Materialize every stream the (context, cores) design consumes: the
/// serial-phase stream, then one per-core parallel-phase stream. Re-derives
/// the Sun-Ni windows and footprint scales from the documented contract
/// (independently of dse.cpp's PhasePlan, which is the point).
std::vector<Trace> brute_force_streams(const DseContext& context, std::uint32_t cores) {
  const double n_d = static_cast<double>(cores);
  const ScalingFunction& g = context.workload.g;
  const double ic_total = g(n_d) * static_cast<double>(context.instructions0);
  const double serial_ic = context.workload.f_seq * ic_total;
  const double parallel_ic = (1.0 - context.workload.f_seq) * ic_total / n_d;
  const double cap = static_cast<double>(context.per_core_cap);
  auto window = [&](double ic) -> std::uint64_t {
    if (ic < 1.0) return 0;
    return static_cast<std::uint64_t>(std::min(std::max(ic, 1000.0), cap));
  };

  std::vector<Trace> streams;
  if (const std::uint64_t w = window(serial_ic); w != 0)
    streams.push_back(
        context.workload
            .make_generator(std::max(1.0, g.memory_scale(n_d)), context.seed)
            ->generate(w));
  if (const std::uint64_t w = window(parallel_ic); w != 0)
    for (std::uint32_t c = 0; c < cores; ++c)
      streams.push_back(
          context.workload
              .make_generator(std::max(1.0, g.memory_scale(n_d) / n_d),
                              Rng::derive_stream_seed(context.seed, c))
              ->generate(w));
  return streams;
}

bool streams_equal(const std::vector<Trace>& a, const std::vector<Trace>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t s = 0; s < a.size(); ++s) {
    if (a[s].records.size() != b[s].records.size()) return false;
    for (std::size_t i = 0; i < a[s].records.size(); ++i) {
      const TraceRecord& ra = a[s].records[i];
      const TraceRecord& rb = b[s].records[i];
      if (ra.kind != rb.kind || ra.depends_on_prev_mem != rb.depends_on_prev_mem ||
          ra.address != rb.address)
        return false;
    }
  }
  return true;
}

std::uint32_t pick_cores(Rng& rng, const check::DseScenario& scenario) {
  const std::vector<double>& n = scenario.axes.n;
  return static_cast<std::uint32_t>(
      n[static_cast<std::size_t>(rng.uniform_below(n.size()))]);
}

TEST(BatchKeyProperty, EqualKeysImplyBitIdenticalStreams) {
  Rng rng(20260805);
  std::size_t equal_key_pairs = 0;
  std::size_t distinct_key_pairs = 0;
  for (std::size_t i = 0; i < 50; ++i) {
    const check::DseScenario a = check::gen_dse_scenario(rng);
    DseContext context_b = a.context;
    const std::uint32_t cores_a = pick_cores(rng, a);
    std::uint32_t cores_b = cores_a;

    // Half the pairs share every stream-determining field (possibly
    // differing in timing-only grid axes, which the key must ignore); the
    // other half mutate one field or draw an unrelated scenario.
    if (rng.bernoulli(0.5)) {
      switch (rng.uniform_below(4)) {
        case 0: context_b.seed += 1; break;
        case 1: context_b.instructions0 *= 2; break;
        case 2: context_b.per_core_cap = std::max<std::uint64_t>(1'000, context_b.per_core_cap / 2); break;
        default: cores_b = cores_a == 1 ? 2 : cores_a * 2; break;
      }
    }

    const std::string key_a = trace_class_key(a.context, cores_a);
    const std::string key_b = trace_class_key(context_b, cores_b);
    const bool keys_equal = key_a == key_b;
    const bool same_streams =
        streams_equal(brute_force_streams(a.context, cores_a),
                      brute_force_streams(context_b, cores_b));
    if (keys_equal) {
      ++equal_key_pairs;
      ASSERT_TRUE(same_streams)
          << "pair " << i << ": equal keys but diverging streams\nkey: " << key_a;
    } else {
      ++distinct_key_pairs;
    }
  }
  // The fixed seed must exercise both branches or the property is vacuous.
  EXPECT_GE(equal_key_pairs, 10u);
  EXPECT_GE(distinct_key_pairs, 10u);
}

TEST(BatchKeyProperty, KeyDetectsEveryStreamDeterminingMutation) {
  // Directed (non-random) complement: each stream-determining field flips
  // the key on its own, and each flip indeed changes the streams.
  Rng rng(7);
  const check::DseScenario base = check::gen_dse_scenario(rng);
  const std::uint32_t cores = pick_cores(rng, base);
  const std::string key = trace_class_key(base.context, cores);
  const std::vector<Trace> streams = brute_force_streams(base.context, cores);

  DseContext seed_mutant = base.context;
  seed_mutant.seed += 1;
  EXPECT_NE(trace_class_key(seed_mutant, cores), key);
  EXPECT_FALSE(streams_equal(brute_force_streams(seed_mutant, cores), streams));

  EXPECT_NE(trace_class_key(base.context, cores + 1), key);

  DseContext workload_mutant = base.context;
  Rng other(99);
  do {
    workload_mutant.workload = check::gen_workload_spec(other);
  } while (workload_mutant.workload.uid == base.context.workload.uid);
  EXPECT_NE(trace_class_key(workload_mutant, cores), key);
}

}  // namespace
}  // namespace c2b
