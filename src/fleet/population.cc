#include "src/fleet/population.h"

#include <algorithm>
#include <array>
#include <bit>
#include <span>
#include <utility>

#include "src/common/context.h"
#include "src/common/rng.h"
#include "src/fleet/stream.h"
#include "src/telemetry/metrics.h"

namespace sdc {

void FleetShardBuffer::Clear() {
  arch_bytes.clear();
  flag_bytes.clear();
  faulty_serials.clear();
  faulty_ranges.clear();
  defects.clear();
  tally = FleetShardTally{};
}

uint64_t FleetShardBuffer::CapacityBytes() const {
  return arch_bytes.capacity() * sizeof(uint8_t) +
         flag_bytes.capacity() * sizeof(uint8_t) +
         faulty_serials.capacity() * sizeof(uint64_t) +
         faulty_ranges.capacity() * sizeof(DefectRange) +
         defects.capacity() * sizeof(Defect);
}

namespace {

// Draws and records one faulty processor at `at` (shard-relative), with its arch byte
// already in place: exactly the draw sequence the per-processor loop makes after its
// prevalence Bernoulli came up true -- GenerateRandomDefects straight into the shard
// arena, then the undetectable-share Bernoulli.
void EmitFaultyProcessor(const PopulationConfig& config, const GenerationPlan& plan,
                         Rng& rng, uint64_t begin, size_t at, FleetShardBuffer& buffer) {
  FleetShardTally& tally = buffer.tally;
  const int arch_index = buffer.arch_bytes[at];
  const uint64_t defect_start = buffer.defects.size();
  const size_t defect_count = GenerateRandomDefects(
      rng, arch_index, plan.pcores_by_arch[static_cast<size_t>(arch_index)],
      buffer.defects);
  const bool detectable = !rng.NextBernoulli(config.undetectable_share);
  buffer.flag_bytes[at] =
      detectable ? (FleetPopulation::kFaultyFlag | FleetPopulation::kDetectableFlag)
                 : FleetPopulation::kFaultyFlag;
  ++tally.faulty;
  tally.defects += defect_count;
  tally.defects_by_arch[static_cast<size_t>(arch_index)] += defect_count;
  if (!detectable) {
    ++tally.undetectable;
  }
  buffer.faulty_serials.push_back(begin + at);
  buffer.faulty_ranges.push_back({defect_start, static_cast<uint32_t>(defect_count)});
}

// Per-processor path for degenerate configs: the original loop, with the per-shard share
// copy and pcore-table rebuild hoisted into the plan and defects appended straight into
// the shard arena (same draws, same bytes, no per-faulty vector churn).
void GenerateShardPerProcessor(const PopulationConfig& config, const GenerationPlan& plan,
                               Rng rng, uint64_t begin, uint64_t end,
                               FleetShardBuffer& buffer) {
  buffer.arch_bytes.resize(end - begin);
  buffer.flag_bytes.resize(end - begin);
  FleetShardTally& tally = buffer.tally;
  for (uint64_t serial = begin; serial < end; ++serial) {
    const int arch_index = static_cast<int>(rng.NextWeighted(plan.shares));
    buffer.arch_bytes[serial - begin] = static_cast<uint8_t>(arch_index);
    const double prevalence = config.detected_rate[arch_index] / config.detectability;
    uint8_t flags = FleetPopulation::kDetectableFlag;
    if (rng.NextBernoulli(prevalence)) {
      EmitFaultyProcessor(config, plan, rng, begin, serial - begin, buffer);
      flags = buffer.flag_bytes[serial - begin];
    }
    buffer.flag_bytes[serial - begin] = flags;
    ++tally.by_arch[static_cast<size_t>(arch_index)];
  }
}

void StoreLane(const Rng& rng, int lane, XoshiroLanes& lanes) {
  const Rng::StateWords words = rng.State();
  for (size_t w = 0; w < words.size(); ++w) {
    lanes.words[w][lane] = words[w];
  }
}

void LoadLane(const XoshiroLanes& lanes, int lane, Rng& rng) {
  Rng::StateWords words;
  for (size_t w = 0; w < words.size(); ++w) {
    words[w] = lanes.words[w][lane];
  }
  rng.SetState(words);
}

// The lane kernel (docs/performance.md): each shard of the group owns one lane of an
// XoshiroLanes set, seeded from its own Fork, and GenerateClassifyLanes steps all of them
// at once, classifying each (arch, prevalence) draw pair branchlessly against the plan's
// u53 tables -- byte-identical to the per-processor loop because the tables were derived
// from the reference arithmetic itself (WeightedCdf / BernoulliThresholdU53,
// src/common/rng.h). The kernel stops after a step where some lane is faulty, with that
// lane's stream just past its two clean-path draws; the lane's own Rng (which keeps its
// Box-Muller cache between hits) takes the state, draws the defects, and hands the state
// back, so defect draws land at exactly the reference positions and no draw is thrown
// away. Lanes without a shard, and lanes whose (shorter) shard has ended, leave the
// active mask: they keep stepping, store nothing, and their faults are ignored.
// flag_bytes arrive pre-filled with kDetectableFlag, and each shard's per-arch tally is
// one SIMD histogram over its finished column instead of a per-processor increment.
void GenerateGroupBlocked(const PopulationConfig& config, const GenerationPlan& plan,
                          const Rng& base, uint64_t first_shard,
                          std::span<FleetShardBuffer> buffers) {
  std::array<Rng, kGenerateLanes> rngs = [&]<size_t... kLane>(std::index_sequence<kLane...>) {
    return std::array<Rng, kGenerateLanes>{((void)kLane, base)...};
  }(std::make_index_sequence<kGenerateLanes>{});
  std::array<size_t, kGenerateLanes> lengths{};
  uint8_t* class_out[kGenerateLanes] = {};
  unsigned active = 0;
  XoshiroLanes lanes;
  for (int lane = 0; lane < kGenerateLanes; ++lane) {
    const auto index = static_cast<size_t>(lane);
    if (index < buffers.size()) {
      const uint64_t shard = first_shard + index;
      const uint64_t begin = shard * kFleetShardGrain;
      const uint64_t end = std::min(begin + kFleetShardGrain, config.processor_count);
      FleetShardBuffer& buffer = buffers[index];
      buffer.arch_bytes.resize(end - begin);
      buffer.flag_bytes.assign(end - begin, FleetPopulation::kDetectableFlag);
      rngs[index] = base.Fork(shard);
      lengths[index] = static_cast<size_t>(end - begin);
      class_out[index] = buffer.arch_bytes.data();
      active |= 1u << lane;
    }
    StoreLane(rngs[index], lane, lanes);
  }
  size_t step = 0;
  while (active != 0) {
    size_t stop = kFleetShardGrain;
    for (unsigned rest = active; rest != 0; rest &= rest - 1) {
      stop = std::min(stop, lengths[static_cast<size_t>(std::countr_zero(rest))]);
    }
    while (step < stop) {
      unsigned faulty = 0;
      step = GenerateClassifyLanes(lanes, active, step, stop, plan.tables, class_out,
                                   &faulty, plan.simd);
      for (; faulty != 0; faulty &= faulty - 1) {
        const int lane = std::countr_zero(faulty);
        const auto index = static_cast<size_t>(lane);
        LoadLane(lanes, lane, rngs[index]);
        EmitFaultyProcessor(config, plan, rngs[index],
                            (first_shard + index) * kFleetShardGrain, step - 1,
                            buffers[index]);
        StoreLane(rngs[index], lane, lanes);
      }
    }
    for (unsigned rest = active; rest != 0; rest &= rest - 1) {
      const int lane = std::countr_zero(rest);
      if (lengths[static_cast<size_t>(lane)] == stop) {
        active &= ~(1u << lane);
      }
    }
  }
  for (FleetShardBuffer& buffer : buffers) {
    CountBytesByValue(buffer.arch_bytes.data(), buffer.arch_bytes.size(), kArchCount,
                      buffer.tally.by_arch.data(), plan.simd);
  }
}

GenerationPlan BuildPlan(const PopulationConfig& config, SimdLevel resolved) {
  GenerationPlan plan;
  plan.simd = resolved;
  plan.shares.assign(config.arch_share.begin(), config.arch_share.end());
  for (int arch = 0; arch < kArchCount; ++arch) {
    plan.pcores_by_arch[static_cast<size_t>(arch)] = MakeArchSpec(arch).physical_cores;
  }
  plan.arch_cdf = WeightedCdf(std::span<const double>(config.arch_share));
  bool blocked = plan.arch_cdf.exact() && plan.arch_cdf.draws();
  plan.tables.class_count = kArchCount;
  const std::span<const uint64_t> bounds = plan.arch_cdf.bounds_u53();
  for (int i = 0; i < kMaxClassifyClasses - 1; ++i) {
    plan.tables.cdf_bounds_u53[i] = blocked && i < kArchCount - 1
                                        ? bounds[static_cast<size_t>(i)]
                                        : kClassifyNever;
  }
  plan.tables.fault_threshold_max_u53 = 0;
  for (int arch = 0; arch < kMaxClassifyClasses; ++arch) {
    uint64_t threshold = 0;
    if (arch < kArchCount) {
      const double prevalence = config.detected_rate[static_cast<size_t>(arch)] /
                                config.detectability;
      // The blocked path needs NextBernoulli(prevalence) to consume exactly one draw,
      // which it only does outside the p <= 0 / p >= 1 short-circuits. (A NaN prevalence
      // passes both tests, draws, and never fires -- threshold 0 reproduces that.)
      if (prevalence <= 0.0 || prevalence >= 1.0) {
        blocked = false;
      }
      threshold = BernoulliThresholdU53(prevalence);
    }
    plan.tables.fault_thresholds_u53[arch] = threshold;
    plan.tables.fault_threshold_max_u53 =
        std::max(plan.tables.fault_threshold_max_u53, threshold);
  }
  plan.blocked = blocked;
  return plan;
}

}  // namespace

GenerationPlan GenerationPlan::Build(const PopulationConfig& config,
                                     EngineContext& context) {
  return BuildPlan(config, context.simd());
}

void GenerateFleetShardGroup(const PopulationConfig& config, const GenerationPlan& plan,
                             const Rng& base, uint64_t first_shard,
                             std::span<FleetShardBuffer> buffers) {
  for (FleetShardBuffer& buffer : buffers) {
    buffer.Clear();
  }
  if (plan.blocked) {
    GenerateGroupBlocked(config, plan, base, first_shard, buffers);
    return;
  }
  for (size_t i = 0; i < buffers.size(); ++i) {
    const uint64_t shard = first_shard + i;
    const uint64_t begin = shard * kFleetShardGrain;
    const uint64_t end = std::min(begin + kFleetShardGrain, config.processor_count);
    GenerateShardPerProcessor(config, plan, base.Fork(shard), begin, end, buffers[i]);
  }
}

std::span<const Defect> FleetPopulation::DefectsOf(uint64_t serial) const {
  const auto it =
      std::lower_bound(faulty_serials_.begin(), faulty_serials_.end(), serial);
  if (it == faulty_serials_.end() || *it != serial) {
    return {};
  }
  return FaultyDefects(static_cast<size_t>(it - faulty_serials_.begin()));
}

FleetShard FleetPopulation::Shard(uint64_t shard) const {
  FleetShard view;
  view.shard = shard;
  view.begin = shard * kFleetShardGrain;
  view.end = std::min(view.begin + kFleetShardGrain, size());
  view.arch_bytes = std::span<const uint8_t>(arch_).subspan(view.begin, view.size());
  view.flag_bytes = std::span<const uint8_t>(flags_).subspan(view.begin, view.size());
  const auto first =
      std::lower_bound(faulty_serials_.begin(), faulty_serials_.end(), view.begin);
  const auto last = std::lower_bound(first, faulty_serials_.end(), view.end);
  const auto offset = static_cast<size_t>(first - faulty_serials_.begin());
  const auto count = static_cast<size_t>(last - first);
  view.faulty_serials = std::span<const uint64_t>(faulty_serials_).subspan(offset, count);
  view.faulty_ranges = std::span<const DefectRange>(faulty_ranges_).subspan(offset, count);
  view.defects = defect_arena_;
  view.tally = &shard_tallies_[shard];
  return view;
}

FleetPopulation FleetPopulation::Generate(const PopulationConfig& config) {
  EngineContext context(EngineOptions{.threads = config.threads});
  return Generate(config, context);
}

FleetPopulation FleetPopulation::Generate(const PopulationConfig& config,
                                          EngineContext& context) {
  // Materialization is just one consumer of the shard stream: the stream generates each
  // shard's columns and defect spans, and FleetMaterializer copies them into the fleet's
  // arrays, stitching the sparse faulty index and the defect arena in shard order.
  MetricsRegistry* metrics =
      config.metrics != nullptr ? config.metrics : context.metrics();
  MetricsRegistry::ScopedTimer generate_timer(metrics, "fleet.generate.wall");
  FleetPopulation fleet;
  FleetShardStream stream(config);
  FleetMaterializer materializer(&fleet);
  stream.Drive({&materializer}, context);
  return fleet;
}

}  // namespace sdc
