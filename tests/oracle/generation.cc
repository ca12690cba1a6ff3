#include <cstring>
#include <vector>

#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/fleet/stream.h"
#include "tests/oracle/oracle.h"

namespace sdc {

void FillBlock(Rng& rng, std::span<uint64_t> out) {
  // The xoshiro256** update on the state words taken out of the Rng, written out once
  // more so the lane kernel has a spec that does not share Rng::Next's code.
  Rng::StateWords s = rng.State();
  for (uint64_t& value : out) {
    const uint64_t times5 = s[1] * 5;
    value = ((times5 << 7) | (times5 >> 57)) * 9;
    const uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = (s[3] << 45) | (s[3] >> 19);
  }
  rng.SetState(s);
}

void Skip(Rng& rng, uint64_t count) {
  uint64_t sink[64];
  while (count > 0) {
    const uint64_t chunk = count < 64 ? count : 64;
    FillBlock(rng, std::span<uint64_t>(sink, chunk));
    count -= chunk;
  }
}

size_t ClassifyDrawPairs(const uint64_t* draws, size_t count,
                         const DrawClassifyTables& tables, uint8_t* class_out,
                         uint64_t* faulty_bits) {
  if (count == 0) {
    return 0;
  }
  std::memset(faulty_bits, 0, ((count + 63) / 64) * sizeof(uint64_t));
  const int bounds = tables.class_count - 1;
  size_t faulty = 0;
  for (size_t i = 0; i < count; ++i) {
    const uint64_t a = draws[2 * i] >> 11;
    unsigned cls = 0;
    for (int j = 0; j < bounds; ++j) {
      cls += tables.cdf_bounds_u53[j] <= a ? 1u : 0u;
    }
    class_out[i] = static_cast<uint8_t>(cls);
    if ((draws[2 * i + 1] >> 11) < tables.fault_thresholds_u53[cls]) {
      faulty_bits[i >> 6] |= uint64_t{1} << (i & 63);
      ++faulty;
    }
  }
  return faulty;
}

std::vector<SimdLevel> SupportedSimdLevels() {
  std::vector<SimdLevel> levels;
  for (const SimdLevel level : {SimdLevel::kScalar, SimdLevel::kSSE2, SimdLevel::kAVX2,
                                SimdLevel::kAVX512, SimdLevel::kNEON}) {
    if (ClampSimdLevel(level) == level) {
      levels.push_back(level);
    }
  }
  return levels;
}

FleetPopulation ReferenceGenerate(const PopulationConfig& config, EngineContext& context) {
  // The production plan with the lane kernel switched off: GenerateFleetShardGroup then
  // runs its per-processor loop, the path degenerate configs take in production, one
  // shard per call.
  GenerationPlan plan = GenerationPlan::Build(config, context);
  plan.blocked = false;

  ThreadPool& pool = context.pool();
  FleetPopulation fleet;
  FleetMaterializer materializer(&fleet);
  materializer.BeginStreamWithContext(
      &context, config, ThreadPool::ShardCountFor(0, config.processor_count, kFleetShardGrain));
  const Rng base(config.seed);
  std::vector<FleetShardBuffer> buffers(static_cast<size_t>(pool.thread_count()));
  pool.ParallelStream(0, config.processor_count, kFleetShardGrain,
                      [&](int lane, uint64_t shard, uint64_t begin, uint64_t end) {
                        FleetShardBuffer& buffer = buffers[static_cast<size_t>(lane)];
                        GenerateFleetShardGroup(config, plan, base, shard,
                                                std::span<FleetShardBuffer>(&buffer, 1));
                        FleetShard view;
                        view.shard = shard;
                        view.begin = begin;
                        view.end = end;
                        view.tally = &buffer.tally;
                        view.arch_bytes = buffer.arch_bytes;
                        view.flag_bytes = buffer.flag_bytes;
                        view.faulty_serials = buffer.faulty_serials;
                        view.faulty_ranges = buffer.faulty_ranges;
                        view.defects = buffer.defects;
                        materializer.ConsumeShard(view);
                      });
  materializer.EndStream();
  return fleet;
}

}  // namespace sdc
