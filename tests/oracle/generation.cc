#include <vector>

#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/fleet/stream.h"
#include "tests/oracle/oracle.h"

namespace sdc {

FleetPopulation ReferenceGenerate(const PopulationConfig& config, EngineContext& context) {
  // The production plan with the bulk kernel switched off: GenerateFleetShard then runs
  // its per-processor loop, the path degenerate configs take in production.
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
                        GenerateFleetShard(config, plan, base, shard, begin, end, buffer);
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
