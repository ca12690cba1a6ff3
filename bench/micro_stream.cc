// micro_stream: the streaming shard pipeline (docs/streaming.md) against the
// materialize-then-scan baseline, on the fused generate+screen workload.
//
// Emits one JSON object per line so runs can be diffed and checked mechanically
// (tools/check_stream_json.py validates the same invariants against sdcctl). Grid:
// phase "generate_screen" under
//   materialized -- FleetPopulation::Generate, then ScreeningPipeline::Run over the
//                   materialized columns.
//   streaming    -- FleetShardStream driving a StreamingScreen: the fleet is never
//                   materialized and scratch peaks at O(lanes * shard) bytes.
// each at 1/2/8 worker threads. Streaming rows carry "peak_scratch_bytes" (the summed
// per-lane buffer high-water mark from StreamReport) next to the bytes a materialized
// fleet of the same size holds, so the memory win is in the same line as the time cost.
// The binary asserts that every combination produces ScreeningStats identical to the
// materialized one-thread run (IdenticalStats: counters, detections and provenance,
// doubles compared bitwise), prints the first mismatch and exits non-zero on divergence;
// the closing "summary" line reports the streaming/materialized ns-per-processor ratio at
// one thread (the acceptance bound is <= 1.2). Each row's wall_seconds and
// ns_per_processor are medians over the rounds, with the quartiles beside them
// (wall_q1_seconds / wall_q3_seconds), so a t1 ns/processor figure comes with its spread.
//
// Usage: micro_stream [processor_count] [rounds]
// Defaults: 1,000,000 processors, 21 rounds. CI smoke runs use a small count.

#include <cstdint>
#include <cstdio>

#include "bench/bench_util.h"
#include "bench/micro_args.h"
#include "src/common/context.h"
#include "src/fleet/pipeline.h"
#include "src/fleet/population.h"
#include "src/fleet/stream.h"
#include "src/toolchain/registry.h"
#include "tests/oracle/oracle.h"

namespace sdc {
namespace {

int Main(int argc, char** argv) {
  const MicroArgs args = ParseMicroArgs(
      argc, argv, "usage: micro_stream [processor_count] [rounds]", 1'000'000, 21);
  const uint64_t processors = args.count;
  const int rounds = args.repeats;
  std::printf("# micro_stream: %llu processors, median and quartiles of %d rounds\n",
              static_cast<unsigned long long>(processors), rounds);

  const TestSuite suite = TestSuite::BuildFull();
  ScreeningPipeline pipeline(&suite);
  bool deterministic = true;
  double materialized_t1 = 0.0;
  double streaming_t1 = 0.0;

  // Ground truth for the determinism assertion, and the memory yardstick: what a
  // materialized fleet of this size actually holds (columns + faulty index + arena).
  ScreeningStats golden;
  uint64_t materialized_bytes = 0;
  {
    PopulationConfig population_config;
    population_config.processor_count = processors;
    population_config.threads = 1;
    const FleetPopulation fleet = FleetPopulation::Generate(population_config);
    golden = pipeline.Run(fleet, ScreeningConfig{.threads = 1});
    materialized_bytes =
        fleet.arch_bytes().capacity() + fleet.flag_bytes().capacity() +
        fleet.faulty_serials().capacity() * sizeof(uint64_t) +
        fleet.faulty_ranges().capacity() * sizeof(DefectRange) +
        fleet.defect_arena().capacity() * sizeof(Defect);
  }

  for (int threads : {1, 2, 8}) {
    PopulationConfig population_config;
    population_config.processor_count = processors;
    population_config.threads = threads;
    ScreeningConfig screening_config;
    screening_config.threads = threads;

    // Materialized baseline: build the fleet, scan it.
    deterministic &= NoMismatch(IdenticalStats(
        golden, pipeline.Run(FleetPopulation::Generate(population_config),
                             screening_config)));
    const Quartiles materialized = WallQuartiles(rounds, [&] {
      const FleetPopulation fleet = FleetPopulation::Generate(population_config);
      (void)pipeline.Run(fleet, screening_config);
    });
    std::printf("{\"bench\": \"generate_screen\", \"mode\": \"materialized\", "
                "\"threads\": %d, \"processors\": %llu, \"wall_seconds\": %.6f, "
                "\"wall_q1_seconds\": %.6f, \"wall_q3_seconds\": %.6f, "
                "\"ns_per_processor\": %.2f, \"fleet_bytes\": %llu}\n",
                threads, static_cast<unsigned long long>(processors), materialized.median,
                materialized.q1, materialized.q3,
                materialized.median * 1e9 / static_cast<double>(processors),
                static_cast<unsigned long long>(materialized_bytes));
    std::fflush(stdout);

    // Streaming: one fused pass, no fleet, driven on an explicit EngineContext so the
    // lane pool is built once and reused across every repeat at this width.
    const FleetShardStream stream(population_config);
    EngineContext context(EngineOptions{.threads = threads});
    uint64_t peak_scratch = 0;
    {
      StreamingScreen screen(&pipeline, screening_config);
      const StreamReport report = stream.Drive({&screen}, context);
      peak_scratch = report.peak_scratch_bytes;
      deterministic &= NoMismatch(IdenticalStats(golden, screen.TakeStats()));
    }
    const Quartiles streaming = WallQuartiles(rounds, [&] {
      StreamingScreen screen(&pipeline, screening_config);
      (void)stream.Drive({&screen}, context);
      (void)screen.TakeStats();
    });
    std::printf("{\"bench\": \"generate_screen\", \"mode\": \"streaming\", "
                "\"threads\": %d, \"processors\": %llu, \"wall_seconds\": %.6f, "
                "\"wall_q1_seconds\": %.6f, \"wall_q3_seconds\": %.6f, "
                "\"ns_per_processor\": %.2f, \"peak_scratch_bytes\": %llu, "
                "\"fleet_bytes\": %llu}\n",
                threads, static_cast<unsigned long long>(processors), streaming.median,
                streaming.q1, streaming.q3,
                streaming.median * 1e9 / static_cast<double>(processors),
                static_cast<unsigned long long>(peak_scratch),
                static_cast<unsigned long long>(materialized_bytes));
    std::fflush(stdout);

    if (threads == 1) {
      materialized_t1 = materialized.median;
      streaming_t1 = streaming.median;
    }
  }

  const double ratio = materialized_t1 > 0.0 ? streaming_t1 / materialized_t1 : 0.0;
  std::printf("{\"bench\": \"summary\", \"streaming_vs_materialized_t1\": %.3f, "
              "\"deterministic\": %s}\n",
              ratio, deterministic ? "true" : "false");
  if (!deterministic) {
    std::fprintf(stderr,
                 "FAIL: streaming and materialized runs diverged (see docs/streaming.md)\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace sdc

int main(int argc, char** argv) { return sdc::Main(argc, argv); }
