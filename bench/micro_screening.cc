// micro_screening: throughput of fleet generation and fleet screening under the
// defect-arena layout and the memoized detection model (docs/performance.md).
//
// Emits one JSON object per line so runs can be diffed and checked mechanically
// (tools/check_screening_json.py). Phases: "generate" (arena fleet build),
// "screen" and "generate_screen", each at 1/2/8 worker threads; "screen" and
// "generate_screen" run under both models:
//   cached    -- the production path: per-defect survive terms memoized once per
//                faulty processor, clean parts streamed via the packed byte columns.
//   reference -- the pre-memoization model, the ReferenceScreen test oracle
//                (tests/oracle/oracle.h), recomputing MatchingTestcases/ExpectedErrors
//                at every probe.
// The binary asserts that both models, at every thread count, produce identical
// ScreeningStats (IdenticalStats: counters, detections and provenance, doubles compared
// bitwise), prints the first mismatch and exits non-zero on any divergence; the closing
// "summary" line reports the cached-vs-reference screening speedup at one thread.
//
// "generate" likewise runs under both models: cached is the blocked SIMD generator
// (GenerationPlan + bulk uniform fill + branchless classify, docs/performance.md),
// reference the original per-processor loop, the ReferenceGenerate test oracle. The
// binary asserts the two fleets are byte-identical (IdenticalFleets: columns, faulty
// index, defect arena with every field's doubles compared bitwise, per-arch tallies) at
// every thread count, and the summary reports the blocked generator's speedup at one
// thread. Every timed call of either model builds its own EngineContext, as the
// context-free production calls do.
//
// Further row families cover the batched engine and the SIMD kernels
// (docs/performance.md):
//   "screen_scalar"   -- the cached model on an EngineContext pinned to the scalar
//                        fallback (EngineOptions::simd), so the vector kernel's
//                        contribution is measurable.
//   "generate_scalar" -- the blocked generator on that scalar context; its fleet too
//                        must match the golden fleet bitwise.
//   "screen_series"   -- the cached screen with a SeriesRecorder attached. The summary's
//                        series_overhead, the median over paired rounds of its wall over
//                        the plain screen's, is the live-telemetry overhead, bounded by
//                        tools/check_screening_json.py (docs/observability.md).
//   "screen_batch"    -- ScreeningPipeline::RunBatch over K in {1,2,4,8} scenarios
//                        (seeds 77+k, periods cycling {3,1,2,6} months) at 1/2/8
//                        threads; the figure of merit is ns_per_processor_scenario =
//                        wall * 1e9 / (processors * K). The binary asserts every
//                        batched slot is bitwise identical to that scenario's
//                        independent run. The summary's batch_amortization_k8 is
//                        8 x wall(K=1) / wall(K=8) at one thread, from paired rounds.
// The leading "env" line records the resolved SIMD level, whether the build compiled the
// vector kernels out (-DSDC_FORCE_SCALAR), and the host's hardware thread count, so
// checked-in results are interpretable.
//
// Usage: micro_screening [processor_count] [repeats]
// Defaults: 1,000,000 processors, best-of-5. CI smoke runs use a small count.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "bench/micro_args.h"
#include "src/common/context.h"
#include "src/common/simd.h"
#include "src/fleet/pipeline.h"
#include "src/fleet/population.h"
#include "src/telemetry/series.h"
#include "src/toolchain/registry.h"
#include "tests/oracle/oracle.h"

namespace sdc {
namespace {

void EmitJson(const char* phase, const char* model, int threads, double wall_seconds,
              uint64_t processors) {
  const double ns_per_processor = wall_seconds * 1e9 / static_cast<double>(processors);
  const double fleets_per_second = wall_seconds > 0.0 ? 1.0 / wall_seconds : 0.0;
  std::printf("{\"bench\": \"%s\", \"model\": \"%s\", \"threads\": %d, "
              "\"processors\": %llu, \"wall_seconds\": %.6f, \"ns_per_processor\": %.2f, "
              "\"fleets_per_second\": %.2f}\n",
              phase, model, threads, static_cast<unsigned long long>(processors),
              wall_seconds, ns_per_processor, fleets_per_second);
  std::fflush(stdout);
}

void EmitBatchJson(int threads, int k_count, double wall_seconds, uint64_t processors) {
  const double ns_per_processor_scenario =
      wall_seconds * 1e9 /
      (static_cast<double>(processors) * static_cast<double>(k_count));
  std::printf("{\"bench\": \"screen_batch\", \"model\": \"cached\", \"threads\": %d, "
              "\"k\": %d, \"processors\": %llu, \"wall_seconds\": %.6f, "
              "\"ns_per_processor_scenario\": %.2f}\n",
              threads, k_count, static_cast<unsigned long long>(processors), wall_seconds,
              ns_per_processor_scenario);
  std::fflush(stdout);
}

// Scenario k of the bench batch: distinct seed and cadence so the batched pass cannot
// cheat by sharing per-scenario state (the same spread the equivalence tests use).
ScreeningConfig BatchScenario(int k) {
  static constexpr double kPeriods[] = {3.0, 1.0, 2.0, 6.0};
  ScreeningConfig config;
  config.seed = 77 + static_cast<uint64_t>(k);
  config.regular_period_months = kPeriods[k % 4];
  return config;
}

int Main(int argc, char** argv) {
  const MicroArgs args = ParseMicroArgs(
      argc, argv, "usage: micro_screening [processor_count] [repeats]", 1'000'000, 5);
  const uint64_t processors = args.count;
  const int repeats = args.repeats;
  std::printf("# micro_screening: %llu processors, best of %d\n",
              static_cast<unsigned long long>(processors), repeats);

  std::printf("{\"bench\": \"env\", \"simd\": \"%s\", \"forced_scalar\": %s, "
              "\"hardware_threads\": %u}\n",
              SimdLevelName(EngineContext(EngineOptions{.threads = 1}).simd()).c_str(),
#if defined(SDC_FORCE_SCALAR)
              "true",
#else
              "false",
#endif
              std::thread::hardware_concurrency());
  std::fflush(stdout);

  const TestSuite suite = TestSuite::BuildFull();
  ScreeningPipeline pipeline(&suite);
  bool deterministic = true;
  double cached_screen_t1 = 0.0;
  double reference_screen_t1 = 0.0;
  double scalar_screen_t1 = 0.0;
  // Summary ratios at one thread, from MedianPairedRatio: the attached-series tax that
  // tools/check_screening_json.py bounds, and how much one batched pass beats K
  // independent passes, 8 x wall(K=1) / wall(K=8).
  double series_overhead = 0.0;
  double batch_amortization = 0.0;
  double blocked_generate_t1 = 0.0;
  double reference_generate_t1 = 0.0;

  // Ground truth for the determinism assertions: the blocked generator and the cached
  // screening model at one thread. Every other (generator, dispatch, threads) variant
  // must reproduce this fleet and these stats bitwise.
  PopulationConfig golden_population;
  golden_population.processor_count = processors;
  golden_population.threads = 1;
  const FleetPopulation golden_fleet = FleetPopulation::Generate(golden_population);
  const ScreeningStats golden = pipeline.Run(golden_fleet, ScreeningConfig{.threads = 1});

  for (int threads : {1, 2, 8}) {
    PopulationConfig population_config;
    population_config.processor_count = processors;
    population_config.threads = threads;

    const double generate_wall = BestWallSeconds(repeats, [&] {
      (void)FleetPopulation::Generate(population_config);
    });
    EmitJson("generate", "cached", threads, generate_wall, processors);

    // The pre-blocking per-processor loop, and the blocked kernel pinned to scalar
    // dispatch: three generators, one fleet, asserted byte-identical below. Like the
    // context-free rows, each timed call builds its own context.
    const EngineOptions options{.threads = threads};
    {
      EngineContext context(options);
      deterministic &= NoMismatch(
          IdenticalFleets(golden_fleet, ReferenceGenerate(population_config, context)));
    }
    const double generate_reference_wall = BestWallSeconds(repeats, [&] {
      EngineContext context(options);
      (void)ReferenceGenerate(population_config, context);
    });
    EmitJson("generate", "reference", threads, generate_reference_wall, processors);

    const EngineOptions scalar_options{.threads = threads, .simd = SimdLevel::kScalar};
    {
      EngineContext scalar_context(scalar_options);
      deterministic &= NoMismatch(IdenticalFleets(
          golden_fleet, FleetPopulation::Generate(population_config, scalar_context)));
    }
    const double generate_scalar_wall = BestWallSeconds(repeats, [&] {
      EngineContext scalar_context(scalar_options);
      (void)FleetPopulation::Generate(population_config, scalar_context);
    });
    EmitJson("generate_scalar", "cached", threads, generate_scalar_wall, processors);

    if (threads == 1) {
      blocked_generate_t1 = generate_wall;
      reference_generate_t1 = generate_reference_wall;
    }

    const FleetPopulation fleet = FleetPopulation::Generate(population_config);
    deterministic &= NoMismatch(IdenticalFleets(golden_fleet, fleet));
    ScreeningConfig screening_config;
    screening_config.threads = threads;
    for (const bool use_reference : {false, true}) {
      const char* model = use_reference ? "reference" : "cached";
      const auto screen = [&](const FleetPopulation& screened) {
        if (!use_reference) {
          return pipeline.Run(screened, screening_config);
        }
        EngineContext context(options);
        return ReferenceScreen(pipeline, screened, screening_config, context);
      };

      deterministic &= NoMismatch(IdenticalStats(golden, screen(fleet)));

      const double screen_wall = BestWallSeconds(repeats, [&] { (void)screen(fleet); });
      EmitJson("screen", model, threads, screen_wall, processors);
      if (threads == 1) {
        (use_reference ? reference_screen_t1 : cached_screen_t1) = screen_wall;
      }

      const double both_wall = BestWallSeconds(repeats, [&] {
        (void)screen(FleetPopulation::Generate(population_config));
      });
      EmitJson("generate_screen", model, threads, both_wall, processors);
    }

    // The same cached screen on a context pinned to the scalar level. Screening has no
    // vector kernel left (the clean processors are counted by the generator), so the
    // delta against the "screen" row above is noise. Output must not move a bit.
    ScreeningConfig scalar_config;
    {
      EngineContext scalar_context(scalar_options);
      deterministic &= NoMismatch(
          IdenticalStats(golden, pipeline.Run(fleet, scalar_config, scalar_context)));
    }
    const double scalar_wall = BestWallSeconds(repeats, [&] {
      EngineContext scalar_context(scalar_options);
      (void)pipeline.Run(fleet, scalar_config, scalar_context);
    });
    EmitJson("screen_scalar", "cached", threads, scalar_wall, processors);
    if (threads == 1) {
      scalar_screen_t1 = scalar_wall;
    }

    // The cached screen with a live SeriesRecorder attached: sampling happens only at
    // shard boundaries in the serial fold, so the delta against the "screen" row is the
    // whole observability tax. Output (and the recorded sim series) must not move a bit.
    {
      ScreeningConfig series_config;
      series_config.threads = threads;
      SeriesRecorder check_recorder;
      series_config.series = &check_recorder;
      deterministic &= NoMismatch(IdenticalStats(golden, pipeline.Run(fleet, series_config)));
      const auto screen_with_series = [&] {
        SeriesRecorder recorder;
        ScreeningConfig timed = series_config;
        timed.series = &recorder;
        (void)pipeline.Run(fleet, timed);
      };
      const double series_wall = BestWallSeconds(repeats, screen_with_series);
      EmitJson("screen_series", "cached", threads, series_wall, processors);
      if (threads == 1) {
        const ScreeningConfig plain_config{.threads = threads};
        series_overhead = MedianPairedRatio(
            [&] { (void)pipeline.Run(fleet, plain_config); }, screen_with_series);
      }
    }

    // Batched engine: one pass over the fleet for K scenarios. Every slot must be
    // bitwise identical to that scenario's independent run before timing means anything.
    auto make_batch = [threads](int k_count) {
      ScenarioBatch batch;
      batch.threads = threads;
      for (int k = 0; k < k_count; ++k) {
        batch.scenarios.push_back(BatchScenario(k));
      }
      return batch;
    };
    for (const int k_count : {1, 2, 4, 8}) {
      const ScenarioBatch batch = make_batch(k_count);
      const std::vector<ScreeningStats> batched = pipeline.RunBatch(fleet, batch);
      for (int k = 0; k < k_count; ++k) {
        ScreeningConfig independent = batch.scenarios[static_cast<size_t>(k)];
        independent.threads = threads;
        deterministic &= NoMismatch(
            IdenticalStats(batched[static_cast<size_t>(k)], pipeline.Run(fleet, independent)));
      }
      const double batch_wall = BestWallSeconds(repeats, [&] {
        (void)pipeline.RunBatch(fleet, batch);
      });
      EmitBatchJson(threads, k_count, batch_wall, processors);
    }
    if (threads == 1) {
      const ScenarioBatch one = make_batch(1);
      const ScenarioBatch eight = make_batch(8);
      batch_amortization = 8.0 / MedianPairedRatio(
                                     [&] { (void)pipeline.RunBatch(fleet, one); },
                                     [&] { (void)pipeline.RunBatch(fleet, eight); });
    }
  }

  const double speedup =
      cached_screen_t1 > 0.0 ? reference_screen_t1 / cached_screen_t1 : 0.0;
  // The SIMD speedup compares the auto-dispatched screen to the scalar-pinned one: ~1.0,
  // since screening no longer runs a vector kernel.
  const double simd_speedup =
      cached_screen_t1 > 0.0 ? scalar_screen_t1 / cached_screen_t1 : 0.0;
  // Blocked vs reference generator at one thread -- the generate acceptance bound
  // tools/check_screening_json.py enforces (relative, so flaky CI hosts cannot fail it
  // on absolute wall time alone).
  const double generate_speedup =
      blocked_generate_t1 > 0.0 ? reference_generate_t1 / blocked_generate_t1 : 0.0;
  std::printf("{\"bench\": \"summary\", \"screen_speedup_cached_vs_reference\": %.2f, "
              "\"batch_amortization_k8\": %.2f, \"screen_simd_speedup\": %.2f, "
              "\"generate_speedup_blocked_vs_reference\": %.2f, "
              "\"series_overhead\": %.4f, "
              "\"deterministic\": %s}\n",
              speedup, batch_amortization, simd_speedup, generate_speedup,
              series_overhead, deterministic ? "true" : "false");
  if (!deterministic) {
    std::fprintf(stderr,
                 "FAIL: generator/model/scalar/batch paths diverged from the golden run "
                 "(see docs/performance.md)\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace sdc

int main(int argc, char** argv) { return sdc::Main(argc, argv); }
