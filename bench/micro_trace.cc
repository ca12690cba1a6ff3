// micro_trace: the cost of the trace/span layer (docs/observability.md) on the fused
// streaming generate+screen workload.
//
// Emits one JSON object per line so runs can be diffed mechanically. Grid: phase
// "generate_screen" under
//   disabled -- PopulationConfig/ScreeningConfig carry trace = nullptr; every hook is a
//               null-pointer check and no per-shard trace buffers are allocated.
//   enabled  -- a TraceRecorder is attached; per-shard deltas record generate.shard and
//               screen.subshard spans plus one detection instant (with provenance args)
//               per detection, merged in shard order.
// each at 1/2/8 worker threads; each row's wall_seconds is the median of the rounds. The
// closing "summary" line reports the enabled/disabled wall-time ratio at one thread as
// the median over kRatioRounds paired rounds (MedianPairedRatio, bench/bench_util.h);
// the binary asserts the tracing-enabled run stays within 5% of the disabled run (the
// zero-cost-when-detached contract's measurable half) and that the enabled run recorded
// a nonempty sim timeline whose detection instants match the screening stats, exiting
// non-zero otherwise. Every recorder is built before and destroyed after the timed
// passes, so the enabled arm pays for recording events and nothing else.
//
// Usage: micro_trace [processor_count] [rounds]
// Defaults: 1,000,000 processors, 5 rounds per row.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "bench/micro_args.h"
#include "src/fleet/pipeline.h"
#include "src/fleet/population.h"
#include "src/fleet/stream.h"
#include "src/telemetry/trace.h"
#include "src/toolchain/registry.h"

namespace sdc {
namespace {

constexpr double kMaxEnabledOverhead = 1.05;
constexpr int kRatioRounds = 100;

// `count` fresh recorders, handed out one per timed pass by Next().
class RecorderPool {
 public:
  explicit RecorderPool(int count) {
    for (int i = 0; i < count; ++i) {
      recorders_.push_back(std::make_unique<TraceRecorder>());
    }
  }
  TraceRecorder* Next() { return recorders_.at(next_++).get(); }

 private:
  std::vector<std::unique_ptr<TraceRecorder>> recorders_;
  size_t next_ = 0;
};

int Main(int argc, char** argv) {
  const MicroArgs args = ParseMicroArgs(
      argc, argv, "usage: micro_trace [processor_count] [rounds]", 1'000'000, 5);
  const uint64_t processors = args.count;
  const int rounds = args.repeats;
  std::printf("# micro_trace: %llu processors, median of %d rounds per row, t1 ratio "
              "median of %d paired rounds\n",
              static_cast<unsigned long long>(processors), rounds, kRatioRounds);

  const TestSuite suite = TestSuite::BuildFull();
  ScreeningPipeline pipeline(&suite);
  double ratio = 0.0;
  bool consistent = true;

  for (int threads : {1, 2, 8}) {
    auto run_once = [&](TraceRecorder* recorder) {
      PopulationConfig population_config;
      population_config.processor_count = processors;
      population_config.threads = threads;
      population_config.trace = recorder;
      ScreeningConfig screening_config;
      screening_config.threads = threads;
      screening_config.trace = recorder;
      const FleetShardStream stream(population_config);
      StreamingScreen screen(&pipeline, screening_config);
      stream.Drive({&screen});
      return screen.TakeStats();
    };

    // Consistency is checked on an untimed run; the timed passes measure only the
    // pipeline itself.
    uint64_t sim_events = 0;
    uint64_t detections = 0;
    {
      TraceRecorder recorder;
      const ScreeningStats stats = run_once(&recorder);
      const TraceSnapshot snapshot = recorder.Snapshot();
      sim_events = snapshot.sim.size();
      uint64_t instants = 0;
      for (const TraceEvent& event : snapshot.sim) {
        if (event.phase == 'i') {
          ++instants;
        }
      }
      detections = stats.total_detected();
      consistent &= instants == detections && detections == stats.provenance.size();
    }

    // Interleave the two configurations round by round so scheduler noise and clock
    // drift hit both arms equally; each row reports its arm's median.
    std::vector<double> disabled_walls;
    std::vector<double> enabled_walls;
    {
      RecorderPool recorders(rounds);
      for (int i = 0; i < rounds; ++i) {
        disabled_walls.push_back(WallSeconds([&] { (void)run_once(nullptr); }));
        enabled_walls.push_back(WallSeconds([&] { (void)run_once(recorders.Next()); }));
      }
    }
    const double disabled_wall = QuartilesOf(disabled_walls).median;
    const double enabled_wall = QuartilesOf(enabled_walls).median;
    std::printf("{\"bench\": \"generate_screen\", \"trace\": \"disabled\", "
                "\"threads\": %d, \"processors\": %llu, \"wall_seconds\": %.6f, "
                "\"ns_per_processor\": %.2f}\n",
                threads, static_cast<unsigned long long>(processors), disabled_wall,
                disabled_wall * 1e9 / static_cast<double>(processors));
    std::fflush(stdout);
    std::printf("{\"bench\": \"generate_screen\", \"trace\": \"enabled\", "
                "\"threads\": %d, \"processors\": %llu, \"wall_seconds\": %.6f, "
                "\"ns_per_processor\": %.2f, \"sim_events\": %llu, "
                "\"detection_instants\": %llu}\n",
                threads, static_cast<unsigned long long>(processors), enabled_wall,
                enabled_wall * 1e9 / static_cast<double>(processors),
                static_cast<unsigned long long>(sim_events),
                static_cast<unsigned long long>(detections));
    std::fflush(stdout);
    consistent &= sim_events > 0;

    if (threads == 1) {
      RecorderPool recorders(kRatioRounds);
      ratio = MedianPairedRatio([&] { (void)run_once(nullptr); },
                                [&] { (void)run_once(recorders.Next()); }, kRatioRounds);
    }
  }

  std::printf("{\"bench\": \"summary\", \"enabled_vs_disabled_t1\": %.3f, "
              "\"overhead_bound\": %.2f, \"consistent\": %s}\n",
              ratio, kMaxEnabledOverhead, consistent ? "true" : "false");
  if (!consistent) {
    std::fprintf(stderr, "FAIL: trace events diverged from screening stats\n");
    return 1;
  }
  if (ratio > kMaxEnabledOverhead) {
    std::fprintf(stderr, "FAIL: tracing overhead %.3f exceeds bound %.2f\n", ratio,
                 kMaxEnabledOverhead);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace sdc

int main(int argc, char** argv) { return sdc::Main(argc, argv); }
