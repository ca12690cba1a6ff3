// Equivalence suite for the streaming shard pipeline (docs/streaming.md): a fused
// generate->screen->aggregate pass over FleetShardStream must be byte-identical -- every
// counter, every detection in order, detection months compared bitwise, metrics snapshot
// included -- to generating a materialized FleetPopulation and running the same
// aggregations over it, at several thread counts. Also pins the memory contract: peak
// streaming scratch is O(lanes * shard), not O(fleet), and the fold-cost contract: every
// shard-order fold allocates each merged detection vector once.

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/farron/longitudinal.h"
#include "src/fleet/capacity.h"
#include "src/fleet/pipeline.h"
#include "src/fleet/population.h"
#include "src/fleet/stats.h"
#include "src/fleet/stream.h"
#include "src/report/exporters.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/series.h"
#include "tests/oracle/oracle.h"

// Allocation probe for the fold-cost tests: while armed, every heap allocation of at
// least kLargeAllocationBytes, on any thread, is counted. Replacing the global operator
// new is the only way to see allocations made inside the library's folds; unarmed it
// costs one relaxed load per allocation.
namespace {
constexpr std::size_t kLargeAllocationBytes = 16 * 1024;
std::atomic<bool> g_probe_armed{false};
std::atomic<uint64_t> g_large_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_probe_armed.load(std::memory_order_relaxed) && size >= kLargeAllocationBytes) {
    g_large_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* ptr = std::malloc(size == 0 ? 1 : size);
  if (ptr == nullptr) {
    throw std::bad_alloc();
  }
  return ptr;
}
// noinline keeps GCC's -Wmismatched-new-delete from pairing an inlined free() with the
// library's own operator new calls.
__attribute__((noinline)) void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { operator delete(ptr); }

namespace sdc {
namespace {

constexpr uint64_t kFleetSize = 200000;
constexpr uint64_t kFleetSeed = 20260805;

// Everything both modes can produce from one generate+screen pass.
struct PassResults {
  ScreeningStats stats;
  CapacityReport capacity;
  TestcaseEffectiveness effectiveness;
  std::vector<WearoutExposure> exposures;
  StreamReport report;  // streaming mode only
};

class StreamEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { suite_ = new TestSuite(TestSuite::BuildFull()); }
  static void TearDownTestSuite() {
    delete suite_;
    suite_ = nullptr;
  }

  static PopulationConfig MakePopulationConfig(uint64_t processors, int threads,
                                               MetricsRegistry* metrics) {
    PopulationConfig config;
    config.processor_count = processors;
    config.seed = kFleetSeed;
    config.threads = threads;
    config.metrics = metrics;
    return config;
  }

  static ScreeningConfig MakeScreeningConfig(int threads, MetricsRegistry* metrics) {
    ScreeningConfig config;
    config.threads = threads;
    config.metrics = metrics;
    return config;
  }

  // The materialized baseline: build the fleet, then run each aggregation against it.
  static PassResults RunMaterialized(uint64_t processors, int threads,
                                     MetricsRegistry* metrics = nullptr) {
    const PopulationConfig population = MakePopulationConfig(processors, threads, metrics);
    const FleetPopulation fleet = FleetPopulation::Generate(population);
    ScreeningPipeline pipeline(suite_);
    const ScreeningConfig screening = MakeScreeningConfig(threads, metrics);
    PassResults results;
    results.stats = pipeline.Run(fleet, screening);
    results.capacity = SimulateCapacityRetention(fleet, results.stats, screening);
    results.effectiveness = ComputeTestcaseEffectiveness(
        *suite_, fleet, screening.stages[static_cast<size_t>(TestStage::kRegular)]);
    // The cadence study's exposure derivation (bench/cadence_tradeoff.cc), via the
    // fleet's random-access DefectsOf.
    for (const ProcessorOutcome& outcome : results.stats.detections) {
      if (outcome.stage != TestStage::kRegular) {
        continue;
      }
      double onset = 0.0;
      for (const Defect& defect : fleet.DefectsOf(outcome.serial)) {
        if (defect.onset_months > 0.0 && defect.onset_months <= outcome.month) {
          onset = defect.onset_months;
        }
      }
      results.exposures.push_back({outcome.serial, onset, outcome.month});
    }
    return results;
  }

  // The fused pass: all four aggregations ride one FleetShardStream drive.
  static PassResults RunStreaming(uint64_t processors, int threads,
                                  MetricsRegistry* metrics = nullptr) {
    const PopulationConfig population = MakePopulationConfig(processors, threads, metrics);
    ScreeningPipeline pipeline(suite_);
    const ScreeningConfig screening = MakeScreeningConfig(threads, metrics);
    FleetShardStream stream(population);
    StreamingScreen screen(&pipeline, screening);
    CapacityAccumulator capacity;
    WearoutExposureObserver exposure;
    screen.AddObserver(&capacity);
    screen.AddObserver(&exposure);
    EffectivenessAccumulator effectiveness(
        suite_, screening.stages[static_cast<size_t>(TestStage::kRegular)]);
    PassResults results;
    results.report = stream.Drive({&screen, &effectiveness});
    results.stats = screen.TakeStats();
    results.capacity = capacity.TakeReport();
    results.effectiveness = effectiveness.TakeResult();
    results.exposures = exposure.exposures();
    return results;
  }

  // Bitwise, not approximately: the streaming path must reproduce the materialized
  // floating-point rounding exactly, provenance included.
  static void ExpectIdenticalStats(const ScreeningStats& streaming,
                                   const ScreeningStats& materialized) {
    EXPECT_EQ(IdenticalStats(streaming, materialized), "");
  }

  static void ExpectIdenticalCapacity(const CapacityReport& streaming,
                                      const CapacityReport& materialized) {
    EXPECT_EQ(streaming.fleet_cores, materialized.fleet_cores);
    EXPECT_EQ(streaming.production_detections, materialized.production_detections);
    EXPECT_EQ(streaming.baseline_cores_lost, materialized.baseline_cores_lost);
    EXPECT_EQ(streaming.fine_grained_cores_lost, materialized.fine_grained_cores_lost);
    EXPECT_EQ(streaming.parts_deprecated_fine, materialized.parts_deprecated_fine);
    ASSERT_EQ(streaming.timeline.size(), materialized.timeline.size());
    for (size_t i = 0; i < streaming.timeline.size(); ++i) {
      EXPECT_EQ(std::memcmp(&streaming.timeline[i].month, &materialized.timeline[i].month,
                            sizeof(double)),
                0)
          << "timeline point " << i;
      EXPECT_EQ(streaming.timeline[i].baseline_cores_lost,
                materialized.timeline[i].baseline_cores_lost)
          << "timeline point " << i;
      EXPECT_EQ(streaming.timeline[i].fine_grained_cores_lost,
                materialized.timeline[i].fine_grained_cores_lost)
          << "timeline point " << i;
    }
  }

  static void ExpectIdenticalResults(const PassResults& streaming,
                                     const PassResults& materialized) {
    ExpectIdenticalStats(streaming.stats, materialized.stats);
    ExpectIdenticalCapacity(streaming.capacity, materialized.capacity);
    EXPECT_EQ(streaming.effectiveness.total_testcases,
              materialized.effectiveness.total_testcases);
    EXPECT_EQ(streaming.effectiveness.effective_testcases,
              materialized.effectiveness.effective_testcases);
    EXPECT_EQ(streaming.effectiveness.effective_ids,
              materialized.effectiveness.effective_ids);
    ASSERT_EQ(streaming.exposures.size(), materialized.exposures.size());
    for (size_t i = 0; i < streaming.exposures.size(); ++i) {
      EXPECT_EQ(streaming.exposures[i].serial, materialized.exposures[i].serial);
      EXPECT_EQ(std::memcmp(&streaming.exposures[i].onset_months,
                            &materialized.exposures[i].onset_months, sizeof(double)),
                0)
          << "exposure " << i;
      EXPECT_EQ(std::memcmp(&streaming.exposures[i].detection_month,
                            &materialized.exposures[i].detection_month, sizeof(double)),
                0)
          << "exposure " << i;
    }
  }

  static TestSuite* suite_;
};

TestSuite* StreamEquivalenceTest::suite_ = nullptr;

TEST_F(StreamEquivalenceTest, MatchesMaterializedAtOneThread) {
  ExpectIdenticalResults(RunStreaming(kFleetSize, 1), RunMaterialized(kFleetSize, 1));
}

TEST_F(StreamEquivalenceTest, MatchesMaterializedAtTwoThreads) {
  ExpectIdenticalResults(RunStreaming(kFleetSize, 2), RunMaterialized(kFleetSize, 2));
}

TEST_F(StreamEquivalenceTest, MatchesMaterializedAtEightThreads) {
  ExpectIdenticalResults(RunStreaming(kFleetSize, 8), RunMaterialized(kFleetSize, 8));
}

TEST_F(StreamEquivalenceTest, StreamingIsThreadCountInvariant) {
  const PassResults one = RunStreaming(kFleetSize, 1);
  ExpectIdenticalResults(RunStreaming(kFleetSize, 2), one);
  ExpectIdenticalResults(RunStreaming(kFleetSize, 8), one);
  // Cross-mode, cross-thread-count: streaming at 8 equals materialized at 1.
  ExpectIdenticalResults(one, RunMaterialized(kFleetSize, 8));
}

TEST_F(StreamEquivalenceTest, NotVacuouslyEqual) {
  // Guard against the equivalence holding because nothing happened at all.
  const PassResults streaming = RunStreaming(kFleetSize, 2);
  EXPECT_EQ(streaming.stats.tested, kFleetSize);
  EXPECT_GT(streaming.stats.faulty, 0u);
  EXPECT_GT(streaming.stats.total_detected(), 0u);
  EXPECT_GT(streaming.capacity.production_detections, 0u);
  EXPECT_GT(streaming.capacity.fleet_cores, 0u);
  EXPECT_GT(streaming.effectiveness.effective_testcases, 0u);
  EXPECT_FALSE(streaming.exposures.empty());
}

TEST_F(StreamEquivalenceTest, MetricsSnapshotsIdenticalAcrossModes) {
  // The observable metric stream (sans wall-clock timers) is part of the contract:
  // streaming merges the same per-shard deltas in the same shard order.
  const auto snapshot_json = [](bool streaming, int threads) {
    MetricsRegistry registry;
    if (streaming) {
      (void)RunStreaming(kFleetSize, threads, &registry);
    } else {
      (void)RunMaterialized(kFleetSize, threads, &registry);
    }
    std::ostringstream out;
    WriteMetricsJson(out, registry.Snapshot(), /*include_timers=*/false);
    return out.str();
  };
  const std::string materialized = snapshot_json(false, 1);
  EXPECT_EQ(materialized, snapshot_json(true, 1));
  EXPECT_EQ(materialized, snapshot_json(true, 2));
  EXPECT_EQ(materialized, snapshot_json(true, 8));
  EXPECT_NE(materialized.find("fleet.generate.processors"), std::string::npos);
  EXPECT_NE(materialized.find("screening.tested"), std::string::npos);
}

TEST_F(StreamEquivalenceTest, MaterializerReproducesGenerate) {
  // A FleetMaterializer riding the same drive as other consumers rebuilds exactly the
  // fleet Generate produces (Generate itself is this consumer; this pins the multi-
  // consumer path).
  PopulationConfig config = MakePopulationConfig(kFleetSize, 4, nullptr);
  const FleetPopulation expected = FleetPopulation::Generate(config);
  FleetPopulation rebuilt;
  FleetMaterializer materializer(&rebuilt);
  ScreeningPipeline pipeline(suite_);
  StreamingScreen screen(&pipeline, MakeScreeningConfig(4, nullptr));
  FleetShardStream stream(config);
  stream.Drive({&screen, &materializer});
  EXPECT_EQ(IdenticalFleets(rebuilt, expected), "");
}

// ----- one driver: materialized slicing at shard edges ------------------------------
//
// Materialized Run and RunBatch feed StreamingScreen FleetPopulation::Shard views of the
// generated fleet. These sizes hit the edges of that slicing: the empty fleet, a lone
// processor, screening-shard tails (4095, 4097), stream-shard tails (8191, 8193) and a
// partial second screening shard inside a stream shard (12289 = 3 * 4096 + 1). The
// elevated defect rate gives every shard faulty parts to slice.

// What one screening pass leaves behind: the stats plus the deterministic part of its
// metrics registry and series recorder.
struct ScreenedOutputs {
  ScreeningStats stats;
  std::string metrics;
  std::string series;
};

class ScreenSinks {
 public:
  ScreeningConfig Attach(ScreeningConfig config) {
    config.metrics = &registry_;
    config.series = &series_;
    return config;
  }
  ScreenedOutputs Take(ScreeningStats stats) const {
    std::ostringstream metrics;
    WriteMetricsJson(metrics, registry_.Snapshot(), /*include_timers=*/false);
    std::ostringstream series;
    WriteSeriesJson(series, series_.Snapshot(), /*include_host=*/false);
    return {std::move(stats), metrics.str(), series.str()};
  }

 private:
  MetricsRegistry registry_;
  SeriesRecorder series_;
};

TEST_F(StreamEquivalenceTest, RunRunBatchAndStreamAgreeAtShardEdges) {
  ScreeningPipeline pipeline(suite_);
  ScreeningConfig second;
  second.seed = 78;
  second.regular_period_months = 1.0;
  for (const uint64_t processors : {0, 1, 4095, 4097, 8191, 8193, 12289}) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::to_string(processors) + " processors, " +
                   std::to_string(threads) + " threads");
      PopulationConfig population = MakePopulationConfig(processors, threads, nullptr);
      for (double& rate : population.detected_rate) {
        rate *= 100.0;
      }
      const ScreeningConfig first = MakeScreeningConfig(threads, nullptr);

      const FleetPopulation fleet = FleetPopulation::Generate(population);
      ScreenSinks run_sinks;
      const ScreenedOutputs run =
          run_sinks.Take(pipeline.Run(fleet, run_sinks.Attach(first)));

      // K = 2 in both modes; scenario 0 is `first`, so it carries the series sink.
      std::vector<ScreenSinks> batch_sinks(2);
      std::vector<ScreenSinks> stream_sinks(2);
      ScenarioBatch batch;
      batch.threads = threads;
      ScenarioBatch stream_batch;
      for (size_t k = 0; k < 2; ++k) {
        batch.scenarios.push_back(batch_sinks[k].Attach(k == 0 ? first : second));
        stream_batch.scenarios.push_back(stream_sinks[k].Attach(k == 0 ? first : second));
      }
      std::vector<ScreeningStats> batched = pipeline.RunBatch(fleet, batch);
      FleetShardStream stream(population);
      StreamingScreen screen(&pipeline, stream_batch);
      stream.Drive({&screen});
      std::vector<ScreeningStats> streamed = screen.TakeBatchStats();
      ASSERT_EQ(batched.size(), 2u);
      ASSERT_EQ(streamed.size(), 2u);

      EXPECT_EQ(run.stats.tested, processors);
      for (size_t k = 0; k < 2; ++k) {
        SCOPED_TRACE("scenario " + std::to_string(k));
        const ScreenedOutputs from_batch = batch_sinks[k].Take(std::move(batched[k]));
        const ScreenedOutputs from_stream = stream_sinks[k].Take(std::move(streamed[k]));
        ExpectIdenticalStats(from_stream.stats, from_batch.stats);
        EXPECT_EQ(from_stream.metrics, from_batch.metrics);
        EXPECT_EQ(from_stream.series, from_batch.series);
        if (k == 0) {
          ExpectIdenticalStats(from_batch.stats, run.stats);
          EXPECT_EQ(from_batch.metrics, run.metrics);
          EXPECT_EQ(from_batch.series, run.series);
        }
      }
      if (processors >= 4097) {
        EXPECT_GT(run.stats.total_detected(), 0u);
        EXPECT_NE(run.series.find("screening.detected"), std::string::npos);
      }
    }
  }
}

// ----- batched streaming (StreamingScreen over a ScenarioBatch) ---------------------
//
// One fused generate->screen pass evaluating K scenarios must hand every scenario the
// same bits as (a) a materialized RunBatch and (b) K independent single-scenario runs,
// at any thread count -- including per-scenario observers, which must see exactly their
// scenario's shard outcomes.

class StreamBatchTest : public StreamEquivalenceTest {
 protected:
  static ScenarioBatch MakeBatch(int k_count, int threads) {
    static constexpr double kPeriods[] = {3.0, 1.0, 2.0, 6.0};
    ScenarioBatch batch;
    batch.threads = threads;
    for (int k = 0; k < k_count; ++k) {
      ScreeningConfig config;
      config.seed = 77 + static_cast<uint64_t>(k);
      config.regular_period_months = kPeriods[k % 4];
      batch.scenarios.push_back(config);
    }
    return batch;
  }

  // Streaming batched pass with one WearoutExposureObserver per scenario.
  static std::vector<PassResults> RunStreamingBatch(int k_count, int threads) {
    const PopulationConfig population = MakePopulationConfig(kFleetSize, threads, nullptr);
    ScreeningPipeline pipeline(suite_);
    const ScenarioBatch batch = MakeBatch(k_count, threads);
    FleetShardStream stream(population);
    StreamingScreen screen(&pipeline, batch);
    std::vector<WearoutExposureObserver> exposure(batch.scenarios.size());
    for (size_t k = 0; k < batch.scenarios.size(); ++k) {
      screen.AddObserver(&exposure[k], k);
    }
    stream.Drive({&screen});
    std::vector<ScreeningStats> stats = screen.TakeBatchStats();
    std::vector<PassResults> results(stats.size());
    for (size_t k = 0; k < stats.size(); ++k) {
      results[k].stats = std::move(stats[k]);
      results[k].exposures = exposure[k].exposures();
    }
    return results;
  }

  static void ExpectIdenticalExposures(const std::vector<WearoutExposure>& a,
                                       const std::vector<WearoutExposure>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].serial, b[i].serial) << "exposure " << i;
      EXPECT_EQ(std::memcmp(&a[i].onset_months, &b[i].onset_months, sizeof(double)), 0)
          << "exposure " << i;
      EXPECT_EQ(
          std::memcmp(&a[i].detection_month, &b[i].detection_month, sizeof(double)), 0)
          << "exposure " << i;
    }
  }

  static void ExpectBatchEquivalence(int k_count, int threads) {
    const std::vector<PassResults> streamed = RunStreamingBatch(k_count, threads);
    ASSERT_EQ(streamed.size(), static_cast<size_t>(k_count));

    // (a) materialized batched pass over the same fleet.
    const PopulationConfig population = MakePopulationConfig(kFleetSize, threads, nullptr);
    const FleetPopulation fleet = FleetPopulation::Generate(population);
    ScreeningPipeline pipeline(suite_);
    const ScenarioBatch batch = MakeBatch(k_count, threads);
    const std::vector<ScreeningStats> materialized = pipeline.RunBatch(fleet, batch);
    ASSERT_EQ(materialized.size(), static_cast<size_t>(k_count));

    for (int k = 0; k < k_count; ++k) {
      SCOPED_TRACE("scenario " + std::to_string(k));
      ExpectIdenticalStats(streamed[static_cast<size_t>(k)].stats,
                           materialized[static_cast<size_t>(k)]);

      // (b) an independent single-scenario streaming pass, observer included.
      ScreeningConfig independent = batch.scenarios[static_cast<size_t>(k)];
      independent.threads = threads;
      FleetShardStream stream(population);
      StreamingScreen screen(&pipeline, independent);
      WearoutExposureObserver exposure;
      screen.AddObserver(&exposure);
      stream.Drive({&screen});
      ExpectIdenticalStats(streamed[static_cast<size_t>(k)].stats, screen.TakeStats());
      ExpectIdenticalExposures(streamed[static_cast<size_t>(k)].exposures,
                               exposure.exposures());
    }
  }
};

TEST_F(StreamBatchTest, BatchedStreamMatchesBatchedRunAndIndependentAtOneThread) {
  ExpectBatchEquivalence(4, 1);
}

TEST_F(StreamBatchTest, BatchedStreamMatchesBatchedRunAndIndependentAtTwoThreads) {
  ExpectBatchEquivalence(4, 2);
}

TEST_F(StreamBatchTest, BatchedStreamMatchesBatchedRunAndIndependentAtEightThreads) {
  ExpectBatchEquivalence(4, 8);
}

TEST_F(StreamBatchTest, BatchedStreamIsThreadCountInvariant) {
  const std::vector<PassResults> one = RunStreamingBatch(4, 1);
  const std::vector<PassResults> eight = RunStreamingBatch(4, 8);
  ASSERT_EQ(one.size(), eight.size());
  for (size_t k = 0; k < one.size(); ++k) {
    SCOPED_TRACE("scenario " + std::to_string(k));
    ExpectIdenticalStats(eight[k].stats, one[k].stats);
    ExpectIdenticalExposures(eight[k].exposures, one[k].exposures);
  }
}

TEST_F(StreamBatchTest, BatchedScenariosNotVacuouslyEqual) {
  const std::vector<PassResults> streamed = RunStreamingBatch(4, 2);
  bool any_difference = false;
  for (size_t k = 0; k < streamed.size(); ++k) {
    EXPECT_EQ(streamed[k].stats.tested, kFleetSize);
    EXPECT_GT(streamed[k].stats.total_detected(), 0u);
    if (k > 0 &&
        (streamed[k].stats.detections.size() != streamed[0].stats.detections.size() ||
         streamed[k].exposures.size() != streamed[0].exposures.size())) {
      any_difference = true;
    }
  }
  // Different seeds and cadences: at least the regular-stage timelines must differ.
  for (size_t k = 1; k < streamed.size() && !any_difference; ++k) {
    for (size_t i = 0; i < streamed[k].stats.detections.size(); ++i) {
      if (streamed[k].stats.detections[i].serial !=
          streamed[0].stats.detections[i].serial) {
        any_difference = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_difference) << "all scenarios produced identical outcomes";
}

// ----- fold cost: one allocation per merged vector ----------------------------------
//
// The one shard-order fold (StreamingScreen::EndStream, which materialized Run and
// RunBatch ride too) sums the shards' detection counts and presizes the merged detections
// and provenance once; ScreeningStats::MergeFrom only appends. A fold that reserved
// size() + other.size() per shard instead reallocates and moves the whole accumulator for
// every shard that detected anything: thousands of large allocations over 4096 shards.

class LargeAllocationProbe {
 public:
  LargeAllocationProbe() {
    g_large_allocations.store(0);
    g_probe_armed.store(true);
  }
  ~LargeAllocationProbe() { g_probe_armed.store(false); }
  uint64_t count() const { return g_large_allocations.load(); }
};

// 4096 screening shards (2048 stream shards) of the default fleet: about 1.5 detections
// per shard, so the merged vectors are many times kLargeAllocationBytes.
constexpr uint64_t kFoldShards = 4096;
constexpr uint64_t kFoldFleetSize = kFoldShards * kScreeningShardGrain;

void ExpectPresizedFold(const ScreeningStats& stats) {
  EXPECT_EQ(stats.tested, kFoldFleetSize);
  EXPECT_EQ(stats.detections.size(), stats.total_detected());
  EXPECT_EQ(stats.provenance.size(), stats.detections.size());
  EXPECT_EQ(stats.detections.capacity(), stats.detections.size());
  EXPECT_EQ(stats.provenance.capacity(), stats.provenance.size());
  // The premise of the allocation bound: growing either merged vector shard by shard
  // would cross kLargeAllocationBytes on hundreds of shards.
  EXPECT_GE(stats.detections.size() * sizeof(ProcessorOutcome), 8 * kLargeAllocationBytes);
}

TEST_F(StreamBatchTest, ShardFoldsAllocateEachMergedVectorOnce) {
  constexpr int kThreads = 2;
  constexpr int kScenarios = 3;
  const PopulationConfig population =
      MakePopulationConfig(kFoldFleetSize, kThreads, nullptr);
  const FleetPopulation fleet = FleetPopulation::Generate(population);
  ScreeningPipeline pipeline(suite_);
  const ScreeningConfig single = MakeScreeningConfig(kThreads, nullptr);
  const ScenarioBatch batch = MakeBatch(kScenarios, kThreads);

  // Materialized Run: the merged detections and provenance, plus StreamingScreen's one
  // per-shard slot table (each slot holds the shard's stats, deltas and traces).
  ScreeningStats materialized;
  {
    LargeAllocationProbe probe;
    materialized = pipeline.Run(fleet, single);
    EXPECT_LE(probe.count(), 3u);
  }
  ExpectPresizedFold(materialized);

  // Streaming single scenario: the same fold, plus headroom for the stream's own per-shard
  // tables. Still element-for-element equal to the materialized (serial-order) fold.
  {
    FleetShardStream stream(population);
    StreamingScreen screen(&pipeline, single);
    LargeAllocationProbe probe;
    stream.Drive({&screen});
    EXPECT_LE(probe.count(), 2u + 3);
    const ScreeningStats streamed = screen.TakeStats();
    ExpectPresizedFold(streamed);
    ExpectIdenticalStats(streamed, materialized);
  }

  // K = 3: two merged vectors per scenario, plus the same slot table as the K = 1 passes.
  std::vector<ScreeningStats> batched;
  {
    LargeAllocationProbe probe;
    batched = pipeline.RunBatch(fleet, batch);
    EXPECT_LE(probe.count(), 2u * kScenarios + 1);
  }
  ASSERT_EQ(batched.size(), static_cast<size_t>(kScenarios));
  FleetShardStream stream(population);
  StreamingScreen screen(&pipeline, batch);
  {
    LargeAllocationProbe probe;
    stream.Drive({&screen});
    EXPECT_LE(probe.count(), 2u * kScenarios + 3);
  }
  const std::vector<ScreeningStats> streamed = screen.TakeBatchStats();
  ASSERT_EQ(streamed.size(), static_cast<size_t>(kScenarios));
  for (size_t k = 0; k < streamed.size(); ++k) {
    SCOPED_TRACE("scenario " + std::to_string(k));
    ExpectPresizedFold(batched[k]);
    ExpectPresizedFold(streamed[k]);
    ExpectIdenticalStats(streamed[k], batched[k]);
  }
}

TEST(StreamMemoryTest, TenMillionProcessorsStayWithinShardBudget) {
  // The point of the tentpole: a 10M-processor generate+screen pass must peak at
  // O(lanes * shard) scratch, orders of magnitude below the ~20 MB of fleet columns a
  // materialized run would hold (let alone its defect arena).
  constexpr uint64_t kBigFleet = 10'000'000;
  TestSuite suite = TestSuite::BuildFull();
  PopulationConfig population;
  population.processor_count = kBigFleet;
  population.threads = 2;
  ScreeningPipeline pipeline(&suite);
  ScreeningConfig screening;
  screening.threads = 2;
  FleetShardStream stream(population);
  StreamingScreen screen(&pipeline, screening);
  const StreamReport report = stream.Drive({&screen});
  const ScreeningStats stats = screen.TakeStats();
  EXPECT_EQ(stats.tested, kBigFleet);
  EXPECT_GT(stats.faulty, 0u);
  EXPECT_GT(stats.total_detected(), 0u);
  EXPECT_EQ(report.shards, (kBigFleet + kFleetShardGrain - 1) / kFleetShardGrain);
  // Budget: half a MiB of scratch per lane comfortably covers the two 8 KiB byte columns
  // of each of the lane group's eight shards plus their handful of faulty parts and
  // defects -- and is ~40x below what materializing this fleet's columns alone would take.
  const uint64_t budget = static_cast<uint64_t>(report.lanes) * 512 * 1024;
  EXPECT_GT(report.peak_scratch_bytes, 0u);
  EXPECT_LT(report.peak_scratch_bytes, budget)
      << "streaming scratch grew beyond the per-lane shard budget";
}

}  // namespace
}  // namespace sdc
