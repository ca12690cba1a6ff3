// Equivalence suite for the memoized detection model (docs/performance.md): the
// production screening path must be byte-identical -- every counter, every detection in
// order, detection months and provenance compared bitwise -- to the pre-memoization
// reference model (the ReferenceScreen test oracle, tests/oracle/oracle.h) at several
// thread counts. Any divergence means the memoization changed the model or the RNG draw
// order, both of which break the determinism contract in docs/parallelism.md.

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/context.h"
#include "src/fault/catalog.h"
#include "src/fleet/pipeline.h"
#include "src/fleet/population.h"
#include "src/report/exporters.h"
#include "src/telemetry/metrics.h"
#include "tests/oracle/oracle.h"

namespace sdc {
namespace {

constexpr uint64_t kFleetSize = 250000;

class ScreeningModelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    PopulationConfig config;
    config.processor_count = kFleetSize;
    config.seed = 20260805;
    fleet_ = new FleetPopulation(FleetPopulation::Generate(config));
    suite_ = new TestSuite(TestSuite::BuildFull());
  }
  static void TearDownTestSuite() {
    delete fleet_;
    delete suite_;
    fleet_ = nullptr;
    suite_ = nullptr;
  }

  // The production (memoized) model.
  static ScreeningStats RunCached(int threads, MetricsRegistry* metrics = nullptr) {
    ScreeningPipeline pipeline(suite_);
    ScreeningConfig config;
    config.threads = threads;
    config.metrics = metrics;
    return pipeline.Run(*fleet_, config);
  }

  // The pre-memoization oracle on a pool of `threads` lanes.
  static ScreeningStats RunReference(int threads) {
    ScreeningPipeline pipeline(suite_);
    EngineContext context(EngineOptions{.threads = threads});
    return ReferenceScreen(pipeline, *fleet_, ScreeningConfig{}, context);
  }

  // Bitwise, not approximately: the cached path must reproduce the reference's
  // floating-point rounding exactly.
  static void ExpectIdentical(const ScreeningStats& a, const ScreeningStats& b) {
    EXPECT_EQ(IdenticalStats(a, b), "");
  }

  static FleetPopulation* fleet_;
  static TestSuite* suite_;
};

FleetPopulation* ScreeningModelTest::fleet_ = nullptr;
TestSuite* ScreeningModelTest::suite_ = nullptr;

TEST_F(ScreeningModelTest, CachedMatchesReferenceAtOneThread) {
  ExpectIdentical(RunCached(1), RunReference(1));
}

TEST_F(ScreeningModelTest, CachedMatchesReferenceAtTwoThreads) {
  ExpectIdentical(RunCached(2), RunReference(2));
}

TEST_F(ScreeningModelTest, CachedMatchesReferenceAtEightThreads) {
  ExpectIdentical(RunCached(8), RunReference(8));
}

TEST_F(ScreeningModelTest, CachedIsThreadCountInvariant) {
  // The cached fast path skips clean processors outright; that must not perturb the
  // shard-order merge that makes stats thread-count invariant.
  const ScreeningStats one = RunCached(1);
  ExpectIdentical(RunCached(2), one);
  ExpectIdentical(RunCached(8), one);
  // And both models agree across thread counts, not just within one.
  ExpectIdentical(one, RunReference(8));
}

TEST_F(ScreeningModelTest, MetricsSnapshotsIdenticalAcrossModels) {
  // The observable metric stream (sans wall-clock timers) is part of the contract too:
  // thread-count invariant, and every counter equal to what the reference model's stats
  // imply.
  const auto snapshot = [](int threads) {
    MetricsRegistry registry;
    (void)RunCached(threads, &registry);
    return registry.Snapshot();
  };
  const auto json = [](const MetricsSnapshot& metrics) {
    std::ostringstream out;
    WriteMetricsJson(out, metrics, /*include_timers=*/false);
    return out.str();
  };
  const MetricsSnapshot cached = snapshot(1);
  EXPECT_EQ(json(cached), json(snapshot(8)));
  const ScreeningStats reference = RunReference(1);
  EXPECT_EQ(cached.CounterOr("screening.tested"), reference.tested);
  EXPECT_EQ(cached.CounterOr("screening.faulty"), reference.faulty);
  EXPECT_EQ(cached.CounterOr("screening.detected"), reference.total_detected());
  EXPECT_EQ(cached.CounterOr("screening.escaped"),
            reference.faulty - reference.total_detected());
  EXPECT_EQ(cached.CounterOr("screening.provenance.records"), reference.provenance.size());
  for (int stage = 0; stage < kStageCount; ++stage) {
    EXPECT_EQ(cached.CounterOr("screening.stage." + StageName(static_cast<TestStage>(stage)) +
                               ".detected"),
              reference.detected_by_stage[static_cast<size_t>(stage)]);
  }
  for (int arch = 0; arch < kArchCount; ++arch) {
    EXPECT_EQ(cached.CounterOr("screening.arch." + ArchName(arch) + ".tested"),
              reference.tested_by_arch[static_cast<size_t>(arch)]);
    EXPECT_EQ(cached.CounterOr("screening.arch." + ArchName(arch) + ".detected"),
              reference.detected_by_arch[static_cast<size_t>(arch)]);
  }
  EXPECT_GT(reference.total_detected(), 0u);
}

TEST_F(ScreeningModelTest, FastPathActuallyDetects) {
  // Guard against the equivalence holding vacuously (nothing detected at all).
  const ScreeningStats stats = RunCached(1);
  EXPECT_EQ(stats.tested, kFleetSize);
  EXPECT_GT(stats.faulty, 0u);
  EXPECT_GT(stats.total_detected(), 0u);
  EXPECT_FALSE(stats.detections.empty());
}

TEST_F(ScreeningModelTest, IdenticalStatsNamesTheFirstMismatch) {
  // The comparator must see provenance, bitwise: a one-ulp change in a record that the
  // counters and detections cannot show is reported by field.
  const ScreeningStats stats = RunCached(1);
  ASSERT_FALSE(stats.provenance.empty());
  ScreeningStats changed = stats;
  changed.provenance.back().stage_temperature_celsius =
      std::nextafter(changed.provenance.back().stage_temperature_celsius, 1e9);
  const std::string mismatch = IdenticalStats(stats, changed);
  EXPECT_EQ(mismatch.rfind("provenance[" + std::to_string(stats.provenance.size() - 1) +
                               "].stage_temperature_celsius: ",
                           0),
            0u)
      << mismatch;
  EXPECT_EQ(IdenticalStats(stats, stats), "");
}

// ----- batched multi-scenario engine (ScreeningPipeline::RunBatch) ------------------
//
// The contract (docs/performance.md): every slot of a batched run is byte-identical to
// running that scenario alone -- scenario k draws only from Rng(seed_k).Fork(shard), so
// sharing the per-shard tested counts and the MatchingTestcases memo across scenarios must
// not move a bit.

// K scenarios with distinct seeds and cadences (the spread the bench uses too), so the
// batch cannot pass by accidentally computing one scenario K times.
ScenarioBatch MakeBatch(int k_count, int threads) {
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

class ScreeningBatchTest : public ScreeningModelTest {
 protected:
  static void ExpectBatchMatchesIndependent(int k_count, int threads) {
    ScreeningPipeline pipeline(suite_);
    const ScenarioBatch batch = MakeBatch(k_count, threads);
    const std::vector<ScreeningStats> batched = pipeline.RunBatch(*fleet_, batch);
    ASSERT_EQ(batched.size(), batch.scenarios.size());
    for (int k = 0; k < k_count; ++k) {
      ScreeningConfig independent = batch.scenarios[static_cast<size_t>(k)];
      independent.threads = threads;
      SCOPED_TRACE("scenario " + std::to_string(k));
      ExpectIdentical(batched[static_cast<size_t>(k)], pipeline.Run(*fleet_, independent));
    }
  }
};

TEST_F(ScreeningBatchTest, BatchedMatchesIndependentAtOneThread) {
  ExpectBatchMatchesIndependent(8, 1);
}

TEST_F(ScreeningBatchTest, BatchedMatchesIndependentAtTwoThreads) {
  ExpectBatchMatchesIndependent(8, 2);
}

TEST_F(ScreeningBatchTest, BatchedMatchesIndependentAtEightThreads) {
  ExpectBatchMatchesIndependent(8, 8);
}

TEST_F(ScreeningBatchTest, DistinctStageParamsBatchMatchesIndependent) {
  // Scenarios with bit-identical stage parameters share one survive-term table per
  // faulty part; scenarios whose parameters differ must land in their own group and
  // still match their solo runs bitwise. Three groups here: {0, 2} (default stages),
  // {1} (hotter re-install), {3} (weaker factory catch).
  ScreeningPipeline pipeline(suite_);
  ScenarioBatch batch = MakeBatch(4, 2);
  batch.scenarios[1].stages[2].temperature_celsius = 72.0;
  batch.scenarios[3].stages[0].catch_factor = 0.05;
  const std::vector<ScreeningStats> batched = pipeline.RunBatch(*fleet_, batch);
  ASSERT_EQ(batched.size(), 4u);
  for (size_t k = 0; k < batch.scenarios.size(); ++k) {
    ScreeningConfig independent = batch.scenarios[k];
    independent.threads = 2;
    SCOPED_TRACE("scenario " + std::to_string(k));
    ExpectIdentical(batched[k], pipeline.Run(*fleet_, independent));
  }
}

TEST_F(ScreeningBatchTest, BatchIsThreadCountInvariant) {
  ScreeningPipeline pipeline(suite_);
  const std::vector<ScreeningStats> one =
      pipeline.RunBatch(*fleet_, MakeBatch(4, 1));
  const std::vector<ScreeningStats> eight =
      pipeline.RunBatch(*fleet_, MakeBatch(4, 8));
  ASSERT_EQ(one.size(), eight.size());
  for (size_t k = 0; k < one.size(); ++k) {
    SCOPED_TRACE("scenario " + std::to_string(k));
    ExpectIdentical(eight[k], one[k]);
  }
}

TEST_F(ScreeningBatchTest, ScenariosActuallyDiffer) {
  // Guard against the equivalence holding because every slot carries the same bits: the
  // seeds differ, so the detection sets must differ somewhere.
  ScreeningPipeline pipeline(suite_);
  const std::vector<ScreeningStats> batched =
      pipeline.RunBatch(*fleet_, MakeBatch(4, 2));
  ASSERT_EQ(batched.size(), 4u);
  bool any_difference = false;
  for (size_t k = 1; k < batched.size(); ++k) {
    EXPECT_EQ(batched[k].tested, kFleetSize);
    EXPECT_GT(batched[k].total_detected(), 0u);
    if (batched[k].detections.size() != batched[0].detections.size()) {
      any_difference = true;
      continue;
    }
    for (size_t i = 0; i < batched[k].detections.size(); ++i) {
      if (batched[k].detections[i].serial != batched[0].detections[i].serial ||
          batched[k].detections[i].stage != batched[0].detections[i].stage) {
        any_difference = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_difference) << "all scenarios produced identical detections";
}

TEST_F(ScreeningBatchTest, EmptyBatchReturnsNoStats) {
  ScreeningPipeline pipeline(suite_);
  EXPECT_TRUE(pipeline.RunBatch(*fleet_, ScenarioBatch{}).empty());
}

TEST_F(ScreeningBatchTest, PerScenarioMetricsMatchIndependentRuns) {
  // Each scenario's metric sink must see exactly the deltas its independent run records
  // (sans wall-clock timers) -- not a sum over the batch.
  ScreeningPipeline pipeline(suite_);
  ScenarioBatch batch = MakeBatch(3, 2);
  std::vector<MetricsRegistry> batch_registries(batch.scenarios.size());
  for (size_t k = 0; k < batch.scenarios.size(); ++k) {
    batch.scenarios[k].metrics = &batch_registries[k];
  }
  (void)pipeline.RunBatch(*fleet_, batch);
  for (size_t k = 0; k < batch.scenarios.size(); ++k) {
    MetricsRegistry independent_registry;
    ScreeningConfig independent = batch.scenarios[k];
    independent.threads = 2;
    independent.metrics = &independent_registry;
    (void)pipeline.Run(*fleet_, independent);
    std::ostringstream batched_json;
    std::ostringstream independent_json;
    WriteMetricsJson(batched_json, batch_registries[k].Snapshot(),
                     /*include_timers=*/false);
    WriteMetricsJson(independent_json, independent_registry.Snapshot(),
                     /*include_timers=*/false);
    EXPECT_EQ(batched_json.str(), independent_json.str()) << "scenario " << k;
  }
}

}  // namespace
}  // namespace sdc
