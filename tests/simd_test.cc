// Tests for the portable SIMD byte-counting kernel (src/common/simd.h), the level
// dispatch, and the vector kernels' wiring into generate -> screen (docs/performance.md).
// The contract is exact integer equality: every dispatch level -- scalar, SSE2, AVX2,
// AVX-512, NEON -- produces identical counts on every input shape (unaligned begins, tails
// shorter than a vector, the 255-block accumulator flush boundary), and pinning the
// engine context or the SDC_SIMD environment variable to the scalar fallback must not
// move a bit of a generated and screened fleet, even on adversarial fleets (all-faulty,
// zero-faulty, sizes that straddle shard boundaries).

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/context.h"
#include "src/common/rng.h"
#include "src/common/simd.h"
#include "src/fleet/pipeline.h"
#include "src/fleet/population.h"
#include "tests/oracle/oracle.h"

namespace sdc {
namespace {

// Deterministic byte column with values in [0, bucket_count).
std::vector<uint8_t> MakeColumn(size_t size, int bucket_count, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> data(size);
  for (size_t i = 0; i < size; ++i) {
    data[i] = static_cast<uint8_t>(rng.NextBelow(static_cast<uint64_t>(bucket_count)));
  }
  return data;
}

std::vector<uint64_t> NaiveCounts(const uint8_t* data, size_t size, int bucket_count) {
  std::vector<uint64_t> counts(static_cast<size_t>(bucket_count), 0);
  for (size_t i = 0; i < size; ++i) {
    ++counts[data[i]];
  }
  return counts;
}

std::vector<uint64_t> KernelCounts(const uint8_t* data, size_t size, int bucket_count,
                                   SimdLevel level) {
  std::vector<uint64_t> counts(static_cast<size_t>(bucket_count), 0);
  CountBytesByValue(data, size, bucket_count, counts.data(), level);
  return counts;
}

TEST(SimdKernelTest, AllLevelsMatchNaiveOnAdversarialShapes) {
  // Sizes bracketing every special case: empty, sub-vector tails, exact vector
  // multiples, the 255-iteration accumulator flush for 16- and 32-byte lanes
  // (255*16 = 4080, 255*32 = 8160), and a large non-round size.
  const size_t sizes[] = {0,    1,    7,    15,   16,   17,   31,   32,  33,
                          255,  256,  4079, 4080, 4081, 8159, 8160, 8161, 100003};
  for (const int bucket_count : {1, 4, 9, 16}) {
    for (const size_t size : sizes) {
      const std::vector<uint8_t> column =
          MakeColumn(size, bucket_count, /*seed=*/size * 131 + bucket_count);
      const std::vector<uint64_t> expected =
          NaiveCounts(column.data(), size, bucket_count);
      for (const SimdLevel level : SupportedSimdLevels()) {
        EXPECT_EQ(KernelCounts(column.data(), size, bucket_count, level), expected)
            << "size=" << size << " buckets=" << bucket_count
            << " level=" << SimdLevelName(level);
      }
    }
  }
}

TEST(SimdKernelTest, UnalignedBeginsCountIdentically) {
  // The screening kernel hands the vector path interior pointers (view.begin is rarely
  // a multiple of 16), so every misalignment must count like the aligned scan.
  const std::vector<uint8_t> column = MakeColumn(9000, 9, /*seed=*/42);
  for (const size_t offset : {1, 3, 7, 13, 15, 17, 31}) {
    const uint8_t* begin = column.data() + offset;
    const size_t size = column.size() - offset - 5;  // unaligned tail too
    const std::vector<uint64_t> expected = NaiveCounts(begin, size, 9);
    for (const SimdLevel level : SupportedSimdLevels()) {
      EXPECT_EQ(KernelCounts(begin, size, 9, level), expected)
          << "offset=" << offset << " level=" << SimdLevelName(level);
    }
  }
}

TEST(SimdKernelTest, AccumulatesIntoExistingCounts) {
  // CountBytesByValue adds into the caller's counts rather than overwriting them.
  const std::vector<uint8_t> column = MakeColumn(1000, 4, /*seed=*/7);
  for (const SimdLevel level : SupportedSimdLevels()) {
    std::vector<uint64_t> counts = {100, 200, 300, 400};
    CountBytesByValue(column.data(), column.size(), 4, counts.data(), level);
    const std::vector<uint64_t> fresh = NaiveCounts(column.data(), column.size(), 4);
    for (size_t v = 0; v < 4; ++v) {
      EXPECT_EQ(counts[v], fresh[v] + 100 * (v + 1)) << "bucket " << v;
    }
  }
}

TEST(SimdLevelTest, NamesRoundTrip) {
  for (const SimdLevel level : {SimdLevel::kScalar, SimdLevel::kSSE2, SimdLevel::kAVX2,
                                SimdLevel::kNEON, SimdLevel::kAVX512}) {
    EXPECT_EQ(ParseSimdLevel(SimdLevelName(level)), level);
  }
  EXPECT_EQ(ParseSimdLevel("auto"), SimdLevel::kAuto);
  EXPECT_EQ(ParseSimdLevel("bogus"), SimdLevel::kAuto);
  EXPECT_EQ(ParseSimdLevel(""), SimdLevel::kAuto);
}

TEST(SimdLevelTest, ResolveClampsToSupported) {
  // kAuto resolves to the best supported level; an explicit request the host cannot run
  // clamps down instead of dispatching an illegal instruction.
  const SimdLevel best = BestSupportedSimdLevel();
  EXPECT_EQ(ResolveSimdLevel(SimdLevel::kAuto), best);
  EXPECT_EQ(ResolveSimdLevel(SimdLevel::kScalar), SimdLevel::kScalar);
  EXPECT_EQ(ResolveSimdLevel(SimdLevel::kNEON) == SimdLevel::kNEON ||
                ResolveSimdLevel(SimdLevel::kNEON) == best,
            true);
}

TEST(SimdLevelTest, LevelsBelowTheBestAreHonored) {
  // A host that runs AVX-512 also runs AVX2 and SSE2: asking for a lower level must get
  // exactly that level (so SDC_SIMD=avx2 runs the AVX2 bodies), never the best one.
  const SimdLevel best = BestSupportedSimdLevel();
  if (best == SimdLevel::kAVX512) {
    EXPECT_EQ(ClampSimdLevel(SimdLevel::kAVX2), SimdLevel::kAVX2);
    EXPECT_EQ(ClampSimdLevel(SimdLevel::kSSE2), SimdLevel::kSSE2);
  }
  if (best == SimdLevel::kAVX2) {
    EXPECT_EQ(ClampSimdLevel(SimdLevel::kAVX512), SimdLevel::kAVX2);
    EXPECT_EQ(ClampSimdLevel(SimdLevel::kSSE2), SimdLevel::kSSE2);
  }
  ASSERT_EQ(setenv("SDC_SIMD", "avx2", /*overwrite=*/1), 0);
  const SimdLevel from_env = ResolveSimdLevel(SimdLevel::kAuto);
  ASSERT_EQ(unsetenv("SDC_SIMD"), 0);
  EXPECT_EQ(from_env, best == SimdLevel::kAVX2 || best == SimdLevel::kAVX512
                          ? SimdLevel::kAVX2
                          : best);
  for (const SimdLevel level : SupportedSimdLevels()) {
    EXPECT_EQ(ClampSimdLevel(level), level) << SimdLevelName(level);
  }
}

TEST(SimdLevelTest, EnvironmentVariableForcesLevel) {
  // SDC_SIMD wins over the config request: the CI scalar leg and ad-hoc triage both
  // rely on flipping the dispatch without a rebuild.
  ASSERT_EQ(setenv("SDC_SIMD", "scalar", /*overwrite=*/1), 0);
  EXPECT_EQ(ResolveSimdLevel(SimdLevel::kAuto), SimdLevel::kScalar);
  EXPECT_EQ(ResolveSimdLevel(BestSupportedSimdLevel()), SimdLevel::kScalar);
  ASSERT_EQ(setenv("SDC_SIMD", "auto", 1), 0);
  EXPECT_EQ(ResolveSimdLevel(SimdLevel::kScalar), BestSupportedSimdLevel());
  // Unrecognized values leave the request untouched rather than silently changing it.
  ASSERT_EQ(setenv("SDC_SIMD", "bogus", 1), 0);
  EXPECT_EQ(ResolveSimdLevel(SimdLevel::kScalar), SimdLevel::kScalar);
  ASSERT_EQ(unsetenv("SDC_SIMD"), 0);
}

// ----- generate -> screen integration: dispatch level must never move a bit ---------

class SimdScreeningTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { suite_ = new TestSuite(TestSuite::BuildFull()); }
  static void TearDownTestSuite() {
    delete suite_;
    suite_ = nullptr;
  }

  // Generates the fleet and screens it on one context at `simd`.
  static ScreeningStats Screen(const PopulationConfig& config, SimdLevel simd,
                               int threads = 2) {
    ScreeningPipeline pipeline(suite_);
    EngineContext context(EngineOptions{.threads = threads, .simd = simd});
    const FleetPopulation fleet = FleetPopulation::Generate(config, context);
    return pipeline.Run(fleet, ScreeningConfig{}, context);
  }

  static void ExpectIdentical(const ScreeningStats& a, const ScreeningStats& b) {
    EXPECT_EQ(IdenticalStats(a, b), "");
  }

  static TestSuite* suite_;
};

TestSuite* SimdScreeningTest::suite_ = nullptr;

TEST_F(SimdScreeningTest, ScalarAndVectorScreenIdentically) {
  // 4097 processors: spans two screening shards with a 1-processor tail, and one
  // generation shard that leaves seven lanes of the group idle.
  PopulationConfig config;
  config.processor_count = 4097;
  config.seed = 99;
  const ScreeningStats scalar = Screen(config, SimdLevel::kScalar);
  ExpectIdentical(Screen(config, SimdLevel::kAuto), scalar);
  for (const SimdLevel level : SupportedSimdLevels()) {
    SCOPED_TRACE(SimdLevelName(level));
    ExpectIdentical(Screen(config, level), scalar);
  }
  EXPECT_EQ(scalar.tested, 4097u);
}

TEST_F(SimdScreeningTest, AllFaultyFleetScreensIdentically) {
  // detected_rate == detectability makes prevalence 1: every serial is faulty, so the
  // generator takes its per-processor loop and the faulty loop dominates screening. The
  // dispatch level still must not matter.
  PopulationConfig config;
  config.processor_count = 20000;
  config.seed = 7;
  config.detected_rate.fill(config.detectability);
  const ScreeningStats scalar = Screen(config, SimdLevel::kScalar);
  EXPECT_EQ(scalar.faulty, 20000u);
  ExpectIdentical(Screen(config, SimdLevel::kAuto), scalar);
  EXPECT_GT(scalar.total_detected(), 0u);
}

TEST_F(SimdScreeningTest, ZeroFaultyFleetScreensIdentically) {
  // detected_rate == 0 makes every serial clean: screening is only the tested counts.
  PopulationConfig config;
  config.processor_count = 20001;  // odd size: unaligned tail in every column
  config.seed = 7;
  config.detected_rate.fill(0.0);
  const ScreeningStats scalar = Screen(config, SimdLevel::kScalar);
  EXPECT_EQ(scalar.faulty, 0u);
  EXPECT_EQ(scalar.tested, 20001u);
  EXPECT_EQ(scalar.total_detected(), 0u);
  ExpectIdentical(Screen(config, SimdLevel::kAuto), scalar);
}

TEST_F(SimdScreeningTest, EnvOverrideForcesScalarInPipeline) {
  // With SDC_SIMD=scalar the auto-dispatched run must equal the explicit scalar run --
  // trivially bitwise, but this pins that the engine actually consults the resolver.
  PopulationConfig config;
  config.processor_count = 30000;
  config.seed = 13;
  const ScreeningStats baseline = Screen(config, SimdLevel::kAuto);
  ASSERT_EQ(setenv("SDC_SIMD", "scalar", 1), 0);
  const ScreeningStats forced = Screen(config, SimdLevel::kAuto);
  ASSERT_EQ(unsetenv("SDC_SIMD"), 0);
  ExpectIdentical(forced, baseline);
  EXPECT_GT(baseline.total_detected(), 0u);
}

TEST_F(SimdScreeningTest, BatchedScreenIgnoresDispatchLevelBitwise) {
  // The batched engine shares one generation pass across scenarios; its level choice
  // must be invisible in the output too.
  PopulationConfig config;
  config.processor_count = 30000;
  config.seed = 21;
  ScreeningPipeline pipeline(suite_);
  const auto run_batch = [&](SimdLevel simd) {
    ScenarioBatch batch;
    for (int k = 0; k < 3; ++k) {
      ScreeningConfig scenario;
      scenario.seed = 77 + static_cast<uint64_t>(k);
      batch.scenarios.push_back(scenario);
    }
    EngineContext context(EngineOptions{.threads = 2, .simd = simd});
    const FleetPopulation fleet = FleetPopulation::Generate(config, context);
    return pipeline.RunBatch(fleet, batch, context);
  };
  const std::vector<ScreeningStats> scalar = run_batch(SimdLevel::kScalar);
  const std::vector<ScreeningStats> automatic = run_batch(SimdLevel::kAuto);
  ASSERT_EQ(scalar.size(), automatic.size());
  for (size_t k = 0; k < scalar.size(); ++k) {
    SCOPED_TRACE("scenario " + std::to_string(k));
    ExpectIdentical(automatic[k], scalar[k]);
  }
}

}  // namespace
}  // namespace sdc
