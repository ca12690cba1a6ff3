// Tests of the one-stream scalar specification (oracle.h: FillBlock, Skip,
// ClassifyDrawPairs) and of the fleet generator's lane kernel against it
// (GenerateClassifyLanes, src/common/simd.h). The contract is exact equality at every
// dispatch level this host runs: eight lanes stepped together must draw, classify and stop
// exactly as eight separate streams run through FillBlock + ClassifyDrawPairs would --
// lanes 4-7 included, which the AVX2 body steps in its second register set.
// Shapes a sampled stream rarely hits -- draws on a bound or threshold, several lanes
// faulty at one step, faults on idle lanes -- come from streams whose first two draws are
// chosen (StreamDrawing).

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/simd.h"
#include "tests/oracle/oracle.h"

namespace sdc {
namespace {

constexpr unsigned kAllLanes = (1u << kGenerateLanes) - 1;

using LaneStreams = std::array<Rng, kGenerateLanes>;

// One stream per lane, lane `lane` being stream_of(lane).
template <typename StreamOf>
LaneStreams StreamsOf(StreamOf stream_of) {
  return [&]<size_t... kLane>(std::index_sequence<kLane...>) {
    return LaneStreams{stream_of(kLane)...};
  }(std::make_index_sequence<kGenerateLanes>{});
}

// ClassifyDrawPairs' contract written independently of its branchless form.
size_t NaiveClassify(const uint64_t* draws, size_t count, const DrawClassifyTables& tables,
                     uint8_t* class_out, uint64_t* faulty_bits) {
  std::memset(faulty_bits, 0, ((count + 63) / 64) * sizeof(uint64_t));
  size_t hits = 0;
  for (size_t i = 0; i < count; ++i) {
    const uint64_t a = draws[2 * i] >> 11;
    int cls = 0;
    while (cls < tables.class_count - 1 && tables.cdf_bounds_u53[cls] <= a) {
      ++cls;
    }
    class_out[i] = static_cast<uint8_t>(cls);
    if ((draws[2 * i + 1] >> 11) < tables.fault_thresholds_u53[cls]) {
      faulty_bits[i / 64] |= uint64_t{1} << (i % 64);
      ++hits;
    }
  }
  return hits;
}

DrawClassifyTables MakeTables(int class_count, std::span<const uint64_t> bounds,
                              std::span<const uint64_t> thresholds) {
  DrawClassifyTables tables;
  tables.class_count = class_count;
  for (int i = 0; i < kMaxClassifyClasses - 1; ++i) {
    tables.cdf_bounds_u53[i] =
        i < static_cast<int>(bounds.size()) ? bounds[static_cast<size_t>(i)] : kClassifyNever;
  }
  tables.fault_threshold_max_u53 = 0;  // tight, as GenerationPlan fills it
  for (int i = 0; i < kMaxClassifyClasses; ++i) {
    tables.fault_thresholds_u53[i] =
        i < static_cast<int>(thresholds.size()) ? thresholds[static_cast<size_t>(i)] : 0;
    tables.fault_threshold_max_u53 =
        std::max(tables.fault_threshold_max_u53, tables.fault_thresholds_u53[i]);
  }
  return tables;
}

// Multiplicative inverse of an odd number mod 2^64 (Newton's iteration doubles the
// correct low bits each round, starting from 3).
uint64_t InverseOdd(uint64_t x) {
  uint64_t inverse = x;
  for (int i = 0; i < 6; ++i) {
    inverse *= 2 - x * inverse;
  }
  return inverse;
}

// The state word s1 for which Rng::Next() returns `raw`: Next returns
// rotl(s1 * 5, 7) * 9, and every step of that is invertible.
uint64_t WordFor(uint64_t raw) {
  const uint64_t rotated = raw * InverseOdd(9);
  return ((rotated >> 7) | (rotated << 57)) * InverseOdd(5);
}

// A stream whose first two raw draws are `a` then `f`. One step turns s1 into
// s1 ^ s2 ^ s0, so with s0 = 0 the second draw is set through s2.
Rng StreamDrawing(uint64_t a, uint64_t f) {
  const uint64_t first = WordFor(a);
  Rng rng(0);
  rng.SetState({0, first, first ^ WordFor(f), 0x9e3779b97f4a7c15ull});
  return rng;
}

XoshiroLanes LanesOf(const LaneStreams& streams) {
  XoshiroLanes lanes;
  for (int lane = 0; lane < kGenerateLanes; ++lane) {
    const Rng::StateWords words = streams[static_cast<size_t>(lane)].State();
    for (size_t w = 0; w < words.size(); ++w) {
      lanes.words[w][lane] = words[w];
    }
  }
  return lanes;
}

Rng::StateWords StateOfLane(const XoshiroLanes& lanes, int lane) {
  Rng::StateWords words;
  for (size_t w = 0; w < words.size(); ++w) {
    words[w] = lanes.words[w][lane];
  }
  return words;
}

struct LaneOutput {
  std::vector<uint8_t> classes;
  std::vector<uint64_t> bits;
  size_t hits = 0;
  Rng::StateWords state{};
};

// The spec: each stream's 2 * steps draws through FillBlock, then ClassifyDrawPairs.
LaneOutput SpecOutput(Rng stream, size_t steps, const DrawClassifyTables& tables) {
  LaneOutput out;
  std::vector<uint64_t> draws(2 * steps);
  FillBlock(stream, std::span<uint64_t>(draws));
  out.classes.resize(steps);
  out.bits.resize((steps + 63) / 64);
  out.hits = ClassifyDrawPairs(draws.data(), steps, tables, out.classes.data(),
                               out.bits.data());
  out.state = stream.State();
  return out;
}

// The kernel with every lane active over `steps` steps, resumed after every stop as the
// fleet generator resumes it.
std::array<LaneOutput, kGenerateLanes> KernelOutput(
    const LaneStreams& streams, size_t steps,
    const DrawClassifyTables& tables, SimdLevel level) {
  std::array<LaneOutput, kGenerateLanes> out;
  uint8_t* class_out[kGenerateLanes];
  for (int lane = 0; lane < kGenerateLanes; ++lane) {
    LaneOutput& lane_out = out[static_cast<size_t>(lane)];
    lane_out.classes.assign(steps, 0xee);
    lane_out.bits.assign((steps + 63) / 64, 0);
    class_out[lane] = lane_out.classes.data();
  }
  XoshiroLanes lanes = LanesOf(streams);
  size_t step = 0;
  while (step < steps) {
    unsigned faulty = 0xdead;
    const size_t next =
        GenerateClassifyLanes(lanes, kAllLanes, step, steps, tables, class_out, &faulty,
                              level);
    EXPECT_GT(next, step);
    EXPECT_TRUE(faulty != 0 || next == steps) << "stopped early without a hit";
    step = next;
    for (; faulty != 0; faulty &= faulty - 1) {
      LaneOutput& lane_out = out[static_cast<size_t>(__builtin_ctz(faulty))];
      lane_out.bits[(step - 1) / 64] |= uint64_t{1} << ((step - 1) % 64);
      ++lane_out.hits;
    }
  }
  for (int lane = 0; lane < kGenerateLanes; ++lane) {
    out[static_cast<size_t>(lane)].state = StateOfLane(lanes, lane);
  }
  return out;
}

void ExpectKernelMatchesSpec(const LaneStreams& streams, size_t steps,
                             const DrawClassifyTables& tables, const char* what) {
  for (const SimdLevel level : SupportedSimdLevels()) {
    const auto actual = KernelOutput(streams, steps, tables, level);
    for (int lane = 0; lane < kGenerateLanes; ++lane) {
      const LaneOutput expected = SpecOutput(streams[static_cast<size_t>(lane)], steps, tables);
      const LaneOutput& got = actual[static_cast<size_t>(lane)];
      EXPECT_EQ(got.hits, expected.hits)
          << what << " steps=" << steps << " lane=" << lane << " " << SimdLevelName(level);
      EXPECT_EQ(got.classes, expected.classes)
          << what << " steps=" << steps << " lane=" << lane << " " << SimdLevelName(level);
      EXPECT_EQ(got.bits, expected.bits)
          << what << " steps=" << steps << " lane=" << lane << " " << SimdLevelName(level);
      EXPECT_EQ(got.state, expected.state)
          << what << " steps=" << steps << " lane=" << lane << " " << SimdLevelName(level);
    }
  }
}

TEST(RngTest, FillBlockMatchesNextSequence) {
  Rng bulk(37);
  Rng serial(37);
  uint64_t draws[257];
  FillBlock(bulk, std::span<uint64_t>(draws, 257));  // odd size: exercises no alignment
  for (uint64_t draw : draws) {
    EXPECT_EQ(draw, serial.Next());
  }
  // Split fills continue the same stream.
  FillBlock(bulk, std::span<uint64_t>(draws, 3));
  FillBlock(bulk, std::span<uint64_t>(draws + 3, 5));
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(draws[i], serial.Next());
  }
  EXPECT_EQ(bulk.Next(), serial.Next());
}

TEST(RngTest, SkipMatchesDiscardedNexts) {
  Rng skipped(41);
  Rng drained(41);
  Skip(skipped, 0);
  EXPECT_EQ(skipped.Next(), drained.Next());
  Skip(skipped, 129);
  for (int i = 0; i < 129; ++i) {
    (void)drained.Next();
  }
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(skipped.Next(), drained.Next());
  }
}

TEST(RngTest, SetStateKeepsTheGaussianCache) {
  // The lane kernel hands a stream's words back through SetState between defect draws;
  // a Box-Muller partner cached before must survive, exactly as if Next() had run.
  Rng through_kernel(43);
  Rng direct(43);
  (void)through_kernel.NextGaussian();
  (void)direct.NextGaussian();
  Rng stepped = through_kernel;
  Skip(stepped, 10);
  through_kernel.SetState(stepped.State());
  Skip(direct, 10);
  EXPECT_EQ(through_kernel.NextGaussian(), direct.NextGaussian());
  EXPECT_EQ(through_kernel.Next(), direct.Next());
}

TEST(SimdClassifyTest, AllLevelsMatchNaiveOnAdversarialShapes) {
  // Step counts bracketing the kernel's 8-step class store and the 64-pair faulty_bits
  // word boundary. Every threshold regime appears, so the kernel stops and resumes often.
  const size_t counts[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 127, 128, 129, 511, 4099};
  const uint64_t b = uint64_t{1} << 50;
  const std::vector<uint64_t> bounds = {b, 2 * b, 3 * b, 5 * b, 5 * b,  // duplicate: empty class
                                        6 * b, 7 * b, 7 * b + 1};
  // Mix of never (0), always (kClassifyNever covers all u53), and interior thresholds.
  const std::vector<uint64_t> thresholds = {0, uint64_t{1} << 40, kClassifyNever,
                                            1, b, 0, uint64_t{1} << 52, 3, b / 3};
  const DrawClassifyTables tables = MakeTables(9, bounds, thresholds);
  for (const size_t count : counts) {
    Rng rng(count * 977 + 5);
    std::vector<uint64_t> draws(2 * count);
    FillBlock(rng, std::span<uint64_t>(draws));
    std::vector<uint8_t> expected_class(count + 1, 0xee);
    std::vector<uint64_t> expected_bits((count + 63) / 64 + 1, 0xeeee);
    const size_t expected_hits = NaiveClassify(draws.data(), count, tables,
                                               expected_class.data(), expected_bits.data());
    std::vector<uint8_t> actual_class(count + 1, 0xee);
    std::vector<uint64_t> actual_bits((count + 63) / 64 + 1, 0xeeee);
    actual_bits.back() = expected_bits.back();  // only (count+63)/64 words are touched
    const size_t hits = ClassifyDrawPairs(draws.data(), count, tables,
                                          actual_class.data(), actual_bits.data());
    EXPECT_EQ(hits, expected_hits) << "count=" << count;
    EXPECT_EQ(actual_class, expected_class) << "count=" << count;
    EXPECT_EQ(actual_bits, expected_bits) << "count=" << count;

    // The same stream in lane 0 of the kernel, beside seven others.
    const LaneStreams streams = StreamsOf(
        [&](size_t lane) { return lane == 0 ? Rng(count * 977 + 5) : Rng(count + lane); });
    ExpectKernelMatchesSpec(streams, count, tables, "adversarial");
  }
}

TEST(SimdClassifyTest, BoundaryDrawsClassifyExactly) {
  // Draws landing exactly on a bound or threshold are the cases a sampled test misses:
  // bound - 1 stays below, bound crosses; threshold - 1 is faulty, threshold is not.
  const uint64_t bound = 0x123456789abcdull;
  const uint64_t threshold = 0x000fedcba9876ull;
  const DrawClassifyTables tables =
      MakeTables(2, std::vector<uint64_t>{bound},
                 std::vector<uint64_t>{threshold, threshold});
  const uint64_t max_u53 = (uint64_t{1} << 53) - 1;
  const uint64_t pairs[][2] = {
      {(bound - 1) << 11, (threshold - 1) << 11},  // class 0, faulty
      {bound << 11, threshold << 11},              // class 1, clean
      {0, 0},                                      // class 0, faulty iff threshold > 0
      {max_u53 << 11 | 0x7ff, max_u53 << 11 | 0x7ff},  // max draw, low bits set
  };
  for (const auto& pair : pairs) {
    Rng crafted = StreamDrawing(pair[0], pair[1]);
    ASSERT_EQ(crafted.Next(), pair[0]);
    ASSERT_EQ(crafted.Next(), pair[1]);
    uint8_t cls = 0;
    uint64_t bits = 0;
    ASSERT_EQ(ClassifyDrawPairs(&pair[0], 1, tables, &cls, &bits),
              NaiveClassify(&pair[0], 1, tables, &cls, &bits));
  }
  // Every pair in every lane position.
  for (size_t rotation = 0; rotation < kGenerateLanes; ++rotation) {
    const LaneStreams streams = StreamsOf([&](size_t lane) {
      const auto& pair = pairs[(lane + rotation) % std::size(pairs)];
      return StreamDrawing(pair[0], pair[1]);
    });
    ExpectKernelMatchesSpec(streams, 1, tables, "boundary");
  }
}

TEST(SimdClassifyTest, QuickRejectCandidatesResolveAgainstTheirOwnClass) {
  // The kernels test f < fault_threshold_max_u53 once per step and resolve only the
  // lanes below it exactly. A lane below the max but at or above its own class's
  // threshold is a candidate that must come out clean; a lane below its own threshold
  // must come out faulty; every (class, fault draw) pair runs in every lane position.
  const uint64_t bound = uint64_t{1} << 52;
  const uint64_t low = uint64_t{1} << 30;   // class 0's threshold
  const uint64_t high = uint64_t{1} << 45;  // class 1's threshold: the max
  DrawClassifyTables tables =
      MakeTables(2, std::vector<uint64_t>{bound}, std::vector<uint64_t>{low, high});
  ASSERT_EQ(tables.fault_threshold_max_u53, high);
  const uint64_t a_values[] = {bound - 1, bound};                  // class 0, class 1
  const uint64_t f_values[] = {low - 1, low, high - 1, high, 0};  // around both thresholds
  std::vector<std::array<uint64_t, 2>> pairs;
  for (const uint64_t a : a_values) {
    for (const uint64_t f : f_values) {
      pairs.push_back({a << 11, f << 11});
    }
  }
  size_t expected_faulty = 0;
  for (const auto& pair : pairs) {
    uint8_t cls = 0;
    uint64_t bits = 0;
    expected_faulty += NaiveClassify(pair.data(), 1, tables, &cls, &bits);
  }
  ASSERT_GT(expected_faulty, 0u);
  for (const uint64_t max_bound : {high, kClassifyNever}) {  // tight, and no reject
    tables.fault_threshold_max_u53 = max_bound;
    for (size_t first = 0; first < pairs.size(); ++first) {
      const LaneStreams streams = StreamsOf([&](size_t lane) {
        const auto& pair = pairs[(first + lane) % pairs.size()];
        return StreamDrawing(pair[0], pair[1]);
      });
      ExpectKernelMatchesSpec(streams, 1, tables, "quick reject");
    }
  }
}

TEST(SimdClassifyTest, SingleClassAndExtremes) {
  // class_count = 1 (no bounds consulted) with always/never thresholds.
  for (const uint64_t threshold : {uint64_t{0}, kClassifyNever}) {
    const DrawClassifyTables tables =
        MakeTables(1, {}, std::vector<uint64_t>{threshold});
    Rng rng(61);
    std::vector<uint64_t> draws(2 * 100);
    FillBlock(rng, std::span<uint64_t>(draws));
    std::vector<uint8_t> classes(100);
    std::vector<uint64_t> bits(2);
    const size_t hits =
        ClassifyDrawPairs(draws.data(), 100, tables, classes.data(), bits.data());
    EXPECT_EQ(hits, threshold == 0 ? 0u : 100u);
    for (uint8_t cls : classes) {
      ASSERT_EQ(cls, 0);
    }
    const LaneStreams streams = StreamsOf([](size_t lane) { return Rng(61 + lane); });
    ExpectKernelMatchesSpec(streams, 100, tables, "single class");
  }
}

TEST(SimdLaneKernelTest, SeveralLanesFaultyAtOneStepStopTogether) {
  // The chosen lanes are faulty at step 5 and the rest clean: one stop reports exactly
  // the faulty set, and every stream sits just past that step's two draws. The sets cover
  // both halves of the lane group (the AVX2 body's two register sets) alone and together.
  const uint64_t bound = uint64_t{1} << 52;
  const uint64_t threshold = uint64_t{1} << 40;
  const DrawClassifyTables tables =
      MakeTables(2, std::vector<uint64_t>{bound}, std::vector<uint64_t>{threshold, threshold});
  const uint64_t faulty_pair[2] = {(bound + 7) << 11, (threshold - 1) << 11};
  const uint64_t clean_pair[2] = {3 << 11, threshold << 11};
  for (const unsigned faulty_set : {kAllLanes & ~0b10u, 0b10100000u, 0b10000000u, 0b00010001u}) {
    const LaneStreams streams = StreamsOf([&](size_t lane) {
      const uint64_t* pair = (faulty_set >> lane & 1u) != 0 ? faulty_pair : clean_pair;
      return StreamDrawing(pair[0], pair[1]);
    });
    for (const SimdLevel level : SupportedSimdLevels()) {
      XoshiroLanes lanes = LanesOf(streams);
      std::array<std::vector<uint8_t>, kGenerateLanes> classes;
      uint8_t* class_out[kGenerateLanes];
      for (int lane = 0; lane < kGenerateLanes; ++lane) {
        classes[static_cast<size_t>(lane)].assign(16, 0xee);
        class_out[lane] = classes[static_cast<size_t>(lane)].data();
      }
      // Starting at step 5, the crafted first draws land at index 5.
      unsigned faulty = 0;
      EXPECT_EQ(
          GenerateClassifyLanes(lanes, kAllLanes, 5, 16, tables, class_out, &faulty, level),
          6u)
          << SimdLevelName(level);
      EXPECT_EQ(faulty, faulty_set) << SimdLevelName(level);
      for (int lane = 0; lane < kGenerateLanes; ++lane) {
        const auto index = static_cast<size_t>(lane);
        EXPECT_EQ(classes[index][5], (faulty_set >> lane & 1u) != 0 ? 1 : 0)
            << "lane " << lane << ", " << SimdLevelName(level);
        EXPECT_EQ(classes[index][6], 0xee) << "stored past the stop, " << SimdLevelName(level);
        Rng expected = streams[index];
        Skip(expected, 2);
        EXPECT_EQ(StateOfLane(lanes, lane), expected.State()) << SimdLevelName(level);
      }
    }
  }
}

TEST(SimdLaneKernelTest, IdleLanesStoreNothingAndTheirFaultsAreIgnored) {
  // Class 1 is always faulty and class 0 never. The idle lanes draw class 1 -- a junk hit
  // at step 0 -- while the one active lane draws class 0: the kernel must run to the end
  // without a stop and leave the idle lanes' outputs untouched. The active lane sits in
  // the lower half, then in the upper half of the group.
  const uint64_t bound = uint64_t{1} << 52;
  const DrawClassifyTables tables = MakeTables(
      2, std::vector<uint64_t>{bound}, std::vector<uint64_t>{0, kClassifyNever});
  for (const int active_lane : {0, 5}) {
    const unsigned active = 1u << active_lane;
    const LaneStreams streams = StreamsOf([&](size_t lane) {
      return static_cast<int>(lane) == active_lane ? StreamDrawing(0, 0)
                                                   : StreamDrawing(bound << 11, 0);
    });
    for (const SimdLevel level : SupportedSimdLevels()) {
      XoshiroLanes lanes = LanesOf(streams);
      std::array<std::vector<uint8_t>, kGenerateLanes> classes;
      uint8_t* class_out[kGenerateLanes];
      for (int lane = 0; lane < kGenerateLanes; ++lane) {
        classes[static_cast<size_t>(lane)].assign(1, 0xee);
        class_out[lane] = classes[static_cast<size_t>(lane)].data();
      }
      unsigned faulty = 0xdead;
      EXPECT_EQ(GenerateClassifyLanes(lanes, active, 0, 1, tables, class_out, &faulty, level),
                1u)
          << SimdLevelName(level);
      EXPECT_EQ(faulty, 0u) << SimdLevelName(level);
      for (int lane = 0; lane < kGenerateLanes; ++lane) {
        EXPECT_EQ(classes[static_cast<size_t>(lane)][0], lane == active_lane ? 0 : 0xee)
            << "lane " << lane << ", " << SimdLevelName(level);
      }
      // With every lane active the same draws stop at step 0 on all the other lanes.
      lanes = LanesOf(streams);
      EXPECT_EQ(
          GenerateClassifyLanes(lanes, kAllLanes, 0, 1, tables, class_out, &faulty, level),
          1u);
      EXPECT_EQ(faulty, kAllLanes & ~active) << SimdLevelName(level);
    }
  }
}

}  // namespace
}  // namespace sdc
