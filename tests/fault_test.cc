// Unit tests for src/fault: defect activation model, damage model, injector, catalog.

#include <bit>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "src/common/stats.h"
#include "src/fault/catalog.h"
#include "src/fault/defect.h"
#include "src/fault/injector.h"
#include "src/fault/machine.h"

namespace sdc {
namespace {

Defect SimpleDefect() {
  Defect defect;
  defect.id = "test";
  defect.feature = Feature::kFpu;
  defect.affected_ops = {OpKind::kFpMul};
  defect.affected_types = {DataType::kFloat64};
  defect.min_trigger_celsius = 50.0;
  defect.base_log10_rate = -9.0;
  defect.temp_slope = 0.15;
  defect.intensity_ref = 1e8;
  defect.intensity_exponent = 0.5;
  defect.pattern_probability = 0.0;
  return defect;
}

TEST(DefectTest, NoActivationBelowTrigger) {
  const Defect defect = SimpleDefect();
  EXPECT_EQ(defect.RatePerOp(49.9, 1e8, 0), 0.0);
  EXPECT_GT(defect.RatePerOp(50.1, 1e8, 0), 0.0);
}

TEST(DefectTest, ExponentialTemperatureGrowth) {
  const Defect defect = SimpleDefect();
  const double rate_low = defect.RatePerOp(52.0, 1e8, 0);
  const double rate_high = defect.RatePerOp(62.0, 1e8, 0);
  // 10C x 0.15 decades/C = 1.5 decades.
  EXPECT_NEAR(rate_high / rate_low, std::pow(10.0, 1.5), std::pow(10.0, 1.5) * 0.01);
}

TEST(DefectTest, UsageStressIncreasesRate) {
  const Defect defect = SimpleDefect();
  const double nominal = defect.RatePerOp(55.0, 1e8, 0);
  const double stressed = defect.RatePerOp(55.0, 4e8, 0);
  const double lighter = defect.RatePerOp(55.0, 0.25e8, 0);
  EXPECT_NEAR(stressed / nominal, 2.0, 0.01);   // sqrt(4)
  EXPECT_NEAR(lighter / nominal, 0.5, 0.01);    // sqrt(1/4)
}

TEST(DefectTest, UnknownIntensityIsNeutral) {
  const Defect defect = SimpleDefect();
  EXPECT_DOUBLE_EQ(defect.RatePerOp(55.0, 0.0, 0), defect.RatePerOp(55.0, 1e8, 0));
}

TEST(DefectTest, FrequencyCapBoundsExtrapolation) {
  Defect defect = SimpleDefect();
  defect.base_log10_rate = -4.0;  // absurdly hot defect
  const double frequency = defect.OccurrenceFrequencyPerMinute(90.0, 1e8, 0);
  EXPECT_LE(frequency, 2000.0 * 1.001);
}

TEST(DefectTest, PcoreScaleSelectsCores) {
  Defect defect = SimpleDefect();
  defect.affected_pcores = {3};
  EXPECT_EQ(defect.RatePerOp(55.0, 1e8, 0), 0.0);
  EXPECT_GT(defect.RatePerOp(55.0, 1e8, 3), 0.0);
}

TEST(DefectTest, AllCoreScaleSpread) {
  Defect defect = SimpleDefect();
  defect.pcore_rate_scale = {1.0, 0.001};
  const double fast = defect.RatePerOp(55.0, 1e8, 0);
  const double slow = defect.RatePerOp(55.0, 1e8, 1);
  EXPECT_NEAR(fast / slow, 1000.0, 1.0);
}

TEST(DefectTest, OccurrenceFrequencyUnits) {
  const Defect defect = SimpleDefect();
  const double rate = defect.RatePerOp(55.0, 1e8, 0);
  EXPECT_NEAR(defect.OccurrenceFrequencyPerMinute(55.0, 1e8, 0), rate * 1e8 * 60.0, 1e-9);
}

TEST(DefectTest, CorruptAlwaysChangesValue) {
  Defect defect = SimpleDefect();
  defect.pattern_probability = 0.5;
  Rng pattern_rng(3);
  defect.pattern_sets = {
      {DataType::kFloat64, {{MakePatternMask(DataType::kFloat64, 1, pattern_rng), 1.0}}}};
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const Word128 golden = BitsOfDouble(static_cast<double>(i) * 0.37 + 0.1);
    const Word128 corrupted = defect.Corrupt(golden, DataType::kFloat64, rng);
    EXPECT_NE(corrupted, golden);
  }
}

TEST(DefectTest, CorruptRespectsTypeWidth) {
  Defect defect = SimpleDefect();
  defect.pattern_probability = 0.0;
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    const Word128 golden = BitsOfRaw(0xab, 8);
    const Word128 corrupted = defect.Corrupt(golden, DataType::kByte, rng);
    EXPECT_EQ(corrupted.lo >> 8, 0u);  // nothing above bit 7
    EXPECT_EQ(corrupted.hi, 0u);
  }
}

TEST(DefectTest, StuckOneOnlyRaisesBits) {
  Defect defect = SimpleDefect();
  defect.semantics = FlipSemantics::kStuckOne;
  defect.pattern_probability = 1.0;
  Word128 mask;
  mask.SetBit(5, true);
  defect.pattern_sets = {{DataType::kInt32, {{mask, 1.0}}}};
  Rng rng(13);
  const Word128 golden = BitsOfInt32(0);  // bit 5 clear
  const Word128 corrupted = defect.Corrupt(golden, DataType::kInt32, rng);
  EXPECT_TRUE(corrupted.GetBit(5));
}

// The per-core loop Defect::ExpectedErrorsOverCores hoists its pow calls out of, kept as
// the oracle.
double PerCoreErrorLoop(const Defect& defect, double temperature, double ops_per_second,
                        int pcores, double minutes_per_core) {
  double expected = 0.0;
  for (int pcore = 0; pcore < pcores; ++pcore) {
    expected += defect.OccurrenceFrequencyPerMinute(temperature, ops_per_second, pcore) *
                minutes_per_core;
  }
  return expected;
}

void ExpectHoistedSumIsPerCoreLoop(const Defect& defect, int pcores) {
  for (double temperature : {20.0, 41.5, 50.0, 57.0, 66.0, 75.0, 140.0}) {
    for (double ops : {defect.intensity_ref, 1e6, 3.7e8, 0.0}) {
      for (double minutes : {0.25 / 60.0, 90.0 * 633.0 / 16.0 / 60.0}) {
        const double hoisted =
            defect.ExpectedErrorsOverCores(temperature, ops, pcores, minutes);
        EXPECT_EQ(std::bit_cast<uint64_t>(hoisted),
                  std::bit_cast<uint64_t>(
                      PerCoreErrorLoop(defect, temperature, ops, pcores, minutes)))
            << defect.id << " T=" << temperature << " ops=" << ops << " pcores=" << pcores;
      }
    }
  }
}

TEST(DefectTest, HoistedCoreSumIsBitwiseThePerCoreLoop) {
  Defect below = SimpleDefect();
  below.id = "below-trigger";
  below.min_trigger_celsius = 200.0;  // above every probed temperature
  ExpectHoistedSumIsPerCoreLoop(below, 16);
  EXPECT_EQ(below.ExpectedErrorsOverCores(75.0, 1e8, 16, 1.0), 0.0);

  Defect single = SimpleDefect();
  single.id = "single-core";
  single.affected_pcores = {5};
  single.pcore_rate_scale = {0.3};
  ExpectHoistedSumIsPerCoreLoop(single, 16);
  ExpectHoistedSumIsPerCoreLoop(single, 4);  // the affected core is absent
  EXPECT_GT(single.ExpectedErrorsOverCores(75.0, 1e8, 16, 1.0), 0.0);

  Defect all_cores = SimpleDefect();
  all_cores.id = "all-core-scaled";
  for (int pcore = 0; pcore < 24; ++pcore) {
    all_cores.pcore_rate_scale.push_back(std::pow(10.0, -0.11 * pcore));
  }
  ExpectHoistedSumIsPerCoreLoop(all_cores, 24);
  ExpectHoistedSumIsPerCoreLoop(all_cores, 32);  // cores past the scale table: 1.0

  // The fleet's own defects, at every arch's core count.
  Rng rng(91);
  for (int i = 0; i < 60; ++i) {
    const int arch = i % kArchCount;
    const int pcores = MakeArchSpec(arch).physical_cores;
    for (const Defect& defect : GenerateRandomDefects(rng, arch, pcores)) {
      ExpectHoistedSumIsPerCoreLoop(defect, pcores);
    }
  }
}

TEST(DefectTest, UnsealedFleetDefectCorruptsLikeSealed) {
  // Fleet generation leaves pattern CDFs unsealed (screening never corrupts); Corrupt
  // then re-sums the weights per pick. By the WeightedCdf contract that pick equals the
  // sealed one draw for draw, so a sealed copy must replay the identical sequence.
  Rng generator(53);
  int compared = 0;
  while (compared < 12) {
    const int arch = static_cast<int>(generator.NextBelow(kArchCount));
    for (const Defect& unsealed : GenerateRandomDefects(
             generator, arch, MakeArchSpec(arch).physical_cores)) {
      if (unsealed.pattern_sets.empty()) {
        continue;  // consistency defects have no data patterns
      }
      Defect sealed = unsealed;
      sealed.SealPatternCdfs();
      for (size_t set = 0; set < unsealed.pattern_sets.size(); ++set) {
        ASSERT_EQ(unsealed.pattern_sets[set].weight_cdf.size(), 0u);
        ASSERT_EQ(sealed.pattern_sets[set].weight_cdf.size(),
                  sealed.pattern_sets[set].patterns.size());
      }
      for (const PatternSet& set : unsealed.pattern_sets) {
        Rng unsealed_rng(1000 + compared);
        Rng sealed_rng(1000 + compared);
        for (int draw = 0; draw < 300; ++draw) {
          const Word128 golden = BitsOfRaw(0x5a5a5a5a5a5a5a5aull + draw, 64);
          ASSERT_EQ(unsealed.Corrupt(golden, set.type, unsealed_rng),
                    sealed.Corrupt(golden, set.type, sealed_rng))
              << unsealed.id << " draw " << draw;
        }
        EXPECT_EQ(unsealed_rng.Next(), sealed_rng.Next());
      }
      ++compared;
    }
  }
}

TEST(DefectTest, FloatFlipPositionsConcentrateInFraction) {
  Rng rng(17);
  int in_fraction = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    const int position = SampleFlipPosition(DataType::kFloat64, rng);
    ASSERT_GE(position, 0);
    ASSERT_LT(position, 64);
    in_fraction += position < FractionBits(DataType::kFloat64) ? 1 : 0;
  }
  // Observation 7: bitflips predominantly land in the fraction part.
  EXPECT_GT(static_cast<double>(in_fraction) / kSamples, 0.95);
}

TEST(DefectTest, NonNumericFlipPositionsUniform) {
  Rng rng(19);
  std::vector<int> counts(32, 0);
  constexpr int kSamples = 64000;
  for (int i = 0; i < kSamples; ++i) {
    ++counts[SampleFlipPosition(DataType::kBin32, rng)];
  }
  for (int bit = 0; bit < 32; ++bit) {
    EXPECT_NEAR(static_cast<double>(counts[bit]) / kSamples, 1.0 / 32.0, 0.01);
  }
}

TEST(DefectTest, PatternMaskHasRequestedFlipCount) {
  Rng rng(23);
  for (int flips = 1; flips <= 3; ++flips) {
    const Word128 mask = MakePatternMask(DataType::kFloat32, flips, rng);
    EXPECT_EQ(mask.Popcount(), flips);
  }
}

TEST(DefectTest, TypeClassification) {
  Defect computation = SimpleDefect();
  EXPECT_EQ(computation.type(), SdcType::kComputation);
  Defect consistency = SimpleDefect();
  consistency.feature = Feature::kCache;
  EXPECT_EQ(consistency.type(), SdcType::kConsistency);
  consistency.feature = Feature::kTxMem;
  EXPECT_EQ(consistency.type(), SdcType::kConsistency);
}

// --- Injector ---

TEST(InjectorTest, CorruptsOnlyMatchingOps) {
  Defect defect = SimpleDefect();
  defect.min_trigger_celsius = 0.0;
  defect.base_log10_rate = 0.0;  // certain activation
  DefectInjector injector({defect}, 5);
  Processor cpu(MakeArchSpec("M2"));
  cpu.SetCorruptionHook(&injector);
  cpu.SetTimeScale(1e8);  // lift the represented weight over the frequency cap
  cpu.thermal().ForceUniform(60.0);
  // Matching op/type corrupts.
  EXPECT_NE(cpu.ExecuteF64(0, OpKind::kFpMul, 1.5), 1.5);
  // Different op or datatype passes through.
  EXPECT_EQ(cpu.ExecuteF64(0, OpKind::kFpAdd, 1.5), 1.5);
  EXPECT_EQ(cpu.ExecuteF32(0, OpKind::kFpMul, 1.5f), 1.5f);
  EXPECT_GE(injector.total_activations(), 1u);
}

TEST(InjectorTest, SealsItsOwnDefectCopies) {
  Defect defect = SimpleDefect();
  Rng pattern_rng(3);
  defect.pattern_sets = {{DataType::kFloat64,
                          {{MakePatternMask(DataType::kFloat64, 1, pattern_rng), 1.0},
                           {MakePatternMask(DataType::kFloat64, 2, pattern_rng), 3.0}}}};
  const DefectInjector injector({defect}, 5);
  EXPECT_EQ(injector.defects().front().pattern_sets.front().weight_cdf.size(), 2u);
  EXPECT_EQ(defect.pattern_sets.front().weight_cdf.size(), 0u);
}

TEST(InjectorTest, OnsetGatesActivation) {
  Defect defect = SimpleDefect();
  defect.min_trigger_celsius = 0.0;
  defect.base_log10_rate = 0.0;
  defect.onset_months = 12.0;
  DefectInjector injector({defect}, 5);
  injector.set_age_months(6.0);
  Processor cpu(MakeArchSpec("M2"));
  cpu.SetCorruptionHook(&injector);
  cpu.SetTimeScale(1e8);
  EXPECT_EQ(cpu.ExecuteF64(0, OpKind::kFpMul, 1.5), 1.5);  // dormant
  injector.set_age_months(18.0);
  EXPECT_NE(cpu.ExecuteF64(0, OpKind::kFpMul, 1.5), 1.5);  // developed
}

TEST(InjectorTest, ActivationRateFollowsWeight) {
  Defect defect = SimpleDefect();
  defect.base_log10_rate = -6.0;
  defect.intensity_ref = 1e6;  // keeps the frequency cap above the configured rate
  DefectInjector injector({defect}, 5);
  Processor cpu(MakeArchSpec("M2"));
  cpu.SetCorruptionHook(&injector);
  cpu.SetTimeScale(1e4);  // probability per op ~ 1e-6 * 1e4 = 1e-2
  cpu.thermal().ForceUniform(defect.min_trigger_celsius);  // zero temperature excess
  constexpr int kOps = 100000;
  for (int i = 0; i < kOps; ++i) {
    cpu.ExecuteF64(0, OpKind::kFpMul, 1.0);
  }
  const double observed =
      static_cast<double>(injector.total_activations()) / static_cast<double>(kOps);
  EXPECT_NEAR(observed, 1e-2, 2e-3);
}


TEST(InjectorTest, UsageStressSeparatedFromTemperature) {
  // The Section 5 separation experiment: temperature pinned identical, only the execution
  // rate of the defective op differs -- the higher-rate run must activate more often per
  // op (stress factor = sqrt(intensity / reference)).
  auto activations_at_intensity = [](double target_intensity) {
    Defect defect = SimpleDefect();
    defect.base_log10_rate = -7.5;  // below the frequency cap, so the stress term shows
    defect.temp_slope = 0.0;
    defect.intensity_ref = 1e8;
    defect.intensity_exponent = 0.5;
    DefectInjector injector({defect}, 99);
    Processor cpu(MakeArchSpec("M2"));
    cpu.SetCorruptionHook(&injector);
    cpu.SetTimeScale(1e4);
    cpu.thermal().ForceUniform(defect.min_trigger_celsius + 1.0);
    constexpr int kBatches = 500;
    constexpr int kOpsPerBatch = 1000;
    for (int batch = 0; batch < kBatches; ++batch) {
      for (int i = 0; i < kOpsPerBatch; ++i) {
        cpu.ExecuteF64(0, OpKind::kFpMul, 1.25);
      }
      // dt chosen so ops * weight / dt equals the target intensity.
      cpu.AdvanceSeconds(kOpsPerBatch * cpu.time_scale() / target_intensity);
      cpu.thermal().ForceUniform(defect.min_trigger_celsius + 1.0);  // hold temperature
    }
    return injector.total_activations();
  };
  const uint64_t slow = activations_at_intensity(0.5e8);
  const uint64_t fast = activations_at_intensity(2.0e8);
  ASSERT_GT(slow, 50u);
  const double ratio = static_cast<double>(fast) / static_cast<double>(slow);
  EXPECT_GT(ratio, 1.6);  // sqrt(4) = 2 expected
  EXPECT_LT(ratio, 2.5);
}

TEST(InjectorTest, ResetCountersClears) {
  Defect defect = SimpleDefect();
  defect.min_trigger_celsius = 0.0;
  defect.base_log10_rate = 0.0;
  DefectInjector injector({defect}, 5);
  Processor cpu(MakeArchSpec("M2"));
  cpu.SetCorruptionHook(&injector);
  cpu.SetTimeScale(1e8);
  cpu.ExecuteF64(0, OpKind::kFpMul, 1.0);
  EXPECT_GT(injector.total_activations(), 0u);
  injector.ResetCounters();
  EXPECT_EQ(injector.total_activations(), 0u);
  EXPECT_EQ(injector.activations(0), 0u);
}

// --- Catalog ---

TEST(CatalogTest, HasTwentySevenProcessors) {
  EXPECT_EQ(StudyCatalog().size(), 27u);
}

TEST(CatalogTest, Table3NamesPresent) {
  const std::vector<std::string> names = {"MIX1", "MIX2", "SIMD1", "SIMD2", "FPU1",
                                          "FPU2", "FPU3", "FPU4", "CNST1", "CNST2"};
  for (const std::string& name : names) {
    const FaultyProcessorInfo info = FindInCatalog(name);
    EXPECT_EQ(info.cpu_id, name);
    EXPECT_FALSE(info.defects.empty());
  }
}

TEST(CatalogTest, OneSdcTypePerProcessor) {
  // Section 4.1: if a processor has multiple defective features, they share one type.
  for (const FaultyProcessorInfo& info : StudyCatalog()) {
    std::set<SdcType> types;
    for (const Defect& defect : info.defects) {
      types.insert(defect.type());
    }
    EXPECT_EQ(types.size(), 1u) << info.cpu_id;
  }
}

TEST(CatalogTest, ComputationConsistencySplitMatchesPaper) {
  int computation = 0;
  int consistency = 0;
  for (const FaultyProcessorInfo& info : StudyCatalog()) {
    (info.sdc_type() == SdcType::kComputation ? computation : consistency) += 1;
  }
  EXPECT_EQ(computation, 19);  // Section 4.1: 19 of 27
  EXPECT_EQ(consistency, 8);
}

TEST(CatalogTest, DefectivePcoreCounts) {
  EXPECT_EQ(FindInCatalog("MIX1").defective_pcore_count(), 16);
  EXPECT_EQ(FindInCatalog("SIMD1").defective_pcore_count(), 1);
  EXPECT_EQ(FindInCatalog("CNST2").defective_pcore_count(), 24);
}

TEST(CatalogTest, Mix1TrickyDefectMatchesSection5) {
  // Testcase C on MIX1 only reproduces above 59C.
  const FaultyProcessorInfo mix1 = FindInCatalog("MIX1");
  bool found = false;
  for (const Defect& defect : mix1.defects) {
    if (defect.id == "mix1-tricky-veccrc") {
      found = true;
      EXPECT_DOUBLE_EQ(defect.min_trigger_celsius, 59.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST(CatalogTest, DeterministicAcrossCalls) {
  const auto first = StudyCatalog();
  const auto second = StudyCatalog();
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].cpu_id, second[i].cpu_id);
    ASSERT_EQ(first[i].defects.size(), second[i].defects.size());
    for (size_t d = 0; d < first[i].defects.size(); ++d) {
      EXPECT_EQ(first[i].defects[d].min_trigger_celsius,
                second[i].defects[d].min_trigger_celsius);
      EXPECT_EQ(first[i].defects[d].base_log10_rate, second[i].defects[d].base_log10_rate);
    }
  }
}

TEST(CatalogTest, ArchSpecsCoverM1ToM9) {
  for (int arch = 0; arch < kArchCount; ++arch) {
    const ProcessorSpec spec = MakeArchSpec(arch);
    EXPECT_EQ(spec.arch, ArchName(arch));
    EXPECT_GT(spec.physical_cores, 0);
    EXPECT_GT(spec.frequency_ghz, 1.0);
  }
  EXPECT_EQ(MakeArchSpec("M3").physical_cores, MakeArchSpec(2).physical_cores);
}

TEST(CatalogTest, TriggerRateSamplingFollowsFig9Slope) {
  Rng rng(31);
  std::vector<double> triggers;
  std::vector<double> log_frequencies;
  for (int i = 0; i < 400; ++i) {
    double trigger = 0.0;
    double base_rate = 0.0;
    SampleTriggerAndRate(rng, 1e8, &trigger, &base_rate);
    EXPECT_GE(trigger, 40.0);
    EXPECT_LE(trigger, 75.0);
    triggers.push_back(trigger);
    log_frequencies.push_back(base_rate + std::log10(60.0 * 1e8));
  }
  // Figure 9: strong negative correlation between trigger temperature and frequency.
  EXPECT_LT(PearsonCorrelation(triggers, log_frequencies), -0.7);
}

TEST(CatalogTest, RandomDefectsAreSane) {
  Rng rng(37);
  for (int i = 0; i < 200; ++i) {
    const int arch = static_cast<int>(rng.NextBelow(kArchCount));
    const int pcores = MakeArchSpec(arch).physical_cores;
    const std::vector<Defect> defects = GenerateRandomDefects(rng, arch, pcores);
    ASSERT_FALSE(defects.empty());
    std::set<SdcType> types;
    for (const Defect& defect : defects) {
      types.insert(defect.type());
      EXPECT_FALSE(defect.affected_ops.empty());
      for (int pcore : defect.affected_pcores) {
        EXPECT_GE(pcore, 0);
        EXPECT_LT(pcore, pcores);
      }
    }
    EXPECT_EQ(types.size(), 1u);
  }
}

// --- FaultyMachine ---

TEST(MachineTest, HealthyMachineHasNoHook) {
  FaultyMachine machine(MakeArchSpec("M5"));
  EXPECT_EQ(machine.injector(), nullptr);
  EXPECT_EQ(machine.cpu().corruption_hook(), nullptr);
  EXPECT_EQ(machine.info().cpu_id, "healthy");
}

TEST(MachineTest, FaultyMachineWiresInjector) {
  FaultyMachine machine(FindInCatalog("FPU1"), 7);
  ASSERT_NE(machine.injector(), nullptr);
  EXPECT_EQ(machine.cpu().corruption_hook(), machine.injector());
  EXPECT_NEAR(machine.injector()->age_months(), 0.58 * 12.0, 1e-9);
}

TEST(MachineTest, SetAllCoreUtilization) {
  FaultyMachine machine(MakeArchSpec("M2"));
  machine.SetAllCoreUtilization(0.8);
  for (int pcore = 0; pcore < machine.cpu().spec().physical_cores; ++pcore) {
    EXPECT_DOUBLE_EQ(machine.cpu().core_utilization(pcore), 0.8);
  }
}

}  // namespace
}  // namespace sdc
