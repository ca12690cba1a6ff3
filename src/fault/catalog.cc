#include "src/fault/catalog.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <set>

namespace sdc {
namespace {

// Nominal rate (ops/second) at which a stress testcase executes the op kinds a defect
// affects; converts occurrence frequency per minute into per-op probability.
constexpr double kComputeOpsPerSecond = 1e8;
// Shared-memory handoffs and transaction commits are far less frequent than scalar ops.
constexpr double kConsistencyOpsPerSecond = 1e6;

// Figure 9 calibration: log10(frequency/min at the trigger temperature) falls linearly with
// the trigger temperature.
constexpr double kFig9InterceptAt40C = 1.5;
constexpr double kFig9SlopePerC = -0.13;

double BaseRateFor(double frequency_per_minute, double ops_per_second) {
  return std::log10(frequency_per_minute / (60.0 * ops_per_second));
}

std::vector<double> LogSpreadScales(Rng& rng, int count, double decades) {
  // Scale factors spanning `decades` orders of magnitude, shuffled so the fastest-failing
  // core is not always pcore 0 (Observation 4: same testcases, very different frequencies).
  std::vector<double> scales(count);
  for (int i = 0; i < count; ++i) {
    const double exponent =
        count > 1 ? -decades * static_cast<double>(i) / static_cast<double>(count - 1) : 0.0;
    scales[i] = std::pow(10.0, exponent);
  }
  for (int i = count - 1; i > 0; --i) {
    std::swap(scales[i], scales[rng.NextBelow(static_cast<uint64_t>(i + 1))]);
  }
  return scales;
}

std::vector<BitflipPattern> MakePatterns(Rng& rng, DataType type, int count) {
  std::vector<BitflipPattern> patterns;
  patterns.reserve(count);
  for (int i = 0; i < count; ++i) {
    // The dominant pattern is single-bit; secondary patterns are sometimes 2-bit and
    // occasionally 3-bit, producing Figure 7's flip-count mix.
    int flips = 1;
    if (i > 0) {
      const double draw = rng.NextDouble();
      if (draw > 0.92) {
        flips = 3;
      } else if (draw > 0.60) {
        flips = 2;
      }
    }
    const double weight = i == 0 ? 2.0 + rng.NextDouble() : 0.2 + 0.5 * rng.NextDouble();
    patterns.push_back({MakePatternMask(type, flips, rng), weight});
  }
  return patterns;
}

struct ComputationDefectParams {
  std::string id;
  std::vector<OpKind> ops;
  std::vector<DataType> types;
  std::vector<int> pcores;         // empty = all cores
  double trigger_celsius = 42.0;
  double frequency_at_trigger = 5.0;  // per minute under nominal test intensity
  double temp_slope = 0.15;
  double pattern_probability = 0.8;
  FlipSemantics semantics = FlipSemantics::kXor;
  double core_scale_decades = 0.0;  // >0: all-core defect with spread failure rates
  double onset_months = 0.0;
};

Defect MakeComputationDefect(Rng& rng, const ComputationDefectParams& params,
                             int pcore_count) {
  Defect defect;
  defect.id = params.id;
  defect.feature = FeatureOf(params.ops.front());
  defect.affected_ops = params.ops;
  defect.affected_types = params.types;
  defect.affected_pcores = params.pcores;
  defect.min_trigger_celsius = params.trigger_celsius;
  defect.base_log10_rate = BaseRateFor(params.frequency_at_trigger, kComputeOpsPerSecond);
  defect.temp_slope = params.temp_slope;
  defect.intensity_ref = kComputeOpsPerSecond;
  defect.intensity_exponent = 0.5;
  defect.pattern_probability = params.pattern_probability;
  defect.semantics = params.semantics;
  defect.onset_months = params.onset_months;
  // One pattern set per affected datatype: the same structural damage lands on different
  // bit positions in each representation.
  const int pattern_count = 2 + static_cast<int>(rng.NextBelow(2));
  for (DataType type : params.types) {
    defect.pattern_sets.push_back({type, MakePatterns(rng, type, pattern_count)});
  }
  if (params.core_scale_decades > 0.0 && params.pcores.empty()) {
    defect.pcore_rate_scale = LogSpreadScales(rng, pcore_count, params.core_scale_decades);
  }
  return defect;
}

struct ConsistencyDefectParams {
  std::string id;
  Feature feature = Feature::kCache;  // kCache or kTxMem
  std::vector<int> pcores;
  double trigger_celsius = 42.0;
  double frequency_at_trigger = 2.0;
  double temp_slope = 0.15;
  double core_scale_decades = 0.0;
  double onset_months = 0.0;
};

Defect MakeConsistencyDefect(Rng& rng, const ConsistencyDefectParams& params,
                             int pcore_count) {
  Defect defect;
  defect.id = params.id;
  defect.feature = params.feature;
  defect.affected_ops = params.feature == Feature::kCache
                            ? std::vector<OpKind>{OpKind::kStore}
                            : std::vector<OpKind>{OpKind::kTxCommit};
  defect.affected_pcores = params.pcores;
  defect.min_trigger_celsius = params.trigger_celsius;
  defect.base_log10_rate =
      BaseRateFor(params.frequency_at_trigger, kConsistencyOpsPerSecond);
  defect.temp_slope = params.temp_slope;
  defect.intensity_ref = kConsistencyOpsPerSecond;
  defect.intensity_exponent = 0.5;
  defect.pattern_probability = 0.0;  // consistency SDCs have no deterministic data pattern
  defect.onset_months = params.onset_months;
  if (params.core_scale_decades > 0.0 && params.pcores.empty()) {
    defect.pcore_rate_scale = LogSpreadScales(rng, pcore_count, params.core_scale_decades);
  }
  return defect;
}

void AppendTable3Processors(Rng& rng, std::vector<FaultyProcessorInfo>& catalog) {
  // ---- MIX1: M2, 1.75y, all 16 pcores, computation across vector+FPU and ALU paths. ----
  {
    FaultyProcessorInfo info;
    info.cpu_id = "MIX1";
    info.arch = "M2";
    info.age_years = 1.75;
    info.spec = MakeArchSpec("M2");
    info.defects.push_back(MakeComputationDefect(
        rng,
        {.id = "mix1-vec-fpu",
         .ops = {OpKind::kVecFmaF32, OpKind::kVecFmaF64, OpKind::kFpFma},
         .types = {DataType::kFloat32, DataType::kFloat64, DataType::kBin32},
         .pcores = {},
         .trigger_celsius = 44.0,
         .frequency_at_trigger = 8.0,
         .temp_slope = 0.17,
         .pattern_probability = 0.50,
         .core_scale_decades = 3.0},
        info.spec.physical_cores));
    info.defects.push_back(MakeComputationDefect(
        rng,
        {.id = "mix1-alu",
         .ops = {OpKind::kIntMul, OpKind::kLogicXor, OpKind::kCrc32Step},
         .types = {DataType::kInt32, DataType::kUInt32, DataType::kByte,
                   DataType::kBin32},
         .pcores = {},
         .trigger_celsius = 43.0,
         .frequency_at_trigger = 4.0,
         .temp_slope = 0.15,
         .pattern_probability = 0.25,
         .semantics = FlipSemantics::kStuckOne,  // the 72% zero->one corner case, Section 4.2
         .core_scale_decades = 2.5},
        info.spec.physical_cores));
    // The Section 5 example: testcase C on MIX1 only fails above 59C (idle is ~45C).
    info.defects.push_back(MakeComputationDefect(
        rng,
        {.id = "mix1-tricky-veccrc",
         .ops = {OpKind::kVecCrc},
         .types = {DataType::kUInt32, DataType::kBin32},
         .pcores = {},
         .trigger_celsius = 59.0,
         .frequency_at_trigger = 3e-4,
         .temp_slope = 0.20,
         .pattern_probability = 0.6,
         .core_scale_decades = 1.0},
        info.spec.physical_cores));
    catalog.push_back(std::move(info));
  }
  // ---- MIX2: M2, 0.92y, all 16 pcores, computation incl. hashing and bit ops. ----
  {
    FaultyProcessorInfo info;
    info.cpu_id = "MIX2";
    info.arch = "M2";
    info.age_years = 0.92;
    info.spec = MakeArchSpec("M2");
    info.defects.push_back(MakeComputationDefect(
        rng,
        {.id = "mix2-vec-fpu",
         .ops = {OpKind::kVecFmaF64, OpKind::kVecMulF64},
         .types = {DataType::kFloat32, DataType::kFloat64, DataType::kBin32},
         .pcores = {},
         .trigger_celsius = 43.0,
         .frequency_at_trigger = 6.0,
         .temp_slope = 0.16,
         .pattern_probability = 0.45,
         .core_scale_decades = 3.0},
        info.spec.physical_cores));
    info.defects.push_back(MakeComputationDefect(
        rng,
        {.id = "mix2-alu-hash",
         .ops = {OpKind::kIntMul, OpKind::kHashStep, OpKind::kPopcount},
         .types = {DataType::kInt16, DataType::kInt32, DataType::kUInt32, DataType::kBit,
                   DataType::kByte, DataType::kBin16, DataType::kBin32, DataType::kBin64},
         .pcores = {},
         .trigger_celsius = 41.0,
         .frequency_at_trigger = 10.0,
         .temp_slope = 0.14,
         .pattern_probability = 0.45,
         .core_scale_decades = 2.0},
        info.spec.physical_cores));
    catalog.push_back(std::move(info));
  }
  // ---- SIMD1: M2, 2.33y, one pcore, vector FMA on f32 (strong fixed patterns). ----
  {
    FaultyProcessorInfo info;
    info.cpu_id = "SIMD1";
    info.arch = "M2";
    info.age_years = 2.33;
    info.spec = MakeArchSpec("M2");
    info.defects.push_back(MakeComputationDefect(
        rng,
        {.id = "simd1-fma32",
         .ops = {OpKind::kVecFmaF32},
         .types = {DataType::kFloat32},
         .pcores = {5},
         .trigger_celsius = 43.0,
         .frequency_at_trigger = 3.0,
         .temp_slope = 0.15,
         .pattern_probability = 0.92},
        info.spec.physical_cores));
    catalog.push_back(std::move(info));
  }
  // ---- SIMD2: M5, 0.50y, one pcore, vector f64, single failing testcase. ----
  {
    FaultyProcessorInfo info;
    info.cpu_id = "SIMD2";
    info.arch = "M5";
    info.age_years = 0.50;
    info.spec = MakeArchSpec("M5");
    info.defects.push_back(MakeComputationDefect(
        rng,
        {.id = "simd2-fma64",
         .ops = {OpKind::kVecFmaF64},
         .types = {DataType::kFloat64},
         .pcores = {2},
         .trigger_celsius = 51.0,
         .frequency_at_trigger = 0.2,
         .temp_slope = 0.15,
         .pattern_probability = 0.85},
        info.spec.physical_cores));
    catalog.push_back(std::move(info));
  }
  // ---- FPU1: M5, 0.58y, one pcore, arctangent path, f64 + f64x (Section 4.1). ----
  {
    FaultyProcessorInfo info;
    info.cpu_id = "FPU1";
    info.arch = "M5";
    info.age_years = 0.58;
    info.spec = MakeArchSpec("M5");
    info.defects.push_back(MakeComputationDefect(
        rng,
        {.id = "fpu1-arctan",
         .ops = {OpKind::kFpArctan},
         .types = {DataType::kFloat64, DataType::kFloat80},
         .pcores = {1},
         .trigger_celsius = 41.0,
         .frequency_at_trigger = 20.0,
         .temp_slope = 0.13,
         .pattern_probability = 0.90},
        info.spec.physical_cores));
    catalog.push_back(std::move(info));
  }
  // ---- FPU2: M5, 1.83y, one pcore, arctan/sin, Figure 8(c)'s 48-56C band. ----
  {
    FaultyProcessorInfo info;
    info.cpu_id = "FPU2";
    info.arch = "M5";
    info.age_years = 1.83;
    info.spec = MakeArchSpec("M5");
    info.defects.push_back(MakeComputationDefect(
        rng,
        {.id = "fpu2-arctan",
         .ops = {OpKind::kFpArctan, OpKind::kFpSin},
         .types = {DataType::kFloat64, DataType::kFloat80},
         .pcores = {8 % MakeArchSpec("M5").physical_cores},
         .trigger_celsius = 48.0,
         .frequency_at_trigger = 0.4,
         .temp_slope = 0.125,
         .pattern_probability = 0.80},
        info.spec.physical_cores));
    catalog.push_back(std::move(info));
  }
  // ---- FPU3: M3, 3.08y, one pcore, scalar FP arithmetic, f64. ----
  {
    FaultyProcessorInfo info;
    info.cpu_id = "FPU3";
    info.arch = "M3";
    info.age_years = 3.08;
    info.spec = MakeArchSpec("M3");
    info.defects.push_back(MakeComputationDefect(
        rng,
        {.id = "fpu3-arith",
         .ops = {OpKind::kFpAdd, OpKind::kFpMul},
         .types = {DataType::kFloat64},
         .pcores = {11},
         .trigger_celsius = 45.0,
         .frequency_at_trigger = 1.5,
         .temp_slope = 0.15,
         .pattern_probability = 0.72},
        info.spec.physical_cores));
    catalog.push_back(std::move(info));
  }
  // ---- FPU4: M6, 1.62y, one pcore, divide/sqrt, f64, single failing testcase. ----
  {
    FaultyProcessorInfo info;
    info.cpu_id = "FPU4";
    info.arch = "M6";
    info.age_years = 1.62;
    info.spec = MakeArchSpec("M6");
    info.defects.push_back(MakeComputationDefect(
        rng,
        {.id = "fpu4-divsqrt",
         .ops = {OpKind::kFpDiv, OpKind::kFpSqrt},
         .types = {DataType::kFloat64},
         .pcores = {7},
         .trigger_celsius = 52.0,
         .frequency_at_trigger = 0.1,
         .temp_slope = 0.16,
         .pattern_probability = 0.75},
        info.spec.physical_cores));
    catalog.push_back(std::move(info));
  }
  // ---- CNST1: M2, 0.92y, one pcore, cache coherence + transactional memory. ----
  {
    FaultyProcessorInfo info;
    info.cpu_id = "CNST1";
    info.arch = "M2";
    info.age_years = 0.92;
    info.spec = MakeArchSpec("M2");
    info.defects.push_back(MakeConsistencyDefect(
        rng,
        {.id = "cnst1-coherence",
         .feature = Feature::kCache,
         .pcores = {3},
         .trigger_celsius = 42.0,
         .frequency_at_trigger = 3.0,
         .temp_slope = 0.14},
        info.spec.physical_cores));
    info.defects.push_back(MakeConsistencyDefect(
        rng,
        {.id = "cnst1-txmem",
         .feature = Feature::kTxMem,
         .pcores = {3},
         .trigger_celsius = 44.0,
         .frequency_at_trigger = 1.5,
         .temp_slope = 0.15},
        info.spec.physical_cores));
    catalog.push_back(std::move(info));
  }
  // ---- CNST2: M3, 1.08y, all 24 pcores, transactional memory only. ----
  {
    FaultyProcessorInfo info;
    info.cpu_id = "CNST2";
    info.arch = "M3";
    info.age_years = 1.08;
    info.spec = MakeArchSpec("M3");
    info.defects.push_back(MakeConsistencyDefect(
        rng,
        {.id = "cnst2-txmem",
         .feature = Feature::kTxMem,
         .pcores = {},
         .trigger_celsius = 46.0,
         .frequency_at_trigger = 1.0,
         .temp_slope = 0.15,
         .core_scale_decades = 2.0},
        info.spec.physical_cores));
    catalog.push_back(std::move(info));
  }
}

// Feature plans for the remaining 17 studied processors: 11 computation + 6 consistency,
// chosen so the per-feature proportions land near Figure 2 and per-datatype proportions
// near Figure 3 (floats most common).
struct ExtraPlan {
  const char* id;
  int arch_index;      // 0..8
  bool all_cores;
  std::vector<Feature> features;
};

const ExtraPlan kExtraPlans[] = {
    {"COMP1", 0, true , {Feature::kAlu}},
    {"COMP2", 3, false, {Feature::kAlu}},
    {"COMP3", 6, true, {Feature::kAlu}},
    {"COMP4", 7, true, {Feature::kAlu, Feature::kVecUnit}},
    {"COMP5", 8, true , {Feature::kAlu, Feature::kVecUnit}},
    {"COMP6", 5, false, {Feature::kVecUnit, Feature::kFpu}},
    {"COMP7", 7, true , {Feature::kVecUnit, Feature::kFpu}},
    {"COMP8", 1, false, {Feature::kVecUnit}},
    {"COMP9", 8, false, {Feature::kFpu}},
    {"COMP10", 7, false, {Feature::kFpu}},
    {"COMP11", 0, false, {Feature::kAlu, Feature::kFpu}},
    {"CNST3", 4, false, {Feature::kCache}},
    {"CNST4", 6, true , {Feature::kCache}},
    {"CNST5", 2, true, {Feature::kCache, Feature::kTxMem}},
    {"CNST6", 7, false, {Feature::kCache, Feature::kTxMem}},
    {"CNST7", 1, true , {Feature::kCache}},
    {"CNST8", 5, false, {Feature::kTxMem}},
};

std::vector<OpKind> OpsForFeature(Feature feature, Rng& rng) {
  switch (feature) {
    case Feature::kAlu: {
      std::vector<OpKind> pool = {OpKind::kIntAdd, OpKind::kIntMul,  OpKind::kIntShift,
                                  OpKind::kLogicXor, OpKind::kLogicOr, OpKind::kCrc32Step,
                                  OpKind::kHashStep, OpKind::kPopcount};
      std::vector<OpKind> picked;
      for (OpKind op : pool) {
        if (rng.NextBernoulli(0.22)) {
          picked.push_back(op);
        }
      }
      if (picked.empty()) {
        picked.push_back(OpKind::kIntMul);
      }
      return picked;
    }
    case Feature::kVecUnit: {
      std::vector<OpKind> pool = {OpKind::kVecFmaF32, OpKind::kVecFmaF64, OpKind::kVecMulF32,
                                  OpKind::kVecMulF64, OpKind::kVecAddI32, OpKind::kVecGf256,
                                  OpKind::kVecCrc};
      std::vector<OpKind> picked;
      for (OpKind op : pool) {
        if (rng.NextBernoulli(0.22)) {
          picked.push_back(op);
        }
      }
      if (picked.empty()) {
        picked.push_back(OpKind::kVecFmaF64);
      }
      return picked;
    }
    case Feature::kFpu: {
      std::vector<OpKind> pool = {OpKind::kFpAdd, OpKind::kFpMul, OpKind::kFpDiv,
                                  OpKind::kFpSqrt, OpKind::kFpArctan, OpKind::kFpSin,
                                  OpKind::kFpLog, OpKind::kFpExp};
      std::vector<OpKind> picked;
      for (OpKind op : pool) {
        if (rng.NextBernoulli(0.2)) {
          picked.push_back(op);
        }
      }
      if (picked.empty()) {
        picked.push_back(OpKind::kFpMul);
      }
      return picked;
    }
    default:
      return {};
  }
}

std::vector<DataType> TypesForOps(const std::vector<OpKind>& ops, Rng& rng) {
  std::set<DataType> types;
  for (OpKind op : ops) {
    switch (op) {
      case OpKind::kVecFmaF32:
      case OpKind::kVecMulF32:
        types.insert(DataType::kFloat32);
        break;
      case OpKind::kVecFmaF64:
      case OpKind::kVecMulF64:
        types.insert(DataType::kFloat64);
        break;
      case OpKind::kVecAddI32:
        types.insert(DataType::kInt32);
        break;
      case OpKind::kVecGf256:
        types.insert(DataType::kByte);
        break;
      case OpKind::kVecCrc:
      case OpKind::kCrc32Step:
        types.insert(DataType::kUInt32);
        types.insert(DataType::kBin32);
        break;
      case OpKind::kHashStep:
        types.insert(DataType::kBin64);
        break;
      case OpKind::kFpAdd:
      case OpKind::kFpMul:
      case OpKind::kFpDiv:
      case OpKind::kFpSqrt:
        types.insert(DataType::kFloat64);
        if (rng.NextBernoulli(0.4)) {
          types.insert(DataType::kFloat32);
        }
        break;
      case OpKind::kFpArctan:
      case OpKind::kFpSin:
      case OpKind::kFpLog:
      case OpKind::kFpExp:
        types.insert(DataType::kFloat64);
        if (rng.NextBernoulli(0.5)) {
          types.insert(DataType::kFloat80);
        }
        break;
      case OpKind::kIntAdd:
      case OpKind::kIntMul:
      case OpKind::kIntShift:
        types.insert(DataType::kInt32);
        if (rng.NextBernoulli(0.3)) {
          types.insert(DataType::kInt16);
        }
        if (rng.NextBernoulli(0.3)) {
          types.insert(DataType::kUInt32);
        }
        break;
      case OpKind::kLogicXor:
      case OpKind::kLogicOr:
      case OpKind::kPopcount:
        types.insert(DataType::kBin32);
        if (rng.NextBernoulli(0.4)) {
          types.insert(DataType::kBin64);
        }
        if (rng.NextBernoulli(0.3)) {
          types.insert(DataType::kByte);
        }
        break;
      default:
        break;
    }
  }
  return {types.begin(), types.end()};
}

void AppendExtraProcessors(Rng& rng, std::vector<FaultyProcessorInfo>& catalog) {
  for (const ExtraPlan& plan : kExtraPlans) {
    FaultyProcessorInfo info;
    info.cpu_id = plan.id;
    info.arch = ArchName(plan.arch_index);
    info.age_years = 0.3 + rng.NextDouble() * 2.9;
    info.spec = MakeArchSpec(plan.arch_index);
    const int pcore = static_cast<int>(
        rng.NextBelow(static_cast<uint64_t>(info.spec.physical_cores)));
    for (Feature feature : plan.features) {
      double trigger = 0.0;
      double base_rate = 0.0;
      const bool consistency = feature == Feature::kCache || feature == Feature::kTxMem;
      const double ops_rate = consistency ? kConsistencyOpsPerSecond : kComputeOpsPerSecond;
      SampleTriggerAndRate(rng, ops_rate, &trigger, &base_rate);
      const double frequency_at_trigger =
          std::pow(10.0, base_rate) * 60.0 * ops_rate;  // back out for the param structs
      if (consistency) {
        ConsistencyDefectParams params;
        params.id = std::string(plan.id) + "-" + FeatureName(feature);
        params.feature = feature;
        params.pcores = plan.all_cores ? std::vector<int>{} : std::vector<int>{pcore};
        params.trigger_celsius = trigger;
        params.frequency_at_trigger = frequency_at_trigger;
        params.temp_slope = 0.12 + rng.NextDouble() * 0.1;
        params.core_scale_decades = plan.all_cores ? 1.5 + rng.NextDouble() * 1.5 : 0.0;
        info.defects.push_back(
            MakeConsistencyDefect(rng, params, info.spec.physical_cores));
      } else {
        ComputationDefectParams params;
        params.id = std::string(plan.id) + "-" + FeatureName(feature);
        params.ops = OpsForFeature(feature, rng);
        params.types = TypesForOps(params.ops, rng);
        params.pcores = plan.all_cores ? std::vector<int>{} : std::vector<int>{pcore};
        params.trigger_celsius = trigger;
        params.frequency_at_trigger = frequency_at_trigger;
        params.temp_slope = 0.12 + rng.NextDouble() * 0.1;
        params.pattern_probability = 0.3 + rng.NextDouble() * 0.65;
        params.core_scale_decades = plan.all_cores ? 2.0 + rng.NextDouble() * 1.5 : 0.0;
        info.defects.push_back(
            MakeComputationDefect(rng, params, info.spec.physical_cores));
      }
    }
    catalog.push_back(std::move(info));
  }
}

}  // namespace

std::string ArchName(int arch_index) { return "M" + std::to_string(arch_index + 1); }

ProcessorSpec MakeArchSpec(int arch_index) {
  static constexpr int kCores[kArchCount] = {16, 16, 24, 32, 8, 16, 24, 16, 32};
  static constexpr double kGhz[kArchCount] = {2.2, 2.5, 2.5, 2.8, 3.0, 2.9, 2.6, 2.1, 3.1};
  ProcessorSpec spec;
  spec.arch = ArchName(arch_index);
  spec.physical_cores = kCores[arch_index];
  spec.frequency_ghz = kGhz[arch_index];
  return spec;
}

ProcessorSpec MakeArchSpec(const std::string& arch_name) {
  for (int i = 0; i < kArchCount; ++i) {
    if (ArchName(i) == arch_name) {
      return MakeArchSpec(i);
    }
  }
  std::abort();  // unknown architecture is a programming error
}

SdcType FaultyProcessorInfo::sdc_type() const {
  return defects.empty() ? SdcType::kComputation : defects.front().type();
}

int FaultyProcessorInfo::defective_pcore_count() const {
  std::set<int> pcores;
  for (const Defect& defect : defects) {
    if (defect.affected_pcores.empty()) {
      return spec.physical_cores;
    }
    pcores.insert(defect.affected_pcores.begin(), defect.affected_pcores.end());
  }
  return static_cast<int>(pcores.size());
}

std::vector<FaultyProcessorInfo> StudyCatalog() {
  Rng rng(0x5DCFA22023ull);  // fixed: the catalog is part of the experiment definition
  std::vector<FaultyProcessorInfo> catalog;
  catalog.reserve(27);
  AppendTable3Processors(rng, catalog);
  AppendExtraProcessors(rng, catalog);
  return catalog;
}

FaultyProcessorInfo FindInCatalog(const std::string& cpu_id) {
  auto info = TryFindInCatalog(cpu_id);
  if (!info.has_value()) {
    std::abort();  // unknown cpu_id is a programming error
  }
  return *std::move(info);
}

std::optional<FaultyProcessorInfo> TryFindInCatalog(const std::string& cpu_id) {
  for (auto& info : StudyCatalog()) {
    if (info.cpu_id == cpu_id) {
      return info;
    }
  }
  return std::nullopt;
}

void SampleTriggerAndRate(Rng& rng, double ops_per_second, double* min_trigger_celsius,
                          double* base_log10_rate) {
  // ~45% "apparent" defects triggerable near idle, the rest "tricky" (Section 5).
  double trigger = 0.0;
  if (rng.NextBernoulli(0.45)) {
    trigger = 40.0 + rng.NextDouble() * 6.0;  // at or below typical idle temperature
  } else {
    trigger = 46.0 + rng.NextDouble() * 29.0;  // up to 75C
  }
  const double log10_frequency = kFig9InterceptAt40C + kFig9SlopePerC * (trigger - 40.0) +
                                 rng.NextGaussian(0.0, 0.55);
  *min_trigger_celsius = trigger;
  *base_log10_rate = log10_frequency - std::log10(60.0 * ops_per_second);
}

size_t GenerateRandomDefects(Rng& rng, int arch_index, int pcore_count,
                             std::vector<Defect>& defects) {
  const size_t start = defects.size();
  // One defect per faulty part is the common case; a minority carry two within one type.
  const bool consistency = rng.NextBernoulli(8.0 / 27.0);  // study mix: 19 computation, 8 not
  const bool all_cores = rng.NextBernoulli(0.5);           // Observation 4
  const int defect_count = rng.NextBernoulli(0.25) ? 2 : 1;
  const int pcore = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(pcore_count)));
  for (int d = 0; d < defect_count; ++d) {
    double trigger = 0.0;
    double base_rate = 0.0;
    const double ops_rate = consistency ? kConsistencyOpsPerSecond : kComputeOpsPerSecond;
    SampleTriggerAndRate(rng, ops_rate, &trigger, &base_rate);
    const double frequency_at_trigger = std::pow(10.0, base_rate) * 60.0 * ops_rate;
    // A slice of fleet defects develop with age rather than existing from manufacturing;
    // these are the parts that pass pre-production screening and fail regular tests.
    const double onset = rng.NextBernoulli(0.12) ? rng.NextExponential(1.0 / 10.0) : 0.0;
    if (consistency) {
      ConsistencyDefectParams params;
      params.id = "fleet-" + std::string(ArchName(arch_index)) + "-cnst";
      params.feature = rng.NextBernoulli(0.55) ? Feature::kCache : Feature::kTxMem;
      params.pcores = all_cores ? std::vector<int>{} : std::vector<int>{pcore};
      params.trigger_celsius = trigger;
      params.frequency_at_trigger = frequency_at_trigger;
      params.temp_slope = 0.12 + rng.NextDouble() * 0.1;
      params.core_scale_decades = all_cores ? 1.0 + rng.NextDouble() * 2.0 : 0.0;
      params.onset_months = onset;
      defects.push_back(MakeConsistencyDefect(rng, params, pcore_count));
    } else {
      const double feature_draw = rng.NextDouble();
      const Feature feature = feature_draw < 0.35   ? Feature::kFpu
                              : feature_draw < 0.68 ? Feature::kVecUnit
                                                    : Feature::kAlu;
      ComputationDefectParams params;
      params.id = "fleet-" + std::string(ArchName(arch_index)) + "-comp";
      params.ops = OpsForFeature(feature, rng);
      params.types = TypesForOps(params.ops, rng);
      params.pcores = all_cores ? std::vector<int>{} : std::vector<int>{pcore};
      params.trigger_celsius = trigger;
      params.frequency_at_trigger = frequency_at_trigger;
      params.temp_slope = 0.12 + rng.NextDouble() * 0.1;
      params.pattern_probability = 0.3 + rng.NextDouble() * 0.65;
      params.core_scale_decades = all_cores ? 2.0 + rng.NextDouble() * 1.5 : 0.0;
      params.onset_months = onset;
      defects.push_back(MakeComputationDefect(rng, params, pcore_count));
    }
  }
  return defects.size() - start;
}

std::vector<Defect> GenerateRandomDefects(Rng& rng, int arch_index, int pcore_count) {
  std::vector<Defect> defects;
  GenerateRandomDefects(rng, arch_index, pcore_count, defects);
  return defects;
}

}  // namespace sdc
