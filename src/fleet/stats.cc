#include "src/fleet/stats.h"

#include <cmath>

#include "src/common/parallel.h"

namespace sdc {
namespace {

// Whether one run of a testcase that can expose `defect` reaches the half-expected-error
// detection threshold at the stage settings. A function of the defect, the stage and the
// core count only, so the scan evaluates it once per defect and then matches testcases by
// mask.
bool DefectReachesThreshold(const Defect& defect, const StageParams& stage, int pcores) {
  const double minutes_per_core =
      stage.per_case_seconds / static_cast<double>(pcores) / 60.0;
  const double expected = defect.ExpectedErrorsOverCores(
      stage.temperature_celsius, defect.intensity_ref, pcores, minutes_per_core);
  return 1.0 - std::exp(-expected) >= 0.5;
}

}  // namespace

TestcaseEffectiveness ComputeTestcaseEffectiveness(const TestSuite& suite,
                                                   const FleetPopulation& fleet,
                                                   const StageParams& stage) {
  // The faulty slice is tiny and the fleet already indexes it: the accumulator walks each
  // shard view's faulty serials instead of rescanning the million-part fleet.
  EffectivenessAccumulator accumulator(&suite, stage);
  const uint64_t shard_count = ThreadPool::ShardCountFor(0, fleet.size(), kFleetShardGrain);
  accumulator.BeginStream(fleet.config(), shard_count);
  for (uint64_t shard = 0; shard < shard_count; ++shard) {
    accumulator.ConsumeShard(fleet.Shard(shard));
  }
  accumulator.EndStream();
  return accumulator.TakeResult();
}

EffectivenessAccumulator::EffectivenessAccumulator(const TestSuite* suite,
                                                   const StageParams& stage)
    : suite_(suite), stage_(stage) {
  testcase_masks_.reserve(suite->size());
  for (size_t i = 0; i < suite->size(); ++i) {
    testcase_masks_.push_back(MasksOf(suite->info(i).ops, suite->info(i).types));
  }
}

void EffectivenessAccumulator::BeginStream(const PopulationConfig& /*config*/,
                                           uint64_t shard_count) {
  shard_effective_.assign(shard_count, {});
  result_ = TestcaseEffectiveness{};
}

void EffectivenessAccumulator::ConsumeShard(const FleetShard& shard) {
  std::vector<uint8_t>* effective = nullptr;  // allocated on the first detecting defect
  for (size_t ordinal = 0; ordinal < shard.faulty_serials.size(); ++ordinal) {
    const uint64_t serial = shard.faulty_serials[ordinal];
    if (!shard.toolchain_detectable(serial)) {
      continue;
    }
    const int pcores = MakeArchSpec(shard.arch_index(serial)).physical_cores;
    for (const Defect& defect : shard.FaultyDefects(ordinal)) {
      if (!DefectReachesThreshold(defect, stage_, pcores)) {
        continue;
      }
      if (effective == nullptr) {
        effective = &shard_effective_[shard.shard];
        effective->assign(suite_->size(), 0);
      }
      const MatchMasks masks = defect.match_masks();
      for (size_t i = 0; i < testcase_masks_.size(); ++i) {
        if (CanExpose(testcase_masks_[i], masks, defect.type())) {
          (*effective)[i] = 1;
        }
      }
    }
  }
}

void EffectivenessAccumulator::EndStream() {
  result_.total_testcases = suite_->size();
  std::vector<uint8_t> merged(suite_->size(), 0);
  for (const std::vector<uint8_t>& shard_mask : shard_effective_) {
    for (size_t i = 0; i < shard_mask.size(); ++i) {
      merged[i] |= shard_mask[i];
    }
  }
  for (size_t i = 0; i < merged.size(); ++i) {
    if (merged[i] != 0) {
      ++result_.effective_testcases;
      result_.effective_ids.push_back(suite_->info(i).id);
    }
  }
  shard_effective_.clear();
  shard_effective_.shrink_to_fit();
}

}  // namespace sdc
