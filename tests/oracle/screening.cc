#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/fault/catalog.h"
#include "tests/oracle/oracle.h"

namespace sdc {
namespace {

// The provenance record the production kernel attaches to a detection, built from the
// processor's defects: the first id, the minimum onset and the minimum trigger
// temperature, folded in storage order.
DetectionProvenance ReferenceProvenance(const FleetProcessorView& processor,
                                        const ScreeningConfig& config, TestStage stage,
                                        double month, uint64_t shard) {
  DetectionProvenance record;
  record.serial = processor.serial;
  record.arch_index = processor.arch_index;
  record.stage = stage;
  record.month = month;
  record.sub_shard = shard;
  record.rng_stream = shard;
  record.stage_temperature_celsius =
      config.stages[static_cast<size_t>(stage)].temperature_celsius;
  record.defect_count = static_cast<uint32_t>(processor.defects.size());
  if (!processor.defects.empty()) {
    record.defect_id = processor.defects.front().id;
    record.onset_months = processor.defects.front().onset_months;
    record.min_trigger_celsius = processor.defects.front().min_trigger_celsius;
    for (const Defect& defect : processor.defects.subspan(1)) {
      record.onset_months = std::min(record.onset_months, defect.onset_months);
      record.min_trigger_celsius =
          std::min(record.min_trigger_celsius, defect.min_trigger_celsius);
    }
  }
  return record;
}

// The pre-memoization model for one processor (clean parts included), recomputing
// MatchingTestcases / ExpectedErrors at every probe.
void ScreenProcessorReference(const ScreeningPipeline& pipeline,
                              const FleetProcessorView& processor,
                              const ScreeningConfig& config, uint64_t shard, Rng& rng,
                              ScreeningStats& stats) {
  ++stats.tested;
  ++stats.tested_by_arch[processor.arch_index];
  if (!processor.faulty) {
    return;
  }
  ++stats.faulty;
  if (!processor.toolchain_detectable) {
    return;  // escapes every stage (Section 2.3's false negatives)
  }
  const int pcores = MakeArchSpec(processor.arch_index).physical_cores;

  // Per-stage detection probabilities recomputed from scratch at every probe (a part is
  // detected when any defect reproduces).
  auto stage_probability = [&](const StageParams& stage, double age_months) {
    double survive = 1.0;
    for (const Defect& defect : processor.defects) {
      if (defect.onset_months > age_months) {
        continue;  // not yet developed
      }
      const double expected = pipeline.ExpectedErrors(defect, stage, pcores);
      survive *= 1.0 - stage.catch_factor * (1.0 - std::exp(-expected));
    }
    return 1.0 - survive;
  };

  bool detected = false;
  TestStage detected_stage = TestStage::kFactory;
  double detected_month = 0.0;
  const TestStage pre_production[] = {TestStage::kFactory, TestStage::kDatacenter,
                                      TestStage::kReinstall};
  for (TestStage stage : pre_production) {
    if (rng.NextBernoulli(
            stage_probability(config.stages[static_cast<int>(stage)], 0.0))) {
      detected = true;
      detected_stage = stage;
      break;
    }
  }
  if (!detected) {
    for (int cycle = 1;; ++cycle) {
      const double month = RegularRoundMonth(processor.serial, cycle, config);
      if (month > config.horizon_months) {
        break;
      }
      if (rng.NextBernoulli(stage_probability(
              config.stages[static_cast<int>(TestStage::kRegular)], month))) {
        detected = true;
        detected_stage = TestStage::kRegular;
        detected_month = month;
        break;
      }
    }
  }
  if (detected) {
    ++stats.detected_by_stage[static_cast<int>(detected_stage)];
    ++stats.detected_by_arch[processor.arch_index];
    stats.detections.push_back({processor.serial, processor.arch_index, true,
                                detected_stage, detected_month});
    stats.provenance.push_back(
        ReferenceProvenance(processor, config, detected_stage, detected_month, shard));
  }
}

}  // namespace

ScreeningStats ReferenceScreen(const ScreeningPipeline& pipeline,
                               const FleetPopulation& fleet, const ScreeningConfig& config,
                               EngineContext& context) {
  const Rng base(config.seed);
  return context.pool().ParallelReduce(
      0, fleet.size(), kScreeningShardGrain, ScreeningStats{},
      [&](uint64_t shard, uint64_t begin, uint64_t end) {
        Rng rng = base.Fork(shard);
        ScreeningStats stats;
        for (uint64_t serial = begin; serial < end; ++serial) {
          ScreenProcessorReference(pipeline, fleet.processor(serial), config, shard, rng,
                                   stats);
        }
        return stats;
      },
      [](ScreeningStats& total, ScreeningStats& shard) { total.MergeFrom(std::move(shard)); });
}

}  // namespace sdc
