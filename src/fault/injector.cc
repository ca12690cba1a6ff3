#include "src/fault/injector.h"

#include <algorithm>

namespace sdc {

DefectInjector::DefectInjector(std::vector<Defect> defects, uint64_t seed)
    : defects_(std::move(defects)), activations_(defects_.size(), 0), rng_(seed) {
  op_masks_.reserve(defects_.size());
  type_masks_.reserve(defects_.size());
  for (Defect& defect : defects_) {
    defect.SealPatternCdfs();  // the injector's copies are the ones Corrupt runs on
    const MatchMasks masks = defect.match_masks();
    op_masks_.push_back(masks.ops);
    type_masks_.push_back(masks.types);
    if (defect.type() == SdcType::kComputation) {
      computation_op_union_ |= masks.ops;
    } else {
      consistency_op_union_ |= masks.ops;
    }
  }
}

int DefectInjector::FindActivation(const OpContext& context, SdcType want_type) {
  const uint64_t op_bit = uint64_t{1} << static_cast<int>(context.op);
  const uint32_t type_bit = uint32_t{1} << static_cast<int>(context.type);
  for (size_t i = 0; i < defects_.size(); ++i) {
    if ((op_masks_[i] & op_bit) == 0 || (type_masks_[i] & type_bit) == 0) {
      continue;
    }
    const Defect& defect = defects_[i];
    if (defect.type() != want_type || defect.onset_months > age_months_) {
      continue;
    }
    const double rate =
        defect.RatePerOp(context.temperature, context.op_intensity, context.pcore);
    if (rate <= 0.0) {
      continue;
    }
    // `weight` simulated executions are represented by this one call; the chance that at
    // least one of them corrupts is 1 - (1-rate)^weight ~= rate * weight for small rates.
    const double probability = std::min(1.0, rate * context.weight);
    if (rng_.NextBernoulli(probability)) {
      ++activations_[i];
      ++total_activations_;
      return static_cast<int>(i);
    }
  }
  return -1;
}

std::optional<Word128> DefectInjector::OnExecute(const OpContext& context,
                                                 const Word128& golden) {
  if ((computation_op_union_ & (uint64_t{1} << static_cast<int>(context.op))) == 0) {
    return std::nullopt;  // no defect touches this op kind: the overwhelming fast path
  }
  const int index = FindActivation(context, SdcType::kComputation);
  if (index < 0) {
    return std::nullopt;
  }
  return defects_[index].Corrupt(golden, context.type, rng_);
}

bool DefectInjector::OnCoherenceFault(const OpContext& context) {
  if ((consistency_op_union_ & (uint64_t{1} << static_cast<int>(context.op))) == 0) {
    return false;
  }
  return FindActivation(context, SdcType::kConsistency) >= 0;
}

bool DefectInjector::OnTxFault(const OpContext& context) {
  if ((consistency_op_union_ & (uint64_t{1} << static_cast<int>(context.op))) == 0) {
    return false;
  }
  return FindActivation(context, SdcType::kConsistency) >= 0;
}

void DefectInjector::ResetCounters() {
  std::fill(activations_.begin(), activations_.end(), 0);
  total_activations_ = 0;
}

}  // namespace sdc
