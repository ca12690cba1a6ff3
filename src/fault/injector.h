// DefectInjector binds a set of Defects to a simulated processor by implementing the
// processor's CorruptionHook. It is the bridge between the fault model and the execution
// engine: on every operation it evaluates each defect's activation model against the
// operation context (core, temperature, utilization, usage intensity, represented-iteration
// weight) and, when a defect fires, applies its damage model.

#ifndef SDC_SRC_FAULT_INJECTOR_H_
#define SDC_SRC_FAULT_INJECTOR_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/rng.h"
#include "src/fault/defect.h"
#include "src/sim/processor.h"

namespace sdc {

class DefectInjector : public CorruptionHook {
 public:
  // Takes its own copies of `defects` and seals their pattern CDFs
  // (Defect::SealPatternCdfs): the injector is where Corrupt runs, per activation.
  DefectInjector(std::vector<Defect> defects, uint64_t seed);

  // Fleet age of the processor; defects whose onset lies in the future stay dormant.
  void set_age_months(double age_months) { age_months_ = age_months; }
  double age_months() const { return age_months_; }

  // CorruptionHook:
  std::optional<Word128> OnExecute(const OpContext& context, const Word128& golden) override;
  bool OnCoherenceFault(const OpContext& context) override;
  bool OnTxFault(const OpContext& context) override;

  const std::vector<Defect>& defects() const { return defects_; }

  // Ground-truth activation counters (total and per defect), for tests and diagnostics.
  uint64_t total_activations() const { return total_activations_; }
  uint64_t activations(size_t defect_index) const { return activations_[defect_index]; }
  void ResetCounters();

 private:
  // Returns the index of the first defect that fires for this context among defects matching
  // `want_type`, or -1. Draws one Bernoulli per eligible defect.
  int FindActivation(const OpContext& context, SdcType want_type);

  std::vector<Defect> defects_;
  // Precomputed per-defect bitmasks over OpKind / DataType (Defect::match_masks) for O(1)
  // matching on the hot path, plus union masks for early rejection of ops no defect
  // touches.
  std::vector<uint64_t> op_masks_;
  std::vector<uint32_t> type_masks_;
  uint64_t computation_op_union_ = 0;
  uint64_t consistency_op_union_ = 0;
  std::vector<uint64_t> activations_;
  Rng rng_;
  double age_months_ = 1e9;  // by default all defects are live
  uint64_t total_activations_ = 0;
};

static_assert(kOpKindCount <= 64, "op-kind bitmask relies on <= 64 kinds");

}  // namespace sdc

#endif  // SDC_SRC_FAULT_INJECTOR_H_
