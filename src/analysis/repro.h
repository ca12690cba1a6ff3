// Reproducibility analysis (Section 5): occurrence-frequency measurement, log-linear fits
// of frequency against pinned temperature (Figure 8), and the trigger-temperature/frequency
// relation (Figure 9).

#ifndef SDC_SRC_ANALYSIS_REPRO_H_
#define SDC_SRC_ANALYSIS_REPRO_H_

#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/fault/machine.h"
#include "src/toolchain/framework.h"

namespace sdc {

// Measures the occurrence frequency (errors/minute) of one testcase on one physical core at
// the given pinned temperature, over `duration_seconds` of simulated testing. `time_scale`
// trades fidelity for speed: per-op corruption probabilities must stay below saturation
// (rate x time_scale << 1) for the frequency to be unbiased, so use larger scales only for
// low-frequency settings.
double MeasureOccurrenceFrequency(FaultyMachine& machine, const TestFramework& framework,
                                  size_t testcase_index, int pcore,
                                  double pinned_temperature_celsius, double duration_seconds,
                                  uint64_t seed, double time_scale = 1e5);

struct TemperaturePoint {
  double temperature_celsius = 0.0;
  double frequency_per_minute = 0.0;
};

// Least-squares fit of log10(frequency) against temperature over the sweep's non-zero
// points; fit.r is the Pearson coefficient the paper reports (> 0.75 for thermal settings).
LinearFit FitLogFrequencyVsTemperature(const std::vector<TemperaturePoint>& points);

// One point of Figure 9, evaluated from the defect model directly: the defect's minimum
// trigger temperature and its occurrence frequency there under nominal test intensity.
struct TriggerPoint {
  std::string cpu_id;
  std::string defect_id;
  double min_trigger_celsius = 0.0;
  double frequency_per_minute = 0.0;
};

// Enumerates (trigger, frequency) points across a catalog of faulty processors.
std::vector<TriggerPoint> CollectTriggerPoints(
    const std::vector<FaultyProcessorInfo>& catalog);

// --- Suspect-instruction narrowing (the Pin-based study of Section 4.1). ---

struct SuspectScore {
  OpKind op = OpKind::kIntAdd;
  double score = 0.0;          // higher = more suspicious
  double failed_usage = 0.0;   // fraction of failed testcases that execute this op
  double passed_usage = 0.0;   // fraction of passing testcases that execute this op
};

// Ranks op kinds by how exclusively failing testcases execute them.
std::vector<SuspectScore> RankSuspectOps(const RunReport& report);

}  // namespace sdc

#endif  // SDC_SRC_ANALYSIS_REPRO_H_
