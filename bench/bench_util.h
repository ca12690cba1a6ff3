// Shared helpers for the experiment harnesses in bench/. Each binary regenerates one of the
// paper's tables or figures and prints the paper's reported values next to the measured
// ones, so the reproduction can be eyeballed row by row. The JSON micro benches share the
// wall-clock timers and the median/quartile helpers at the end.

#ifndef SDC_BENCH_BENCH_UTIL_H_
#define SDC_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "src/fault/machine.h"
#include "src/toolchain/framework.h"

namespace sdc {

// Full-suite "adequate" sweep: hot (burn-in, all cores simultaneously), long slices --
// the ground-truth run that enumerates a faulty part's known failing testcases.
inline RunReport AdequateSweep(const TestSuite& suite, FaultyMachine& machine,
                               double per_case_seconds = 60.0, uint64_t seed = 3) {
  TestFramework framework(&suite);
  TestRunConfig config;
  config.time_scale = 2e7;
  config.simultaneous_cores = true;
  config.burn_in_seconds = 300.0;
  config.seed = seed;
  config.max_records = 100000;
  return framework.RunPlan(machine, framework.EqualPlan(per_case_seconds), config);
}

// Runs one (testcase, pcore) setting at a pinned temperature and returns the SDC records.
// The moderate time scale keeps per-op corruption probabilities well below saturation so
// occurrence statistics stay faithful.
inline std::vector<SdcRecord> CollectRecords(const TestSuite& suite, FaultyMachine& machine,
                                             const std::string& testcase_id, int pcore,
                                             double temperature_celsius,
                                             double duration_seconds, uint64_t seed = 9) {
  const int index = suite.IndexOf(testcase_id);
  if (index < 0) {
    return {};
  }
  TestFramework framework(&suite);
  TestRunConfig config;
  config.time_scale = 1e5;
  config.pin_temperature_celsius = temperature_celsius;
  config.pcores_under_test = {pcore};
  config.seed = seed;
  const RunReport report =
      framework.RunPlan(machine, {{static_cast<size_t>(index), duration_seconds}}, config);
  return report.records;
}

// Kernel family of a testcase id: "loop.int_mul.i32.n96" -> "loop.int_mul"; used to compare
// failed-testcase counts against Table 3's #err despite this suite's parametric redundancy.
inline std::string KernelFamily(const std::string& testcase_id) {
  size_t first = testcase_id.find('.');
  size_t second = first == std::string::npos ? first : testcase_id.find('.', first + 1);
  return second == std::string::npos ? testcase_id : testcase_id.substr(0, second);
}

inline std::set<std::string> FailedFamilies(const RunReport& report) {
  std::set<std::string> families;
  for (const std::string& id : report.failed_testcase_ids()) {
    families.insert(KernelFamily(id));
  }
  return families;
}

inline void PrintExperimentHeader(const std::string& id, const std::string& description) {
  std::printf("==============================================================\n");
  std::printf("%s -- %s\n", id.c_str(), description.c_str());
  std::printf("(paper: \"Understanding Silent Data Corruptions in a Large\n");
  std::printf(" Production CPU Population\", SOSP 2023)\n");
  std::printf("==============================================================\n");
}

// Seconds one call of `fn` takes on the steady clock.
inline double WallSeconds(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

// True when `mismatch` -- an identity comparator's result (tests/oracle/oracle.h) -- is
// empty; otherwise prints it to stderr, so a failed determinism check names the first
// differing field.
inline bool NoMismatch(const std::string& mismatch) {
  if (!mismatch.empty()) {
    std::fprintf(stderr, "divergence: %s\n", mismatch.c_str());
  }
  return mismatch.empty();
}

// Fastest of `repeats` calls of `fn`.
inline double BestWallSeconds(int repeats, const std::function<void()>& fn) {
  double best = 1e300;
  for (int i = 0; i < repeats; ++i) {
    best = std::min(best, WallSeconds(fn));
  }
  return best;
}

// Median and quartiles of a sample: the elements at ranks n/4, n/2 and 3n/4 of the
// sorted sample (which is reordered).
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

inline Quartiles QuartilesOf(std::vector<double>& sample) {
  if (sample.empty()) {
    return {};
  }
  std::sort(sample.begin(), sample.end());
  const size_t n = sample.size();
  return {sample[n / 4], sample[n / 2], sample[3 * n / 4]};
}

// Wall-time quartiles over `rounds` calls of `fn`: the median is the figure a row reports,
// and q3 - q1 says how far the host let it wander.
inline Quartiles WallQuartiles(int rounds, const std::function<void()>& fn) {
  std::vector<double> walls;
  walls.reserve(static_cast<size_t>(rounds));
  for (int i = 0; i < rounds; ++i) {
    walls.push_back(WallSeconds(fn));
  }
  return QuartilesOf(walls);
}

// Median over `rounds` rounds of wall(second) / wall(first), the two run back to back in
// each round. Pairing puts a burst of host noise on both sides of a round's ratio, and the
// median drops the rounds a burst splits.
inline double MedianPairedRatio(const std::function<void()>& first,
                                const std::function<void()>& second, int rounds = 100) {
  std::vector<double> ratios;
  ratios.reserve(static_cast<size_t>(rounds));
  for (int i = 0; i < rounds; ++i) {
    const double first_wall = WallSeconds(first);
    ratios.push_back(WallSeconds(second) / first_wall);
  }
  return QuartilesOf(ratios).median;
}

}  // namespace sdc

#endif  // SDC_BENCH_BENCH_UTIL_H_
