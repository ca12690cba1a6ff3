// Reference oracles for the determinism contract (docs/parallelism.md), kept out of the
// production library: only the test binaries and the equivalence benches
// (bench/micro_screening, bench/micro_stream) link this target.
//
// Each oracle is the slow original a production fast path replaced, kept so the fast
// path can be checked byte for byte forever:
//   ReferenceScreen    -- the pre-memoization per-processor screening model, against
//                         ScreeningPipeline::Run / RunBatch / StreamingScreen.
//   ReferenceGenerate  -- the per-processor generation loop (GenerateFleetShard with
//                         GenerationPlan::blocked forced off), against the blocked kernel.
//   SimulateProtectedWorkloadReference -- the monolithic protection loop, against the
//                         ProtectionSession decomposition behind SimulateProtectedWorkload.
// plus the one set of identity comparators the suites and benches share.

#ifndef SDC_TESTS_ORACLE_ORACLE_H_
#define SDC_TESTS_ORACLE_ORACLE_H_

#include <string>

#include "src/common/context.h"
#include "src/farron/farron.h"
#include "src/farron/protection.h"
#include "src/fault/machine.h"
#include "src/fleet/pipeline.h"
#include "src/fleet/population.h"
#include "src/toolchain/registry.h"

namespace sdc {

// Screens `fleet` with the pre-memoization model: every processor, clean parts included,
// recomputing MatchingTestcases / ExpectedErrors at every probe. Screening shard s
// (kScreeningShardGrain serials) draws from Rng(config.seed).Fork(s); shards run on the
// context's pool and merge in shard order, so the result is thread-count invariant and
// must equal ScreeningPipeline::Run bitwise, provenance included. Sinks (the config's
// and the context's) are ignored.
ScreeningStats ReferenceScreen(const ScreeningPipeline& pipeline,
                               const FleetPopulation& fleet, const ScreeningConfig& config,
                               EngineContext& context);

// Generates the fleet with the per-processor loop on the context's pool and materializes
// it through FleetMaterializer: the fleet FleetPopulation::Generate must reproduce
// bitwise. Sinks are ignored.
FleetPopulation ReferenceGenerate(const PopulationConfig& config, EngineContext& context);

// The pre-session monolithic protection loop, kept verbatim: report, event log, metrics
// and trace must equal SimulateProtectedWorkload's.
ProtectionReport SimulateProtectedWorkloadReference(Farron& farron, FaultyMachine& machine,
                                                    const TestSuite& suite,
                                                    const WorkloadSpec& spec, double hours,
                                                    bool protect);

// Identity comparators. Each returns an empty string when its arguments are identical and
// otherwise a description of the first mismatch, so gtest suites and the gtest-free
// benches print the same diagnosis.
//
// IdenticalStats: every counter, every detection in order (months compared bitwise), and
// every provenance record (doubles compared bitwise).
std::string IdenticalStats(const ScreeningStats& a, const ScreeningStats& b);
// IdenticalFleets: packed columns, the faulty index, arena ranges, per-arch tallies, and
// every Defect field (doubles compared bitwise).
std::string IdenticalFleets(const FleetPopulation& a, const FleetPopulation& b);

}  // namespace sdc

#endif  // SDC_TESTS_ORACLE_ORACLE_H_
