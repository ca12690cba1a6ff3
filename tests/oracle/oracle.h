// Reference oracles for the determinism contract (docs/parallelism.md), kept out of the
// production library: only the test binaries and the equivalence benches
// (bench/micro_screening, bench/micro_stream) link this target.
//
// Each oracle is the slow original a production fast path replaced, kept so the fast
// path can be checked byte for byte forever:
//   ReferenceScreen    -- the pre-memoization per-processor screening model, against
//                         ScreeningPipeline::Run / RunBatch / StreamingScreen.
//   ReferenceGenerate  -- the per-processor generation loop (GenerateFleetShardGroup
//                         with GenerationPlan::blocked forced off), against the lane
//                         kernel.
//   FillBlock, Skip, ClassifyDrawPairs -- the one-stream scalar specification of the
//                         lane kernel GenerateClassifyLanes (src/common/simd.h): bulk
//                         raw draws, then the pair classification.
//   SimulateProtectedWorkloadReference -- the monolithic protection loop, against the
//                         ProtectionSession decomposition behind SimulateProtectedWorkload.
// plus the one set of identity comparators the suites and benches share.

#ifndef SDC_TESTS_ORACLE_ORACLE_H_
#define SDC_TESTS_ORACLE_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/common/context.h"
#include "src/common/rng.h"
#include "src/common/simd.h"
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

// Fills `out` with out.size() consecutive raw outputs of `rng` -- bit-for-bit the sequence
// that many Next() calls return, advancing the state identically -- from its own copy of
// the xoshiro256** update. The Gaussian cache is untouched.
void FillBlock(Rng& rng, std::span<uint64_t> out);

// Discards `count` raw outputs, as that many Next() calls would.
void Skip(Rng& rng, uint64_t count);

// Classifies `count` interleaved draw pairs: for each i, with a = draws[2i] >> 11 and
// f = draws[2i + 1] >> 11,
//   class_out[i]  = number of cdf_bounds_u53 entries <= a;
//   bit i of faulty_bits = (f < fault_thresholds_u53[class_out[i]]).
// faulty_bits must hold (count + 63) / 64 words; they are zeroed first. Returns the
// number of set faulty bits.
size_t ClassifyDrawPairs(const uint64_t* draws, size_t count,
                         const DrawClassifyTables& tables, uint8_t* class_out,
                         uint64_t* faulty_bits);

// Every SimdLevel this build can execute on this host, scalar first: the dispatch levels
// the equivalence suites sweep, so each vector body runs in some test.
std::vector<SimdLevel> SupportedSimdLevels();

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
// IdenticalFleets: packed columns, the faulty index, arena ranges, per-arch counts, every
// shard's generation tally, and every Defect field (doubles compared bitwise).
std::string IdenticalFleets(const FleetPopulation& a, const FleetPopulation& b);

}  // namespace sdc

#endif  // SDC_TESTS_ORACLE_ORACLE_H_
