// Portable SIMD kernels of the fleet generator (docs/performance.md).
//
// Two kernels live here. GenerateClassifyLanes is the generator's hot loop: it steps
// kGenerateLanes independent xoshiro256** streams side by side and classifies their draws
// into arch bytes (an AVX-512 body, an AVX2 body over two register sets, and a portable
// scalar body). CountBytesByValue turns a finished arch column into the shard's per-arch
// counts with vector compare + accumulate (SSE2/AVX2 on x86-64, NEON on aarch64) and a
// scalar fallback. Every level produces the same exact bytes and counts, so picking a
// level is purely a speed decision and never a behavior change -- the determinism
// contract of docs/parallelism.md is untouched by dispatch.
//
// Dispatch layers, strongest wins:
//   1. -DSDC_FORCE_SCALAR (CMake option SDC_FORCE_SCALAR) pins every call to the scalar
//      path at compile time -- the CI matrix leg that proves the fallback end-to-end.
//   2. The SDC_SIMD environment variable ("scalar", "sse2", "avx2", "avx512", "neon",
//      "auto") overrides whatever the caller requested, clamped to what the host
//      supports.
//   3. The caller's requested level (EngineOptions::simd), kAuto meaning "best
//      supported". Requests above the host's capability clamp down, never fault; a
//      level below the best one the host runs is honored as asked.

#ifndef SDC_SRC_COMMON_SIMD_H_
#define SDC_SRC_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace sdc {

enum class SimdLevel {
  kAuto = 0,  // resolve to the best supported level
  kScalar,
  kSSE2,
  kAVX2,
  kNEON,
  kAVX512,  // AVX-512 F+BW+DQ+VL; CountBytesByValue runs its AVX2 body at this level
};

// Display name ("auto", "scalar", "sse2", "avx2", "neon", "avx512").
std::string SimdLevelName(SimdLevel level);

// Parses a SimdLevel name; returns kAuto for unrecognized text.
SimdLevel ParseSimdLevel(const std::string& name);

// Best level this binary can execute on this host (CPUID-checked on x86-64, detected
// once). kScalar when built with SDC_FORCE_SCALAR.
SimdLevel BestSupportedSimdLevel();

// Resolves a requested level against the host alone, without consulting the environment:
// kAuto and anything the host cannot execute map to BestSupportedSimdLevel(). Engine code
// running under an EngineContext (src/common/context.h) uses this form after the context
// resolved SDC_SIMD once at construction.
SimdLevel ClampSimdLevel(SimdLevel requested);

// Resolves a requested level against the environment and the host: SDC_SIMD (when set to
// a recognized name) replaces `requested`; ClampSimdLevel then applies.
SimdLevel ResolveSimdLevel(SimdLevel requested);

// counts[v] += number of bytes in [data, data + size) equal to v, for v in
// [0, bucket_count). Every byte must be < bucket_count (the generator's arch columns
// guarantee arch bytes < kArchCount); bucket_count must be in [1, 256]. `level` kAuto resolves via
// ResolveSimdLevel; any level yields bit-identical counts. Alignment-agnostic: unaligned
// begins and tails shorter than the vector width take the scalar epilogue.
void CountBytesByValue(const uint8_t* data, size_t size, int bucket_count,
                       uint64_t* counts, SimdLevel level = SimdLevel::kAuto);

// Classification tables of the fleet generator's lane kernel (docs/performance.md): the
// arch CDF boundaries and the per-arch faulty-prevalence thresholds, both in the integer
// draw space u53 = raw >> 11 of src/common/rng.h. Entries beyond the used prefix must be
// padded with kClassifyNever (a boundary above every possible draw) so the kernels can
// run fixed-trip-count loops over the full arrays.
inline constexpr int kMaxClassifyClasses = 16;
inline constexpr uint64_t kClassifyNever = uint64_t{1} << 53;

struct DrawClassifyTables {
  int class_count = 0;  // in [1, kMaxClassifyClasses]
  // cdf_bounds_u53[i] = smallest u53 classified above class i; class_count - 1 used.
  uint64_t cdf_bounds_u53[kMaxClassifyClasses - 1];
  // fault_thresholds_u53[c] = faulty iff the second draw's u53 < this; class_count used.
  uint64_t fault_thresholds_u53[kMaxClassifyClasses];
  // An upper bound on the used fault thresholds (their max, as GenerationPlan fills it):
  // the kernels' quick reject. A draw pair with f >= this is clean whatever its class, so
  // only the rare lanes below it look up their own class's threshold. The default,
  // kClassifyNever, is a valid bound that rejects nothing.
  uint64_t fault_threshold_max_u53 = kClassifyNever;
};

// Independent xoshiro256** streams the lane kernel steps side by side: one per 64-bit
// lane of an AVX-512 register (two AVX2 register sets), so kGenerateLanes fleet shards
// share one register set.
inline constexpr int kGenerateLanes = 8;

// The streams' state, word-major: words[w][lane] is state word w of stream `lane` (the
// layout of Rng::State), so one zmm load (two ymm loads) brings the same word of every
// stream.
struct XoshiroLanes {
  alignas(64) uint64_t words[4][kGenerateLanes];
};

// The fused generate + classify kernel of the fleet generator. For each step in
// [begin, end) it draws two raw outputs a, f from every lane's stream (exactly two Next()
// calls of that stream) and, for each lane in the `active` bit mask, stores
//   class_out[lane][step] = number of cdf_bounds_u53 entries <= a >> 11
// (the branchless CDF walk). Lane `lane` is faulty at a step when
// f >> 11 < fault_thresholds_u53[its class]. The kernel stops after the first step at
// which some active lane is faulty: it returns that step + 1 with the faulty active lanes
// in *faulty_lanes, and the streams positioned just past that step's draws, so a caller
// can continue a faulty lane's stream from its state. Without a hit it returns `end`
// with *faulty_lanes = 0. Inactive lanes are stepped but store nothing, their
// class_out entry may be null, and their faults are ignored.
//
// fault_threshold_max_u53 only decides which lanes are checked exactly; it never changes
// the output while it bounds the used thresholds. All u53 values and table entries are
// < 2^54, which is what lets the AVX2 body use signed 64-bit compares (AVX-512 compares
// unsigned). Every level yields bit-identical output: AVX-512 and AVX2 have vector
// bodies, every other level (SSE2 has no 64-bit vector compare) runs the portable scalar
// body, so dispatch is never a behavior change.
// The scalar specification -- Rng::Next per draw, then the pair classification -- lives
// with the tests (tests/oracle/oracle.h).
size_t GenerateClassifyLanes(XoshiroLanes& lanes, unsigned active, size_t begin,
                             size_t end, const DrawClassifyTables& tables,
                             uint8_t* const class_out[kGenerateLanes],
                             unsigned* faulty_lanes, SimdLevel level = SimdLevel::kAuto);

}  // namespace sdc

#endif  // SDC_SRC_COMMON_SIMD_H_
