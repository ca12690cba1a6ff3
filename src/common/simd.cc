#include "src/common/simd.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define SDC_SIMD_X86 1
#endif

#if defined(__aarch64__) || defined(__ARM_NEON)
#include <arm_neon.h>
#define SDC_SIMD_NEON 1
#endif

namespace sdc {
namespace {

// Scalar reference: four interleaved sub-histograms keep the counter increments out of
// each other's store-to-load dependency chains (~4x over a naive scan) -- this is the
// former inline histogram of the screening kernel, now the fallback every vector path is
// checked against (tests/simd_test.cc).
void CountBytesScalar(const uint8_t* data, size_t size, int bucket_count,
                      uint64_t* counts) {
  uint64_t hist[4][256] = {};
  size_t i = 0;
  for (; i + 4 <= size; i += 4) {
    ++hist[0][data[i]];
    ++hist[1][data[i + 1]];
    ++hist[2][data[i + 2]];
    ++hist[3][data[i + 3]];
  }
  for (; i < size; ++i) {
    ++hist[0][data[i]];
  }
  for (int v = 0; v < bucket_count; ++v) {
    counts[v] += hist[0][v] + hist[1][v] + hist[2][v] + hist[3][v];
  }
}

// The vector paths count one bucket value per pass: compare-equal produces an all-ones
// (-1) lane per match, subtracting it accumulates matches in 8-bit lanes, and a horizontal
// sum widens to 64 bits before the 8-bit lanes can wrap (every <= 255 iterations). With
// bucket_count <= 16 the column stays L1-resident across the passes, so the extra passes
// cost far less than the scalar load-increment chain.

#if SDC_SIMD_X86 && !defined(SDC_FORCE_SCALAR)

uint64_t CountEqualSse2(const uint8_t* data, size_t size, uint8_t value) {
  const __m128i needle = _mm_set1_epi8(static_cast<char>(value));
  const __m128i zero = _mm_setzero_si128();
  __m128i wide = zero;
  size_t i = 0;
  while (i + 16 <= size) {
    __m128i acc = zero;
    for (int block = 0; block < 255 && i + 16 <= size; ++block, i += 16) {
      const __m128i chunk =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
      acc = _mm_sub_epi8(acc, _mm_cmpeq_epi8(chunk, needle));
    }
    wide = _mm_add_epi64(wide, _mm_sad_epu8(acc, zero));
  }
  uint64_t total = static_cast<uint64_t>(_mm_cvtsi128_si64(wide)) +
                   static_cast<uint64_t>(
                       _mm_cvtsi128_si64(_mm_unpackhi_epi64(wide, wide)));
  for (; i < size; ++i) {
    total += data[i] == value ? 1 : 0;
  }
  return total;
}

__attribute__((target("avx2"))) uint64_t CountEqualAvx2(const uint8_t* data, size_t size,
                                                        uint8_t value) {
  const __m256i needle = _mm256_set1_epi8(static_cast<char>(value));
  const __m256i zero = _mm256_setzero_si256();
  __m256i wide = zero;
  size_t i = 0;
  while (i + 32 <= size) {
    __m256i acc = zero;
    for (int block = 0; block < 255 && i + 32 <= size; ++block, i += 32) {
      const __m256i chunk =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
      acc = _mm256_sub_epi8(acc, _mm256_cmpeq_epi8(chunk, needle));
    }
    wide = _mm256_add_epi64(wide, _mm256_sad_epu8(acc, zero));
  }
  const __m128i halves = _mm_add_epi64(_mm256_castsi256_si128(wide),
                                       _mm256_extracti128_si256(wide, 1));
  uint64_t total = static_cast<uint64_t>(_mm_cvtsi128_si64(halves)) +
                   static_cast<uint64_t>(
                       _mm_cvtsi128_si64(_mm_unpackhi_epi64(halves, halves)));
  for (; i < size; ++i) {
    total += data[i] == value ? 1 : 0;
  }
  return total;
}

#endif  // SDC_SIMD_X86 && !SDC_FORCE_SCALAR

#if SDC_SIMD_NEON && !defined(SDC_FORCE_SCALAR)

uint64_t CountEqualNeon(const uint8_t* data, size_t size, uint8_t value) {
  const uint8x16_t needle = vdupq_n_u8(value);
  uint64_t total = 0;
  size_t i = 0;
  while (i + 16 <= size) {
    uint8x16_t acc = vdupq_n_u8(0);
    for (int block = 0; block < 255 && i + 16 <= size; ++block, i += 16) {
      acc = vsubq_u8(acc, vceqq_u8(vld1q_u8(data + i), needle));
    }
    total += vaddlvq_u8(acc);  // 16 lanes of <= 255 sum into 16 bits without wrapping
  }
  for (; i < size; ++i) {
    total += data[i] == value ? 1 : 0;
  }
  return total;
}

#endif  // SDC_SIMD_NEON && !SDC_FORCE_SCALAR

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// Rng::Next() of stream `lane` on word-major state, verbatim.
inline uint64_t NextOfLane(uint64_t (&s)[4][kGenerateLanes], int lane) {
  const uint64_t result = Rotl(s[1][lane] * 5, 7) * 9;
  const uint64_t t = s[1][lane] << 17;
  s[2][lane] ^= s[0][lane];
  s[3][lane] ^= s[1][lane];
  s[1][lane] ^= s[2][lane];
  s[0][lane] ^= s[3][lane];
  s[2][lane] ^= t;
  s[3][lane] = Rotl(s[3][lane], 45);
  return result;
}

// Portable body of GenerateClassifyLanes: the lanes' eight independent chains interleave
// step by step, which is what the scalar pipeline overlaps. The CDF walk is a fixed-trip
// branch-free count, so the only data-dependent branch is the rare fault candidate.
size_t GenerateClassifyLanesScalar(XoshiroLanes& lanes, unsigned active, size_t begin,
                                   size_t end, const DrawClassifyTables& tables,
                                   uint8_t* const class_out[kGenerateLanes],
                                   unsigned* faulty_lanes) {
  uint64_t s[4][kGenerateLanes];
  std::memcpy(s, lanes.words, sizeof(s));
  const int bounds = tables.class_count - 1;
  unsigned faulty = 0;
  size_t step = begin;
  for (; step < end && faulty == 0; ++step) {
    for (int lane = 0; lane < kGenerateLanes; ++lane) {
      const uint64_t a = NextOfLane(s, lane) >> 11;
      const uint64_t f = NextOfLane(s, lane) >> 11;
      if ((active >> lane & 1u) == 0) {
        continue;
      }
      unsigned cls = 0;
      for (int j = 0; j < bounds; ++j) {
        cls += tables.cdf_bounds_u53[j] <= a ? 1u : 0u;
      }
      class_out[lane][step] = static_cast<uint8_t>(cls);
      if (f < tables.fault_threshold_max_u53 && f < tables.fault_thresholds_u53[cls]) {
        faulty |= 1u << lane;
      }
    }
  }
  std::memcpy(lanes.words, s, sizeof(s));
  *faulty_lanes = faulty;
  return step;
}

#if SDC_SIMD_X86 && !defined(SDC_FORCE_SCALAR)

// Writes each active lane's class bytes of one chunk of `done` <= 8 steps, packed little-
// endian (step `step` in the low byte) in lane_bytes[lane], to class_out[lane] + step.
inline void StorePackedClasses(const uint64_t (&lane_bytes)[kGenerateLanes], unsigned active,
                               size_t step, size_t done,
                               uint8_t* const class_out[kGenerateLanes]) {
  for (unsigned rest = active; rest != 0; rest &= rest - 1) {
    const auto lane = static_cast<unsigned>(__builtin_ctz(rest));
    if (done == 8) {
      std::memcpy(class_out[lane] + step, &lane_bytes[lane], 8);
    } else {
      std::memcpy(class_out[lane] + step, &lane_bytes[lane], done);
    }
  }
}

// Rng::Next() on four lanes. AVX2 has no 64-bit multiply, so x * 5 and x * 9 are
// shift-adds (exact mod 2^64) and the rotates are shift/or pairs.
__attribute__((target("avx2"))) inline __m256i NextLanesAvx2(__m256i (&s)[4]) {
  const __m256i times5 = _mm256_add_epi64(s[1], _mm256_slli_epi64(s[1], 2));
  const __m256i rotated =
      _mm256_or_si256(_mm256_slli_epi64(times5, 7), _mm256_srli_epi64(times5, 57));
  const __m256i result = _mm256_add_epi64(rotated, _mm256_slli_epi64(rotated, 3));
  const __m256i t = _mm256_slli_epi64(s[1], 17);
  s[2] = _mm256_xor_si256(s[2], s[0]);
  s[3] = _mm256_xor_si256(s[3], s[1]);
  s[1] = _mm256_xor_si256(s[1], s[2]);
  s[0] = _mm256_xor_si256(s[0], s[3]);
  s[2] = _mm256_xor_si256(s[2], t);
  s[3] = _mm256_or_si256(_mm256_slli_epi64(s[3], 45), _mm256_srli_epi64(s[3], 19));
  return result;
}

// One step per iteration for all eight lanes, as two independent sets of four (lanes
// 0-3 and 4-7, one ymm per state word each): two draws, a shift to u53 space, and one
// compare and one subtract per CDF boundary to accumulate the class. All values are
// < 2^54 with the sign bit clear, so the signed cmpgt is an unsigned compare here;
// ">= bound" is "cmpgt(bound - 1)", exact even for bound == 0 (a >= 0 always holds, and
// 0 - 1 wraps to -1, which cmpgt also always exceeds). Each lane's class bytes collect in
// its 64-bit lane of `packed` and go out 8 steps per store. The fault test is a single
// compare against fault_threshold_max_u53: in a fleet that is almost all clean nearly
// every step has no lane below it, so the per-class threshold is looked up only for the
// rare candidate lanes.
__attribute__((target("avx2"))) size_t GenerateClassifyLanesAvx2(
    XoshiroLanes& lanes, unsigned active, size_t begin, size_t end,
    const DrawClassifyTables& tables, uint8_t* const class_out[kGenerateLanes],
    unsigned* faulty_lanes) {
  constexpr int kSets = kGenerateLanes / 4;
  __m256i s[kSets][4];
  for (int set = 0; set < kSets; ++set) {
    for (int w = 0; w < 4; ++w) {
      s[set][w] = _mm256_load_si256(reinterpret_cast<const __m256i*>(lanes.words[w] + 4 * set));
    }
  }
  const int bounds = tables.class_count - 1;
  __m256i bound_m1[kMaxClassifyClasses - 1];
  for (int j = 0; j < bounds; ++j) {
    bound_m1[j] = _mm256_set1_epi64x(static_cast<long long>(tables.cdf_bounds_u53[j] - 1));
  }
  const __m256i max_threshold =
      _mm256_set1_epi64x(static_cast<long long>(tables.fault_threshold_max_u53));
  unsigned faulty = 0;
  size_t step = begin;
  while (step < end && faulty == 0) {
    const size_t chunk = std::min<size_t>(8, end - step);
    __m256i packed[kSets];
    __m256i cls[kSets];
    __m256i f[kSets];
    for (int set = 0; set < kSets; ++set) {
      packed[set] = _mm256_setzero_si256();
    }
    size_t done = 0;
    while (done < chunk) {
      const __m128i shift = _mm_cvtsi64_si128(static_cast<long long>(8 * done));
      unsigned candidates = 0;
      for (int set = 0; set < kSets; ++set) {
        const __m256i a = _mm256_srli_epi64(NextLanesAvx2(s[set]), 11);
        f[set] = _mm256_srli_epi64(NextLanesAvx2(s[set]), 11);
        cls[set] = _mm256_setzero_si256();
        for (int j = 0; j < bounds; ++j) {
          cls[set] = _mm256_sub_epi64(cls[set], _mm256_cmpgt_epi64(a, bound_m1[j]));
        }
        packed[set] = _mm256_or_si256(packed[set], _mm256_sll_epi64(cls[set], shift));
        candidates |= static_cast<unsigned>(_mm256_movemask_pd(
                          _mm256_castsi256_pd(_mm256_cmpgt_epi64(max_threshold, f[set]))))
                      << (4 * set);
      }
      ++done;
      candidates &= active;
      if (candidates != 0) {
        alignas(32) uint64_t lane_class[kGenerateLanes];
        alignas(32) uint64_t lane_fault[kGenerateLanes];
        for (int set = 0; set < kSets; ++set) {
          _mm256_store_si256(reinterpret_cast<__m256i*>(lane_class + 4 * set), cls[set]);
          _mm256_store_si256(reinterpret_cast<__m256i*>(lane_fault + 4 * set), f[set]);
        }
        for (unsigned rest = candidates; rest != 0; rest &= rest - 1) {
          const auto lane = static_cast<unsigned>(__builtin_ctz(rest));
          if (lane_fault[lane] < tables.fault_thresholds_u53[lane_class[lane]]) {
            faulty |= 1u << lane;
          }
        }
        if (faulty != 0) {
          break;
        }
      }
    }
    alignas(32) uint64_t lane_bytes[kGenerateLanes];
    for (int set = 0; set < kSets; ++set) {
      _mm256_store_si256(reinterpret_cast<__m256i*>(lane_bytes + 4 * set), packed[set]);
    }
    StorePackedClasses(lane_bytes, active, step, done, class_out);
    step += done;
  }
  for (int set = 0; set < kSets; ++set) {
    for (int w = 0; w < 4; ++w) {
      _mm256_store_si256(reinterpret_cast<__m256i*>(lanes.words[w] + 4 * set), s[set][w]);
    }
  }
  *faulty_lanes = faulty;
  return step;
}

// GCC 12's avx512fintrin.h passes a self-initialized "undefined" vector to the masked
// builtins behind unmasked intrinsics, which -Wmaybe-uninitialized reports at every call.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#define SDC_TARGET_AVX512 __attribute__((target("avx512f,avx512bw,avx512dq,avx512vl")))

// Rng::Next() on all eight lanes. x * 5 and x * 9 stay shift-adds (vpmullq is several
// times slower), the rotates are single vprolq, and the state update is three XOR
// triples (vpternlogq 0x96 = a ^ b ^ c) plus one XOR, all read from the old words:
//   s1' = s1 ^ s2 ^ s0,  s0' = s0 ^ s3 ^ s1,  s2' = s2 ^ s0 ^ (s1 << 17),
//   s3' = rotl(s3 ^ s1, 45)
// -- the same words Rng::Next's six sequential updates leave.
SDC_TARGET_AVX512 inline __m512i NextLanesAvx512(__m512i (&s)[4]) {
  const __m512i times5 = _mm512_add_epi64(s[1], _mm512_slli_epi64(s[1], 2));
  const __m512i rotated = _mm512_rol_epi64(times5, 7);
  const __m512i result = _mm512_add_epi64(rotated, _mm512_slli_epi64(rotated, 3));
  const __m512i t = _mm512_slli_epi64(s[1], 17);
  const __m512i s0 = _mm512_ternarylogic_epi64(s[0], s[3], s[1], 0x96);
  const __m512i s1 = _mm512_ternarylogic_epi64(s[1], s[2], s[0], 0x96);
  const __m512i s2 = _mm512_ternarylogic_epi64(s[2], s[0], t, 0x96);
  s[3] = _mm512_rol_epi64(_mm512_xor_si512(s[3], s[1]), 45);
  s[0] = s0;
  s[1] = s1;
  s[2] = s2;
  return result;
}

// The AVX2 body's step with one zmm per state word. The CDF walk is an unsigned compare
// into a mask register per boundary and a masked add of the step's byte unit, so each
// lane's class accumulates straight into its byte of `packed` (a class is < 16 and never
// carries). The quick reject is one masked compare of the active lanes against
// fault_threshold_max_u53; the rare candidates resolve against their own class's
// threshold in-register (vpermt2q picks each lane's entry out of the 16-entry table by
// its class byte, the top byte of `packed` written so far).
SDC_TARGET_AVX512 size_t GenerateClassifyLanesAvx512(
    XoshiroLanes& lanes, unsigned active, size_t begin, size_t end,
    const DrawClassifyTables& tables, uint8_t* const class_out[kGenerateLanes],
    unsigned* faulty_lanes) {
  static_assert(kGenerateLanes == 8 && kMaxClassifyClasses == 16);
  __m512i s[4];
  for (int w = 0; w < 4; ++w) {
    s[w] = _mm512_load_si512(lanes.words[w]);
  }
  const int bounds = tables.class_count - 1;
  __m512i bound[kMaxClassifyClasses - 1];
  for (int j = 0; j < bounds; ++j) {
    bound[j] = _mm512_set1_epi64(static_cast<long long>(tables.cdf_bounds_u53[j]));
  }
  const __m512i max_threshold =
      _mm512_set1_epi64(static_cast<long long>(tables.fault_threshold_max_u53));
  const __m512i thresholds_low = _mm512_loadu_si512(tables.fault_thresholds_u53);
  const __m512i thresholds_high = _mm512_loadu_si512(tables.fault_thresholds_u53 + 8);
  const __m512i one = _mm512_set1_epi64(1);
  const auto live = static_cast<__mmask8>(active);
  __mmask8 faulty = 0;
  size_t step = begin;
  while (step < end && faulty == 0) {
    const size_t chunk = std::min<size_t>(8, end - step);
    __m512i packed = _mm512_setzero_si512();
    __m512i unit = one;  // 1 in the byte of the current step
    size_t done = 0;
    while (done < chunk) {
      const __m512i a = _mm512_srli_epi64(NextLanesAvx512(s), 11);
      const __m512i f = _mm512_srli_epi64(NextLanesAvx512(s), 11);
      for (int j = 0; j < bounds; ++j) {
        packed = _mm512_mask_add_epi64(packed, _mm512_cmpge_epu64_mask(a, bound[j]), packed,
                                       unit);
      }
      unit = _mm512_slli_epi64(unit, 8);
      ++done;
      const __mmask8 candidates = _mm512_mask_cmplt_epu64_mask(live, f, max_threshold);
      if (candidates != 0) {
        const __m512i cls =
            _mm512_srl_epi64(packed, _mm_cvtsi64_si128(static_cast<long long>(8 * done - 8)));
        const __m512i threshold =
            _mm512_permutex2var_epi64(thresholds_low, cls, thresholds_high);
        faulty = _mm512_mask_cmplt_epu64_mask(candidates, f, threshold);
        if (faulty != 0) {
          break;
        }
      }
    }
    alignas(64) uint64_t lane_bytes[kGenerateLanes];
    _mm512_store_si512(lane_bytes, packed);
    StorePackedClasses(lane_bytes, active, step, done, class_out);
    step += done;
  }
  for (int w = 0; w < 4; ++w) {
    _mm512_store_si512(lanes.words[w], s[w]);
  }
  *faulty_lanes = faulty;
  return step;
}

#undef SDC_TARGET_AVX512
#pragma GCC diagnostic pop

#endif  // SDC_SIMD_X86 && !SDC_FORCE_SCALAR

SimdLevel DetectBestLevel() {
#if defined(SDC_FORCE_SCALAR)
  return SimdLevel::kScalar;
#else
#if SDC_SIMD_X86
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512dq") && __builtin_cpu_supports("avx512vl")) {
    return SimdLevel::kAVX512;
  }
  if (__builtin_cpu_supports("avx2")) {
    return SimdLevel::kAVX2;
  }
  return SimdLevel::kSSE2;  // baseline on x86-64
#elif SDC_SIMD_NEON
  return SimdLevel::kNEON;
#else
  return SimdLevel::kScalar;
#endif
#endif
}

// True when this build can execute `level` on this host.
bool LevelSupported(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAuto:
    case SimdLevel::kScalar:
      return true;
    case SimdLevel::kSSE2:
#if SDC_SIMD_X86 && !defined(SDC_FORCE_SCALAR)
      return true;
#else
      return false;
#endif
    case SimdLevel::kAVX2:
      return BestSupportedSimdLevel() == SimdLevel::kAVX2 ||
             BestSupportedSimdLevel() == SimdLevel::kAVX512;
    case SimdLevel::kAVX512:
      return BestSupportedSimdLevel() == SimdLevel::kAVX512;
    case SimdLevel::kNEON:
#if SDC_SIMD_NEON && !defined(SDC_FORCE_SCALAR)
      return true;
#else
      return false;
#endif
  }
  return false;
}

}  // namespace

std::string SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAuto:
      return "auto";
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kSSE2:
      return "sse2";
    case SimdLevel::kAVX2:
      return "avx2";
    case SimdLevel::kNEON:
      return "neon";
    case SimdLevel::kAVX512:
      return "avx512";
  }
  return "?";
}

SimdLevel ParseSimdLevel(const std::string& name) {
  if (name == "scalar") {
    return SimdLevel::kScalar;
  }
  if (name == "sse2") {
    return SimdLevel::kSSE2;
  }
  if (name == "avx2") {
    return SimdLevel::kAVX2;
  }
  if (name == "neon") {
    return SimdLevel::kNEON;
  }
  if (name == "avx512") {
    return SimdLevel::kAVX512;
  }
  return SimdLevel::kAuto;
}

SimdLevel BestSupportedSimdLevel() {
  static const SimdLevel best = DetectBestLevel();
  return best;
}

SimdLevel ClampSimdLevel(SimdLevel requested) {
  if (requested == SimdLevel::kAuto || !LevelSupported(requested)) {
    return BestSupportedSimdLevel();
  }
  return requested;
}

SimdLevel ResolveSimdLevel(SimdLevel requested) {
  // Environment override first (read per resolve, not cached: tests and CI toggle it),
  // then kAuto -> best, then clamp anything the host cannot run down to best.
  if (const char* env = std::getenv("SDC_SIMD")) {
    const SimdLevel parsed = ParseSimdLevel(env);
    if (parsed != SimdLevel::kAuto || std::string(env) == "auto") {
      requested = parsed;
    }
  }
  return ClampSimdLevel(requested);
}

void CountBytesByValue(const uint8_t* data, size_t size, int bucket_count,
                       uint64_t* counts, SimdLevel level) {
  if (size == 0 || bucket_count <= 0) {
    return;
  }
  // Last-line clamp so an unresolved request can never execute an unsupported
  // instruction; callers normally pass through ResolveSimdLevel (which also reads
  // SDC_SIMD) once per run.
  if (level == SimdLevel::kAuto || !LevelSupported(level)) {
    level = BestSupportedSimdLevel();
  }
  switch (level) {
#if SDC_SIMD_X86 && !defined(SDC_FORCE_SCALAR)
    case SimdLevel::kSSE2:
      for (int v = 0; v < bucket_count; ++v) {
        counts[v] += CountEqualSse2(data, size, static_cast<uint8_t>(v));
      }
      return;
    case SimdLevel::kAVX2:
    case SimdLevel::kAVX512:
      for (int v = 0; v < bucket_count; ++v) {
        counts[v] += CountEqualAvx2(data, size, static_cast<uint8_t>(v));
      }
      return;
#endif
#if SDC_SIMD_NEON && !defined(SDC_FORCE_SCALAR)
    case SimdLevel::kNEON:
      for (int v = 0; v < bucket_count; ++v) {
        counts[v] += CountEqualNeon(data, size, static_cast<uint8_t>(v));
      }
      return;
#endif
    default:
      CountBytesScalar(data, size, bucket_count, counts);
      return;
  }
}

size_t GenerateClassifyLanes(XoshiroLanes& lanes, unsigned active, size_t begin,
                             size_t end, const DrawClassifyTables& tables,
                             uint8_t* const class_out[kGenerateLanes],
                             unsigned* faulty_lanes, SimdLevel level) {
  if (level == SimdLevel::kAuto || !LevelSupported(level)) {
    level = BestSupportedSimdLevel();
  }
#if SDC_SIMD_X86 && !defined(SDC_FORCE_SCALAR)
  if (level == SimdLevel::kAVX512) {
    return GenerateClassifyLanesAvx512(lanes, active, begin, end, tables, class_out,
                                       faulty_lanes);
  }
  if (level == SimdLevel::kAVX2) {
    return GenerateClassifyLanesAvx2(lanes, active, begin, end, tables, class_out,
                                     faulty_lanes);
  }
#endif
  return GenerateClassifyLanesScalar(lanes, active, begin, end, tables, class_out,
                                     faulty_lanes);
}

}  // namespace sdc
