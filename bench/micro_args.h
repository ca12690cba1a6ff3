// Strict command line for the JSON micro benches (micro_stream, micro_screening,
// micro_trace, micro_scrub): `[count] [repeats]`, both positive base-10 integers. A bench
// that silently coerced "--help" or a typo to a 0-processor run would print
// "ns_per_processor": inf, so every operand goes through src/common/parse.h instead.

#ifndef SDC_BENCH_MICRO_ARGS_H_
#define SDC_BENCH_MICRO_ARGS_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "src/common/parse.h"

namespace sdc {

struct MicroArgs {
  uint64_t count = 0;
  int repeats = 0;
};

// Parses argv as `[count] [repeats]` (`[count]` alone when default_repeats is 0).
// --help prints `usage` to stdout and exits 0; a non-numeric, zero, negative or
// surplus operand prints it to stderr and exits 2. The returned count and repeats are
// therefore never zero, so no per-processor or per-repeat figure can divide by zero.
inline MicroArgs ParseMicroArgs(int argc, char** argv, const char* usage,
                                uint64_t default_count, int default_repeats) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      std::printf("%s\n", usage);
      std::exit(0);
    }
  }
  MicroArgs args{default_count, default_repeats};
  const int max_operands = default_repeats > 0 ? 2 : 1;
  bool ok = argc - 1 <= max_operands;
  if (ok && argc > 1) {
    const std::optional<uint64_t> count = ParseUint64(argv[1]);
    ok = count.has_value() && *count > 0;
    args.count = count.value_or(0);
  }
  if (ok && argc > 2) {
    const std::optional<int> repeats = ParseInt(argv[2]);
    ok = repeats.has_value() && *repeats > 0;
    args.repeats = repeats.value_or(0);
  }
  if (!ok) {
    std::fprintf(stderr, "%s\n", usage);
    std::exit(2);
  }
  return args;
}

}  // namespace sdc

#endif  // SDC_BENCH_MICRO_ARGS_H_
