#include <bit>
#include <cstdint>
#include <sstream>
#include <string>

#include "tests/oracle/oracle.h"

namespace sdc {
namespace {

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

std::string At(const std::string& vector, size_t index, const char* field) {
  return vector + "[" + std::to_string(index) + "]." + field;
}

template <typename T>
std::string Differ(const std::string& what, const T& a, const T& b) {
  std::ostringstream out;
  out << what << ": " << a << " vs " << b;
  return out.str();
}

std::string DifferBits(const std::string& what, double a, double b) {
  std::ostringstream out;
  out.precision(17);
  out << what << ": " << a << " (0x" << std::hex << std::bit_cast<uint64_t>(a) << ") vs "
      << std::dec << b << " (0x" << std::hex << std::bit_cast<uint64_t>(b) << ")";
  return out.str();
}

std::string CompareDetection(size_t i, const ProcessorOutcome& a, const ProcessorOutcome& b) {
  if (a.serial != b.serial) {
    return Differ(At("detections", i, "serial"), a.serial, b.serial);
  }
  if (a.arch_index != b.arch_index) {
    return Differ(At("detections", i, "arch_index"), a.arch_index, b.arch_index);
  }
  if (a.detected != b.detected) {
    return Differ(At("detections", i, "detected"), a.detected, b.detected);
  }
  if (a.stage != b.stage) {
    return Differ(At("detections", i, "stage"), StageName(a.stage), StageName(b.stage));
  }
  if (!SameBits(a.month, b.month)) {
    return DifferBits(At("detections", i, "month"), a.month, b.month);
  }
  return "";
}

std::string CompareProvenance(size_t i, const DetectionProvenance& a,
                              const DetectionProvenance& b) {
  if (a.serial != b.serial) {
    return Differ(At("provenance", i, "serial"), a.serial, b.serial);
  }
  if (a.defect_id != b.defect_id) {
    return Differ(At("provenance", i, "defect_id"), a.defect_id, b.defect_id);
  }
  if (a.defect_count != b.defect_count) {
    return Differ(At("provenance", i, "defect_count"), a.defect_count, b.defect_count);
  }
  if (a.arch_index != b.arch_index) {
    return Differ(At("provenance", i, "arch_index"), a.arch_index, b.arch_index);
  }
  if (a.stage != b.stage) {
    return Differ(At("provenance", i, "stage"), StageName(a.stage), StageName(b.stage));
  }
  if (a.sub_shard != b.sub_shard) {
    return Differ(At("provenance", i, "sub_shard"), a.sub_shard, b.sub_shard);
  }
  if (a.rng_stream != b.rng_stream) {
    return Differ(At("provenance", i, "rng_stream"), a.rng_stream, b.rng_stream);
  }
  if (!SameBits(a.onset_months, b.onset_months)) {
    return DifferBits(At("provenance", i, "onset_months"), a.onset_months, b.onset_months);
  }
  if (!SameBits(a.min_trigger_celsius, b.min_trigger_celsius)) {
    return DifferBits(At("provenance", i, "min_trigger_celsius"), a.min_trigger_celsius,
                      b.min_trigger_celsius);
  }
  if (!SameBits(a.stage_temperature_celsius, b.stage_temperature_celsius)) {
    return DifferBits(At("provenance", i, "stage_temperature_celsius"),
                      a.stage_temperature_celsius, b.stage_temperature_celsius);
  }
  if (!SameBits(a.month, b.month)) {
    return DifferBits(At("provenance", i, "month"), a.month, b.month);
  }
  return "";
}

// Every field of two defects; `where` names the arena slot.
std::string CompareDefect(const std::string& where, const Defect& a, const Defect& b) {
  if (a.id != b.id) {
    return Differ(where + ".id", a.id, b.id);
  }
  if (a.feature != b.feature) {
    return Differ(where + ".feature", static_cast<int>(a.feature), static_cast<int>(b.feature));
  }
  if (a.affected_ops != b.affected_ops) {
    return Differ(where + ".affected_ops.size()", a.affected_ops.size(),
                  b.affected_ops.size()) + " (or an element differs)";
  }
  if (a.affected_types != b.affected_types) {
    return Differ(where + ".affected_types.size()", a.affected_types.size(),
                  b.affected_types.size()) + " (or an element differs)";
  }
  if (a.affected_pcores != b.affected_pcores) {
    return Differ(where + ".affected_pcores.size()", a.affected_pcores.size(),
                  b.affected_pcores.size()) + " (or an element differs)";
  }
  if (a.pcore_rate_scale.size() != b.pcore_rate_scale.size()) {
    return Differ(where + ".pcore_rate_scale.size()", a.pcore_rate_scale.size(),
                  b.pcore_rate_scale.size());
  }
  for (size_t i = 0; i < a.pcore_rate_scale.size(); ++i) {
    if (!SameBits(a.pcore_rate_scale[i], b.pcore_rate_scale[i])) {
      return DifferBits(where + ".pcore_rate_scale[" + std::to_string(i) + "]",
                        a.pcore_rate_scale[i], b.pcore_rate_scale[i]);
    }
  }
  const struct {
    const char* name;
    double a;
    double b;
  } scalars[] = {
      {"min_trigger_celsius", a.min_trigger_celsius, b.min_trigger_celsius},
      {"base_log10_rate", a.base_log10_rate, b.base_log10_rate},
      {"temp_slope", a.temp_slope, b.temp_slope},
      {"intensity_ref", a.intensity_ref, b.intensity_ref},
      {"intensity_exponent", a.intensity_exponent, b.intensity_exponent},
      {"pattern_probability", a.pattern_probability, b.pattern_probability},
      {"multi_flip_probability", a.multi_flip_probability, b.multi_flip_probability},
      {"extra_flip_probability", a.extra_flip_probability, b.extra_flip_probability},
      {"onset_months", a.onset_months, b.onset_months},
  };
  for (const auto& scalar : scalars) {
    if (!SameBits(scalar.a, scalar.b)) {
      return DifferBits(where + "." + scalar.name, scalar.a, scalar.b);
    }
  }
  if (a.semantics != b.semantics) {
    return Differ(where + ".semantics", static_cast<int>(a.semantics),
                  static_cast<int>(b.semantics));
  }
  if (a.pattern_sets.size() != b.pattern_sets.size()) {
    return Differ(where + ".pattern_sets.size()", a.pattern_sets.size(),
                  b.pattern_sets.size());
  }
  for (size_t s = 0; s < a.pattern_sets.size(); ++s) {
    const PatternSet& x = a.pattern_sets[s];
    const PatternSet& y = b.pattern_sets[s];
    const std::string set = where + ".pattern_sets[" + std::to_string(s) + "]";
    if (x.type != y.type) {
      return Differ(set + ".type", static_cast<int>(x.type), static_cast<int>(y.type));
    }
    if (x.patterns.size() != y.patterns.size()) {
      return Differ(set + ".patterns.size()", x.patterns.size(), y.patterns.size());
    }
    for (size_t p = 0; p < x.patterns.size(); ++p) {
      const std::string pattern = set + ".patterns[" + std::to_string(p) + "]";
      if (x.patterns[p].mask.lo != y.patterns[p].mask.lo ||
          x.patterns[p].mask.hi != y.patterns[p].mask.hi) {
        return pattern + ".mask differs";
      }
      if (!SameBits(x.patterns[p].weight, y.patterns[p].weight)) {
        return DifferBits(pattern + ".weight", x.patterns[p].weight, y.patterns[p].weight);
      }
    }
  }
  return "";
}

}  // namespace

std::string IdenticalStats(const ScreeningStats& a, const ScreeningStats& b) {
  if (a.tested != b.tested) {
    return Differ("tested", a.tested, b.tested);
  }
  if (a.faulty != b.faulty) {
    return Differ("faulty", a.faulty, b.faulty);
  }
  for (size_t stage = 0; stage < a.detected_by_stage.size(); ++stage) {
    if (a.detected_by_stage[stage] != b.detected_by_stage[stage]) {
      return Differ("detected_by_stage[" + StageName(static_cast<TestStage>(stage)) + "]",
                    a.detected_by_stage[stage], b.detected_by_stage[stage]);
    }
  }
  for (size_t arch = 0; arch < a.tested_by_arch.size(); ++arch) {
    if (a.tested_by_arch[arch] != b.tested_by_arch[arch]) {
      return Differ("tested_by_arch[" + std::to_string(arch) + "]", a.tested_by_arch[arch],
                    b.tested_by_arch[arch]);
    }
    if (a.detected_by_arch[arch] != b.detected_by_arch[arch]) {
      return Differ("detected_by_arch[" + std::to_string(arch) + "]",
                    a.detected_by_arch[arch], b.detected_by_arch[arch]);
    }
  }
  if (a.detections.size() != b.detections.size()) {
    return Differ("detections.size()", a.detections.size(), b.detections.size());
  }
  for (size_t i = 0; i < a.detections.size(); ++i) {
    if (std::string mismatch = CompareDetection(i, a.detections[i], b.detections[i]);
        !mismatch.empty()) {
      return mismatch;
    }
  }
  if (a.provenance.size() != b.provenance.size()) {
    return Differ("provenance.size()", a.provenance.size(), b.provenance.size());
  }
  for (size_t i = 0; i < a.provenance.size(); ++i) {
    if (std::string mismatch = CompareProvenance(i, a.provenance[i], b.provenance[i]);
        !mismatch.empty()) {
      return mismatch;
    }
  }
  return "";
}

std::string IdenticalFleets(const FleetPopulation& a, const FleetPopulation& b) {
  if (a.size() != b.size()) {
    return Differ("size()", a.size(), b.size());
  }
  for (uint64_t serial = 0; serial < a.size(); ++serial) {
    if (a.arch_bytes()[serial] != b.arch_bytes()[serial]) {
      return Differ("arch_bytes[" + std::to_string(serial) + "]",
                    static_cast<int>(a.arch_bytes()[serial]),
                    static_cast<int>(b.arch_bytes()[serial]));
    }
    if (a.flag_bytes()[serial] != b.flag_bytes()[serial]) {
      return Differ("flag_bytes[" + std::to_string(serial) + "]",
                    static_cast<int>(a.flag_bytes()[serial]),
                    static_cast<int>(b.flag_bytes()[serial]));
    }
  }
  if (a.faulty_serials().size() != b.faulty_serials().size()) {
    return Differ("faulty_serials().size()", a.faulty_serials().size(),
                  b.faulty_serials().size());
  }
  for (size_t i = 0; i < a.faulty_serials().size(); ++i) {
    if (a.faulty_serials()[i] != b.faulty_serials()[i]) {
      return Differ("faulty_serials[" + std::to_string(i) + "]", a.faulty_serials()[i],
                    b.faulty_serials()[i]);
    }
    if (a.faulty_ranges()[i].offset != b.faulty_ranges()[i].offset) {
      return Differ(At("faulty_ranges", i, "offset"), a.faulty_ranges()[i].offset,
                    b.faulty_ranges()[i].offset);
    }
    if (a.faulty_ranges()[i].count != b.faulty_ranges()[i].count) {
      return Differ(At("faulty_ranges", i, "count"), a.faulty_ranges()[i].count,
                    b.faulty_ranges()[i].count);
    }
  }
  for (int arch = 0; arch < kArchCount; ++arch) {
    if (a.CountByArch(arch) != b.CountByArch(arch)) {
      return Differ("CountByArch(" + ArchName(arch) + ")", a.CountByArch(arch),
                    b.CountByArch(arch));
    }
  }
  for (uint64_t shard = 0; shard * kFleetShardGrain < a.size(); ++shard) {
    const FleetShardTally& x = *a.Shard(shard).tally;
    const FleetShardTally& y = *b.Shard(shard).tally;
    const std::string where = "Shard(" + std::to_string(shard) + ").tally->";
    if (x.faulty != y.faulty) {
      return Differ(where + "faulty", x.faulty, y.faulty);
    }
    if (x.defects != y.defects) {
      return Differ(where + "defects", x.defects, y.defects);
    }
    if (x.undetectable != y.undetectable) {
      return Differ(where + "undetectable", x.undetectable, y.undetectable);
    }
    for (size_t arch = 0; arch < x.by_arch.size(); ++arch) {
      if (x.by_arch[arch] != y.by_arch[arch]) {
        return Differ(where + "by_arch[" + std::to_string(arch) + "]", x.by_arch[arch],
                      y.by_arch[arch]);
      }
      if (x.defects_by_arch[arch] != y.defects_by_arch[arch]) {
        return Differ(where + "defects_by_arch[" + std::to_string(arch) + "]",
                      x.defects_by_arch[arch], y.defects_by_arch[arch]);
      }
    }
  }
  if (a.defect_arena().size() != b.defect_arena().size()) {
    return Differ("defect_arena().size()", a.defect_arena().size(),
                  b.defect_arena().size());
  }
  for (size_t i = 0; i < a.defect_arena().size(); ++i) {
    if (std::string mismatch = CompareDefect("defect_arena[" + std::to_string(i) + "]",
                                             a.defect_arena()[i], b.defect_arena()[i]);
        !mismatch.empty()) {
      return mismatch;
    }
  }
  return "";
}

}  // namespace sdc
