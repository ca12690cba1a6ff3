// perfprobe: the in-process half of the perfbench benchmark (perfbench/README.md).
//
// perfbench/run.py times the shipped sdcctl and sdcd binaries from outside. This program
// gives it what cannot be seen from outside: it calls the same public library functions
// the CLI and the daemon call, and records a span around each call, so the per-layer
// numbers come from the benchmark's own code without touching the program under test.
//
//   perfprobe setup   --workload stream|sweep|scrub --lanes L --repeat R
//                     [--processors N] [--sweep-file F] --out FILE
//       times the set-up a one-shot run pays before its first shard or epoch, R times
//   perfprobe profile --lanes L --seed S --stream-processors N --sweep-processors M
//                     --sweep-file F --scrub-fleet P --scrub-hours H
//                     [--overhead-pass stream|sweep|scrub --overhead-pairs K] --out FILE
//       one traced pass over each one-shot path (stream, materialized sweep, scrub);
//       then, for the tracing overhead, K pairs of one path run untraced and traced
//   perfprobe load    --socket PATH --seconds T --seed S --processors N --campaigns K
//                     --trace 0|1 --out FILE
//       the sdcd load generator: three closed-loop submitters share K campaigns while
//       one open-loop poller runs; T caps the session
//
// Every mode writes one JSON document to --out when it ends; spans are kept in memory
// until then. Operands are parsed strictly (src/common/parse.h): an unknown flag or a
// malformed operand exits 2 with usage, and nothing runs.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/common/context.h"
#include "src/common/parse.h"
#include "src/common/simd.h"
#include "src/common/table.h"
#include "src/daemon/client.h"
#include "src/daemon/spec.h"
#include "src/fleet/pipeline.h"
#include "src/fleet/population.h"
#include "src/fleet/stream.h"
#include "src/report/exporters.h"
#include "src/report/json_writer.h"
#include "src/scrub/scrubber.h"
#include "src/toolchain/registry.h"

namespace sdc {
namespace {

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// One timed call. `parent` indexes the enclosing span in the same log (-1 = root);
// `request` names the unit of work (shard, epoch or campaign; -1 = none); `lane` is the
// worker lane for spans recorded on pool threads.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int64_t request = -1;
  int lane = 0;
};

// Spans recorded on the driving thread, written out once when the probe ends.
class SpanLog {
 public:
  int Begin(const char* name, int parent, int64_t request = -1) {
    spans_.push_back({name, NowNs(), 0, parent, request, 0});
    return static_cast<int>(spans_.size() - 1);
  }
  void End(int index) { spans_[static_cast<size_t>(index)].end_ns = NowNs(); }
  void Add(const Span& span) { spans_.push_back(span); }
  const Span& at(int index) const { return spans_[static_cast<size_t>(index)]; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// Decorator around the consumer FleetShardStream::Drive feeds. Screen time is the time
// inside the wrapped ConsumeShard; generate time is, per lane, the gap from the end of
// that lane's previous ConsumeShard (or from Drive start) to the start of the next, which
// includes the shard claim and GenerateFleetShard. The fold is the wrapped EndStream.
// Each lane appends to its own span vector, so recording takes no lock.
class TimedConsumer : public ShardConsumer {
 public:
  static constexpr int kMaxLanes = 256;

  TimedConsumer(ShardConsumer* inner, int64_t drive_start_ns)
      : inner_(inner), drive_start_ns_(drive_start_ns), id_(next_id_.fetch_add(1)) {}

  void BeginStreamWithContext(EngineContext* context, const PopulationConfig& config,
                              uint64_t shard_count) override {
    begin_.start_ns = NowNs();
    begin_.name = "fleet.begin_stream";
    inner_->BeginStreamWithContext(context, config, shard_count);
    begin_.end_ns = NowNs();
    shard_count_ = shard_count;
  }
  void BeginStream(const PopulationConfig& config, uint64_t shard_count) override {
    inner_->BeginStream(config, shard_count);
  }
  void ConsumeShard(const FleetShard& shard) override {
    Lane& lane = ThisLane();
    const int64_t start = NowNs();
    inner_->ConsumeShard(shard);
    const int64_t end = NowNs();
    const auto request = static_cast<int64_t>(shard.shard);
    lane.spans.push_back({"fleet.generate", lane.last_end_ns, start, -1, request, lane.index});
    lane.spans.push_back({"fleet.screen", start, end, -1, request, lane.index});
    lane.last_end_ns = end;
  }
  void EndStream() override {
    fold_.name = "fleet.fold";
    fold_.start_ns = NowNs();
    inner_->EndStream();
    fold_.end_ns = NowNs();
  }

  // Moves every recorded span into `log` as a child of `parent` (the drive span).
  void AppendTo(SpanLog& log, int parent) {
    begin_.parent = parent;
    log.Add(begin_);
    for (int i = 0; i < lanes_used(); ++i) {
      for (Span span : lanes_[static_cast<size_t>(i)].spans) {
        span.parent = parent;
        log.Add(span);
      }
    }
    fold_.parent = parent;
    log.Add(fold_);
  }
  int lanes_used() const { return lanes_used_.load(); }

 private:
  struct Lane {
    int index = 0;
    int64_t last_end_ns = 0;
    std::vector<Span> spans;
  };
  struct LaneSlot {
    uint64_t owner = 0;
    Lane* lane = nullptr;
  };

  // Binds the calling pool thread to its own lane on its first shard of this pass.
  Lane& ThisLane() {
    thread_local LaneSlot slot;
    if (slot.owner != id_) {
      const int index = lanes_used_.fetch_add(1);
      if (index >= kMaxLanes) {
        std::cerr << "perfprobe: more pool lanes than the decorator can record\n";
        std::abort();
      }
      Lane& lane = lanes_[static_cast<size_t>(index)];
      lane.index = index;
      lane.last_end_ns = drive_start_ns_;
      lane.spans.reserve(2 * shard_count_ + 2);
      slot = {id_, &lane};
    }
    return *slot.lane;
  }

  static inline std::atomic<uint64_t> next_id_{1};

  ShardConsumer* inner_;
  int64_t drive_start_ns_;
  uint64_t id_;
  uint64_t shard_count_ = 0;
  std::atomic<int> lanes_used_{0};
  std::array<Lane, kMaxLanes> lanes_{};
  Span begin_;
  Span fold_;
};

// ---------------------------------------------------------------------------------------
// Output rendering shared with sdcctl: the same tables, so run.py can compare bytes.

std::string RenderScreenTable(const ScreeningStats& stats) {
  TextTable table({"stage", "detections", "rate"});
  for (int stage = 0; stage < kStageCount; ++stage) {
    table.AddRow({StageName(static_cast<TestStage>(stage)),
                  std::to_string(stats.detected_by_stage[stage]),
                  FormatPermyriad(stats.StageRate(static_cast<TestStage>(stage)))});
  }
  table.AddRow({"total", std::to_string(stats.total_detected()),
                FormatPermyriad(stats.TotalRate())});
  std::ostringstream out;
  table.Print(out);
  return out.str();
}

std::string RenderSweepTable(const std::vector<SweepScenario>& scenarios,
                             const std::vector<ScreeningStats>& stats) {
  TextTable table({"scenario", "seed", "period(m)", "factory", "datacenter", "re-install",
                   "regular", "total", "rate"});
  for (size_t k = 0; k < stats.size(); ++k) {
    const ScreeningConfig& config = scenarios[k].config;
    table.AddRow({scenarios[k].name, std::to_string(config.seed),
                  FormatDouble(config.regular_period_months, 1),
                  std::to_string(stats[k].detected_by_stage[0]),
                  std::to_string(stats[k].detected_by_stage[1]),
                  std::to_string(stats[k].detected_by_stage[2]),
                  std::to_string(stats[k].detected_by_stage[3]),
                  std::to_string(stats[k].total_detected()),
                  FormatPermyriad(stats[k].TotalRate())});
  }
  std::ostringstream out;
  table.Print(out);
  return out.str();
}

// ---------------------------------------------------------------------------------------
// Command line.

struct Options {
  std::string mode;
  std::string workload;
  std::string out;
  std::string sweep_file;
  std::string socket;
  std::string scrub_hours = "2000";
  std::string overhead_pass;
  int overhead_pairs = 0;
  int lanes = 4;
  int repeat = 5;
  int trace = 0;
  uint64_t seed = 1;
  uint64_t seconds = 10;
  uint64_t processors = 2'000'000;
  uint64_t campaigns = 200;
  uint64_t stream_processors = 64'000'000;
  uint64_t sweep_processors = 16'000'000;
  uint64_t scrub_fleet = 100'000;
};

int Usage() {
  std::cerr
      << "usage: perfprobe setup   --workload stream|sweep|scrub --lanes L --repeat R\n"
         "                         [--processors N] [--sweep-file F] --out FILE\n"
         "       perfprobe profile --lanes L --seed S --stream-processors N\n"
         "                         --sweep-processors M --sweep-file F --scrub-fleet P\n"
         "                         --scrub-hours H [--overhead-pass stream|sweep|scrub\n"
         "                         --overhead-pairs K] --out FILE\n"
         "       perfprobe load    --socket PATH --seconds T --seed S --processors N\n"
         "                         --campaigns K --trace 0|1 --out FILE\n";
  return 2;
}

// Parses argv strictly; nullopt means usage error (already reported).
std::optional<Options> ParseOptions(int argc, char** argv) {
  if (argc < 2) {
    return std::nullopt;
  }
  Options options;
  options.mode = argv[1];
  if (options.mode != "setup" && options.mode != "profile" && options.mode != "load") {
    std::cerr << "perfprobe: unknown mode '" << options.mode << "'\n";
    return std::nullopt;
  }
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::cerr << "perfprobe: " << flag << " requires an operand\n";
      return std::nullopt;
    }
    const std::string value = argv[++i];
    bool ok = true;
    auto positive = [&](uint64_t& target) {
      const auto parsed = ParseUint64(value);
      ok = parsed.has_value() && *parsed > 0;
      if (ok) target = *parsed;
    };
    auto small_int = [&](int& target, int lo, int hi) {
      const auto parsed = ParseInt(value);
      ok = parsed.has_value() && *parsed >= lo && *parsed <= hi;
      if (ok) target = *parsed;
    };
    if (flag == "--workload") {
      ok = value == "stream" || value == "sweep" || value == "scrub";
      options.workload = value;
    } else if (flag == "--overhead-pass") {
      ok = value == "stream" || value == "sweep" || value == "scrub";
      options.overhead_pass = value;
    } else if (flag == "--overhead-pairs") {
      small_int(options.overhead_pairs, 0, 100);
    } else if (flag == "--out") {
      ok = !value.empty();
      options.out = value;
    } else if (flag == "--sweep-file") {
      ok = !value.empty();
      options.sweep_file = value;
    } else if (flag == "--socket") {
      ok = !value.empty();
      options.socket = value;
    } else if (flag == "--scrub-hours") {
      const auto parsed = ParseDouble(value);
      ok = parsed.has_value() && *parsed > 0.0;
      options.scrub_hours = value;
    } else if (flag == "--lanes") {
      small_int(options.lanes, 1, 256);
    } else if (flag == "--repeat") {
      small_int(options.repeat, 1, 1000);
    } else if (flag == "--trace") {
      small_int(options.trace, 0, 1);
    } else if (flag == "--seed") {
      const auto parsed = ParseUint64(value);
      ok = parsed.has_value();
      if (ok) options.seed = *parsed;
    } else if (flag == "--seconds") {
      positive(options.seconds);
    } else if (flag == "--campaigns") {
      positive(options.campaigns);
    } else if (flag == "--processors") {
      positive(options.processors);
    } else if (flag == "--stream-processors") {
      positive(options.stream_processors);
    } else if (flag == "--sweep-processors") {
      positive(options.sweep_processors);
    } else if (flag == "--scrub-fleet") {
      positive(options.scrub_fleet);
    } else {
      std::cerr << "perfprobe: unknown flag '" << flag << "'\n";
      return std::nullopt;
    }
    if (!ok) {
      std::cerr << "perfprobe: invalid " << flag << " operand: '" << value << "'\n";
      return std::nullopt;
    }
  }
  const bool needs_sweep = options.mode == "profile" ||
                           (options.mode == "setup" && options.workload == "sweep");
  if (options.out.empty() || (options.mode == "setup" && options.workload.empty()) ||
      (needs_sweep && options.sweep_file.empty()) ||
      (options.mode == "load" && options.socket.empty()) ||
      (options.overhead_pairs > 0 && options.overhead_pass.empty())) {
    std::cerr << "perfprobe: missing required flag for mode " << options.mode << "\n";
    return std::nullopt;
  }
  return options;
}

std::vector<SweepScenario> LoadSweep(const std::string& file) {
  std::vector<SweepScenario> scenarios;
  std::string error;
  if (!ParseSweepSpec(file, scenarios, error)) {
    throw std::runtime_error("sweep file " + file + ": " + error);
  }
  return scenarios;
}

EngineOptions LaneOptions(int lanes) {
  EngineOptions options;
  options.threads = lanes;
  return options;
}

void WriteSpans(JsonWriter& json, const std::vector<Span>& spans, int64_t origin_ns) {
  json.Key("spans").BeginArray();
  for (const Span& span : spans) {
    json.BeginObject();
    json.KeyValue("name", span.name);
    json.KeyValue("start_ns", span.start_ns - origin_ns);
    json.KeyValue("end_ns", span.end_ns - origin_ns);
    json.KeyValue("parent", span.parent);
    json.KeyValue("request", span.request);
    json.KeyValue("lane", span.lane);
    json.EndObject();
  }
  json.EndArray();
}

bool WriteDocument(const std::string& path, const std::string& text) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << text;
  file.close();
  if (!file) {
    std::cerr << "perfprobe: cannot write " << path << "\n";
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------------------
// setup: the calls a one-shot run makes before its first shard or epoch.

// Forwards BeginStream to the real consumer, then ends the pass by throwing from the
// first ConsumeShard (Drive rethrows a consumer's exception once the lanes stop).
class StopAtFirstShard : public ShardConsumer {
 public:
  struct Reached {
    int64_t at_ns = 0;
  };

  explicit StopAtFirstShard(ShardConsumer* inner) : inner_(inner) {}

  void BeginStreamWithContext(EngineContext* context, const PopulationConfig& config,
                              uint64_t shard_count) override {
    inner_->BeginStreamWithContext(context, config, shard_count);
  }
  void BeginStream(const PopulationConfig& config, uint64_t shard_count) override {
    inner_->BeginStream(config, shard_count);
  }
  void ConsumeShard(const FleetShard& /*shard*/) override { throw Reached{NowNs()}; }

 private:
  ShardConsumer* inner_;
};

// Runs a pass over `population` until the first shard reaches `consumer`; returns that
// moment. Everything Drive does before it (consumer BeginStream, the generation plan) is
// set-up the run pays before any shard.
int64_t DriveToFirstShard(const PopulationConfig& population, ShardConsumer* consumer,
                          EngineContext& context) {
  StopAtFirstShard stop(consumer);
  try {
    FleetShardStream(population).Drive({&stop}, context);
  } catch (const StopAtFirstShard::Reached& reached) {
    return reached.at_ns;
  }
  throw std::runtime_error("set-up: the pass did not stop at its first shard");
}

int RunSetup(const Options& options) {
  PopulationConfig population;
  population.processor_count = options.processors;
  std::vector<int64_t> durations;
  for (int rep = 0; rep < options.repeat; ++rep) {
    const int64_t start = NowNs();
    EngineContext context(LaneOptions(options.lanes));
    const TestSuite suite = TestSuite::BuildFull();
    int64_t end = 0;
    if (options.workload == "scrub") {
      const FleetScrubber scrubber(&suite);
      (void)scrubber;
      end = NowNs();
    } else if (options.workload == "sweep") {
      // `sdcctl --sweep FILE screen` parses the file and builds the pipeline before it
      // generates, so both count as set-up. FleetPopulation::Generate is a pass into
      // FleetMaterializer (src/fleet/stream.h), whose BeginStream sizes the columns.
      const std::vector<SweepScenario> scenarios = LoadSweep(options.sweep_file);
      const ScreeningPipeline pipeline(&suite);
      (void)scenarios;
      (void)pipeline;
      FleetPopulation fleet;
      FleetMaterializer materializer(&fleet);
      end = DriveToFirstShard(population, &materializer, context);
    } else {
      const ScreeningPipeline pipeline(&suite);
      StreamingScreen screen(&pipeline, ScreeningConfig{});
      end = DriveToFirstShard(population, &screen, context);
    }
    durations.push_back(end - start);
  }
  std::ostringstream out;
  JsonWriter json(out, false);
  json.BeginObject();
  json.KeyValue("simd", SimdLevelName(EngineContext(LaneOptions(1)).simd()));
  json.Key("setup_ns").BeginArray();
  for (int64_t d : durations) {
    json.Value(d);
  }
  json.EndArray();
  json.EndObject();
  out << "\n";
  return WriteDocument(options.out, out.str()) ? 0 : 1;
}

// ---------------------------------------------------------------------------------------
// profile: one traced pass per one-shot path on one EngineContext lane count. A pass run
// with traced == false makes the same calls without the per-shard decorator and the epoch
// hook; it still stamps its dozen top-level spans, which cost nanoseconds.

struct StreamOutcome {
  std::string table;
  uint64_t tested = 0;
  uint64_t faulty = 0;
  uint64_t detections = 0;
  uint64_t shards = 0;
  int lanes_seen = 0;
};

StreamOutcome StreamPass(const Options& options, SpanLog& log, bool traced) {
  StreamOutcome outcome;
  const int root = log.Begin("stream.pass", -1);
  int span = log.Begin("common.context", root);
  EngineContext context(LaneOptions(options.lanes));
  log.End(span);
  span = log.Begin("toolchain.suite_build", root);
  const TestSuite suite = TestSuite::BuildFull();
  log.End(span);
  span = log.Begin("fleet.setup", root);
  const ScreeningPipeline pipeline(&suite);
  PopulationConfig population;
  population.processor_count = options.stream_processors;
  population.seed = options.seed;
  const FleetShardStream stream(population);
  StreamingScreen screen(&pipeline, ScreeningConfig{});
  log.End(span);
  const int drive = log.Begin("fleet.drive", root);
  StreamReport report;
  if (traced) {
    TimedConsumer timed(&screen, log.at(drive).start_ns);
    report = stream.Drive({&timed}, context);
    log.End(drive);
    timed.AppendTo(log, drive);
    outcome.lanes_seen = timed.lanes_used();
  } else {
    report = stream.Drive({&screen}, context);
    log.End(drive);
  }
  const ScreeningStats stats = screen.TakeStats();
  span = log.Begin("common.table_render", root);
  outcome.table = RenderScreenTable(stats);
  log.End(span);
  log.End(root);
  outcome.tested = stats.tested;
  outcome.faulty = stats.faulty;
  outcome.detections = stats.total_detected();
  outcome.shards = report.shards;
  return outcome;
}

struct SweepOutcome {
  std::string table;
  std::vector<uint64_t> tested;
  uint64_t faulty = 0;
  uint64_t detections = 0;
};

// The materialized path has no decorator: its trace is the spans around Generate and
// RunBatch, so `traced` changes nothing here.
SweepOutcome SweepPass(const Options& options, SpanLog& log, bool /*traced*/) {
  SweepOutcome outcome;
  const int root = log.Begin("sweep.pass", -1);
  int span = log.Begin("common.context", root);
  EngineContext context(LaneOptions(options.lanes));
  log.End(span);
  span = log.Begin("toolchain.suite_build", root);
  const TestSuite suite = TestSuite::BuildFull();
  log.End(span);
  span = log.Begin("fleet.setup", root);
  const ScreeningPipeline pipeline(&suite);
  const std::vector<SweepScenario> scenarios = LoadSweep(options.sweep_file);
  ScenarioBatch batch;
  batch.threads = options.lanes;
  for (const SweepScenario& scenario : scenarios) {
    batch.scenarios.push_back(scenario.config);
  }
  PopulationConfig population;
  population.processor_count = options.sweep_processors;
  population.seed = options.seed;
  log.End(span);
  span = log.Begin("fleet.materialize", root);
  const FleetPopulation fleet = FleetPopulation::Generate(population, context);
  log.End(span);
  span = log.Begin("fleet.run_batch", root);
  const std::vector<ScreeningStats> stats = pipeline.RunBatch(fleet, batch, context);
  log.End(span);
  span = log.Begin("common.table_render", root);
  outcome.table = RenderSweepTable(scenarios, stats);
  log.End(span);
  log.End(root);
  for (const ScreeningStats& scenario : stats) {
    outcome.tested.push_back(scenario.tested);
    outcome.faulty = scenario.faulty;
    outcome.detections += scenario.total_detected();
  }
  return outcome;
}

struct ScrubOutcome {
  std::string json;
  uint64_t epochs = 0;
  uint64_t sessions_funded = 0;
  uint64_t detections = 0;
};

ScrubOutcome ScrubPass(const Options& options, SpanLog& log, bool traced) {
  ScrubOutcome outcome;
  const int root = log.Begin("scrub.pass", -1);
  int span = log.Begin("common.context", root);
  EngineContext context(LaneOptions(options.lanes));
  log.End(span);
  span = log.Begin("toolchain.suite_build", root);
  const TestSuite suite = TestSuite::BuildFull();
  log.End(span);
  span = log.Begin("scrub.setup", root);
  // The same config `sdcctl scrub --fleet P --hours H --seed S` builds.
  ScrubConfig config;
  config.population.processor_count = options.scrub_fleet;
  config.population.seed = options.seed;
  config.horizon_months = *ParseDouble(options.scrub_hours) / (30.44 * 24.0);
  config.threads = options.lanes;
  const FleetScrubber scrubber(&suite);
  log.End(span);
  const int run = log.Begin("scrub.run", root);
  int64_t last_tick = log.at(run).start_ns;
  if (traced) {
    config.epoch_tick = [&](uint64_t epochs_done, uint64_t /*epochs_total*/) {
      const int64_t now = NowNs();
      log.Add({epochs_done == 0 ? "scrub.discovery" : "scrub.epoch", last_tick, now, run,
               static_cast<int64_t>(epochs_done), 0});
      last_tick = now;
      return true;
    };
  }
  const ScrubReport report = scrubber.Run(config, context);
  log.End(run);
  span = log.Begin("report.scrub_render", root);
  std::ostringstream json;
  WriteScrubReportJson(json, report);
  json << "\n";
  log.End(span);
  log.End(root);
  outcome.json = json.str();
  outcome.epochs = report.timeline.size();
  for (const ScrubEpochPoint& point : report.timeline) {
    outcome.sessions_funded += point.sessions_funded;
  }
  outcome.detections = report.detections.size();
  return outcome;
}

// The rendered output of one pass of `path`: what sdcctl prints for it.
std::string PassOutput(const std::string& path, const Options& options, SpanLog& log,
                       bool traced) {
  if (path == "stream") {
    return StreamPass(options, log, traced).table;
  }
  if (path == "sweep") {
    return SweepPass(options, log, traced).table;
  }
  return ScrubPass(options, log, traced).json;
}

int RunProfile(const Options& options) {
  SpanLog log;
  const int64_t origin = NowNs();
  const StreamOutcome stream = StreamPass(options, log, true);
  const SweepOutcome sweep = SweepPass(options, log, true);
  const ScrubOutcome scrub = ScrubPass(options, log, true);

  // Tracing overhead: the same path untraced then traced, in turn, in this process, so
  // the difference between the two is the decorators' cost and nothing else. Every
  // output must equal the traced pass's above.
  const std::string reference = options.overhead_pass == "stream" ? stream.table
                                : options.overhead_pass == "sweep" ? sweep.table
                                                                   : scrub.json;
  std::vector<int64_t> untraced_ns;
  std::vector<int64_t> traced_ns;
  bool overhead_outputs_match = true;
  for (int pair = 0; pair < options.overhead_pairs; ++pair) {
    for (const bool traced : {false, true}) {
      SpanLog pass_log;
      overhead_outputs_match &=
          PassOutput(options.overhead_pass, options, pass_log, traced) == reference;
      const Span& root = pass_log.at(0);
      (traced ? traced_ns : untraced_ns).push_back(root.end_ns - root.start_ns);
    }
  }

  std::ostringstream out;
  JsonWriter json(out, false);
  json.BeginObject();
  json.KeyValue("lanes", options.lanes);
  json.KeyValue("simd", SimdLevelName(EngineContext(LaneOptions(1)).simd()));
  json.Key("stream").BeginObject();
  json.KeyValue("table", stream.table);
  json.KeyValue("tested", stream.tested);
  json.KeyValue("faulty", stream.faulty);
  json.KeyValue("detections", stream.detections);
  json.KeyValue("shards", stream.shards);
  json.KeyValue("lanes_seen", stream.lanes_seen);
  json.EndObject();
  json.Key("sweep").BeginObject();
  json.KeyValue("table", sweep.table);
  json.Key("tested").BeginArray();
  for (uint64_t tested : sweep.tested) {
    json.Value(tested);
  }
  json.EndArray();
  json.KeyValue("faulty", sweep.faulty);
  json.KeyValue("detections", sweep.detections);
  json.EndObject();
  json.Key("scrub").BeginObject();
  json.KeyValue("json", scrub.json);
  json.KeyValue("epochs", scrub.epochs);
  json.KeyValue("sessions_funded", scrub.sessions_funded);
  json.KeyValue("detections", scrub.detections);
  json.EndObject();
  json.Key("overhead").BeginObject();
  json.KeyValue("pass", options.overhead_pass);
  json.KeyValue("outputs_match", overhead_outputs_match);
  json.Key("untraced_ns").BeginArray();
  for (int64_t ns : untraced_ns) {
    json.Value(ns);
  }
  json.EndArray();
  json.Key("traced_ns").BeginArray();
  for (int64_t ns : traced_ns) {
    json.Value(ns);
  }
  json.EndArray();
  json.EndObject();
  WriteSpans(json, log.spans(), origin);
  json.EndObject();
  out << "\n";
  return WriteDocument(options.out, out.str()) ? 0 : 1;
}

// ---------------------------------------------------------------------------------------
// load: the sdcd load generator. Every request opens a new connection, as
// `sdcctl --socket` and `sdcctl top` do; at most four connections are open at a time
// (three submitters, one poller).

constexpr int kSubmitters = 3;
constexpr int64_t kPollPeriodNs = 20'000'000;  // one poller request every 20 ms
constexpr int kCampaignLanes = 2;

struct RequestRecord {
  std::string verb;
  int64_t due_ns = 0;  // open-loop schedule time; equals start_ns for closed-loop calls
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t request = -1;  // campaign id the request concerns
  int client = 0;        // 0..2 submitters, 3 poller
  bool ok = false;
  uint64_t bytes = 0;
  std::string reply;  // status lines the harness parses (status replies only)
};

struct CampaignRecord {
  int client = 0;
  uint64_t ticket = 0;  // submission order claimed across all submitters
  uint64_t seed = 0;
  bool sweep = false;
  int64_t id = -1;
  int64_t submit_ns = 0;
  int64_t result_ns = 0;
  bool ok = false;
  std::string status_line;  // `status <id>` after completion (traced runs)
  std::string payload;
};

// Campaign t of a session is a pure function of the session seed and t, whichever
// submitter claims it, so a session with the same seed always runs the same campaigns.
uint64_t CampaignSeed(uint64_t seed, uint64_t ticket) {
  return seed * 1'000'003ULL + ticket;
}

class LoadGenerator {
 public:
  explicit LoadGenerator(const Options& options) : options_(options) {}

  void Run() {
    start_ns_ = NowNs();
    deadline_ns_ = start_ns_ + static_cast<int64_t>(options_.seconds) * 1'000'000'000;
    std::vector<std::thread> threads;
    for (int client = 0; client < kSubmitters; ++client) {
      threads.emplace_back([this, client] { Submitter(client); });
    }
    std::thread poller([this] { Poller(); });
    for (std::thread& thread : threads) {
      thread.join();
    }
    submitters_done_.store(true);
    poller.join();
    end_ns_ = NowNs();
  }

  std::string Render() const {
    std::ostringstream out;
    JsonWriter json(out, false);
    json.BeginObject();
    json.KeyValue("end_ns", end_ns_ - start_ns_);
    json.KeyValue("connections", connections_.load());
    json.Key("campaigns").BeginArray();
    for (const CampaignRecord& campaign : campaigns_) {
      json.BeginObject();
      json.KeyValue("client", campaign.client);
      json.KeyValue("ticket", campaign.ticket);
      json.KeyValue("seed", campaign.seed);
      json.KeyValue("sweep", campaign.sweep);
      json.KeyValue("id", campaign.id);
      json.KeyValue("submit_ns", campaign.submit_ns - start_ns_);
      json.KeyValue("result_ns", campaign.result_ns - start_ns_);
      json.KeyValue("ok", campaign.ok);
      json.KeyValue("status", campaign.status_line);
      json.KeyValue("payload", campaign.payload);
      json.EndObject();
    }
    json.EndArray();
    json.Key("requests").BeginArray();
    for (const RequestRecord& record : requests_) {
      json.BeginObject();
      json.KeyValue("verb", record.verb);
      json.KeyValue("due_ns", record.due_ns - start_ns_);
      json.KeyValue("start_ns", record.start_ns - start_ns_);
      json.KeyValue("end_ns", record.end_ns - start_ns_);
      json.KeyValue("request", record.request);
      json.KeyValue("client", record.client);
      json.KeyValue("ok", record.ok);
      json.KeyValue("bytes", record.bytes);
      json.KeyValue("reply", record.reply);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
    out << "\n";
    return out.str();
  }

 private:
  // One request on a fresh connection; the record lands in the shared log.
  bool Request(const std::string& line, const std::string& verb, int client,
               int64_t request, int64_t due_ns, std::string& reply, std::string& payload) {
    RequestRecord record;
    record.verb = verb;
    record.client = client;
    record.request = request;
    record.start_ns = NowNs();
    record.due_ns = due_ns < 0 ? record.start_ns : due_ns;
    std::string error;
    DaemonClient daemon(options_.socket);
    connections_.fetch_add(1);
    record.ok = daemon.Connect(error) && daemon.Request(line, reply, payload, error) &&
                reply.rfind("ok", 0) == 0;
    record.end_ns = NowNs();
    record.bytes = payload.size();
    if (verb == "status") {
      record.reply = reply;
    }
    if (!record.ok) {
      std::cerr << "perfprobe: '" << line << "' failed: "
                << (error.empty() ? reply : error) << "\n";
    }
    std::lock_guard<std::mutex> lock(mutex_);
    requests_.push_back(std::move(record));
    return requests_.back().ok;
  }

  // Closed loop: claim the next campaign, submit it, wait for it, fetch its result;
  // stop once the session's campaigns are all claimed or the time cap has passed.
  void Submitter(int client) {
    for (;;) {
      const uint64_t ticket = next_ticket_.fetch_add(1);
      if (ticket >= options_.campaigns || NowNs() >= deadline_ns_) {
        break;
      }
      CampaignRecord campaign;
      campaign.client = client;
      campaign.ticket = ticket;
      campaign.seed = CampaignSeed(options_.seed, ticket);
      // Alternate single-scenario and four-scenario campaigns, so the queue always
      // holds a mix.
      campaign.sweep = ticket % 2 == 1;
      const std::string spec = "name=t" + std::to_string(ticket) +
                               " processors=" + std::to_string(options_.processors) +
                               " seed=" + std::to_string(campaign.seed) +
                               " lanes=" + std::to_string(kCampaignLanes) +
                               (campaign.sweep ? " sweep=seeds:4" : "");
      std::string reply;
      std::string payload;
      campaign.submit_ns = NowNs();
      campaign.ok = Request("submit " + spec, "submit", client, -1, -1, reply, payload);
      if (campaign.ok) {
        const auto id = ParseInt64(reply.substr(std::strlen("ok id=")));
        campaign.ok = id.has_value();
        campaign.id = id.value_or(-1);
      }
      if (campaign.ok) {
        latest_id_.store(campaign.id);
        const std::string id = std::to_string(campaign.id);
        campaign.ok = Request("wait " + id, "wait", client, campaign.id, -1, reply,
                              payload) &&
                      reply == "ok state=done";
        campaign.ok = campaign.ok && Request("result " + id, "result", client,
                                             campaign.id, -1, reply, campaign.payload);
        campaign.result_ns = NowNs();
        if (campaign.ok && options_.trace == 1) {
          campaign.ok = Request("status " + id, "status", client, campaign.id, -1,
                                campaign.status_line, payload);
        }
      }
      std::lock_guard<std::mutex> lock(mutex_);
      campaigns_.push_back(std::move(campaign));
    }
  }

  // Open loop: request i is due at start + i * period whatever the daemon does; a stall
  // delays the send, and the latency is timed from the due time.
  void Poller() {
    static const std::array<const char*, 4> kVerbs = {"status", "list", "stats", "prom"};
    for (int64_t i = 0;; ++i) {
      const int64_t due = start_ns_ + i * kPollPeriodNs;
      if (due >= deadline_ns_ || submitters_done_.load()) {
        break;
      }
      std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(due)));
      const std::string verb = kVerbs[static_cast<size_t>(i) % kVerbs.size()];
      const int64_t id = latest_id_.load();
      if (verb == "stats" && id < 0) {
        continue;  // nothing submitted yet; skip this slot rather than send a bad id
      }
      const std::string line = verb == "stats" ? verb + " " + std::to_string(id) : verb;
      std::string reply;
      std::string payload;
      Request(line, verb, kSubmitters, verb == "stats" ? id : -1, due, reply, payload);
    }
  }

  const Options& options_;
  int64_t start_ns_ = 0;
  int64_t deadline_ns_ = 0;
  int64_t end_ns_ = 0;
  std::atomic<uint64_t> next_ticket_{0};
  std::atomic<bool> submitters_done_{false};
  std::atomic<int64_t> latest_id_{-1};
  std::atomic<uint64_t> connections_{0};
  std::mutex mutex_;
  std::vector<RequestRecord> requests_;    // guarded by mutex_
  std::vector<CampaignRecord> campaigns_;  // guarded by mutex_
};

int RunLoad(const Options& options) {
  LoadGenerator generator(options);
  generator.Run();
  return WriteDocument(options.out, generator.Render()) ? 0 : 1;
}

int Main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      Usage();
      return 0;
    }
  }
  const std::optional<Options> options = ParseOptions(argc, argv);
  if (!options.has_value()) {
    return Usage();
  }
  try {
    if (options->mode == "setup") {
      return RunSetup(*options);
    }
    if (options->mode == "profile") {
      return RunProfile(*options);
    }
    return RunLoad(*options);
  } catch (const std::exception& error) {
    std::cerr << "perfprobe: " << error.what() << "\n";
    return 1;
  }
}

}  // namespace
}  // namespace sdc

int main(int argc, char** argv) { return sdc::Main(argc, argv); }
