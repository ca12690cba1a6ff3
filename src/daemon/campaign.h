// Campaign scheduling for the sdcd daemon (docs/daemon.md).
//
// A campaign is one fused streaming pass -- generate the fleet shard by shard and screen
// every scenario against it -- executed on a private EngineContext whose pool holds the
// campaign's granted lanes. Contexts are constructed with env_overrides = false, so a
// setenv (SDC_THREADS / SDC_SIMD) after daemon startup can never re-shape an admitted
// campaign; the only thread-count authority is the lane grant below.
//
// Scheduling: the manager owns a fixed lane budget (the daemon's --lanes). Campaigns are
// admitted strictly in submission order -- the head of the queue waits until enough lanes
// are free, and nothing behind it can overtake -- which keeps admission deterministic and
// starvation-free. Each admitted campaign runs on its own thread with its own
// ThreadPool (src/common/parallel.h pools serve one caller at a time, so lanes are
// multiplexed by partitioning the budget, never by sharing a pool).
//
// Determinism: a campaign's stats, metrics (minus wall-clock timers), and sim trace are a
// pure function of its spec, so two campaigns interleaved in one daemon are byte-identical
// to independent one-shot runs -- the property tools/check_daemon.py and
// tests/daemon_test.cc pin.

#ifndef SDC_SRC_DAEMON_CAMPAIGN_H_
#define SDC_SRC_DAEMON_CAMPAIGN_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/daemon/spec.h"
#include "src/fleet/pipeline.h"
#include "src/scrub/scrubber.h"
#include "src/telemetry/event_log.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/series.h"
#include "src/telemetry/trace.h"

namespace sdc {

enum class CampaignState {
  kQueued,     // submitted, waiting for its lane grant
  kRunning,    // lanes granted, streaming pass in flight
  kDone,       // completed; result available
  kCancelled,  // cancelled before or during the pass
  kFailed,     // the pass threw; see CampaignStatus::error
};

std::string CampaignStateName(CampaignState state);

struct CampaignStatus {
  uint64_t id = 0;
  std::string name;
  CampaignState state = CampaignState::kQueued;
  int lanes = 1;               // granted lane count (clamped to the daemon budget)
  uint64_t shards_done = 0;    // stream shards consumed (scrub campaigns: epochs done)
  uint64_t shards_total = 0;   // 0 until the pass starts (scrub campaigns: total epochs)
  // Live detection count: screen campaigns accumulate scenario 0's detections shard by
  // shard while running; scrub campaigns publish theirs when the report lands. Monotonic
  // per campaign, exact once terminal -- a status gauge, not a determinism surface.
  uint64_t detections = 0;
  // Host wall-clock timestamps, seconds since the Unix epoch (nondeterministic by
  // contract). start_unix stays 0 until the lane grant, finish_unix until terminal.
  double submit_unix = 0.0;
  double start_unix = 0.0;
  double finish_unix = 0.0;
  std::string error;           // non-empty only for kFailed

  // Completed fraction of the progress ledger in [0, 1]; 0 while the denominator is
  // still unknown (a done campaign with an empty ledger reports 1).
  double progress() const {
    if (shards_total == 0) {
      return state == CampaignState::kDone ? 1.0 : 0.0;
    }
    const double fraction =
        static_cast<double>(shards_done) / static_cast<double>(shards_total);
    return fraction > 1.0 ? 1.0 : fraction;
  }
};

// What a completed campaign produced: per-scenario screening stats plus the campaign's
// private telemetry snapshots (taken once, when the pass finished). A scrub campaign
// (spec.kind == "scrub") carries the full ScrubReport instead of screening stats -- its
// `stats` stays empty and the result verb renders the scrub report.
struct CampaignResult {
  std::vector<ScreeningStats> stats;  // one per scenario, in spec order
  MetricsSnapshot metrics;
  TraceSnapshot trace;
  std::optional<ScrubReport> scrub;  // kind=scrub campaigns only
};

// Live observability bundle for one campaign: its status plus point-in-time snapshots of
// its private time-series and metrics. Valid in every state -- polling a running
// campaign sees whatever the pass has sampled so far, which is exactly what the `stats`
// protocol verb and `sdcctl top` consume.
struct CampaignStats {
  CampaignStatus status;
  SeriesSnapshot series;
  MetricsSnapshot metrics;
};

// Daemon-wide health surface: lane and queue occupancy, the campaign-lifecycle event
// ledger, and the manager's host-clock occupancy series (one point per transition).
struct DaemonStats {
  int total_lanes = 0;
  int lanes_in_use = 0;
  uint64_t queue_depth = 0;     // campaigns still waiting for their lane grant
  uint64_t campaigns = 0;       // ever submitted (ids are dense, so also the max id)
  uint64_t events_recorded = 0;
  uint64_t events_dropped = 0;  // evicted from the bounded event log, never silently
  SeriesSnapshot host_series;   // "daemon.queue_depth" / "daemon.lanes_in_use"
};

class CampaignManager {
 public:
  // `total_lanes` is the daemon's lane budget (already resolved; must be >= 1).
  // `event_capacity` bounds the campaign-lifecycle event log (sdcd --event-capacity):
  // once full, the oldest events are evicted and counted as dropped.
  explicit CampaignManager(int total_lanes, size_t event_capacity = 4096);
  ~CampaignManager();

  CampaignManager(const CampaignManager&) = delete;
  CampaignManager& operator=(const CampaignManager&) = delete;

  int total_lanes() const { return total_lanes_; }

  // Enqueues a campaign and starts its worker; returns its id (ids start at 1).
  // Returns 0 if the manager is shutting down.
  uint64_t Submit(CampaignSpec spec);

  // Snapshot of one campaign / every campaign in submission order.
  std::optional<CampaignStatus> GetStatus(uint64_t id) const;
  std::vector<CampaignStatus> List() const;

  // Status plus live series/metrics snapshots; nullopt for unknown ids. Works in every
  // state -- a running campaign reports whatever its pass has recorded so far.
  std::optional<CampaignStats> GetStats(uint64_t id) const;

  // Daemon-wide health: lanes, queue, the event ledger, host occupancy series.
  DaemonStats GetDaemonStats() const;

  // Every campaign's private registry merged in id order (counters and same-shape
  // histograms sum, gauges last-write-wins, timers fold through TimerStat::MergeFrom):
  // the body of the daemon-wide `prom` exposition.
  MetricsSnapshot AggregateMetrics() const;

  // Campaign-lifecycle event log (submitted / started / finished).
  const EventLog& events() const { return events_; }

  // Requests cancellation: a queued campaign never starts, a running one stops at its
  // next shard boundary (remaining shards are skipped, generation included) and ends
  // kCancelled even if its pass completes first. Returns kCancelled for those, the
  // campaign's own state for one already terminal (left untouched, so a done campaign
  // still serves its result), and nullopt for unknown ids. A running pass that fails
  // still ends kFailed.
  std::optional<CampaignState> Cancel(uint64_t id);

  // Blocks until the campaign reaches a terminal state; nullopt for unknown ids.
  std::optional<CampaignState> Wait(uint64_t id);

  // The completed result; null unless the campaign is kDone. The pointer stays valid for
  // the manager's lifetime.
  const CampaignResult* Result(uint64_t id) const;

  // Cancels everything outstanding and joins all campaign threads. Idempotent; the
  // destructor calls it.
  void Shutdown();

 private:
  struct Campaign {
    uint64_t id = 0;
    CampaignSpec spec;
    CampaignState state = CampaignState::kQueued;
    int lanes = 1;
    std::atomic<uint64_t> shards_done{0};
    uint64_t shards_total = 0;
    std::atomic<uint64_t> detections{0};
    std::atomic<bool> cancel{false};
    double submit_unix = 0.0;  // host timestamps, guarded by mutex_
    double start_unix = 0.0;
    double finish_unix = 0.0;
    std::string error;
    CampaignResult result;
    // Private telemetry, owned by the campaign (not the pass) so live stats polls can
    // snapshot mid-run; all three sinks are internally synchronized.
    MetricsRegistry registry;
    TraceRecorder recorder;
    SeriesRecorder series;
    std::thread worker;
  };

  // Body of a campaign thread: wait for the lane grant, run the fused pass, publish the
  // terminal state, release the lanes.
  void RunCampaign(Campaign& campaign);
  Campaign* FindLocked(uint64_t id) const;
  CampaignStatus StatusLocked(const Campaign& campaign) const;
  // Stamps one lifecycle transition while holding mutex_: records the event (host
  // seconds since manager start, value = campaign id) and appends the daemon occupancy
  // series points. Lock order is manager -> EventLog/SeriesRecorder, never the reverse.
  void RecordTransitionLocked(EventKind kind, const Campaign& campaign);
  double HostSeconds() const;

  mutable std::mutex mutex_;
  // Signalled on every admission, terminal transition, and cancellation request.
  std::condition_variable changed_;
  int total_lanes_;
  int lanes_in_use_ = 0;
  uint64_t next_id_ = 1;
  std::deque<uint64_t> admit_queue_;  // FIFO: only the front may take lanes
  std::vector<std::unique_ptr<Campaign>> campaigns_;
  bool shutting_down_ = false;
  // Daemon-level observability: the lifecycle event log (bounded; evictions counted)
  // and the host-clock occupancy series. Host time is measured from construction.
  const std::chrono::steady_clock::time_point started_at_ =
      std::chrono::steady_clock::now();
  EventLog events_;
  SeriesRecorder host_series_;
};

}  // namespace sdc

#endif  // SDC_SRC_DAEMON_CAMPAIGN_H_
