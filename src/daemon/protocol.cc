#include "src/daemon/protocol.h"

#include <cstdio>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "src/common/parse.h"
#include "src/report/exporters.h"

namespace sdc {
namespace {

ProtocolReply Ok(std::string line) { return {std::move(line), {}, false}; }

ProtocolReply Err(const std::string& code, const std::string& message) {
  return {"err " + code + " " + message, {}, false};
}

// An ok line whose payload follows; `bytes=N` is always the last token so clients can
// frame the body without parsing the rest of the line.
ProtocolReply OkWithPayload(std::string line, std::string payload) {
  line += " bytes=" + std::to_string(payload.size());
  return {std::move(line), std::move(payload), false};
}

// Ids travel as exact decimal tokens; anything else is a protocol error, not a zero.
std::optional<uint64_t> ParseId(const std::string& token) {
  return ParseUint64(token.c_str());
}

// Fixed-precision rendering for the status line's fractional fields, so the line stays
// token-stable for line-oriented consumers (sdcctl top, tools/check_daemon.py).
std::string Fixed(double value, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", digits, value);
  return buffer;
}

// One gauge over every campaign, labelled {id, name}: `# TYPE` once, then one sample per
// campaign. shards_done and detections are monotonic per label set, which
// tools/check_prom.py's two-poll monotonicity pass relies on.
void WriteCampaignGaugeProm(std::ostream& out, const char* metric,
                            const std::vector<CampaignStatus>& statuses,
                            double (*value)(const CampaignStatus&)) {
  out << "# TYPE " << metric << " gauge\n";
  for (const CampaignStatus& status : statuses) {
    const std::pair<std::string, std::string> labels[] = {
        {"id", std::to_string(status.id)}, {"name", status.name}};
    out << metric << PromLabelSet(labels) << " ";
    WritePromSampleValue(out, value(status));
    out << "\n";
  }
}

// Daemon health plus per-campaign occupancy, appended after the aggregated engine
// metrics (whose names never collide with the sdc_daemon_/sdc_campaign_ prefixes, so no
// duplicate TYPE lines can arise).
void WriteDaemonProm(std::ostream& out, const DaemonStats& daemon,
                     const std::vector<CampaignStatus>& statuses) {
  out << "# TYPE sdc_daemon_lanes gauge\nsdc_daemon_lanes " << daemon.total_lanes << "\n";
  out << "# TYPE sdc_daemon_lanes_in_use gauge\nsdc_daemon_lanes_in_use "
      << daemon.lanes_in_use << "\n";
  out << "# TYPE sdc_daemon_queue_depth gauge\nsdc_daemon_queue_depth "
      << daemon.queue_depth << "\n";
  out << "# TYPE sdc_daemon_campaigns_total counter\nsdc_daemon_campaigns_total "
      << daemon.campaigns << "\n";
  out << "# TYPE sdc_daemon_events_recorded_total counter\n"
         "sdc_daemon_events_recorded_total "
      << daemon.events_recorded << "\n";
  out << "# TYPE sdc_daemon_events_dropped_total counter\n"
         "sdc_daemon_events_dropped_total "
      << daemon.events_dropped << "\n";
  WriteCampaignGaugeProm(out, "sdc_campaign_lanes", statuses, [](const CampaignStatus& s) {
    return static_cast<double>(s.lanes);
  });
  WriteCampaignGaugeProm(out, "sdc_campaign_shards_done", statuses,
                         [](const CampaignStatus& s) {
                           return static_cast<double>(s.shards_done);
                         });
  WriteCampaignGaugeProm(out, "sdc_campaign_shards_total", statuses,
                         [](const CampaignStatus& s) {
                           return static_cast<double>(s.shards_total);
                         });
  WriteCampaignGaugeProm(out, "sdc_campaign_detections", statuses,
                         [](const CampaignStatus& s) {
                           return static_cast<double>(s.detections);
                         });
  WriteCampaignGaugeProm(out, "sdc_campaign_progress", statuses,
                         [](const CampaignStatus& s) { return s.progress(); });
}

}  // namespace

std::string FormatCampaignStatus(const CampaignStatus& status) {
  std::ostringstream line;
  line << "id=" << status.id << " name=" << status.name
       << " state=" << CampaignStateName(status.state) << " lanes=" << status.lanes
       << " shards=" << status.shards_done << "/" << status.shards_total
       << " progress=" << Fixed(status.progress(), 4)
       << " detections=" << status.detections
       << " submitted=" << Fixed(status.submit_unix, 3)
       << " started=" << Fixed(status.start_unix, 3)
       << " finished=" << Fixed(status.finish_unix, 3);
  if (!status.error.empty()) {
    line << " error=" << status.error;
  }
  return line.str();
}

ProtocolReply HandleRequestLine(CampaignManager& manager, const std::string& line) {
  std::istringstream tokens(line);
  std::string verb;
  if (!(tokens >> verb)) {
    return Err("proto", "empty request");
  }

  if (verb == "ping") {
    return Ok("ok pong");
  }

  if (verb == "shutdown") {
    ProtocolReply reply = Ok("ok bye");
    reply.shutdown = true;
    return reply;
  }

  if (verb == "submit") {
    // Everything after the verb is the campaign spec; an empty remainder is the
    // truncated-submit case and must be rejected, not defaulted.
    std::string spec_text;
    std::getline(tokens, spec_text);
    CampaignSpec spec;
    std::string error;
    if (!ParseCampaignSpec(spec_text, spec, error)) {
      return Err("spec", error);
    }
    const uint64_t id = manager.Submit(std::move(spec));
    if (id == 0) {
      return Err("shutdown", "daemon is shutting down");
    }
    return Ok("ok id=" + std::to_string(id));
  }

  if (verb == "list") {
    const std::vector<CampaignStatus> statuses = manager.List();
    std::string payload;
    for (const CampaignStatus& status : statuses) {
      payload += FormatCampaignStatus(status);
      payload += '\n';
    }
    return OkWithPayload("ok count=" + std::to_string(statuses.size()),
                         std::move(payload));
  }

  if (verb == "prom") {
    // Daemon-wide Prometheus exposition: every campaign's registry merged (counters and
    // histograms sum, timers fold through TimerStat::MergeFrom), then the daemon health
    // and per-campaign occupancy gauges. tools/check_prom.py lints these bytes.
    std::ostringstream payload;
    WriteMetricsProm(payload, manager.AggregateMetrics());
    WriteDaemonProm(payload, manager.GetDaemonStats(), manager.List());
    return OkWithPayload("ok", payload.str());
  }

  // Every remaining verb addresses one campaign by id -- except the id-less status
  // form, which reports the daemon itself.
  if (verb != "status" && verb != "stats" && verb != "cancel" && verb != "wait" &&
      verb != "result" && verb != "metrics" && verb != "trace") {
    return Err("proto", "unknown verb '" + verb + "'");
  }
  std::string id_token;
  if (!(tokens >> id_token)) {
    if (verb == "status") {
      const DaemonStats daemon = manager.GetDaemonStats();
      std::ostringstream health;
      health << "ok lanes=" << daemon.lanes_in_use << "/" << daemon.total_lanes
             << " queued=" << daemon.queue_depth << " campaigns=" << daemon.campaigns
             << " events=" << daemon.events_recorded
             << " dropped=" << daemon.events_dropped;
      return Ok(health.str());
    }
    return Err("proto", verb + " needs a campaign id");
  }
  const std::optional<uint64_t> id = ParseId(id_token);
  if (!id.has_value()) {
    return Err("proto", "invalid campaign id '" + id_token + "'");
  }

  if (verb == "status") {
    const std::optional<CampaignStatus> status = manager.GetStatus(*id);
    if (!status.has_value()) {
      return Err("unknown-id", "no campaign " + id_token);
    }
    return Ok("ok " + FormatCampaignStatus(*status));
  }

  if (verb == "stats") {
    const std::optional<CampaignStats> stats = manager.GetStats(*id);
    if (!stats.has_value()) {
      return Err("unknown-id", "no campaign " + id_token);
    }
    // Live surface: the status line doubles as the reply header, the payload is the
    // campaign's series document (sim + host sections; docs/observability.md).
    std::ostringstream payload;
    WriteSeriesJson(payload, stats->series);
    return OkWithPayload("ok " + FormatCampaignStatus(stats->status), payload.str());
  }

  if (verb == "cancel") {
    // Names the state the campaign ends in: `cancelled`, or the terminal state of a
    // campaign that had already finished.
    const std::optional<CampaignState> state = manager.Cancel(*id);
    if (!state.has_value()) {
      return Err("unknown-id", "no campaign " + id_token);
    }
    return Ok("ok " + CampaignStateName(*state) + " id=" + id_token);
  }

  if (verb == "wait") {
    const std::optional<CampaignState> state = manager.Wait(*id);
    if (!state.has_value()) {
      return Err("unknown-id", "no campaign " + id_token);
    }
    return Ok("ok state=" + CampaignStateName(*state));
  }

  if (verb == "result" || verb == "metrics" || verb == "trace") {
    const CampaignResult* result = manager.Result(*id);
    if (result == nullptr) {
      const std::optional<CampaignStatus> status = manager.GetStatus(*id);
      if (!status.has_value()) {
        return Err("unknown-id", "no campaign " + id_token);
      }
      return Err("not-done", "campaign " + id_token + " is " +
                                 CampaignStateName(status->state));
    }
    std::ostringstream payload;
    if (verb == "result") {
      if (result->scrub.has_value()) {
        // Scrub campaign: the result is the scrub report, not per-scenario stats, so a
        // scenario index is meaningless here.
        std::string scenario_token;
        if (tokens >> scenario_token) {
          return Err("proto", "scrub campaigns have no scenario index");
        }
        WriteScrubReportJson(payload, *result->scrub);
      } else {
        size_t scenario = 0;
        std::string scenario_token;
        if (tokens >> scenario_token) {
          const auto parsed = ParseUint64(scenario_token.c_str());
          if (!parsed.has_value() || *parsed >= result->stats.size()) {
            return Err("proto", "invalid scenario index '" + scenario_token +
                                    "' (have " + std::to_string(result->stats.size()) +
                                    ")");
          }
          scenario = static_cast<size_t>(*parsed);
        }
        WriteScreeningStatsJson(payload, result->stats[scenario]);
      }
    } else if (verb == "metrics") {
      // Timers measure daemon wall clock; the protocol exports only the deterministic
      // sections so replies are comparable across runs (docs/daemon.md).
      WriteMetricsJson(payload, result->metrics, /*include_timers=*/false);
    } else {
      WriteTraceJson(payload, result->trace, /*include_host=*/false);
    }
    return OkWithPayload("ok", payload.str());
  }

  return Err("proto", "unknown verb '" + verb + "'");  // unreachable; keeps -Wreturn-type quiet
}

}  // namespace sdc
