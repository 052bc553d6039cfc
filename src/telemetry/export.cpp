#include "telemetry/export.hpp"

#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "sparse/kernels.hpp"
#include "sparse/types.hpp"

namespace asyncmg {

namespace {

/// Trace `tid` the event is displayed on: per-grid tracks for solver
/// progress and faults, the recording thread for cycle phases, one control
/// track for everything else.
std::size_t track_of(const DrainedEvent& de) {
  switch (de.ev.kind) {
    case EventKind::kRelax:
    case EventKind::kSharedRead:
    case EventKind::kFaultStall:
    case EventKind::kFaultDropRead:
    case EventKind::kFaultKill:
      return static_cast<std::size_t>(de.ev.a);
    case EventKind::kPhaseBegin:
    case EventKind::kPhaseEnd:
      return de.tid;
    case EventKind::kShardStep:
    case EventKind::kShardExchange:
    case EventKind::kShardDrop:
      return kShardTrackBase + static_cast<std::size_t>(de.ev.a);
    default:
      return kControlTid;
  }
}

bool is_shard_event(EventKind k) {
  return k == EventKind::kShardStep || k == EventKind::kShardExchange ||
         k == EventKind::kShardDrop;
}

bool is_grid_event(EventKind k) {
  return k == EventKind::kRelax || k == EventKind::kSharedRead ||
         k == EventKind::kFaultStall || k == EventKind::kFaultDropRead ||
         k == EventKind::kFaultKill;
}

/// ts/dur in trace microseconds: logical ticks map 1:1, wall nanoseconds
/// are printed as fixed-point microseconds (exact: no floating point).
std::string us_string(std::int64_t t, bool logical) {
  if (logical) return std::to_string(t);
  std::ostringstream o;
  const std::int64_t abs = t < 0 ? -t : t;
  if (t < 0) o << "-";
  o << abs / 1000 << ".";
  const std::int64_t frac = abs % 1000;
  o << frac / 100 << (frac / 10) % 10 << frac % 10;
  return o.str();
}

}  // namespace

std::string chrome_trace_json(const std::vector<DrainedEvent>& events,
                              const ChromeTraceOptions& opts) {
  // Name the tracks: grids beat threads when both kinds of event land on
  // the same numeric tid (they don't in practice; grids win for clarity).
  std::map<std::size_t, std::string> names;
  for (const DrainedEvent& de : events) {
    const std::size_t track = track_of(de);
    if (is_grid_event(de.ev.kind)) {
      names[track] = "grid " + std::to_string(de.ev.a);
    } else if (is_shard_event(de.ev.kind)) {
      names[track] = "shard " + std::to_string(de.ev.a);
    } else if (track == kControlTid) {
      names.emplace(track, "control");
    } else {
      names.emplace(track, "thread " + std::to_string(track));
    }
  }

  std::ostringstream o;
  o << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  o << "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\""
    << opts.process_name << "\"}}";
  for (const auto& [track, name] : names) {
    o << ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":" << track
      << ",\"name\":\"thread_name\",\"args\":{\"name\":\"" << name << "\"}}";
  }

  for (const DrainedEvent& de : events) {
    const Event& e = de.ev;
    const std::size_t track = track_of(de);
    const std::string ts = us_string(e.t, opts.logical_time);
    o << ",\n{";
    switch (e.kind) {
      case EventKind::kRelax:
        o << "\"name\":\"relax\",\"cat\":\"grid\",\"ph\":\"X\",\"ts\":" << ts
          << ",\"dur\":" << us_string(e.b, opts.logical_time)
          << ",\"pid\":1,\"tid\":" << track << ",\"args\":{\"grid\":" << e.a
          << "}";
        break;
      case EventKind::kSharedRead:
        o << "\"name\":\"read\",\"cat\":\"grid\",\"ph\":\"i\",\"s\":\"t\","
          << "\"ts\":" << ts << ",\"pid\":1,\"tid\":" << track
          << ",\"args\":{\"grid\":" << e.a << ",\"read_instant\":" << e.b
          << "}";
        break;
      case EventKind::kFaultStall:
      case EventKind::kFaultDropRead:
      case EventKind::kFaultKill:
        o << "\"name\":\"" << event_name(e.kind)
          << "\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << ts
          << ",\"pid\":1,\"tid\":" << track << ",\"args\":{\"grid\":" << e.a
          << ",\"count\":" << e.b << "}";
        break;
      case EventKind::kInstant:
        o << "\"name\":\"instant\",\"cat\":\"schedule\",\"ph\":\"X\",\"ts\":"
          << ts << ",\"dur\":" << us_string(e.b, opts.logical_time)
          << ",\"pid\":1,\"tid\":" << track << ",\"args\":{\"t\":" << e.a
          << "}";
        break;
      case EventKind::kPhaseBegin:
      case EventKind::kPhaseEnd:
        o << "\"name\":\"" << cycle_phase_name(e.a)
          << "\",\"cat\":\"cycle\",\"ph\":\""
          << (e.kind == EventKind::kPhaseBegin ? "B" : "E")
          << "\",\"ts\":" << ts << ",\"pid\":1,\"tid\":" << track
          << ",\"args\":{\"level\":" << e.b << "}";
        break;
      case EventKind::kCacheHit:
      case EventKind::kCacheMiss:
      case EventKind::kCacheEvict:
      case EventKind::kCacheSpillWrite:
      case EventKind::kCacheSpillLoad:
        o << "\"name\":\"" << event_name(e.kind)
          << "\",\"cat\":\"cache\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << ts
          << ",\"pid\":1,\"tid\":" << track << ",\"args\":{\"bytes\":" << e.a
          << "}";
        break;
      case EventKind::kQueueDepth:
        o << "\"name\":\"queue-depth\",\"cat\":\"service\",\"ph\":\"C\","
          << "\"ts\":" << ts << ",\"pid\":1,\"tid\":" << track
          << ",\"args\":{\"depth\":" << e.a << "}";
        break;
      case EventKind::kShardStep:
        o << "\"name\":\"shard-step\",\"cat\":\"shard\",\"ph\":\"X\",\"ts\":"
          << ts << ",\"dur\":" << us_string(e.b, opts.logical_time)
          << ",\"pid\":1,\"tid\":" << track << ",\"args\":{\"shard\":" << e.a
          << "}";
        break;
      case EventKind::kShardExchange:
      case EventKind::kShardDrop:
        o << "\"name\":\"" << event_name(e.kind)
          << "\",\"cat\":\"shard\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << ts
          << ",\"pid\":1,\"tid\":" << track << ",\"args\":{\"shard\":" << e.a
          << ",\"detail\":" << e.b << "}";
        break;
      case EventKind::kLevelPrecision:
        o << "\"name\":\"level-precision\",\"cat\":\"precision\",\"ph\":\"i\","
          << "\"s\":\"t\",\"ts\":" << ts << ",\"pid\":1,\"tid\":" << track
          << ",\"args\":{\"level\":" << e.a << ",\"precision\":\""
          << precision_name(static_cast<Precision>(e.b)) << "\"}";
        break;
      case EventKind::kBackendSelect:
        o << "\"name\":\"backend-select\",\"cat\":\"backend\",\"ph\":\"i\","
          << "\"s\":\"t\",\"ts\":" << ts << ",\"pid\":1,\"tid\":" << track
          << ",\"args\":{\"backend\":\""
          << backend_kind_name(static_cast<BackendKind>(e.a))
          << "\",\"requested\":\""
          << backend_kind_name(static_cast<BackendKind>(e.b)) << "\"}";
        break;
    }
    o << "}";
  }
  o << "\n]}\n";
  return o.str();
}

std::string residual_csv(const std::vector<double>& seconds,
                         const std::vector<double>& rel_res) {
  if (seconds.size() != rel_res.size()) {
    throw std::invalid_argument("residual_csv: length mismatch");
  }
  std::ostringstream o;
  o.precision(9);
  o << std::scientific;
  o << "step,seconds,rel_res\n";
  for (std::size_t i = 0; i < seconds.size(); ++i) {
    o << i << "," << seconds[i] << "," << rel_res[i] << "\n";
  }
  return o.str();
}

void write_text_file(const std::string& path, const std::string& content) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot open " + path + " for writing");
  f << content;
  if (!f) throw std::runtime_error("failed writing " + path);
}

}  // namespace asyncmg
