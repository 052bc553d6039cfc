#pragma once
// Typed telemetry event schema shared by the recorders (async runtime,
// solver service, multigrid cycle) and the exporters. An Event is a fixed
// 32-byte POD so the per-thread ring buffers (telemetry/ring.hpp) stay
// trivially copyable and cache-friendly; the meaning of the two payload
// slots `a`/`b` is per-kind and documented below.
//
// Timestamps `t` are in session-clock nanoseconds (free-running modes) or
// logical time instants (scripted replays / the sequential model), chosen
// by the recorder; TelemetryOptions::logical_time tells the exporters which
// unit a sink's stream uses.

#include <cstdint>

namespace asyncmg {

enum class EventKind : std::uint8_t {
  // Solver progress. kRelax is a complete slice: t = begin, b = duration
  // (ns, or ticks in logical time), a = grid.
  kRelax = 0,      // a = grid, b = duration
  kSharedRead,     // a = grid, b = read instant (scripted/model; -1 wall)
  kInstant,        // scripted: a = time instant, b = duration (1 tick)
  // Fault injection (async/schedule.hpp FaultPlan).
  kFaultStall,     // a = grid, b = correction count at the stall
  kFaultDropRead,  // a = grid, b = correction count at the drop
  kFaultKill,      // a = grid, b = correction count at death
  // Hierarchy cache (service/hierarchy_cache.hpp).
  kCacheHit,        // a = resident bytes of the entry
  kCacheMiss,       // a = resident bytes of the freshly built entry
  kCacheEvict,      // a = bytes released
  kCacheSpillWrite, // a = bytes spilled to disk
  kCacheSpillLoad,  // a = bytes reloaded from disk
  // Service / pool load.
  kQueueDepth,     // a = queue depth after the change
  // Multiplicative-cycle phases (B/E pair). a = CyclePhase, b = level.
  kPhaseBegin,
  kPhaseEnd,
  // Sharded executor (shard/solver.hpp); a = shard id throughout.
  kShardStep,      // a = shard, b = duration (ns, or 1 tick scripted)
  kShardExchange,  // a = shard, b = packets merged (read instant scripted)
  kShardDrop,      // a = shard, b = peer the send to was dropped (-1 = a
                   //     FaultPlan drop-read skipped the whole refresh)
  // Mixed-precision hierarchy (amg/precision.hpp). Emitted once per solver
  // attach and only for levels stored below fp64, so all-fp64 traces (the
  // golden fixtures) are unchanged.
  kLevelPrecision,  // a = level, b = Precision enum value of the operator
  // Kernel backend selection (backend/backend.hpp). Emitted once per solver
  // attach and only when the resolved backend is not the scalar oracle, so
  // scalar-only traces (the golden fixtures) are unchanged.
  kBackendSelect,  // a = resolved BackendKind, b = requested BackendKind
};

/// Stable display name of an event kind (used by the Chrome exporter).
const char* event_name(EventKind k);

/// Phase ids carried in kPhaseBegin/kPhaseEnd events.
enum class CyclePhase : std::int64_t {
  kResidual = 0,
  kPreSmooth,
  kRestrict,
  kCoarseSolve,
  kProlong,
  kPostSmooth,
};

const char* cycle_phase_name(std::int64_t id);

struct Event {
  std::int64_t t = 0;  // session ns or logical tick (see header comment)
  std::int64_t a = 0;
  std::int64_t b = 0;
  EventKind kind = EventKind::kRelax;
};

/// An event together with the id of the ring (thread) it was drained from.
struct DrainedEvent {
  Event ev;
  std::size_t tid = 0;
};

/// Ring id used for control-plane events recorded from arbitrary threads
/// (cache, admission queue) via TelemetrySink::record_control.
inline constexpr std::size_t kControlTid = 1000000;

/// Trace-track offset for shard events: shard s displays on track
/// kShardTrackBase + s ("shard s"), keeping shard tracks clear of grid and
/// thread tracks in mixed traces.
inline constexpr std::size_t kShardTrackBase = 500000;

}  // namespace asyncmg
