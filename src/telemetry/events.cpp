#include "telemetry/events.hpp"

namespace asyncmg {

const char* event_name(EventKind k) {
  switch (k) {
    case EventKind::kRelax:
      return "relax";
    case EventKind::kSharedRead:
      return "read";
    case EventKind::kInstant:
      return "instant";
    case EventKind::kFaultStall:
      return "stall";
    case EventKind::kFaultDropRead:
      return "drop-read";
    case EventKind::kFaultKill:
      return "kill";
    case EventKind::kCacheHit:
      return "cache-hit";
    case EventKind::kCacheMiss:
      return "cache-miss";
    case EventKind::kCacheEvict:
      return "cache-evict";
    case EventKind::kCacheSpillWrite:
      return "cache-spill-write";
    case EventKind::kCacheSpillLoad:
      return "cache-spill-load";
    case EventKind::kQueueDepth:
      return "queue-depth";
    case EventKind::kPhaseBegin:
    case EventKind::kPhaseEnd:
      return "phase";
    case EventKind::kShardStep:
      return "shard-step";
    case EventKind::kShardExchange:
      return "shard-exchange";
    case EventKind::kShardDrop:
      return "shard-drop";
    case EventKind::kLevelPrecision:
      return "level-precision";
    case EventKind::kBackendSelect:
      return "backend-select";
  }
  return "unknown";
}

const char* cycle_phase_name(std::int64_t id) {
  switch (static_cast<CyclePhase>(id)) {
    case CyclePhase::kResidual:
      return "residual";
    case CyclePhase::kPreSmooth:
      return "pre-smooth";
    case CyclePhase::kRestrict:
      return "restrict";
    case CyclePhase::kCoarseSolve:
      return "coarse-solve";
    case CyclePhase::kProlong:
      return "prolong";
    case CyclePhase::kPostSmooth:
      return "post-smooth";
  }
  return "phase";
}

}  // namespace asyncmg
