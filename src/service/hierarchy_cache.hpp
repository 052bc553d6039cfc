#pragma once
// LRU cache of completed multigrid setups, keyed by the content fingerprint
// of the fine matrix. The AMG setup phase (strength + coarsening +
// interpolation + RAP SpGEMMs + smoother factorizations) dominates a solve;
// a service handling repeated right-hand sides against recurring matrices
// must pay it once per matrix, not once per request (the AMGCL
// setup-object/solve split, applied as a cache).
//
// Eviction is by byte budget: entries are charged their estimated in-memory
// size (all level operators + derived interpolants + smoother vectors) and
// the least-recently-used entries are dropped once the budget is exceeded.
// With a spill directory configured, an evicted entry's Hierarchy is
// serialized (via the in-memory string round-trip in amg/serialize) to
// <spill_dir>/<fingerprint>.amgh first, and a later request for the same
// matrix rebuilds the setup from that file instead of re-running the AMG
// setup phase -- smoothers and derived interpolants are recomputed, the
// expensive coarsening/SpGEMM chain is not.
//
// All public methods are thread-safe behind one mutex; a build or spill
// load runs under the lock, so concurrent requests for the same matrix do
// exactly one setup.

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "multigrid/setup.hpp"
#include "service/fingerprint.hpp"

namespace asyncmg {

class TelemetrySink;

struct HierarchyCacheOptions {
  /// Byte budget for resident setups. At least one entry is always kept
  /// resident even if it alone exceeds the budget.
  std::size_t max_bytes = 256ull << 20;
  /// When nonempty, evicted hierarchies are serialized here and reloaded on
  /// a later request instead of rebuilt. The directory must exist.
  std::string spill_dir;
  /// Setup options applied when building (or rebuilding from spill).
  MgOptions mg;
  /// Telemetry: hits/misses/evictions/spills are recorded as control-plane
  /// events (byte-sized) and mirrored into "cache.*" counters. Not owned;
  /// must outlive the cache. nullptr = off.
  TelemetrySink* telemetry = nullptr;
};

struct HierarchyCacheStats {
  std::uint64_t hits = 0;         // resident entry reused
  std::uint64_t misses = 0;       // not resident (built or spill-loaded)
  std::uint64_t setups_built = 0; // full AMG setup phases actually run
  std::uint64_t evictions = 0;
  std::uint64_t spill_writes = 0;
  std::uint64_t spill_loads = 0;  // misses served from disk
  std::size_t resident_bytes = 0;
  std::size_t resident_entries = 0;
};

/// Estimated resident bytes of a setup (CSR arrays of every per-level
/// operator plus smoother/LU storage).
std::size_t estimate_setup_bytes(const MgSetup& s);

class HierarchyCache {
 public:
  explicit HierarchyCache(HierarchyCacheOptions opts);

  HierarchyCache(const HierarchyCache&) = delete;
  HierarchyCache& operator=(const HierarchyCache&) = delete;

  /// Returns the cached setup for `a`, building it on a miss. The returned
  /// shared_ptr keeps the setup alive independently of later evictions.
  /// `was_hit`, when non-null, reports whether this call reused a resident
  /// entry (spill loads count as misses).
  std::shared_ptr<const MgSetup> get_or_build(const CsrMatrix& a,
                                              bool* was_hit = nullptr);

  /// As above with an explicit precomputed fingerprint (callers that hash
  /// once and solve many times).
  std::shared_ptr<const MgSetup> get_or_build(const CsrMatrix& a,
                                              const MatrixFingerprint& key,
                                              bool* was_hit = nullptr);

  HierarchyCacheStats stats() const;

  /// Drops every resident entry (spilling if configured).
  void clear();

  const HierarchyCacheOptions& options() const { return opts_; }

 private:
  struct Entry {
    std::shared_ptr<const MgSetup> setup;
    std::size_t bytes = 0;
    std::list<MatrixFingerprint>::iterator lru_it;
  };

  /// Drops LRU entries until the budget holds (keeps >= 1 entry). Caller
  /// holds mu_.
  void evict_to_budget();
  void evict_one_locked();
  std::string spill_path(const MatrixFingerprint& key) const;

  HierarchyCacheOptions opts_;
  mutable std::mutex mu_;
  std::list<MatrixFingerprint> lru_;  // front = most recently used
  std::unordered_map<MatrixFingerprint, Entry, MatrixFingerprintHasher> map_;
  // Fingerprints with a spill file on disk.
  std::unordered_map<MatrixFingerprint, std::string, MatrixFingerprintHasher>
      spilled_;
  HierarchyCacheStats stats_;
};

}  // namespace asyncmg
