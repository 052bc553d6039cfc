#include "service/hierarchy_cache.hpp"

#include <fstream>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "amg/serialize.hpp"
#include "telemetry/sink.hpp"

namespace asyncmg {

namespace {

std::size_t csr_bytes(const CsrMatrix& m) {
  // Value bytes at the stored scalar width: fp32 levels are half price, so
  // the byte budget and LRU/spill decisions stay honest under the mixed-
  // precision policy.
  return m.value_bytes() + static_cast<std::size_t>(m.nnz()) * sizeof(Index) +
         (static_cast<std::size_t>(m.rows()) + 1) * sizeof(Index);
}

/// Cache events: one control-ring event plus the matching "cache.*" counter.
void cache_mark(TelemetrySink* tel, EventKind kind, const char* counter,
                std::size_t bytes) {
  if (tel == nullptr || !tel->enabled()) return;
  tel->record_control(kind, static_cast<std::int64_t>(bytes));
  tel->metrics().counter(counter).add(1);
}

}  // namespace

std::size_t estimate_setup_bytes(const MgSetup& s) {
  std::size_t total = 0;
  const std::size_t nl = s.num_levels();
  for (std::size_t k = 0; k < nl; ++k) {
    total += csr_bytes(s.a(k));
    if (k + 1 < nl) {
      total += csr_bytes(s.p(k)) + csr_bytes(s.pbar(k)) + csr_bytes(s.r(k)) +
               csr_bytes(s.rbar(k));
    }
    // Smoother diagonals / l1 norms and per-level scratch: a few vectors.
    total += 4 * static_cast<std::size_t>(s.a(k).rows()) * sizeof(double);
  }
  // Dense coarse LU (n^2 doubles) on the coarsest level, when present.
  const auto nc = static_cast<std::size_t>(s.a(nl - 1).rows());
  if (!s.coarse_solver().empty()) total += nc * nc * sizeof(double);
  return total;
}

HierarchyCache::HierarchyCache(HierarchyCacheOptions opts)
    : opts_(std::move(opts)) {}

std::string HierarchyCache::spill_path(const MatrixFingerprint& key) const {
  return opts_.spill_dir + "/" + key.to_string() + ".amgh";
}

std::shared_ptr<const MgSetup> HierarchyCache::get_or_build(
    const CsrMatrix& a, bool* was_hit) {
  return get_or_build(a, matrix_fingerprint(a), was_hit);
}

std::shared_ptr<const MgSetup> HierarchyCache::get_or_build(
    const CsrMatrix& a, const MatrixFingerprint& key, bool* was_hit) {
  const std::lock_guard<std::mutex> g(mu_);

  if (auto it = map_.find(key); it != map_.end()) {
    ++stats_.hits;
    if (was_hit) *was_hit = true;
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);  // touch
    cache_mark(opts_.telemetry, EventKind::kCacheHit, "cache.hits",
               it->second.bytes);
    return it->second.setup;
  }

  ++stats_.misses;
  if (was_hit) *was_hit = false;
  cache_mark(opts_.telemetry, EventKind::kCacheMiss, "cache.misses", 0);
  std::shared_ptr<const MgSetup> setup;
  if (auto sp = spilled_.find(key); sp != spilled_.end()) {
    std::ifstream f(sp->second);
    if (f) {
      std::string bytes((std::istreambuf_iterator<char>(f)),
                        std::istreambuf_iterator<char>());
      setup = std::make_shared<MgSetup>(load_hierarchy_string(bytes), opts_.mg);
      ++stats_.spill_loads;
      cache_mark(opts_.telemetry, EventKind::kCacheSpillLoad,
                 "cache.spill_loads", bytes.size());
    } else {
      spilled_.erase(sp);  // file vanished; fall through to a full build
    }
  }
  if (!setup) {
    setup = std::make_shared<const MgSetup>(
        Hierarchy::build(a, opts_.mg.amg), opts_.mg);
    ++stats_.setups_built;
    if (opts_.telemetry != nullptr && opts_.telemetry->enabled()) {
      opts_.telemetry->metrics().counter("cache.setups_built").add(1);
    }
  }

  Entry e;
  e.setup = setup;
  e.bytes = estimate_setup_bytes(*setup);
  lru_.push_front(key);
  e.lru_it = lru_.begin();
  stats_.resident_bytes += e.bytes;
  map_.emplace(key, std::move(e));
  stats_.resident_entries = map_.size();
  evict_to_budget();
  return setup;
}

void HierarchyCache::evict_to_budget() {
  while (map_.size() > 1 && stats_.resident_bytes > opts_.max_bytes) {
    evict_one_locked();
  }
}

void HierarchyCache::evict_one_locked() {
  const MatrixFingerprint key = lru_.back();
  auto it = map_.find(key);
  if (!opts_.spill_dir.empty() && !spilled_.contains(key)) {
    const std::string path = spill_path(key);
    std::ofstream f(path);
    if (!f) {
      throw std::runtime_error("HierarchyCache: cannot spill to " + path);
    }
    f << save_hierarchy_string(it->second.setup->hierarchy());
    spilled_.emplace(key, path);
    ++stats_.spill_writes;
    cache_mark(opts_.telemetry, EventKind::kCacheSpillWrite,
               "cache.spill_writes", it->second.bytes);
  }
  cache_mark(opts_.telemetry, EventKind::kCacheEvict, "cache.evictions",
             it->second.bytes);
  stats_.resident_bytes -= it->second.bytes;
  map_.erase(it);
  lru_.pop_back();
  ++stats_.evictions;
  stats_.resident_entries = map_.size();
}

HierarchyCacheStats HierarchyCache::stats() const {
  const std::lock_guard<std::mutex> g(mu_);
  return stats_;
}

void HierarchyCache::clear() {
  const std::lock_guard<std::mutex> g(mu_);
  while (!map_.empty()) evict_one_locked();
}

}  // namespace asyncmg
