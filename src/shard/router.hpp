#pragma once
// Consistent-hash front-end router over N SolveService backends.
//
// Requests are routed by matrix fingerprint on a consistent-hash ring:
// every backend owns `vnodes_per_backend` virtual nodes (content_hash of
// "backend:vnode"), a key maps to the first vnode clockwise from its hash,
// and adding or removing one backend remaps only ~1/(N+1) of the key space
// -- so the per-backend HierarchyCaches keep their warm setups across
// cluster resizes. The same matrix always lands on the same backend (cache
// affinity), and a backend that sheds load (ServiceOverloaded) is walked
// past to the next distinct backend on the ring rather than failing the
// request.
//
// The ring math lives in free functions so the placement policy is testable
// without spinning up services.

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "service/fingerprint.hpp"
#include "service/solve_service.hpp"

namespace asyncmg {

/// One virtual node: `hash` position on the ring, owned by `backend`.
struct RingNode {
  std::uint64_t hash = 0;
  std::size_t backend = 0;
  friend bool operator==(const RingNode&, const RingNode&) = default;
};

/// Builds the sorted vnode ring for `num_backends` backends. Deterministic
/// in (num_backends, vnodes_per_backend, seed).
std::vector<RingNode> build_hash_ring(std::size_t num_backends,
                                      std::size_t vnodes_per_backend,
                                      std::uint64_t seed = 0);

/// Walks the ring clockwise from `key` (the first vnode whose hash is >=
/// key, wrapping) collecting the first `count` DISTINCT backends, in ring
/// order: the placement primitive of ShardRouter's failover walk and of
/// ClusterRouter's shard selection. Throws std::invalid_argument on an empty
/// ring, a zero count, or fewer distinct backends than requested.
std::vector<std::size_t> select_backends(const std::vector<RingNode>& ring,
                                         std::uint64_t key,
                                         std::size_t count);

/// The backend owning `key`: select_backends(ring, key, 1)[0].
std::size_t ring_lookup(const std::vector<RingNode>& ring, std::uint64_t key);

/// Ring key of a matrix fingerprint (rehash of the content hash + shape so
/// ring position is decorrelated from the cache key).
std::uint64_t ring_key(const MatrixFingerprint& fp);

struct ShardRouterOptions {
  std::size_t num_backends = 2;
  std::size_t vnodes_per_backend = 64;
  std::uint64_t ring_seed = 0;
  /// Configuration applied to every backend service.
  ServiceOptions service;

  /// Throws std::invalid_argument with a field-naming message on the first
  /// invalid setting.
  void validate() const;
};

class ShardRouter {
 public:
  explicit ShardRouter(ShardRouterOptions opts);

  std::size_t num_backends() const { return backends_.size(); }
  const std::vector<RingNode>& ring() const { return ring_; }

  /// Backend the ring assigns to this matrix (no failover applied).
  std::size_t backend_of(const CsrMatrix& a) const;

  /// Routes to backend_of(a); on ServiceOverloaded walks clockwise to the
  /// next distinct backend on the ring (select_backends order), failing only
  /// when every backend sheds the request (the last ServiceOverloaded
  /// propagates).
  std::future<SolveResponse> submit(CsrMatrix a, Vector b,
                                    RequestOptions ropts = {});

  /// Batched solve on the matrix's home backend (no admission control, no
  /// failover).
  std::vector<BatchResult> solve_batch(const CsrMatrix& a,
                                       const std::vector<Vector>& rhs,
                                       BatchOptions bopts = {});

  /// Direct access for tests and for draining.
  SolveService& backend(std::size_t i) { return *backends_[i]; }

  /// Merged stats: router counters, summed backend totals, and the
  /// per-backend ServiceStats JSON spliced in verbatim.
  std::string stats_json() const;

 private:
  ShardRouterOptions opts_;
  std::vector<std::unique_ptr<SolveService>> backends_;
  std::vector<RingNode> ring_;
  mutable std::mutex mu_;
  std::uint64_t routed_ = 0;
  std::uint64_t failovers_ = 0;
  std::vector<std::uint64_t> routed_per_backend_;
};

}  // namespace asyncmg
