#pragma once
// Request front door for the solver library: submit(matrix, rhs, options)
// returns a future, requests execute on the persistent SolverPool against
// setups resolved through the HierarchyCache, and a ServiceStats snapshot
// (counters + latency percentiles) is exportable as JSON.
//
// Admission control is a bounded queue: at most `max_queue` requests may be
// admitted-but-unfinished at once; submit() beyond that throws
// ServiceOverloaded immediately (load-shedding) rather than growing an
// unbounded backlog. A per-request deadline turns a too-slow solve into a
// best-so-far answer with `timed_out` set instead of blocking the caller
// forever; the deadline clock starts at submission, so time spent queued
// counts against it.

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "service/batch_solver.hpp"
#include "service/hierarchy_cache.hpp"
#include "service/solver_pool.hpp"

namespace asyncmg {

struct ServiceOptions {
  /// Worker threads in the owned pool.
  std::size_t num_threads = 4;
  /// Bound on admitted-but-unfinished requests (the admission queue).
  std::size_t max_queue = 64;
  /// Cache configuration, including the MgOptions used to build setups.
  HierarchyCacheOptions cache;
  /// Defaults applied when a request leaves t_max / tol at 0.
  int default_t_max = 100;
  double default_tol = 1e-8;
  /// Telemetry sink shared by the service, its pool, and (unless
  /// cache.telemetry is set separately) its cache: admission-queue depth,
  /// latency histogram, and request counters. Not owned; must outlive the
  /// service. nullptr = off.
  TelemetrySink* telemetry = nullptr;
};

struct RequestOptions {
  /// Iteration cap: PCG iterations on symmetric input, V-cycles otherwise
  /// (RequestSolver). 0: service default.
  int t_max = 0;
  double tol = 0.0;        // 0: service default
  /// Wall-clock budget in seconds from submission; 0 disables the deadline.
  double timeout_seconds = 0.0;
};

struct SolveResponse {
  Vector x;
  SolveStats stats;
  bool timed_out = false;
  /// True when the setup was served from cache (no AMG setup phase ran).
  bool cache_hit = false;
  /// Seconds the request spent queued before its solve started.
  double queue_seconds = 0.0;
};

class ServiceOverloaded : public std::runtime_error {
 public:
  ServiceOverloaded() : std::runtime_error("SolveService: admission queue full") {}
};

struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t timed_out = 0;
  std::size_t queue_depth = 0;  // admitted, not yet finished
  HierarchyCacheStats cache;
  // Submit-to-completion latency over completed requests, seconds.
  double latency_p50 = 0.0;
  double latency_p95 = 0.0;
  double latency_mean = 0.0;

  std::string to_json() const;
};

class SolveService {
 public:
  explicit SolveService(ServiceOptions opts);

  /// Drains in-flight requests, then stops the pool.
  ~SolveService();

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Admits one solve request. Throws ServiceOverloaded when the admission
  /// queue is full. The matrix and rhs are copied into the request (the
  /// caller may free them immediately); the matrix copy is dropped once its
  /// setup is resolved through the cache.
  std::future<SolveResponse> submit(CsrMatrix a, Vector b,
                                    RequestOptions opts = {});

  /// Batched multi-RHS solve against one matrix through the cache and pool.
  /// Runs on the calling thread (plus the pool); not subject to admission
  /// control. Safe to call concurrently from multiple client threads.
  std::vector<BatchResult> solve_batch(const CsrMatrix& a,
                                       const std::vector<Vector>& rhs,
                                       BatchOptions opts = {});

  ServiceStats stats() const;

  /// stats().to_json() with the telemetry metrics registry merged in under
  /// a "telemetry" key (identical to to_json() when no sink is attached).
  std::string stats_json() const;

  SolverPool& pool() { return *pool_; }
  HierarchyCache& cache() { return *cache_; }
  const ServiceOptions& options() const { return opts_; }

 private:
  void execute(CsrMatrix a, Vector b, RequestOptions ropts,
               std::chrono::steady_clock::time_point submitted,
               std::shared_ptr<std::promise<SolveResponse>> promise);

  ServiceOptions opts_;
  std::unique_ptr<HierarchyCache> cache_;
  mutable std::mutex stats_mu_;
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t timed_out_ = 0;
  std::size_t in_flight_ = 0;
  std::vector<double> latencies_;
  // Destroyed first: pool shutdown waits for tasks, which touch the members
  // above, so the pool must precede them in destruction order.
  std::unique_ptr<SolverPool> pool_;
};

}  // namespace asyncmg
