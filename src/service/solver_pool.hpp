#pragma once
// Persistent worker thread pool for the solver service layer.
//
// Every solver driver in the library used to spawn and join its own
// std::threads per call; under repeated traffic the spawn/join cost and the
// cold stacks dominate short solves. A SolverPool owns a fixed set of
// workers fed from one condition-variable work queue and outlives any number
// of solves. Two execution shapes are offered:
//
//   post          fire-and-forget single task (the SolveService request
//                 executor).
//   parallel_for  independent index-space loop with a stable worker-slot id
//                 per participating task, so callers can keep per-slot
//                 workspaces (the BatchSolver's per-slot cycle state).
//
// Ownership rule (see DESIGN.md): pool tasks must never call parallel_for
// or wait_idle on their own pool -- those block the caller until other
// tasks finish, and a worker blocking on its own pool's progress can starve
// the queue. Client threads may call them freely.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace asyncmg {

class TelemetrySink;

class SolverPool {
 public:
  explicit SolverPool(std::size_t num_threads);

  /// Blocks until every queued and running task has finished, then joins.
  ~SolverPool();

  SolverPool(const SolverPool&) = delete;
  SolverPool& operator=(const SolverPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue one task for any worker. Never blocks.
  void post(std::function<void()> task);

  /// Chunks [0, n) across up to min(n, size()) worker tasks and returns when
  /// every index has been processed. fn(slot, index): `slot` is a dense id in
  /// [0, num_slots) stable for the lifetime of the call, usable to index
  /// per-slot workspaces. Indices are claimed dynamically (atomic counter),
  /// so uneven per-index cost balances itself.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  /// Blocks the calling (non-worker) thread until the queue is empty and no
  /// task is running.
  void wait_idle();

  /// Total tasks executed since construction (parallel_for slot tasks each
  /// count as one task).
  std::uint64_t tasks_executed() const;

  /// Attach a telemetry sink: post() records the queue depth (control-plane
  /// event + "pool.queue_depth" gauge). Not owned; must outlive the pool.
  /// nullptr detaches.
  void set_telemetry(TelemetrySink* sink) { telemetry_ = sink; }

 private:
  void worker_loop();

  TelemetrySink* telemetry_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable cv_task_;   // workers: queue non-empty or stopping
  std::condition_variable cv_idle_;   // waiters: queue empty && active == 0
  std::deque<std::function<void()>> queue_;
  std::size_t active_ = 0;            // tasks currently executing
  std::uint64_t executed_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace asyncmg
