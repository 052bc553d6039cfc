#include "service/solver_pool.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <utility>

#include "telemetry/sink.hpp"
#include "util/thread_context.hpp"

namespace asyncmg {

SolverPool::SolverPool(std::size_t num_threads) {
  if (num_threads == 0) {
    throw std::invalid_argument("SolverPool: num_threads must be >= 1");
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

SolverPool::~SolverPool() {
  {
    const std::lock_guard<std::mutex> g(mu_);
    stopping_ = true;  // workers drain the queue, then exit
  }
  cv_task_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void SolverPool::worker_loop() {
  // Each worker is one concurrency lane: solve-phase OpenMP kernels consult
  // this flag and stay serial on pool workers, so N workers never become
  // N x omp_get_max_threads() threads (see DESIGN.md, thread ownership).
  set_this_thread_pool_worker(true);
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_task_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      const std::lock_guard<std::mutex> g(mu_);
      --active_;
      ++executed_;
      if (queue_.empty() && active_ == 0) cv_idle_.notify_all();
    }
  }
}

void SolverPool::post(std::function<void()> task) {
  std::size_t depth = 0;
  {
    const std::lock_guard<std::mutex> g(mu_);
    if (stopping_) {
      throw std::runtime_error("SolverPool: post after shutdown began");
    }
    queue_.push_back(std::move(task));
    depth = queue_.size();
  }
  cv_task_.notify_one();
  if (telemetry_ != nullptr && telemetry_->enabled()) {
    telemetry_->record_control(EventKind::kQueueDepth,
                               static_cast<std::int64_t>(depth));
    telemetry_->metrics().gauge("pool.queue_depth").set(
        static_cast<double>(depth));
  }
}

void SolverPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t slots = std::min(n, size());

  struct LoopState {
    std::atomic<std::size_t> next{0};
    std::mutex mu;
    std::condition_variable done;
    std::size_t remaining;
    std::size_t total;
    std::exception_ptr error;
  };
  auto st = std::make_shared<LoopState>();
  st->remaining = slots;
  st->total = n;

  for (std::size_t slot = 0; slot < slots; ++slot) {
    post([st, slot, &fn] {
      try {
        for (std::size_t i = st->next.fetch_add(1, std::memory_order_relaxed);
             i < st->total;
             i = st->next.fetch_add(1, std::memory_order_relaxed)) {
          fn(slot, i);
        }
      } catch (...) {
        const std::lock_guard<std::mutex> lg(st->mu);
        if (!st->error) st->error = std::current_exception();
      }
      {
        const std::lock_guard<std::mutex> lg(st->mu);
        --st->remaining;
      }
      st->done.notify_one();
    });
  }

  std::unique_lock<std::mutex> lk(st->mu);
  st->done.wait(lk, [&] { return st->remaining == 0; });
  if (st->error) std::rethrow_exception(st->error);
}

void SolverPool::wait_idle() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_idle_.wait(lk, [this] { return queue_.empty() && active_ == 0; });
}

std::uint64_t SolverPool::tasks_executed() const {
  const std::lock_guard<std::mutex> g(mu_);
  return executed_;
}

}  // namespace asyncmg
