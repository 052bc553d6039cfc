#include "service/solve_service.hpp"

#include <sstream>
#include <utility>

#include "service/background_setup.hpp"
#include "telemetry/sink.hpp"
#include "util/stats.hpp"

namespace asyncmg {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Cold-path solve against a BackgroundSetup: stationary cycles on the
/// deepest ready prefix (PCG would see its preconditioner change as the
/// hierarchy deepens). Before every cycle, after the deadline, the requester
/// tries one cooperative builder step (try-lock; returns instantly while
/// the lane is mid-step); a newly ready level ends the current
/// MultiplicativeMg::solve, and the next one continues from the same
/// iterate on the deeper prefix. Once the build completes the full cycle
/// runs, LU coarse solve included.
SolveStats solve_with_background(BackgroundSetup& bg, const Vector& b,
                                 Vector& x, int t_max, double tol,
                                 const StopPredicate& expired,
                                 std::size_t& partial_cycles) {
  SolveStats stats;
  const auto t0 = Clock::now();
  std::shared_ptr<const MgSetup> setup = bg.snapshot();
  bool deeper = false;    // the last stop was a newly ready level
  bool switched = false;  // ...and its step already ran for the next cycle
  const StopPredicate stop = [&] {
    if (expired && expired()) return true;
    if (std::exchange(switched, false)) return false;
    bg.advance();
    deeper = bg.ready_levels() > setup->num_levels();
    return deeper;
  };
  for (;;) {
    MultiplicativeMg mg(*setup);
    const bool partial = setup != bg.full();
    deeper = false;
    const SolveStats part = mg.solve(b, x, t_max - stats.cycles, tol, stop);
    // A continuation starts from the iterate the last part ended on: skip
    // its repeated initial residual.
    const auto from = part.rel_res_history.begin() +
                      (stats.rel_res_history.empty() ? 0 : 1);
    stats.rel_res_history.insert(stats.rel_res_history.end(), from,
                                 part.rel_res_history.end());
    stats.cycles += part.cycles;
    if (partial) partial_cycles += static_cast<std::size_t>(part.cycles);
    if (!deeper) {
      stats.converged = part.converged;
      stats.stopped = part.stopped;
      break;
    }
    setup = bg.snapshot();
    switched = true;
  }
  stats.seconds = seconds_since(t0);
  return stats;
}

}  // namespace

std::string ServiceStats::to_json() const {
  std::ostringstream o;
  o.precision(9);
  o << "{"
    << "\"submitted\":" << submitted << ","
    << "\"completed\":" << completed << ","
    << "\"rejected\":" << rejected << ","
    << "\"timed_out\":" << timed_out << ","
    << "\"queue_depth\":" << queue_depth << ","
    << "\"background\":{"
    << "\"partial_solves\":" << partial_solves << ","
    << "\"partial_cycles\":" << partial_cycles << ","
    << "\"setup_fallbacks\":" << setup_fallbacks << "},"
    << "\"cache\":{"
    << "\"hits\":" << cache.hits << ","
    << "\"misses\":" << cache.misses << ","
    << "\"setups_built\":" << cache.setups_built << ","
    << "\"evictions\":" << cache.evictions << ","
    << "\"spill_writes\":" << cache.spill_writes << ","
    << "\"spill_loads\":" << cache.spill_loads << ","
    << "\"resident_bytes\":" << cache.resident_bytes << ","
    << "\"resident_entries\":" << cache.resident_entries << "},"
    << "\"latency_p50\":" << latency_p50 << ","
    << "\"latency_p95\":" << latency_p95 << ","
    << "\"latency_mean\":" << latency_mean << "}";
  return o.str();
}

SolveService::SolveService(ServiceOptions opts) : opts_(std::move(opts)) {
  // Cache-miss setups run under the cache mutex (one at a time), so they may
  // use the pool's whole thread budget without oversubscribing the machine.
  if (opts_.cache.mg.amg.setup_threads == 0) {
    opts_.cache.mg.amg.setup_threads = static_cast<int>(opts_.num_threads);
  }
  if (opts_.cache.telemetry == nullptr) {
    opts_.cache.telemetry = opts_.telemetry;
  }
  cache_ = std::make_unique<HierarchyCache>(opts_.cache);
  pool_ = std::make_unique<SolverPool>(opts_.num_threads);
  pool_->set_telemetry(opts_.telemetry);
}

SolveService::~SolveService() {
  pool_->wait_idle();
  // pool_ is the first member destroyed; its destructor joins the workers.
}

std::future<SolveResponse> SolveService::submit(CsrMatrix a, Vector b,
                                                RequestOptions ropts) {
  TelemetrySink* const tel =
      (opts_.telemetry != nullptr && opts_.telemetry->enabled())
          ? opts_.telemetry
          : nullptr;
  std::size_t depth = 0;
  {
    const std::lock_guard<std::mutex> g(stats_mu_);
    if (in_flight_ >= opts_.max_queue) {
      ++rejected_;
      if (tel != nullptr) {
        tel->metrics().counter("service.rejected").add(1);
      }
      throw ServiceOverloaded();
    }
    ++in_flight_;
    ++submitted_;
    depth = in_flight_;
  }
  if (tel != nullptr) {
    tel->record_control(EventKind::kQueueDepth,
                        static_cast<std::int64_t>(depth));
    tel->metrics().gauge("service.queue_depth").set(
        static_cast<double>(depth));
    tel->metrics().counter("service.submitted").add(1);
  }
  auto promise = std::make_shared<std::promise<SolveResponse>>();
  std::future<SolveResponse> fut = promise->get_future();
  const auto submitted_at = Clock::now();
  pool_->post([this, a = std::move(a), b = std::move(b), ropts, submitted_at,
               promise]() mutable {
    execute(std::move(a), std::move(b), ropts, submitted_at,
            std::move(promise));
  });
  return fut;
}

void SolveService::execute(
    CsrMatrix a, Vector b, RequestOptions ropts,
    std::chrono::steady_clock::time_point submitted,
    std::shared_ptr<std::promise<SolveResponse>> promise) {
  SolveResponse resp;
  std::exception_ptr error;
  try {
    resp.queue_seconds = seconds_since(submitted);

    StopPredicate expired;  // the deadline; empty when there is none
    if (ropts.timeout_seconds > 0.0) {
      const auto deadline =
          submitted + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(ropts.timeout_seconds));
      expired = [deadline] { return Clock::now() >= deadline; };
    }

    if (expired && expired()) {
      // Expired while queued: the zero initial guess is the best-so-far
      // iterate, with exact relative residual 1. Skips the setup entirely.
      resp.x.assign(b.size(), 0.0);
      resp.stats.rel_res_history.push_back(1.0);
      resp.timed_out = true;
    } else {
      const int t_max = ropts.t_max > 0 ? ropts.t_max : opts_.default_t_max;
      const double tol = ropts.tol > 0.0 ? ropts.tol : opts_.default_tol;
      resp.x.assign(b.size(), 0.0);

      std::shared_ptr<BackgroundSetup> bg;
      std::shared_ptr<const MgSetup> setup;
      MatrixFingerprint key{};
      if (opts_.background_setup) {
        key = matrix_fingerprint(a);
        setup = cache_->lookup(key, &resp.cache_hit);
        if (!setup) {
          BackgroundSetupOptions bo;
          bo.mg = opts_.cache.mg;
          bo.pool = pool_.get();
          bo.telemetry = opts_.telemetry;
          bo.fail_after_levels = opts_.background_fail_after_levels;
          bg = std::make_shared<BackgroundSetup>(std::move(a), bo);
          bg->start();
        }
      } else {
        setup = cache_->get_or_build(a, &resp.cache_hit);
      }
      a = CsrMatrix();  // the setup/builder owns its own copy

      if (bg) {
        resp.stats = solve_with_background(*bg, b, resp.x, t_max, tol,
                                           expired, resp.partial_cycles);
        resp.partial_setup = resp.partial_cycles > 0;
        // Register the finished setup so later requests are warm. If the
        // solve converged before the build did, a detached pool task
        // finishes it -- pool tasks may block on the step lock (that holder
        // is making progress), just never on the pool itself.
        if (std::shared_ptr<const MgSetup> built = bg->full()) {
          cache_->insert(key, std::move(built));
        } else {
          pool_->post([bg, key, cache = cache_.get()]() {
            cache->insert(key, bg->wait_full());
          });
        }
        const bool fell_back = bg->fell_back();
        const std::lock_guard<std::mutex> g(stats_mu_);
        if (resp.partial_setup) ++partial_solves_;
        partial_cycles_ += resp.partial_cycles;
        if (fell_back) ++setup_fallbacks_;
      } else {
        // Best-so-far on the deadline: the iterate the solve stopped at.
        RequestSolver solver(*setup);
        resp.stats = solver.solve(b, resp.x, t_max, tol, expired);
      }
      resp.timed_out = resp.stats.stopped;
    }
  } catch (...) {
    error = std::current_exception();
  }
  // Bookkeeping strictly before the promise resolves: a client that calls
  // stats() right after future.get() must see this request as completed.
  const double latency = seconds_since(submitted);
  std::size_t depth = 0;
  {
    const std::lock_guard<std::mutex> g(stats_mu_);
    --in_flight_;
    ++completed_;
    if (!error && resp.timed_out) ++timed_out_;
    latencies_.push_back(latency);
    depth = in_flight_;
  }
  if (TelemetrySink* const tel = opts_.telemetry;
      tel != nullptr && tel->enabled()) {
    tel->record_control(EventKind::kQueueDepth,
                        static_cast<std::int64_t>(depth));
    tel->metrics().gauge("service.queue_depth").set(
        static_cast<double>(depth));
    tel->metrics().counter("service.completed").add(1);
    tel->metrics().histogram("service.latency_seconds").observe(latency);
  }
  if (error) {
    promise->set_exception(error);
  } else {
    promise->set_value(std::move(resp));
  }
}

std::vector<BatchResult> SolveService::solve_batch(
    const CsrMatrix& a, const std::vector<Vector>& rhs, BatchOptions opts) {
  if (opts.t_max <= 0) opts.t_max = opts_.default_t_max;
  if (opts.tol <= 0.0) opts.tol = opts_.default_tol;
  BatchSolver batch(cache_->get_or_build(a), pool_.get(), opts);
  return batch.solve_all(rhs);
}

ServiceStats SolveService::stats() const {
  ServiceStats s;
  std::vector<double> lat;
  {
    const std::lock_guard<std::mutex> g(stats_mu_);
    s.submitted = submitted_;
    s.completed = completed_;
    s.rejected = rejected_;
    s.timed_out = timed_out_;
    s.queue_depth = in_flight_;
    s.partial_solves = partial_solves_;
    s.partial_cycles = partial_cycles_;
    s.setup_fallbacks = setup_fallbacks_;
    lat = latencies_;
  }
  s.cache = cache_->stats();
  if (!lat.empty()) {
    s.latency_mean = mean(lat);
    s.latency_p50 = percentile(lat, 50.0);
    s.latency_p95 = percentile(lat, 95.0);
  }
  return s;
}

std::string SolveService::stats_json() const {
  std::string json = stats().to_json();
  if (opts_.telemetry == nullptr) return json;
  // Splice the metrics dump into the closing brace of the stats object.
  json.pop_back();
  json += ",\"telemetry\":" + opts_.telemetry->metrics().to_json() + "}";
  return json;
}

}  // namespace asyncmg
