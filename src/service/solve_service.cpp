#include "service/solve_service.hpp"

#include <sstream>
#include <utility>

#include "telemetry/sink.hpp"
#include "util/stats.hpp"

namespace asyncmg {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
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

      std::shared_ptr<const MgSetup> setup =
          cache_->get_or_build(a, &resp.cache_hit);
      a = CsrMatrix();  // the setup owns its own copy
      // Best-so-far on the deadline: the iterate the solve stopped at.
      RequestSolver solver(*setup);
      resp.stats = solver.solve(b, resp.x, t_max, tol, expired);
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
