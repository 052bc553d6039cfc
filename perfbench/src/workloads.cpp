#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench_common.hpp"
#include "fleet.hpp"
#include "host.hpp"
#include "mesh/problems.hpp"
#include "net/cluster.hpp"
#include "probes.hpp"
#include "service/solve_service.hpp"
#include "shard/solver.hpp"
#include "sparse/vec.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {

using namespace asyncmg;

namespace {

constexpr double kTol = 1e-8;
// Slack on the recomputed residual: the solver stops on its own residual
// norm, and recomputing it in another summation order can move the last
// digits.
constexpr double kTolSlack = 1.01;
constexpr std::size_t kInFlight = 4;
constexpr std::size_t kClusterWorkers = 2;
// backend.L{k}.* slots reported by the traced run.
constexpr std::size_t kLevelSlots = 2;

/// Problem sizes and solver settings of a run.
struct Plan {
  Index n7 = 24, n27 = 20, n_sphere = 30, n7_big = 36;  // service mix
  Index n_async = 20;
  int async_t_max = 150;
  Index n_cluster = 14;
  int cluster_t_max = 80;
  std::size_t oracle_rhs = 8;  // distinct cluster right-hand sides
  int setup_reps = 3;
  int probe_reps = 3;
  double backend_budget_s = 1.5;
};

Plan make_plan(bool smoke) {
  Plan p;
  if (smoke) {
    p.n7 = 8;
    p.n27 = 6;
    p.n_sphere = 8;
    p.n7_big = 10;
    p.n_async = 8;
    p.n_cluster = 8;
    p.oracle_rhs = 2;
    p.setup_reps = 1;
    p.probe_reps = 1;
    p.backend_budget_s = 0.1;
  }
  return p;
}

/// The paper's BoomerAMG-style options (HMIS, classical modified
/// interpolation, one aggressive level, weighted Jacobi with the stencil
/// sets' omega), fp64 pinned so the environment cannot change the stored
/// precision.
MgOptions bench_mg_options() {
  MgOptions mo =
      bench::paper_mg_options(SmootherType::kWeightedJacobi, 0.9, 1);
  mo.amg.precision = PrecisionPolicy{};
  return mo;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream,
                       std::uint64_t i) {
  std::uint64_t s = seed * 0x9e3779b97f4a7c15ull ^ (stream << 32) ^ i;
  return splitmix64(s);
}

Vector seeded_rhs(std::size_t n, std::uint64_t seed, std::uint64_t stream,
                  std::uint64_t i) {
  Rng rng(mix_seed(seed, stream, i));
  return random_vector(n, rng);
}

/// A never-seen matrix: `base` with every diagonal entry scaled by a seeded
/// factor in [1, 1.05). Stays SPD (more diagonally dominant), gets a new
/// fingerprint, and needs a full set-up.
CsrMatrix perturbed(const CsrMatrix& base, std::uint64_t seed,
                    std::uint64_t i) {
  CsrMatrix a = base;
  Rng rng(mix_seed(seed, 7, i));
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  auto v = a.values_mutable();
  for (Index r = 0; r < a.rows(); ++r) {
    for (Index j = rp[r]; j < rp[r + 1]; ++j) {
      if (ci[j] == r) v[j] *= 1.0 + 0.05 * rng.next_double();
    }
  }
  return a;
}

/// Checks answers by their true relative residual. `forced_misses` answers
/// are declared wrong first (the test hook of Config::force_misses).
struct Checker {
  int forced_misses = 0;
  double worst = 0.0;  // largest relative residual seen (NaN wins)
  bool ok(const CsrMatrix& a, const Vector& b, const Vector& x) {
    const double rel = true_rel_res(a, b, x);
    if (!(rel <= worst)) worst = rel;
    if (forced_misses > 0) {
      --forced_misses;
      return false;
    }
    return std::isfinite(rel) && rel <= kTol * kTolSlack;
  }
};

// Length of the windows the timed loop is cut into for the end-to-end
// statistics (see add_latency_metrics).
constexpr double kWindowS = 2.0;

/// Latency samples of a timed loop, each with its completion time relative
/// to the start of the loop.
struct LoopTimes {
  std::vector<double> latency;
  std::vector<double> done_at;
  double elapsed = 0.0;  // start of the loop to the last completion

  void add(double at, double lat) {
    done_at.push_back(at);
    latency.push_back(lat);
    elapsed = std::max(elapsed, at);
  }
  std::size_t completed() const { return latency.size(); }
};

/// The loop is cut into windows of about kWindowS by completion time; each
/// window gives a p50, a p90 and a completion rate. Reported are the lower
/// quartile over the windows of the latencies and the upper quartile of the
/// rate: the run's fastest quarter. On a shared host, neighbours slow the
/// machine down for seconds at a time, which moves whole-run statistics
/// (printed beside these) from run to run; a slower program slows every
/// window, the fastest quarter included.
void add_latency_metrics(const LoopTimes& t, Metrics& m) {
  const auto w = static_cast<std::size_t>(
      std::max(1.0, std::floor(t.elapsed / kWindowS)));
  const double len = t.elapsed / static_cast<double>(w);
  std::vector<std::vector<double>> win(w);
  for (std::size_t i = 0; i < t.latency.size(); ++i) {
    const auto k =
        len > 0.0 ? static_cast<std::size_t>(t.done_at[i] / len) : 0;
    win[std::min(k, w - 1)].push_back(t.latency[i]);
  }
  std::vector<double> p50, p90, rate;
  for (const std::vector<double>& v : win) {
    if (v.empty()) continue;
    p50.push_back(percentile(v, 50.0));
    p90.push_back(percentile(v, 90.0));
    rate.push_back(len > 0.0 ? static_cast<double>(v.size()) / len : 0.0);
  }
  m["latency_p50_s"] = {percentile(p50, 25.0), "s"};
  m["latency_p90_s"] = {percentile(p90, 25.0), "s"};
  m["throughput_rps"] = {percentile(rate, 75.0), "1/s"};
}

/// Whole-run statistics, for the details line.
std::string whole_run_json(const LoopTimes& t) {
  std::ostringstream os;
  os << "{\"p50_s\":" << json_number(percentile(t.latency, 50.0))
     << ",\"p90_s\":" << json_number(percentile(t.latency, 90.0))
     << ",\"throughput_rps\":"
     << json_number(t.elapsed > 0.0 ? t.completed() / t.elapsed : 0.0)
     << ",\"windows\":"
     << std::max(1.0, std::floor(t.elapsed / kWindowS)) << "}";
  return os.str();
}

// --- Service loop -----------------------------------------------------------

struct ServiceLoop {
  LoopTimes times;
  FailTally fails;
  std::vector<double> queue, solve, resolve;
  double cycles_sum = 0.0;
  std::size_t answered = 0, hits = 0;
  std::uint64_t setups_built = 0, rejected = 0;
};

/// Stamps the moment each watched future becomes ready. One thread per
/// in-flight slot blocks on its request, so the client thread sleeps until
/// an answer exists instead of polling (which would steal CPU from the
/// pool it is measuring).
class CompletionWatch {
 public:
  CompletionWatch(std::size_t slots, const Tracer& clock) {
    for (std::size_t i = 0; i < slots; ++i) {
      threads_.emplace_back([this, &clock] { run(clock); });
    }
  }
  ~CompletionWatch() {
    {
      const std::lock_guard<std::mutex> g(mu_);
      stop_ = true;
    }
    task_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }
  CompletionWatch(const CompletionWatch&) = delete;
  CompletionWatch& operator=(const CompletionWatch&) = delete;

  void watch(std::uint64_t id, std::shared_future<SolveResponse> f) {
    {
      const std::lock_guard<std::mutex> g(mu_);
      tasks_.emplace_back(id, std::move(f));
    }
    task_cv_.notify_one();
  }

  /// Blocks until a watched request is ready; returns its id and stamp.
  std::pair<std::uint64_t, double> next_done() {
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [&] { return !done_.empty(); });
    const auto d = done_.front();
    done_.pop_front();
    return d;
  }

 private:
  void run(const Tracer& clock) {
    while (true) {
      std::pair<std::uint64_t, std::shared_future<SolveResponse>> t;
      {
        std::unique_lock<std::mutex> lk(mu_);
        task_cv_.wait(lk, [&] { return stop_ || !tasks_.empty(); });
        if (tasks_.empty()) return;
        t = std::move(tasks_.front());
        tasks_.pop_front();
      }
      t.second.wait();
      const double stamp = clock.now();
      {
        const std::lock_guard<std::mutex> g(mu_);
        done_.emplace_back(t.first, stamp);
      }
      done_cv_.notify_one();
    }
  }

  std::mutex mu_;
  std::condition_variable task_cv_, done_cv_;
  std::deque<std::pair<std::uint64_t, std::shared_future<SolveResponse>>>
      tasks_;
  std::deque<std::pair<std::uint64_t, double>> done_;
  bool stop_ = false;
  std::vector<std::thread> threads_;  // last: joined before the rest dies
};

/// Closed loop of `kInFlight` outstanding requests cycling over `stream`
/// for `seconds`; every `cold_every`-th request (0 = none) carries a
/// perturbed copy of a stream matrix. Request ids start at `first_id`.
ServiceLoop service_loop(SolveService& svc,
                         const std::vector<const CsrMatrix*>& stream,
                         std::size_t cold_every, std::uint64_t seed,
                         double seconds, std::uint64_t first_id,
                         Checker& check, Tracer& tr) {
  struct Pending {
    std::shared_future<SolveResponse> fut;
    double t_submit = 0.0;
    std::uint64_t id = 0;
    std::shared_ptr<const CsrMatrix> a;
    Vector b;
  };
  ServiceLoop out;
  const ServiceStats before = svc.stats();
  std::map<std::uint64_t, Pending> pending;
  CompletionWatch watch(kInFlight, tr);
  std::uint64_t next = 0;
  const double t0 = tr.now();
  const double t_end = t0 + seconds;

  auto submit_one = [&] {
    const std::uint64_t i = next++;
    Pending p;
    p.id = first_id + i;
    const bool cold = cold_every > 0 && i % cold_every == cold_every - 1;
    if (cold) {
      p.a = std::make_shared<CsrMatrix>(
          perturbed(*stream[(i / cold_every) % stream.size()], seed, i));
    } else {
      p.a = std::shared_ptr<const CsrMatrix>(stream[i % stream.size()],
                                             [](const CsrMatrix*) {});
    }
    p.b = seeded_rhs(static_cast<std::size_t>(p.a->rows()), seed, 1, i);
    out.fails.attempt();
    p.t_submit = tr.now();
    try {
      const Span s(tr, "service.SolveService.submit", p.id);
      p.fut = svc.submit(*p.a, p.b).share();
    } catch (const ServiceOverloaded&) {
      out.fails.fail(Failure::kOverloaded);
      return;
    } catch (...) {
      out.fails.fail(Failure::kThrew);
      return;
    }
    watch.watch(p.id, p.fut);
    pending.emplace(p.id, std::move(p));
  };

  auto finish_one = [&](const Pending& p, double t_done) {
    SolveResponse r;
    try {
      r = p.fut.get();
    } catch (...) {
      out.fails.fail(Failure::kThrew);
      return;
    }
    const double lat = t_done - p.t_submit;
    out.times.add(t_done - t0, lat);
    ++out.answered;
    out.hits += r.cache_hit ? 1 : 0;
    out.cycles_sum += r.stats.cycles;
    out.queue.push_back(r.queue_seconds);
    out.solve.push_back(r.stats.seconds);
    const double resolve =
        std::max(0.0, lat - r.queue_seconds - r.stats.seconds);
    out.resolve.push_back(resolve);
    if (tr.enabled()) {
      const std::uint64_t span =
          tr.record("service.request", p.t_submit, t_done, p.id);
      const double q_end = p.t_submit + r.queue_seconds;
      tr.record("service.queue", p.t_submit, q_end, p.id, span);
      tr.record("service.resolve", q_end, q_end + resolve, p.id, span);
      tr.record("service.solve", t_done - r.stats.seconds, t_done, p.id, span);
    }
    if (r.timed_out) {
      out.fails.fail(Failure::kTimedOut);
    } else if (!check.ok(*p.a, p.b, r.x)) {
      out.fails.fail(Failure::kMissedTol);
    }
  };

  while (tr.now() < t_end && pending.size() < kInFlight) submit_one();
  while (!pending.empty()) {
    const auto [id, t_done] = watch.next_done();
    const auto it = pending.find(id);
    finish_one(it->second, t_done);
    pending.erase(it);
    while (tr.now() < t_end && pending.size() < kInFlight) submit_one();
  }
  const ServiceStats after = svc.stats();
  out.setups_built = after.cache.setups_built - before.cache.setups_built;
  out.rejected = after.rejected - before.rejected;
  return out;
}

Metrics service_metrics(const ServiceLoop& l) {
  Metrics m;
  m["service.queue_s_p50"] = {percentile(l.queue, 50.0), "s"};
  m["service.solve_s_p50"] = {percentile(l.solve, 50.0), "s"};
  m["service.resolve_s_p50"] = {percentile(l.resolve, 50.0), "s"};
  m["service.cache_hit_ratio"] = {
      l.answered ? static_cast<double>(l.hits) / l.answered : 0.0, "ratio"};
  m["service.setups_built"] = {static_cast<double>(l.setups_built), "count"};
  m["service.rejected"] = {static_cast<double>(l.rejected), "count"};
  return m;
}

ServiceOptions service_options(const MgOptions& mo, std::size_t threads) {
  ServiceOptions so;
  so.num_threads = threads;
  so.max_queue = 64;
  so.cache.mg = mo;
  // Room for the four base set-ups plus a few cold ones; cold set-ups are
  // never reused, so LRU evicts them first and peak memory stays bounded.
  so.cache.max_bytes = std::size_t{64} << 20;
  so.default_t_max = 100;
  so.default_tol = kTol;
  return so;
}

// --- Cluster loop -----------------------------------------------------------

struct ClusterLoop {
  LoopTimes times;
  FailTally fails;
  double bytes_sent = 0.0, bytes_received = 0.0, frames_relayed = 0.0;
  std::uint64_t frames_dropped = 0, connect_retries = 0;
};

/// Closed loop (one solve outstanding) of BSP cluster solves cycling over
/// `rhs`, each answer compared bitwise with `oracle`. Stops after `seconds`
/// or, when max_solves > 0, after that many solves.
ClusterLoop cluster_loop(ClusterCoordinator& coord, const MgSetup& setup,
                         int t_max, const std::vector<Vector>& rhs,
                         const std::vector<Vector>& oracle, double seconds,
                         std::size_t max_solves, Checker& check, Tracer& tr) {
  ClusterSolveOptions cso;
  cso.bsp = true;
  cso.t_max = t_max;
  cso.additive.kind = AdditiveKind::kMultadd;
  ClusterLoop out;
  const double t0 = tr.now();
  for (std::size_t i = 0;
       tr.now() < t0 + seconds && (max_solves == 0 || i < max_solves); ++i) {
    const std::size_t k = i % rhs.size();
    Vector x(rhs[k].size(), 0.0);
    out.fails.attempt();
    const double ts = tr.now();
    ClusterResult r;
    try {
      const Span s(tr, "net.ClusterCoordinator.solve", i + 1);
      r = coord.solve(setup, rhs[k], x, cso);
    } catch (...) {
      out.fails.fail(Failure::kThrew);
      continue;
    }
    const double td = tr.now();
    out.times.add(td - t0, td - ts);
    out.bytes_sent += static_cast<double>(r.bytes_sent);
    out.bytes_received += static_cast<double>(r.bytes_received);
    out.frames_relayed += static_cast<double>(r.frames_relayed);
    out.frames_dropped += r.frames_dropped;
    out.connect_retries += r.connect_retries;
    if (!r.dead_workers.empty()) {
      out.fails.fail(Failure::kLostWorker);
    } else if (std::memcmp(x.data(), oracle[k].data(),
                           x.size() * sizeof(double)) != 0) {
      out.fails.fail(Failure::kBitwise);
    } else if (!check.ok(setup.a(0), rhs[k], x)) {
      out.fails.fail(Failure::kMissedTol);
    }
  }
  return out;
}

Metrics net_metrics(const ClusterLoop& l) {
  const double n =
      std::max<double>(1.0, static_cast<double>(l.times.completed()));
  Metrics m;
  m["net.bytes_sent_per_solve"] = {l.bytes_sent / n, "bytes"};
  m["net.bytes_received_per_solve"] = {l.bytes_received / n, "bytes"};
  m["net.frames_relayed_per_solve"] = {l.frames_relayed / n, "count"};
  m["net.frames_dropped"] = {static_cast<double>(l.frames_dropped), "count"};
  m["net.connect_retries"] = {static_cast<double>(l.connect_retries),
                              "count"};
  return m;
}

/// In-process single-shard synchronous oracle of the BSP cluster solve.
Vector bsp_oracle(const MgSetup& setup, const Vector& b, int t_max) {
  ShardOptions so;
  so.num_shards = 1;
  so.mode = ShardMode::kSynchronous;
  so.t_max = t_max;
  AdditiveOptions ao;
  ao.kind = AdditiveKind::kMultadd;
  ShardedSolver solver(setup, ao, so);
  Vector x(b.size(), 0.0);
  solver.solve(b, x);
  return x;
}

// --- Async loop -------------------------------------------------------------

struct AsyncLoop {
  LoopTimes times;
  FailTally fails;
  CorrectionStats corrections;
};

AsyncLoop async_loop(const AdditiveCorrector& corr, const RuntimeOptions& ro,
                     std::uint64_t seed, double seconds,
                     std::size_t max_solves, std::uint64_t first_id,
                     Checker& check, Tracer& tr) {
  const CsrMatrix& a = corr.setup().a(0);
  const auto n = static_cast<std::size_t>(a.rows());
  AsyncLoop out;
  const double t0 = tr.now();
  for (std::size_t i = 0;
       tr.now() < t0 + seconds && (max_solves == 0 || i < max_solves); ++i) {
    const Vector b = seeded_rhs(n, seed, 2, first_id + i);
    Vector x(n, 0.0);
    out.fails.attempt();
    const double ts = tr.now();
    RuntimeResult r;
    try {
      const Span s(tr, "async.run_shared_memory", first_id + i);
      r = run_shared_memory(corr, b, x, ro);
    } catch (...) {
      out.fails.fail(Failure::kThrew);
      continue;
    }
    const double td = tr.now();
    out.times.add(td - t0, td - ts);
    out.corrections.add(r);
    if (!check.ok(a, b, x)) out.fails.fail(Failure::kMissedTol);
  }
  return out;
}

// --- Workload runner --------------------------------------------------------

/// Median wall seconds of `reps` calls of `build`, each of which replaces
/// the previous set-up; the last one serves the timed loop.
template <class Fn>
double median_setup(int reps, Tracer& tr, Fn&& build) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) t.push_back(timed(tr, "setup", build));
  return median(t);
}

class Runner {
 public:
  explicit Runner(const Config& cfg)
      : cfg_(cfg),
        plan_(make_plan(cfg.smoke)),
        mo_(bench_mg_options()),
        threads_(std::max(1u, std::thread::hardware_concurrency())),
        off_(false),
        tr_(true) {
    check_.forced_misses = cfg.force_misses;
  }

  Result run() {
    if (cfg_.workload == "warm_mix" || cfg_.workload == "cold_mix") {
      run_service(cfg_.workload == "cold_mix" ? 4 : 0);
    } else if (cfg_.workload == "async_multadd") {
      run_async();
    } else if (cfg_.workload == "cluster_bsp") {
      run_cluster();
    } else {
      throw std::invalid_argument("unknown workload " + cfg_.workload);
    }
    res_.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    if (cfg_.trace) finish_trace();
    return std::move(res_);
  }

 private:
  /// Loop seconds of the measured pass; a traced run splits its time into
  /// an untraced and a traced pass of half this length each.
  double pass_seconds() const {
    return cfg_.trace ? cfg_.seconds / 2.0 : cfg_.seconds;
  }
  void record_e2e(const LoopTimes& t, FailTally fails, double setup_s) {
    res_.fails = std::move(fails);
    res_.samples = t.latency.size();
    res_.end_to_end["setup_s"] = {setup_s, "s"};
    add_latency_metrics(t, res_.end_to_end);
    details_ << ",\"whole_run\":" << whole_run_json(t)
             << ",\"worst_rel_res\":" << json_number(check_.worst);
  }

  void set_overhead(const LoopTimes& untraced, const LoopTimes& traced) {
    const double u = percentile(untraced.latency, 50.0);
    const double t = percentile(traced.latency, 50.0);
    layer()["trace.overhead_frac"] = {u > 0.0 ? t / u - 1.0 : 0.0, "ratio"};
  }

  Metrics& layer() { return res_.per_layer; }
  void merge(const Metrics& m) {
    for (const auto& [k, v] : m) layer()[k] = v;
  }

  // ---- warm_mix / cold_mix ------------------------------------------------
  void run_service(std::size_t cold_every) {
    std::vector<CsrMatrix> base;
    base.push_back(make_laplace_7pt(plan_.n7).a);
    base.push_back(make_laplace_27pt(plan_.n27).a);
    base.push_back(make_fem_laplace_sphere(plan_.n_sphere).a);
    base.push_back(make_laplace_7pt(plan_.n7_big).a);
    // The larger 7pt takes two of five slots per cycle, so p50 and p90 each
    // fall inside one problem's latency mode instead of on the edge between
    // two, where a small shift in the mix would move them a lot.
    const std::vector<const CsrMatrix*> stream{&base[0], &base[1], &base[2],
                                               &base[3], &base[3]};

    const ServiceOptions so = service_options(mo_, threads_);
    std::unique_ptr<SolveService> svc;
    const double setup_s = median_setup(plan_.setup_reps, off_, [&] {
      svc.reset();
      svc = std::make_unique<SolveService>(so);
      for (const CsrMatrix& a : base) svc->cache().get_or_build(a);
    });

    ServiceLoop loop = service_loop(*svc, stream, cold_every, cfg_.seed,
                                    pass_seconds(), 1, check_, off_);
    if (cfg_.trace) {
      ServiceLoop traced =
          service_loop(*svc, stream, cold_every, cfg_.seed + 1, pass_seconds(),
                       1u << 20, check_, tr_);
      set_overhead(loop.times, traced.times);
      loop.fails.merge(traced.fails);
      merge(service_metrics(traced));
      layer()["multigrid.cycles_per_solve"] = {
          traced.answered ? traced.cycles_sum / traced.answered : 0.0,
          "count"};
      details_ << ",\"cache_hit_base\":" << traced.answered;
    }
    details_ << ",\"requests\":" << loop.fails.attempted()
             << ",\"cold_every\":" << cold_every << ",\"rows\":[";
    for (std::size_t i = 0; i < base.size(); ++i) {
      details_ << (i ? "," : "") << base[i].rows();
    }
    details_ << "]";
    record_e2e(loop.times, loop.fails, setup_s);

    if (cfg_.trace) {
      const CsrMatrix& primary = base.back();
      const std::shared_ptr<const MgSetup> setup =
          svc->cache().get_or_build(primary);
      common_probes(primary, *setup, /*service=*/false, /*async=*/true,
                    /*cluster=*/true, /*cycles=*/false);
    }
  }

  // ---- async_multadd -------------------------------------------------------
  void run_async() {
    const CsrMatrix a = make_laplace_27pt(plan_.n_async).a;
    std::unique_ptr<MgSetup> setup;
    std::unique_ptr<AdditiveCorrector> corr;
    AdditiveOptions ao;
    ao.kind = AdditiveKind::kMultadd;
    const double setup_s = median_setup(plan_.setup_reps, off_, [&] {
      corr.reset();
      setup = std::make_unique<MgSetup>(CsrMatrix(a), mo_);
      corr = std::make_unique<AdditiveCorrector>(*setup, ao);
    });
    const RuntimeOptions ro = paper_async_options(plan_.async_t_max, threads_);
    AsyncLoop loop =
        async_loop(*corr, ro, cfg_.seed, pass_seconds(), 0, 1, check_, off_);
    if (cfg_.trace) {
      AsyncLoop traced = async_loop(*corr, ro, cfg_.seed + 1, pass_seconds(),
                                    0, 1u << 20, check_, tr_);
      set_overhead(loop.times, traced.times);
      loop.fails.merge(traced.fails);
      merge(traced.corrections.metrics());
    }
    details_ << ",\"solves\":" << loop.fails.attempted()
             << ",\"rows\":" << a.rows() << ",\"t_max\":" << plan_.async_t_max;
    record_e2e(loop.times, loop.fails, setup_s);
    if (cfg_.trace) {
      common_probes(a, *setup, /*service=*/true, /*async=*/false,
                    /*cluster=*/true, /*cycles=*/true);
    }
  }

  // ---- cluster_bsp ---------------------------------------------------------
  void run_cluster() {
    const CsrMatrix a = make_laplace_7pt(plan_.n_cluster).a;
    std::unique_ptr<WorkerFleet> fleet;
    std::unique_ptr<MgSetup> setup;
    const double setup_s = median_setup(plan_.setup_reps, off_, [&] {
      if (fleet) fleet->shutdown();
      fleet = std::make_unique<WorkerFleet>(cfg_.workerd, kClusterWorkers,
                                            cfg_.out_dir);
      setup = std::make_unique<MgSetup>(CsrMatrix(a), mo_);
    });
    // Right-hand sides and their oracle answers (verification inputs; not
    // part of set-up time).
    std::vector<Vector> rhs, oracle;
    for (std::size_t k = 0; k < plan_.oracle_rhs; ++k) {
      rhs.push_back(
          seeded_rhs(static_cast<std::size_t>(a.rows()), cfg_.seed, 3, k));
      oracle.push_back(bsp_oracle(*setup, rhs.back(), plan_.cluster_t_max));
    }
    ClusterOptions co;
    co.endpoints = fleet->endpoints();
    ClusterCoordinator coord(co);
    ClusterLoop loop = cluster_loop(coord, *setup, plan_.cluster_t_max, rhs,
                                    oracle, pass_seconds(), 0, check_, off_);
    if (cfg_.trace) {
      ClusterLoop traced =
          cluster_loop(coord, *setup, plan_.cluster_t_max, rhs, oracle,
                       pass_seconds(), 0, check_, tr_);
      set_overhead(loop.times, traced.times);
      loop.fails.merge(traced.fails);
      merge(net_metrics(traced));
      cluster_p50_ = percentile(traced.times.latency, 50.0);
    }
    fleet->shutdown();
    details_ << ",\"solves\":" << loop.fails.attempted()
             << ",\"rows\":" << a.rows() << ",\"workers\":" << kClusterWorkers
             << ",\"t_max\":" << plan_.cluster_t_max;
    record_e2e(loop.times, loop.fails, setup_s);
    if (cfg_.trace) {
      common_probes(a, *setup, /*service=*/true, /*async=*/true,
                    /*cluster=*/false, /*cycles=*/true);
    }
  }

  // ---- traced-run probes ---------------------------------------------------
  /// Fills every per-layer metric the workload's own loop did not produce
  /// with a probe on the workload's primary operator. The flags name the
  /// layers still missing.
  void common_probes(const CsrMatrix& a, const MgSetup& setup, bool service,
                     bool async, bool cluster, bool cycles) {
    const auto n = static_cast<std::size_t>(a.rows());
    const Vector b = seeded_rhs(n, cfg_.seed, 4, 0);
    const int reps = plan_.probe_reps;
    // Probe answers are not requests of the workload: checked, not counted.
    Checker probe_check;

    merge(probe_amg(a, mo_, reps, tr_));

    const HostInfo host = probe_host();
    // Triad arrays of 4x the last-level cache each, kept between 64 and
    // 256 MiB so a misreported cache size cannot exhaust memory; the array
    // size and the LLC size are both reported beside the result.
    const std::size_t triad_n =
        cfg_.smoke ? (std::size_t{1} << 20)
                   : std::clamp<std::size_t>(4 * host.llc_bytes,
                                             std::size_t{64} << 20,
                                             std::size_t{256} << 20) /
                         sizeof(double);
    TriadResult triad;
    timed(tr_, "host.stream_triad",
          [&] { triad = stream_triad(triad_n, cfg_.smoke ? 2 : 10); });
    details_ << ",\"triad_array_bytes\":" << triad.array_bytes
             << ",\"triad_threads\":" << triad.threads
             << ",\"llc_bytes\":" << host.llc_bytes;
    merge(probe_backend(setup, triad.gbps, kLevelSlots,
                        plan_.backend_budget_s, tr_));
    merge(probe_cycle(setup, b, cfg_.smoke ? 2 : 20, tr_));
    if (cycles) {
      layer()["multigrid.cycles_per_solve"] = {
          static_cast<double>(cycles_to_tol(setup, b, kTol, tr_)), "count"};
    }
    layer()["async.mult_threaded_s"] = {
        probe_mult_threaded(setup, b, kTol, threads_, reps + 2, tr_), "s"};

    if (async) {
      AdditiveOptions ao;
      ao.kind = AdditiveKind::kMultadd;
      const AdditiveCorrector corr(setup, ao);
      const AsyncLoop l = async_loop(
          corr, paper_async_options(plan_.async_t_max, threads_), cfg_.seed,
          1e9, static_cast<std::size_t>(reps + 2), 1u << 24, probe_check, tr_);
      merge(l.corrections.metrics());
    }
    if (service) {
      SolveService svc(service_options(mo_, threads_));
      const std::vector<const CsrMatrix*> one{&a};
      const ServiceLoop l =
          service_loop(svc, one, 0, cfg_.seed, cfg_.smoke ? 0.2 : 1.5,
                       1u << 25, probe_check, tr_);
      merge(service_metrics(l));
    }
    const double inproc = probe_inproc_bsp(setup, b, plan_.cluster_t_max,
                                           kClusterWorkers, reps, tr_);
    layer()["shard.inproc_bsp_s"] = {inproc, "s"};
    if (cluster) {
      WorkerFleet fleet(cfg_.workerd, kClusterWorkers, cfg_.out_dir);
      ClusterOptions co;
      co.endpoints = fleet.endpoints();
      ClusterCoordinator coord(co);
      const std::vector<Vector> rhs{b};
      const std::vector<Vector> oracle{
          bsp_oracle(setup, b, plan_.cluster_t_max)};
      const ClusterLoop l =
          cluster_loop(coord, setup, plan_.cluster_t_max, rhs, oracle, 1e9,
                       static_cast<std::size_t>(reps), probe_check, tr_);
      fleet.shutdown();
      merge(net_metrics(l));
      cluster_p50_ = percentile(l.times.latency, 50.0);
    }
    layer()["net.wire_overhead_s"] = {cluster_p50_ - inproc, "s"};
  }

  void finish_trace() {
    const std::string path =
        cfg_.out_dir + "/trace_" + cfg_.workload + ".json";
    std::ofstream(path) << tr_.chrome_json();
    std::cout << "traced spans (name, count, total s, self s) -> " << path
              << "\n";
    for (const auto& [name, t] : span_totals(tr_.spans())) {
      std::cout << "  " << name << "  " << t.count << "  " << t.total_s
                << "  " << t.self_s << "\n";
    }
  }

 public:
  std::string details() const { return details_.str(); }

 private:
  const Config& cfg_;
  Plan plan_;
  MgOptions mo_;
  std::size_t threads_;
  Tracer off_;  // disabled: the measured pass records nothing
  Tracer tr_;   // the traced pass and the probes
  Result res_;
  Checker check_;
  std::ostringstream details_;
  double cluster_p50_ = 0.0;
};

}  // namespace

bool known_workload(const std::string& name) {
  return name == "warm_mix" || name == "cold_mix" ||
         name == "async_multadd" || name == "cluster_bsp";
}

Result run_workload(const Config& cfg) {
  Runner r(cfg);
  Result res = r.run();
  res.details_json = "{\"workload\":" + json_string(cfg.workload) +
                     ",\"seed\":" + std::to_string(cfg.seed) + r.details() +
                     ",\"failures\":" + res.fails.to_json() + "}";
  return res;
}

}  // namespace perfbench
