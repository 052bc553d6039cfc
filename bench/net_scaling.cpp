// Multi-process solver service bench + CI smoke gate. Unlike shard_scaling
// (threads in one process), this harness fork/execs REAL asyncmg_workerd
// processes on ephemeral loopback ports and drives them through the
// ClusterCoordinator, so the wire protocol, the workers' direct peer links,
// and the process-fault-tolerant control plane are all exercised end to
// end.
//
// Five hard gates (each exits 1 on failure):
//
//   1. BSP identity: the multi-process bulk-synchronous solve is bitwise
//      identical to the in-process single-shard oracle at every worker count.
//   2. Deterministic crash: worker 1 drops its connection after 3
//      corrections (the crash_after hook); the survivors must finish every
//      round with the dead shard frozen (Criterion-2) and a bounded residual.
//   3. Real kill: a worker process is SIGKILLed mid-solve; the coordinator
//      must detect the dead peer and return normally -- never hang. The kill
//      is timed, so the harness escalates t_max until it lands mid-solve.
//   4. Setup key path: in every sweep row the first solve on a fresh fleet
//      ships the hierarchy to every worker, the warm solves after it to
//      none, and all of them return the same bits.
//   5. Direct links: every BSP solve of every sweep row (all fault-free)
//      sends exactly N(N-1) halo frames per round on the workers' own
//      links, and the coordinator relays none.
//
// The worker-count x problem-size sweep runs each row on a fresh fleet and
// reports the first (cold) solve apart from the median of the warm solves
// after it, with residual, halo frames per solve, the time of one BSP
// round -- (warm t_max solve - warm 1-round solve) / (t_max - 1), so the
// fixed cost of a solve drops out -- and wire traffic (bytes per
// correction of a warm solve). --json writes the machine-readable summary,
// host-stamped
// (default BENCH_net.json); --smoke shrinks everything for CI.
// --trace-dir / --log-dir collect per-worker Chrome traces and stderr logs
// as CI artifacts.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "bench_host.hpp"
#include "net/cluster.hpp"
#include "shard/solver.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace asyncmg {
namespace {

struct WorkerProc {
  pid_t pid = -1;
  std::uint16_t port = 0;
  std::string name;
};

/// fork/exec one asyncmg_workerd with --port 0, parse "LISTENING <port>"
/// from its stdout (the binary's harness contract), optionally redirect
/// stderr to a log file and request a Chrome trace. Exits the bench on any
/// spawn failure -- a worker that cannot start is not a measurable result.
WorkerProc spawn_workerd(const std::string& bin, const std::string& name,
                         const std::string& trace_dir,
                         const std::string& log_dir) {
  int out[2];
  if (pipe(out) != 0) {
    std::perror("pipe");
    std::exit(1);
  }
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    std::exit(1);
  }
  if (pid == 0) {
    dup2(out[1], STDOUT_FILENO);
    close(out[0]);
    close(out[1]);
    if (!log_dir.empty()) {
      const std::string log = log_dir + "/" + name + ".log";
      const int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        dup2(fd, STDERR_FILENO);
        close(fd);
      }
    }
    std::vector<std::string> args = {bin, "--port", "0", "--name", name};
    if (!trace_dir.empty()) {
      args.push_back("--trace");
      args.push_back(trace_dir + "/" + name + ".trace.json");
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    execv(bin.c_str(), argv.data());
    std::perror("execv");
    _exit(127);
  }
  close(out[1]);

  // Read the announcement line (poll-bounded so a broken binary cannot hang
  // the bench).
  std::string line;
  char c = 0;
  while (true) {
    pollfd pfd{out[0], POLLIN, 0};
    if (poll(&pfd, 1, 10000) <= 0) break;
    const ssize_t n = read(out[0], &c, 1);
    if (n <= 0 || c == '\n') break;
    line.push_back(c);
  }
  close(out[0]);
  WorkerProc w;
  w.pid = pid;
  w.name = name;
  if (line.rfind("LISTENING ", 0) == 0) {
    w.port = static_cast<std::uint16_t>(std::stoi(line.substr(10)));
  }
  if (w.port == 0) {
    std::cerr << "FAIL: workerd " << name << " did not announce a port ("
              << line << ")\n";
    kill(pid, SIGKILL);
    std::exit(1);
  }
  return w;
}

void reap(WorkerProc& w) {
  if (w.pid < 0) return;
  int status = 0;
  waitpid(w.pid, &status, 0);
  w.pid = -1;
}

std::vector<Endpoint> endpoints_of(const std::vector<WorkerProc>& fleet,
                                   std::size_t count) {
  std::vector<Endpoint> e;
  for (std::size_t i = 0; i < count; ++i) {
    e.push_back({"127.0.0.1", fleet[i].port});
  }
  return e;
}

/// One sweep row: the first solve on a fresh fleet (cold: every worker
/// loads the hierarchy) and the median of the warm solves after it.
struct Measurement {
  std::size_t workers = 0;
  std::int64_t n = 0;
  std::size_t dofs = 0;
  double first_seconds = 0.0;
  std::uint64_t first_setup_misses = 0;
  std::uint64_t first_bytes_sent = 0;
  double warm_seconds = 0.0;             // median
  double warm_round1_seconds = 0.0;      // median of warm 1-round solves
  double us_per_round = 0.0;
  std::uint64_t warm_setup_misses = 0;   // summed over the warm solves
  double final_rel_res = 1.0;
  std::uint64_t halo_frames = 0;         // of the last warm solve, as below
  std::uint64_t frames_relayed = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  double bytes_per_correction = 0.0;
};

}  // namespace
}  // namespace asyncmg

int main(int argc, char** argv) {
  using namespace asyncmg;

  Cli cli(argc, argv);
  const bool smoke = cli.has("smoke");
  const std::int64_t n = cli.get_int("n", smoke ? 8 : 12);
  const int t_max = static_cast<int>(cli.get_int("cycles", smoke ? 10 : 30));
  const auto worker_counts = smoke ? std::vector<std::int64_t>{2, 3}
                                   : cli.get_int_list("workers", {2, 3, 4});
  const std::string json_path = cli.get("json", "BENCH_net.json");
  const std::string trace_dir = cli.get("trace-dir", "");
  const std::string log_dir = cli.get("log-dir", "");
  // The worker binary sits next to the bench dir in the build tree.
  std::string def_bin = cli.program();
  const std::size_t slash = def_bin.find_last_of('/');
  def_bin = (slash == std::string::npos ? std::string(".")
                                        : def_bin.substr(0, slash)) +
            "/../asyncmg_workerd";
  const std::string bin = cli.get("workerd", def_bin);

  for (const std::string& dir : {trace_dir, log_dir}) {
    if (!dir.empty()) mkdir(dir.c_str(), 0755);
  }

  const std::size_t max_workers = static_cast<std::size_t>(
      *std::max_element(worker_counts.begin(), worker_counts.end()));
  // One extra worker: the real-kill gate consumes a process for good.
  std::vector<WorkerProc> fleet;
  for (std::size_t i = 0; i < max_workers + 1; ++i) {
    std::string name = "w";
    name += std::to_string(i);
    fleet.push_back(spawn_workerd(bin, name, trace_dir, log_dir));
  }
  std::cout << "net_scaling: spawned " << fleet.size() << " workerd ("
            << bin << "), ports";
  for (const WorkerProc& w : fleet) std::cout << " " << w.port;
  std::cout << (smoke ? " (smoke)" : "") << "\n\n";

  Problem prob = make_problem(TestSet::kFD7pt, n);
  const MgSetup setup(std::move(prob.a),
                      bench::paper_mg_options(SmootherType::kWeightedJacobi,
                                              0.9, 1));
  AdditiveOptions ao;
  ao.kind = AdditiveKind::kMultadd;
  const std::size_t rows = static_cast<std::size_t>(setup.a(0).rows());
  const Vector b = bench::paper_rhs(rows, 0);

  // In-process single-shard synchronous oracle for the identity gate.
  Vector x_oracle(rows, 0.0);
  {
    ShardOptions so;
    so.num_shards = 1;
    so.mode = ShardMode::kSynchronous;
    so.t_max = t_max;
    ShardedSolver solver(setup, ao, so);
    solver.solve(b, x_oracle);
  }

  // --- Gate 1: BSP bitwise identity at every worker count -----------------
  for (std::int64_t wc : worker_counts) {
    ClusterOptions co;
    co.endpoints = endpoints_of(fleet, static_cast<std::size_t>(wc));
    ClusterCoordinator coordinator(co);
    ClusterSolveOptions cso;
    cso.bsp = true;
    cso.t_max = t_max;
    cso.additive = ao;
    Vector x(rows, 0.0);
    const ClusterResult r = coordinator.solve(setup, b, x, cso);
    if (!r.dead_workers.empty()) {
      std::cerr << "FAIL: worker died during the BSP identity gate\n";
      return 1;
    }
    for (std::size_t i = 0; i < rows; ++i) {
      if (x[i] != x_oracle[i]) {
        std::cerr << "FAIL: BSP run with " << wc
                  << " workers diverges from the in-process oracle at row "
                  << i << " (" << x[i] << " vs " << x_oracle[i] << ")\n";
        return 1;
      }
    }
  }
  std::cout << "gate 1: BSP multi-process bitwise-matches the in-process "
               "oracle at all worker counts\n";

  // --- Gate 2: deterministic crash (crash_after hook, Criterion-2) --------
  {
    ClusterOptions co;
    co.endpoints = endpoints_of(fleet, 3);
    ClusterCoordinator coordinator(co);
    ClusterSolveOptions cso;
    cso.bsp = true;
    cso.t_max = t_max;
    cso.additive = ao;
    cso.crash_after = {-1, 3, -1};
    Vector x(rows, 0.0);
    const ClusterResult r = coordinator.solve(setup, b, x, cso);
    const bool ok = r.dead_workers == std::vector<std::size_t>{1} &&
                    r.corrections.size() == 3 && r.corrections[0] == t_max &&
                    r.corrections[2] == t_max && r.final_rel_res < 1.0;
    if (!ok) {
      std::cerr << "FAIL: crash_after recovery gate (" << r.to_json()
                << ")\n";
      return 1;
    }
  }
  std::cout << "gate 2: deterministic worker crash recovered (survivors "
               "finished all rounds, residual bounded)\n";

  // --- Sweep: worker count x problem size (gates 4, 5 on every row) --------
  const auto sizes = smoke ? std::vector<std::int64_t>{n}
                           : cli.get_int_list("sizes", {8, 12});
  const int warm_solves = smoke ? 2 : 5;
  Table table({"workers", "n", "dofs", "cold", "warm", "us/round", "relres",
               "halo", "bytes/corr"});
  std::vector<Measurement> runs;
  for (std::int64_t size : sizes) {
    Problem p = make_problem(TestSet::kFD7pt, size);
    const MgSetup s(std::move(p.a),
                    bench::paper_mg_options(SmootherType::kWeightedJacobi,
                                            0.9, 1));
    const std::size_t sr = static_cast<std::size_t>(s.a(0).rows());
    const Vector sb = bench::paper_rhs(sr, 0);
    for (std::int64_t wc : worker_counts) {
      // A fresh fleet per row, so its first solve is cold on every worker.
      std::vector<WorkerProc> row_fleet;
      for (std::int64_t i = 0; i < wc; ++i) {
        std::ostringstream name;
        name << "n" << size << "w" << wc << "_" << i;
        row_fleet.push_back(
            spawn_workerd(bin, name.str(), trace_dir, log_dir));
      }
      ClusterOptions co;
      co.endpoints =
          endpoints_of(row_fleet, static_cast<std::size_t>(wc));
      ClusterCoordinator coordinator(co);
      ClusterSolveOptions cso;
      cso.bsp = true;
      cso.t_max = t_max;
      cso.additive = ao;
      // Gate 5: a fault-free BSP solve of `rounds` rounds sends every peer
      // one halo frame per round on the direct links, relaying none.
      bool links_ok = true;
      auto direct = [&](const ClusterResult& res, int rounds) {
        links_ok = links_ok && res.dead_workers.empty() &&
                   res.frames_relayed == 0 &&
                   res.halo_frames == static_cast<std::uint64_t>(wc) *
                                          static_cast<std::uint64_t>(wc - 1) *
                                          static_cast<std::uint64_t>(rounds);
      };
      Vector x_first(sr, 0.0);
      const ClusterResult first = coordinator.solve(s, sb, x_first, cso);
      direct(first, t_max);
      Measurement m;
      m.workers = static_cast<std::size_t>(wc);
      m.n = size;
      m.dofs = sr;
      m.first_seconds = first.seconds;
      m.first_setup_misses = first.setup_misses;
      m.first_bytes_sent = first.bytes_sent;
      bool same_bits = true;
      std::vector<double> warm;
      std::vector<double> warm_round1;
      ClusterSolveOptions one_round = cso;
      one_round.t_max = 1;
      ClusterResult r;
      for (int k = 0; k < warm_solves; ++k) {
        Vector x1(sr, 0.0);
        const ClusterResult r1 = coordinator.solve(s, sb, x1, one_round);
        direct(r1, 1);
        warm_round1.push_back(r1.seconds);
        m.warm_setup_misses += r1.setup_misses;
        Vector x(sr, 0.0);
        r = coordinator.solve(s, sb, x, cso);
        direct(r, t_max);
        warm.push_back(r.seconds);
        m.warm_setup_misses += r.setup_misses;
        same_bits = same_bits && x == x_first;
      }
      coordinator.shutdown_workers();
      for (WorkerProc& w : row_fleet) reap(w);
      if (m.first_setup_misses != m.workers || m.warm_setup_misses != 0 ||
          !same_bits) {
        std::cerr << "FAIL: setup key path with " << wc << " workers at n="
                  << size << ": cold solve shipped the hierarchy to "
                  << m.first_setup_misses << " workers, warm solves to "
                  << m.warm_setup_misses << ", answers "
                  << (same_bits ? "bitwise equal" : "differ") << "\n";
        return 1;
      }
      if (!links_ok) {
        std::cerr << "FAIL: direct links with " << wc << " workers at n="
                  << size << ": a fault-free BSP solve did not send exactly "
                  << wc * (wc - 1) << " halo frames per round on the peer "
                  << "links with none relayed (last warm solve: "
                  << r.to_json() << ")\n";
        return 1;
      }
      m.warm_seconds = median(warm);
      m.warm_round1_seconds = median(warm_round1);
      m.us_per_round = t_max > 1 ? (m.warm_seconds - m.warm_round1_seconds) /
                                       (t_max - 1) * 1e6
                                 : 0.0;
      m.final_rel_res = r.final_rel_res;
      m.halo_frames = r.halo_frames;
      m.frames_relayed = r.frames_relayed;
      m.bytes_sent = r.bytes_sent;
      m.bytes_received = r.bytes_received;
      std::uint64_t corr = 0;
      for (int c : r.corrections) corr += static_cast<std::uint64_t>(c);
      m.bytes_per_correction =
          corr == 0 ? 0.0
                    : static_cast<double>(m.bytes_sent + m.bytes_received) /
                          static_cast<double>(corr);
      runs.push_back(m);
      table.add_row({std::to_string(wc), std::to_string(size),
                     std::to_string(sr), Table::fmt(m.first_seconds, 4),
                     Table::fmt(m.warm_seconds, 4),
                     Table::fmt(m.us_per_round, 3),
                     Table::fmt(r.final_rel_res, 3),
                     std::to_string(r.halo_frames),
                     Table::fmt(m.bytes_per_correction, 0)});
    }
  }
  std::cout << "gate 4: every cold solve shipped the hierarchy to every "
               "worker, no warm one did, all answers bitwise equal\n";
  std::cout << "gate 5: every fault-free BSP solve sent N(N-1) halo frames "
               "per round on direct peer links, none relayed\n\n";
  table.emit(cli.get("csv", ""));
  std::cout << "\nReading: the cold solve ships the hierarchy to every "
               "worker, which loads it; a warm solve ships only the setup "
               "key, b and x0, so its bytes/corr is the data plane (halo "
               "frames on the peer links), which grows with worker count. "
               "us/round is one BSP round: a correction plus one hop of "
               "the x-block exchange\n\n";

  // --- Gate 3: real SIGKILL mid-solve -------------------------------------
  // Timing-dependent by nature: escalate t_max until the kill lands while
  // the solve is in flight. The coordinator returning AT ALL on every
  // attempt is itself the no-hang assertion.
  bool kill_landed = false;
  int kill_t_max = std::max(t_max, 50);
  const std::size_t victim = 2;
  for (int attempt = 0; attempt < 5 && !kill_landed; ++attempt) {
    ClusterOptions co;
    co.endpoints = endpoints_of(fleet, 3);
    co.heartbeat_timeout_ms = 500.0;
    ClusterCoordinator coordinator(co);
    ClusterSolveOptions cso;
    cso.bsp = true;
    cso.t_max = kill_t_max;
    cso.additive = ao;
    Vector x(rows, 0.0);
    std::thread killer([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      kill(fleet[victim].pid, SIGKILL);
    });
    const ClusterResult r = coordinator.solve(setup, b, x, cso);
    killer.join();
    reap(fleet[victim]);
    if (!r.dead_workers.empty()) {
      const bool ok = r.dead_workers == std::vector<std::size_t>{victim} &&
                      r.corrections[0] == kill_t_max &&
                      r.corrections[1] == kill_t_max && r.final_rel_res < 1.0;
      if (!ok) {
        std::cerr << "FAIL: SIGKILL recovery gate (" << r.to_json() << ")\n";
        return 1;
      }
      kill_landed = true;
    } else {
      // Solve finished before the kill landed: respawn the victim and try a
      // longer solve.
      std::cout << "gate 3: kill landed post-solve at t_max=" << kill_t_max
                << ", escalating\n";
      fleet[victim] = spawn_workerd(bin, fleet[victim].name + "r", trace_dir,
                                    log_dir);
      kill_t_max *= 4;
    }
  }
  if (!kill_landed) {
    std::cerr << "FAIL: could not land SIGKILL mid-solve after escalation\n";
    return 1;
  }
  std::cout << "gate 3: SIGKILLed worker detected dead mid-solve; survivors "
               "finished all rounds, coordinator returned normally\n";

  // --- Orderly shutdown (also flushes the workers' traces/logs) -----------
  {
    std::vector<Endpoint> live;
    for (const WorkerProc& w : fleet) {
      if (w.pid >= 0) live.push_back({"127.0.0.1", w.port});
    }
    ClusterOptions co;
    co.endpoints = live;
    co.connect_attempts = 2;
    ClusterCoordinator(co).shutdown_workers();
  }
  for (WorkerProc& w : fleet) reap(w);

  std::ofstream out(json_path);
  out << "{\"bench\":\"net_scaling\",\"host\":" << bench::host_json()
      << ",\"n\":" << n << ",\"cycles\":" << t_max
      << ",\"warm_solves\":" << warm_solves
      << ",\"smoke\":" << (smoke ? 1 : 0)
      << ",\"bsp_bitwise_oracle\":\"pass\",\"crash_after_recovery\":\"pass\""
      << ",\"sigkill_recovery\":\"pass\",\"setup_key_path\":\"pass\""
      << ",\"direct_links\":\"pass\""
      << ",\"runs\":[";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Measurement& m = runs[i];
    if (i) out << ",";
    out << "{\"workers\":" << m.workers << ",\"n\":" << m.n << ",\"dofs\":"
        << m.dofs << ",\"first_seconds\":" << m.first_seconds
        << ",\"first_setup_misses\":" << m.first_setup_misses
        << ",\"first_bytes_sent\":" << m.first_bytes_sent
        << ",\"warm_seconds\":" << m.warm_seconds
        << ",\"warm_round1_seconds\":" << m.warm_round1_seconds
        << ",\"us_per_round\":" << m.us_per_round
        << ",\"warm_setup_misses\":" << m.warm_setup_misses
        << ",\"final_rel_res\":" << m.final_rel_res
        << ",\"halo_frames\":" << m.halo_frames
        << ",\"frames_relayed\":" << m.frames_relayed
        << ",\"bytes_sent\":" << m.bytes_sent << ",\"bytes_received\":"
        << m.bytes_received << ",\"bytes_per_correction\":"
        << m.bytes_per_correction << "}";
  }
  out << "]}\n";
  std::cout << "wrote " << json_path << "\n";
  return 0;
}
