#include "fleet.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

/// fork/exec one worker with --port 0 and read its "LISTENING <port>" line.
/// Returns pid and port (port 0 on failure; the child is then killed).
std::pair<pid_t, unsigned short> spawn_one(const std::string& binary,
                                           const std::string& name,
                                           const std::string& log_dir) {
  int out[2];
  if (pipe(out) != 0) throw std::runtime_error("pipe failed");
  const std::string log = log_dir + "/" + name + ".log";
  const pid_t pid = fork();
  if (pid < 0) {
    close(out[0]);
    close(out[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    dup2(out[1], STDOUT_FILENO);
    close(out[0]);
    close(out[1]);
    const int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      dup2(fd, STDERR_FILENO);
      close(fd);
    }
    std::string bin = binary, port_flag = "--port", zero = "0",
                name_flag = "--name", nm = name;
    char* argv[] = {bin.data(), port_flag.data(), zero.data(),
                    name_flag.data(), nm.data(), nullptr};
    execv(bin.c_str(), argv);
    _exit(127);
  }
  close(out[1]);
  std::string line;
  char c = 0;
  while (true) {
    pollfd pfd{out[0], POLLIN, 0};
    if (poll(&pfd, 1, 10000) <= 0) break;
    if (read(out[0], &c, 1) <= 0 || c == '\n') break;
    line.push_back(c);
  }
  close(out[0]);
  unsigned short port = 0;
  if (line.rfind("LISTENING ", 0) == 0) {
    try {
      port = static_cast<unsigned short>(std::stoi(line.substr(10)));
    } catch (const std::exception&) {
      port = 0;  // malformed announcement: the caller kills the child
    }
  }
  return {pid, port};
}

}  // namespace

WorkerFleet::WorkerFleet(const std::string& binary, std::size_t count,
                         const std::string& log_dir) {
  // The destructor does not run when the constructor throws, so reap the
  // workers spawned so far before leaving.
  try {
    for (std::size_t i = 0; i < count; ++i) {
      const auto [pid, port] =
          spawn_one(binary, "worker" + std::to_string(i), log_dir);
      procs_.push_back({pid, port});
      if (port == 0) {
        throw std::runtime_error(
            "asyncmg_workerd did not announce a port: " + binary);
      }
    }
  } catch (...) {
    kill_all();
    throw;
  }
}

WorkerFleet::~WorkerFleet() { kill_all(); }

std::vector<asyncmg::Endpoint> WorkerFleet::endpoints() const {
  std::vector<asyncmg::Endpoint> e;
  for (const Proc& p : procs_) e.push_back({"127.0.0.1", p.port});
  return e;
}

void WorkerFleet::shutdown() {
  {
    asyncmg::ClusterOptions co;
    co.endpoints = endpoints();
    co.connect_attempts = 2;
    try {
      asyncmg::ClusterCoordinator(co).shutdown_workers();
    } catch (...) {
      // Unreachable workers are killed below.
    }
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (Proc& p : procs_) {
    while (p.pid >= 0) {
      int status = 0;
      if (waitpid(p.pid, &status, WNOHANG) == p.pid) {
        p.pid = -1;
      } else if (std::chrono::steady_clock::now() > deadline) {
        break;
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
  }
  kill_all();
}

void WorkerFleet::kill_all() {
  for (Proc& p : procs_) {
    if (p.pid < 0) continue;
    kill(p.pid, SIGKILL);
    int status = 0;
    waitpid(p.pid, &status, 0);
    p.pid = -1;
  }
}

}  // namespace perfbench
