#pragma once
// A fleet of asyncmg_workerd processes on ephemeral loopback ports. The
// fleet owns its children: shutdown() ends them with a kShutdown frame and
// reaps them; the destructor SIGKILLs and reaps whatever is still running,
// so no worker outlives the benchmark on any exit path.

#include <sys/types.h>

#include <string>
#include <vector>

#include "net/cluster.hpp"

namespace perfbench {

class WorkerFleet {
 public:
  /// Spawns `count` workers from `binary`; their stderr goes to
  /// <log_dir>/<name>.log. Throws std::runtime_error when a worker does not
  /// announce its port within 10 s.
  WorkerFleet(const std::string& binary, std::size_t count,
              const std::string& log_dir);
  ~WorkerFleet();

  WorkerFleet(const WorkerFleet&) = delete;
  WorkerFleet& operator=(const WorkerFleet&) = delete;

  std::vector<asyncmg::Endpoint> endpoints() const;

  /// Asks every worker to exit, waits up to 5 s, then kills the rest.
  void shutdown();

 private:
  struct Proc {
    pid_t pid = -1;
    unsigned short port = 0;
  };
  void kill_all();

  std::vector<Proc> procs_;
};

}  // namespace perfbench
