//===- Procs.h - Child processes of the benchmark ---------------*- C++ -*-===//
//
// Part of the warpc project (PLDI 1989 parallel compilation reproduction).
//
//===----------------------------------------------------------------------===//

#ifndef WARPBENCH_PROCS_H
#define WARPBENCH_PROCS_H

#include <sys/resource.h>
#include <sys/types.h>

#include <string>
#include <vector>

namespace warpbench {

/// Starts \p Argv[0] with stdin from /dev/null and stdout/stderr appended
/// to \p LogFile. Returns the pid, or -1.
pid_t spawnProcess(const std::vector<std::string> &Argv,
                   const std::string &LogFile);

/// Waits for \p Pid (at most \p TimeoutSec, then SIGKILL). Returns the
/// wait status, or -1 when the child had to be killed. \p Usage, when
/// non-null, receives the child's resource usage.
int waitProcess(pid_t Pid, double TimeoutSec, struct rusage *Usage = nullptr);

/// utime + stime + cutime + cstime of \p Pid from /proc/<pid>/stat, in
/// seconds; negative when unreadable.
double processCpuSec(pid_t Pid);

/// VmHWM of \p Pid in MiB; negative when unreadable.
double processPeakRssMb(pid_t Pid);

/// Pids of live processes whose executable is \p ExePath.
std::vector<pid_t> processesRunning(const std::string &ExePath);

/// A warpd started by the benchmark on a private socket.
class Daemon {
public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Launches warpd with \p Args after --socket and waits until a
  /// connect succeeds (at most \p TimeoutSec).
  bool start(const std::string &Warpd, const std::string &Socket,
             const std::vector<std::string> &Args, const std::string &LogFile,
             double TimeoutSec, std::string &Error);

  /// SIGTERM drain; returns the exit status (-1 when it had to be killed).
  int stop(double TimeoutSec = 60);

  pid_t pid() const { return Pid; }
  const std::string &socket() const { return Socket; }

private:
  pid_t Pid = -1;
  std::string Socket;
};

} // namespace warpbench

#endif // WARPBENCH_PROCS_H
