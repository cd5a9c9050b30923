//===- Procs.cpp - Child processes of the benchmark -----------------------===//
//
// Part of the warpc project (PLDI 1989 parallel compilation reproduction).
//
//===----------------------------------------------------------------------===//

#include "Procs.h"

#include "Bench.h"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

extern char **environ;

using namespace warpbench;

pid_t warpbench::spawnProcess(const std::vector<std::string> &Argv,
                              const std::string &LogFile) {
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_addopen(&Actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&Actions, 1, LogFile.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&Actions, 1, 2);
  std::vector<char *> Args;
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);
  pid_t Pid = -1;
  const int RC = posix_spawn(&Pid, Args[0], &Actions, nullptr, Args.data(),
                             environ);
  posix_spawn_file_actions_destroy(&Actions);
  return RC == 0 ? Pid : -1;
}

int warpbench::waitProcess(pid_t Pid, double TimeoutSec,
                           struct rusage *Usage) {
  struct rusage Local;
  struct rusage *RU = Usage ? Usage : &Local;
  // A pidfd becomes readable when the child exits, so the wait blocks
  // without polling yet still times out.
  const int PidFd = static_cast<int>(syscall(SYS_pidfd_open, Pid, 0));
  if (PidFd >= 0) {
    pollfd P = {PidFd, POLLIN, 0};
    int RC;
    do
      RC = poll(&P, 1, static_cast<int>(TimeoutSec * 1000));
    while (RC < 0 && errno == EINTR);
    close(PidFd);
  }
  int Status = 0;
  pid_t R;
  do
    R = wait4(Pid, &Status, PidFd >= 0 ? WNOHANG : 0, RU);
  while (R < 0 && errno == EINTR);
  if (R == Pid)
    return Status;
  ::kill(Pid, SIGKILL);
  wait4(Pid, &Status, 0, RU);
  return -1;
}

double warpbench::processCpuSec(pid_t Pid) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/stat");
  std::string Stat;
  if (!std::getline(In, Stat))
    return -1;
  // Fields after the parenthesised command name; utime is field 14.
  const size_t Close = Stat.rfind(')');
  if (Close == std::string::npos)
    return -1;
  std::istringstream Fields(Stat.substr(Close + 2));
  std::string Skip;
  for (int F = 3; F != 14; ++F)
    Fields >> Skip;
  unsigned long long UTime = 0, STime = 0;
  long long CUTime = 0, CSTime = 0;
  if (!(Fields >> UTime >> STime >> CUTime >> CSTime))
    return -1;
  return static_cast<double>(UTime + STime + CUTime + CSTime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double warpbench::processPeakRssMb(pid_t Pid) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return -1;
}

std::vector<pid_t> warpbench::processesRunning(const std::string &ExePath) {
  std::vector<pid_t> Found;
  DIR *Proc = opendir("/proc");
  if (!Proc)
    return Found;
  while (dirent *E = readdir(Proc)) {
    char *End = nullptr;
    const long Pid = std::strtol(E->d_name, &End, 10);
    if (Pid <= 0 || *End)
      continue;
    char Buf[4096];
    const std::string Link = std::string("/proc/") + E->d_name + "/exe";
    const ssize_t N = readlink(Link.c_str(), Buf, sizeof(Buf) - 1);
    if (N <= 0)
      continue;
    Buf[N] = '\0';
    if (ExePath == Buf)
      Found.push_back(static_cast<pid_t>(Pid));
  }
  closedir(Proc);
  return Found;
}

Daemon::~Daemon() {
  if (Pid > 0)
    stop(5);
}

bool Daemon::start(const std::string &Warpd, const std::string &SocketPath,
                   const std::vector<std::string> &Args,
                   const std::string &LogFile, double TimeoutSec,
                   std::string &Error) {
  Socket = SocketPath;
  std::vector<std::string> Argv = {Warpd, "--socket", Socket};
  Argv.insert(Argv.end(), Args.begin(), Args.end());
  ::unlink(LogFile.c_str());
  Pid = spawnProcess(Argv, LogFile);
  if (Pid < 0) {
    Error = "cannot start " + Warpd;
    return false;
  }
  // warpd announces itself only after it installed its SIGTERM handler;
  // a drain requested before that would kill it instead.
  const Clock::time_point T0 = Clock::now();
  while (secondsSince(T0) < TimeoutSec) {
    std::ifstream Log(LogFile);
    std::string Line;
    while (std::getline(Log, Line))
      if (Line.rfind("warpd: listening on", 0) == 0)
        return true;
    int Status = 0;
    if (waitpid(Pid, &Status, WNOHANG) == Pid) {
      Pid = -1;
      Error = "warpd exited during start-up (see " + LogFile + ")";
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  Error = "warpd did not start listening";
  return false;
}

int Daemon::stop(double TimeoutSec) {
  if (Pid <= 0)
    return -1;
  ::kill(Pid, SIGTERM);
  const int Status = waitProcess(Pid, TimeoutSec);
  Pid = -1;
  return Status;
}
