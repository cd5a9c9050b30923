//===- Kernel.cpp - Host-speed calibration --------------------------------===//
//
// Part of the warpc project (PLDI 1989 parallel compilation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two probes of how fast the host runs right now, taken while the program
/// under test is idle. The kernel is a fixed unit of branchy integer work
/// over a 256 KiB table, the kind of work a compiler pass does; the spawn
/// probe starts and reaps `true`, the kind of work warpc's and the process
/// engine's process start-up does. Time metrics that drift with the host
/// are divided by their geometric mean (see README.md). The kernel's flags
/// are pinned in CMakeLists.txt, so do not change this file without
/// re-measuring HostUnitReferenceSec.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <spawn.h>
#include <sys/wait.h>

#include <cmath>

extern char **environ;

using namespace warpbench;

uint64_t warpbench::runKernel() {
  constexpr uint32_t TableSize = 1u << 16;
  static uint32_t Table[TableSize];
  for (uint32_t I = 0; I != TableSize; ++I)
    Table[I] = I * 2654435761u;
  uint64_t X = 0x9e3779b97f4a7c15ull;
  uint64_t Sum = 0;
  for (uint32_t I = 0; I != 400000; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    uint32_t &Slot = Table[X & (TableSize - 1)];
    Slot = Slot * 31 + I;
    if (Slot & 1)
      Sum += Slot;
    else
      Sum ^= X;
  }
  return Sum;
}

namespace {

double timeKernel() {
  static volatile uint64_t Sink = 0;
  const Clock::time_point T0 = Clock::now();
  Sink = Sink + runKernel();
  return secondsSince(T0);
}

/// Spawns and reaps `true`; 0 when it cannot be started.
double timeSpawn() {
  char Name[] = "true";
  char *Args[] = {Name, nullptr};
  const Clock::time_point T0 = Clock::now();
  pid_t Pid = -1;
  if (posix_spawnp(&Pid, Name, nullptr, nullptr, Args, environ) != 0)
    return 0;
  int Status = 0;
  waitpid(Pid, &Status, 0);
  return secondsSince(T0);
}

} // namespace

double warpbench::HostSample::unitSec() const {
  return SpawnSec > 0 ? std::sqrt(KernelSec * SpawnSec) : KernelSec;
}

HostSample warpbench::sampleHost() {
  HostSample S;
  S.KernelSec = timeKernel();
  S.SpawnSec = timeSpawn();
  return S;
}
