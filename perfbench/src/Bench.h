//===- Bench.h - Shared types of the warpc benchmark driver -----*- C++ -*-===//
//
// Part of the warpc project (PLDI 1989 parallel compilation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark drives the real warpc and warpd binaries through seeded
/// closed-loop workloads (Workloads.cpp), checks every image against an
/// in-process reference compile (Inputs.cpp), and in traced mode replays
/// each request through the layers' public calls (Replay.cpp). See
/// perfbench/README.md for the workloads and metrics.
///
//===----------------------------------------------------------------------===//

#ifndef WARPBENCH_BENCH_H
#define WARPBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace warpbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Directory holding warpc, warpd and warp-worker.
  std::string ToolsDir;
  /// Checkout root; perfbench/digests.txt lives under it.
  std::string Root;
  /// Rewrite perfbench/digests.txt from this run's reference images.
  bool WriteDigests = false;
};

/// The seed the digest list in perfbench/digests.txt was recorded for.
inline constexpr uint64_t DigestSeed = 1;

/// One module a workload sends. The reference digest is fnv1a64 of the
/// image the benchmark's own in-process driver::compileModuleSequential
/// produces, which does not depend on any engine, cache or service under
/// test.
struct Input {
  std::string Label;
  std::string Source;
  uint64_t Reference = 0;
  bool HaveReference = false;
};

/// The inputs a workload starts from, built from the seed: the module
/// pools of cold_large and daemon_fanout, or daemon_edit's three
/// projects (its edits are appended while it runs).
std::vector<Input> makeInputs(const std::string &Workload, uint64_t Seed);

/// daemon_edit: the project's functions and the module they make.
std::vector<std::string> editProjectFunctions(uint64_t Seed, int Project);
std::string editProjectSource(const std::vector<std::string> &Functions);

/// Fills in the reference of every input that lacks one, on up to
/// \p Threads threads. An input that does not compile keeps none.
void computeReferences(std::vector<Input> &Inputs, unsigned Threads);

/// Compares the references of the inputs named in perfbench/digests.txt
/// with the recorded digests (only for DigestSeed), or rewrites this
/// workload's lines. False on a mismatch, described in \p Error.
bool checkDigests(const Options &Opts, const std::vector<Input> &Inputs,
                  std::string &Error);

/// One timed request as the client saw it.
struct Request {
  size_t InputIndex = 0; ///< Into the workload's input list.
  int Client = 0;
  double EndSec = 0;     ///< Completion, in seconds into the timed window.
  double LatencySec = 0;
  double CpuSec = 0;     ///< warpc only: user+sys of the reaped child.
  double MaxRssMb = 0;   ///< warpc only: ru_maxrss of the reaped child.
  uint64_t ImageBytes = 0;
  uint64_t ImageDigest = 0;
  bool Failed = false;
  std::string Why;       ///< Failure reason.
  // Daemon replies only.
  double QueueSec = 0;
  double CompileSec = 0;
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  uint64_t ResultBytes = 0;
  bool Rejected = false;
  std::vector<uint8_t> Shard;
};

/// One host-speed calibration sample (Kernel.cpp).
struct HostSample {
  double AtSec = 0;     ///< When it was taken; negative before the window.
  double KernelSec = 0; ///< The pinned compute kernel.
  double SpawnSec = 0;  ///< Spawning and reaping `true` (0 if impossible).
  /// The host's time unit: the geometric mean of the two probes.
  double unitSec() const;
};

/// Takes one sample (AtSec is left for the caller).
HostSample sampleHost();

/// Everything one pass over a workload (untraced or traced) measured.
struct Pass {
  std::vector<Input> Inputs; ///< Indexed by Request::InputIndex.
  std::vector<Request> Requests;
  std::vector<double> SetupSec;   ///< One per set-up repetition.
  std::vector<double> ConnectSec; ///< Client::connect of the kept set-up.
  /// Host-speed samples, timed from the start of the timed window.
  std::vector<HostSample> Host;
  /// Requests per pass over the input pool (0 for daemon_edit's stream);
  /// pool workloads always send whole passes.
  size_t Cycle = 0;
  double WallSec = 0;             ///< Timed window, kernel samples excluded.
  double CpuSec = 0;              ///< Program CPU over the timed window.
  double PeakRssMb = 0;
  /// Daemon hygiene: exit status, surviving workers, stats tally.
  bool HygieneOk = true;
  std::string HygieneWhy;
  /// The daemon's --stats-json counters (traced pass only).
  std::map<std::string, double> DaemonCounters;
};

/// Runs one pass of \p Opts.Workload over \p Inputs. With \p Sequence
/// null, the seed and the clock choose the requests; otherwise the pass
/// sends exactly \p Sequence's requests, per client in order, as the
/// traced pass does with the untraced pass's. \p Traced sets a nonzero
/// TraceId on every daemon request.
Pass runPass(const Options &Opts, std::vector<Input> Inputs,
             const std::vector<Request> *Sequence, bool Traced);

/// Marks every request whose image differs from its input's reference as
/// failed, computing the references daemon_edit's stream still lacks.
void verifyPass(Pass &P);

/// One per-layer number and its unit.
struct LayerMetric {
  double Value = 0;
  std::string Unit;
};

/// Per-layer numbers of a traced pass, keyed by metric name.
struct LayerReport {
  std::map<std::string, LayerMetric> Metrics;
  std::vector<std::string> Lines; ///< Human-readable table.
  bool ReplayOk = true;
  std::string ReplayWhy;
};

/// Replays every request of \p Traced in this process through the layers'
/// public calls, writes the spans to \p TraceFile as a Chrome trace, and
/// derives the per-layer metrics (all but obs.trace_overhead_pct, which
/// compares two passes).
LayerReport replayPass(const Options &Opts, const Pass &Traced,
                       const std::string &TraceFile);

/// Quantile \p Q of \p V (linear interpolation; 0 when empty).
double quantile(std::vector<double> V, double Q);

/// The pinned calibration kernel (Kernel.cpp): one fixed unit of integer
/// and memory work. Returns a checksum so the work cannot be elided.
uint64_t runKernel();

} // namespace warpbench

#endif // WARPBENCH_BENCH_H
