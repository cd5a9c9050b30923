//===- main.cpp - The warpc benchmark driver ------------------------------===//
//
// Part of the warpc project (PLDI 1989 parallel compilation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
///   warpbench --workload <cold_large|daemon_fanout|daemon_edit>
///             --seed <n> --seconds <s> --trace <0|1>
///             [--root <checkout>] [--write-digests]
///
/// Prints a human-readable report and, as its last line, one JSON object
/// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
/// with --trace 0, the per-layer metrics with --trace 1. Exits 1 when any
/// request failed or any check did not hold. perfbench/README.md explains
/// the workloads and metrics.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

using namespace warpbench;

namespace {

/// The scale of the normalised time metrics: a normalised value is the
/// raw one in units of the host's current speed (HostSample::unitSec),
/// times this. It is about the unit on a 4-vCPU x86-64 host at its usual
/// speed, so there a normalised value reads like the raw one.
constexpr double HostUnitReferenceSec = 1.0e-3;

struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0;
};

std::string num(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string jsonLine(bool Correct, size_t Attempted, size_t Failed,
                     const std::vector<Metric> &Metrics) {
  std::string Out = std::string("{\"correct\": ") +
                    (Correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(Attempted) +
                    ", \"failed\": " + std::to_string(Failed) +
                    ", \"metrics\": {";
  for (size_t I = 0; I != Metrics.size(); ++I)
    Out += (I ? ", \"" : "\"") + Metrics[I].Name + "\": {\"value\": " +
           num(Metrics[I].Value) + ", \"unit\": \"" + Metrics[I].Unit + "\"}";
  return Out + "}}";
}

double median(const std::vector<double> &V) { return quantile(V, 0.5); }

double rawP50Ms(const Pass &P) {
  std::vector<double> Lat;
  for (const Request &R : P.Requests)
    Lat.push_back(R.LatencySec * 1e3);
  return quantile(Lat, 0.5);
}

/// The timed window is cut into this many parts (whole passes over the
/// pool for the pool workloads). Latency quantiles and throughput are the
/// median over the parts of each part's value, so load from elsewhere on
/// the host that covers less than half the run does not move them.
constexpr size_t Parts = 5;

/// Per-part values: raw, and scaled by the kernel samples of the part.
struct PartValues {
  std::vector<double> P50, P95, Rps, RawP50, RawP95, RawRps;
};

PartValues partValues(const Pass &P, double RunUnit) {
  const size_t N = P.Requests.size();
  std::vector<size_t> Cuts = {0};
  const size_t Units = P.Cycle ? N / P.Cycle : N;
  const size_t Unit = P.Cycle ? P.Cycle : 1;
  const size_t Count = std::max<size_t>(1, std::min(Parts, Units));
  for (size_t I = 1; I < Count; ++I)
    Cuts.push_back(Units * I / Count * Unit);
  Cuts.push_back(N);
  PartValues V;
  for (size_t C = 0; C + 1 < Cuts.size(); ++C) {
    const size_t B = Cuts[C], E = Cuts[C + 1];
    if (B == E)
      continue;
    const double T0 = B ? P.Requests[B - 1].EndSec : 0;
    const double T1 = P.Requests[E - 1].EndSec;
    std::vector<double> Lat, Host;
    size_t Ok = 0;
    for (size_t I = B; I != E; ++I) {
      Lat.push_back(P.Requests[I].LatencySec * 1e3);
      Ok += !P.Requests[I].Failed;
    }
    double Busy = T1 - T0;
    for (const HostSample &S : P.Host)
      if (S.AtSec >= T0 && S.AtSec < T1) {
        Host.push_back(S.unitSec());
        Busy -= S.KernelSec + S.SpawnSec;
      }
    const double U = Host.empty() ? RunUnit : median(Host);
    const double Scale = U > 0 ? HostUnitReferenceSec / U : 1.0;
    V.RawP50.push_back(quantile(Lat, 0.50));
    V.RawP95.push_back(quantile(Lat, 0.95));
    V.RawRps.push_back(Busy > 0 ? Ok / Busy : 0);
    V.P50.push_back(V.RawP50.back() * Scale);
    V.P95.push_back(V.RawP95.back() * Scale);
    V.Rps.push_back(V.RawRps.back() / Scale);
  }
  return V;
}

/// The end-to-end metrics of one pass. Times that drift with the host are
/// divided by the host's time unit and scaled by HostUnitReferenceSec; the
/// raw value and the unit are printed beside each.
std::vector<Metric> endToEnd(const Pass &P, size_t &Failed) {
  double Bytes = 0;
  Failed = 0;
  for (const Request &R : P.Requests) {
    if (R.Failed)
      ++Failed;
    else
      Bytes += static_cast<double>(R.ImageBytes);
  }
  const size_t N = P.Requests.size();
  const size_t Ok = N - Failed;
  std::vector<double> UnitSec, KernelSec, SpawnSec;
  for (const HostSample &S : P.Host) {
    UnitSec.push_back(S.unitSec());
    KernelSec.push_back(S.KernelSec);
    SpawnSec.push_back(S.SpawnSec);
  }
  const double HostUnit = median(UnitSec);
  const double Scale = HostUnit > 0 ? HostUnitReferenceSec / HostUnit : 1.0;
  const PartValues V = partValues(P, HostUnit);
  const double Cpu = N ? P.CpuSec * 1e3 / N : 0;

  std::printf("  requests        %zu attempted, %zu failed, failed_frac %g "
              "(%zu latency samples in %zu parts)\n",
              N, Failed, N ? double(Failed) / N : 0.0, N, V.P50.size());
  std::printf("  calibration     host unit %.4f ms (median of sqrt(kernel x "
              "spawn)); kernel %.4f ms, spawn %.4f ms; %zu samples\n",
              HostUnit * 1e3, median(KernelSec) * 1e3, median(SpawnSec) * 1e3,
              UnitSec.size());
  std::vector<Metric> M = {
      {"setup_s", "s", median(P.SetupSec) * Scale},
      {"latency_p50_ms", "ms", median(V.P50)},
      {"latency_p95_ms", "ms", median(V.P95)},
      {"throughput_rps", "1/s", median(V.Rps)},
      {"cpu_ms_per_req", "ms", Cpu * Scale},
      {"peak_rss_mb", "MiB", P.PeakRssMb},
      {"image_bytes", "B", Ok ? Bytes / Ok : 0},
  };
  const double Raw[] = {median(P.SetupSec), median(V.RawP50),
                        median(V.RawP95), median(V.RawRps), Cpu};
  for (size_t I = 0; I != M.size(); ++I) {
    std::printf("  %-15s %12.4f %s", M[I].Name.c_str(), M[I].Value,
                M[I].Unit.c_str());
    if (I <= 4)
      std::printf("   (raw %.4f; host unit %.4f ms, kernel %.4f ms)", Raw[I],
                  HostUnit * 1e3, median(KernelSec) * 1e3);
    if (I == 0)
      std::printf(" median of %zu set-ups", P.SetupSec.size());
    std::printf("\n");
  }
  std::printf("  %-15s %12g ratio\n", "failed_frac",
              N ? double(Failed) / N : 0.0);
  return M;
}

void printFailures(const char *What, const Pass &P) {
  size_t Shown = 0;
  for (const Request &R : P.Requests)
    if (R.Failed && Shown++ < 5)
      std::printf("  %s request failed: %s\n", What, R.Why.c_str());
  if (!P.HygieneOk)
    std::printf("  %s: %s\n", What, P.HygieneWhy.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: warpbench --workload <cold_large|daemon_fanout|"
               "daemon_edit> --seed <n> --seconds <s> --trace <0|1>\n"
               "                 [--root <dir>] [--write-digests]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  Opts.ToolsDir = WARPBENCH_TOOLS_DIR;
  Opts.Root = std::filesystem::current_path().string();
  for (int I = 1; I < Argc; ++I) {
    const std::string A = Argv[I];
    const bool HasValue = I + 1 < Argc;
    if (A == "--workload" && HasValue)
      Opts.Workload = Argv[++I];
    else if (A == "--seed" && HasValue)
      Opts.Seed = std::strtoull(Argv[++I], nullptr, 10);
    else if (A == "--seconds" && HasValue)
      Opts.Seconds = std::atof(Argv[++I]);
    else if (A == "--trace" && HasValue)
      Opts.Trace = std::atoi(Argv[++I]) != 0;
    else if (A == "--root" && HasValue)
      Opts.Root = Argv[++I];
    else if (A == "--write-digests")
      Opts.WriteDigests = true;
    else
      return usage();
  }
  if (Opts.Workload != "cold_large" && Opts.Workload != "daemon_fanout" &&
      Opts.Workload != "daemon_edit")
    return usage();
  if (Opts.Seconds <= 0)
    return usage();

  // Module files, images, sockets and logs live in a private directory
  // beside the binary; relative socket paths keep sun_path short wherever
  // the checkout is.
  const std::string WorkDir =
      std::filesystem::read_symlink("/proc/self/exe").parent_path().string() +
      "/run";
  const std::string Private = WorkDir + "/" + std::to_string(getpid());
  std::error_code EC;
  std::filesystem::create_directories(Private, EC);
  if (EC || chdir(Private.c_str()) != 0) {
    std::fprintf(stderr, "warpbench: cannot use %s\n", Private.c_str());
    return 2;
  }

  std::printf("warpbench %s  seed %llu  %g s  trace %d\n",
              Opts.Workload.c_str(),
              static_cast<unsigned long long>(Opts.Seed), Opts.Seconds,
              Opts.Trace ? 1 : 0);
  std::vector<Input> Inputs = makeInputs(Opts.Workload, Opts.Seed);
  computeReferences(Inputs, 4);
  bool Correct = true;
  std::string DigestError;
  for (const Input &In : Inputs)
    if (!In.HaveReference) {
      Correct = false;
      DigestError = "the reference compile of " + In.Label + " failed";
    }

  // A traced run measures two passes, untraced and traced, half the time
  // each, so it takes about as long as an untraced run plus the replay.
  Options PassOpts = Opts;
  if (Opts.Trace)
    PassOpts.Seconds = Opts.Seconds / 2;
  Pass Untraced = runPass(PassOpts, Inputs, nullptr, false);
  verifyPass(Untraced);
  if (!checkDigests(Opts, Untraced.Inputs, DigestError))
    Correct = false;
  std::printf("end to end (untraced):\n");
  size_t Failed = 0;
  std::vector<Metric> E2E = endToEnd(Untraced, Failed);
  size_t Attempted = Untraced.Requests.size();
  Correct = Correct && Untraced.HygieneOk && Failed == 0;
  printFailures("untraced", Untraced);

  std::vector<Metric> Out = E2E;
  if (Opts.Trace) {
    std::vector<Request> Sequence = Untraced.Requests;
    Pass Traced = runPass(PassOpts, std::move(Untraced.Inputs), &Sequence,
                          /*Traced=*/true);
    verifyPass(Traced);
    std::printf("end to end (traced, same requests):\n");
    size_t TracedFailed = 0;
    endToEnd(Traced, TracedFailed);
    // Raw medians: tracing's cost, not the host's speed, is the question.
    const double UntracedP50 = rawP50Ms(Untraced), TracedP50 = rawP50Ms(Traced);
    printFailures("traced", Traced);
    Attempted += Traced.Requests.size();
    Failed += TracedFailed;
    Correct = Correct && Traced.HygieneOk && TracedFailed == 0;

    const std::string TraceFile = WorkDir + "/trace-" + Opts.Workload + "-" +
                                  std::to_string(Opts.Seed) + ".json";
    LayerReport L = replayPass(Opts, Traced, TraceFile);
    L.Metrics["obs.trace_overhead_pct"] = {
        UntracedP50 > 0 ? 100.0 * (TracedP50 - UntracedP50) / UntracedP50 : 0,
        "%"};
    std::printf("per layer (traced replay; trace written to %s):\n",
                TraceFile.c_str());
    for (const std::string &Line : L.Lines)
      std::printf("  %s\n", Line.c_str());
    std::printf("  %-30s %12.4f %%  (traced p50 %.4f ms, untraced %.4f ms)\n",
                "obs.trace_overhead_pct",
                L.Metrics["obs.trace_overhead_pct"].Value, TracedP50,
                UntracedP50);
    if (!L.ReplayOk) {
      std::printf("  replay check: STALE: %s\n", L.ReplayWhy.c_str());
      Correct = false;
    } else {
      std::printf("  replay check: every replayed image equals "
                  "compileModuleSequential's\n");
    }
    Out.clear();
    for (const auto &[Name, M] : L.Metrics)
      Out.push_back({Name, M.Unit, M.Value});
  }

  if (!DigestError.empty())
    std::printf("  digest check: %s\n", DigestError.c_str());
  else if (Opts.Seed == DigestSeed)
    std::printf("  digest check: reference images match digests.txt\n");

  // Leave the private directory only when everything held, so a failure
  // keeps its logs.
  if (Correct && chdir(WorkDir.c_str()) == 0) {
    std::filesystem::remove_all(Private, EC);
  } else {
    std::printf("  logs kept in %s\n", Private.c_str());
  }
  std::printf("%s\n", jsonLine(Correct, Attempted, Failed, Out).c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
