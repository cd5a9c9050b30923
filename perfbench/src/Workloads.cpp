//===- Workloads.cpp - The closed-loop workloads --------------------------===//
//
// Part of the warpc project (PLDI 1989 parallel compilation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every workload is a closed loop: a client sends its next request only
/// after the reply. cold_large runs `warpc <module> -o <img>` one request
/// at a time; the daemon workloads start their own warpd on a private
/// socket and talk to it only through service::Client, the wire protocol
/// `warpc --server` speaks.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Procs.h"

#include "service/Client.h"
#include "support/BinaryStream.h"
#include "support/Json.h"
#include "support/PRNG.h"
#include "workload/Generator.h"

#include <sys/wait.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

using namespace warpc;
using namespace warpbench;

namespace {

/// Set-up runs this many times per pass; setup_s is their median and the
/// last one serves the timed requests.
constexpr int SetupRepeats = 21;
constexpr double RequestTimeoutSec = 60;
/// Single-client loops sample the host's speed between requests this
/// often (the program is idle then); sampling is not part of the timed
/// window. Every workload also samples a burst before and after it.
constexpr double CalibrationPeriodSec = 0.25;
constexpr int CalibrationBurst = 5;
/// The daemon's memory cache grows with every request it serves, so its
/// peak RSS is read after this many timed requests (or at the end of a
/// shorter pass): the same work on every run, however fast it went.
constexpr size_t RssAfterRequests = 1000;

std::string tool(const Options &Opts, const char *Name) {
  return Opts.ToolsDir + "/" + Name;
}

void writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary);
  Out << Text;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  Out = Buf.str();
  return true;
}

/// Samples the host's speed between requests at a fixed period, while
/// the program is idle; total() is what the timed window must not count.
class Calibrator {
public:
  void burst() {
    for (int I = 0; I != CalibrationBurst; ++I)
      sample();
  }

  void maybeSample() {
    if (secondsSince(Last) < CalibrationPeriodSec)
      return;
    const Clock::time_point T0 = Clock::now();
    sample();
    Spent += secondsSince(T0);
    Last = Clock::now();
  }

  double total() const { return Spent; }

  /// Hands the samples to \p P, timed from the window's \p Start.
  void finish(Pass &P, Clock::time_point Start) const {
    for (const auto &[At, S] : Samples) {
      P.Host.push_back(S);
      P.Host.back().AtSec =
          std::chrono::duration<double>(At - Start).count();
    }
  }

private:
  void sample() {
    const Clock::time_point At = Clock::now();
    Samples.push_back({At, sampleHost()});
  }

  std::vector<std::pair<Clock::time_point, HostSample>> Samples;
  Clock::time_point Last = Clock::now();
  double Spent = 0;
};

/// Picks the next request of a single-client loop: input K mod the pool,
/// or the recorded sequence's next entry. A pass sends whole passes over
/// the pool, so every run asks for the same mix. False when it is over.
struct Pacer {
  const std::vector<Request> *Sequence;
  double Seconds;
  size_t PoolSize;
  Clock::time_point Start;

  bool next(size_t K, size_t &Index) const {
    if (Sequence) {
      if (K >= Sequence->size())
        return false;
      Index = (*Sequence)[K].InputIndex;
      return true;
    }
    if (K % PoolSize == 0 && secondsSince(Start) >= Seconds)
      return false;
    Index = K % PoolSize;
    return true;
  }
};

//===----------------------------------------------------------------------===//
// cold_large: warpc <module> -o <img>
//===----------------------------------------------------------------------===//

Request runWarpc(const Options &Opts, size_t Index) {
  Request R;
  R.InputIndex = Index;
  const std::string Module = "m" + std::to_string(Index) + ".w2";
  const std::string Image = "out.img";
  ::unlink(Image.c_str());
  struct rusage Usage = {};
  const Clock::time_point T0 = Clock::now();
  const pid_t Pid =
      spawnProcess({tool(Opts, "warpc"), Module, "-o", Image}, "warpc.log");
  const int Status = Pid > 0 ? waitProcess(Pid, RequestTimeoutSec, &Usage) : -1;
  R.LatencySec = secondsSince(T0);
  R.CpuSec = Usage.ru_utime.tv_sec + Usage.ru_utime.tv_usec * 1e-6 +
             Usage.ru_stime.tv_sec + Usage.ru_stime.tv_usec * 1e-6;
  R.MaxRssMb = static_cast<double>(Usage.ru_maxrss) / 1024.0;
  std::string Bytes;
  if (Status < 0 || !WIFEXITED(Status) || WEXITSTATUS(Status) != 0) {
    R.Failed = true;
    R.Why = Status < 0 ? "warpc timed out or did not start"
                       : "warpc exited with status " + std::to_string(Status);
  } else if (!readFile(Image, Bytes)) {
    R.Failed = true;
    R.Why = "warpc wrote no image";
  } else {
    R.ImageBytes = Bytes.size();
    R.ImageDigest = fnv1a64(reinterpret_cast<const uint8_t *>(Bytes.data()),
                            Bytes.size());
  }
  return R;
}

Pass runColdLarge(const Options &Opts, std::vector<Input> Inputs,
                  const std::vector<Request> *Sequence) {
  Pass P;
  for (size_t I = 0; I != Inputs.size(); ++I)
    writeFile("m" + std::to_string(I) + ".w2", Inputs[I].Source);
  P.Inputs = std::move(Inputs);

  // Set-up is the warm-up compile: it pulls the binary and its libraries
  // into the page cache, which every later request then finds there. It
  // compiles the smallest module, whatever the seed.
  size_t Smallest = 0;
  for (size_t I = 0; I != P.Inputs.size(); ++I)
    if (P.Inputs[I].Source.size() < P.Inputs[Smallest].Source.size())
      Smallest = I;
  for (int S = 0; S != SetupRepeats; ++S) {
    const Clock::time_point T0 = Clock::now();
    Request Warm = runWarpc(Opts, Smallest);
    P.SetupSec.push_back(secondsSince(T0));
    if (Warm.Failed) {
      P.HygieneOk = false;
      P.HygieneWhy = "warm-up compile failed: " + Warm.Why;
    }
  }

  P.Cycle = P.Inputs.size();
  Calibrator Cal;
  Cal.burst();
  const Pacer Pace{Sequence, Opts.Seconds, P.Inputs.size(), Clock::now()};
  size_t Index = 0;
  for (size_t K = 0; Pace.next(K, Index); ++K) {
    P.Requests.push_back(runWarpc(Opts, Index));
    P.Requests.back().EndSec = secondsSince(Pace.Start);
    P.CpuSec += P.Requests.back().CpuSec;
    P.PeakRssMb = std::max(P.PeakRssMb, P.Requests.back().MaxRssMb);
    Cal.maybeSample();
  }
  P.WallSec = secondsSince(Pace.Start) - Cal.total();
  Cal.burst();
  Cal.finish(P, Pace.Start);
  return P;
}

//===----------------------------------------------------------------------===//
// The daemon workloads
//===----------------------------------------------------------------------===//

struct DaemonShape {
  std::vector<std::string> Args;
  int Clients = 1;
  bool Edits = false;
};

DaemonShape shapeOf(const std::string &Workload) {
  if (Workload == "daemon_fanout")
    return {{"--engine", "process", "--workers", "4", "--inflight", "1",
             "--cache", "off"},
            1,
            false};
  return {{"--engine", "thread", "--workers", "2", "--inflight", "2",
           "--cache", "memory"},
          3,
          true};
}

/// One client connection's view of a request: submit, await, record.
Request sendRequest(service::Client &C, uint64_t Id, size_t Index,
                    const std::string &Source, bool Traced) {
  Request R;
  R.InputIndex = Index;
  service::wire::CompileRequestMsg Msg;
  Msg.RequestId = Id;
  Msg.ModuleSource = Source;
  if (Traced)
    Msg.TraceId = 0x7e57000000000000ull | Id;
  service::RequestOutcome Out;
  std::string Error;
  const Clock::time_point T0 = Clock::now();
  const bool Ok = C.compile(Msg, Out, Error, RequestTimeoutSec);
  R.LatencySec = secondsSince(T0);
  if (!Ok) {
    R.Failed = true;
    R.Why = Error;
    return R;
  }
  if (!Out.Accepted) {
    R.Failed = true;
    R.Rejected = true;
    R.Why = "rejected: " + Out.Reject.Detail;
    return R;
  }
  const service::wire::CompileResultMsg &Res = Out.Result;
  R.QueueSec = Res.QueueSec;
  R.CompileSec = Res.CompileSec;
  R.CacheHits = Res.CacheHits;
  R.CacheMisses = Res.CacheMisses;
  if (Res.Status != static_cast<uint8_t>(service::wire::ResultStatus::Ok)) {
    R.Failed = true;
    R.Why = "status " + std::to_string(Res.Status) + ": " + Res.DiagText;
    return R;
  }
  R.ImageBytes = Res.Image.size();
  R.ImageDigest = fnv1a64(Res.Image);
  if (Traced) {
    R.ResultBytes = service::wire::encodeCompileResult(Res).size();
    R.Shard = Res.ShardBytes;
  }
  return R;
}

/// A started warpd with its connected clients.
struct Service {
  Daemon D;
  std::vector<std::unique_ptr<service::Client>> Clients;
  uint64_t Sent = 0;
  uint64_t Rejected = 0;
};

/// Drains \p S with SIGTERM and checks the daemon's hygiene: the stats
/// tally matches the client's, warpd exits 0, and no warp-worker
/// survives it.
void teardown(const Options &Opts, Service &S, Pass &P) {
  auto Fail = [&P](const std::string &Why) {
    if (P.HygieneOk)
      P.HygieneWhy = Why;
    P.HygieneOk = false;
  };
  service::wire::ServerStatsMsg Stats;
  std::string Error;
  if (S.Clients.empty() || !S.Clients[0]->serverStats(Stats, Error))
    Fail("no ServerStats from warpd: " + Error);
  else if (Stats.Accepted != S.Sent - S.Rejected ||
           Stats.Completed != S.Sent - S.Rejected ||
           Stats.Rejected != S.Rejected)
    Fail("ServerStats accepted/completed/rejected " +
         std::to_string(Stats.Accepted) + "/" +
         std::to_string(Stats.Completed) + "/" +
         std::to_string(Stats.Rejected) + " but the clients sent " +
         std::to_string(S.Sent) + " and saw " + std::to_string(S.Rejected) +
         " rejected");
  S.Clients.clear();
  const int Status = S.D.stop();
  if (Status < 0 || !WIFEXITED(Status) || WEXITSTATUS(Status) != 0)
    Fail("warpd did not drain to exit 0 (status " + std::to_string(Status) +
         ")");
  const std::vector<pid_t> Left =
      processesRunning(tool(Opts, "warp-worker"));
  if (!Left.empty())
    Fail(std::to_string(Left.size()) + " warp-worker process(es) survived");
}

/// Launches warpd and connects the clients; daemon_edit also compiles
/// each client's project once. Returns false with the reason in \p P.
bool setupService(const Options &Opts, const DaemonShape &Shape,
                  const std::vector<Input> &Inputs, int Rep, bool Traced,
                  Service &S, Pass &P) {
  std::vector<std::string> Args = Shape.Args;
  if (Traced) {
    Args.push_back("--stats-json");
    Args.push_back("stats" + std::to_string(Rep) + ".json");
  }
  std::string Error;
  const std::string Name = "d" + std::to_string(Rep);
  if (!S.D.start(tool(Opts, "warpd"), Name + ".sock", Args, Name + ".log", 30,
                 Error)) {
    P.HygieneOk = false;
    P.HygieneWhy = Error;
    return false;
  }
  P.ConnectSec.clear();
  for (int C = 0; C != Shape.Clients; ++C) {
    auto Client = std::make_unique<service::Client>();
    const Clock::time_point T0 = Clock::now();
    if (!Client->connect(S.D.socket(), Error)) {
      P.HygieneOk = false;
      P.HygieneWhy = Error;
      return false;
    }
    P.ConnectSec.push_back(secondsSince(T0));
    S.Clients.push_back(std::move(Client));
  }
  if (Shape.Edits) {
    // The three cold project compiles, concurrently, one per client.
    for (int C = 0; C != Shape.Clients; ++C) {
      service::wire::CompileRequestMsg Msg;
      Msg.RequestId = 1;
      Msg.ModuleSource = Inputs[C].Source;
      if (!S.Clients[C]->submit(Msg, Error))
        break;
      ++S.Sent;
    }
    for (int C = 0; C != Shape.Clients; ++C) {
      service::RequestOutcome Out;
      if (!S.Clients[C]->await(1, Out, Error, RequestTimeoutSec) ||
          !Out.Accepted || Out.Result.Status != 0 ||
          fnv1a64(Out.Result.Image) != Inputs[C].Reference) {
        P.HygieneOk = false;
        P.HygieneWhy = "project compile failed in set-up: " + Error;
        return false;
      }
    }
  }
  return true;
}

Pass runDaemon(const Options &Opts, std::vector<Input> Inputs,
               const std::vector<Request> *Sequence, bool Traced) {
  const DaemonShape Shape = shapeOf(Opts.Workload);
  Pass P;
  P.Inputs = std::move(Inputs);

  std::unique_ptr<Service> S;
  for (int Rep = 0; Rep != SetupRepeats; ++Rep) {
    if (S)
      teardown(Opts, *S, P);
    S = std::make_unique<Service>();
    const Clock::time_point T0 = Clock::now();
    if (!setupService(Opts, Shape, P.Inputs, Rep, Traced, *S, P))
      return P;
    P.SetupSec.push_back(secondsSince(T0));
  }

  if (!Shape.Edits)
    P.Cycle = P.Inputs.size();
  Calibrator Cal;
  Cal.burst();
  const double Cpu0 = processCpuSec(S->D.pid());
  std::mutex Mu; // Guards P.Inputs, P.Requests and the tallies.
  const Clock::time_point Start = Clock::now();
  auto ClientLoop = [&](int C) {
    service::Client &Conn = *S->Clients[C];
    // daemon_edit: this client's project, edited one function per request.
    std::vector<std::string> Functions;
    PRNG Rng(Opts.Seed * 0x94d049bb133111ebull + static_cast<uint64_t>(C));
    if (Shape.Edits)
      Functions = editProjectFunctions(Opts.Seed, C);
    std::vector<size_t> Mine;
    if (Sequence)
      for (const Request &R : *Sequence)
        if (R.Client == C)
          Mine.push_back(R.InputIndex);
    for (size_t K = 0;; ++K) {
      size_t Index = 0;
      std::string Source;
      if (Sequence) {
        if (K >= Mine.size())
          break;
        Index = Mine[K];
        std::lock_guard<std::mutex> Lock(Mu);
        Source = P.Inputs[Index].Source;
      } else {
        if (secondsSince(Start) >= Opts.Seconds &&
            (Shape.Edits || K % P.Inputs.size() == 0))
          break;
        if (Shape.Edits) {
          const size_t Slot = Rng.below(Functions.size());
          Functions[Slot] = workload::generateFunction(
              workload::FunctionSize::Medium, "f" + std::to_string(Slot + 1),
              Rng.next());
          Input In;
          In.Label = "c" + std::to_string(C) + "." + std::to_string(K);
          In.Source = editProjectSource(Functions);
          Source = In.Source;
          std::lock_guard<std::mutex> Lock(Mu);
          Index = P.Inputs.size();
          P.Inputs.push_back(std::move(In));
        } else {
          Index = K % P.Inputs.size();
          Source = P.Inputs[Index].Source;
        }
      }
      Request R = sendRequest(Conn, 100 + K, Index, Source, Traced);
      R.EndSec = secondsSince(Start);
      R.Client = C;
      {
        std::lock_guard<std::mutex> Lock(Mu);
        ++S->Sent;
        S->Rejected += R.Rejected;
        P.Requests.push_back(std::move(R));
        if (P.Requests.size() == RssAfterRequests)
          P.PeakRssMb = processPeakRssMb(S->D.pid());
      }
      if (Shape.Clients == 1)
        Cal.maybeSample();
    }
  };
  std::vector<std::thread> Threads;
  for (int C = 1; C < Shape.Clients; ++C)
    Threads.emplace_back(ClientLoop, C);
  ClientLoop(0);
  for (std::thread &T : Threads)
    T.join();
  P.WallSec = secondsSince(Start) - Cal.total();
  P.CpuSec = processCpuSec(S->D.pid()) - Cpu0;
  if (P.Requests.size() < RssAfterRequests)
    P.PeakRssMb = processPeakRssMb(S->D.pid());
  Cal.burst();
  Cal.finish(P, Start);

  teardown(Opts, *S, P);
  if (Traced) {
    std::string Text, Error;
    readFile("stats" + std::to_string(SetupRepeats - 1) + ".json", Text);
    json::Value Root = json::parse(Text, Error);
    if (Root.isObject() && Root.has("metrics") &&
        Root.get("metrics").has("counters"))
      for (const auto &[Name, V] : Root.get("metrics").get("counters").members())
        if (V.isNumber())
          P.DaemonCounters[Name] = V.number();
  }
  return P;
}

} // namespace

Pass warpbench::runPass(const Options &Opts, std::vector<Input> Inputs,
                        const std::vector<Request> *Sequence, bool Traced) {
  if (Opts.Workload == "cold_large")
    return runColdLarge(Opts, std::move(Inputs), Sequence);
  return runDaemon(Opts, std::move(Inputs), Sequence, Traced);
}

void warpbench::verifyPass(Pass &P) {
  computeReferences(P.Inputs, 4);
  for (Request &R : P.Requests) {
    if (R.Failed)
      continue;
    const Input &In = P.Inputs[R.InputIndex];
    if (!In.HaveReference) {
      R.Failed = true;
      R.Why = "the reference compile of " + In.Label + " failed";
    } else if (R.ImageDigest != In.Reference) {
      R.Failed = true;
      R.Why = "image of " + In.Label + " differs from the reference";
    }
  }
}
