//===- Replay.cpp - Layer-by-layer replay of a traced pass ----------------===//
//
// Part of the warpc project (PLDI 1989 parallel compilation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced mode's per-layer numbers. Every request of the traced pass
/// is replayed in this process through the layers' public calls, in the
/// order driver::compileModuleSequential and the engines make them, with
/// a span around each call. The replay assembles its own image, which must
/// equal the request's reference; if the driver's pass order changes, the
/// replay reports itself stale instead of timing a different pipeline.
///
/// Rows marked "alone" time a call on the same input outside the
/// pipeline (a copy of the lowered IR, or the optimized IR again), because
/// inside the driver its time cannot be separated from its caller's.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "asmout/Assembly.h"
#include "asmout/DownloadModule.h"
#include "cache/CacheKey.h"
#include "cache/CompileCache.h"
#include "codegen/CodeGen.h"
#include "codegen/ListScheduler.h"
#include "codegen/ModuloScheduler.h"
#include "codegen/RegAlloc.h"
#include "codegen/ScheduleDAG.h"
#include "driver/Compiler.h"
#include "ir/IRBuilder.h"
#include "obs/TraceContext.h"
#include "opt/Dependence.h"
#include "opt/Liveness.h"
#include "opt/LocalOpt.h"
#include "opt/LoopInfo.h"
#include "opt/ReachingDefs.h"
#include "parallel/ProcessRunner.h"
#include "support/BinaryStream.h"
#include "w2/Lexer.h"
#include "w2/Parser.h"
#include "w2/Sema.h"

#include <poll.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>

using namespace warpc;
using namespace warpbench;

double warpbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const double Pos = Q * static_cast<double>(V.size() - 1);
  const size_t Lo = static_cast<size_t>(Pos);
  const size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

namespace {

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

struct Span {
  std::string Name;
  double StartSec = 0;
  double DurSec = 0;
  uint64_t Id = 0;
  uint64_t Parent = 0;
  uint64_t RequestId = 0;
};

/// Spans of the replay, kept in memory and written once at the end. A
/// span's parent is the innermost span open when it began.
class SpanLog {
public:
  /// Replays outside any request (daemon_edit's set-up projects) are not
  /// recorded.
  bool Recording = true;
  uint64_t RequestId = 0;

  size_t open(std::string Name) {
    Span S;
    S.Name = std::move(Name);
    S.Id = Spans.size() + 1;
    S.Parent = Stack.empty() ? 0 : Spans[Stack.back()].Id;
    S.RequestId = RequestId;
    S.StartSec = secondsSince(Epoch);
    Spans.push_back(std::move(S));
    Stack.push_back(Spans.size() - 1);
    return Spans.size() - 1;
  }

  void close(size_t Index) {
    Spans[Index].DurSec = secondsSince(Epoch) - Spans[Index].StartSec;
    Stack.pop_back();
  }

  /// Self time per span name: duration minus the children's durations.
  std::map<std::string, double> selfTimes() const {
    std::map<std::string, double> Self;
    for (const Span &S : Spans)
      Self[S.Name] += S.DurSec;
    for (const Span &S : Spans)
      if (S.Parent)
        Self[Spans[S.Parent - 1].Name] -= S.DurSec;
    return Self;
  }

  /// A Chrome trace (JSON array format) Perfetto and chrome://tracing
  /// load: one complete event per span, its ids and request in args.
  bool write(const std::string &Path) const {
    std::ofstream Out(Path);
    Out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    Out << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
           "\"tid\": 1, \"args\": {\"name\": \"warpbench replay\"}}";
    char Buf[512];
    for (const Span &S : Spans) {
      std::snprintf(Buf, sizeof(Buf),
                    ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                    "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                    "\"args\": {\"id\": %llu, \"parent\": %llu, "
                    "\"request\": %llu}}",
                    S.Name.c_str(),
                    S.Name.substr(0, S.Name.find('.')).c_str(),
                    S.StartSec * 1e6, S.DurSec * 1e6,
                    static_cast<unsigned long long>(S.Id),
                    static_cast<unsigned long long>(S.Parent),
                    static_cast<unsigned long long>(S.RequestId));
      Out << Buf;
    }
    Out << "\n]}\n";
    return static_cast<bool>(Out);
  }

private:
  Clock::time_point Epoch = Clock::now();
  std::vector<Span> Spans;
  std::vector<size_t> Stack;
};

/// Times one call into a layer: a span while recording, nothing else.
class Scope {
public:
  Scope(SpanLog &Log, const char *Name)
      : Log(Log), Index(Log.Recording ? Log.open(Name) : 0) {}
  ~Scope() {
    if (Log.Recording)
      Log.close(Index);
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  SpanLog &Log;
  size_t Index;
};

//===----------------------------------------------------------------------===//
// The compile pipeline, call by call
//===----------------------------------------------------------------------===//

/// Work counts of the replayed requests.
struct Counts {
  double Tokens = 0, IRInstrs = 0, InstrsVisited = 0, ModuloAttempts = 0,
         Spills = 0, Lookups = 0, ReplayHits = 0;
  double SpawnSec = 0, RttSec = 0, Tasks = 0, FrameBytes = 0;
  std::vector<double> SpawnEach; ///< Per worker: spawn until Hello.
  double DriverSec = 0;          ///< In-process compileModuleSequential.
};

struct Replayer {
  const Options &Opts;
  SpanLog Log;
  Counts C;
  codegen::MachineModel MM = codegen::MachineModel::warpCell();
  /// daemon_edit: the replay's own cache, fed the same requests as the
  /// daemon's, so it hits and misses where the daemon did.
  std::unique_ptr<cache::CompileCache> Cache;
  std::string Stale;

  explicit Replayer(const Options &Opts) : Opts(Opts) {}

  void stale(const std::string &Why) {
    if (Stale.empty())
      Stale = Why;
  }

  /// driver::compileFunction, one layer call at a time, plus the rows
  /// timed alone. The result carries what the cache stores.
  driver::FunctionResult compileFunction(const w2::SectionDecl &Section,
                                         const w2::FunctionDecl &F) {
    Scope Fn(Log, "replay.function");
    driver::FunctionResult R;
    R.SectionName = Section.getName();
    R.FunctionName = F.getName();
    R.Metrics.SourceLines = F.lineCount();
    R.Metrics.LoopDepth = w2::maxLoopDepth(F);
    R.Metrics.LoopCount = w2::countLoops(F);
    R.Metrics.AstNodes = w2::countAstNodes(F);
    std::unique_ptr<ir::IRFunction> IRF;
    {
      Scope S(Log, "ir.lower");
      IRF = ir::lowerFunction(F);
    }
    R.Metrics.IRInstrs = IRF->instructionCount();
    C.IRInstrs += static_cast<double>(R.Metrics.IRInstrs);
    // compileFunction asserts verifyFunction after lowering and again
    // after optimization; both calls are replayed.
    {
      Scope S(Log, "ir.verify");
      if (!ir::verifyFunction(*IRF).empty())
        stale("lowered IR of " + F.getName() + " does not verify");
    }
    opt::OptStats Stats;
    {
      Scope S(Log, "opt.local");
      Stats = opt::runLocalOpt(*IRF);
    }
    C.InstrsVisited += static_cast<double>(Stats.InstrsVisited);
    {
      Scope S(Log, "ir.verify");
      if (!ir::verifyFunction(*IRF).empty())
        stale("optimized IR of " + F.getName() + " does not verify");
    }
    {
      Scope S(Log, "opt.dataflow");
      opt::LivenessInfo Live = opt::LivenessInfo::compute(*IRF);
      opt::ReachingDefsInfo Reach = opt::ReachingDefsInfo::compute(*IRF);
      R.Metrics.DataflowIterations = Live.Iterations + Reach.Iterations;
    }
    R.IRInstrsAfterOpt = IRF->instructionCount();
    codegen::MachineFunction MF;
    {
      Scope S(Log, "codegen.generate");
      MF = codegen::generateCode(*IRF, MM);
    }
    C.ModuloAttempts += static_cast<double>(MF.Metrics.ModuloSchedAttempts);
    C.Spills += MF.RA.Spills;
    {
      Scope S(Log, "asmout.assemble");
      R.Program = asmout::assembleFunction(*IRF, MF);
    }
    R.Metrics.OptVisited = Stats.InstrsVisited;
    R.Metrics.OptTransforms = Stats.totalTransforms();
    R.Metrics.ListSchedAttempts = MF.Metrics.ListSchedAttempts;
    R.Metrics.ModuloSchedAttempts = MF.Metrics.ModuloSchedAttempts;
    R.Metrics.RecMIIWork = MF.Metrics.RecMIIWork;
    R.Metrics.RegAllocWork = MF.Metrics.RegAllocWork;
    R.Metrics.CodeWords = R.Program.CodeWords;
    R.Metrics.ImageBytes = R.Program.Image.size();
    R.LoopsPipelined = MF.Metrics.LoopsPipelined;
    R.LoopsConsidered = MF.Metrics.LoopsConsidered;

    // Alone: CSE on a fresh copy of the lowered IR; the scheduler pieces
    // and the register allocator on the optimized IR.
    std::unique_ptr<ir::IRFunction> Fresh = ir::lowerFunction(F);
    {
      Scope S(Log, "opt.cse (alone)");
      opt::OptStats Ignored;
      opt::eliminateCommonSubexprs(*Fresh, Ignored);
    }
    {
      Scope S(Log, "codegen.dag_build (alone)");
      for (size_t B = 0; B != IRF->numBlocks(); ++B)
        codegen::ScheduleDAG::build(*IRF->block(static_cast<ir::BlockId>(B)),
                                    MM);
    }
    {
      Scope S(Log, "codegen.list_schedule (alone)");
      for (size_t B = 0; B != IRF->numBlocks(); ++B)
        if (!MF.PipelinedLoops.count(static_cast<ir::BlockId>(B)))
          codegen::listSchedule(*IRF->block(static_cast<ir::BlockId>(B)), MM);
    }
    opt::LoopInfo LI = opt::LoopInfo::compute(*IRF);
    std::set<ir::BlockId> Seen;
    for (const opt::Loop &L : LI.loops()) {
      if (!L.isSimpleInnerLoop() || !Seen.insert(L.bodyBlock()).second)
        continue;
      opt::LoopDeps Deps = opt::analyzeLoopDependences(*IRF, L);
      Scope S(Log, "codegen.modulo_schedule (alone)");
      codegen::moduloSchedule(*IRF, L, Deps, MM);
    }
    {
      Scope S(Log, "codegen.regalloc (alone)");
      codegen::allocateRegisters(*IRF, MM);
    }
    return R;
  }

  /// Phase 1, the cache probes, phases 2+3 for every function the program
  /// compiled, and phase 4. Returns the image's fnv1a64 (0 on failure) and
  /// the function results in \p Results.
  uint64_t compileModule(const std::string &Source,
                         std::vector<driver::FunctionResult> &Results) {
    DiagnosticEngine Diags;
    std::vector<w2::Token> Tokens;
    {
      Scope S(Log, "w2.lex");
      w2::Lexer Lexer(Source, Diags);
      Tokens = Lexer.lexAll();
      C.Tokens += static_cast<double>(Lexer.tokenCount());
    }
    std::unique_ptr<w2::ModuleDecl> Module;
    {
      Scope S(Log, "w2.parse");
      w2::Parser Parser(std::move(Tokens), Diags);
      Module = Parser.parseModule();
    }
    if (!Module || Diags.hasErrors()) {
      stale("phase 1 failed in the replay");
      return 0;
    }
    {
      Scope S(Log, "w2.sema");
      w2::Sema Sema(Diags);
      Sema.checkModule(*Module);
    }
    if (Diags.hasErrors()) {
      stale("sema failed in the replay");
      return 0;
    }

    std::vector<std::pair<const w2::SectionDecl *, const w2::FunctionDecl *>>
        Fns;
    for (size_t S = 0; S != Module->numSections(); ++S)
      for (size_t F = 0; F != Module->getSection(S)->numFunctions(); ++F)
        Fns.push_back({Module->getSection(S),
                       Module->getSection(S)->getFunction(F)});
    Results.assign(Fns.size(), driver::FunctionResult());
    std::vector<char> Have(Fns.size(), 0);
    // The engines' master-side cache pre-filter: every function is probed
    // before any compiles.
    if (Cache) {
      for (size_t I = 0; I != Fns.size(); ++I) {
        {
          Scope S(Log, "cache.key");
          cache::keyOf(cache::fingerprintFunction(*Fns[I].first,
                                                  *Fns[I].second,
                                                  Cache->context()));
        }
        std::optional<driver::FunctionResult> Hit;
        {
          Scope S(Log, "cache.lookup");
          Hit = Cache->lookup(*Fns[I].first, *Fns[I].second);
        }
        ++C.Lookups;
        if (Hit && driver::validateFunctionResult(*Fns[I].first,
                                                  *Fns[I].second, *Hit)) {
          Results[I] = std::move(*Hit);
          Have[I] = 1;
          ++C.ReplayHits;
        }
      }
    }
    for (size_t I = 0; I != Fns.size(); ++I) {
      if (Have[I])
        continue;
      Results[I] = compileFunction(*Fns[I].first, *Fns[I].second);
      if (Cache) {
        Scope S(Log, "cache.store");
        Cache->store(*Fns[I].first, *Fns[I].second, Results[I]);
      }
    }

    asmout::DownloadModule Image;
    {
      Scope S(Log, "asmout.link");
      std::vector<asmout::SectionImage> Sections;
      size_t Cursor = 0;
      for (size_t S = 0; S != Module->numSections(); ++S) {
        const w2::SectionDecl *Section = Module->getSection(S);
        std::vector<asmout::CellProgram> Programs;
        for (size_t F = 0; F != Section->numFunctions(); ++F)
          Programs.push_back(Results[Cursor++].Program);
        Sections.push_back(asmout::combineSection(
            Section->getName(), Section->getNumCells(), std::move(Programs)));
      }
      Image = asmout::linkModule(Module->getName(), std::move(Sections));
    }
    return fnv1a64(Image.Image);
  }

  /// The process engine's master side over a real warp-worker pool:
  /// spawn until Hello, Task out, Result in, shutdown. Every result must
  /// carry the program the in-process replay assembled.
  void fanOut(const std::string &Source,
              const std::vector<driver::FunctionResult> &Expected,
              const std::vector<std::pair<uint32_t, uint32_t>> &Tasks) {
    namespace wire = parallel::wire;
    const unsigned Seats =
        static_cast<unsigned>(std::min<size_t>(4, Tasks.size()));
    parallel::ProcessPool Pool(Opts.ToolsDir + "/warp-worker");
    std::vector<int> Slot(Seats, -1);
    std::vector<Clock::time_point> Sent(Seats);
    std::vector<int> Running(Seats, -1); ///< Task index per seat.
    std::vector<char> Ready(Seats, 0);
    size_t NextTask = 0, Done = 0;

    // Waits for frames from any live seat and hands each to \p OnFrame.
    auto PollOnce = [&](auto &&OnFrame) {
      std::vector<pollfd> Fds;
      std::vector<unsigned> Of;
      for (unsigned W = 0; W != Seats; ++W)
        if (Slot[W] >= 0 && Pool.alive(static_cast<unsigned>(Slot[W]))) {
          Fds.push_back({Pool.fd(static_cast<unsigned>(Slot[W])), POLLIN, 0});
          Of.push_back(W);
        }
      if (Fds.empty() || ::poll(Fds.data(), Fds.size(), 10000) <= 0)
        return false;
      for (size_t I = 0; I != Fds.size(); ++I) {
        if (!Fds[I].revents)
          continue;
        const unsigned W = Of[I];
        const unsigned S = static_cast<unsigned>(Slot[W]);
        const bool Alive = Pool.pump(S);
        wire::Frame F;
        while (Pool.decoder(S).next(F) == wire::DecodeStatus::Ready)
          OnFrame(W, F);
        if (!Alive)
          return false;
      }
      return true;
    };

    {
      Scope Spawn(Log, "parallel.spawn");
      const Clock::time_point T0 = Clock::now();
      std::vector<Clock::time_point> SpawnT0(Seats);
      for (unsigned W = 0; W != Seats; ++W) {
        wire::InitMsg Init;
        Init.WorkerIndex = W;
        Init.ModuleSource = Source;
        {
          // ProcessPool::spawn encodes the same Init again inside.
          Scope S(Log, "parallel.codec");
          wire::encodeInit(Init);
        }
        SpawnT0[W] = Clock::now();
        Slot[W] = Pool.spawn(Init);
        if (Slot[W] < 0) {
          stale("cannot spawn warp-worker");
          return;
        }
      }
      unsigned Hellos = 0;
      while (Hellos < Seats &&
             PollOnce([&](unsigned W, const wire::Frame &F) {
               wire::HelloMsg H;
               if (F.Type == wire::FrameType::Hello &&
                   wire::decodeHello(F.Payload, H) && !Ready[W]) {
                 Ready[W] = 1;
                 ++Hellos;
                 C.SpawnEach.push_back(secondsSince(SpawnT0[W]));
               }
             })) {
      }
      if (Hellos < Seats) {
        stale("a warp-worker never said Hello");
        return;
      }
      C.SpawnSec += secondsSince(T0);
    }

    Scope TasksSpan(Log, "parallel.tasks");
    auto Dispatch = [&](unsigned W) {
      if (NextTask == Tasks.size())
        return;
      wire::TaskMsg T;
      T.TaskIndex = static_cast<uint32_t>(NextTask);
      T.Section = Tasks[NextTask].first;
      T.Function = Tasks[NextTask].second;
      std::vector<uint8_t> Bytes;
      {
        Scope S(Log, "parallel.codec");
        Bytes = wire::encodeTask(T);
      }
      Running[W] = static_cast<int>(NextTask++);
      Sent[W] = Clock::now();
      Pool.send(static_cast<unsigned>(Slot[W]), wire::FrameType::Task, Bytes);
    };
    for (unsigned W = 0; W != Seats; ++W)
      Dispatch(W);
    while (Done < Tasks.size() &&
           PollOnce([&](unsigned W, const wire::Frame &F) {
             if (F.Type != wire::FrameType::Result || Running[W] < 0)
               return;
             wire::ResultMsg M;
             driver::FunctionResult R;
             bool Ok;
             {
               Scope S(Log, "parallel.codec");
               Ok = wire::decodeResult(F.Payload, M) &&
                    cache::decodeFunctionResult(M.ResultBytes, R);
             }
             C.RttSec += secondsSince(Sent[W]);
             ++C.Tasks;
             if (!Ok || R.Program.Image != Expected[Running[W]].Program.Image)
               stale("a worker's result differs from the in-process replay");
             ++Done;
             Running[W] = -1;
             Dispatch(W);
           })) {
    }
    if (Done < Tasks.size())
      stale("the worker pool lost a task");
    {
      Scope S(Log, "parallel.shutdown");
      for (unsigned W = 0; W != Seats; ++W)
        Pool.shutdown(static_cast<unsigned>(Slot[W]));
    }
    C.FrameBytes += static_cast<double>(Pool.bytesSent() + Pool.bytesReceived());
  }
};

double mean(double Sum, double N) { return N > 0 ? Sum / N : 0; }

} // namespace

LayerReport warpbench::replayPass(const Options &Opts, const Pass &Traced,
                                  const std::string &TraceFile) {
  LayerReport Rep;
  Replayer R(Opts);
  const bool Cold = Opts.Workload == "cold_large";
  const bool Fanout = Opts.Workload == "daemon_fanout";
  const bool Edit = Opts.Workload == "daemon_edit";
  if (Edit) {
    R.Cache = std::make_unique<cache::CompileCache>(
        cache::CacheMode::Memory, cache::CacheContext::forModel(R.MM));
    // The daemon compiled each project once in set-up; so does the
    // replay's cache, unrecorded.
    R.Log.Recording = false;
    std::vector<driver::FunctionResult> Ignored;
    for (int P = 0; P != 3; ++P)
      R.compileModule(Traced.Inputs[P].Source, Ignored);
    R.Log.Recording = true;
    R.C = Counts();
  }

  double LatencySec = 0, CliMinusDriverSec = 0;
  const double N = static_cast<double>(Traced.Requests.size());
  for (size_t K = 0; K != Traced.Requests.size(); ++K) {
    const Request &Req = Traced.Requests[K];
    const Input &In = Traced.Inputs[Req.InputIndex];
    LatencySec += Req.LatencySec;
    R.Log.RequestId = K + 1;
    Scope Root(R.Log, "replay.request");
    if (Cold || Fanout) {
      // Timed before the replay of the same module, which would leave the
      // process's caches warm for it.
      const Clock::time_point T0 = Clock::now();
      driver::ModuleResult M;
      {
        Scope S(R.Log, "driver.compileModuleSequential");
        M = driver::compileModuleSequential(In.Source, R.MM);
      }
      const double DriverSec = secondsSince(T0);
      R.C.DriverSec += DriverSec;
      CliMinusDriverSec += Req.LatencySec - DriverSec;
      if (!M.Succeeded || fnv1a64(M.Image.Image) != In.Reference)
        R.stale("compileModuleSequential disagrees with the reference");
    }
    std::vector<driver::FunctionResult> Results;
    const uint64_t Digest = R.compileModule(In.Source, Results);
    if (Digest != In.Reference)
      R.stale("the replayed image of " + In.Label +
              " differs from compileModuleSequential's");
    if (Fanout) {
      std::vector<std::pair<uint32_t, uint32_t>> Tasks;
      // makeTestModule's S_n modules have one section.
      for (uint32_t F = 0; F != Results.size(); ++F)
        Tasks.push_back({0, F});
      R.fanOut(In.Source, Results, Tasks);
    }
  }
  if (!R.Log.write(TraceFile))
    R.stale("cannot write " + TraceFile);

  // Per-request means of every layer's self time.
  std::map<std::string, double> Self = R.Log.selfTimes();
  auto Ms = [&](const char *Span) { return mean(Self[Span], N) * 1e3; };
  auto Put = [&](const std::string &Name, double V, const char *Unit) {
    Rep.Metrics[Name] = {V, Unit};
  };
  Put("w2.lex_ms", Ms("w2.lex"), "ms");
  Put("w2.parse_ms", Ms("w2.parse"), "ms");
  Put("w2.sema_ms", Ms("w2.sema"), "ms");
  Put("w2.tokens", mean(R.C.Tokens, N), "count");
  Put("ir.lower_ms", Ms("ir.lower"), "ms");
  Put("ir.verify_ms", Ms("ir.verify"), "ms");
  Put("ir.instrs", mean(R.C.IRInstrs, N), "count");
  Put("opt.local_ms", Ms("opt.local"), "ms");
  Put("opt.cse_ms", Ms("opt.cse (alone)"), "ms");
  Put("opt.dataflow_ms", Ms("opt.dataflow"), "ms");
  Put("opt.instrs_visited", mean(R.C.InstrsVisited, N), "count");
  Put("codegen.generate_ms", Ms("codegen.generate"), "ms");
  Put("codegen.dag_build_ms", Ms("codegen.dag_build (alone)"), "ms");
  Put("codegen.list_schedule_ms", Ms("codegen.list_schedule (alone)"), "ms");
  Put("codegen.modulo_schedule_ms", Ms("codegen.modulo_schedule (alone)"),
      "ms");
  Put("codegen.regalloc_ms", Ms("codegen.regalloc (alone)"), "ms");
  Put("codegen.modulo_attempts", mean(R.C.ModuloAttempts, N), "count");
  Put("codegen.spills", mean(R.C.Spills, N), "count");
  Put("asmout.assemble_ms", Ms("asmout.assemble"), "ms");
  Put("asmout.link_ms", Ms("asmout.link"), "ms");

  // The compile pipeline's rows, which the driver runs back to back.
  const double Pipeline =
      Ms("w2.lex") + Ms("w2.parse") + Ms("w2.sema") + Ms("ir.lower") +
      Ms("ir.verify") + Ms("opt.local") + Ms("opt.dataflow") +
      Ms("codegen.generate") + Ms("asmout.assemble") + Ms("asmout.link");
  Put("driver.unattributed_ms",
      Cold || Fanout ? mean(R.C.DriverSec, N) * 1e3 - Pipeline : 0, "ms");
  Put("tools.warpc_overhead_ms", Cold ? mean(CliMinusDriverSec, N) * 1e3 : 0,
      "ms");

  double Hits = 0, Misses = 0;
  double QueueSec = 0, ExecSec = 0, TransportSec = 0, ResultBytes = 0,
         Rejected = 0, WorkerSec = 0;
  for (const Request &Q : Traced.Requests) {
    Hits += static_cast<double>(Q.CacheHits);
    Misses += static_cast<double>(Q.CacheMisses);
    QueueSec += Q.QueueSec;
    ExecSec += Q.CompileSec;
    TransportSec += Q.LatencySec - Q.QueueSec - Q.CompileSec;
    ResultBytes += static_cast<double>(Q.ResultBytes);
    Rejected += Q.Rejected;
    obs::SpanShard Shard;
    if (!Q.Shard.empty() && obs::decodeSpanShard(Q.Shard, Shard))
      for (const obs::ShardSpan &S : Shard.Spans)
        if (S.DurSec > 0 && (S.Kind == obs::EventKind::SpanOptimize ||
                             S.Kind == obs::EventKind::SpanCodegen))
          WorkerSec += S.DurSec;
  }
  auto Counter = [&](const char *Name) {
    auto It = Traced.DaemonCounters.find(Name);
    return It == Traced.DaemonCounters.end() ? 0.0 : It->second;
  };
  Put("cache.key_ms", Ms("cache.key"), "ms");
  Put("cache.lookup_ms", Ms("cache.lookup"), "ms");
  Put("cache.store_ms", Ms("cache.store"), "ms");
  Put("cache.hit_ratio", Hits + Misses > 0 ? Hits / (Hits + Misses) : 0,
      "ratio");
  Put("cache.bytes_stored", mean(Counter("cache.bytes_stored"), N), "B");

  Put("parallel.spawn_ms", mean(R.C.SpawnSec, N) * 1e3, "ms");
  Put("parallel.task_rtt_ms", mean(R.C.RttSec, R.C.Tasks) * 1e3, "ms");
  Put("parallel.codec_ms", Ms("parallel.codec"), "ms");
  Put("parallel.frame_bytes", mean(R.C.FrameBytes, N), "B");
  Put("parallel.workers_spawned", mean(Counter("process.workers_spawned"), N),
      "count");
  Put("parallel.worker_share", ExecSec > 0 && Fanout ? WorkerSec / ExecSec : 0,
      "ratio");
  Put("parallel.retries",
      Counter("fault.retries_attempted") +
          Counter("fault.functions_reassigned") +
          Counter("fault.functions_recovered") +
          Counter("process.worker_deaths"),
      "count");

  double ConnectSec = 0;
  for (double S : Traced.ConnectSec)
    ConnectSec += S;
  Put("service.connect_ms",
      mean(ConnectSec, static_cast<double>(Traced.ConnectSec.size())) * 1e3,
      "ms");
  const bool Daemon = !Cold;
  Put("service.queue_wait_ms", Daemon ? mean(QueueSec, N) * 1e3 : 0, "ms");
  Put("service.executor_ms", Daemon ? mean(ExecSec, N) * 1e3 : 0, "ms");
  Put("service.transport_ms", Daemon ? mean(TransportSec, N) * 1e3 : 0, "ms");
  Put("service.result_bytes", mean(ResultBytes, N), "B");
  Put("service.rejected", Rejected, "count");

  // Request latency minus the named rows on its blocking path.
  double Named = 0;
  if (Cold) {
    Named = Pipeline;
  } else {
    Named = mean(QueueSec + TransportSec, N) * 1e3 + Ms("w2.lex") +
            Ms("w2.parse") + Ms("w2.sema") + Ms("asmout.link");
    if (Fanout)
      Named += Ms("parallel.spawn") + Ms("parallel.tasks") +
               Ms("parallel.codec") + Ms("parallel.shutdown");
    else
      Named += Ms("cache.key") + Ms("cache.lookup") + Ms("cache.store") +
               Ms("ir.lower") + Ms("ir.verify") + Ms("opt.local") +
               Ms("opt.dataflow") + Ms("codegen.generate") +
               Ms("asmout.assemble");
  }
  const double LatencyMs = mean(LatencySec, N) * 1e3;
  Put("unattributed_ms", LatencyMs - Named, "ms");

  // The table: every metric, then how the request's latency splits.
  char Buf[256];
  for (const auto &[Name, M] : Rep.Metrics) {
    // A time row reads exactly 0 only when its layer is not on this
    // workload's path.
    std::snprintf(Buf, sizeof(Buf), "%-30s %12.4f %s%s", Name.c_str(),
                  M.Value, M.Unit.c_str(),
                  M.Unit == "ms" && M.Value == 0 ? "  (n/a here)" : "");
    Rep.Lines.push_back(Buf);
  }
  std::snprintf(Buf, sizeof(Buf),
                "%zu requests replayed; mean latency %.4f ms = named rows "
                "%.4f ms + unattributed %.4f ms",
                Traced.Requests.size(), LatencyMs, Named, LatencyMs - Named);
  Rep.Lines.push_back(Buf);
  if (Edit) {
    std::snprintf(Buf, sizeof(Buf),
                  "cache: %.0f daemon lookups (%.0f hits); the replay's own "
                  "cache made %.0f lookups (%.0f hits)",
                  Hits + Misses, Hits, R.C.Lookups, R.C.ReplayHits);
    Rep.Lines.push_back(Buf);
  }
  if (Fanout) {
    std::snprintf(Buf, sizeof(Buf),
                  "spawn until Hello per worker: p50 %.4f ms, p95 %.4f ms "
                  "(%zu workers); worker opt+codegen %.4f ms of executor "
                  "%.4f ms per request",
                  quantile(R.C.SpawnEach, 0.5) * 1e3,
                  quantile(R.C.SpawnEach, 0.95) * 1e3, R.C.SpawnEach.size(),
                  mean(WorkerSec, N) * 1e3, mean(ExecSec, N) * 1e3);
    Rep.Lines.push_back(Buf);
  }
  Rep.Lines.push_back("rows marked (alone) in the trace are timed outside "
                      "the pipeline: opt.cse_ms, codegen.dag_build_ms, "
                      "codegen.list_schedule_ms, codegen.modulo_schedule_ms, "
                      "codegen.regalloc_ms");
  Rep.ReplayOk = R.Stale.empty();
  Rep.ReplayWhy = R.Stale;
  return Rep;
}
