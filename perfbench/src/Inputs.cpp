//===- Inputs.cpp - Seeded modules and their reference images -------------===//
//
// Part of the warpc project (PLDI 1989 parallel compilation reproduction).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "codegen/MachineModel.h"
#include "driver/Compiler.h"
#include "support/BinaryStream.h"
#include "support/PRNG.h"
#include "w2/ASTPrinter.h"
#include "workload/Generator.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>

using namespace warpc;
using namespace warpbench;

namespace {

/// Shuffles \p V with the seed's PRNG (Fisher-Yates).
template <typename T> void shuffle(std::vector<T> &V, PRNG &Rng) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[Rng.below(I)]);
}

/// The benchmark's own memo of per-function driver results. The
/// generated functions never call each other, so a function's result
/// depends only on its text, its line and its section; the key holds all
/// three. It lets daemon_edit's references, which differ from the
/// previous request in one function, compile that one function. It is not
/// the cache under test: cache::CompileCache is never involved.
class FunctionMemo : public driver::FunctionResultCache {
public:
  std::optional<driver::FunctionResult>
  lookup(const w2::SectionDecl &Section, const w2::FunctionDecl &F) override {
    const std::string K = key(Section, F);
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Map.find(K);
    if (It == Map.end())
      return std::nullopt;
    return It->second;
  }

  void store(const w2::SectionDecl &Section, const w2::FunctionDecl &F,
             const driver::FunctionResult &R) override {
    const std::string K = key(Section, F);
    std::lock_guard<std::mutex> Lock(Mu);
    Map.emplace(K, R);
  }

private:
  static std::string key(const w2::SectionDecl &Section,
                         const w2::FunctionDecl &F) {
    return Section.getName() + "/" + std::to_string(Section.getNumCells()) +
           "/" + std::to_string(F.getLoc().Line) + "\n" +
           w2::printFunction(F);
  }

  std::mutex Mu;
  std::unordered_map<std::string, driver::FunctionResult> Map;
};

std::string hex64(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016" PRIx64, V);
  return Buf;
}

} // namespace

std::vector<Input> warpbench::makeInputs(const std::string &Workload,
                                         uint64_t Seed) {
  PRNG Rng(Seed * 0x9e3779b97f4a7c15ull + 0x51ed);
  std::vector<Input> Pool;
  auto Add = [&](std::string Label, std::string Source) {
    Input In;
    In.Label = std::move(Label);
    In.Source = std::move(Source);
    Pool.push_back(std::move(In));
  };
  if (Workload == "cold_large") {
    // Every S_n (n = 1..4) of f_large and f_huge plus the user program,
    // four times each: the seed draws the function bodies and the order,
    // never the mix, so every seed asks the compiler for the same kind of
    // work, and four draws per kind keep one unlucky body from setting
    // the tail.
    for (int Copy = 0; Copy != 4; ++Copy) {
      const std::string Suffix = "-" + std::to_string(Copy);
      for (workload::FunctionSize Size :
           {workload::FunctionSize::Large, workload::FunctionSize::Huge})
        for (unsigned N = 1; N <= 4; ++N)
          Add("s" + std::to_string(N) + "_" +
                  std::string(workload::sizeName(Size)).substr(2) + Suffix,
              workload::makeTestModule(Size, N, Rng.next()));
      Add("user" + Suffix, workload::makeUserProgram(Rng.next()));
    }
    shuffle(Pool, Rng);
  } else if (Workload == "daemon_fanout") {
    // S_8 .. S_32 of f_tiny, once each.
    for (unsigned N = 8; N <= 32; ++N)
      Add("s" + std::to_string(N) + "_tiny",
          workload::makeTestModule(workload::FunctionSize::Tiny, N,
                                   Rng.next()));
    shuffle(Pool, Rng);
  } else if (Workload == "daemon_edit") {
    for (int P = 0; P != 3; ++P)
      Add("p" + std::to_string(P),
          editProjectSource(editProjectFunctions(Seed, P)));
  }
  return Pool;
}

std::vector<std::string> warpbench::editProjectFunctions(uint64_t Seed,
                                                         int Project) {
  PRNG Rng(Seed * 0xbf58476d1ce4e5b9ull + static_cast<uint64_t>(Project));
  std::vector<std::string> Functions;
  for (int F = 0; F != 8; ++F)
    Functions.push_back(workload::generateFunction(
        workload::FunctionSize::Medium, "f" + std::to_string(F + 1),
        Rng.next()));
  return Functions;
}

std::string
warpbench::editProjectSource(const std::vector<std::string> &Functions) {
  // The same layout as workload::makeTestModule's S_8 module.
  std::string Out = "module s8_medium;\nsection main cells 10 {\n";
  for (const std::string &F : Functions)
    Out += F;
  return Out + "}\n";
}

void warpbench::computeReferences(std::vector<Input> &Inputs,
                                  unsigned Threads) {
  FunctionMemo Memo;
  const codegen::MachineModel MM = codegen::MachineModel::warpCell();
  std::atomic<size_t> Next{0};
  auto Work = [&] {
    for (size_t I = Next++; I < Inputs.size(); I = Next++) {
      Input &In = Inputs[I];
      if (In.HaveReference)
        continue;
      driver::ModuleResult R =
          driver::compileModuleSequential(In.Source, MM, nullptr, &Memo);
      if (R.Succeeded) {
        In.Reference = fnv1a64(R.Image.Image);
        In.HaveReference = true;
      }
    }
  };
  std::vector<std::thread> Pool;
  for (unsigned T = 1; T < Threads; ++T)
    Pool.emplace_back(Work);
  Work();
  for (std::thread &T : Pool)
    T.join();
}

bool warpbench::checkDigests(const Options &Opts,
                             const std::vector<Input> &Inputs,
                             std::string &Error) {
  const std::string Path = Opts.Root + "/perfbench/digests.txt";
  // daemon_edit's stream is as long as the clock allows; its first edits
  // per client are the same on every run and stand for the rest.
  auto Recorded = [](const Input &I) {
    const size_t Dot = I.Label.find('.');
    return Dot == std::string::npos ||
           std::stoul(I.Label.substr(Dot + 1)) < 16;
  };
  if (Opts.WriteDigests) {
    // Keep the other workloads' lines, replace this workload's.
    std::vector<std::string> Kept;
    {
      std::ifstream Old(Path);
      std::string Line;
      while (std::getline(Old, Line))
        if (Line.rfind("#", 0) != 0 && Line.rfind(Opts.Workload + " ", 0) != 0)
          Kept.push_back(Line);
    }
    for (const Input &I : Inputs)
      if (Recorded(I))
        Kept.push_back(Opts.Workload + " " + I.Label + " " +
                       hex64(I.Reference));
    std::sort(Kept.begin(), Kept.end());
    std::ofstream Out(Path);
    Out << "# fnv1a64 of the reference image of the inputs seed "
        << DigestSeed << " builds:\n# <workload> <input> <digest>\n";
    for (const std::string &L : Kept)
      Out << L << "\n";
    return static_cast<bool>(Out);
  }
  if (Opts.Seed != DigestSeed)
    return true;
  std::ifstream File(Path);
  if (!File) {
    Error = "cannot read " + Path;
    return false;
  }
  std::unordered_map<std::string, std::string> Want;
  std::string Line;
  while (std::getline(File, Line)) {
    std::istringstream Fields(Line);
    std::string W, Label, Digest;
    if (Line.rfind("#", 0) == 0 || !(Fields >> W >> Label >> Digest))
      continue;
    if (W == Opts.Workload)
      Want[Label] = Digest;
  }
  size_t Checked = 0;
  for (const Input &I : Inputs) {
    auto It = Want.find(I.Label);
    if (It == Want.end())
      continue;
    ++Checked;
    if (It->second != hex64(I.Reference)) {
      Error = "reference image of " + I.Label +
              " differs from the digest recorded in " + Path;
      return false;
    }
  }
  if (Checked == 0) {
    Error = Path + " lists no input of this run";
    return false;
  }
  return true;
}
