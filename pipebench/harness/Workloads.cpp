//===-- pipebench/harness/Workloads.cpp -----------------------------------===//

#include "Workloads.h"

#include "Inputs.h"
#include "Recorder.h"

#include "ail/Desugar.h"
#include "cabs/Parser.h"
#include "core/Lowering.h"
#include "defacto/Suite.h"
#include "elab/Elaborate.h"
#include "exec/Driver.h"
#include "exec/Pipeline.h"
#include "oracle/Oracle.h"
#include "serve/Client.h"
#include "serve/Daemon.h"
#include "support/Json.h"
#include "support/Scheduler.h"
#include "support/Subprocess.h"
#include "trace/Trace.h"
#include "typing/TypeCheck.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <thread>

using namespace pipebench;
using namespace cerb;
namespace fs = std::filesystem;

namespace {

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Nearest-rank percentile.
double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P / 100 * V.size()));
  return V[std::max<size_t>(Rank, 1) - 1];
}

/// The fastest quarter of the passes (at least one), by busy time. The
/// host's CPUs slow down to about two-thirds speed for long stretches (see
/// CpuRotation); every pass does the same work, so the fastest quarter
/// tracks full speed whenever full speed covers a quarter of the run.
std::vector<size_t> fastQuarter(const std::vector<double> &Busy) {
  std::vector<size_t> Idx(Busy.size());
  for (size_t I = 0; I < Idx.size(); ++I)
    Idx[I] = I;
  std::sort(Idx.begin(), Idx.end(),
            [&](size_t A, size_t B) { return Busy[A] < Busy[B]; });
  Idx.resize(std::max<size_t>(1, (Idx.size() + 3) / 4));
  return Idx;
}

/// Each op's fastest fifth of its latencies over the passes (at least one).
/// Every pass makes the same ops in the same order, so Lat[P][J] is op J of
/// pass P. A CPU's slow stretches come and go within a pass as well, so the
/// choice is made op by op rather than pass by pass.
struct FastOps {
  std::vector<double> Samples; ///< every op's fastest fifth, pooled
  double BusyMs = 0;           ///< sum over ops of their median in it
};

FastOps fastPerOp(const std::vector<std::vector<double>> &Lat) {
  FastOps F;
  for (size_t J = 0; !Lat.empty() && J < Lat[0].size(); ++J) {
    std::vector<double> V;
    for (const std::vector<double> &Pass : Lat)
      V.push_back(Pass[J]);
    std::sort(V.begin(), V.end());
    V.resize(std::max<size_t>(1, (V.size() + 4) / 5));
    F.BusyMs += median(V);
    F.Samples.insert(F.Samples.end(), V.begin(), V.end());
  }
  return F;
}

template <typename T>
std::vector<T> pick(const std::vector<T> &V, const std::vector<size_t> &Idx) {
  std::vector<T> Out;
  for (size_t I : Idx)
    Out.push_back(V[I]);
  return Out;
}

bool writeFile(const fs::path &P, const std::string &Text) {
  std::ofstream Out(P, std::ios::binary);
  Out << Text;
  return static_cast<bool>(Out);
}

/// What one pass measured.
struct PassOut {
  double BusyMs = 0;         ///< sum of op (serve: client call) latencies
  std::vector<double> LatMs; ///< one per op (serve: per client call)
  uint64_t Ops = 0;
  uint64_t Failed = 0;
  /// Exact pass totals the workload reads from the program's results.
  std::map<std::string, double> Exact;
  /// Timings the program reports about itself (pass totals, ms).
  std::map<std::string, double> SelfReported;

  void lap(uint64_t T0) {
    double Ms = (nowNs() - T0) / 1e6;
    LatMs.push_back(Ms);
    BusyMs += Ms;
  }

  /// trace::Registry memory-model counters around one op, read outside
  /// its clock (traced passes only).
  void memBegin(const Recorder *Rec) {
    if (Rec)
      MemBefore = trace::Registry::instance().snapshot();
  }
  void memEnd(const Recorder *Rec) {
    if (!Rec)
      return;
    trace::Registry::Snapshot D = trace::Registry::delta(
        MemBefore, trace::Registry::instance().snapshot());
    for (const char *K : {"mem.loads", "mem.stores", "mem.allocs", "mem.frees"})
      Exact[K] += D.count(K) ? D[K] : 0;
  }
  trace::Registry::Snapshot MemBefore;
};

class Workload {
public:
  explicit Workload(const Options &O) : Opt(O) {}
  virtual ~Workload() = default;

  /// Builds the inputs from the seed (part of set-up).
  virtual void generate() = 0;
  /// serve: starts the daemon (part of set-up).
  virtual bool start() { return true; }
  virtual void stop() {}
  /// Reference outputs, computed outside the set-up interval.
  virtual bool references() { return true; }
  virtual unsigned opsPerPass() const = 0;
  /// One pass over the inputs. Check compares outputs with the references
  /// after each op's clock stops; Rec (traced passes) records spans.
  virtual void pass(unsigned Idx, bool Check, Recorder *Rec, PassOut &Out) = 0;
  /// Exact IR sizes and leftmost-path steps, untimed; returns mismatches
  /// between the benchmark's staged compile and exec::compileWithStats.
  virtual uint64_t countPass(std::map<std::string, double> &Exact) {
    return 0;
  }
  /// Does the count repeat exactly on every pass? Counts that do not are
  /// reported as medians and left out of the repeat check.
  virtual bool exact(const std::string &Count) const { return true; }
  /// Divides a span's pass self time into the per-layer figure.
  virtual double spanDivisor(const std::string &Span) const {
    return opsPerPass();
  }
  virtual void corruptOneReference() = 0;
  virtual bool dump(const fs::path &Dir) = 0;

  void note(std::string S) {
    if (Notes.size() < 8)
      Notes.push_back(std::move(S));
  }
  std::vector<std::string> Notes;

protected:
  const Options &Opt;
};

//===----------------------------------------------------------------------===//
// The front end, call by call
//===----------------------------------------------------------------------===//

/// Printed Core without the ids of indet[N], which come from a process-wide
/// counter and so differ between two compiles of one source.
std::string printedCore(const core::CoreProgram &P) {
  std::string S = core::printProgram(P), Out;
  Out.reserve(S.size());
  for (size_t I = 0; I < S.size(); ++I) {
    Out += S[I];
    if (S[I] == '[' && I >= 5 && S.compare(I - 5, 5, "indet") == 0)
      while (I + 1 < S.size() && std::isdigit(static_cast<unsigned char>(S[I + 1])))
        ++I;
  }
  return Out;
}

struct Staged {
  std::optional<core::CoreProgram> Prog;
  core::LoweringStats Lowering;
  std::string Error;
  size_t CoreBytes = 0;    ///< printed Core after elaborate
  size_t LoweredBytes = 0; ///< printed Core after lower
};

/// The public calls exec::compileWithStats makes, in its order, each under
/// its own span and charged to its module. With Sizes, also prints Core
/// after elaborate and after lower (untimed count pass only).
bool compileStaged(const std::string &Src, Recorder &R, Staged &Out,
                   bool Sizes) {
  auto Unit = [&] {
    Scoped S(R, "cabs.parse", ModCabs);
    return cabs::parseTranslationUnit(Src);
  }();
  if (!Unit) {
    Out.Error = Unit.error().str();
    return false;
  }
  auto Ail = [&] {
    Scoped S(R, "ail.desugar", ModAil);
    return ail::desugar(*Unit);
  }();
  if (!Ail) {
    Out.Error = Ail.error().str();
    return false;
  }
  ExpectedVoid Typed = [&] {
    Scoped S(R, "typing.typecheck", ModTyping);
    return typing::typeCheck(*Ail);
  }();
  if (!Typed) {
    Out.Error = Typed.error().str();
    return false;
  }
  auto Prog = [&] {
    Scoped S(R, "elab.elaborate", ModElab);
    return elab::elaborate(std::move(*Ail));
  }();
  if (!Prog) {
    Out.Error = Prog.error().str();
    return false;
  }
  if (Sizes)
    Out.CoreBytes = printedCore(*Prog).size();
  {
    Scoped S(R, "core.rewrite", ModCore);
    core::rewrite(*Prog);
  }
  {
    Scoped S(R, "core.lower", ModCore);
    Out.Lowering = core::lower(*Prog);
  }
  if (Sizes)
    Out.LoweredBytes = printedCore(*Prog).size();
  std::optional<std::string> Err;
  {
    Scoped S(R, "core.typecheck", ModCore);
    Err = core::typeCheck(*Prog);
  }
  if (Err) {
    Out.Error = "Core type checking failed: " + *Err;
    return false;
  }
  {
    Scoped S(R, "core.warm", ModCore);
    core::warmDynamicsCaches(*Prog);
  }
  Out.Prog.emplace(std::move(*Prog));
  return true;
}

/// IR sizes of \p Src, and whether the staged compile prints the same Core
/// as exec::compileWithStats.
bool countIr(const std::string &Src, std::map<std::string, double> &Exact,
             std::optional<core::CoreProgram> *ProgOut = nullptr) {
  Recorder Off;
  Staged S;
  auto Ref = exec::compileWithStats(Src);
  if (!compileStaged(Src, Off, S, true) || !Ref ||
      printedCore(*S.Prog) != printedCore(Ref->Prog))
    return false;
  Exact["elab.core_bytes"] += S.CoreBytes;
  Exact["core.lowered_bytes"] += S.LoweredBytes;
  Exact["core.slots"] += S.Lowering.SlotsAssigned;
  Exact["core.pure_nodes"] += S.Lowering.PureNodes;
  if (ProgOut)
    *ProgOut = std::move(S.Prog);
  return true;
}

/// Untimed exact counts of a list of jobs: the IR sizes of each distinct
/// source and the leftmost-path steps of each job under its policy.
/// Returns the number of sources whose staged compile went wrong.
uint64_t countJobs(const std::vector<oracle::Job> &Jobs,
                   std::map<std::string, double> &Exact) {
  uint64_t Bad = 0;
  std::map<std::string_view, std::optional<core::CoreProgram>> Progs;
  for (const oracle::Job &J : Jobs) {
    auto [It, New] = Progs.try_emplace(J.Source);
    if (New && !countIr(J.Source, Exact, &It->second))
      ++Bad;
    if (!It->second)
      continue;
    LeftmostScheduler Sched;
    exec::Evaluator Eval(*It->second, Sched, J.Policy);
    Eval.run();
    Exact["exec.steps"] += Eval.steps();
  }
  return Bad;
}

/// Replays jobs layer by layer through the public calls Oracle::run makes
/// for them: the staged front end once per distinct source, then
/// exec::runExhaustive of each job. suite and serve run these layers where
/// the benchmark's spans cannot reach (inside Oracle::run, inside the
/// daemon), so their traced passes replay each op's jobs after its clock
/// stops. A fresh thread runs the replay: the evaluator's thread-local
/// scratch starts empty, so the allocation counts repeat exactly.
void replay(const std::vector<oracle::Job> &Jobs, Recorder &R, PassOut &Out,
            bool CountPaths) {
  std::thread([&] {
    std::map<std::string_view, Staged> Units;
    for (const oracle::Job &J : Jobs) {
      auto [It, New] = Units.try_emplace(J.Source);
      if (New)
        compileStaged(J.Source, R, It->second, false);
      if (!It->second.Prog)
        continue; // the op's own checks count a compile error
      exec::RunOptions RO;
      RO.Policy = J.Policy;
      RO.Limits = J.Budget.Limits;
      RO.MaxPaths = J.Budget.MaxPaths;
      exec::ExhaustiveResult Res = [&] {
        Scoped S(R, "exec.explore", ModExec);
        return exec::runExhaustive(*It->second.Prog, RO);
      }();
      if (CountPaths) {
        Out.Exact["explore.paths"] += Res.PathsExplored;
        Out.Exact["explore.replayed_choices"] += Res.Stats.ReplayedSteps;
      }
    }
  }).join();
}

//===----------------------------------------------------------------------===//
// compile
//===----------------------------------------------------------------------===//

class CompileWorkload final : public Workload {
public:
  using Workload::Workload;

  void generate() override {
    In = compileInputs(Opt.Seed);
    Verified.assign(In.size(), std::nullopt);
  }

  bool references() override {
    // csmith-lite output under the host compiler, run like
    // csmith::runOracle but with every file inside the work directory.
    for (size_t I = 0; I < In.size(); ++I) {
      if (!In[I].HostRef)
        continue;
      std::string Base = cat(Opt.WorkDir, "/ref", I);
      writeFile(Base + ".c", In[I].Source);
      std::optional<std::string> Out;
      if (captureCommand("cc -O1 -w -o '" + Base + "' '" + Base + ".c'"))
        Out = captureCommand("'" + Base + "'", /*TimeoutMs=*/10'000);
      fs::remove(Base);
      fs::remove(Base + ".c");
      if (!Out) {
        note("host cc gave no reference for " + In[I].Name);
        return false;
      }
      In[I].Expected = *Out;
    }
    return true;
  }

  unsigned opsPerPass() const override {
    return static_cast<unsigned>(In.size());
  }

  void pass(unsigned Idx, bool Check, Recorder *Rec, PassOut &Out) override {
    for (size_t I = 0; I < In.size(); ++I) {
      std::optional<core::CoreProgram> Prog;
      core::LoweringStats Lowered;
      std::string Err;
      Out.memBegin(Rec);
      if (Rec) {
        Rec->setOp(static_cast<uint32_t>(I));
        Staged S;
        uint64_t T0 = nowNs();
        {
          Scoped Op(*Rec, "op");
          compileStaged(In[I].Source, *Rec, S, false);
        }
        Out.lap(T0);
        Prog = std::move(S.Prog);
        Lowered = S.Lowering;
        Err = S.Error;
      } else {
        uint64_t T0 = nowNs();
        auto R = exec::compileWithStats(In[I].Source);
        Out.lap(T0);
        if (R) {
          Prog = std::move(R->Prog);
          Lowered = R->Lowering;
        } else {
          Err = R.error().str();
        }
      }
      Out.memEnd(Rec);
      ++Out.Ops;
      if (!Check)
        continue;
      // Each program runs once per run, untimed, against its reference;
      // later compiles of it must match that one's lowering statistics.
      std::array<unsigned, 6> Print{};
      if (Prog)
        Print = {Lowered.SlotsAssigned, Lowered.ConstFolds,
                 Lowered.LetsFlattened, Lowered.ConstsInterned,
                 Lowered.PoolSize,      Lowered.PureNodes};
      if (Prog && Verified[I] && *Verified[I] == Print)
        continue;
      std::string Got = "compile error: " + Err;
      if (Prog) {
        exec::Outcome O = exec::runOnce(*Prog, exec::RunOptions());
        Got = O.Kind == exec::OutcomeKind::Exit && O.ExitCode == 0
                  ? O.Stdout
                  : O.str();
      }
      if (Got != In[I].Expected) {
        ++Out.Failed;
        note(In[I].Name + ": got " + Got.substr(0, 80));
      } else if (!Verified[I]) {
        Verified[I] = Print;
      } else {
        ++Out.Failed;
        note(In[I].Name + ": compiled differently from its first compile");
      }
    }
  }

  uint64_t countPass(std::map<std::string, double> &Exact) override {
    uint64_t Bad = 0;
    for (const CompileInput &C : In)
      Bad += !countIr(C.Source, Exact);
    return Bad;
  }

  void corruptOneReference() override { In[0].Expected += "(wrong)"; }

  bool dump(const fs::path &Dir) override {
    bool Ok = true;
    for (size_t I = 0; I < In.size(); ++I) {
      std::string Stem = cat(I < 10 ? "0" : "", I, "-", In[I].Name);
      Ok &= writeFile(Dir / (Stem + ".c"), In[I].Source);
      Ok &= writeFile(Dir / (Stem + ".expected"), In[I].Expected);
    }
    return Ok;
  }

private:
  std::vector<CompileInput> In;
  /// Lowering statistics of each input's first verified compile.
  std::vector<std::optional<std::array<unsigned, 6>>> Verified;
};

//===----------------------------------------------------------------------===//
// explore
//===----------------------------------------------------------------------===//

class ExploreWorkload final : public Workload {
public:
  using Workload::Workload;

  void generate() override { In = exploreInputs(Opt.Seed); }

  unsigned opsPerPass() const override {
    return static_cast<unsigned>(In.size());
  }

  void pass(unsigned Idx, bool Check, Recorder *Rec, PassOut &Out) override {
    exec::RunOptions RO; // defacto policy, serial explorer
    RO.ExploreJobs = 1;
    for (size_t I = 0; I < In.size(); ++I) {
      std::optional<exec::ExhaustiveResult> Res;
      std::string Err;
      Out.memBegin(Rec);
      if (Rec) {
        Rec->setOp(static_cast<uint32_t>(I));
        Staged S;
        uint64_t T0 = nowNs();
        {
          Scoped Op(*Rec, "op");
          if (compileStaged(In[I].Source, *Rec, S, false)) {
            Scoped X(*Rec, "exec.explore", ModExec);
            Res = exec::runExhaustive(*S.Prog, RO);
          }
        }
        Out.lap(T0);
        Err = S.Error;
      } else {
        uint64_t T0 = nowNs();
        auto Prog = exec::compileWithStats(In[I].Source);
        if (Prog)
          Res = exec::runExhaustive(Prog->Prog, RO);
        Out.lap(T0);
        if (!Prog)
          Err = Prog.error().str();
      }
      Out.memEnd(Rec);
      ++Out.Ops;
      if (!Check)
        continue;
      if (!Res) {
        ++Out.Failed;
        note(In[I].Name + ": compile error: " + Err);
        continue;
      }
      Out.Exact["explore.paths"] += Res->PathsExplored;
      Out.Exact["explore.replayed_choices"] += Res->Stats.ReplayedSteps;
      std::vector<std::string> Got;
      bool AllExit = true;
      for (const exec::Outcome &O : Res->Distinct) {
        AllExit &= O.Kind == exec::OutcomeKind::Exit && O.ExitCode == 0;
        Got.push_back(O.Stdout);
      }
      std::sort(Got.begin(), Got.end());
      if (!AllExit || Res->Truncated || Res->TimedOut ||
          Res->PathsExplored != In[I].Paths || Got != In[I].Outcomes) {
        ++Out.Failed;
        note(cat(In[I].Name, ": ", Res->PathsExplored, " paths, ", Got.size(),
                 " outcomes, expected ", In[I].Paths, " and ",
                 In[I].Outcomes.size()));
      }
    }
  }

  uint64_t countPass(std::map<std::string, double> &Exact) override {
    std::vector<oracle::Job> Jobs(In.size());
    for (size_t I = 0; I < In.size(); ++I) {
      Jobs[I].Source = In[I].Source;
      Jobs[I].Policy = mem::MemoryPolicy::defacto();
    }
    return countJobs(Jobs, Exact);
  }

  void corruptOneReference() override { In[0].Outcomes[0] += "(wrong)"; }

  bool dump(const fs::path &Dir) override {
    bool Ok = true;
    for (size_t I = 0; I < In.size(); ++I) {
      std::string Stem = cat(I < 10 ? "0" : "", I, "-", In[I].Name);
      std::string Expected = cat("paths ", In[I].Paths, "\n");
      for (const std::string &O : In[I].Outcomes)
        Expected += O;
      Ok &= writeFile(Dir / (Stem + ".c"), In[I].Source);
      Ok &= writeFile(Dir / (Stem + ".expected"), Expected);
    }
    return Ok;
  }

private:
  std::vector<ExploreInput> In;
};

//===----------------------------------------------------------------------===//
// suite
//===----------------------------------------------------------------------===//

class SuiteWorkload final : public Workload {
public:
  using Workload::Workload;

  void generate() override {
    const std::vector<defacto::TestCase> &Suite = defacto::testSuite();
    Batches.clear();
    Orders = suiteOrders(Opt.Seed, static_cast<unsigned>(Suite.size()),
                         OpsPerPass);
    for (const std::vector<unsigned> &Order : Orders) {
      std::vector<defacto::TestCase> Tests;
      for (unsigned I : Order)
        Tests.push_back(Suite[I]);
      Batches.push_back(oracle::Oracle::suiteJobs(
          Tests, mem::MemoryPolicy::allPresets(), oracle::JobBudget()));
    }
  }

  unsigned opsPerPass() const override { return OpsPerPass; }

  /// Oracle::run's one worker pops jobs last-in-first-out, and a scheduler
  /// tick can still hand it the CPU while the caller is submitting, so the
  /// job order, and with it the growth of the worker's evaluation arena,
  /// depends on thread timing.
  bool exact(const std::string &Count) const override {
    return Count.rfind("oracle.alloc", 0) != 0;
  }

  void pass(unsigned Idx, bool Check, Recorder *Rec, PassOut &Out) override {
    oracle::OracleConfig Cfg;
    Cfg.Threads = 1;
    oracle::Oracle O(Cfg);
    for (size_t I = 0; I < Batches.size(); ++I) {
      oracle::BatchResult B;
      Out.memBegin(Rec);
      uint64_t T0 = nowNs();
      if (Rec) {
        Rec->setOp(static_cast<uint32_t>(I));
        Scoped Op(*Rec, "op");
        // The oracle's worker thread does the work: charge every thread.
        Scoped S(*Rec, "oracle.batch", ModOracle, /*AllThreads=*/true);
        B = O.run(Batches[I]);
      } else {
        B = O.run(Batches[I]);
      }
      Out.lap(T0);
      Out.memEnd(Rec);
      if (Rec)
        replay(Batches[I], *Rec, Out, /*CountPaths=*/false);
      ++Out.Ops;
      if (!Check)
        continue;
      const oracle::OracleStats &S = B.Stats;
      Out.Exact["explore.paths"] += S.PathsExplored;
      Out.Exact["explore.replayed_choices"] += S.ExploreReplayedSteps;
      Out.Exact["oracle.compile_hits"] += S.CacheHits;
      Out.Exact["oracle.jobs"] += S.Jobs;
      Out.SelfReported["oracle.jobs"] +=
          S.CompileTotals.totalMs() + S.RunMsTotal;
      if (S.ChecksFailed || S.Ok != S.Jobs) {
        ++Out.Failed;
        note(cat("suite batch ", I, ": ", S.ChecksFailed,
                 " expectations failed, ", S.Jobs - S.Ok, " jobs not ok"));
      }
    }
  }

  uint64_t countPass(std::map<std::string, double> &Exact) override {
    uint64_t Bad = 0;
    for (const std::vector<oracle::Job> &B : Batches)
      Bad += countJobs(B, Exact);
    return Bad;
  }

  void corruptOneReference() override {
    Batches[0][0].Expected = defacto::Expect::defined("(wrong)");
  }

  bool dump(const fs::path &Dir) override {
    // `cerb suite defacto --jobs 1` runs the same jobs; the order is here.
    const std::vector<defacto::TestCase> &Suite = defacto::testSuite();
    std::string Text;
    for (const std::vector<unsigned> &Order : Orders) {
      for (unsigned I : Order)
        Text += Suite[I].Name + " ";
      Text.back() = '\n';
    }
    return writeFile(Dir / "orders.txt", Text);
  }

private:
  /// Four 376-job batches per pass: enough work to time steadily.
  static constexpr unsigned OpsPerPass = 4;
  std::vector<std::vector<unsigned>> Orders;
  std::vector<std::vector<oracle::Job>> Batches;
};

//===----------------------------------------------------------------------===//
// serve
//===----------------------------------------------------------------------===//

class ServeWorkload final : public Workload {
public:
  using Workload::Workload;
  ~ServeWorkload() override { stop(); }

  void generate() override {
    const std::vector<defacto::TestCase> &Suite = defacto::testSuite();
    Plan = servePlan(Opt.Seed, static_cast<unsigned>(Suite.size()),
                     MemoryEntries);
    for (const ServeCall &C : Plan.Calls)
      ++Calls[C.Class];
  }

  bool start() override {
    static unsigned Instance = 0;
    std::string Tag = std::to_string(Instance++);
    CacheDir = Opt.WorkDir + "/cache" + Tag;
    serve::DaemonConfig Cfg;
    Cfg.SocketPath = Opt.WorkDir + "/d" + Tag + ".sock";
    Cfg.Threads = 1;
    Cfg.Cache.Dir = CacheDir;
    Cfg.Cache.MaxMemoryEntries = MemoryEntries;
    // The compile cache charges source bytes, not program size: at the
    // default 256 MiB it would keep every first-seen program of the run
    // (GBs of RSS). 1 MiB still holds far more than one request needs.
    Cfg.CompileCacheMb = 1;
    D = std::make_unique<serve::Daemon>(Cfg);
    if (auto S = D->start(); !S) {
      note("daemon start: " + S.error().str());
      return false;
    }
    auto C = serve::Client::connect(Cfg.SocketPath);
    if (!C) {
      note("client connect: " + C.error().str());
      return false;
    }
    Cl.emplace(std::move(*C));
    return true;
  }

  void stop() override {
    Cl.reset();
    if (D) {
      D->requestDrain();
      D->waitUntilDrained();
      D.reset();
      std::error_code EC;
      fs::remove_all(CacheDir, EC);
    }
  }

  unsigned opsPerPass() const override { return Plan.Answered; }

  double spanDivisor(const std::string &Span) const override {
    if (Span == "serve.codec") // per eval request, in microseconds
      return (Plan.Calls.size() - calls(CallClass::Batch)) / 1000.0;
    for (CallClass C : {CallClass::Cold, CallClass::Warm, CallClass::Disk,
                        CallClass::Batch})
      if (Span == std::string("serve.") + className(C))
        return calls(C);
    return opsPerPass();
  }

  void pass(unsigned Idx, bool Check, Recorder *Rec, PassOut &Out) override {
    Cold.assign(Plan.KeyTest.size(), std::string());
    serve::CacheStats Before0 = D->cache().stats();
    uint64_t Compiles0 = D->compileCache().stats().Hits;
    for (size_t J = 0; J < Plan.Calls.size(); ++J) {
      const ServeCall &Call = Plan.Calls[J];
      if (Rec)
        Rec->setOp(static_cast<uint32_t>(J));
      serve::CacheStats Before = D->cache().stats();
      Out.Ops += Call.Keys.size();
      if (Call.Class == CallClass::Batch) {
        std::vector<serve::EvalRequest> Reqs;
        for (unsigned K : Call.Keys)
          Reqs.push_back(request(Idx, K));
        Expected<serve::BatchCallResult> R = cerb::err("unsent");
        Out.memBegin(Rec);
        uint64_t T0 = nowNs();
        {
          Recorder Off;
          Recorder &Rc = Rec ? *Rec : Off;
          Scoped Op(Rc, "op");
          Scoped S(Rc, "serve.batch");
          R = Cl->callBatch(Reqs);
        }
        Out.lap(T0);
        Out.memEnd(Rec);
        if (Rec)
          replay(jobs(Idx, Call.Keys), *Rec, Out, /*CountPaths=*/true);
        if (!Check)
          continue;
        if (!R) {
          Out.Failed += Call.Keys.size();
          note("batch: " + R.error().str());
          continue;
        }
        for (size_t I = 0; I < Call.Keys.size(); ++I) {
          Cold[Call.Keys[I]] = R->Raw[I];
          Out.Failed += !replyOk(R->Responses[I], Call.Keys[I]);
        }
        Out.Failed += !tierOk(Before, Call, "batch");
        continue;
      }

      serve::EvalRequest Q = request(Idx, Call.Keys[0]);
      std::optional<std::string> Raw;
      Expected<serve::ParsedResponse> Parsed = cerb::err("unsent");
      Out.memBegin(Rec);
      uint64_t T0 = nowNs();
      {
        Recorder Off;
        Recorder &Rc = Rec ? *Rec : Off;
        Scoped Op(Rc, "op");
        std::string Frame;
        {
          Scoped S(Rc, "serve.codec");
          Frame = serve::serializeEvalRequest(Q);
        }
        Expected<std::string> R = cerb::err("unsent");
        {
          Scoped S(Rc, ClassSpan[static_cast<int>(Call.Class)]);
          R = Cl->call(Frame);
        }
        if (R) {
          Scoped S(Rc, "serve.codec");
          Parsed = serve::parseResponse(*R);
          Raw = std::move(*R);
        }
      }
      Out.lap(T0);
      Out.memEnd(Rec);
      if (Rec && Call.Class == CallClass::Cold)
        replay(jobs(Idx, Call.Keys), *Rec, Out, /*CountPaths=*/true);
      if (!Check)
        continue;
      if (!Raw || !Parsed) {
        ++Out.Failed;
        note("call failed: " + (Raw ? Parsed.error().str() : "transport"));
        continue;
      }
      unsigned Key = Call.Keys[0];
      bool Ok;
      if (Call.Class == CallClass::Cold) {
        Cold[Key] = *Raw;
        Ok = replyOk(*Parsed, Key);
      } else {
        // A repeat must replay the first reply byte for byte.
        std::string Want = Cold[Key];
        if (CorruptFirstWarm && Call.Class == CallClass::Warm) {
          Want += "(wrong)";
          CorruptFirstWarm = false;
        }
        Ok = *Raw == Want;
        if (!Ok)
          note(std::string(className(Call.Class)) + " reply differs from cold");
      }
      Ok &= tierOk(Before, Call, className(Call.Class));
      Out.Failed += !Ok;
    }
    serve::CacheStats After = D->cache().stats();
    Out.Exact["serve.cache.memory_hits"] += After.MemoryHits - Before0.MemoryHits;
    Out.Exact["serve.cache.disk_hits"] += After.DiskHits - Before0.DiskHits;
    Out.Exact["serve.cache.misses"] += After.Misses - Before0.Misses;
    Out.Exact["serve.cache.stores"] += After.Stores - Before0.Stores;
    Out.Exact["serve.compile_cache_hits"] +=
        D->compileCache().stats().Hits - Compiles0;
  }

  /// The jobs the daemon evaluates in one pass: those of every first-seen
  /// request (cold calls and batch members).
  uint64_t countPass(std::map<std::string, double> &Exact) override {
    uint64_t Bad = 0;
    for (const ServeCall &Call : Plan.Calls)
      if (Call.Class == CallClass::Cold || Call.Class == CallClass::Batch)
        Bad += countJobs(jobs(1, Call.Keys), Exact);
    return Bad;
  }

  void corruptOneReference() override { CorruptFirstWarm = true; }

  bool dump(const fs::path &Dir) override {
    // Pass 1's request stream, one frame per line, and each request's
    // source, for `cerb query --name <test> <file>` against `cerb serve`.
    const std::vector<defacto::TestCase> &Suite = defacto::testSuite();
    std::string Frames, Stream;
    bool Ok = true;
    for (size_t J = 0; J < Plan.Calls.size(); ++J) {
      const ServeCall &Call = Plan.Calls[J];
      std::vector<serve::EvalRequest> Reqs;
      Stream += className(Call.Class);
      for (unsigned K : Call.Keys) {
        Reqs.push_back(request(1, K));
        Stream += cat(" k", K);
        if (Call.Class == CallClass::Cold || Call.Class == CallClass::Batch)
          Ok &= writeFile(Dir / cat("k", K, "-", Suite[Plan.KeyTest[K]].Name,
                                    ".c"),
                          Reqs.back().Source);
      }
      Stream += "\n";
      Frames += (Call.Class == CallClass::Batch
                     ? serve::serializeBatchRequest(cat("b", J),
                                                    Reqs)
                     : serve::serializeEvalRequest(Reqs[0])) +
                "\n";
    }
    return Ok && writeFile(Dir / "requests.jsonl", Frames) &&
           writeFile(Dir / "stream.txt", Stream);
  }

private:
  /// Memory-tier entries: well under the ~190 keys one pass touches, so
  /// repeats of older keys fall through to the disk tier.
  static constexpr unsigned MemoryEntries = 16;
  static constexpr const char *ClassSpan[4] = {"serve.cold", "serve.warm",
                                               "serve.disk", "serve.batch"};

  unsigned calls(CallClass C) const {
    auto It = Calls.find(C);
    return It == Calls.end() ? 0 : It->second;
  }

  /// A first-seen request: the test's source plus a comment naming the pass
  /// and key, so both daemon caches miss while the semantics stay the same.
  /// The pass number has a fixed width, so every pass parses as many bytes.
  serve::EvalRequest request(unsigned Pass, unsigned Key) const {
    const defacto::TestCase &T = defacto::testSuite()[Plan.KeyTest[Key]];
    std::string PassTag = std::to_string(Pass);
    PassTag.insert(0, PassTag.size() < 8 ? 8 - PassTag.size() : 0, '0');
    serve::EvalRequest Q;
    Q.Id = cat("k", Key);
    Q.Name = T.Name;
    Q.Source = cat(T.Source, "\n/* pipebench seed ", Opt.Seed, " pass ",
                   PassTag, " key ", Key, " */\n");
    Q.Policies = mem::MemoryPolicy::allPresets();
    Q.ExecMode = oracle::Mode::Exhaustive;
    Q.CheckExpect = true;
    return Q;
  }

  /// The oracle jobs of first-seen requests: each source under every
  /// preset, as the daemon evaluates it.
  std::vector<oracle::Job> jobs(unsigned Pass,
                                const std::vector<unsigned> &Keys) const {
    std::vector<defacto::TestCase> Tests;
    for (unsigned K : Keys) {
      Tests.push_back(defacto::testSuite()[Plan.KeyTest[K]]);
      Tests.back().Source = request(Pass, K).Source;
    }
    return oracle::Oracle::suiteJobs(Tests, mem::MemoryPolicy::allPresets(),
                                     oracle::JobBudget());
  }

  /// Every job ok and every hand-written expectation of the test met.
  bool replyOk(const serve::ParsedResponse &R, unsigned Key) {
    const defacto::TestCase &T = defacto::testSuite()[Plan.KeyTest[Key]];
    uint64_t Expectations = 0;
    for (const mem::MemoryPolicy &P : mem::MemoryPolicy::allPresets())
      Expectations += T.Expected.count(P.Name);
    auto J = json::parse(R.Report);
    const json::Value *S = J ? J->get("stats") : nullptr;
    auto N = [&](const char *K) {
      const json::Value *V = S ? S->get(K) : nullptr;
      return V ? V->asU64() : ~uint64_t(0);
    };
    bool Ok = R.Status == "ok" && N("jobs") == 4 && N("ok") == 4 &&
              N("checks_failed") == 0 && N("checks_passed") == Expectations;
    if (!Ok)
      note(T.Name + ": reply status " + R.Status + ", " +
           std::to_string(N("checks_failed")) + " expectations failed");
    return Ok;
  }

  /// The daemon served the call from the tier the plan chose.
  bool tierOk(const serve::CacheStats &Before, const ServeCall &Call,
              const char *What) {
    serve::CacheStats A = D->cache().stats();
    uint64_t N = Call.Keys.size();
    uint64_t Mem = A.MemoryHits - Before.MemoryHits,
             Disk = A.DiskHits - Before.DiskHits,
             Miss = A.Misses - Before.Misses;
    bool Ok = Call.Class == CallClass::Warm   ? Mem == 1 && Disk + Miss == 0
              : Call.Class == CallClass::Disk ? Disk == 1 && Mem + Miss == 0
                                              : Miss == N && Mem + Disk == 0;
    if (!Ok)
      note(std::string(What) + " call served by the wrong cache tier");
    return Ok;
  }

  ServePlan Plan;
  std::map<CallClass, unsigned> Calls;
  std::unique_ptr<serve::Daemon> D;
  std::optional<serve::Client> Cl;
  std::string CacheDir;
  std::vector<std::string> Cold; ///< key -> first reply of this pass
  bool CorruptFirstWarm = false;  ///< self-check: expect wrong bytes once
};

std::unique_ptr<Workload> makeWorkload(const Options &O) {
  if (O.Workload == "compile")
    return std::make_unique<CompileWorkload>(O);
  if (O.Workload == "explore")
    return std::make_unique<ExploreWorkload>(O);
  if (O.Workload == "suite")
    return std::make_unique<SuiteWorkload>(O);
  if (O.Workload == "serve")
    return std::make_unique<ServeWorkload>(O);
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

/// Every per-layer metric and its unit, in the order BENCHMARK.json lists
/// them. A layer a workload does not run reads 0 there.
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> M = [] {
    std::vector<std::pair<std::string, std::string>> V = {
        {"cabs.parse_ms", "ms"},          {"ail.desugar_ms", "ms"},
        {"typing.typecheck_ms", "ms"},    {"elab.elaborate_ms", "ms"},
        {"core.rewrite_ms", "ms"},        {"core.lower_ms", "ms"},
        {"core.typecheck_ms", "ms"},      {"core.warm_ms", "ms"},
        {"elab.core_bytes", "B/op"},      {"core.lowered_bytes", "B/op"},
        {"core.slots", "count/op"},       {"core.pure_nodes", "count/op"},
        {"exec.explore_ms", "ms"},        {"exec.steps", "count/op"},
        {"explore.paths", "count/op"},    {"explore.replayed_choices", "count/op"},
        {"mem.loads", "count/op"},        {"mem.stores", "count/op"},
        {"mem.allocs", "count/op"},       {"mem.frees", "count/op"},
    };
    for (int Mod = 0; Mod < NumModules; ++Mod) {
      V.push_back({std::string(moduleName(Mod)) + ".allocs", "count/op"});
      V.push_back({std::string(moduleName(Mod)) + ".alloc_bytes", "B/op"});
    }
    V.insert(V.end(), {
                          {"oracle.batch_ms", "ms"},
                          {"oracle.jobs_ms", "ms"},
                          {"oracle.outside_jobs_ms", "ms"},
                          {"oracle.compile_hit_ratio", "ratio"},
                          {"serve.cold_ms", "ms"},
                          {"serve.warm_ms", "ms"},
                          {"serve.disk_ms", "ms"},
                          {"serve.batch_ms", "ms"},
                          {"serve.codec_us", "us"},
                          {"serve.cache.memory_hits", "count/op"},
                          {"serve.cache.disk_hits", "count/op"},
                          {"serve.cache.misses", "count/op"},
                          {"serve.cache.stores", "count/op"},
                          {"serve.compile_cache_hits", "count/op"},
                          {"bench.trace_overhead_pct", "%"},
                          {"bench.unattributed_ms", "ms"},
                      });
    return V;
  }();
  return M;
}

/// Pins every thread of the process to one CPU at a time. The host's CPUs
/// run at different speeds that change from one fraction of a second to
/// the next, through contention the guest cannot see. So passes rotate
/// over the CPUs the process may use, and the timings come from each op's
/// fastest fifth: a run reads full speed while some CPU runs at full speed
/// for a fifth of it.
class CpuRotation {
public:
  CpuRotation() {
    cpu_set_t S;
    if (sched_getaffinity(0, sizeof S, &S) == 0)
      for (int C = 0; C < CPU_SETSIZE; ++C)
        if (CPU_ISSET(C, &S))
          Cpus.push_back(C);
  }

  /// Moves every thread onto the I-th CPU (modulo their number); threads
  /// started later inherit it.
  void pin(unsigned I) const {
    if (Cpus.size() < 2)
      return;
    cpu_set_t S;
    CPU_ZERO(&S);
    CPU_SET(Cpus[I % Cpus.size()], &S);
    std::error_code EC;
    for (const auto &E : fs::directory_iterator("/proc/self/task", EC))
      sched_setaffinity(std::atoi(E.path().filename().c_str()), sizeof S, &S);
  }

private:
  std::vector<int> Cpus;
};

/// One set-up sample in a fresh copy of this process, timed from just
/// before it starts to the end of its cold pass.
std::optional<double> setUpInChild(const Options &O, unsigned N) {
  std::error_code EC;
  fs::path Exe = fs::read_symlink("/proc/self/exe", EC);
  if (EC)
    return std::nullopt;
  std::string Dir = cat(O.WorkDir, "/setup", N);
  std::string Cmd = cat("'", Exe.string(), "' --setup-only --workload ",
                        O.Workload, " --seed ", O.Seed,
                        " --passes 1 --work-dir '", Dir, "' --start-ns ");
  std::optional<std::string> Out =
      captureCommand(Cmd + std::to_string(nowNs()), /*TimeoutMs=*/120'000);
  fs::remove_all(Dir, EC);
  if (!Out)
    return std::nullopt;
  return std::strtod(Out->c_str(), nullptr);
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux
}

/// Exact counts of one traced pass: the program's own results, the memory
/// counters around each op and the allocator, all as pass totals.
std::map<std::string, double> exactCounts(const PassOut &P,
                                          const AllocTotals &A0,
                                          const AllocTotals &A1) {
  std::map<std::string, double> E = P.Exact;
  for (int M = 0; M < NumModules; ++M) {
    E[std::string(moduleName(M)) + ".allocs"] = A1.Allocs[M] - A0.Allocs[M];
    E[std::string(moduleName(M)) + ".alloc_bytes"] = A1.Bytes[M] - A0.Bytes[M];
  }
  return E;
}

} // namespace

bool pipebench::runWorkload(const Options &O, RunResult &Out) {
  std::unique_ptr<Workload> W = makeWorkload(O);
  if (!W) {
    Out.Notes.push_back("unknown workload " + O.Workload);
    return false;
  }
  // Every thread shares one CPU at a time (see CpuRotation). Under the
  // default policy a woken thread preempts the one that woke it: Oracle::run's
  // worker preempts the caller at each job it is handed (about four context
  // switches a job on suite), the daemon's threads the client at each call.
  // Under SCHED_BATCH the running thread goes on until it blocks. Threads
  // started later, and the set-up copies of this process, inherit it.
  sched_param Param{};
  sched_setscheduler(0, SCHED_BATCH, &Param);
  auto Fail = [&](Workload &X) {
    Out.Notes.insert(Out.Notes.end(), X.Notes.begin(), X.Notes.end());
    return false;
  };

  if (!O.DumpDir.empty()) {
    W->generate();
    if (!W->references())
      return Fail(*W);
    fs::path Dir = fs::path(O.DumpDir) / O.Workload;
    std::error_code EC;
    fs::create_directories(Dir, EC);
    return W->dump(Dir) || Fail(*W);
  }

  // Set-up: from process start, input generation (and the daemon with its
  // cache recovery) plus one untimed cold pass. Every sample is a fresh
  // process: this one, then O.Setups - 1 copies of it started between the
  // timed passes, so they meet the same host speeds the passes do.
  std::vector<double> SetupS;
  W->generate();
  if (!W->start())
    return Fail(*W);
  {
    PassOut Cold;
    W->pass(0, /*Check=*/false, nullptr, Cold);
  }
  SetupS.push_back((nowNs() - O.StartNs) / 1e9);
  if (O.SetupOnly) {
    W->stop();
    Out.Metrics = {{"setup_s", SetupS[0], "s"}};
    return true;
  }
  const CpuRotation Cpu;
  const unsigned SetupEvery = O.Passes / std::max(1u, O.Setups);
  auto MaybeSetUpAgain = [&](unsigned P) {
    if (SetupS.size() >= O.Setups || SetupEvery == 0 || P % SetupEvery)
      return true;
    Cpu.pin(static_cast<unsigned>(SetupS.size())); // the child inherits it
    std::optional<double> S =
        setUpInChild(O, static_cast<unsigned>(SetupS.size()));
    if (!S) {
      Out.Notes.push_back("set-up in a fresh process failed");
      return false;
    }
    SetupS.push_back(*S);
    return true;
  };
  if (!W->references())
    return Fail(*W);
  if (O.CorruptRef)
    W->corruptOneReference();
  // Untimed warm-up: after set-up and the reference runs the host tends to
  // run slow for a few seconds.
  for (unsigned P = 0; P < O.Passes / 10; ++P) {
    PassOut Warm;
    Cpu.pin(P);
    W->pass(O.Passes + 1 + P, /*Check=*/false, nullptr, Warm);
  }
  const double Ops = W->opsPerPass();

  if (!O.Trace) {
    std::vector<double> Busy;
    std::vector<std::vector<double>> Lat;
    for (unsigned P = 1; P <= O.Passes; ++P) {
      if (!MaybeSetUpAgain(P))
        return false;
      PassOut PO;
      Cpu.pin(P);
      W->pass(P, /*Check=*/true, nullptr, PO);
      Busy.push_back(PO.BusyMs);
      Lat.push_back(std::move(PO.LatMs));
      Out.Attempted += PO.Ops;
      Out.Failed += PO.Failed;
    }
    W->stop();
    // Timings come from each op's fastest fifth: throughput from the sum of
    // their medians, percentiles over all of them.
    FastOps Fast = fastPerOp(Lat);
    Out.Metrics = {
        {"setup_s", median(pick(SetupS, fastQuarter(SetupS))), "s"},
        {"throughput_ops_s", Ops / (Fast.BusyMs / 1e3), "ops/s"},
        {"latency_p50_ms", percentile(Fast.Samples, 50), "ms"},
        {"latency_p90_ms", percentile(Fast.Samples, 90), "ms"},
        {"peak_rss_mb", peakRssMb(), "MiB"},
    };
    Out.PassMs = Busy;
    Out.SetupS = SetupS;
    Out.Notes = W->Notes;
    return true;
  }

  // Traced run: untraced and traced passes alternate, so the overhead
  // compares neighbours; exact counts must repeat on every traced pass.
  std::map<std::string, double> Ir;
  if (uint64_t Bad = W->countPass(Ir)) {
    Out.Attempted += static_cast<uint64_t>(Ops);
    Out.Failed += Bad;
    W->note("staged compile differs from exec::compileWithStats");
  }
  Recorder Rec;
  std::vector<double> PlainBusy, TracedBusy;
  std::map<std::string, std::vector<double>> PerOp; // per traced pass
  std::optional<std::map<std::string, double>> Exact;
  std::map<std::string, std::vector<double>> Counts; // per traced pass
  for (unsigned P = 1; P <= std::max(2u, O.Passes); ++P) {
    PassOut PO;
    Cpu.pin(P / 2); // an untraced pass and the traced one after it share
    if (P % 2) {
      W->pass(P, /*Check=*/true, nullptr, PO);
      PlainBusy.push_back(PO.BusyMs);
    } else {
      AllocTotals A0 = allocTotals();
      size_t From = Rec.spans().size();
      Rec.arm(true);
      W->pass(P, /*Check=*/true, &Rec, PO);
      Rec.arm(false);
      AllocTotals A1 = allocTotals();
      TracedBusy.push_back(PO.BusyMs);
      std::map<std::string, double> E = exactCounts(PO, A0, A1);
      for (const auto &[K, N] : E) {
        Counts[K].push_back(N);
        if (!W->exact(K) && Counts[K].size() == 1)
          Out.Inexact.push_back(K);
      }
      std::erase_if(E, [&](const auto &KV) { return !W->exact(KV.first); });
      if (!Exact)
        Exact = E;
      else if (*Exact != E) {
        ++PO.Failed;
        for (const auto &[K, N] : E)
          if ((*Exact)[K] != N)
            W->note(cat("exact count ", K, " differs between traced passes: ",
                        (*Exact)[K], " then ", N));
      }
      for (const auto &[Name, Ms] : Rec.selfMs(From))
        PerOp[Name].push_back(Ms / W->spanDivisor(Name));
      for (const auto &[Name, Ms] : PO.SelfReported)
        PerOp[Name + ".self_reported"].push_back(Ms / Ops);
    }
    Out.Attempted += PO.Ops;
    Out.Failed += PO.Failed;
  }
  W->stop();
  if (!O.TraceOut.empty())
    writeFile(O.TraceOut, Rec.chromeJson());

  // Per-layer times, like the end-to-end ones, come from the fastest
  // quarter of the traced passes.
  std::vector<size_t> Fast = fastQuarter(TracedBusy);
  std::map<std::string, double> V;
  for (const auto &[Name, Series] : PerOp) {
    std::string Metric = Name == "op"                 ? "bench.unattributed"
                         : Name == "serve.codec"      ? "serve.codec"
                         : Name.ends_with(".self_reported")
                             ? Name.substr(0, Name.size() - 14)
                             : Name;
    V[Metric + (Name == "serve.codec" ? "_us" : "_ms")] =
        median(pick(Series, Fast));
  }
  for (const auto &[Name, Total] : Ir)
    V[Name] = Total / Ops;
  for (const auto &[Name, Series] : Counts)
    V[Name] = median(Series) / Ops;
  if (V.count("oracle.batch_ms"))
    V["oracle.outside_jobs_ms"] = V["oracle.batch_ms"] - V["oracle.jobs_ms"];
  if (Exact->count("oracle.jobs"))
    V["oracle.compile_hit_ratio"] =
        (*Exact)["oracle.compile_hits"] / (*Exact)["oracle.jobs"];
  V["bench.trace_overhead_pct"] =
      (median(pick(TracedBusy, Fast)) /
           median(pick(PlainBusy, fastQuarter(PlainBusy))) -
       1) *
      100;
  for (const auto &[Name, Unit] : perLayerMetrics())
    Out.Metrics.push_back({Name, V.count(Name) ? V[Name] : 0.0, Unit});
  Out.Notes = W->Notes;
  return true;
}
