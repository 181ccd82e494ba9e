//===-- tools/cerb_main.cpp - The cerb batch test-oracle CLI --------------===//
///
/// \file
/// The executable entry point of the repository: drives the oracle
/// subsystem from the command line.
///
///   cerb run file.c --policy defacto
///   cerb suite defacto --policies defacto,strict,concrete,cheri --jobs 8
///        --report out.json --junit out.xml
///   cerb suite tests/defacto            (a directory of .c files)
///   cerb export-suite tests/defacto     (materialise the built-in suite)
///   cerb policies
///
//===----------------------------------------------------------------------===//

#include "defacto/Suite.h"
#include "fuzz/Campaign.h"
#include "oracle/Oracle.h"
#include "oracle/Report.h"
#include "serve/Client.h"
#include "serve/Daemon.h"
#include "support/FaultInjector.h"
#include "support/ThreadPool.h"
#include "trace/Trace.h"

#include <csignal>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <string>
#include <vector>

using namespace cerb;
using namespace cerb::oracle;

namespace {

int usage(const char *Prog) {
  std::fprintf(stderr,
               "usage: %s <command> [options]\n"
               "\n"
               "commands:\n"
               "  run <file.c>           compile and run one C file\n"
               "  suite <dir|defacto>    run every .c file in a directory, or\n"
               "                         the built-in de facto semantic suite\n"
               "  fuzz                   differential fuzzing campaign with\n"
               "                         automatic reduction and triage\n"
               "  reduce <file.c>        ddmin-minimize a divergent C file\n"
               "  export-suite <dir>     write the built-in suite as .c files\n"
               "  policies               list the memory-model policy presets\n"
               "  serve                  run the persistent evaluation daemon\n"
               "                         (cerbd) until SIGTERM/SIGINT drains "
               "it\n"
               "  query [file.c]         send one request to a running "
               "daemon\n"
               "\n"
               "options:\n"
               "  --policy NAME          one policy (repeatable)\n"
               "  --policies a,b,c       comma-separated policies\n"
               "                         (default: defacto for run, all "
               "presets for suite)\n"
               "  --mode MODE            once | random | exhaustive "
               "(default: exhaustive)\n"
               "  --seed N               random-mode / fallback-sampling seed\n"
               "  --jobs N               worker threads (default: hardware "
               "concurrency)\n"
               "  --explore-jobs N       workers per exhaustive exploration "
               "(subtree\n"
               "                         work-sharing; default: --jobs for "
               "run, 1 for\n"
               "                         suite, where batch parallelism "
               "dominates)\n"
               "  --max-paths N          exhaustive path budget (default: "
               "512)\n"
               "  --max-steps N          per-path step budget\n"
               "  --deadline-ms N        per-job wall-clock deadline\n"
               "  --fallback-samples N   random paths sampled after a path-"
               "budget trip\n"
               "  --report FILE          write a JSON report\n"
               "  --junit FILE           write a JUnit XML report\n"
               "  --trace FILE           write a Chrome trace-event profile\n"
               "                         (load in chrome://tracing/Perfetto)\n"
               "  --no-timings           omit wall-clock fields from reports\n"
               "                         (byte-identical across --jobs)\n"
               "  --quiet                only print the final summary\n"
               "\n"
               "fuzz / reduce options:\n"
               "  --seeds A..B|N         campaign seed range (default 1..100)\n"
               "  --size N               generated-program size knob\n"
               "  --no-reduce            skip ddmin reduction of divergences\n"
               "  --reduce-tests N       reduction oracle-test budget "
               "(default 256)\n"
               "  --reduce-deadline-ms N wall-clock backstop per reduction\n"
               "  --corpus DIR           persist minimized reproducers here\n"
               "  --resume FILE          adopt finished seeds from a previous\n"
               "                         fuzz report\n"
               "  --timings              include wall-clock fields in the "
               "fuzz\n"
               "                         report (off by default: reports are\n"
               "                         byte-identical across --jobs)\n"
               "  -o FILE                (reduce) write the minimized program\n"
               "\n"
               "serve / query options:\n"
               "  --socket PATH          unix-domain socket (serve default:\n"
               "                         ./cerbd.sock)\n"
               "  --tcp-port N           also/instead listen on 127.0.0.1:N\n"
               "                         (0 = kernel-assigned)\n"
               "  --cache-dir DIR        persistent result cache (serve; "
               "omit\n"
               "                         for a memory-only cache)\n"
               "  --max-queue N          admission bound on queued+running "
               "evals\n"
               "                         (serve; default 256)\n"
               "  --mem-cache N          in-memory result-cache entries "
               "(serve;\n"
               "                         default 1024)\n"
               "  --compile-cache-mb N   serve: LRU byte budget of the "
               "daemon-\n"
               "                         resident compile cache, charged "
               "the\n"
               "                         heap each compiled program holds\n"
               "                         (default 256; 0 = unbounded, "
               "charged\n"
               "                         source bytes only)\n"
               "  --server ADDR          suite: evaluate on a running "
               "daemon\n"
               "                         over one pipelined batch (unix "
               "socket\n"
               "                         path, or tcp:PORT for loopback "
               "TCP)\n"
               "  --pipeline-depth N     suite --server: requests per batch\n"
               "                         frame (0 = whole batch, the "
               "default)\n"
               "  --max-conns N          serve: cap concurrent connections\n"
               "                         (0 = unlimited, the default)\n"
               "  --idle-timeout-ms N    serve: reap connections idle this "
               "long\n"
               "                         (0 = never, the default)\n"
               "  --read-timeout-ms N    serve: a started frame must finish\n"
               "                         within N ms (0 = forever, default)\n"
               "  --retries N            query: total attempts with backoff\n"
               "                         on transient failure (default 1)\n"
               "  --retry-deadline-ms N  query: give up retrying after N ms\n"
               "  --call-timeout-ms N    query: per-call socket timeout\n"
               "  --faults SPEC          arm the fault injector (testing);\n"
               "                         same grammar as CERB_FAULTS, e.g.\n"
               "                         seed=42;socket.read,p=0.05,"
               "errno=ECONNRESET\n"
               "  --op NAME              query op: eval | ping | stats | "
               "shutdown\n"
               "                         (default: eval)\n"
               "  --name NAME            query display name (default: file "
               "stem)\n"
               "  --no-cache             query: bypass the daemon's result-"
               "cache\n"
               "                         read (it still stores the result)\n",
               Prog);
  return 2;
}

struct Options {
  std::vector<std::string> PolicyNames;
  Mode ExecMode = Mode::Exhaustive;
  uint64_t Seed = 1;
  unsigned Jobs = 0;
  unsigned ExploreJobs = 0; ///< 0 = auto (run: --jobs; suite: 1)
  JobBudget Budget;
  std::string ReportPath;
  std::string JUnitPath;
  std::string TracePath;
  bool IncludeTimings = true;
  bool Quiet = false;

  // fuzz / reduce
  uint64_t FirstSeed = 1, LastSeed = 100;
  unsigned GenSize = 12;
  bool Reduce = true;
  fuzz::ReduceOptions Reduction;
  std::string CorpusDir;
  std::string ResumePath;
  std::string OutputPath;
  bool FuzzTimings = false;

  // serve / query
  std::string SocketPath;
  int TcpPort = -1;
  std::string CacheDir;
  uint64_t MaxQueue = 256;
  uint64_t MemCache = 1024;
  uint64_t MaxConns = 0;
  uint64_t IdleTimeoutMs = 0;
  uint64_t ReadTimeoutMs = 0;
  uint64_t CompileCacheMb = 256;
  std::string ServerAddr;        ///< suite: run on this daemon instead
  unsigned PipelineDepth = 0;    ///< suite --server: requests per frame
  std::string QueryOp = "eval";
  std::string QueryName;
  bool NoCache = false;
  unsigned QueryRetries = 1;
  uint64_t RetryDeadlineMs = 0;
  uint64_t CallTimeoutMs = 0;
  std::string FaultsSpec;
};

void splitCommas(const std::string &S, std::vector<std::string> &Out) {
  size_t Pos = 0;
  while (Pos <= S.size()) {
    size_t Comma = S.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = S.size();
    if (Comma > Pos)
      Out.push_back(S.substr(Pos, Comma - Pos));
    Pos = Comma + 1;
  }
}

/// Reads all of \p Text as a count for \p Flag: decimal digits only (no
/// sign, base prefix, space or trailing text), at most \p Max. Otherwise
/// prints a diagnostic and returns nullopt, which is a usage error.
std::optional<uint64_t> parseCount(const char *Flag, const std::string &Text,
                                   uint64_t Max) {
  uint64_t N = 0;
  const char *End = Text.data() + Text.size();
  auto [Stop, Ec] = std::from_chars(Text.data(), End, N);
  if (Ec != std::errc() || Stop != End || N > Max) {
    std::fprintf(stderr, "cerb: %s needs a whole number from 0 to %llu, "
                         "not '%s'\n",
                 Flag, static_cast<unsigned long long>(Max), Text.c_str());
    return std::nullopt;
  }
  return N;
}

/// Port numbers (`--tcp-port`, `--server tcp:PORT`).
constexpr uint64_t MaxPort = 65535;

/// Parses flags from argv[From..]; returns the positional arguments, or
/// nullopt on a malformed/unknown flag (after printing a diagnostic).
std::optional<std::vector<std::string>> parseArgs(int Argc, char **Argv,
                                                  int From, Options &O) {
  std::vector<std::string> Positional;
  for (int I = From; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&](const char *Flag) -> std::optional<std::string> {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "cerb: %s requires a value\n", Flag);
        return std::nullopt;
      }
      return std::string(Argv[++I]);
    };
    // A numeric flag's value, checked whole against \p Max and the range
    // of the field it sets.
    auto Count = [&](auto &Field,
                     uint64_t Max = std::numeric_limits<uint64_t>::max()) {
      using T = std::remove_reference_t<decltype(Field)>;
      auto V = Value(A.c_str());
      auto N = V ? parseCount(A.c_str(), *V,
                              std::min<uint64_t>(
                                  Max, std::numeric_limits<T>::max()))
                 : std::nullopt;
      if (N)
        Field = static_cast<T>(*N);
      return N.has_value();
    };
    if (A == "--policy" || A == "--policies") {
      auto V = Value(A.c_str());
      if (!V)
        return std::nullopt;
      splitCommas(*V, O.PolicyNames);
    } else if (A == "--mode") {
      auto V = Value("--mode");
      if (!V)
        return std::nullopt;
      auto M = modeByName(*V);
      if (!M) {
        std::fprintf(stderr, "cerb: unknown mode '%s'\n", V->c_str());
        return std::nullopt;
      }
      O.ExecMode = *M;
    } else if (A == "--seed") {
      if (!Count(O.Seed))
        return std::nullopt;
    } else if (A == "--jobs") {
      if (!Count(O.Jobs))
        return std::nullopt;
    } else if (A == "--explore-jobs") {
      if (!Count(O.ExploreJobs))
        return std::nullopt;
    } else if (A == "--max-paths") {
      if (!Count(O.Budget.MaxPaths))
        return std::nullopt;
    } else if (A == "--max-steps") {
      if (!Count(O.Budget.Limits.MaxSteps))
        return std::nullopt;
    } else if (A == "--deadline-ms") {
      if (!Count(O.Budget.DeadlineMs))
        return std::nullopt;
    } else if (A == "--fallback-samples") {
      if (!Count(O.Budget.FallbackSamples))
        return std::nullopt;
    } else if (A == "--report") {
      auto V = Value("--report");
      if (!V)
        return std::nullopt;
      O.ReportPath = *V;
    } else if (A == "--junit") {
      auto V = Value("--junit");
      if (!V)
        return std::nullopt;
      O.JUnitPath = *V;
    } else if (A == "--trace") {
      auto V = Value("--trace");
      if (!V)
        return std::nullopt;
      O.TracePath = *V;
    } else if (A.rfind("--trace=", 0) == 0) {
      O.TracePath = A.substr(8);
      if (O.TracePath.empty()) {
        std::fprintf(stderr, "cerb: --trace requires a value\n");
        return std::nullopt;
      }
    } else if (A == "--seeds") {
      auto V = Value("--seeds");
      if (!V)
        return std::nullopt;
      size_t Dots = V->find("..");
      const uint64_t Max = std::numeric_limits<uint64_t>::max();
      std::optional<uint64_t> First = 1, Last;
      if (Dots == std::string::npos) {
        Last = parseCount("--seeds", *V, Max);
      } else {
        First = parseCount("--seeds", V->substr(0, Dots), Max);
        Last = First ? parseCount("--seeds", V->substr(Dots + 2), Max)
                     : std::nullopt;
      }
      if (!Last)
        return std::nullopt;
      O.FirstSeed = *First;
      O.LastSeed = *Last;
      if (O.LastSeed < O.FirstSeed) {
        std::fprintf(stderr, "cerb: empty seed range '%s'\n", V->c_str());
        return std::nullopt;
      }
    } else if (A == "--size") {
      if (!Count(O.GenSize))
        return std::nullopt;
    } else if (A == "--no-reduce") {
      O.Reduce = false;
    } else if (A == "--reduce-tests") {
      if (!Count(O.Reduction.MaxTests))
        return std::nullopt;
    } else if (A == "--reduce-deadline-ms") {
      if (!Count(O.Reduction.DeadlineMs))
        return std::nullopt;
    } else if (A == "--corpus") {
      auto V = Value("--corpus");
      if (!V)
        return std::nullopt;
      O.CorpusDir = *V;
    } else if (A == "--resume") {
      auto V = Value("--resume");
      if (!V)
        return std::nullopt;
      O.ResumePath = *V;
    } else if (A == "--timings") {
      O.FuzzTimings = true;
    } else if (A == "--socket") {
      auto V = Value("--socket");
      if (!V)
        return std::nullopt;
      O.SocketPath = *V;
    } else if (A == "--tcp-port") {
      if (!Count(O.TcpPort, MaxPort))
        return std::nullopt;
    } else if (A == "--cache-dir") {
      auto V = Value("--cache-dir");
      if (!V)
        return std::nullopt;
      O.CacheDir = *V;
    } else if (A == "--max-queue") {
      if (!Count(O.MaxQueue))
        return std::nullopt;
    } else if (A == "--compile-cache-mb") {
      if (!Count(O.CompileCacheMb, serve::DaemonConfig::MaxCompileCacheMb))
        return std::nullopt;
    } else if (A == "--server") {
      auto V = Value("--server");
      if (!V)
        return std::nullopt;
      O.ServerAddr = *V;
    } else if (A == "--pipeline-depth") {
      if (!Count(O.PipelineDepth))
        return std::nullopt;
    } else if (A == "--mem-cache") {
      if (!Count(O.MemCache))
        return std::nullopt;
    } else if (A == "--max-conns") {
      if (!Count(O.MaxConns))
        return std::nullopt;
    } else if (A == "--idle-timeout-ms") {
      if (!Count(O.IdleTimeoutMs))
        return std::nullopt;
    } else if (A == "--read-timeout-ms") {
      if (!Count(O.ReadTimeoutMs))
        return std::nullopt;
    } else if (A == "--retries") {
      if (!Count(O.QueryRetries))
        return std::nullopt;
    } else if (A == "--retry-deadline-ms") {
      if (!Count(O.RetryDeadlineMs))
        return std::nullopt;
    } else if (A == "--call-timeout-ms") {
      if (!Count(O.CallTimeoutMs))
        return std::nullopt;
    } else if (A == "--faults") {
      auto V = Value("--faults");
      if (!V)
        return std::nullopt;
      O.FaultsSpec = *V;
    } else if (A == "--op") {
      auto V = Value("--op");
      if (!V)
        return std::nullopt;
      O.QueryOp = *V;
    } else if (A == "--name") {
      auto V = Value("--name");
      if (!V)
        return std::nullopt;
      O.QueryName = *V;
    } else if (A == "--no-cache") {
      O.NoCache = true;
    } else if (A == "-o") {
      auto V = Value("-o");
      if (!V)
        return std::nullopt;
      O.OutputPath = *V;
    } else if (A == "--no-timings") {
      O.IncludeTimings = false;
    } else if (A == "--quiet") {
      O.Quiet = true;
    } else if (!A.empty() && A[0] == '-') {
      std::fprintf(stderr, "cerb: unknown option '%s'\n", A.c_str());
      return std::nullopt;
    } else {
      Positional.push_back(std::move(A));
    }
  }
  return Positional;
}

std::optional<std::vector<mem::MemoryPolicy>>
resolvePolicies(const std::vector<std::string> &Names, bool DefaultAll) {
  std::vector<mem::MemoryPolicy> Out;
  if (Names.empty()) {
    if (DefaultAll)
      return mem::MemoryPolicy::allPresets();
    Out.push_back(mem::MemoryPolicy::defacto());
    return Out;
  }
  for (const std::string &N : Names) {
    auto P = mem::MemoryPolicy::named(N);
    if (!P) {
      std::fprintf(stderr, "cerb: %s\n", P.error().Message.c_str());
      return std::nullopt;
    }
    Out.push_back(std::move(*P));
  }
  return Out;
}

/// Writes the requested reports; returns false on I/O failure.
bool emitReports(const BatchResult &B, const Options &O) {
  ReportOptions RO;
  RO.IncludeTimings = O.IncludeTimings;
  std::string Err;
  if (!O.ReportPath.empty()) {
    if (!writeTextFile(O.ReportPath, toJson(B, RO), &Err)) {
      std::fprintf(stderr, "cerb: %s\n", Err.c_str());
      return false;
    }
    if (!O.Quiet)
      std::printf("wrote JSON report: %s\n", O.ReportPath.c_str());
  }
  if (!O.JUnitPath.empty()) {
    if (!writeTextFile(O.JUnitPath, toJUnitXml(B, RO), &Err)) {
      std::fprintf(stderr, "cerb: %s\n", Err.c_str());
      return false;
    }
    if (!O.Quiet)
      std::printf("wrote JUnit report: %s\n", O.JUnitPath.c_str());
  }
  return true;
}

void printJobLine(const JobResult &R) {
  std::printf("  [%s] %s: %s", R.PolicyName.c_str(), R.Name.c_str(),
              std::string(jobStatusName(R.Status)).c_str());
  if (R.Check == JobResult::Verdict::Pass)
    std::printf(" (expectation: pass)");
  else if (R.Check == JobResult::Verdict::Fail)
    std::printf(" (expectation: FAIL)");
  std::printf("\n");
  if (R.Status == JobStatus::CompileError) {
    std::printf("      %s\n", R.CompileError.c_str());
    return;
  }
  for (const exec::Outcome &O : R.Outcomes.Distinct)
    std::printf("      %s\n", O.str().c_str());
}

int runBatch(std::vector<Job> Jobs, const Options &O, bool Verbose) {
  OracleConfig Cfg;
  Cfg.Threads = O.Jobs;
  Oracle Orc(Cfg);
  BatchResult B = Orc.run(Jobs);

  if (Verbose && !O.Quiet)
    for (const JobResult &R : B.Results)
      printJobLine(R);
  if (!O.Quiet && !Verbose)
    for (const JobResult &R : B.Results)
      if (R.Status != JobStatus::Ok || R.Check == JobResult::Verdict::Fail)
        printJobLine(R);

  std::printf("%s", B.Stats.str().c_str());
  if (!emitReports(B, O))
    return 1;
  bool Bad = B.Stats.ChecksFailed || B.Stats.CompileErrors || B.Stats.Errors;
  return Bad ? 1 : 0;
}

int cmdRun(const std::vector<std::string> &Files, Options O) {
  auto Policies = resolvePolicies(O.PolicyNames, /*DefaultAll=*/false);
  if (!Policies)
    return 2;
  // Single-program exhaustive runs are where subtree work-sharing pays:
  // wire --jobs into the exploration unless --explore-jobs overrides it.
  O.Budget.ExploreJobs =
      O.ExploreJobs ? O.ExploreJobs : Oracle(OracleConfig{O.Jobs}).threadCount();
  std::vector<Job> Jobs;
  for (const std::string &Path : Files) {
    auto Src = exec::readSourceFile(Path);
    if (!Src) {
      std::fprintf(stderr, "cerb: %s\n", Src.error().str().c_str());
      return 2;
    }
    for (const mem::MemoryPolicy &P : *Policies) {
      Job J;
      J.Name = Path;
      J.Source = *Src;
      J.Policy = P;
      J.ExecMode = O.ExecMode;
      J.Seed = O.Seed;
      J.Budget = O.Budget;
      Jobs.push_back(std::move(J));
    }
  }
  return runBatch(std::move(Jobs), O, /*Verbose=*/true);
}

/// The suite's unit of remote work: one EvalRequest per test carrying the
/// whole policy set, so the daemon's per-request job fan-out mirrors the
/// local per-test job grouping (and one compile serves every policy).
std::optional<std::vector<serve::EvalRequest>>
suiteRequests(const std::string &Target,
              const std::vector<mem::MemoryPolicy> &Policies,
              const Options &O) {
  std::vector<serve::EvalRequest> Reqs;
  auto Push = [&](std::string Name, std::string Source) {
    serve::EvalRequest Q;
    Q.Id = "s" + std::to_string(Reqs.size());
    Q.Name = std::move(Name);
    Q.Source = std::move(Source);
    Q.Policies = Policies;
    Q.ExecMode = O.ExecMode;
    Q.Seed = O.Seed;
    Q.Limits.MaxPaths = O.Budget.MaxPaths;
    Q.Limits.MaxSteps = O.Budget.Limits.MaxSteps;
    Q.Limits.MaxCallDepth = O.Budget.Limits.MaxCallDepth;
    Q.Limits.DeadlineMs = O.Budget.DeadlineMs;
    Q.Limits.FallbackSamples = O.Budget.FallbackSamples;
    Q.NoCache = O.NoCache;
    // The daemon attaches built-in expectations by name — the same
    // defacto::findTest lookup the local path does.
    Q.CheckExpect = true;
    Reqs.push_back(std::move(Q));
  };
  if (Target == "defacto") {
    for (const defacto::TestCase &T : defacto::testSuite())
      Push(T.Name, T.Source);
    return Reqs;
  }
  namespace fs = std::filesystem;
  std::error_code EC;
  if (!fs::is_directory(Target, EC)) {
    std::fprintf(stderr,
                 "cerb: '%s' is not a directory (or 'defacto' for the "
                 "built-in suite)\n",
                 Target.c_str());
    return std::nullopt;
  }
  std::vector<std::string> Paths;
  for (const fs::directory_entry &E : fs::directory_iterator(Target, EC))
    if (E.is_regular_file() && E.path().extension() == ".c")
      Paths.push_back(E.path().string());
  std::sort(Paths.begin(), Paths.end()); // deterministic request order
  if (Paths.empty()) {
    std::fprintf(stderr, "cerb: no .c files in '%s'\n", Target.c_str());
    return std::nullopt;
  }
  for (const std::string &Path : Paths) {
    auto Src = exec::readSourceFile(Path);
    if (!Src) {
      std::fprintf(stderr, "cerb: %s\n", Src.error().str().c_str());
      return std::nullopt;
    }
    Push(fs::path(Path).stem().string(), *Src);
  }
  return Reqs;
}

/// `cerb suite --server ADDR`: ship the whole suite to a running daemon as
/// one pipelined batch and aggregate the streamed per-test reports.
int cmdSuiteServer(const std::string &Target, const Options &O) {
  std::string SocketPath = O.ServerAddr;
  int Port = -1;
  if (O.ServerAddr.rfind("tcp:", 0) == 0) {
    SocketPath.clear();
    auto N = parseCount("--server tcp:", O.ServerAddr.substr(4), MaxPort);
    if (!N)
      return 2;
    Port = static_cast<int>(*N);
  }
  auto Policies = resolvePolicies(O.PolicyNames, /*DefaultAll=*/true);
  if (!Policies)
    return 2;
  auto Reqs = suiteRequests(Target, *Policies, O);
  if (!Reqs)
    return 2;

  serve::RetryPolicy RP;
  RP.MaxAttempts = std::max(1u, O.QueryRetries);
  RP.TotalDeadlineMs = O.RetryDeadlineMs;
  RP.CallTimeoutMs = O.CallTimeoutMs;
  RP.Seed = O.Seed;
  auto Conn = serve::Client::connect(SocketPath, Port, RP);
  if (!Conn) {
    std::fprintf(stderr, "cerb: %s\n", Conn.error().str().c_str());
    return 1;
  }

  if (!O.Quiet)
    std::printf("sending %zu tests (%zu policies) to %s...\n", Reqs->size(),
                Policies->size(), O.ServerAddr.c_str());
  serve::BatchOptions BO;
  BO.PipelineDepth = O.PipelineDepth;
  auto Batch = Conn->callBatch(*Reqs, BO);
  if (!Batch) {
    std::fprintf(stderr, "cerb: %s\n", Batch.error().str().c_str());
    return 1;
  }

  // Aggregate the per-test reports: sum the stats blocks, echo failing
  // job lines, and (with --report) keep every report verbatim.
  uint64_t Jobs = 0, Ok = 0, Degraded = 0, TimedOut = 0, CompileErrors = 0,
           Errors = 0, ChecksPassed = 0, ChecksFailed = 0, Paths = 0;
  unsigned BadReplies = 0;
  bool FirstReport = true;
  std::string Combined = "{\n  \"schema\": \"cerb-suite-server/1\",\n"
                         "  \"reports\": [\n";
  for (size_t I = 0; I < Batch->Responses.size(); ++I) {
    const serve::ParsedResponse &R = Batch->Responses[I];
    if (R.Status != "ok") {
      std::fprintf(stderr, "cerb: %s: daemon answered '%s'%s%s\n",
                   (*Reqs)[I].Name.c_str(), R.Status.c_str(),
                   R.Error.empty() ? "" : ": ", R.Error.c_str());
      ++BadReplies;
      continue;
    }
    auto Doc = json::parse(R.Report);
    const json::Value *S = Doc ? Doc->get("stats") : nullptr;
    if (!S) {
      std::fprintf(stderr, "cerb: %s: unparseable report\n",
                   (*Reqs)[I].Name.c_str());
      ++BadReplies;
      continue;
    }
    auto N = [&](const char *K) {
      const json::Value *V = S->get(K);
      return V ? V->asU64() : 0;
    };
    Jobs += N("jobs");
    Ok += N("ok");
    Degraded += N("degraded");
    TimedOut += N("timed_out");
    CompileErrors += N("compile_errors");
    Errors += N("errors");
    ChecksPassed += N("checks_passed");
    ChecksFailed += N("checks_failed");
    Paths += N("paths_explored");
    if (!O.Quiet)
      if (const json::Value *JA = Doc->get("jobs");
          JA && JA->K == json::Value::Kind::Array)
        for (const json::Value &JV : JA->Arr) {
          const json::Value *St = JV.get("status");
          const json::Value *Ck = JV.get("check");
          bool Failed = Ck && Ck->K == json::Value::Kind::String &&
                        Ck->asString() == "fail";
          if ((St && St->asString() != "ok") || Failed) {
            const json::Value *Nm = JV.get("name");
            const json::Value *Pl = JV.get("policy");
            std::printf("  [%s] %s: %s%s\n",
                        Pl ? Pl->asString().c_str() : "?",
                        Nm ? Nm->asString().c_str() : "?",
                        St ? St->asString().c_str() : "?",
                        Failed ? " (expectation: FAIL)" : "");
          }
        }
    if (!O.ReportPath.empty()) {
      if (!FirstReport)
        Combined += ",\n";
      FirstReport = false;
      Combined += R.Report;
    }
  }

  std::printf("suite over %s: %zu tests, %llu jobs (ok %llu, degraded "
              "%llu, timed-out %llu, compile-error %llu, error %llu)\n",
              O.ServerAddr.c_str(), Reqs->size(),
              static_cast<unsigned long long>(Jobs),
              static_cast<unsigned long long>(Ok),
              static_cast<unsigned long long>(Degraded),
              static_cast<unsigned long long>(TimedOut),
              static_cast<unsigned long long>(CompileErrors),
              static_cast<unsigned long long>(Errors));
  if (ChecksPassed || ChecksFailed)
    std::printf("expectations:  %llu passed, %llu failed\n",
                static_cast<unsigned long long>(ChecksPassed),
                static_cast<unsigned long long>(ChecksFailed));
  std::printf("paths:         %llu explored; %u attempt(s)\n",
              static_cast<unsigned long long>(Paths), Batch->Attempts);
  if (BadReplies)
    std::fprintf(stderr, "cerb: %u request(s) answered non-ok\n", BadReplies);

  if (!O.ReportPath.empty()) {
    Combined += "\n  ]\n}\n";
    std::string Err;
    if (!writeTextFile(O.ReportPath, Combined, &Err)) {
      std::fprintf(stderr, "cerb: %s\n", Err.c_str());
      return 1;
    }
    if (!O.Quiet)
      std::printf("wrote JSON report: %s\n", O.ReportPath.c_str());
  }
  return (BadReplies || ChecksFailed || CompileErrors || Errors) ? 1 : 0;
}

int cmdSuite(const std::string &Target, Options O) {
  if (!O.ServerAddr.empty())
    return cmdSuiteServer(Target, O);
  auto Policies = resolvePolicies(O.PolicyNames, /*DefaultAll=*/true);
  if (!Policies)
    return 2;
  // Suites have ample batch-level parallelism; keep explorations serial
  // unless the user explicitly shares workers into them.
  if (O.ExploreJobs)
    O.Budget.ExploreJobs = O.ExploreJobs;

  std::vector<Job> Jobs;
  if (Target == "defacto") {
    Jobs = Oracle::suiteJobs(defacto::testSuite(), *Policies, O.Budget,
                             O.ExecMode);
    for (Job &J : Jobs)
      J.Seed = O.Seed;
  } else {
    namespace fs = std::filesystem;
    std::error_code EC;
    if (!fs::is_directory(Target, EC)) {
      std::fprintf(stderr,
                   "cerb: '%s' is not a directory (or 'defacto' for the "
                   "built-in suite)\n",
                   Target.c_str());
      return 2;
    }
    std::vector<std::string> Paths;
    for (const fs::directory_entry &E : fs::directory_iterator(Target, EC))
      if (E.is_regular_file() && E.path().extension() == ".c")
        Paths.push_back(E.path().string());
    std::sort(Paths.begin(), Paths.end()); // deterministic job order
    if (Paths.empty()) {
      std::fprintf(stderr, "cerb: no .c files in '%s'\n", Target.c_str());
      return 2;
    }
    for (const std::string &Path : Paths) {
      auto Src = exec::readSourceFile(Path);
      if (!Src) {
        std::fprintf(stderr, "cerb: %s\n", Src.error().str().c_str());
        return 2;
      }
      // Directory tests may match built-in suite names (export-suite round
      // trip); attach the built-in expectations when they do.
      const defacto::TestCase *Known =
          defacto::findTest(fs::path(Path).stem().string());
      for (const mem::MemoryPolicy &P : *Policies) {
        Job J;
        J.Name = fs::path(Path).stem().string();
        J.Source = *Src;
        J.Policy = P;
        J.ExecMode = O.ExecMode;
        J.Seed = O.Seed;
        J.Budget = O.Budget;
        if (Known) {
          auto It = Known->Expected.find(P.Name);
          if (It != Known->Expected.end())
            J.Expected = It->second;
        }
        Jobs.push_back(std::move(J));
      }
    }
  }
  std::printf("running %zu jobs (%zu policies) on %u threads...\n",
              Jobs.size(), Policies->size(),
              Oracle(OracleConfig{O.Jobs}).threadCount());
  return runBatch(std::move(Jobs), O, /*Verbose=*/false);
}

int cmdExportSuite(const std::string &Dir) {
  namespace fs = std::filesystem;
  std::error_code EC;
  fs::create_directories(Dir, EC);
  if (EC) {
    std::fprintf(stderr, "cerb: cannot create '%s': %s\n", Dir.c_str(),
                 EC.message().c_str());
    return 1;
  }
  unsigned N = 0;
  for (const defacto::TestCase &T : defacto::testSuite()) {
    std::string Path = Dir + "/" + T.Name + ".c";
    std::string Header = "/* " + T.QuestionId + ": " + T.Description + " */\n";
    std::string Err;
    if (!writeTextFile(Path, Header + T.Source, &Err)) {
      std::fprintf(stderr, "cerb: %s\n", Err.c_str());
      return 1;
    }
    ++N;
  }
  std::printf("exported %u tests to %s/\n", N, Dir.c_str());
  return 0;
}

/// `cerb fuzz`: the §6 differential campaign with reduction and triage.
int cmdFuzz(const Options &O) {
  auto Policies = resolvePolicies(O.PolicyNames, /*DefaultAll=*/false);
  if (!Policies)
    return 2;

  fuzz::CampaignOptions C;
  C.FirstSeed = O.FirstSeed;
  C.LastSeed = O.LastSeed;
  C.Gen.Size = O.GenSize;
  C.Policies = *Policies;
  C.Jobs = O.Jobs;
  if (O.Budget.Limits.MaxSteps)
    C.StepBudget = O.Budget.Limits.MaxSteps;
  if (O.Budget.DeadlineMs)
    C.TestDeadlineMs = O.Budget.DeadlineMs;
  C.Reduce = O.Reduce;
  C.Reduction = O.Reduction;
  C.CorpusDir = O.CorpusDir;

  std::vector<fuzz::CampaignEntry> Previous;
  if (!O.ResumePath.empty()) {
    auto Text = exec::readSourceFile(O.ResumePath);
    if (!Text) {
      std::fprintf(stderr, "cerb: %s\n", Text.error().str().c_str());
      return 2;
    }
    std::string Err;
    if (!fuzz::loadCampaignEntries(*Text, Previous, &Err)) {
      std::fprintf(stderr, "cerb: --resume %s: %s\n", O.ResumePath.c_str(),
                   Err.c_str());
      return 2;
    }
  }

  if (!O.Quiet)
    std::printf("fuzzing seeds %llu..%llu under %zu policies...\n",
                static_cast<unsigned long long>(C.FirstSeed),
                static_cast<unsigned long long>(C.LastSeed), Policies->size());
  fuzz::CampaignResult R =
      fuzz::runCampaign(C, Previous.empty() ? nullptr : &Previous);

  const fuzz::CampaignStats &S = R.Stats;
  std::printf("campaign: %llu runs: %llu agree, %llu mismatch, %llu timeout, "
              "%llu fail, %llu oracle-unavailable; %zu buckets "
              "(%llu reduced, %llu oracle tests spent reducing)\n",
              static_cast<unsigned long long>(S.Total),
              static_cast<unsigned long long>(S.Agree),
              static_cast<unsigned long long>(S.Mismatch),
              static_cast<unsigned long long>(S.Timeout),
              static_cast<unsigned long long>(S.Fail),
              static_cast<unsigned long long>(S.OracleUnavailable),
              R.Buckets.size(), static_cast<unsigned long long>(S.Reduced),
              static_cast<unsigned long long>(S.ReduceTests));
  if (!O.Quiet)
    for (const fuzz::Bucket &B : R.Buckets)
      std::printf("  bucket %s: %zu seed(s), representative seed %llu "
                  "[%s], %zu -> %zu bytes%s%s\n",
                  B.Key.c_str(), B.Seeds.size(),
                  static_cast<unsigned long long>(B.RepresentativeSeed),
                  B.RepresentativePolicy.c_str(), B.OriginalBytes,
                  B.ReducedBytes, B.CorpusFile.empty() ? "" : " -> ",
                  B.CorpusFile.c_str());

  if (!O.ReportPath.empty()) {
    fuzz::CampaignReportOptions RO;
    RO.IncludeTimings = O.FuzzTimings;
    std::string Err;
    if (!writeTextFile(O.ReportPath, fuzz::toJson(R, C, RO), &Err)) {
      std::fprintf(stderr, "cerb: %s\n", Err.c_str());
      return 1;
    }
    if (!O.Quiet)
      std::printf("wrote fuzz report: %s\n", O.ReportPath.c_str());
  }
  return 0;
}

/// Runs \p Cmd on a pool thread: evaluations need the pool's fixed stack
/// (support/ThreadPool.h), whatever `ulimit -s` gave the main thread.
int onPoolThread(const std::function<int()> &Cmd) {
  int RC = 0;
  ThreadPool Pool(1);
  Pool.submit([&] { RC = Cmd(); });
  Pool.wait();
  return RC;
}

/// `cerb reduce file.c`: ddmin-minimize a divergent program against the
/// differential oracle, preserving its triage signature.
int cmdReduce(const std::string &Path, const Options &O) {
  auto Policies = resolvePolicies(O.PolicyNames, /*DefaultAll=*/false);
  if (!Policies)
    return 2;
  auto Src = exec::readSourceFile(Path);
  if (!Src) {
    std::fprintf(stderr, "cerb: %s\n", Src.error().str().c_str());
    return 2;
  }

  csmith::DiffOptions DO;
  DO.Policy = Policies->front();
  if (O.Budget.Limits.MaxSteps)
    DO.StepBudget = O.Budget.Limits.MaxSteps;
  DO.DeadlineMs = O.Budget.DeadlineMs ? O.Budget.DeadlineMs : 10'000;

  csmith::DiffResult Original = csmith::differentialTest(*Src, DO);
  std::string Signature = csmith::diffSignature(Original);
  std::printf("%s: %s (signature %s)\n", Path.c_str(),
              std::string(diffStatusName(Original.Status)).c_str(),
              Signature.c_str());
  if (Original.Status == csmith::DiffStatus::Agree) {
    std::fprintf(stderr,
                 "cerb: nothing to reduce: our result agrees with the host "
                 "compiler under policy '%s'\n",
                 DO.Policy.Name.c_str());
    return 1;
  }

  auto StillFails = [&](const std::string &Candidate) {
    return csmith::diffSignature(csmith::differentialTest(Candidate, DO)) ==
           Signature;
  };
  fuzz::ReduceResult RR =
      fuzz::reduce(*Src, fuzz::chunkSource(*Src), StillFails, O.Reduction);
  std::printf("reduced %zu -> %zu bytes in %llu oracle tests (%zu chunks "
              "kept%s)\n",
              RR.OriginalBytes, RR.ReducedBytes,
              static_cast<unsigned long long>(RR.TestsRun), RR.ChunksKept,
              RR.OneMinimal ? ", 1-minimal"
                            : (RR.DeadlineHit ? ", deadline hit"
                                              : ", test budget hit"));

  if (!O.OutputPath.empty()) {
    std::string Err;
    if (!writeTextFile(O.OutputPath, RR.Reduced, &Err)) {
      std::fprintf(stderr, "cerb: %s\n", Err.c_str());
      return 1;
    }
    std::printf("wrote %s\n", O.OutputPath.c_str());
  } else if (!O.Quiet) {
    std::fputs(RR.Reduced.c_str(), stdout);
  }
  return 0;
}

/// SIGTERM/SIGINT → one byte on the daemon's drain pipe (async-signal-safe
/// by construction: the handler only write()s to a pre-stored fd).
std::atomic<int> GDrainFd{-1};

void onTermSignal(int) {
  int Fd = GDrainFd.load(std::memory_order_relaxed);
  if (Fd >= 0) {
    char B = 'x';
    [[maybe_unused]] ssize_t R = ::write(Fd, &B, 1);
  }
}

/// `cerb serve`: run the evaluation daemon until a termination signal (or a
/// `shutdown` op) drains it.
int cmdServe(const Options &O) {
  serve::DaemonConfig DC;
  DC.SocketPath = O.SocketPath;
  DC.TcpPort = O.TcpPort;
  if (DC.SocketPath.empty() && DC.TcpPort < 0)
    DC.SocketPath = "cerbd.sock";
  DC.Threads = O.Jobs;
  DC.MaxQueue = O.MaxQueue;
  DC.Cache.Dir = O.CacheDir;
  DC.Cache.MaxMemoryEntries = static_cast<size_t>(O.MemCache);
  DC.MaxConns = O.MaxConns;
  DC.IdleTimeoutMs = O.IdleTimeoutMs;
  DC.ReadTimeoutMs = O.ReadTimeoutMs;
  DC.CompileCacheMb = O.CompileCacheMb;
  DC.Quiet = O.Quiet;

  struct sigaction SA;
  std::memset(&SA, 0, sizeof SA);
  SA.sa_handler = onTermSignal;
  sigemptyset(&SA.sa_mask);
  std::signal(SIGPIPE, SIG_IGN); // a vanished client must not kill cerbd

  serve::Daemon D(std::move(DC));
  auto Started = D.start();
  if (!Started) {
    std::fprintf(stderr, "cerb: %s\n", Started.error().str().c_str());
    return 1;
  }

  GDrainFd.store(D.drainFd(), std::memory_order_relaxed);
  sigaction(SIGTERM, &SA, nullptr);
  sigaction(SIGINT, &SA, nullptr);

  int RC = D.waitUntilDrained();
  GDrainFd.store(-1, std::memory_order_relaxed);
  return RC;
}

/// `cerb query`: one request against a running daemon.
int cmdQuery(const std::vector<std::string> &Files, const Options &O) {
  if (O.SocketPath.empty() && O.TcpPort < 0) {
    std::fprintf(stderr, "cerb: query needs --socket PATH or --tcp-port N\n");
    return 2;
  }
  serve::RetryPolicy RP;
  RP.MaxAttempts = std::max(1u, O.QueryRetries);
  RP.TotalDeadlineMs = O.RetryDeadlineMs;
  RP.CallTimeoutMs = O.CallTimeoutMs;
  RP.Seed = O.Seed;
  auto Conn = serve::Client::connect(O.SocketPath, O.TcpPort, RP);
  if (!Conn) {
    std::fprintf(stderr, "cerb: %s\n", Conn.error().str().c_str());
    return 1;
  }

  if (O.QueryOp != "eval") {
    serve::Op K;
    if (O.QueryOp == "ping")
      K = serve::Op::Ping;
    else if (O.QueryOp == "stats")
      K = serve::Op::Stats;
    else if (O.QueryOp == "shutdown")
      K = serve::Op::Shutdown;
    else {
      std::fprintf(stderr,
                   "cerb: unknown op '%s' (eval | ping | stats | shutdown)\n",
                   O.QueryOp.c_str());
      return 2;
    }
    auto Raw = Conn->callRetry(serve::serializeSimpleRequest(K, "cli"));
    if (!Raw) {
      std::fprintf(stderr, "cerb: %s\n", Raw.error().str().c_str());
      return 1;
    }
    std::printf("%s\n", Raw->c_str());
    auto R = serve::parseResponse(*Raw);
    return (R && R->Status == "ok") ? 0 : 1;
  }

  if (Files.size() != 1) {
    std::fprintf(stderr, "cerb: query requires exactly one file\n");
    return 2;
  }
  auto Policies = resolvePolicies(O.PolicyNames, /*DefaultAll=*/false);
  if (!Policies)
    return 2;
  auto Src = exec::readSourceFile(Files.front());
  if (!Src) {
    std::fprintf(stderr, "cerb: %s\n", Src.error().str().c_str());
    return 2;
  }

  serve::EvalRequest Q;
  Q.Id = "cli-1";
  Q.Name = O.QueryName.empty()
               ? std::filesystem::path(Files.front()).stem().string()
               : O.QueryName;
  Q.Source = *Src;
  Q.Policies = *Policies;
  Q.ExecMode = O.ExecMode;
  Q.Seed = O.Seed;
  Q.Limits.MaxPaths = O.Budget.MaxPaths;
  Q.Limits.MaxSteps = O.Budget.Limits.MaxSteps;
  Q.Limits.MaxCallDepth = O.Budget.Limits.MaxCallDepth;
  Q.Limits.DeadlineMs = O.Budget.DeadlineMs;
  Q.Limits.FallbackSamples = O.Budget.FallbackSamples;
  Q.NoCache = O.NoCache;

  auto R = Conn->callRetryParsed(serve::serializeEvalRequest(Q));
  if (!R) {
    std::fprintf(stderr, "cerb: %s\n", R.error().str().c_str());
    return 1;
  }
  if (R->Status != "ok") {
    std::fprintf(stderr, "cerb: daemon answered '%s'%s%s\n",
                 R->Status.c_str(), R->Error.empty() ? "" : ": ",
                 R->Error.c_str());
    return 1;
  }
  if (!O.ReportPath.empty()) {
    std::string Err;
    if (!writeTextFile(O.ReportPath, R->Report, &Err)) {
      std::fprintf(stderr, "cerb: %s\n", Err.c_str());
      return 1;
    }
    if (!O.Quiet)
      std::printf("wrote JSON report: %s\n", O.ReportPath.c_str());
  } else {
    std::fputs(R->Report.c_str(), stdout);
  }
  return 0;
}

int cmdPolicies() {
  std::printf("memory-model policy presets (select with --policy/--policies):"
              "\n");
  for (const mem::MemoryPolicy &P : mem::MemoryPolicy::allPresets())
    std::printf("  %-11s provenance=%d oob-construction=%d relational-ub=%d "
                "effective-types=%d uninit-ub=%d alignment=%d cheri=%d\n",
                P.Name.c_str(), P.TrackProvenance, P.PermitOOBConstruction,
                P.RelationalAcrossObjectsUB, P.StrictEffectiveTypes,
                P.UninitReadIsUB, P.CheckAlignment, P.Cheri);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage(Argv[0]);
  std::string Cmd = Argv[1];
  if (Cmd == "help" || Cmd == "--help" || Cmd == "-h") {
    usage(Argv[0]);
    return 0;
  }
  if (Cmd == "policies")
    return cmdPolicies();

  Options O;
  auto Positional = parseArgs(Argc, Argv, 2, O);
  if (!Positional)
    return 2;

  // Fault injection (testing): --faults wins over the CERB_FAULTS env var.
  // A bad spec on the flag is a hard usage error; armFromEnv reports its
  // own warning and continues disarmed.
  if (!O.FaultsSpec.empty()) {
    auto Armed = fault::Injector::instance().armFromSpec(O.FaultsSpec);
    if (!Armed) {
      std::fprintf(stderr, "cerb: --faults: %s\n",
                   Armed.error().str().c_str());
      return 2;
    }
  } else {
    fault::Injector::instance().armFromEnv();
  }

  // Arm tracing around the whole command so compile, exploration, and
  // report emission all land on the profile. Event recording only changes
  // the trace file: counters are always on, so reports are byte-identical
  // with or without --trace.
  if (!O.TracePath.empty()) {
    trace::setCurrentThreadName("main");
    trace::start();
  }
  auto Finish = [&](int RC) {
    if (O.TracePath.empty())
      return RC;
    trace::stop();
    std::string Err;
    if (!trace::writeChromeTrace(O.TracePath, &Err)) {
      std::fprintf(stderr, "cerb: %s\n", Err.c_str());
      return RC ? RC : 1;
    }
    if (!O.Quiet)
      std::printf("wrote trace: %s\n", O.TracePath.c_str());
    return RC;
  };

  if (Cmd == "run") {
    if (Positional->empty()) {
      std::fprintf(stderr, "cerb: run requires at least one file\n");
      return 2;
    }
    return Finish(cmdRun(*Positional, O));
  }
  if (Cmd == "suite") {
    if (Positional->size() != 1) {
      std::fprintf(stderr,
                   "cerb: suite requires exactly one directory (or "
                   "'defacto')\n");
      return 2;
    }
    return Finish(cmdSuite(Positional->front(), O));
  }
  if (Cmd == "fuzz") {
    if (!Positional->empty()) {
      std::fprintf(stderr, "cerb: fuzz takes no positional arguments\n");
      return 2;
    }
    return Finish(cmdFuzz(O));
  }
  if (Cmd == "reduce") {
    if (Positional->size() != 1) {
      std::fprintf(stderr, "cerb: reduce requires exactly one file\n");
      return 2;
    }
    return Finish(
        onPoolThread([&] { return cmdReduce(Positional->front(), O); }));
  }
  if (Cmd == "serve") {
    if (!Positional->empty()) {
      std::fprintf(stderr, "cerb: serve takes no positional arguments\n");
      return 2;
    }
    return Finish(cmdServe(O));
  }
  if (Cmd == "query")
    return Finish(cmdQuery(*Positional, O));
  if (Cmd == "export-suite") {
    if (Positional->size() != 1) {
      std::fprintf(stderr, "cerb: export-suite requires a directory\n");
      return 2;
    }
    return cmdExportSuite(Positional->front());
  }
  std::fprintf(stderr, "cerb: unknown command '%s'\n", Cmd.c_str());
  return usage(Argv[0]);
}
