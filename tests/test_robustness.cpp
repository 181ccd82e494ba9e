//===-- tests/test_robustness.cpp - no input raises a signal --------------===//
//
// Every input that used to crash the process, written at ten times the
// limit that now refuses it, must end with a static diagnostic or an
// outcome, and never with a signal:
//
//   - nesting past the front end's depth limit (support/DepthGuard.h):
//     parentheses, `+`, comma and subscript chains, blocks, a
//     declarator's `*`s and a braced initializer;
//   - flat input that elaboration nests past MaxCoreDepth: a block's
//     statements, an initializer's elements, a function's parameters;
//   - evaluation nested past exec::MaxEvalDepth, and sum(390), which is
//     inside MaxCallDepth but deeper than an 8 MiB stack holds;
//   - allocations past mem::Memory::MaxAllocatedBytes, and a malloc/free
//     loop that once peaked at 2 GiB; a zero-initialized array past it,
//     whose zero value the elaborator once built in full; one of 4M
//     elements inside it, whose store once peaked at 1.5 GiB; a type whose
//     size overflows 2^64;
//   - a loop of 32,000 choice points, whose explorer frontier once peaked
//     at 2 GiB;
//   - accesses whose [address, address + size) wraps round 2^64, which
//     once read and wrote the host's memory.
//
// The shapes go through the real `cerb run` (with the default stack and
// under `ulimit -s unlimited`) and through one `cerb serve` process, which
// must still answer afterwards.
//
// The same binary's numeric options must refuse any value that is not a
// whole decimal number in range (they once read garbage as 0, a negative
// number as a wrapped one and `12x` as 12).
//
//===----------------------------------------------------------------------===//

#include "exec/Evaluator.h"
#include "mem/Memory.h"
#include "serve/Client.h"
#include "serve/Protocol.h"
#include "support/DepthGuard.h"
#include "support/Subprocess.h"

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

using namespace cerb;

namespace fs = std::filesystem;

namespace {

struct Shape {
  std::string Name;
  std::string Source;
  bool Memory = false; ///< a memory shape: its peak RSS is checked
  /// Path budget, 0 for the default; a shape with one samples no random
  /// paths past it.
  uint64_t MaxPaths = 0;
};

std::string repeat(const std::string &S, unsigned N) {
  std::string Out;
  Out.reserve(S.size() * N);
  for (unsigned I = 0; I < N; ++I)
    Out += S;
  return Out;
}

const char *const Sum390 = R"(int sum(int n) {
  int s = 0;
  if (n > 0) {
    for (int i = 0; i < 1; i++) {
      if (n % 2 == 0) {
        s = n + sum(n - 1);
      } else {
        s = n + sum(n - 1);
      }
    }
  }
  return s;
}
int main(void) { return sum(390) % 256; }
)";

std::vector<Shape> shapes() {
  const unsigned Deep = 10 * MaxSyntaxDepth;
  const uint64_t Big = 10 * mem::Memory::MaxAllocatedBytes;
  std::vector<Shape> S;
  S.push_back({"parens", "int main(void) { return " + repeat("(", Deep) +
                             "0" + repeat(")", Deep) + "; }\n"});
  std::string Chain = "x";
  for (unsigned I = 1; I < Deep; ++I)
    Chain += "+x";
  S.push_back({"chain", "int main(void) { int x = 1; return " + Chain +
                            "; }\n"});
  std::string Commas = "x";
  for (unsigned I = 1; I < Deep; ++I)
    Commas += ", x";
  S.push_back({"comma_chain", "int main(void) { int x = 1; return (" +
                                  Commas + "); }\n"});
  S.push_back({"subscript_chain", "int main(void) { int x[1] = {0}; return x" +
                                      repeat("[0]", Deep) + "; }\n"});
  S.push_back({"blocks", "int main(void) { " + repeat("{", Deep) +
                             repeat("}", Deep) + " return 0; }\n"});
  S.push_back({"stars", "int main(void) { int " + repeat("*", Deep) +
                            "p = 0; return 0; }\n"});
  S.push_back({"init", "int main(void) { int a[1] = " + repeat("{", Deep) +
                           "0" + repeat("}", Deep) + "; return 0; }\n"});
  const unsigned Flat = 10 * MaxCoreDepth;
  S.push_back({"flat_block", "int main(void) { int x = 0; " +
                                 repeat("x; ", Flat) + "return 0; }\n"});
  S.push_back({"flat_init", "int main(void) { int a[" + std::to_string(Flat) +
                                "] = {" + repeat("0, ", Flat) +
                                "}; return a[0]; }\n"});
  std::string Params = "int p0";
  for (unsigned I = 1; I < Flat; ++I)
    Params += ", int p" + std::to_string(I);
  S.push_back({"flat_params", "int f(" + Params + ") { return p0; }\n"
                              "int main(void) { return 0; }\n"});
  // 390 calls, each nesting 600 ifs (at least one level each): past ten
  // times MaxEvalDepth in all.
  const unsigned Nest = 600;
  std::string Ifs;
  for (unsigned I = 0; I < Nest; ++I)
    Ifs += "if (n > -" + std::to_string(I + 1) + ") { ";
  S.push_back({"eval_depth",
               "int f(int n) { int s = 0; if (n <= 0) return 0; " + Ifs +
                   "s = n + f(n - 1); " + repeat("} ", Nest) +
                   "return s; }\nint main(void) { return f(390) % 256; }\n"});
  static_assert(10 * exec::MaxEvalDepth < 390u * 600u);
  S.push_back({"sum390", Sum390});
  S.push_back({"malloc",
               "#include <stdlib.h>\nint main(void) { return malloc(" +
                   std::to_string(Big) + "u) == 0; }\n",
               true});
  S.push_back({"malloc_4g",
               "#include <stdlib.h>\n"
               "int main(void) { return malloc(4000000000u) == 0; }\n",
               true});
  S.push_back({"global_array",
               "char a[" + std::to_string(Big) +
                   "];\nint main(void) { a[0] = 1; return a[0]; }\n",
               true});
  S.push_back({"local_array",
               "int main(void) { char a[" + std::to_string(Big) +
                   "]; a[0] = 1; return a[0]; }\n",
               true});
  S.push_back({"zero_init",
               "int main(void) { char a[" + std::to_string(Big) +
                   "] = {0}; return a[0]; }\n",
               true});
  // Inside the budget, the zero value is built and stored: its store once
  // went through a second value tree, and the shape alone peaked at
  // 1.5 GiB.
  S.push_back({"zero_init_in_budget",
               "int main(void) { char a[4000000] = {0}; return a[5]; }\n",
               true});
  S.push_back({"huge_type",
               "int main(void) { char a[1099511627776][16777216] = {{0}}; "
               "return sizeof a == 0; }\n",
               true});
  S.push_back({"wrapped_access",
               "int main(void) {\n"
               "  int x = 5;\n"
               "  char *q = (char *)&x;\n"
               "  q += 0xFFFFFFFFFFFFFFFEul - (unsigned long)q;\n"
               "  return *(int *)q;\n"
               "}\n"});
  S.push_back({"memset_huge", "#include <string.h>\n"
                              "int main(void) {\n"
                              "  char b[4];\n"
                              "  memset(b, 0, (unsigned long)-1);\n"
                              "  return b[0];\n"
                              "}\n"});
  S.push_back({"malloc_free_loop",
               "#include <stdlib.h>\nint main(void) {\n"
               "  for (int i = 0; i < 20000; i++) {\n"
               "    char *p = malloc(1000);\n"
               "    free(p);\n"
               "  }\n"
               "  return 0;\n"
               "}\n",
               true});
  // 32,000 choice points on one path: each once published a prefix that
  // copied the trace so far, O(D^2) bytes in all (2 GiB here).
  S.push_back({"choice_loop",
               "int g;\nint f(int x) { g = x; return x; }\n"
               "int main(void) {\n"
               "  int s = 0;\n"
               "  for (int i = 0; i < 32000; i++)\n"
               "    s += f(1) + f(2);\n"
               "  return s % 256;\n"
               "}\n",
               true, 8});
  return S;
}

struct TempDir {
  fs::path Dir;
  TempDir() {
    std::string Tmpl = (fs::temp_directory_path() / "cerb-robust-XXXXXX");
    char *P = ::mkdtemp(Tmpl.data());
    Dir = P ? P : Tmpl;
  }
  ~TempDir() {
    std::error_code EC;
    fs::remove_all(Dir, EC);
  }
  std::string str(const std::string &Leaf) const { return (Dir / Leaf); }
};

/// Runs \p Cmd through the shell; returns the exit status the shell saw
/// (128 + N for a signal) and the combined output, or -1 past \p TimeoutMs.
std::pair<int, std::string> shellStatus(std::string Cmd, uint64_t TimeoutMs) {
  Cmd += " 2>&1; echo \"rc=$?\"";
  auto Out = captureCommand(Cmd, TimeoutMs);
  if (!Out)
    return {-1, ""};
  size_t At = Out->rfind("rc=");
  if (At == std::string::npos)
    return {-1, *Out};
  return {std::atoi(Out->c_str() + At + 3), Out->substr(0, At)};
}

/// `cerb run` of shape \p S, written to \p File.
std::pair<int, std::string> runCerb(const std::string &File, const Shape &S,
                                    bool UnlimitedStack) {
  std::string Cmd = UnlimitedStack ? "ulimit -s unlimited && " : "";
  Cmd += "\"" CERB_BIN "\" run \"" + File + "\" --jobs 2";
  if (S.MaxPaths)
    Cmd += " --max-paths " + std::to_string(S.MaxPaths) +
           " --fallback-samples 0";
  return shellStatus(Cmd, 300000);
}

bool ranToAnEnd(const std::string &Output) {
  // A compile diagnostic or a report line for the job.
  return Output.find("compile_error") != std::string::npos ||
         Output.find("error(") != std::string::npos ||
         Output.find("undef[") != std::string::npos ||
         Output.find("exit(") != std::string::npos;
}

#if defined(__SANITIZE_ADDRESS__)
constexpr bool Sanitized = true;
#else
constexpr bool Sanitized = false;
#endif

} // namespace

TEST(Robustness, NoShapeRaisesASignal) {
  TempDir T;
  std::vector<Shape> All = shapes();
  for (const Shape &S : All)
    std::ofstream(T.str(S.Name + ".c")) << S.Source;

  // The memory shapes first: the children's peak RSS is then theirs.
  for (const Shape &S : All)
    if (S.Memory) {
      auto [RC, Out] = runCerb(T.str(S.Name + ".c"), S, false);
      EXPECT_TRUE(RC == 0 || RC == 1) << S.Name << " rc=" << RC << "\n" << Out;
      EXPECT_TRUE(ranToAnEnd(Out)) << S.Name << "\n" << Out;
    }
  struct rusage RU;
  ASSERT_EQ(::getrusage(RUSAGE_CHILDREN, &RU), 0);
  EXPECT_LT(RU.ru_maxrss, 1024L * 1024) << "peak RSS in KiB";

  // Sanitizer frames are larger than the stack budgets assume for an
  // unlimited main thread too; the fixed pool stack is what is tested.
  for (bool Unlimited : {false, true}) {
    if (Unlimited && Sanitized)
      continue;
    for (const Shape &S : All) {
      auto [RC, Out] = runCerb(T.str(S.Name + ".c"), S, Unlimited);
      EXPECT_TRUE(RC == 0 || RC == 1)
          << S.Name << (Unlimited ? " (ulimit -s unlimited)" : "")
          << " rc=" << RC << "\n"
          << Out;
      EXPECT_TRUE(ranToAnEnd(Out)) << S.Name << "\n" << Out;
      if (S.Name == "sum390") {
        EXPECT_NE(Out.find("exit(213)"), std::string::npos) << Out;
      }
    }
  }
}

TEST(Robustness, OneDaemonSurvivesEveryShape) {
  TempDir T;
  const std::string Sock = T.str("d.sock");
  pid_t Pid = ::fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    ::execl(CERB_BIN, CERB_BIN, "serve", "--socket", Sock.c_str(), "--jobs",
            "2", "--quiet", (char *)nullptr);
    std::_Exit(127);
  }
  auto Ping = [&] {
    serve::RetryPolicy RP;
    RP.CallTimeoutMs = 5000;
    auto C = serve::Client::connect(Sock, -1, RP);
    if (!C)
      return false;
    auto R = C->callParsed(serve::serializeSimpleRequest(serve::Op::Ping, "p"));
    return R && R->Status == "ok";
  };
  bool Up = false;
  for (int I = 0; I < 500 && !Up; ++I) {
    Up = Ping();
    if (!Up)
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  if (!Up) {
    ::kill(Pid, SIGKILL);
    ::waitpid(Pid, nullptr, 0);
    FAIL() << "cerb serve did not come up";
  }

  auto Eval = [&](const Shape &S) -> std::string {
    serve::EvalRequest Q;
    Q.Id = S.Name;
    Q.Name = S.Name;
    Q.Source = S.Source;
    Q.Policies = {mem::MemoryPolicy::defacto()};
    if (S.MaxPaths) {
      Q.Limits.MaxPaths = S.MaxPaths;
      Q.Limits.FallbackSamples = 0;
    }
    serve::RetryPolicy RP;
    RP.CallTimeoutMs = 300000;
    auto C = serve::Client::connect(Sock, -1, RP);
    if (!C)
      return "no connection: " + C.error().str();
    auto R = C->callParsed(serve::serializeEvalRequest(Q));
    if (!R)
      return "no reply: " + R.error().str();
    if (R->Status != "ok")
      return "status " + R->Status + ": " + R->Error;
    return R->Report;
  };

  std::string Cold;
  for (const Shape &S : shapes()) {
    std::string Report = Eval(S);
    EXPECT_NE(Report.find("\"status\""), std::string::npos)
        << S.Name << ": " << Report;
    if (S.Name == "sum390")
      Cold = Report;
  }
  EXPECT_NE(Cold.find("exit(213)"), std::string::npos) << Cold;
  EXPECT_TRUE(Ping()) << "the daemon died";
  EXPECT_EQ(Eval({"sum390", Sum390}), Cold) << "warm reply differs";

  ASSERT_EQ(::kill(Pid, SIGTERM), 0);
  int St = 0;
  ASSERT_EQ(::waitpid(Pid, &St, 0), Pid);
  EXPECT_TRUE(WIFEXITED(St) && WEXITSTATUS(St) == 0) << "status " << St;
}

TEST(CliOptions, NumericValuesMustBeWholeNumbersInRange) {
  // A numeric option takes decimal digits only, all of its text, within
  // the range of what it sets; anything else is a usage error (exit 2),
  // never a silent 0, a wrapped value or a prefix.
  TempDir T;
  std::string File = T.str("t.c");
  std::ofstream(File) << "int main(void) { return 3; }\n";
  std::string Run = "\"" CERB_BIN "\" run \"" + File + "\" ";
  std::string Serve = "\"" CERB_BIN "\" serve --socket \"" +
                      T.str("d.sock") + "\" ";
  const std::vector<std::string> Refused = {
      Run + "--max-steps abc",
      Run + "--max-steps -1",
      Run + "--max-steps 12x",
      Run + "--max-steps 0x10",
      Run + "--max-steps ''",
      Run + "--max-steps ' 7'",
      Run + "--max-steps 18446744073709551616",
      Run + "--jobs 4294967296",
      Run + "--seed +5",
      Serve + "--compile-cache-mb abc",
      // 2^44 MiB is 2^64 bytes: the byte budget would wrap to 0, unbounded.
      Serve + "--compile-cache-mb 17592186044416",
      Serve + "--tcp-port 65536",
      "\"" CERB_BIN "\" suite defacto --server tcp:80x",
      "\"" CERB_BIN "\" fuzz --seeds 1..2x",
  };
  for (const std::string &Cmd : Refused) {
    // A value read as 0 or a prefix would start a run (or a daemon that
    // never exits: the timeout catches it).
    auto [RC, Out] = shellStatus(Cmd, 60000);
    EXPECT_EQ(RC, 2) << Cmd << "\n" << Out;
    EXPECT_NE(Out.find("needs a whole number"), std::string::npos)
        << Cmd << "\n" << Out;
  }
  auto [RC, Out] = shellStatus(Run + "--max-steps 18446744073709551615", 60000);
  EXPECT_EQ(RC, 0) << Out;
  EXPECT_NE(Out.find("exit(3)"), std::string::npos) << Out;
}
