//===-- tests/test_core_print.cpp - Printed-Core golden -------------------===//
//
// Pins the Core every front-end stage hands on, so a change to how Core is
// represented or built cannot change what it says. For each program the
// record holds:
//  - the length and FNV-1a-64 of core::printProgram after elab::elaborate;
//  - the same after exec::compile (rewrite and lower included);
//  - the core::LoweringStats of that compile;
//  - the size, length and FNV-1a-64 of the printed ConstPool, in pool
//    order, so every PoolIdx is pinned too.
// The programs are the de facto suite, tests/corpus/*.c, fixed-seed
// csmith-lite programs, and generated `+` chains, nested blocks and a
// 2,000-case switch (tests/goldens/core_print.golden; regenerate with
// CERB_UPDATE_GOLDENS=1 ./build/tests/cerb_core_print_tests).
//
// Label: `core_print` (also tier1); scripts/ci.sh re-runs the label.
//
//===----------------------------------------------------------------------===//

#include "ail/Desugar.h"
#include "cabs/Parser.h"
#include "core/Lowering.h"
#include "csmith/Generator.h"
#include "defacto/Suite.h"
#include "elab/Elaborate.h"
#include "exec/Pipeline.h"
#include "support/ThreadPool.h"
#include "typing/TypeCheck.h"

#include "Golden.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace cerb;

namespace {

uint64_t fnv1a64(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

std::string digest(const std::string &S) {
  char Buf[48];
  std::snprintf(Buf, sizeof Buf, "%zu %016" PRIx64, S.size(), fnv1a64(S));
  return Buf;
}

/// Parse, desugar, typecheck and elaborate, as exec::compile does, and
/// print the Core before any Core-to-Core pass.
std::string elaborated(const std::string &Src) {
  auto Unit = cabs::parseTranslationUnit(Src);
  if (!Unit)
    return "error " + Unit.error().str();
  auto Ail = ail::desugar(*Unit);
  if (!Ail)
    return "error " + Ail.error().str();
  if (auto Typed = typing::typeCheck(*Ail); !Typed)
    return "error " + Typed.error().str();
  auto Prog = elab::elaborate(std::move(*Ail));
  if (!Prog)
    return "error " + Prog.error().str();
  return digest(core::printProgram(*Prog));
}

std::vector<std::string> recordOnThisThread(const std::string &Src) {
  std::vector<std::string> Rec{"elab " + elaborated(Src)};
  auto C = exec::compileWithStats(Src);
  if (!C) {
    Rec.push_back("compile error " + C.error().str());
    return Rec;
  }
  const core::LoweringStats &L = C->Lowering;
  Rec.push_back("compiled " + digest(core::printProgram(C->Prog)));
  Rec.push_back("lowering slots=" + std::to_string(L.SlotsAssigned) +
                " folds=" + std::to_string(L.ConstFolds) +
                " flattened=" + std::to_string(L.LetsFlattened) +
                " interned=" + std::to_string(L.ConstsInterned) +
                " pool=" + std::to_string(L.PoolSize) +
                " pure=" + std::to_string(L.PureNodes));
  std::string Pool;
  for (const core::Value &V : C->Prog.ConstPool)
    Pool += V.str() + "\n";
  Rec.push_back("constpool " + std::to_string(C->Prog.ConstPool.size()) +
                " " + digest(Pool));
  return Rec;
}

/// The record of \p Src, made on a pool thread: the deep shapes need the
/// stack the depth limits are sized to, not the main thread's.
std::vector<std::string> record(const std::string &Src) {
  std::vector<std::string> Rec;
  ThreadPool Pool(1);
  Pool.submit([&] { Rec = recordOnThisThread(Src); });
  Pool.wait();
  return Rec;
}

std::string chainSource(unsigned Terms) {
  std::string Src = "int main(void) {\n  unsigned a = 7u, b = 11u;\n"
                    "  unsigned s = ";
  for (unsigned I = 0; I < Terms; ++I) {
    if (I)
      Src += " + ";
    Src += I % 3 == 0 ? "a" : I % 3 == 1 ? "b" : std::to_string(I) + "u";
  }
  return Src + ";\n  return (int)(s & 127u);\n}\n";
}

std::string nestSource(unsigned Depth) {
  std::string Src = "int main(void) {\nunsigned v0 = 3u;\n";
  for (unsigned I = 1; I <= Depth; ++I)
    Src += "{\nunsigned v" + std::to_string(I) + " = v" +
           std::to_string(I - 1) + (I % 2 ? " * 3u + " : " ^ ") +
           std::to_string(I) + "u;\n";
  Src += "v0 = v" + std::to_string(Depth) + ";\n";
  return Src + std::string(Depth, '}') + "\nreturn (int)(v0 & 127u);\n}\n";
}

std::string switchSource(unsigned Cases) {
  std::string Src = "int f(int x) {\n  int r = 0;\n  switch (x) {\n";
  for (unsigned I = 0; I < Cases; ++I)
    Src += "  case " + std::to_string(I * 7) + ": r = " +
           std::to_string(I % 97) + "; break;\n";
  return Src + "  default: r = -1;\n  }\n  return r;\n}\n"
               "int main(void) { return f(14); }\n";
}

const char *const Description =
    "# Printed Core of the de facto suite, tests/corpus/*.c, csmith-lite\n"
    "# programs, + chains, nested blocks and a 2,000-case switch. Per\n"
    "# program: the length and FNV-1a-64 of core::printProgram after\n"
    "# elab::elaborate and after exec::compile, the LoweringStats, and the\n"
    "# ConstPool's size, printed length and FNV-1a-64.\n";

} // namespace

TEST(CorePrint, DefactoSuite) {
  golden::GoldenMap Actual;
  for (const defacto::TestCase &T : defacto::testSuite())
    Actual["suite/" + T.Name] = record(T.Source);
  EXPECT_EQ(Actual.size(), 94u);
  golden::checkGoldens("core_print.golden", "cerb_core_print_tests",
                       Description, Actual, "suite/");
}

TEST(CorePrint, Corpus) {
  namespace fs = std::filesystem;
  golden::GoldenMap Actual;
  for (const auto &Ent :
       fs::directory_iterator(fs::path(CERB_SOURCE_DIR) / "tests" / "corpus")) {
    if (Ent.path().extension() != ".c")
      continue;
    std::ifstream In(Ent.path());
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Actual["corpus/" + Ent.path().filename().string()] = record(Buf.str());
  }
  EXPECT_EQ(Actual.size(), 12u);
  golden::checkGoldens("core_print.golden", "cerb_core_print_tests",
                       Description, Actual, "corpus/");
}

TEST(CorePrint, CsmithLite) {
  golden::GoldenMap Actual;
  for (unsigned I = 0; I < 10; ++I) {
    csmith::GenOptions G;
    G.Seed = 1000 + I;
    G.Size = 12 + I * (120 - 12) / 9;
    Actual["csmith/s" + std::to_string(G.Size) + "-g" +
           std::to_string(G.Seed)] = record(csmith::generateProgram(G));
  }
  golden::checkGoldens("core_print.golden", "cerb_core_print_tests",
                       Description, Actual, "csmith/");
}

TEST(CorePrint, GeneratedShapes) {
  golden::GoldenMap Actual;
  for (unsigned N : {25u, 100u, 400u})
    Actual["shape/chain-" + std::to_string(N)] = record(chainSource(N));
  for (unsigned N : {25u, 100u, 600u})
    Actual["shape/nest-" + std::to_string(N)] = record(nestSource(N));
  Actual["shape/switch-2000"] = record(switchSource(2000));
  golden::checkGoldens("core_print.golden", "cerb_core_print_tests",
                       Description, Actual, "shape/");
}
