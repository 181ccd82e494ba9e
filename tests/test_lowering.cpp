//===-- tests/test_lowering.cpp - Core lowering pass tests ----------------===//
//
// Units for the core::Lowering pass (slot resolution, constant folding,
// constant interning, ValueOnly marking, idempotence) plus the outcome
// sweep: every de facto suite test and every corpus reproducer is explored
// exhaustively and its path count and distinct outcomes must match
// tests/goldens/lowering_outcomes.golden, recorded while a tree-walking
// evaluator still cross-checked the lowered one (regenerate:
// CERB_UPDATE_GOLDENS=1 ./build/tests/cerb_lowering_tests). The same
// programs must leave the compile with every node's effect bit set and
// exact (the compile-once/run-many contract).
//
// Label: `lowering` (also tier1); scripts/ci.sh re-runs the label so a
// registration slip cannot silently drop the sweep.
//
//===----------------------------------------------------------------------===//

#include "core/Lowering.h"
#include "defacto/Suite.h"
#include "exec/Driver.h"
#include "exec/Pipeline.h"

#include "Golden.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

using namespace cerb;

namespace {

exec::CompileResult compileOk(std::string_view Src) {
  auto R = exec::compileWithStats(Src);
  EXPECT_TRUE(static_cast<bool>(R)) << (R ? "" : R.error().str());
  return std::move(*R);
}

/// Exits 35: s = (0+1+2+3+4) + 5 * 5.
constexpr const char *BindingHeavy = R"(
int add3(int a, int b, int c) { return a + b + c; }
int main(void) {
  int i, s = 0;
  for (i = 0; i < 5; i++)
    s = add3(s, i, 2 + 3);
  return s;
}
)";

} // namespace

//===----------------------------------------------------------------------===//
// Slot resolution
//===----------------------------------------------------------------------===//

TEST(Lowering, AssignsSlotsAndMarksProgramLowered) {
  exec::CompileResult R = compileOk(BindingHeavy);
  EXPECT_TRUE(R.Prog.Lowered);
  EXPECT_GT(R.Lowering.SlotsAssigned, 0u);
  EXPECT_EQ(R.Prog.NumSlots, R.Lowering.SlotsAssigned);
}

TEST(Lowering, SlotPathComputesTheSameExit) {
  exec::Outcome O = exec::runOnce(compileOk(BindingHeavy).Prog,
                                  exec::RunOptions());
  EXPECT_EQ(O.str(), "exit(35) stdout=\"\"");
}

TEST(Lowering, IdempotentSecondLowerIsANoOp) {
  exec::CompileResult R = compileOk(BindingHeavy);
  unsigned Slots = R.Prog.NumSlots;
  core::LoweringStats Again = core::lower(R.Prog);
  EXPECT_EQ(Again.SlotsAssigned, 0u);
  EXPECT_EQ(R.Prog.NumSlots, Slots);
  EXPECT_EQ(exec::runOnce(R.Prog, exec::RunOptions()).str(),
            "exit(35) stdout=\"\"");
}

//===----------------------------------------------------------------------===//
// Constant folding
//===----------------------------------------------------------------------===//

TEST(Lowering, FoldsLiteralArithmetic) {
  exec::CompileResult R = compileOk(BindingHeavy);
  EXPECT_GT(R.Lowering.ConstFolds, 0u); // the `2 + 3` argument
}

TEST(Lowering, FoldingPreservesWraparound) {
  // Folding mirrors evaluator semantics, including unsigned wraparound.
  const char *Src = R"(
#include <stdio.h>
int main(void) {
  printf("%u\n", 4294967295u + 1u);
  return 0;
}
)";
  exec::Outcome O = exec::runOnce(compileOk(Src).Prog, exec::RunOptions());
  EXPECT_EQ(O.str(), "exit(0) stdout=\"0\n\"");
}

TEST(Lowering, DivisionByZeroIsLeftForTheDynamics) {
  // Anything the evaluator diagnoses must stay unfolded so the dynamic
  // error (UB) still fires.
  const char *Src = "int main(void){ int z = 0; return 1 / z; }";
  exec::Outcome O = exec::runOnce(compileOk(Src).Prog, exec::RunOptions());
  EXPECT_EQ(O.str(), "undef[Division_by_zero] stdout=\"\"");
}

//===----------------------------------------------------------------------===//
// Constant interning
//===----------------------------------------------------------------------===//

TEST(Lowering, InternsRepeatedConstants) {
  const char *Src = R"(
int main(void) {
  int a = 42, b = 42, c = 42, d = 42;
  return (a + b + c + d) / 42 - 4;
}
)";
  exec::CompileResult R = compileOk(Src);
  EXPECT_GT(R.Lowering.ConstsInterned, 0u);
  EXPECT_GT(R.Lowering.PoolSize, 0u);
  // Deduplication: strictly fewer distinct pooled constants than pooled
  // occurrences.
  EXPECT_LT(R.Lowering.PoolSize, R.Lowering.ConstsInterned);
  exec::RunOptions Opts;
  EXPECT_EQ(exec::runOnce(R.Prog, Opts).ExitCode, 0);
}

//===----------------------------------------------------------------------===//
// ValueOnly marking (the evalPure fast-path eligibility proof)
//===----------------------------------------------------------------------===//

TEST(Lowering, MarksPureNodes) {
  EXPECT_GT(compileOk(BindingHeavy).Lowering.PureNodes, 0u);
}

//===----------------------------------------------------------------------===//
// Outcome sweep: the real suites against the recorded explorations
//===----------------------------------------------------------------------===//

namespace {

/// The reproducers in tests/corpus, as (file name, source) pairs.
std::vector<std::pair<std::string, std::string>> corpusSources() {
  namespace fs = std::filesystem;
  fs::path Dir = fs::path(CERB_SOURCE_DIR) / "tests" / "corpus";
  std::vector<std::pair<std::string, std::string>> Out;
  for (const auto &Ent : fs::directory_iterator(Dir)) {
    if (Ent.path().extension() != ".c")
      continue;
    std::ifstream In(Ent.path());
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Out.emplace_back(Ent.path().filename().string(), Buf.str());
  }
  return Out;
}

/// One exploration's golden record: "paths N", then the sorted distinct
/// outcomes (Outcome::str() carries no step counts, so the sorted set needs
/// no further normalization). A compile error is a one-line record.
std::vector<std::string> explore(const std::string &Src,
                                 const mem::MemoryPolicy &Policy) {
  auto C = exec::compileWithStats(Src);
  if (!C)
    return {"compile-error(" + C.error().str() + ")"};
  exec::RunOptions Opts;
  Opts.Policy = Policy;
  Opts.MaxPaths = 256;
  exec::ExhaustiveResult R = exec::runExhaustive(C->Prog, Opts);
  std::vector<std::string> Rec{"paths " + std::to_string(R.PathsExplored)};
  for (const exec::Outcome &O : R.Distinct)
    Rec.push_back(O.str());
  std::sort(Rec.begin() + 1, Rec.end());
  return Rec;
}

const char *const GoldenDescription =
    "# Golden exhaustive explorations (at most 256 paths) of the de facto\n"
    "# suite under defacto and of tests/corpus/*.c under every preset. One\n"
    "# [suite/test policy] or [corpus/file policy] record per exploration:\n"
    "# \"paths N\", then the sorted distinct Outcome::str() strings,\n"
    "# \\n-escaped.\n";

} // namespace

TEST(LoweringDifferential, DefactoSuiteIsEquivalent) {
  const mem::MemoryPolicy Policy = mem::MemoryPolicy::defacto();
  golden::GoldenMap Actual;
  for (const defacto::TestCase &T : defacto::testSuite())
    Actual["suite/" + T.Name + " " + Policy.Name] = explore(T.Source, Policy);
  golden::checkGoldens("lowering_outcomes.golden", "cerb_lowering_tests",
                       GoldenDescription, Actual, "suite/");
}

TEST(LoweringDifferential, CorpusIsEquivalentUnderEveryPolicy) {
  auto Corpus = corpusSources();
  golden::GoldenMap Actual;
  for (const auto &[Name, Src] : Corpus)
    for (const mem::MemoryPolicy &P : mem::MemoryPolicy::allPresets())
      Actual["corpus/" + Name + " " + P.Name] = explore(Src, P);
  EXPECT_GT(Corpus.size(), 5u) << "corpus directory unexpectedly empty";
  golden::checkGoldens("lowering_outcomes.golden", "cerb_lowering_tests",
                       GoldenDescription, Actual, "corpus/");
}

//===----------------------------------------------------------------------===//
// Effect bits: core::lower sets every node's HasEffectsCache, so the
// dynamics never writes to a shared program
//===----------------------------------------------------------------------===//

namespace {

struct BitCounts {
  unsigned Nodes = 0, Unset = 0, Wrong = 0;
};

/// Checks each node of \p E against \p Fresh, its cloneExpr copy, whose
/// caches start unset: the bit must be set and equal hasEffects(Fresh).
void checkBits(const core::Expr &E, const core::Expr &Fresh, BitCounts &C) {
  ++C.Nodes;
  if (E.HasEffectsCache < 0)
    ++C.Unset;
  else if ((E.HasEffectsCache != 0) != core::hasEffects(Fresh))
    ++C.Wrong;
  for (size_t I = 0; I < E.kids().size(); ++I)
    checkBits(*E.kids()[I], *Fresh.kids()[I], C);
  for (size_t I = 0; I < E.branches().size(); ++I)
    checkBits(*E.branches()[I].Body, *Fresh.branches()[I].Body, C);
}

/// Compiles \p Src and checks every node's bit. Returns the nodes checked
/// (0 when the source is a static error).
unsigned expectEffectBits(const std::string &Name, const std::string &Src) {
  auto R = exec::compileWithStats(Src);
  if (!R)
    return 0;
  BitCounts C;
  core::ExprArena Copies;
  auto Check = [&](const core::Expr &Root) {
    checkBits(Root, *core::cloneExpr(Copies, Root), C);
  };
  for (const auto &[Id, Proc] : R->Prog.Procs)
    Check(*Proc.Body);
  for (const core::CoreGlobal &G : R->Prog.Globals)
    if (G.Init)
      Check(*G.Init);
  EXPECT_EQ(C.Unset, 0u) << Name;
  EXPECT_EQ(C.Wrong, 0u) << Name;
  return C.Nodes;
}

} // namespace

TEST(LoweringEffects, DefactoSuiteBitsAreSetAndExact) {
  unsigned Nodes = 0;
  for (const defacto::TestCase &T : defacto::testSuite())
    Nodes += expectEffectBits(T.Name, T.Source);
  EXPECT_GT(Nodes, 10000u);
}

TEST(LoweringEffects, CorpusBitsAreSetAndExact) {
  unsigned Nodes = 0;
  for (const auto &[Name, Src] : corpusSources())
    Nodes += expectEffectBits(Name, Src);
  // The corpus compiles to 758 nodes; the floor only guards against an
  // empty or truncated sweep.
  EXPECT_GT(Nodes, 500u);
}
