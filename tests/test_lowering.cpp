//===-- tests/test_lowering.cpp - Core lowering pass tests ----------------===//
//
// Units for the core::Lowering pass (slot resolution, constant folding,
// constant interning, ValueOnly marking, idempotence) plus the
// differential sweep: every de facto suite test and every corpus
// reproducer is compiled twice — FrontendOptions::CoreLower on and off,
// the same toggle CERB_NO_LOWERING=1 flips — and the exhaustive outcome
// sets must be identical. Outcome::str() carries no step counts or
// lower.* counters (those only surface in trace spans), so the
// comparison needs no normalization beyond sorting the distinct set.
// The same programs, both ways, must leave the compile with every
// node's effect bit set and exact (the compile-once/run-many contract).
//
// Label: `lowering` (also tier1); scripts/ci.sh re-runs the label so a
// registration slip cannot silently drop the equivalence contract.
//
//===----------------------------------------------------------------------===//

#include "core/Lowering.h"
#include "defacto/Suite.h"
#include "exec/Driver.h"
#include "exec/Pipeline.h"

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

exec::CompileResult compileWith(std::string_view Src, bool Lower) {
  exec::FrontendOptions FE;
  FE.CoreLower = Lower;
  auto R = exec::compileWithStats(Src, FE);
  EXPECT_TRUE(static_cast<bool>(R)) << (R ? "" : R.error().str());
  return std::move(*R);
}

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
  exec::CompileResult R = compileWith(BindingHeavy, true);
  EXPECT_TRUE(R.Prog.Lowered);
  EXPECT_GT(R.Lowering.SlotsAssigned, 0u);
  EXPECT_EQ(R.Prog.NumSlots, R.Lowering.SlotsAssigned);
}

TEST(Lowering, UnloweredCompileLeavesProgramUntouched) {
  exec::CompileResult R = compileWith(BindingHeavy, false);
  EXPECT_FALSE(R.Prog.Lowered);
  EXPECT_EQ(R.Lowering.SlotsAssigned, 0u);
  EXPECT_EQ(R.Prog.NumSlots, 0u);
}

TEST(Lowering, SlotPathComputesTheSameExit) {
  exec::RunOptions Opts;
  exec::Outcome L = exec::runOnce(compileWith(BindingHeavy, true).Prog, Opts);
  exec::Outcome T = exec::runOnce(compileWith(BindingHeavy, false).Prog, Opts);
  EXPECT_EQ(L.str(), T.str());
}

TEST(Lowering, IdempotentSecondLowerIsANoOp) {
  exec::CompileResult R = compileWith(BindingHeavy, true);
  unsigned Slots = R.Prog.NumSlots;
  core::LoweringStats Again = core::lower(R.Prog);
  EXPECT_EQ(Again.SlotsAssigned, 0u);
  EXPECT_EQ(R.Prog.NumSlots, Slots);
  exec::RunOptions Opts;
  EXPECT_EQ(exec::runOnce(R.Prog, Opts).str(),
            exec::runOnce(compileWith(BindingHeavy, false).Prog, Opts).str());
}

//===----------------------------------------------------------------------===//
// Constant folding
//===----------------------------------------------------------------------===//

TEST(Lowering, FoldsLiteralArithmetic) {
  exec::CompileResult R = compileWith(BindingHeavy, true);
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
  exec::RunOptions Opts;
  exec::Outcome L = exec::runOnce(compileWith(Src, true).Prog, Opts);
  exec::Outcome T = exec::runOnce(compileWith(Src, false).Prog, Opts);
  EXPECT_EQ(L.str(), T.str());
  EXPECT_EQ(L.Stdout, "0\n");
}

TEST(Lowering, DivisionByZeroIsLeftForTheDynamics) {
  // Anything the evaluator diagnoses must stay unfolded so the dynamic
  // error (UB) still fires on the same path in both variants.
  const char *Src = "int main(void){ int z = 0; return 1 / z; }";
  exec::RunOptions Opts;
  exec::Outcome L = exec::runOnce(compileWith(Src, true).Prog, Opts);
  exec::Outcome T = exec::runOnce(compileWith(Src, false).Prog, Opts);
  EXPECT_EQ(L.Kind, exec::OutcomeKind::Undef) << L.str();
  EXPECT_EQ(L.str(), T.str());
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
  exec::CompileResult R = compileWith(Src, true);
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
  exec::CompileResult R = compileWith(BindingHeavy, true);
  EXPECT_GT(R.Lowering.PureNodes, 0u);
  // An unlowered compile must not mark anything: the flag gates a
  // slot-path-only interpreter.
  EXPECT_EQ(compileWith(BindingHeavy, false).Lowering.PureNodes, 0u);
}

//===----------------------------------------------------------------------===//
// Fingerprints
//===----------------------------------------------------------------------===//

TEST(Lowering, FrontendFingerprintSeparatesTheVariants) {
  exec::FrontendOptions On, Off;
  On.CoreLower = true;
  Off.CoreLower = false;
  EXPECT_NE(On.fingerprint(), Off.fingerprint());
}

//===----------------------------------------------------------------------===//
// Differential sweep: lowered vs tree-walking over the real suites
//===----------------------------------------------------------------------===//

namespace {

/// Sorted multiset of distinct outcomes — the observable result of an
/// exhaustive exploration, independent of path enumeration order.
std::vector<std::string> outcomeSet(const exec::ExhaustiveResult &R) {
  std::vector<std::string> S;
  for (const exec::Outcome &O : R.Distinct)
    S.push_back(O.str());
  std::sort(S.begin(), S.end());
  return S;
}

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

/// Compiles \p Src both ways and expects byte-identical exhaustive
/// reports under \p Policy. Compile errors must agree too.
void expectEquivalent(const std::string &Name, const std::string &Src,
                      const mem::MemoryPolicy &Policy) {
  exec::FrontendOptions On, Off;
  On.CoreLower = true;
  Off.CoreLower = false;
  auto L = exec::compileWithStats(Src, On);
  auto T = exec::compileWithStats(Src, Off);
  ASSERT_EQ(static_cast<bool>(L), static_cast<bool>(T))
      << Name << ": one variant failed to compile";
  if (!L) {
    EXPECT_EQ(L.error().str(), T.error().str()) << Name;
    return;
  }
  exec::RunOptions Opts;
  Opts.Policy = Policy;
  Opts.MaxPaths = 256;
  exec::ExhaustiveResult RL = exec::runExhaustive(L->Prog, Opts);
  exec::ExhaustiveResult RT = exec::runExhaustive(T->Prog, Opts);
  EXPECT_EQ(RL.PathsExplored, RT.PathsExplored) << Name;
  EXPECT_EQ(outcomeSet(RL), outcomeSet(RT)) << Name;
}

} // namespace

TEST(LoweringDifferential, DefactoSuiteIsEquivalent) {
  const mem::MemoryPolicy Policy = mem::MemoryPolicy::defacto();
  for (const defacto::TestCase &T : defacto::testSuite())
    expectEquivalent(T.Name, T.Source, Policy);
}

TEST(LoweringDifferential, CorpusIsEquivalentUnderEveryPolicy) {
  auto Corpus = corpusSources();
  for (const auto &[Name, Src] : Corpus)
    for (const mem::MemoryPolicy &P : mem::MemoryPolicy::allPresets())
      expectEquivalent(Name + "/" + P.Name, Src, P);
  EXPECT_GT(Corpus.size(), 5u) << "corpus directory unexpectedly empty";
}

//===----------------------------------------------------------------------===//
// Effect bits: every node's HasEffectsCache is set by the compile (lowered
// programs by core::lower, unlowered ones by warmDynamicsCaches), so the
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
  for (size_t I = 0; I < E.Kids.size(); ++I)
    checkBits(*E.Kids[I], *Fresh.Kids[I], C);
  for (size_t I = 0; I < E.Branches.size(); ++I)
    checkBits(*E.Branches[I].second, *Fresh.Branches[I].second, C);
}

/// Compiles \p Src with lowering on and off and checks every node's bit.
/// Returns the nodes checked (0 when the source is a static error).
unsigned expectEffectBits(const std::string &Name, const std::string &Src) {
  unsigned Nodes = 0;
  for (bool Lower : {true, false}) {
    exec::FrontendOptions FE;
    FE.CoreLower = Lower;
    auto R = exec::compileWithStats(Src, FE);
    if (!R)
      continue;
    BitCounts C;
    auto Check = [&](const core::Expr &Root) {
      core::ExprPtr Fresh = core::cloneExpr(Root);
      checkBits(Root, *Fresh, C);
    };
    for (const auto &[Id, Proc] : R->Prog.Procs)
      Check(*Proc.Body);
    for (const core::CoreGlobal &G : R->Prog.Globals)
      if (G.Init)
        Check(*G.Init);
    EXPECT_EQ(C.Unset, 0u) << Name << (Lower ? " (lowered)" : "");
    EXPECT_EQ(C.Wrong, 0u) << Name << (Lower ? " (lowered)" : "");
    Nodes += C.Nodes;
  }
  return Nodes;
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
  EXPECT_GT(Nodes, 1000u);
}
