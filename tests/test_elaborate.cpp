//===-- tests/test_elaborate.cpp - structure of the elaboration -----------===//
//
// White-box tests: the Core the elaboration produces must have the §5
// structure (sequencing forms, polarities, scope annotations, save/run
// loops), independent of its dynamic behaviour.
//
//===----------------------------------------------------------------------===//

#include "core/Core.h"
#include "exec/Pipeline.h"
#include "support/DepthGuard.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

using namespace cerb;
using namespace cerb::core;

namespace {

CoreProgram compileOk(const char *Src) {
  auto P = exec::compile(Src);
  EXPECT_TRUE(static_cast<bool>(P)) << (P ? "" : P.error().str());
  return P ? std::move(*P) : CoreProgram{};
}

const Expr &mainBody(const CoreProgram &P) {
  const CoreProc *Proc = P.findProc(P.MainProc);
  EXPECT_NE(Proc, nullptr);
  return *Proc->Body;
}

unsigned countKind(const Expr &E, ExprKind K) {
  unsigned N = E.K == K ? 1 : 0;
  for (const Expr *Kid : E.kids())
    N += countKind(*Kid, K);
  for (const auto &[Pat, Body] : E.branches())
    N += countKind(*Body, K);
  return N;
}

unsigned countActions(const Expr &E, ActionKind A,
                      int NegPolarity /* -1 = any */) {
  unsigned N = 0;
  if (E.K == ExprKind::Action && E.Act == A &&
      (NegPolarity < 0 || E.NegPolarity == (NegPolarity == 1)))
    ++N;
  for (const Expr *Kid : E.kids())
    N += countActions(*Kid, A, NegPolarity);
  for (const auto &[Pat, Body] : E.branches())
    N += countActions(*Body, A, NegPolarity);
  return N;
}

} // namespace

TEST(Elaborate, AssignmentStoreHasNegativePolarity) {
  // §5.6: the assigning store is a side effect outside the value
  // computation — negative polarity.
  CoreProgram P = compileOk("int x; int main(void){ x = 1; return 0; }");
  const Expr &B = mainBody(P);
  EXPECT_EQ(countActions(B, ActionKind::Store, /*Neg=*/1), 1u);
}

TEST(Elaborate, OperandsAreUnseqUnderLetWeak) {
  CoreProgram P =
      compileOk("int a, b; int main(void){ return a + b; }");
  const Expr &B = mainBody(P);
  EXPECT_GE(countKind(B, ExprKind::Unseq), 1u);
  EXPECT_GE(countKind(B, ExprKind::LetWeak), 1u);
}

TEST(Elaborate, PostfixIncrementUsesLetAtomic) {
  CoreProgram P = compileOk("int x; int main(void){ x++; return 0; }");
  EXPECT_EQ(countKind(mainBody(P), ExprKind::LetAtomic), 1u);
  // Prefix increment does not need atomicity (its value is the new value).
  CoreProgram P2 = compileOk("int x; int main(void){ ++x; return 0; }");
  EXPECT_EQ(countKind(mainBody(P2), ExprKind::LetAtomic), 0u);
}

TEST(Elaborate, CallsAreWrappedInIndet) {
  CoreProgram P = compileOk(
      "int f(void){ return 1; } int main(void){ return f() + f(); }");
  EXPECT_EQ(countKind(mainBody(P), ExprKind::Indet), 2u);
}

TEST(Elaborate, IndetNumberingIsPerProgram) {
  // indet[n] counts from 1 in each program, so a source prints the same
  // Core however many programs the process compiled before it.
  const char *Src =
      "int f(void){ return 1; } int main(void){ return f() + f(); }";
  std::string First = printProgram(compileOk(Src));
  EXPECT_EQ(printProgram(compileOk(Src)), First);
  EXPECT_NE(First.find("indet[1]("), std::string::npos) << First;
  EXPECT_NE(First.find("indet[2]("), std::string::npos) << First;
}

TEST(Elaborate, FlatInputCountsTowardsTheCoreDepthLimit) {
  // Each statement of a block nests the rest of it a Core level deeper,
  // and each initialized scalar and each parameter does too. Past
  // MaxCoreDepth elaboration refuses, before its recursion over the block
  // or the Core tree (freed recursively) grows with the input.
  auto Repeat = [](const std::string &S, unsigned N) {
    std::string Out;
    for (unsigned I = 0; I < N; ++I)
      Out += S;
    return Out;
  };
  std::string Params = "int p0";
  for (unsigned I = 1; I < 2 * MaxCoreDepth; ++I)
    Params += ", int p" + std::to_string(I);
  const std::vector<std::pair<std::string, std::string>> Cases = {
      {"block", "int main(void) { int x = 0; " +
                    Repeat("x; ", 2 * MaxCoreDepth) + "return 0; }"},
      {"nested blocks", "int main(void) { int x = 0; " +
                            Repeat("{ " + Repeat("x; ", 3000), 6) +
                            Repeat("} ", 6) + "return 0; }"},
      {"initializer", "int a[" + std::to_string(2 * MaxCoreDepth) + "] = {" +
                          Repeat("0, ", 2 * MaxCoreDepth) +
                          "}; int main(void) { return a[0]; }"},
      {"parameters",
       "int f(" + Params + ") { return p0; } int main(void) { return 0; }"},
      {"half a block", "int main(void) { int x = 0; " +
                           Repeat("x; ", MaxCoreDepth / 2) + "return 0; }"},
  };
  std::vector<std::string> Results(Cases.size());
  {
    // The pool thread's stack is the one the limits are sized to.
    ThreadPool Pool(1);
    for (size_t I = 0; I < Cases.size(); ++I)
      Pool.submit([&, I] {
        auto P = exec::compile(Cases[I].second);
        Results[I] = P ? "compiled" : P.error().str();
      });
    Pool.wait();
  }
  for (size_t I = 0; I + 1 < Cases.size(); ++I)
    EXPECT_NE(
        Results[I].find("elaborate: nesting deeper than 16384 levels"),
        std::string::npos)
        << Cases[I].first << ": " << Results[I];
  EXPECT_EQ(Results.back(), "compiled");
}

TEST(Elaborate, WhileBecomesSaveRun) {
  CoreProgram P = compileOk(R"(
int main(void) {
  int i = 0;
  while (i < 3) i++;
  return i;
}
)");
  const Expr &B = mainBody(P);
  // One save for the loop head, one for the break exit.
  EXPECT_EQ(countKind(B, ExprKind::Save), 2u);
  EXPECT_GE(countKind(B, ExprKind::Run), 1u);
}

TEST(Elaborate, SwitchSavesPerLabelPlusBreak) {
  CoreProgram P = compileOk(R"(
int main(void) {
  switch (1) {
  case 0: return 1;
  case 1: return 0;
  default: return 2;
  }
}
)");
  // saves: case 0, case 1, default, and the break exit.
  EXPECT_EQ(countKind(mainBody(P), ExprKind::Save), 4u);
}

TEST(Elaborate, LocalsCreateAndKill) {
  CoreProgram P = compileOk(R"(
int main(void) {
  int a = 1;
  {
    int b = 2;
    a += b;
  }
  return a;
}
)");
  const Expr &B = mainBody(P);
  EXPECT_EQ(countActions(B, ActionKind::Create, -1), 2u);
  EXPECT_EQ(countActions(B, ActionKind::Kill, -1), 2u);
}

TEST(Elaborate, ScopeAnnotationsOnLabels) {
  CoreProgram P = compileOk(R"(
int main(void) {
  int a = 1;
  {
    int b = 2;
  inner:
    b++;
    if (b < 4) goto inner;
  }
  return a;
}
)");
  // The save for `inner:` must list both a and b as live objects (§5.8).
  bool Checked = false;
  std::function<void(const Expr &)> Walk = [&](const Expr &E) {
    if (E.K == ExprKind::Save &&
        P.Syms.nameOf(E.Sym).rfind("inner", 0) == 0) {
      EXPECT_EQ(E.scope().size(), 2u);
      Checked = true;
    }
    for (const Expr *K : E.kids())
      Walk(*K);
    for (const auto &[Pat, Body] : E.branches())
      Walk(*Body);
  };
  Walk(mainBody(P));
  EXPECT_TRUE(Checked);
}

TEST(Elaborate, MallocBecomesBuiltinCallNotAction) {
  // malloc is a library builtin (ProcCall), not a Core alloc action — the
  // evaluator routes it through the model.
  CoreProgram P = compileOk(R"(
#include <stdlib.h>
int main(void) {
  void *p = malloc(4);
  free(p);
  return 0;
}
)");
  EXPECT_EQ(countActions(mainBody(P), ActionKind::Alloc, -1), 0u);
  EXPECT_GE(countKind(mainBody(P), ExprKind::ProcCall), 2u);
}

TEST(Elaborate, ShortCircuitHasNoUnseq) {
  // && evaluates strictly left-to-right: no unseq between its operands.
  CoreProgram P = compileOk(
      "int a, b; int main(void){ return a && b; }");
  EXPECT_EQ(countKind(mainBody(P), ExprKind::Unseq), 0u);
}

TEST(Elaborate, ConditionalElaboratesBothArms) {
  CoreProgram P = compileOk(
      "int c; int main(void){ return c ? 1 : 2; }");
  // Both arms are present in the Core (an EIf), chosen dynamically.
  EXPECT_GE(countKind(mainBody(P), ExprKind::EIf), 1u);
}

TEST(Elaborate, GlobalsCarryReadOnlyOnlyForLiterals) {
  CoreProgram P = compileOk(R"(
int g = 1;
int main(void) {
  const char *s = "lit";
  return g;
}
)");
  unsigned ReadOnly = 0, Writable = 0;
  for (const CoreGlobal &G : P.Globals)
    (G.ReadOnly ? ReadOnly : Writable)++;
  EXPECT_EQ(ReadOnly, 1u);  // the literal
  EXPECT_EQ(Writable, 1u);  // g
}

TEST(Elaborate, EveryProcEndsInReturn) {
  CoreProgram P = compileOk(R"(
void v(void) { }
int f(int x) { if (x) return 1; return 0; }
int main(void) { v(); return f(0); }
)");
  for (const auto &[Id, Proc] : P.Procs)
    EXPECT_GE(countKind(*Proc.Body, ExprKind::Ret), 1u)
        << P.Syms.nameOf(Proc.Name);
}

TEST(Elaborate, RewritePreservesBehaviour) {
  // The Core-to-Core rewrite must not change observable behaviour: run
  // the same program before and after (compile() already rewrites; here
  // we just pin the composite).
  const char *Src = R"(
#include <stdio.h>
int main(void) {
  int i, acc = 0;
  for (i = 0; i < 5; i++)
    acc = acc * 2 + i;
  printf("%d\n", acc);
  return 0;
}
)";
  auto R = exec::evaluateOnce(Src);
  ASSERT_TRUE(static_cast<bool>(R));
  EXPECT_EQ(R->Stdout, "26\n");
}
