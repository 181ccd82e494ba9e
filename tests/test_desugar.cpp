//===-- tests/test_desugar.cpp - Cabs_to_Ail desugaring unit tests --------===//

#include "ail/Desugar.h"
#include "cabs/Parser.h"

#include <gtest/gtest.h>

using namespace cerb;
using namespace cerb::ail;

namespace {

AilProgram desugarOk(std::string_view Src) {
  auto U = cabs::parseTranslationUnit(Src);
  EXPECT_TRUE(static_cast<bool>(U)) << (U ? "" : U.error().str());
  auto A = desugar(*U);
  EXPECT_TRUE(static_cast<bool>(A)) << (A ? "" : A.error().str());
  return A ? std::move(*A) : AilProgram{};
}

StaticError desugarErr(std::string_view Src) {
  auto U = cabs::parseTranslationUnit(Src);
  EXPECT_TRUE(static_cast<bool>(U)) << (U ? "" : U.error().str());
  auto A = desugar(*U);
  EXPECT_FALSE(static_cast<bool>(A)) << "unexpectedly desugared";
  return A ? StaticError{} : A.error();
}

/// Counts statements of a given kind in a subtree.
unsigned count(const AilStmt &S, AilStmtKind K) {
  unsigned N = S.Kind == K ? 1 : 0;
  for (const AilStmtPtr &Sub : S.Body)
    N += count(*Sub, K);
  return N;
}

const AilFunction &mainOf(const AilProgram &P) {
  const AilFunction *F = P.findFunction(P.Main);
  EXPECT_NE(F, nullptr);
  return *F;
}

} // namespace

TEST(Desugar, ForBecomesWhile) {
  AilProgram P = desugarOk(R"(
int main(void) {
  int i;
  for (i = 0; i < 3; i++) { }
  return 0;
}
)");
  const AilStmt &Body = *mainOf(P).Body;
  EXPECT_EQ(count(Body, AilStmtKind::While), 1u);
  // The for-condition survives as the while condition; the step becomes a
  // trailing statement with a fresh label for `continue`.
  EXPECT_GE(count(Body, AilStmtKind::Label), 1u);
}

TEST(Desugar, DoWhileBecomesWhileOne) {
  AilProgram P = desugarOk(R"(
int main(void) {
  int i = 0;
  do { i++; } while (i < 2);
  return i;
}
)");
  const AilStmt &Body = *mainOf(P).Body;
  EXPECT_EQ(count(Body, AilStmtKind::While), 1u);
  // do-while exits via `if (!cond) break` at the loop tail.
  EXPECT_GE(count(Body, AilStmtKind::Break), 1u);
}

TEST(Desugar, ContinueInForRedirectsToFreshLabel) {
  AilProgram P = desugarOk(R"(
int main(void) {
  int i;
  for (i = 0; i < 5; i++) {
    if (i == 1) continue;
  }
  return 0;
}
)");
  const AilStmt &Body = *mainOf(P).Body;
  // The continue became a goto (to the step label), not a Continue.
  EXPECT_EQ(count(Body, AilStmtKind::Continue), 0u);
  EXPECT_GE(count(Body, AilStmtKind::Goto), 1u);
}

TEST(Desugar, ContinueInPlainWhileIsKept) {
  AilProgram P = desugarOk(R"(
int main(void) {
  int i = 0;
  while (i < 5) {
    i++;
    if (i == 1) continue;
  }
  return 0;
}
)");
  EXPECT_EQ(count(*mainOf(P).Body, AilStmtKind::Continue), 1u);
}

TEST(Desugar, NestedLoopContinueBindsInner) {
  AilProgram P = desugarOk(R"(
int main(void) {
  int i = 0, j;
  while (i < 2) {
    i++;
    for (j = 0; j < 2; j++) {
      if (j) continue; /* -> goto (for's label) */
    }
    if (i) continue;   /* -> plain Continue (while) */
  }
  return 0;
}
)");
  const AilStmt &Body = *mainOf(P).Body;
  EXPECT_EQ(count(Body, AilStmtKind::Continue), 1u);
  EXPECT_GE(count(Body, AilStmtKind::Goto), 1u);
}

TEST(Desugar, EnumConstantsAreFolded) {
  AilProgram P = desugarOk(R"(
enum e { A = 3, B, C = 10, D };
int main(void) { return B + D; }
)");
  // No identifiers left for B/D: they are IntConsts 4 and 11.
  const AilStmt &Body = *mainOf(P).Body;
  const AilStmt *Ret = nullptr;
  std::function<void(const AilStmt &)> Find = [&](const AilStmt &S) {
    if (S.Kind == AilStmtKind::Return)
      Ret = &S;
    for (const AilStmtPtr &Sub : S.Body)
      Find(*Sub);
  };
  Find(Body);
  ASSERT_NE(Ret, nullptr);
  ASSERT_EQ(Ret->E->Kind, AilExprKind::Binary);
  EXPECT_EQ(Ret->E->Kids[0]->Kind, AilExprKind::IntConst);
  EXPECT_EQ(Ret->E->Kids[0]->IntValue, Int128(4));
  EXPECT_EQ(Ret->E->Kids[1]->IntValue, Int128(11));
}

TEST(Desugar, StringLiteralsAreHoistedToGlobals) {
  AilProgram P = desugarOk(R"(
int main(void) {
  const char *s = "hi";
  return 0;
}
)");
  bool Found = false;
  for (const AilGlobal &G : P.Globals)
    if (G.IsStringLiteral) {
      Found = true;
      ASSERT_TRUE(G.Ty.isArray());
      EXPECT_EQ(*G.Ty.arraySize(), 3u); // "hi" + NUL
    }
  EXPECT_TRUE(Found);
}

TEST(Desugar, CharArrayInitFromStringStaysInPlace) {
  AilProgram P = desugarOk(R"(
int main(void) {
  char buf[] = "abc";
  return (int)sizeof buf;
}
)");
  // No hoisted string-literal global: the bytes initialise buf directly.
  for (const AilGlobal &G : P.Globals)
    EXPECT_FALSE(G.IsStringLiteral);
}

TEST(Desugar, ArrowDesugarsToDerefMember) {
  AilProgram P = desugarOk(R"(
struct s { int x; };
int f(struct s *p) { return p->x; }
int main(void) { return 0; }
)");
  (void)P; // structural success is the assertion (p->x became (*p).x)
}

TEST(Desugar, IndexDesugarsToDerefAdd) {
  AilProgram P = desugarOk(R"(
int main(void) {
  int a[3];
  a[1] = 2;
  return a[1];
}
)");
  (void)P;
}

TEST(Desugar, BlockScopeStaticBecomesGlobal) {
  AilProgram P = desugarOk(R"(
int f(void) {
  static int hits;
  hits++;
  return hits;
}
int main(void) { return f(); }
)");
  bool Found = false;
  for (const AilGlobal &G : P.Globals)
    if (P.Syms.nameOf(G.Sym).rfind("hits", 0) == 0)
      Found = true;
  EXPECT_TRUE(Found);
}

TEST(Desugar, ShadowingResolvesToInnermost) {
  AilProgram P = desugarOk(R"(
int x = 1;
int main(void) {
  int x = 2;
  {
    int x = 3;
    if (x != 3) return 1;
  }
  return x == 2 ? 0 : 1;
}
)");
  // Three distinct symbols named x.
  unsigned Xs = 0;
  for (size_t I = 0; I < P.Syms.size(); ++I)
    if (P.Syms.nameOf(ail::Symbol{static_cast<unsigned>(I)}) == "x")
      ++Xs;
  EXPECT_EQ(Xs, 3u);
}

TEST(Desugar, ArraySizeFromInitialiser) {
  AilProgram P = desugarOk("int a[] = {1, 2, 3, 4};\nint main(void){return 0;}");
  ASSERT_TRUE(P.Globals[0].Ty.isArray());
  EXPECT_EQ(*P.Globals[0].Ty.arraySize(), 4u);
}

TEST(Desugar, ConstantExpressionsInArrayBounds) {
  AilProgram P = desugarOk(R"(
enum { N = 3 };
int a[N * 2 + 1];
int main(void) { return 0; }
)");
  EXPECT_EQ(*P.Globals[0].Ty.arraySize(), 7u);
}

TEST(Desugar, ErrorsCiteClauses) {
  EXPECT_EQ(desugarErr("int a[0]; int main(void){return 0;}").IsoClause,
            "6.7.6.2p1");
  EXPECT_EQ(desugarErr(R"(
int main(void) {
  goto nowhere;
  return 0;
}
)")
                .IsoClause,
            "6.8.6.1p1");
  EXPECT_EQ(desugarErr(R"(
struct s { int x; };
struct s { int y; };
int main(void) { return 0; }
)")
                .IsoClause,
            "6.7.2.3p1");
  // A tag redefined inside its own member list, and a struct containing
  // itself, would each give the type no finite size.
  EXPECT_EQ(desugarErr(R"(
struct s { struct s { int x; } y; };
int main(void) { return 0; }
)")
                .IsoClause,
            "6.7.2.3p1");
  EXPECT_EQ(desugarErr(R"(
struct s { struct s y[2]; };
struct s v;
int main(void) { return 0; }
)")
                .IsoClause,
            "6.7.2.1p3");
}

TEST(Desugar, DuplicateLabelRejected) {
  auto E = desugarErr(R"(
int main(void) {
l: ;
l: ;
  return 0;
}
)");
  EXPECT_EQ(E.IsoClause, "6.8.1p3");
}

TEST(Desugar, TypedefChains) {
  AilProgram P = desugarOk(R"(
typedef int base;
typedef base *baseptr;
typedef baseptr table[4];
table t;
int main(void) { return 0; }
)");
  // t: array[4] of pointer to int
  ASSERT_TRUE(P.Globals[0].Ty.isArray());
  EXPECT_TRUE(P.Globals[0].Ty.element().isPointer());
  EXPECT_TRUE(P.Globals[0].Ty.element().pointee().isInteger());
}

TEST(Desugar, BuiltinsAreDeclared) {
  AilProgram P = desugarOk("int main(void){ return 0; }");
  EXPECT_FALSE(P.Builtins.empty());
  unsigned Printfs = 0;
  for (const auto &[Id, B] : P.Builtins)
    if (B == Builtin::Printf)
      ++Printfs;
  EXPECT_EQ(Printfs, 1u);
}
