//===-- tests/test_eval.cpp - end-to-end C semantics tests ----------------===//
//
// Integration tests: C source in, observable behaviour out, through the
// whole pipeline under the candidate de facto model.
//
//===----------------------------------------------------------------------===//

#include "exec/Pipeline.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

using namespace cerb;
using namespace cerb::exec;

namespace {

Outcome run(std::string_view Src) {
  auto R = evaluateOnce(Src);
  EXPECT_TRUE(static_cast<bool>(R)) << (R ? "" : R.error().str());
  if (!R)
    return Outcome{};
  return *R;
}

void expectOut(std::string_view Src, std::string_view Stdout,
               int Exit = 0) {
  Outcome O = run(Src);
  EXPECT_EQ(O.Kind, OutcomeKind::Exit) << O.str();
  EXPECT_EQ(O.Stdout, Stdout);
  EXPECT_EQ(O.ExitCode, Exit);
}

void expectExit(std::string_view Src, int Exit) {
  Outcome O = run(Src);
  EXPECT_EQ(O.Kind, OutcomeKind::Exit) << O.str();
  EXPECT_EQ(O.ExitCode, Exit);
}

void expectUB(std::string_view Src, mem::UBKind K) {
  Outcome O = run(Src);
  EXPECT_EQ(O.Kind, OutcomeKind::Undef) << O.str();
  EXPECT_EQ(O.UB.Kind, K) << O.UB.str();
}

void expectCompileError(std::string_view Src, std::string_view Fragment) {
  auto R = evaluateOnce(Src);
  ASSERT_FALSE(static_cast<bool>(R)) << "unexpectedly compiled";
  EXPECT_NE(R.error().str().find(Fragment), std::string::npos)
      << R.error().str();
}

} // namespace

//===----------------------------------------------------------------------===//
// Arithmetic and conversions (§5.5)
//===----------------------------------------------------------------------===//

TEST(EvalArith, BasicInteger) {
  expectExit("int main(void){ return 2 + 3 * 4; }", 14);
  expectExit("int main(void){ return (2 + 3) * 4; }", 20);
  expectExit("int main(void){ return 17 / 5; }", 3);
  expectExit("int main(void){ return 17 % 5; }", 2);
  expectExit("int main(void){ return -17 / 5; }", -3); // truncation (6.5.5)
  expectExit("int main(void){ return -17 % 5; }", -2);
}

TEST(EvalArith, MinusOneLessThanUnsignedZero) {
  // §5.5: -1 < (unsigned int)0 evaluates to 0.
  expectExit("int main(void){ return -1 < (unsigned int)0; }", 0);
  expectExit("int main(void){ return -1 < 0; }", 1);
}

TEST(EvalArith, UnsignedWraparound) {
  expectOut(R"(
#include <stdio.h>
int main(void) {
  unsigned int x = 0u;
  x = x - 1u;
  printf("%u\n", x);
  return 0;
}
)",
            "4294967295\n");
}

TEST(EvalArith, SignedOverflowIsUB) {
  expectUB("int main(void){ int x = 2147483647; return x + 1; }",
           mem::UBKind::ExceptionalCondition);
  expectUB("int main(void){ int x = -2147483647 - 1; return -x; }",
           mem::UBKind::ExceptionalCondition);
  expectUB("int main(void){ int x = -2147483647 - 1; return x / -1; }",
           mem::UBKind::ExceptionalCondition);
}

TEST(EvalArith, DivisionByZeroIsUB) {
  expectUB("int main(void){ int z = 0; return 1 / z; }",
           mem::UBKind::DivisionByZero);
  expectUB("int main(void){ int z = 0; return 1 % z; }",
           mem::UBKind::DivisionByZero);
}

TEST(EvalArith, ShiftUBPerFig3) {
  expectUB("int main(void){ int s = 33; return 1 << s; }",
           mem::UBKind::ShiftTooLarge);
  expectUB("int main(void){ int s = -1; return 1 << s; }",
           mem::UBKind::NegativeShift);
  expectUB("int main(void){ int x = -1; return x << 1; }",
           mem::UBKind::ExceptionalCondition); // negative E1 (6.5.7p4)
  expectExit("int main(void){ return 5 << 2; }", 20);
  // Unsigned left shift reduces modulo 2^N.
  expectOut(R"(
#include <stdio.h>
int main(void){ unsigned x = 3u; printf("%u\n", x << 31); return 0; }
)",
            "2147483648\n");
}

TEST(EvalArith, ArithmeticRightShiftOfNegative) {
  // Impl-defined; ours is the universal arithmetic shift.
  expectExit("int main(void){ int x = -8; return x >> 1; }", -4);
  expectExit("int main(void){ int x = -7; return x >> 1; }", -4); // floor
}

TEST(EvalArith, BitwiseOps) {
  expectExit("int main(void){ return (0xF0 & 0x3C) | (1 ^ 3); }",
             0x30 | 2);
  expectExit("int main(void){ return ~0 == -1; }", 1);
  expectOut(R"(
#include <stdio.h>
int main(void){ unsigned char c = 200; printf("%d\n", (unsigned char)~c);
  return 0; }
)",
            "55\n");
}

TEST(EvalArith, IntegerPromotionInComparisons) {
  // char arithmetic happens at int.
  expectExit("int main(void){ char a = 100, b = 100; return (a + b) > 150; }",
             1);
}

TEST(EvalArith, NarrowingConversionWraps) {
  expectExit("int main(void){ unsigned char c = 300; return c; }", 44);
  expectExit("int main(void){ signed char c = 130; return c; }", -126);
  expectExit("int main(void){ _Bool b = 42; return b; }", 1);
}

//===----------------------------------------------------------------------===//
// Control flow (§5.8)
//===----------------------------------------------------------------------===//

TEST(EvalControl, LoopsAllForms) {
  expectExit(R"(
int main(void) {
  int s = 0, i;
  for (i = 1; i <= 10; i++) s += i;
  while (s > 50) s -= 1;
  do s += 2; while (s < 54);
  return s;
}
)",
             54);
}

TEST(EvalControl, ContinueInForGoesToStep) {
  // If continue skipped the step, this would loop forever.
  expectExit(R"(
int main(void) {
  int n = 0, i;
  for (i = 0; i < 10; i++) {
    if (i % 2 == 0) continue;
    n += i;
  }
  return n; /* 1+3+5+7+9 */
}
)",
             25);
}

TEST(EvalControl, ContinueInDoWhileChecksCondition) {
  expectExit(R"(
int main(void) {
  int i = 0, n = 0;
  do {
    i++;
    if (i == 2) continue;
    n += i;
  } while (i < 4);
  return n * 10 + i; /* n = 1+3+4 = 8, i = 4 */
}
)",
             84);
}

TEST(EvalControl, NestedLoopsBreakInner) {
  expectExit(R"(
int main(void) {
  int c = 0, i, j;
  for (i = 0; i < 3; i++)
    for (j = 0; j < 10; j++) {
      if (j == 2) break;
      c++;
    }
  return c; /* 3 * 2 */
}
)",
             6);
}

TEST(EvalControl, GotoForwardAndBackward) {
  expectExit(R"(
int main(void) {
  int n = 0;
top:
  n++;
  if (n < 5) goto top;
  goto done;
  n = 100;
done:
  return n;
}
)",
             5);
}

TEST(EvalControl, SwitchDispatchAndDefault) {
  expectExit(R"(
int classify(int x) {
  switch (x) {
  case 1: return 10;
  case 2:
  case 3: return 20;
  default: return 30;
  }
}
int main(void) {
  return classify(1) + classify(2) + classify(3) + classify(9);
}
)",
             80);
}

TEST(EvalControl, SwitchWithoutMatchingCaseSkipsBody) {
  expectExit(R"(
int main(void) {
  int n = 0;
  switch (42) {
  case 1: n = 1;
  }
  return n;
}
)",
             0);
}

TEST(EvalControl, ShortCircuitEvaluation) {
  expectExit(R"(
int g = 0;
int bump(void) { g++; return 1; }
int main(void) {
  0 && bump();
  1 || bump();
  1 && bump();
  0 || bump();
  return g;
}
)",
             2);
}

TEST(EvalControl, ConditionalOperator) {
  expectExit("int main(void){ return 1 ? 10 : 20; }", 10);
  expectExit(R"(
int main(void) {
  int a = 5;
  int *p = a > 3 ? &a : (int*)0;
  return p ? *p : -1;
}
)",
             5);
}

TEST(EvalControl, RecursionAndMutualRecursion) {
  expectExit(R"(
int isOdd(int n);
int isEven(int n) { return n == 0 ? 1 : isOdd(n - 1); }
int isOdd(int n) { return n == 0 ? 0 : isEven(n - 1); }
int main(void) { return isEven(10) * 10 + isOdd(7); }
)",
             11);
  // Each level re-creates t after a recursive call has bound the same
  // environment slot, so returning from a call must restore the caller's
  // t (the host compiler gives 189).
  expectExit(R"(
int f(int n) {
  int i, s = 0;
  for (i = 0; i < 3; i++) {
    int t = 10 * n + i;
    if (n > 0)
      s += f(n - 1);
    s += t;
  }
  return s;
}
int main(void) { return f(2); }
)",
             189);
}

TEST(EvalControl, DeepRecursionInsideTheCallDepthLimit) {
  // 390 calls, under MaxCallDepth (400), each nesting a loop and two ifs:
  // deeper than an 8 MiB stack holds. Evaluations run on pool threads,
  // whose fixed stack the evaluation depth budget is sized to (host gcc
  // gives 213).
  Outcome O;
  {
    ThreadPool Pool(1);
    Pool.submit([&] {
      O = run(R"(
int sum(int n) {
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
)");
    });
  }
  EXPECT_EQ(O.Kind, OutcomeKind::Exit) << O.str();
  EXPECT_EQ(O.ExitCode, 213);
}

TEST(EvalControl, MainFallingOffReturnsZero) {
  expectExit("int main(void){ int x = 5; }", 0); // 5.1.2.2.3p1
}

//===----------------------------------------------------------------------===//
// Objects, pointers, aggregates
//===----------------------------------------------------------------------===//

TEST(EvalObjects, GlobalInitialisationOrderAndZeroing) {
  expectExit(R"(
int a = 5;
int b;       /* static storage: zero */
int *p = &a; /* address constant */
int main(void) { return *p + b; }
)",
             5);
}

TEST(EvalObjects, ArrayInitialisationPartialZeroFill) {
  expectExit(R"(
int main(void) {
  int a[5] = {1, 2};
  return a[0] + a[1] + a[2] + a[3] + a[4];
}
)",
             3);
  // A scalar initializer in more than one pair of braces (host gcc: 12).
  expectExit("int main(void) { int a[2] = {{{7}}, 5}; return a[0] + a[1]; }",
             12);
}

TEST(EvalObjects, MultidimensionalArrays) {
  expectExit(R"(
int main(void) {
  int m[2][3] = {{1, 2, 3}, {4, 5, 6}};
  int s = 0, i, j;
  for (i = 0; i < 2; i++)
    for (j = 0; j < 3; j++)
      s += m[i][j];
  return s;
}
)",
             21);
}

TEST(EvalObjects, StringLiteralsAreObjects) {
  expectOut(R"(
#include <stdio.h>
int main(void) {
  const char *s = "hi";
  char buf[] = "world";
  printf("%s %s %d\n", s, buf, (int)sizeof buf);
  return 0;
}
)",
            "hi world 6\n");
}

TEST(EvalObjects, StructByValueSemantics) {
  expectExit(R"(
struct pair { int a, b; };
struct pair swap(struct pair p) {
  struct pair q;
  q.a = p.b;
  q.b = p.a;
  return q;
}
int main(void) {
  struct pair p = {1, 2};
  struct pair q = swap(p);
  return q.a * 10 + q.b; /* 21 */
}
)",
             21);
}

TEST(EvalObjects, BracedInitialiserOfAggregateMembers) {
  // The zero value stored before the listed elements nests an array in a
  // struct and in a union; its store once lost the member's type and
  // crashed the process.
  expectExit(R"(
struct s { int a[2]; struct { char c; int i; } in; int b; };
union u { char c[3]; int i; };
int main(void) {
  struct s x = {{1, 2}, {3, 4}, 5};
  union u y = {{6, 7}};
  return x.a[1] * 10 + x.in.i + x.b + y.c[1] + y.c[2];
}
)",
             36);
}

TEST(EvalObjects, BracedInitialiserOfAStructWithAFlexibleArrayMember) {
  // The zero value of the struct once read the unsized member's length
  // and aborted the process with std::bad_alloc; like the layout, it gives
  // that member no elements.
  expectExit(R"(
struct t { int n; char d[]; };
int main(void) {
  struct t x = {1};
  return x.n;
}
)",
             1);
}

TEST(EvalObjects, NestedStructAndPointerChasing) {
  expectExit(R"(
struct node { int v; struct node *next; };
int main(void) {
  struct node c = {3, 0};
  struct node b = {2, &c};
  struct node a = {1, &b};
  int s = 0;
  struct node *p = &a;
  while (p) {
    s += p->v;
    p = p->next;
  }
  return s;
}
)",
             6);
}

TEST(EvalObjects, UnionSharesStorage) {
  expectExit(R"(
union u { int i; unsigned char c[4]; };
int main(void) {
  union u v;
  v.i = 258; /* 0x0102 */
  return v.c[0] + v.c[1]; /* 2 + 1 little-endian */
}
)",
             3);
}

TEST(EvalObjects, PointerArithmeticAndIndexEquivalence) {
  expectExit(R"(
int main(void) {
  int a[4] = {10, 20, 30, 40};
  int *p = a;
  return *(p + 2) == p[2] && 2[a] == 30 ? a[3] : -1;
}
)",
             40);
}

TEST(EvalObjects, SizeofVariants) {
  expectOut(R"(
#include <stdio.h>
struct s { char c; long l; };
int main(void) {
  int a[3];
  printf("%d %d %d %d %d\n", (int)sizeof(int), (int)sizeof a,
         (int)sizeof(struct s), (int)sizeof(char*), (int)sizeof a[0]);
  return 0;
}
)",
            "4 12 16 8 4\n");
}

TEST(EvalObjects, FunctionPointersInStructs) {
  expectExit(R"(
int twice(int x) { return 2 * x; }
int thrice(int x) { return 3 * x; }
struct op { int (*f)(int); int arg; };
int main(void) {
  struct op ops[2] = {{twice, 10}, {thrice, 5}};
  return ops[0].f(ops[0].arg) + ops[1].f(ops[1].arg);
}
)",
             35);
}

TEST(EvalObjects, CompoundAssignmentNarrowing) {
  expectExit(R"(
int main(void) {
  unsigned char c = 250;
  c += 10; /* computed at int, stored back mod 256 */
  return c;
}
)",
             4);
}

TEST(EvalObjects, PrePostIncrementValues) {
  expectExit(R"(
int main(void) {
  int i = 5;
  int a = i++;
  int b = ++i;
  int *p; int arr[3] = {1,2,3};
  p = arr;
  int c = *p++;
  return a * 100 + b * 10 + (c + *p); /* 5,7,1+2 */
}
)",
             573);
}

TEST(EvalObjects, EnumsAreInts) {
  expectExit(R"(
enum color { RED, GREEN = 5, BLUE };
int main(void) { return RED + GREEN + BLUE; } /* 0 + 5 + 6 */
)",
             11);
}

TEST(EvalObjects, TypedefsResolve) {
  expectExit(R"(
typedef unsigned long size_type;
typedef struct { int x; } box;
int main(void) {
  box b;
  b.x = 3;
  size_type n = sizeof(box);
  return b.x + (int)n;
}
)",
             7);
}

TEST(EvalObjects, BlockScopeStatics) {
  expectExit(R"(
int counter(void) {
  static int n = 0;
  n++;
  return n;
}
int main(void) { counter(); counter(); return counter(); }
)",
             3);
}

//===----------------------------------------------------------------------===//
// Library shims
//===----------------------------------------------------------------------===//

TEST(EvalLib, PrintfConversions) {
  expectOut(R"(
#include <stdio.h>
int main(void) {
  printf("%d|%u|%x|%c|%s|%%\n", -5, 7u, 255, 65, "str");
  printf("%ld %lu %zu\n", -9L, 9ul, sizeof(int));
  return 0;
}
)",
            "-5|7|ff|A|str|%\n-9 9 4\n");
}

TEST(EvalLib, MemsetMemcmpStrlen) {
  expectExit(R"(
#include <string.h>
int main(void) {
  char a[8], b[8];
  memset(a, 7, 8);
  memset(b, 7, 8);
  if (memcmp(a, b, 8) != 0) return 1;
  b[3] = 8;
  if (memcmp(a, b, 8) >= 0) return 2;
  return (int)strlen("hello");
}
)",
             5);
}

TEST(EvalLib, ExitAndAbort) {
  Outcome O = run("#include <stdlib.h>\nint main(void){ exit(3); return 0; }");
  EXPECT_EQ(O.Kind, OutcomeKind::Exit);
  EXPECT_EQ(O.ExitCode, 3);
  Outcome A = run("#include <stdlib.h>\nint main(void){ abort(); }");
  EXPECT_EQ(A.Kind, OutcomeKind::Abort);
}

//===----------------------------------------------------------------------===//
// Static errors cite ISO clauses (§5.1: "identifies exactly what part of
// the standard is violated")
//===----------------------------------------------------------------------===//

TEST(EvalErrors, TypeErrorsAreCaught) {
  expectCompileError("int main(void){ int x; x(); return 0; }",
                     "not a function");
  expectCompileError("int main(void){ struct s *p; return p->x; }",
                     "incomplete");
  expectCompileError("int main(void){ return undeclared; }", "undeclared");
  expectCompileError("int main(void){ int *p; int x = p; return x; }",
                     "6.5.16.1");
  expectCompileError("int main(void){ 1 = 2; return 0; }", "lvalue");
  expectCompileError(
      "void f(void){} int main(void){ int x = f(); return x; }", "void");
}

TEST(EvalErrors, SwitchConstraints) {
  expectCompileError(
      "int main(void){ switch (1) { case 1: case 1: return 0; } }",
      "duplicate case");
}

TEST(EvalErrors, UnsupportedFeaturesRejectCleanly) {
  expectCompileError("int main(void){ float f = 1.0f; return 0; }",
                     "float");
  expectCompileError("volatile int x; int main(void){ return 0; }",
                     "volatile");
}

//===----------------------------------------------------------------------===//
// UB detection end to end
//===----------------------------------------------------------------------===//

TEST(EvalUB, MemoryUB) {
  expectUB("int main(void){ int a[3]; return a[5]; }",
           mem::UBKind::AccessOutOfBounds);
  expectUB("int main(void){ int *p = 0; *p = 1; return 0; }",
           mem::UBKind::AccessNull);
}

TEST(EvalUB, UnsequencedModification) {
  expectUB("int main(void){ int i = 0; i = i++ + 1; return i; }",
           mem::UBKind::UnsequencedRace);
  expectUB("int g; int main(void){ return (g = 1) + (g = 2); }",
           mem::UBKind::UnsequencedRace);
  // A race between an outer unseq operand and one nested a level deeper.
  expectUB("int g; int main(void){ return (g = 1) + (1 + (g = 2)); }",
           mem::UBKind::UnsequencedRace);
  // The footprints compare addresses, not names: a race through an alias.
  expectUB("int g; int main(void){ int *p = &g; return (g = 1) + (*p = 2); }",
           mem::UBKind::UnsequencedRace);
  // Function arguments are unsequenced with each other (6.5.2.2p10).
  expectUB("int f(int a, int b){ return a + b; }"
           "int main(void){ int i = 0; return f(i++, i++); }",
           mem::UBKind::UnsequencedRace);
  // The race is only reached on the loop's second iteration, after the
  // backward jump re-enters the body.
  expectUB(R"(
int g;
int main(void) {
  int k = 0;
  while (k < 2) {
    if (k == 1)
      return (g = 1) + (g = 2);
    k++;
  }
  return 0;
}
)",
           mem::UBKind::UnsequencedRace);
}

TEST(EvalUB, SequencedUsesAreFine) {
  // i = i + 1 is fine; so are both operands reading.
  expectExit("int main(void){ int i = 1; i = i + 1; return i + i; }", 4);
  // The comma and && operators are sequence points: no race.
  expectExit("int main(void){ int i = 0; int r = (i++, i++); return r + i; }",
             3);
  expectExit("int main(void){ int i = 1; int r = (i++ && i++); return r + i; }",
             4);
}

TEST(EvalUB, WriteToStringLiteral) {
  // 6.4.5p7: modifying a string literal is UB; literals are immutable
  // objects in every model instantiation.
  expectUB(R"(
int main(void) {
  char *s = "ro";
  s[0] = 88;
  return 0;
}
)",
           mem::UBKind::WriteToReadOnly);
  expectUB(R"(
#include <string.h>
int main(void) {
  char *s = "ro";
  memset(s, 0, 2);
  return 0;
}
)",
           mem::UBKind::WriteToReadOnly);
  // Reading them stays fine, and copies are writable.
  expectExit(R"(
#include <string.h>
int main(void) {
  char buf[4];
  strcpy(buf, "ro");
  buf[0] = 88;
  return buf[0] == 88 && "ro"[0] == 114 ? 0 : 1;
}
)",
             0);
}

//===----------------------------------------------------------------------===//
// Additional integration coverage
//===----------------------------------------------------------------------===//

TEST(EvalMore, PointerToPointer) {
  expectExit(R"(
int main(void) {
  int x = 1;
  int *p = &x;
  int **pp = &p;
  int ***ppp = &pp;
  ***ppp = 42;
  return x;
}
)",
             42);
}

TEST(EvalMore, VoidFunctionEarlyReturn) {
  expectExit(R"(
int g;
void maybe(int c) {
  if (c) return;
  g = 7;
}
int main(void) {
  maybe(1);
  if (g != 0) return 1;
  maybe(0);
  return g;
}
)",
             7);
}

TEST(EvalMore, ForwardDeclaredFunction) {
  expectExit(R"(
int later(int);
int main(void) { return later(20); }
int later(int x) { return x + 1; }
)",
             21);
}

TEST(EvalMore, ExternGlobalDeclaration) {
  expectExit(R"(
extern int shared;
int get(void) { return shared; }
int shared = 5;
int main(void) { return get(); }
)",
             5);
}

TEST(EvalMore, NestedUnionsAndStructs) {
  expectExit(R"(
struct header { char tag; };
union payload { int i; unsigned char raw[4]; };
struct packet { struct header h; union payload p; };
int main(void) {
  struct packet pk;
  pk.h.tag = 2;
  pk.p.i = 0x0A0B0C0D;
  return pk.p.raw[0] + pk.h.tag; /* 0x0D + 2 */
}
)",
             0x0D + 2);
}

TEST(EvalMore, CharArithmeticPromotions) {
  expectExit(R"(
int main(void) {
  char c = 127;
  c++;           /* computed at int, wraps on the store: -128 */
  return c == -128 ? 0 : 1;
}
)",
             0);
}

TEST(EvalMore, CommaInForHeader) {
  expectExit(R"(
int main(void) {
  int i, j, s = 0;
  for (i = 0, j = 10; i < j; i++, j--)
    s++;
  return s;
}
)",
             5);
}

TEST(EvalMore, TernaryChainsAndSideEffects) {
  expectExit(R"(
int g;
int bump(void) { return ++g; }
int main(void) {
  int r = g ? bump() : (g = 3);
  return r * 10 + g; /* 3, 3 */
}
)",
             33);
}

TEST(EvalMore, ArrayOfStringsViaPointers) {
  expectOut(R"(
#include <stdio.h>
int main(void) {
  const char *names[3] = {"one", "two", "three"};
  int i;
  for (i = 0; i < 3; i++)
    printf("%s ", names[i]);
  printf("\n");
  return 0;
}
)",
            "one two three \n");
}

TEST(EvalMore, BubbleSortEndToEnd) {
  expectOut(R"(
#include <stdio.h>
void sort(int *a, int n) {
  int i, j;
  for (i = 0; i < n - 1; i++)
    for (j = 0; j < n - 1 - i; j++)
      if (a[j] > a[j + 1]) {
        int t = a[j];
        a[j] = a[j + 1];
        a[j + 1] = t;
      }
}
int main(void) {
  int a[6] = {5, 2, 9, 1, 5, 6};
  int i;
  sort(a, 6);
  for (i = 0; i < 6; i++)
    printf("%d", a[i]);
  printf("\n");
  return 0;
}
)",
            "125569\n");
}

TEST(EvalMore, LinkedListOnHeap) {
  expectExit(R"(
#include <stdlib.h>
struct node { int v; struct node *next; };
int main(void) {
  struct node *head = 0;
  int i, s = 0;
  for (i = 1; i <= 4; i++) {
    struct node *n = malloc(sizeof(struct node));
    n->v = i;
    n->next = head;
    head = n;
  }
  while (head) {
    struct node *d = head;
    s = s * 10 + head->v;
    head = head->next;
    free(d);
  }
  return s; /* 4321 mod 256 as exit code; compare directly */
}
)",
             4321 & 0xFFFFFFFF); // exit code is the raw int
}

TEST(EvalMore, StaticRecursionCounter) {
  expectExit(R"(
int depth(int n) {
  static int maxseen;
  if (n > maxseen) maxseen = n;
  if (n < 3) depth(n + 1);
  return maxseen;
}
int main(void) { return depth(0); }
)",
             3);
}

TEST(EvalMore, SizeofArrayParameterDecays) {
  // 6.7.6.3p7: an array parameter adjusts to a pointer.
  expectExit(R"(
unsigned long f(int a[10]) { return sizeof a; }
int main(void) { int x[10]; return (int)(f(x) == sizeof(int *)); }
)",
             1);
}

TEST(EvalMore, ModifyThroughConstCastAlias) {
  // const is parsed but layout-inert in our fragment; writing through a
  // non-const alias of a non-const object is defined.
  expectExit(R"(
int main(void) {
  int x = 1;
  const int *cp = &x;
  int *p = (int *)cp;
  *p = 2;
  return x;
}
)",
             2);
}

TEST(EvalMore, NegativeModuloAndDivisionTruncate) {
  expectExit("int main(void){ return (-7 / 2) * 10 + (-7 % 2); }",
             -31); // -3 * 10 + -1
}
