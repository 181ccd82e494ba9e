//===-- tests/test_core.cpp - Core AST, printer, rewrites, purity ---------===//

#include "core/Core.h"
#include "exec/Pipeline.h"
#include "support/DepthGuard.h"

#include <gtest/gtest.h>

#include <optional>
#include <thread>

using namespace cerb;
using namespace cerb::core;

TEST(CoreValues, Constructors) {
  EXPECT_TRUE(Value::boolean(true).isTrue());
  EXPECT_FALSE(Value::boolean(false).isTrue());
  Value V = Value::specified(Value::integer(5));
  ASSERT_TRUE(V.isSpecified());
  EXPECT_EQ(V.kind(), ValueKind::Specified);
  EXPECT_EQ(V.innerKind(), ValueKind::Integer);
  EXPECT_EQ(V.inner().intValue().V, Int128(5));
  EXPECT_EQ(Value::unspecified(CType::intTy()).kind(), ValueKind::Unspecified);
}

namespace {

/// The type table of the value tests. It defines the tags they use,
/// struct #3 {int; int *}, union #4 {int; int} and struct #5 {char; char;
/// char}, and interns the derived types they build, as a program's table
/// does.
ail::TagTable &testTags() {
  static ail::TagTable Tags = [] {
    ail::TagTable T;
    for (int I = 0; I < 3; ++I)
      T.createTag(false, "unused");
    T.complete(T.createTag(false, "s3"),
               {{"i", CType::intTy()}, {"p", T.pointerTo(CType::intTy())}});
    T.complete(T.createTag(true, "u4"),
               {{"a", CType::intTy()}, {"b", CType::intTy()}});
    T.complete(T.createTag(false, "s5"), {{"a", CType::charTy()},
                                          {"b", CType::charTy()},
                                          {"c", CType::charTy()}});
    return T;
  }();
  return Tags;
}

/// A memory for store/load round trips through the serializer, over the
/// value tests' type table.
struct TaggedMemory {
  ail::ImplEnv Env{testTags()};
  mem::Memory M;
  /// The bytes of the object the last roundTrip stored into.
  const mem::MemByte *Stored = nullptr;

  explicit TaggedMemory(mem::MemoryPolicy P = mem::MemoryPolicy::defacto())
      : M(Env, std::move(P)) {}

  /// Stores \p V into a fresh object of type \p Ty and loads it back.
  Value roundTrip(const CType &Ty, const Value &V) {
    mem::PointerValue P = M.allocateObject(Ty, "obj", false);
    EXPECT_TRUE(static_cast<bool>(storeValue(M, Ty, P, V)));
    Stored = M.allocations().back().Bytes;
    auto R = loadValue(M, Ty, P);
    EXPECT_TRUE(static_cast<bool>(R));
    return R ? std::move(*R) : Value();
  }
};

} // namespace

TEST(CoreValues, MemRoundtrip) {
  TaggedMemory T;
  mem::IntegerValue IV(42, mem::Provenance::alloc(3));
  Value Back = T.roundTrip(CType::intTy(), Value::integer(IV));
  EXPECT_EQ(T.Stored[0].Value, std::optional<uint8_t>(42));
  EXPECT_TRUE(T.Stored[3].Prov == mem::Provenance::alloc(3));
  ASSERT_TRUE(Back.isSpecified());
  EXPECT_EQ(Back.inner().intValue().V, Int128(42));
  EXPECT_TRUE(Back.inner().intValue().Prov == mem::Provenance::alloc(3));
}

TEST(CoreValues, Rendering) {
  EXPECT_EQ(Value::integer(7).str(), "7");
  EXPECT_EQ(Value::boolean(true).str(), "True");
  EXPECT_EQ(Value::specified(Value::integer(1)).str(), "Specified(1)");
  EXPECT_EQ(Value::unspecified(CType::intTy()).str(),
            "Unspecified('int')");
}

namespace {

/// \p V renders as \p Str, and so do its copies and the values moved out
/// of them; with a valid \p Ty, storing V at Ty and loading it back
/// renders as \p Loaded, and the loaded value is returned. The expected
/// strings are the renderings of the earlier 224-byte Value, so the
/// compact layout must not change them.
Value expectRepresentation(const Value &V, const std::string &Str,
                           const CType &Ty = CType(),
                           const std::string &Loaded = "") {
  EXPECT_EQ(V.str(), Str);
  Value Copy(V);
  EXPECT_EQ(Copy.str(), Str);
  Value Assigned = Value::integer(1);
  Assigned = Copy;
  EXPECT_EQ(Assigned.str(), Str);
  Value Moved(std::move(Copy));
  EXPECT_EQ(Moved.str(), Str);
  Value MoveAssigned = Value::list({Value::unit()});
  MoveAssigned = std::move(Moved);
  EXPECT_EQ(MoveAssigned.str(), Str);
  EXPECT_EQ(MoveAssigned.kind(), V.kind());
  if (!Ty.isValid())
    return Value();
  TaggedMemory T;
  Value Back = T.roundTrip(Ty, V);
  EXPECT_EQ(Back.str(), Loaded) << Str;
  return Back;
}

} // namespace

TEST(CoreValues, EveryKindSurvivesCopyMoveAndMemory) {
  ail::TagTable &Tags = testTags();
  CType Int = CType::intTy(), IntPtr = Tags.pointerTo(Int);
  CType FnPtr = Tags.pointerTo(Tags.functionType(Int, {}, false));
  expectRepresentation(Value::unit(), "Unit");
  expectRepresentation(Value::boolean(true), "True");
  expectRepresentation(Value::boolean(false), "False");
  expectRepresentation(Value::ctype(IntPtr), "'int*'");
  expectRepresentation(
      Value::integer(mem::IntegerValue(-42, mem::Provenance::alloc(3))),
      "-42@3", Int, "Specified(-42@3)");
  expectRepresentation(
      Value::pointer(
          mem::PointerValue::object(mem::Provenance::alloc(5), 4096)),
      "0x4096@5", IntPtr, "Specified(0x4096@5)");
  expectRepresentation(Value::pointer(mem::PointerValue::null()), "NULL",
                       IntPtr, "Specified(NULL)");
  expectRepresentation(Value::pointer(mem::PointerValue::function(9)),
                       "&fn#9", FnPtr, "Specified(cfunction#9)");
  expectRepresentation(Value::function(7), "cfunction#7", FnPtr,
                       "Specified(cfunction#7)");
  expectRepresentation(Value::unspecified(CType::uintTy()),
                       "Unspecified('unsigned int')", CType::uintTy(),
                       "Unspecified('unsigned int')");
  expectRepresentation(Value::specified(Value::integer(1)), "Specified(1)",
                       Int, "Specified(1)");
  expectRepresentation(
      Value::tuple({Value::tuple({Value::integer(1),
                                  Value::specified(Value::integer(2))}),
                    Value::boolean(false), Value::unit(),
                    Value::list({Value::integer(3)})}),
      "((1, Specified(2)), False, Unit, [3])");
  expectRepresentation(Value::list({Value::integer(1), Value::integer(2)}),
                       "[1, 2]");

  // Unloaded aggregates (as the elaboration's zero initialisers build
  // them). A struct or union loads back as its byte image, padding and
  // all (§2.5 option 4).
  CType Arr2 = Tags.arrayOf(Int, 2);
  expectRepresentation(Value::array({Value::integer(0), Value::integer(0)}),
                       "array(0, 0)", Arr2,
                       "Specified(array(Specified(0), Specified(0)))");
  Value St = expectRepresentation(
      Value::structure(3, {Value::integer(0),
                           Value::pointer(mem::PointerValue::null())}),
      "(struct#3){0, NULL}", Tags.tagType(3), "Specified(bytes[16])");
  std::span<const mem::MemByte> Image = St.bytes();
  EXPECT_EQ(Image[0].Value, std::optional<uint8_t>(0));
  EXPECT_FALSE(Image[4].Value.has_value()); // padding
  EXPECT_EQ(Image[8].Value, std::optional<uint8_t>(0));
  EXPECT_EQ(Image[15].PtrFrag, 7);
  Value UnZero =
      expectRepresentation(Value::unionValue(4, 0, Value::integer(0)),
                           "(union#4){0}", Tags.tagType(4),
                           "Specified(bytes[4])");
  EXPECT_EQ(UnZero.bytes()[3].Value, std::optional<uint8_t>(0));

  // Loaded (Specified) aggregates and byte images.
  TaggedMemory T;
  Value Arr = T.roundTrip(
      Arr2, Value::array({Value::integer(1), Value::unspecified(Int)}));
  const char *ArrStr = "Specified(array(Specified(1), Unspecified('int')))";
  expectRepresentation(Arr, ArrStr, Arr2, ArrStr);
  Value Un = Value::specified(
      Value::unionValue(4, 1, Value::specified(Value::integer(6))));
  const char *UnStr = "Specified((union#4){Specified(6)})";
  Value UnImage = expectRepresentation(Un, UnStr, Tags.tagType(4),
                                       "Specified(bytes[4])");
  EXPECT_EQ(UnImage.bytes()[0].Value, std::optional<uint8_t>(6));
  EXPECT_EQ(Un.inner().tag(), 4u);
  EXPECT_EQ(Un.inner().activeMember(), 1u);

  std::vector<mem::MemByte> Raw(3);
  Raw[0].Value = 1;
  Raw[1].Prov = mem::Provenance::alloc(2);
  Value Bytes = Value::specified(Value::bytes(Tags.tagType(5), Raw));
  expectRepresentation(Bytes, "Specified(bytes[3])", Tags.tagType(5),
                       "Specified(bytes[3])");
  T.roundTrip(Tags.tagType(5), Value(Bytes));
  ASSERT_EQ(T.M.allocations().back().Size, 3u);
  EXPECT_EQ(T.Stored[0].Value, std::optional<uint8_t>(1));
  EXPECT_FALSE(T.Stored[1].Value.has_value());
  EXPECT_TRUE(T.Stored[1].Prov == mem::Provenance::alloc(2));
}

TEST(CoreValues, CapabilitiesRideAlongOutOfLine) {
  // CHERI capabilities live in the evaluation's CapTable, not the value:
  // copies, moves and a store/load round trip keep them.
  ail::TagTable &Tags = testTags();
  CapTable Table;
  CapTable::Scope Scope(Table);
  mem::Capability Cap{0x1000, 8, true};
  mem::IntegerValue CI(0x1004, mem::Provenance::alloc(2));
  CI.Cap = Cap;
  mem::PointerValue CP =
      mem::PointerValue::object(mem::Provenance::alloc(2), 0x1004);
  CP.Cap = Cap;
  TaggedMemory T(mem::MemoryPolicy::cheri());

  Value I = Value::integer(CI);
  expectRepresentation(I, "4100@2", CType::uintptrTy(), "Specified(4100@2)");
  Value IBack = T.roundTrip(CType::uintptrTy(), Value(I));
  ASSERT_TRUE(IBack.inner().intValue().Cap.has_value());
  EXPECT_TRUE(*IBack.inner().intValue().Cap == Cap);

  CType IntPtr = Tags.pointerTo(CType::intTy());
  Value P = Value::pointer(CP);
  expectRepresentation(P, "0x4100@2", IntPtr, "Specified(0x4100@2)");
  Value PBack = T.roundTrip(IntPtr, P);
  ASSERT_TRUE(T.Stored[0].Cap.has_value());
  EXPECT_EQ(T.Stored[0].Cap->Base, 0x1000u);
  EXPECT_EQ(T.Stored[0].Cap->Length, 8u);
  EXPECT_TRUE(PBack.inner().ptrValue().Cap == Cap);

  // A capability inside an aggregate value and its byte image.
  Value St = Value::specified(Value::structure(
      3, {Value::specified(Value::integer(5)),
          Value::specified(Value::pointer(CP))}));
  const char *StStr = "Specified((struct#3){Specified(5), Specified(0x4100@2)})";
  expectRepresentation(St, StStr, Tags.tagType(3),
                       "Specified(bytes[16])");
  Value Member = St.inner().elems()[1];
  EXPECT_TRUE(Member.inner().ptrValue().Cap == Cap);
  Value Image = T.roundTrip(Tags.tagType(3), St);
  for (size_t B = 8; B < 16; ++B)
    EXPECT_TRUE(Image.bytes()[B].Cap == std::optional<mem::Capability>(Cap));

  // Values of the other models never reference a capability.
  EXPECT_FALSE(Value::integer(mem::IntegerValue(1)).hasCap());
  EXPECT_TRUE(I.hasCap());
}

TEST(CoreGrammar, SummaryMentionsAllSequencingForms) {
  std::string G = coreGrammarSummary();
  for (const char *Form :
       {"unseq", "let weak", "let strong", "let atomic", "indet", "bound",
        "nd(", "save", "run", "par", "wait", "Specified", "Unspecified",
        "create", "kill", "store", "load", "ptrdiff", "intFromPtr"})
    EXPECT_NE(G.find(Form), std::string::npos) << Form;
}

TEST(CorePrint, ElaboratedProgramMentionsKeyConstructs) {
  auto P = exec::compile(R"(
int g;
int main(void) {
  int x = 1;
  g = x + 1;
  return g;
}
)");
  ASSERT_TRUE(static_cast<bool>(P));
  std::string S = printProgram(*P);
  EXPECT_NE(S.find("create('int'"), std::string::npos);
  EXPECT_NE(S.find("store('int'"), std::string::npos);
  EXPECT_NE(S.find("load('int'"), std::string::npos);
  EXPECT_NE(S.find("let weak"), std::string::npos);
  EXPECT_NE(S.find("unseq("), std::string::npos);
  EXPECT_NE(S.find("kill("), std::string::npos);
  EXPECT_NE(S.find("return("), std::string::npos);
}

TEST(CorePrint, ShiftElaborationMatchesFig3Shape) {
  // Fig. 3: the elaboration of << contains the three undef cases and the
  // case split on Specified/Unspecified.
  auto P = exec::compile(R"(
int main(void) {
  int a = 1, b = 2;
  return a << b;
}
)");
  ASSERT_TRUE(static_cast<bool>(P));
  std::string S = printProgram(*P);
  EXPECT_NE(S.find("undef(Negative_shift)"), std::string::npos);
  EXPECT_NE(S.find("undef(Shift_too_large)"), std::string::npos);
  EXPECT_NE(S.find("undef(Exceptional_condition)"), std::string::npos);
  EXPECT_NE(S.find("Specified("), std::string::npos);
  EXPECT_NE(S.find("Unspecified(_)"), std::string::npos);
}

TEST(CoreCheck, ElaboratedProgramsAreWellFormed) {
  // Every program the elaboration produces must satisfy the Core purity
  // discipline (§5.2: the pure/effectful distinction).
  for (const char *Src : {
           "int main(void){ return 0; }",
           "int main(void){ int i; for (i=0;i<3;i++); return i; }",
           "int f(int x){ return x; } int main(void){ return f(1); }",
           "struct s { int a; }; int main(void){ struct s v = {1}; "
           "return v.a; }",
       }) {
    auto P = exec::compile(Src);
    ASSERT_TRUE(static_cast<bool>(P)) << Src;
    EXPECT_EQ(core::typeCheck(*P), std::nullopt) << Src;
  }
}

TEST(CoreRewrite, FoldsAndCounts) {
  auto R = exec::compileWithStats(R"(
int main(void) {
  int x = 1;
  return x;
}
)");
  ASSERT_TRUE(static_cast<bool>(R));
  // The rewrite runs without breaking the program:
  exec::RunOptions Opts;
  EXPECT_EQ(exec::runOnce(R->Prog, Opts).ExitCode, 1);
}

TEST(CoreClone, DeepCopyIsIndependent) {
  ExprArena A;
  Expr *E = A.make(ExprKind::Binop, SourceLoc(),
                   {A.val(Value::integer(1)), A.val(Value::integer(2))});
  E->BOp = CoreBinop::Add;

  Expr *C = cloneExpr(A, *E);
  A.aux(*C->kids()[0]).V = Value::integer(99);
  EXPECT_EQ(E->kids()[0]->value().intValue().V, Int128(1));
  EXPECT_EQ(C->kids()[1]->value().intValue().V, Int128(2));
  EXPECT_EQ(C->K, ExprKind::Binop);
  EXPECT_NE(C->kids()[0], E->kids()[0]);
}

namespace {
Expr *letOf(ExprArena &A, ExprKind K, Pattern Pat, Expr *E1, Expr *E2) {
  Expr *Let = A.make(K, SourceLoc(), {E1, E2});
  A.setPattern(*Let, Pat);
  return Let;
}

void addMain(CoreProgram &P, Symbol Main, Expr *Body) {
  CoreProc Proc;
  Proc.Name = Main;
  Proc.ReturnTy = CType::intTy();
  Proc.Body = Body;
  P.Procs.emplace(Main.Id, std::move(Proc));
}
} // namespace

TEST(CorePurity, DetectsEffectInPureContext) {
  // Hand-build an ill-formed program: an action inside a pure let body.
  CoreProgram P;
  ExprArena &A = P.Arena;
  Symbol Main = P.Syms.create("main", ail::SymbolKind::Function);
  P.MainProc = Main;
  Expr *Load = A.make(ExprKind::Action, SourceLoc(), {A.val(Value())});
  Load->Act = ActionKind::Load;
  Load->Cty = CType::intTy();
  // An effect in pure position:
  Expr *PureLet = letOf(A, ExprKind::PureLet, Pattern::wild(), Load,
                        A.val(Value()));
  addMain(P, Main, A.make(ExprKind::Ret, SourceLoc(), {PureLet}));

  auto Err = core::typeCheck(P);
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->find("pure context"), std::string::npos);
}

TEST(CoreDynamics, UnloweredProgramIsRefused) {
  // A well-formed hand-built program that skipped core::lower has no
  // environment slots; the evaluator must refuse it, not index slot -1.
  CoreProgram P;
  ExprArena &A = P.Arena;
  Symbol Main = P.Syms.create("main", ail::SymbolKind::Function);
  Symbol X = P.Syms.create("x", ail::SymbolKind::Object);
  P.MainProc = Main;
  Expr *Use = A.make(ExprKind::Sym);
  Use->Sym = X;
  addMain(P, Main,
          letOf(A, ExprKind::LetStrong, Pattern::sym(X),
                A.val(Value::integer(7)),
                A.make(ExprKind::Ret, SourceLoc(), {Use})));
  ASSERT_EQ(core::typeCheck(P), std::nullopt);

  exec::Outcome O = exec::runOnce(P, exec::RunOptions());
  EXPECT_EQ(O.Kind, exec::OutcomeKind::Error) << O.str();
  EXPECT_NE(O.Message.find("core::lower"), std::string::npos) << O.str();
}

TEST(CorePatterns, Rendering) {
  ail::SymbolTable Syms;
  ExprArena A;
  Symbol S = Syms.create("x", ail::SymbolKind::Object);
  EXPECT_EQ(Pattern::wild().str(Syms), "_");
  EXPECT_EQ(Pattern::sym(S).str(Syms), "x");
  EXPECT_EQ(A.specifiedPattern(Pattern::sym(S)).str(Syms), "Specified(x)");
  EXPECT_EQ(A.tuplePattern({Pattern::wild(), Pattern::sym(S)}).str(Syms),
            "(_, x)");
  EXPECT_EQ(Pattern::unspecified().str(Syms), "Unspecified(_)");
}

TEST(CoreArena, ProgramMovesKeepTheirNodes) {
  CoreProgram P;
  Symbol Main = P.Syms.create("main", ail::SymbolKind::Function);
  P.MainProc = Main;
  addMain(P, Main,
          P.Arena.make(ExprKind::Ret, SourceLoc(),
                       {P.Arena.val(Value::specified(Value::integer(3)))}));
  const Expr *Body = P.Procs.at(Main.Id).Body;
  std::string Printed = printProgram(P);
  CoreProgram Moved(std::move(P));
  EXPECT_EQ(Moved.Procs.at(Main.Id).Body, Body);
  EXPECT_EQ(printProgram(Moved), Printed);
  P = std::move(Moved);
  EXPECT_EQ(printProgram(P), Printed);
}

// A program frees its nodes in one sweep over the arena's chunks, so a
// chain far deeper than any walk may go is destroyed on an ordinary
// thread's default stack.
TEST(CoreArena, DeepChainIsDestroyedWithoutRecursion) {
  const unsigned Depth = 10 * MaxCoreDepth;
  std::optional<CoreProgram> P(std::in_place);
  Symbol Main = P->Syms.create("main", ail::SymbolKind::Function);
  Symbol X = P->Syms.create("x", ail::SymbolKind::Object);
  P->MainProc = Main;
  ExprArena &A = P->Arena;
  Expr *Chain = A.make(ExprKind::Skip);
  for (unsigned I = 0; I < Depth; ++I) {
    Expr *Create = A.make(ExprKind::Action);
    Create->Act = ActionKind::Create;
    Create->Cty = CType::intTy();
    Chain = letOf(A, ExprKind::LetStrong, Pattern::sym(X), Create, Chain);
  }
  addMain(*P, Main, Chain);
  EXPECT_GE(programBytes(*P), uint64_t(Depth) * sizeof(Expr));
  std::thread T([&] { P.reset(); });
  T.join();
  EXPECT_FALSE(P.has_value());
}

// A literal's copy has an empty name and scope; neither may open a chunk
// that holds nothing, or the compile cache charges it.
TEST(CoreArena, EmptySpansOpenNoChunk) {
  ExprArena A;
  const Expr *Lit = A.val(Value::specified(Value::integer(7)));
  uint64_t Before = A.heapBytes();
  Expr *Copy = cloneExpr(A, *Lit);
  EXPECT_EQ(A.heapBytes(), Before);
  EXPECT_TRUE(Copy->str().empty());
  EXPECT_TRUE(Copy->Aux->Scope.empty());
}

TEST(CoreScope, DetectsUnboundIdentifier) {
  CoreProgram P;
  Symbol Main = P.Syms.create("main", ail::SymbolKind::Function);
  Symbol Ghost = P.Syms.create("ghost", ail::SymbolKind::Object);
  P.MainProc = Main;
  Expr *Use = P.Arena.make(ExprKind::Sym);
  Use->Sym = Ghost; // never bound anywhere
  addMain(P, Main, P.Arena.make(ExprKind::Ret, SourceLoc(), {Use}));

  auto Err = core::typeCheck(P);
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->find("unbound"), std::string::npos);
  EXPECT_NE(Err->find("ghost"), std::string::npos);
}

TEST(CoreScope, DetectsRunToUnknownLabel) {
  CoreProgram P;
  Symbol Main = P.Syms.create("main", ail::SymbolKind::Function);
  Symbol Lbl = P.Syms.create("nowhere", ail::SymbolKind::Label);
  P.MainProc = Main;
  Expr *Run = P.Arena.make(ExprKind::Run);
  Run->Sym = Lbl; // no save for it
  addMain(P, Main, Run);

  auto Err = core::typeCheck(P);
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->find("unknown label"), std::string::npos);
}

TEST(CoreScope, ViolationsAreReportedInCheckOrder) {
  // One walk checks all three disciplines; a purity violation still wins
  // over an earlier scoping one, a run is checked against every save of
  // its procedure (forward jumps included), and among scoping violations
  // the first in the walk is reported.
  auto Check = [](auto Build) {
    CoreProgram P;
    Symbol Main = P.Syms.create("main", ail::SymbolKind::Function);
    P.MainProc = Main;
    std::vector<Expr *> Kids;
    Build(P, Kids);
    addMain(P, Main, P.Arena.make(ExprKind::Unseq, SourceLoc(), Kids));
    return core::typeCheck(P).value_or("ok");
  };
  auto Ghost = [](CoreProgram &P) {
    Expr *Use = P.Arena.make(ExprKind::Sym);
    Use->Sym = P.Syms.create("ghost", ail::SymbolKind::Object);
    return P.Arena.make(ExprKind::Ret, SourceLoc(), {Use});
  };
  auto Jump = [](CoreProgram &P, ExprKind K, Symbol L) {
    Expr *E = K == ExprKind::Save
                  ? P.Arena.make(K, SourceLoc(), {P.Arena.make(ExprKind::Skip)})
                  : P.Arena.make(K);
    E->Sym = L;
    return E;
  };

  EXPECT_NE(Check([&](CoreProgram &P, std::vector<Expr *> &Kids) {
              Kids.push_back(Ghost(P));
              Kids.push_back(P.Arena.make(
                  ExprKind::Ret, SourceLoc(),
                  {P.Arena.make(ExprKind::Skip)})); // not pure
            }).find("pure context"),
            std::string::npos);
  EXPECT_EQ(Check([&](CoreProgram &P, std::vector<Expr *> &Kids) {
              Symbol L = P.Syms.create("ahead", ail::SymbolKind::Label);
              Kids.push_back(Jump(P, ExprKind::Run, L));
              Kids.push_back(Jump(P, ExprKind::Save, L));
            }),
            "ok");
  EXPECT_NE(Check([&](CoreProgram &P, std::vector<Expr *> &Kids) {
              Symbol L = P.Syms.create("nowhere", ail::SymbolKind::Label);
              Kids.push_back(Jump(P, ExprKind::Run, L));
              Kids.push_back(Ghost(P));
            }).find("unknown label 'nowhere'"),
            std::string::npos);
  EXPECT_NE(Check([&](CoreProgram &P, std::vector<Expr *> &Kids) {
              Symbol L = P.Syms.create("nowhere", ail::SymbolKind::Label);
              Kids.push_back(Ghost(P));
              Kids.push_back(Jump(P, ExprKind::Run, L));
            }).find("unbound Core identifier 'ghost'"),
            std::string::npos);
}

TEST(CoreScope, ParametersScopeOverTheirOwnProcedureOnly) {
  // f(x) is checked first (lower symbol id); main naming x must still fail.
  CoreProgram P;
  Symbol F = P.Syms.create("f", ail::SymbolKind::Function);
  Symbol X = P.Syms.create("x", ail::SymbolKind::Object);
  Symbol Main = P.Syms.create("main", ail::SymbolKind::Function);
  P.MainProc = Main;
  auto RetOf = [&] {
    Expr *Use = P.Arena.make(ExprKind::Sym);
    Use->Sym = X;
    return P.Arena.make(ExprKind::Ret, SourceLoc(), {Use});
  };
  CoreProc FP;
  FP.Name = F;
  FP.ReturnTy = CType::intTy();
  FP.Params.push_back({X, CType::intTy()});
  FP.Body = RetOf();
  P.Procs.emplace(F.Id, std::move(FP));
  ASSERT_EQ(core::typeCheck(P), std::nullopt); // x is f's own parameter
  addMain(P, Main, RetOf());

  auto Err = core::typeCheck(P);
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->find("in procedure 'main'"), std::string::npos) << *Err;
  EXPECT_NE(Err->find("unbound"), std::string::npos) << *Err;
  EXPECT_NE(Err->find("'x'"), std::string::npos) << *Err;
}

TEST(CoreScope, PatternBindingScopesOverBodyOnly) {
  // let x = 1 in x  is fine; a use of x *outside* the let is not. The
  // whole-pipeline assertion: every elaborated program is lexically
  // scoped, including the block kill chains.
  for (const char *Src : {
           "int main(void){ int a = 1; { int b = a; a = b; } return a; }",
           "int main(void){ int i; for (i=0;i<2;i++){ int t=i; (void)t; } "
           "return i; }",
       }) {
    auto P = exec::compile(Src);
    ASSERT_TRUE(static_cast<bool>(P)) << Src;
    EXPECT_EQ(core::typeCheck(*P), std::nullopt) << Src;
  }
}
