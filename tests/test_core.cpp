//===-- tests/test_core.cpp - Core AST, printer, rewrites, purity ---------===//

#include "core/Core.h"
#include "exec/Pipeline.h"

#include <gtest/gtest.h>

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

TEST(CoreValues, MemRoundtrip) {
  mem::IntegerValue IV(42, mem::Provenance::alloc(3));
  mem::MemValue MV = valueToMem(CType::intTy(), Value::integer(IV));
  EXPECT_EQ(MV.Kind, mem::MemValueKind::Integer);
  Value Back = memToValue(MV);
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
/// renders as \p Loaded. The expected strings are the renderings of the
/// earlier 224-byte Value, so the compact layout must not change them.
void expectRepresentation(const Value &V, const std::string &Str,
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
  if (Ty.isValid()) {
    EXPECT_EQ(memToValue(valueToMem(Ty, V)).str(), Loaded) << Str;
  }
}

} // namespace

TEST(CoreValues, EveryKindSurvivesCopyMoveAndMemory) {
  CType Int = CType::intTy(), IntPtr = CType::makePointer(Int);
  CType FnPtr = CType::makePointer(CType::makeFunction(Int, {}, false));
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

  // Unloaded aggregates (as the elaboration's zero initialisers build them).
  CType Arr2 = CType::makeArray(Int, 2);
  expectRepresentation(Value::array({Value::integer(0), Value::integer(0)}),
                       "array(0, 0)", Arr2,
                       "Specified(array(Specified(0), Specified(0)))");
  expectRepresentation(
      Value::structure(3, {Value::integer(0),
                           Value::pointer(mem::PointerValue::null())}),
      "(struct#3){0, NULL}", CType::makeStruct(3),
      "Specified((struct#3){Specified(0), Specified(NULL)})");
  expectRepresentation(Value::unionValue(4, 0, Value::integer(0)),
                       "(union#4){0}", CType::makeUnion(4),
                       "Specified((union#4){Specified(0)})");

  // Loaded (Specified) aggregates and byte images.
  mem::MemValue Arr = mem::MemValue::array(
      {mem::MemValue::integer(Int, mem::IntegerValue(1)),
       mem::MemValue::unspecified(Int)});
  const char *ArrStr = "Specified(array(Specified(1), Unspecified('int')))";
  expectRepresentation(memToValue(Arr), ArrStr, Arr2, ArrStr);
  mem::MemValue Un = mem::MemValue::unionValue(
      4, 1, mem::MemValue::integer(Int, mem::IntegerValue(6)));
  const char *UnStr = "Specified((union#4){Specified(6)})";
  expectRepresentation(memToValue(Un), UnStr, CType::makeUnion(4), UnStr);
  Value V = memToValue(Un);
  EXPECT_EQ(V.inner().tag(), 4u);
  EXPECT_EQ(V.inner().activeMember(), 1u);

  std::vector<mem::MemByte> Raw(3);
  Raw[0].Value = 1;
  Raw[1].Prov = mem::Provenance::alloc(2);
  Value Bytes = memToValue(mem::makeBytesValue(CType::makeStruct(3), Raw));
  expectRepresentation(Bytes, "Specified(bytes[3])", CType::makeStruct(3),
                       "Specified(bytes[3])");
  mem::MemValue Stored = valueToMem(CType::makeStruct(3), Value(Bytes));
  ASSERT_EQ(Stored.Kind, mem::MemValueKind::Bytes);
  ASSERT_EQ(Stored.Raw.size(), 3u);
  EXPECT_EQ(Stored.Raw[0].Value, std::optional<uint8_t>(1));
  EXPECT_FALSE(Stored.Raw[1].Value.has_value());
  EXPECT_TRUE(Stored.Raw[1].Prov == mem::Provenance::alloc(2));
}

TEST(CoreValues, CapabilitiesRideAlongOutOfLine) {
  // CHERI capabilities live in the evaluation's CapTable, not the value:
  // copies, moves and a store/load round trip keep them.
  CapTable Table;
  CapTable::Scope Scope(Table);
  mem::Capability Cap{0x1000, 8, true};
  mem::IntegerValue CI(0x1004, mem::Provenance::alloc(2));
  CI.Cap = Cap;
  mem::PointerValue CP =
      mem::PointerValue::object(mem::Provenance::alloc(2), 0x1004);
  CP.Cap = Cap;

  Value I = Value::integer(CI);
  expectRepresentation(I, "4100@2", CType::uintptrTy(), "Specified(4100@2)");
  Value IBack = memToValue(valueToMem(CType::uintptrTy(), Value(I)));
  ASSERT_TRUE(IBack.inner().intValue().Cap.has_value());
  EXPECT_TRUE(*IBack.inner().intValue().Cap == Cap);

  CType IntPtr = CType::makePointer(CType::intTy());
  Value P = Value::pointer(CP);
  expectRepresentation(P, "0x4100@2", IntPtr, "Specified(0x4100@2)");
  mem::MemValue PM = valueToMem(IntPtr, P);
  ASSERT_TRUE(PM.PV.Cap.has_value());
  EXPECT_EQ(PM.PV.Cap->Base, 0x1000u);
  EXPECT_EQ(PM.PV.Cap->Length, 8u);
  EXPECT_TRUE(memToValue(PM).inner().ptrValue().Cap == Cap);

  // A capability inside a loaded aggregate.
  mem::MemValue St = mem::MemValue::structure(
      3, {mem::MemValue::integer(CType::intTy(), mem::IntegerValue(5)),
          mem::MemValue::pointer(IntPtr, CP)});
  const char *StStr = "Specified((struct#3){Specified(5), Specified(0x4100@2)})";
  expectRepresentation(memToValue(St), StStr, CType::makeStruct(3), StStr);
  Value Member = memToValue(St).inner().elems()[1];
  EXPECT_TRUE(Member.inner().ptrValue().Cap == Cap);

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
  auto E = Expr::make(ExprKind::Binop);
  E->BOp = CoreBinop::Add;
  E->Kids.push_back(Expr::make(ExprKind::Val));
  E->Kids[0]->V = Value::integer(1);
  E->Kids.push_back(Expr::make(ExprKind::Val));
  E->Kids[1]->V = Value::integer(2);

  ExprPtr C = cloneExpr(*E);
  C->Kids[0]->V = Value::integer(99);
  EXPECT_EQ(E->Kids[0]->V.intValue().V, Int128(1));
  EXPECT_EQ(C->Kids[1]->V.intValue().V, Int128(2));
  EXPECT_EQ(C->K, ExprKind::Binop);
}

TEST(CorePurity, DetectsEffectInPureContext) {
  // Hand-build an ill-formed program: an action inside a pure let body.
  CoreProgram P;
  Symbol Main = P.Syms.create("main", ail::SymbolKind::Function);
  P.MainProc = Main;
  auto Load = Expr::make(ExprKind::Action);
  Load->Act = ActionKind::Load;
  Load->Cty = CType::intTy();
  Load->Kids.push_back(Expr::make(ExprKind::Val));
  auto PureLet = Expr::make(ExprKind::PureLet);
  PureLet->Pat = Pattern::wild();
  PureLet->Kids.push_back(std::move(Load)); // effect in pure position!
  PureLet->Kids.push_back(Expr::make(ExprKind::Val));
  auto Ret = Expr::make(ExprKind::Ret);
  Ret->Kids.push_back(std::move(PureLet));
  CoreProc Proc;
  Proc.Name = Main;
  Proc.ReturnTy = CType::intTy();
  Proc.Body = std::move(Ret);
  P.Procs.emplace(Main.Id, std::move(Proc));

  auto Err = core::typeCheck(P);
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->find("pure context"), std::string::npos);
}

TEST(CorePatterns, Rendering) {
  ail::SymbolTable Syms;
  Symbol S = Syms.create("x", ail::SymbolKind::Object);
  EXPECT_EQ(Pattern::wild().str(Syms), "_");
  EXPECT_EQ(Pattern::sym(S).str(Syms), "x");
  EXPECT_EQ(Pattern::specified(Pattern::sym(S)).str(Syms), "Specified(x)");
  EXPECT_EQ(Pattern::tuple({Pattern::wild(), Pattern::sym(S)}).str(Syms),
            "(_, x)");
  EXPECT_EQ(Pattern::unspecified().str(Syms), "Unspecified(_)");
}

TEST(CoreScope, DetectsUnboundIdentifier) {
  CoreProgram P;
  Symbol Main = P.Syms.create("main", ail::SymbolKind::Function);
  Symbol Ghost = P.Syms.create("ghost", ail::SymbolKind::Object);
  P.MainProc = Main;
  auto Ret = Expr::make(ExprKind::Ret);
  auto Use = Expr::make(ExprKind::Sym);
  Use->Sym = Ghost; // never bound anywhere
  Ret->Kids.push_back(std::move(Use));
  CoreProc Proc;
  Proc.Name = Main;
  Proc.ReturnTy = CType::intTy();
  Proc.Body = std::move(Ret);
  P.Procs.emplace(Main.Id, std::move(Proc));

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
  auto Run = Expr::make(ExprKind::Run);
  Run->Sym = Lbl; // no save for it
  CoreProc Proc;
  Proc.Name = Main;
  Proc.ReturnTy = CType::intTy();
  Proc.Body = std::move(Run);
  P.Procs.emplace(Main.Id, std::move(Proc));

  auto Err = core::typeCheck(P);
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->find("unknown label"), std::string::npos);
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
