//===-- elab/Elaborate.cpp ------------------------------------------------===//

#include "elab/Elaborate.h"

#include "mem/Memory.h"
#include "support/DepthGuard.h"
#include "support/Format.h"
#include "typing/TypeCheck.h"

#include <cassert>
#include <charconv>

using namespace cerb;
using namespace cerb::elab;
using namespace cerb::core;
using ail::AilExpr;
using ail::AilExprKind;
using ail::AilInit;
using ail::AilStmt;
using ail::AilStmtKind;
using ail::CType;
using ail::Symbol;
using cabs::BinaryOp;
using cabs::UnaryOp;

namespace {

//===----------------------------------------------------------------------===//
// Small Core builders
//===----------------------------------------------------------------------===//

/// The program being built, with builders that make its nodes in its
/// arena.
struct CoreBuilder {
  CoreProgram Prog;

  Expr *mk(ExprKind K, SourceLoc Loc = SourceLoc(),
           std::initializer_list<Expr *> Kids = {}) {
    return Prog.Arena.make(K, Loc, Kids);
  }

  Expr *mkVal(Value V, SourceLoc Loc = SourceLoc()) {
    return Prog.Arena.val(std::move(V), Loc);
  }

  Expr *mkSym(Symbol S, SourceLoc Loc = SourceLoc()) {
    Expr *E = mk(ExprKind::Sym, Loc);
    E->Sym = S;
    return E;
  }

  Expr *mkUndef(mem::UBKind K, SourceLoc Loc) {
    Expr *E = mk(ExprKind::Undef, Loc);
    E->UB = K;
    return E;
  }

  Expr *mkInt(Int128 V) { return mkVal(Value::integer(V)); }

  Expr *mkSpecified(Expr *Inner) {
    return mk(ExprKind::SpecifiedE, Inner->Loc, {Inner});
  }

  Expr *mkBinop(CoreBinop Op, Expr *A, Expr *B) {
    Expr *E = mk(ExprKind::Binop, A->Loc, {A, B});
    E->BOp = Op;
    return E;
  }

  Expr *mkNot(Expr *A) { return mk(ExprKind::Not, A->Loc, {A}); }

  Expr *mkPureIf(Expr *C, Expr *T, Expr *F) {
    return mk(ExprKind::PureIf, C->Loc, {C, T, F});
  }

  Expr *mkEIf(Expr *C, Expr *T, Expr *F) {
    return mk(ExprKind::EIf, C->Loc, {C, T, F});
  }

  Expr *mkLet(ExprKind K, const Pattern &Pat, Expr *E1, Expr *E2) {
    Expr *E = mk(K, E1->Loc, {E1, E2});
    Prog.Arena.setPattern(*E, Pat);
    return E;
  }

  Expr *mkPureLet(const Pattern &Pat, Expr *E1, Expr *E2) {
    return mkLet(ExprKind::PureLet, Pat, E1, E2);
  }

  Expr *mkLetStrong(const Pattern &Pat, Expr *E1, Expr *E2,
                    bool SeqPoint = false) {
    Expr *E = mkLet(ExprKind::LetStrong, Pat, E1, E2);
    E->SeqPoint = SeqPoint;
    return E;
  }

  Expr *mkLetWeak(const Pattern &Pat, Expr *E1, Expr *E2) {
    return mkLet(ExprKind::LetWeak, Pat, E1, E2);
  }

  Expr *mkUnseq(const std::vector<Expr *> &Kids) {
    assert(!Kids.empty() && "empty unseq");
    return Prog.Arena.make(ExprKind::Unseq, Kids[0]->Loc, Kids);
  }

  Expr *mkSkip() { return mk(ExprKind::Skip); }

  Expr *mkLoad(CType Ty, Expr *Ptr, SourceLoc Loc, bool Neg = false) {
    Expr *E = mk(ExprKind::Action, Loc, {Ptr});
    E->Act = ActionKind::Load;
    E->Cty = std::move(Ty);
    E->NegPolarity = Neg;
    return E;
  }

  Expr *mkStore(CType Ty, Expr *Ptr, Expr *V, SourceLoc Loc,
                bool Neg = false) {
    Expr *E = mk(ExprKind::Action, Loc, {Ptr, V});
    E->Act = ActionKind::Store;
    E->Cty = std::move(Ty);
    E->NegPolarity = Neg;
    return E;
  }

  Expr *mkCreate(CType Ty, std::string_view Name, SourceLoc Loc) {
    Expr *E = mk(ExprKind::Action, Loc);
    E->Act = ActionKind::Create;
    E->Cty = std::move(Ty);
    Prog.Arena.setStr(*E, Name);
    return E;
  }

  Expr *mkKill(Expr *Ptr, SourceLoc Loc) {
    Expr *E = mk(ExprKind::Action, Loc, {Ptr});
    E->Act = ActionKind::Kill;
    return E;
  }

  Expr *mkPtrOp(PtrOpKind Op, const std::vector<Expr *> &Kids, SourceLoc Loc,
                CType Cty = CType()) {
    Expr *E = Prog.Arena.make(ExprKind::PtrOp, Loc, Kids);
    E->POp = Op;
    E->Cty = std::move(Cty);
    return E;
  }

  Expr *mkConvInt(CType Ty, Expr *V) {
    Expr *E = mk(ExprKind::ConvInt, V->Loc, {V});
    E->Cty = std::move(Ty);
    return E;
  }

  Expr *mkPureCall(std::string_view Name, const std::vector<Expr *> &Kids,
                   SourceLoc Loc) {
    Expr *E = Prog.Arena.make(ExprKind::PureCall, Loc, Kids);
    Prog.Arena.setStr(*E, Name);
    return E;
  }

  Expr *mkFinishArith(mem::ArithOp Op, CType Ty, Expr *A, Expr *B, Expr *N) {
    Expr *E = mk(ExprKind::FinishArith, A->Loc, {A, B, N});
    E->AOp = Op;
    E->Cty = std::move(Ty);
    return E;
  }

  Expr *mkArrayShift(Expr *Ptr, CType ElemTy, Expr *Idx) {
    Expr *E = mk(ExprKind::ArrayShiftE, Ptr->Loc, {Ptr, Idx});
    E->Cty = std::move(ElemTy);
    return E;
  }

  Expr *mkMemberShift(Expr *Ptr, unsigned Tag, size_t MemberIdx) {
    Expr *E = mk(ExprKind::MemberShiftE, Ptr->Loc, {Ptr});
    ExprAux &X = Prog.Arena.aux(*E);
    X.Tag = Tag;
    X.MemberIdx = static_cast<unsigned>(MemberIdx);
    return E;
  }

  Expr *mkRet(Expr *V, SourceLoc Loc) { return mk(ExprKind::Ret, Loc, {V}); }

  /// Sequences two effects, discarding the first's value.
  Expr *seq(Expr *A, Expr *B, bool SeqPoint = false) {
    return mkLetStrong(Pattern::wild(), A, B, SeqPoint);
  }
};

/// The scalars \p Init initializes; elabInitStores nests a Core level each.
size_t initLeaves(const AilInit &Init) {
  if (!Init.isList())
    return 1;
  size_t N = 0;
  for (const AilInit &Sub : Init.List)
    N += initLeaves(Sub);
  return N;
}

mem::ArithOp arithOpOf(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Add: return mem::ArithOp::Add;
  case BinaryOp::Sub: return mem::ArithOp::Sub;
  case BinaryOp::Mul: return mem::ArithOp::Mul;
  case BinaryOp::Div: return mem::ArithOp::Div;
  case BinaryOp::Rem: return mem::ArithOp::Rem;
  case BinaryOp::Shl: return mem::ArithOp::Shl;
  case BinaryOp::Shr: return mem::ArithOp::Shr;
  case BinaryOp::BitAnd: return mem::ArithOp::And;
  case BinaryOp::BitOr: return mem::ArithOp::Or;
  case BinaryOp::BitXor: return mem::ArithOp::Xor;
  default: assert(false && "not an arithmetic operator"); return mem::ArithOp::Add;
  }
}

//===----------------------------------------------------------------------===//
// Elaborator
//===----------------------------------------------------------------------===//

class Elaborator : CoreBuilder {
public:
  /// The program's type table moves into the Core program at once, so
  /// every type the elaboration makes is interned where its program keeps
  /// it.
  explicit Elaborator(ail::AilProgram P)
      : Ail(std::move(P)), Env(Prog.Tags) {
    Prog.Tags = std::move(Ail.Tags);
  }

  Expected<CoreProgram> run();

private:
  ail::AilProgram Ail;
  ail::ImplEnv Env;

  // Per-function state.
  CType RetTy;
  bool InMain = false;
  Symbol LoopLabel;  ///< run target of `continue` (re-tests the condition)
  Symbol BreakLabel; ///< run target of `break`
  /// Stack of blocks; each lists the objects created so far in that block
  /// (used for save/run scope annotations, §5.8).
  std::vector<std::vector<ScopeObject>> BlockScopes;
  /// Ail parameter symbol id -> Core value-parameter symbol of the proc.
  std::map<unsigned, Symbol> ParamValueSyms;
  /// Pairs each indet[n] with its bound; numbered from 1 per program, so
  /// printed Core does not depend on what the process compiled before.
  unsigned NextIndetId = 1;
  /// Depth of the recursive walk (support/DepthGuard.h).
  unsigned Depth = 0;
  DepthGuard guard() { return DepthGuard(Depth, MaxSyntaxDepth); }
  /// Core levels that flat input nests: each statement of a block (and
  /// initialized scalar), parameter and switch case nests the rest a
  /// level deeper. A lower bound of the depth the Core check refuses past
  /// MaxCoreDepth; counted so elabStmtSeq and the Core tree stay bounded.
  unsigned CoreNest = 0;
  DepthGuard nest(size_t Levels) {
    return DepthGuard(CoreNest, MaxCoreDepth, Levels);
  }

  /// `Base'N` with N the new symbol's id. Built in place: most names fit
  /// the short-string buffer, so this usually allocates nothing.
  Symbol freshSym(std::string_view Base, ail::SymbolKind Kind) {
    char Digits[24];
    char *End = std::to_chars(Digits, Digits + sizeof Digits,
                              Prog.Syms.size()).ptr;
    std::string Name;
    Name.reserve(Base.size() + 1 + (End - Digits));
    Name.append(Base).append(1, '\'').append(Digits, End);
    return Prog.Syms.create(std::move(Name), Kind);
  }
  Symbol fresh(std::string_view Base) {
    return freshSym(Base, ail::SymbolKind::Object);
  }
  Symbol freshLabel(std::string_view Base) {
    return freshSym(Base, ail::SymbolKind::Label);
  }

  /// Annotates \p E with the objects of every enclosing block.
  void setCurrentScope(Expr &E) {
    size_t N = 0;
    for (const auto &Block : BlockScopes)
      N += Block.size();
    ScopeObject *Out = Prog.Arena.setScope(E, N).data();
    for (const auto &Block : BlockScopes)
      Out = std::copy(Block.begin(), Block.end(), Out);
  }

  Expr *mkRun(Symbol Label, SourceLoc Loc) {
    Expr *E = mk(ExprKind::Run, Loc);
    E->Sym = Label;
    setCurrentScope(*E);
    return E;
  }
  Expr *mkSave(Symbol Label, Expr *Body, SourceLoc Loc) {
    Expr *E = mk(ExprKind::Save, Loc, {Body});
    E->Sym = Label;
    setCurrentScope(*E);
    return E;
  }

  /// The decayed "value type" of an expression (array/function -> pointer).
  CType valueTypeOf(const AilExpr &E) {
    if (E.Ty.isArray())
      return Prog.Tags.pointerTo(E.Ty.element());
    if (E.Ty.isFunction())
      return Prog.Tags.pointerTo(E.Ty);
    return E.Ty;
  }

  //===--- expressions -------------------------------------------------===//
  Expected<Expr *> rvalue(const AilExpr &E);
  Expected<Expr *> lvalue(const AilExpr &E);

  Expected<Expr *> rvalueConv(const AilExpr &E, const CType &To) {
    CERB_TRY(R, rvalue(E));
    return convertLoaded(To, valueTypeOf(E), R, E.Loc);
  }

  /// Case-splits a loaded value: binds \p Bind in \p ThenE for the
  /// Specified case; \p UnspecE handles Unspecified. The scrutinee must be
  /// pure (Fig. 2: `case pe with ...`); the node is a pure Case when the
  /// branches are pure, an effect ECase otherwise.
  Expr *caseLoaded(Expr *Scrut, Symbol Bind, Expr *ThenE,
                     Expr *UnspecE) {
    assert(isPureExpr(*Scrut) && "case scrutinee must be pure");
    bool Pure = isPureExpr(*ThenE) && isPureExpr(*UnspecE);
    Expr *E = mk(Pure ? ExprKind::Case : ExprKind::ECase, Scrut->Loc, {Scrut});
    Branch Bs[] = {
        {Prog.Arena.specifiedPattern(Pattern::sym(Bind)), ThenE},
        {Pattern::unspecified(), UnspecE}};
    Prog.Arena.setBranches(*E, Bs);
    return E;
  }

  /// caseLoaded for an *effectful* scrutinee: binds it first.
  Expr *caseLoadedEff(Expr *Scrut, Symbol Bind, Expr *ThenE,
                        Expr *UnspecE) {
    if (isPureExpr(*Scrut))
      return caseLoaded(Scrut, Bind, ThenE, UnspecE);
    Symbol S = fresh("sc");
    SourceLoc Loc = Scrut->Loc;
    return mkLetStrong(Pattern::sym(S), Scrut,
                       caseLoaded(mkSym(S, Loc), Bind, ThenE, UnspecE));
  }

  /// Case-splits two loaded values at once, Fig. 3 style: the chosen de
  /// facto answers to Q43/Q52 (daemonic unspecified values) decide the
  /// Unspecified branches: unsigned result types propagate Unspecified,
  /// signed ones are undef(Exceptional_condition).
  Expr *caseLoaded2(Expr *S1, Expr *S2, Symbol B1, Symbol B2,
                      Expr *ThenE, const CType &ResultTy, SourceLoc Loc);

  /// Converts a loaded value between C types (6.3): identity, conv_int,
  /// int<->pointer via ptrop, bool normalisation.
  Expected<Expr *> convertLoaded(const CType &To, const CType &From,
                                 Expr *E, SourceLoc Loc);

  /// Effectful boolean truthiness of a loaded scalar (for if/while/&&/!).
  Expected<Expr *> truthiness(Expr *LoadedE, const CType &Ty,
                              SourceLoc Loc);

  /// Pure arithmetic core for integer `A op B` at result type \p Ty, with
  /// the ISO-mandated undef tests made explicit (Fig. 3). \p A and \p B
  /// are symbols bound to already-converted integer values.
  Expr *arithCore(BinaryOp Op, const CType &Ty, const CType &RhsTy,
                    Symbol A, Symbol B, SourceLoc Loc);

  Expected<Expr *> elabBinary(const AilExpr &E);
  Expected<Expr *> elabAssign(const AilExpr &E);
  Expected<Expr *> elabIncDec(const AilExpr &E);
  Expected<Expr *> elabCall(const AilExpr &E);
  Expected<Expr *> elabCast(const AilExpr &E);
  Expected<Expr *> elabCond(const AilExpr &E);

  //===--- statements --------------------------------------------------===//
  Expected<Expr *> elabStmt(const AilStmt &S);
  /// Elaborates Stmts[I..] with \p Tail as the continuation (the block's
  /// kill chain goes there, nested inside every declaration's binding so
  /// Core stays lexically scoped). Recurses once per statement, each
  /// holding its nest() levels.
  Expected<Expr *> elabStmtSeq(const std::vector<ail::AilStmtPtr> &Stmts,
                               size_t I, Expr *Tail);
  Expected<Expr *> elabBlock(const AilStmt &S);
  Expected<Expr *> elabDeclInto(const AilStmt &S, Expr *Rest);
  Expected<Expr *> elabWhile(const AilStmt &S);
  Expected<Expr *> elabSwitch(const AilStmt &S);

  /// Emits initialisation stores for `Ptr : Ty = Init`.
  Expected<Expr *> elabInitStores(const CType &Ty, Expr *MakePtr,
                                  const AilInit &Init, Expr *Rest);
  /// A zero value of type \p Ty (static-storage default, 6.7.9p10).
  Value zeroValue(const CType &Ty);

  /// Full-expression wrapper: statement-level sequence point.
  Expected<Expr *> fullExpr(const AilExpr &E) { return rvalue(E); }

  Expected<Expr *> elabFunction(const ail::AilFunction &F);
  Expected<Expr *> elabGlobalInit(const ail::AilGlobal &G);

  /// Collects (value, label) pairs of the cases of a switch body, without
  /// descending into nested switches.
  void collectCases(const AilStmt &S,
                    std::vector<std::pair<Int128, Symbol>> &Cases,
                    std::optional<Symbol> &Default);
};

//===----------------------------------------------------------------------===//
// Conversions, truthiness
//===----------------------------------------------------------------------===//

Expected<Expr *> Elaborator::convertLoaded(const CType &To,
                                           const CType &From, Expr *E,
                                           SourceLoc Loc) {
  if (To == From)
    return E;
  if (To.isInteger() && From.isInteger()) {
    Symbol A = fresh("cv");
    return caseLoadedEff(E, A, mkSpecified(mkConvInt(To, mkSym(A, Loc))),
                         mkVal(Value::unspecified(To), Loc));
  }
  if (To.isPointer() && From.isPointer())
    return E; // representation identity (CastPtr hook is identity)
  if (To.isPointer() && From.isInteger()) {
    Symbol A = fresh("cv"), R = fresh("cvr");
    std::vector<Expr *> Kids;
    Kids.push_back(mkSym(A, Loc));
    Expr *Conv = mkLetStrong(
        Pattern::sym(R),
        mkPtrOp(PtrOpKind::PtrFromInt, Kids, Loc, To),
        mkSpecified(mkSym(R, Loc)));
    return caseLoadedEff(E, A, Conv, mkVal(Value::unspecified(To), Loc));
  }
  if (To.isInteger() && From.isPointer()) {
    Symbol A = fresh("cv"), R = fresh("cvr");
    std::vector<Expr *> Kids;
    Kids.push_back(mkSym(A, Loc));
    Expr *Conv = mkLetStrong(
        Pattern::sym(R),
        mkPtrOp(PtrOpKind::IntFromPtr, Kids, Loc, To),
        mkSpecified(mkSym(R, Loc)));
    return caseLoadedEff(E, A, Conv, mkVal(Value::unspecified(To), Loc));
  }
  if (To.isVoid())
    return seq(E, mkVal(Value::specified(Value::unit()), Loc));
  if (To.isStructOrUnion() && From.isStructOrUnion())
    return E; // byte-image values
  return err(fmt("unsupported conversion from '{0}' to '{1}'", From.str(),
                 To.str()),
             Loc);
}

Expected<Expr *> Elaborator::truthiness(Expr *LoadedE, const CType &Ty,
                                        SourceLoc Loc) {
  Symbol A = fresh("t");
  if (Ty.isInteger()) {
    return caseLoadedEff(LoadedE, A,
                         mkNot(mkBinop(CoreBinop::Eq, mkSym(A, Loc),
                                       mkInt(0))),
                         mkUndef(mem::UBKind::IndeterminateValueUse, Loc));
  }
  if (Ty.isPointer()) {
    std::vector<Expr *> Kids;
    Kids.push_back(mkSym(A, Loc));
    Kids.push_back(mkVal(Value::pointer(mem::PointerValue::null()), Loc));
    return caseLoadedEff(LoadedE, A, mkPtrOp(PtrOpKind::PtrNe, Kids, Loc),
                         mkUndef(mem::UBKind::IndeterminateValueUse, Loc));
  }
  return err(fmt("cannot test truth of type '{0}'", Ty.str()), Loc);
}

Expr *Elaborator::caseLoaded2(Expr *S1, Expr *S2, Symbol B1, Symbol B2,
                                Expr *ThenE, const CType &ResultTy,
                                SourceLoc Loc) {
  // The Unspecified policy of Fig. 3: unsigned result -> Unspecified;
  // signed result -> undef(Exceptional_condition).
  auto UnspecResult = [&]() -> Expr * {
    if (ResultTy.isInteger() && ResultTy.isUnsigned())
      return mkVal(Value::unspecified(ResultTy), Loc);
    return mkUndef(mem::UBKind::ExceptionalCondition, Loc);
  };
  // case (s1) of Specified b1 => case (s2) of Specified b2 => Then
  Expr *Inner = caseLoaded(S2, B2, ThenE, UnspecResult());
  return caseLoaded(S1, B1, Inner, UnspecResult());
}

//===----------------------------------------------------------------------===//
// Integer arithmetic (the Fig. 3 pattern, per operator)
//===----------------------------------------------------------------------===//

Expr *Elaborator::arithCore(BinaryOp Op, const CType &Ty,
                              const CType &RhsTy, Symbol A, Symbol B,
                              SourceLoc Loc) {
  bool Uns = Ty.isUnsigned();
  auto SymA = [&] { return mkSym(A, Loc); };
  auto SymB = [&] { return mkSym(B, Loc); };
  // Only arithmetic operators finish through the model (comparisons and
  // the logical operators never reach arithOpOf).
  auto Finish = [&](Expr *N) {
    return mkSpecified(
        mkFinishArith(arithOpOf(Op), Ty, SymA(), SymB(), N));
  };
  auto IsRepresentable = [&](Expr *N) {
    std::vector<Expr *> Kids;
    Kids.push_back(mkVal(Value::ctype(Ty), Loc));
    Kids.push_back(N);
    return mkPureCall("is_representable", Kids, Loc);
  };

  switch (Op) {
  case BinaryOp::Add:
  case BinaryOp::Sub:
  case BinaryOp::Mul: {
    CoreBinop CB = Op == BinaryOp::Add   ? CoreBinop::Add
                   : Op == BinaryOp::Sub ? CoreBinop::Sub
                                         : CoreBinop::Mul;
    Symbol N = fresh("n");
    Expr *Num = mkBinop(CB, SymA(), SymB());
    if (Uns)
      // 6.2.5p9: unsigned arithmetic is reduced modulo 2^width.
      return mkPureLet(Pattern::sym(N), mkConvInt(Ty, Num),
                       Finish(mkSym(N, Loc)));
    // 6.5p5: signed overflow is undefined behaviour.
    return mkPureLet(
        Pattern::sym(N), Num,
        mkPureIf(IsRepresentable(mkSym(N, Loc)), Finish(mkSym(N, Loc)),
                 mkUndef(mem::UBKind::ExceptionalCondition, Loc)));
  }
  case BinaryOp::Div:
  case BinaryOp::Rem: {
    // 6.5.5p5: UB if the divisor is zero; p6: UB if a/b is unrepresentable
    // (this covers INT_MIN / -1 and INT_MIN % -1).
    Symbol Q = fresh("q");
    Expr *Compute =
        Op == BinaryOp::Div
            ? Finish(mkSym(Q, Loc))
            : Finish(mkBinop(CoreBinop::RemT, SymA(), SymB()));
    Expr *Guarded;
    if (Uns) {
      Guarded = Compute;
    } else {
      Guarded = mkPureIf(IsRepresentable(mkSym(Q, Loc)), Compute,
                         mkUndef(mem::UBKind::ExceptionalCondition, Loc));
    }
    Expr *Body = mkPureLet(Pattern::sym(Q),
                             mkBinop(CoreBinop::Div, SymA(), SymB()),
                             Guarded);
    return mkPureIf(mkBinop(CoreBinop::Eq, SymB(), mkInt(0)),
                    mkUndef(mem::UBKind::DivisionByZero, Loc),
                    Body);
  }
  case BinaryOp::Shl: {
    // Fig. 3, clause by clause (6.5.7p3-4).
    unsigned Width = Env.widthOf(Ty.intKind());
    Expr *TooLarge = mkBinop(CoreBinop::Le, mkInt(Width), SymB());
    Expr *Compute;
    if (Uns) {
      // E1 x 2^E2, reduced modulo one more than the maximum value.
      Expr *N = mkBinop(CoreBinop::Mul, SymA(),
                          mkBinop(CoreBinop::Exp, mkInt(2), SymB()));
      Compute = Finish(mkBinop(CoreBinop::RemT, N,
                               mkInt(Env.maxOf(Ty.intKind()) + 1)));
    } else {
      Symbol N = fresh("n");
      Compute = mkPureIf(
          mkBinop(CoreBinop::Lt, SymA(), mkInt(0)),
          mkUndef(mem::UBKind::ExceptionalCondition, Loc),
          mkPureLet(Pattern::sym(N),
                    mkBinop(CoreBinop::Mul, SymA(),
                            mkBinop(CoreBinop::Exp, mkInt(2), SymB())),
                    mkPureIf(IsRepresentable(mkSym(N, Loc)),
                             Finish(mkSym(N, Loc)),
                             mkUndef(mem::UBKind::ExceptionalCondition,
                                     Loc))));
    }
    return mkPureIf(
        mkBinop(CoreBinop::Lt, SymB(), mkInt(0)),
        mkUndef(mem::UBKind::NegativeShift, Loc),
        mkPureIf(TooLarge, mkUndef(mem::UBKind::ShiftTooLarge, Loc), Compute));
  }
  case BinaryOp::Shr: {
    unsigned Width = Env.widthOf(Ty.intKind());
    // Right shift of a negative value is implementation-defined
    // (6.5.7p5); we implement the universal arithmetic shift.
    std::vector<Expr *> Kids;
    Kids.push_back(SymA());
    Kids.push_back(SymB());
    Expr *Compute = Finish(mkPureCall("shr_arith", Kids, Loc));
    return mkPureIf(
        mkBinop(CoreBinop::Lt, SymB(), mkInt(0)),
        mkUndef(mem::UBKind::NegativeShift, Loc),
        mkPureIf(mkBinop(CoreBinop::Le, mkInt(Width), SymB()),
                 mkUndef(mem::UBKind::ShiftTooLarge, Loc),
                 Compute));
  }
  case BinaryOp::BitAnd:
  case BinaryOp::BitOr:
  case BinaryOp::BitXor: {
    const char *Fn = Op == BinaryOp::BitAnd  ? "bw_and"
                     : Op == BinaryOp::BitOr ? "bw_or"
                                             : "bw_xor";
    std::vector<Expr *> Kids;
    Kids.push_back(mkVal(Value::ctype(Ty), Loc));
    Kids.push_back(SymA());
    Kids.push_back(SymB());
    return Finish(mkPureCall(Fn, Kids, Loc));
  }
  case BinaryOp::Lt:
  case BinaryOp::Gt:
  case BinaryOp::Le:
  case BinaryOp::Ge:
  case BinaryOp::Eq:
  case BinaryOp::Ne: {
    CoreBinop CB;
    bool Negate = false;
    switch (Op) {
    case BinaryOp::Lt: CB = CoreBinop::Lt; break;
    case BinaryOp::Gt: CB = CoreBinop::Gt; break;
    case BinaryOp::Le: CB = CoreBinop::Le; break;
    case BinaryOp::Ge: CB = CoreBinop::Ge; break;
    case BinaryOp::Eq: CB = CoreBinop::Eq; break;
    default: CB = CoreBinop::Eq; Negate = true; break;
    }
    Expr *Cmp = mkBinop(CB, SymA(), SymB());
    if (Negate)
      Cmp = mkNot(Cmp);
    return mkPureIf(Cmp, mkSpecified(mkInt(1)), mkSpecified(mkInt(0)));
  }
  default:
    assert(false && "not an integer operator");
    return mkUndef(mem::UBKind::ExceptionalCondition, Loc);
  }
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

Expected<Expr *> Elaborator::lvalue(const AilExpr &E) {
  DepthGuard G = guard();
  if (!G)
    return G.error("elaborate", E.Loc);
  switch (E.Kind) {
  case AilExprKind::Var:
    // The Core symbol of a C object is bound to its pointer value.
    return mkSym(E.Sym, E.Loc);
  case AilExprKind::Unary:
    if (E.UOp == UnaryOp::Deref) {
      // The lvalue *e is the pointer value of e; no access is performed
      // here — the access-time check happens at load/store (Q31).
      CERB_TRY(P, rvalue(*E.Kids[0]));
      Symbol A = fresh("p");
      return caseLoadedEff(P, A, mkSym(A, E.Loc),
                           mkUndef(mem::UBKind::IndeterminateValueUse,
                                   E.Loc));
    }
    break;
  case AilExprKind::Member: {
    const AilExpr &Base = *E.Kids[0];
    CERB_TRY(P, lvalue(Base));
    unsigned Tag = Base.Ty.tag();
    auto Idx = Prog.Tags.get(Tag).memberIndex(E.MemberName);
    assert(Idx && "member vanished after type checking");
    Symbol A = fresh("m");
    return mkLetStrong(Pattern::sym(A), P,
                       mkMemberShift(mkSym(A, E.Loc), Tag, *Idx));
  }
  default:
    break;
  }
  return err("expression is not an lvalue", E.Loc, "6.3.2.1");
}

Expected<Expr *> Elaborator::rvalue(const AilExpr &E) {
  DepthGuard G = guard();
  if (!G)
    return G.error("elaborate", E.Loc);
  switch (E.Kind) {
  case AilExprKind::IntConst:
    return mkVal(Value::specified(Value::integer(E.IntValue)), E.Loc);

  case AilExprKind::FuncRef:
    return mkVal(Value::specified(Value::function(E.Sym.Id)), E.Loc);

  case AilExprKind::Var:
  case AilExprKind::Member: {
    // Lvalue used as a value: array decay or lvalue conversion (a load).
    CERB_TRY(P, lvalue(E));
    if (E.Ty.isArray()) {
      // Array-to-pointer decay (6.3.2.1p3): the object pointer itself,
      // re-typed at the element; no access happens.
      Symbol A = fresh("d");
      return mkLetStrong(Pattern::sym(A), P, mkSpecified(mkSym(A, E.Loc)));
    }
    Symbol A = fresh("l");
    return mkLetStrong(Pattern::sym(A), P,
                       mkLoad(E.Ty, mkSym(A, E.Loc), E.Loc));
  }

  case AilExprKind::Unary:
    switch (E.UOp) {
    case UnaryOp::AddrOf: {
      const AilExpr &Sub = *E.Kids[0];
      if (Sub.Kind == AilExprKind::FuncRef)
        return mkVal(Value::specified(Value::function(Sub.Sym.Id)), E.Loc);
      CERB_TRY(P, lvalue(Sub));
      Symbol A = fresh("a");
      return mkLetStrong(Pattern::sym(A), P, mkSpecified(mkSym(A, E.Loc)));
    }
    case UnaryOp::Deref: {
      // Rvalue *e: evaluate pointer then load (or decay for arrays).
      CERB_TRY(P, lvalue(E));
      if (E.Ty.isArray()) {
        Symbol A = fresh("d");
        return mkLetStrong(Pattern::sym(A), P, mkSpecified(mkSym(A, E.Loc)));
      }
      if (E.Ty.isFunction()) {
        // *fp in call position: the function designator.
        return lvalue(E);
      }
      Symbol A = fresh("l");
      return mkLetStrong(Pattern::sym(A), P,
                         mkLoad(E.Ty, mkSym(A, E.Loc), E.Loc));
    }
    case UnaryOp::Plus:
    case UnaryOp::Minus:
    case UnaryOp::BitNot: {
      CERB_TRY(V, rvalueConv(*E.Kids[0], E.Ty));
      Symbol A = fresh("u");
      Expr *Compute;
      SourceLoc Loc = E.Loc;
      if (E.UOp == UnaryOp::Plus) {
        Compute = mkSpecified(mkSym(A, Loc));
      } else if (E.UOp == UnaryOp::Minus) {
        // 0 - a, with the signed-overflow test (negating INT_MIN is UB).
        Symbol N = fresh("n");
        Expr *Num = mkBinop(CoreBinop::Sub, mkInt(0), mkSym(A, Loc));
        if (E.Ty.isUnsigned()) {
          Compute = mkSpecified(mkFinishArith(
              mem::ArithOp::Sub, E.Ty, mkInt(0), mkSym(A, Loc),
              mkConvInt(E.Ty, Num)));
        } else {
          std::vector<Expr *> RK;
          RK.push_back(mkVal(Value::ctype(E.Ty), Loc));
          RK.push_back(mkSym(N, Loc));
          Compute = mkPureLet(
              Pattern::sym(N), Num,
              mkPureIf(mkPureCall("is_representable", RK, Loc),
                       mkSpecified(mkSym(N, Loc)),
                       mkUndef(mem::UBKind::ExceptionalCondition, Loc)));
        }
      } else { // BitNot
        std::vector<Expr *> Kids;
        Kids.push_back(mkVal(Value::ctype(E.Ty), Loc));
        Kids.push_back(mkSym(A, Loc));
        Compute = mkSpecified(mkPureCall("bw_compl", Kids, Loc));
      }
      Symbol S = fresh("v");
      return mkLetStrong(
          Pattern::sym(S), V,
          caseLoaded(mkSym(S, Loc), A, Compute, E.Ty.isUnsigned()
                         ? mkVal(Value::unspecified(E.Ty), Loc)
                         : mkUndef(mem::UBKind::ExceptionalCondition, Loc)));
    }
    case UnaryOp::LogNot: {
      CERB_TRY(V, rvalue(*E.Kids[0]));
      CERB_TRY(B, truthiness(V, valueTypeOf(*E.Kids[0]), E.Loc));
      Symbol S = fresh("b");
      return mkLetStrong(Pattern::sym(S), B,
                         mkPureIf(mkSym(S, E.Loc), mkSpecified(mkInt(0)),
                                  mkSpecified(mkInt(1))));
    }
    case UnaryOp::PreInc:
    case UnaryOp::PreDec:
    case UnaryOp::PostInc:
    case UnaryOp::PostDec:
      return elabIncDec(E);
    }
    return err("bad unary operator", E.Loc);

  case AilExprKind::Binary:
    return elabBinary(E);
  case AilExprKind::Assign:
    return elabAssign(E);
  case AilExprKind::Cond:
    return elabCond(E);
  case AilExprKind::Cast:
    return elabCast(E);
  case AilExprKind::Call:
    return elabCall(E);
  case AilExprKind::Comma: {
    CERB_TRY(A, rvalue(*E.Kids[0]));
    CERB_TRY(B, rvalue(*E.Kids[1]));
    return seq(A, B);
  }
  default:
    return err("expression kind not handled by the elaboration", E.Loc);
  }
}

#include "elab/ElaborateImpl.inc"

} // namespace

Expected<CoreProgram> cerb::elab::elaborate(ail::AilProgram Prog) {
  Elaborator E(std::move(Prog));
  return E.run();
}
