//===-- elab/Elaborate.cpp ------------------------------------------------===//

#include "elab/Elaborate.h"

#include "support/Format.h"
#include "typing/TypeCheck.h"

#include <cassert>

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

ExprPtr mk(ExprKind K, SourceLoc Loc = SourceLoc()) {
  return Expr::make(K, Loc);
}

ExprPtr mkVal(Value V, SourceLoc Loc = SourceLoc()) {
  auto E = mk(ExprKind::Val, Loc);
  E->V = std::move(V);
  return E;
}

ExprPtr mkSym(Symbol S, SourceLoc Loc = SourceLoc()) {
  auto E = mk(ExprKind::Sym, Loc);
  E->Sym = S;
  return E;
}

ExprPtr mkUndef(mem::UBKind K, SourceLoc Loc) {
  auto E = mk(ExprKind::Undef, Loc);
  E->UB = K;
  return E;
}

ExprPtr mkInt(Int128 V) { return mkVal(Value::integer(V)); }

ExprPtr mkSpecified(ExprPtr Inner) {
  auto E = mk(ExprKind::SpecifiedE, Inner->Loc);
  E->Kids.push_back(std::move(Inner));
  return E;
}

ExprPtr mkBinop(CoreBinop Op, ExprPtr A, ExprPtr B) {
  auto E = mk(ExprKind::Binop, A->Loc);
  E->BOp = Op;
  E->Kids.push_back(std::move(A));
  E->Kids.push_back(std::move(B));
  return E;
}

ExprPtr mkNot(ExprPtr A) {
  auto E = mk(ExprKind::Not, A->Loc);
  E->Kids.push_back(std::move(A));
  return E;
}

ExprPtr mkPureIf(ExprPtr C, ExprPtr T, ExprPtr F) {
  auto E = mk(ExprKind::PureIf, C->Loc);
  E->Kids.push_back(std::move(C));
  E->Kids.push_back(std::move(T));
  E->Kids.push_back(std::move(F));
  return E;
}

ExprPtr mkEIf(ExprPtr C, ExprPtr T, ExprPtr F) {
  auto E = mk(ExprKind::EIf, C->Loc);
  E->Kids.push_back(std::move(C));
  E->Kids.push_back(std::move(T));
  E->Kids.push_back(std::move(F));
  return E;
}

ExprPtr mkPureLet(Pattern Pat, ExprPtr E1, ExprPtr E2) {
  auto E = mk(ExprKind::PureLet, E1->Loc);
  E->Pat = std::move(Pat);
  E->Kids.push_back(std::move(E1));
  E->Kids.push_back(std::move(E2));
  return E;
}

ExprPtr mkLetStrong(Pattern Pat, ExprPtr E1, ExprPtr E2,
                    bool SeqPoint = false) {
  auto E = mk(ExprKind::LetStrong, E1->Loc);
  E->Pat = std::move(Pat);
  E->SeqPoint = SeqPoint;
  E->Kids.push_back(std::move(E1));
  E->Kids.push_back(std::move(E2));
  return E;
}

ExprPtr mkLetWeak(Pattern Pat, ExprPtr E1, ExprPtr E2) {
  auto E = mk(ExprKind::LetWeak, E1->Loc);
  E->Pat = std::move(Pat);
  E->Kids.push_back(std::move(E1));
  E->Kids.push_back(std::move(E2));
  return E;
}

ExprPtr mkUnseq(std::vector<ExprPtr> Kids) {
  assert(!Kids.empty() && "empty unseq");
  auto E = mk(ExprKind::Unseq, Kids[0]->Loc);
  E->Kids = std::move(Kids);
  return E;
}

ExprPtr mkSkip() { return mk(ExprKind::Skip); }

ExprPtr mkLoad(CType Ty, ExprPtr Ptr, SourceLoc Loc, bool Neg = false) {
  auto E = mk(ExprKind::Action, Loc);
  E->Act = ActionKind::Load;
  E->Cty = std::move(Ty);
  E->NegPolarity = Neg;
  E->Kids.push_back(std::move(Ptr));
  return E;
}

ExprPtr mkStore(CType Ty, ExprPtr Ptr, ExprPtr V, SourceLoc Loc,
                bool Neg = false) {
  auto E = mk(ExprKind::Action, Loc);
  E->Act = ActionKind::Store;
  E->Cty = std::move(Ty);
  E->NegPolarity = Neg;
  E->Kids.push_back(std::move(Ptr));
  E->Kids.push_back(std::move(V));
  return E;
}

ExprPtr mkCreate(CType Ty, std::string Name, SourceLoc Loc) {
  auto E = mk(ExprKind::Action, Loc);
  E->Act = ActionKind::Create;
  E->Cty = std::move(Ty);
  E->Str = std::move(Name);
  return E;
}

ExprPtr mkKill(ExprPtr Ptr, SourceLoc Loc) {
  auto E = mk(ExprKind::Action, Loc);
  E->Act = ActionKind::Kill;
  E->Kids.push_back(std::move(Ptr));
  return E;
}

ExprPtr mkPtrOp(PtrOpKind Op, std::vector<ExprPtr> Kids, SourceLoc Loc,
                CType Cty = CType()) {
  auto E = mk(ExprKind::PtrOp, Loc);
  E->POp = Op;
  E->Cty = std::move(Cty);
  E->Kids = std::move(Kids);
  return E;
}

ExprPtr mkConvInt(CType Ty, ExprPtr V) {
  auto E = mk(ExprKind::ConvInt, V->Loc);
  E->Cty = std::move(Ty);
  E->Kids.push_back(std::move(V));
  return E;
}

ExprPtr mkPureCall(std::string Name, std::vector<ExprPtr> Kids,
                   SourceLoc Loc) {
  auto E = mk(ExprKind::PureCall, Loc);
  E->Str = std::move(Name);
  E->Kids = std::move(Kids);
  return E;
}

ExprPtr mkFinishArith(mem::ArithOp Op, CType Ty, ExprPtr A, ExprPtr B,
                      ExprPtr N) {
  auto E = mk(ExprKind::FinishArith, A->Loc);
  E->AOp = Op;
  E->Cty = std::move(Ty);
  E->Kids.push_back(std::move(A));
  E->Kids.push_back(std::move(B));
  E->Kids.push_back(std::move(N));
  return E;
}

ExprPtr mkArrayShift(ExprPtr Ptr, CType ElemTy, ExprPtr Idx) {
  auto E = mk(ExprKind::ArrayShiftE, Ptr->Loc);
  E->Cty = std::move(ElemTy);
  E->Kids.push_back(std::move(Ptr));
  E->Kids.push_back(std::move(Idx));
  return E;
}

ExprPtr mkMemberShift(ExprPtr Ptr, unsigned Tag, size_t MemberIdx) {
  auto E = mk(ExprKind::MemberShiftE, Ptr->Loc);
  E->Tag = Tag;
  E->MemberIdx = MemberIdx;
  E->Kids.push_back(std::move(Ptr));
  return E;
}

ExprPtr mkRet(ExprPtr V, SourceLoc Loc) {
  auto E = mk(ExprKind::Ret, Loc);
  E->Kids.push_back(std::move(V));
  return E;
}

/// Sequences two effects, discarding the first's value.
ExprPtr seq(ExprPtr A, ExprPtr B, bool SeqPoint = false) {
  return mkLetStrong(Pattern::wild(), std::move(A), std::move(B), SeqPoint);
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

class Elaborator {
public:
  explicit Elaborator(ail::AilProgram P)
      : Ail(std::move(P)), Env(Ail.Tags) {}

  Expected<CoreProgram> run();

private:
  ail::AilProgram Ail;
  ail::ImplEnv Env;
  CoreProgram Prog;

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

  Symbol fresh(std::string_view Base) {
    return Prog.Syms.create(fmt("{0}'{1}", Base, Prog.Syms.size()),
                            ail::SymbolKind::Object);
  }
  Symbol freshLabel(std::string_view Base) {
    return Prog.Syms.create(fmt("{0}'{1}", Base, Prog.Syms.size()),
                            ail::SymbolKind::Label);
  }

  std::vector<ScopeObject> currentScope() const {
    std::vector<ScopeObject> Out;
    for (const auto &Block : BlockScopes)
      Out.insert(Out.end(), Block.begin(), Block.end());
    return Out;
  }

  ExprPtr mkRun(Symbol Label, SourceLoc Loc) {
    auto E = mk(ExprKind::Run, Loc);
    E->Sym = Label;
    E->Scope = currentScope();
    return E;
  }
  ExprPtr mkSave(Symbol Label, ExprPtr Body, SourceLoc Loc) {
    auto E = mk(ExprKind::Save, Loc);
    E->Sym = Label;
    E->Scope = currentScope();
    E->Kids.push_back(std::move(Body));
    return E;
  }

  /// The decayed "value type" of an expression (array/function -> pointer).
  CType valueTypeOf(const AilExpr &E) const {
    if (E.Ty.isArray())
      return CType::makePointer(E.Ty.element());
    if (E.Ty.isFunction())
      return CType::makePointer(E.Ty);
    return E.Ty;
  }

  //===--- expressions -------------------------------------------------===//
  Expected<ExprPtr> rvalue(const AilExpr &E);
  Expected<ExprPtr> lvalue(const AilExpr &E);

  Expected<ExprPtr> rvalueConv(const AilExpr &E, const CType &To) {
    CERB_TRY(R, rvalue(E));
    return convertLoaded(To, valueTypeOf(E), std::move(R), E.Loc);
  }

  /// Case-splits a loaded value: binds \p Bind in \p ThenE for the
  /// Specified case; \p UnspecE handles Unspecified. The scrutinee must be
  /// pure (Fig. 2: `case pe with ...`); the node is a pure Case when the
  /// branches are pure, an effect ECase otherwise.
  ExprPtr caseLoaded(ExprPtr Scrut, Symbol Bind, ExprPtr ThenE,
                     ExprPtr UnspecE) {
    assert(isPureExpr(*Scrut) && "case scrutinee must be pure");
    bool Pure = isPureExpr(*ThenE) && isPureExpr(*UnspecE);
    auto E = mk(Pure ? ExprKind::Case : ExprKind::ECase, Scrut->Loc);
    E->Kids.push_back(std::move(Scrut));
    E->Branches.emplace_back(Pattern::specified(Pattern::sym(Bind)),
                             std::move(ThenE));
    E->Branches.emplace_back(Pattern::unspecified(), std::move(UnspecE));
    return E;
  }

  /// caseLoaded for an *effectful* scrutinee: binds it first.
  ExprPtr caseLoadedEff(ExprPtr Scrut, Symbol Bind, ExprPtr ThenE,
                        ExprPtr UnspecE) {
    if (isPureExpr(*Scrut))
      return caseLoaded(std::move(Scrut), Bind, std::move(ThenE),
                        std::move(UnspecE));
    Symbol S = fresh("sc");
    SourceLoc Loc = Scrut->Loc;
    return mkLetStrong(Pattern::sym(S), std::move(Scrut),
                       caseLoaded(mkSym(S, Loc), Bind, std::move(ThenE),
                                  std::move(UnspecE)));
  }

  /// Case-splits two loaded values at once, Fig. 3 style: the chosen de
  /// facto answers to Q43/Q52 (daemonic unspecified values) decide the
  /// Unspecified branches: unsigned result types propagate Unspecified,
  /// signed ones are undef(Exceptional_condition).
  ExprPtr caseLoaded2(ExprPtr S1, ExprPtr S2, Symbol B1, Symbol B2,
                      ExprPtr ThenE, const CType &ResultTy, SourceLoc Loc);

  /// Converts a loaded value between C types (6.3): identity, conv_int,
  /// int<->pointer via ptrop, bool normalisation.
  Expected<ExprPtr> convertLoaded(const CType &To, const CType &From,
                                  ExprPtr E, SourceLoc Loc);

  /// Effectful boolean truthiness of a loaded scalar (for if/while/&&/!).
  Expected<ExprPtr> truthiness(ExprPtr LoadedE, const CType &Ty,
                               SourceLoc Loc);

  /// Pure arithmetic core for integer `A op B` at result type \p Ty, with
  /// the ISO-mandated undef tests made explicit (Fig. 3). \p A and \p B
  /// are symbols bound to already-converted integer values.
  ExprPtr arithCore(BinaryOp Op, const CType &Ty, const CType &RhsTy,
                    Symbol A, Symbol B, SourceLoc Loc);

  Expected<ExprPtr> elabBinary(const AilExpr &E);
  Expected<ExprPtr> elabAssign(const AilExpr &E);
  Expected<ExprPtr> elabIncDec(const AilExpr &E);
  Expected<ExprPtr> elabCall(const AilExpr &E);
  Expected<ExprPtr> elabCast(const AilExpr &E);
  Expected<ExprPtr> elabCond(const AilExpr &E);

  //===--- statements --------------------------------------------------===//
  Expected<ExprPtr> elabStmt(const AilStmt &S);
  /// Elaborates Stmts[I..] with \p Tail as the continuation (the block's
  /// kill chain goes there, nested inside every declaration's binding so
  /// Core stays lexically scoped).
  Expected<ExprPtr> elabStmtSeq(const std::vector<ail::AilStmtPtr> &Stmts,
                                size_t I, ExprPtr Tail);
  Expected<ExprPtr> elabBlock(const AilStmt &S);
  Expected<ExprPtr> elabDeclInto(const AilStmt &S, ExprPtr Rest);
  Expected<ExprPtr> elabWhile(const AilStmt &S);
  Expected<ExprPtr> elabSwitch(const AilStmt &S);

  /// Emits initialisation stores for `Ptr : Ty = Init`.
  Expected<ExprPtr> elabInitStores(const CType &Ty, ExprPtr MakePtr,
                                   const AilInit &Init, ExprPtr Rest);
  /// A zero value of type \p Ty (static-storage default, 6.7.9p10).
  Value zeroValue(const CType &Ty);

  /// Full-expression wrapper: statement-level sequence point.
  Expected<ExprPtr> fullExpr(const AilExpr &E) { return rvalue(E); }

  Expected<ExprPtr> elabFunction(const ail::AilFunction &F);
  Expected<ExprPtr> elabGlobalInit(const ail::AilGlobal &G);

  /// Collects (value, label) pairs of the cases of a switch body, without
  /// descending into nested switches.
  void collectCases(const AilStmt &S,
                    std::vector<std::pair<Int128, Symbol>> &Cases,
                    std::optional<Symbol> &Default);
};

//===----------------------------------------------------------------------===//
// Conversions, truthiness
//===----------------------------------------------------------------------===//

Expected<ExprPtr> Elaborator::convertLoaded(const CType &To,
                                            const CType &From, ExprPtr E,
                                            SourceLoc Loc) {
  if (To == From)
    return E;
  if (To.isInteger() && From.isInteger()) {
    Symbol A = fresh("cv");
    return caseLoadedEff(std::move(E), A,
                         mkSpecified(mkConvInt(To, mkSym(A, Loc))),
                         mkVal(Value::unspecified(To), Loc));
  }
  if (To.isPointer() && From.isPointer())
    return E; // representation identity (CastPtr hook is identity)
  if (To.isPointer() && From.isInteger()) {
    Symbol A = fresh("cv"), R = fresh("cvr");
    std::vector<ExprPtr> Kids;
    Kids.push_back(mkSym(A, Loc));
    ExprPtr Conv = mkLetStrong(
        Pattern::sym(R),
        mkPtrOp(PtrOpKind::PtrFromInt, std::move(Kids), Loc, To),
        mkSpecified(mkSym(R, Loc)));
    return caseLoadedEff(std::move(E), A, std::move(Conv),
                         mkVal(Value::unspecified(To), Loc));
  }
  if (To.isInteger() && From.isPointer()) {
    Symbol A = fresh("cv"), R = fresh("cvr");
    std::vector<ExprPtr> Kids;
    Kids.push_back(mkSym(A, Loc));
    ExprPtr Conv = mkLetStrong(
        Pattern::sym(R),
        mkPtrOp(PtrOpKind::IntFromPtr, std::move(Kids), Loc, To),
        mkSpecified(mkSym(R, Loc)));
    return caseLoadedEff(std::move(E), A, std::move(Conv),
                         mkVal(Value::unspecified(To), Loc));
  }
  if (To.isVoid())
    return seq(std::move(E), mkVal(Value::specified(Value::unit()), Loc));
  if (To.isStructOrUnion() && From.isStructOrUnion())
    return E; // byte-image values
  return err(fmt("unsupported conversion from '{0}' to '{1}'", From.str(),
                 To.str()),
             Loc);
}

Expected<ExprPtr> Elaborator::truthiness(ExprPtr LoadedE, const CType &Ty,
                                         SourceLoc Loc) {
  Symbol A = fresh("t");
  if (Ty.isInteger()) {
    return caseLoadedEff(std::move(LoadedE), A,
                         mkNot(mkBinop(CoreBinop::Eq, mkSym(A, Loc),
                                       mkInt(0))),
                         mkUndef(mem::UBKind::IndeterminateValueUse, Loc));
  }
  if (Ty.isPointer()) {
    std::vector<ExprPtr> Kids;
    Kids.push_back(mkSym(A, Loc));
    Kids.push_back(mkVal(Value::pointer(mem::PointerValue::null()), Loc));
    return caseLoadedEff(std::move(LoadedE), A,
                         mkPtrOp(PtrOpKind::PtrNe, std::move(Kids), Loc),
                         mkUndef(mem::UBKind::IndeterminateValueUse, Loc));
  }
  return err(fmt("cannot test truth of type '{0}'", Ty.str()), Loc);
}

ExprPtr Elaborator::caseLoaded2(ExprPtr S1, ExprPtr S2, Symbol B1, Symbol B2,
                                ExprPtr ThenE, const CType &ResultTy,
                                SourceLoc Loc) {
  // The Unspecified policy of Fig. 3: unsigned result -> Unspecified;
  // signed result -> undef(Exceptional_condition).
  auto UnspecResult = [&]() -> ExprPtr {
    if (ResultTy.isInteger() && ResultTy.isUnsigned())
      return mkVal(Value::unspecified(ResultTy), Loc);
    return mkUndef(mem::UBKind::ExceptionalCondition, Loc);
  };
  // case (s1) of Specified b1 => case (s2) of Specified b2 => Then
  ExprPtr Inner = caseLoaded(std::move(S2), B2, std::move(ThenE),
                             UnspecResult());
  return caseLoaded(std::move(S1), B1, std::move(Inner), UnspecResult());
}

//===----------------------------------------------------------------------===//
// Integer arithmetic (the Fig. 3 pattern, per operator)
//===----------------------------------------------------------------------===//

ExprPtr Elaborator::arithCore(BinaryOp Op, const CType &Ty,
                              const CType &RhsTy, Symbol A, Symbol B,
                              SourceLoc Loc) {
  bool Uns = Ty.isUnsigned();
  auto SymA = [&] { return mkSym(A, Loc); };
  auto SymB = [&] { return mkSym(B, Loc); };
  // Only arithmetic operators finish through the model (comparisons and
  // the logical operators never reach arithOpOf).
  auto Finish = [&](ExprPtr N) {
    return mkSpecified(
        mkFinishArith(arithOpOf(Op), Ty, SymA(), SymB(), std::move(N)));
  };
  auto IsRepresentable = [&](ExprPtr N) {
    std::vector<ExprPtr> Kids;
    Kids.push_back(mkVal(Value::ctype(Ty), Loc));
    Kids.push_back(std::move(N));
    return mkPureCall("is_representable", std::move(Kids), Loc);
  };

  switch (Op) {
  case BinaryOp::Add:
  case BinaryOp::Sub:
  case BinaryOp::Mul: {
    CoreBinop CB = Op == BinaryOp::Add   ? CoreBinop::Add
                   : Op == BinaryOp::Sub ? CoreBinop::Sub
                                         : CoreBinop::Mul;
    Symbol N = fresh("n");
    ExprPtr Num = mkBinop(CB, SymA(), SymB());
    if (Uns)
      // 6.2.5p9: unsigned arithmetic is reduced modulo 2^width.
      return mkPureLet(Pattern::sym(N), mkConvInt(Ty, std::move(Num)),
                       Finish(mkSym(N, Loc)));
    // 6.5p5: signed overflow is undefined behaviour.
    return mkPureLet(
        Pattern::sym(N), std::move(Num),
        mkPureIf(IsRepresentable(mkSym(N, Loc)), Finish(mkSym(N, Loc)),
                 mkUndef(mem::UBKind::ExceptionalCondition, Loc)));
  }
  case BinaryOp::Div:
  case BinaryOp::Rem: {
    // 6.5.5p5: UB if the divisor is zero; p6: UB if a/b is unrepresentable
    // (this covers INT_MIN / -1 and INT_MIN % -1).
    Symbol Q = fresh("q");
    ExprPtr Compute =
        Op == BinaryOp::Div
            ? Finish(mkSym(Q, Loc))
            : Finish(mkBinop(CoreBinop::RemT, SymA(), SymB()));
    ExprPtr Guarded;
    if (Uns) {
      Guarded = std::move(Compute);
    } else {
      Guarded = mkPureIf(IsRepresentable(mkSym(Q, Loc)), std::move(Compute),
                         mkUndef(mem::UBKind::ExceptionalCondition, Loc));
    }
    ExprPtr Body = mkPureLet(Pattern::sym(Q),
                             mkBinop(CoreBinop::Div, SymA(), SymB()),
                             std::move(Guarded));
    return mkPureIf(mkBinop(CoreBinop::Eq, SymB(), mkInt(0)),
                    mkUndef(mem::UBKind::DivisionByZero, Loc),
                    std::move(Body));
  }
  case BinaryOp::Shl: {
    // Fig. 3, clause by clause (6.5.7p3-4).
    unsigned Width = Env.widthOf(Ty.intKind());
    ExprPtr TooLarge = mkBinop(CoreBinop::Le, mkInt(Width), SymB());
    ExprPtr Compute;
    if (Uns) {
      // E1 x 2^E2, reduced modulo one more than the maximum value.
      ExprPtr N = mkBinop(CoreBinop::Mul, SymA(),
                          mkBinop(CoreBinop::Exp, mkInt(2), SymB()));
      Compute = Finish(mkBinop(CoreBinop::RemT, std::move(N),
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
        mkPureIf(std::move(TooLarge),
                 mkUndef(mem::UBKind::ShiftTooLarge, Loc),
                 std::move(Compute)));
  }
  case BinaryOp::Shr: {
    unsigned Width = Env.widthOf(Ty.intKind());
    // Right shift of a negative value is implementation-defined
    // (6.5.7p5); we implement the universal arithmetic shift.
    std::vector<ExprPtr> Kids;
    Kids.push_back(SymA());
    Kids.push_back(SymB());
    ExprPtr Compute = Finish(mkPureCall("shr_arith", std::move(Kids), Loc));
    return mkPureIf(
        mkBinop(CoreBinop::Lt, SymB(), mkInt(0)),
        mkUndef(mem::UBKind::NegativeShift, Loc),
        mkPureIf(mkBinop(CoreBinop::Le, mkInt(Width), SymB()),
                 mkUndef(mem::UBKind::ShiftTooLarge, Loc),
                 std::move(Compute)));
  }
  case BinaryOp::BitAnd:
  case BinaryOp::BitOr:
  case BinaryOp::BitXor: {
    const char *Fn = Op == BinaryOp::BitAnd  ? "bw_and"
                     : Op == BinaryOp::BitOr ? "bw_or"
                                             : "bw_xor";
    std::vector<ExprPtr> Kids;
    Kids.push_back(mkVal(Value::ctype(Ty), Loc));
    Kids.push_back(SymA());
    Kids.push_back(SymB());
    return Finish(mkPureCall(Fn, std::move(Kids), Loc));
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
    ExprPtr Cmp = mkBinop(CB, SymA(), SymB());
    if (Negate)
      Cmp = mkNot(std::move(Cmp));
    return mkPureIf(std::move(Cmp), mkSpecified(mkInt(1)),
                    mkSpecified(mkInt(0)));
  }
  default:
    assert(false && "not an integer operator");
    return mkUndef(mem::UBKind::ExceptionalCondition, Loc);
  }
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

Expected<ExprPtr> Elaborator::lvalue(const AilExpr &E) {
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
      return caseLoadedEff(std::move(P), A, mkSym(A, E.Loc),
                           mkUndef(mem::UBKind::IndeterminateValueUse,
                                   E.Loc));
    }
    break;
  case AilExprKind::Member: {
    const AilExpr &Base = *E.Kids[0];
    CERB_TRY(P, lvalue(Base));
    unsigned Tag = Base.Ty.tag();
    auto Idx = Ail.Tags.get(Tag).memberIndex(E.MemberName);
    assert(Idx && "member vanished after type checking");
    Symbol A = fresh("m");
    return mkLetStrong(Pattern::sym(A), std::move(P),
                       mkMemberShift(mkSym(A, E.Loc), Tag, *Idx));
  }
  default:
    break;
  }
  return err("expression is not an lvalue", E.Loc, "6.3.2.1");
}

Expected<ExprPtr> Elaborator::rvalue(const AilExpr &E) {
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
      return mkLetStrong(Pattern::sym(A), std::move(P),
                         mkSpecified(mkSym(A, E.Loc)));
    }
    Symbol A = fresh("l");
    return mkLetStrong(Pattern::sym(A), std::move(P),
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
      return mkLetStrong(Pattern::sym(A), std::move(P),
                         mkSpecified(mkSym(A, E.Loc)));
    }
    case UnaryOp::Deref: {
      // Rvalue *e: evaluate pointer then load (or decay for arrays).
      CERB_TRY(P, lvalue(E));
      if (E.Ty.isArray()) {
        Symbol A = fresh("d");
        return mkLetStrong(Pattern::sym(A), std::move(P),
                           mkSpecified(mkSym(A, E.Loc)));
      }
      if (E.Ty.isFunction()) {
        // *fp in call position: the function designator.
        return lvalue(E);
      }
      Symbol A = fresh("l");
      return mkLetStrong(Pattern::sym(A), std::move(P),
                         mkLoad(E.Ty, mkSym(A, E.Loc), E.Loc));
    }
    case UnaryOp::Plus:
    case UnaryOp::Minus:
    case UnaryOp::BitNot: {
      CERB_TRY(V, rvalueConv(*E.Kids[0], E.Ty));
      Symbol A = fresh("u");
      ExprPtr Compute;
      SourceLoc Loc = E.Loc;
      if (E.UOp == UnaryOp::Plus) {
        Compute = mkSpecified(mkSym(A, Loc));
      } else if (E.UOp == UnaryOp::Minus) {
        // 0 - a, with the signed-overflow test (negating INT_MIN is UB).
        Symbol N = fresh("n");
        ExprPtr Num = mkBinop(CoreBinop::Sub, mkInt(0), mkSym(A, Loc));
        if (E.Ty.isUnsigned()) {
          Compute = mkSpecified(mkFinishArith(
              mem::ArithOp::Sub, E.Ty, mkInt(0), mkSym(A, Loc),
              mkConvInt(E.Ty, std::move(Num))));
        } else {
          std::vector<ExprPtr> RK;
          RK.push_back(mkVal(Value::ctype(E.Ty), Loc));
          RK.push_back(mkSym(N, Loc));
          Compute = mkPureLet(
              Pattern::sym(N), std::move(Num),
              mkPureIf(mkPureCall("is_representable", std::move(RK), Loc),
                       mkSpecified(mkSym(N, Loc)),
                       mkUndef(mem::UBKind::ExceptionalCondition, Loc)));
        }
      } else { // BitNot
        std::vector<ExprPtr> Kids;
        Kids.push_back(mkVal(Value::ctype(E.Ty), Loc));
        Kids.push_back(mkSym(A, Loc));
        Compute = mkSpecified(mkPureCall("bw_compl", std::move(Kids), Loc));
      }
      Symbol S = fresh("v");
      return mkLetStrong(
          Pattern::sym(S), std::move(V),
          caseLoaded(mkSym(S, Loc), A, std::move(Compute),
                     E.Ty.isUnsigned()
                         ? mkVal(Value::unspecified(E.Ty), Loc)
                         : mkUndef(mem::UBKind::ExceptionalCondition, Loc)));
    }
    case UnaryOp::LogNot: {
      CERB_TRY(V, rvalue(*E.Kids[0]));
      CERB_TRY(B, truthiness(std::move(V), valueTypeOf(*E.Kids[0]), E.Loc));
      Symbol S = fresh("b");
      return mkLetStrong(Pattern::sym(S), std::move(B),
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
    return seq(std::move(A), std::move(B));
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
