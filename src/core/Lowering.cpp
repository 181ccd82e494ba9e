//===-- core/Lowering.cpp - Execution-oriented Core lowering --------------===//
///
/// \file
/// See Lowering.h. The cardinal rule of every transformation here: the
/// evaluator's observable behaviour (outcome, stdout, UB identity, error
/// messages, scheduler choice points) must be bit-for-bit identical with
/// and without lowering. Constant folding therefore mirrors the evaluator
/// case by case, and anything the evaluator would turn into a dynamic
/// error or UB stays unfolded so the error still happens at run time.
///
//===----------------------------------------------------------------------===//
#include "core/Lowering.h"

#include "support/DepthGuard.h"

using namespace cerb;
using namespace cerb::core;

namespace {

struct LowerCtx {
  CoreProgram &P;
  ail::ImplEnv Env;
  LoweringStats Stats;
  /// Symbol id -> environment slot (-1 until first encountered).
  std::vector<int> SlotOf;
  int NextSlot = 0;
  /// Depth of the recursive walks (support/DepthGuard.h). A walk past
  /// MaxCoreDepth leaves the deeper nodes as they are; core::typeCheck,
  /// which runs next, refuses such a program.
  unsigned Depth = 0;
  bool TooDeep = false; ///< annotation stopped short of some node

  explicit LowerCtx(CoreProgram &P)
      : P(P), Env(P.Tags), SlotOf(P.Syms.size(), -1) {}

  int slot(ail::Symbol S) {
    if (!S.isValid() || S.Id >= SlotOf.size())
      return -1;
    if (SlotOf[S.Id] < 0)
      SlotOf[S.Id] = NextSlot++;
    return SlotOf[S.Id];
  }
};

//===----------------------------------------------------------------------===//
// Constant folding
//===----------------------------------------------------------------------===//

/// A literal mathematical integer with no provenance or capability
/// baggage — the only integers folding touches, so the folded result is
/// exactly the Value the evaluator's Binop/ConvInt cases would build.
bool plainInt(const Expr &E, Int128 &Out) {
  if (E.K != ExprKind::Val || E.V.kind() != ValueKind::Integer)
    return false;
  if (!E.V.prov().isEmpty() || E.V.hasCap())
    return false;
  Out = E.V.num();
  return true;
}

bool boolVal(const Expr &E, bool &Out) {
  if (E.K != ExprKind::Val)
    return false;
  if (E.V.kind() == ValueKind::True) {
    Out = true;
    return true;
  }
  if (E.V.kind() == ValueKind::False) {
    Out = false;
    return true;
  }
  return false;
}

void replaceWithValue(ExprPtr &E, Value V, LoweringStats &Stats) {
  auto NV = Expr::make(ExprKind::Val, E->Loc);
  NV->V = std::move(V);
  E = std::move(NV);
  ++Stats.ConstFolds;
}

/// Does the subtree contain any save (jump target)? Folding must never
/// delete one: evalJump routes through untaken if-branches. Past the depth
/// limit the answer is a conservative yes.
bool containsAnySave(const Expr &E, unsigned &Depth) {
  DepthGuard G(Depth, MaxCoreDepth);
  if (!G || E.K == ExprKind::Save)
    return true;
  for (const ExprPtr &K : E.Kids)
    if (containsAnySave(*K, Depth))
      return true;
  for (const auto &[Pat, Body] : E.Branches)
    if (containsAnySave(*Body, Depth))
      return true;
  return false;
}

/// Folds \p E if it is a pure operator over literal operands, mirroring
/// the matching Evaluator::eval case exactly.
void tryFold(ExprPtr &E, LowerCtx &Ctx) {
  switch (E->K) {
  case ExprKind::Not: {
    bool B;
    if (boolVal(*E->Kids[0], B))
      replaceWithValue(E, Value::boolean(!B), Ctx.Stats);
    return;
  }

  case ExprKind::Binop: {
    if (E->BOp == CoreBinop::And || E->BOp == CoreBinop::Or) {
      // The evaluator reads truthiness of whatever the operands are, but
      // folding stays on actual booleans.
      bool A, B;
      if (boolVal(*E->Kids[0], A) && boolVal(*E->Kids[1], B))
        replaceWithValue(E,
                         Value::boolean(E->BOp == CoreBinop::And ? (A && B)
                                                                 : (A || B)),
                         Ctx.Stats);
      return;
    }
    Int128 X, Y;
    if (!plainInt(*E->Kids[0], X) || !plainInt(*E->Kids[1], Y))
      return;
    switch (E->BOp) {
    case CoreBinop::Add:
      replaceWithValue(E, Value::integer(Int128(UInt128(X) + UInt128(Y))),
                       Ctx.Stats);
      return;
    case CoreBinop::Sub:
      replaceWithValue(E, Value::integer(Int128(UInt128(X) - UInt128(Y))),
                       Ctx.Stats);
      return;
    case CoreBinop::Mul:
      replaceWithValue(E, Value::integer(Int128(UInt128(X) * UInt128(Y))),
                       Ctx.Stats);
      return;
    case CoreBinop::Div:
      if (Y == 0)
        return; // evaluator reports the dynamic error; keep it
      replaceWithValue(E, Value::integer(X / Y), Ctx.Stats);
      return;
    case CoreBinop::RemT:
      if (Y == 0)
        return;
      replaceWithValue(E, Value::integer(X % Y), Ctx.Stats);
      return;
    case CoreBinop::Exp: {
      if (Y < 0 || Y > 127 || X != 2)
        return; // out-of-range / non-2 base error stays dynamic
      UInt128 R = 1;
      for (Int128 I = 0; I < Y; ++I)
        R *= 2;
      replaceWithValue(E, Value::integer(Int128(R)), Ctx.Stats);
      return;
    }
    case CoreBinop::Eq:
      replaceWithValue(E, Value::boolean(X == Y), Ctx.Stats);
      return;
    case CoreBinop::Lt:
      replaceWithValue(E, Value::boolean(X < Y), Ctx.Stats);
      return;
    case CoreBinop::Le:
      replaceWithValue(E, Value::boolean(X <= Y), Ctx.Stats);
      return;
    case CoreBinop::Gt:
      replaceWithValue(E, Value::boolean(X > Y), Ctx.Stats);
      return;
    case CoreBinop::Ge:
      replaceWithValue(E, Value::boolean(X >= Y), Ctx.Stats);
      return;
    default:
      return;
    }
  }

  case ExprKind::ConvInt: {
    Int128 X;
    if (!E->Cty.isInteger() || !plainInt(*E->Kids[0], X))
      return;
    replaceWithValue(
        E, Value::integer(mem::IntegerValue(Ctx.Env.convert(E->Cty.intKind(), X))),
        Ctx.Stats);
    return;
  }

  case ExprKind::IsInteger:
  case ExprKind::IsSigned:
  case ExprKind::IsUnsigned:
  case ExprKind::IsScalar: {
    const Expr &K = *E->Kids[0];
    if (K.K != ExprKind::Val || K.V.kind() != ValueKind::Ctype)
      return;
    const CType &T = K.V.cty();
    bool B = E->K == ExprKind::IsInteger    ? T.isInteger()
             : E->K == ExprKind::IsSigned  ? T.isSigned()
             : E->K == ExprKind::IsUnsigned ? T.isUnsigned()
                                            : T.isScalar();
    replaceWithValue(E, Value::boolean(B), Ctx.Stats);
    return;
  }

  case ExprKind::SpecifiedE: {
    if (E->Kids[0]->K != ExprKind::Val)
      return;
    replaceWithValue(E, Value::specified(E->Kids[0]->V), Ctx.Stats);
    return;
  }
  case ExprKind::UnspecifiedE:
    replaceWithValue(E, Value::unspecified(E->Cty), Ctx.Stats);
    return;

  case ExprKind::Tuple: {
    std::vector<Value> Elems;
    for (const ExprPtr &K : E->Kids) {
      if (K->K != ExprKind::Val)
        return;
      Elems.push_back(K->V);
    }
    replaceWithValue(E, Value::tuple(std::move(Elems)), Ctx.Stats);
    return;
  }

  case ExprKind::PureIf:
  case ExprKind::EIf: {
    bool C;
    if (!boolVal(*E->Kids[0], C))
      return; // non-boolean conditions error dynamically; keep them
    size_t Taken = C ? 1 : 2, Other = C ? 2 : 1;
    // The untaken branch can carry a save some run routes through
    // (Evaluator::evalJump); dropping it would strand the jump.
    if (containsAnySave(*E->Kids[Other], Ctx.Depth))
      return;
    ExprPtr T = std::move(E->Kids[Taken]);
    E = std::move(T);
    ++Ctx.Stats.ConstFolds;
    return;
  }

  default:
    return;
  }
}

//===----------------------------------------------------------------------===//
// Let flattening
//===----------------------------------------------------------------------===//

/// Can `let p1 = (let p2 = e1 in e2) in e3` rotate into the linear
/// `let p2 = e1 in (let p1 = e2 in e3)`? Core symbols are globally unique
/// so capture is impossible; the remaining hazards are sequencing
/// metadata and jump routing:
///  - same kind only (rotating across the pure/effectful boundary or
///    through let-weak would change footprint pairing);
///  - no SeqPoint on either node (footprint-discard boundaries must keep
///    their operand grouping);
///  - for ELet, no save inside the inner let: backward jumps re-enter
///    Kids[0] (Evaluator::evalLet), and that re-entry set must not change.
///    Saves in e3 are fine — both shapes route forward jumps to e3 with
///    every skipped binding unbound (evalJump skips lets whose Kids[0]
///    has no save).
bool rotatable(const Expr &E, unsigned &Depth) {
  if (E.K != ExprKind::PureLet && E.K != ExprKind::ELet)
    return false;
  const Expr &Inner = *E.Kids[0];
  if (Inner.K != E.K || E.SeqPoint || Inner.SeqPoint)
    return false;
  if (E.K == ExprKind::ELet && containsAnySave(Inner, Depth))
    return false;
  return true;
}

void flattenLets(ExprPtr &E, LowerCtx &Ctx) {
  DepthGuard G(Ctx.Depth, MaxCoreDepth);
  if (!G)
    return; // left as is: flattening is an optimisation
  while (rotatable(*E, Ctx.Depth)) {
    ExprPtr Inner = std::move(E->Kids[0]); // let p2 = e1 in e2
    // Reuse E as the new inner node: let p1 = e2 in e3.
    E->Kids[0] = std::move(Inner->Kids[1]);
    // Reuse Inner as the new outer node: let p2 = e1 in (let p1 = ...).
    Inner->Kids[1] = std::move(E);
    E = std::move(Inner);
    ++Ctx.Stats.LetsFlattened;
    // The rebuilt continuation may itself be left-nested (e2 was a let).
    flattenLets(E->Kids[1], Ctx);
  }
}

void lowerExpr(ExprPtr &E, LowerCtx &Ctx) {
  DepthGuard G(Ctx.Depth, MaxCoreDepth);
  if (!G)
    return;
  for (ExprPtr &K : E->Kids)
    lowerExpr(K, Ctx);
  for (auto &[Pat, Body] : E->Branches)
    lowerExpr(Body, Ctx);
  tryFold(E, Ctx);
  flattenLets(E, Ctx);
}

//===----------------------------------------------------------------------===//
// Slot resolution + constant interning (over the final tree)
//===----------------------------------------------------------------------===//

bool poolable(const Value &V) {
  switch (V.kind()) {
  case ValueKind::Unit:
  case ValueKind::True:
  case ValueKind::False:
  case ValueKind::Function:
    return true;
  case ValueKind::Ctype:
    return V.cty().isValid();
  case ValueKind::Integer:
    return V.prov().isEmpty() && !V.hasCap();
  default:
    return false;
  }
}

bool poolEqual(const Value &A, const Value &B) {
  if (A.kind() != B.kind())
    return false;
  switch (A.kind()) {
  case ValueKind::Unit:
  case ValueKind::True:
  case ValueKind::False:
    return true;
  case ValueKind::Function:
    return A.funcSym() == B.funcSym();
  case ValueKind::Ctype:
    return A.cty() == B.cty();
  case ValueKind::Integer:
    return A.num() == B.num();
  default:
    return false;
  }
}

void internValue(Expr &E, LowerCtx &Ctx) {
  if (!poolable(E.V))
    return;
  for (size_t I = 0; I < Ctx.P.ConstPool.size(); ++I)
    if (poolEqual(Ctx.P.ConstPool[I], E.V)) {
      E.PoolIdx = static_cast<int>(I);
      ++Ctx.Stats.ConstsInterned;
      return;
    }
  E.PoolIdx = static_cast<int>(Ctx.P.ConstPool.size());
  Ctx.P.ConstPool.push_back(E.V);
}

void annotatePattern(Pattern &P, LowerCtx &Ctx) {
  if (P.K == PatKind::Sym)
    P.Slot = Ctx.slot(P.S);
  for (Pattern &Sub : P.Subs)
    annotatePattern(Sub, Ctx);
}

/// Returns the subtree's Save-label bloom (stored in Expr::SaveMask) so
/// the evaluator's jump routing can refute "contains save L?" without
/// walking the tree. Collisions (two labels mod 64) only cost a scan.
/// Also sets every node's HasEffectsCache, bottom up, so the dynamics
/// never writes to a lowered program (see warmDynamicsCaches).
uint64_t annotateExpr(Expr &E, LowerCtx &Ctx) {
  DepthGuard G(Ctx.Depth, MaxCoreDepth);
  if (!G) {
    // Conservative, so the parent's hasEffects does not walk this subtree.
    E.HasEffectsCache = 1;
    Ctx.TooDeep = true;
    return 0;
  }
  if (E.K == ExprKind::Sym)
    E.Slot = Ctx.slot(E.Sym);
  else if (E.K == ExprKind::Val)
    internValue(E, Ctx);
  else if (E.K == ExprKind::PureCall)
    E.Pure = pureFnByName(E.Str);
  annotatePattern(E.Pat, Ctx);
  for (ScopeObject &O : E.Scope)
    O.Slot = Ctx.slot(O.Obj);
  uint64_t Mask = 0;
  for (ExprPtr &K : E.Kids)
    Mask |= annotateExpr(*K, Ctx);
  for (auto &[Pat, Body] : E.Branches) {
    annotatePattern(Pat, Ctx);
    Mask |= annotateExpr(*Body, Ctx);
  }
  if (E.K == ExprKind::Save)
    Mask |= 1ull << (E.Sym.Id & 63);
  E.SaveMask = Mask;
  // The children's bits are fresh, so this reads one level only. A bit
  // from before folding may be stale: folding can drop an effectful branch.
  E.HasEffectsCache = -1;
  (void)hasEffects(E);

  // ValueOnly: a whitelist of kinds that perform no actions, bind nothing,
  // and raise no signals — so the evaluator's Res-free fast path may run
  // them (and may safely re-run them when it declines an operand shape).
  // Undef/ErrorE are deliberately excluded: they *are* signals.
  switch (E.K) {
  case ExprKind::Val:
  case ExprKind::Sym:
  case ExprKind::Skip:
  case ExprKind::UnspecifiedE:
    E.ValueOnly = true;
    break;
  case ExprKind::Tuple:
  case ExprKind::SpecifiedE:
  case ExprKind::Not:
  case ExprKind::Binop:
  case ExprKind::ConvInt:
  case ExprKind::FinishArith:
  case ExprKind::IsInteger:
  case ExprKind::IsSigned:
  case ExprKind::IsUnsigned:
  case ExprKind::IsScalar:
  case ExprKind::PureIf:
  case ExprKind::EIf:
  case ExprKind::MemberShiftE:
  case ExprKind::PureCall: {
    bool VO = E.K != ExprKind::PureCall ||
              (E.Pure != PureFn::None && E.Kids.size() <= 4);
    for (const ExprPtr &K : E.Kids)
      VO = VO && K->ValueOnly;
    E.ValueOnly = VO;
    break;
  }
  default:
    break; // everything else keeps the default false
  }
  if (E.ValueOnly)
    ++Ctx.Stats.PureNodes;
  return Mask;
}

} // namespace

LoweringStats core::lower(CoreProgram &P) {
  if (P.Lowered)
    return {};
  LowerCtx Ctx(P);

  for (CoreGlobal &G : P.Globals)
    if (G.Init)
      lowerExpr(G.Init, Ctx);
  for (auto &[Id, Proc] : P.Procs)
    if (Proc.Body)
      lowerExpr(Proc.Body, Ctx);

  // Slot numbering is deterministic: globals in declaration order, then
  // procedures in symbol order — params first, then body preorder.
  for (CoreGlobal &G : P.Globals) {
    G.Slot = Ctx.slot(G.Name);
    if (G.Init)
      annotateExpr(*G.Init, Ctx);
  }
  for (auto &[Id, Proc] : P.Procs) {
    Proc.ParamSlots.clear();
    for (const auto &[Sym, Ty] : Proc.Params)
      Proc.ParamSlots.push_back(Ctx.slot(Sym));
    if (Proc.Body)
      annotateExpr(*Proc.Body, Ctx);
  }

  P.NumSlots = static_cast<unsigned>(Ctx.NextSlot);
  // A program with unannotated nodes must not reach the evaluator.
  P.Lowered = !Ctx.TooDeep;
  Ctx.Stats.SlotsAssigned = P.NumSlots;
  Ctx.Stats.PoolSize = static_cast<unsigned>(P.ConstPool.size());
  return Ctx.Stats;
}
