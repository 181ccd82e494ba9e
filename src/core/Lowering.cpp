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

#include <bit>

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
  /// ConstPool indices by poolHash of their value (open addressing, -1
  /// empty, at most half full), so interning a literal costs O(1)
  /// expected.
  std::vector<int> PoolIndex;

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
  if (E.K != ExprKind::Val || E.value().kind() != ValueKind::Integer)
    return false;
  if (!E.value().prov().isEmpty() || E.value().hasCap())
    return false;
  Out = E.value().num();
  return true;
}

bool boolVal(const Expr &E, bool &Out) {
  if (E.K != ExprKind::Val)
    return false;
  if (E.value().kind() == ValueKind::True) {
    Out = true;
    return true;
  }
  if (E.value().kind() == ValueKind::False) {
    Out = false;
    return true;
  }
  return false;
}

void replaceWithValue(Expr *&E, Value V, LowerCtx &Ctx) {
  E = Ctx.P.Arena.val(std::move(V), E->Loc);
  ++Ctx.Stats.ConstFolds;
}

/// Does the subtree contain any save (jump target)? Folding must never
/// delete one: evalJump routes through untaken if-branches. Past the depth
/// limit the answer is a conservative yes.
bool containsAnySave(const Expr &E, unsigned &Depth) {
  DepthGuard G(Depth, MaxCoreDepth);
  if (!G || E.K == ExprKind::Save)
    return true;
  for (const Expr *K : E.kids())
    if (containsAnySave(*K, Depth))
      return true;
  for (const Branch &B : E.branches())
    if (containsAnySave(*B.Body, Depth))
      return true;
  return false;
}

/// Folds \p E if it is a pure operator over literal operands, mirroring
/// the matching Evaluator::eval case exactly.
void tryFold(Expr *&E, LowerCtx &Ctx) {
  switch (E->K) {
  case ExprKind::Not: {
    bool B;
    if (boolVal(*E->kids()[0], B))
      replaceWithValue(E, Value::boolean(!B), Ctx);
    return;
  }

  case ExprKind::Binop: {
    if (E->BOp == CoreBinop::And || E->BOp == CoreBinop::Or) {
      // The evaluator reads truthiness of whatever the operands are, but
      // folding stays on actual booleans.
      bool A, B;
      if (boolVal(*E->kids()[0], A) && boolVal(*E->kids()[1], B))
        replaceWithValue(E,
                         Value::boolean(E->BOp == CoreBinop::And ? (A && B)
                                                                 : (A || B)),
                         Ctx);
      return;
    }
    Int128 X, Y;
    if (!plainInt(*E->kids()[0], X) || !plainInt(*E->kids()[1], Y))
      return;
    switch (E->BOp) {
    case CoreBinop::Add:
      replaceWithValue(E, Value::integer(Int128(UInt128(X) + UInt128(Y))),
                       Ctx);
      return;
    case CoreBinop::Sub:
      replaceWithValue(E, Value::integer(Int128(UInt128(X) - UInt128(Y))),
                       Ctx);
      return;
    case CoreBinop::Mul:
      replaceWithValue(E, Value::integer(Int128(UInt128(X) * UInt128(Y))),
                       Ctx);
      return;
    case CoreBinop::Div:
      if (Y == 0)
        return; // evaluator reports the dynamic error; keep it
      replaceWithValue(E, Value::integer(X / Y), Ctx);
      return;
    case CoreBinop::RemT:
      if (Y == 0)
        return;
      replaceWithValue(E, Value::integer(X % Y), Ctx);
      return;
    case CoreBinop::Exp: {
      if (Y < 0 || Y > 127 || X != 2)
        return; // out-of-range / non-2 base error stays dynamic
      UInt128 R = 1;
      for (Int128 I = 0; I < Y; ++I)
        R *= 2;
      replaceWithValue(E, Value::integer(Int128(R)), Ctx);
      return;
    }
    case CoreBinop::Eq:
      replaceWithValue(E, Value::boolean(X == Y), Ctx);
      return;
    case CoreBinop::Lt:
      replaceWithValue(E, Value::boolean(X < Y), Ctx);
      return;
    case CoreBinop::Le:
      replaceWithValue(E, Value::boolean(X <= Y), Ctx);
      return;
    case CoreBinop::Gt:
      replaceWithValue(E, Value::boolean(X > Y), Ctx);
      return;
    case CoreBinop::Ge:
      replaceWithValue(E, Value::boolean(X >= Y), Ctx);
      return;
    default:
      return;
    }
  }

  case ExprKind::ConvInt: {
    Int128 X;
    if (!E->Cty.isInteger() || !plainInt(*E->kids()[0], X))
      return;
    replaceWithValue(
        E, Value::integer(mem::IntegerValue(Ctx.Env.convert(E->Cty.intKind(), X))),
        Ctx);
    return;
  }

  case ExprKind::IsInteger:
  case ExprKind::IsSigned:
  case ExprKind::IsUnsigned:
  case ExprKind::IsScalar: {
    const Expr &K = *E->kids()[0];
    if (K.K != ExprKind::Val || K.value().kind() != ValueKind::Ctype)
      return;
    const CType &T = K.value().cty();
    bool B = E->K == ExprKind::IsInteger    ? T.isInteger()
             : E->K == ExprKind::IsSigned  ? T.isSigned()
             : E->K == ExprKind::IsUnsigned ? T.isUnsigned()
                                            : T.isScalar();
    replaceWithValue(E, Value::boolean(B), Ctx);
    return;
  }

  case ExprKind::SpecifiedE: {
    if (E->kids()[0]->K != ExprKind::Val)
      return;
    replaceWithValue(E, Value::specified(E->kids()[0]->value()), Ctx);
    return;
  }
  case ExprKind::UnspecifiedE:
    replaceWithValue(E, Value::unspecified(E->Cty), Ctx);
    return;

  case ExprKind::Tuple: {
    std::vector<Value> Elems;
    for (const Expr *K : E->kids()) {
      if (K->K != ExprKind::Val)
        return;
      Elems.push_back(K->value());
    }
    replaceWithValue(E, Value::tuple(std::move(Elems)), Ctx);
    return;
  }

  case ExprKind::PureIf:
  case ExprKind::EIf: {
    bool C;
    if (!boolVal(*E->kids()[0], C))
      return; // non-boolean conditions error dynamically; keep them
    size_t Taken = C ? 1 : 2, Other = C ? 2 : 1;
    // The untaken branch can carry a save some run routes through
    // (Evaluator::evalJump); dropping it would strand the jump.
    if (containsAnySave(*E->kids()[Other], Ctx.Depth))
      return;
    E = E->kids()[Taken];
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
///    kids()[0] (Evaluator::evalLet), and that re-entry set must not change.
///    Saves in e3 are fine — both shapes route forward jumps to e3 with
///    every skipped binding unbound (evalJump skips lets whose kids()[0]
///    has no save).
bool rotatable(const Expr &E, unsigned &Depth) {
  if (E.K != ExprKind::PureLet && E.K != ExprKind::ELet)
    return false;
  const Expr &Inner = *E.kids()[0];
  if (Inner.K != E.K || E.SeqPoint || Inner.SeqPoint)
    return false;
  if (E.K == ExprKind::ELet && containsAnySave(Inner, Depth))
    return false;
  return true;
}

void flattenLets(Expr *&E, LowerCtx &Ctx) {
  DepthGuard G(Ctx.Depth, MaxCoreDepth);
  if (!G)
    return; // left as is: flattening is an optimisation
  while (rotatable(*E, Ctx.Depth)) {
    Expr *Inner = E->kids()[0]; // let p2 = e1 in e2
    // Reuse E as the new inner node: let p1 = e2 in e3.
    E->kids()[0] = Inner->kids()[1];
    // Reuse Inner as the new outer node: let p2 = e1 in (let p1 = ...).
    Inner->kids()[1] = E;
    E = Inner;
    ++Ctx.Stats.LetsFlattened;
    // The rebuilt continuation may itself be left-nested (e2 was a let).
    flattenLets(E->kids()[1], Ctx);
  }
}

void lowerExpr(Expr *&E, LowerCtx &Ctx) {
  DepthGuard G(Ctx.Depth, MaxCoreDepth);
  if (!G)
    return;
  for (Expr *&K : E->kids())
    lowerExpr(K, Ctx);
  for (Branch &B : E->branches())
    lowerExpr(B.Body, Ctx);
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

/// Agrees with poolEqual: equal pooled values hash alike. A ctype hashes
/// by its node, which equal types of one program share.
size_t poolHash(const Value &V) {
  size_t H = static_cast<size_t>(V.kind()) * 0x9e3779b97f4a7c15ull;
  switch (V.kind()) {
  case ValueKind::Function:
    return H ^ V.funcSym();
  case ValueKind::Ctype:
    return H ^ std::hash<CType>()(V.cty());
  case ValueKind::Integer:
    return H ^ static_cast<size_t>(V.num()) ^
           static_cast<size_t>(UInt128(V.num()) >> 64) * 31;
  default:
    return H;
  }
}

/// The slot of Ctx.PoolIndex that holds \p V's pool index, or the empty
/// slot where it goes.
int &indexSlot(LowerCtx &Ctx, const Value &V) {
  size_t Mask = Ctx.PoolIndex.size() - 1;
  for (size_t I = poolHash(V) & Mask;; I = (I + 1) & Mask) {
    int &Slot = Ctx.PoolIndex[I];
    if (Slot < 0 || poolEqual(Ctx.P.ConstPool[Slot], V))
      return Slot;
  }
}

void internValue(Expr &E, LowerCtx &Ctx) {
  const Value &V = E.value();
  if (!poolable(V))
    return;
  std::vector<Value> &Pool = Ctx.P.ConstPool;
  if (2 * (Pool.size() + 1) > Ctx.PoolIndex.size()) {
    Ctx.PoolIndex.assign(std::bit_ceil(4 * (Pool.size() + 1)), -1);
    for (size_t I = 0; I < Pool.size(); ++I)
      indexSlot(Ctx, Pool[I]) = static_cast<int>(I);
  }
  int &Slot = indexSlot(Ctx, V);
  if (Slot >= 0) {
    E.PoolIdx = Slot;
    ++Ctx.Stats.ConstsInterned;
    return;
  }
  Slot = E.PoolIdx = static_cast<int>(Pool.size());
  Pool.push_back(V);
}

void annotatePattern(Pattern &P, LowerCtx &Ctx) {
  if (P.K == PatKind::Sym)
    P.Slot = Ctx.slot(P.S);
  for (Pattern &Sub : P.subs())
    annotatePattern(Sub, Ctx);
}

/// Returns the subtree's Save-label bloom (stored in Expr::SaveMask) so
/// the evaluator's jump routing can refute "contains save L?" without
/// walking the tree. Collisions (two labels mod 32) only cost a scan.
/// Also sets every node's HasEffectsCache, bottom up, so the dynamics
/// never writes to a lowered program (see warmDynamicsCaches).
uint32_t annotateExpr(Expr &E, LowerCtx &Ctx) {
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
    E.Pure = pureFnByName(E.str());
  if (E.Pat)
    annotatePattern(*E.Pat, Ctx);
  if (E.Aux)
    for (ScopeObject &O : E.Aux->Scope)
      O.Slot = Ctx.slot(O.Obj);
  uint32_t Mask = 0;
  for (Expr *K : E.kids())
    Mask |= annotateExpr(*K, Ctx);
  for (Branch &B : E.branches()) {
    annotatePattern(B.Pat, Ctx);
    Mask |= annotateExpr(*B.Body, Ctx);
  }
  if (E.K == ExprKind::Save)
    Mask |= 1u << (E.Sym.Id & 31);
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
              (E.Pure != PureFn::None && E.NumKids <= 4);
    for (const Expr *K : E.kids())
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
