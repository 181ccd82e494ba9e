//===-- exec/Evaluator.cpp ------------------------------------------------===//

#include "exec/Evaluator.h"

#include "support/Format.h"
#include "trace/Trace.h"

#include <algorithm>
#include <cassert>

using namespace cerb;
using namespace cerb::exec;
using namespace cerb::core;
using ail::CType;
using ail::Symbol;

std::string_view cerb::exec::outcomeKindName(OutcomeKind K) {
  switch (K) {
  case OutcomeKind::Exit: return "exit";
  case OutcomeKind::Undef: return "undef";
  case OutcomeKind::Abort: return "abort";
  case OutcomeKind::AssertFail: return "assert-fail";
  case OutcomeKind::Error: return "error";
  case OutcomeKind::StepLimit: return "step-limit";
  case OutcomeKind::Timeout: return "timed-out";
  }
  return "?";
}

std::string Outcome::str() const {
  switch (Kind) {
  case OutcomeKind::Exit:
    return fmt("exit({0}) stdout=\"{1}\"", ExitCode, Stdout);
  case OutcomeKind::Undef:
    return fmt("undef[{0}] stdout=\"{1}\"", mem::ubName(UB.Kind), Stdout);
  case OutcomeKind::Abort:
    return fmt("abort stdout=\"{0}\"", Stdout);
  case OutcomeKind::AssertFail:
    return fmt("assert-fail({0}) stdout=\"{1}\"", Message, Stdout);
  case OutcomeKind::Error:
    return fmt("error({0})", Message);
  case OutcomeKind::StepLimit:
    return "step-limit";
  case OutcomeKind::Timeout:
    return "timed-out";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Construction / top level
//===----------------------------------------------------------------------===//

Evaluator::Evaluator(const CoreProgram &Prog, Scheduler &Sched,
                     mem::MemoryPolicy Policy, ExecLimits Limits)
    : Prog(Prog), Env(Prog.Tags), Sched(Sched),
      Mem(Env, Sched, std::move(Policy)), Limits(Limits),
      UseSlots(Prog.Lowered), Arena(EvalArena::threadLocal()) {
  if (UseSlots) {
    Slots = Arena.takeValues();
    Slots.resize(Prog.NumSlots);
    SlotBound = Arena.takeBytes();
    SlotBound.resize(Prog.NumSlots, 0);
    SlotStamp = Arena.takeStamps();
    SlotStamp.resize(Prog.NumSlots, 0);
  }
}

Evaluator::~Evaluator() {
  // Retire the slot-frame buffers to the thread's pool: the exhaustive
  // explorer builds one Evaluator per path, and these are its largest
  // fixed-shape allocations.
  Arena.give(std::move(Slots));
  Arena.give(std::move(SlotBound));
  Arena.give(std::move(SlotStamp));
}

Outcome Evaluator::run() {
  static trace::Counter CntRuns("exec.eval_runs");
  CntRuns.add();
  trace::Span S("eval.run", "exec");
  core::CapTable::Scope CapScope(Caps);
  Outcome O = runImpl();
  if (S.active()) {
    S.arg("steps", Steps);
    S.detail(std::string(outcomeKindName(O.Kind)));
  }
  return O;
}

Outcome Evaluator::runImpl() {
  Outcome O;

  // Static storage: plan the layout, create every object, bind its symbol.
  std::vector<std::pair<CType, std::string>> Layout;
  for (const CoreGlobal &G : Prog.Globals)
    Layout.emplace_back(G.Ty, Prog.Syms.nameOf(G.Name));
  Mem.beginStaticLayout(Layout);
  for (const CoreGlobal &G : Prog.Globals) {
    mem::PointerValue P =
        Mem.allocateObject(G.Ty, Prog.Syms.nameOf(G.Name), /*Static=*/true);
    if (UseSlots) {
      Slots[G.Slot] = Value::pointer(P);
      SlotBound[G.Slot] = 1;
    } else {
      Bindings[G.Name.Id] = Value::pointer(P);
    }
  }

  auto Finish = [&](Res R) {
    O.Stdout = Out;
    switch (R.K) {
    case Res::Val:
    case Res::RetSig: {
      O.Kind = OutcomeKind::Exit;
      auto IV = asInteger(R.V);
      O.ExitCode = IV ? static_cast<int>(IV->V) : 0;
      return O;
    }
    case Res::UndefSig:
      O.Kind = OutcomeKind::Undef;
      O.UB = Sig.UB;
      return O;
    case Res::ExitSig:
      O.Kind = Sig.ExitKind;
      O.ExitCode = Sig.ExitCode;
      O.Message = Sig.Err;
      return O;
    case Res::RunSig:
      O.Kind = OutcomeKind::Error;
      O.Message = "run signal escaped the program";
      return O;
    case Res::ErrSig:
      O.Kind = Sig.DeadlineHit    ? OutcomeKind::Timeout
               : Sig.StepLimitHit ? OutcomeKind::StepLimit
                                  : OutcomeKind::Error;
      O.Message = Sig.Err;
      return O;
    }
    return O;
  };

  // Initialisers, in declaration order.
  for (const CoreGlobal &G : Prog.Globals) {
    if (G.Init) {
      size_t ActBase = Acts.size();
      Frames.push_back(Frame{});
      Res R = eval(*G.Init);
      Frames.pop_back();
      Acts.resize(ActBase);
      if (!R.isValue())
        return Finish(std::move(R));
    }
    if (G.ReadOnly) {
      // String literals become immutable once initialised (6.4.5p7).
      auto P = asPointer(UseSlots ? Slots[G.Slot] : Bindings[G.Name.Id]);
      if (P)
        Mem.markReadOnly(*P);
    }
  }

  if (!Prog.MainProc.isValid()) {
    O.Kind = OutcomeKind::Error;
    O.Message = "program has no main function";
    return O;
  }
  return Finish(callProc(Prog.MainProc, {}, SourceLoc()));
}

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

// Both look through a Specified flag: a loaded value is used as the value
// it wraps.
std::optional<mem::PointerValue>
Evaluator::asPointer(const Value &V) const {
  switch (V.innerKind()) {
  case ValueKind::Pointer:
    return V.ptrValue();
  case ValueKind::Function:
    return mem::PointerValue::function(V.funcSym());
  default:
    return std::nullopt;
  }
}

std::optional<mem::IntegerValue>
Evaluator::asInteger(const Value &V) const {
  switch (V.innerKind()) {
  case ValueKind::Integer:
    return V.intValue();
  case ValueKind::True:
    return mem::IntegerValue(1);
  case ValueKind::False:
    return mem::IntegerValue(0);
  default:
    return std::nullopt;
  }
}

namespace {
/// asInteger(V)->V without building the IntegerValue (Core arithmetic
/// reads only the number).
bool intOf(const Value &V, Int128 &Out) {
  switch (V.innerKind()) {
  case ValueKind::Integer:
    Out = V.num();
    return true;
  case ValueKind::True:
    Out = 1;
    return true;
  case ValueKind::False:
    Out = 0;
    return true;
  default:
    return false;
  }
}
} // namespace

void Evaluator::bind(unsigned Id, Value &&V) {
  if (!UndoStack.empty()) {
    auto &Frame = UndoStack.back();
    if (Frame.find(Id) == Frame.end()) {
      auto It = Bindings.find(Id);
      Frame.emplace(Id, It == Bindings.end()
                            ? std::nullopt
                            : std::optional<Value>(It->second));
    }
  }
  Bindings[Id] = std::move(V);
}

void Evaluator::bindSlot(int Slot, Value &&V) {
  if (!UndoFrames.empty() && SlotStamp[Slot] != FrameEpoch) {
    int ValIdx = -1;
    if (SlotBound[Slot]) {
      ValIdx = static_cast<int>(UndoVals.size());
      UndoVals.push_back(std::move(Slots[Slot]));
    }
    UndoLog.push_back(UndoRec{Slot, ValIdx});
    SlotStamp[Slot] = FrameEpoch;
  }
  Slots[Slot] = std::move(V);
  SlotBound[Slot] = 1;
}

bool Evaluator::matchPattern(const Pattern &P, const Value &V, bool Inner) {
  ValueKind K = Inner ? V.innerKind() : V.kind();
  switch (P.K) {
  case PatKind::Wild:
    return true;
  case PatKind::Sym:
    if (UseSlots)
      bindSlot(P.Slot, Inner ? V.inner() : Value(V));
    else
      bind(P.S.Id, Inner ? V.inner() : Value(V));
    return true;
  case PatKind::Tuple: {
    if (K != ValueKind::Tuple || V.elems().size() != P.Subs.size())
      return false;
    for (size_t I = 0; I < P.Subs.size(); ++I)
      if (!matchPattern(P.Subs[I], V.elems()[I]))
        return false;
    return true;
  }
  case PatKind::SpecifiedP:
    return K == ValueKind::Specified && matchPattern(P.Subs[0], V, true);
  case PatKind::UnspecifiedP:
    return K == ValueKind::Unspecified;
  }
  return false;
}

bool Evaluator::matchPatternMove(const Pattern &P, Value &&V) {
  switch (P.K) {
  case PatKind::Wild:
    return true;
  case PatKind::Sym:
    bindSlot(P.Slot, std::move(V));
    return true;
  case PatKind::Tuple: {
    if (V.kind() != ValueKind::Tuple || V.elems().size() != P.Subs.size())
      return false;
    for (size_t I = 0; I < P.Subs.size(); ++I)
      if (!matchPatternMove(P.Subs[I], std::move(V.elems()[I])))
        return false;
    return true;
  }
  case PatKind::SpecifiedP:
    return V.kind() == ValueKind::Specified &&
           matchPatternMove(P.Subs[0], std::move(V).takeInner());
  case PatKind::UnspecifiedP:
    return V.kind() == ValueKind::Unspecified;
  }
  return false;
}

std::optional<mem::UndefinedBehaviour>
Evaluator::conflict(ActRange A, ActRange B, bool OnlyNegLeft) const {
  for (size_t I = A.Begin; I < A.End; ++I) {
    const ActRec &X = Acts[I];
    if (OnlyNegLeft && !X.Neg)
      continue;
    for (size_t J = B.Begin; J < B.End; ++J) {
      const ActRec &Y = Acts[J];
      if (!X.Write && !Y.Write)
        continue;
      if (X.Atomic && Y.Atomic)
        continue; // atomics synchronise (5.1.2.4: no race between atomics)
      if (X.Lo < Y.Hi && Y.Lo < X.Hi) {
        auto U = mem::undef(
            mem::UBKind::UnsequencedRace,
            fmt("conflicting unsequenced accesses to [{0}, {1})",
                std::max(X.Lo, Y.Lo), std::min(X.Hi, Y.Hi)));
        U.Loc = Y.Loc.isValid() ? Y.Loc : X.Loc;
        return U;
      }
    }
  }
  return std::nullopt;
}

// hasEffects lives in core:: so that compile() can pre-warm the per-node
// cache (core::warmDynamicsCaches) before a program is shared across
// evaluator threads.
using core::hasEffects;

bool Evaluator::containsSave(const Expr &E, Symbol Label) const {
  // Lowered programs carry a per-node Save-label bloom: a clear bit
  // refutes the subtree without walking it, turning the per-jump O(tree)
  // routing scans into O(path). A set bit (possible collision) falls
  // through to the exact scan, whose recursion re-checks masks.
  if (UseSlots && !(E.SaveMask & (1ull << (Label.Id & 63))))
    return false;
  if (E.K == ExprKind::Save && E.Sym == Label)
    return true;
  for (const ExprPtr &K : E.Kids)
    if (containsSave(*K, Label))
      return true;
  for (const auto &[Pat, Body] : E.Branches)
    if (containsSave(*Body, Label))
      return true;
  return false;
}

Evaluator::Res Evaluator::applyScopeDiff(
    const std::vector<ScopeObject> &RunScope,
    const std::vector<ScopeObject> &SaveScope) {
  auto In = [](const std::vector<ScopeObject> &Scope, Symbol S) {
    for (const ScopeObject &O : Scope)
      if (O.Obj == S)
        return true;
    return false;
  };
  // Kill objects live at the run point but not at the save point.
  for (const ScopeObject &O : RunScope) {
    if (In(SaveScope, O.Obj))
      continue;
    const Value *BV = nullptr;
    if (UseSlots) {
      if (O.Slot >= 0 && SlotBound[O.Slot])
        BV = &Slots[O.Slot];
    } else {
      auto It = Bindings.find(O.Obj.Id);
      if (It != Bindings.end())
        BV = &It->second;
    }
    if (!BV)
      continue; // the binding never materialised on this path
    auto P = asPointer(*BV);
    if (!P || !P->Prov.isAlloc())
      continue;
    if (Mem.allocations()[P->Prov.AllocId].Alive)
      if (auto R = Mem.killObject(*P); !R)
        return undef(R.takeUB());
  }
  // Create objects live at the save point but not at the run point; their
  // lifetimes start at the jump, uninitialised (§5.8, C11 6.2.4p6).
  for (const ScopeObject &O : SaveScope) {
    if (In(RunScope, O.Obj))
      continue;
    mem::PointerValue P =
        Mem.allocateObject(O.Ty, Prog.Syms.nameOf(O.Obj), /*Static=*/false);
    if (!Frames.empty())
      Frames.back().Created.push_back(P);
    if (UseSlots)
      bindSlot(O.Slot, Value::pointer(P));
    else
      bind(O.Obj.Id, Value::pointer(P));
  }
  return Res();
}

//===----------------------------------------------------------------------===//
// Main dispatch
//===----------------------------------------------------------------------===//

Evaluator::Res Evaluator::eval(const Expr &E) {
  // Lowering-proved effect-free subtree: run the Res-free interpreter.
  // A null return (operand-kind surprise) falls through to the general
  // switch, which re-evaluates — harmless, the subtree has no effects.
  if (UseSlots && E.ValueOnly) {
    Value Tmp;
    const Value *P = evalPure(E, Tmp);
    if (P == &Tmp)
      return Res(std::move(Tmp));
    if (P)
      return Res(*P);
  }

  if (!budget())
    return budgetError();

  switch (E.K) {
  case ExprKind::Sym: {
    if (UseSlots) {
      int S = E.Slot;
      if (S < 0 || !SlotBound[S])
        return error(fmt("unbound Core identifier '{0}'",
                         Prog.Syms.nameOf(E.Sym)));
      return Res(Slots[S]);
    }
    auto It = Bindings.find(E.Sym.Id);
    if (It == Bindings.end())
      return error(fmt("unbound Core identifier '{0}'",
                       Prog.Syms.nameOf(E.Sym)));
    return Res(It->second);
  }
  case ExprKind::Val:
    if (E.PoolIdx >= 0)
      return Res(Prog.ConstPool[E.PoolIdx]);
    return Res(E.V);
  case ExprKind::ImplConst:
    return error(fmt("unknown implementation constant '{0}'", E.Str));
  case ExprKind::Undef: {
    auto U = mem::undef(E.UB);
    U.Loc = E.Loc;
    return undef(std::move(U));
  }
  case ExprKind::ErrorE:
    return error(E.Str);
  case ExprKind::Skip:
    return Res();

  case ExprKind::Tuple: {
    Value T = Value::tuple(E.Kids.size());
    for (size_t I = 0; I < E.Kids.size(); ++I) {
      Res R = eval(*E.Kids[I]);
      if (!R.isValue())
        return R;
      T.elems()[I] = std::move(R.V);
    }
    return Res(std::move(T));
  }
  case ExprKind::SpecifiedE: {
    Res R = eval(*E.Kids[0]);
    if (!R.isValue())
      return R;
    return Res(Value::specified(std::move(R.V)));
  }
  case ExprKind::UnspecifiedE:
    return Res(Value::unspecified(E.Cty));

  case ExprKind::Case:
  case ExprKind::ECase: {
    // The scrutinee is usually a slot read or pure boolean after
    // lowering: read it in place, no Res.
    Value STmp;
    const Value *SO =
        UseSlots && E.Kids[0]->ValueOnly ? evalPure(*E.Kids[0], STmp) : nullptr;
    Res S;
    if (!SO) {
      S = eval(*E.Kids[0]);
      if (!S.isValue())
        return S;
      SO = &S.V;
    }
    for (const auto &[Pat, Body] : E.Branches)
      if (matchPattern(Pat, *SO)) {
        Res R = eval(*Body);
        // Forward/backward jumps across case branches.
        if (R.K == Res::RunSig)
          for (const auto &[Pat2, Body2] : E.Branches)
            if (Body2.get() != Body.get() &&
                containsSave(*Body2, Sig.RunLabel))
              return evalJump(*Body2, Sig.RunLabel, *Sig.RunScope);
        return R;
      }
    return error("no matching Core case branch");
  }

  case ExprKind::Not: {
    Res R = eval(*E.Kids[0]);
    if (!R.isValue())
      return R;
    if (R.V.kind() != ValueKind::True && R.V.kind() != ValueKind::False)
      return error("not() on a non-boolean");
    return Res(Value::boolean(R.V.kind() == ValueKind::False));
  }

  case ExprKind::Binop: {
    Res A = eval(*E.Kids[0]);
    if (!A.isValue())
      return A;
    Res B = eval(*E.Kids[1]);
    if (!B.isValue())
      return B;
    if (E.BOp == CoreBinop::And || E.BOp == CoreBinop::Or) {
      bool BA = A.V.isTrue(), BB = B.V.isTrue();
      return Res(
          Value::boolean(E.BOp == CoreBinop::And ? (BA && BB) : (BA || BB)));
    }
    Int128 X = 0, Y = 0;
    if (!intOf(A.V, X) || !intOf(B.V, Y))
      return error("Core binop on non-integer values");
    switch (E.BOp) {
    case CoreBinop::Add:
      return Res(Value::integer(Int128(UInt128(X) + UInt128(Y))));
    case CoreBinop::Sub:
      return Res(Value::integer(Int128(UInt128(X) - UInt128(Y))));
    case CoreBinop::Mul:
      // Wrapping 128-bit multiply: C-level width reduction (conv_int /
      // rem_t) follows, and mod-2^128 is compatible with any mod-2^w.
      return Res(Value::integer(Int128(UInt128(X) * UInt128(Y))));
    case CoreBinop::Div:
      if (Y == 0)
        return error("Core division by zero (missing undef guard)");
      return Res(Value::integer(X / Y));
    case CoreBinop::RemT:
      if (Y == 0)
        return error("Core rem_t by zero (missing undef guard)");
      return Res(Value::integer(X % Y));
    case CoreBinop::Exp: {
      if (Y < 0 || Y > 127)
        return error("Core exponent out of range");
      UInt128 R = 1;
      for (Int128 I = 0; I < Y; ++I)
        R *= 2; // only 2^k is generated by the elaboration
      if (X != 2)
        return error("Core ^ supports base 2 only");
      return Res(Value::integer(Int128(R)));
    }
    case CoreBinop::Eq:
      return Res(Value::boolean(X == Y));
    case CoreBinop::Lt:
      return Res(Value::boolean(X < Y));
    case CoreBinop::Le:
      return Res(Value::boolean(X <= Y));
    case CoreBinop::Gt:
      return Res(Value::boolean(X > Y));
    case CoreBinop::Ge:
      return Res(Value::boolean(X >= Y));
    default:
      return error("bad Core binop");
    }
  }

  case ExprKind::ConvInt: {
    Res R = eval(*E.Kids[0]);
    if (!R.isValue())
      return R;
    auto IV = asInteger(R.V);
    if (!IV)
      return error("conv_int on a non-integer");
    mem::IntegerValue OutV(Env.convert(E.Cty.intKind(), IV->V), IV->Prov);
    if (IV->Cap && Env.widthOf(E.Cty.intKind()) == 64)
      OutV.Cap = IV->Cap;
    return Res(Value::integer(OutV));
  }

  case ExprKind::FinishArith: {
    Res A = eval(*E.Kids[0]);
    if (!A.isValue())
      return A;
    Res B = eval(*E.Kids[1]);
    if (!B.isValue())
      return B;
    Res N = eval(*E.Kids[2]);
    if (!N.isValue())
      return N;
    auto IA = asInteger(A.V), IB = asInteger(B.V), IN = asInteger(N.V);
    if (!IA || !IB || !IN)
      return error("finish_arith on non-integers");
    return Res(
        Value::integer(Mem.finishArith(E.AOp, *IA, *IB, IN->V, E.Cty)));
  }

  case ExprKind::IsInteger:
  case ExprKind::IsSigned:
  case ExprKind::IsUnsigned:
  case ExprKind::IsScalar: {
    Res R = eval(*E.Kids[0]);
    if (!R.isValue())
      return R;
    if (R.V.kind() != ValueKind::Ctype)
      return error("ctype test on a non-ctype value");
    const CType &T = R.V.cty();
    bool B = false;
    if (E.K == ExprKind::IsInteger)
      B = T.isInteger();
    else if (E.K == ExprKind::IsSigned)
      B = T.isSigned();
    else if (E.K == ExprKind::IsUnsigned)
      B = T.isUnsigned();
    else
      B = T.isScalar();
    return Res(Value::boolean(B));
  }

  case ExprKind::PureCall:
    return evalPureCall(E);

  case ExprKind::ArrayShiftE: {
    Res P = eval(*E.Kids[0]);
    if (!P.isValue())
      return P;
    Res I = eval(*E.Kids[1]);
    if (!I.isValue())
      return I;
    auto PV = asPointer(P.V);
    auto IV = asInteger(I.V);
    if (!PV || !IV)
      return error("array_shift on bad operands");
    auto R = Mem.arrayShift(*PV, E.Cty, IV->V);
    if (!R) {
      auto U = R.takeUB();
      U.Loc = E.Loc;
      return undef(std::move(U));
    }
    if (R->Prov.isAlloc()) {
      const mem::Allocation &A = Mem.allocations()[R->Prov.AllocId];
      if (R->Addr < A.Base || R->Addr > A.Base + A.Size)
        ++Events.OutOfBoundsTransient;
    }
    return Res(Value::pointer(*R));
  }
  case ExprKind::MemberShiftE: {
    Res P = eval(*E.Kids[0]);
    if (!P.isValue())
      return P;
    auto PV = asPointer(P.V);
    if (!PV)
      return error("member_shift on a non-pointer");
    return Res(Value::pointer(Mem.memberShift(*PV, E.Tag, E.MemberIdx)));
  }

  case ExprKind::PureLet:
  case ExprKind::ELet:
  case ExprKind::LetWeak:
  case ExprKind::LetStrong:
    return evalLet(E);

  case ExprKind::PureIf:
  case ExprKind::EIf: {
    Res C = eval(*E.Kids[0]);
    if (!C.isValue())
      return C;
    if (C.V.kind() != ValueKind::True && C.V.kind() != ValueKind::False)
      return error("if on a non-boolean");
    size_t Taken = C.V.isTrue() ? 1 : 2;
    Res R = eval(*E.Kids[Taken]);
    if (R.K == Res::RunSig) {
      size_t Other = Taken == 1 ? 2 : 1;
      if (containsSave(*E.Kids[Other], Sig.RunLabel))
        return evalJump(*E.Kids[Other], Sig.RunLabel, *Sig.RunScope);
    }
    return R;
  }

  case ExprKind::PtrOp:
    return evalPtrOp(E);
  case ExprKind::Action:
    return evalAction(E);

  case ExprKind::LetAtomic: {
    // Evaluate the first action, bind, evaluate the second; the value is
    // the first action's (the loaded old value for postfix ++/--).
    Res A = eval(*E.Kids[0]);
    if (!A.isValue())
      return A;
    if (!matchPattern(E.Pat, A.V))
      return error("let atomic pattern mismatch");
    Res B = eval(*E.Kids[1]);
    if (!B.isValue())
      return B;
    return A;
  }

  case ExprKind::Unseq:
    return evalUnseq(E);

  case ExprKind::Indet:
  case ExprKind::Bound:
    // Operationally transparent: indeterminate sequencing is realised by
    // the scheduler's choice of unseq evaluation order (see DESIGN.md).
    return eval(*E.Kids[0]);

  case ExprKind::Nd: {
    unsigned Pick = Sched.choose(static_cast<unsigned>(E.Kids.size()), "nd");
    return eval(*E.Kids[Pick]);
  }

  case ExprKind::ProcCall: {
    std::vector<Value> Args = Arena.takeValues();
    for (const ExprPtr &K : E.Kids) {
      // Arguments are overwhelmingly slot reads after lowering: copy
      // them out of the environment directly, skipping the Res plumbing.
      if (UseSlots && K->ValueOnly) {
        Value Tmp;
        if (const Value *P = evalPure(*K, Tmp)) {
          Args.push_back(P == &Tmp ? std::move(Tmp) : Value(*P));
          continue;
        }
      }
      Res R = eval(*K);
      if (!R.isValue())
        return R;
      Args.push_back(std::move(R.V));
    }
    return callProc(E.Sym, std::move(Args), E.Loc);
  }
  case ExprKind::CallPtr: {
    Res F = eval(*E.Kids[0]);
    if (!F.isValue())
      return F;
    auto PV = asPointer(F.V);
    if (!PV || !PV->isFunction()) {
      auto U = mem::undef(mem::UBKind::AccessNull,
                          "call through a non-function pointer value");
      U.Loc = E.Loc;
      return undef(std::move(U));
    }
    std::vector<Value> Args = Arena.takeValues();
    for (size_t I = 1; I < E.Kids.size(); ++I) {
      Res R = eval(*E.Kids[I]);
      if (!R.isValue())
        return R;
      Args.push_back(std::move(R.V));
    }
    return callProc(Symbol{*PV->FuncSym}, std::move(Args), E.Loc);
  }

  case ExprKind::Ret: {
    Res R = eval(*E.Kids[0]);
    if (!R.isValue())
      return R;
    R.K = Res::RetSig;
    return R;
  }

  case ExprKind::Save:
    return evalSaveBody(E, /*ApplyDiffFirst=*/false, nullptr);

  case ExprKind::Run:
    Sig.RunLabel = E.Sym;
    Sig.RunScope = &E.Scope;
    return Res(Res::RunSig);

  case ExprKind::Par:
    return evalPar(E);
  case ExprKind::Wait: {
    Res R = eval(*E.Kids[0]);
    if (!R.isValue())
      return R;
    return Res(); // par joins implicitly
  }
  }
  return error("unhandled Core expression kind");
}

//===----------------------------------------------------------------------===//
// Sequencing
//===----------------------------------------------------------------------===//

Evaluator::Res Evaluator::evalLet(const Expr &E) {
  bool Weak = E.K == ExprKind::LetWeak;
  // SeqPoint marks a statement boundary: the accumulated footprints can
  // never take part in any unsequenced-race check above, so they are
  // discarded. On the action stack, e1's footprint is [Base, Mid) and
  // e2's is [Mid, end); a strong let's and a weak let's both stay in the
  // enclosing footprint.
  bool Discard = E.SeqPoint;
  size_t Base = Acts.size();

  // Fast path for the dominant shape lowering produces: `let <sym> =
  // <ValueOnly expr> in k`. The bound value comes straight out of the
  // pure interpreter into the slot — no Res round-trip, no signal or
  // jump handling (a ValueOnly subtree contains no Save and performs no
  // actions, so the weak-let race check is vacuous). A nullptr bail falls
  // through to the general path, which is safe to re-run because the
  // subtree is effect-free.
  if (UseSlots && E.Pat.K == PatKind::Sym && E.Kids[0]->ValueOnly) {
    Value Tmp;
    if (const Value *P = evalPure(*E.Kids[0], Tmp)) {
      bindSlot(E.Pat.Slot, P == &Tmp ? std::move(Tmp) : Value(*P));
      Res R2 = eval(*E.Kids[1]);
      if (Discard)
        Acts.resize(Base);
      return R2;
    }
  }

  Res R1 = eval(*E.Kids[0]);
  for (;;) {
    if (!R1.isValue()) {
      if (R1.K == Res::RunSig && containsSave(*E.Kids[1], Sig.RunLabel)) {
        // Forward jump into the continuation (the pattern stays unbound;
        // the elaboration never places labels under value-carrying
        // bindings that are read after the label).
        R1 = evalJump(*E.Kids[1], Sig.RunLabel, *Sig.RunScope);
      }
      if (Discard)
        Acts.resize(Base);
      return R1;
    }
    // The slot path consumes R1.V: the bound value is moved, not
    // deep-copied (R1 is only ever overwritten below).
    if (UseSlots ? !matchPatternMove(E.Pat, std::move(R1.V))
                 : !matchPattern(E.Pat, R1.V)) {
      if (Discard || Weak)
        Acts.resize(Base);
      return error("let pattern mismatch");
    }

    size_t Mid = Acts.size();
    Res R2 = eval(*E.Kids[1]);

    if (R2.K == Res::RunSig && containsSave(*E.Kids[0], Sig.RunLabel)) {
      // Backward jump into the (already completed) first part, which
      // extends e1's footprint; a weak or discarding let forgets e2's.
      if (Discard || Weak)
        Acts.resize(Mid);
      R1 = evalJump(*E.Kids[0], Sig.RunLabel, *Sig.RunScope);
      continue;
    }

    if (Weak && !Discard) {
      // §5.6: only e1's *positive* actions are sequenced before e2; a
      // conflict between e1's negative actions and e2 is an unsequenced
      // race.
      if (auto U = conflict({Base, Mid}, {Mid, Acts.size()},
                            /*OnlyNegLeft=*/true)) {
        Acts.resize(Base);
        return undef(std::move(*U));
      }
    }
    if (Discard)
      Acts.resize(Base);
    return R2;
  }
}

void Evaluator::syntacticOrder(size_t Base, ActRange *Ranges, size_t N) {
  // The branches' footprints tile [Base, end) in evaluation order; when
  // that already is syntactic order there is nothing to move.
  size_t Pos = Base;
  bool Sorted = true;
  for (size_t I = 0; I < N && Sorted; ++I) {
    if (Ranges[I].Begin == Ranges[I].End)
      continue;
    Sorted = Ranges[I].Begin == Pos;
    Pos = Ranges[I].End;
  }
  if (Sorted)
    return;
  ActScratch.assign(Acts.begin() + Base, Acts.end());
  size_t Dst = Base;
  for (size_t I = 0; I < N; ++I) {
    size_t Len = Ranges[I].End - Ranges[I].Begin;
    auto Src = ActScratch.begin() + (Ranges[I].Begin - Base);
    std::copy(Src, Src + Len, Acts.begin() + Dst);
    Ranges[I] = {Dst, Dst + Len};
    Dst += Len;
  }
}

Evaluator::Res Evaluator::evalUnseq(const Expr &E) {
  // Unseq nodes are overwhelmingly small (the operands of one C
  // operator): small arities keep their bookkeeping in stack scratch, the
  // heap path exists only for unusually wide nodes. Each branch's
  // footprint is the range of the action stack it appended, and its value
  // goes straight into the result tuple.
  size_t N = E.Kids.size();
  constexpr size_t StkN = 4;
  ActRange RangeStk[StkN];
  size_t RemStk[StkN];
  std::vector<ActRange> RangeHeap;
  std::vector<size_t> RemHeap;
  ActRange *Ranges = RangeStk;
  size_t *Remaining = RemStk;
  if (N > StkN) {
    RangeHeap.resize(N);
    RemHeap.resize(N);
    Ranges = RangeHeap.data();
    Remaining = RemHeap.data();
  }
  Value Result = N == 1 ? Value() : Value::tuple(N);
  Value *Values = N == 1 ? &Result : Result.elems().data();
  size_t Base = Acts.size();
  for (size_t I = 0; I < N; ++I)
    Ranges[I] = {Base, Base};
  size_t NRem = 0;

  // Effect-free branches evaluate in syntactic order: their order is
  // unobservable, so exploring it would only multiply identical paths.
  for (size_t I = 0; I < N; ++I) {
    if (hasEffects(*E.Kids[I])) {
      Remaining[NRem++] = I;
      continue;
    }
    size_t Begin = Acts.size();
    Res R = eval(*E.Kids[I]);
    Ranges[I] = {Begin, Acts.size()};
    if (!R.isValue()) {
      syntacticOrder(Base, Ranges, N);
      return R;
    }
    Values[I] = std::move(R.V);
  }

  // The scheduler picks the branch order among the effectful ones;
  // action-granularity interleaving is unnecessary for observable
  // outcomes because cross-branch conflicts are unsequenced races (UB) —
  // see DESIGN.md.
  while (NRem > 0) {
    unsigned PickIdx =
        NRem == 1 ? 0
                  : Sched.choose(static_cast<unsigned>(NRem), "unseq-order");
    size_t I = Remaining[PickIdx];
    // Close the gap in place (order must be preserved: the scheduler's
    // choice points enumerate identically to the erase()-based version).
    for (size_t J = PickIdx; J + 1 < NRem; ++J)
      Remaining[J] = Remaining[J + 1];
    --NRem;
    size_t Begin = Acts.size();
    Res R = eval(*E.Kids[I]);
    Ranges[I] = {Begin, Acts.size()};
    if (!R.isValue()) {
      syntacticOrder(Base, Ranges, N);
      return R;
    }
    Values[I] = std::move(R.V);
  }

  for (size_t I = 0; I < N; ++I)
    for (size_t J = I + 1; J < N; ++J)
      if (auto U = conflict(Ranges[I], Ranges[J], /*OnlyNegLeft=*/false)) {
        Acts.resize(Base);
        return undef(std::move(*U));
      }
  // The merged footprint lists the branches in syntactic order, whatever
  // order the scheduler ran them in.
  syntacticOrder(Base, Ranges, N);
  return Res(std::move(Result));
}

Evaluator::Res Evaluator::evalPar(const Expr &E) {
  // Restricted concurrency (§5.2: threads only with a more restricted
  // memory object model): branches run in a scheduler-chosen order; any
  // cross-thread conflicting non-atomic accesses are a data race (UB).
  size_t N = E.Kids.size();
  size_t Base = Acts.size();
  Value Result = Value::tuple(N);
  std::vector<ActRange> Ranges(N, ActRange{Base, Base});
  std::vector<size_t> Remaining;
  for (size_t I = 0; I < N; ++I)
    Remaining.push_back(I);
  while (!Remaining.empty()) {
    unsigned PickIdx =
        Remaining.size() == 1
            ? 0
            : Sched.choose(static_cast<unsigned>(Remaining.size()), "par");
    size_t I = Remaining[PickIdx];
    Remaining.erase(Remaining.begin() + PickIdx);
    size_t Begin = Acts.size();
    Res R = eval(*E.Kids[I]);
    Ranges[I] = {Begin, Acts.size()};
    if (!R.isValue()) {
      Acts.resize(Base);
      return R;
    }
    Result.elems()[I] = std::move(R.V);
  }
  for (size_t I = 0; I < N; ++I)
    for (size_t J = I + 1; J < N; ++J)
      if (auto U = conflict(Ranges[I], Ranges[J], false)) {
        U->Kind = mem::UBKind::DataRace;
        Acts.resize(Base);
        return undef(std::move(*U));
      }
  syntacticOrder(Base, Ranges.data(), N);
  return Res(std::move(Result));
}

//===----------------------------------------------------------------------===//
// save / run (§5.8)
//===----------------------------------------------------------------------===//

Evaluator::Res Evaluator::evalSaveBody(
    const Expr &Save, bool ApplyDiffFirst,
    const std::vector<ScopeObject> *RunScope) {
  if (ApplyDiffFirst) {
    Res D = applyScopeDiff(*RunScope, Save.Scope);
    if (!D.isValue())
      return D;
  }
  for (;;) {
    Res R = eval(*Save.Kids[0]);
    if (R.K == Res::RunSig && Sig.RunLabel == Save.Sym) {
      Res D = applyScopeDiff(*Sig.RunScope, Save.Scope);
      if (!D.isValue())
        return D;
      continue; // re-enter the save body (loops)
    }
    if (R.K == Res::RunSig && containsSave(*Save.Kids[0], Sig.RunLabel))
      return evalJump(*Save.Kids[0], Sig.RunLabel, *Sig.RunScope);
    return R;
  }
}

Evaluator::Res Evaluator::evalJump(const Expr &E, Symbol Label,
                                   const std::vector<ScopeObject> &RunScope) {
  if (!budget())
    return budgetError();
  switch (E.K) {
  case ExprKind::Save:
    if (E.Sym == Label)
      return evalSaveBody(E, /*ApplyDiffFirst=*/true, &RunScope);
    // The target is nested inside another save's body.
    for (;;) {
      Res R = evalJump(*E.Kids[0], Label, RunScope);
      if (R.K == Res::RunSig && Sig.RunLabel == E.Sym) {
        Res D = applyScopeDiff(*Sig.RunScope, E.Scope);
        if (!D.isValue())
          return D;
        // Re-enter this save normally.
        return evalSaveBody(E, false, nullptr);
      }
      return R;
    }
  case ExprKind::PureLet:
  case ExprKind::ELet:
  case ExprKind::LetWeak:
  case ExprKind::LetStrong: {
    if (containsSave(*E.Kids[0], Label)) {
      Res R1 = evalJump(*E.Kids[0], Label, RunScope);
      if (!R1.isValue()) {
        if (R1.K == Res::RunSig && containsSave(*E.Kids[1], Sig.RunLabel))
          return evalJump(*E.Kids[1], Sig.RunLabel, *Sig.RunScope);
        return R1;
      }
      if (UseSlots ? !matchPatternMove(E.Pat, std::move(R1.V))
                   : !matchPattern(E.Pat, R1.V))
        return error("let pattern mismatch after jump");
      Res R2 = eval(*E.Kids[1]);
      if (R2.K == Res::RunSig && containsSave(*E.Kids[0], Sig.RunLabel))
        return evalJump(*E.Kids[0], Sig.RunLabel, *Sig.RunScope);
      return R2;
    }
    // Skip the binding entirely (the label lies in the continuation).
    return evalJump(*E.Kids[1], Label, RunScope);
  }
  case ExprKind::PureIf:
  case ExprKind::EIf: {
    for (size_t I : {size_t(1), size_t(2)})
      if (containsSave(*E.Kids[I], Label)) {
        Res R = evalJump(*E.Kids[I], Label, RunScope);
        if (R.K == Res::RunSig) {
          size_t Other = I == 1 ? 2 : 1;
          if (containsSave(*E.Kids[Other], Sig.RunLabel))
            return evalJump(*E.Kids[Other], Sig.RunLabel, *Sig.RunScope);
        }
        return R;
      }
    return error("jump target vanished in if");
  }
  case ExprKind::Case:
  case ExprKind::ECase: {
    for (const auto &[Pat, Body] : E.Branches)
      if (containsSave(*Body, Label))
        return evalJump(*Body, Label, RunScope);
    return error("jump target vanished in case");
  }
  default:
    return error("jump routed through an unexpected Core construct");
  }
}

//===----------------------------------------------------------------------===//
// Actions and pointer operations
//===----------------------------------------------------------------------===//

Evaluator::Res Evaluator::evalAction(const Expr &E) {
  switch (E.Act) {
  case ActionKind::Create: {
    mem::PointerValue P = Mem.allocateObject(E.Cty, E.Str, /*Static=*/false);
    if (!Frames.empty())
      Frames.back().Created.push_back(P);
    return Res(Value::pointer(P));
  }
  case ActionKind::Alloc: {
    Res S = eval(*E.Kids[0]);
    if (!S.isValue())
      return S;
    auto IV = asInteger(S.V);
    if (!IV)
      return error("alloc with non-integer size");
    mem::PointerValue P =
        Mem.allocateRegion(static_cast<uint64_t>(IV->V), 16);
    return Res(Value::pointer(P));
  }
  case ActionKind::Kill: {
    Value PTmp;
    const Value *PO =
        UseSlots && E.Kids[0]->ValueOnly ? evalPure(*E.Kids[0], PTmp) : nullptr;
    Res P;
    if (!PO) {
      P = eval(*E.Kids[0]);
      if (!P.isValue())
        return P;
      PO = &P.V;
    }
    auto PV = asPointer(*PO);
    if (!PV)
      return error("kill of a non-pointer");
    if (auto R = Mem.killObject(*PV); !R) {
      auto U = R.takeUB();
      U.Loc = E.Loc;
      return undef(std::move(U));
    }
    return Res();
  }
  case ActionKind::Free: {
    Res P = eval(*E.Kids[0]);
    if (!P.isValue())
      return P;
    auto PV = asPointer(P.V);
    if (!PV)
      return error("free of a non-pointer");
    if (auto R = Mem.freeRegion(*PV); !R) {
      auto U = R.takeUB();
      U.Loc = E.Loc;
      return undef(std::move(U));
    }
    return Res();
  }
  case ActionKind::Load: {
    // Operand fast path: lowering usually reduces the address to a slot
    // read, which the pure interpreter serves in place — no Res.
    Value PTmp;
    const Value *PO =
        UseSlots && E.Kids[0]->ValueOnly ? evalPure(*E.Kids[0], PTmp) : nullptr;
    Res P;
    if (!PO) {
      P = eval(*E.Kids[0]);
      if (!P.isValue())
        return P;
      PO = &P.V;
    }
    auto PV = asPointer(*PO);
    if (!PV) {
      if (PO->kind() == ValueKind::Unspecified) {
        auto U = mem::undef(mem::UBKind::IndeterminateValueUse,
                            "load through an unspecified pointer");
        U.Loc = E.Loc;
        return undef(std::move(U));
      }
      return error("load through a non-pointer");
    }
    auto R = Mem.load(E.Cty, *PV);
    if (!R) {
      auto U = R.takeUB();
      U.Loc = E.Loc;
      return undef(std::move(U));
    }
    Acts.push_back(ActRec{PV->Addr, PV->Addr + Env.sizeOf(E.Cty),
                          /*Write=*/false, E.NegPolarity, E.AtomicAccess,
                          E.Loc});
    return Res(memToValue(*R));
  }
  case ActionKind::Store: {
    Value PTmp, VTmp;
    const Value *PO =
        UseSlots && E.Kids[0]->ValueOnly ? evalPure(*E.Kids[0], PTmp) : nullptr;
    Res P;
    if (!PO) {
      P = eval(*E.Kids[0]);
      if (!P.isValue())
        return P;
      PO = &P.V;
    }
    const Value *VO =
        UseSlots && E.Kids[1]->ValueOnly ? evalPure(*E.Kids[1], VTmp) : nullptr;
    Res V;
    if (!VO) {
      V = eval(*E.Kids[1]);
      if (!V.isValue())
        return V;
      VO = &V.V;
    }
    auto PV = asPointer(*PO);
    if (!PV) {
      if (PO->kind() == ValueKind::Unspecified) {
        auto U = mem::undef(mem::UBKind::IndeterminateValueUse,
                            "store through an unspecified pointer");
        U.Loc = E.Loc;
        return undef(std::move(U));
      }
      return error("store through a non-pointer");
    }
    mem::MemValue MV = valueToMem(E.Cty, *VO);
    if (auto R = Mem.store(E.Cty, *PV, MV); !R) {
      auto U = R.takeUB();
      U.Loc = E.Loc;
      return undef(std::move(U));
    }
    Acts.push_back(ActRec{PV->Addr, PV->Addr + Env.sizeOf(E.Cty),
                          /*Write=*/true, E.NegPolarity, E.AtomicAccess,
                          E.Loc});
    return Res();
  }
  }
  return error("bad memory action");
}

Evaluator::Res Evaluator::evalPtrOp(const Expr &E) {
  // Every pointer operation takes one or two operands.
  Value Ops[2];
  for (size_t I = 0; I < E.Kids.size(); ++I) {
    Res R = eval(*E.Kids[I]);
    if (!R.isValue())
      return R;
    if (I < 2)
      Ops[I] = std::move(R.V);
  }
  auto UB = [&](mem::UndefinedBehaviour U) {
    U.Loc = E.Loc;
    return undef(std::move(U));
  };
  switch (E.POp) {
  case PtrOpKind::PtrEq:
  case PtrOpKind::PtrNe: {
    auto A = asPointer(Ops[0]), B = asPointer(Ops[1]);
    if (!A || !B)
      return error("pointer equality on non-pointers");
    if (A->Prov.isAlloc() && B->Prov.isAlloc() && !(A->Prov == B->Prov) &&
        A->Addr == B->Addr)
      ++Events.ProvenanceEqConsulted;
    auto R = Mem.ptrEq(*A, *B);
    if (!R)
      return UB(R.takeUB());
    bool Eq = R->V != 0;
    return Res(Value::boolean(E.POp == PtrOpKind::PtrEq ? Eq : !Eq));
  }
  case PtrOpKind::PtrLt:
  case PtrOpKind::PtrGt:
  case PtrOpKind::PtrLe:
  case PtrOpKind::PtrGe: {
    auto A = asPointer(Ops[0]), B = asPointer(Ops[1]);
    if (!A || !B)
      return error("pointer comparison on non-pointers");
    unsigned Op = E.POp == PtrOpKind::PtrLt   ? 0
                  : E.POp == PtrOpKind::PtrGt ? 1
                  : E.POp == PtrOpKind::PtrLe ? 2
                                              : 3;
    auto R = Mem.ptrRel(Op, *A, *B);
    if (!R)
      return UB(R.takeUB());
    return Res(Value::boolean(R->V != 0));
  }
  case PtrOpKind::PtrDiff: {
    auto A = asPointer(Ops[0]), B = asPointer(Ops[1]);
    if (!A || !B)
      return error("ptrdiff on non-pointers");
    auto R = Mem.ptrDiff(E.Cty, *A, *B);
    if (!R)
      return UB(R.takeUB());
    return Res(Value::integer(*R));
  }
  case PtrOpKind::IntFromPtr: {
    auto P = asPointer(Ops[0]);
    if (!P)
      return error("intFromPtr on a non-pointer");
    auto R = Mem.intFromPtr(E.Cty, *P);
    if (!R)
      return UB(R.takeUB());
    return Res(Value::integer(*R));
  }
  case PtrOpKind::PtrFromInt: {
    auto I = asInteger(Ops[0]);
    if (!I)
      return error("ptrFromInt on a non-integer");
    auto R = Mem.ptrFromInt(*I);
    if (!R)
      return UB(R.takeUB());
    return Res(Value::pointer(*R));
  }
  case PtrOpKind::PtrValidForDeref: {
    auto P = asPointer(Ops[0]);
    if (!P)
      return error("ptrValidForDeref on a non-pointer");
    return Res(Value::boolean(Mem.validForDeref(E.Cty, *P)));
  }
  case PtrOpKind::CastPtr: {
    auto P = asPointer(Ops[0]);
    if (!P)
      return error("cast_ptr on a non-pointer");
    return Res(Value::pointer(Mem.castPointer(E.Cty, *P)));
  }
  }
  return error("bad pointer operation");
}

//===----------------------------------------------------------------------===//
// Pure builtin functions
//===----------------------------------------------------------------------===//

std::optional<Value> Evaluator::tryPureFn(PureFn F,
                                          const Value *const *Args,
                                          size_t N) {
  // The acceptance conditions here mirror evalPureCall's diagnostics
  // exactly: nullopt if and only if the general path would error.
  switch (F) {
  case PureFn::IsRepresentable: {
    if (N != 2 || Args[0]->kind() != ValueKind::Ctype)
      return std::nullopt;
    auto IV = asInteger(*Args[1]);
    if (!IV)
      return std::nullopt;
    return Value::boolean(Env.inRange(Args[0]->cty().intKind(), IV->V));
  }
  case PureFn::ShrArith: {
    auto A = asInteger(*Args[0]), B = asInteger(*Args[1]);
    if (!A || !B)
      return std::nullopt;
    // Arithmetic shift = floor division by 2^b (the impl-defined 6.5.7p5
    // behaviour of every mainstream implementation).
    Int128 Divisor = Int128(1) << static_cast<unsigned>(B->V);
    Int128 Q = A->V / Divisor;
    if (A->V < 0 && A->V % Divisor != 0)
      --Q;
    return Value::integer(Q);
  }
  case PureFn::BwAnd:
  case PureFn::BwOr:
  case PureFn::BwXor: {
    if (N != 3 || Args[0]->kind() != ValueKind::Ctype)
      return std::nullopt;
    auto A = asInteger(*Args[1]), B = asInteger(*Args[2]);
    if (!A || !B)
      return std::nullopt;
    ail::IntKind K = Args[0]->cty().intKind();
    unsigned W = Env.widthOf(K);
    UInt128 Mask = W >= 128 ? ~UInt128(0) : (UInt128(1) << W) - 1;
    UInt128 X = static_cast<UInt128>(A->V) & Mask;
    UInt128 Y = static_cast<UInt128>(B->V) & Mask;
    UInt128 R = F == PureFn::BwAnd   ? (X & Y)
                : F == PureFn::BwOr ? (X | Y)
                                     : (X ^ Y);
    return Value::integer(Env.convert(K, static_cast<Int128>(R)));
  }
  case PureFn::BwCompl: {
    if (N != 2 || Args[0]->kind() != ValueKind::Ctype)
      return std::nullopt;
    auto A = asInteger(*Args[1]);
    if (!A)
      return std::nullopt;
    ail::IntKind K = Args[0]->cty().intKind();
    unsigned W = Env.widthOf(K);
    UInt128 Mask = W >= 128 ? ~UInt128(0) : (UInt128(1) << W) - 1;
    UInt128 R = (~static_cast<UInt128>(A->V)) & Mask;
    return Value::integer(Env.convert(K, static_cast<Int128>(R)));
  }
  case PureFn::None:
    break;
  }
  return std::nullopt;
}

const Value *Evaluator::evalPure(const Expr &E, Value &Tmp) {
  ++Steps; // keep step accounting close to the general path's
  switch (E.K) {
  case ExprKind::Sym: {
    int S = E.Slot;
    if (S < 0 || !SlotBound[S])
      return nullptr;
    return &Slots[S]; // no copy: the subtree cannot rebind slots
  }
  case ExprKind::Val:
    return E.PoolIdx >= 0 ? &Prog.ConstPool[E.PoolIdx] : &E.V;
  case ExprKind::Skip:
    Tmp = Value::unit();
    return &Tmp;
  case ExprKind::UnspecifiedE:
    Tmp = Value::unspecified(E.Cty);
    return &Tmp;
  case ExprKind::Tuple: {
    Value T = Value::tuple(E.Kids.size());
    for (size_t I = 0; I < E.Kids.size(); ++I) {
      Value KT;
      const Value *KV = evalPure(*E.Kids[I], KT);
      if (!KV)
        return nullptr;
      T.elems()[I] = KV == &KT ? std::move(KT) : *KV;
    }
    Tmp = std::move(T);
    return &Tmp;
  }
  case ExprKind::SpecifiedE: {
    Value KT;
    const Value *KV = evalPure(*E.Kids[0], KT);
    if (!KV)
      return nullptr;
    Tmp = Value::specified(KV == &KT ? std::move(KT) : *KV);
    return &Tmp;
  }
  case ExprKind::Not: {
    Value KT;
    const Value *KV = evalPure(*E.Kids[0], KT);
    if (!KV)
      return nullptr;
    if (KV->kind() != ValueKind::True && KV->kind() != ValueKind::False)
      return nullptr;
    Tmp = Value::boolean(KV->kind() == ValueKind::False);
    return &Tmp;
  }
  case ExprKind::Binop: {
    Value TA, TB;
    const Value *A = evalPure(*E.Kids[0], TA);
    if (!A)
      return nullptr;
    const Value *B = evalPure(*E.Kids[1], TB);
    if (!B)
      return nullptr;
    if (E.BOp == CoreBinop::And || E.BOp == CoreBinop::Or) {
      bool BA = A->isTrue(), BB = B->isTrue();
      Tmp = Value::boolean(E.BOp == CoreBinop::And ? (BA && BB)
                                                   : (BA || BB));
      return &Tmp;
    }
    Int128 X = 0, Y = 0;
    if (!intOf(*A, X) || !intOf(*B, Y))
      return nullptr;
    switch (E.BOp) {
    case CoreBinop::Add:
      Tmp = Value::integer(Int128(UInt128(X) + UInt128(Y)));
      return &Tmp;
    case CoreBinop::Sub:
      Tmp = Value::integer(Int128(UInt128(X) - UInt128(Y)));
      return &Tmp;
    case CoreBinop::Mul:
      Tmp = Value::integer(Int128(UInt128(X) * UInt128(Y)));
      return &Tmp;
    case CoreBinop::Div:
      if (Y == 0)
        return nullptr;
      Tmp = Value::integer(X / Y);
      return &Tmp;
    case CoreBinop::RemT:
      if (Y == 0)
        return nullptr;
      Tmp = Value::integer(X % Y);
      return &Tmp;
    case CoreBinop::Eq:
      Tmp = Value::boolean(X == Y);
      return &Tmp;
    case CoreBinop::Lt:
      Tmp = Value::boolean(X < Y);
      return &Tmp;
    case CoreBinop::Le:
      Tmp = Value::boolean(X <= Y);
      return &Tmp;
    case CoreBinop::Gt:
      Tmp = Value::boolean(X > Y);
      return &Tmp;
    case CoreBinop::Ge:
      Tmp = Value::boolean(X >= Y);
      return &Tmp;
    default:
      return nullptr; // Exp and oddities: the general path handles them
    }
  }
  case ExprKind::ConvInt: {
    Value KT;
    const Value *KV = evalPure(*E.Kids[0], KT);
    if (!KV)
      return nullptr;
    auto IV = asInteger(*KV);
    if (!IV)
      return nullptr;
    mem::IntegerValue OutV(Env.convert(E.Cty.intKind(), IV->V), IV->Prov);
    if (IV->Cap && Env.widthOf(E.Cty.intKind()) == 64)
      OutV.Cap = IV->Cap;
    Tmp = Value::integer(OutV);
    return &Tmp;
  }
  case ExprKind::FinishArith: {
    Value TA, TB, TN;
    const Value *A = evalPure(*E.Kids[0], TA);
    if (!A)
      return nullptr;
    const Value *B = evalPure(*E.Kids[1], TB);
    if (!B)
      return nullptr;
    const Value *NV = evalPure(*E.Kids[2], TN);
    if (!NV)
      return nullptr;
    auto IA = asInteger(*A), IB = asInteger(*B), IN = asInteger(*NV);
    if (!IA || !IB || !IN)
      return nullptr;
    Tmp = Value::integer(Mem.finishArith(E.AOp, *IA, *IB, IN->V, E.Cty));
    return &Tmp;
  }
  case ExprKind::IsInteger:
  case ExprKind::IsSigned:
  case ExprKind::IsUnsigned:
  case ExprKind::IsScalar: {
    Value KT;
    const Value *KV = evalPure(*E.Kids[0], KT);
    if (!KV)
      return nullptr;
    if (KV->kind() != ValueKind::Ctype)
      return nullptr;
    const CType &T = KV->cty();
    bool B = false;
    if (E.K == ExprKind::IsInteger)
      B = T.isInteger();
    else if (E.K == ExprKind::IsSigned)
      B = T.isSigned();
    else if (E.K == ExprKind::IsUnsigned)
      B = T.isUnsigned();
    else
      B = T.isScalar();
    Tmp = Value::boolean(B);
    return &Tmp;
  }
  case ExprKind::PureIf:
  case ExprKind::EIf: {
    // ValueOnly branches contain no Save, so no run-signal routing here.
    Value CT;
    const Value *C = evalPure(*E.Kids[0], CT);
    if (!C)
      return nullptr;
    if (C->kind() != ValueKind::True && C->kind() != ValueKind::False)
      return nullptr;
    return evalPure(*E.Kids[C->isTrue() ? 1 : 2], Tmp);
  }
  case ExprKind::MemberShiftE: {
    Value KT;
    const Value *KV = evalPure(*E.Kids[0], KT);
    if (!KV)
      return nullptr;
    auto PV = asPointer(*KV);
    if (!PV)
      return nullptr;
    Tmp = Value::pointer(Mem.memberShift(*PV, E.Tag, E.MemberIdx));
    return &Tmp;
  }
  case ExprKind::PureCall: {
    size_t N = E.Kids.size();
    if (N > 4 || E.Pure == PureFn::None)
      return nullptr; // lowering only marks interned calls, but be safe
    Value ArgT[4];
    const Value *Args[4] = {&ArgT[0], &ArgT[1], &ArgT[2], &ArgT[3]};
    for (size_t I = 0; I < N; ++I) {
      Args[I] = evalPure(*E.Kids[I], ArgT[I]);
      if (!Args[I])
        return nullptr;
    }
    auto R = tryPureFn(E.Pure, Args, N);
    if (!R)
      return nullptr;
    Tmp = std::move(*R);
    return &Tmp;
  }
  default:
    return nullptr; // non-ValueOnly kind: lowering never marks these
  }
}

Evaluator::Res Evaluator::evalPureCall(const Expr &E) {
  // Every known pure builtin takes at most three operands, so arguments
  // evaluate into stack storage (no per-call allocation); the heap path
  // only exists to keep unknown over-long calls evaluating their
  // arguments before erroring, exactly as before.
  size_t N = E.Kids.size();
  Value Stk[4];
  std::vector<Value> Heap;
  Value *Args = Stk;
  if (N > 4) {
    Heap.resize(N);
    Args = Heap.data();
  }
  for (size_t I = 0; I < N; ++I) {
    Res R = eval(*E.Kids[I]);
    if (!R.isValue())
      return R;
    Args[I] = std::move(R.V);
  }
  // Lowered trees carry the interned target; unlowered ones resolve the
  // name here (same table, so both paths produce identical dispatch).
  PureFn F = E.Pure != PureFn::None ? E.Pure : core::pureFnByName(E.Str);

  const Value *ArgP[4] = {&Args[0], &Args[1], &Args[2], &Args[3]};
  if (auto R = tryPureFn(F, ArgP, N))
    return Res(std::move(*R));

  // tryPureFn declined, so one of its (exactly mirrored) acceptance checks
  // failed; replay them to produce the historical diagnostic.
  switch (F) {
  case PureFn::IsRepresentable:
    if (N != 2 || Args[0].kind() != ValueKind::Ctype)
      return error("is_representable(ctype, int) misuse");
    return error("is_representable on a non-integer");
  case PureFn::ShrArith:
    return error("shr_arith misuse");
  case PureFn::BwAnd:
  case PureFn::BwOr:
  case PureFn::BwXor:
    if (N != 3 || Args[0].kind() != ValueKind::Ctype)
      return error("bitwise builtin misuse");
    return error("bitwise builtin on non-integers");
  case PureFn::BwCompl:
    if (N != 2 || Args[0].kind() != ValueKind::Ctype)
      return error("bw_compl misuse");
    return error("bw_compl on a non-integer");
  case PureFn::None:
    break;
  }
  return error(fmt("unknown pure builtin '{0}'", E.Str));
}

//===----------------------------------------------------------------------===//
// Procedure calls and the standard library (see Builtins.cpp for printf)
//===----------------------------------------------------------------------===//

Evaluator::Res Evaluator::callProc(Symbol S, std::vector<Value> Args,
                                   SourceLoc Loc) {
  auto BIt = Prog.Builtins.find(S.Id);
  if (BIt != Prog.Builtins.end())
    {
      Res R = callBuiltin(BIt->second, Args, Loc);
      Arena.give(std::move(Args));
      return R;
    }

  const CoreProc *Proc = Prog.findProc(S);
  if (!Proc)
    return error(fmt("call to undefined function '{0}'",
                          Prog.Syms.nameOf(S)));
  if (Proc->Params.size() != Args.size())
    return error(fmt("arity mismatch calling '{0}'",
                          Prog.Syms.nameOf(S)));
  if (++CallDepth > Limits.MaxCallDepth) {
    --CallDepth;
    return error("call depth limit exceeded (runaway recursion)");
  }

  if (UseSlots) {
    UndoFrames.push_back(
        UndoFrame{UndoLog.size(), UndoVals.size(), ++EpochCounter});
    FrameEpoch = EpochCounter;
    for (size_t I = 0; I < Args.size(); ++I)
      bindSlot(Proc->ParamSlots[I], std::move(Args[I]));
  } else {
    UndoStack.emplace_back();
    for (size_t I = 0; I < Args.size(); ++I)
      bind(Proc->Params[I].first.Id, std::move(Args[I]));
  }

  Frames.push_back(Frame{});
  // Function bodies are indeterminately sequenced w.r.t. the caller's
  // expression: the body's footprint is discarded, not shared (§5.6).
  size_t ActBase = Acts.size();
  Res R = eval(*Proc->Body);
  Acts.resize(ActBase);
  // End of lifetime for everything this frame created and has not yet
  // freed/killed (§5.7).
  for (const mem::PointerValue &P : Frames.back().Created) {
    if (P.Prov.isAlloc() && Mem.allocations()[P.Prov.AllocId].Alive)
      (void)Mem.killObject(P);
  }
  Frames.pop_back();
  // Restore the caller's bindings. On the slot path the log is replayed
  // in reverse: a slot may carry duplicate records when an inner frame's
  // stamp went stale, and reverse order applies the frame-entry value
  // last (see Evaluator.h SlotStamp).
  if (UseSlots) {
    size_t Base = UndoFrames.back().Base;
    for (size_t I = UndoLog.size(); I > Base; --I) {
      UndoRec &U = UndoLog[I - 1];
      if (U.ValIdx >= 0) {
        Slots[U.Slot] = std::move(UndoVals[U.ValIdx]);
        SlotBound[U.Slot] = 1;
      } else {
        SlotBound[U.Slot] = 0;
      }
    }
    UndoLog.resize(Base);
    UndoVals.resize(UndoFrames.back().ValsBase);
    UndoFrames.pop_back();
    FrameEpoch = UndoFrames.empty() ? 0 : UndoFrames.back().Epoch;
  } else {
    for (auto &[Id, Old] : UndoStack.back()) {
      if (Old)
        Bindings[Id] = std::move(*Old);
      else
        Bindings.erase(Id);
    }
    UndoStack.pop_back();
  }
  --CallDepth;
  Arena.give(std::move(Args)); // retire the argument buffer

  if (R.K == Res::RetSig) {
    R.K = Res::Val;
    return R;
  }
  if (R.K == Res::RunSig)
    return error(fmt("goto to a label outside function '{0}'",
                          Prog.Syms.nameOf(S)));
  return R; // value (shouldn't happen: bodies end in Ret), or a signal
}
