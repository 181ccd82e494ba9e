//===-- exec/Evaluator.cpp ------------------------------------------------===//

#include "exec/Evaluator.h"

#include "exec/EvalArena.h"

#include "support/DepthGuard.h"
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
    : Prog(Prog), Sched(&Sched),
      Mem(ail::ImplEnv(Prog.Tags), std::move(Policy)), Limits(Limits) {
  forEachLeased([](auto &Buf) { EvalArena::take(Buf); });
  Slots.resize(Prog.NumSlots);
  SlotBound.resize(Prog.NumSlots, 0);
  SlotStamp.resize(Prog.NumSlots, 0);
  Stack.reserve(InitialFrames);
}

Evaluator::Evaluator(const Evaluator &O, Scheduler &Sched)
    : Prog(O.Prog), Sched(&Sched), Mem(O.Mem), Limits(O.Limits),
      Events(O.Events), EpochCounter(O.EpochCounter),
      FrameEpoch(O.FrameEpoch), Caps(O.Caps), Out(O.Out), Steps(O.Steps),
      CallDepth(O.CallDepth), EvalDepth(O.EvalDepth),
      DeadlineHit(O.DeadlineHit), Sig(O.Sig), M(O.M), Cur(O.Cur),
      Result(O.Result), JumpLabel(O.JumpLabel), JumpScope(O.JumpScope),
      ChoiceN(O.ChoiceN), ChoiceTag(O.ChoiceTag), Chosen(O.Chosen) {
  // Copy the state into leased buffers: assignment keeps their capacity.
  forEachLeased([](auto &Buf) { EvalArena::take(Buf); });
  Slots = O.Slots;
  SlotBound = O.SlotBound;
  SlotStamp = O.SlotStamp;
  UndoLog = O.UndoLog;
  UndoVals = O.UndoVals;
  UndoFrames = O.UndoFrames;
  Acts = O.Acts;
  Stack = O.Stack;
  BranchRanges = O.BranchRanges;
  Pending = O.Pending;
  Created = O.Created;
}

Evaluator::~Evaluator() {
  // Retire every buffer to this thread's pool: the exhaustive explorer
  // builds or copies one Evaluator per explored path.
  forEachLeased([](auto &Buf) { EvalArena::give(Buf); });
}

namespace {
/// Heap bytes a copy of \p V allocates: its boxes, recursively. A slot
/// keeps a loaded struct's byte image until it is rebound.
uint64_t boxBytes(const Value &V) {
  switch (V.innerKind()) {
  case ValueKind::BytesV:
    return V.bytes().size() * sizeof(mem::MemByte);
  case ValueKind::Tuple:
  case ValueKind::List:
  case ValueKind::ArrayV:
  case ValueKind::StructV:
  case ValueKind::UnionV: {
    uint64_t N = 0;
    for (const Value &E : V.elems())
      N += sizeof(Value) + boxBytes(E);
    return N;
  }
  default:
    return 0;
  }
}
} // namespace

uint64_t Evaluator::stateBytes() const {
  uint64_t Boxes = boxBytes(Result.V);
  for (const Value &V : Slots)
    Boxes += boxBytes(V);
  for (const Value &V : UndoVals)
    Boxes += boxBytes(V);
  for (const Frame &F : Stack)
    Boxes += boxBytes(F.V);
  return sizeof(Evaluator) + Mem.stateBytes() + Boxes +
         Slots.size() * (sizeof(Value) + sizeof(uint8_t) + sizeof(uint64_t)) +
         UndoLog.size() * sizeof(UndoRec) + UndoVals.size() * sizeof(Value) +
         UndoFrames.size() * sizeof(UndoFrame) + Out.size() +
         Acts.size() * sizeof(ActRec) + Stack.size() * sizeof(Frame) +
         BranchRanges.size() * sizeof(ActRange) +
         Pending.size() * sizeof(uint32_t) +
         Created.size() * sizeof(mem::PointerValue);
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
  if (M == Mode::Start) {
    if (!Prog.Lowered) {
      // Without slots every binding would index SlotStamp at -1.
      Outcome O;
      O.Kind = OutcomeKind::Error;
      O.Message = "program was not lowered: run core::lower before evaluating";
      return O;
    }
    // Static storage: plan the layout, create every object, bind its
    // symbol.
    std::vector<std::pair<CType, std::string>> Layout;
    for (const CoreGlobal &G : Prog.Globals)
      Layout.emplace_back(G.Ty, Prog.Syms.nameOf(G.Name));
    Mem.beginStaticLayout(Layout);
    for (const CoreGlobal &G : Prog.Globals) {
      mem::PointerValue P = Mem.allocateObject(
          G.Ty, Prog.Syms.nameOf(G.Name), /*Static=*/true);
      if (P.isNull())
        return finish(objectTooLarge(G.Ty, Prog.Syms.nameOf(G.Name)));
      Slots[G.Slot] = Value::pointer(P);
      SlotBound[G.Slot] = 1;
    }
    Stack.emplace_back(Frame::Program, nullptr, /*Counted=*/false);
    resumeProgram(Stack.back());
  }
  drive();
  return finish(std::move(Result));
}

Outcome Evaluator::finish(Res R) {
  Outcome O;
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

Evaluator::Res Evaluator::tooDeep() {
  return error(fmt("evaluation nests deeper than {0} levels (MaxEvalDepth)",
                   MaxEvalDepth));
}

Evaluator::Res Evaluator::objectTooLarge(const CType &Ty,
                                         const std::string &Name) {
  return error(fmt("object '{0}' of {1} bytes exceeds the allocation budget "
                   "of {2} bytes",
                   Name, env().sizeOf(Ty), mem::Memory::MaxAllocatedBytes));
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
    bindSlot(P.Slot, Inner ? V.inner() : Value(V));
    return true;
  case PatKind::Tuple: {
    if (K != ValueKind::Tuple || V.elems().size() != P.subs().size())
      return false;
    for (size_t I = 0; I < P.subs().size(); ++I)
      if (!matchPattern(P.subs()[I], V.elems()[I]))
        return false;
    return true;
  }
  case PatKind::SpecifiedP:
    return K == ValueKind::Specified && matchPattern(P.subs()[0], V, true);
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
    if (V.kind() != ValueKind::Tuple || V.elems().size() != P.subs().size())
      return false;
    for (size_t I = 0; I < P.subs().size(); ++I)
      if (!matchPatternMove(P.subs()[I], std::move(V.elems()[I])))
        return false;
    return true;
  }
  case PatKind::SpecifiedP:
    return V.kind() == ValueKind::Specified &&
           matchPatternMove(P.subs()[0], std::move(V).takeInner());
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


// hasEffects lives in core:: so that core::lower can set every node's
// cache before a program is shared across evaluator threads.
using core::hasEffects;

bool Evaluator::containsSave(const Expr &E, Symbol Label) const {
  // Lowering leaves a per-node Save-label bloom: a clear bit refutes the
  // subtree without walking it, turning the per-jump O(tree) routing scans
  // into O(path). A set bit (possible collision) falls through to the
  // exact scan, whose recursion re-checks masks.
  if (!(E.SaveMask & (1u << (Label.Id & 31))))
    return false;
  if (E.K == ExprKind::Save && E.Sym == Label)
    return true;
  for (const Expr *K : E.kids())
    if (containsSave(*K, Label))
      return true;
  for (const auto &[Pat, Body] : E.branches())
    if (containsSave(*Body, Label))
      return true;
  return false;
}

Evaluator::Res
Evaluator::applyScopeDiff(std::span<const ScopeObject> RunScope,
                          std::span<const ScopeObject> SaveScope) {
  auto In = [](std::span<const ScopeObject> Scope, Symbol S) {
    for (const ScopeObject &O : Scope)
      if (O.Obj == S)
        return true;
    return false;
  };
  // Kill objects live at the run point but not at the save point.
  for (const ScopeObject &O : RunScope) {
    if (In(SaveScope, O.Obj))
      continue;
    if (O.Slot < 0 || !SlotBound[O.Slot])
      continue; // the binding never materialised on this path
    auto P = asPointer(Slots[O.Slot]);
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
    if (P.isNull())
      return objectTooLarge(O.Ty, Prog.Syms.nameOf(O.Obj));
    Created.push_back(P);
    bindSlot(O.Slot, Value::pointer(P));
  }
  return Res();
}

//===----------------------------------------------------------------------===//
// The machine
//===----------------------------------------------------------------------===//

void Evaluator::drive() {
  for (;;) {
    switch (M) {
    case Mode::Eval:
      evalStep(*Cur);
      break;
    case Mode::Jump:
      jumpStep(*Cur);
      break;
    case Mode::Choose:
      Chosen = Sched->choose(ChoiceN, ChoiceTag);
      resume();
      break;
    case Mode::Return:
      resume();
      break;
    case Mode::Start:
    case Mode::Done:
      return;
    }
  }
}

void Evaluator::evalStep(const Expr &E) {
  // Lowering-proved effect-free subtree: run the Res-free interpreter.
  // A null return (operand-kind surprise) falls through to the general
  // path, which re-evaluates — harmless, the subtree has no effects.
  if (E.ValueOnly) {
    Value Tmp;
    const Value *P = evalPure(E, Tmp);
    if (P == &Tmp)
      return retValue(std::move(Tmp));
    if (P)
      return retValue(*P);
  }
  if (!budget())
    return ret(budgetError());
  if (EvalDepth >= MaxEvalDepth)
    return ret(tooDeep());
  ++EvalDepth; // E's level: its frame holds it, or done() releases it

  switch (E.K) {
  case ExprKind::ELet:
  case ExprKind::LetWeak:
  case ExprKind::LetStrong:
    return enterLet(E);
  case ExprKind::EIf:
    return enterIf(E);
  case ExprKind::ECase:
    return enterCase(E);
  case ExprKind::Unseq:
  case ExprKind::Par:
    return enterUnseq(E);
  case ExprKind::Indet:
  case ExprKind::Bound:
    // Operationally transparent: indeterminate sequencing is realised by
    // the scheduler's choice of unseq evaluation order (see DESIGN.md).
    push(Frame::Pass, E, true);
    return evalNext(*E.kids()[0]);
  case ExprKind::Nd:
    push(Frame::Nd, E, true);
    return choose(static_cast<unsigned>(E.kids().size()), "nd");
  case ExprKind::Save:
    push(Frame::Save, E, true);
    return evalNext(*E.kids()[0]);
  case ExprKind::PtrOp:
    return enterPtrOp(E);

  case ExprKind::ProcCall: {
    CallArgs.clear();
    for (const Expr *K : E.kids()) {
      // Arguments are overwhelmingly slot reads after lowering: copy
      // them out of the environment directly, skipping the Res plumbing.
      if (K->ValueOnly) {
        Value Tmp;
        if (const Value *P = evalPure(*K, Tmp)) {
          CallArgs.push_back(P == &Tmp ? std::move(Tmp) : Value(*P));
          continue;
        }
      }
      Res R = evalLeaf(*K);
      if (!R.isValue())
        return done(std::move(R));
      CallArgs.push_back(std::move(R.V));
    }
    return enterCall(E.Sym, E.Loc, true);
  }
  case ExprKind::CallPtr: {
    Res F = evalLeaf(*E.kids()[0]);
    if (!F.isValue())
      return done(std::move(F));
    auto PV = asPointer(F.V);
    if (!PV || !PV->isFunction()) {
      auto U = mem::undef(mem::UBKind::AccessNull,
                          "call through a non-function pointer value");
      U.Loc = E.Loc;
      return done(undef(std::move(U)));
    }
    CallArgs.clear();
    for (size_t I = 1; I < E.kids().size(); ++I) {
      Res R = evalLeaf(*E.kids()[I]);
      if (!R.isValue())
        return done(std::move(R));
      CallArgs.push_back(std::move(R.V));
    }
    return enterCall(Symbol{*PV->FuncSym}, E.Loc, true);
  }

  default: // evalNext evaluates leaves itself
    return done(leafBody(E));
  }
}

void Evaluator::jumpStep(const Expr &E) {
  if (!budget())
    return ret(budgetError());
  switch (E.K) {
  case ExprKind::Save:
    if (E.Sym == JumpLabel) {
      // The target: enter its body with the scope difference applied.
      Res D = applyScopeDiff(JumpScope, E.scope());
      if (!D.isValue())
        return ret(std::move(D));
      push(Frame::Save, E, false);
      return evalNext(*E.kids()[0]);
    }
    // The target is nested inside another save's body.
    push(Frame::SaveJump, E, false);
    return jumpNext(*E.kids()[0], JumpLabel, JumpScope);
  case ExprKind::PureLet:
  case ExprKind::ELet:
  case ExprKind::LetWeak:
  case ExprKind::LetStrong:
    if (containsSave(*E.kids()[0], JumpLabel)) {
      push(Frame::LetJump, E, false);
      return jumpNext(*E.kids()[0], JumpLabel, JumpScope);
    }
    // Skip the binding entirely (the label lies in the continuation).
    return jumpNext(*E.kids()[1], JumpLabel, JumpScope);
  case ExprKind::PureIf:
  case ExprKind::EIf:
    for (uint32_t I : {1u, 2u})
      if (containsSave(*E.kids()[I], JumpLabel)) {
        push(Frame::If, E, false);
        Stack.back().Idx = I;
        return jumpNext(*E.kids()[I], JumpLabel, JumpScope);
      }
    return ret(error("jump target vanished in if"));
  case ExprKind::Case:
  case ExprKind::ECase:
    for (const auto &[Pat, Body] : E.branches())
      if (containsSave(*Body, JumpLabel))
        return jumpNext(*Body, JumpLabel, JumpScope);
    return ret(error("jump target vanished in case"));
  default:
    return ret(error("jump routed through an unexpected Core construct"));
  }
}

void Evaluator::resume() {
  Frame &F = Stack.back();
  switch (F.K) {
  case Frame::Program:
    return resumeProgram(F);
  case Frame::Call:
    return resumeCall(F);
  case Frame::Let:
    return resumeLet(F);
  case Frame::LetJump:
    return resumeLetJump(F);
  case Frame::If: {
    // A run out of one branch may target a save in the other.
    const Expr &Other = *F.E->kids()[F.Idx == 1 ? 2 : 1];
    if (Result.K == Res::RunSig && containsSave(Other, Sig.RunLabel)) {
      F.K = Frame::Pass;
      return jumpToRunLabel(Other);
    }
    return pop();
  }
  case Frame::Case: {
    // Forward/backward jumps across case branches.
    if (Result.K == Res::RunSig) {
      const Expr *Body = F.E->branches()[F.Idx].Body;
      for (const auto &[Pat2, Body2] : F.E->branches())
        if (Body2 != Body && containsSave(*Body2, Sig.RunLabel)) {
          F.K = Frame::Pass;
          return jumpToRunLabel(*Body2);
        }
    }
    return pop();
  }
  case Frame::Save:
    return resumeSave(F);
  case Frame::SaveJump: {
    const Expr &E = *F.E;
    if (Result.K == Res::RunSig && Sig.RunLabel == E.Sym) {
      Res D = applyScopeDiff(Sig.RunScope, E.scope());
      if (!D.isValue()) {
        pop();
        return ret(std::move(D));
      }
      // Re-enter this save normally.
      F.K = Frame::Save;
      return evalNext(*E.kids()[0]);
    }
    return pop();
  }
  case Frame::Unseq:
    if (F.Phase == 2 ? unseqRun(F, Chosen) : unseqTake(F)) {
      if (F.Phase == 0)
        return unseqScan(F, F.Idx + 1);
      unseqPick(F);
    }
    return;
  case Frame::Nd:
    F.K = Frame::Pass;
    return evalNext(*F.E->kids()[Chosen]);
  case Frame::PtrEq: {
    // Alternative 1 takes provenance into account: not equal.
    bool Eq = Chosen != 1;
    bool IsEq = F.E->POp == PtrOpKind::PtrEq;
    pop();
    return ret(Res(Value::boolean(IsEq ? Eq : !Eq)));
  }
  case Frame::Pass:
    return pop();
  }
}

void Evaluator::resumeProgram(Frame &F) {
  // Phases: 0 = global F.Idx is next, 1 = its initialiser returned, 2 =
  // main returned.
  if (F.Phase == 1) {
    // The initialiser's objects live on; its actions are done with.
    Created.resize(F.B);
    Acts.resize(F.A);
  }
  if (F.Phase == 2 || !Result.isValue()) {
    pop();
    M = Mode::Done;
    return;
  }
  // Initialisers, in declaration order.
  for (; F.Idx < Prog.Globals.size(); ++F.Idx, F.Phase = 0) {
    const CoreGlobal &G = Prog.Globals[F.Idx];
    if (G.Init && F.Phase == 0) {
      F.A = Acts.size();
      F.B = Created.size();
      F.Phase = 1;
      return evalNext(*G.Init);
    }
    // String literals become immutable once initialised (6.4.5p7).
    if (G.ReadOnly)
      if (auto P = asPointer(Slots[G.Slot]))
        Mem.markReadOnly(*P);
  }
  if (!Prog.MainProc.isValid()) {
    pop();
    Result = error("program has no main function");
    M = Mode::Done;
    return;
  }
  F.Phase = 2;
  CallArgs.clear();
  enterCall(Prog.MainProc, SourceLoc(), /*Counted=*/false);
}

//===----------------------------------------------------------------------===//
// Sequencing
//===----------------------------------------------------------------------===//

void Evaluator::enterLet(const Expr &E) {
  // Fast path for the dominant shape lowering produces: `let <sym> =
  // <ValueOnly expr> in k`. The bound value comes straight out of the
  // pure interpreter into the slot — no Res round-trip, no signal or
  // jump handling (a ValueOnly subtree contains no Save and performs no
  // actions, so the weak-let race check is vacuous). A nullptr bail falls
  // through to the general path, which is safe to re-run because the
  // subtree is effect-free.
  size_t Base = Acts.size();
  if (E.Pat->K == PatKind::Sym && E.kids()[0]->ValueOnly) {
    Value Tmp;
    if (const Value *P = evalPure(*E.kids()[0], Tmp)) {
      bindSlot(E.Pat->Slot, P == &Tmp ? std::move(Tmp) : Value(*P));
      push(Frame::Let, E, true);
      Frame &F = Stack.back();
      F.Phase = 3;
      F.A = Base;
      if (operand(*E.kids()[1]))
        resumeLet(F);
      return;
    }
  }
  push(Frame::Let, E, true);
  Frame &F = Stack.back();
  F.A = Base;
  if (operand(*E.kids()[0]))
    resumeLet(F);
}

void Evaluator::resumeLet(Frame &F) {
  // Phases: 0 = the first operand (or a backward jump into it) returned,
  // 1 = a forward jump into the body returned, 2 = the body returned,
  // 3 = the body of a fast-path let returned.
  //
  // SeqPoint marks a statement boundary: the accumulated footprints can
  // never take part in any unsequenced-race check above, so they are
  // discarded. On the action stack, e1's footprint is [A, B) and e2's is
  // [B, end); a strong let's and a weak let's both stay in the enclosing
  // footprint.
  const Expr &E = *F.E;
  bool Weak = E.K == ExprKind::LetWeak;
  bool Discard = E.SeqPoint;
  size_t Base = F.A;
  switch (F.Phase) {
  case 0:
    if (!Result.isValue()) {
      if (Result.K == Res::RunSig && containsSave(*E.kids()[1], Sig.RunLabel)) {
        // Forward jump into the continuation (the pattern stays unbound;
        // the elaboration never places labels under value-carrying
        // bindings that are read after the label).
        F.Phase = 1;
        return jumpToRunLabel(*E.kids()[1]);
      }
      break;
    }
    // The bound value is moved out of Result, not deep-copied.
    if (!matchPatternMove(*E.Pat, std::move(Result.V))) {
      if (Discard || Weak)
        Acts.resize(Base);
      pop();
      return ret(error("let pattern mismatch"));
    }
    F.B = Acts.size();
    F.Phase = 2;
    if (operand(*E.kids()[1]))
      resumeLet(F);
    return;
  case 2:
    if (Result.K == Res::RunSig && containsSave(*E.kids()[0], Sig.RunLabel)) {
      // Backward jump into the (already completed) first part, which
      // extends e1's footprint; a weak or discarding let forgets e2's.
      if (Discard || Weak)
        Acts.resize(F.B);
      F.Phase = 0;
      return jumpToRunLabel(*E.kids()[0]);
    }
    if (Weak && !Discard) {
      // §5.6: only e1's *positive* actions are sequenced before e2; a
      // conflict between e1's negative actions and e2 is an unsequenced
      // race.
      if (auto U = conflict({Base, F.B}, {F.B, Acts.size()},
                            /*OnlyNegLeft=*/true)) {
        Acts.resize(Base);
        pop();
        return ret(undef(std::move(*U)));
      }
    }
    break;
  default:
    break;
  }
  if (Discard)
    Acts.resize(Base);
  pop();
}

void Evaluator::resumeLetJump(Frame &F) {
  // Phases: 0 = the jump into the first operand returned, 1 = the body
  // returned. A run out of either may target the other: that jump holds
  // no frame.
  const Expr &E = *F.E;
  if (F.Phase == 0) {
    if (!Result.isValue()) {
      pop();
      if (Result.K == Res::RunSig && containsSave(*E.kids()[1], Sig.RunLabel))
        return jumpToRunLabel(*E.kids()[1]);
      return;
    }
    if (!matchPatternMove(*E.Pat, std::move(Result.V))) {
      pop();
      return ret(error("let pattern mismatch after jump"));
    }
    F.Phase = 1;
    return evalNext(*E.kids()[1]);
  }
  pop();
  if (Result.K == Res::RunSig && containsSave(*E.kids()[0], Sig.RunLabel))
    jumpToRunLabel(*E.kids()[0]);
}

void Evaluator::enterIf(const Expr &E) {
  Res C = evalLeaf(*E.kids()[0]);
  if (!C.isValue())
    return done(std::move(C));
  if (C.V.kind() != ValueKind::True && C.V.kind() != ValueKind::False)
    return done(error("if on a non-boolean"));
  uint32_t Taken = C.V.isTrue() ? 1 : 2;
  push(Frame::If, E, true);
  Stack.back().Idx = Taken;
  if (operand(*E.kids()[Taken]))
    resume();
}

void Evaluator::enterCase(const Expr &E) {
  // The scrutinee is usually a slot read or pure boolean after lowering:
  // read it in place, no Res.
  Value STmp;
  const Value *SO =
      E.kids()[0]->ValueOnly ? evalPure(*E.kids()[0], STmp) : nullptr;
  Res S;
  if (!SO) {
    S = evalLeaf(*E.kids()[0]);
    if (!S.isValue())
      return done(std::move(S));
    SO = &S.V;
  }
  for (size_t I = 0; I < E.branches().size(); ++I)
    if (matchPattern(E.branches()[I].Pat, *SO)) {
      push(Frame::Case, E, true);
      Stack.back().Idx = static_cast<uint32_t>(I);
      if (operand(*E.branches()[I].Body))
        resume();
      return;
    }
  done(error("no matching Core case branch"));
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

// An Unseq frame runs unseq and par alike. Each branch's footprint is the
// range of the action stack it appended (kept in BranchRanges, N per
// frame), and its value goes straight into the result tuple (F.V). Phases:
// 0 = an effect-free branch runs, 1 = a scheduled branch runs, 2 = the
// scheduler's pick is awaited. F.Idx is the running branch, F.A the action
// stack at entry, F.B at the running branch's start, F.Aux the base of the
// frame's Pending list.

void Evaluator::enterUnseq(const Expr &E) {
  size_t N = E.kids().size();
  bool Par = E.K == ExprKind::Par;
  size_t Base = Acts.size();
  push(Frame::Unseq, E, true);
  Frame &F = Stack.back();
  F.A = Base;
  F.Aux = static_cast<uint32_t>(Pending.size());
  if (Par || N != 1)
    F.V = Value::tuple(N);
  BranchRanges.resize(BranchRanges.size() + N, ActRange{Base, Base});
  if (!Par)
    return unseqScan(F, 0);
  // Restricted concurrency (§5.2: threads only with a more restricted
  // memory object model): branches run in a scheduler-chosen order; any
  // cross-thread conflicting non-atomic accesses are a data race (UB).
  for (size_t I = 0; I < N; ++I)
    Pending.push_back(static_cast<uint32_t>(I));
  unseqPick(F);
}

void Evaluator::unseqScan(Frame &F, size_t From) {
  // Effect-free branches evaluate in syntactic order: their order is
  // unobservable, so exploring it would only multiply identical paths.
  const Expr &E = *F.E;
  for (size_t I = From; I < E.kids().size(); ++I) {
    if (hasEffects(*E.kids()[I])) {
      Pending.push_back(static_cast<uint32_t>(I));
      continue;
    }
    F.Idx = static_cast<uint32_t>(I);
    F.B = Acts.size();
    F.Phase = 0;
    if (!operand(*E.kids()[I]) || !unseqTake(F))
      return;
  }
  unseqPick(F);
}

void Evaluator::unseqPick(Frame &F) {
  // The scheduler picks the branch order among the effectful ones;
  // action-granularity interleaving is unnecessary for observable
  // outcomes because cross-branch conflicts are unsequenced races (UB) —
  // see DESIGN.md.
  for (size_t NRem; (NRem = Pending.size() - F.Aux) != 0;) {
    if (NRem > 1) {
      F.Phase = 2;
      return choose(static_cast<unsigned>(NRem),
                    F.E->K == ExprKind::Par ? "par" : "unseq-order");
    }
    if (!unseqRun(F, 0))
      return;
  }

  const Expr &E = *F.E;
  size_t N = E.kids().size();
  ActRange *Ranges = &BranchRanges[BranchRanges.size() - N];
  for (size_t I = 0; I < N; ++I)
    for (size_t J = I + 1; J < N; ++J)
      if (auto U = conflict(Ranges[I], Ranges[J], /*OnlyNegLeft=*/false)) {
        if (E.K == ExprKind::Par)
          U->Kind = mem::UBKind::DataRace;
        Acts.resize(F.A);
        popUnseq(F);
        return ret(undef(std::move(*U)));
      }
  // The merged footprint lists the branches in syntactic order, whatever
  // order the scheduler ran them in.
  syntacticOrder(F.A, Ranges, N);
  Value V = std::move(F.V);
  popUnseq(F);
  retValue(std::move(V));
}

bool Evaluator::unseqRun(Frame &F, unsigned PickIdx) {
  // Close the gap in place (order must be preserved: the scheduler's
  // choice points enumerate identically to an erase()-based list).
  auto It = Pending.begin() + F.Aux + PickIdx;
  F.Idx = *It;
  Pending.erase(It);
  F.B = Acts.size();
  F.Phase = 1;
  return operand(*F.E->kids()[F.Idx]) && unseqTake(F);
}

bool Evaluator::unseqTake(Frame &F) {
  const Expr &E = *F.E;
  size_t N = E.kids().size();
  ActRange *Ranges = &BranchRanges[BranchRanges.size() - N];
  Ranges[F.Idx] = {F.B, Acts.size()};
  if (!Result.isValue()) {
    if (E.K == ExprKind::Par)
      Acts.resize(F.A);
    else
      syntacticOrder(F.A, Ranges, N);
    popUnseq(F);
    return false;
  }
  (E.K == ExprKind::Par || N != 1 ? F.V.elems()[F.Idx] : F.V) =
      std::move(Result.V);
  return true;
}

void Evaluator::popUnseq(Frame &F) {
  BranchRanges.resize(BranchRanges.size() - F.E->kids().size());
  Pending.resize(F.Aux);
  pop();
}

//===----------------------------------------------------------------------===//
// save / run (§5.8)
//===----------------------------------------------------------------------===//

void Evaluator::resumeSave(Frame &F) {
  const Expr &Save = *F.E;
  if (Result.K == Res::RunSig && Sig.RunLabel == Save.Sym) {
    Res D = applyScopeDiff(Sig.RunScope, Save.scope());
    if (!D.isValue()) {
      pop();
      return ret(std::move(D));
    }
    return evalNext(*Save.kids()[0]); // re-enter the save body (loops)
  }
  if (Result.K == Res::RunSig && containsSave(*Save.kids()[0], Sig.RunLabel)) {
    F.K = Frame::Pass;
    return jumpToRunLabel(*Save.kids()[0]);
  }
  pop();
}

//===----------------------------------------------------------------------===//
// Procedure calls
//===----------------------------------------------------------------------===//

void Evaluator::enterCall(Symbol S, SourceLoc Loc, bool Counted) {
  auto Finish = [&](Res R) {
    if (Counted)
      --EvalDepth;
    ret(std::move(R));
  };
  auto BIt = Prog.Builtins.find(S.Id);
  if (BIt != Prog.Builtins.end())
    return Finish(callBuiltin(BIt->second, CallArgs, Loc));

  const CoreProc *Proc = Prog.findProc(S);
  if (!Proc)
    return Finish(
        error(fmt("call to undefined function '{0}'", Prog.Syms.nameOf(S))));
  if (Proc->Params.size() != CallArgs.size())
    return Finish(
        error(fmt("arity mismatch calling '{0}'", Prog.Syms.nameOf(S))));
  if (++CallDepth > Limits.MaxCallDepth) {
    --CallDepth;
    return Finish(error("call depth limit exceeded (runaway recursion)"));
  }

  UndoFrames.push_back(
      UndoFrame{UndoLog.size(), UndoVals.size(), ++EpochCounter});
  FrameEpoch = EpochCounter;
  for (size_t I = 0; I < CallArgs.size(); ++I)
    bindSlot(Proc->ParamSlots[I], std::move(CallArgs[I]));

  // Function bodies are indeterminately sequenced w.r.t. the caller's
  // expression: the body's footprint is discarded, not shared (§5.6).
  Stack.emplace_back(Frame::Call, Proc->Body, Counted);
  Frame &F = Stack.back();
  F.Idx = S.Id;
  F.A = Acts.size();
  F.B = Created.size();
  evalNext(*Proc->Body);
}

void Evaluator::resumeCall(Frame &F) {
  Acts.resize(F.A);
  // End of lifetime for everything this call created and has not yet
  // freed/killed (§5.7).
  for (size_t I = F.B; I < Created.size(); ++I) {
    const mem::PointerValue &P = Created[I];
    if (P.Prov.isAlloc() && Mem.allocations()[P.Prov.AllocId].Alive)
      (void)Mem.killObject(P);
  }
  Created.resize(F.B);
  // Restore the caller's bindings. The log is replayed in reverse: a slot
  // may carry duplicate records when an inner frame's stamp went stale,
  // and reverse order applies the frame-entry value last (see SlotStamp).
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
  --CallDepth;
  Symbol S{F.Idx};
  pop();

  if (Result.K == Res::RetSig)
    Result.K = Res::Val;
  else if (Result.K == Res::RunSig)
    ret(error(fmt("goto to a label outside function '{0}'",
                  Prog.Syms.nameOf(S))));
  // A value (bodies end in Ret) or a signal passes up as it is.
}

//===----------------------------------------------------------------------===//
// Pointer operations
//===----------------------------------------------------------------------===//

void Evaluator::enterPtrOp(const Expr &E) {
  // Every pointer operation takes one or two operands.
  Value Ops[2];
  for (size_t I = 0; I < E.kids().size(); ++I) {
    Res R = evalLeaf(*E.kids()[I]);
    if (!R.isValue())
      return done(std::move(R));
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
      return done(error("pointer equality on non-pointers"));
    if (A->Prov.isAlloc() && B->Prov.isAlloc() && !(A->Prov == B->Prov) &&
        A->Addr == B->Addr)
      ++Events.ProvenanceEqConsulted;
    bool Eq = false;
    switch (Mem.ptrEq(*A, *B)) {
    case mem::PtrEquality::Unequal:
      break;
    case mem::PtrEquality::Equal:
      Eq = true;
      break;
    case mem::PtrEquality::EitherWay:
      push(Frame::PtrEq, E, true);
      return choose(2, "ptr-eq-provenance");
    }
    return done(Res(Value::boolean(E.POp == PtrOpKind::PtrEq ? Eq : !Eq)));
  }
  case PtrOpKind::PtrLt:
  case PtrOpKind::PtrGt:
  case PtrOpKind::PtrLe:
  case PtrOpKind::PtrGe: {
    auto A = asPointer(Ops[0]), B = asPointer(Ops[1]);
    if (!A || !B)
      return done(error("pointer comparison on non-pointers"));
    unsigned Op = E.POp == PtrOpKind::PtrLt   ? 0
                  : E.POp == PtrOpKind::PtrGt ? 1
                  : E.POp == PtrOpKind::PtrLe ? 2
                                              : 3;
    auto R = Mem.ptrRel(Op, *A, *B);
    if (!R)
      return done(UB(R.takeUB()));
    return done(Res(Value::boolean(R->V != 0)));
  }
  case PtrOpKind::PtrDiff: {
    auto A = asPointer(Ops[0]), B = asPointer(Ops[1]);
    if (!A || !B)
      return done(error("ptrdiff on non-pointers"));
    auto R = Mem.ptrDiff(E.Cty, *A, *B);
    if (!R)
      return done(UB(R.takeUB()));
    return done(Res(Value::integer(*R)));
  }
  case PtrOpKind::IntFromPtr: {
    auto P = asPointer(Ops[0]);
    if (!P)
      return done(error("intFromPtr on a non-pointer"));
    auto R = Mem.intFromPtr(E.Cty, *P);
    if (!R)
      return done(UB(R.takeUB()));
    return done(Res(Value::integer(*R)));
  }
  case PtrOpKind::PtrFromInt: {
    auto I = asInteger(Ops[0]);
    if (!I)
      return done(error("ptrFromInt on a non-integer"));
    auto R = Mem.ptrFromInt(*I);
    if (!R)
      return done(UB(R.takeUB()));
    return done(Res(Value::pointer(*R)));
  }
  case PtrOpKind::PtrValidForDeref: {
    auto P = asPointer(Ops[0]);
    if (!P)
      return done(error("ptrValidForDeref on a non-pointer"));
    return done(Res(Value::boolean(Mem.validForDeref(E.Cty, *P))));
  }
  case PtrOpKind::CastPtr: {
    auto P = asPointer(Ops[0]);
    if (!P)
      return done(error("cast_ptr on a non-pointer"));
    return done(Res(Value::pointer(Mem.castPointer(E.Cty, *P))));
  }
  }
  done(error("bad pointer operation"));
}

//===----------------------------------------------------------------------===//
// Pure leaves
//===----------------------------------------------------------------------===//

Evaluator::Res Evaluator::evalLeaf(const Expr &E) {
  if (E.ValueOnly) {
    Value Tmp;
    const Value *P = evalPure(E, Tmp);
    if (P == &Tmp)
      return Res(std::move(Tmp));
    if (P)
      return Res(*P);
  }
  if (!budget())
    return budgetError();
  DepthGuard Nest(EvalDepth, MaxEvalDepth);
  if (!Nest)
    return tooDeep();
  return leafBody(E);
}

Evaluator::Res Evaluator::leafBody(const Expr &E) {
  switch (E.K) {
  case ExprKind::Sym: {
    int S = E.Slot;
    if (S < 0 || !SlotBound[S])
      return error(fmt("unbound Core identifier '{0}'",
                       Prog.Syms.nameOf(E.Sym)));
    return Res(Slots[S]);
  }
  case ExprKind::Val:
    if (E.PoolIdx >= 0)
      return Res(Prog.ConstPool[E.PoolIdx]);
    return Res(E.value());
  case ExprKind::ImplConst:
    return error(fmt("unknown implementation constant '{0}'", E.str()));
  case ExprKind::Undef: {
    auto U = mem::undef(E.UB);
    U.Loc = E.Loc;
    return undef(std::move(U));
  }
  case ExprKind::ErrorE:
    return error(std::string(E.str()));
  case ExprKind::Skip:
    return Res();

  case ExprKind::Tuple: {
    Value T = Value::tuple(E.kids().size());
    for (size_t I = 0; I < E.kids().size(); ++I) {
      Res R = evalLeaf(*E.kids()[I]);
      if (!R.isValue())
        return R;
      T.elems()[I] = std::move(R.V);
    }
    return Res(std::move(T));
  }
  case ExprKind::SpecifiedE: {
    Res R = evalLeaf(*E.kids()[0]);
    if (!R.isValue())
      return R;
    return Res(Value::specified(std::move(R.V)));
  }
  case ExprKind::UnspecifiedE:
    return Res(Value::unspecified(E.Cty));

  case ExprKind::Case: {
    Value STmp;
    const Value *SO =
        E.kids()[0]->ValueOnly ? evalPure(*E.kids()[0], STmp) : nullptr;
    Res S;
    if (!SO) {
      S = evalLeaf(*E.kids()[0]);
      if (!S.isValue())
        return S;
      SO = &S.V;
    }
    for (const auto &[Pat, Body] : E.branches())
      if (matchPattern(Pat, *SO))
        return evalLeaf(*Body);
    return error("no matching Core case branch");
  }

  case ExprKind::Not: {
    Res R = evalLeaf(*E.kids()[0]);
    if (!R.isValue())
      return R;
    if (R.V.kind() != ValueKind::True && R.V.kind() != ValueKind::False)
      return error("not() on a non-boolean");
    return Res(Value::boolean(R.V.kind() == ValueKind::False));
  }

  case ExprKind::Binop: {
    Res A = evalLeaf(*E.kids()[0]);
    if (!A.isValue())
      return A;
    Res B = evalLeaf(*E.kids()[1]);
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
    Res R = evalLeaf(*E.kids()[0]);
    if (!R.isValue())
      return R;
    auto IV = asInteger(R.V);
    if (!IV)
      return error("conv_int on a non-integer");
    mem::IntegerValue OutV(env().convert(E.Cty.intKind(), IV->V), IV->Prov);
    if (IV->Cap && env().widthOf(E.Cty.intKind()) == 64)
      OutV.Cap = IV->Cap;
    return Res(Value::integer(OutV));
  }

  case ExprKind::FinishArith: {
    Res A = evalLeaf(*E.kids()[0]);
    if (!A.isValue())
      return A;
    Res B = evalLeaf(*E.kids()[1]);
    if (!B.isValue())
      return B;
    Res N = evalLeaf(*E.kids()[2]);
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
    Res R = evalLeaf(*E.kids()[0]);
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
    Res P = evalLeaf(*E.kids()[0]);
    if (!P.isValue())
      return P;
    Res I = evalLeaf(*E.kids()[1]);
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
    Res P = evalLeaf(*E.kids()[0]);
    if (!P.isValue())
      return P;
    auto PV = asPointer(P.V);
    if (!PV)
      return error("member_shift on a non-pointer");
    return Res(Value::pointer(Mem.memberShift(*PV, E.tag(), E.memberIdx())));
  }

  case ExprKind::PureLet: {
    // Both operands are pure: no actions to discard and no run signal.
    if (E.Pat->K == PatKind::Sym && E.kids()[0]->ValueOnly) {
      Value Tmp;
      if (const Value *P = evalPure(*E.kids()[0], Tmp)) {
        bindSlot(E.Pat->Slot, P == &Tmp ? std::move(Tmp) : Value(*P));
        return evalLeaf(*E.kids()[1]);
      }
    }
    Res R1 = evalLeaf(*E.kids()[0]);
    if (!R1.isValue())
      return R1;
    if (!matchPatternMove(*E.Pat, std::move(R1.V)))
      return error("let pattern mismatch");
    return evalLeaf(*E.kids()[1]);
  }
  case ExprKind::PureIf: {
    Res C = evalLeaf(*E.kids()[0]);
    if (!C.isValue())
      return C;
    if (C.V.kind() != ValueKind::True && C.V.kind() != ValueKind::False)
      return error("if on a non-boolean");
    return evalLeaf(*E.kids()[C.V.isTrue() ? 1 : 2]);
  }

  case ExprKind::Action:
    return evalAction(E);
  case ExprKind::LetAtomic: {
    // Evaluate the first action, bind, evaluate the second; the value is
    // the first action's (the loaded old value for postfix ++/--).
    Res A = evalLeaf(*E.kids()[0]);
    if (!A.isValue())
      return A;
    if (!matchPattern(*E.Pat, A.V))
      return error("let atomic pattern mismatch");
    Res B = evalLeaf(*E.kids()[1]);
    if (!B.isValue())
      return B;
    return A;
  }
  case ExprKind::Ret: {
    Res R = evalLeaf(*E.kids()[0]);
    if (!R.isValue())
      return R;
    R.K = Res::RetSig;
    return R;
  }
  case ExprKind::Run:
    Sig.RunLabel = E.Sym;
    Sig.RunScope = E.scope();
    return Res(Res::RunSig);
  case ExprKind::Wait: {
    Res R = evalLeaf(*E.kids()[0]);
    if (!R.isValue())
      return R;
    return Res(); // par joins implicitly
  }

  default:
    // A control construct in operand position: core::typeCheck refuses
    // every such program, so only an unchecked one gets here.
    return error(fmt("effectful Core construct in a pure context at {0}",
                     E.Loc.str()));
  }
}

//===----------------------------------------------------------------------===//
// Actions
//===----------------------------------------------------------------------===//

Evaluator::Res Evaluator::evalAction(const Expr &E) {
  switch (E.Act) {
  case ActionKind::Create: {
    mem::PointerValue P =
        Mem.allocateObject(E.Cty, std::string(E.str()), /*Static=*/false);
    if (P.isNull())
      return objectTooLarge(E.Cty, std::string(E.str()));
    Created.push_back(P);
    return Res(Value::pointer(P));
  }
  case ActionKind::Alloc: {
    Res S = evalLeaf(*E.kids()[0]);
    if (!S.isValue())
      return S;
    auto IV = asInteger(S.V);
    if (!IV)
      return error("alloc with non-integer size");
    return Res(Value::pointer(Mem.allocateRegion(IV->V)));
  }
  case ActionKind::Kill: {
    Value PTmp;
    const Value *PO =
        E.kids()[0]->ValueOnly ? evalPure(*E.kids()[0], PTmp) : nullptr;
    Res P;
    if (!PO) {
      P = evalLeaf(*E.kids()[0]);
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
    Res P = evalLeaf(*E.kids()[0]);
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
        E.kids()[0]->ValueOnly ? evalPure(*E.kids()[0], PTmp) : nullptr;
    Res P;
    if (!PO) {
      P = evalLeaf(*E.kids()[0]);
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
    auto R = loadValue(Mem, E.Cty, *PV);
    if (!R) {
      auto U = R.takeUB();
      U.Loc = E.Loc;
      return undef(std::move(U));
    }
    Acts.push_back(ActRec{PV->Addr, PV->Addr + env().sizeOf(E.Cty),
                          /*Write=*/false, E.NegPolarity, E.AtomicAccess,
                          E.Loc});
    return Res(std::move(*R));
  }
  case ActionKind::Store: {
    Value PTmp, VTmp;
    const Value *PO =
        E.kids()[0]->ValueOnly ? evalPure(*E.kids()[0], PTmp) : nullptr;
    Res P;
    if (!PO) {
      P = evalLeaf(*E.kids()[0]);
      if (!P.isValue())
        return P;
      PO = &P.V;
    }
    const Value *VO =
        E.kids()[1]->ValueOnly ? evalPure(*E.kids()[1], VTmp) : nullptr;
    Res V;
    if (!VO) {
      V = evalLeaf(*E.kids()[1]);
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
    if (auto R = storeValue(Mem, E.Cty, *PV, *VO); !R) {
      auto U = R.takeUB();
      U.Loc = E.Loc;
      return undef(std::move(U));
    }
    Acts.push_back(ActRec{PV->Addr, PV->Addr + env().sizeOf(E.Cty),
                          /*Write=*/true, E.NegPolarity, E.AtomicAccess,
                          E.Loc});
    return Res();
  }
  }
  return error("bad memory action");
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
    return Value::boolean(env().inRange(Args[0]->cty().intKind(), IV->V));
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
    unsigned W = env().widthOf(K);
    UInt128 Mask = W >= 128 ? ~UInt128(0) : (UInt128(1) << W) - 1;
    UInt128 X = static_cast<UInt128>(A->V) & Mask;
    UInt128 Y = static_cast<UInt128>(B->V) & Mask;
    UInt128 R = F == PureFn::BwAnd   ? (X & Y)
                : F == PureFn::BwOr ? (X | Y)
                                     : (X ^ Y);
    return Value::integer(env().convert(K, static_cast<Int128>(R)));
  }
  case PureFn::BwCompl: {
    if (N != 2 || Args[0]->kind() != ValueKind::Ctype)
      return std::nullopt;
    auto A = asInteger(*Args[1]);
    if (!A)
      return std::nullopt;
    ail::IntKind K = Args[0]->cty().intKind();
    unsigned W = env().widthOf(K);
    UInt128 Mask = W >= 128 ? ~UInt128(0) : (UInt128(1) << W) - 1;
    UInt128 R = (~static_cast<UInt128>(A->V)) & Mask;
    return Value::integer(env().convert(K, static_cast<Int128>(R)));
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
    return E.PoolIdx >= 0 ? &Prog.ConstPool[E.PoolIdx] : &E.value();
  case ExprKind::Skip:
    Tmp = Value::unit();
    return &Tmp;
  case ExprKind::UnspecifiedE:
    Tmp = Value::unspecified(E.Cty);
    return &Tmp;
  case ExprKind::Tuple: {
    Value T = Value::tuple(E.kids().size());
    for (size_t I = 0; I < E.kids().size(); ++I) {
      Value KT;
      const Value *KV = evalPure(*E.kids()[I], KT);
      if (!KV)
        return nullptr;
      T.elems()[I] = KV == &KT ? std::move(KT) : *KV;
    }
    Tmp = std::move(T);
    return &Tmp;
  }
  case ExprKind::SpecifiedE: {
    Value KT;
    const Value *KV = evalPure(*E.kids()[0], KT);
    if (!KV)
      return nullptr;
    Tmp = Value::specified(KV == &KT ? std::move(KT) : *KV);
    return &Tmp;
  }
  case ExprKind::Not: {
    Value KT;
    const Value *KV = evalPure(*E.kids()[0], KT);
    if (!KV)
      return nullptr;
    if (KV->kind() != ValueKind::True && KV->kind() != ValueKind::False)
      return nullptr;
    Tmp = Value::boolean(KV->kind() == ValueKind::False);
    return &Tmp;
  }
  case ExprKind::Binop: {
    Value TA, TB;
    const Value *A = evalPure(*E.kids()[0], TA);
    if (!A)
      return nullptr;
    const Value *B = evalPure(*E.kids()[1], TB);
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
    const Value *KV = evalPure(*E.kids()[0], KT);
    if (!KV)
      return nullptr;
    auto IV = asInteger(*KV);
    if (!IV)
      return nullptr;
    mem::IntegerValue OutV(env().convert(E.Cty.intKind(), IV->V), IV->Prov);
    if (IV->Cap && env().widthOf(E.Cty.intKind()) == 64)
      OutV.Cap = IV->Cap;
    Tmp = Value::integer(OutV);
    return &Tmp;
  }
  case ExprKind::FinishArith: {
    Value TA, TB, TN;
    const Value *A = evalPure(*E.kids()[0], TA);
    if (!A)
      return nullptr;
    const Value *B = evalPure(*E.kids()[1], TB);
    if (!B)
      return nullptr;
    const Value *NV = evalPure(*E.kids()[2], TN);
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
    const Value *KV = evalPure(*E.kids()[0], KT);
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
    const Value *C = evalPure(*E.kids()[0], CT);
    if (!C)
      return nullptr;
    if (C->kind() != ValueKind::True && C->kind() != ValueKind::False)
      return nullptr;
    return evalPure(*E.kids()[C->isTrue() ? 1 : 2], Tmp);
  }
  case ExprKind::MemberShiftE: {
    Value KT;
    const Value *KV = evalPure(*E.kids()[0], KT);
    if (!KV)
      return nullptr;
    auto PV = asPointer(*KV);
    if (!PV)
      return nullptr;
    Tmp = Value::pointer(Mem.memberShift(*PV, E.tag(), E.memberIdx()));
    return &Tmp;
  }
  case ExprKind::PureCall: {
    size_t N = E.kids().size();
    if (N > 4 || E.Pure == PureFn::None)
      return nullptr; // lowering only marks interned calls, but be safe
    Value ArgT[4];
    const Value *Args[4] = {&ArgT[0], &ArgT[1], &ArgT[2], &ArgT[3]};
    for (size_t I = 0; I < N; ++I) {
      Args[I] = evalPure(*E.kids()[I], ArgT[I]);
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
  size_t N = E.kids().size();
  Value Stk[4];
  std::vector<Value> Heap;
  Value *Args = Stk;
  if (N > 4) {
    Heap.resize(N);
    Args = Heap.data();
  }
  for (size_t I = 0; I < N; ++I) {
    Res R = evalLeaf(*E.kids()[I]);
    if (!R.isValue())
      return R;
    Args[I] = std::move(R.V);
  }
  // core::lower interned the target: None names no builtin.
  const Value *ArgP[4] = {&Args[0], &Args[1], &Args[2], &Args[3]};
  if (auto R = tryPureFn(E.Pure, ArgP, N))
    return Res(std::move(*R));

  // tryPureFn declined, so one of its (exactly mirrored) acceptance checks
  // failed; replay them to produce the historical diagnostic.
  switch (E.Pure) {
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
  return error(fmt("unknown pure builtin '{0}'", E.str()));
}
