//===-- exec/Evaluator.h - Core operational semantics -----------*- C++ -*-===//
///
/// \file
/// The Core dynamics (§5.2, Fig. 1 "Core operational semantics (3100)"):
/// evaluates a Core program against a memory object model and a scheduler.
/// Nondeterminism (unseq interleaving order, Core nd, memory-model
/// latitude) is resolved through the Scheduler, so the same evaluator
/// serves the exhaustive and pseudorandom drivers.
///
/// Unsequenced races are detected structurally, via action footprints: each
/// `unseq` checks conflicts across its branches, and `let weak` checks its
/// first operand's *negative* (side-effect) actions against the second
/// (§5.6 polarities). Since any cross-branch conflicting pair is itself the
/// UB "unsequenced race", exploring branch-order permutations (rather than
/// action-level interleavings) preserves the observable-outcome set of
/// race-free programs — see DESIGN.md.
///
/// Control: save/run (§5.8) is implemented with jump signals that unwind to
/// the Save node (backward jumps re-enter; forward jumps route through the
/// continuation with a "jump-mode" evaluation), performing the create/kill
/// scope difference the paper's dynamics prescribes for goto.
///
/// The machine: like the paper's Core dynamics, a small-step machine over
/// an explicit continuation. One loop (drive) runs steps over a stack of
/// frames, one per Core control construct in evaluation (the lets, if,
/// case, unseq and par, indet and bound, nd, save, a pending Q2 pointer
/// comparison) and per procedure call; pure subtrees, memory actions and
/// return/run/wait stay a recursive leaf (evalLeaf), since core::typeCheck
/// refuses effects in pure contexts and so no leaf holds a choice point
/// or a call. Every choice is made between steps, so the whole state is a
/// value there: the exhaustive explorer copies the Evaluator inside
/// Scheduler::choose and resumes the copy later, on any thread, instead
/// of replaying the path from main.
///
//===----------------------------------------------------------------------===//
#ifndef CERB_EXEC_EVALUATOR_H
#define CERB_EXEC_EVALUATOR_H

#include "core/Core.h"
#include "exec/Outcome.h"
#include "mem/Memory.h"
#include "support/Scheduler.h"

#include <chrono>
#include <string>
#include <vector>

namespace cerb::exec {

/// Nesting depth of evaluation: the Core subexpressions in evaluation plus
/// the bodies of the calls in progress (sum(390) of
/// tests/test_robustness.cpp, a loop and two ifs per call, nests 12,111
/// levels). Past it the path ends as an Error outcome. It counts depth,
/// not bytes, so no outcome depends on the build or on `ulimit -s`. The
/// levels are those of the recursive evaluator the machine replaced, so
/// the limit still bounds the pure leaves' host recursion: sized to
/// support::ThreadPool::StackBytes, where a recursive level took about
/// 0.9 KB of stack in an optimised GCC 12 build and 9.7 KB in an
/// unoptimised ASan one.
inline constexpr unsigned MaxEvalDepth = 20'000;

struct ExecLimits {
  uint64_t MaxSteps = 20'000'000; ///< evaluation step budget
  unsigned MaxCallDepth = 400;
  /// Absolute wall-clock deadline; the epoch default means "none". Shared
  /// across all paths of one oracle job, so the whole job (not each path)
  /// is bounded. Checked every 8192 steps to keep the hot loop cheap.
  std::chrono::steady_clock::time_point Deadline{};

  bool hasDeadline() const {
    return Deadline != std::chrono::steady_clock::time_point{};
  }
  bool deadlinePassed() const {
    return hasDeadline() && std::chrono::steady_clock::now() >= Deadline;
  }
};

/// Counters of noteworthy dynamic events (consumed by the §3 analysis-tool
/// profiles, which report on events a lenient semantics does not flag).
struct ExecEvents {
  uint64_t UnspecifiedIntoLibrary = 0; ///< unspecified value reached printf&c
  uint64_t UnspecifiedCompared = 0;    ///< memcmp touched unspecified bytes
  uint64_t OutOfBoundsTransient = 0;   ///< OOB pointer constructed (Q31)
  uint64_t ProvenanceEqConsulted = 0;  ///< Q2 nondet choice points seen
};

class Evaluator {
public:
  Evaluator(const core::CoreProgram &Prog, Scheduler &Sched,
            mem::MemoryPolicy Policy, ExecLimits Limits = ExecLimits());
  /// A copy of \p Other's whole state (frames, slots, undo log, action
  /// stack, memory, capabilities, output, step and depth counters) that
  /// asks \p Sched from here on. Taken inside Other's Scheduler::choose,
  /// the copy stands at that choice point: its run() asks \p Sched the
  /// same choice first and goes on from there.
  Evaluator(const Evaluator &Other, Scheduler &Sched);
  ~Evaluator();
  Evaluator(const Evaluator &) = delete;
  Evaluator &operator=(const Evaluator &) = delete;

  /// Runs the whole program: creates static objects, evaluates their
  /// initialisers in declaration order, then calls main. The program must
  /// have been through core::lower; an unlowered one is an Error outcome.
  /// A copy runs from its choice point to the end of its path.
  Outcome run();

  /// About the bytes a copy of this machine takes, memory included.
  uint64_t stateBytes() const;

  const mem::Memory &memory() const { return Mem; }
  const ExecEvents &events() const { return Events; }
  uint64_t steps() const { return Steps; }

private:
  /// Evaluation result: a value or the kind of an escaping signal. The
  /// signal's payload is in Sig: only one signal is in flight at a time.
  struct Res {
    enum Kind : uint8_t {
      Val,
      RunSig,  ///< run label (goto / break / continue / loop)
      RetSig,  ///< procedure return
      UndefSig,///< undefined behaviour
      ExitSig, ///< exit() / abort() / assert failure
      ErrSig,  ///< dynamic error (ill-formed Core) or step limit
    } K = Val;
    core::Value V;

    Res() = default;
    explicit Res(core::Value V) : V(std::move(V)) {}
    explicit Res(Kind K) : K(K) {}
    bool isValue() const { return K == Val; }
  };
  /// The payload of the signal in flight.
  struct Signal {
    ail::Symbol RunLabel;
    /// The Run node's scope annotation (it lives in the program).
    std::span<const core::ScopeObject> RunScope;
    mem::UndefinedBehaviour UB{mem::UBKind::ExceptionalCondition, "", {}};
    OutcomeKind ExitKind = OutcomeKind::Exit;
    int ExitCode = 0;
    std::string Err;
    bool StepLimitHit = false;
    bool DeadlineHit = false;
  };

  /// One recorded memory action for the race check.
  struct ActRec {
    uint64_t Lo, Hi;
    bool Write;
    bool Neg;    ///< negative polarity (§5.6)
    bool Atomic; ///< seq_cst access: atomic/atomic pairs never race
    SourceLoc Loc;
  };
  struct ActRange {
    size_t Begin, End;
  };

  /// Undo records are slim: the displaced Value lives in UndoVals only
  /// when the slot was actually bound (ValIdx >= 0). First binds in a
  /// frame overwhelmingly hit unbound slots, so the common record is
  /// eight bytes with no Value traffic at all.
  struct UndoRec {
    int Slot;
    int ValIdx; ///< index into UndoVals, or -1 = slot was unbound
  };
  struct UndoFrame {
    size_t Base;     ///< UndoLog size at frame entry
    size_t ValsBase; ///< UndoVals size at frame entry
    uint64_t Epoch;  ///< this frame's stamp value
  };

  /// What the machine does next.
  enum class Mode : uint8_t {
    Start,  ///< run() has not begun
    Eval,   ///< evaluate *Cur; its result goes to the top frame
    Jump,   ///< route control into *Cur to `save JumpLabel` (§5.8)
    Return, ///< deliver Result to the top frame
    Choose, ///< ask the scheduler; the choice goes to the top frame
    Done,   ///< the path ended with Result
  };

  /// A continuation of the explicit stack: a Core control construct (or
  /// procedure call) whose operand is in evaluation, and what to do with
  /// that operand's result or with a choice. Pure subtrees get no frame:
  /// core::typeCheck refuses every effect in a pure context, so they hold
  /// no choice point and no call, and evalLeaf runs them recursively.
  struct Frame {
    enum Kind : uint8_t {
      Program,  ///< global initialisers in turn, then main
      Call,     ///< a procedure body
      Let,      ///< let, let weak, let strong
      LetJump,  ///< a jump routed into a let's first operand
      If,       ///< the taken branch of an if, or the one a jump enters
      Case,     ///< the matched branch of a case
      Save,     ///< a save body, re-entered on a run of its label
      SaveJump, ///< a jump routed through another save's body
      Unseq,    ///< unseq and par branches
      Nd,       ///< awaits an nd choice
      PtrEq,    ///< awaits a Q2 ptr-eq-provenance choice
      Pass,     ///< passes its operand's result up (indet, bound, a
                ///< picked nd branch, a routed jump)
    } K;
    bool Counted;      ///< holds one MaxEvalDepth level
    uint8_t Phase = 0; ///< kind-specific
    uint32_t Idx = 0;  ///< kind-specific: branch, global or callee
    uint32_t Aux = 0;  ///< Unseq: Pending size at entry
    const core::Expr *E;
    size_t A = 0, B = 0; ///< kind-specific action-stack marks
    core::Value V;       ///< Unseq: the result being built

    Frame(Kind K, const core::Expr *E, bool Counted)
        : K(K), Counted(Counted), E(E) {}
  };

  const core::CoreProgram &Prog;
  Scheduler *Sched;
  mem::Memory Mem;
  ExecLimits Limits;
  ExecEvents Events;

  /// The environment: core::lower resolves every binding to a dense slot
  /// index, so it is a flat Value array plus a bound bitmap. Recursion
  /// must not clobber the caller's bindings, so each call frame logs the
  /// value a slot had at frame entry the first time the frame rebinds it
  /// (frame-epoch stamps find that first write). These, like every
  /// vector of the machine state below, are leased from the constructing
  /// thread's EvalArena and returned to the destroying thread's
  /// (forEachLeased).
  std::vector<core::Value> Slots;  ///< slot -> current value
  std::vector<uint8_t> SlotBound;  ///< slot currently bound?
  /// Last frame epoch that pushed an undo record for the slot. Epochs are
  /// never reused, so a stale stamp (from a popped frame) simply triggers
  /// a benign duplicate record; reverse-order restoration applies the
  /// oldest (true frame-entry) value last.
  std::vector<uint64_t> SlotStamp;
  std::vector<UndoRec> UndoLog;
  std::vector<core::Value> UndoVals;
  std::vector<UndoFrame> UndoFrames;
  uint64_t EpochCounter = 0;
  uint64_t FrameEpoch = 0; ///< current frame's epoch (0 = top level)
  /// The CHERI capabilities this evaluation's values reference.
  core::CapTable Caps;
  std::string Out;
  uint64_t Steps = 0;
  unsigned CallDepth = 0;
  /// Evaluation levels in progress (MaxEvalDepth): counted frames plus
  /// the recursion of the pure leaf in progress.
  unsigned EvalDepth = 0;
  bool DeadlineHit = false;

  /// The action stack: every load and store appends its record here, and a
  /// footprint is an index range of it. The ranges nest like the
  /// evaluation does, so a let or unseq reads its operands' footprints in
  /// place, "merging" them into the enclosing footprint is leaving them
  /// where they are, and a sequence point or procedure return discards its
  /// actions by truncating to the size it started at.
  std::vector<ActRec> Acts;
  Signal Sig;

  /// The explicit stack and the side stacks its frames index. A fresh
  /// machine reserves room for a few calls' worth of frames up front.
  static constexpr size_t InitialFrames = 16;
  std::vector<Frame> Stack;
  std::vector<ActRange> BranchRanges; ///< N footprints per Unseq frame
  std::vector<uint32_t> Pending;      ///< Unseq branches not yet run
  /// Objects created in each call (or global initialiser) in progress,
  /// killed when it returns (§5.7); a frame keeps its base index.
  std::vector<mem::PointerValue> Created;
  Mode M = Mode::Start;
  const core::Expr *Cur = nullptr; ///< Mode::Eval and Mode::Jump
  Res Result;                      ///< Mode::Return and Mode::Done
  ail::Symbol JumpLabel;           ///< Mode::Jump
  std::span<const core::ScopeObject> JumpScope;
  unsigned ChoiceN = 0;            ///< Mode::Choose
  const char *ChoiceTag = nullptr;
  unsigned Chosen = 0; ///< the choice delivered to the top frame

  /// Scratch buffers, not part of the state a copy takes.
  std::vector<ActRec> ActScratch;    ///< syntacticOrder
  std::vector<core::Value> CallArgs; ///< arguments of the call entered

  /// Applies \p F to every buffer leased from EvalArena.
  template <class Fn> void forEachLeased(Fn F) {
    F(Slots);
    F(SlotBound);
    F(SlotStamp);
    F(UndoLog);
    F(UndoVals);
    F(UndoFrames);
    F(Acts);
    F(Stack);
    F(BranchRanges);
    F(Pending);
    F(Created);
    F(ActScratch);
    F(CallArgs);
  }

  const ail::ImplEnv &env() const { return Mem.env(); }

  Res undef(mem::UndefinedBehaviour U) {
    Sig.UB = std::move(U);
    return Res(Res::UndefSig);
  }
  Res error(std::string Msg) {
    Sig.Err = std::move(Msg);
    Sig.StepLimitHit = Sig.DeadlineHit = false;
    return Res(Res::ErrSig);
  }
  /// The step-budget or deadline error (budget() returned false).
  Res budgetError() {
    Res R = error(DeadlineHit ? "wall-clock deadline exceeded"
                              : "step limit exceeded");
    Sig.StepLimitHit = !DeadlineHit;
    Sig.DeadlineHit = DeadlineHit;
    return R;
  }
  /// The path's end past MaxEvalDepth.
  [[gnu::cold]] Res tooDeep();
  /// The path's end when a declared object does not fit the allocation
  /// budget (mem::Memory::MaxAllocatedBytes).
  Res objectTooLarge(const ail::CType &Ty, const std::string &Name);
  Res exitSig(OutcomeKind Kind, int Code, std::string Msg = "") {
    Sig.ExitKind = Kind;
    Sig.ExitCode = Code;
    Sig.Err = std::move(Msg);
    return Res(Res::ExitSig);
  }

  Outcome runImpl();
  Outcome finish(Res R);

  //===--- The machine ---------------------------------------------------===//

  /// Runs steps until the path ends. Every choice is made here, between
  /// steps, so a copy taken inside Scheduler::choose is a whole state.
  void drive();
  /// One evaluation entry: a pure leaf runs to its value, a control
  /// construct pushes its frame.
  void evalStep(const core::Expr &E);
  /// One jump-mode entry: routes control towards `save JumpLabel` inside
  /// \p E without evaluating the skipped prefix.
  void jumpStep(const core::Expr &E);
  /// Delivers Result (or Chosen) to the top frame.
  void resume();

  /// Steps into operand \p E of the top frame. A leaf (a kind evalStep
  /// gives no frame) is evaluated right here into Result, since evalStep
  /// would only run evalLeaf on it.
  void evalNext(const core::Expr &E) {
    switch (E.K) {
    case core::ExprKind::ELet:
    case core::ExprKind::LetWeak:
    case core::ExprKind::LetStrong:
    case core::ExprKind::EIf:
    case core::ExprKind::ECase:
    case core::ExprKind::Unseq:
    case core::ExprKind::Par:
    case core::ExprKind::Indet:
    case core::ExprKind::Bound:
    case core::ExprKind::Nd:
    case core::ExprKind::Save:
    case core::ExprKind::PtrOp:
    case core::ExprKind::ProcCall:
    case core::ExprKind::CallPtr:
      Cur = &E;
      M = Mode::Eval;
      return;
    default:
      Result = evalLeaf(E);
      M = Mode::Return;
    }
  }
  /// evalNext, and whether \p E already returned: the caller may then go
  /// on with the top frame without a round trip through drive().
  bool operand(const core::Expr &E) {
    evalNext(E);
    return M == Mode::Return;
  }
  void jumpNext(const core::Expr &E, ail::Symbol Label,
                std::span<const core::ScopeObject> Scope) {
    Cur = &E;
    JumpLabel = Label;
    JumpScope = Scope;
    M = Mode::Jump;
  }
  /// A jump out of a finished operand: to the save its run signal names.
  void jumpToRunLabel(const core::Expr &E) {
    jumpNext(E, Sig.RunLabel, Sig.RunScope);
  }
  void choose(unsigned N, const char *Tag) {
    ChoiceN = N;
    ChoiceTag = Tag;
    M = Mode::Choose;
  }
  void ret(Res &&R) {
    Result = std::move(R);
    M = Mode::Return;
  }
  void retValue(core::Value &&V) {
    Result.K = Res::Val;
    Result.V = std::move(V);
    M = Mode::Return;
  }
  void retValue(const core::Value &V) {
    Result.K = Res::Val;
    Result.V = V;
    M = Mode::Return;
  }
  /// The evaluation level evalStep counted ends without a frame.
  void done(Res &&R) {
    --EvalDepth;
    ret(std::move(R));
  }
  void push(Frame::Kind K, const core::Expr &E, bool Counted) {
    Stack.emplace_back(K, &E, Counted);
  }
  void pop() {
    if (Stack.back().Counted)
      --EvalDepth;
    Stack.pop_back();
  }

  void resumeProgram(Frame &F);
  void enterLet(const core::Expr &E);
  void resumeLet(Frame &F);
  void resumeLetJump(Frame &F);
  void enterIf(const core::Expr &E);
  void enterCase(const core::Expr &E);
  void resumeSave(Frame &F);
  void enterUnseq(const core::Expr &E);
  /// Runs the next effect-free branch in syntactic order, or moves on to
  /// the scheduled ones.
  void unseqScan(Frame &F, size_t From);
  /// Picks the next scheduled branch, asking the scheduler when more than
  /// one is left, or finishes the unseq.
  void unseqPick(Frame &F);
  /// Starts the scheduled branch at \p PickIdx of the frame's Pending
  /// list; true if it already ran and its result was taken.
  bool unseqRun(Frame &F, unsigned PickIdx);
  /// Takes the running branch's result from Result; false if it ended the
  /// unseq (a signal).
  bool unseqTake(Frame &F);
  void popUnseq(Frame &F);
  void enterPtrOp(const core::Expr &E);
  /// Enters procedure \p S with CallArgs. \p Counted: the call holds the
  /// evaluation level of its pcall.
  void enterCall(ail::Symbol S, SourceLoc Loc, bool Counted);
  void resumeCall(Frame &F);

  /// Does \p E syntactically contain `save Label`?
  bool containsSave(const core::Expr &E, ail::Symbol Label) const;
  /// Applies the goto scope difference (§5.8): kills objects live at the
  /// run point but not the save point, creates the converse.
  Res applyScopeDiff(std::span<const core::ScopeObject> RunScope,
                     std::span<const core::ScopeObject> SaveScope);
  /// Reorders the footprints of branches evaluated in a scheduler-chosen
  /// order into syntactic order, in place on the action stack from
  /// \p Base: \p Ranges[I] is branch I's range, rewritten to its new
  /// position (unevaluated branches hold empty ranges).
  void syntacticOrder(size_t Base, ActRange *Ranges, size_t N);

  //===--- Pure leaves -----------------------------------------------------===//

  /// Evaluates a subtree without frames: a pure expression, a memory
  /// action, or a return/run/wait with pure operands. One evaluation
  /// level per node, like evalStep.
  Res evalLeaf(const core::Expr &E);
  /// evalLeaf past its fast path, budget and depth checks.
  Res leafBody(const core::Expr &E);
  Res evalAction(const core::Expr &E);
  Res evalPureCall(const core::Expr &E);
  /// Res-free fast path for subtrees lowering marked ValueOnly: no Res,
  /// action-stack, or signal plumbing, and operands are read in place — a
  /// Sym returns &Slots[slot], a pooled constant returns &ConstPool[i]
  /// (sound because the subtree cannot rebind slots).
  /// Computed results land in \p Tmp and &Tmp is returned. nullptr defers
  /// to the general evaluator — safe to re-run because ValueOnly subtrees
  /// are effect-free.
  const core::Value *evalPure(const core::Expr &E, core::Value &Tmp);
  /// Computes a known pure builtin when the operands are well-formed;
  /// nullopt on any shape the general path diagnoses. \p Args must have
  /// at least max(N, 4) valid pointers (callers pad with defaults).
  std::optional<core::Value> tryPureFn(core::PureFn F,
                                       const core::Value *const *Args,
                                       size_t N);

  Res callBuiltin(ail::Builtin B, std::vector<core::Value> &Args,
                  SourceLoc Loc);
  Res doPrintf(std::vector<core::Value> &Args, SourceLoc Loc);

  /// Binds a slot, recording its previous value in the innermost undo
  /// frame (first write per frame only).
  void bindSlot(int Slot, core::Value &&V);
  /// \p Inner matches the value wrapped by \p V's Specified flag.
  bool matchPattern(const core::Pattern &P, const core::Value &V,
                    bool Inner = false);
  /// matchPattern that consumes \p V: bound sub-values are moved into
  /// their slots instead of deep-copied. Accept/reject decisions mirror
  /// matchPattern exactly; a rejected match may leave \p V partially
  /// consumed, so callers must not read it afterwards (the copying version
  /// has the same partial-bind caveat).
  bool matchPatternMove(const core::Pattern &P, core::Value &&V);
  /// Checks two footprints for a conflicting (same-location, >=1 write)
  /// pair; returns the UB if found. OnlyNegLeft restricts the left side to
  /// negative-polarity actions (let weak).
  std::optional<mem::UndefinedBehaviour>
  conflict(ActRange A, ActRange B, bool OnlyNegLeft) const;

  /// Extracts a pointer from a (possibly loaded) value.
  std::optional<mem::PointerValue> asPointer(const core::Value &V) const;
  std::optional<mem::IntegerValue> asInteger(const core::Value &V) const;

  bool budget() {
    if (++Steps > Limits.MaxSteps)
      return false;
    if ((Steps & 0x1FFF) == 0 && Limits.deadlinePassed()) {
      DeadlineHit = true;
      return false;
    }
    return true;
  }
};

} // namespace cerb::exec

#endif // CERB_EXEC_EVALUATOR_H
