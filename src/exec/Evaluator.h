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
//===----------------------------------------------------------------------===//
#ifndef CERB_EXEC_EVALUATOR_H
#define CERB_EXEC_EVALUATOR_H

#include "core/Core.h"
#include "exec/EvalArena.h"
#include "exec/Outcome.h"
#include "mem/Memory.h"
#include "support/Scheduler.h"

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace cerb::exec {

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
  ~Evaluator();
  Evaluator(const Evaluator &) = delete;
  Evaluator &operator=(const Evaluator &) = delete;

  /// Runs the whole program: creates static objects, evaluates their
  /// initialisers in declaration order, then calls main.
  Outcome run();

  const mem::Memory &memory() const { return Mem; }
  const ExecEvents &events() const { return Events; }
  uint64_t steps() const { return Steps; }

private:
  Outcome runImpl();

  const core::CoreProgram &Prog;
  ail::ImplEnv Env;
  Scheduler &Sched;
  mem::Memory Mem;
  ExecLimits Limits;
  ExecEvents Events;

  std::map<unsigned, core::Value> Bindings;
  /// Per-call-frame undo log: the value each rebound symbol had at frame
  /// entry (recursion must not clobber the caller's bindings).
  std::vector<std::map<unsigned, std::optional<core::Value>>> UndoStack;

  /// Slot-environment fast path, selected when the program was lowered
  /// (core::lower resolves every binding to a dense slot index): the
  /// environment is a flat Value array plus a bound bitmap, and the
  /// per-call undo discipline is a flat log with frame-epoch stamps for
  /// first-write-per-frame deduplication. CERB_NO_LOWERING=1 compiles
  /// keep Prog.Lowered false and run the map path above unchanged.
  const bool UseSlots;
  EvalArena &Arena;                ///< thread-local scratch pool
  std::vector<core::Value> Slots;  ///< slot -> current value
  std::vector<uint8_t> SlotBound;  ///< slot currently bound?
  /// Last frame epoch that pushed an undo record for the slot. Epochs are
  /// never reused, so a stale stamp (from a popped frame) simply triggers
  /// a benign duplicate record; reverse-order restoration applies the
  /// oldest (true frame-entry) value last.
  std::vector<uint64_t> SlotStamp;
  /// Undo records are slim: the displaced Value lives in UndoVals only
  /// when the slot was actually bound (ValIdx >= 0). First binds in a
  /// frame overwhelmingly hit unbound slots, so the common record is
  /// eight bytes with no Value traffic at all.
  struct UndoRec {
    int Slot;
    int ValIdx; ///< index into UndoVals, or -1 = slot was unbound
  };
  std::vector<UndoRec> UndoLog;
  std::vector<core::Value> UndoVals;
  struct UndoFrame {
    size_t Base;     ///< UndoLog size at frame entry
    size_t ValsBase; ///< UndoVals size at frame entry
    uint64_t Epoch;  ///< this frame's stamp value
  };
  std::vector<UndoFrame> UndoFrames;
  uint64_t EpochCounter = 0;
  uint64_t FrameEpoch = 0; ///< current frame's epoch (0 = top level)
  /// The CHERI capabilities this evaluation's values reference.
  core::CapTable Caps;
  std::string Out;
  uint64_t Steps = 0;
  unsigned CallDepth = 0;

  /// One recorded memory action for the race check.
  struct ActRec {
    uint64_t Lo, Hi;
    bool Write;
    bool Neg;    ///< negative polarity (§5.6)
    bool Atomic; ///< seq_cst access: atomic/atomic pairs never race
    SourceLoc Loc;
  };
  /// The action stack: every load and store appends its record here, and a
  /// footprint is an index range of it. The ranges nest like the
  /// evaluation does, so a let or unseq reads its operands' footprints in
  /// place, "merging" them into the enclosing footprint is leaving them
  /// where they are, and a sequence point or procedure return discards its
  /// actions by truncating to the size it started at.
  std::vector<ActRec> Acts;
  /// Scratch for putting unseq branch footprints back in syntactic order.
  std::vector<ActRec> ActScratch;
  struct ActRange {
    size_t Begin, End;
  };

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
    const std::vector<core::ScopeObject> *RunScope = nullptr;
    mem::UndefinedBehaviour UB{mem::UBKind::ExceptionalCondition, "", {}};
    OutcomeKind ExitKind = OutcomeKind::Exit;
    int ExitCode = 0;
    std::string Err;
    bool StepLimitHit = false;
    bool DeadlineHit = false;
  } Sig;

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
  Res exitSig(OutcomeKind Kind, int Code, std::string Msg = "") {
    Sig.ExitKind = Kind;
    Sig.ExitCode = Code;
    Sig.Err = std::move(Msg);
    return Res(Res::ExitSig);
  }

  struct Frame {
    std::vector<mem::PointerValue> Created;
  };
  std::vector<Frame> Frames;

  Res eval(const core::Expr &E);
  /// Jump-mode evaluation: route control to the Save node for \p Label
  /// inside \p E without evaluating the skipped prefix.
  Res evalJump(const core::Expr &E, ail::Symbol Label,
               const std::vector<core::ScopeObject> &RunScope);
  /// Does \p E syntactically contain `save Label`?
  bool containsSave(const core::Expr &E, ail::Symbol Label) const;
  /// Enters a Save: runs its body, re-entering on matching run signals.
  Res evalSaveBody(const core::Expr &Save, bool ApplyDiffFirst,
                   const std::vector<core::ScopeObject> *RunScope);
  /// Applies the goto scope difference (§5.8): kills objects live at the
  /// run point but not the save point, creates the converse.
  Res applyScopeDiff(const std::vector<core::ScopeObject> &RunScope,
                     const std::vector<core::ScopeObject> &SaveScope);

  Res evalLet(const core::Expr &E);
  Res evalUnseq(const core::Expr &E);
  Res evalAction(const core::Expr &E);
  Res evalPtrOp(const core::Expr &E);
  Res evalPureCall(const core::Expr &E);
  /// Res-free fast path for subtrees lowering marked ValueOnly (slot path
  /// only): no Res, action-stack, or signal plumbing, and operands are
  /// read in place — a Sym returns &Slots[slot], a pooled constant returns
  /// &ConstPool[i] (sound because the subtree cannot rebind slots).
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
  Res evalPar(const core::Expr &E);
  /// Reorders the footprints of branches evaluated in a scheduler-chosen
  /// order into syntactic order, in place on the action stack from
  /// \p Base: \p Ranges[I] is branch I's range, rewritten to its new
  /// position (unevaluated branches hold empty ranges).
  void syntacticOrder(size_t Base, ActRange *Ranges, size_t N);

  Res callProc(ail::Symbol S, std::vector<core::Value> Args, SourceLoc Loc);
  Res callBuiltin(ail::Builtin B, std::vector<core::Value> &Args,
                  SourceLoc Loc);
  Res doPrintf(std::vector<core::Value> &Args, SourceLoc Loc);

  /// Binds a symbol, recording the previous value in the innermost undo
  /// frame (first write per frame only).
  void bind(unsigned Id, core::Value &&V);
  /// Slot-path bind with the same per-frame undo discipline.
  void bindSlot(int Slot, core::Value &&V);
  /// \p Inner matches the value wrapped by \p V's Specified flag.
  bool matchPattern(const core::Pattern &P, const core::Value &V,
                    bool Inner = false);
  /// Slot-path matchPattern that consumes \p V: bound sub-values are
  /// moved into their slots instead of deep-copied. Accept/reject
  /// decisions mirror matchPattern exactly; a rejected match may leave
  /// \p V partially consumed, so callers must not read it afterwards
  /// (the copying version has the same partial-bind caveat).
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
  bool DeadlineHit = false;
};

} // namespace cerb::exec

#endif // CERB_EXEC_EVALUATOR_H
