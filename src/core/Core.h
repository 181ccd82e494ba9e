//===-- core/Core.h - The Core calculus (paper Fig. 2) ----------*- C++ -*-===//
///
/// \file
/// Core is "a typed call-by-value calculus with constructs to model certain
/// aspects of the C dynamic semantics" (§5.2): first-order functions,
/// lists, tuples, booleans, mathematical integers, C pointer values, C
/// function designators, and first-class C type expressions (ctype). The
/// novel sequencing forms (§5.6) — unseq, let weak, let strong, let atomic,
/// indet/bound, nd — express the C evaluation order; save/run give a
/// structured goto (§5.8); create/kill/load/store actions factor all memory
/// interaction through the memory object model (§5.7).
///
/// We use one expression datatype for both the pure (`pe`) and effectful
/// (`e`) layers of Fig. 2; the purity discipline is enforced by
/// core::typeCheck (pure vs effectful base types).
///
//===----------------------------------------------------------------------===//
#ifndef CERB_CORE_CORE_H
#define CERB_CORE_CORE_H

#include "ail/Ail.h"
#include "mem/UB.h"
#include "mem/Value.h"

#include <map>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

namespace cerb::core {

using ail::CType;
using ail::Symbol;

//===----------------------------------------------------------------------===//
// Values
//===----------------------------------------------------------------------===//

enum class ValueKind : uint8_t {
  Unit,
  True,
  False,
  Ctype,       ///< a C type expression as a first-class value
  Integer,     ///< memory-model integer value (provenance-carrying)
  Pointer,     ///< memory-model pointer value
  Function,    ///< C function designator
  Specified,   ///< loaded value: Specified(object value), see Value::inner
  Unspecified, ///< loaded value: Unspecified(ctype)
  Tuple,
  List,
  ArrayV,      ///< C array object value
  StructV,     ///< C struct object value (tag, member values)
  UnionV,      ///< C union object value (tag, active member, one value)
  BytesV,      ///< opaque aggregate byte image (whole struct/union values)
};

/// Out-of-line store for the CHERI capabilities that integer and pointer
/// values carry (§4). A Value holds only a 32-bit reference into the
/// current table, so copying a capability-carrying value is a plain copy,
/// and values of the other models never touch a table. Equal capabilities
/// share one entry, so a table grows with the distinct capabilities of an
/// evaluation, not with its steps.
class CapTable {
public:
  /// Returns the (nonzero) reference of \p C, adding it if new.
  uint32_t intern(const mem::Capability &C);
  const mem::Capability &get(uint32_t Ref) const;

  /// The table this thread's Values index: the innermost live Scope's, or
  /// a thread-wide fallback outside every Scope.
  static CapTable &current();

  /// Makes a table current for the lifetime of the scope. The evaluator
  /// scopes its own table around a run, so references never outlive it.
  class Scope {
  public:
    explicit Scope(CapTable &T);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    CapTable *Prev;
  };

private:
  std::vector<mem::Capability> Caps;
  std::map<std::tuple<uint64_t, uint64_t, bool>, uint32_t> Index;
};

/// A Core value in 32 bytes. Scalars (booleans, integers with provenance,
/// pointers, function designators) and ctypes live inline; `Specified` is a
/// flag on the wrapped value rather than a box; tuples, lists and C
/// aggregate values live in one heap block each (deep-copied, never
/// shared, so a value can be read from any thread); CHERI capabilities live
/// in the current CapTable.
class Value {
public:
  Value() : Bits(0) {}
  Value(const Value &O) { copyFrom(O); }
  Value(Value &&O) noexcept { stealFrom(O); }
  Value &operator=(const Value &O) {
    if (this != &O) {
      Value Tmp(O); // O may live inside this value's own box
      destroy();
      stealFrom(Tmp);
    }
    return *this;
  }
  Value &operator=(Value &&O) noexcept {
    if (this != &O) {
      Value Tmp(std::move(O));
      destroy();
      stealFrom(Tmp);
    }
    return *this;
  }
  ~Value() { destroy(); }

  static Value unit() { return Value(); }
  static Value boolean(bool B) {
    return Value(B ? ValueKind::True : ValueKind::False);
  }
  static Value ctype(CType Ty) {
    Value V(ValueKind::Ctype);
    new (&V.Ty) CType(std::move(Ty));
    return V;
  }
  static Value integer(const mem::IntegerValue &IV);
  static Value integer(Int128 N) {
    Value V(ValueKind::Integer);
    V.Bits = N;
    return V;
  }
  static Value pointer(const mem::PointerValue &PV);
  static Value function(unsigned Sym) {
    Value V(ValueKind::Function);
    V.Bits = Sym;
    return V;
  }
  /// Specified(Inner): sets the flag on \p Inner, which must not be
  /// Specified itself (no Core program wraps a loaded value twice).
  static Value specified(Value Inner);
  static Value unspecified(CType Ty) {
    Value V(ValueKind::Unspecified);
    new (&V.Ty) CType(std::move(Ty));
    return V;
  }
  static Value tuple(std::vector<Value> Elems);
  /// A tuple of \p N Units, for filling in place through elems().
  static Value tuple(size_t N);
  static Value list(std::vector<Value> Elems);
  static Value array(std::vector<Value> Elems);
  static Value structure(unsigned Tag, std::vector<Value> Members);
  static Value unionValue(unsigned Tag, size_t Member, Value Elem);
  static Value bytes(CType Ty, const std::vector<mem::MemByte> &Raw);

  /// The kind, reporting Specified for a value with the Specified flag.
  ValueKind kind() const {
    return (Flags & SpecBit) ? ValueKind::Specified : K;
  }
  /// The kind of the value itself, ignoring a Specified flag.
  ValueKind innerKind() const { return K; }
  bool isTrue() const { return kind() == ValueKind::True; }
  bool isSpecified() const { return Flags & SpecBit; }
  /// The wrapped object value of a Specified value (a copy without the
  /// flag); the value itself otherwise.
  Value inner() const {
    Value V(*this);
    V.Flags &= ~SpecBit;
    return V;
  }
  /// Drops the Specified flag in place (moving the inner value out).
  Value &&takeInner() && {
    Flags &= ~SpecBit;
    return std::move(*this);
  }

  // Accessors for the inner kind (they look through a Specified flag).
  /// Integer: the mathematical value.
  Int128 num() const { return Bits; }
  /// Integer/Pointer: the provenance.
  mem::Provenance prov() const {
    return mem::Provenance{static_cast<mem::ProvKind>(PK), AllocId};
  }
  /// Integer/Pointer: carries a CHERI capability.
  bool hasCap() const { return CapRef != 0; }
  mem::IntegerValue intValue() const;
  mem::PointerValue ptrValue() const;
  /// Function: the designated symbol id.
  unsigned funcSym() const { return static_cast<unsigned>(Bits); }
  /// Ctype / Unspecified / BytesV: the C type.
  const CType &cty() const { return isBoxed() ? B->Ty : Ty; }
  /// StructV / UnionV: the tag id.
  unsigned tag() const { return B->Tag; }
  /// UnionV: the active member index.
  size_t activeMember() const { return B->ActiveMember; }
  /// Tuple / List / ArrayV / StructV / UnionV: the element values.
  std::span<const Value> elems() const;
  std::span<Value> elems();
  /// BytesV: the byte image.
  std::span<const mem::MemByte> bytes() const;

  std::string str() const;

private:
  /// Header of the heap block of an aggregate; the elements (Values, or
  /// MemBytes for BytesV) follow it in the same allocation.
  struct alignas(16) Box {
    uint32_t N = 0;
    unsigned Tag = 0;
    size_t ActiveMember = 0;
    CType Ty;
  };
  static constexpr uint8_t SpecBit = 1; ///< Specified flag
  static constexpr uint8_t FnBit = 2;   ///< Pointer: carries a FuncSym

  explicit Value(ValueKind Kind) : Bits(0), K(Kind) {}
  static Value boxed(ValueKind Kind, size_t N);
  static Value aggregate(ValueKind Kind, std::vector<Value> &&Elems);

  bool isBoxed() const { return K >= ValueKind::Tuple; }
  bool hasType() const {
    return K == ValueKind::Ctype || K == ValueKind::Unspecified;
  }
  void copyFrom(const Value &O);
  void stealFrom(Value &O) noexcept;
  void destroy() {
    if (isBoxed())
      freeBox();
    else if (hasType())
      Ty.~CType();
  }
  void freeBox();
  /// str() of the value without its Specified flag.
  std::string strInner() const;
  mem::PointerValue ptrWithoutCap() const;

  union {
    /// Integer: the value; Pointer: address in the low 64 bits, FuncSym
    /// in the next 32; Function: the symbol id; otherwise zero.
    Int128 Bits;
    CType Ty; ///< Ctype / Unspecified
    Box *B;   ///< Tuple/List/ArrayV/StructV/UnionV/BytesV
  };
  ValueKind K = ValueKind::Unit; ///< never Specified (that is SpecBit)
  uint8_t Flags = 0;
  uint8_t PK = 0;       ///< mem::ProvKind of an Integer/Pointer
  uint32_t CapRef = 0;  ///< CapTable reference, 0 = no capability
  uint64_t AllocId = 0; ///< provenance allocation id
};
static_assert(sizeof(Value) <= 32, "core::Value must stay 32 bytes");

/// Converts a Core object value to a memory value of C type \p Ty (for
/// store actions) and back (after load actions).
mem::MemValue valueToMem(const CType &Ty, const Value &V);
Value memToValue(const mem::MemValue &MV);

//===----------------------------------------------------------------------===//
// Patterns
//===----------------------------------------------------------------------===//

enum class PatKind { Wild, Sym, Tuple, SpecifiedP, UnspecifiedP };

struct Pattern {
  PatKind K = PatKind::Wild;
  Symbol S;
  std::vector<Pattern> Subs;
  /// Dense environment-slot index for Sym patterns, assigned by
  /// core::lower (-1 until lowered). The evaluator's slot-vector fast
  /// path binds through this instead of the name-keyed map.
  int Slot = -1;

  static Pattern wild() { return Pattern{}; }
  static Pattern sym(Symbol Sym) {
    Pattern P;
    P.K = PatKind::Sym;
    P.S = Sym;
    return P;
  }
  static Pattern tuple(std::vector<Pattern> Subs) {
    Pattern P;
    P.K = PatKind::Tuple;
    P.Subs = std::move(Subs);
    return P;
  }
  static Pattern specified(Pattern Sub) {
    Pattern P;
    P.K = PatKind::SpecifiedP;
    P.Subs.push_back(std::move(Sub));
    return P;
  }
  static Pattern unspecified() {
    Pattern P;
    P.K = PatKind::UnspecifiedP;
    return P;
  }

  std::string str(const ail::SymbolTable &Syms) const;
};

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

/// Core binary operators over mathematical integers / booleans.
enum class CoreBinop {
  Add, Sub, Mul, Div, RemT, Exp,
  Eq, Lt, Le, Gt, Ge,
  And, Or,
};

std::string_view coreBinopSpelling(CoreBinop Op);

/// Pointer operations involving the memory state (Fig. 2 ptrop).
enum class PtrOpKind {
  PtrEq, PtrNe, PtrLt, PtrGt, PtrLe, PtrGe,
  PtrDiff,
  IntFromPtr, ///< Cty = target integer type
  PtrFromInt, ///< Cty = target pointer type
  PtrValidForDeref,
  CastPtr,    ///< pointer-to-pointer cast (model hook; CHERI narrows)
};

/// Memory actions (Fig. 2 `a`). Kill frees; Create/Alloc allocate.
enum class ActionKind {
  Create, ///< create object: Cty = object type, Str = name hint
  Alloc,  ///< allocate region: Kids[0] = size (loaded int not required)
  Kill,   ///< end object lifetime: Kids[0] = pointer
  Free,   ///< free dynamic region: Kids[0] = pointer
  Store,  ///< Cty, Kids[0] = pointer, Kids[1] = value
  Load,   ///< Cty, Kids[0] = pointer
};

/// The fixed set of named pure builtins a PureCall can target (Str names
/// one of these). core::lower interns the name into Expr::Pure so the
/// evaluator's dispatch is a switch, not a string-comparison chain.
enum class PureFn : int8_t {
  None = -1, ///< not interned (unlowered tree or unknown name)
  IsRepresentable,
  ShrArith,
  BwAnd,
  BwOr,
  BwXor,
  BwCompl,
};

/// Maps a PureCall name to its PureFn, None if outside the fixed set.
PureFn pureFnByName(std::string_view Name);

enum class ExprKind {
  //===--- pure (pe) ---===//
  Sym,         ///< Core identifier
  Val,         ///< literal value
  ImplConst,   ///< implementation-defined constant (Str)
  Undef,       ///< undefined behaviour (UB)
  ErrorE,      ///< implementation-defined static error (Str)
  Tuple,       ///< tuple constructor
  SpecifiedE,  ///< Specified(pe)
  UnspecifiedE,///< Unspecified(ctype literal in Cty)
  Case,        ///< case pe of branches
  ArrayShiftE, ///< array_shift(pe_ptr, Cty, pe_int)
  MemberShiftE,///< member_shift(pe_ptr, Tag, MemberIdx)
  Not,         ///< boolean not
  Binop,       ///< pe1 binop pe2 (mathematical integers; no overflow)
  PureCall,    ///< call of a named builtin pure function (Str)
  PureLet,     ///< let pat = pe1 in pe2
  PureIf,      ///< if pe then pe1 else pe2
  IsInteger, IsSigned, IsUnsigned, IsScalar, ///< ctype tests
  FinishArith, ///< model hook: finish C arithmetic (provenance/CHERI); Kids =
               ///< {lhsIV, rhsIV, numeric result}; AOp = operator; Cty = C
               ///< result type
  ConvInt,     ///< conv_int(Cty, pe): 6.3.1.3 conversion on integer values

  //===--- effectful (e) ---===//
  PtrOp,     ///< ptrop(POp, pes...)
  Action,    ///< memory action (Act, NegPolarity)
  Skip,
  ELet,      ///< sequential let (monadic bind, no inner actions in pe1)
  EIf,
  ECase,
  ProcCall,  ///< call Core procedure Sym with evaluated args
  CallPtr,   ///< call through C function pointer: Kids[0] = fn value
  Ret,       ///< procedure return with value
  Unseq,     ///< unsequenced expressions
  LetWeak,   ///< let weak pat = e1 in e2
  LetStrong, ///< let strong pat = e1 in e2
  LetAtomic, ///< let atomic pat = a1 in a2 (postfix ++/--)
  Indet,     ///< indeterminately sequenced subexpression [n]
  Bound,     ///< boundary for indet [n]
  Nd,        ///< nondeterministic choice among Kids
  Save,      ///< save label Sym (+ scope annotation) in Kids[0]
  Run,       ///< run label Sym (+ scope annotation)
  Par,       ///< cppmem-style thread creation (restricted model)
  Wait,      ///< wait for thread termination
};

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// Scope annotation for save/run: the automatic objects live at the point,
/// used by the dynamics to create/kill on goto (§5.8).
struct ScopeObject {
  Symbol Obj;
  CType Ty;
  int Slot = -1; ///< environment slot of Obj (core::lower)
};

struct Expr {
  ExprKind K;
  SourceLoc Loc;

  Symbol Sym;            // Sym/ProcCall/Save/Run
  Value V;               // Val
  mem::UBKind UB = mem::UBKind::ExceptionalCondition; // Undef
  std::string Str;       // ImplConst/ErrorE/PureCall name/Create name hint
  CoreBinop BOp = CoreBinop::Add;   // Binop
  mem::ArithOp AOp = mem::ArithOp::Add; // FinishArith
  PtrOpKind POp = PtrOpKind::PtrEq; // PtrOp
  ActionKind Act = ActionKind::Load; // Action
  bool NegPolarity = false;          // Action (§5.6 polarities)
  /// Action memory order (Fig. 2's memory-order operand), restricted to
  /// the two cases the concurrency regime needs: non-atomic vs seq_cst.
  bool AtomicAccess = false;
  CType Cty;             // type operand (actions, shifts, conv, unspec)
  unsigned Tag = 0;      // MemberShiftE / struct ops
  size_t MemberIdx = 0;  // MemberShiftE
  unsigned IndetId = 0;  // Indet/Bound pairing
  /// Statement-boundary marker on LetStrong: a C sequence point, at which
  /// the dynamics may discard accumulated action footprints (no
  /// unsequenced-race check can ever involve actions across it).
  bool SeqPoint = false;
  /// Dynamics cache: does this subtree contain memory actions or calls?
  /// (-1 unknown). Used to avoid scheduling unseq branches whose order is
  /// unobservable.
  mutable int HasEffectsCache = -1;
  /// Environment slot for Sym nodes (core::lower; -1 until lowered).
  int Slot = -1;
  /// Index into CoreProgram::ConstPool for interned Val nodes (-1 when
  /// not pooled). The literal in V is retained — printers and the
  /// unlowered differential path keep reading it.
  int PoolIdx = -1;
  /// Bloom summary (bit = label Id mod 64) of every Save label in this
  /// subtree, filled by core::lower. Zero means "definitely no save
  /// here", which lets the evaluator's jump routing skip the subtree
  /// scan; a set bit only admits the exact recursive check.
  uint64_t SaveMask = 0;
  /// Interned PureCall target (core::lower): the evaluator dispatches on
  /// this instead of string-comparing Str. None = unresolved (unlowered
  /// trees, or a name outside the fixed builtin set).
  PureFn Pure = PureFn::None;
  /// Lowering-proved guarantee: this subtree performs no memory actions,
  /// binds no symbols, raises no signals, and counts no events — it either
  /// produces a value or (on operand-kind surprises) defers to the general
  /// evaluator, whose re-evaluation is safe precisely because the subtree
  /// is effect-free. Gates Evaluator::evalPure on the slot path.
  bool ValueOnly = false;
  Pattern Pat;           // lets
  std::vector<ExprPtr> Kids;
  std::vector<std::pair<Pattern, ExprPtr>> Branches; // Case/ECase
  std::vector<ScopeObject> Scope; // Save/Run annotations

  static ExprPtr make(ExprKind K, SourceLoc Loc = SourceLoc()) {
    auto E = std::make_unique<Expr>();
    E->K = K;
    E->Loc = Loc;
    return E;
  }
};

//===----------------------------------------------------------------------===//
// Programs
//===----------------------------------------------------------------------===//

/// A Core procedure (effectful) or function (pure), from elaborating a C
/// function definition.
struct CoreProc {
  Symbol Name;
  CType ReturnTy;                 ///< C return type
  std::vector<std::pair<Symbol, CType>> Params; ///< value parameters
  ExprPtr Body;
  SourceLoc Loc;
  /// Parallel to Params: environment slot of each parameter (core::lower).
  std::vector<int> ParamSlots;
};

/// A C object with static storage duration: name, type, and the Core
/// expression computing its initial value (run at startup, §5.2: "a set of
/// names, core types, and allocation/initialisation expressions").
struct CoreGlobal {
  Symbol Name;
  CType Ty;
  ExprPtr Init; ///< null = zero-initialised
  SourceLoc Loc;
  bool ReadOnly = false; ///< string literal: immutable after initialisation
  int Slot = -1; ///< environment slot of Name (core::lower)
};

/// The result of elaborating a C translation unit (Fig. 2 caption).
struct CoreProgram {
  ail::TagTable Tags;
  ail::SymbolTable Syms;
  std::vector<CoreGlobal> Globals;
  std::map<unsigned, CoreProc> Procs;
  std::map<unsigned, ail::Builtin> Builtins;
  Symbol MainProc;

  /// Set by core::lower: every binding/reference carries a slot index into
  /// a dense environment of NumSlots entries, and interned literals live
  /// in ConstPool. The evaluator selects its slot-vector fast path on
  /// Lowered; CERB_NO_LOWERING=1 compiles keep it false.
  bool Lowered = false;
  unsigned NumSlots = 0;
  std::vector<Value> ConstPool;

  const CoreProc *findProc(Symbol S) const {
    auto It = Procs.find(S.Id);
    return It == Procs.end() ? nullptr : &It->second;
  }
};

//===----------------------------------------------------------------------===//
// Pretty printing (the accessibility story of §5.1/§5.3 depends on being
// able to *read* elaborated Core; also regenerates Fig. 2/Fig. 3)
//===----------------------------------------------------------------------===//

std::string printExpr(const Expr &E, const ail::SymbolTable &Syms,
                      unsigned Indent = 0);
std::string printProgram(const CoreProgram &P);
/// The Core grammar summary (regenerates the shape of Fig. 2).
std::string coreGrammarSummary();

/// Deep copy of a Core expression.
ExprPtr cloneExpr(const Expr &E);

/// True iff \p E is a pure Core expression (fits the `pe` layer of Fig. 2).
bool isPureExpr(const Expr &E);

/// Does the subtree contain state *mutation* or calls — anything whose
/// execution order another unseq branch could observe? Loads are excluded:
/// among race-free branches a load commutes with every other load, and a
/// load/store conflict is an unsequenced race (UB) regardless of order.
/// Memoised in Expr::HasEffectsCache.
bool hasEffects(const Expr &E);

/// Populates Expr::HasEffectsCache for *every* node of \p P. After this
/// pass the dynamics never writes to a shared CoreProgram, so one compiled
/// program can be evaluated concurrently from many threads (the oracle's
/// compile-once/run-many contract). Called by exec::compile.
void warmDynamicsCaches(const CoreProgram &P);

//===----------------------------------------------------------------------===//
// Core-to-Core transformations (§5.1 "Core-to-Core transformation (600)")
//===----------------------------------------------------------------------===//

struct RewriteStats {
  unsigned PureLetsInlined = 0;
  unsigned ConstIfsFolded = 0;
  unsigned UnseqSingletons = 0;
  unsigned SkipSeqsDropped = 0;
};

/// Simplifies a Core program in place: inlines trivial pure lets, folds
/// constant ifs, collapses singleton unseqs, drops skip sequencing.
RewriteStats rewrite(CoreProgram &P);

/// Structural validity + purity checking of a Core program (the Core type
/// system's pure/effectful distinction, §5.2). Returns an error string for
/// the first violation, or nullopt.
std::optional<std::string> typeCheck(const CoreProgram &P);

} // namespace cerb::core

#endif // CERB_CORE_CORE_H
