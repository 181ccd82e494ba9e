//===-- core/Core.cpp -----------------------------------------------------===//

#include "core/Core.h"

#include "support/DepthGuard.h"
#include "support/Format.h"

#include <algorithm>
#include <cassert>

using namespace cerb;
using namespace cerb::core;

//===----------------------------------------------------------------------===//
// Values
//===----------------------------------------------------------------------===//

uint32_t CapTable::intern(const mem::Capability &C) {
  auto [It, New] = Index.try_emplace({C.Base, C.Length, C.Tag},
                                     static_cast<uint32_t>(Caps.size() + 1));
  if (New)
    Caps.push_back(C);
  return It->second;
}

const mem::Capability &CapTable::get(uint32_t Ref) const {
  assert(Ref != 0 && Ref <= Caps.size() && "stale capability reference");
  return Caps[Ref - 1];
}

namespace {
thread_local CapTable *CurrentCaps = nullptr;
} // namespace

CapTable &CapTable::current() {
  if (CurrentCaps)
    return *CurrentCaps;
  thread_local CapTable Fallback;
  return Fallback;
}

CapTable::Scope::Scope(CapTable &T) : Prev(CurrentCaps) { CurrentCaps = &T; }
CapTable::Scope::~Scope() { CurrentCaps = Prev; }

Value Value::integer(const mem::IntegerValue &IV) {
  Value V = integer(IV.V);
  V.PK = static_cast<uint8_t>(IV.Prov.Kind);
  V.AllocId = IV.Prov.AllocId;
  if (IV.Cap)
    V.CapRef = CapTable::current().intern(*IV.Cap);
  return V;
}

Value Value::pointer(const mem::PointerValue &PV) {
  Value V(ValueKind::Pointer);
  V.Bits = PV.Addr;
  if (PV.FuncSym) {
    V.Bits |= UInt128(*PV.FuncSym) << 64;
    V.Flags |= FnBit;
  }
  V.PK = static_cast<uint8_t>(PV.Prov.Kind);
  V.AllocId = PV.Prov.AllocId;
  if (PV.Cap)
    V.CapRef = CapTable::current().intern(*PV.Cap);
  return V;
}

mem::IntegerValue Value::intValue() const {
  mem::IntegerValue IV(Bits, prov());
  if (CapRef)
    IV.Cap = CapTable::current().get(CapRef);
  return IV;
}

mem::PointerValue Value::ptrWithoutCap() const {
  mem::PointerValue PV;
  PV.Prov = prov();
  PV.Addr = static_cast<uint64_t>(Bits);
  if (Flags & FnBit)
    PV.FuncSym = static_cast<unsigned>(UInt128(Bits) >> 64);
  return PV;
}

mem::PointerValue Value::ptrValue() const {
  mem::PointerValue PV = ptrWithoutCap();
  if (CapRef)
    PV.Cap = CapTable::current().get(CapRef);
  return PV;
}

Value Value::specified(Value Inner) {
  assert(!Inner.isSpecified() && "Specified(Specified(...)) has no flag");
  Inner.Flags |= SpecBit;
  return Inner;
}

Value Value::boxed(ValueKind Kind, size_t N) {
  size_t ElemSize = Kind == ValueKind::BytesV ? sizeof(mem::MemByte)
                                              : sizeof(Value);
  void *Mem = ::operator new(sizeof(Box) + N * ElemSize);
  Value V(Kind);
  V.B = new (Mem) Box();
  V.B->N = static_cast<uint32_t>(N);
  return V;
}

Value Value::aggregate(ValueKind Kind, std::vector<Value> &&Elems) {
  Value V = boxed(Kind, Elems.size());
  Value *Out = reinterpret_cast<Value *>(V.B + 1);
  for (size_t I = 0; I < Elems.size(); ++I)
    new (Out + I) Value(std::move(Elems[I]));
  return V;
}

Value Value::tuple(std::vector<Value> Elems) {
  return aggregate(ValueKind::Tuple, std::move(Elems));
}

Value Value::tuple(size_t N) {
  Value V = boxed(ValueKind::Tuple, N);
  Value *Out = reinterpret_cast<Value *>(V.B + 1);
  for (size_t I = 0; I < N; ++I)
    new (Out + I) Value();
  return V;
}

Value Value::list(std::vector<Value> Elems) {
  return aggregate(ValueKind::List, std::move(Elems));
}

Value Value::array(std::vector<Value> Elems) {
  return aggregate(ValueKind::ArrayV, std::move(Elems));
}

Value Value::structure(unsigned Tag, std::vector<Value> Members) {
  Value V = aggregate(ValueKind::StructV, std::move(Members));
  V.B->Tag = Tag;
  return V;
}

Value Value::unionValue(unsigned Tag, size_t Member, Value Elem) {
  std::vector<Value> Elems;
  Elems.push_back(std::move(Elem));
  Value V = aggregate(ValueKind::UnionV, std::move(Elems));
  V.B->Tag = Tag;
  V.B->ActiveMember = Member;
  return V;
}

Value Value::bytes(CType Ty, std::span<const mem::MemByte> Raw) {
  Value V = boxed(ValueKind::BytesV, Raw.size());
  V.B->Ty = Ty;
  std::uninitialized_copy(Raw.begin(), Raw.end(),
                          reinterpret_cast<mem::MemByte *>(V.B + 1));
  return V;
}

std::span<const Value> Value::elems() const {
  return {reinterpret_cast<const Value *>(B + 1), B->N};
}

std::span<Value> Value::elems() {
  return {reinterpret_cast<Value *>(B + 1), B->N};
}

std::span<const mem::MemByte> Value::bytes() const {
  return {reinterpret_cast<const mem::MemByte *>(B + 1), B->N};
}

void Value::copyBox(const Value &O) {
  copyBytes(O);
  Value V = boxed(K, O.B->N);
  V.B->Tag = O.B->Tag;
  V.B->ActiveMember = O.B->ActiveMember;
  V.B->Ty = O.B->Ty;
  if (K == ValueKind::BytesV) {
    std::span<const mem::MemByte> Src = O.bytes();
    std::uninitialized_copy(Src.begin(), Src.end(),
                            reinterpret_cast<mem::MemByte *>(V.B + 1));
  } else {
    std::span<const Value> Src = O.elems();
    std::uninitialized_copy(Src.begin(), Src.end(),
                            reinterpret_cast<Value *>(V.B + 1));
  }
  B = V.B;
  V.K = ValueKind::Unit; // the block now belongs to this value
}

void Value::freeBox() {
  if (K == ValueKind::BytesV) {
    std::destroy_n(reinterpret_cast<mem::MemByte *>(B + 1), B->N);
  } else {
    std::destroy_n(reinterpret_cast<Value *>(B + 1), B->N);
  }
  B->~Box();
  ::operator delete(B);
}

std::string Value::str() const {
  if (isSpecified())
    return "Specified(" + strInner() + ")";
  return strInner();
}

std::string Value::strInner() const {
  // Renderings never show capabilities, so they need no CapTable.
  switch (K) {
  case ValueKind::Unit: return "Unit";
  case ValueKind::True: return "True";
  case ValueKind::False: return "False";
  case ValueKind::Ctype: return "'" + Ty.str() + "'";
  case ValueKind::Integer: return mem::IntegerValue(Bits, prov()).str();
  case ValueKind::Pointer: return ptrWithoutCap().str();
  case ValueKind::Function: return fmt("cfunction#{0}", funcSym());
  case ValueKind::Specified: break; // a flag, handled by str()
  case ValueKind::Unspecified:
    return "Unspecified('" + Ty.str() + "')";
  case ValueKind::Tuple:
  case ValueKind::List: {
    std::vector<std::string> Parts;
    for (const Value &E : elems())
      Parts.push_back(E.str());
    return (K == ValueKind::Tuple ? "(" : "[") + join(Parts, ", ") +
           (K == ValueKind::Tuple ? ")" : "]");
  }
  case ValueKind::ArrayV: {
    std::vector<std::string> Parts;
    for (const Value &E : elems())
      Parts.push_back(E.str());
    return "array(" + join(Parts, ", ") + ")";
  }
  case ValueKind::StructV:
  case ValueKind::UnionV: {
    std::vector<std::string> Parts;
    for (const Value &E : elems())
      Parts.push_back(E.str());
    return fmt("({0}#{1}){2}", K == ValueKind::StructV ? "struct" : "union",
               tag(), "{" + join(Parts, ", ") + "}");
  }
  case ValueKind::BytesV:
    return fmt("bytes[{0}]", bytes().size());
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// The serializer
//===----------------------------------------------------------------------===//

namespace {

using ail::CTypeKind;
using mem::MemByte;

/// Writes the \p W little-endian bytes of \p Bits, each carrying \p Prov
/// and, with \p Frags, its fragment index and \p Cap.
void writeScalar(MemByte *Out, unsigned W, UInt128 Bits, mem::Provenance Prov,
                 bool Frags, const std::optional<mem::Capability> &Cap) {
  for (unsigned I = 0; I < W; ++I) {
    MemByte B;
    B.Value = static_cast<uint8_t>(Bits >> (8 * I));
    B.Prov = Prov;
    if (Frags) {
      B.PtrFrag = static_cast<int>(I);
      B.Cap = Cap;
    }
    Out[I] = B;
  }
}

/// Writes object value \p V of C type \p Ty into the Env.sizeOf(Ty) bytes
/// at \p Out. Scalars are little-endian and every byte carries the value's
/// provenance; pointer bytes carry their fragment index and, under CHERI,
/// the capability, and so do the bytes of an integer with a capability.
void writeValue(const ail::ImplEnv &Env, bool Cheri, const CType &Ty,
                const Value &V, MemByte *Out) {
  // A Specified flag is transparent here: the inner value is stored.
  if (V.innerKind() == ValueKind::Unspecified) {
    std::fill_n(Out, Env.sizeOf(Ty), MemByte{});
    return;
  }
  if (V.innerKind() == ValueKind::BytesV) {
    std::span<const MemByte> Raw = V.bytes();
    assert(Raw.size() == Env.sizeOf(Ty) && "byte image size mismatch");
    std::copy(Raw.begin(), Raw.end(), Out);
    return;
  }
  switch (Ty.kind()) {
  case CTypeKind::Integer: {
    assert(V.innerKind() == ValueKind::Integer && "type/value mismatch");
    mem::IntegerValue IV = V.intValue();
    writeScalar(Out, Env.widthOf(Ty.intKind()) / 8,
                static_cast<UInt128>(IV.V), IV.Prov, Cheri && IV.Cap, IV.Cap);
    return;
  }
  case CTypeKind::Pointer: {
    assert((V.innerKind() == ValueKind::Pointer ||
            V.innerKind() == ValueKind::Function) &&
           "type/value mismatch");
    mem::PointerValue PV = V.innerKind() == ValueKind::Function
                               ? mem::PointerValue::function(V.funcSym())
                               : V.ptrValue();
    uint64_t Encoded =
        PV.isFunction() ? mem::FuncAddrBase + *PV.FuncSym : PV.Addr;
    writeScalar(Out, 8, Encoded, PV.Prov, /*Frags=*/true,
                Cheri ? PV.Cap : std::nullopt);
    return;
  }
  case CTypeKind::Array: {
    assert(V.innerKind() == ValueKind::ArrayV && "type/value mismatch");
    CType Elem = Ty.element();
    uint64_t N = Ty.arraySize().value_or(0), ES = Env.sizeOf(Elem);
    std::span<const Value> Elems = V.elems();
    uint64_t Given = std::min<uint64_t>(N, Elems.size());
    for (uint64_t I = 0; I < Given; ++I)
      writeValue(Env, Cheri, Elem, Elems[I], Out + I * ES);
    std::fill(Out + Given * ES, Out + N * ES, MemByte{});
    return;
  }
  case CTypeKind::Struct: {
    assert(V.innerKind() == ValueKind::StructV && "type/value mismatch");
    const ail::TagDef &D = Env.tags().get(Ty.tag());
    // Padding and members without a value stay unspecified.
    std::fill_n(Out, Env.sizeOf(Ty), MemByte{});
    std::span<const Value> Members = V.elems();
    for (size_t I = 0; I < std::min(D.Members.size(), Members.size()); ++I)
      writeValue(Env, Cheri, D.Members[I].Ty, Members[I],
                 Out + Env.offsetOf(Ty.tag(), I));
    return;
  }
  case CTypeKind::Union: {
    assert(V.innerKind() == ValueKind::UnionV && "type/value mismatch");
    const ail::TagDef &D = Env.tags().get(Ty.tag());
    std::fill_n(Out, Env.sizeOf(Ty), MemByte{});
    writeValue(Env, Cheri, D.Members[V.activeMember()].Ty, V.elems()[0], Out);
    return;
  }
  default:
    assert(false && "cannot store a value of this type");
  }
}

/// What the \p W little-endian bytes at \p In hold: their value if every
/// byte is specified, whether all carry byte 0's provenance, and whether
/// byte I is fragment I of byte 0's capability, for every I.
struct Scalar {
  UInt128 Bits = 0;
  bool Specified = true, SameProv = true, InOrder = true;
};

Scalar readScalar(const MemByte *In, unsigned W) {
  Scalar S;
  for (unsigned I = 0; I < W; ++I) {
    const MemByte &B = In[I];
    if (!B.Value) {
      S.Specified = false;
      return S;
    }
    S.Bits |= UInt128(*B.Value) << (8 * I);
    S.SameProv &= B.Prov == In[0].Prov;
    S.InOrder &= B.Cap == In[0].Cap && B.PtrFrag == static_cast<int>(I);
  }
  return S;
}

/// Builds the value of C type \p Ty from the Env.sizeOf(Ty) bytes at \p In.
Value readValue(const ail::ImplEnv &Env, bool Cheri, const CType &Ty,
                const MemByte *In) {
  switch (Ty.kind()) {
  case CTypeKind::Integer: {
    unsigned W = Env.widthOf(Ty.intKind()) / 8;
    Scalar S = readScalar(In, W);
    if (!S.Specified)
      return Value::unspecified(Ty);
    Int128 V = static_cast<Int128>(S.Bits);
    if (!Ty.isUnsigned() && W < 16) {
      // Sign-extend.
      Int128 SignBit = Int128(1) << (W * 8 - 1);
      if (V & SignBit)
        V -= Int128(1) << (W * 8);
    }
    mem::IntegerValue IV(V, S.SameProv ? In[0].Prov : mem::Provenance());
    if (Cheri && S.InOrder && W == 8)
      IV.Cap = In[0].Cap;
    return Value::specified(Value::integer(IV));
  }
  case CTypeKind::Pointer: {
    Scalar S = readScalar(In, 8);
    if (!S.Specified)
      return Value::unspecified(Ty);
    uint64_t Encoded = static_cast<uint64_t>(S.Bits);
    if (Encoded >= mem::FuncAddrBase && Encoded < mem::FuncAddrBase + 0x10000)
      return Value::specified(
          Value::function(static_cast<unsigned>(Encoded - mem::FuncAddrBase)));
    mem::PointerValue PV;
    PV.Addr = Encoded;
    // §5.9: reconstruction from representation bytes carries the original
    // provenance as long as all bytes agree (indirect dataflow copying,
    // Q13-Q16); mixed-origin bytes give empty provenance.
    PV.Prov = S.SameProv ? In[0].Prov : mem::Provenance();
    if (Cheri) {
      if (S.InOrder && In[0].Cap)
        PV.Cap = In[0].Cap;
      else
        PV.Cap = mem::Capability{0, 0, false}; // tag cleared: unusable
    }
    return Value::specified(Value::pointer(PV));
  }
  case CTypeKind::Array: {
    CType Elem = Ty.element();
    uint64_t N = Ty.arraySize().value_or(0), ES = Env.sizeOf(Elem);
    std::vector<Value> Elems;
    Elems.reserve(N);
    for (uint64_t I = 0; I < N; ++I)
      Elems.push_back(readValue(Env, Cheri, Elem, In + I * ES));
    return Value::specified(Value::array(std::move(Elems)));
  }
  case CTypeKind::Struct:
  case CTypeKind::Union:
    return Value::specified(Value::bytes(Ty, {In, Env.sizeOf(Ty)}));
  default:
    assert(false && "cannot load a value of this type");
    return Value::unspecified(Ty);
  }
}

} // namespace

mem::MemRes<mem::Unit> core::storeValue(mem::Memory &M, const CType &Ty,
                                        const mem::PointerValue &P,
                                        const Value &V) {
  CERB_MEMTRY(Out, M.store(Ty, P));
  writeValue(M.env(), M.policy().Cheri, Ty, V, Out);
  return mem::Unit{};
}

mem::MemRes<Value> core::loadValue(mem::Memory &M, const CType &Ty,
                                   const mem::PointerValue &P) {
  CERB_MEMTRY(In, M.load(Ty, P));
  return readValue(M.env(), M.policy().Cheri, Ty, In);
}

//===----------------------------------------------------------------------===//
// Patterns
//===----------------------------------------------------------------------===//

std::string Pattern::str(const ail::SymbolTable &Syms) const {
  switch (K) {
  case PatKind::Wild:
    return "_";
  case PatKind::Sym:
    return Syms.nameOf(S);
  case PatKind::Tuple: {
    std::vector<std::string> Parts;
    for (const Pattern &P : subs())
      Parts.push_back(P.str(Syms));
    return "(" + join(Parts, ", ") + ")";
  }
  case PatKind::SpecifiedP:
    return "Specified(" + subs()[0].str(Syms) + ")";
  case PatKind::UnspecifiedP:
    return "Unspecified(_)";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// The node arena
//===----------------------------------------------------------------------===//

ExprArena &ExprArena::operator=(ExprArena &&O) noexcept {
  if (this != &O) {
    destroyObjects();
    Nodes = std::move(O.Nodes);
    Auxes = std::move(O.Auxes);
    Raw = std::move(O.Raw);
  }
  return *this;
}

ExprArena::~ExprArena() { destroyObjects(); }

void ExprArena::destroyObjects() {
  Auxes.forEach<ExprAux>([](ExprAux &A) { A.~ExprAux(); });
}

Expr *ExprArena::make(ExprKind K, SourceLoc Loc,
                      std::span<Expr *const> Kids) {
  Expr *E = new (alloc<Expr>(Nodes, 1)) Expr();
  E->K = K;
  E->Loc = Loc;
  setKids(*E, Kids);
  return E;
}

Expr *ExprArena::val(Value V, SourceLoc Loc) {
  Expr *E = make(ExprKind::Val, Loc);
  aux(*E).V = std::move(V);
  return E;
}

ExprAux &ExprArena::aux(Expr &E) {
  if (!E.Aux)
    E.Aux = new (alloc<ExprAux>(Auxes, 1)) ExprAux();
  return *E.Aux;
}

void ExprArena::setKids(Expr &E, std::span<Expr *const> Kids) {
  E.NumKids = static_cast<uint32_t>(Kids.size());
  E.KidData = Kids.empty() ? nullptr : alloc<Expr *>(Raw, Kids.size());
  std::copy(Kids.begin(), Kids.end(), E.KidData);
}

void ExprArena::setBranches(Expr &E, std::span<const Branch> Branches) {
  if (Branches.empty() && !E.Aux)
    return;
  Branch *P = alloc<Branch>(Raw, Branches.size());
  std::copy(Branches.begin(), Branches.end(), P);
  aux(E).Branches = std::span<Branch>(P, Branches.size());
}

void ExprArena::setPattern(Expr &E, const Pattern &P) {
  E.Pat = new (alloc<Pattern>(Raw, 1)) Pattern(P);
}

void ExprArena::setStr(Expr &E, std::string_view S) {
  char *P = alloc<char>(Raw, S.size());
  std::copy(S.begin(), S.end(), P);
  aux(E).Str = std::string_view(P, S.size());
}

std::span<ScopeObject> ExprArena::setScope(Expr &E, size_t N) {
  ScopeObject *P = alloc<ScopeObject>(Raw, N);
  std::uninitialized_default_construct_n(P, N);
  return aux(E).Scope = std::span<ScopeObject>(P, N);
}

Pattern ExprArena::tuplePattern(std::span<const Pattern> Subs) {
  Pattern P;
  P.K = PatKind::Tuple;
  P.NumSubs = static_cast<uint32_t>(Subs.size());
  P.SubData = alloc<Pattern>(Raw, Subs.size());
  std::copy(Subs.begin(), Subs.end(), P.SubData);
  return P;
}

Pattern ExprArena::specifiedPattern(const Pattern &Sub) {
  Pattern P = tuplePattern(std::span<const Pattern>(&Sub, 1));
  P.K = PatKind::SpecifiedP;
  return P;
}

uint64_t ExprArena::heapBytes() const {
  uint64_t N = Nodes.bytes() + Auxes.bytes() + Raw.bytes();
  Auxes.forEach<ExprAux>([&](const ExprAux &A) { N += A.V.heapBytes(); });
  return N;
}

std::string_view core::coreBinopSpelling(CoreBinop Op) {
  switch (Op) {
  case CoreBinop::Add: return "+";
  case CoreBinop::Sub: return "-";
  case CoreBinop::Mul: return "*";
  case CoreBinop::Div: return "/";
  case CoreBinop::RemT: return "rem_t";
  case CoreBinop::Exp: return "^";
  case CoreBinop::Eq: return "=";
  case CoreBinop::Lt: return "<";
  case CoreBinop::Le: return "<=";
  case CoreBinop::Gt: return ">";
  case CoreBinop::Ge: return ">=";
  case CoreBinop::And: return "/\\";
  case CoreBinop::Or: return "\\/";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Pretty printer
//===----------------------------------------------------------------------===//

namespace {

std::string_view ptrOpName(PtrOpKind K) {
  switch (K) {
  case PtrOpKind::PtrEq: return "pointer_eq";
  case PtrOpKind::PtrNe: return "pointer_ne";
  case PtrOpKind::PtrLt: return "pointer_lt";
  case PtrOpKind::PtrGt: return "pointer_gt";
  case PtrOpKind::PtrLe: return "pointer_le";
  case PtrOpKind::PtrGe: return "pointer_ge";
  case PtrOpKind::PtrDiff: return "ptrdiff";
  case PtrOpKind::IntFromPtr: return "intFromPtr";
  case PtrOpKind::PtrFromInt: return "ptrFromInt";
  case PtrOpKind::PtrValidForDeref: return "ptrValidForDeref";
  case PtrOpKind::CastPtr: return "cast_ptr";
  }
  return "?";
}

std::string_view actionName(ActionKind K) {
  switch (K) {
  case ActionKind::Create: return "create";
  case ActionKind::Alloc: return "alloc";
  case ActionKind::Kill: return "kill";
  case ActionKind::Free: return "free";
  case ActionKind::Store: return "store";
  case ActionKind::Load: return "load";
  }
  return "?";
}

std::string_view arithOpName(mem::ArithOp Op) {
  switch (Op) {
  case mem::ArithOp::Add: return "add";
  case mem::ArithOp::Sub: return "sub";
  case mem::ArithOp::Mul: return "mul";
  case mem::ArithOp::Div: return "div";
  case mem::ArithOp::Rem: return "rem";
  case mem::ArithOp::Shl: return "shl";
  case mem::ArithOp::Shr: return "shr";
  case mem::ArithOp::And: return "band";
  case mem::ArithOp::Or: return "bor";
  case mem::ArithOp::Xor: return "bxor";
  }
  return "?";
}

} // namespace

namespace {

/// Appends printed Core to one buffer, so printing is linear in its output
/// however deep the tree nests.
class Printer {
public:
  Printer(const ail::SymbolTable &Syms, std::string &Out)
      : Syms(Syms), Out(Out) {}

  void print(const Expr &E, unsigned Indent) {
    std::span<Expr *const> K = E.kids();
    auto Call = [&](std::string_view Name) {
      put(Indent, Name, "(");
      kids(E, Indent);
      Out += ')';
    };
    switch (E.K) {
    case ExprKind::Sym:
      return put(Indent, Syms.nameOf(E.Sym));
    case ExprKind::Val:
      return put(Indent, E.value().str());
    case ExprKind::ImplConst:
      return put(Indent, "<", E.str(), ">");
    case ExprKind::Undef:
      return put(Indent, "undef(", mem::ubName(E.UB), ")");
    case ExprKind::ErrorE:
      return put(Indent, "error(\"", E.str(), "\")");
    case ExprKind::Tuple:
      return Call("");
    case ExprKind::SpecifiedE:
      return Call("Specified");
    case ExprKind::UnspecifiedE:
      return put(Indent, "Unspecified('", E.Cty.str(), "')");
    case ExprKind::Case:
    case ExprKind::ECase:
      put(Indent, "case ", K[0], " with\n");
      for (const Branch &B : E.branches()) {
        put(Indent, ind(Indent + 1), "| ", B.Pat.str(Syms), " =>\n",
            ind(Indent + 2));
        put(Indent + 2, B.Body, "\n");
      }
      return put(Indent, ind(Indent), "end");
    case ExprKind::ArrayShiftE:
      return put(Indent, "array_shift(", K[0], ", '", E.Cty.str(), "', ", K[1],
                 ")");
    case ExprKind::MemberShiftE:
      return put(Indent, "member_shift(", K[0],
                 fmt(", tag#{0}.{1})", E.tag(), E.memberIdx()));
    case ExprKind::Not:
      return Call("not");
    case ExprKind::Binop:
      return put(Indent, "(", K[0], " ", coreBinopSpelling(E.BOp), " ", K[1],
                 ")");
    case ExprKind::PureCall:
      return Call(E.str());
    case ExprKind::PureLet:
    case ExprKind::ELet:
      return let(E, "let ", Indent);
    case ExprKind::PureIf:
    case ExprKind::EIf:
      put(Indent, "if ", K[0], " then\n", ind(Indent + 1));
      put(Indent + 1, K[1], "\n", ind(Indent), "else\n", ind(Indent + 1));
      return put(Indent + 1, K[2]);
    case ExprKind::IsInteger:
      return Call("is_integer");
    case ExprKind::IsSigned:
      return Call("is_signed");
    case ExprKind::IsUnsigned:
      return Call("is_unsigned");
    case ExprKind::IsScalar:
      return Call("is_scalar");
    case ExprKind::FinishArith:
      put(Indent, "finish_arith[", arithOpName(E.AOp), ", '", E.Cty.str(),
          "']");
      return Call("");
    case ExprKind::ConvInt:
      return put(Indent, "conv_int('", E.Cty.str(), "', ", K[0], ")");
    case ExprKind::PtrOp:
      put(Indent, "ptrop(", ptrOpName(E.POp));
      if (E.POp == PtrOpKind::IntFromPtr || E.POp == PtrOpKind::PtrFromInt)
        put(Indent, "['", E.Cty.str(), "']");
      put(Indent, ", ");
      kids(E, Indent);
      return put(Indent, ")");
    case ExprKind::Action: {
      put(Indent, E.NegPolarity ? "neg(" : "", actionName(E.Act), "(");
      std::string_view Sep;
      if (E.Act == ActionKind::Create || E.Act == ActionKind::Store ||
          E.Act == ActionKind::Load) {
        put(Indent, "'", E.Cty.str(), "'");
        Sep = ", ";
      }
      for (const Expr *Kid : K) {
        put(Indent, Sep, Kid);
        Sep = ", ";
      }
      if (E.AtomicAccess)
        put(Indent, Sep, "seq_cst");
      return put(Indent, E.NegPolarity ? "))" : ")");
    }
    case ExprKind::Skip:
      return put(Indent, "skip");
    case ExprKind::ProcCall:
      put(Indent, "pcall(", Syms.nameOf(E.Sym), K.empty() ? "" : ", ");
      kids(E, Indent);
      return put(Indent, ")");
    case ExprKind::CallPtr:
      return Call("pcall_indirect");
    case ExprKind::Ret:
      return Call("return");
    case ExprKind::Unseq:
      return Call("unseq");
    case ExprKind::LetWeak:
      return let(E, "let weak ", Indent);
    case ExprKind::LetStrong:
      return let(E, "let strong ", Indent);
    case ExprKind::LetAtomic:
      return put(Indent, "let atomic ", E.Pat->str(Syms), " = ", K[0], " in ",
                 K[1]);
    case ExprKind::Indet:
      return Call(fmt("indet[{0}]", E.indetId()));
    case ExprKind::Bound:
      return Call(fmt("bound[{0}]", E.indetId()));
    case ExprKind::Nd:
      return Call("nd");
    case ExprKind::Save: {
      put(Indent, "save ", Syms.nameOf(E.Sym), "(");
      std::string_view Sep;
      for (const ScopeObject &O : E.scope()) {
        put(Indent, Sep, Syms.nameOf(O.Obj), ": '", O.Ty.str(), "'");
        Sep = ", ";
      }
      return put(Indent + 1, ") in\n", ind(Indent + 1), K[0]);
    }
    case ExprKind::Run:
      return put(Indent, "run ", Syms.nameOf(E.Sym), "()");
    case ExprKind::Par:
      return Call("par");
    case ExprKind::Wait:
      return Call("wait");
    }
    Out += '?';
  }

private:
  const ail::SymbolTable &Syms;
  std::string &Out;

  /// Indentation to level \p N, as a part for put().
  static std::string ind(unsigned N) { return std::string(2 * N, ' '); }
  /// Appends the parts in order: text as is, a node printed at \p Indent.
  template <typename... Ts> void put(unsigned Indent, const Ts &...Parts) {
    (append(Parts, Indent), ...);
  }
  void append(std::string_view S, unsigned) { Out += S; }
  void append(const Expr *E, unsigned Indent) { print(*E, Indent); }
  /// The kids, comma-separated.
  void kids(const Expr &E, unsigned Indent) {
    std::string_view Sep;
    for (const Expr *Kid : E.kids()) {
      put(Indent, Sep, Kid);
      Sep = ", ";
    }
  }
  void let(const Expr &E, std::string_view Keyword, unsigned Indent) {
    put(Indent, Keyword, E.Pat->str(Syms), " = ", E.kids()[0], " in\n",
        ind(Indent), E.kids()[1]);
  }
};

} // namespace

std::string core::printExpr(const Expr &E, const ail::SymbolTable &Syms,
                            unsigned Indent) {
  std::string Out;
  Printer(Syms, Out).print(E, Indent);
  return Out;
}

std::string core::printProgram(const CoreProgram &P) {
  std::string Out;
  Printer Print(P.Syms, Out);
  for (const CoreGlobal &G : P.Globals) {
    Out += fmt("glob {0}: '{1}'", P.Syms.nameOf(G.Name), G.Ty.str());
    if (G.Init) {
      Out += " :=\n  ";
      Print.print(*G.Init, 1);
    }
    Out += "\n\n";
  }
  for (const auto &[Id, Proc] : P.Procs) {
    std::vector<std::string> Params;
    for (const auto &[S, Ty] : Proc.Params)
      Params.push_back(P.Syms.nameOf(S) + ": '" + Ty.str() + "'");
    Out += fmt("proc {0}({1}): eff loaded '{2}' :=\n  ",
               P.Syms.nameOf(Proc.Name), join(Params, ", "),
               Proc.ReturnTy.str());
    Print.print(*Proc.Body, 1);
    Out += "\n\n";
  }
  return Out;
}

std::string core::coreGrammarSummary() {
  return R"(Core syntax (regenerating the shape of paper Fig. 2)
=====================================================

object types   oTy    ::= integer | floating | pointer | cfunction
                        | array(oTy) | struct tag | union tag
base types     bTy    ::= unit | boolean | ctype | [bTy] | (bTy, ..)
                        | oTy | loaded oTy
core types     coreTy ::= bTy | eff bTy

values         v      ::= Unit | True | False | ctype
                        | intval | ptrval | cfunction-name
                        | array(v..) | (struct tag){..} | (union tag){..}
                        | Specified(v) | Unspecified(ctype)
                        | [v, ..] | (v, ..)

patterns       pat    ::= _ | ident | ctor(pat, ..)

pure exprs     pe     ::= ident | <impl-const> | v
                        | undef(ub-name) | error(msg, pe)
                        | ctor(pe..) | case pe with |pat => pe.. end
                        | array_shift(pe, ctype, pe)
                        | member_shift(pe, tag.member)
                        | not(pe) | pe binop pe
                        | (struct tag){..} | (union tag){..}
                        | name(pe..) | let pat = pe in pe
                        | if pe then pe else pe
                        | is_scalar(pe) | is_integer(pe)
                        | is_signed(pe) | is_unsigned(pe)

pointer ops    ptrop  ::= pointer-equality | pointer-relational | ptrdiff
                        | intFromPtr | ptrFromInt | ptrValidForDeref

actions        a      ::= create(pe, pe) | alloc(pe, pe) | kill(pe)
                        | store(pe, pe, pe, memory-order)
                        | load(pe, pe, memory-order)
                        | rmw(...)
polarised      pa     ::= a | neg(a)

effects        e      ::= pure(pe) | ptrop(ptrop, pe..) | pa
                        | case pe with |pat => e.. end
                        | let pat = pe in e | if pe then e else e | skip
                        | pcall(pe, pe..) | return(pe)
                        | unseq(e, ..)
                        | let weak pat = e in e
                        | let strong pat = e in e
                        | let atomic (sym: oTy) = a in pa
                        | indet[n](e) | bound[n](e)
                        | nd(e, ..)
                        | save label(ident: ctype ..) in e
                        | run label(ident := pe ..)
                        | par(e, ..) | wait(thread-id)

definitions    def    ::= fun name(ident: bTy ..): bTy := pe
                        | proc name(ident: bTy ..): eff bTy := e
)";
}

PureFn core::pureFnByName(std::string_view Name) {
  if (Name == "is_representable")
    return PureFn::IsRepresentable;
  if (Name == "shr_arith")
    return PureFn::ShrArith;
  if (Name == "bw_and")
    return PureFn::BwAnd;
  if (Name == "bw_or")
    return PureFn::BwOr;
  if (Name == "bw_xor")
    return PureFn::BwXor;
  if (Name == "bw_compl")
    return PureFn::BwCompl;
  return PureFn::None;
}

namespace {
Pattern clonePattern(ExprArena &A, const Pattern &P) {
  if (!P.NumSubs)
    return P;
  std::vector<Pattern> Subs;
  for (const Pattern &Sub : P.subs())
    Subs.push_back(clonePattern(A, Sub));
  Pattern Out = A.tuplePattern(Subs);
  Out.K = P.K;
  return Out;
}
} // namespace

Expr *core::cloneExpr(ExprArena &A, const Expr &E) {
  Expr *Out = A.make(E.K, E.Loc);
  *Out = E; // the inline fields; what E points to is copied below
  Out->Pat = nullptr;
  Out->Aux = nullptr;
  std::vector<Expr *> Kids;
  for (const Expr *K : E.kids())
    Kids.push_back(cloneExpr(A, *K));
  A.setKids(*Out, Kids);
  std::vector<Branch> Branches;
  for (const Branch &B : E.branches())
    Branches.push_back({clonePattern(A, B.Pat), cloneExpr(A, *B.Body)});
  A.setBranches(*Out, Branches);
  if (E.Pat)
    A.setPattern(*Out, clonePattern(A, *E.Pat));
  if (E.Aux) {
    A.setStr(*Out, E.Aux->Str);
    std::span<ScopeObject> Scope = A.setScope(*Out, E.Aux->Scope.size());
    std::ranges::copy(E.Aux->Scope, Scope.begin());
    ExprAux &X = A.aux(*Out);
    X.V = E.Aux->V;
    X.Tag = E.Aux->Tag;
    X.MemberIdx = E.Aux->MemberIdx;
    X.IndetId = E.Aux->IndetId;
  }
  return Out;
}

namespace {
/// A heap buffer of \p N bytes, plus a flat 16 for the allocator's header
/// and rounding; an empty buffer is no allocation.
uint64_t heapBlock(uint64_t N) { return N ? N + 16 : 0; }

/// A string's heap buffer: none while it fits the in-object one.
uint64_t stringBytes(const std::string &S) {
  static const size_t InlineChars = std::string().capacity();
  return S.capacity() > InlineChars ? heapBlock(S.capacity() + 1) : 0;
}

/// A std::map node holding a \p T: the tree's colour and three links,
/// then the element.
template <typename T> uint64_t mapNode() { return heapBlock(32 + sizeof(T)); }
} // namespace

uint64_t Value::heapBytes() const {
  if (!isBoxed())
    return 0;
  if (K == ValueKind::BytesV)
    return heapBlock(sizeof(Box) + B->N * sizeof(mem::MemByte));
  uint64_t N = heapBlock(sizeof(Box) + B->N * sizeof(Value));
  for (const Value &Elem : elems())
    N += Elem.heapBytes();
  return N;
}

uint64_t core::programBytes(const CoreProgram &P) {
  uint64_t N = heapBlock(P.ConstPool.capacity() * sizeof(Value)) +
               heapBlock(P.Syms.capacity() * sizeof(std::string)) +
               heapBlock(P.Syms.capacity() * sizeof(ail::SymbolKind)) +
               heapBlock(P.Tags.size() * sizeof(ail::TagDef)) +
               P.Tags.typeBytes() +
               heapBlock(P.Globals.capacity() * sizeof(CoreGlobal)) +
               P.Builtins.size() * mapNode<std::pair<unsigned, ail::Builtin>>();
  for (const Value &V : P.ConstPool)
    N += V.heapBytes();
  for (unsigned Id = 0; Id < P.Syms.size(); ++Id)
    N += stringBytes(P.Syms.nameOf(Symbol{Id}));
  for (unsigned Tag = 0; Tag < P.Tags.size(); ++Tag) {
    const ail::TagDef &D = P.Tags.get(Tag);
    N += stringBytes(D.Name) +
         heapBlock(D.Members.capacity() * sizeof(ail::TagMember)) +
         heapBlock(D.Offsets.capacity() * sizeof(uint64_t));
    for (const ail::TagMember &M : D.Members)
      N += stringBytes(M.Name);
  }
  for (const auto &[Id, Proc] : P.Procs)
    N += mapNode<std::pair<unsigned, CoreProc>>() +
         heapBlock(Proc.Params.capacity() * sizeof(Proc.Params[0])) +
         heapBlock(Proc.ParamSlots.capacity() * sizeof(int));
  return N + P.Arena.heapBytes();
}

//===----------------------------------------------------------------------===//
// Core-to-Core rewrites
//===----------------------------------------------------------------------===//

namespace {

bool isValueExpr(const Expr &E) { return E.K == ExprKind::Val; }

/// Past MaxCoreDepth the deeper nodes are left as they are; core::typeCheck
/// refuses such a program. A node a rewrite drops stays in the arena until
/// the program goes.
void rewriteExpr(Expr *&E, RewriteStats &Stats, unsigned &Depth) {
  DepthGuard G(Depth, MaxCoreDepth);
  if (!G)
    return;
  for (Expr *&K : E->kids())
    rewriteExpr(K, Stats, Depth);
  for (Branch &B : E->branches())
    rewriteExpr(B.Body, Stats, Depth);

  switch (E->K) {
  case ExprKind::Unseq:
    if (E->NumKids == 1) {
      // unseq(e) has the sequencing of e itself, but reduces to a 1-tuple;
      // our elaboration only emits singleton unseqs bound by tuple patterns
      // of width 1, which it never does — collapse is safe only when some
      // enclosing pattern is not a tuple, so we leave semantics alone and
      // only count (kept conservative).
      ++Stats.UnseqSingletons;
    }
    break;
  case ExprKind::PureIf:
  case ExprKind::EIf:
    if (E->kids()[0]->K == ExprKind::Val) {
      bool Cond = E->kids()[0]->value().isTrue();
      E = E->kids()[Cond ? 1 : 2];
      ++Stats.ConstIfsFolded;
    }
    break;
  case ExprKind::PureLet:
  case ExprKind::ELet:
    // let x = v in x  ->  v ; and let _ = v in e -> e for pure v.
    if (E->Pat->K == PatKind::Wild && isValueExpr(*E->kids()[0])) {
      E = E->kids()[1];
      ++Stats.PureLetsInlined;
      break;
    }
    if (E->Pat->K == PatKind::Sym && isValueExpr(*E->kids()[0]) &&
        E->kids()[1]->K == ExprKind::Sym && E->kids()[1]->Sym == E->Pat->S) {
      E = E->kids()[0];
      ++Stats.PureLetsInlined;
    }
    break;
  case ExprKind::LetStrong:
    // let strong _ = skip in e  ->  e
    if (E->Pat->K == PatKind::Wild && E->kids()[0]->K == ExprKind::Skip) {
      E = E->kids()[1];
      ++Stats.SkipSeqsDropped;
    }
    break;
  default:
    break;
  }
}

} // namespace

bool core::hasEffects(const Expr &E) {
  if (E.HasEffectsCache >= 0)
    return E.HasEffectsCache != 0;
  bool R = (E.K == ExprKind::Action && E.Act != ActionKind::Load) ||
           E.K == ExprKind::ProcCall || E.K == ExprKind::CallPtr ||
           E.K == ExprKind::Nd || E.K == ExprKind::Par;
  if (!R) {
    for (const Expr *K : E.kids())
      if (hasEffects(*K)) {
        R = true;
        break;
      }
    if (!R)
      for (const Branch &B : E.branches())
        if (hasEffects(*B.Body)) {
          R = true;
          break;
        }
  }
  E.HasEffectsCache = R ? 1 : 0;
  return R;
}

namespace {
/// Full traversal (no early exit, unlike hasEffects itself) so that every
/// node's cache is populated, not just the prefix a lazy query touches.
void warmExpr(const Expr &E) {
  for (const Expr *K : E.kids())
    warmExpr(*K);
  for (const Branch &B : E.branches())
    warmExpr(*B.Body);
  (void)core::hasEffects(E);
}
} // namespace

void core::warmDynamicsCaches(const CoreProgram &P) {
  if (P.Lowered)
    return; // core::lower set every node's bit already
  for (const auto &[Id, Proc] : P.Procs)
    if (Proc.Body)
      warmExpr(*Proc.Body);
  for (const CoreGlobal &G : P.Globals)
    if (G.Init)
      warmExpr(*G.Init);
}

RewriteStats core::rewrite(CoreProgram &P) {
  RewriteStats Stats;
  unsigned Depth = 0;
  for (auto &[Id, Proc] : P.Procs)
    rewriteExpr(Proc.Body, Stats, Depth);
  for (CoreGlobal &G : P.Globals)
    if (G.Init)
      rewriteExpr(G.Init, Stats, Depth);
  return Stats;
}

//===----------------------------------------------------------------------===//
// Core checking (purity, scoping and labels)
//===----------------------------------------------------------------------===//

namespace {

bool isPureKind(ExprKind K) {
  switch (K) {
  case ExprKind::Sym: case ExprKind::Val: case ExprKind::ImplConst:
  case ExprKind::Undef: case ExprKind::ErrorE: case ExprKind::Tuple:
  case ExprKind::SpecifiedE: case ExprKind::UnspecifiedE:
  case ExprKind::Case: case ExprKind::ArrayShiftE:
  case ExprKind::MemberShiftE: case ExprKind::Not: case ExprKind::Binop:
  case ExprKind::PureCall: case ExprKind::PureLet: case ExprKind::PureIf:
  case ExprKind::IsInteger: case ExprKind::IsSigned:
  case ExprKind::IsUnsigned: case ExprKind::IsScalar:
  case ExprKind::FinishArith: case ExprKind::ConvInt:
    return true;
  default:
    return false;
  }
}

/// The static disciplines of Core, checked in one walk per procedure body
/// or global initialiser:
///  - purity (Fig. 2): pure contexts contain no effects;
///  - scoping: every identifier is lexically bound (globals, the
///    procedure's own value parameters, let/case patterns) and every pcall
///    names a known procedure or builtin;
///  - labels: every `run` targets a `save` of the same procedure.
/// Catches elaboration and lowering bugs before the dynamics can hit an
/// "unbound identifier" at run time. Bound symbols and saved labels are
/// bit vectors indexed by symbol id (ids are dense). The first purity
/// violation wins; otherwise the first scoping or label violation in walk
/// order is reported.
class Checker {
public:
  explicit Checker(const CoreProgram &P)
      : P(P), Bound(P.Syms.size()), Saved(P.Syms.size()) {
    for (const CoreGlobal &G : P.Globals)
      bind(G.Name.Id);
    Introduced.clear(); // globals stay bound for the whole program
  }

  /// Checks one procedure body or global initialiser; \p Params are bound
  /// over it and only over it.
  std::optional<std::string>
  check(const Expr &Body,
        const std::vector<std::pair<Symbol, CType>> &Params) {
    for (const auto &[Sym, Ty] : Params)
      bind(Sym.Id);
    std::optional<std::string> Err;
    if (!walk(Body, false)) {
      Err = std::move(PurityErr);
    } else {
      // Every pending run precedes the first scoping error in walk order.
      for (const Expr *R : Runs)
        if (!isSaved(R->Sym.Id)) {
          ScopeErr.reset();
          scopeError("run of unknown label '{0}' at {1}", *R);
          break;
        }
      Err = std::move(ScopeErr);
    }
    unbindTo(0);
    for (unsigned L : SavedIds)
      Saved[L] = false;
    SavedIds.clear();
    Runs.clear();
    ScopeErr.reset();
    return Err;
  }

private:
  const CoreProgram &P;
  std::vector<bool> Bound;
  std::vector<bool> Saved;
  std::vector<unsigned> Introduced; ///< bound by this body, innermost last
  std::vector<unsigned> SavedIds;   ///< labels set in Saved by this body
  /// Runs met before the first scoping error, checked once the whole body
  /// (and so every save a forward jump can target) has been seen.
  std::vector<const Expr *> Runs;
  std::string PurityErr;
  std::optional<std::string> ScopeErr;
  unsigned Depth = 0; ///< of the walk (support/DepthGuard.h)

  bool isBound(unsigned Id) const { return Id < Bound.size() && Bound[Id]; }
  bool isSaved(unsigned Id) const { return Id < Saved.size() && Saved[Id]; }
  void bind(unsigned Id) {
    if (Id >= Bound.size())
      Bound.resize(Id + 1);
    if (!Bound[Id]) {
      Bound[Id] = true;
      Introduced.push_back(Id);
    }
  }
  void bindPattern(const Pattern &Pat) {
    if (Pat.K == PatKind::Sym)
      bind(Pat.S.Id);
    for (const Pattern &Sub : Pat.subs())
      bindPattern(Sub);
  }
  void unbindTo(size_t Mark) {
    while (Introduced.size() > Mark) {
      Bound[Introduced.back()] = false;
      Introduced.pop_back();
    }
  }
  void save(unsigned Id) {
    if (Id >= Saved.size())
      Saved.resize(Id + 1);
    if (!Saved[Id]) {
      Saved[Id] = true;
      SavedIds.push_back(Id);
    }
  }
  void scopeError(const char *What, const Expr &E) {
    if (!ScopeErr)
      ScopeErr = fmt(What, P.Syms.nameOf(E.Sym), E.Loc.str());
  }

  /// False on a purity violation (left in PurityErr); scoping violations
  /// are recorded and the walk goes on, since a later purity violation
  /// still takes precedence.
  bool walk(const Expr &E, bool PureContext) {
    DepthGuard G(Depth, MaxCoreDepth);
    if (!G) {
      PurityErr = G.error("Core check", E.Loc).str();
      return false;
    }
    if (PureContext && !isPureKind(E.K)) {
      PurityErr = fmt("effectful Core construct in a pure context at {0}",
                      E.Loc.str());
      return false;
    }
    switch (E.K) {
    case ExprKind::Sym:
      if (!isBound(E.Sym.Id))
        scopeError("unbound Core identifier '{0}' at {1}", E);
      return true;
    case ExprKind::ProcCall:
      if (!P.Procs.count(E.Sym.Id) && !P.Builtins.count(E.Sym.Id))
        scopeError("pcall of unknown procedure '{0}' at {1}", E);
      return walkKids(E, true);
    case ExprKind::Run:
      if (!ScopeErr)
        Runs.push_back(&E);
      return walkKids(E, true);
    case ExprKind::Save:
      save(E.Sym.Id);
      return walkKids(E, false);

    // Pure constructs: all children pure.
    case ExprKind::Tuple: case ExprKind::SpecifiedE:
    case ExprKind::ArrayShiftE: case ExprKind::MemberShiftE:
    case ExprKind::Not: case ExprKind::Binop: case ExprKind::PureCall:
    case ExprKind::PureIf: case ExprKind::IsInteger: case ExprKind::IsSigned:
    case ExprKind::IsUnsigned: case ExprKind::IsScalar:
    case ExprKind::FinishArith: case ExprKind::ConvInt:
      return walkKids(E, true);

    case ExprKind::Val: case ExprKind::ImplConst: case ExprKind::Undef:
    case ExprKind::ErrorE: case ExprKind::UnspecifiedE: case ExprKind::Skip:
      return true;

    // The scrutinee is pure and each branch binds its pattern; branches are
    // pure under Case and effectful under ECase (Fig. 2: case pe with
    // effect branches), as are the bodies of `let pat = pe in e` and
    // `if pe then e1 else e2` below.
    case ExprKind::Case:
    case ExprKind::ECase: {
      bool BranchPure = E.K == ExprKind::Case || PureContext;
      for (const Expr *K : E.kids())
        if (!walk(*K, true))
          return false;
      for (const Branch &B : E.branches()) {
        size_t Mark = Introduced.size();
        bindPattern(B.Pat);
        bool Ok = walk(*B.Body, BranchPure);
        unbindTo(Mark);
        if (!Ok)
          return false;
      }
      return true;
    }
    case ExprKind::PureLet:
      return walkLet(E, true, true);
    case ExprKind::ELet:
      return walkLet(E, true, PureContext);
    case ExprKind::LetWeak:
    case ExprKind::LetStrong:
      return walkLet(E, false, false);
    case ExprKind::LetAtomic:
      // Both sides must be actions (possibly negated), Fig. 2; an action's
      // operands are pure.
      for (const Expr *K : E.kids())
        if (K->K != ExprKind::Action) {
          PurityErr = fmt("let atomic operand is not a memory action at {0}",
                          E.Loc.str());
          return false;
        }
      return walkLet(E, false, false);
    case ExprKind::EIf:
      return walk(*E.kids()[0], true) && walk(*E.kids()[1], PureContext) &&
             walk(*E.kids()[2], PureContext);

    // Actions and pointer ops: operands pure.
    case ExprKind::Action:
    case ExprKind::PtrOp:
    case ExprKind::Ret:
    case ExprKind::CallPtr:
    case ExprKind::Wait:
      return walkKids(E, true);

    // Sequencing: children effectful.
    case ExprKind::Unseq:
    case ExprKind::Nd:
    case ExprKind::Par:
    case ExprKind::Indet:
    case ExprKind::Bound:
      return walkKids(E, false);
    }
    return true;
  }

  bool walkKids(const Expr &E, bool PureContext) {
    for (const Expr *K : E.kids())
      if (!walk(*K, PureContext))
        return false;
    for (const Branch &B : E.branches())
      if (!walk(*B.Body, PureContext))
        return false;
    return true;
  }

  /// `let Pat = kids()[0] in kids()[1]`: Pat scopes over the body only.
  bool walkLet(const Expr &E, bool PureBound, bool PureBody) {
    if (!walk(*E.kids()[0], PureBound))
      return false;
    size_t Mark = Introduced.size();
    bindPattern(*E.Pat);
    bool Ok = walk(*E.kids()[1], PureBody);
    unbindTo(Mark);
    return Ok;
  }
};

} // namespace

bool core::isPureExpr(const Expr &E) {
  if (!isPureKind(E.K))
    return false;
  for (const Expr *K : E.kids())
    if (!isPureExpr(*K))
      return false;
  for (const Branch &B : E.branches())
    if (!isPureExpr(*B.Body))
      return false;
  return true;
}

std::optional<std::string> core::typeCheck(const CoreProgram &P) {
  Checker C(P);
  for (const auto &[Id, Proc] : P.Procs) {
    if (!Proc.Body)
      return fmt("procedure '{0}' has no body", P.Syms.nameOf(Proc.Name));
    if (auto R = C.check(*Proc.Body, Proc.Params))
      return fmt("in procedure '{0}': ", P.Syms.nameOf(Proc.Name)) + *R;
  }
  for (const CoreGlobal &G : P.Globals)
    if (G.Init)
      if (auto R = C.check(*G.Init, {}))
        return fmt("in global '{0}': ", P.Syms.nameOf(G.Name)) + *R;
  return std::nullopt;
}
