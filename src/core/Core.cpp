//===-- core/Core.cpp -----------------------------------------------------===//

#include "core/Core.h"

#include "support/Format.h"

#include <cassert>
#include <set>

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

Value Value::bytes(CType Ty, const std::vector<mem::MemByte> &Raw) {
  Value V = boxed(ValueKind::BytesV, Raw.size());
  V.B->Ty = std::move(Ty);
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

void Value::copyFrom(const Value &O) {
  K = O.K;
  Flags = O.Flags;
  PK = O.PK;
  CapRef = O.CapRef;
  AllocId = O.AllocId;
  if (hasType()) {
    new (&Ty) CType(O.Ty);
  } else if (!isBoxed()) {
    Bits = O.Bits;
  } else {
    size_t N = O.B->N;
    Value V = boxed(K, N);
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
}

void Value::stealFrom(Value &O) noexcept {
  K = O.K;
  Flags = O.Flags;
  PK = O.PK;
  CapRef = O.CapRef;
  AllocId = O.AllocId;
  if (hasType()) {
    new (&Ty) CType(std::move(O.Ty));
    O.Ty.~CType();
  } else if (isBoxed()) {
    B = O.B;
  } else {
    Bits = O.Bits;
  }
  O.K = ValueKind::Unit;
  O.Flags = 0;
  O.Bits = 0;
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

mem::MemValue core::valueToMem(const CType &Ty, const Value &V) {
  // A Specified flag is transparent here: the inner value is stored.
  switch (V.innerKind()) {
  case ValueKind::Unspecified:
    return mem::MemValue::unspecified(Ty);
  case ValueKind::Integer:
    return mem::MemValue::integer(Ty, V.intValue());
  case ValueKind::Pointer:
    return mem::MemValue::pointer(Ty, V.ptrValue());
  case ValueKind::Function:
    return mem::MemValue::pointer(Ty,
                                  mem::PointerValue::function(V.funcSym()));
  case ValueKind::ArrayV: {
    std::vector<mem::MemValue> Elems;
    assert(Ty.isArray() && "array value at non-array type");
    for (const Value &E : V.elems())
      Elems.push_back(valueToMem(Ty.element(), E));
    return mem::MemValue::array(std::move(Elems));
  }
  case ValueKind::StructV: {
    std::vector<mem::MemValue> Members;
    // Member types come from the tag table via Ty; the elaboration built
    // the element values at the right types already.
    assert(Ty.isStruct() && "struct value at non-struct type");
    for (const Value &E : V.elems())
      Members.push_back(valueToMem(CType(), E));
    return mem::MemValue::structure(V.tag(), std::move(Members));
  }
  case ValueKind::UnionV:
    return mem::MemValue::unionValue(V.tag(), V.activeMember(),
                                     valueToMem(CType(), V.elems()[0]));
  case ValueKind::BytesV: {
    std::span<const mem::MemByte> Raw = V.bytes();
    return mem::makeBytesValue(Ty, {Raw.begin(), Raw.end()});
  }
  default:
    assert(false && "value has no memory representation");
    return mem::MemValue::unspecified(Ty);
  }
}

Value core::memToValue(const mem::MemValue &MV) {
  switch (MV.Kind) {
  case mem::MemValueKind::Unspecified:
    return Value::unspecified(MV.Ty);
  case mem::MemValueKind::Integer:
    return Value::specified(Value::integer(MV.IV));
  case mem::MemValueKind::Pointer:
    if (MV.PV.isFunction())
      return Value::specified(Value::function(*MV.PV.FuncSym));
    return Value::specified(Value::pointer(MV.PV));
  case mem::MemValueKind::Array:
  case mem::MemValueKind::Struct:
  case mem::MemValueKind::Union: {
    std::vector<Value> Elems;
    Elems.reserve(MV.Elems.size());
    for (const mem::MemValue &E : MV.Elems)
      Elems.push_back(memToValue(E));
    if (MV.Kind == mem::MemValueKind::Array)
      return Value::specified(Value::array(std::move(Elems)));
    if (MV.Kind == mem::MemValueKind::Struct)
      return Value::specified(Value::structure(MV.Tag, std::move(Elems)));
    return Value::specified(
        Value::unionValue(MV.Tag, MV.ActiveMember, std::move(Elems[0])));
  }
  case mem::MemValueKind::Bytes:
    return Value::specified(Value::bytes(MV.Ty, MV.Raw));
  }
  return Value::unit();
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
    for (const Pattern &P : Subs)
      Parts.push_back(P.str(Syms));
    return "(" + join(Parts, ", ") + ")";
  }
  case PatKind::SpecifiedP:
    return "Specified(" + Subs[0].str(Syms) + ")";
  case PatKind::UnspecifiedP:
    return "Unspecified(_)";
  }
  return "?";
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

std::string ind(unsigned N) { return std::string(2 * N, ' '); }

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

std::string core::printExpr(const Expr &E, const ail::SymbolTable &Syms,
                            unsigned Indent) {
  auto Kid = [&](size_t I) { return printExpr(*E.Kids[I], Syms, Indent); };
  auto KidI = [&](size_t I, unsigned Extra) {
    return printExpr(*E.Kids[I], Syms, Indent + Extra);
  };
  switch (E.K) {
  case ExprKind::Sym:
    return Syms.nameOf(E.Sym);
  case ExprKind::Val:
    return E.V.str();
  case ExprKind::ImplConst:
    return "<" + E.Str + ">";
  case ExprKind::Undef:
    return fmt("undef({0})", mem::ubName(E.UB));
  case ExprKind::ErrorE:
    return fmt("error(\"{0}\")", E.Str);
  case ExprKind::Tuple: {
    std::vector<std::string> Parts;
    for (size_t I = 0; I < E.Kids.size(); ++I)
      Parts.push_back(Kid(I));
    return "(" + join(Parts, ", ") + ")";
  }
  case ExprKind::SpecifiedE:
    return "Specified(" + Kid(0) + ")";
  case ExprKind::UnspecifiedE:
    return "Unspecified('" + E.Cty.str() + "')";
  case ExprKind::Case:
  case ExprKind::ECase: {
    std::string Out = "case " + Kid(0) + " with\n";
    for (const auto &[Pat, Body] : E.Branches)
      Out += ind(Indent + 1) + "| " + Pat.str(Syms) + " =>\n" +
             ind(Indent + 2) + printExpr(*Body, Syms, Indent + 2) + "\n";
    Out += ind(Indent) + "end";
    return Out;
  }
  case ExprKind::ArrayShiftE:
    return fmt("array_shift({0}, '{1}', {2})", Kid(0), E.Cty.str(), Kid(1));
  case ExprKind::MemberShiftE:
    return fmt("member_shift({0}, tag#{1}.{2})", Kid(0), E.Tag, E.MemberIdx);
  case ExprKind::Not:
    return "not(" + Kid(0) + ")";
  case ExprKind::Binop:
    return "(" + Kid(0) + " " + std::string(coreBinopSpelling(E.BOp)) + " " +
           Kid(1) + ")";
  case ExprKind::PureCall: {
    std::vector<std::string> Parts;
    for (size_t I = 0; I < E.Kids.size(); ++I)
      Parts.push_back(Kid(I));
    return E.Str + "(" + join(Parts, ", ") + ")";
  }
  case ExprKind::PureLet:
    return "let " + E.Pat.str(Syms) + " = " + Kid(0) + " in\n" +
           ind(Indent) + KidI(1, 0);
  case ExprKind::PureIf:
  case ExprKind::EIf:
    return "if " + Kid(0) + " then\n" + ind(Indent + 1) + KidI(1, 1) + "\n" +
           ind(Indent) + "else\n" + ind(Indent + 1) + KidI(2, 1);
  case ExprKind::IsInteger:
    return "is_integer(" + Kid(0) + ")";
  case ExprKind::IsSigned:
    return "is_signed(" + Kid(0) + ")";
  case ExprKind::IsUnsigned:
    return "is_unsigned(" + Kid(0) + ")";
  case ExprKind::IsScalar:
    return "is_scalar(" + Kid(0) + ")";
  case ExprKind::FinishArith:
    return fmt("finish_arith[{0}, '{1}']({2}, {3}, {4})",
               arithOpName(E.AOp), E.Cty.str(), Kid(0), Kid(1), Kid(2));
  case ExprKind::ConvInt:
    return fmt("conv_int('{0}', {1})", E.Cty.str(), Kid(0));
  case ExprKind::PtrOp: {
    std::vector<std::string> Parts;
    for (size_t I = 0; I < E.Kids.size(); ++I)
      Parts.push_back(Kid(I));
    std::string Name = std::string(ptrOpName(E.POp));
    if (E.POp == PtrOpKind::IntFromPtr || E.POp == PtrOpKind::PtrFromInt)
      Name += fmt("['{0}']", E.Cty.str());
    return "ptrop(" + Name + ", " + join(Parts, ", ") + ")";
  }
  case ExprKind::Action: {
    std::vector<std::string> Parts;
    if (E.Act == ActionKind::Create)
      Parts.push_back("'" + E.Cty.str() + "'");
    if (E.Act == ActionKind::Store || E.Act == ActionKind::Load)
      Parts.push_back("'" + E.Cty.str() + "'");
    for (size_t I = 0; I < E.Kids.size(); ++I)
      Parts.push_back(Kid(I));
    if (E.AtomicAccess)
      Parts.push_back("seq_cst");
    std::string Out =
        std::string(actionName(E.Act)) + "(" + join(Parts, ", ") + ")";
    if (E.NegPolarity)
      return "neg(" + Out + ")";
    return Out;
  }
  case ExprKind::Skip:
    return "skip";
  case ExprKind::ELet:
    return "let " + E.Pat.str(Syms) + " = " + Kid(0) + " in\n" +
           ind(Indent) + KidI(1, 0);
  case ExprKind::ProcCall: {
    std::vector<std::string> Parts;
    for (size_t I = 0; I < E.Kids.size(); ++I)
      Parts.push_back(Kid(I));
    return "pcall(" + Syms.nameOf(E.Sym) +
           (Parts.empty() ? "" : ", " + join(Parts, ", ")) + ")";
  }
  case ExprKind::CallPtr: {
    std::vector<std::string> Parts;
    for (size_t I = 0; I < E.Kids.size(); ++I)
      Parts.push_back(Kid(I));
    return "pcall_indirect(" + join(Parts, ", ") + ")";
  }
  case ExprKind::Ret:
    return "return(" + Kid(0) + ")";
  case ExprKind::Unseq: {
    std::vector<std::string> Parts;
    for (size_t I = 0; I < E.Kids.size(); ++I)
      Parts.push_back(Kid(I));
    return "unseq(" + join(Parts, ", ") + ")";
  }
  case ExprKind::LetWeak:
    return "let weak " + E.Pat.str(Syms) + " = " + Kid(0) + " in\n" +
           ind(Indent) + KidI(1, 0);
  case ExprKind::LetStrong:
    return "let strong " + E.Pat.str(Syms) + " = " + Kid(0) + " in\n" +
           ind(Indent) + KidI(1, 0);
  case ExprKind::LetAtomic:
    return "let atomic " + E.Pat.str(Syms) + " = " + Kid(0) + " in " +
           Kid(1);
  case ExprKind::Indet:
    return fmt("indet[{0}](", E.IndetId) + Kid(0) + ")";
  case ExprKind::Bound:
    return fmt("bound[{0}](", E.IndetId) + Kid(0) + ")";
  case ExprKind::Nd: {
    std::vector<std::string> Parts;
    for (size_t I = 0; I < E.Kids.size(); ++I)
      Parts.push_back(Kid(I));
    return "nd(" + join(Parts, ", ") + ")";
  }
  case ExprKind::Save: {
    std::string Out = "save " + Syms.nameOf(E.Sym) + "(";
    std::vector<std::string> Objs;
    for (const ScopeObject &O : E.Scope)
      Objs.push_back(Syms.nameOf(O.Obj) + ": '" + O.Ty.str() + "'");
    Out += join(Objs, ", ") + ") in\n" + ind(Indent + 1) + KidI(0, 1);
    return Out;
  }
  case ExprKind::Run:
    return "run " + Syms.nameOf(E.Sym) + "()";
  case ExprKind::Par: {
    std::vector<std::string> Parts;
    for (size_t I = 0; I < E.Kids.size(); ++I)
      Parts.push_back(Kid(I));
    return "par(" + join(Parts, ", ") + ")";
  }
  case ExprKind::Wait:
    return "wait(" + Kid(0) + ")";
  }
  return "?";
}

std::string core::printProgram(const CoreProgram &P) {
  std::string Out;
  for (const CoreGlobal &G : P.Globals) {
    Out += fmt("glob {0}: '{1}'", P.Syms.nameOf(G.Name), G.Ty.str());
    if (G.Init)
      Out += " :=\n  " + printExpr(*G.Init, P.Syms, 1);
    Out += "\n\n";
  }
  for (const auto &[Id, Proc] : P.Procs) {
    std::vector<std::string> Params;
    for (const auto &[S, Ty] : Proc.Params)
      Params.push_back(P.Syms.nameOf(S) + ": '" + Ty.str() + "'");
    Out += fmt("proc {0}({1}): eff loaded '{2}' :=\n  ",
               P.Syms.nameOf(Proc.Name), join(Params, ", "),
               Proc.ReturnTy.str());
    Out += printExpr(*Proc.Body, P.Syms, 1);
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

ExprPtr core::cloneExpr(const Expr &E) {
  auto Out = std::make_unique<Expr>();
  Out->K = E.K;
  Out->Loc = E.Loc;
  Out->Sym = E.Sym;
  Out->V = E.V;
  Out->UB = E.UB;
  Out->Str = E.Str;
  Out->BOp = E.BOp;
  Out->AOp = E.AOp;
  Out->POp = E.POp;
  Out->Act = E.Act;
  Out->NegPolarity = E.NegPolarity;
  Out->AtomicAccess = E.AtomicAccess;
  Out->Cty = E.Cty;
  Out->Tag = E.Tag;
  Out->MemberIdx = E.MemberIdx;
  Out->IndetId = E.IndetId;
  Out->SeqPoint = E.SeqPoint;
  Out->Slot = E.Slot;
  Out->PoolIdx = E.PoolIdx;
  Out->SaveMask = E.SaveMask;
  Out->Pure = E.Pure;
  Out->ValueOnly = E.ValueOnly;
  Out->Pat = E.Pat;
  Out->Scope = E.Scope;
  for (const ExprPtr &K : E.Kids)
    Out->Kids.push_back(cloneExpr(*K));
  for (const auto &[Pat, Body] : E.Branches)
    Out->Branches.emplace_back(Pat, cloneExpr(*Body));
  return Out;
}

//===----------------------------------------------------------------------===//
// Core-to-Core rewrites
//===----------------------------------------------------------------------===//

namespace {

bool isValueExpr(const Expr &E) { return E.K == ExprKind::Val; }

void rewriteExpr(ExprPtr &E, RewriteStats &Stats) {
  for (ExprPtr &K : E->Kids)
    rewriteExpr(K, Stats);
  for (auto &[Pat, Body] : E->Branches)
    rewriteExpr(Body, Stats);

  switch (E->K) {
  case ExprKind::Unseq:
    if (E->Kids.size() == 1) {
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
    if (E->Kids[0]->K == ExprKind::Val) {
      bool Cond = E->Kids[0]->V.isTrue();
      ExprPtr Taken = std::move(E->Kids[Cond ? 1 : 2]);
      E = std::move(Taken);
      ++Stats.ConstIfsFolded;
    }
    break;
  case ExprKind::PureLet:
  case ExprKind::ELet:
    // let x = v in x  ->  v ; and let _ = v in e -> e for pure v.
    if (E->Pat.K == PatKind::Wild && isValueExpr(*E->Kids[0])) {
      ExprPtr Body = std::move(E->Kids[1]);
      E = std::move(Body);
      ++Stats.PureLetsInlined;
      break;
    }
    if (E->Pat.K == PatKind::Sym && isValueExpr(*E->Kids[0]) &&
        E->Kids[1]->K == ExprKind::Sym && E->Kids[1]->Sym == E->Pat.S) {
      ExprPtr V = std::move(E->Kids[0]);
      E = std::move(V);
      ++Stats.PureLetsInlined;
    }
    break;
  case ExprKind::LetStrong:
    // let strong _ = skip in e  ->  e
    if (E->Pat.K == PatKind::Wild && E->Kids[0]->K == ExprKind::Skip) {
      ExprPtr Body = std::move(E->Kids[1]);
      E = std::move(Body);
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
    for (const ExprPtr &K : E.Kids)
      if (hasEffects(*K)) {
        R = true;
        break;
      }
    if (!R)
      for (const auto &[Pat, Body] : E.Branches)
        if (hasEffects(*Body)) {
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
  for (const ExprPtr &K : E.Kids)
    warmExpr(*K);
  for (const auto &[Pat, Body] : E.Branches)
    warmExpr(*Body);
  (void)core::hasEffects(E);
}
} // namespace

void core::warmDynamicsCaches(const CoreProgram &P) {
  for (const auto &[Id, Proc] : P.Procs)
    if (Proc.Body)
      warmExpr(*Proc.Body);
  for (const CoreGlobal &G : P.Globals)
    if (G.Init)
      warmExpr(*G.Init);
}

RewriteStats core::rewrite(CoreProgram &P) {
  RewriteStats Stats;
  for (auto &[Id, Proc] : P.Procs)
    rewriteExpr(Proc.Body, Stats);
  for (CoreGlobal &G : P.Globals)
    if (G.Init)
      rewriteExpr(G.Init, Stats);
  return Stats;
}

//===----------------------------------------------------------------------===//
// Core checking (purity discipline)
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

/// Checks the purity discipline: pure contexts must not contain effects.
std::optional<std::string> checkPurity(const Expr &E, bool PureContext,
                                       const ail::SymbolTable &Syms) {
  if (PureContext && !isPureKind(E.K))
    return fmt("effectful Core construct in a pure context at {0}",
               E.Loc.str());

  switch (E.K) {
  // Pure constructs: all children pure.
  case ExprKind::Tuple: case ExprKind::SpecifiedE: case ExprKind::Case:
  case ExprKind::ArrayShiftE: case ExprKind::MemberShiftE:
  case ExprKind::Not: case ExprKind::Binop: case ExprKind::PureCall:
  case ExprKind::PureLet: case ExprKind::PureIf: case ExprKind::IsInteger:
  case ExprKind::IsSigned: case ExprKind::IsUnsigned: case ExprKind::IsScalar:
  case ExprKind::FinishArith: case ExprKind::ConvInt:
    for (const ExprPtr &K : E.Kids)
      if (auto R = checkPurity(*K, true, Syms))
        return R;
    for (const auto &[Pat, Body] : E.Branches)
      if (auto R = checkPurity(*Body, true, Syms))
        return R;
    return std::nullopt;

  case ExprKind::Sym: case ExprKind::Val: case ExprKind::ImplConst:
  case ExprKind::Undef: case ExprKind::ErrorE: case ExprKind::UnspecifiedE:
  case ExprKind::Skip:
    return std::nullopt;

  // Effectful constructs whose *scrutinees/operands* must be pure but whose
  // bodies are effectful (Fig. 2: `let pat = pe in e`, `if pe then e1 else
  // e2`, case pe with effect branches).
  case ExprKind::ELet:
    if (auto R = checkPurity(*E.Kids[0], true, Syms))
      return R;
    return checkPurity(*E.Kids[1], PureContext, Syms);
  case ExprKind::EIf:
    if (auto R = checkPurity(*E.Kids[0], true, Syms))
      return R;
    if (auto R = checkPurity(*E.Kids[1], PureContext, Syms))
      return R;
    return checkPurity(*E.Kids[2], PureContext, Syms);
  case ExprKind::ECase:
    if (auto R = checkPurity(*E.Kids[0], true, Syms))
      return R;
    for (const auto &[Pat, Body] : E.Branches)
      if (auto R = checkPurity(*Body, PureContext, Syms))
        return R;
    return std::nullopt;

  // Actions and pointer ops: operands pure.
  case ExprKind::Action:
  case ExprKind::PtrOp:
  case ExprKind::Ret:
  case ExprKind::ProcCall:
  case ExprKind::CallPtr:
  case ExprKind::Run:
  case ExprKind::Wait:
    for (const ExprPtr &K : E.Kids)
      if (auto R = checkPurity(*K, true, Syms))
        return R;
    return std::nullopt;

  // Sequencing: children effectful.
  case ExprKind::Unseq:
  case ExprKind::Nd:
  case ExprKind::Par:
    for (const ExprPtr &K : E.Kids)
      if (auto R = checkPurity(*K, false, Syms))
        return R;
    return std::nullopt;
  case ExprKind::LetWeak:
  case ExprKind::LetStrong:
    if (auto R = checkPurity(*E.Kids[0], false, Syms))
      return R;
    return checkPurity(*E.Kids[1], false, Syms);
  case ExprKind::LetAtomic: {
    // Both sides must be actions (possibly negated), Fig. 2.
    for (const ExprPtr &K : E.Kids)
      if (K->K != ExprKind::Action)
        return fmt("let atomic operand is not a memory action at {0}",
                   E.Loc.str());
    for (const ExprPtr &K : E.Kids)
      for (const ExprPtr &Sub : K->Kids)
        if (auto R = checkPurity(*Sub, true, Syms))
          return R;
    return std::nullopt;
  }
  case ExprKind::Indet:
  case ExprKind::Bound:
  case ExprKind::Save:
    return checkPurity(*E.Kids[0], false, Syms);
  }
  return std::nullopt;
}

} // namespace

bool core::isPureExpr(const Expr &E) {
  if (!isPureKind(E.K))
    return false;
  for (const ExprPtr &K : E.Kids)
    if (!isPureExpr(*K))
      return false;
  for (const auto &[Pat, Body] : E.Branches)
    if (!isPureExpr(*Body))
      return false;
  return true;
}

namespace {

/// Static scoping discipline: every Core identifier must be lexically
/// bound (globals, value parameters, let/case patterns), every `run` must
/// target a `save` of the same procedure, and every pcall a known
/// procedure or builtin. Catches elaboration bugs before the dynamics can
/// hit an "unbound identifier" at run time.
class ScopeChecker {
public:
  ScopeChecker(const CoreProgram &P) : P(P) {
    for (const CoreGlobal &G : P.Globals)
      Bound.insert(G.Name.Id);
  }

  std::optional<std::string> check(const Expr &E) {
    switch (E.K) {
    case ExprKind::Sym:
      if (!Bound.count(E.Sym.Id))
        return fmt("unbound Core identifier '{0}' at {1}",
                   P.Syms.nameOf(E.Sym), E.Loc.str());
      return std::nullopt;
    case ExprKind::ProcCall:
      if (!P.Procs.count(E.Sym.Id) && !P.Builtins.count(E.Sym.Id))
        return fmt("pcall of unknown procedure '{0}' at {1}",
                   P.Syms.nameOf(E.Sym), E.Loc.str());
      return checkKids(E);
    case ExprKind::Run:
      if (!Labels.count(E.Sym.Id))
        return fmt("run of unknown label '{0}' at {1}",
                   P.Syms.nameOf(E.Sym), E.Loc.str());
      return checkKids(E);
    case ExprKind::PureLet:
    case ExprKind::ELet:
    case ExprKind::LetWeak:
    case ExprKind::LetStrong:
    case ExprKind::LetAtomic: {
      if (auto R = check(*E.Kids[0]))
        return R;
      size_t Mark = Introduced.size();
      bindPattern(E.Pat);
      auto R = check(*E.Kids[1]);
      unbindTo(Mark);
      return R;
    }
    case ExprKind::Case:
    case ExprKind::ECase: {
      if (auto R = check(*E.Kids[0]))
        return R;
      for (const auto &[Pat, Body] : E.Branches) {
        size_t Mark = Introduced.size();
        bindPattern(Pat);
        auto R = check(*Body);
        unbindTo(Mark);
        if (R)
          return R;
      }
      return std::nullopt;
    }
    default:
      return checkKids(E);
    }
  }

  void collectLabels(const Expr &E) {
    if (E.K == ExprKind::Save)
      Labels.insert(E.Sym.Id);
    for (const ExprPtr &K : E.Kids)
      collectLabels(*K);
    for (const auto &[Pat, Body] : E.Branches)
      collectLabels(*Body);
  }

  void bind(unsigned Id) {
    if (Bound.insert(Id).second)
      Introduced.push_back(Id);
  }
  void resetProc() {
    Labels.clear();
  }

private:
  const CoreProgram &P;
  std::set<unsigned> Bound;
  std::set<unsigned> Labels;
  std::vector<unsigned> Introduced;

  std::optional<std::string> checkKids(const Expr &E) {
    for (const ExprPtr &K : E.Kids)
      if (auto R = check(*K))
        return R;
    for (const auto &[Pat, Body] : E.Branches)
      if (auto R = check(*Body))
        return R;
    return std::nullopt;
  }
  void bindPattern(const Pattern &Pat) {
    if (Pat.K == PatKind::Sym)
      bind(Pat.S.Id);
    for (const Pattern &Sub : Pat.Subs)
      bindPattern(Sub);
  }
  void unbindTo(size_t Mark) {
    while (Introduced.size() > Mark) {
      Bound.erase(Introduced.back());
      Introduced.pop_back();
    }
  }
};

} // namespace

std::optional<std::string> core::typeCheck(const CoreProgram &P) {
  ScopeChecker Scopes(P);
  for (const auto &[Id, Proc] : P.Procs) {
    if (!Proc.Body)
      return fmt("procedure '{0}' has no body", P.Syms.nameOf(Proc.Name));
    if (auto R = checkPurity(*Proc.Body, false, P.Syms))
      return fmt("in procedure '{0}': ", P.Syms.nameOf(Proc.Name)) + *R;
    Scopes.resetProc();
    Scopes.collectLabels(*Proc.Body);
    for (const auto &[Sym, Ty] : Proc.Params)
      Scopes.bind(Sym.Id);
    if (auto R = Scopes.check(*Proc.Body))
      return fmt("in procedure '{0}': ", P.Syms.nameOf(Proc.Name)) + *R;
  }
  for (const CoreGlobal &G : P.Globals)
    if (G.Init) {
      if (auto R = checkPurity(*G.Init, false, P.Syms))
        return fmt("in global '{0}': ", P.Syms.nameOf(G.Name)) + *R;
      Scopes.resetProc();
      if (auto R = Scopes.check(*G.Init))
        return fmt("in global '{0}': ", P.Syms.nameOf(G.Name)) + *R;
    }
  return std::nullopt;
}
