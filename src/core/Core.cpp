//===-- core/Core.cpp -----------------------------------------------------===//

#include "core/Core.h"

#include "support/DepthGuard.h"
#include "support/Format.h"

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

namespace {
/// A heap buffer of \p N bytes, plus a flat 16 for the allocator's header
/// and rounding; an empty buffer is no allocation.
uint64_t heapBlock(uint64_t N) { return N ? N + 16 : 0; }

/// A string's heap buffer: none while it fits the in-object one.
uint64_t stringBytes(const std::string &S) {
  static const size_t InlineChars = std::string().capacity();
  return S.capacity() > InlineChars ? heapBlock(S.capacity() + 1) : 0;
}

/// Patterns nest only as deep as the tuples they take apart.
uint64_t patternBytes(const Pattern &P) {
  uint64_t N = heapBlock(P.Subs.capacity() * sizeof(Pattern));
  for (const Pattern &Sub : P.Subs)
    N += patternBytes(Sub);
  return N;
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
               heapBlock(P.Syms.size() * sizeof(std::string)) +
               heapBlock(P.Syms.size() * sizeof(ail::SymbolKind)) +
               heapBlock(P.Tags.size() * sizeof(ail::TagDef)) +
               heapBlock(P.Globals.capacity() * sizeof(CoreGlobal)) +
               P.Builtins.size() * mapNode<std::pair<unsigned, ail::Builtin>>();
  for (const Value &V : P.ConstPool)
    N += V.heapBytes();
  for (unsigned Id = 0; Id < P.Syms.size(); ++Id)
    N += stringBytes(P.Syms.nameOf(Symbol{Id}));
  for (unsigned Tag = 0; Tag < P.Tags.size(); ++Tag) {
    const ail::TagDef &D = P.Tags.get(Tag);
    N += stringBytes(D.Name) +
         heapBlock(D.Members.capacity() * sizeof(ail::TagMember));
    for (const ail::TagMember &M : D.Members)
      N += stringBytes(M.Name);
  }
  std::vector<const Expr *> Todo;
  for (const auto &[Id, Proc] : P.Procs) {
    N += mapNode<std::pair<unsigned, CoreProc>>() +
         heapBlock(Proc.Params.capacity() * sizeof(Proc.Params[0])) +
         heapBlock(Proc.ParamSlots.capacity() * sizeof(int));
    if (Proc.Body)
      Todo.push_back(Proc.Body.get());
  }
  for (const CoreGlobal &G : P.Globals)
    if (G.Init)
      Todo.push_back(G.Init.get());
  while (!Todo.empty()) {
    const Expr &E = *Todo.back();
    Todo.pop_back();
    N += heapBlock(sizeof(Expr)) + E.V.heapBytes() + stringBytes(E.Str) +
         patternBytes(E.Pat) +
         heapBlock(E.Kids.capacity() * sizeof(ExprPtr)) +
         heapBlock(E.Branches.capacity() * sizeof(E.Branches[0])) +
         heapBlock(E.Scope.capacity() * sizeof(ScopeObject));
    for (const ExprPtr &K : E.Kids)
      Todo.push_back(K.get());
    for (const auto &[Pat, Body] : E.Branches) {
      N += patternBytes(Pat);
      Todo.push_back(Body.get());
    }
  }
  return N;
}

//===----------------------------------------------------------------------===//
// Core-to-Core rewrites
//===----------------------------------------------------------------------===//

namespace {

bool isValueExpr(const Expr &E) { return E.K == ExprKind::Val; }

/// Past MaxCoreDepth the deeper nodes are left as they are; core::typeCheck
/// refuses such a program.
void rewriteExpr(ExprPtr &E, RewriteStats &Stats, unsigned &Depth) {
  DepthGuard G(Depth, MaxCoreDepth);
  if (!G)
    return;
  for (ExprPtr &K : E->Kids)
    rewriteExpr(K, Stats, Depth);
  for (auto &[Pat, Body] : E->Branches)
    rewriteExpr(Body, Stats, Depth);

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
    for (const Pattern &Sub : Pat.Subs)
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
      for (const ExprPtr &K : E.Kids)
        if (!walk(*K, true))
          return false;
      for (const auto &[Pat, Body] : E.Branches) {
        size_t Mark = Introduced.size();
        bindPattern(Pat);
        bool Ok = walk(*Body, BranchPure);
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
      for (const ExprPtr &K : E.Kids)
        if (K->K != ExprKind::Action) {
          PurityErr = fmt("let atomic operand is not a memory action at {0}",
                          E.Loc.str());
          return false;
        }
      return walkLet(E, false, false);
    case ExprKind::EIf:
      return walk(*E.Kids[0], true) && walk(*E.Kids[1], PureContext) &&
             walk(*E.Kids[2], PureContext);

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
    for (const ExprPtr &K : E.Kids)
      if (!walk(*K, PureContext))
        return false;
    for (const auto &[Pat, Body] : E.Branches)
      if (!walk(*Body, PureContext))
        return false;
    return true;
  }

  /// `let Pat = Kids[0] in Kids[1]`: Pat scopes over the body only.
  bool walkLet(const Expr &E, bool PureBound, bool PureBody) {
    if (!walk(*E.Kids[0], PureBound))
      return false;
    size_t Mark = Introduced.size();
    bindPattern(E.Pat);
    bool Ok = walk(*E.Kids[1], PureBody);
    unbindTo(Mark);
    return Ok;
  }
};

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
