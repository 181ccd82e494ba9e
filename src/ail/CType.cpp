//===-- ail/CType.cpp -----------------------------------------------------===//

#include "ail/CType.h"

#include <algorithm>

using namespace cerb;
using namespace cerb::ail;

std::string_view cerb::ail::intKindName(IntKind K) {
  switch (K) {
  case IntKind::Bool:
    return "_Bool";
  case IntKind::Char:
    return "char";
  case IntKind::SChar:
    return "signed char";
  case IntKind::UChar:
    return "unsigned char";
  case IntKind::Short:
    return "short";
  case IntKind::UShort:
    return "unsigned short";
  case IntKind::Int:
    return "int";
  case IntKind::UInt:
    return "unsigned int";
  case IntKind::Long:
    return "long";
  case IntKind::ULong:
    return "unsigned long";
  case IntKind::LongLong:
    return "long long";
  case IntKind::ULongLong:
    return "unsigned long long";
  }
  return "<bad-int-kind>";
}

bool cerb::ail::isUnsignedKind(IntKind K) {
  switch (K) {
  case IntKind::Bool:
  case IntKind::UChar:
  case IntKind::UShort:
  case IntKind::UInt:
  case IntKind::ULong:
  case IntKind::ULongLong:
    return true;
  case IntKind::Char:
    return false; // plain char is signed in our ImplEnv
  case IntKind::SChar:
  case IntKind::Short:
  case IntKind::Int:
  case IntKind::Long:
  case IntKind::LongLong:
    return false;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// CType
//===----------------------------------------------------------------------===//

namespace {
constexpr CTypeNode builtinNode(CTypeKind K, IntKind I = IntKind::Int) {
  CTypeNode N;
  N.Kind = K;
  N.Int = I;
  return N;
}
} // namespace

constinit const CTypeNode cerb::ail::detail::BuiltinTypes[13] = {
    builtinNode(CTypeKind::Void),
    builtinNode(CTypeKind::Integer, IntKind::Bool),
    builtinNode(CTypeKind::Integer, IntKind::Char),
    builtinNode(CTypeKind::Integer, IntKind::SChar),
    builtinNode(CTypeKind::Integer, IntKind::UChar),
    builtinNode(CTypeKind::Integer, IntKind::Short),
    builtinNode(CTypeKind::Integer, IntKind::UShort),
    builtinNode(CTypeKind::Integer, IntKind::Int),
    builtinNode(CTypeKind::Integer, IntKind::UInt),
    builtinNode(CTypeKind::Integer, IntKind::Long),
    builtinNode(CTypeKind::Integer, IntKind::ULong),
    builtinNode(CTypeKind::Integer, IntKind::LongLong),
    builtinNode(CTypeKind::Integer, IntKind::ULongLong),
};

std::string CType::str() const {
  if (!isValid())
    return "<invalid-type>";
  switch (kind()) {
  case CTypeKind::Void:
    return "void";
  case CTypeKind::Integer:
    return std::string(intKindName(intKind()));
  case CTypeKind::Pointer:
    return pointee().str() + "*";
  case CTypeKind::Array:
    return element().str() +
           (arraySize() ? fmt("[{0}]", *arraySize()) : std::string("[]"));
  case CTypeKind::Function: {
    std::vector<std::string> Parts;
    for (const CType &P : paramTypes())
      Parts.push_back(P.str());
    if (isVariadic())
      Parts.push_back("...");
    return returnType().str() + "(" + join(Parts, ", ") + ")";
  }
  case CTypeKind::Struct:
    return fmt("struct#{0}", tag());
  case CTypeKind::Union:
    return fmt("union#{0}", tag());
  }
  return "<bad-type>";
}

//===----------------------------------------------------------------------===//
// TagTable
//===----------------------------------------------------------------------===//

std::optional<size_t> TagDef::memberIndex(std::string_view MemberName) const {
  for (size_t I = 0; I != Members.size(); ++I)
    if (Members[I].Name == MemberName)
      return I;
  return std::nullopt;
}

unsigned TagTable::createTag(bool IsUnion, std::string Name) {
  unsigned Tag = static_cast<unsigned>(Defs.size());
  auto *N = new (Nodes.alloc(sizeof(CTypeNode), alignof(CTypeNode)))
      CTypeNode();
  N->Kind = IsUnion ? CTypeKind::Union : CTypeKind::Struct;
  N->Tag = Tag;
  TagDef D;
  D.IsUnion = IsUnion;
  D.Name = std::move(Name);
  D.Ty = CType(N);
  Defs.push_back(std::move(D));
  return Tag;
}

CType TagTable::pointerTo(CType Pointee) {
  assert(Pointee.isValid() && "pointer to invalid type");
  CTypeNode Key;
  Key.Kind = CTypeKind::Pointer;
  Key.Inner = Pointee.Node;
  return intern(Key);
}

CType TagTable::arrayOf(CType Elem, std::optional<uint64_t> Size) {
  assert(Elem.isValid() && "array of invalid type");
  CTypeNode Key;
  Key.Kind = CTypeKind::Array;
  Key.Inner = Elem.Node;
  Key.Sized = Size.has_value();
  Key.ArraySize = Size.value_or(0);
  return intern(Key);
}

CType TagTable::functionType(CType Ret, std::span<const CType> Params,
                             bool Variadic) {
  assert(Ret.isValid() && "function returning invalid type");
  assert(std::all_of(Params.begin(), Params.end(),
                     [](CType P) { return P.isValid(); }) &&
         "invalid parameter type");
  CTypeNode Key;
  Key.Kind = CTypeKind::Function;
  Key.Inner = Ret.Node;
  Key.Variadic = Variadic;
  Key.NumParams = static_cast<uint32_t>(Params.size());
  Key.Params = Params.data();
  return intern(Key);
}

namespace {
/// A hash of the node's own fields: its operands are interned already, so
/// their addresses stand for them.
size_t hashNode(const CTypeNode &N) {
  uint64_t H = 0xcbf29ce484222325ull ^ static_cast<uint64_t>(N.Kind);
  auto Mix = [&H](uint64_t X) {
    H = (H ^ X) * 0x100000001b3ull;
    H ^= H >> 32;
  };
  Mix(reinterpret_cast<uintptr_t>(N.Inner));
  Mix(N.ArraySize);
  Mix(uint64_t(N.Sized) | uint64_t(N.Variadic) << 1 |
      uint64_t(N.NumParams) << 2);
  for (CType P : std::span<const CType>(N.Params, N.NumParams))
    Mix(std::hash<CType>()(P));
  return static_cast<size_t>(H);
}

bool sameNode(const CTypeNode &A, const CTypeNode &B) {
  return A.Kind == B.Kind && A.Inner == B.Inner && A.Sized == B.Sized &&
         A.ArraySize == B.ArraySize && A.Variadic == B.Variadic &&
         std::equal(A.Params, A.Params + A.NumParams, B.Params,
                    B.Params + B.NumParams);
}

constexpr size_t FirstIndex = 64;
} // namespace

CType TagTable::intern(const CTypeNode &Key) {
  if (2 * (Interned + 1) > Index.size())
    rehash(std::max(FirstIndex, 2 * Index.size()));
  size_t Mask = Index.size() - 1;
  size_t I = hashNode(Key) & Mask;
  for (; Index[I]; I = (I + 1) & Mask)
    if (sameNode(*Index[I], Key))
      return CType(Index[I]);
  auto *N = new (Nodes.alloc(sizeof(CTypeNode), alignof(CTypeNode)))
      CTypeNode(Key);
  auto *Params = static_cast<CType *>(
      Nodes.alloc(Key.NumParams * sizeof(CType), alignof(CType)));
  std::uninitialized_copy_n(Key.Params, Key.NumParams, Params);
  N->Params = Params;
  Index[I] = N;
  ++Interned;
  return CType(N);
}

void TagTable::rehash(size_t Capacity) {
  std::vector<const CTypeNode *> Old(Capacity, nullptr);
  Old.swap(Index);
  size_t Mask = Capacity - 1;
  for (const CTypeNode *N : Old) {
    if (!N)
      continue;
    size_t I = hashNode(*N) & Mask;
    while (Index[I])
      I = (I + 1) & Mask;
    Index[I] = N;
  }
}

uint64_t TagTable::typeBytes() const {
  uint64_t IndexBytes = Index.capacity() * sizeof(Index[0]);
  return Nodes.bytes() + (IndexBytes ? IndexBytes + 16 : 0);
}

// Sizes saturate instead of wrapping round 2^64: a type too large for the
// address space must not pass an allocation or access check as a small one.
static uint64_t addSat(uint64_t A, uint64_t B) {
  uint64_t R;
  return __builtin_add_overflow(A, B, &R) ? UINT64_MAX : R;
}
static uint64_t mulSat(uint64_t A, uint64_t B) {
  uint64_t R;
  return __builtin_mul_overflow(A, B, &R) ? UINT64_MAX : R;
}
static uint64_t alignUp(uint64_t N, uint64_t A) {
  return addSat(N, A - 1) / A * A;
}

void TagTable::complete(unsigned Tag, std::vector<TagMember> Members) {
  TagDef &D = get(Tag);
  assert(!D.Complete && "completing an already-complete tag");
  D.Members = std::move(Members);
  D.Complete = true;
  // Member tags are complete, so their layouts are known: one pass lays
  // this one out, and no query ever walks the members again.
  ImplEnv Env(*this);
  uint64_t End = 0;
  D.Offsets.reserve(D.Members.size());
  for (const TagMember &M : D.Members) {
    uint64_t A = Env.alignOf(M.Ty);
    uint64_t S = M.Ty.isArray() && !M.Ty.arraySize() ? 0 : Env.sizeOf(M.Ty);
    D.Align = std::max(D.Align, A);
    uint64_t Off = D.IsUnion ? 0 : alignUp(End, A);
    D.Offsets.push_back(Off);
    End = D.IsUnion ? std::max(End, S) : addSat(Off, S);
  }
  // Empty structs and unions are a GNU extension with size 0; avoid 0.
  D.Size = End == 0 && (D.IsUnion || D.Members.empty()) ? 1
                                                        : alignUp(End, D.Align);
}

const TagDef &TagTable::get(unsigned Tag) const {
  assert(Tag < Defs.size() && "tag id out of range");
  return Defs[Tag];
}

TagDef &TagTable::get(unsigned Tag) {
  assert(Tag < Defs.size() && "tag id out of range");
  return Defs[Tag];
}

//===----------------------------------------------------------------------===//
// ImplEnv
//===----------------------------------------------------------------------===//

unsigned ImplEnv::widthOf(IntKind K) const {
  switch (K) {
  case IntKind::Bool:
    return 8; // storage width; value range is {0,1}
  case IntKind::Char:
  case IntKind::SChar:
  case IntKind::UChar:
    return 8;
  case IntKind::Short:
  case IntKind::UShort:
    return 16;
  case IntKind::Int:
  case IntKind::UInt:
    return 32;
  case IntKind::Long:
  case IntKind::ULong:
  case IntKind::LongLong:
  case IntKind::ULongLong:
    return 64;
  }
  return 0;
}

Int128 ImplEnv::minOf(IntKind K) const {
  if (isUnsignedKind(K))
    return 0;
  unsigned W = widthOf(K);
  return -(Int128(1) << (W - 1));
}

Int128 ImplEnv::maxOf(IntKind K) const {
  if (K == IntKind::Bool)
    return 1;
  unsigned W = widthOf(K);
  if (isUnsignedKind(K))
    return (Int128(1) << W) - 1;
  return (Int128(1) << (W - 1)) - 1;
}

bool ImplEnv::inRange(IntKind K, Int128 V) const {
  return V >= minOf(K) && V <= maxOf(K);
}

Int128 ImplEnv::wrapUnsigned(IntKind K, Int128 V) const {
  assert(isUnsignedKind(K) && "wrapUnsigned on signed kind");
  if (K == IntKind::Bool)
    return V != 0 ? 1 : 0;
  UInt128 Mask = (UInt128(1) << widthOf(K)) - 1;
  return static_cast<Int128>(static_cast<UInt128>(V) & Mask);
}

Int128 ImplEnv::convert(IntKind K, Int128 V) const {
  if (K == IntKind::Bool)
    return V != 0 ? 1 : 0;
  if (inRange(K, V))
    return V;
  if (isUnsignedKind(K))
    return wrapUnsigned(K, V);
  // Out-of-range signed conversion: implementation-defined (6.3.1.3p3).
  // We choose twos-complement wrapping, as all mainstream implementations do.
  unsigned W = widthOf(K);
  UInt128 Mask = (UInt128(1) << W) - 1;
  UInt128 U = static_cast<UInt128>(V) & Mask;
  if (U >= (UInt128(1) << (W - 1)))
    return static_cast<Int128>(U) - (Int128(1) << W);
  return static_cast<Int128>(U);
}

uint64_t ImplEnv::sizeOf(const CType &Ty) const {
  assert(Ty.isValid() && "sizeOf invalid type");
  switch (Ty.kind()) {
  case CTypeKind::Void:
    return 1; // GCC extension; used only for void* arithmetic guards
  case CTypeKind::Integer:
    return widthOf(Ty.intKind()) / 8;
  case CTypeKind::Pointer:
    return 8;
  case CTypeKind::Array: {
    assert(Ty.arraySize() && "sizeOf incomplete array");
    return mulSat(*Ty.arraySize(), sizeOf(Ty.element()));
  }
  case CTypeKind::Function:
    assert(false && "sizeOf function type");
    return 1;
  case CTypeKind::Struct:
  case CTypeKind::Union: {
    const TagDef &D = Tags.get(Ty.tag());
    assert(D.Complete && "sizeOf incomplete struct or union");
    return D.Size;
  }
  }
  return 1;
}

uint64_t ImplEnv::alignOf(const CType &Ty) const {
  assert(Ty.isValid() && "alignOf invalid type");
  switch (Ty.kind()) {
  case CTypeKind::Void:
    return 1;
  case CTypeKind::Integer:
    return widthOf(Ty.intKind()) / 8;
  case CTypeKind::Pointer:
    return 8;
  case CTypeKind::Array:
    return alignOf(Ty.element());
  case CTypeKind::Function:
    return 1;
  case CTypeKind::Struct:
  case CTypeKind::Union:
    return Tags.get(Ty.tag()).Align;
  }
  return 1;
}

uint64_t ImplEnv::offsetOf(unsigned Tag, size_t MemberIdx) const {
  const TagDef &D = Tags.get(Tag);
  assert(MemberIdx < D.Offsets.size() && "offsetOf member out of range");
  return D.Offsets[MemberIdx];
}
