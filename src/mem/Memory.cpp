//===-- mem/Memory.cpp ----------------------------------------------------===//

#include "mem/Memory.h"

#include "trace/Trace.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <cstring>

using namespace cerb;
using namespace cerb::mem;
using ail::CType;
using ail::CTypeKind;

/// Function pointers are encoded in byte images at this synthetic base.
static constexpr uint64_t FuncAddrBase = 0xF0000000ull;

//===----------------------------------------------------------------------===//
// UB catalogue
//===----------------------------------------------------------------------===//

std::string_view cerb::mem::ubName(UBKind K) {
  switch (K) {
  case UBKind::ExceptionalCondition: return "Exceptional_condition";
  case UBKind::DivisionByZero: return "Division_by_zero";
  case UBKind::NegativeShift: return "Negative_shift";
  case UBKind::ShiftTooLarge: return "Shift_too_large";
  case UBKind::AccessOutOfBounds: return "Access_out_of_bounds";
  case UBKind::AccessDeadObject: return "Access_dead_object";
  case UBKind::AccessNull: return "Access_null_pointer";
  case UBKind::AccessNoProvenance: return "Access_empty_provenance";
  case UBKind::MisalignedAccess: return "Misaligned_access";
  case UBKind::EffectiveTypeViolation: return "Effective_type_violation";
  case UBKind::UninitialisedRead: return "Uninitialised_read";
  case UBKind::WriteToReadOnly: return "Write_to_read_only";
  case UBKind::FreeInvalidPointer: return "Free_invalid_pointer";
  case UBKind::DoubleFree: return "Double_free";
  case UBKind::OutOfBoundsArithmetic: return "Out_of_bounds_arithmetic";
  case UBKind::PtrDiffDifferentObjects: return "Ptrdiff_different_objects";
  case UBKind::RelationalDifferentObjects:
    return "Relational_different_objects";
  case UBKind::UnsequencedRace: return "Unsequenced_race";
  case UBKind::DataRace: return "Data_race";
  case UBKind::IndeterminateValueUse: return "Indeterminate_value_use";
  case UBKind::CapabilityTagViolation: return "Capability_tag_violation";
  case UBKind::ReachedEndOfNonVoid: return "End_of_non_void_function";
  }
  return "Unknown_UB";
}

std::string_view cerb::mem::ubDescription(UBKind K) {
  switch (K) {
  case UBKind::ExceptionalCondition:
    return "result of arithmetic not representable in its type (6.5p5)";
  case UBKind::DivisionByZero:
    return "division or remainder by zero (6.5.5p5)";
  case UBKind::NegativeShift:
    return "shift by a negative amount (6.5.7p3)";
  case UBKind::ShiftTooLarge:
    return "shift by at least the width of the type (6.5.7p3)";
  case UBKind::AccessOutOfBounds:
    return "access outside the bounds of the object the pointer's "
           "provenance designates (DR260)";
  case UBKind::AccessDeadObject:
    return "access to an object whose lifetime has ended (6.2.4p2)";
  case UBKind::AccessNull:
    return "dereference of a null pointer (6.5.3.2p4)";
  case UBKind::AccessNoProvenance:
    return "access via a pointer with empty provenance (DR260)";
  case UBKind::MisalignedAccess:
    return "access via an insufficiently aligned pointer (6.3.2.3p7)";
  case UBKind::EffectiveTypeViolation:
    return "access incompatible with the object's effective type (6.5p7)";
  case UBKind::UninitialisedRead:
    return "read of an uninitialised object (6.3.2.1p2)";
  case UBKind::WriteToReadOnly:
    return "attempt to modify a string literal (6.4.5p7)";
  case UBKind::FreeInvalidPointer:
    return "free() of a pointer not from an allocation function (7.22.3.3)";
  case UBKind::DoubleFree:
    return "free() of an already-deallocated region (7.22.3.3)";
  case UBKind::OutOfBoundsArithmetic:
    return "pointer arithmetic outside the object plus one-past (6.5.6p8)";
  case UBKind::PtrDiffDifferentObjects:
    return "subtraction of pointers to different objects (6.5.6p9)";
  case UBKind::RelationalDifferentObjects:
    return "relational comparison of pointers to different objects "
           "(6.5.8p5)";
  case UBKind::UnsequencedRace:
    return "two unsequenced conflicting accesses to an object (6.5p2)";
  case UBKind::DataRace:
    return "conflicting unsynchronised accesses in different threads "
           "(5.1.2.4p25)";
  case UBKind::IndeterminateValueUse:
    return "use of an indeterminate value where that is undefined";
  case UBKind::CapabilityTagViolation:
    return "CHERI: memory access via an untagged capability";
  case UBKind::ReachedEndOfNonVoid:
    return "control reached the end of a non-void function (6.9.1p12)";
  }
  return "unknown undefined behaviour";
}

std::string UndefinedBehaviour::str() const {
  std::string Out = fmt("UB<{0}>: {1}", ubName(Kind), ubDescription(Kind));
  if (!Detail.empty())
    Out += " — " + Detail;
  if (Loc.isValid())
    Out += " at " + Loc.str();
  return Out;
}

std::string MemValue::str() const {
  switch (Kind) {
  case MemValueKind::Unspecified:
    return fmt("unspec({0})", Ty.str());
  case MemValueKind::Integer:
    return IV.str();
  case MemValueKind::Pointer:
    return PV.str();
  case MemValueKind::Array: {
    std::vector<std::string> Parts;
    for (const MemValue &E : Elems)
      Parts.push_back(E.str());
    return "[" + join(Parts, ", ") + "]";
  }
  case MemValueKind::Struct:
  case MemValueKind::Union: {
    std::vector<std::string> Parts;
    for (const MemValue &E : Elems)
      Parts.push_back(E.str());
    return "{" + join(Parts, ", ") + "}";
  }
  case MemValueKind::Bytes:
    return fmt("bytes[{0}]", Raw.size());
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Policy presets
//===----------------------------------------------------------------------===//

MemoryPolicy MemoryPolicy::concrete() {
  MemoryPolicy P;
  P.Name = "concrete";
  P.TrackProvenance = false;
  P.EqMayConsultProvenance = false;
  P.PtrDiffAcrossObjectsUB = false;
  return P;
}

MemoryPolicy MemoryPolicy::defacto() {
  return MemoryPolicy(); // the defaults are the candidate de facto model
}

MemoryPolicy MemoryPolicy::strictIso() {
  MemoryPolicy P;
  P.Name = "strict-iso";
  P.PermitOOBConstruction = false;
  P.RelationalAcrossObjectsUB = true;
  P.EqMayConsultProvenance = true;
  P.StrictEffectiveTypes = true;
  P.UninitReadIsUB = true;
  P.UninitByteOpsAreUB = true;
  P.CheckAlignment = true;
  return P;
}

MemoryPolicy MemoryPolicy::cheri() {
  MemoryPolicy P;
  P.Name = "cheri";
  P.Cheri = true;
  P.CheckAlignment = true;
  return P;
}

std::optional<MemoryPolicy> MemoryPolicy::byName(std::string_view Name) {
  // Case-insensitive: "CHERI", "DeFacto", and "strictiso" are accepted
  // spellings of their presets (the alias list below is matched lowercase).
  std::string Lower(Name);
  for (char &C : Lower)
    C = static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
  if (Lower == "concrete")
    return concrete();
  if (Lower == "defacto" || Lower == "de-facto")
    return defacto();
  if (Lower == "strict-iso" || Lower == "strictiso" || Lower == "strict" ||
      Lower == "iso")
    return strictIso();
  if (Lower == "cheri")
    return cheri();
  return std::nullopt;
}

Expected<MemoryPolicy> MemoryPolicy::named(std::string_view Name) {
  if (auto P = byName(Name))
    return *P;
  std::string Msg = "unknown memory-model policy '" + std::string(Name) +
                    "'; valid presets (case-insensitive):";
  for (const std::string &K : presetNames())
    Msg += " " + K;
  Msg += " (aliases: de-facto, strictIso, strict, iso)";
  return err(std::move(Msg));
}

const std::vector<std::string> &MemoryPolicy::presetNames() {
  static const std::vector<std::string> Names = {"concrete", "defacto",
                                                 "strict-iso", "cheri"};
  return Names;
}

std::vector<MemoryPolicy> MemoryPolicy::allPresets() {
  std::vector<MemoryPolicy> Out;
  for (const std::string &N : presetNames())
    Out.push_back(*byName(N));
  return Out;
}

uint64_t MemoryPolicy::fingerprint() const {
  // FNV-1a over one byte per knob, in declaration order. Appending new
  // knobs extends the stream (changing every fingerprint), which is
  // exactly the invalidation the serve cache wants.
  const bool Knobs[] = {
      TrackProvenance,    PermitOOBConstruction, RelationalAcrossObjectsUB,
      EqMayConsultProvenance, PtrDiffAcrossObjectsUB, StrictEffectiveTypes,
      UninitReadIsUB,     UninitByteOpsAreUB,    CheckAlignment,
      ReverseGlobalLayout, Cheri,                CheriExactEquals};
  uint64_t H = 0xcbf29ce484222325ull;
  for (bool K : Knobs) {
    H ^= K ? 1u : 0u;
    H *= 0x100000001b3ull;
  }
  return H;
}

//===----------------------------------------------------------------------===//
// Construction / allocation
//===----------------------------------------------------------------------===//

Memory::Memory(const ail::ImplEnv &Env, Scheduler &Sched, MemoryPolicy Policy)
    : Env(Env), Sched(Sched), Policy(std::move(Policy)) {}

void Memory::beginStaticLayout(
    const std::vector<std::pair<CType, std::string>> &Objects) {
  if (!Policy.ReverseGlobalLayout)
    return;
  // Assign ascending addresses to the objects in reverse declaration
  // order, so `int y=2, x=1;` places x immediately below y (the layout the
  // paper's provenance_basic_global_yx.c observes under GCC, §2.1).
  uint64_t Addr = NextAddr;
  for (auto It = Objects.rbegin(); It != Objects.rend(); ++It) {
    uint64_t A = Env.alignOf(It->first);
    Addr = align(Addr, A);
    PlannedAddr[It->second] = Addr;
    Addr += Env.sizeOf(It->first);
  }
  NextAddr = Addr;
}

MemByte *Memory::poolBytes(uint64_t N) {
  if (BytePool.empty() || PoolUsed + N > PoolCap) {
    // Doubling from a 64-byte floor keeps the chunk count logarithmic in
    // the bytes handed out.
    PoolCap = std::max<size_t>({N, 2 * PoolCap, 64});
    BytePool.push_back(std::make_unique<MemByte[]>(PoolCap));
    PoolUsed = 0;
  }
  MemByte *P = BytePool.back().get() + PoolUsed;
  PoolUsed += N;
  return P;
}

PointerValue Memory::allocateObject(const CType &Ty, std::string Name,
                                    bool Static) {
  static trace::Counter CntAllocs("mem.allocs");
  CntAllocs.add();
  if (trace::enabled())
    trace::instant("mem.alloc", "mem", Name);
  uint64_t Size = Env.sizeOf(Ty);
  uint64_t Align = Env.alignOf(Ty);
  uint64_t Base;
  auto Planned =
      PlannedAddr.empty() ? PlannedAddr.end() : PlannedAddr.find(Name);
  if (Planned != PlannedAddr.end()) {
    Base = Planned->second;
    PlannedAddr.erase(Planned);
  } else {
    Base = align(NextAddr, Align);
    NextAddr = Base + Size;
  }

  Allocation A;
  A.Base = Base;
  A.Size = Size;
  A.Name = std::move(Name);
  A.Static = Static;
  A.DeclaredTy = Ty;
  A.Bytes = poolBytes(Size);
  if (Static)
    for (uint64_t I = 0; I < Size; ++I)
      A.Bytes[I].Value = 0; // static storage is zero-initialised (6.7.9p10)
  Allocs.push_back(std::move(A));

  PointerValue P = PointerValue::object(
      Provenance::alloc(Allocs.size() - 1), Base);
  if (Policy.Cheri)
    P.Cap = Capability{Base, Size, true};
  return P;
}

PointerValue Memory::allocateRegion(uint64_t Size, uint64_t Align) {
  static trace::Counter CntAllocs("mem.allocs");
  CntAllocs.add();
  trace::instant("mem.alloc", "mem");
  uint64_t Base = align(NextAddr, std::max<uint64_t>(Align, 1));
  NextAddr = Base + std::max<uint64_t>(Size, 1);

  Allocation A;
  A.Base = Base;
  A.Size = Size;
  A.Dynamic = true;
  A.Name = "<malloc>";
  A.Bytes = poolBytes(Size);
  Allocs.push_back(std::move(A));

  PointerValue P = PointerValue::object(
      Provenance::alloc(Allocs.size() - 1), Base);
  if (Policy.Cheri)
    P.Cap = Capability{Base, Size, true};
  return P;
}

void Memory::markReadOnly(const PointerValue &P) {
  assert(P.Prov.isAlloc() && "marking a non-allocation read-only");
  Allocs[P.Prov.AllocId].ReadOnly = true;
}

MemRes<Unit> Memory::killObject(const PointerValue &P) {
  assert(P.Prov.isAlloc() && "killing object without allocation provenance");
  static trace::Counter CntFrees("mem.frees");
  CntFrees.add();
  trace::instant("mem.free", "mem");
  Allocation &A = Allocs[P.Prov.AllocId];
  assert(A.Alive && "double kill of an object");
  A.Alive = false;
  return Unit{};
}

MemRes<Unit> Memory::freeRegion(const PointerValue &P) {
  if (P.isNull())
    return Unit{}; // free(NULL) is a no-op (7.22.3.3p2)
  static trace::Counter CntFrees("mem.frees");
  CntFrees.add();
  trace::instant("mem.free", "mem");
  uint64_t Id;
  if (P.Prov.isAlloc()) {
    Id = P.Prov.AllocId;
  } else if (!Policy.TrackProvenance) {
    auto Found = findByAddress(P.Addr, 0);
    if (!Found)
      return undef(UBKind::FreeInvalidPointer,
                   fmt("no live allocation at address {0}", P.Addr));
    Id = *Found;
  } else {
    return undef(UBKind::FreeInvalidPointer,
                 "free of a pointer with no allocation provenance");
  }
  Allocation &A = Allocs[Id];
  if (!A.Dynamic)
    return undef(UBKind::FreeInvalidPointer,
                 fmt("free of non-heap object '{0}'", A.Name));
  if (!A.Alive)
    return undef(UBKind::DoubleFree, fmt("region at {0}", A.Base));
  if (P.Addr != A.Base)
    return undef(UBKind::FreeInvalidPointer,
                 "free of a pointer into the middle of a region");
  A.Alive = false;
  return Unit{};
}

//===----------------------------------------------------------------------===//
// Access resolution
//===----------------------------------------------------------------------===//

std::optional<uint64_t> Memory::findByAddress(uint64_t Addr,
                                              uint64_t Size) const {
  for (size_t I = Allocs.size(); I-- > 0;) {
    const Allocation &A = Allocs[I];
    if (!A.Alive)
      continue;
    if (Addr >= A.Base && Addr + Size <= A.Base + A.Size &&
        (A.Size > 0 || Size == 0))
      return I;
  }
  return std::nullopt;
}

MemRes<uint64_t> Memory::resolveAccess(const PointerValue &P, uint64_t Size,
                                       bool ForWrite) const {
  if (P.isNull())
    return undef(UBKind::AccessNull);
  if (P.isFunction())
    return undef(UBKind::AccessOutOfBounds,
                 "object access through a function pointer");

  if (!Policy.TrackProvenance || P.Prov.isWildcard()) {
    if (auto Found = findByAddress(P.Addr, Size))
      return *Found;
    // Distinguish dead objects for a better diagnostic.
    for (size_t I = 0; I < Allocs.size(); ++I) {
      const Allocation &A = Allocs[I];
      if (!A.Alive && P.Addr >= A.Base && P.Addr + Size <= A.Base + A.Size)
        return undef(UBKind::AccessDeadObject,
                     fmt("storage of dead object '{0}'", A.Name));
    }
    return undef(UBKind::AccessOutOfBounds,
                 fmt("no live object contains [{0}, {0}+{1})", P.Addr, Size));
  }

  if (P.Prov.isEmpty())
    return undef(UBKind::AccessNoProvenance,
                 fmt("address {0} with empty provenance", P.Addr));

  assert(P.Prov.AllocId < Allocs.size() && "dangling allocation id");
  const Allocation &A = Allocs[P.Prov.AllocId];
  if (!A.Alive)
    return undef(UBKind::AccessDeadObject,
                 fmt("object '{0}' is no longer live", A.Name));
  if (P.Addr < A.Base || P.Addr + Size > A.Base + A.Size)
    return undef(
        UBKind::AccessOutOfBounds,
        fmt("[{0}, {0}+{1}) is outside '{2}' = [{3}, {3}+{4})", P.Addr, Size,
            A.Name, A.Base, A.Size));
  return P.Prov.AllocId;
}

MemRes<Unit> Memory::checkCheriAccess(const PointerValue &P,
                                      uint64_t Size) const {
  if (!Policy.Cheri)
    return Unit{};
  if (!P.Cap || !P.Cap->Tag)
    return undef(UBKind::CapabilityTagViolation,
                 "dereference of a capability without a valid tag");
  if (P.Addr < P.Cap->Base || P.Addr + Size > P.Cap->Base + P.Cap->Length)
    return undef(UBKind::AccessOutOfBounds,
                 "CHERI bounds check failed (hardware-enforced)");
  return Unit{};
}

/// Is an access of scalar type \p AccessTy at \p Off a legitimate view of
/// an object of declared type \p Ty? (6.5p7: the effective type itself, a
/// compatible type, or a member of a containing aggregate/union.)
static bool typeMatchesAt(const ail::ImplEnv &Env, const CType &Ty,
                          uint64_t Off, const CType &AccessTy) {
  if (Ty.isScalar()) {
    if (Off != 0)
      return false;
    if (Ty == AccessTy)
      return true;
    // Signed/unsigned siblings are compatible views (6.5p7).
    return Ty.isInteger() && AccessTy.isInteger() &&
           Env.widthOf(Ty.intKind()) == Env.widthOf(AccessTy.intKind());
  }
  if (Ty.isArray()) {
    uint64_t ES = Env.sizeOf(Ty.element());
    if (ES == 0)
      return false;
    return typeMatchesAt(Env, Ty.element(), Off % ES, AccessTy);
  }
  if (Ty.isStruct()) {
    const ail::TagDef &D = Env.tags().get(Ty.tag());
    for (size_t I = 0; I < D.Members.size(); ++I) {
      uint64_t MO = Env.offsetOf(Ty.tag(), I);
      uint64_t MS = Env.sizeOf(D.Members[I].Ty);
      if (Off >= MO && Off < MO + MS &&
          typeMatchesAt(Env, D.Members[I].Ty, Off - MO, AccessTy))
        return true;
    }
    return false;
  }
  if (Ty.isUnion()) {
    // Any member's layout is a legitimate view of a union.
    const ail::TagDef &D = Env.tags().get(Ty.tag());
    for (const ail::TagMember &M : D.Members)
      if (Off < Env.sizeOf(M.Ty) && typeMatchesAt(Env, M.Ty, Off, AccessTy))
        return true;
    return false;
  }
  return false;
}

MemRes<Unit> Memory::checkEffectiveType(Allocation &A, uint64_t Off,
                                        const CType &Ty, bool IsWrite) {
  if (!Policy.StrictEffectiveTypes || !Ty.isScalar())
    return Unit{};
  // Character-type accesses are always permitted (6.5p7 last bullet).
  if (Ty.isCharacter())
    return Unit{};
  if (A.DeclaredTy) {
    // Q75: an (unsigned) char array may NOT be used to hold other types
    // under a strict reading — its declared type is the effective type.
    if (!typeMatchesAt(Env, *A.DeclaredTy, Off, Ty))
      return undef(UBKind::EffectiveTypeViolation,
                   fmt("object '{0}' declared '{1}' accessed as '{2}'",
                       A.Name, A.DeclaredTy->str(), Ty.str()));
    return Unit{};
  }
  // malloc'd region: a store establishes the effective type; loads must
  // agree with it (6.5p6).
  auto It = A.EffectiveAt.find(Off);
  if (IsWrite) {
    A.EffectiveAt[Off] = Ty;
    return Unit{};
  }
  if (It != A.EffectiveAt.end() && !(It->second == Ty)) {
    bool Compatible = It->second.isInteger() && Ty.isInteger() &&
                      Env.widthOf(It->second.intKind()) ==
                          Env.widthOf(Ty.intKind());
    if (!Compatible)
      return undef(UBKind::EffectiveTypeViolation,
                   fmt("region written as '{0}' read as '{1}'",
                       It->second.str(), Ty.str()));
  }
  return Unit{};
}

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

void Memory::serialize(const CType &Ty, const MemValue &V,
                       std::vector<MemByte> &Out) {
  uint64_t Size = Env.sizeOf(Ty);
  if (V.Kind == MemValueKind::Unspecified) {
    Out.resize(Out.size() + Size);
    return;
  }
  if (V.Kind == MemValueKind::Bytes) {
    assert(V.Raw.size() == Size && "byte image size mismatch");
    Out.insert(Out.end(), V.Raw.begin(), V.Raw.end());
    return;
  }
  switch (Ty.kind()) {
  case CTypeKind::Integer: {
    assert(V.Kind == MemValueKind::Integer && "type/value mismatch");
    unsigned W = Env.widthOf(Ty.intKind()) / 8;
    UInt128 Bits = static_cast<UInt128>(V.IV.V);
    for (unsigned I = 0; I < W; ++I) {
      MemByte B;
      B.Value = static_cast<uint8_t>(Bits >> (8 * I));
      B.Prov = V.IV.Prov;
      if (Policy.Cheri && V.IV.Cap) {
        B.Cap = V.IV.Cap;
        B.PtrFrag = static_cast<int>(I);
      }
      Out.push_back(B);
    }
    return;
  }
  case CTypeKind::Pointer: {
    assert(V.Kind == MemValueKind::Pointer && "type/value mismatch");
    uint64_t Encoded = V.PV.isFunction() ? FuncAddrBase + *V.PV.FuncSym
                                         : V.PV.Addr;
    for (unsigned I = 0; I < 8; ++I) {
      MemByte B;
      B.Value = static_cast<uint8_t>(Encoded >> (8 * I));
      B.Prov = V.PV.Prov;
      B.PtrFrag = static_cast<int>(I);
      if (Policy.Cheri)
        B.Cap = V.PV.Cap;
      Out.push_back(B);
    }
    return;
  }
  case CTypeKind::Array: {
    assert(V.Kind == MemValueKind::Array && "type/value mismatch");
    uint64_t N = *Ty.arraySize();
    for (uint64_t I = 0; I < N; ++I) {
      if (I < V.Elems.size())
        serialize(Ty.element(), V.Elems[I], Out);
      else
        serialize(Ty.element(), MemValue::unspecified(Ty.element()), Out);
    }
    return;
  }
  case CTypeKind::Struct: {
    assert(V.Kind == MemValueKind::Struct && "type/value mismatch");
    const ail::TagDef &D = Env.tags().get(Ty.tag());
    size_t Start = Out.size();
    Out.resize(Start + Size); // padding bytes default to unspecified
    for (size_t I = 0; I < D.Members.size(); ++I) {
      std::vector<MemByte> MemberBytes;
      if (I < V.Elems.size())
        serialize(D.Members[I].Ty, V.Elems[I], MemberBytes);
      else
        serialize(D.Members[I].Ty,
                  MemValue::unspecified(D.Members[I].Ty), MemberBytes);
      uint64_t Off = Env.offsetOf(Ty.tag(), I);
      std::copy(MemberBytes.begin(), MemberBytes.end(),
                Out.begin() + Start + Off);
    }
    return;
  }
  case CTypeKind::Union: {
    assert(V.Kind == MemValueKind::Union && "type/value mismatch");
    const ail::TagDef &D = Env.tags().get(Ty.tag());
    size_t Start = Out.size();
    Out.resize(Start + Size);
    std::vector<MemByte> MemberBytes;
    serialize(D.Members[V.ActiveMember].Ty, V.Elems[0], MemberBytes);
    std::copy(MemberBytes.begin(), MemberBytes.end(), Out.begin() + Start);
    return;
  }
  default:
    assert(false && "cannot serialize this type");
  }
}

MemValue Memory::deserialize(const CType &Ty, const MemByte *Bytes) {
  switch (Ty.kind()) {
  case CTypeKind::Integer: {
    unsigned W = Env.widthOf(Ty.intKind()) / 8;
    UInt128 Bits = 0;
    Provenance Prov;
    bool First = true, AllSameProv = true;
    std::optional<Capability> Cap;
    bool CapConsistent = Policy.Cheri;
    for (unsigned I = 0; I < W; ++I) {
      const MemByte &B = Bytes[I];
      if (!B.Value)
        return MemValue::unspecified(Ty);
      Bits |= UInt128(*B.Value) << (8 * I);
      if (First) {
        Prov = B.Prov;
        Cap = B.Cap;
        First = false;
      } else {
        if (!(B.Prov == Prov))
          AllSameProv = false;
        if (!(B.Cap == Cap) || B.PtrFrag != static_cast<int>(I))
          CapConsistent = false;
      }
    }
    Int128 V = static_cast<Int128>(Bits);
    if (!Ty.isUnsigned() && W < 16) {
      // Sign-extend.
      Int128 SignBit = Int128(1) << (W * 8 - 1);
      if (V & SignBit)
        V -= Int128(1) << (W * 8);
    }
    IntegerValue IV(V, AllSameProv ? Prov : Provenance::empty());
    if (Policy.Cheri && CapConsistent && W == 8)
      IV.Cap = Cap;
    return MemValue::integer(Ty, IV);
  }
  case CTypeKind::Pointer: {
    uint64_t Encoded = 0;
    Provenance Prov;
    bool First = true, AllSameProv = true, FragsInOrder = true;
    std::optional<Capability> Cap;
    bool CapConsistent = true;
    for (unsigned I = 0; I < 8; ++I) {
      const MemByte &B = Bytes[I];
      if (!B.Value)
        return MemValue::unspecified(Ty);
      Encoded |= uint64_t(*B.Value) << (8 * I);
      if (B.PtrFrag != static_cast<int>(I))
        FragsInOrder = false;
      if (First) {
        Prov = B.Prov;
        Cap = B.Cap;
        First = false;
      } else {
        if (!(B.Prov == Prov))
          AllSameProv = false;
        if (!(B.Cap == Cap))
          CapConsistent = false;
      }
    }
    PointerValue PV;
    if (Encoded >= FuncAddrBase && Encoded < FuncAddrBase + 0x10000) {
      PV = PointerValue::function(static_cast<unsigned>(Encoded -
                                                        FuncAddrBase));
    } else {
      PV.Addr = Encoded;
      // §5.9: reconstruction from representation bytes carries the original
      // provenance as long as all bytes agree (indirect dataflow copying,
      // Q13-Q16); mixed-origin bytes give empty provenance.
      PV.Prov = AllSameProv ? Prov : Provenance::empty();
    }
    if (Policy.Cheri) {
      if (CapConsistent && FragsInOrder && Cap)
        PV.Cap = Cap;
      else
        PV.Cap = Capability{0, 0, false}; // tag cleared: unusable capability
    }
    return MemValue::pointer(Ty, PV);
  }
  case CTypeKind::Array: {
    uint64_t N = *Ty.arraySize();
    uint64_t ES = Env.sizeOf(Ty.element());
    std::vector<MemValue> Elems;
    Elems.reserve(N);
    for (uint64_t I = 0; I < N; ++I)
      Elems.push_back(deserialize(Ty.element(), Bytes + I * ES));
    return MemValue::array(std::move(Elems));
  }
  case CTypeKind::Struct:
  case CTypeKind::Union: {
    // Whole-aggregate loads produce an opaque byte image, so structure
    // copies carry padding bytes verbatim (§2.5 option 4).
    uint64_t Size = Env.sizeOf(Ty);
    return makeBytesValue(Ty, std::vector<MemByte>(Bytes, Bytes + Size));
  }
  default:
    assert(false && "cannot deserialize this type");
    return MemValue::unspecified(Ty);
  }
}

//===----------------------------------------------------------------------===//
// Loads and stores
//===----------------------------------------------------------------------===//

MemRes<MemValue> Memory::load(const CType &Ty, const PointerValue &P) {
  static trace::Counter CntLoads("mem.loads");
  CntLoads.add();
  uint64_t Size = Env.sizeOf(Ty);
  // CHERI checks fire first: the hardware faults on the tag/bounds before
  // any software-level provenance reasoning applies (§4).
  if (!P.isNull())
    CERB_MEMCHECK(checkCheriAccess(P, Size));
  CERB_MEMTRY(Id, resolveAccess(P, Size, /*ForWrite=*/false));
  if (Policy.CheckAlignment && P.Addr % Env.alignOf(Ty) != 0)
    return undef(UBKind::MisalignedAccess,
                 fmt("address {0} for type '{1}'", P.Addr, Ty.str()));
  Allocation &A = Allocs[Id];
  CERB_MEMCHECK(checkEffectiveType(A, P.Addr - A.Base, Ty, false));
  if (Policy.UninitReadIsUB && Ty.isScalar()) {
    for (uint64_t I = 0; I < Size; ++I)
      if (!A.Bytes[P.Addr - A.Base + I].Value)
        return undef(UBKind::UninitialisedRead,
                     fmt("byte {0} of '{1}'", P.Addr - A.Base + I, A.Name));
  }
  return deserialize(Ty, A.Bytes + (P.Addr - A.Base));
}

MemRes<Unit> Memory::store(const CType &Ty, const PointerValue &P,
                           const MemValue &V) {
  static trace::Counter CntStores("mem.stores");
  CntStores.add();
  uint64_t Size = Env.sizeOf(Ty);
  if (!P.isNull())
    CERB_MEMCHECK(checkCheriAccess(P, Size));
  CERB_MEMTRY(Id, resolveAccess(P, Size, /*ForWrite=*/true));
  if (Policy.CheckAlignment && P.Addr % Env.alignOf(Ty) != 0)
    return undef(UBKind::MisalignedAccess,
                 fmt("address {0} for type '{1}'", P.Addr, Ty.str()));
  Allocation &A = Allocs[Id];
  if (A.ReadOnly)
    return undef(UBKind::WriteToReadOnly,
                 fmt("store into string literal '{0}'", A.Name));
  CERB_MEMCHECK(checkEffectiveType(A, P.Addr - A.Base, Ty, true));
  StoreScratch.clear();
  StoreScratch.reserve(Size);
  serialize(Ty, V, StoreScratch);
  assert(StoreScratch.size() == Size && "serialized size mismatch");
  std::copy(StoreScratch.begin(), StoreScratch.end(),
            A.Bytes + (P.Addr - A.Base));
  return Unit{};
}

//===----------------------------------------------------------------------===//
// Pointer operations
//===----------------------------------------------------------------------===//

MemRes<IntegerValue> Memory::ptrEq(const PointerValue &A,
                                   const PointerValue &B) {
  auto Result = [](bool V) { return IntegerValue(V ? 1 : 0); };
  if (A.isFunction() || B.isFunction())
    return Result(A.isFunction() && B.isFunction() &&
                  *A.FuncSym == *B.FuncSym);
  if (A.isNull() || B.isNull())
    return Result(A.isNull() && B.isNull());

  if (Policy.Cheri && Policy.CheriExactEquals) {
    // §4: CHERI added an exact-equals comparing address *and* metadata.
    return Result(A.Addr == B.Addr && A.Cap == B.Cap);
  }

  bool AddrEqual = A.Addr == B.Addr;
  if (AddrEqual && Policy.EqMayConsultProvenance && A.Prov.isAlloc() &&
      B.Prov.isAlloc() && !(A.Prov == B.Prov)) {
    // Q2: same representation, different provenance: the implementation may
    // take provenance into account. Modelled as a nondeterministic choice
    // (§2.1: "soundly modelled by making a nondeterministic choice at each
    // such comparison").
    if (Sched.choose(2, "ptr-eq-provenance") == 1)
      return Result(false);
  }
  return Result(AddrEqual);
}

MemRes<IntegerValue> Memory::ptrRel(unsigned Op, const PointerValue &A,
                                    const PointerValue &B) {
  if (Policy.RelationalAcrossObjectsUB && A.Prov.isAlloc() &&
      B.Prov.isAlloc() && !(A.Prov == B.Prov))
    return undef(UBKind::RelationalDifferentObjects,
                 fmt("comparing {0} with {1}", A.str(), B.str()));
  // Q25 (de facto): relational comparison ignores provenance and compares
  // the concrete addresses.
  bool R = false;
  switch (Op) {
  case 0: R = A.Addr < B.Addr; break;
  case 1: R = A.Addr > B.Addr; break;
  case 2: R = A.Addr <= B.Addr; break;
  case 3: R = A.Addr >= B.Addr; break;
  default: assert(false && "bad relational op");
  }
  return IntegerValue(R ? 1 : 0);
}

MemRes<IntegerValue> Memory::ptrDiff(const CType &ElemTy,
                                     const PointerValue &A,
                                     const PointerValue &B) {
  if (Policy.PtrDiffAcrossObjectsUB && !(A.Prov == B.Prov) &&
      (A.Prov.isAlloc() && B.Prov.isAlloc()))
    return undef(UBKind::PtrDiffDifferentObjects,
                 fmt("subtracting {0} from {1}", B.str(), A.str()));
  Int128 Diff = Int128(A.Addr) - Int128(B.Addr);
  Int128 ES = Int128(Env.sizeOf(ElemTy));
  // 6.5.6p9: both point into the same array; the difference is in elements.
  // The result is a pure integer — inter-object offsets must not carry
  // either provenance (§5.9, Q9).
  return IntegerValue(Diff / ES, Provenance::empty());
}

MemRes<IntegerValue> Memory::intFromPtr(const CType &IntTy,
                                        const PointerValue &P) {
  Int128 Raw = P.isFunction() ? Int128(FuncAddrBase + *P.FuncSym)
                              : Int128(P.Addr);
  Int128 V = Env.convert(IntTy.intKind(), Raw);
  IntegerValue IV(V, P.Prov);
  if (Policy.Cheri && Env.widthOf(IntTy.intKind()) == 64)
    IV.Cap = P.Cap; // uintptr_t keeps the capability (§4)
  return IV;
}

MemRes<PointerValue> Memory::ptrFromInt(const IntegerValue &I) {
  if (I.V == 0)
    return PointerValue::null();
  PointerValue P;
  P.Addr = static_cast<uint64_t>(I.V);
  // GCC's documented rule ("the resulting pointer must reference the same
  // object as the original pointer"): the provenance carried through the
  // integer, if any, is restored (Q5).
  P.Prov = I.Prov;
  if (Policy.Cheri)
    P.Cap = I.Cap ? *I.Cap : Capability{0, 0, false};
  return P;
}

MemRes<PointerValue> Memory::arrayShift(const PointerValue &P,
                                        const CType &ElemTy, Int128 Index) {
  assert(!P.isFunction() && "array shift on function pointer");
  Int128 NewAddr = Int128(P.Addr) + Index * Int128(Env.sizeOf(ElemTy));
  if (NewAddr < 0)
    return undef(UBKind::OutOfBoundsArithmetic, "pointer address underflow");
  PointerValue R = P;
  R.Addr = static_cast<uint64_t>(NewAddr);
  if (!Policy.PermitOOBConstruction && P.Prov.isAlloc()) {
    // Strict ISO (6.5.6p8): the result must point within the same object
    // or one past its end; otherwise the *arithmetic* is UB (vs the de
    // facto transient-OOB latitude, Q31).
    const Allocation &A = Allocs[P.Prov.AllocId];
    if (R.Addr < A.Base || R.Addr > A.Base + A.Size)
      return undef(UBKind::OutOfBoundsArithmetic,
                   fmt("shift to {0} leaves '{1}' = [{2}, {2}+{3}]", R.Addr,
                       A.Name, A.Base, A.Size));
  }
  return R;
}

PointerValue Memory::memberShift(const PointerValue &P, unsigned Tag,
                                 size_t MemberIdx) {
  PointerValue R = P;
  R.Addr = P.Addr + Env.offsetOf(Tag, MemberIdx);
  return R;
}

bool Memory::validForDeref(const CType &Ty, const PointerValue &P) const {
  auto R = resolveAccess(P, Env.sizeOf(Ty), /*ForWrite=*/false);
  return static_cast<bool>(R);
}

IntegerValue Memory::finishArith(ArithOp Op, const IntegerValue &A,
                                 const IntegerValue &B, Int128 NumericResult,
                                 const CType &ResultTy) {
  IntegerValue R(NumericResult);

  if (Policy.Cheri) {
    // §4: CHERI C provenance in arithmetic "is only inherited from the
    // left-hand side", and non-uintptr_t-sized integers carry none.
    bool Ptrish = Env.widthOf(ResultTy.intKind()) == 64;
    if (Ptrish) {
      R.Prov = A.Prov;
      if (A.Cap && A.Cap->Tag) {
        R.Cap = A.Cap;
        if (Op == ArithOp::And) {
          // The offset-AND quirk: `i & 3u` on a capability-carrying
          // uintptr_t ANDs the *offset*, then re-adds the base — so the
          // result is non-zero even when the low bits of the address are
          // all zero. This is exactly the §4 finding.
          Int128 Offset = A.V - Int128(A.Cap->Base);
          R.V = Int128(A.Cap->Base) + (Offset & B.V);
        }
      }
    }
    return R;
  }

  if (!Policy.TrackProvenance)
    return R; // concrete: integers are just integers

  // Candidate de facto model (§5.9): at-most-one provenance; subtraction of
  // two provenanced values yields a pure integer (an offset).
  if (Op == ArithOp::Sub && !A.Prov.isEmpty() && !B.Prov.isEmpty())
    R.Prov = Provenance::empty();
  else
    R.Prov = combineProvenance(A.Prov, B.Prov);
  return R;
}

PointerValue Memory::castPointer(const CType &ToTy, const PointerValue &P) {
  return P; // representation-identity casts in all current instantiations
}

//===----------------------------------------------------------------------===//
// Byte-level library support
//===----------------------------------------------------------------------===//

MemRes<Unit> Memory::copyBytes(const PointerValue &Dst,
                               const PointerValue &Src, uint64_t N) {
  if (N == 0)
    return Unit{};
  CERB_MEMTRY(DstId, resolveAccess(Dst, N, /*ForWrite=*/true));
  if (Allocs[DstId].ReadOnly)
    return undef(UBKind::WriteToReadOnly,
                 fmt("memcpy into string literal '{0}'",
                     Allocs[DstId].Name));
  CERB_MEMTRY(SrcId, resolveAccess(Src, N, /*ForWrite=*/false));
  CERB_MEMCHECK(checkCheriAccess(Dst, N));
  CERB_MEMCHECK(checkCheriAccess(Src, N));
  Allocation &DA = Allocs[DstId];
  const Allocation &SA = Allocs[SrcId];
  // Copy representation bytes verbatim: provenance travels with the bytes,
  // which is what makes user-level memcpy of pointers work (§2.3).
  std::vector<MemByte> Tmp(SA.Bytes + (Src.Addr - SA.Base),
                           SA.Bytes + (Src.Addr - SA.Base) + N);
  std::copy(Tmp.begin(), Tmp.end(), DA.Bytes + (Dst.Addr - DA.Base));
  return Unit{};
}

MemRes<IntegerValue> Memory::compareBytes(const PointerValue &A,
                                          const PointerValue &B,
                                          uint64_t N) {
  if (N == 0)
    return IntegerValue(0);
  CERB_MEMTRY(AId, resolveAccess(A, N, /*ForWrite=*/false));
  CERB_MEMTRY(BId, resolveAccess(B, N, /*ForWrite=*/false));
  const Allocation &AA = Allocs[AId];
  const Allocation &BA = Allocs[BId];
  for (uint64_t I = 0; I < N; ++I) {
    const MemByte &BA1 = AA.Bytes[A.Addr - AA.Base + I];
    const MemByte &BB1 = BA.Bytes[B.Addr - BA.Base + I];
    if ((!BA1.Value || !BB1.Value)) {
      if (Policy.UninitByteOpsAreUB)
        return undef(UBKind::UninitialisedRead,
                     "memcmp over unspecified bytes");
      // De facto latitude: unspecified bytes compare as an arbitrary but
      // stable value; we use 0.
    }
    uint8_t VA = BA1.Value.value_or(0), VB = BB1.Value.value_or(0);
    if (VA != VB)
      return IntegerValue(VA < VB ? -1 : 1);
  }
  return IntegerValue(0);
}

MemRes<Unit> Memory::setBytes(const PointerValue &P, uint8_t Byte,
                              uint64_t N) {
  if (N == 0)
    return Unit{};
  CERB_MEMTRY(Id, resolveAccess(P, N, /*ForWrite=*/true));
  Allocation &A = Allocs[Id];
  if (A.ReadOnly)
    return undef(UBKind::WriteToReadOnly,
                 fmt("memset into string literal '{0}'", A.Name));
  for (uint64_t I = 0; I < N; ++I) {
    MemByte &B = A.Bytes[P.Addr - A.Base + I];
    B = MemByte{};
    B.Value = Byte;
  }
  return Unit{};
}

MemRes<std::string> Memory::readString(const PointerValue &P) {
  std::string Out;
  PointerValue Cur = P;
  for (uint64_t I = 0; I < (1u << 20); ++I) {
    CERB_MEMTRY(Id, resolveAccess(Cur, 1, /*ForWrite=*/false));
    const Allocation &A = Allocs[Id];
    const MemByte &B = A.Bytes[Cur.Addr - A.Base];
    if (!B.Value) {
      if (Policy.UninitByteOpsAreUB)
        return undef(UBKind::UninitialisedRead, "string read");
      return Out; // treat unspecified as terminator under lenient models
    }
    if (*B.Value == 0)
      return Out;
    Out.push_back(static_cast<char>(*B.Value));
    Cur.Addr += 1;
  }
  return undef(UBKind::AccessOutOfBounds, "unterminated string");
}
