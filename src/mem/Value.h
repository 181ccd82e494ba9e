//===-- mem/Value.h - Memory-model value representations --------*- C++ -*-===//
///
/// \file
/// The value representations of the memory layout model (§5.9): pointer and
/// integer values carry *provenance* — empty for NULL and pure integers, an
/// allocation ID for values derived from an object, or a wildcard (for
/// pointers from IO). These are opaque to Core (Fig. 2: "intval, ..., ptrval
/// and memval are the representations of values from the memory layout
/// model ... opaque as far as the rest of Core is concerned").
///
/// For the CHERI instantiation (§4) integer and pointer values additionally
/// carry capability metadata (base/length/offset/tag), which reproduces the
/// paper's findings such as the `(i & 3u)` offset-AND quirk.
///
/// Memory holds objects as MemBytes only; core::storeValue and
/// core::loadValue write Core values into those bytes and read them back.
///
//===----------------------------------------------------------------------===//
#ifndef CERB_MEM_VALUE_H
#define CERB_MEM_VALUE_H

#include "support/Format.h"

#include <cstdint>
#include <optional>
#include <string>

namespace cerb::mem {

//===----------------------------------------------------------------------===//
// Provenance
//===----------------------------------------------------------------------===//

/// C-level binary arithmetic operators as seen by the model's arithmetic
/// hooks (Memory::finishArith): the model decides provenance and capability
/// consequences of each (Q5, §4).
enum class ArithOp : uint8_t {
  Add, Sub, Mul, Div, Rem, Shl, Shr, And, Or, Xor
};

enum class ProvKind {
  Empty,    ///< NULL pointers and pure integers
  Alloc,    ///< derived from a specific allocation (DR260's unique ID)
  Wildcard, ///< pointers from IO / unknown origin: may alias anything
};

struct Provenance {
  ProvKind Kind = ProvKind::Empty;
  uint64_t AllocId = 0;

  static Provenance empty() { return Provenance{}; }
  static Provenance alloc(uint64_t Id) {
    return Provenance{ProvKind::Alloc, Id};
  }
  static Provenance wildcard() {
    return Provenance{ProvKind::Wildcard, 0};
  }

  bool isEmpty() const { return Kind == ProvKind::Empty; }
  bool isAlloc() const { return Kind == ProvKind::Alloc; }
  bool isWildcard() const { return Kind == ProvKind::Wildcard; }

  friend bool operator==(Provenance A, Provenance B) {
    return A.Kind == B.Kind && (A.Kind != ProvKind::Alloc ||
                                A.AllocId == B.AllocId);
  }

  std::string str() const {
    switch (Kind) {
    case ProvKind::Empty:
      return "@empty";
    case ProvKind::Alloc:
      return fmt("@{0}", AllocId);
    case ProvKind::Wildcard:
      return "@wild";
    }
    return "@?";
  }
};

/// The at-most-one-provenance combination used for arithmetic on integer
/// values (§5.9, Q5): one provenanced operand propagates its provenance;
/// two *distinct* provenances collapse to empty (so the result cannot be
/// used to move between the two objects — this is what forbids the
/// per-CPU-variable idiom, Q9).
inline Provenance combineProvenance(Provenance A, Provenance B) {
  if (A.isEmpty())
    return B;
  if (B.isEmpty())
    return A;
  if (A == B)
    return A;
  if (A.isWildcard())
    return B;
  if (B.isWildcard())
    return A;
  return Provenance::empty();
}

//===----------------------------------------------------------------------===//
// Capability metadata (CHERI instantiation, §4)
//===----------------------------------------------------------------------===//

struct Capability {
  uint64_t Base = 0;   ///< lower bound of the capability
  uint64_t Length = 0; ///< size of the addressable region
  bool Tag = false;    ///< validity tag (cleared by non-capability writes)

  friend bool operator==(const Capability &A, const Capability &B) {
    return A.Base == B.Base && A.Length == B.Length && A.Tag == B.Tag;
  }
};

//===----------------------------------------------------------------------===//
// Scalar values
//===----------------------------------------------------------------------===//

/// An integer value: a mathematical integer plus provenance (and, in CHERI
/// mode, capability metadata when the value was derived from a pointer —
/// uintptr_t round-trips keep the capability, §4).
struct IntegerValue {
  Int128 V = 0;
  Provenance Prov;
  std::optional<Capability> Cap; ///< CHERI only

  IntegerValue() = default;
  explicit IntegerValue(Int128 V) : V(V) {}
  IntegerValue(Int128 V, Provenance P) : V(V), Prov(P) {}

  std::string str() const {
    if (Prov.isEmpty())
      return toString(V);
    return toString(V) + Prov.str();
  }
};

/// A pointer value: provenance + concrete address (§2.1: "abstract pointer
/// values must also contain concrete addresses"). Function pointers carry
/// the designated function's symbol id instead of a data address.
struct PointerValue {
  Provenance Prov;
  uint64_t Addr = 0;              ///< 0 encodes the null pointer
  std::optional<unsigned> FuncSym; ///< set for function pointers
  std::optional<Capability> Cap;   ///< CHERI only

  bool isNull() const { return !FuncSym && Addr == 0; }
  bool isFunction() const { return FuncSym.has_value(); }

  static PointerValue null() { return PointerValue{}; }
  static PointerValue object(Provenance P, uint64_t Addr) {
    PointerValue PV;
    PV.Prov = P;
    PV.Addr = Addr;
    return PV;
  }
  static PointerValue function(unsigned Sym) {
    PointerValue PV;
    PV.FuncSym = Sym;
    return PV;
  }

  std::string str() const {
    if (isNull())
      return "NULL";
    if (isFunction())
      return fmt("&fn#{0}", *FuncSym);
    return fmt("0x{0}{1}", toString(Int128(Addr)), Prov.str());
  }
};

/// A function pointer's address: this synthetic base plus the function's
/// symbol id, in byte images and in integers cast from the pointer.
inline constexpr uint64_t FuncAddrBase = 0xF0000000ull;

//===----------------------------------------------------------------------===//
// Bytes
//===----------------------------------------------------------------------===//

/// One byte of an allocation. Provenance lives on bytes so that programs
/// copying pointer *representations* (directly or via integer arithmetic)
/// produce usable pointers (§2.3, §5.9: "those representation bytes (qua
/// integer values) will carry the provenance of the original pointer").
/// A byte with no Value is an unspecified byte (never-written storage or
/// padding, §2.5).
struct MemByte {
  std::optional<uint8_t> Value;
  Provenance Prov;
  /// If this byte is the I-th byte of a stored pointer, or under CHERI of
  /// a stored integer that carries a capability: I (0-7), else -1. Used
  /// to re-assemble capability metadata under the CHERI model.
  int PtrFrag = -1;
  std::optional<Capability> Cap; ///< CHERI: capability fragment metadata
};

} // namespace cerb::mem

#endif // CERB_MEM_VALUE_H
