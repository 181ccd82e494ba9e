//===-- ail/CType.h - Canonical C types -------------------------*- C++ -*-===//
///
/// \file
/// Canonical C type representation used from the Ail AST onward (the
/// Cabs_to_Ail pass performs "normalisation of syntactic C types into
/// canonical forms", §5.1). A CType is an immutable shared tree; struct and
/// union bodies live in a separate TagTable keyed by tag symbol, so types
/// can be compared structurally and recursion through pointers is free.
///
//===----------------------------------------------------------------------===//
#ifndef CERB_AIL_CTYPE_H
#define CERB_AIL_CTYPE_H

#include "support/Expected.h"
#include "support/Format.h"

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace cerb::ail {

/// The standard integer types of our fragment (ISO 6.2.5). Enums are
/// desugared to Int; fixed-width typedef names resolve to these.
enum class IntKind {
  Bool,
  Char, // "plain" char; signedness is implementation-defined (signed here)
  SChar,
  UChar,
  Short,
  UShort,
  Int,
  UInt,
  Long,
  ULong,
  LongLong,
  ULongLong,
};

/// Returns the ISO spelling, e.g. "unsigned long long".
std::string_view intKindName(IntKind K);

/// True for the unsigned kinds (and _Bool).
bool isUnsignedKind(IntKind K);

/// The alternatives of a canonical C type.
enum class CTypeKind {
  Void,
  Integer,  ///< IntKind
  Pointer,  ///< pointee
  Array,    ///< element type + optional constant size
  Function, ///< return type + parameter types + variadic flag
  Struct,   ///< tag id into TagTable
  Union,    ///< tag id into TagTable
};

class CType;

/// Internal node. Users hold CType handles.
struct CTypeNode {
  CTypeKind Kind;
  IntKind Int = IntKind::Int;                // Integer
  std::shared_ptr<const CTypeNode> Inner;    // Pointer pointee / Array elem /
                                             // Function return
  std::optional<uint64_t> ArraySize;         // Array ([] if absent)
  std::vector<std::shared_ptr<const CTypeNode>> Params; // Function
  bool Variadic = false;                     // Function
  unsigned Tag = 0;                          // Struct/Union tag id
};

/// Value-semantics handle to an immutable canonical C type.
class CType {
public:
  CType() = default; // "null" type; isValid() is false

  bool isValid() const { return Node != nullptr; }
  CTypeKind kind() const { return Node->Kind; }

  bool isVoid() const { return isValid() && Node->Kind == CTypeKind::Void; }
  bool isInteger() const {
    return isValid() && Node->Kind == CTypeKind::Integer;
  }
  bool isPointer() const {
    return isValid() && Node->Kind == CTypeKind::Pointer;
  }
  bool isArray() const { return isValid() && Node->Kind == CTypeKind::Array; }
  bool isFunction() const {
    return isValid() && Node->Kind == CTypeKind::Function;
  }
  bool isStruct() const { return isValid() && Node->Kind == CTypeKind::Struct; }
  bool isUnion() const { return isValid() && Node->Kind == CTypeKind::Union; }
  bool isStructOrUnion() const { return isStruct() || isUnion(); }
  /// Scalar = arithmetic or pointer (ISO 6.2.5p21; no floats in fragment).
  bool isScalar() const { return isInteger() || isPointer(); }
  /// Object type: anything but function (incomplete types handled by layout).
  bool isObject() const { return isValid() && !isFunction(); }

  IntKind intKind() const {
    assert(isInteger() && "intKind() on non-integer type");
    return Node->Int;
  }
  bool isUnsigned() const { return isInteger() && isUnsignedKind(intKind()); }
  bool isSigned() const { return isInteger() && !isUnsignedKind(intKind()); }
  /// Any of the three char types (for the "character type" escape hatches).
  bool isCharacter() const {
    return isInteger() && (intKind() == IntKind::Char ||
                           intKind() == IntKind::SChar ||
                           intKind() == IntKind::UChar);
  }

  CType pointee() const {
    assert(isPointer() && "pointee() on non-pointer");
    return CType(Node->Inner);
  }
  CType element() const {
    assert(isArray() && "element() on non-array");
    return CType(Node->Inner);
  }
  std::optional<uint64_t> arraySize() const {
    assert(isArray() && "arraySize() on non-array");
    return Node->ArraySize;
  }
  CType returnType() const {
    assert(isFunction() && "returnType() on non-function");
    return CType(Node->Inner);
  }
  std::vector<CType> paramTypes() const;
  bool isVariadic() const {
    assert(isFunction() && "isVariadic() on non-function");
    return Node->Variadic;
  }
  unsigned tag() const {
    assert(isStructOrUnion() && "tag() on non-struct/union");
    return Node->Tag;
  }

  /// Structural equality (tags compare by id).
  friend bool operator==(const CType &A, const CType &B);
  friend bool operator!=(const CType &A, const CType &B) { return !(A == B); }

  /// C-like rendering, e.g. "int*", "struct s", "int[4]".
  std::string str() const;

  //===------------------------------------------------------------------===//
  // Factories
  //===------------------------------------------------------------------===//
  static CType makeVoid();
  static CType makeInteger(IntKind K);
  static CType makePointer(CType Pointee);
  static CType makeArray(CType Elem, std::optional<uint64_t> Size);
  static CType makeFunction(CType Ret, std::vector<CType> Params,
                            bool Variadic);
  static CType makeStruct(unsigned Tag);
  static CType makeUnion(unsigned Tag);

  // Common shorthands.
  static CType intTy() { return makeInteger(IntKind::Int); }
  static CType uintTy() { return makeInteger(IntKind::UInt); }
  static CType charTy() { return makeInteger(IntKind::Char); }
  static CType sizeTy() { return makeInteger(IntKind::ULong); }
  static CType ptrdiffTy() { return makeInteger(IntKind::Long); }
  static CType uintptrTy() { return makeInteger(IntKind::ULong); }
  static CType charPtrTy() { return makePointer(charTy()); }
  static CType voidPtrTy() { return makePointer(makeVoid()); }

  /// Internal: wraps an existing node (used by the factories).
  explicit CType(std::shared_ptr<const CTypeNode> Node)
      : Node(std::move(Node)) {}

private:
  std::shared_ptr<const CTypeNode> Node;
};

bool operator==(const CType &A, const CType &B);

/// One member of a struct or union definition.
struct TagMember {
  std::string Name;
  CType Ty;
};

/// A struct or union definition.
struct TagDef {
  bool IsUnion = false;
  std::string Name; ///< source tag name; may be synthesised for anonymous
  std::vector<TagMember> Members;
  bool Complete = false; ///< false while only forward-declared
  /// The layout, computed once by TagTable::complete; ImplEnv answers
  /// sizeof, _Alignof and offsetof from it.
  uint64_t Size = 0;
  uint64_t Align = 1;
  std::vector<uint64_t> Offsets; ///< per member (all 0 in a union)

  /// Index of \p Name in Members, or nullopt.
  std::optional<size_t> memberIndex(std::string_view MemberName) const;
};

/// All struct/union definitions of a translation unit, keyed by tag id.
class TagTable {
public:
  /// Creates a new (incomplete) tag; returns its id.
  unsigned createTag(bool IsUnion, std::string Name);
  /// Completes \p Tag with \p Members, which must be complete types
  /// (a trailing array without a size counts as empty), and lays it out.
  void complete(unsigned Tag, std::vector<TagMember> Members);

  const TagDef &get(unsigned Tag) const;
  TagDef &get(unsigned Tag);
  size_t size() const { return Defs.size(); }

private:
  std::vector<TagDef> Defs;
};

//===----------------------------------------------------------------------===//
// Implementation-defined environment (ISO 6.2.6, J.3)
//===----------------------------------------------------------------------===//

/// The implementation-defined parameters our semantics is instantiated at:
/// a conventional LP64, twos-complement, 8-bit-byte platform — the paper's
/// "mainstream hardware" assumption (§1 Problem 1). All layout questions
/// (sizeof, alignof, member offsets) are answered here, so memory models and
/// the elaboration share one ABI.
class ImplEnv {
public:
  explicit ImplEnv(const TagTable &Tags) : Tags(Tags) {}

  /// sizeof(T) in bytes (ISO 6.5.3.4). Asserts on incomplete types.
  uint64_t sizeOf(const CType &Ty) const;
  /// _Alignof(T) (ISO 6.2.8).
  uint64_t alignOf(const CType &Ty) const;
  /// offsetof(tag, member-index) in bytes, with natural padding.
  uint64_t offsetOf(unsigned Tag, size_t MemberIdx) const;

  /// Width in bits of an integer kind (value bits + sign bit; _Bool is 1).
  unsigned widthOf(IntKind K) const;
  /// Smallest representable value of the kind.
  Int128 minOf(IntKind K) const;
  /// Largest representable value of the kind.
  Int128 maxOf(IntKind K) const;
  /// True iff \p V is representable in \p K.
  bool inRange(IntKind K, Int128 V) const;
  /// Reduces \p V modulo 2^width for unsigned \p K (ISO 6.2.5p9).
  Int128 wrapUnsigned(IntKind K, Int128 V) const;
  /// Converts \p V to integer kind \p K per ISO 6.3.1.3: identity when in
  /// range; modulo reduction for unsigned; nullopt for out-of-range signed
  /// (our chosen impl-defined behaviour is "no trap, wrap" — see flag).
  Int128 convert(IntKind K, Int128 V) const;

  const TagTable &tags() const { return Tags; }

private:
  const TagTable &Tags;
};

} // namespace cerb::ail

#endif // CERB_AIL_CTYPE_H
