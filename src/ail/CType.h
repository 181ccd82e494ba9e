//===-- ail/CType.h - Canonical C types -------------------------*- C++ -*-===//
///
/// \file
/// Canonical C type representation used from the Ail AST onward (the
/// Cabs_to_Ail pass performs "normalisation of syntactic C types into
/// canonical forms", §5.1). A CType is a trivially copyable handle to an
/// immutable node. Void and the integer types are static nodes that every
/// program shares; pointer, array, function, struct and union types are
/// interned in the TagTable of the program that made them, which also holds
/// the struct and union bodies, keyed by tag id. Within one table two types
/// are equal exactly when they are one node, and recursion through pointers
/// is free. Types are made only while compiling, so the table of a compiled
/// program is read-only, and a type lives as long as its program.
///
//===----------------------------------------------------------------------===//
#ifndef CERB_AIL_CTYPE_H
#define CERB_AIL_CTYPE_H

#include "support/ChunkList.h"
#include "support/Expected.h"
#include "support/Format.h"

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
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
enum class CTypeKind : uint8_t {
  Void,
  Integer,  ///< IntKind
  Pointer,  ///< pointee
  Array,    ///< element type + optional constant size
  Function, ///< return type + parameter types + variadic flag
  Struct,   ///< tag id into TagTable
  Union,    ///< tag id into TagTable
};

class CType;

/// Internal node. Users hold CType handles; a TagTable or the static
/// builtins own the nodes.
struct CTypeNode {
  IntKind Int = IntKind::Int;       ///< Integer
  unsigned Tag = 0;                 ///< Struct/Union tag id
  uint32_t NumParams = 0;           ///< Function
  CTypeKind Kind = CTypeKind::Void;
  bool Sized = false;               ///< Array: ArraySize is given
  bool Variadic = false;            ///< Function
  const CTypeNode *Inner = nullptr; ///< Pointer pointee / Array elem /
                                    ///< Function return
  uint64_t ArraySize = 0;           ///< Array, if Sized
  const CType *Params = nullptr;    ///< Function: NumParams of them
};

namespace detail {
/// The void node, then one node per IntKind in declaration order.
extern const CTypeNode BuiltinTypes[13];
} // namespace detail

/// Value-semantics handle to an immutable canonical C type: one pointer,
/// copied as plain bytes.
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
    return Node->Sized ? std::optional<uint64_t>(Node->ArraySize)
                       : std::nullopt;
  }
  CType returnType() const {
    assert(isFunction() && "returnType() on non-function");
    return CType(Node->Inner);
  }
  std::span<const CType> paramTypes() const {
    assert(isFunction() && "paramTypes() on non-function");
    return {Node->Params, Node->NumParams};
  }
  bool isVariadic() const {
    assert(isFunction() && "isVariadic() on non-function");
    return Node->Variadic;
  }
  unsigned tag() const {
    assert(isStructOrUnion() && "tag() on non-struct/union");
    return Node->Tag;
  }

  /// Node identity: structural equality for types of one table (and for
  /// void and the integer types of any two).
  friend bool operator==(CType A, CType B) { return A.Node == B.Node; }

  /// C-like rendering, e.g. "int*", "struct s", "int[4]".
  std::string str() const;

  //===------------------------------------------------------------------===//
  // The static types (derived types come from a TagTable)
  //===------------------------------------------------------------------===//
  static CType makeVoid() { return CType(&detail::BuiltinTypes[0]); }
  static CType makeInteger(IntKind K) {
    return CType(&detail::BuiltinTypes[1 + static_cast<unsigned>(K)]);
  }

  // Common shorthands.
  static CType intTy() { return makeInteger(IntKind::Int); }
  static CType uintTy() { return makeInteger(IntKind::UInt); }
  static CType charTy() { return makeInteger(IntKind::Char); }
  static CType sizeTy() { return makeInteger(IntKind::ULong); }
  static CType ptrdiffTy() { return makeInteger(IntKind::Long); }
  static CType uintptrTy() { return makeInteger(IntKind::ULong); }

private:
  friend class TagTable;
  friend struct std::hash<CType>;
  explicit CType(const CTypeNode *Node) : Node(Node) {}

  const CTypeNode *Node = nullptr;
};
static_assert(std::is_trivially_copyable_v<CType> &&
                  sizeof(CType) == sizeof(void *),
              "a CType is one pointer, copied as plain bytes");

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
  CType Ty;              ///< the struct or union type naming this tag
  /// The layout, computed once by TagTable::complete; ImplEnv answers
  /// sizeof, _Alignof and offsetof from it.
  uint64_t Size = 0;
  uint64_t Align = 1;
  std::vector<uint64_t> Offsets; ///< per member (all 0 in a union)

  /// Index of \p Name in Members, or nullopt.
  std::optional<size_t> memberIndex(std::string_view MemberName) const;
};

/// The type table of one program: its struct and union definitions, keyed
/// by tag id, and its interned derived types. A pointer, array or function
/// type built twice is one node, so types of one table compare by identity.
/// Nodes sit in chunks that never move, so handles survive a move of the
/// table; a table cannot be copied, and its nodes die with it.
class TagTable {
public:
  TagTable() = default;
  TagTable(TagTable &&) noexcept = default;
  TagTable &operator=(TagTable &&) noexcept = default;
  TagTable(const TagTable &) = delete;
  TagTable &operator=(const TagTable &) = delete;

  /// Creates a new (incomplete) tag and its type; returns its id.
  unsigned createTag(bool IsUnion, std::string Name);
  /// Completes \p Tag with \p Members, which must be complete types
  /// (a trailing array without a size counts as empty), and lays it out.
  void complete(unsigned Tag, std::vector<TagMember> Members);

  const TagDef &get(unsigned Tag) const;
  TagDef &get(unsigned Tag);
  size_t size() const { return Defs.size(); }

  /// The struct or union type of \p Tag.
  CType tagType(unsigned Tag) const { return get(Tag).Ty; }
  CType pointerTo(CType Pointee);
  CType arrayOf(CType Elem, std::optional<uint64_t> Size);
  CType functionType(CType Ret, std::span<const CType> Params,
                     bool Variadic);
  CType functionType(CType Ret, std::initializer_list<CType> Params,
                     bool Variadic) {
    return functionType(
        Ret, std::span<const CType>(Params.begin(), Params.size()), Variadic);
  }

  /// The heap bytes the interned types hold (chunks and index), each
  /// buffer counted with a flat 16 bytes for the allocator's header and
  /// rounding, as core::programBytes counts a buffer.
  uint64_t typeBytes() const;

private:
  /// The node equal to \p Key, interned on first use (with a copy of its
  /// parameters).
  CType intern(const CTypeNode &Key);
  void rehash(size_t Capacity);

  std::vector<TagDef> Defs;
  /// Nodes and parameter arrays. The builtins' types take about 900
  /// bytes, and a suite program's types fit the first chunk.
  ChunkList Nodes{2048};
  /// Open-addressing set of the interned pointer, array and function
  /// nodes (null = empty), never more than half full.
  std::vector<const CTypeNode *> Index;
  size_t Interned = 0;
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

/// Hashes a type by its node, as operator== compares it.
template <> struct std::hash<cerb::ail::CType> {
  size_t operator()(cerb::ail::CType T) const noexcept {
    return std::hash<const void *>()(T.Node);
  }
};

#endif // CERB_AIL_CTYPE_H
