//===-- mem/UB.h - Undefined behaviour catalogue ----------------*- C++ -*-===//
///
/// \file
/// The catalogue of undefined behaviours our semantics can report (§5.4:
/// "terminates execution and reports which undefined behaviour has been
/// violated, together with the C source location"). Names follow the
/// paper's Core `undef()` identifiers where it shows them (Fig. 3:
/// Exceptional_condition, Negative_shift, Shift_too_large).
///
//===----------------------------------------------------------------------===//
#ifndef CERB_MEM_UB_H
#define CERB_MEM_UB_H

#include "support/SourceLoc.h"
#include "trace/Trace.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

namespace cerb::mem {

enum class UBKind : uint8_t {
  // Arithmetic (elaboration-inserted undef() tests, Fig. 3).
  ExceptionalCondition, ///< signed overflow / unrepresentable result 6.5p5
  DivisionByZero,       ///< 6.5.5p5
  NegativeShift,        ///< 6.5.7p3
  ShiftTooLarge,        ///< 6.5.7p3

  // Memory accesses (detected by the memory object model).
  AccessOutOfBounds,     ///< access outside the provenance's footprint
  AccessDeadObject,      ///< object lifetime has ended 6.2.4p2
  AccessNull,            ///< dereferencing a null pointer 6.5.3.2p4
  AccessNoProvenance,    ///< access via empty-provenance pointer (DR260)
  MisalignedAccess,      ///< 6.3.2.3p7
  EffectiveTypeViolation,///< 6.5p6-7 (strict/TBAA models only)
  UninitialisedRead,     ///< trap-representation discipline 6.3.2.1p2
  WriteToReadOnly,       ///< modifying a string literal 6.4.5p7
  FreeInvalidPointer,    ///< 7.22.3.3p2
  DoubleFree,            ///< 7.22.3.3p2
  OutOfBoundsArithmetic, ///< pointer arithmetic past the object 6.5.6p8
                         ///< (strict/ISO models; de facto permits transient)
  PtrDiffDifferentObjects, ///< 6.5.6p9
  RelationalDifferentObjects, ///< 6.5.8p5 (Q25; strict model only)

  // Sequencing and concurrency.
  UnsequencedRace, ///< two conflicting unsequenced accesses 6.5p2
  DataRace,        ///< conflicting accesses in different threads 5.1.2.4p25

  // Values.
  IndeterminateValueUse, ///< using an unspecified value where UB (Q43/Q52)
  CapabilityTagViolation,///< CHERI: access via an untagged capability

  // Control.
  ReachedEndOfNonVoid, ///< flowing off a non-void function *and using* the
                       ///< value 6.9.1p12 (we report at the fall-off)
};

/// Short stable identifier (Core `undef(<name>)` spelling).
std::string_view ubName(UBKind K);
/// Human-readable description with ISO clause.
std::string_view ubDescription(UBKind K);

/// An undefined behaviour occurrence.
struct UndefinedBehaviour {
  UBKind Kind;
  std::string Detail;
  SourceLoc Loc; ///< C source location, attached by the dynamics

  std::string str() const;
};

/// Value-or-UB result used throughout the memory interface and dynamics.
template <typename T> class MemRes {
public:
  MemRes(T Value) : Storage(std::in_place_index<0>, std::move(Value)) {}
  MemRes(UndefinedBehaviour U) : Storage(std::in_place_index<1>, std::move(U)) {}

  explicit operator bool() const { return Storage.index() == 0; }
  T &operator*() { return std::get<0>(Storage); }
  const T &operator*() const { return std::get<0>(Storage); }
  T *operator->() { return &std::get<0>(Storage); }
  const UndefinedBehaviour &ub() const { return std::get<1>(Storage); }
  UndefinedBehaviour takeUB() { return std::move(std::get<1>(Storage)); }

private:
  std::variant<T, UndefinedBehaviour> Storage;
};

/// Unit type for MemRes<Unit>.
struct Unit {};

/// Builds an UndefinedBehaviour value.
inline UndefinedBehaviour undef(UBKind K, std::string Detail = "") {
  static trace::Counter CntUB("mem.ub");
  CntUB.add();
  if (trace::enabled())
    trace::instant("mem.ub", "mem", std::string(ubName(K)));
  return UndefinedBehaviour{K, std::move(Detail), SourceLoc()};
}

/// Propagates UB from a MemRes expression, binding the value otherwise.
#define CERB_MEMTRY(Var, Expr)                                                 \
  auto Var##OrUB = (Expr);                                                     \
  if (!Var##OrUB)                                                              \
    return Var##OrUB.takeUB();                                                 \
  auto &Var = *Var##OrUB

#define CERB_MEMCHECK(Expr)                                                    \
  do {                                                                         \
    auto CerbMemResult = (Expr);                                               \
    if (!CerbMemResult)                                                        \
      return CerbMemResult.takeUB();                                           \
  } while (false)

} // namespace cerb::mem

#endif // CERB_MEM_UB_H
