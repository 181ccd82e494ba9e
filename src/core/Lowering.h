//===-- core/Lowering.h - Execution-oriented Core lowering ------*- C++ -*-===//
///
/// \file
/// A one-time post-elaboration pass that rewrites a CoreProgram into an
/// execution-optimized form without changing a single observable outcome:
///
///  - slot resolution: every symbol the dynamics ever binds or reads
///    (pattern symbols, procedure parameters, globals, save/run scope
///    objects, Sym references) is assigned a dense environment-slot index,
///    so the evaluator's environment is an array indexed by slot;
///  - constant folding: pure subexpressions over literal operands are
///    folded at compile time, mirroring the evaluator's semantics exactly
///    (anything the evaluator would turn into a dynamic error or UB —
///    division by zero, out-of-range exponents, non-boolean conditions —
///    is deliberately left unfolded);
///  - let flattening: left-nested pure/sequential let chains
///    `let p1 = (let p2 = e1 in e2) in e3` are rotated into linear runs
///    `let p2 = e1 in let p1 = e2 in e3` (sound because Core symbols are
///    globally unique, so no capture is possible);
///  - constant interning: repeated literal values (integers, ctypes,
///    booleans, function designators) are deduplicated into a per-program
///    ConstPool the evaluator reads through Expr::PoolIdx.
///
/// The pass runs once per compile (exec::Pipeline), and the lowered program
/// is what the compile caches share and the evaluator runs; the evaluator
/// refuses an unlowered one. The lowering version string is folded into
/// exec::semanticsFingerprint() so result-cache keys from before a lowering
/// change can never alias results after it.
///
//===----------------------------------------------------------------------===//
#ifndef CERB_CORE_LOWERING_H
#define CERB_CORE_LOWERING_H

#include "core/Core.h"

#include <string_view>

namespace cerb::core {

struct LoweringStats {
  unsigned SlotsAssigned = 0;  ///< distinct environment slots (== NumSlots)
  unsigned ConstFolds = 0;     ///< subexpressions folded to literals
  unsigned LetsFlattened = 0;  ///< nested-let rotations performed
  unsigned ConstsInterned = 0; ///< Val nodes deduplicated into the pool
  unsigned PoolSize = 0;       ///< distinct pooled constants
  unsigned PureNodes = 0;      ///< nodes proved ValueOnly (evalPure-eligible)
};

/// Lowers \p P in place (idempotent; a second call is a no-op). Also fills
/// every node's Expr::HasEffectsCache, so a lowered program leaves the
/// dynamics nothing to warm (warmDynamicsCaches returns at once).
LoweringStats lower(CoreProgram &P);

/// Version tag of the lowering pass, folded into compile and semantics
/// fingerprints. Bump on any change to what lowering produces.
constexpr std::string_view loweringVersion() { return "cerb-lowering/2"; }

} // namespace cerb::core

#endif // CERB_CORE_LOWERING_H
