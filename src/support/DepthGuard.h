//===-- support/DepthGuard.h - Recursion depth budgets ----------*- C++ -*-===//
///
/// \file
/// Every recursive walk whose depth the input decides (the parser's
/// descent, the Cabs/Ail/Core passes) counts its own depth against a
/// constant limit, so a deeply nested program gets a static diagnostic
/// instead of overflowing the host stack. A walk owns one counter; each
/// recursive entry point holds a DepthGuard for the length of the call.
/// So does each loop that builds a tree as deep as its input is long,
/// since that tree is walked and freed recursively afterwards.
///
/// The limits are implementation limits in the sense of C11 5.2.4.1,
/// which requires only 63 nested parentheses and 127 nested blocks. They
/// sit far above those, and far below the depth at which the walks would
/// exhaust the stack of an evaluation thread (support::ThreadPool).
///
//===----------------------------------------------------------------------===//
#ifndef CERB_SUPPORT_DEPTHGUARD_H
#define CERB_SUPPORT_DEPTHGUARD_H

#include "support/Expected.h"

#include <algorithm>
#include <string>

namespace cerb {

/// Nesting depth of the parser's descent and of the walks over Cabs and
/// Ail. The parser counts every entry point it nests through, so a level
/// of parentheses costs four (assignment, conditional, cast and unary
/// expression), a block or a chain's operator one: about 1,000 nested
/// parentheses, 4,000 nested blocks or a 4,000-term chain fit.
inline constexpr unsigned MaxSyntaxDepth = 4096;
/// Nesting depth of the walks over Core (rewrite, lowering, checking).
/// Elaboration nests a few Core nodes per C construct; it counts flat
/// input (statements, initialized scalars, parameters) against it too.
inline constexpr unsigned MaxCoreDepth = 4 * MaxSyntaxDepth;

/// Levels (one by default) of a depth-budgeted walk, counted in on
/// construction and out on destruction. The guard is false past the
/// limit, and the caller then returns error(). A loop that nests its
/// result a level deeper each round adds one with deeper().
class DepthGuard {
public:
  DepthGuard(unsigned &Depth, unsigned Limit, size_t Levels = 1)
      : Depth(Depth), Limit(Limit),
        Levels(std::min<size_t>(Levels, Limit + 1)) {
    Depth += this->Levels;
  }
  ~DepthGuard() { Depth -= Levels; }
  DepthGuard(const DepthGuard &) = delete;
  DepthGuard &operator=(const DepthGuard &) = delete;

  explicit operator bool() const { return Depth <= Limit; }
  /// One more level, held until the guard ends; false past the limit.
  bool deeper() {
    ++Levels;
    return ++Depth <= Limit;
  }

  /// The diagnostic naming the walk and its limit. Cold and out of line,
  /// so the walks' hot paths carry only the counter.
  [[gnu::cold, gnu::noinline]] StaticError
  error(const char *Walk, SourceLoc Loc = SourceLoc()) const {
    return err(std::string(Walk) + ": nesting deeper than " +
                   std::to_string(Limit) + " levels (implementation limit)",
               Loc, "5.2.4.1");
  }

private:
  unsigned &Depth;
  unsigned Limit;
  unsigned Levels;
};

} // namespace cerb

#endif // CERB_SUPPORT_DEPTHGUARD_H
