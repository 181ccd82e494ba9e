//===-- exec/Pipeline.h - The whole-pipeline public facade ------*- C++ -*-===//
///
/// \file
/// The public API of the library: compiles C source through the full
/// Cerberus pipeline (Fig. 1: parse -> desugar -> typecheck -> elaborate ->
/// Core-to-Core -> Core dynamics + memory object model) and runs it as a
/// test oracle.
///
/// Quickstart:
/// \code
///   auto ProgOr = cerb::exec::compile("int main(void){ return 7; }");
///   if (!ProgOr) { report(ProgOr.error().str()); }
///   cerb::exec::RunOptions Opts; // candidate de facto model by default
///   cerb::exec::Outcome O = cerb::exec::runOnce(*ProgOr, Opts);
///   // O.ExitCode == 7
/// \endcode
///
//===----------------------------------------------------------------------===//
#ifndef CERB_EXEC_PIPELINE_H
#define CERB_EXEC_PIPELINE_H

#include "core/Core.h"
#include "core/Lowering.h"
#include "exec/Driver.h"
#include "support/Expected.h"

namespace cerb::exec {

/// Wall-clock cost of each front-half stage (Fig. 1's pass structure),
/// surfaced per job by the oracle's observability layer.
struct StageTimings {
  double ParseMs = 0;
  double DesugarMs = 0;
  double TypecheckMs = 0;
  double ElaborateMs = 0; ///< elaboration + Core-to-Core + Core typecheck

  double totalMs() const {
    return ParseMs + DesugarMs + TypecheckMs + ElaborateMs;
  }
};

/// Everything the front half of the pipeline produced (for tools that want
/// to inspect intermediate stages, e.g. the Fig. 3 bench).
struct CompileResult {
  core::CoreProgram Prog;
  core::RewriteStats Rewrites;
  core::LoweringStats Lowering;
  StageTimings Timings;
};

/// Knobs that change the *compiled artifact* (not the dynamics). Two
/// compilations of the same source under different FrontendOptions produce
/// distinct Core programs, so every compile cache keys on the fingerprint.
struct FrontendOptions {
  /// Run the Core-to-Core simplification pass (§5.1's "600" transformation:
  /// pure-let inlining, constant-if folding, unseq/skip cleanup). Turning
  /// it off keeps the raw elaboration — slower to evaluate but structurally
  /// 1:1 with the elaboration rules, which is what debugging wants.
  bool CoreSimplify = true;

  bool operator==(const FrontendOptions &O) const {
    return CoreSimplify == O.CoreSimplify;
  }
  bool operator!=(const FrontendOptions &O) const { return !(*this == O); }

  /// Stable identity for cache keys and the serve wire format. Bump the
  /// version tag in Pipeline.cpp when adding a knob.
  uint64_t fingerprint() const;
};

/// Runs the full front end + elaboration + core::lower on \p Source. The
/// returned program is lowered, so its dynamics caches are set and it may
/// be evaluated concurrently from many threads without further
/// preparation.
Expected<core::CoreProgram> compile(std::string_view Source);

/// Like compile(), also reporting the Core-to-Core rewrite statistics and
/// per-stage timings.
Expected<CompileResult> compileWithStats(std::string_view Source);
Expected<CompileResult> compileWithStats(std::string_view Source,
                                         const FrontendOptions &FE);

/// Reads \p Path from disk and compiles it. An unreadable file is reported
/// as a StaticError (not an exception), like any other front-end failure.
Expected<core::CoreProgram> compileFile(const std::string &Path);

/// compileFile() with rewrite statistics and per-stage timings.
Expected<CompileResult> compileFileWithStats(const std::string &Path);

/// Reads a whole file; shared by compileFile and the oracle's job loader.
Expected<std::string> readSourceFile(const std::string &Path);

/// Fingerprint of the *semantics* this build implements: a manually bumped
/// version tag hashed together with the preset policy fingerprints. The
/// serve result cache keys on it, so entries persisted by an older daemon
/// are invalidated (never wrongly replayed) once elaboration or dynamics
/// change observable outcomes. Bump kSemanticsVersion in Pipeline.cpp with
/// any such change.
uint64_t semanticsFingerprint();

/// Compile + run one leftmost execution.
Expected<Outcome> evaluateOnce(std::string_view Source,
                               const RunOptions &Opts = RunOptions());

/// Compile + exhaustively explore all executions.
Expected<ExhaustiveResult>
evaluateExhaustive(std::string_view Source,
                   const RunOptions &Opts = RunOptions());

} // namespace cerb::exec

#endif // CERB_EXEC_PIPELINE_H
