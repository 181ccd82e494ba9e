//===-- exec/Pipeline.cpp -------------------------------------------------===//

#include "exec/Pipeline.h"

#include "ail/Desugar.h"
#include "cabs/Parser.h"
#include "elab/Elaborate.h"
#include "trace/Trace.h"
#include "typing/TypeCheck.h"

#include <chrono>
#include <fstream>
#include <sstream>

using namespace cerb;
using namespace cerb::exec;

namespace {
/// Runs \p F under a named trace span, adding its wall-clock cost to \p Ms.
template <typename Fn>
auto timed(double &Ms, const char *SpanName, Fn &&F) {
  trace::Span S(SpanName, "pipeline");
  auto T0 = std::chrono::steady_clock::now();
  auto R = F();
  Ms += std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - T0)
            .count();
  return R;
}
} // namespace

uint64_t cerb::exec::FrontendOptions::fingerprint() const {
  // FNV-1a over a version tag plus one byte per knob; bump the tag whenever
  // the knob set changes so old fingerprints cannot alias new option
  // vectors. The lowering pass version is mixed in so a lowering change
  // re-keys cached artifacts too.
  static constexpr const char kFrontendVersion[] = "cerb-frontend/4";
  uint64_t H = 0xcbf29ce484222325ull;
  for (const char *P = kFrontendVersion; *P; ++P) {
    H ^= static_cast<unsigned char>(*P);
    H *= 0x100000001b3ull;
  }
  H ^= static_cast<unsigned char>(CoreSimplify ? 1 : 0);
  H *= 0x100000001b3ull;
  for (char C : core::loweringVersion()) {
    H ^= static_cast<unsigned char>(C);
    H *= 0x100000001b3ull;
  }
  return H;
}

Expected<CompileResult> cerb::exec::compileWithStats(std::string_view Src) {
  return compileWithStats(Src, FrontendOptions());
}

Expected<CompileResult>
cerb::exec::compileWithStats(std::string_view Src, const FrontendOptions &FE) {
  static trace::Counter CntCompiles("pipeline.compiles");
  CntCompiles.add();
  trace::Span Whole("pipeline.compile", "pipeline");
  StageTimings T;
  CERB_TRY(Unit, timed(T.ParseMs, "pipeline.parse", [&] {
    return cabs::parseTranslationUnit(Src);
  }));
  CERB_TRY(Ail, timed(T.DesugarMs, "pipeline.desugar",
                      [&] { return ail::desugar(Unit); }));
  CERB_CHECK(timed(T.TypecheckMs, "pipeline.typecheck",
                   [&] { return typing::typeCheck(Ail); }));
  CERB_TRY(Prog, timed(T.ElaborateMs, "pipeline.elaborate", [&] {
    return elab::elaborate(std::move(Ail));
  }));
  CompileResult Result{std::move(Prog), {}, {}, {}};
  trace::Span Core("pipeline.core-prep", "pipeline");
  auto T0 = std::chrono::steady_clock::now();
  if (FE.CoreSimplify)
    Result.Rewrites = core::rewrite(Result.Prog);
  {
    static trace::Counter CntLowered("lower.programs");
    static trace::Counter CntSlots("lower.slots");
    static trace::Counter CntFolds("lower.const_folds");
    static trace::Counter CntFlattened("lower.lets_flattened");
    static trace::Counter CntInterned("lower.consts_interned");
    static trace::Counter CntPure("lower.pure_nodes");
    trace::Span Lower("lower.run", "pipeline");
    Result.Lowering = core::lower(Result.Prog);
    CntLowered.add();
    CntSlots.add(Result.Lowering.SlotsAssigned);
    CntFolds.add(Result.Lowering.ConstFolds);
    CntFlattened.add(Result.Lowering.LetsFlattened);
    CntInterned.add(Result.Lowering.ConstsInterned);
    CntPure.add(Result.Lowering.PureNodes);
    if (Lower.active())
      Lower.arg("slots", Result.Lowering.SlotsAssigned);
  }
  // Type checking runs on the lowered tree, so a lowering bug that breaks
  // scoping or purity fails the compile rather than corrupting an
  // evaluation.
  if (auto Err = core::typeCheck(Result.Prog))
    return err("Core type checking failed: " + *Err);
  // core::lower set every node's dynamics cache, so evaluation never
  // writes to the program and one compiled unit can serve many concurrent
  // evaluator threads (the oracle's compile-once/run-many contract). On a
  // lowered program this call returns at once; it stays because
  // pipebench's staged compile makes the same calls and times this one.
  core::warmDynamicsCaches(Result.Prog);
  T.ElaborateMs += std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - T0)
                       .count();
  Result.Timings = T;
  return Result;
}

Expected<core::CoreProgram> cerb::exec::compile(std::string_view Src) {
  CERB_TRY(R, compileWithStats(Src));
  return std::move(R.Prog);
}

Expected<std::string> cerb::exec::readSourceFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return err("cannot open source file '" + Path + "'");
  std::ostringstream Buf;
  Buf << In.rdbuf();
  if (In.bad())
    return err("error reading source file '" + Path + "'");
  return Buf.str();
}

Expected<CompileResult>
cerb::exec::compileFileWithStats(const std::string &Path) {
  CERB_TRY(Src, readSourceFile(Path));
  return compileWithStats(Src);
}

Expected<core::CoreProgram> cerb::exec::compileFile(const std::string &Path) {
  CERB_TRY(R, compileFileWithStats(Path));
  return std::move(R.Prog);
}

uint64_t cerb::exec::semanticsFingerprint() {
  // Bump with any change to elaboration or dynamics that can alter an
  // observable outcome: the new fingerprint orphans (never corrupts) every
  // result the serve cache persisted under the old semantics.
  static constexpr const char kSemanticsVersion[] = "cerb-semantics/3";
  static const uint64_t FP = [] {
    uint64_t H = 0xcbf29ce484222325ull;
    auto Mix = [&H](uint64_t V) {
      for (int I = 0; I < 8; ++I) {
        H ^= (V >> (I * 8)) & 0xFF;
        H *= 0x100000001b3ull;
      }
    };
    for (const char *P = kSemanticsVersion; *P; ++P) {
      H ^= static_cast<unsigned char>(*P);
      H *= 0x100000001b3ull;
    }
    // The preset knob vectors are part of the semantics surface: adding a
    // policy knob reshapes every model, so it must invalidate too.
    for (const mem::MemoryPolicy &P : mem::MemoryPolicy::allPresets())
      Mix(P.fingerprint());
    // The lowering pass rewrites what the evaluator executes; its version
    // is part of the semantics identity so result-cache entries persisted
    // across a lowering change are orphaned, never wrongly replayed.
    for (char C : core::loweringVersion()) {
      H ^= static_cast<unsigned char>(C);
      H *= 0x100000001b3ull;
    }
    return H;
  }();
  return FP;
}

Expected<Outcome> cerb::exec::evaluateOnce(std::string_view Src,
                                           const RunOptions &Opts) {
  CERB_TRY(Prog, compile(Src));
  return runOnce(Prog, Opts);
}

Expected<ExhaustiveResult>
cerb::exec::evaluateExhaustive(std::string_view Src, const RunOptions &Opts) {
  CERB_TRY(Prog, compile(Src));
  return runExhaustive(Prog, Opts);
}
