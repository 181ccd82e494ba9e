//===-- tests/test_corpus.cpp - minimized-reproducer regression suite -----===//
//
// Replays every minimized reproducer in tests/corpus/ under all four
// memory-model policies and pins the single-execution outcome
// (Outcome::str(), or the compile error) golden-style. The corpus was
// seeded by an initial `cerb fuzz` / `cerb reduce` campaign over the
// de facto idiom programs that diverge from the host compiler — each file
// is 1-minimal under the ddmin reducer for its recorded triage signature.
//
// Goldens live in tests/goldens/corpus_outcomes.golden. To regenerate
// after an *intentional* semantics change:
//
//   CERB_UPDATE_GOLDENS=1 ./build/tests/cerb_corpus_tests
//
// A second test (host-compiler-gated) re-checks the acceptance contract:
// replayed standalone, every reproducer still diverges from the host
// compiler under the de facto policy — reduction must never "fix" the
// divergence it is minimizing.
//
//===----------------------------------------------------------------------===//

#include "csmith/Differential.h"
#include "exec/Pipeline.h"

#include "Golden.h"

#include <gtest/gtest.h>

using namespace cerb;

namespace {

/// Fixed name list (not a directory scan) so golden keys are stable and a
/// stray file cannot silently widen the suite.
const char *CorpusFiles[] = {
    "cheri_untagged_int_to_ptr",
    "double_free",
    "free_nonheap",
    "null_deref",
    "one_past_deref",
    "ptr_eq_one_past_adjacent",
    "ptrdiff_cross_object",
    "shift_into_sign_bit",
    "uninit_branch",
    "unseq_race_incr",
    "use_after_free",
    "write_string_literal",
};

std::string corpusPath(const std::string &Name) {
  return std::string(CERB_SOURCE_DIR) + "/tests/corpus/" + Name + ".c";
}

/// Key "file policy" -> the pinned single-execution outcome line.
golden::GoldenMap computeActual() {
  golden::GoldenMap Actual;
  for (const char *Name : CorpusFiles) {
    auto Src = exec::readSourceFile(corpusPath(Name));
    EXPECT_TRUE(static_cast<bool>(Src)) << Src.error().str();
    if (!Src)
      continue;
    for (const mem::MemoryPolicy &P : mem::MemoryPolicy::allPresets()) {
      exec::RunOptions Opts;
      Opts.Policy = P;
      auto R = exec::evaluateOnce(*Src, Opts);
      Actual[std::string(Name) + " " + P.Name] = {
          R ? R->str() : "compile-error(" + R.error().str() + ")"};
    }
  }
  return Actual;
}

const char *const Description =
    "# Golden single-execution outcomes for the minimized-reproducer\n"
    "# corpus (tests/corpus/), one [file policy] record per replay.\n";

} // namespace

TEST(CorpusGolden, ReplayOutcomesMatchGoldens) {
  golden::checkGoldens("corpus_outcomes.golden", "cerb_corpus_tests",
                       Description, computeActual());
}

TEST(CorpusGolden, ReproducersStillDivergeFromHostCompiler) {
  if (!csmith::oracleAvailable())
    GTEST_SKIP() << "no host C compiler";
  for (const char *Name : CorpusFiles) {
    auto Src = exec::readSourceFile(corpusPath(Name));
    ASSERT_TRUE(static_cast<bool>(Src)) << Src.error().str();
    csmith::DiffOptions O;
    O.DeadlineMs = 10'000;
    csmith::DiffResult R = csmith::differentialTest(*Src, O);
    EXPECT_TRUE(R.Status == csmith::DiffStatus::Mismatch ||
                R.Status == csmith::DiffStatus::OursFail)
        << Name << " no longer diverges: "
        << std::string(csmith::diffStatusName(R.Status)) << " " << R.Detail;
  }
}
