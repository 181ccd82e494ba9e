//===-- tests/test_golden_defacto.cpp - golden-outcome regression suite ---===//
//
// Pins the distinct-outcome set (canonical Outcome::str() strings, in the
// explorer's canonical sorted order) of ~25 representative de facto suite
// programs under every memory policy preset. Any semantics change that
// alters an allowed-execution set shows up here as a readable diff, not as
// a silent drift.
//
// Goldens live in tests/goldens/defacto_outcomes.golden. To regenerate
// after an *intentional* semantics change (see DESIGN.md):
//
//   CERB_UPDATE_GOLDENS=1 ./build/tests/cerb_golden_tests
//
//===----------------------------------------------------------------------===//

#include "defacto/Suite.h"
#include "exec/Pipeline.h"

#include "Golden.h"

#include <gtest/gtest.h>

using namespace cerb;
using golden::GoldenMap;

namespace {

/// The representative corpus: at least one test per design-space area
/// (provenance, pointer equality/relational, copying, unions, null, OOB,
/// arithmetic, effective types, uninitialised values, sequencing, padding,
/// lifetime/heap, control flow, CHERI).
const char *GoldenTests[] = {
    "provenance_basic_global_yx",
    "provenance_same_object_roundtrip",
    "provenance_int_arith_xor",
    "ptr_eq_one_past_adjacent",
    "ptr_rel_distinct_objects",
    "ptr_copy_memcpy",
    "ptr_copy_bytewise",
    "union_pun_int_bytes",
    "null_deref",
    "null_compare",
    "oob_transient",
    "one_past_ok",
    "one_past_deref",
    "ptrdiff_same_array",
    "ptrdiff_cross_object",
    "char_walk_int",
    "use_after_free",
    "dangling_stack_pointer",
    "uninit_signed_arith",
    "uninit_into_printf",
    "unseq_race_two_stores",
    "unseq_race_incr",
    "indet_seq_calls",
    "comma_sequences",
    "padding_member_store_preserves",
    "effective_malloc_first_store",
    "tbaa_int_as_short",
    "cheri_offset_and",
    "malloc_free_roundtrip",
    "double_free",
    "goto_into_block",
    "switch_duff_fallthrough",
};

/// Key "test_name policy" -> sorted canonical outcome strings.
GoldenMap computeActual(unsigned ExploreJobs) {
  GoldenMap Actual;
  for (const char *Name : GoldenTests) {
    const defacto::TestCase *T = defacto::findTest(Name);
    EXPECT_NE(T, nullptr) << "golden corpus names unknown test " << Name;
    if (!T)
      continue;
    for (const mem::MemoryPolicy &P : mem::MemoryPolicy::allPresets()) {
      exec::RunOptions Opts;
      Opts.Policy = P;
      Opts.MaxPaths = 4096;
      Opts.ExploreJobs = ExploreJobs;
      auto R = exec::evaluateExhaustive(T->Source, Opts);
      std::vector<std::string> &Outs = Actual[std::string(Name) + " " + P.Name];
      if (!R) {
        Outs.push_back("compile-error(" + R.error().str() + ")");
        continue;
      }
      EXPECT_FALSE(R->Truncated) << Name << "/" << P.Name
                                 << ": golden corpus must explore fully";
      for (const exec::Outcome &O : R->Distinct)
        Outs.push_back(O.str());
    }
  }
  return Actual;
}

const char *const Description =
    "# Golden distinct-outcome sets for the de facto suite corpus.\n"
    "# One [test policy] record per exploration; outcomes are canonical\n"
    "# Outcome::str() strings in sorted order, \\n-escaped.\n";

} // namespace

TEST(GoldenDefacto, OutcomeSetsMatchGoldens) {
  golden::checkGoldens("defacto_outcomes.golden", "cerb_golden_tests",
                       Description, computeActual(/*ExploreJobs=*/1));
}

TEST(GoldenDefacto, ParallelExplorerMatchesGoldenOutcomes) {
  // The same corpus explored with 4 workers must reproduce the exact
  // golden sets: the golden suite doubles as an end-to-end determinism
  // check for the parallel explorer.
  GoldenMap Serial = computeActual(/*ExploreJobs=*/1);
  GoldenMap Parallel = computeActual(/*ExploreJobs=*/4);
  EXPECT_EQ(Serial, Parallel);
}
