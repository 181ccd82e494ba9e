//===-- tests/test_survey_tools_csmith.cpp --------------------------------===//
//
// Unit tests for the survey dataset (§1/§2), the analysis-tool profiles
// (§3), and the random-program generator + differential harness (§6).
//
//===----------------------------------------------------------------------===//

#include "csmith/Differential.h"
#include "csmith/Generator.h"
#include "exec/Pipeline.h"
#include "survey/Survey.h"
#include "tools/Profiles.h"

#include <gtest/gtest.h>

using namespace cerb;

//===----------------------------------------------------------------------===//
// Survey (§1, §2)
//===----------------------------------------------------------------------===//

TEST(Survey, RespondentCountMatchesPaper) {
  EXPECT_EQ(survey::info().Respondents, 323u);
  EXPECT_EQ(survey::info().QuestionCount, 15u);
  EXPECT_EQ(survey::info().FirstSurveyQuestions, 42u);
}

TEST(Survey, ExpertiseTableMatchesPaper) {
  const auto &Rows = survey::expertise();
  auto Find = [&](std::string_view Area) -> unsigned {
    for (const survey::ExpertiseRow &R : Rows)
      if (R.Area == Area)
        return R.Count;
    return 0;
  };
  EXPECT_EQ(Find("C applications programming"), 255u);
  EXPECT_EQ(Find("C systems programming"), 230u);
  EXPECT_EQ(Find("Linux developer"), 160u);
  EXPECT_EQ(Find("C or C++ standards committee member"), 8u);
  EXPECT_EQ(Find("GCC developer"), 15u);
  EXPECT_EQ(Find("Clang developer"), 26u);
  EXPECT_EQ(Find("Formal semantics"), 18u);
}

TEST(Survey, Q25PercentagesMatchPaper) {
  // §2.1: "yes: 191 (60%) only sometimes: 52 (16%), no: 31 (9%)..."
  const survey::SurveyQuestion *Q = survey::findSurveyQuestion("[7/15]");
  ASSERT_NE(Q, nullptr);
  EXPECT_EQ(Q->Answers[0].Count, 191u);
  EXPECT_EQ(survey::percentOf(*Q, Q->Answers[0]), 61u); // 191/315 rounds to 61
  EXPECT_EQ(Q->Answers[1].Count, 52u);
  EXPECT_EQ(survey::percentOf(*Q, Q->Answers[1]), 17u);
}

TEST(Survey, UnspecifiedValueQuestionIsBimodal) {
  // §2.4: "bimodal answers, split between (1) and (4)".
  const survey::SurveyQuestion *Q = survey::findSurveyQuestion("[2/15]");
  ASSERT_NE(Q, nullptr);
  EXPECT_EQ(Q->Answers[0].Count, 139u); // UB
  EXPECT_EQ(Q->Answers[3].Count, 112u); // stable value
  EXPECT_GT(Q->Answers[0].Count, Q->Answers[1].Count);
  EXPECT_GT(Q->Answers[3].Count, Q->Answers[1].Count);
}

TEST(Survey, OOBQuestionMajoritySaysYes) {
  // §2.2: "yes: 230 (73%)".
  const survey::SurveyQuestion *Q = survey::findSurveyQuestion("[9/15]");
  ASSERT_NE(Q, nullptr);
  EXPECT_EQ(Q->Answers[0].Count, 230u);
  EXPECT_GE(survey::percentOf(*Q, Q->Answers[0]), 73u);
}

TEST(Survey, RenderingIncludesPercentages) {
  const survey::SurveyQuestion *Q = survey::findSurveyQuestion("[11/15]");
  ASSERT_NE(Q, nullptr);
  std::string S = survey::renderQuestion(*Q);
  EXPECT_NE(S.find("243"), std::string::npos);
  EXPECT_NE(S.find("%"), std::string::npos);
  EXPECT_NE(survey::renderExpertise().find("323"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Tool profiles (§3)
//===----------------------------------------------------------------------===//

TEST(Tools, FourProfilesExist) {
  const auto &Ps = tools::profiles();
  ASSERT_EQ(Ps.size(), 4u);
  EXPECT_EQ(Ps[0].Name, "sanitizer");
  EXPECT_EQ(Ps[1].Name, "tis");
  EXPECT_EQ(Ps[2].Name, "kcc");
  EXPECT_EQ(Ps[3].Name, "defacto");
}

TEST(Tools, StrictnessOrderingMatchesSection3) {
  // §3's shape: the sanitiser profile flags the fewest tests, the
  // tis-like strict profile the most.
  auto CountFlagged = [](const tools::ToolProfile &P) {
    unsigned N = 0;
    for (const tools::ToolVerdict &V : tools::runTool(P))
      if (V.V == tools::Verdict::Flagged)
        ++N;
    return N;
  };
  unsigned San = CountFlagged(tools::profiles()[0]);
  unsigned Tis = CountFlagged(tools::profiles()[1]);
  unsigned Kcc = CountFlagged(tools::profiles()[2]);
  EXPECT_LT(San, Tis);
  EXPECT_LE(San, Kcc);
  EXPECT_LE(Kcc, Tis);
}

TEST(Tools, SanitizerSilentOnPaddingTests) {
  // §3: "All 13 of our structure-padding tests ... ran without any
  // sanitiser warnings" — our padding tests must be Silent under the
  // sanitiser profile.
  for (const tools::ToolVerdict &V : tools::runTool(tools::profiles()[0]))
    if (V.Test->Name.rfind("padding_", 0) == 0) {
      EXPECT_EQ(V.V, tools::Verdict::Silent) << V.Test->Name;
    }
}

TEST(Tools, TisFlagsUninitTests) {
  // §3: tis-interpreter flags "most of the unspecified-value tests".
  unsigned Flagged = 0, Total = 0;
  for (const tools::ToolVerdict &V : tools::runTool(tools::profiles()[1]))
    if (V.Test->Name.rfind("uninit_", 0) == 0) {
      ++Total;
      if (V.V == tools::Verdict::Flagged)
        ++Flagged;
    }
  EXPECT_GT(Total, 0u);
  EXPECT_GT(Flagged * 2, Total); // "most"
}

TEST(Tools, KccLenientOnPaddingStrictOnUninit) {
  const tools::ToolProfile &Kcc = tools::profiles()[2];
  for (const tools::ToolVerdict &V : tools::runTool(Kcc)) {
    if (V.Test->Name == "padding_uninit_memcmp") {
      EXPECT_EQ(V.V, tools::Verdict::Silent);
    }
    if (V.Test->Name == "uninit_copy") {
      EXPECT_EQ(V.V, tools::Verdict::Flagged);
    }
    if (V.Test->Name == "effective_char_array_storage") {
      EXPECT_EQ(V.V, tools::Verdict::Silent); // "permitted some tests that
                                              // ISO effective types forbid"
    }
  }
}

TEST(Tools, SummaryCoversAllCategoriesInSuite) {
  auto Vs = tools::runTool(tools::profiles()[0]);
  auto Sum = tools::summarize(Vs);
  unsigned Total = 0;
  for (const tools::CategoryFlags &C : Sum)
    Total += C.Tests;
  EXPECT_EQ(Total, Vs.size());
}

//===----------------------------------------------------------------------===//
// csmith-lite (§6)
//===----------------------------------------------------------------------===//

TEST(Csmith, GenerationIsDeterministic) {
  csmith::GenOptions O;
  O.Seed = 42;
  EXPECT_EQ(csmith::generateProgram(O), csmith::generateProgram(O));
  O.Seed = 43;
  EXPECT_NE(csmith::generateProgram(csmith::GenOptions{}),
            csmith::generateProgram(O));
}

TEST(Csmith, GeneratedProgramsCompileAndRunCleanly) {
  // Property sweep: every generated program must be accepted by the
  // pipeline and run to a normal exit with a checksum (UB-free by
  // construction, like Csmith).
  for (uint64_t Seed = 100; Seed < 120; ++Seed) {
    csmith::GenOptions O;
    O.Seed = Seed;
    std::string Src = csmith::generateProgram(O);
    auto R = exec::evaluateOnce(Src);
    ASSERT_TRUE(static_cast<bool>(R)) << "seed " << Seed << ": "
                                      << R.error().str() << "\n" << Src;
    EXPECT_EQ(R->Kind, exec::OutcomeKind::Exit)
        << "seed " << Seed << ": " << R->str();
    EXPECT_NE(R->Stdout.find("checksum = "), std::string::npos);
  }
}

TEST(Csmith, ChecksumIsModelIndependent) {
  // A UB-free program must behave identically under every memory model.
  csmith::GenOptions O;
  O.Seed = 7;
  std::string Src = csmith::generateProgram(O);
  std::string First;
  for (auto P : {mem::MemoryPolicy::concrete(), mem::MemoryPolicy::defacto(),
                 mem::MemoryPolicy::strictIso()}) {
    exec::RunOptions Opts;
    Opts.Policy = P;
    auto R = exec::evaluateOnce(Src, Opts);
    ASSERT_TRUE(static_cast<bool>(R));
    ASSERT_EQ(R->Kind, exec::OutcomeKind::Exit) << P.Name << ": " << R->str();
    if (First.empty())
      First = R->Stdout;
    else
      EXPECT_EQ(R->Stdout, First) << P.Name;
  }
}

TEST(Csmith, DifferentialAgreesWithHostCompiler) {
  if (!csmith::oracleAvailable())
    GTEST_SKIP() << "no host C compiler";
  csmith::GenOptions O;
  auto S = csmith::validateSeeds(/*FirstSeed=*/500, /*Count=*/5, O);
  EXPECT_EQ(S.Mismatch, 0u);
  EXPECT_GE(S.Agree, 4u); // allow one timeout, like the paper's tail
}
