//===-- tests/test_defacto.cpp - the de facto suite across all models -----===//
//
// The paper's experimental backbone: every semantic test case, checked
// against its expected behaviour under every memory object model
// instantiation, as a parameterised sweep.
//
//===----------------------------------------------------------------------===//

#include "defacto/Questions.h"
#include "defacto/Suite.h"

#include <gtest/gtest.h>

#include <iterator>

using namespace cerb;
using namespace cerb::defacto;

//===----------------------------------------------------------------------===//
// Question registry
//===----------------------------------------------------------------------===//

TEST(Questions, CategoryTableMatchesPaper) {
  const auto &Cats = categories();
  ASSERT_EQ(Cats.size(), 22u); // the paper's 22 categories
  EXPECT_EQ(Cats.front().Name, "Pointer provenance basics");
  EXPECT_EQ(Cats.front().Count, 3u);
  EXPECT_EQ(Cats.back().Name, "Other questions");
  unsigned Total = 0;
  for (const Category &C : Cats)
    Total += C.Count;
  EXPECT_EQ(Total, questions().size());
}

TEST(Questions, ClassificationTotalsMatchPaper) {
  auto T = classificationTotals();
  EXPECT_EQ(T.PaperStated, 85u);
  EXPECT_EQ(T.IsoUnclear, 38u);      // §2: "for 38 the ISO standard is unclear"
  EXPECT_EQ(T.DefactoUnclear, 28u);  // "for 28 the de facto standards are unclear"
  EXPECT_EQ(T.Diverge, 26u);         // "for 26 there are significant differences"
}

TEST(Questions, CitedAnchorsLandInTheRightCategories) {
  // The reconstruction must place the paper's cited question numbers in
  // the categories the paper discusses them under.
  ASSERT_NE(findQuestion("Q25"), nullptr);
  EXPECT_EQ(findQuestion("Q25")->Category,
            "Pointer relational comparison (with <, >, <=, or >=)");
  EXPECT_EQ(findQuestion("Q31")->Category, "Pointer arithmetic");
  EXPECT_EQ(findQuestion("Q75")->Category,
            "Effective types and character arrays");
  EXPECT_EQ(findQuestion("Q49")->Category, "Unspecified values");
  EXPECT_EQ(findQuestion("Q52")->Category, "Unspecified values");
  EXPECT_EQ(findQuestion("Q5")->Category,
            "Pointer provenance via integer types");
  EXPECT_EQ(findQuestion("Q9")->Category,
            "Pointers involving multiple provenances");
}

TEST(Questions, LookupMissReturnsNull) {
  EXPECT_EQ(findQuestion("Q999"), nullptr);
}

//===----------------------------------------------------------------------===//
// The suite sweep: every test under every model
//===----------------------------------------------------------------------===//

namespace {

const char *const SweepModels[] = {"concrete", "defacto", "strict-iso",
                                    "cheri"};

// Indices, not pointers: gtest prints a parameter that has no printer as
// its raw bytes, and ctest's test names include that dump, so an address
// here would rename the test with every build and checkout path.
struct SweepCase {
  std::size_t Test;  // into testSuite()
  std::size_t Model; // into SweepModels
};

std::vector<SweepCase> allSweepCases() {
  std::vector<SweepCase> Out;
  const std::vector<TestCase> &Suite = testSuite();
  for (std::size_t T = 0; T != Suite.size(); ++T)
    for (std::size_t M = 0; M != std::size(SweepModels); ++M)
      if (Suite[T].Expected.count(SweepModels[M]))
        Out.push_back(SweepCase{T, M});
  return Out;
}

mem::MemoryPolicy policyByName(const std::string &N) {
  if (N == "concrete")
    return mem::MemoryPolicy::concrete();
  if (N == "strict-iso")
    return mem::MemoryPolicy::strictIso();
  if (N == "cheri")
    return mem::MemoryPolicy::cheri();
  return mem::MemoryPolicy::defacto();
}

} // namespace

class DeFactoSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(DeFactoSweep, ExpectedBehaviour) {
  const TestCase &T = testSuite()[GetParam().Test];
  const char *Model = SweepModels[GetParam().Model];
  TestResult R = runTest(T, policyByName(Model));
  ASSERT_TRUE(R.CompileOk) << R.CompileError;
  ASSERT_TRUE(R.HasExpectation);
  EXPECT_TRUE(R.Pass) << "expected " << T.Expected.at(Model).str()
                      << "\ngot:\n"
                      << [&] {
                           std::string S;
                           for (const exec::Outcome &O :
                                R.Outcomes.Distinct)
                             S += "  " + O.str() + "\n";
                           return S;
                         }();
}

INSTANTIATE_TEST_SUITE_P(
    AllTestsAllModels, DeFactoSweep, ::testing::ValuesIn(allSweepCases()),
    [](const ::testing::TestParamInfo<SweepCase> &Info) {
      std::string Name = testSuite()[Info.param.Test].Name + "_" +
                         SweepModels[Info.param.Model];
      for (char &C : Name)
        if (!isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });

//===----------------------------------------------------------------------===//
// Structural properties of the suite
//===----------------------------------------------------------------------===//

TEST(Suite, EveryTestHasAllFourExpectations) {
  for (const TestCase &T : testSuite()) {
    EXPECT_EQ(T.Expected.size(), 4u) << T.Name;
    EXPECT_FALSE(T.Description.empty()) << T.Name;
    EXPECT_FALSE(T.QuestionId.empty()) << T.Name;
  }
}

TEST(Suite, NamesAreUnique) {
  std::set<std::string> Names;
  for (const TestCase &T : testSuite())
    EXPECT_TRUE(Names.insert(T.Name).second) << T.Name;
}

TEST(Suite, FindTestWorks) {
  EXPECT_NE(findTest("provenance_basic_global_yx"), nullptr);
  EXPECT_EQ(findTest("no_such_test"), nullptr);
}

TEST(Suite, HeadlineExampleDivergesBetweenModels) {
  // The §2.1 observable: concrete executes, provenance models flag UB.
  const TestCase *T = findTest("provenance_basic_global_yx");
  ASSERT_NE(T, nullptr);
  TestResult Concrete = runTest(*T, mem::MemoryPolicy::concrete());
  TestResult DeFacto = runTest(*T, mem::MemoryPolicy::defacto());
  ASSERT_EQ(Concrete.Outcomes.Distinct.size(), 1u);
  ASSERT_EQ(DeFacto.Outcomes.Distinct.size(), 1u);
  EXPECT_EQ(Concrete.Outcomes.Distinct[0].Kind, exec::OutcomeKind::Exit);
  EXPECT_EQ(Concrete.Outcomes.Distinct[0].Stdout,
            "x=1 y=11 *p=11 *q=11\n");
  EXPECT_TRUE(DeFacto.Outcomes.Distinct[0].isUndef(
      mem::UBKind::AccessOutOfBounds));
}
