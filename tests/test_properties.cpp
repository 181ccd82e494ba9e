//===-- tests/test_properties.cpp - cross-cutting semantic invariants -----===//
//
// Property-style sweeps over generated programs and random values:
//  - a pseudorandom path's outcome is always among the exhaustive set;
//  - deterministic (choice-free) programs have exactly one outcome;
//  - integers of every kind round-trip through core::storeValue/loadValue;
//  - allocations never overlap;
//  - UB-free generated programs behave identically under every model.
//
//===----------------------------------------------------------------------===//

#include "core/Core.h"
#include "csmith/Generator.h"
#include "exec/Pipeline.h"
#include "mem/Memory.h"

#include <gtest/gtest.h>
#include <set>

using namespace cerb;

//===----------------------------------------------------------------------===//
// Driver coherence
//===----------------------------------------------------------------------===//

namespace {

/// Programs with genuine nondeterminism (indet call orders, Q2 equality).
const char *NondetPrograms[] = {
    R"(
#include <stdio.h>
int g;
int s(int v) { g = v; return 0; }
int main(void) { s(1) + s(2); printf("%d\n", g); return 0; }
)",
    R"(
#include <stdio.h>
int y, x;
int main(void) { printf("%d\n", &x + 1 == &y); return 0; }
)",
    R"(
#include <stdio.h>
int g;
int s(int v) { g = g * 10 + v; return v; }
int main(void) { int r = s(1) + s(2) + s(3); printf("%d %d\n", g, r);
  return 0; }
)",
};

} // namespace

class RandomInExhaustive
    : public ::testing::TestWithParam<std::tuple<int, uint64_t, int>> {};

TEST_P(RandomInExhaustive, EveryRandomPathIsAnAllowedBehaviour) {
  const char *Src = NondetPrograms[std::get<0>(GetParam())];
  uint64_t Seed = std::get<1>(GetParam());
  // Membership must hold under every memory policy, and against the
  // exhaustive set produced by either explorer (serial and parallel agree
  // by the determinism contract — checked directly in test_explore.cpp).
  const mem::MemoryPolicy Policies[] = {
      mem::MemoryPolicy::defacto(), mem::MemoryPolicy::concrete(),
      mem::MemoryPolicy::strictIso(), mem::MemoryPolicy::cheri()};
  const mem::MemoryPolicy &Policy = Policies[std::get<2>(GetParam())];
  auto Prog = exec::compile(Src);
  ASSERT_TRUE(static_cast<bool>(Prog));
  exec::RunOptions Opts;
  Opts.Policy = Policy;
  Opts.ExploreJobs = Seed % 2 ? 2 : 1; // alternate serial/parallel explorer
  auto Ex = exec::runExhaustive(*Prog, Opts);
  ASSERT_FALSE(Ex.Truncated);
  std::set<std::string> Allowed;
  for (const exec::Outcome &O : Ex.Distinct)
    Allowed.insert(O.str());
  exec::Outcome R = exec::runRandom(*Prog, Opts, Seed);
  EXPECT_TRUE(Allowed.count(R.str()))
      << "random path under " << Policy.Name
      << " produced a behaviour outside the exhaustive set:\n"
      << R.str();
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RandomInExhaustive,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(1u, 7u, 99u, 1234u, 777777u),
                       ::testing::Values(0, 1, 2, 3)));

TEST(Properties, GeneratedProgramsAreDeterministic) {
  // The csmith-lite generator emits choice-free programs: exhaustive mode
  // must find exactly one path and one outcome.
  for (uint64_t Seed : {11u, 12u, 13u, 14u}) {
    csmith::GenOptions O;
    O.Seed = Seed;
    auto Prog = exec::compile(csmith::generateProgram(O));
    ASSERT_TRUE(static_cast<bool>(Prog)) << "seed " << Seed;
    exec::RunOptions Opts;
    auto Ex = exec::runExhaustive(*Prog, Opts);
    EXPECT_EQ(Ex.PathsExplored, 1u) << "seed " << Seed;
    EXPECT_EQ(Ex.Distinct.size(), 1u) << "seed " << Seed;
  }
}

TEST(Properties, ModelsAgreeOnUBFreePrograms) {
  for (uint64_t Seed : {21u, 22u, 23u}) {
    csmith::GenOptions O;
    O.Seed = Seed;
    std::string Src = csmith::generateProgram(O);
    std::string First;
    for (auto P :
         {mem::MemoryPolicy::concrete(), mem::MemoryPolicy::defacto(),
          mem::MemoryPolicy::strictIso(), mem::MemoryPolicy::cheri()}) {
      exec::RunOptions Opts;
      Opts.Policy = P;
      auto R = exec::evaluateOnce(Src, Opts);
      ASSERT_TRUE(static_cast<bool>(R)) << P.Name;
      ASSERT_EQ(R->Kind, exec::OutcomeKind::Exit)
          << P.Name << " seed " << Seed << ": " << R->str();
      if (First.empty())
        First = R->Stdout;
      else
        EXPECT_EQ(R->Stdout, First) << P.Name << " seed " << Seed;
    }
  }
}

//===----------------------------------------------------------------------===//
// Memory invariants
//===----------------------------------------------------------------------===//

namespace {

/// Deterministic pseudo-random int in [lo, hi].
struct MiniRng {
  uint64_t S;
  explicit MiniRng(uint64_t Seed) : S(Seed ? Seed : 1) {}
  uint64_t next() {
    S ^= S << 13;
    S ^= S >> 7;
    S ^= S << 17;
    return S;
  }
  Int128 in(Int128 Lo, Int128 Hi) {
    UInt128 Range = static_cast<UInt128>(Hi - Lo) + 1; // may be 2^64
    return Lo + static_cast<Int128>(UInt128(next()) % Range);
  }
};

} // namespace

class SerializeRoundtrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerializeRoundtrip, IntValuesOfEveryKind) {
  ail::TagTable Tags;
  ail::ImplEnv Env(Tags);
  mem::Memory M(Env, mem::MemoryPolicy::defacto());
  MiniRng R(GetParam());

  const ail::IntKind Kinds[] = {
      ail::IntKind::Bool,   ail::IntKind::Char,  ail::IntKind::SChar,
      ail::IntKind::UChar,  ail::IntKind::Short, ail::IntKind::UShort,
      ail::IntKind::Int,    ail::IntKind::UInt,  ail::IntKind::Long,
      ail::IntKind::ULong,  ail::IntKind::LongLong,
      ail::IntKind::ULongLong};
  for (ail::IntKind K : Kinds) {
    ail::CType Ty = ail::CType::makeInteger(K);
    mem::PointerValue P = M.allocateObject(Ty, "cell", false);
    for (int I = 0; I < 8; ++I) {
      Int128 V = R.in(Env.minOf(K), Env.maxOf(K));
      ASSERT_TRUE(static_cast<bool>(
          core::storeValue(M, Ty, P, core::Value::integer(V))));
      auto L = core::loadValue(M, Ty, P);
      ASSERT_TRUE(static_cast<bool>(L));
      EXPECT_EQ(L->num(), V) << ail::intKindName(K);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeRoundtrip,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(Properties, AllocationsNeverOverlap) {
  ail::TagTable Tags;
  ail::ImplEnv Env(Tags);
  mem::Memory M(Env, mem::MemoryPolicy::defacto());
  MiniRng R(42);
  for (int I = 0; I < 200; ++I) {
    if (R.next() % 2)
      M.allocateObject(Tags.arrayOf(
                           ail::CType::charTy(),
                           1 + static_cast<uint64_t>(R.next() % 31)),
                       "obj", false);
    else
      M.allocateRegion(1 + R.next() % 63, 1ull << (R.next() % 5));
  }
  const auto &Allocs = M.allocations();
  for (size_t A = 0; A < Allocs.size(); ++A)
    for (size_t B = A + 1; B < Allocs.size(); ++B) {
      bool Disjoint = Allocs[A].Base + Allocs[A].Size <= Allocs[B].Base ||
                      Allocs[B].Base + Allocs[B].Size <= Allocs[A].Base;
      ASSERT_TRUE(Disjoint) << A << " vs " << B;
    }
}

TEST(Properties, ExhaustiveIsExhaustiveForQ2) {
  // Q2's nondeterministic equality has exactly two outcomes; the
  // exhaustive driver must find both and nothing else.
  auto Prog = exec::compile(R"(
#include <stdio.h>
int y, x;
int main(void) { printf("%d\n", &x + 1 == &y); return 0; }
)");
  ASSERT_TRUE(static_cast<bool>(Prog));
  exec::RunOptions Opts;
  auto Ex = exec::runExhaustive(*Prog, Opts);
  EXPECT_EQ(Ex.PathsExplored, 2u);
  EXPECT_EQ(Ex.Distinct.size(), 2u);
}

TEST(Properties, EventCountersTrackQ31) {
  // The OOB-transient event fires exactly when a pointer leaves its
  // object's footprint.
  auto Prog = exec::compile(R"(
int main(void) {
  int a[4];
  int *p = a + 6;
  p = p - 6;
  return 0;
}
)");
  ASSERT_TRUE(static_cast<bool>(Prog));
  LeftmostScheduler Sched;
  exec::Evaluator Eval(*Prog, Sched, mem::MemoryPolicy::defacto());
  exec::Outcome O = Eval.run();
  EXPECT_EQ(O.Kind, exec::OutcomeKind::Exit);
  EXPECT_GE(Eval.events().OutOfBoundsTransient, 1u);
}
