//===-- tests/test_types.cpp - CType / ImplEnv / typing unit tests --------===//

#include "ail/CType.h"
#include "ail/Desugar.h"
#include "cabs/Parser.h"
#include "defacto/Suite.h"
#include "typing/TypeCheck.h"

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <map>

using namespace cerb;
using namespace cerb::ail;

namespace {

struct TypesFixture : ::testing::Test {
  TagTable Tags;
  ImplEnv Env{Tags};
};

} // namespace

TEST_F(TypesFixture, ScalarSizesLP64) {
  EXPECT_EQ(Env.sizeOf(CType::makeInteger(IntKind::Char)), 1u);
  EXPECT_EQ(Env.sizeOf(CType::makeInteger(IntKind::Short)), 2u);
  EXPECT_EQ(Env.sizeOf(CType::makeInteger(IntKind::Int)), 4u);
  EXPECT_EQ(Env.sizeOf(CType::makeInteger(IntKind::Long)), 8u);
  EXPECT_EQ(Env.sizeOf(CType::makeInteger(IntKind::LongLong)), 8u);
  EXPECT_EQ(Env.sizeOf(Tags.pointerTo(CType::intTy())), 8u);
}

TEST_F(TypesFixture, StructLayoutWithPadding) {
  unsigned Tag = Tags.createTag(false, "s");
  Tags.complete(Tag, {{"c", CType::charTy()}, {"i", CType::intTy()}});
  CType S = Tags.tagType(Tag);
  EXPECT_EQ(Env.sizeOf(S), 8u); // 1 + 3 padding + 4
  EXPECT_EQ(Env.alignOf(S), 4u);
  EXPECT_EQ(Env.offsetOf(Tag, 0), 0u);
  EXPECT_EQ(Env.offsetOf(Tag, 1), 4u);
}

TEST_F(TypesFixture, StructTailPadding) {
  unsigned Tag = Tags.createTag(false, "t");
  Tags.complete(Tag, {{"i", CType::intTy()}, {"c", CType::charTy()}});
  EXPECT_EQ(Env.sizeOf(Tags.tagType(Tag)), 8u); // tail-padded to 4
}

TEST_F(TypesFixture, UnionLayout) {
  unsigned Tag = Tags.createTag(true, "u");
  Tags.complete(Tag, {{"c", CType::charTy()},
                      {"l", CType::makeInteger(IntKind::Long)}});
  CType U = Tags.tagType(Tag);
  EXPECT_EQ(Env.sizeOf(U), 8u);
  EXPECT_EQ(Env.offsetOf(Tag, 0), 0u);
  EXPECT_EQ(Env.offsetOf(Tag, 1), 0u);
}

TEST_F(TypesFixture, ArraySizes) {
  CType A = Tags.arrayOf(CType::intTy(), 7);
  EXPECT_EQ(Env.sizeOf(A), 28u);
  EXPECT_EQ(Env.alignOf(A), 4u);
}

TEST_F(TypesFixture, SizesSaturateInsteadOfWrapping) {
  // 2^40 * 2^24 bytes wrapped to 0, and an object of that type was then
  // created with no bytes; a zero value for it never finished building.
  CType Row = Tags.arrayOf(CType::charTy(), uint64_t(1) << 24);
  EXPECT_EQ(Env.sizeOf(Tags.arrayOf(Row, uint64_t(1) << 40)), UINT64_MAX);
  CType Half = Tags.arrayOf(CType::charTy(), uint64_t(1) << 63);
  unsigned Tag = Tags.createTag(false, "big");
  Tags.complete(Tag, {{"a", Half}, {"b", Half}, {"c", CType::intTy()}});
  EXPECT_GE(Env.sizeOf(Tags.tagType(Tag)), uint64_t(1) << 63);
  EXPECT_GE(Env.offsetOf(Tag, 2), uint64_t(1) << 63);
}

// A store of a struct value asks offsetOf for each member. Recomputed from
// the members on every call, that cost O(members^2) per store; laid out
// once at completion, the 60,000 queries here take microseconds.
TEST_F(TypesFixture, ManyMemberLayoutIsLinear) {
  const size_t N = 60000;
  std::vector<TagMember> Members;
  for (size_t I = 0; I < N; ++I)
    Members.push_back({"m" + std::to_string(I), CType::intTy()});
  auto T0 = std::chrono::steady_clock::now();
  unsigned Tag = Tags.createTag(false, "wide");
  Tags.complete(Tag, std::move(Members));
  unsigned Outer = Tags.createTag(false, "outer");
  Tags.complete(Outer, {{"c", CType::charTy()},
                        {"w", Tags.tagType(Tag)}});
  uint64_t Wrong = 0;
  for (size_t I = 0; I < N; ++I)
    Wrong += Env.offsetOf(Tag, I) != 4 * I;
  for (size_t I = 0; I < N; ++I)
    Wrong += Env.sizeOf(Tags.tagType(Outer)) != 4 * N + 4;
  double Secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - T0)
                    .count();
  EXPECT_EQ(Wrong, 0u);
  EXPECT_EQ(Env.offsetOf(Outer, 1), 4u);
  EXPECT_EQ(Env.alignOf(Tags.tagType(Outer)), 4u);
  EXPECT_LT(Secs, 2.0) << "layout queries walk the members again";
}

namespace {

/// The layout of \p Tag recomputed from its members on every query, as
/// ImplEnv did before TagTable::complete cached it.
struct Relayout {
  const TagTable &Tags;
  ImplEnv Env{Tags};

  uint64_t size(const CType &T) {
    if (!T.isStructOrUnion())
      return T.isArray() ? *T.arraySize() * size(T.element())
                         : Env.sizeOf(T);
    const TagDef &D = Tags.get(T.tag());
    if (D.Members.empty())
      return 1;
    uint64_t End = 0, A = align(T);
    for (size_t I = 0; I < D.Members.size(); ++I) {
      uint64_t S = size(D.Members[I].Ty);
      End = D.IsUnion ? std::max(End, S) : offset(T.tag(), I) + S;
    }
    return End == 0 && D.IsUnion ? 1 : (End + A - 1) / A * A;
  }
  uint64_t align(const CType &T) {
    if (T.isArray())
      return align(T.element());
    if (!T.isStructOrUnion())
      return Env.alignOf(T);
    uint64_t A = 1;
    for (const TagMember &M : Tags.get(T.tag()).Members)
      A = std::max(A, align(M.Ty));
    return A;
  }
  uint64_t offset(unsigned Tag, size_t Idx) {
    const TagDef &D = Tags.get(Tag);
    uint64_t Off = 0;
    for (size_t I = 0; !D.IsUnion && I <= Idx; ++I) {
      uint64_t A = align(D.Members[I].Ty);
      Off = (Off + A - 1) / A * A;
      if (I < Idx)
        Off += size(D.Members[I].Ty);
    }
    return Off;
  }
};

} // namespace

TEST(TagLayout, SuiteLayoutsMatchARecomputation) {
  unsigned Checked = 0;
  for (const defacto::TestCase &T : defacto::testSuite()) {
    auto Unit = cabs::parseTranslationUnit(T.Source);
    if (!Unit)
      continue;
    auto Prog = ail::desugar(*Unit);
    if (!Prog)
      continue;
    Relayout R{Prog->Tags};
    for (unsigned Tag = 0; Tag < Prog->Tags.size(); ++Tag) {
      const TagDef &D = Prog->Tags.get(Tag);
      if (!D.Complete)
        continue;
      CType Ty = Prog->Tags.tagType(Tag);
      EXPECT_EQ(R.Env.sizeOf(Ty), R.size(Ty)) << T.Name << " " << D.Name;
      EXPECT_EQ(R.Env.alignOf(Ty), R.align(Ty)) << T.Name << " " << D.Name;
      for (size_t I = 0; I < D.Members.size(); ++I)
        EXPECT_EQ(R.Env.offsetOf(Tag, I), R.offset(Tag, I))
            << T.Name << " " << D.Name << "." << D.Members[I].Name;
      ++Checked;
    }
  }
  EXPECT_GE(Checked, 20u);
}

TEST_F(TypesFixture, IntegerRanges) {
  EXPECT_EQ(Env.maxOf(IntKind::Int), Int128(2147483647));
  EXPECT_EQ(Env.minOf(IntKind::Int), Int128(-2147483647) - 1);
  EXPECT_EQ(Env.maxOf(IntKind::UInt), Int128(4294967295ULL));
  EXPECT_EQ(Env.minOf(IntKind::UInt), Int128(0));
  EXPECT_EQ(Env.maxOf(IntKind::Bool), Int128(1));
}

TEST_F(TypesFixture, ConversionSemantics) {
  // Unsigned conversions reduce modulo 2^N (6.3.1.3p2).
  EXPECT_EQ(Env.convert(IntKind::UChar, 258), Int128(2));
  EXPECT_EQ(Env.convert(IntKind::UInt, -1), Int128(4294967295ULL));
  // Our impl-defined signed conversion: twos-complement wrap (6.3.1.3p3).
  EXPECT_EQ(Env.convert(IntKind::SChar, 128), Int128(-128));
  EXPECT_EQ(Env.convert(IntKind::Int, Int128(1) << 31),
            Env.minOf(IntKind::Int));
  // _Bool: any nonzero becomes 1 (6.3.1.2).
  EXPECT_EQ(Env.convert(IntKind::Bool, 42), Int128(1));
  EXPECT_EQ(Env.convert(IntKind::Bool, 0), Int128(0));
}

TEST_F(TypesFixture, StructuralEquality) {
  CType A = Tags.pointerTo(CType::intTy());
  CType B = Tags.pointerTo(CType::intTy());
  EXPECT_TRUE(A == B);
  EXPECT_FALSE(A == Tags.pointerTo(CType::uintTy()));
  EXPECT_TRUE(Tags.arrayOf(CType::charTy(), 3) ==
              Tags.arrayOf(CType::charTy(), 3));
  EXPECT_FALSE(Tags.arrayOf(CType::charTy(), 3) ==
               Tags.arrayOf(CType::charTy(), 4));
  EXPECT_FALSE(Tags.arrayOf(CType::charTy(), std::nullopt) ==
               Tags.arrayOf(CType::charTy(), 0));
}

// Interning: a derived type built twice for one table is one node, so
// equality is identity and no structural walk is needed.
TEST_F(TypesFixture, DerivedTypesBuiltTwiceAreOneNode) {
  auto Build = [&] {
    CType IntPtr = Tags.pointerTo(CType::intTy());
    CType Arr = Tags.arrayOf(IntPtr, 4);
    CType Fn = Tags.functionType(CType::intTy(),
                                 {Tags.pointerTo(Arr), CType::charTy()},
                                 /*Variadic=*/false);
    return std::array<CType, 4>{IntPtr, Arr, Fn, Tags.pointerTo(Fn)};
  };
  std::array<CType, 4> First = Build();
  uint64_t Bytes = Tags.typeBytes();
  std::array<CType, 4> Second = Build();
  for (size_t I = 0; I < First.size(); ++I) {
    EXPECT_TRUE(First[I] == Second[I]) << First[I].str();
    EXPECT_EQ(std::hash<CType>()(First[I]), std::hash<CType>()(Second[I]));
  }
  EXPECT_EQ(Tags.typeBytes(), Bytes) << "the second build interned nothing";
  EXPECT_EQ(First[2].str(), "int(int*[4]*, char)");
  EXPECT_TRUE(First[2].paramTypes()[0].pointee() == First[1]);

  // Types that differ in any operand are different nodes.
  EXPECT_FALSE(Tags.functionType(CType::intTy(), {CType::charTy()}, false) ==
               Tags.functionType(CType::intTy(), {CType::charTy()}, true));
  EXPECT_FALSE(Tags.functionType(CType::intTy(), {}, false) ==
               Tags.functionType(CType::uintTy(), {}, false));
  // Void and the integer types are shared by every table.
  TagTable Other;
  EXPECT_TRUE(CType::intTy() == CType::makeInteger(IntKind::Int));
  EXPECT_TRUE(Other.pointerTo(CType::intTy()).pointee() == CType::intTy());
  // The tag's type is made once, with the tag.
  unsigned Tag = Tags.createTag(true, "u");
  EXPECT_TRUE(Tags.tagType(Tag) == Tags.tagType(Tag));
  EXPECT_TRUE(Tags.tagType(Tag).isUnion());
}

TEST(TypeInterning, OneProgramMakesEachTypeOnce) {
  auto Unit = cabs::parseTranslationUnit("int *a; int *b; int c[3]; int d[3];\n"
                                         "int f(int *p); int g(int *q);\n"
                                         "int main(void) { return 0; }\n");
  ASSERT_TRUE(static_cast<bool>(Unit));
  auto Prog = ail::desugar(*Unit);
  ASSERT_TRUE(static_cast<bool>(Prog));
  std::map<std::string, CType> Ty;
  for (const AilGlobal &G : Prog->Globals)
    Ty[Prog->Syms.nameOf(G.Sym)] = G.Ty;
  for (const auto &[Id, FnTy] : Prog->DeclaredFunctions)
    Ty[Prog->Syms.nameOf(Symbol{Id})] = FnTy;
  EXPECT_TRUE(Ty["a"] == Ty["b"]);
  EXPECT_TRUE(Ty["c"] == Ty["d"]);
  EXPECT_TRUE(Ty["f"] == Ty["g"]);
  EXPECT_TRUE(Ty["f"].paramTypes()[0] == Ty["a"]);
  EXPECT_TRUE(Prog->Tags.pointerTo(CType::intTy()) == Ty["a"]);
  EXPECT_TRUE(Prog->Tags.arrayOf(CType::intTy(), 3) == Ty["c"]);
}

TEST_F(TypesFixture, InternedTypesSurviveAMoveOfTheirTable) {
  std::vector<CType> Made;
  for (uint64_t N = 1; N <= 2000; ++N) // past the first chunk and index
    Made.push_back(Tags.arrayOf(CType::charTy(), N));
  TagTable Moved = std::move(Tags);
  for (uint64_t N = 1; N <= 2000; ++N) {
    ASSERT_EQ(*Made[N - 1].arraySize(), N);
    ASSERT_TRUE(Moved.arrayOf(CType::charTy(), N) == Made[N - 1]);
  }
  EXPECT_GE(Moved.typeBytes(), 2000 * sizeof(CTypeNode));
}

//===----------------------------------------------------------------------===//
// Integer constant decoding (6.4.4.1)
//===----------------------------------------------------------------------===//

struct ConstCase {
  const char *Spelling;
  long long Value;
  IntKind Kind;
};

// Printed as its spelling: the default printer dumps the struct's bytes,
// Spelling's address among them, and ctest's test names include that dump.
void PrintTo(const ConstCase &C, std::ostream *OS) {
  *OS << '"' << C.Spelling << '"';
}

class DecodeConst : public ::testing::TestWithParam<ConstCase> {};

TEST_P(DecodeConst, LadderAndValue) {
  const ConstCase &C = GetParam();
  auto R = decodeIntConst(C.Spelling, SourceLoc());
  ASSERT_TRUE(static_cast<bool>(R)) << C.Spelling;
  EXPECT_EQ(R->first, Int128(C.Value)) << C.Spelling;
  EXPECT_EQ(R->second.intKind(), C.Kind) << C.Spelling;
}

INSTANTIATE_TEST_SUITE_P(
    Ladder, DecodeConst,
    ::testing::Values(
        ConstCase{"0", 0, IntKind::Int},
        ConstCase{"42", 42, IntKind::Int},
        ConstCase{"2147483647", 2147483647LL, IntKind::Int},
        // Decimal constants never become unsigned without a suffix.
        ConstCase{"2147483648", 2147483648LL, IntKind::Long},
        // Hex constants may (6.4.4.1p5).
        ConstCase{"0x80000000", 2147483648LL, IntKind::UInt},
        ConstCase{"0xFFFFFFFF", 4294967295LL, IntKind::UInt},
        ConstCase{"1u", 1, IntKind::UInt},
        ConstCase{"1l", 1, IntKind::Long},
        ConstCase{"1ul", 1, IntKind::ULong},
        ConstCase{"1ll", 1, IntKind::LongLong},
        ConstCase{"0u", 0, IntKind::UInt},
        ConstCase{"017", 15, IntKind::Int},
        ConstCase{"0x10", 16, IntKind::Int}));

TEST(DecodeConstErrors, BadForms) {
  EXPECT_FALSE(static_cast<bool>(decodeIntConst("08", SourceLoc())));
  EXPECT_FALSE(static_cast<bool>(decodeIntConst("1uu", SourceLoc())));
  EXPECT_FALSE(static_cast<bool>(decodeIntConst("1lll", SourceLoc())));
  EXPECT_FALSE(static_cast<bool>(decodeIntConst("1.5", SourceLoc())));
}

//===----------------------------------------------------------------------===//
// Promotions and usual arithmetic conversions (6.3.1.1 / 6.3.1.8)
//===----------------------------------------------------------------------===//

TEST_F(TypesFixture, IntegerPromotions) {
  auto P = [&](IntKind K) {
    return typing::promote(Env, CType::makeInteger(K)).intKind();
  };
  EXPECT_EQ(P(IntKind::Bool), IntKind::Int);
  EXPECT_EQ(P(IntKind::Char), IntKind::Int);
  EXPECT_EQ(P(IntKind::UChar), IntKind::Int); // fits in int -> int
  EXPECT_EQ(P(IntKind::Short), IntKind::Int);
  EXPECT_EQ(P(IntKind::UShort), IntKind::Int);
  EXPECT_EQ(P(IntKind::Int), IntKind::Int);
  EXPECT_EQ(P(IntKind::UInt), IntKind::UInt);
  EXPECT_EQ(P(IntKind::Long), IntKind::Long);
}

struct UacCase {
  IntKind A, B, Result;
};

class UsualArith : public ::testing::TestWithParam<UacCase> {};

TEST_P(UsualArith, Table) {
  TagTable Tags;
  ImplEnv Env(Tags);
  const UacCase &C = GetParam();
  EXPECT_EQ(typing::usualArithmetic(Env, CType::makeInteger(C.A),
                                    CType::makeInteger(C.B))
                .intKind(),
            C.Result);
  // Symmetric.
  EXPECT_EQ(typing::usualArithmetic(Env, CType::makeInteger(C.B),
                                    CType::makeInteger(C.A))
                .intKind(),
            C.Result);
}

INSTANTIATE_TEST_SUITE_P(
    Table, UsualArith,
    ::testing::Values(
        UacCase{IntKind::Char, IntKind::Char, IntKind::Int},
        UacCase{IntKind::Int, IntKind::Int, IntKind::Int},
        UacCase{IntKind::Int, IntKind::UInt, IntKind::UInt},
        // long (64-bit) can represent all of unsigned int (32-bit).
        UacCase{IntKind::Long, IntKind::UInt, IntKind::Long},
        UacCase{IntKind::Int, IntKind::Long, IntKind::Long},
        UacCase{IntKind::Int, IntKind::ULong, IntKind::ULong},
        // long and unsigned long have equal rank 64-bit: unsigned wins.
        UacCase{IntKind::Long, IntKind::ULong, IntKind::ULong},
        // long long cannot represent all unsigned long values (same
        // width): the unsigned version of long long.
        UacCase{IntKind::LongLong, IntKind::ULong, IntKind::ULongLong},
        UacCase{IntKind::Short, IntKind::UShort, IntKind::Int}));

//===----------------------------------------------------------------------===//
// The -1 < (unsigned)0 surprise (§5.5)
//===----------------------------------------------------------------------===//

TEST_F(TypesFixture, MinusOneVsUnsignedZero) {
  // §5.5: "-1 < (unsigned int)0 ... can evaluate to 0 (false)".
  // The common type is unsigned int, so -1 converts to UINT_MAX.
  CType Common = typing::usualArithmetic(Env, CType::intTy(),
                                         CType::uintTy());
  EXPECT_EQ(Common.intKind(), IntKind::UInt);
  EXPECT_EQ(Env.convert(Common.intKind(), -1), Int128(4294967295ULL));
}
