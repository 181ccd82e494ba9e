//===-- tests/test_types.cpp - CType / ImplEnv / typing unit tests --------===//

#include "ail/CType.h"
#include "ail/Desugar.h"
#include "typing/TypeCheck.h"

#include <gtest/gtest.h>

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
  EXPECT_EQ(Env.sizeOf(CType::makePointer(CType::intTy())), 8u);
}

TEST_F(TypesFixture, StructLayoutWithPadding) {
  unsigned Tag = Tags.createTag(false, "s");
  Tags.complete(Tag, {{"c", CType::charTy()}, {"i", CType::intTy()}});
  CType S = CType::makeStruct(Tag);
  EXPECT_EQ(Env.sizeOf(S), 8u); // 1 + 3 padding + 4
  EXPECT_EQ(Env.alignOf(S), 4u);
  EXPECT_EQ(Env.offsetOf(Tag, 0), 0u);
  EXPECT_EQ(Env.offsetOf(Tag, 1), 4u);
}

TEST_F(TypesFixture, StructTailPadding) {
  unsigned Tag = Tags.createTag(false, "t");
  Tags.complete(Tag, {{"i", CType::intTy()}, {"c", CType::charTy()}});
  EXPECT_EQ(Env.sizeOf(CType::makeStruct(Tag)), 8u); // tail-padded to 4
}

TEST_F(TypesFixture, UnionLayout) {
  unsigned Tag = Tags.createTag(true, "u");
  Tags.complete(Tag, {{"c", CType::charTy()},
                      {"l", CType::makeInteger(IntKind::Long)}});
  CType U = CType::makeUnion(Tag);
  EXPECT_EQ(Env.sizeOf(U), 8u);
  EXPECT_EQ(Env.offsetOf(Tag, 0), 0u);
  EXPECT_EQ(Env.offsetOf(Tag, 1), 0u);
}

TEST_F(TypesFixture, ArraySizes) {
  CType A = CType::makeArray(CType::intTy(), 7);
  EXPECT_EQ(Env.sizeOf(A), 28u);
  EXPECT_EQ(Env.alignOf(A), 4u);
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
  CType A = CType::makePointer(CType::intTy());
  CType B = CType::makePointer(CType::intTy());
  EXPECT_TRUE(A == B);
  EXPECT_FALSE(A == CType::makePointer(CType::uintTy()));
  EXPECT_TRUE(CType::makeArray(CType::charTy(), 3) ==
              CType::makeArray(CType::charTy(), 3));
  EXPECT_FALSE(CType::makeArray(CType::charTy(), 3) ==
               CType::makeArray(CType::charTy(), 4));
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
