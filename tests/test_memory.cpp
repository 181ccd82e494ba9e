//===-- tests/test_memory.cpp - memory object model unit tests ------------===//

#include "mem/Memory.h"

#include <gtest/gtest.h>

using namespace cerb;
using namespace cerb::mem;
using ail::CType;
using ail::IntKind;

namespace {

struct MemFixture : ::testing::Test {
  ail::TagTable Tags;
  ail::ImplEnv Env{Tags};

  Memory make(MemoryPolicy P) { return Memory(Env, P); }
};

MemValue intVal(Int128 V, Provenance P = Provenance::empty()) {
  return MemValue::integer(CType::intTy(), IntegerValue(V, P));
}

} // namespace

//===----------------------------------------------------------------------===//
// Allocation and basic load/store roundtrips across all policies
//===----------------------------------------------------------------------===//

class MemRoundtrip : public ::testing::TestWithParam<const char *> {
protected:
  MemoryPolicy policy() const {
    auto P = MemoryPolicy::byName(GetParam());
    return P ? *P : MemoryPolicy::defacto();
  }
};

TEST_P(MemRoundtrip, IntStoreLoad) {
  ail::TagTable Tags;
  ail::ImplEnv Env(Tags);
  Memory M(Env, policy());
  PointerValue P = M.allocateObject(CType::intTy(), "x", false);
  ASSERT_TRUE(static_cast<bool>(M.store(CType::intTy(), P, intVal(1234))));
  auto R = M.load(CType::intTy(), P);
  ASSERT_TRUE(static_cast<bool>(R));
  EXPECT_EQ(R->IV.V, Int128(1234));
}

TEST_P(MemRoundtrip, NegativeValuesSignExtend) {
  ail::TagTable Tags;
  ail::ImplEnv Env(Tags);
  Memory M(Env, policy());
  CType Sh = CType::makeInteger(IntKind::Short);
  PointerValue P = M.allocateObject(Sh, "s", false);
  ASSERT_TRUE(static_cast<bool>(
      M.store(Sh, P, MemValue::integer(Sh, IntegerValue(-2)))));
  auto R = M.load(Sh, P);
  ASSERT_TRUE(static_cast<bool>(R));
  EXPECT_EQ(R->IV.V, Int128(-2));
}

TEST_P(MemRoundtrip, PointerStoreLoadKeepsProvenance) {
  ail::TagTable Tags;
  ail::ImplEnv Env(Tags);
  Memory M(Env, policy());
  CType IntPtr = CType::makePointer(CType::intTy());
  PointerValue X = M.allocateObject(CType::intTy(), "x", false);
  PointerValue Cell = M.allocateObject(IntPtr, "p", false);
  ASSERT_TRUE(static_cast<bool>(
      M.store(IntPtr, Cell, MemValue::pointer(IntPtr, X))));
  auto R = M.load(IntPtr, Cell);
  ASSERT_TRUE(static_cast<bool>(R));
  EXPECT_EQ(R->PV.Addr, X.Addr);
  EXPECT_TRUE(R->PV.Prov == X.Prov);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, MemRoundtrip,
                         ::testing::Values("concrete", "defacto",
                                           "strict-iso", "cheri"));

TEST_F(MemFixture, CopyOwnsItsBytes) {
  // The explorer copies a machine's memory at a choice point; the copy and
  // the original must then evolve independently.
  Memory M = make(MemoryPolicy::defacto());
  PointerValue X = M.allocateObject(CType::intTy(), "x", false);
  PointerValue Y = M.allocateObject(CType::intTy(), "y", false);
  ASSERT_TRUE(static_cast<bool>(M.store(CType::intTy(), X, intVal(1))));
  ASSERT_TRUE(static_cast<bool>(M.store(CType::intTy(), Y, intVal(2))));
  Memory C(M);
  ASSERT_EQ(C.allocations().size(), 2u);
  for (size_t I = 0; I < 2; ++I)
    EXPECT_NE(C.allocations()[I].Bytes, M.allocations()[I].Bytes);
  ASSERT_TRUE(static_cast<bool>(M.store(CType::intTy(), X, intVal(10))));
  ASSERT_TRUE(static_cast<bool>(C.store(CType::intTy(), Y, intVal(20))));
  EXPECT_EQ(M.load(CType::intTy(), X)->IV.V, Int128(10));
  EXPECT_EQ(M.load(CType::intTy(), Y)->IV.V, Int128(2));
  EXPECT_EQ(C.load(CType::intTy(), X)->IV.V, Int128(1));
  EXPECT_EQ(C.load(CType::intTy(), Y)->IV.V, Int128(20));
  // New objects land after the copied ones, at the same addresses.
  PointerValue Z = M.allocateObject(CType::intTy(), "z", false);
  PointerValue ZC = C.allocateObject(CType::intTy(), "z", false);
  EXPECT_EQ(Z.Addr, ZC.Addr);
}

//===----------------------------------------------------------------------===//
// Provenance checks (de facto model)
//===----------------------------------------------------------------------===//

TEST_F(MemFixture, AccessOutsideProvenanceFootprintIsUB) {
  Memory M = make(MemoryPolicy::defacto());
  PointerValue X = M.allocateObject(CType::intTy(), "x", false);
  PointerValue Y = M.allocateObject(CType::intTy(), "y", false);
  // Forge a pointer with x's provenance but y's address.
  PointerValue Forged = X;
  Forged.Addr = Y.Addr;
  auto R = M.load(CType::intTy(), Forged);
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_EQ(R.ub().Kind, UBKind::AccessOutOfBounds);
}

TEST_F(MemFixture, ConcreteModelAllowsCrossObjectAddresses) {
  Memory M = make(MemoryPolicy::concrete());
  PointerValue X = M.allocateObject(CType::intTy(), "x", false);
  PointerValue Y = M.allocateObject(CType::intTy(), "y", false);
  ASSERT_TRUE(static_cast<bool>(M.store(CType::intTy(), Y, intVal(5))));
  PointerValue Forged = X;
  Forged.Addr = Y.Addr;
  auto R = M.load(CType::intTy(), Forged);
  ASSERT_TRUE(static_cast<bool>(R));
  EXPECT_EQ(R->IV.V, Int128(5));
}

TEST_F(MemFixture, EmptyProvenanceAccessIsUB) {
  Memory M = make(MemoryPolicy::defacto());
  PointerValue X = M.allocateObject(CType::intTy(), "x", false);
  PointerValue P;
  P.Addr = X.Addr; // right address, no provenance
  auto R = M.load(CType::intTy(), P);
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_EQ(R.ub().Kind, UBKind::AccessNoProvenance);
}

TEST_F(MemFixture, WildcardProvenanceResolvesByAddress) {
  Memory M = make(MemoryPolicy::defacto());
  PointerValue X = M.allocateObject(CType::intTy(), "x", false);
  ASSERT_TRUE(static_cast<bool>(M.store(CType::intTy(), X, intVal(7))));
  PointerValue P;
  P.Prov = Provenance::wildcard();
  P.Addr = X.Addr;
  auto R = M.load(CType::intTy(), P);
  ASSERT_TRUE(static_cast<bool>(R));
  EXPECT_EQ(R->IV.V, Int128(7));
}

TEST_F(MemFixture, DeadObjectAccessIsUB) {
  Memory M = make(MemoryPolicy::defacto());
  PointerValue X = M.allocateObject(CType::intTy(), "x", false);
  ASSERT_TRUE(static_cast<bool>(M.killObject(X)));
  auto R = M.load(CType::intTy(), X);
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_EQ(R.ub().Kind, UBKind::AccessDeadObject);
}

//===----------------------------------------------------------------------===//
// Byte-level provenance (pointer copying, §2.3)
//===----------------------------------------------------------------------===//

TEST_F(MemFixture, CopyBytesCarriesPointerProvenance) {
  Memory M = make(MemoryPolicy::defacto());
  CType IntPtr = CType::makePointer(CType::intTy());
  PointerValue X = M.allocateObject(CType::intTy(), "x", false);
  PointerValue A = M.allocateObject(IntPtr, "a", false);
  PointerValue B = M.allocateObject(IntPtr, "b", false);
  ASSERT_TRUE(static_cast<bool>(
      M.store(IntPtr, A, MemValue::pointer(IntPtr, X))));
  ASSERT_TRUE(static_cast<bool>(M.copyBytes(B, A, 8)));
  auto R = M.load(IntPtr, B);
  ASSERT_TRUE(static_cast<bool>(R));
  EXPECT_TRUE(R->PV.Prov == X.Prov);
  // And the copied pointer is usable:
  EXPECT_TRUE(static_cast<bool>(M.store(CType::intTy(), R->PV, intVal(1))));
}

TEST_F(MemFixture, MixedProvenanceBytesGiveEmptyProvenance) {
  Memory M = make(MemoryPolicy::defacto());
  CType IntPtr = CType::makePointer(CType::intTy());
  PointerValue X = M.allocateObject(CType::intTy(), "x", false);
  PointerValue Y = M.allocateObject(CType::intTy(), "y", false);
  PointerValue A = M.allocateObject(IntPtr, "a", false);
  PointerValue B = M.allocateObject(IntPtr, "b", false);
  ASSERT_TRUE(static_cast<bool>(
      M.store(IntPtr, A, MemValue::pointer(IntPtr, X))));
  ASSERT_TRUE(static_cast<bool>(
      M.store(IntPtr, B, MemValue::pointer(IntPtr, Y))));
  // Splice: low 4 bytes from A, high 4 from B.
  PointerValue BHigh = B, AHigh = A;
  AHigh.Addr += 4;
  BHigh.Addr += 4;
  ASSERT_TRUE(static_cast<bool>(M.copyBytes(AHigh, BHigh, 4)));
  auto R = M.load(IntPtr, A);
  ASSERT_TRUE(static_cast<bool>(R));
  EXPECT_TRUE(R->PV.Prov.isEmpty()); // mixed-origin representation
}

TEST_F(MemFixture, UnwrittenBytesLoadAsUnspecified) {
  Memory M = make(MemoryPolicy::defacto());
  PointerValue X = M.allocateObject(CType::intTy(), "x", false);
  auto R = M.load(CType::intTy(), X);
  ASSERT_TRUE(static_cast<bool>(R));
  EXPECT_TRUE(R->isUnspecified());
}

TEST_F(MemFixture, StaticObjectsAreZeroInitialised) {
  Memory M = make(MemoryPolicy::defacto());
  PointerValue X = M.allocateObject(CType::intTy(), "g", /*Static=*/true);
  auto R = M.load(CType::intTy(), X);
  ASSERT_TRUE(static_cast<bool>(R));
  EXPECT_EQ(R->IV.V, Int128(0));
}

//===----------------------------------------------------------------------===//
// Pointer operations
//===----------------------------------------------------------------------===//

TEST_F(MemFixture, RelationalIgnoresProvenanceDeFacto) {
  Memory M = make(MemoryPolicy::defacto());
  PointerValue X = M.allocateObject(CType::intTy(), "x", false);
  PointerValue Y = M.allocateObject(CType::intTy(), "y", false);
  auto R = M.ptrRel(0, X, Y); // <
  ASSERT_TRUE(static_cast<bool>(R));
  EXPECT_EQ(R->V, Int128(X.Addr < Y.Addr ? 1 : 0));
}

TEST_F(MemFixture, RelationalAcrossObjectsUBStrict) {
  Memory M = make(MemoryPolicy::strictIso());
  PointerValue X = M.allocateObject(CType::intTy(), "x", false);
  PointerValue Y = M.allocateObject(CType::intTy(), "y", false);
  auto R = M.ptrRel(0, X, Y);
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_EQ(R.ub().Kind, UBKind::RelationalDifferentObjects);
}

TEST_F(MemFixture, PtrDiffSameObject) {
  Memory M = make(MemoryPolicy::defacto());
  CType Arr = CType::makeArray(CType::intTy(), 8);
  PointerValue A = M.allocateObject(Arr, "a", false);
  PointerValue A5 = A;
  A5.Addr += 5 * 4;
  auto R = M.ptrDiff(CType::intTy(), A5, A);
  ASSERT_TRUE(static_cast<bool>(R));
  EXPECT_EQ(R->V, Int128(5));
  EXPECT_TRUE(R->Prov.isEmpty()); // diffs are pure integers (Q9)
}

TEST_F(MemFixture, ArrayShiftOOBStrictVsDeFacto) {
  CType Arr = CType::makeArray(CType::intTy(), 4);
  {
    Memory M = make(MemoryPolicy::defacto());
    PointerValue A = M.allocateObject(Arr, "a", false);
    auto R = M.arrayShift(A, CType::intTy(), 100); // transient OOB: ok
    EXPECT_TRUE(static_cast<bool>(R));
  }
  {
    Memory M = make(MemoryPolicy::strictIso());
    PointerValue A = M.allocateObject(Arr, "a", false);
    auto R = M.arrayShift(A, CType::intTy(), 100);
    ASSERT_FALSE(static_cast<bool>(R));
    EXPECT_EQ(R.ub().Kind, UBKind::OutOfBoundsArithmetic);
    auto OnePast = M.arrayShift(A, CType::intTy(), 4); // blessed
    EXPECT_TRUE(static_cast<bool>(OnePast));
  }
}

TEST_F(MemFixture, IntFromPtrRoundtrip) {
  Memory M = make(MemoryPolicy::defacto());
  PointerValue X = M.allocateObject(CType::intTy(), "x", false);
  auto I = M.intFromPtr(CType::uintptrTy(), X);
  ASSERT_TRUE(static_cast<bool>(I));
  EXPECT_TRUE(I->Prov == X.Prov);
  auto P = M.ptrFromInt(*I);
  ASSERT_TRUE(static_cast<bool>(P));
  EXPECT_EQ(P->Addr, X.Addr);
  EXPECT_TRUE(P->Prov == X.Prov);
}

TEST_F(MemFixture, FinishArithSubtractionKillsProvenance) {
  Memory M = make(MemoryPolicy::defacto());
  IntegerValue A(100, Provenance::alloc(1));
  IntegerValue B(40, Provenance::alloc(2));
  IntegerValue R = M.finishArith(ArithOp::Sub, A, B, 60, CType::sizeTy());
  EXPECT_TRUE(R.Prov.isEmpty()); // Q9: offsets are pure
  // One provenanced, one pure: provenance flows through.
  IntegerValue R2 =
      M.finishArith(ArithOp::Add, A, IntegerValue(4), 104, CType::sizeTy());
  EXPECT_TRUE(R2.Prov == A.Prov);
}

//===----------------------------------------------------------------------===//
// Heap discipline
//===----------------------------------------------------------------------===//

TEST_F(MemFixture, AllocationsPastTheBudgetGetANullPointer) {
  // Memory enforces MaxAllocatedBytes itself: every request past it gets
  // a null pointer, and the evaluator passes that on (malloc) or ends the
  // path (a declared object).
  const uint64_t Max = Memory::MaxAllocatedBytes;
  Memory M = make(MemoryPolicy::defacto());
  EXPECT_TRUE(M.allocateRegion(-1).isNull());
  EXPECT_TRUE(M.allocateRegion(Int128(1) << 64).isNull());
  EXPECT_TRUE(M.allocateRegion(Max + 1).isNull());
  EXPECT_TRUE(
      M.allocateObject(CType::makeArray(CType::charTy(), Max + 1), "a", false)
          .isNull());
  EXPECT_TRUE(M.allocations().empty());
  EXPECT_FALSE(M.allocateRegion(0).isNull());
  EXPECT_FALSE(M.allocateObject(CType::intTy(), "x", false).isNull());
}

TEST_F(MemFixture, AccessesNearTheTopOfTheAddressSpaceDoNotWrap) {
  // [Addr, Addr+Size) once wrapped round 2^64 and passed for an access
  // inside a low object, which then read the host's memory at offset
  // Addr - Base.
  for (const char *Name : {"defacto", "concrete"}) {
    Memory M = make(*MemoryPolicy::byName(Name));
    PointerValue X = M.allocateObject(CType::intTy(), "x", false);
    PointerValue Top = X;
    Top.Addr = UINT64_MAX - 1;
    auto L = M.load(CType::intTy(), Top);
    ASSERT_FALSE(static_cast<bool>(L)) << Name;
    EXPECT_EQ(L.ub().Kind, UBKind::AccessOutOfBounds) << Name;
    auto S = M.setBytes(X, 0, UINT64_MAX);
    ASSERT_FALSE(static_cast<bool>(S)) << Name;
    EXPECT_EQ(S.ub().Kind, UBKind::AccessOutOfBounds) << Name;
  }
}

TEST_F(MemFixture, FreeDisciplines) {
  Memory M = make(MemoryPolicy::defacto());
  PointerValue H = M.allocateRegion(16, 16);
  EXPECT_TRUE(static_cast<bool>(M.freeRegion(H)));
  auto Again = M.freeRegion(H);
  ASSERT_FALSE(static_cast<bool>(Again));
  EXPECT_EQ(Again.ub().Kind, UBKind::DoubleFree);

  PointerValue X = M.allocateObject(CType::intTy(), "x", false);
  auto Bad = M.freeRegion(X);
  ASSERT_FALSE(static_cast<bool>(Bad));
  EXPECT_EQ(Bad.ub().Kind, UBKind::FreeInvalidPointer);

  EXPECT_TRUE(static_cast<bool>(M.freeRegion(PointerValue::null())));

  PointerValue H2 = M.allocateRegion(16, 16);
  PointerValue Mid = H2;
  Mid.Addr += 4;
  auto BadMid = M.freeRegion(Mid);
  ASSERT_FALSE(static_cast<bool>(BadMid));
  EXPECT_EQ(BadMid.ub().Kind, UBKind::FreeInvalidPointer);
}

//===----------------------------------------------------------------------===//
// Effective types (strict model)
//===----------------------------------------------------------------------===//

TEST_F(MemFixture, EffectiveTypeFromDeclaration) {
  Memory M = make(MemoryPolicy::strictIso());
  PointerValue X = M.allocateObject(CType::intTy(), "x", false);
  ASSERT_TRUE(static_cast<bool>(M.store(CType::intTy(), X, intVal(1))));
  // Reading as short violates the declared type...
  CType Sh = CType::makeInteger(IntKind::Short);
  auto Bad = M.load(Sh, X);
  ASSERT_FALSE(static_cast<bool>(Bad));
  EXPECT_EQ(Bad.ub().Kind, UBKind::EffectiveTypeViolation);
  // ...but character-type access is always allowed (6.5p7).
  auto Ch = M.load(CType::makeInteger(IntKind::UChar), X);
  EXPECT_TRUE(static_cast<bool>(Ch));
  // ...and so is the signed/unsigned sibling.
  auto U = M.load(CType::uintTy(), X);
  EXPECT_TRUE(static_cast<bool>(U));
}

TEST_F(MemFixture, EffectiveTypeOfMallocSetByStore) {
  Memory M = make(MemoryPolicy::strictIso());
  PointerValue H = M.allocateRegion(8, 8);
  ASSERT_TRUE(static_cast<bool>(M.store(CType::intTy(), H, intVal(1))));
  EXPECT_TRUE(static_cast<bool>(M.load(CType::intTy(), H)));
  CType Sh = CType::makeInteger(IntKind::Short);
  auto Bad = M.load(Sh, H);
  ASSERT_FALSE(static_cast<bool>(Bad));
  EXPECT_EQ(Bad.ub().Kind, UBKind::EffectiveTypeViolation);
  // A fresh store re-types the offset.
  ASSERT_TRUE(static_cast<bool>(
      M.store(Sh, H, MemValue::integer(Sh, IntegerValue(2)))));
  EXPECT_TRUE(static_cast<bool>(M.load(Sh, H)));
}

//===----------------------------------------------------------------------===//
// CHERI capability semantics (§4)
//===----------------------------------------------------------------------===//

TEST_F(MemFixture, CheriTagRequiredForAccess) {
  Memory M = make(MemoryPolicy::cheri());
  PointerValue X = M.allocateObject(CType::intTy(), "x", false);
  ASSERT_TRUE(X.Cap && X.Cap->Tag);
  PointerValue Untagged = X;
  Untagged.Cap = Capability{0, 0, false};
  auto R = M.load(CType::intTy(), Untagged);
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_EQ(R.ub().Kind, UBKind::CapabilityTagViolation);
}

TEST_F(MemFixture, CheriOffsetAndQuirk) {
  Memory M = make(MemoryPolicy::cheri());
  CType L = CType::makeInteger(IntKind::Long);
  PointerValue X = M.allocateObject(L, "x", false);
  auto I = M.intFromPtr(CType::uintptrTy(), X);
  ASSERT_TRUE(static_cast<bool>(I) && I->Cap);
  // (i & 7): numerically 0 (aligned base), but the capability AND applies
  // to the *offset* and re-adds the base (§4).
  IntegerValue R = M.finishArith(ArithOp::And, *I, IntegerValue(7),
                                 /*NumericResult=*/0, CType::uintptrTy());
  EXPECT_EQ(R.V, Int128(X.Addr)); // base + (0 & 7) == base != 0
}

TEST_F(MemFixture, CheriExactEquality) {
  Memory M = make(MemoryPolicy::cheri());
  PointerValue X = M.allocateObject(CType::intTy(), "x", false);
  PointerValue Y = M.allocateObject(CType::intTy(), "y", false);
  PointerValue XPlus = X;
  XPlus.Addr = Y.Addr; // same address as y, x's capability
  // Metadata differs -> not equal.
  EXPECT_EQ(M.ptrEq(XPlus, Y), PtrEquality::Unequal);
}

TEST_F(MemFixture, CheriByteCopyStripsTag) {
  Memory M = make(MemoryPolicy::cheri());
  CType IntPtr = CType::makePointer(CType::intTy());
  PointerValue X = M.allocateObject(CType::intTy(), "x", false);
  PointerValue A = M.allocateObject(IntPtr, "a", false);
  PointerValue B = M.allocateObject(IntPtr, "b", false);
  ASSERT_TRUE(static_cast<bool>(
      M.store(IntPtr, A, MemValue::pointer(IntPtr, X))));
  // Byte-granularity copy through unsigned char values: tags do not
  // survive (each byte is re-stored as a plain integer).
  CType UC = CType::makeInteger(IntKind::UChar);
  for (unsigned I = 0; I < 8; ++I) {
    PointerValue Src = A, Dst = B;
    Src.Addr += I;
    Dst.Addr += I;
    auto Byte = M.load(UC, Src);
    ASSERT_TRUE(static_cast<bool>(Byte));
    ASSERT_TRUE(static_cast<bool>(M.store(UC, Dst, *Byte)));
  }
  auto R = M.load(IntPtr, B);
  ASSERT_TRUE(static_cast<bool>(R));
  ASSERT_TRUE(R->PV.Cap.has_value());
  EXPECT_FALSE(R->PV.Cap->Tag);
}

//===----------------------------------------------------------------------===//
// Layout
//===----------------------------------------------------------------------===//

TEST_F(MemFixture, ReverseGlobalLayoutMakesYXAdjacent) {
  Memory M = make(MemoryPolicy::defacto());
  // Declaration order y then x (the paper's provenance_basic_global_yx).
  M.beginStaticLayout({{CType::intTy(), "y"}, {CType::intTy(), "x"}});
  PointerValue Y = M.allocateObject(CType::intTy(), "y", true);
  PointerValue X = M.allocateObject(CType::intTy(), "x", true);
  EXPECT_EQ(X.Addr + 4, Y.Addr); // &x + 1 == &y
}

TEST_F(MemFixture, AllocationsAreNaturallyAligned) {
  Memory M = make(MemoryPolicy::defacto());
  (void)M.allocateObject(CType::charTy(), "c", false);
  PointerValue L =
      M.allocateObject(CType::makeInteger(IntKind::Long), "l", false);
  EXPECT_EQ(L.Addr % 8, 0u);
}
