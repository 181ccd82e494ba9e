//===-- tests/test_memory.cpp - memory object model unit tests ------------===//

#include "core/Core.h"
#include "mem/Memory.h"

#include <gtest/gtest.h>

using namespace cerb;
using namespace cerb::mem;
using ail::CType;
using ail::IntKind;
using core::loadValue;
using core::storeValue;

namespace {

struct MemFixture : ::testing::Test {
  ail::TagTable Tags;
  ail::ImplEnv Env{Tags};

  Memory make(MemoryPolicy P) { return Memory(Env, P); }
};

core::Value intVal(Int128 V) { return core::Value::integer(V); }

core::Value ptrVal(const PointerValue &P) { return core::Value::pointer(P); }

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
  ASSERT_TRUE(
      static_cast<bool>(storeValue(M, CType::intTy(), P, intVal(1234))));
  auto R = loadValue(M, CType::intTy(), P);
  ASSERT_TRUE(static_cast<bool>(R));
  EXPECT_EQ(R->num(), Int128(1234));
}

TEST_P(MemRoundtrip, NegativeValuesSignExtend) {
  ail::TagTable Tags;
  ail::ImplEnv Env(Tags);
  Memory M(Env, policy());
  CType Sh = CType::makeInteger(IntKind::Short);
  PointerValue P = M.allocateObject(Sh, "s", false);
  ASSERT_TRUE(static_cast<bool>(storeValue(M, Sh, P, intVal(-2))));
  auto R = loadValue(M, Sh, P);
  ASSERT_TRUE(static_cast<bool>(R));
  EXPECT_EQ(R->num(), Int128(-2));
}

TEST_P(MemRoundtrip, PointerStoreLoadKeepsProvenance) {
  ail::TagTable Tags;
  ail::ImplEnv Env(Tags);
  Memory M(Env, policy());
  CType IntPtr = Tags.pointerTo(CType::intTy());
  PointerValue X = M.allocateObject(CType::intTy(), "x", false);
  PointerValue Cell = M.allocateObject(IntPtr, "p", false);
  ASSERT_TRUE(static_cast<bool>(storeValue(M, IntPtr, Cell, ptrVal(X))));
  auto R = loadValue(M, IntPtr, Cell);
  ASSERT_TRUE(static_cast<bool>(R));
  EXPECT_EQ(R->ptrValue().Addr, X.Addr);
  EXPECT_TRUE(R->ptrValue().Prov == X.Prov);
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
  ASSERT_TRUE(static_cast<bool>(storeValue(M, CType::intTy(), X, intVal(1))));
  ASSERT_TRUE(static_cast<bool>(storeValue(M, CType::intTy(), Y, intVal(2))));
  Memory C(M);
  ASSERT_EQ(C.allocations().size(), 2u);
  for (size_t I = 0; I < 2; ++I)
    EXPECT_NE(C.allocations()[I].Bytes, M.allocations()[I].Bytes);
  ASSERT_TRUE(
      static_cast<bool>(storeValue(M, CType::intTy(), X, intVal(10))));
  ASSERT_TRUE(
      static_cast<bool>(storeValue(C, CType::intTy(), Y, intVal(20))));
  EXPECT_EQ(loadValue(M, CType::intTy(), X)->num(), Int128(10));
  EXPECT_EQ(loadValue(M, CType::intTy(), Y)->num(), Int128(2));
  EXPECT_EQ(loadValue(C, CType::intTy(), X)->num(), Int128(1));
  EXPECT_EQ(loadValue(C, CType::intTy(), Y)->num(), Int128(20));
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
  auto R = loadValue(M, CType::intTy(), Forged);
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_EQ(R.ub().Kind, UBKind::AccessOutOfBounds);
}

TEST_F(MemFixture, ConcreteModelAllowsCrossObjectAddresses) {
  Memory M = make(MemoryPolicy::concrete());
  PointerValue X = M.allocateObject(CType::intTy(), "x", false);
  PointerValue Y = M.allocateObject(CType::intTy(), "y", false);
  ASSERT_TRUE(static_cast<bool>(storeValue(M, CType::intTy(), Y, intVal(5))));
  PointerValue Forged = X;
  Forged.Addr = Y.Addr;
  auto R = loadValue(M, CType::intTy(), Forged);
  ASSERT_TRUE(static_cast<bool>(R));
  EXPECT_EQ(R->num(), Int128(5));
}

TEST_F(MemFixture, EmptyProvenanceAccessIsUB) {
  Memory M = make(MemoryPolicy::defacto());
  PointerValue X = M.allocateObject(CType::intTy(), "x", false);
  PointerValue P;
  P.Addr = X.Addr; // right address, no provenance
  auto R = loadValue(M, CType::intTy(), P);
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_EQ(R.ub().Kind, UBKind::AccessNoProvenance);
}

TEST_F(MemFixture, WildcardProvenanceResolvesByAddress) {
  Memory M = make(MemoryPolicy::defacto());
  PointerValue X = M.allocateObject(CType::intTy(), "x", false);
  ASSERT_TRUE(static_cast<bool>(storeValue(M, CType::intTy(), X, intVal(7))));
  PointerValue P;
  P.Prov = Provenance::wildcard();
  P.Addr = X.Addr;
  auto R = loadValue(M, CType::intTy(), P);
  ASSERT_TRUE(static_cast<bool>(R));
  EXPECT_EQ(R->num(), Int128(7));
}

TEST_F(MemFixture, DeadObjectAccessIsUB) {
  Memory M = make(MemoryPolicy::defacto());
  PointerValue X = M.allocateObject(CType::intTy(), "x", false);
  ASSERT_TRUE(static_cast<bool>(M.killObject(X)));
  auto R = loadValue(M, CType::intTy(), X);
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_EQ(R.ub().Kind, UBKind::AccessDeadObject);
}

//===----------------------------------------------------------------------===//
// Byte-level provenance (pointer copying, §2.3)
//===----------------------------------------------------------------------===//

TEST_F(MemFixture, CopyBytesCarriesPointerProvenance) {
  Memory M = make(MemoryPolicy::defacto());
  CType IntPtr = Tags.pointerTo(CType::intTy());
  PointerValue X = M.allocateObject(CType::intTy(), "x", false);
  PointerValue A = M.allocateObject(IntPtr, "a", false);
  PointerValue B = M.allocateObject(IntPtr, "b", false);
  ASSERT_TRUE(static_cast<bool>(storeValue(M, IntPtr, A, ptrVal(X))));
  ASSERT_TRUE(static_cast<bool>(M.copyBytes(B, A, 8)));
  auto R = loadValue(M, IntPtr, B);
  ASSERT_TRUE(static_cast<bool>(R));
  EXPECT_TRUE(R->ptrValue().Prov == X.Prov);
  // And the copied pointer is usable:
  EXPECT_TRUE(static_cast<bool>(
      storeValue(M, CType::intTy(), R->ptrValue(), intVal(1))));
}

TEST_F(MemFixture, MixedProvenanceBytesGiveEmptyProvenance) {
  Memory M = make(MemoryPolicy::defacto());
  CType IntPtr = Tags.pointerTo(CType::intTy());
  PointerValue X = M.allocateObject(CType::intTy(), "x", false);
  PointerValue Y = M.allocateObject(CType::intTy(), "y", false);
  PointerValue A = M.allocateObject(IntPtr, "a", false);
  PointerValue B = M.allocateObject(IntPtr, "b", false);
  ASSERT_TRUE(static_cast<bool>(storeValue(M, IntPtr, A, ptrVal(X))));
  ASSERT_TRUE(static_cast<bool>(storeValue(M, IntPtr, B, ptrVal(Y))));
  // Splice: low 4 bytes from A, high 4 from B.
  PointerValue BHigh = B, AHigh = A;
  AHigh.Addr += 4;
  BHigh.Addr += 4;
  ASSERT_TRUE(static_cast<bool>(M.copyBytes(AHigh, BHigh, 4)));
  auto R = loadValue(M, IntPtr, A);
  ASSERT_TRUE(static_cast<bool>(R));
  EXPECT_TRUE(R->ptrValue().Prov.isEmpty()); // mixed-origin representation
}

TEST_F(MemFixture, CopyBytesOverlappingRangesCopyAsMemmove) {
  // Inside one object, the bytes written are the source bytes as they
  // were before the copy, whichever way the ranges overlap.
  CType IntPtr = Tags.pointerTo(CType::intTy());
  Memory M = make(MemoryPolicy::defacto());
  PointerValue X = M.allocateObject(CType::intTy(), "x", false);
  PointerValue Y = M.allocateObject(CType::intTy(), "y", false);
  PointerValue Z = M.allocateObject(CType::intTy(), "z", false);
  PointerValue A = M.allocateObject(Tags.arrayOf(IntPtr, 3), "a", false);
  const MemByte *Bytes = M.allocations()[A.Prov.AllocId].Bytes;
  struct Case {
    uint64_t DstOff, SrcOff, N;
  };
  // Destination below the source (a forward copy) and above it (a
  // backward one), by a few bytes and by one.
  for (Case C : {Case{0, 4, 16}, Case{4, 0, 16}, Case{0, 1, 23},
                 Case{1, 0, 23}}) {
    PointerValue At = A;
    for (const PointerValue &P : {X, Y, Z}) {
      ASSERT_TRUE(static_cast<bool>(storeValue(M, IntPtr, At, ptrVal(P))));
      At.Addr += 8;
    }
    std::vector<MemByte> Before(Bytes, Bytes + 24);
    PointerValue Dst = A, Src = A;
    Dst.Addr += C.DstOff;
    Src.Addr += C.SrcOff;
    ASSERT_TRUE(static_cast<bool>(M.copyBytes(Dst, Src, C.N)));
    for (uint64_t I = 0; I < 24; ++I) {
      bool Written = I >= C.DstOff && I < C.DstOff + C.N;
      const MemByte &Want = Before[Written ? I - C.DstOff + C.SrcOff : I];
      EXPECT_EQ(Bytes[I].Value, Want.Value) << C.DstOff << "<-" << C.SrcOff
                                            << " byte " << I;
      EXPECT_TRUE(Bytes[I].Prov == Want.Prov) << "byte " << I;
      EXPECT_EQ(Bytes[I].PtrFrag, Want.PtrFrag) << "byte " << I;
    }
  }
}

TEST_F(MemFixture, UnwrittenBytesLoadAsUnspecified) {
  Memory M = make(MemoryPolicy::defacto());
  PointerValue X = M.allocateObject(CType::intTy(), "x", false);
  auto R = loadValue(M, CType::intTy(), X);
  ASSERT_TRUE(static_cast<bool>(R));
  EXPECT_EQ(R->kind(), core::ValueKind::Unspecified);
}

TEST_F(MemFixture, StaticObjectsAreZeroInitialised) {
  Memory M = make(MemoryPolicy::defacto());
  PointerValue X = M.allocateObject(CType::intTy(), "g", /*Static=*/true);
  auto R = loadValue(M, CType::intTy(), X);
  ASSERT_TRUE(static_cast<bool>(R));
  EXPECT_EQ(R->num(), Int128(0));
}

TEST_F(MemFixture, StoresLeaveNoStaleBytesBehind) {
  // A value is written straight into its object's bytes, so the bytes it
  // gives no value must be reset to unspecified: a struct's padding, a
  // union's bytes past its active member, the tail of a short array
  // value, and every byte of an unspecified value.
  unsigned S = Tags.createTag(false, "s");
  Tags.complete(S, {{"c", CType::charTy()}, {"i", CType::intTy()}});
  unsigned U = Tags.createTag(true, "u");
  Tags.complete(U, {{"c", CType::charTy()}, {"i", CType::intTy()}});
  CType St = Tags.tagType(S), Un = Tags.tagType(U);
  CType Arr = Tags.arrayOf(CType::intTy(), 4);
  CType IntPtr = Tags.pointerTo(CType::intTy());
  Memory M = make(MemoryPolicy::defacto());
  PointerValue X = M.allocateObject(CType::intTy(), "x", false);
  PointerValue Ptr = M.allocateObject(IntPtr, "p", false);
  ASSERT_TRUE(static_cast<bool>(storeValue(M, IntPtr, Ptr, ptrVal(X))));
  // Fills an object with pointer bytes: a value, provenance and a
  // fragment index on each.
  auto Dirty = [&](PointerValue P, uint64_t N) {
    for (uint64_t I = 0; I < N; I += 8, P.Addr += 8)
      ASSERT_TRUE(static_cast<bool>(
          M.copyBytes(P, Ptr, std::min<uint64_t>(8, N - I))));
  };
  // One letter a byte: 'v' has a value, '.' is wholly unspecified.
  auto Layout = [&](const PointerValue &P, uint64_t N) {
    const MemByte *B = M.allocations()[P.Prov.AllocId].Bytes;
    std::string Out;
    for (uint64_t I = 0; I < N; ++I) {
      bool Blank = !B[I].Value && B[I].Prov.isEmpty() &&
                   B[I].PtrFrag == -1 && !B[I].Cap;
      Out += B[I].Value ? 'v' : Blank ? '.' : '?';
    }
    return Out;
  };

  PointerValue PS = M.allocateObject(St, "s", false);
  Dirty(PS, 8);
  ASSERT_TRUE(static_cast<bool>(storeValue(
      M, St, PS, core::Value::structure(S, {intVal(1), intVal(2)}))));
  EXPECT_EQ(Layout(PS, 8), "v...vvvv");
  auto I = loadValue(M, CType::intTy(), [&] {
    PointerValue P = PS;
    P.Addr += 4;
    return P;
  }());
  ASSERT_TRUE(static_cast<bool>(I));
  EXPECT_EQ(I->num(), Int128(2));
  EXPECT_TRUE(I->prov().isEmpty());

  PointerValue PU = M.allocateObject(Un, "u", false);
  Dirty(PU, 4);
  ASSERT_TRUE(static_cast<bool>(
      storeValue(M, Un, PU, core::Value::unionValue(U, 0, intVal(7)))));
  EXPECT_EQ(Layout(PU, 4), "v...");

  PointerValue PA = M.allocateObject(Arr, "a", false);
  Dirty(PA, 16);
  ASSERT_TRUE(static_cast<bool>(
      storeValue(M, Arr, PA, core::Value::array({intVal(1), intVal(2)}))));
  EXPECT_EQ(Layout(PA, 16), "vvvvvvvv........");

  Dirty(PA, 16);
  ASSERT_TRUE(static_cast<bool>(storeValue(
      M, CType::intTy(), PA, core::Value::unspecified(CType::intTy()))));
  EXPECT_EQ(Layout(PA, 8), "....vvvv");
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
  CType Arr = Tags.arrayOf(CType::intTy(), 8);
  PointerValue A = M.allocateObject(Arr, "a", false);
  PointerValue A5 = A;
  A5.Addr += 5 * 4;
  auto R = M.ptrDiff(CType::intTy(), A5, A);
  ASSERT_TRUE(static_cast<bool>(R));
  EXPECT_EQ(R->V, Int128(5));
  EXPECT_TRUE(R->Prov.isEmpty()); // diffs are pure integers (Q9)
}

TEST_F(MemFixture, ArrayShiftOOBStrictVsDeFacto) {
  CType Arr = Tags.arrayOf(CType::intTy(), 4);
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
      M.allocateObject(Tags.arrayOf(CType::charTy(), Max + 1), "a", false)
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
    auto L = loadValue(M, CType::intTy(), Top);
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
  ASSERT_TRUE(static_cast<bool>(storeValue(M, CType::intTy(), X, intVal(1))));
  // Reading as short violates the declared type...
  CType Sh = CType::makeInteger(IntKind::Short);
  auto Bad = loadValue(M, Sh, X);
  ASSERT_FALSE(static_cast<bool>(Bad));
  EXPECT_EQ(Bad.ub().Kind, UBKind::EffectiveTypeViolation);
  // ...but character-type access is always allowed (6.5p7).
  auto Ch = loadValue(M, CType::makeInteger(IntKind::UChar), X);
  EXPECT_TRUE(static_cast<bool>(Ch));
  // ...and so is the signed/unsigned sibling.
  auto U = loadValue(M, CType::uintTy(), X);
  EXPECT_TRUE(static_cast<bool>(U));
}

TEST_F(MemFixture, EffectiveTypeOfMallocSetByStore) {
  Memory M = make(MemoryPolicy::strictIso());
  PointerValue H = M.allocateRegion(8, 8);
  ASSERT_TRUE(static_cast<bool>(storeValue(M, CType::intTy(), H, intVal(1))));
  EXPECT_TRUE(static_cast<bool>(loadValue(M, CType::intTy(), H)));
  CType Sh = CType::makeInteger(IntKind::Short);
  auto Bad = loadValue(M, Sh, H);
  ASSERT_FALSE(static_cast<bool>(Bad));
  EXPECT_EQ(Bad.ub().Kind, UBKind::EffectiveTypeViolation);
  // A fresh store re-types the offset.
  ASSERT_TRUE(static_cast<bool>(storeValue(M, Sh, H, intVal(2))));
  EXPECT_TRUE(static_cast<bool>(loadValue(M, Sh, H)));
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
  auto R = loadValue(M, CType::intTy(), Untagged);
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
  CType IntPtr = Tags.pointerTo(CType::intTy());
  PointerValue X = M.allocateObject(CType::intTy(), "x", false);
  PointerValue A = M.allocateObject(IntPtr, "a", false);
  PointerValue B = M.allocateObject(IntPtr, "b", false);
  ASSERT_TRUE(static_cast<bool>(storeValue(M, IntPtr, A, ptrVal(X))));
  // Byte-granularity copy through unsigned char values: tags do not
  // survive (each byte is re-stored as a plain integer).
  CType UC = CType::makeInteger(IntKind::UChar);
  for (unsigned I = 0; I < 8; ++I) {
    PointerValue Src = A, Dst = B;
    Src.Addr += I;
    Dst.Addr += I;
    auto Byte = loadValue(M, UC, Src);
    ASSERT_TRUE(static_cast<bool>(Byte));
    ASSERT_TRUE(static_cast<bool>(storeValue(M, UC, Dst, *Byte)));
  }
  auto R = loadValue(M, IntPtr, B);
  ASSERT_TRUE(static_cast<bool>(R));
  ASSERT_TRUE(R->ptrValue().Cap.has_value());
  EXPECT_FALSE(R->ptrValue().Cap->Tag);
}

TEST_F(MemFixture, CheriUintptrLoadChecksEveryFragmentIndex) {
  // A pointer's bytes copied into a uintptr_t object, then its byte 3
  // copied over byte 0: every byte still carries the same capability, but
  // the fragments are out of order, so neither load may keep the tag.
  Memory M = make(MemoryPolicy::cheri());
  CType IntPtr = Tags.pointerTo(CType::intTy());
  PointerValue X = M.allocateObject(CType::intTy(), "x", false);
  PointerValue A = M.allocateObject(IntPtr, "a", false);
  PointerValue U = M.allocateObject(CType::uintptrTy(), "u", false);
  ASSERT_TRUE(static_cast<bool>(storeValue(M, IntPtr, A, ptrVal(X))));
  ASSERT_TRUE(static_cast<bool>(M.copyBytes(U, A, 8)));
  auto Whole = loadValue(M, CType::uintptrTy(), U);
  ASSERT_TRUE(static_cast<bool>(Whole));
  ASSERT_TRUE(Whole->hasCap()); // in order: the capability stays
  EXPECT_TRUE(Whole->intValue().Cap->Tag);
  PointerValue A3 = A;
  A3.Addr += 3;
  ASSERT_TRUE(static_cast<bool>(M.copyBytes(U, A3, 1)));
  auto I = loadValue(M, CType::uintptrTy(), U);
  ASSERT_TRUE(static_cast<bool>(I));
  EXPECT_FALSE(I->hasCap() && I->intValue().Cap->Tag);
  auto P = loadValue(M, IntPtr, U);
  ASSERT_TRUE(static_cast<bool>(P));
  ASSERT_TRUE(P->ptrValue().Cap.has_value());
  EXPECT_FALSE(P->ptrValue().Cap->Tag);
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
