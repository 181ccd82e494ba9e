//===-- mem/Memory.h - The pluggable memory object model --------*- C++ -*-===//
///
/// \file
/// Cerberus is "parameterised on its memory model" (abstract). This is that
/// parameter: every Core `ptrop` and memory action (Fig. 2) is answered
/// here. One byte-backed implementation serves four instantiations selected
/// by MemoryPolicy presets:
///
///  - `concrete`  — flat addresses, no provenance (K&R's "the same sort of
///                  objects that most computers do", §2.1);
///  - `defacto`   — the paper's candidate de facto model (§5.9): DR260
///                  allocation-ID provenance on pointers *and* integers,
///                  byte-granularity provenance (pointer copying, §2.3),
///                  out-of-bounds construction permitted with access-time
///                  checks (Q31), relational comparison ignoring provenance
///                  (Q25), inter-object subtraction forbidden (Q9);
///  - `strictIso` — an ISO-faithful reading: effective types enforced,
///                  relational comparison across objects UB (6.5.8p5),
///                  out-of-bounds arithmetic UB at the arithmetic (6.5.6p8);
///  - `cheri`     — a simulation of CHERI C (§4): capability-carrying
///                  pointers and uintptr_t values with base/length/tag,
///                  exact-equality, and the offset-AND quirk.
///
//===----------------------------------------------------------------------===//
#ifndef CERB_MEM_MEMORY_H
#define CERB_MEM_MEMORY_H

#include "ail/CType.h"
#include "mem/UB.h"
#include "mem/Value.h"
#include "support/Expected.h"

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cerb::mem {


/// The knobs distinguishing the model instantiations (and the §3 analysis-
/// tool profiles, which are also policies).
struct MemoryPolicy {
  std::string Name = "defacto";

  /// Access-time provenance checking (DR260). Off = concrete semantics.
  bool TrackProvenance = true;
  /// Q31: permit transient out-of-bounds pointer construction; when false,
  /// pointer arithmetic leaving [base, base+size] is UB immediately.
  bool PermitOOBConstruction = true;
  /// Q25: when true, `<` on pointers to different objects is UB (ISO
  /// 6.5.8p5); when false the comparison simply compares addresses.
  bool RelationalAcrossObjectsUB = false;
  /// Q2: pointer equality may nondeterministically consult provenance.
  bool EqMayConsultProvenance = true;
  /// Q9: inter-object pointer subtraction is UB (both ISO and the candidate
  /// de facto model forbid it; the concrete model allows it).
  bool PtrDiffAcrossObjectsUB = true;
  /// Effective-type (TBAA) enforcement, 6.5p6-7 (Q75 etc.).
  bool StrictEffectiveTypes = false;
  /// §2.4 option (1): reading an uninitialised object is UB outright.
  /// Otherwise reads yield unspecified values that propagate daemonically.
  bool UninitReadIsUB = false;
  /// Byte-level library operations (memcmp, string reads) over
  /// unspecified bytes are UB. KCC's semantics is strict for scalar
  /// uninitialised reads "but not for padding bytes" (§3), so the two
  /// knobs are separate.
  bool UninitByteOpsAreUB = false;
  /// Alignment checking on access (6.3.2.3p7).
  bool CheckAlignment = false;
  /// Lay file-scope objects out at decreasing declaration order, matching
  /// the GCC behaviour the paper's provenance_basic_global_yx.c example
  /// relies on (`int y=2, x=1;` placing x immediately below y).
  bool ReverseGlobalLayout = true;
  /// CHERI capability semantics (§4).
  bool Cheri = false;
  /// CHERI: compare pointers by address *and* metadata (the instruction the
  /// CHERI developers added in response to the paper's findings).
  bool CheriExactEquals = true;

  static MemoryPolicy concrete();
  static MemoryPolicy defacto();
  static MemoryPolicy strictIso();
  static MemoryPolicy cheri();

  /// Looks a preset up by name, case-insensitively. Accepts the canonical
  /// Name of each preset ("concrete", "defacto", "strict-iso", "cheri")
  /// plus common aliases ("de-facto", "strictIso", "strict", "iso");
  /// unknown names yield nullopt. This is the single source of policy
  /// spelling for CLIs, benches, and tests.
  static std::optional<MemoryPolicy> byName(std::string_view Name);

  /// byName with a usable diagnostic: an unknown name returns an error
  /// message that lists the valid presets, so every CLI/protocol surface
  /// reports the same self-describing failure instead of a bare nullopt.
  static Expected<MemoryPolicy> named(std::string_view Name);

  /// The canonical preset names, in the order the paper discusses them.
  static const std::vector<std::string> &presetNames();

  /// All four presets, in presetNames() order (for sweeps).
  static std::vector<MemoryPolicy> allPresets();

  /// FNV-1a hash over every semantics-bearing knob (Name excluded: it is a
  /// label, not semantics). Two policies with equal fingerprints answer
  /// every memory-model question identically, so the serve result cache
  /// keys on this — a custom policy aliasing a preset shares its entries,
  /// and any knob change invalidates them.
  uint64_t fingerprint() const;
};

/// One allocation (object or heap region).
struct Allocation {
  uint64_t Base = 0;
  uint64_t Size = 0;
  bool Alive = true;
  bool Dynamic = false; ///< from malloc (killable only by free)
  bool Static = false;  ///< static storage duration (zero-initialised)
  /// String literals: defined programs never write them (6.4.5p7).
  bool ReadOnly = false;
  std::string Name;      ///< for diagnostics
  ail::CType DeclaredTy; ///< of an object; invalid for a malloc'd region
  /// Effective types established by stores into a malloc'd region
  /// (offset -> scalar type); used when StrictEffectiveTypes.
  std::map<uint64_t, ail::CType> EffectiveAt;
  /// Representation bytes (Size of them). Points into the owning Memory's
  /// bump pool: objects are never released individually (kill only marks
  /// !Alive), so one pool freed with the Memory replaces one heap
  /// allocation per created object.
  MemByte *Bytes = nullptr;
};

/// The answer of Memory::ptrEq. Q2: under EqMayConsultProvenance, two
/// pointers with equal addresses and different provenances may compare
/// either way; the caller resolves that choice.
enum class PtrEquality { Unequal, Equal, EitherWay };

/// The memory state of one execution. It is a plain value: it holds its
/// own ImplEnv and no reference to its evaluator, so a copy (the explorer
/// copies a whole machine at a choice point) owns every byte it reads.
class Memory {
public:
  Memory(const ail::ImplEnv &Env, MemoryPolicy Policy);
  /// Copies every allocation into a byte pool of the copy's own and
  /// rebases each Allocation::Bytes into it.
  Memory(const Memory &Other);

  const MemoryPolicy &policy() const { return Policy; }

  //===------------------------------------------------------------------===//
  // Allocation (Core create/alloc/kill actions, §5.7)
  //===------------------------------------------------------------------===//

  /// The most bytes one execution may allocate, in simulated bytes:
  /// objects and heap regions alike, freed or killed ones included (their
  /// storage is never reused). An allocation past it gets a null pointer:
  /// malloc, calloc and realloc return that (C11 7.22.3p1), and a
  /// declared object ends the path as an Error.
  static constexpr uint64_t MaxAllocatedBytes = uint64_t(4) << 20;
  /// The exhaustive explorer (exec/Driver.cpp) copies a machine at a
  /// choice point instead of replaying its path later only while the copy
  /// is cheap: its state bytes must fit the credit of SnapshotBytesPerStep
  /// per evaluation step the path has run since it last copied, and a
  /// share of SnapshotBudgetBytes split evenly over the path budget (at
  /// most that many items are ever pending).
  static constexpr uint64_t SnapshotBytesPerStep = 64;
  static constexpr uint64_t SnapshotBudgetBytes = uint64_t(256) << 20;

  /// Creates an object of type \p Ty, or returns a null pointer past
  /// MaxAllocatedBytes. Static-storage objects are zero-initialised;
  /// automatic objects start with unspecified bytes.
  PointerValue allocateObject(const ail::CType &Ty, std::string Name,
                              bool Static);
  /// Creates an untyped region (malloc, aligned like max_align_t by
  /// default). Size 0 returns a unique pointer; a negative size, or one
  /// past MaxAllocatedBytes, a null pointer.
  PointerValue allocateRegion(Int128 Size, uint64_t Align = 16);
  /// Marks an allocation immutable (string literals, after their
  /// initialisation has run).
  void markReadOnly(const PointerValue &P);
  /// Ends the lifetime of an object (block exit / goto, §5.7/§5.8).
  MemRes<Unit> killObject(const PointerValue &P);
  /// free(): UB on non-heap/double free; free(NULL) is a no-op.
  MemRes<Unit> freeRegion(const PointerValue &P);

  //===------------------------------------------------------------------===//
  // Accesses (Core load/store actions)
  //===------------------------------------------------------------------===//

  /// Checks a load of \p Ty through \p P, in this order: CHERI tag and
  /// bounds, the object the access resolves to, alignment, effective type,
  /// and uninitialised bytes where reading them is UB. Returns the
  /// sizeOf(Ty) bytes to read, valid for this Memory's lifetime;
  /// core::loadValue builds the value from them.
  MemRes<const MemByte *> load(const ail::CType &Ty, const PointerValue &P);
  /// Checks a store of \p Ty through \p P, in this order: CHERI tag and
  /// bounds, the object, alignment, read-only storage, effective type
  /// (which a store into a malloc'd region sets). Returns the sizeOf(Ty)
  /// bytes to write; core::storeValue writes the value into them.
  MemRes<MemByte *> store(const ail::CType &Ty, const PointerValue &P);

  //===------------------------------------------------------------------===//
  // Pointer operations (Core ptrop, Fig. 2)
  //===------------------------------------------------------------------===//

  PtrEquality ptrEq(const PointerValue &A, const PointerValue &B) const;
  /// Op is one of Lt/Gt/Le/Ge by index 0..3.
  MemRes<IntegerValue> ptrRel(unsigned Op, const PointerValue &A,
                              const PointerValue &B);
  MemRes<IntegerValue> ptrDiff(const ail::CType &ElemTy,
                               const PointerValue &A, const PointerValue &B);
  MemRes<IntegerValue> intFromPtr(const ail::CType &IntTy,
                                  const PointerValue &P);
  MemRes<PointerValue> ptrFromInt(const IntegerValue &I);
  MemRes<PointerValue> arrayShift(const PointerValue &P,
                                  const ail::CType &ElemTy, Int128 Index);
  PointerValue memberShift(const PointerValue &P, unsigned Tag,
                           size_t MemberIdx);
  /// Is a load of \p Ty through \p P defined right now?
  bool validForDeref(const ail::CType &Ty, const PointerValue &P) const;

  /// Model-governed integer arithmetic finishing: given the numeric result
  /// of `A op B`, decide the provenance (Q5: at-most-one provenance) and,
  /// under CHERI, the capability metadata — including the §4 offset-AND
  /// quirk, which may *change the numeric value*.
  IntegerValue finishArith(ArithOp Op, const IntegerValue &A,
                           const IntegerValue &B, Int128 NumericResult,
                           const ail::CType &ResultTy);

  /// Conversion of a pointer value when cast between pointer types: the
  /// CHERI model narrows/keeps capabilities, others pass through.
  PointerValue castPointer(const ail::CType &ToTy, const PointerValue &P);

  //===------------------------------------------------------------------===//
  // Byte-level library support (memcpy/memcmp/memset/strlen/printf %s)
  //===------------------------------------------------------------------===//

  MemRes<Unit> copyBytes(const PointerValue &Dst, const PointerValue &Src,
                         uint64_t N);
  MemRes<IntegerValue> compareBytes(const PointerValue &A,
                                    const PointerValue &B, uint64_t N);
  MemRes<Unit> setBytes(const PointerValue &P, uint8_t Byte, uint64_t N);
  /// Reads a NUL-terminated byte string (for printf %s / strlen).
  MemRes<std::string> readString(const PointerValue &P);

  //===------------------------------------------------------------------===//
  // Introspection (tests, benches, the §3 tool profiles)
  //===------------------------------------------------------------------===//

  const std::vector<Allocation> &allocations() const { return Allocs; }
  const ail::ImplEnv &env() const { return Env; }
  /// About the bytes a copy of this state takes.
  uint64_t stateBytes() const {
    return sizeof(Memory) + Allocs.size() * sizeof(Allocation) +
           Allocated * sizeof(MemByte);
  }
  /// Reserves layout so that the *next* N static objects are laid out
  /// adjacently in reverse order (see MemoryPolicy::ReverseGlobalLayout).
  void beginStaticLayout(const std::vector<std::pair<ail::CType, std::string>>
                             &Objects);

private:
  ail::ImplEnv Env;
  MemoryPolicy Policy;
  std::vector<Allocation> Allocs;
  uint64_t NextAddr = 0x1000;
  /// Pre-computed addresses for the reverse global layout.
  std::map<std::string, uint64_t> PlannedAddr;

  /// Chunked bump pool backing Allocation::Bytes. Chunk growth never moves
  /// previously handed-out storage, so Allocation::Bytes pointers stay
  /// valid for the Memory's lifetime. Chunks grow geometrically from the
  /// first request, so a program with a few small objects (one Memory per
  /// explored path) allocates a few small chunks, not a fixed large one.
  std::vector<std::unique_ptr<MemByte[]>> BytePool;
  size_t PoolUsed = 0, PoolCap = 0;
  MemByte *poolBytes(uint64_t N);
  /// Simulated bytes allocated so far (see MaxAllocatedBytes). Even an
  /// empty allocation costs a byte, so a malloc(0) loop is bounded too.
  uint64_t Allocated = 0;
  /// Counts \p Size more bytes against MaxAllocatedBytes; false, counting
  /// nothing, when they do not fit.
  bool charge(uint64_t Size) {
    uint64_t N = Size ? Size : 1;
    if (N > MaxAllocatedBytes - Allocated)
      return false;
    Allocated += N;
    return true;
  }
  /// Finds the allocation footprint an access [Addr, Addr+Size) must lie
  /// in, honouring provenance per the policy. Returns the allocation id.
  MemRes<uint64_t> resolveAccess(const PointerValue &P, uint64_t Size,
                                 bool ForWrite) const;
  /// Concrete lookup: the live allocation containing [Addr, Addr+Size).
  std::optional<uint64_t> findByAddress(uint64_t Addr, uint64_t Size) const;

  MemRes<Unit> checkEffectiveType(Allocation &A, uint64_t Off,
                                  const ail::CType &Ty, bool IsWrite);
  MemRes<Unit> checkCheriAccess(const PointerValue &P, uint64_t Size) const;

  uint64_t align(uint64_t Addr, uint64_t Align) const {
    return (Addr + Align - 1) / Align * Align;
  }
};

} // namespace cerb::mem

#endif // CERB_MEM_MEMORY_H
