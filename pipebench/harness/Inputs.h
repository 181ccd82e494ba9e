//===-- pipebench/harness/Inputs.h - Seeded workload inputs ---------------===//
///
/// \file
/// Every input the benchmark feeds the program, generated from the seed.
/// Sizes and shapes are stratified (a fixed list per pass); the seed picks
/// the content. So two seeds do the same amount of work in different
/// programs, and the spread between seeds stays small.
///
/// References never come from the code under test: the generator computes
/// the expected output of the `+` chains, the nested blocks and every call
/// order of the explore programs; csmith-lite programs are checked against
/// the host C compiler; suite and serve use the suite's hand-written
/// expectations.
///
//===----------------------------------------------------------------------===//
#ifndef PIPEBENCH_INPUTS_H
#define PIPEBENCH_INPUTS_H

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

namespace pipebench {

/// Concatenates strings and numbers by appending. (GCC 12 at -O3 warns
/// falsely on `"literal" + std::to_string(N)`.)
template <typename... Ts> std::string cat(const Ts &...Parts) {
  std::string S;
  auto Add = [&S](const auto &P) {
    if constexpr (std::is_arithmetic_v<std::decay_t<decltype(P)>>)
      S += std::to_string(P);
    else
      S += P;
  };
  (Add(Parts), ...);
  return S;
}

/// splitmix64: small, seedable, identical on every host.
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next();
  unsigned below(unsigned N) { return static_cast<unsigned>(next() % N); }
};

/// The `+` chain and nesting depths the generator stays below. Today a
/// 1500-term sum or 20k nested blocks overflow the 8 MiB stack.
inline constexpr unsigned MaxChainTerms = 400;
inline constexpr unsigned MaxNestDepth = 600;
/// Chains of 25, 50, ... MaxChainTerms terms; nests of 25, 50, ...
/// MaxNestDepth blocks.
inline constexpr unsigned ChainPrograms = 16;
inline constexpr unsigned NestPrograms = 24;

struct CompileInput {
  std::string Name;   ///< "csmith-s30-g7", "chain-250", "nest-100"
  std::string Source;
  /// Expected stdout of the program. Empty for csmith-lite programs until
  /// the host compiler has run (HostRef).
  std::string Expected;
  bool HostRef = false;
};

/// One pass of the compile workload: csmith-lite at Size 12-120 (programs
/// that assign a loop counter inside its own loop are dropped, and each
/// has about the typical length of its size), long `+` chains and nested
/// blocks.
std::vector<CompileInput> compileInputs(uint64_t Seed);

/// True when some `for (iN = ...)` loop assigns iN in its body. Checks the
/// generated text only, so the filter is independent of the program.
bool assignsOwnLoopCounter(const std::string &Source);

struct ExploreInput {
  std::string Name;
  std::string Source;
  uint64_t Paths = 0;     ///< 2^k
  /// Distinct stdout over all 2^k call orders, sorted.
  std::vector<std::string> Outcomes;
};

/// One pass of the explore workload.
std::vector<ExploreInput> exploreInputs(uint64_t Seed);

/// One pass of the suite workload: \p Count seeded orders of the suite.
std::vector<std::vector<unsigned>> suiteOrders(uint64_t Seed, unsigned Tests,
                                               unsigned Count);

enum class CallClass { Cold, Warm, Disk, Batch };
const char *className(CallClass C);

/// One client call of the serve workload. Keys are numbered per pass; a
/// cold call or a batch member creates a key (a first-seen request), a warm
/// or disk call repeats one.
struct ServeCall {
  CallClass Class = CallClass::Cold;
  std::vector<unsigned> Keys;
};

struct ServePlan {
  std::vector<unsigned> KeyTest; ///< key -> suite test index
  std::vector<ServeCall> Calls;
  unsigned Answered = 0; ///< requests answered per pass (batch members count)
};

/// The request stream of one pass. Repeats are chosen by simulating the
/// daemon's memory-tier LRU of \p MemoryEntries, so each warm call hits
/// the memory tier and each disk call hits the disk tier.
ServePlan servePlan(uint64_t Seed, unsigned Tests, unsigned MemoryEntries);

} // namespace pipebench

#endif // PIPEBENCH_INPUTS_H
