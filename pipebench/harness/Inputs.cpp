//===-- pipebench/harness/Inputs.cpp --------------------------------------===//

#include "Inputs.h"

#include "csmith/Generator.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <list>
#include <regex>
#include <set>

using namespace pipebench;

uint64_t Rng::next() {
  uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

namespace {

std::string u32(uint32_t V) { return std::to_string(V) + "u"; }

template <typename T> void shuffle(std::vector<T> &V, Rng &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R.below(static_cast<unsigned>(I))]);
}

/// `s = t0 + t1 + ... ;` over four locals and literals.
CompileInput chainProgram(unsigned Terms, Rng &R) {
  uint32_t X[4];
  std::string Src = "#include <stdio.h>\nint main(void) {\n";
  for (unsigned I = 0; I < 4; ++I) {
    X[I] = static_cast<uint32_t>(R.next());
    Src += cat("  unsigned x", I, " = ", u32(X[I]), ";\n");
  }
  Src += "  unsigned s = ";
  uint32_t Sum = 0;
  for (unsigned I = 0; I < Terms; ++I) {
    if (I)
      Src += I % 16 ? " + " : "\n    + ";
    unsigned Pick = R.below(6);
    if (Pick < 4) {
      Src += cat("x", Pick);
      Sum += X[Pick];
    } else {
      uint32_t Lit = R.below(1000);
      Src += u32(Lit);
      Sum += Lit;
    }
  }
  Src += ";\n  printf(\"%u\\n\", s);\n  return 0;\n}\n";
  return {cat("chain-", Terms), Src, cat(Sum, "\n"), false};
}

/// Depth nested blocks, each declaring a variable from the enclosing one.
CompileInput nestProgram(unsigned Depth, Rng &R) {
  uint32_t V = static_cast<uint32_t>(R.next());
  std::string Src = "#include <stdio.h>\nint main(void) {\nunsigned v0 = " +
                    u32(V) + ";\n";
  for (unsigned I = 1; I <= Depth; ++I) {
    uint32_t C = R.below(100000);
    std::string Prev = cat("v", I - 1);
    std::string Expr;
    switch (R.below(3)) {
    case 0:
      Expr = Prev + " * 3u + " + u32(C);
      V = V * 3u + C;
      break;
    case 1:
      Expr = Prev + " ^ " + u32(C);
      V ^= C;
      break;
    default:
      Expr = Prev + " + " + u32(C);
      V += C;
      break;
    }
    Src += cat("{\nunsigned v", I, " = ", Expr, ";\n");
  }
  Src += cat("printf(\"%u\\n\", v", Depth, ");\n");
  Src += std::string(Depth, '}') + "\nreturn 0;\n}\n";
  return {cat("nest-", Depth), Src, cat(V, "\n"), false};
}

} // namespace

bool pipebench::assignsOwnLoopCounter(const std::string &Src) {
  static const std::regex Header(R"(for \((\w+) = )");
  for (std::sregex_iterator It(Src.begin(), Src.end(), Header), End;
       It != End; ++It) {
    std::string Counter = (*It)[1];
    size_t Open = Src.find('{', It->position());
    if (Open == std::string::npos)
      continue;
    size_t Close = Open;
    for (int Depth = 0; Close < Src.size(); ++Close) {
      Depth += Src[Close] == '{' ? 1 : Src[Close] == '}' ? -1 : 0;
      if (Depth == 0)
        break;
    }
    // A statement that starts with the counter writes it: `iN = e;`,
    // `iN ^= e;`, `iN++;` (the generator's lvalue-first statement forms).
    std::regex Write("(^|\\n)\\s*" + Counter +
                     R"(\s*(\+\+|--|[-+*/%^&|]?=[^=]))");
    if (std::regex_search(Src.begin() + Open, Src.begin() + Close, Write))
      return true;
  }
  return false;
}

std::vector<CompileInput> pipebench::compileInputs(uint64_t Seed) {
  Rng R(Seed ^ 0xc0301e);
  std::vector<CompileInput> Out;
  // csmith-lite at 17 sizes spread over 12..120. Compile time follows the
  // text's length (about bytes^1.2), which varies by ~7% between programs
  // of one size, so each program is redrawn until its length is within 3%
  // of the typical length for its size (920 + 50 * Size bytes).
  for (unsigned I = 0; I < 17; ++I) {
    cerb::csmith::GenOptions G;
    G.Size = 12 + I * (120 - 12) / 16;
    const double Typical = 920 + 50.0 * G.Size;
    std::string Src;
    do {
      G.Seed = R.next() % 1000000007u + 1;
      Src = cerb::csmith::generateProgram(G);
    } while (std::abs(Src.size() / Typical - 1) > 0.03 ||
             assignsOwnLoopCounter(Src));
    Out.push_back({cat("csmith-s", G.Size, "-g", G.Seed), Src, "", true});
  }
  // Chains and nests on a fine grid of lengths, whose cost the seed does not
  // change: they outnumber the csmith-lite programs at every cost, so p50
  // and p90 land on or next to one of them. 57 programs: an odd count keeps
  // the per-pass p50 on one program, not a midpoint.
  for (unsigned I = 1; I <= ChainPrograms; ++I)
    Out.push_back(chainProgram(I * MaxChainTerms / ChainPrograms, R));
  for (unsigned I = 1; I <= NestPrograms; ++I)
    Out.push_back(nestProgram(I * MaxNestDepth / NestPrograms, R));
  shuffle(Out, R);
  return Out;
}

namespace {

/// f loops over the global array: reads it, writes it back and folds its
/// argument into a global accumulator, so every call order can differ.
uint32_t simulateCall(std::vector<uint32_t> &G, uint32_t &Acc, uint32_t X) {
  uint32_t S = 0;
  for (uint32_t &E : G) {
    S = S + E * X;
    E = E + (S ^ X);
  }
  Acc = Acc * 33u + X;
  return S;
}

ExploreInput exploreProgram(unsigned K, unsigned N, Rng &R) {
  uint32_t Mul = R.below(1000) + 1, Add = R.below(1000), Acc0 = R.below(1000);
  std::vector<uint32_t> A(K), B(K);
  for (unsigned P = 0; P < K; ++P) {
    A[P] = R.below(100) + 1;
    B[P] = R.below(100) + 101;
  }
  std::string Len = u32(N);
  std::string Src = cat("#include <stdio.h>\nunsigned g[", N,
                        "];\nunsigned acc = ", u32(Acc0), ";\n");
  Src += "unsigned f(unsigned x) {\n  unsigned s = 0u;\n  unsigned i;\n"
         "  for (i = 0u; i < " + Len + "; i++) {\n"
         "    s = s + g[i] * x;\n    g[i] = g[i] + (s ^ x);\n  }\n"
         "  acc = acc * 33u + x;\n  return s;\n}\n";
  Src += "int main(void) {\n  unsigned i;\n  unsigned t = 0u;\n"
         "  for (i = 0u; i < " + Len + "; i++)\n    g[i] = i * " + u32(Mul) +
         " + " + u32(Add) + ";\n";
  for (unsigned P = 0; P < K; ++P) {
    std::string Rn = cat("r", P);
    Src += "  unsigned " + Rn + " = f(" + u32(A[P]) + ") + f(" + u32(B[P]) +
           ");\n  t = t * 7u + " + Rn + ";\n";
  }
  Src += "  printf(\"%u %u\\n\", t, acc);\n  return 0;\n}\n";

  std::set<std::string> Seen;
  for (uint64_t Mask = 0; Mask < (uint64_t(1) << K); ++Mask) {
    std::vector<uint32_t> G(N);
    for (unsigned I = 0; I < N; ++I)
      G[I] = I * Mul + Add;
    uint32_t Acc = Acc0, T = 0;
    for (unsigned P = 0; P < K; ++P) {
      uint32_t RA, RB;
      if ((Mask >> P) & 1) {
        RB = simulateCall(G, Acc, B[P]);
        RA = simulateCall(G, Acc, A[P]);
      } else {
        RA = simulateCall(G, Acc, A[P]);
        RB = simulateCall(G, Acc, B[P]);
      }
      T = T * 7u + (RA + RB);
    }
    Seen.insert(cat(T, " ", Acc, "\n"));
  }
  ExploreInput In;
  In.Name = cat("explore-k", K, "-n", N);
  In.Source = std::move(Src);
  In.Paths = uint64_t(1) << K;
  In.Outcomes.assign(Seen.begin(), Seen.end());
  return In;
}

} // namespace

std::vector<ExploreInput> pipebench::exploreInputs(uint64_t Seed) {
  Rng R(Seed ^ 0xe8b10e);
  // (k, array length): the replay share grows with k, the simulated
  // memory with the array; the mix keeps both moving inside one pass. An
  // odd count keeps the per-pass p50 on one program.
  static const unsigned Shapes[][2] = {
      {1, 32}, {2, 24}, {3, 16}, {4, 12}, {5, 8}, {6, 4}, {1, 4},
      {2, 8},  {2, 16}, {3, 12}, {4, 16}, {5, 6}, {6, 2}};
  std::vector<ExploreInput> Out;
  for (const auto &S : Shapes)
    Out.push_back(exploreProgram(S[0], S[1], R));
  shuffle(Out, R);
  return Out;
}

std::vector<std::vector<unsigned>>
pipebench::suiteOrders(uint64_t Seed, unsigned Tests, unsigned Count) {
  Rng R(Seed ^ 0x5017e);
  std::vector<std::vector<unsigned>> Out(Count);
  for (auto &O : Out) {
    for (unsigned I = 0; I < Tests; ++I)
      O.push_back(I);
    shuffle(O, R);
  }
  return Out;
}

const char *pipebench::className(CallClass C) {
  switch (C) {
  case CallClass::Cold: return "cold";
  case CallClass::Warm: return "warm";
  case CallClass::Disk: return "disk";
  case CallClass::Batch: return "batch";
  }
  return "?";
}

namespace {

/// The daemon's memory tier as the plan sees it. Batch members are stored
/// by the daemon's worker in an order the plan cannot know, so they enter
/// as one group; a group's keys count as resident only while none of them
/// has been evicted, and as evicted only once all of them have.
class LruModel {
public:
  explicit LruModel(unsigned Capacity) : Capacity(Capacity) {}

  void insert(std::vector<unsigned> Keys) {
    Resident += Keys.size();
    Groups.push_front(Group{std::move(Keys), 0});
    trim();
  }
  /// Memory-tier hit on a certainly resident key.
  void touch(unsigned Key) {
    for (auto It = Groups.begin(); It != Groups.end(); ++It) {
      auto K = std::find(It->Keys.begin(), It->Keys.end(), Key);
      if (K == It->Keys.end())
        continue;
      It->Keys.erase(K);
      if (It->Keys.empty())
        Groups.erase(It);
      Groups.push_front(Group{{Key}, 0});
      return;
    }
  }
  /// Disk-tier hit: the key is promoted back into memory.
  void promote(unsigned Key) {
    Evicted.erase(std::find(Evicted.begin(), Evicted.end(), Key));
    insert({Key});
  }

  std::vector<unsigned> certainlyResident() const {
    std::vector<unsigned> Out;
    for (const Group &G : Groups)
      if (G.EvictedCount == 0)
        Out.insert(Out.end(), G.Keys.begin(), G.Keys.end());
    return Out;
  }
  const std::vector<unsigned> &certainlyEvicted() const { return Evicted; }

private:
  struct Group {
    std::vector<unsigned> Keys;
    size_t EvictedCount;
  };
  void trim() {
    while (Resident > Capacity) {
      Group &G = Groups.back();
      ++G.EvictedCount;
      --Resident;
      if (G.EvictedCount == G.Keys.size()) {
        Evicted.insert(Evicted.end(), G.Keys.begin(), G.Keys.end());
        Groups.pop_back();
      }
    }
  }

  unsigned Capacity;
  size_t Resident = 0;
  std::list<Group> Groups; ///< most recent first
  std::vector<unsigned> Evicted;
};

} // namespace

ServePlan pipebench::servePlan(uint64_t Seed, unsigned Tests,
                               unsigned MemoryEntries) {
  Rng R(Seed ^ 0x5e77e);
  ServePlan P;
  // Per pass, every suite test is asked once alone (cold) and once inside a
  // batch, so the cold and batch work is the same for every seed. Class
  // shares by client call: ~58% warm, ~15% disk, 25% cold, ~1.6% batch —
  // p50 falls among the warm calls and p90 among the cold ones.
  std::vector<unsigned> ColdTests(Tests), BatchTests(Tests);
  for (unsigned I = 0; I < Tests; ++I)
    ColdTests[I] = BatchTests[I] = I;
  shuffle(ColdTests, R);
  shuffle(BatchTests, R);
  const unsigned BatchFrames = 6;
  unsigned Left[4] = {Tests, 220, 56, BatchFrames}; // cold warm disk batch
  size_t NextCold = 0, NextBatch = 0;
  LruModel Lru(MemoryEntries);
  auto NewKey = [&](unsigned Test) {
    P.KeyTest.push_back(Test);
    return static_cast<unsigned>(P.KeyTest.size() - 1);
  };
  while (Left[0] + Left[1] + Left[2] + Left[3]) {
    bool Feasible[4] = {Left[0] > 0,
                        Left[1] > 0 && !Lru.certainlyResident().empty(),
                        Left[2] > 0 && !Lru.certainlyEvicted().empty(),
                        Left[3] > 0};
    unsigned Weight = 0;
    for (int C = 0; C < 4; ++C)
      Weight += Feasible[C] ? Left[C] : 0;
    if (Weight == 0)
      break; // unreachable: cold and batch calls are always feasible
    unsigned Pick = R.below(Weight), C = 0;
    for (; C < 3; ++C) {
      unsigned W = Feasible[C] ? Left[C] : 0;
      if (Pick < W)
        break;
      Pick -= W;
    }
    --Left[C];
    ServeCall Call;
    Call.Class = static_cast<CallClass>(C);
    switch (Call.Class) {
    case CallClass::Cold:
      Call.Keys = {NewKey(ColdTests[NextCold++])};
      Lru.insert(Call.Keys);
      break;
    case CallClass::Warm: {
      std::vector<unsigned> Pool = Lru.certainlyResident();
      Call.Keys = {Pool[R.below(static_cast<unsigned>(Pool.size()))]};
      Lru.touch(Call.Keys[0]);
      break;
    }
    case CallClass::Disk: {
      const std::vector<unsigned> &Pool = Lru.certainlyEvicted();
      Call.Keys = {Pool[R.below(static_cast<unsigned>(Pool.size()))]};
      Lru.promote(Call.Keys[0]);
      break;
    }
    case CallClass::Batch: {
      // Split the remaining batch tests evenly over the remaining frames.
      size_t N = (Tests - NextBatch + Left[3]) / (Left[3] + 1);
      for (size_t I = 0; I < N; ++I)
        Call.Keys.push_back(NewKey(BatchTests[NextBatch++]));
      Lru.insert(Call.Keys);
      break;
    }
    }
    P.Answered += static_cast<unsigned>(Call.Keys.size());
    P.Calls.push_back(std::move(Call));
  }
  return P;
}
