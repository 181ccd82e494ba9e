//===-- tests/test_seqgraph.cpp - the §5.6 sequencing graph ---------------===//

#include "core/SeqGraph.h"
#include "exec/Pipeline.h"

#include <gtest/gtest.h>

using namespace cerb;
using namespace cerb::core;

namespace {

/// Builds the graph of `main` of the given program.
SeqGraph graphOf(const char *Src, CoreProgram &ProgOut) {
  auto P = exec::compile(Src);
  EXPECT_TRUE(static_cast<bool>(P)) << (P ? "" : P.error().str());
  ProgOut = std::move(*P);
  for (const auto &[Id, Proc] : ProgOut.Procs)
    if (ProgOut.Syms.nameOf(Proc.Name) == "main")
      return buildSeqGraph(*Proc.Body, ProgOut.Syms);
  ADD_FAILURE() << "no main";
  return SeqGraph{};
}

/// Finds the single node whose label is \p L.
unsigned node(const SeqGraph &G, std::string_view L) {
  unsigned Found = ~0u;
  for (const SeqNode &N : G.Nodes)
    if (N.Label == L) {
      EXPECT_EQ(Found, ~0u) << "duplicate label " << L;
      Found = N.Id;
    }
  EXPECT_NE(Found, ~0u) << "no node " << L;
  return Found;
}

} // namespace

TEST(SeqGraph, Section56Example) {
  // The paper's figure for  w = x++ + f(z,2);
  CoreProgram P;
  SeqGraph G = graphOf(R"(
int w, x = 10, z = 5;
int f(int a, int b) { return a + b; }
int main(void) {
  w = x++ + f(z, 2);
  return 0;
}
)",
                       P);

  unsigned RX = node(G, "R x");
  unsigned WX = node(G, "W x");
  unsigned RZ = node(G, "R z");
  unsigned F = node(G, "f(...)");
  unsigned WW = node(G, "W w");

  // (3) the read and write of x are atomic.
  EXPECT_TRUE(G.hasEdge(RX, WX, SeqEdgeKind::Atomic));
  // (2) the read of x and the body of f() are sequenced before W w.
  EXPECT_TRUE(G.sequencedBefore(RX, WW));
  EXPECT_TRUE(G.sequencedBefore(F, WW));
  // (4) the argument read R z happens before the call.
  EXPECT_TRUE(G.sequencedBefore(RZ, F));
  // (1) the operands of + are unsequenced: R x vs R z.
  EXPECT_TRUE(G.unsequenced(RX, RZ));
  // (6) f's body is *indeterminately* (not un-) sequenced with the x
  // accesses: dotted edges, so not "unsequenced".
  EXPECT_TRUE(G.hasEdge(RX, F, SeqEdgeKind::Indeterminate) ||
              G.hasEdge(F, RX, SeqEdgeKind::Indeterminate));
  EXPECT_FALSE(G.unsequenced(RX, F));
  // The updating store is a side effect: negative polarity.
  for (const SeqNode &N : G.Nodes)
    if (N.Id == WX) {
      EXPECT_TRUE(N.Negative);
    }
}

TEST(SeqGraph, WeakSequencingLeavesNegativeUnordered) {
  // y = (x = 1);  — the value computations are ordered, but the stores
  // are side effects: W x is NOT sequenced before W y.
  CoreProgram P;
  SeqGraph G = graphOf(R"(
int x, y;
int main(void) {
  y = (x = 1);
  return 0;
}
)",
                       P);
  unsigned WX = node(G, "W x");
  unsigned WY = node(G, "W y");
  EXPECT_FALSE(G.sequencedBefore(WX, WY));
  EXPECT_FALSE(G.sequencedBefore(WY, WX));
  EXPECT_TRUE(G.unsequenced(WX, WY)); // harmless: different objects
}

TEST(SeqGraph, StatementsAreStronglyOrdered) {
  CoreProgram P;
  SeqGraph G = graphOf(R"(
int x, y;
int main(void) {
  x = 1;
  y = 2;
  return 0;
}
)",
                       P);
  EXPECT_TRUE(G.sequencedBefore(node(G, "W x"), node(G, "W y")));
}

TEST(SeqGraph, UnseqOperandsUnordered) {
  CoreProgram P;
  SeqGraph G = graphOf(R"(
int a, b, r;
int main(void) {
  r = a + b;
  return 0;
}
)",
                       P);
  unsigned RA = node(G, "R a");
  unsigned RB = node(G, "R b");
  EXPECT_TRUE(G.unsequenced(RA, RB));
  EXPECT_TRUE(G.sequencedBefore(RA, node(G, "W r")));
}

TEST(SeqGraph, CreateAndKillNodesAppear) {
  CoreProgram P;
  SeqGraph G = graphOf(R"(
int main(void) {
  int t = 1;
  return t;
}
)",
                       P);
  unsigned C = node(G, "C t");
  bool SawKill = false;
  for (const SeqNode &N : G.Nodes)
    if (N.Kind == ActionKind::Kill) {
      SawKill = true;
      EXPECT_TRUE(G.sequencedBefore(C, N.Id));
    }
  EXPECT_TRUE(SawKill);
}

TEST(SeqGraph, DotOutputWellFormed) {
  CoreProgram P;
  SeqGraph G = graphOf("int x; int main(void){ x = 1; return 0; }", P);
  std::string Dot = G.dot();
  EXPECT_NE(Dot.find("digraph seq {"), std::string::npos);
  EXPECT_NE(Dot.find("W x"), std::string::npos);
  EXPECT_EQ(Dot.back(), '\n');
}
