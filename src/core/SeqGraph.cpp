//===-- core/SeqGraph.cpp -------------------------------------------------===//

#include "core/SeqGraph.h"

#include "support/Format.h"

#include <map>
#include <set>

using namespace cerb;
using namespace cerb::core;

bool SeqGraph::hasEdge(unsigned From, unsigned To, SeqEdgeKind K) const {
  for (const SeqEdge &E : Edges)
    if (E.From == From && E.To == To && E.Kind == K)
      return true;
  return false;
}

bool SeqGraph::sequencedBefore(unsigned From, unsigned To) const {
  // BFS over solid + atomic edges.
  std::set<unsigned> Seen{From};
  std::vector<unsigned> Work{From};
  while (!Work.empty()) {
    unsigned N = Work.back();
    Work.pop_back();
    for (const SeqEdge &E : Edges) {
      if (E.Kind == SeqEdgeKind::Indeterminate || E.From != N)
        continue;
      if (E.To == To)
        return true;
      if (Seen.insert(E.To).second)
        Work.push_back(E.To);
    }
  }
  return false;
}

bool SeqGraph::unsequenced(unsigned A, unsigned B) const {
  if (A == B || sequencedBefore(A, B) || sequencedBefore(B, A))
    return false;
  for (const SeqEdge &E : Edges)
    if (E.Kind == SeqEdgeKind::Indeterminate &&
        ((E.From == A && E.To == B) || (E.From == B && E.To == A)))
      return false;
  return true;
}

std::string SeqGraph::str() const {
  std::string Out = "actions:\n";
  for (const SeqNode &N : Nodes) {
    Out += fmt("  [{0}] {1}{2}{3}\n", N.Id, N.Label,
               N.Negative ? "  (negative polarity)" : "",
               N.IndetGroup ? fmt("  (call body #{0})", N.IndetGroup)
                            : std::string());
  }
  Out += "sequenced-before (solid):\n";
  for (const SeqEdge &E : Edges)
    if (E.Kind == SeqEdgeKind::SequencedBefore)
      Out += fmt("  {0} -> {1}\n", E.From, E.To);
  Out += "atomic pairs (double):\n";
  for (const SeqEdge &E : Edges)
    if (E.Kind == SeqEdgeKind::Atomic)
      Out += fmt("  {0} => {1}\n", E.From, E.To);
  Out += "indeterminately sequenced (dotted):\n";
  for (const SeqEdge &E : Edges)
    if (E.Kind == SeqEdgeKind::Indeterminate)
      Out += fmt("  {0} .. {1}\n", E.From, E.To);
  return Out;
}

std::string SeqGraph::dot() const {
  std::string Out = "digraph seq {\n";
  for (const SeqNode &N : Nodes)
    Out += fmt("  n{0} [label=\"{1}\"{2}];\n", N.Id, N.Label,
               N.Negative ? ", style=dashed" : "");
  for (const SeqEdge &E : Edges) {
    const char *Attr = E.Kind == SeqEdgeKind::Atomic
                           ? " [color=black, penwidth=2]"
                       : E.Kind == SeqEdgeKind::Indeterminate
                           ? " [style=dotted, dir=none]"
                           : "";
    Out += fmt("  n{0} -> n{1}{2};\n", E.From, E.To, Attr);
  }
  Out += "}\n";
  return Out;
}

namespace {

/// The action nodes produced by a subexpression, split by polarity (§5.6:
/// weak sequencing orders only the positive ones).
struct Acts {
  std::vector<unsigned> Pos, Neg;

  std::vector<unsigned> allActs() const {
    std::vector<unsigned> Out = Pos;
    Out.insert(Out.end(), Neg.begin(), Neg.end());
    return Out;
  }
  void merge(const Acts &O) {
    Pos.insert(Pos.end(), O.Pos.begin(), O.Pos.end());
    Neg.insert(Neg.end(), O.Neg.begin(), O.Neg.end());
  }
};

class Builder {
public:
  Builder(SeqGraph &G, const ail::SymbolTable &Syms) : G(G), Syms(Syms) {}

  Acts walk(const Expr &E, unsigned IndetGroup);

private:
  SeqGraph &G;
  const ail::SymbolTable &Syms;
  unsigned NextIndet = 0;
  /// Elaboration temporaries bound (directly or transitively) to a source
  /// object's pointer — `let strong p = x in ... load(p)` should label as
  /// "R x", the way the paper's figure names actions.
  std::map<unsigned, std::string> Alias;

  void noteAlias(const Pattern &Pat, const Expr &Bound) {
    if (Pat.K == PatKind::Sym && Bound.K == ExprKind::Sym) {
      auto It = Alias.find(Bound.Sym.Id);
      Alias[Pat.S.Id] =
          It != Alias.end() ? It->second : Syms.nameOf(Bound.Sym);
      return;
    }
    // let weak (p, v) = unseq(e1, e2): alias the tuple elementwise.
    if (Pat.K == PatKind::Tuple && Bound.K == ExprKind::Unseq &&
        Pat.subs().size() == Bound.kids().size())
      for (size_t I = 0; I < Pat.subs().size(); ++I)
        noteAlias(Pat.subs()[I], *Bound.kids()[I]);
  }

  std::string operandNameOf(const Expr &P) {
    if (P.K == ExprKind::Sym) {
      auto It = Alias.find(P.Sym.Id);
      return It != Alias.end() ? It->second : Syms.nameOf(P.Sym);
    }
    if (P.K == ExprKind::MemberShiftE || P.K == ExprKind::ArrayShiftE)
      return operandNameOf(*P.kids()[0]) + "[..]";
    return "?";
  }
  std::string operandName(const Expr &Action) {
    if (Action.kids().empty())
      return std::string(Action.str().empty() ? "?" : Action.str());
    return operandNameOf(*Action.kids()[0]);
  }

  unsigned addNode(const Expr &Action, unsigned IndetGroup) {
    SeqNode N;
    N.Id = static_cast<unsigned>(G.Nodes.size());
    N.Kind = Action.Act;
    N.Negative = Action.NegPolarity;
    N.IndetGroup = IndetGroup;
    const char *K = "?";
    switch (Action.Act) {
    case ActionKind::Load: K = "R"; break;
    case ActionKind::Store: K = "W"; break;
    case ActionKind::Create: K = "C"; break;
    case ActionKind::Alloc: K = "C"; break;
    case ActionKind::Kill: K = "K"; break;
    case ActionKind::Free: K = "K"; break;
    }
    N.Label = fmt("{0} {1}", K,
                  Action.Act == ActionKind::Create ? std::string(Action.str())
                                                   : operandName(Action));
    G.Nodes.push_back(N);
    return N.Id;
  }

  void edge(unsigned From, unsigned To, SeqEdgeKind K) {
    if (!G.hasEdge(From, To, K))
      G.Edges.push_back(SeqEdge{From, To, K});
  }
  void edgesAll(const std::vector<unsigned> &From,
                const std::vector<unsigned> &To) {
    for (unsigned F : From)
      for (unsigned T : To)
        edge(F, T, SeqEdgeKind::SequencedBefore);
  }
};

Acts Builder::walk(const Expr &E, unsigned IndetGroup) {
  switch (E.K) {
  case ExprKind::Action: {
    unsigned Id = addNode(E, IndetGroup);
    Acts A;
    (E.NegPolarity ? A.Neg : A.Pos).push_back(Id);
    return A;
  }
  case ExprKind::LetStrong:
  case ExprKind::ELet:
  case ExprKind::PureLet: {
    noteAlias(*E.Pat, *E.kids()[0]);
    Acts A1 = walk(*E.kids()[0], IndetGroup);
    Acts A2 = walk(*E.kids()[1], IndetGroup);
    edgesAll(A1.allActs(), A2.allActs());
    A1.merge(A2);
    return A1;
  }
  case ExprKind::LetWeak: {
    noteAlias(*E.Pat, *E.kids()[0]);
    Acts A1 = walk(*E.kids()[0], IndetGroup);
    Acts A2 = walk(*E.kids()[1], IndetGroup);
    // §5.6: only the positive actions of e1 are sequenced before e2.
    edgesAll(A1.Pos, A2.allActs());
    A1.merge(A2);
    return A1;
  }
  case ExprKind::LetAtomic: {
    Acts A1 = walk(*E.kids()[0], IndetGroup);
    Acts A2 = walk(*E.kids()[1], IndetGroup);
    for (unsigned F : A1.allActs())
      for (unsigned T : A2.allActs())
        edge(F, T, SeqEdgeKind::Atomic);
    A1.merge(A2);
    return A1;
  }
  case ExprKind::Unseq:
  case ExprKind::Nd:
  case ExprKind::Par: {
    Acts All;
    for (const Expr *K : E.kids())
      All.merge(walk(*K, IndetGroup));
    return All;
  }
  case ExprKind::Indet: {
    unsigned Group = ++NextIndet;
    return walk(*E.kids()[0], Group);
  }
  case ExprKind::Bound:
  case ExprKind::Save:
    return walk(*E.kids()[0], IndetGroup);
  case ExprKind::PureIf:
  case ExprKind::EIf: {
    Acts C = walk(*E.kids()[0], IndetGroup);
    Acts T = walk(*E.kids()[1], IndetGroup);
    Acts F = walk(*E.kids()[2], IndetGroup);
    edgesAll(C.allActs(), T.allActs());
    edgesAll(C.allActs(), F.allActs());
    C.merge(T);
    C.merge(F);
    return C;
  }
  case ExprKind::Case:
  case ExprKind::ECase: {
    Acts S = walk(*E.kids()[0], IndetGroup);
    Acts Branches;
    for (const auto &[Pat, Body] : E.branches())
      Branches.merge(walk(*Body, IndetGroup));
    edgesAll(S.allActs(), Branches.allActs());
    S.merge(Branches);
    return S;
  }
  case ExprKind::ProcCall:
  case ExprKind::CallPtr: {
    // The callee body's actions are not part of this expression's static
    // graph (the paper's figure shows f(...) as one opaque node).
    SeqNode N;
    N.Id = static_cast<unsigned>(G.Nodes.size());
    N.Kind = ActionKind::Load;
    N.IndetGroup = IndetGroup;
    N.Label = E.K == ExprKind::ProcCall
                  ? fmt("{0}(...)", Syms.nameOf(E.Sym))
                  : "(*fp)(...)";
    G.Nodes.push_back(N);
    Acts A;
    A.Pos.push_back(N.Id);
    return A;
  }
  default: {
    Acts All;
    for (const Expr *K : E.kids())
      All.merge(walk(*K, IndetGroup));
    for (const auto &[Pat, Body] : E.branches())
      All.merge(walk(*Body, IndetGroup));
    return All;
  }
  }
}

} // namespace

SeqGraph cerb::core::buildSeqGraph(const Expr &E,
                                   const ail::SymbolTable &Syms) {
  SeqGraph G;
  Builder B(G, Syms);
  B.walk(E, 0);

  // Indeterminate sequencing (§5.6 point 6): a call body is
  // indeterminately sequenced with every action it is otherwise unordered
  // against.
  for (const SeqNode &A : G.Nodes)
    for (const SeqNode &B2 : G.Nodes) {
      if (A.Id >= B2.Id || A.IndetGroup == B2.IndetGroup)
        continue;
      if (!G.sequencedBefore(A.Id, B2.Id) &&
          !G.sequencedBefore(B2.Id, A.Id))
        G.Edges.push_back(
            SeqEdge{A.Id, B2.Id, SeqEdgeKind::Indeterminate});
    }
  return G;
}
