//===-- conc/Conc.cpp -----------------------------------------------------===//

#include "conc/Conc.h"

#include "core/Lowering.h"

using namespace cerb;
using namespace cerb::conc;
using namespace cerb::core;

core::CoreProgram cerb::conc::buildSharedCounterProgram(
    int Initial, const std::vector<ThreadSpec> &Threads) {
  CoreProgram Prog;
  Symbol MainSym = Prog.Syms.create("main", ail::SymbolKind::Function);
  Symbol SharedPtr = Prog.Syms.create("shared", ail::SymbolKind::Object);
  Prog.MainProc = MainSym;
  CType IntTy = CType::intTy();

  ExprArena &A = Prog.Arena;
  auto MkSym = [&](Symbol S) {
    Expr *E = A.make(ExprKind::Sym);
    E->Sym = S;
    return E;
  };
  auto MkLet = [&](Pattern Pat, Expr *E1, Expr *E2) {
    Expr *Let = A.make(ExprKind::LetStrong, SourceLoc(), {E1, E2});
    A.setPattern(*Let, Pat);
    return Let;
  };
  auto MkAction = [&](ActionKind Act, std::initializer_list<Expr *> Kids) {
    Expr *E = A.make(ExprKind::Action, SourceLoc(), Kids);
    E->Act = Act;
    E->Cty = IntTy;
    return E;
  };

  // Thread bodies.
  std::vector<Expr *> Bodies;
  for (const ThreadSpec &T : Threads) {
    Expr *Body = A.make(ExprKind::Skip);
    for (auto It = T.Stores.rbegin(); It != T.Stores.rend(); ++It) {
      Expr *Access =
          T.ReadsOnly
              ? MkAction(ActionKind::Load, {MkSym(SharedPtr)})
              : MkAction(ActionKind::Store,
                         {MkSym(SharedPtr), A.val(Value::integer(*It))});
      Access->AtomicAccess = T.Atomic;
      Body = MkLet(Pattern::wild(), Access, Body);
    }
    Bodies.push_back(Body);
  }
  Expr *Par = A.make(ExprKind::Par, SourceLoc(), Bodies);

  // main: create shared; store Initial; par(...); load; return.
  Expr *Create = MkAction(ActionKind::Create, {});
  A.setStr(*Create, "shared");
  Expr *Init = MkAction(ActionKind::Store, {MkSym(SharedPtr),
                                            A.val(Value::integer(Initial))});
  Symbol LoadedSym = Prog.Syms.create("final", ail::SymbolKind::Object);
  Expr *Load = MkAction(ActionKind::Load, {MkSym(SharedPtr)});
  Expr *Ret = A.make(ExprKind::Ret, SourceLoc(), {MkSym(LoadedSym)});

  Expr *L3 = MkLet(Pattern::sym(LoadedSym), Load, Ret);
  Expr *L2 = MkLet(Pattern::wild(), Par, L3);
  Expr *L1 = MkLet(Pattern::wild(), Init, L2);
  Expr *L0 = MkLet(Pattern::sym(SharedPtr), Create, L1);

  CoreProc Main;
  Main.Name = MainSym;
  Main.ReturnTy = IntTy;
  Main.Body = L0;
  Prog.Procs.emplace(MainSym.Id, std::move(Main));
  core::lower(Prog);
  return Prog;
}

exec::ExhaustiveResult cerb::conc::explore(const core::CoreProgram &Prog,
                                           uint64_t MaxPaths) {
  exec::RunOptions Opts;
  Opts.Policy = mem::MemoryPolicy::defacto();
  Opts.MaxPaths = MaxPaths;
  return exec::runExhaustive(Prog, Opts);
}
