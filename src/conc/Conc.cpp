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

  auto MkSym = [&](Symbol S) {
    auto E = Expr::make(ExprKind::Sym);
    E->Sym = S;
    return E;
  };

  // Thread bodies.
  auto Par = Expr::make(ExprKind::Par);
  for (const ThreadSpec &T : Threads) {
    ExprPtr Body = Expr::make(ExprKind::Skip);
    auto Seq = [&](ExprPtr Action) {
      auto Let = Expr::make(ExprKind::LetStrong);
      Let->Pat = Pattern::wild();
      Let->Kids.push_back(std::move(Action));
      Let->Kids.push_back(std::move(Body));
      Body = std::move(Let);
    };
    for (auto It = T.Stores.rbegin(); It != T.Stores.rend(); ++It) {
      if (T.ReadsOnly) {
        auto Load = Expr::make(ExprKind::Action);
        Load->Act = ActionKind::Load;
        Load->Cty = IntTy;
        Load->AtomicAccess = T.Atomic;
        Load->Kids.push_back(MkSym(SharedPtr));
        Seq(std::move(Load));
      } else {
        auto Store = Expr::make(ExprKind::Action);
        Store->Act = ActionKind::Store;
        Store->Cty = IntTy;
        Store->AtomicAccess = T.Atomic;
        Store->Kids.push_back(MkSym(SharedPtr));
        Store->Kids.push_back(
            Expr::make(ExprKind::Val));
        Store->Kids.back()->V = Value::integer(*It);
        Seq(std::move(Store));
      }
    }
    Par->Kids.push_back(std::move(Body));
  }

  // main: create shared; store Initial; par(...); load; return.
  auto Create = Expr::make(ExprKind::Action);
  Create->Act = ActionKind::Create;
  Create->Cty = IntTy;
  Create->Str = "shared";

  auto Init = Expr::make(ExprKind::Action);
  Init->Act = ActionKind::Store;
  Init->Cty = IntTy;
  Init->Kids.push_back(MkSym(SharedPtr));
  Init->Kids.push_back(Expr::make(ExprKind::Val));
  Init->Kids.back()->V = Value::integer(Initial);

  Symbol LoadedSym = Prog.Syms.create("final", ail::SymbolKind::Object);
  auto Load = Expr::make(ExprKind::Action);
  Load->Act = ActionKind::Load;
  Load->Cty = IntTy;
  Load->Kids.push_back(MkSym(SharedPtr));

  auto Ret = Expr::make(ExprKind::Ret);
  Ret->Kids.push_back(MkSym(LoadedSym));

  auto L3 = Expr::make(ExprKind::LetStrong);
  L3->Pat = Pattern::sym(LoadedSym);
  L3->Kids.push_back(std::move(Load));
  L3->Kids.push_back(std::move(Ret));

  auto L2 = Expr::make(ExprKind::LetStrong);
  L2->Pat = Pattern::wild();
  L2->Kids.push_back(std::move(Par));
  L2->Kids.push_back(std::move(L3));

  auto L1 = Expr::make(ExprKind::LetStrong);
  L1->Pat = Pattern::wild();
  L1->Kids.push_back(std::move(Init));
  L1->Kids.push_back(std::move(L2));

  auto L0 = Expr::make(ExprKind::LetStrong);
  L0->Pat = Pattern::sym(SharedPtr);
  L0->Kids.push_back(std::move(Create));
  L0->Kids.push_back(std::move(L1));

  CoreProc Main;
  Main.Name = MainSym;
  Main.ReturnTy = IntTy;
  Main.Body = std::move(L0);
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
