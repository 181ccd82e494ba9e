//===-- ail/Ail.h - Ail: the desugared, symbol-resolved AST -----*- C++ -*-===//
///
/// \file
/// Ail is the intermediate AST produced by the Cabs_to_Ail desugaring pass
/// (§5.1): identifier scoping is resolved into symbols, syntactic types are
/// normalised into canonical CTypes, enums are replaced by integers, string
/// literals become implicitly allocated objects, and `for`/`do-while` loops
/// are desugared into `while` (with fresh labels carrying `continue`). The
/// type checker (typing/) subsequently annotates every expression in place.
///
//===----------------------------------------------------------------------===//
#ifndef CERB_AIL_AIL_H
#define CERB_AIL_AIL_H

#include "ail/CType.h"
#include "cabs/Cabs.h"
#include "support/SourceLoc.h"

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace cerb::ail {

//===----------------------------------------------------------------------===//
// Symbols
//===----------------------------------------------------------------------===//

/// A resolved identifier. Ids are unique within an AilProgram; the pretty
/// name lives in the SymbolTable.
struct Symbol {
  unsigned Id = ~0u;
  bool isValid() const { return Id != ~0u; }
  friend auto operator<=>(Symbol A, Symbol B) = default;
};

enum class SymbolKind { Object, Function, Label };

class SymbolTable {
public:
  Symbol create(std::string Name, SymbolKind Kind) {
    Names.push_back(std::move(Name));
    Kinds.push_back(Kind);
    return Symbol{static_cast<unsigned>(Names.size() - 1)};
  }
  const std::string &nameOf(Symbol S) const {
    assert(S.Id < Names.size() && "bad symbol");
    return Names[S.Id];
  }
  SymbolKind kindOf(Symbol S) const {
    assert(S.Id < Names.size() && "bad symbol");
    return Kinds[S.Id];
  }
  size_t size() const { return Names.size(); }
  /// The symbols the table has room for (both of its vectors).
  size_t capacity() const { return Names.capacity(); }

private:
  std::vector<std::string> Names;
  std::vector<SymbolKind> Kinds;
};

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

enum class AilExprKind {
  Var,        ///< object reference (Sym)
  FuncRef,    ///< function designator (Sym)
  IntConst,   ///< IntValue of type Ty (set at desugar time)
  Unary,      ///< UOp, Kids[0] (incl. pre/post inc/dec)
  Binary,     ///< BOp, Kids[0], Kids[1] (incl. LogAnd/LogOr)
  Assign,     ///< AssignOp?, Kids[0], Kids[1]
  Cond,       ///< Kids[0] ? Kids[1] : Kids[2]
  Cast,       ///< (CastTy) Kids[0]
  Call,       ///< Kids[0](Kids[1..])
  Member,     ///< Kids[0].MemberName   (e->m was rewritten to (*e).m)
  SizeofExpr, ///< sizeof Kids[0] (folded by the type checker)
  SizeofType, ///< sizeof(CastTy)
  AlignofType,///< _Alignof(CastTy)
  Comma,      ///< Kids[0], Kids[1]
};

/// Value category assigned by the type checker (6.3.2.1). The elaboration
/// inserts a load ("lvalue conversion") where an LValue is used as a value.
enum class ValueCat { Unknown, LValue, RValue };

struct AilExpr;
using AilExprPtr = std::unique_ptr<AilExpr>;

struct AilExpr {
  AilExprKind Kind;
  SourceLoc Loc;

  Symbol Sym;                  // Var / FuncRef
  Int128 IntValue = 0;         // IntConst
  cabs::UnaryOp UOp = cabs::UnaryOp::Plus;
  cabs::BinaryOp BOp = cabs::BinaryOp::Add;
  std::optional<cabs::BinaryOp> AssignOp;
  CType CastTy;                // Cast / SizeofType / AlignofType
  std::string MemberName;      // Member
  std::vector<AilExprPtr> Kids;

  //===--- Annotations set by the type checker -------------------------===//
  CType Ty;                    ///< the C type of this expression
  ValueCat Cat = ValueCat::Unknown;
  /// For pointer arithmetic (ptr+int, ptr-int, ptr-ptr, ++/-- on pointers,
  /// compound assignment on pointers): the pointee type used for scaling.
  CType ArithElemTy;
  /// The usual-arithmetic-conversion type of the operands where it differs
  /// from Ty (comparisons, compound assignment, conditional).
  CType CommonTy;
  /// Shift operators: the separately promoted type of the right operand.
  CType RhsConvTy;
};

AilExprPtr makeAilExpr(AilExprKind K, SourceLoc Loc);

//===----------------------------------------------------------------------===//
// Initialisers, declarations, statements
//===----------------------------------------------------------------------===//

struct AilInit {
  SourceLoc Loc;
  AilExprPtr E;              ///< scalar form (null if list form)
  std::vector<AilInit> List; ///< brace list form
  bool isList() const { return E == nullptr; }
};

enum class AilStmtKind {
  Expr,    ///< E (null = empty statement)
  Decl,    ///< a block-scope object: DeclSym/DeclTy/DeclInit
  Block,   ///< Body
  If,      ///< E, Body[0], optional Body[1]
  While,   ///< E, Body[0]
  Switch,  ///< E, Body[0]
  Case,    ///< CaseValue, Body[0]; LabelSym assigned at desugar
  Default, ///< Body[0]; LabelSym
  Label,   ///< LabelSym, Body[0]
  Goto,    ///< LabelSym
  Break,
  Continue,
  Return,  ///< optional E
};

struct AilStmt;
using AilStmtPtr = std::unique_ptr<AilStmt>;

struct AilStmt {
  AilStmtKind Kind;
  SourceLoc Loc;

  AilExprPtr E;
  std::vector<AilStmtPtr> Body;
  Symbol LabelSym;                  // Case/Default/Label/Goto
  Int128 CaseValue = 0;             // Case
  Symbol DeclSym;                   // Decl
  CType DeclTy;                     // Decl
  std::optional<AilInit> DeclInit;  // Decl
};

AilStmtPtr makeAilStmt(AilStmtKind K, SourceLoc Loc);

//===----------------------------------------------------------------------===//
// Program
//===----------------------------------------------------------------------===//

struct AilParam {
  Symbol Sym;
  CType Ty;
};

struct AilFunction {
  Symbol Sym;
  CType Ty; ///< function type
  std::vector<AilParam> Params;
  AilStmtPtr Body;
  SourceLoc Loc;
};

struct AilGlobal {
  Symbol Sym;
  CType Ty;
  std::optional<AilInit> Init; ///< absent = zero-initialised (static storage)
  SourceLoc Loc;
  bool IsStringLiteral = false;
};

/// The builtin library functions injected by the desugarer (§5.1: Cerberus
/// "supports only small parts of the standard libraries" — these are ours).
enum class Builtin {
  Printf,
  Malloc,
  Calloc,
  Free,
  Memcpy,
  Memmove,
  Memset,
  Memcmp,
  Strlen,
  Strcpy,
  Strcmp,
  Puts,
  Putchar,
  Realloc,
  Abort,
  Exit,
  Assert, ///< __cerb_assert(cond) — used by the de facto test suite
};

struct AilProgram {
  TagTable Tags;
  SymbolTable Syms;
  std::vector<AilGlobal> Globals;
  std::vector<AilFunction> Functions;
  std::map<unsigned, Builtin> Builtins; ///< symbol id -> builtin
  std::map<unsigned, CType> DeclaredFunctions; ///< all function decls
  Symbol Main; ///< invalid if the unit has no main (library-style unit)

  const AilFunction *findFunction(Symbol S) const {
    for (const AilFunction &F : Functions)
      if (F.Sym == S)
        return &F;
    return nullptr;
  }
};

} // namespace cerb::ail

#endif // CERB_AIL_AIL_H
