//===-- ail/Desugar.cpp ---------------------------------------------------===//

#include "ail/Desugar.h"

#include "support/DepthGuard.h"
#include "support/Format.h"

#include <cassert>
#include <map>
#include <optional>

using namespace cerb;
using namespace cerb::ail;
using cabs::CabsDecl;
using cabs::CabsExpr;
using cabs::CabsExprKind;
using cabs::CabsInit;
using cabs::CabsStmt;
using cabs::CabsStmtKind;
using cabs::CabsType;
using cabs::CabsTypeKind;
using cabs::CabsTypePtr;
using cabs::StorageClass;

//===----------------------------------------------------------------------===//
// Integer constant decoding (6.4.4.1)
//===----------------------------------------------------------------------===//

Expected<std::pair<Int128, CType>>
cerb::ail::decodeIntConst(std::string_view S, SourceLoc Loc) {
  if (S.empty())
    return err("empty integer constant", Loc, "6.4.4.1");
  int Base = 10;
  size_t I = 0;
  if (S.size() >= 2 && S[0] == '0' && (S[1] == 'x' || S[1] == 'X')) {
    Base = 16;
    I = 2;
  } else if (S[0] == '0' && S.size() > 1) {
    Base = 8;
    I = 1;
  }
  UInt128 V = 0;
  bool AnyDigit = Base == 8; // the octal prefix '0' is itself a digit

  for (; I < S.size(); ++I) {
    char C = S[I];
    int D;
    if (C >= '0' && C <= '9')
      D = C - '0';
    else if (Base == 16 && C >= 'a' && C <= 'f')
      D = C - 'a' + 10;
    else if (Base == 16 && C >= 'A' && C <= 'F')
      D = C - 'A' + 10;
    else
      break;
    if (D >= Base)
      return err(fmt("invalid digit '{0}' in base-{1} constant", C, Base),
                 Loc, "6.4.4.1");
    UInt128 NewV = V * Base + D;
    if (NewV < V)
      return err("integer constant too large", Loc, "6.4.4.1p6");
    V = NewV;
    AnyDigit = true;
  }
  if (!AnyDigit)
    return err("malformed integer constant", Loc, "6.4.4.1");

  // Suffix.
  bool Unsigned = false;
  int LongCount = 0;
  for (; I < S.size(); ++I) {
    char C = S[I];
    if (C == 'u' || C == 'U') {
      if (Unsigned)
        return err("duplicate 'u' suffix", Loc, "6.4.4.1");
      Unsigned = true;
    } else if (C == 'l' || C == 'L') {
      ++LongCount;
      if (LongCount > 2)
        return err("too many 'l' suffixes", Loc, "6.4.4.1");
      // "ll" must be same case and adjacent; we accept any (lenient).
    } else if (C == '.' || C == 'e' || C == 'E' || C == 'f' || C == 'F') {
      return err("floating constants are outside the supported fragment",
                 Loc);
    } else {
      return err(fmt("invalid integer suffix starting at '{0}'", C), Loc,
                 "6.4.4.1");
    }
  }

  // The 6.4.4.1p5 ladder. Our ImplEnv: int=32, long=long long=64 bits.
  auto Fits = [&](unsigned Bits, bool Sgn) {
    if (Sgn)
      return V <= (UInt128(1) << (Bits - 1)) - 1;
    return Bits >= 128 || V <= (UInt128(1) << Bits) - 1;
  };
  struct Rung {
    IntKind K;
    unsigned Bits;
    bool Sgn;
  };
  std::vector<Rung> Ladder;
  bool AllowUnsignedRungs = Unsigned || Base != 10;
  auto AddRung = [&](IntKind K, unsigned Bits, bool Sgn) {
    if (Sgn && Unsigned)
      return;
    if (!Sgn && !AllowUnsignedRungs)
      return;
    Ladder.push_back({K, Bits, Sgn});
  };
  if (LongCount == 0) {
    AddRung(IntKind::Int, 32, true);
    AddRung(IntKind::UInt, 32, false);
  }
  if (LongCount <= 1) {
    AddRung(IntKind::Long, 64, true);
    AddRung(IntKind::ULong, 64, false);
  }
  AddRung(IntKind::LongLong, 64, true);
  AddRung(IntKind::ULongLong, 64, false);

  for (const Rung &R : Ladder)
    if (Fits(R.Bits, R.Sgn))
      return std::make_pair(static_cast<Int128>(V), CType::makeInteger(R.K));
  return err("integer constant does not fit any integer type", Loc,
             "6.4.4.1p6");
}

//===----------------------------------------------------------------------===//
// Desugarer
//===----------------------------------------------------------------------===//

namespace {

struct OrdinaryEntry {
  enum { Object, Func, TypedefName, EnumConst } Kind;
  Symbol Sym;       // Object / Func
  CType Ty;         // Object / Func / TypedefName
  Int128 Value = 0; // EnumConst
};

class Desugarer {
public:
  Desugarer() { pushScope(); }

  Expected<AilProgram> run(const cabs::CabsTranslationUnit &Unit);

private:
  AilProgram Prog;
  std::vector<std::map<std::string, OrdinaryEntry>> Ordinary;
  std::vector<std::map<std::string, unsigned>> TagScopes;
  /// Per-function label environment: source label name -> label symbol.
  std::map<std::string, Symbol> Labels;
  /// Redirect target for `continue` inside desugared for/do-while bodies
  /// (nullopt entry = a plain while, where Ail Continue is kept).
  std::vector<std::optional<Symbol>> ContinueRedirects;
  unsigned FreshCounter = 0;
  /// Depth of the recursive walk (support/DepthGuard.h).
  unsigned Depth = 0;
  DepthGuard guard() { return DepthGuard(Depth, MaxSyntaxDepth); }

  void pushScope() {
    Ordinary.emplace_back();
    TagScopes.emplace_back();
  }
  void popScope() {
    Ordinary.pop_back();
    TagScopes.pop_back();
  }

  const OrdinaryEntry *lookup(const std::string &Name) const {
    for (auto It = Ordinary.rbegin(); It != Ordinary.rend(); ++It) {
      auto F = It->find(Name);
      if (F != It->end())
        return &F->second;
    }
    return nullptr;
  }
  std::optional<unsigned> lookupTag(const std::string &Name) const {
    for (auto It = TagScopes.rbegin(); It != TagScopes.rend(); ++It) {
      auto F = It->find(Name);
      if (F != It->end())
        return F->second;
    }
    return std::nullopt;
  }

  std::string freshName(std::string_view Base) {
    return fmt("{0}.{1}", Base, FreshCounter++);
  }

  void declareBuiltins();
  void declareBuiltin(std::string Name, Builtin B, CType Ty);

  Expected<CType> resolveType(const CabsTypePtr &Ty);
  Expected<CType> adjustParamType(CType Ty); ///< array/function decay 6.7.6.3p7+8

  Expected<Int128> constEval(const CabsExpr &E);

  Expected<AilExprPtr> desugarExpr(const CabsExpr &E);
  Expected<AilInit> desugarInit(const CabsInit &Init);
  /// Like desugarInit but aware of the declared type, so string literals
  /// initialising char arrays become in-place byte lists (6.7.9p14).
  Expected<AilInit> desugarInitForType(const CType &Ty, const CabsInit &Init);
  Expected<AilStmtPtr> desugarStmt(const CabsStmt &S);
  ExpectedVoid desugarBlockItem(const CabsStmt &S,
                                std::vector<AilStmtPtr> &Out);
  ExpectedVoid desugarLocalDecl(const CabsDecl &D,
                                std::vector<AilStmtPtr> &Out);
  ExpectedVoid desugarGlobalDecl(const CabsDecl &D);
  ExpectedVoid desugarFunctionDef(const cabs::CabsFunctionDef &F);
  /// Creates/locates label symbols for all labels in a function body.
  ExpectedVoid collectLabels(const CabsStmt &S);

  /// Completes an unsized array type from its initialiser (6.7.9p22/25).
  Expected<CType> completeArrayFromInit(CType Ty, const CabsInit &Init,
                                        SourceLoc Loc);

  /// Hoists a string literal into an implicitly allocated global object and
  /// returns a Var expression referring to it.
  AilExprPtr hoistStringLiteral(const std::string &Bytes, SourceLoc Loc);
};

//===----------------------------------------------------------------------===//
// Builtins
//===----------------------------------------------------------------------===//

void Desugarer::declareBuiltin(std::string Name, Builtin B, CType Ty) {
  Symbol S = Prog.Syms.create(Name, SymbolKind::Function);
  OrdinaryEntry E;
  E.Kind = OrdinaryEntry::Func;
  E.Sym = S;
  E.Ty = Ty;
  Ordinary.front()[Prog.Syms.nameOf(S)] = E;
  Prog.Builtins[S.Id] = B;
  Prog.DeclaredFunctions[S.Id] = Ty;
}

void Desugarer::declareBuiltins() {
  CType VoidTy = CType::makeVoid();
  CType VoidPtr = Prog.Tags.pointerTo(VoidTy);
  CType CharPtr = Prog.Tags.pointerTo(CType::charTy());
  CType IntTy = CType::intTy();
  CType SizeTy = CType::sizeTy();
  declareBuiltin("printf", Builtin::Printf,
                 Prog.Tags.functionType(IntTy, {CharPtr}, /*Variadic=*/true));
  declareBuiltin("malloc", Builtin::Malloc,
                 Prog.Tags.functionType(VoidPtr, {SizeTy}, false));
  declareBuiltin("calloc", Builtin::Calloc,
                 Prog.Tags.functionType(VoidPtr, {SizeTy, SizeTy}, false));
  declareBuiltin("free", Builtin::Free,
                 Prog.Tags.functionType(VoidTy, {VoidPtr}, false));
  declareBuiltin("memcpy", Builtin::Memcpy,
                 Prog.Tags.functionType(VoidPtr, {VoidPtr, VoidPtr, SizeTy},
                                        false));
  declareBuiltin("memmove", Builtin::Memmove,
                 Prog.Tags.functionType(VoidPtr, {VoidPtr, VoidPtr, SizeTy},
                                        false));
  declareBuiltin("memset", Builtin::Memset,
                 Prog.Tags.functionType(VoidPtr, {VoidPtr, IntTy, SizeTy},
                                        false));
  declareBuiltin("memcmp", Builtin::Memcmp,
                 Prog.Tags.functionType(IntTy, {VoidPtr, VoidPtr, SizeTy},
                                        false));
  declareBuiltin("strlen", Builtin::Strlen,
                 Prog.Tags.functionType(SizeTy, {CharPtr}, false));
  declareBuiltin("strcpy", Builtin::Strcpy,
                 Prog.Tags.functionType(CharPtr, {CharPtr, CharPtr}, false));
  declareBuiltin("strcmp", Builtin::Strcmp,
                 Prog.Tags.functionType(IntTy, {CharPtr, CharPtr}, false));
  declareBuiltin("puts", Builtin::Puts,
                 Prog.Tags.functionType(IntTy, {CharPtr}, false));
  declareBuiltin("putchar", Builtin::Putchar,
                 Prog.Tags.functionType(IntTy, {IntTy}, false));
  declareBuiltin("realloc", Builtin::Realloc,
                 Prog.Tags.functionType(VoidPtr, {VoidPtr, SizeTy}, false));
  declareBuiltin("abort", Builtin::Abort,
                 Prog.Tags.functionType(VoidTy, {}, false));
  declareBuiltin("exit", Builtin::Exit,
                 Prog.Tags.functionType(VoidTy, {IntTy}, false));
  declareBuiltin("__cerb_assert", Builtin::Assert,
                 Prog.Tags.functionType(VoidTy, {IntTy}, false));

  // Common <stdint.h>/<stddef.h> typedef names.
  auto Typedef = [&](std::string Name, CType Ty) {
    OrdinaryEntry E;
    E.Kind = OrdinaryEntry::TypedefName;
    E.Ty = Ty;
    Ordinary.front()[std::move(Name)] = E;
  };
  Typedef("size_t", CType::sizeTy());
  Typedef("ptrdiff_t", CType::ptrdiffTy());
  Typedef("intptr_t", CType::makeInteger(IntKind::Long));
  Typedef("uintptr_t", CType::makeInteger(IntKind::ULong));
  Typedef("int8_t", CType::makeInteger(IntKind::SChar));
  Typedef("uint8_t", CType::makeInteger(IntKind::UChar));
  Typedef("int16_t", CType::makeInteger(IntKind::Short));
  Typedef("uint16_t", CType::makeInteger(IntKind::UShort));
  Typedef("int32_t", CType::makeInteger(IntKind::Int));
  Typedef("uint32_t", CType::makeInteger(IntKind::UInt));
  Typedef("int64_t", CType::makeInteger(IntKind::Long));
  Typedef("uint64_t", CType::makeInteger(IntKind::ULong));
}

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

Expected<CType> Desugarer::resolveType(const CabsTypePtr &Ty) {
  assert(Ty && "null CabsType");
  DepthGuard G = guard();
  if (!G)
    return G.error("desugar", Ty->Loc);
  switch (Ty->Kind) {
  case CabsTypeKind::Base:
    switch (Ty->Base) {
    case cabs::BaseSpec::Void: return CType::makeVoid();
    case cabs::BaseSpec::Bool: return CType::makeInteger(IntKind::Bool);
    case cabs::BaseSpec::Char: return CType::makeInteger(IntKind::Char);
    case cabs::BaseSpec::SChar: return CType::makeInteger(IntKind::SChar);
    case cabs::BaseSpec::UChar: return CType::makeInteger(IntKind::UChar);
    case cabs::BaseSpec::Short: return CType::makeInteger(IntKind::Short);
    case cabs::BaseSpec::UShort: return CType::makeInteger(IntKind::UShort);
    case cabs::BaseSpec::Int: return CType::makeInteger(IntKind::Int);
    case cabs::BaseSpec::UInt: return CType::makeInteger(IntKind::UInt);
    case cabs::BaseSpec::Long: return CType::makeInteger(IntKind::Long);
    case cabs::BaseSpec::ULong: return CType::makeInteger(IntKind::ULong);
    case cabs::BaseSpec::LongLong:
      return CType::makeInteger(IntKind::LongLong);
    case cabs::BaseSpec::ULongLong:
      return CType::makeInteger(IntKind::ULongLong);
    case cabs::BaseSpec::Float:
    case cabs::BaseSpec::Double:
      return err("floating types are outside the supported fragment",
                 Ty->Loc);
    }
    return err("bad base type", Ty->Loc);
  case CabsTypeKind::TypedefName: {
    const OrdinaryEntry *E = lookup(Ty->Name);
    if (!E || E->Kind != OrdinaryEntry::TypedefName)
      return err(fmt("'{0}' does not name a type", Ty->Name), Ty->Loc,
                 "6.7.8");
    return E->Ty;
  }
  case CabsTypeKind::Pointer: {
    CERB_TRY(Inner, resolveType(Ty->Inner));
    return Prog.Tags.pointerTo(Inner);
  }
  case CabsTypeKind::Array: {
    CERB_TRY(Elem, resolveType(Ty->Inner));
    if (Elem.isFunction())
      return err("array of functions", Ty->Loc, "6.7.6.2p1");
    if (Elem.isVoid())
      return err("array of void", Ty->Loc, "6.7.6.2p1");
    if (!Ty->ArraySize)
      return Prog.Tags.arrayOf(Elem, std::nullopt);
    CERB_TRY(N, constEval(*Ty->ArraySize));
    if (N <= 0)
      return err("array size must be positive (VLAs unsupported)", Ty->Loc,
                 "6.7.6.2p1");
    return Prog.Tags.arrayOf(Elem, static_cast<uint64_t>(N));
  }
  case CabsTypeKind::Function: {
    CERB_TRY(Ret, resolveType(Ty->Inner));
    if (Ret.isArray() || Ret.isFunction())
      return err("function returning array or function", Ty->Loc,
                 "6.7.6.3p1");
    std::vector<CType> Params;
    for (const cabs::CabsParamDecl &P : Ty->Params) {
      CERB_TRY(PT, resolveType(P.Ty));
      CERB_TRY(Adjusted, adjustParamType(PT));
      Params.push_back(Adjusted);
    }
    return Prog.Tags.functionType(Ret, Params, Ty->Variadic);
  }
  case CabsTypeKind::StructUnion: {
    unsigned Tag;
    std::optional<unsigned> Existing =
        Ty->Name.empty() ? std::nullopt : lookupTag(Ty->Name);
    if (Ty->HasBody) {
      // Define in the current scope: reuse an incomplete same-scope tag.
      auto SameScope = TagScopes.back().find(Ty->Name);
      if (!Ty->Name.empty() && SameScope != TagScopes.back().end()) {
        Tag = SameScope->second;
        if (Prog.Tags.get(Tag).Complete)
          return err(fmt("redefinition of '{0}'", Ty->Name), Ty->Loc,
                     "6.7.2.3p1");
        if (Prog.Tags.get(Tag).IsUnion != Ty->IsUnion)
          return err(fmt("tag '{0}' used as both struct and union",
                         Ty->Name),
                     Ty->Loc, "6.7.2.3p3");
      } else {
        Tag = Prog.Tags.createTag(Ty->IsUnion, Ty->Name.empty()
                                                   ? freshName("anon")
                                                   : Ty->Name);
        if (!Ty->Name.empty())
          TagScopes.back()[Ty->Name] = Tag;
      }
      std::vector<TagMember> Members;
      for (const cabs::CabsFieldDecl &F : Ty->Fields) {
        CERB_TRY(FT, resolveType(F.Ty));
        if (FT.isFunction())
          return err("struct member of function type", F.Loc, "6.7.2.1p3");
        if (F.Name.empty())
          return err("anonymous members are outside the fragment", F.Loc);
        // A member of the struct being defined, or of any incomplete
        // tag, would give the type no finite size.
        CType Elem = FT;
        while (Elem.isArray())
          Elem = Elem.element();
        if ((Elem.isStruct() || Elem.isUnion()) &&
            !Prog.Tags.get(Elem.tag()).Complete)
          return err("struct member of incomplete type", F.Loc, "6.7.2.1p3");
        Members.push_back(TagMember{F.Name, FT});
      }
      // A member list may itself have defined this tag.
      if (Prog.Tags.get(Tag).Complete)
        return err(fmt("redefinition of '{0}'", Ty->Name), Ty->Loc,
                   "6.7.2.3p1");
      Prog.Tags.complete(Tag, std::move(Members));
    } else if (Existing) {
      Tag = *Existing;
      if (Prog.Tags.get(Tag).IsUnion != Ty->IsUnion)
        return err(fmt("tag '{0}' used as both struct and union", Ty->Name),
                   Ty->Loc, "6.7.2.3p3");
    } else {
      // Forward reference: create an incomplete tag in the current scope.
      Tag = Prog.Tags.createTag(Ty->IsUnion, Ty->Name);
      TagScopes.back()[Ty->Name] = Tag;
    }
    return Prog.Tags.tagType(Tag);
  }
  case CabsTypeKind::Enum: {
    if (Ty->HasBody) {
      Int128 Next = 0;
      for (const cabs::CabsEnumerator &En : Ty->Enumerators) {
        if (En.Value) {
          CERB_TRY(V, constEval(*En.Value));
          Next = V;
        }
        OrdinaryEntry E;
        E.Kind = OrdinaryEntry::EnumConst;
        E.Value = Next;
        Ordinary.back()[En.Name] = E;
        ++Next;
      }
    }
    // Enums are replaced by int (§5.1; enumerated types are int-compatible).
    return CType::intTy();
  }
  }
  return err("bad syntactic type", Ty->Loc);
}

Expected<CType> Desugarer::adjustParamType(CType Ty) {
  // 6.7.6.3p7: array of T adjusts to pointer to T; p8: function to pointer.
  if (Ty.isArray())
    return Prog.Tags.pointerTo(Ty.element());
  if (Ty.isFunction())
    return Prog.Tags.pointerTo(Ty);
  return Ty;
}

//===----------------------------------------------------------------------===//
// Constant expressions (desugar-time; 6.6)
//===----------------------------------------------------------------------===//

Expected<Int128> Desugarer::constEval(const CabsExpr &E) {
  DepthGuard G = guard();
  if (!G)
    return G.error("desugar", E.Loc);
  switch (E.Kind) {
  case CabsExprKind::IntConst: {
    CERB_TRY(VT, decodeIntConst(E.Text, E.Loc));
    return VT.first;
  }
  case CabsExprKind::CharConst:
    return Int128(E.IntValue);
  case CabsExprKind::Ident: {
    const OrdinaryEntry *Entry = lookup(E.Text);
    if (Entry && Entry->Kind == OrdinaryEntry::EnumConst)
      return Entry->Value;
    return err(fmt("'{0}' is not an integer constant expression", E.Text),
               E.Loc, "6.6p6");
  }
  case CabsExprKind::Unary: {
    CERB_TRY(V, constEval(*E.Kids[0]));
    switch (E.UOp) {
    case cabs::UnaryOp::Plus: return V;
    case cabs::UnaryOp::Minus: return -V;
    case cabs::UnaryOp::BitNot: return ~V;
    case cabs::UnaryOp::LogNot: return Int128(V == 0 ? 1 : 0);
    default:
      return err("operator not allowed in integer constant expression",
                 E.Loc, "6.6p6");
    }
  }
  case CabsExprKind::Binary: {
    CERB_TRY(A, constEval(*E.Kids[0]));
    // Short-circuit forms must not evaluate the dead arm.
    if (E.BOp == cabs::BinaryOp::LogAnd && A == 0)
      return Int128(0);
    if (E.BOp == cabs::BinaryOp::LogOr && A != 0)
      return Int128(1);
    CERB_TRY(B, constEval(*E.Kids[1]));
    switch (E.BOp) {
    case cabs::BinaryOp::Mul: return A * B;
    case cabs::BinaryOp::Div:
      if (B == 0)
        return err("division by zero in constant expression", E.Loc, "6.6p4");
      return A / B;
    case cabs::BinaryOp::Rem:
      if (B == 0)
        return err("remainder by zero in constant expression", E.Loc,
                   "6.6p4");
      return A % B;
    case cabs::BinaryOp::Add: return A + B;
    case cabs::BinaryOp::Sub: return A - B;
    case cabs::BinaryOp::Shl:
      if (B < 0 || B >= 64)
        return err("bad shift amount in constant expression", E.Loc,
                   "6.5.7p3");
      return A << static_cast<unsigned>(B);
    case cabs::BinaryOp::Shr:
      if (B < 0 || B >= 64)
        return err("bad shift amount in constant expression", E.Loc,
                   "6.5.7p3");
      return A >> static_cast<unsigned>(B);
    case cabs::BinaryOp::Lt: return Int128(A < B);
    case cabs::BinaryOp::Gt: return Int128(A > B);
    case cabs::BinaryOp::Le: return Int128(A <= B);
    case cabs::BinaryOp::Ge: return Int128(A >= B);
    case cabs::BinaryOp::Eq: return Int128(A == B);
    case cabs::BinaryOp::Ne: return Int128(A != B);
    case cabs::BinaryOp::BitAnd: return A & B;
    case cabs::BinaryOp::BitXor: return A ^ B;
    case cabs::BinaryOp::BitOr: return A | B;
    case cabs::BinaryOp::LogAnd: return Int128(B != 0);
    case cabs::BinaryOp::LogOr: return Int128(B != 0);
    }
    return err("bad binary operator in constant expression", E.Loc);
  }
  case CabsExprKind::Cond: {
    CERB_TRY(C, constEval(*E.Kids[0]));
    return constEval(C != 0 ? *E.Kids[1] : *E.Kids[2]);
  }
  case CabsExprKind::Cast: {
    CERB_TRY(Ty, resolveType(E.TypeName));
    if (!Ty.isInteger())
      return err("non-integer cast in integer constant expression", E.Loc,
                 "6.6p6");
    CERB_TRY(V, constEval(*E.Kids[0]));
    ImplEnv Env(Prog.Tags);
    return Env.convert(Ty.intKind(), V);
  }
  case CabsExprKind::SizeofType:
  case CabsExprKind::AlignofType: {
    CERB_TRY(Ty, resolveType(E.TypeName));
    ImplEnv Env(Prog.Tags);
    return Int128(E.Kind == CabsExprKind::SizeofType ? Env.sizeOf(Ty)
                                                     : Env.alignOf(Ty));
  }
  case CabsExprKind::SizeofExpr: {
    // sizeof(identifier) of a declared object is the common constant form.
    const CabsExpr &Sub = *E.Kids[0];
    if (Sub.Kind == CabsExprKind::Ident) {
      const OrdinaryEntry *Entry = lookup(Sub.Text);
      if (Entry && Entry->Kind == OrdinaryEntry::Object) {
        ImplEnv Env(Prog.Tags);
        return Int128(Env.sizeOf(Entry->Ty));
      }
    }
    if (Sub.Kind == CabsExprKind::StringLit)
      return Int128(Sub.Text.size() + 1);
    return err("unsupported sizeof operand in constant expression", E.Loc,
               "6.6");
  }
  default:
    return err("expression is not an integer constant expression", E.Loc,
               "6.6p6");
  }
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

AilExprPtr Desugarer::hoistStringLiteral(const std::string &Bytes,
                                         SourceLoc Loc) {
  // 6.4.5p6: string literals are arrays of char with static storage
  // duration, i.e. implicitly allocated objects (§5.1).
  Symbol S = Prog.Syms.create(freshName("strlit"), SymbolKind::Object);
  AilGlobal G;
  G.Sym = S;
  G.Ty = Prog.Tags.arrayOf(CType::charTy(), Bytes.size() + 1);
  G.Loc = Loc;
  G.IsStringLiteral = true;
  AilInit Init;
  Init.Loc = Loc;
  for (size_t I = 0; I <= Bytes.size(); ++I) { // include the NUL
    AilInit Elem;
    Elem.Loc = Loc;
    auto C = makeAilExpr(AilExprKind::IntConst, Loc);
    C->IntValue = I < Bytes.size()
                      ? Int128(static_cast<signed char>(Bytes[I]))
                      : Int128(0);
    C->Ty = CType::intTy();
    Elem.E = std::move(C);
    Init.List.push_back(std::move(Elem));
  }
  G.Init = std::move(Init);
  Prog.Globals.push_back(std::move(G));

  auto Ref = makeAilExpr(AilExprKind::Var, Loc);
  Ref->Sym = S;
  return Ref;
}

Expected<AilExprPtr> Desugarer::desugarExpr(const CabsExpr &E) {
  DepthGuard G = guard();
  if (!G)
    return G.error("desugar", E.Loc);
  switch (E.Kind) {
  case CabsExprKind::Ident: {
    const OrdinaryEntry *Entry = lookup(E.Text);
    if (!Entry)
      return err(fmt("use of undeclared identifier '{0}'", E.Text), E.Loc,
                 "6.5.1p2");
    switch (Entry->Kind) {
    case OrdinaryEntry::Object: {
      auto R = makeAilExpr(AilExprKind::Var, E.Loc);
      R->Sym = Entry->Sym;
      return R;
    }
    case OrdinaryEntry::Func: {
      auto R = makeAilExpr(AilExprKind::FuncRef, E.Loc);
      R->Sym = Entry->Sym;
      return R;
    }
    case OrdinaryEntry::EnumConst: {
      auto R = makeAilExpr(AilExprKind::IntConst, E.Loc);
      R->IntValue = Entry->Value;
      R->Ty = CType::intTy();
      return R;
    }
    case OrdinaryEntry::TypedefName:
      return err(fmt("unexpected type name '{0}' in expression", E.Text),
                 E.Loc, "6.5.1");
    }
    return err("bad identifier entry", E.Loc);
  }
  case CabsExprKind::IntConst: {
    CERB_TRY(VT, decodeIntConst(E.Text, E.Loc));
    auto R = makeAilExpr(AilExprKind::IntConst, E.Loc);
    R->IntValue = VT.first;
    R->Ty = VT.second;
    return R;
  }
  case CabsExprKind::CharConst: {
    auto R = makeAilExpr(AilExprKind::IntConst, E.Loc);
    R->IntValue = Int128(E.IntValue);
    R->Ty = CType::intTy(); // 6.4.4.4p10: character constant has type int
    return R;
  }
  case CabsExprKind::StringLit:
    return hoistStringLiteral(E.Text, E.Loc);
  case CabsExprKind::Unary: {
    CERB_TRY(Sub, desugarExpr(*E.Kids[0]));
    auto R = makeAilExpr(AilExprKind::Unary, E.Loc);
    R->UOp = E.UOp;
    R->Kids.push_back(std::move(Sub));
    return R;
  }
  case CabsExprKind::Binary: {
    CERB_TRY(A, desugarExpr(*E.Kids[0]));
    CERB_TRY(B, desugarExpr(*E.Kids[1]));
    auto R = makeAilExpr(AilExprKind::Binary, E.Loc);
    R->BOp = E.BOp;
    R->Kids.push_back(std::move(A));
    R->Kids.push_back(std::move(B));
    return R;
  }
  case CabsExprKind::Assign: {
    CERB_TRY(A, desugarExpr(*E.Kids[0]));
    CERB_TRY(B, desugarExpr(*E.Kids[1]));
    auto R = makeAilExpr(AilExprKind::Assign, E.Loc);
    R->AssignOp = E.AssignOp;
    R->Kids.push_back(std::move(A));
    R->Kids.push_back(std::move(B));
    return R;
  }
  case CabsExprKind::Cond: {
    CERB_TRY(C, desugarExpr(*E.Kids[0]));
    CERB_TRY(T, desugarExpr(*E.Kids[1]));
    CERB_TRY(F, desugarExpr(*E.Kids[2]));
    auto R = makeAilExpr(AilExprKind::Cond, E.Loc);
    R->Kids.push_back(std::move(C));
    R->Kids.push_back(std::move(T));
    R->Kids.push_back(std::move(F));
    return R;
  }
  case CabsExprKind::Cast: {
    CERB_TRY(Ty, resolveType(E.TypeName));
    CERB_TRY(Sub, desugarExpr(*E.Kids[0]));
    auto R = makeAilExpr(AilExprKind::Cast, E.Loc);
    R->CastTy = Ty;
    R->Kids.push_back(std::move(Sub));
    return R;
  }
  case CabsExprKind::Call: {
    auto R = makeAilExpr(AilExprKind::Call, E.Loc);
    for (const auto &K : E.Kids) {
      CERB_TRY(Sub, desugarExpr(*K));
      R->Kids.push_back(std::move(Sub));
    }
    return R;
  }
  case CabsExprKind::Member: {
    CERB_TRY(Sub, desugarExpr(*E.Kids[0]));
    auto R = makeAilExpr(AilExprKind::Member, E.Loc);
    R->MemberName = E.Text;
    R->Kids.push_back(std::move(Sub));
    return R;
  }
  case CabsExprKind::MemberPtr: {
    // e->m  desugars to  (*e).m (6.5.2.3p4).
    CERB_TRY(Sub, desugarExpr(*E.Kids[0]));
    auto Deref = makeAilExpr(AilExprKind::Unary, E.Loc);
    Deref->UOp = cabs::UnaryOp::Deref;
    Deref->Kids.push_back(std::move(Sub));
    auto R = makeAilExpr(AilExprKind::Member, E.Loc);
    R->MemberName = E.Text;
    R->Kids.push_back(std::move(Deref));
    return R;
  }
  case CabsExprKind::Index: {
    // a[b]  desugars to  *(a + b) (6.5.2.1p2).
    CERB_TRY(A, desugarExpr(*E.Kids[0]));
    CERB_TRY(B, desugarExpr(*E.Kids[1]));
    auto Add = makeAilExpr(AilExprKind::Binary, E.Loc);
    Add->BOp = cabs::BinaryOp::Add;
    Add->Kids.push_back(std::move(A));
    Add->Kids.push_back(std::move(B));
    auto R = makeAilExpr(AilExprKind::Unary, E.Loc);
    R->UOp = cabs::UnaryOp::Deref;
    R->Kids.push_back(std::move(Add));
    return R;
  }
  case CabsExprKind::SizeofExpr: {
    CERB_TRY(Sub, desugarExpr(*E.Kids[0]));
    auto R = makeAilExpr(AilExprKind::SizeofExpr, E.Loc);
    R->Kids.push_back(std::move(Sub));
    return R;
  }
  case CabsExprKind::SizeofType:
  case CabsExprKind::AlignofType: {
    CERB_TRY(Ty, resolveType(E.TypeName));
    auto R = makeAilExpr(E.Kind == CabsExprKind::SizeofType
                             ? AilExprKind::SizeofType
                             : AilExprKind::AlignofType,
                         E.Loc);
    R->CastTy = Ty;
    return R;
  }
  case CabsExprKind::Comma: {
    CERB_TRY(A, desugarExpr(*E.Kids[0]));
    CERB_TRY(B, desugarExpr(*E.Kids[1]));
    auto R = makeAilExpr(AilExprKind::Comma, E.Loc);
    R->Kids.push_back(std::move(A));
    R->Kids.push_back(std::move(B));
    return R;
  }
  }
  return err("bad expression kind", E.Loc);
}

Expected<AilInit> Desugarer::desugarInitForType(const CType &Ty,
                                                const CabsInit &Init) {
  // 6.7.9p14: a char array may be initialised by a string literal; the
  // literal's bytes initialise the elements (no object is hoisted).
  if (!Init.isList() && Init.E->Kind == CabsExprKind::StringLit &&
      Ty.isArray() && Ty.element().isCharacter()) {
    AilInit Out;
    Out.Loc = Init.Loc;
    const std::string &Bytes = Init.E->Text;
    uint64_t N = Ty.arraySize() ? *Ty.arraySize() : Bytes.size() + 1;
    for (uint64_t I = 0; I < N && I <= Bytes.size(); ++I) {
      AilInit Elem;
      Elem.Loc = Init.Loc;
      auto C = makeAilExpr(AilExprKind::IntConst, Init.Loc);
      C->IntValue = I < Bytes.size()
                        ? Int128(static_cast<signed char>(Bytes[I]))
                        : Int128(0);
      C->Ty = CType::intTy();
      Elem.E = std::move(C);
      Out.List.push_back(std::move(Elem));
    }
    return Out;
  }
  return desugarInit(Init);
}

Expected<AilInit> Desugarer::desugarInit(const CabsInit &Init) {
  DepthGuard G = guard();
  if (!G)
    return G.error("desugar", Init.Loc);
  AilInit Out;
  Out.Loc = Init.Loc;
  if (Init.isList()) {
    for (const CabsInit &Sub : Init.List) {
      CERB_TRY(S, desugarInit(Sub));
      Out.List.push_back(std::move(S));
    }
    return Out;
  }
  // A string literal initialising a char array is kept as a byte list so
  // the elaboration can fill the array in place (6.7.9p14); the type
  // checker decides whether the context is in fact a char array.
  CERB_TRY(E, desugarExpr(*Init.E));
  Out.E = std::move(E);
  return Out;
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

ExpectedVoid Desugarer::collectLabels(const CabsStmt &S) {
  DepthGuard G = guard();
  if (!G)
    return G.error("desugar", S.Loc);
  if (S.Kind == CabsStmtKind::Label) {
    if (Labels.count(S.Text))
      return err(fmt("duplicate label '{0}'", S.Text), S.Loc, "6.8.1p3");
    Labels[S.Text] = Prog.Syms.create(S.Text, SymbolKind::Label);
  }
  for (const auto &Sub : S.Body)
    CERB_CHECK(collectLabels(*Sub));
  return ExpectedVoid();
}

Expected<CType> Desugarer::completeArrayFromInit(CType Ty,
                                                 const CabsInit &Init,
                                                 SourceLoc Loc) {
  if (!Ty.isArray() || Ty.arraySize())
    return Ty;
  if (Init.isList()) {
    if (Init.List.empty())
      return err("empty initialiser for unsized array", Loc, "6.7.9p22");
    return Prog.Tags.arrayOf(Ty.element(), Init.List.size());
  }
  if (Init.E->Kind == CabsExprKind::StringLit && Ty.element().isCharacter())
    return Prog.Tags.arrayOf(Ty.element(), Init.E->Text.size() + 1);
  return err("cannot deduce array size from initialiser", Loc, "6.7.9p22");
}

ExpectedVoid Desugarer::desugarLocalDecl(const CabsDecl &D,
                                         std::vector<AilStmtPtr> &Out) {
  if (D.SC == StorageClass::Typedef) {
    CERB_TRY(Ty, resolveType(D.Ty));
    OrdinaryEntry E;
    E.Kind = OrdinaryEntry::TypedefName;
    E.Ty = Ty;
    Ordinary.back()[D.Name] = E;
    return ExpectedVoid();
  }
  if (D.Name.empty()) {
    // Bare tag/enum declaration: resolve for its side effects only.
    CERB_TRY(Ty, resolveType(D.Ty));
    (void)Ty;
    return ExpectedVoid();
  }
  CERB_TRY(Ty0, resolveType(D.Ty));
  CType Ty = Ty0;
  if (D.Init)
    CERB_TRY_ASSIGN(Ty, completeArrayFromInit(Ty, *D.Init, D.Loc));

  if (Ty.isFunction()) {
    // Block-scope function declaration.
    Symbol S = Prog.Syms.create(D.Name, SymbolKind::Function);
    OrdinaryEntry E;
    E.Kind = OrdinaryEntry::Func;
    E.Sym = S;
    E.Ty = Ty;
    Ordinary.back()[D.Name] = E;
    Prog.DeclaredFunctions[S.Id] = Ty;
    return ExpectedVoid();
  }

  if (D.SC == StorageClass::Static) {
    // Block-scope static: lifted to an implicitly named global (6.2.4p3).
    Symbol S = Prog.Syms.create(freshName(D.Name), SymbolKind::Object);
    AilGlobal G;
    G.Sym = S;
    G.Ty = Ty;
    G.Loc = D.Loc;
    if (D.Init) {
      CERB_TRY(Init, desugarInitForType(Ty, *D.Init));
      G.Init = std::move(Init);
    }
    Prog.Globals.push_back(std::move(G));
    OrdinaryEntry E;
    E.Kind = OrdinaryEntry::Object;
    E.Sym = S;
    E.Ty = Ty;
    Ordinary.back()[D.Name] = E;
    return ExpectedVoid();
  }

  Symbol S = Prog.Syms.create(D.Name, SymbolKind::Object);
  OrdinaryEntry E;
  E.Kind = OrdinaryEntry::Object;
  E.Sym = S;
  E.Ty = Ty;
  Ordinary.back()[D.Name] = E;

  auto Stmt = makeAilStmt(AilStmtKind::Decl, D.Loc);
  Stmt->DeclSym = S;
  Stmt->DeclTy = Ty;
  if (D.Init) {
    CERB_TRY(Init, desugarInitForType(Ty, *D.Init));
    Stmt->DeclInit = std::move(Init);
  }
  Out.push_back(std::move(Stmt));
  return ExpectedVoid();
}

ExpectedVoid Desugarer::desugarBlockItem(const CabsStmt &S,
                                         std::vector<AilStmtPtr> &Out) {
  if (S.Kind == CabsStmtKind::Decl) {
    for (const CabsDecl &D : S.Decls)
      CERB_CHECK(desugarLocalDecl(D, Out));
    return ExpectedVoid();
  }
  CERB_TRY(Sub, desugarStmt(S));
  Out.push_back(std::move(Sub));
  return ExpectedVoid();
}

Expected<AilStmtPtr> Desugarer::desugarStmt(const CabsStmt &S) {
  DepthGuard G = guard();
  if (!G)
    return G.error("desugar", S.Loc);
  switch (S.Kind) {
  case CabsStmtKind::Expr: {
    auto R = makeAilStmt(AilStmtKind::Expr, S.Loc);
    if (S.E) {
      CERB_TRY(E, desugarExpr(*S.E));
      R->E = std::move(E);
    }
    return R;
  }
  case CabsStmtKind::Decl: {
    // A declaration as the body of if/while etc. is invalid; block items
    // are handled by desugarBlockItem.
    return err("declaration not allowed here", S.Loc, "6.8");
  }
  case CabsStmtKind::Block: {
    pushScope();
    auto R = makeAilStmt(AilStmtKind::Block, S.Loc);
    for (const auto &Sub : S.Body) {
      auto Res = desugarBlockItem(*Sub, R->Body);
      if (!Res) {
        popScope();
        return Res.error();
      }
    }
    popScope();
    return R;
  }
  case CabsStmtKind::If: {
    CERB_TRY(Cond, desugarExpr(*S.E));
    CERB_TRY(Then, desugarStmt(*S.Body[0]));
    auto R = makeAilStmt(AilStmtKind::If, S.Loc);
    R->E = std::move(Cond);
    R->Body.push_back(std::move(Then));
    if (S.Body.size() > 1) {
      CERB_TRY(Else, desugarStmt(*S.Body[1]));
      R->Body.push_back(std::move(Else));
    }
    return R;
  }
  case CabsStmtKind::While: {
    CERB_TRY(Cond, desugarExpr(*S.E));
    ContinueRedirects.push_back(std::nullopt);
    auto BodyOr = desugarStmt(*S.Body[0]);
    ContinueRedirects.pop_back();
    if (!BodyOr)
      return BodyOr.takeError();
    auto R = makeAilStmt(AilStmtKind::While, S.Loc);
    R->E = std::move(Cond);
    R->Body.push_back(std::move(*BodyOr));
    return R;
  }
  case CabsStmtKind::DoWhile: {
    // do S while (e)  desugars to (§5.1):
    //   while (1) { S'; __cont: if (!(e)) break; }
    // with `continue` in S' redirected to __cont.
    Symbol ContLbl = Prog.Syms.create(freshName("do.cont"),
                                      SymbolKind::Label);
    ContinueRedirects.push_back(ContLbl);
    auto BodyOr = desugarStmt(*S.Body[0]);
    ContinueRedirects.pop_back();
    if (!BodyOr)
      return BodyOr.takeError();
    CERB_TRY(Cond, desugarExpr(*S.E));

    auto NotCond = makeAilExpr(AilExprKind::Unary, S.Loc);
    NotCond->UOp = cabs::UnaryOp::LogNot;
    NotCond->Kids.push_back(std::move(Cond));
    auto BreakStmt = makeAilStmt(AilStmtKind::Break, S.Loc);
    auto IfStmt = makeAilStmt(AilStmtKind::If, S.Loc);
    IfStmt->E = std::move(NotCond);
    IfStmt->Body.push_back(std::move(BreakStmt));
    auto Labelled = makeAilStmt(AilStmtKind::Label, S.Loc);
    Labelled->LabelSym = ContLbl;
    Labelled->Body.push_back(std::move(IfStmt));

    auto Block = makeAilStmt(AilStmtKind::Block, S.Loc);
    Block->Body.push_back(std::move(*BodyOr));
    Block->Body.push_back(std::move(Labelled));

    auto One = makeAilExpr(AilExprKind::IntConst, S.Loc);
    One->IntValue = 1;
    One->Ty = CType::intTy();
    auto R = makeAilStmt(AilStmtKind::While, S.Loc);
    R->E = std::move(One);
    R->Body.push_back(std::move(Block));
    return R;
  }
  case CabsStmtKind::For: {
    // for (init; cond; step) S  desugars to (§5.1):
    //   { init; while (cond or 1) { S'; __cont: ; step; } }
    // with `continue` in S' redirected to __cont.
    pushScope();
    auto Outer = makeAilStmt(AilStmtKind::Block, S.Loc);
    auto Fail = [&](StaticError E) -> Expected<AilStmtPtr> {
      popScope();
      return E;
    };
    if (!S.Decls.empty()) {
      for (const CabsDecl &D : S.Decls)
        if (auto R = desugarLocalDecl(D, Outer->Body); !R)
          return Fail(R.error());
    } else if (S.E) {
      auto InitE = desugarExpr(*S.E);
      if (!InitE)
        return Fail(InitE.takeError());
      auto InitStmt = makeAilStmt(AilStmtKind::Expr, S.Loc);
      InitStmt->E = std::move(*InitE);
      Outer->Body.push_back(std::move(InitStmt));
    }

    AilExprPtr Cond;
    if (S.E2) {
      auto CondOr = desugarExpr(*S.E2);
      if (!CondOr)
        return Fail(CondOr.takeError());
      Cond = std::move(*CondOr);
    } else {
      Cond = makeAilExpr(AilExprKind::IntConst, S.Loc);
      Cond->IntValue = 1;
      Cond->Ty = CType::intTy();
    }

    Symbol ContLbl = Prog.Syms.create(freshName("for.cont"),
                                      SymbolKind::Label);
    ContinueRedirects.push_back(ContLbl);
    auto BodyOr = desugarStmt(*S.Body[0]);
    ContinueRedirects.pop_back();
    if (!BodyOr)
      return Fail(BodyOr.takeError());

    auto LoopBlock = makeAilStmt(AilStmtKind::Block, S.Loc);
    LoopBlock->Body.push_back(std::move(*BodyOr));
    auto Empty = makeAilStmt(AilStmtKind::Expr, S.Loc);
    auto Labelled = makeAilStmt(AilStmtKind::Label, S.Loc);
    Labelled->LabelSym = ContLbl;
    Labelled->Body.push_back(std::move(Empty));
    LoopBlock->Body.push_back(std::move(Labelled));
    if (S.E3) {
      auto StepOr = desugarExpr(*S.E3);
      if (!StepOr)
        return Fail(StepOr.takeError());
      auto StepStmt = makeAilStmt(AilStmtKind::Expr, S.Loc);
      StepStmt->E = std::move(*StepOr);
      LoopBlock->Body.push_back(std::move(StepStmt));
    }

    auto While = makeAilStmt(AilStmtKind::While, S.Loc);
    While->E = std::move(Cond);
    While->Body.push_back(std::move(LoopBlock));
    Outer->Body.push_back(std::move(While));
    popScope();
    return Outer;
  }
  case CabsStmtKind::Switch: {
    CERB_TRY(Cond, desugarExpr(*S.E));
    // `continue` passes through a switch to the enclosing loop, so the
    // redirect stack is left untouched.
    CERB_TRY(Body, desugarStmt(*S.Body[0]));
    auto R = makeAilStmt(AilStmtKind::Switch, S.Loc);
    R->E = std::move(Cond);
    R->Body.push_back(std::move(Body));
    return R;
  }
  case CabsStmtKind::Case: {
    CERB_TRY(V, constEval(*S.E));
    CERB_TRY(Body, desugarStmt(*S.Body[0]));
    auto R = makeAilStmt(AilStmtKind::Case, S.Loc);
    R->CaseValue = V;
    R->LabelSym = Prog.Syms.create(freshName("case"), SymbolKind::Label);
    R->Body.push_back(std::move(Body));
    return R;
  }
  case CabsStmtKind::Default: {
    CERB_TRY(Body, desugarStmt(*S.Body[0]));
    auto R = makeAilStmt(AilStmtKind::Default, S.Loc);
    R->LabelSym = Prog.Syms.create(freshName("default"), SymbolKind::Label);
    R->Body.push_back(std::move(Body));
    return R;
  }
  case CabsStmtKind::Label: {
    auto It = Labels.find(S.Text);
    assert(It != Labels.end() && "label not collected");
    CERB_TRY(Body, desugarStmt(*S.Body[0]));
    auto R = makeAilStmt(AilStmtKind::Label, S.Loc);
    R->LabelSym = It->second;
    R->Body.push_back(std::move(Body));
    return R;
  }
  case CabsStmtKind::Goto: {
    auto It = Labels.find(S.Text);
    if (It == Labels.end())
      return err(fmt("use of undeclared label '{0}'", S.Text), S.Loc,
                 "6.8.6.1p1");
    auto R = makeAilStmt(AilStmtKind::Goto, S.Loc);
    R->LabelSym = It->second;
    return R;
  }
  case CabsStmtKind::Break:
    return makeAilStmt(AilStmtKind::Break, S.Loc);
  case CabsStmtKind::Continue: {
    if (!ContinueRedirects.empty() && ContinueRedirects.back()) {
      auto R = makeAilStmt(AilStmtKind::Goto, S.Loc);
      R->LabelSym = *ContinueRedirects.back();
      return R;
    }
    return makeAilStmt(AilStmtKind::Continue, S.Loc);
  }
  case CabsStmtKind::Return: {
    auto R = makeAilStmt(AilStmtKind::Return, S.Loc);
    if (S.E) {
      CERB_TRY(E, desugarExpr(*S.E));
      R->E = std::move(E);
    }
    return R;
  }
  }
  return err("bad statement kind", S.Loc);
}

//===----------------------------------------------------------------------===//
// Top level
//===----------------------------------------------------------------------===//

ExpectedVoid Desugarer::desugarGlobalDecl(const CabsDecl &D) {
  if (D.SC == StorageClass::Typedef) {
    CERB_TRY(Ty, resolveType(D.Ty));
    OrdinaryEntry E;
    E.Kind = OrdinaryEntry::TypedefName;
    E.Ty = Ty;
    Ordinary.front()[D.Name] = E;
    return ExpectedVoid();
  }
  if (D.Name.empty()) {
    CERB_TRY(Ty, resolveType(D.Ty));
    (void)Ty;
    return ExpectedVoid();
  }
  CERB_TRY(Ty0, resolveType(D.Ty));
  CType Ty = Ty0;
  if (D.Init)
    CERB_TRY_ASSIGN(Ty, completeArrayFromInit(Ty, *D.Init, D.Loc));

  if (Ty.isFunction()) {
    // Function prototype: reuse the symbol of a previous declaration.
    if (const OrdinaryEntry *Prev = lookup(D.Name)) {
      if (Prev->Kind == OrdinaryEntry::Func)
        return ExpectedVoid(); // keep first declaration's type (lenient)
      return err(fmt("'{0}' redeclared as different kind of symbol", D.Name),
                 D.Loc, "6.7p4");
    }
    Symbol S = Prog.Syms.create(D.Name, SymbolKind::Function);
    OrdinaryEntry E;
    E.Kind = OrdinaryEntry::Func;
    E.Sym = S;
    E.Ty = Ty;
    Ordinary.front()[D.Name] = E;
    Prog.DeclaredFunctions[S.Id] = Ty;
    return ExpectedVoid();
  }

  // Tentative definitions / extern: if already declared, only attach an
  // initialiser if present.
  if (const OrdinaryEntry *Prev = lookup(D.Name)) {
    if (Prev->Kind != OrdinaryEntry::Object)
      return err(fmt("'{0}' redeclared as different kind of symbol", D.Name),
                 D.Loc, "6.7p4");
    if (D.Init) {
      for (AilGlobal &G : Prog.Globals)
        if (G.Sym == Prev->Sym) {
          if (G.Init)
            return err(fmt("redefinition of '{0}'", D.Name), D.Loc, "6.9p3");
          CERB_TRY(Init, desugarInitForType(G.Ty, *D.Init));
          G.Init = std::move(Init);
          return ExpectedVoid();
        }
    }
    return ExpectedVoid();
  }

  Symbol S = Prog.Syms.create(D.Name, SymbolKind::Object);
  OrdinaryEntry E;
  E.Kind = OrdinaryEntry::Object;
  E.Sym = S;
  E.Ty = Ty;
  Ordinary.front()[D.Name] = E;

  AilGlobal G;
  G.Sym = S;
  G.Ty = Ty;
  G.Loc = D.Loc;
  if (D.Init) {
    CERB_TRY(Init, desugarInitForType(Ty, *D.Init));
    G.Init = std::move(Init);
  }
  Prog.Globals.push_back(std::move(G));
  return ExpectedVoid();
}

ExpectedVoid Desugarer::desugarFunctionDef(const cabs::CabsFunctionDef &F) {
  CERB_TRY(Ty, resolveType(F.Ty));
  assert(Ty.isFunction() && "function definition with non-function type");

  Symbol FnSym;
  if (const OrdinaryEntry *Prev = lookup(F.Name)) {
    if (Prev->Kind != OrdinaryEntry::Func)
      return err(fmt("'{0}' redeclared as a function", F.Name), F.Loc,
                 "6.7p4");
    FnSym = Prev->Sym;
    if (Prog.Builtins.count(FnSym.Id))
      return err(fmt("cannot define builtin '{0}'", F.Name), F.Loc);
    if (Prog.findFunction(FnSym))
      return err(fmt("redefinition of function '{0}'", F.Name), F.Loc,
                 "6.9.1");
  } else {
    FnSym = Prog.Syms.create(F.Name, SymbolKind::Function);
    OrdinaryEntry E;
    E.Kind = OrdinaryEntry::Func;
    E.Sym = FnSym;
    E.Ty = Ty;
    Ordinary.front()[F.Name] = E;
  }
  Prog.DeclaredFunctions[FnSym.Id] = Ty;

  AilFunction Fn;
  Fn.Sym = FnSym;
  Fn.Ty = Ty;
  Fn.Loc = F.Loc;

  pushScope();
  std::span<const CType> ParamTys = Ty.paramTypes();
  for (size_t I = 0; I < F.Ty->Params.size(); ++I) {
    const cabs::CabsParamDecl &P = F.Ty->Params[I];
    if (P.Name.empty()) {
      popScope();
      return err("parameter name omitted in function definition", P.Loc,
                 "6.9.1p5");
    }
    Symbol PS = Prog.Syms.create(P.Name, SymbolKind::Object);
    OrdinaryEntry E;
    E.Kind = OrdinaryEntry::Object;
    E.Sym = PS;
    E.Ty = ParamTys[I];
    Ordinary.back()[P.Name] = E;
    Fn.Params.push_back(AilParam{PS, ParamTys[I]});
  }

  Labels.clear();
  if (auto R = collectLabels(*F.Body); !R) {
    popScope();
    return R.error();
  }
  auto BodyOr = desugarStmt(*F.Body);
  popScope();
  if (!BodyOr)
    return BodyOr.takeError();
  Fn.Body = std::move(*BodyOr);
  Prog.Functions.push_back(std::move(Fn));

  if (F.Name == "main")
    Prog.Main = FnSym;
  return ExpectedVoid();
}

Expected<AilProgram> Desugarer::run(const cabs::CabsTranslationUnit &Unit) {
  declareBuiltins();
  for (const cabs::CabsExternal &Ext : Unit.Items) {
    if (Ext.isFunction()) {
      CERB_CHECK(desugarFunctionDef(*Ext.Function));
      continue;
    }
    for (const CabsDecl &D : Ext.Decls)
      CERB_CHECK(desugarGlobalDecl(D));
  }
  return std::move(Prog);
}

} // namespace

Expected<AilProgram>
cerb::ail::desugar(const cabs::CabsTranslationUnit &Unit) {
  Desugarer D;
  return D.run(Unit);
}
