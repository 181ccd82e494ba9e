//===-- cabs/Parser.cpp ---------------------------------------------------===//

#include "cabs/Parser.h"

#include "support/DepthGuard.h"
#include "support/Format.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

using namespace cerb;
using namespace cerb::cabs;

std::string_view cerb::cabs::binaryOpSpelling(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Mul: return "*";
  case BinaryOp::Div: return "/";
  case BinaryOp::Rem: return "%";
  case BinaryOp::Add: return "+";
  case BinaryOp::Sub: return "-";
  case BinaryOp::Shl: return "<<";
  case BinaryOp::Shr: return ">>";
  case BinaryOp::Lt: return "<";
  case BinaryOp::Gt: return ">";
  case BinaryOp::Le: return "<=";
  case BinaryOp::Ge: return ">=";
  case BinaryOp::Eq: return "==";
  case BinaryOp::Ne: return "!=";
  case BinaryOp::BitAnd: return "&";
  case BinaryOp::BitXor: return "^";
  case BinaryOp::BitOr: return "|";
  case BinaryOp::LogAnd: return "&&";
  case BinaryOp::LogOr: return "||";
  }
  return "?";
}

std::string_view cerb::cabs::unaryOpSpelling(UnaryOp Op) {
  switch (Op) {
  case UnaryOp::Plus: return "+";
  case UnaryOp::Minus: return "-";
  case UnaryOp::BitNot: return "~";
  case UnaryOp::LogNot: return "!";
  case UnaryOp::AddrOf: return "&";
  case UnaryOp::Deref: return "*";
  case UnaryOp::PreInc: return "++";
  case UnaryOp::PreDec: return "--";
  case UnaryOp::PostInc: return "++";
  case UnaryOp::PostDec: return "--";
  }
  return "?";
}

namespace {

CabsExprPtr makeExpr(CabsExprKind K, SourceLoc Loc) {
  auto E = std::make_unique<CabsExpr>();
  E->Kind = K;
  E->Loc = Loc;
  return E;
}

/// Pieces of a parsed declarator, applied inside-out to the base type
/// (6.7.6: "the declaration mirrors the use").
struct DeclaratorPart {
  enum { Ptr, Arr, Fun } Kind;
  CabsExprPtr ArraySize;             // Arr
  std::vector<CabsParamDecl> Params; // Fun
  bool Variadic = false;             // Fun
  bool Const = false;                // Ptr
};

struct Declarator {
  std::string Name;
  SourceLoc Loc;
  /// Innermost-first modifiers (applied to the base type in order).
  std::vector<DeclaratorPart> Parts;
};

class Parser {
public:
  explicit Parser(std::vector<Token> Toks) : Toks(std::move(Toks)) {
    // Room for a small unit's names and nesting: the tables then grow only
    // for large inputs, instead of several times in every parse.
    Visible.reserve(32);
    Decls.reserve(32);
    ScopeStarts.reserve(16);
    pushScope();
    for (const std::string &N : builtinTypedefNames())
      declareName(N, /*IsTypedef=*/true);
  }

  Expected<CabsTranslationUnit> parseUnit();
  Expected<CabsExprPtr> parseExprOnly();

private:
  std::vector<Token> Toks;
  size_t Pos = 0;
  /// One declaration of a name: whether it is a typedef (false = an
  /// ordinary name shadowing outer typedefs), the name's entry in Visible,
  /// and the declaration it shadows (-1 = none), which that entry gets
  /// back when the declaration's scope closes.
  struct NameDecl {
    int *Entry;
    int Shadowed;
    bool IsTypedef;
  };
  /// Each name's visible declaration, an index into Decls (-1 = none). With
  /// the Shadowed links this is a stack of declarations per name, so a
  /// lookup is one probe however deeply scopes nest.
  std::unordered_map<std::string, int> Visible;
  /// Declarations of the open scopes, outermost first; those of scope I
  /// start at ScopeStarts[I].
  std::vector<NameDecl> Decls;
  std::vector<size_t> ScopeStarts;
  /// Depth of the recursive descent: every entry point that the input can
  /// nest (statements, declarators, initializers, struct bodies and the
  /// expression levels) holds a guard(), and each loop that builds a
  /// left-deep chain (comma, binary and postfix operators) holds a
  /// chain() that deepens by a level per operator once it is built, so
  /// that its operands do not count it.
  unsigned Depth = 0;
  DepthGuard guard() { return DepthGuard(Depth, MaxSyntaxDepth); }
  DepthGuard chain() { return DepthGuard(Depth, MaxSyntaxDepth, 0); }
  StaticError tooDeep(const DepthGuard &G) const {
    return G.error("parser", cur().Loc);
  }

  //===------------------------------------------------------------------===//
  // Token helpers
  //===------------------------------------------------------------------===//
  const Token &cur() const { return Toks[Pos]; }
  const Token &ahead(size_t N) const {
    return Toks[std::min(Pos + N, Toks.size() - 1)];
  }
  bool at(Tok K) const { return cur().Kind == K; }
  bool accept(Tok K) {
    if (!at(K))
      return false;
    ++Pos;
    return true;
  }
  Token take() { return Toks[Pos++]; }
  ExpectedVoid expect(Tok K, std::string_view Clause = "") {
    if (accept(K))
      return ExpectedVoid();
    return err(fmt("expected '{0}' but found '{1}'", tokName(K),
                   cur().Kind == Tok::Ident ? std::string_view(cur().Text)
                                            : tokName(cur().Kind)),
               cur().Loc, std::string(Clause));
  }

  void pushScope() { ScopeStarts.push_back(Decls.size()); }
  void popScope() {
    for (size_t I = Decls.size(); I-- > ScopeStarts.back();)
      *Decls[I].Entry = Decls[I].Shadowed;
    Decls.resize(ScopeStarts.back());
    ScopeStarts.pop_back();
  }
  void declareName(const std::string &Name, bool IsTypedef) {
    int &Top = Visible.try_emplace(Name, -1).first->second;
    if (Top >= 0 && static_cast<size_t>(Top) >= ScopeStarts.back()) {
      Decls[Top].IsTypedef = IsTypedef; // redeclared in the same scope
      return;
    }
    Decls.push_back({&Top, Top, IsTypedef});
    Top = static_cast<int>(Decls.size() - 1);
  }
  bool isTypedefName(const std::string &Name) const {
    auto It = Visible.find(Name);
    return It != Visible.end() && It->second >= 0 &&
           Decls[It->second].IsTypedef;
  }

  /// Does the current token begin declaration-specifiers? (6.7)
  bool startsDeclaration() const;

  //===------------------------------------------------------------------===//
  // Declarations
  //===------------------------------------------------------------------===//
  Expected<std::pair<StorageClass, CabsTypePtr>> parseDeclSpecifiers();
  Expected<Declarator> parseDeclarator(bool Abstract);
  Expected<CabsTypePtr> applyDeclarator(CabsTypePtr Base, Declarator &D);
  Expected<CabsTypePtr> parseTypeName();
  Expected<CabsTypePtr> parseStructOrUnion();
  Expected<CabsTypePtr> parseEnum();
  Expected<CabsInit> parseInitializer();
  /// Parses one declaration statement (after deciding it is one); used at
  /// block scope and for for-init.
  Expected<std::vector<CabsDecl>> parseDeclarationGroup();

  //===------------------------------------------------------------------===//
  // Expressions (precedence per 6.5)
  //===------------------------------------------------------------------===//
  Expected<CabsExprPtr> parseExpr();           // comma
  Expected<CabsExprPtr> parseAssignExpr();     // 6.5.16
  Expected<CabsExprPtr> parseCondExpr();       // 6.5.15
  Expected<CabsExprPtr> parseBinaryExpr(int MinPrec);
  Expected<CabsExprPtr> parseCastExpr();       // 6.5.4
  Expected<CabsExprPtr> parseUnaryExpr();      // 6.5.3
  Expected<CabsExprPtr> parsePostfixExpr();    // 6.5.2
  Expected<CabsExprPtr> parsePrimaryExpr();    // 6.5.1
  Expected<CabsExprPtr> parseConstantExpr() { return parseCondExpr(); }

  /// Is the token sequence at '(' the start of a type-name? (cast vs paren)
  bool startsTypeName(size_t At) const;

  //===------------------------------------------------------------------===//
  // Statements
  //===------------------------------------------------------------------===//
  Expected<CabsStmtPtr> parseStmt();
  Expected<CabsStmtPtr> parseBlock();
};

//===----------------------------------------------------------------------===//
// Declaration specifiers
//===----------------------------------------------------------------------===//

static bool isTypeSpecifierTok(Tok K) {
  switch (K) {
  case Tok::KwVoid: case Tok::KwChar: case Tok::KwShort: case Tok::KwInt:
  case Tok::KwLong: case Tok::KwSigned: case Tok::KwUnsigned:
  case Tok::KwBool: case Tok::KwFloat: case Tok::KwDouble:
  case Tok::KwStruct: case Tok::KwUnion: case Tok::KwEnum:
    return true;
  default:
    return false;
  }
}

static bool isDeclSpecTok(Tok K) {
  switch (K) {
  case Tok::KwTypedef: case Tok::KwExtern: case Tok::KwStatic:
  case Tok::KwAuto: case Tok::KwRegister: case Tok::KwConst:
  case Tok::KwVolatile: case Tok::KwRestrict: case Tok::KwInline:
    return true;
  default:
    return isTypeSpecifierTok(K);
  }
}

bool Parser::startsDeclaration() const {
  if (isDeclSpecTok(cur().Kind))
    return true;
  return cur().Kind == Tok::Ident && isTypedefName(cur().Text);
}

bool Parser::startsTypeName(size_t At) const {
  Tok K = Toks[std::min(At, Toks.size() - 1)].Kind;
  if (isTypeSpecifierTok(K) || K == Tok::KwConst || K == Tok::KwVolatile)
    return true;
  const Token &T = Toks[std::min(At, Toks.size() - 1)];
  return K == Tok::Ident && isTypedefName(T.Text);
}

Expected<std::pair<StorageClass, CabsTypePtr>> Parser::parseDeclSpecifiers() {
  SourceLoc L = cur().Loc;
  StorageClass SC = StorageClass::None;
  bool Const = false;
  // Multiset of arithmetic type-specifier keywords (6.7.2p2).
  int NumLong = 0;
  bool SawVoid = false, SawChar = false, SawShort = false, SawInt = false,
       SawSigned = false, SawUnsigned = false, SawBool = false,
       SawFloat = false, SawDouble = false;
  CabsTypePtr Tagged;    // struct/union/enum specifier
  CabsTypePtr Typedefed; // typedef-name specifier
  bool Any = false;

  for (;;) {
    Tok K = cur().Kind;
    if (K == Tok::KwTypedef || K == Tok::KwExtern || K == Tok::KwStatic ||
        K == Tok::KwAuto || K == Tok::KwRegister) {
      if (SC != StorageClass::None)
        return err("multiple storage-class specifiers", cur().Loc, "6.7.1p2");
      SC = K == Tok::KwTypedef   ? StorageClass::Typedef
           : K == Tok::KwExtern  ? StorageClass::Extern
           : K == Tok::KwStatic  ? StorageClass::Static
           : K == Tok::KwAuto    ? StorageClass::Auto
                                 : StorageClass::Register;
      take();
      Any = true;
      continue;
    }
    if (K == Tok::KwConst) {
      Const = true;
      take();
      Any = true;
      continue;
    }
    if (K == Tok::KwVolatile)
      return err("'volatile' is outside the supported fragment", cur().Loc);
    if (K == Tok::KwRestrict)
      return err("'restrict' is outside the supported fragment", cur().Loc);
    if (K == Tok::KwInline) { // accepted and ignored (6.7.4: a hint)
      take();
      Any = true;
      continue;
    }
    if (K == Tok::KwStruct || K == Tok::KwUnion) {
      if (Tagged || Typedefed)
        return err("two or more data types in declaration", cur().Loc,
                   "6.7.2p2");
      CERB_TRY(T, parseStructOrUnion());
      Tagged = T;
      Any = true;
      continue;
    }
    if (K == Tok::KwEnum) {
      if (Tagged || Typedefed)
        return err("two or more data types in declaration", cur().Loc,
                   "6.7.2p2");
      CERB_TRY(T, parseEnum());
      Tagged = T;
      Any = true;
      continue;
    }
    if (isTypeSpecifierTok(K)) {
      switch (K) {
      case Tok::KwVoid: SawVoid = true; break;
      case Tok::KwChar: SawChar = true; break;
      case Tok::KwShort: SawShort = true; break;
      case Tok::KwInt: SawInt = true; break;
      case Tok::KwLong: ++NumLong; break;
      case Tok::KwSigned: SawSigned = true; break;
      case Tok::KwUnsigned: SawUnsigned = true; break;
      case Tok::KwBool: SawBool = true; break;
      case Tok::KwFloat: SawFloat = true; break;
      case Tok::KwDouble: SawDouble = true; break;
      default: break;
      }
      take();
      Any = true;
      continue;
    }
    if (K == Tok::Ident && isTypedefName(cur().Text) && !Tagged &&
        !Typedefed && !SawVoid && !SawChar && !SawShort && !SawInt &&
        !SawSigned && !SawUnsigned && !SawBool && NumLong == 0 && !SawFloat &&
        !SawDouble) {
      Typedefed = std::make_shared<CabsType>();
      Typedefed->Kind = CabsTypeKind::TypedefName;
      Typedefed->Name = cur().Text;
      Typedefed->Loc = cur().Loc;
      take();
      Any = true;
      continue;
    }
    break;
  }

  if (!Any)
    return err("expected declaration specifiers", L, "6.7");

  CabsTypePtr Ty;
  if (Tagged) {
    Ty = Tagged;
  } else if (Typedefed) {
    Ty = Typedefed;
  } else {
    // Resolve the multiset to a BaseSpec (6.7.2p2).
    BaseSpec B;
    if (SawVoid)
      B = BaseSpec::Void;
    else if (SawBool)
      B = BaseSpec::Bool;
    else if (SawFloat)
      B = BaseSpec::Float;
    else if (SawDouble)
      B = BaseSpec::Double;
    else if (SawChar)
      B = SawUnsigned ? BaseSpec::UChar
          : SawSigned ? BaseSpec::SChar
                      : BaseSpec::Char;
    else if (SawShort)
      B = SawUnsigned ? BaseSpec::UShort : BaseSpec::Short;
    else if (NumLong >= 2)
      B = SawUnsigned ? BaseSpec::ULongLong : BaseSpec::LongLong;
    else if (NumLong == 1)
      B = SawUnsigned ? BaseSpec::ULong : BaseSpec::Long;
    else if (SawInt || SawSigned || SawUnsigned)
      B = SawUnsigned ? BaseSpec::UInt : BaseSpec::Int;
    else
      return err("declaration with no type specifier", L, "6.7.2p2");
    Ty = std::make_shared<CabsType>();
    Ty->Kind = CabsTypeKind::Base;
    Ty->Base = B;
    Ty->Loc = L;
  }
  Ty->Const = Ty->Const || Const;
  return std::make_pair(SC, Ty);
}

Expected<CabsTypePtr> Parser::parseStructOrUnion() {
  DepthGuard G = guard();
  if (!G)
    return tooDeep(G);
  SourceLoc L = cur().Loc;
  bool IsUnion = cur().Kind == Tok::KwUnion;
  take();
  auto Ty = std::make_shared<CabsType>();
  Ty->Kind = CabsTypeKind::StructUnion;
  Ty->IsUnion = IsUnion;
  Ty->Loc = L;
  if (at(Tok::Ident)) {
    Ty->Name = take().Text;
  }
  if (!accept(Tok::LBrace)) {
    if (Ty->Name.empty())
      return err("struct/union with neither tag nor body", L, "6.7.2.1p2");
    return Ty;
  }
  Ty->HasBody = true;
  while (!accept(Tok::RBrace)) {
    CERB_TRY(Spec, parseDeclSpecifiers());
    if (Spec.first != StorageClass::None)
      return err("storage class in struct member declaration", L, "6.7.2.1");
    for (;;) {
      CERB_TRY(D, parseDeclarator(/*Abstract=*/false));
      if (accept(Tok::Colon))
        return err("bitfields are outside the supported fragment", D.Loc);
      CERB_TRY(MTy, applyDeclarator(Spec.second, D));
      CabsFieldDecl F;
      F.Ty = MTy;
      F.Name = D.Name;
      F.Loc = D.Loc;
      Ty->Fields.push_back(std::move(F));
      if (!accept(Tok::Comma))
        break;
    }
    CERB_CHECK(expect(Tok::Semi, "6.7.2.1"));
  }
  return Ty;
}

Expected<CabsTypePtr> Parser::parseEnum() {
  SourceLoc L = cur().Loc;
  take(); // enum
  auto Ty = std::make_shared<CabsType>();
  Ty->Kind = CabsTypeKind::Enum;
  Ty->Loc = L;
  if (at(Tok::Ident))
    Ty->Name = take().Text;
  if (!accept(Tok::LBrace)) {
    if (Ty->Name.empty())
      return err("enum with neither tag nor body", L, "6.7.2.2");
    return Ty;
  }
  Ty->HasBody = true;
  for (;;) {
    if (accept(Tok::RBrace))
      break;
    if (!at(Tok::Ident))
      return err("expected enumerator name", cur().Loc, "6.7.2.2");
    CabsEnumerator En;
    En.Loc = cur().Loc;
    En.Name = take().Text;
    if (accept(Tok::Eq)) {
      CERB_TRY(V, parseConstantExpr());
      En.Value = std::move(V);
    }
    Ty->Enumerators.push_back(std::move(En));
    if (!accept(Tok::Comma)) {
      CERB_CHECK(expect(Tok::RBrace, "6.7.2.2"));
      break;
    }
  }
  return Ty;
}

//===----------------------------------------------------------------------===//
// Declarators
//===----------------------------------------------------------------------===//

Expected<Declarator> Parser::parseDeclarator(bool Abstract) {
  DepthGuard G = guard();
  if (!G)
    return tooDeep(G);
  Declarator D;
  D.Loc = cur().Loc;

  // Pointer prefix: collected innermost-last; a pointer declared further
  // left binds less tightly, so record and append after the direct part.
  std::vector<DeclaratorPart> Pointers;
  while (accept(Tok::Star)) {
    DeclaratorPart P;
    P.Kind = DeclaratorPart::Ptr;
    while (at(Tok::KwConst) || at(Tok::KwVolatile) || at(Tok::KwRestrict)) {
      if (cur().Kind == Tok::KwConst)
        P.Const = true;
      take();
    }
    Pointers.push_back(std::move(P));
  }

  // Direct declarator: name, parenthesised declarator, or (abstract) empty.
  std::optional<Declarator> Nested;
  if (at(Tok::Ident)) {
    D.Loc = cur().Loc;
    D.Name = take().Text;
  } else if (at(Tok::LParen) && !startsTypeName(Pos + 1) &&
             ahead(1).Kind != Tok::RParen) {
    take(); // '('
    CERB_TRY(N, parseDeclarator(Abstract));
    Nested = std::move(N);
    CERB_CHECK(expect(Tok::RParen, "6.7.6"));
  } else if (!Abstract) {
    return err("expected declarator name", cur().Loc, "6.7.6");
  }

  // Postfix suffixes, in parse (left-to-right) order.
  std::vector<DeclaratorPart> Suffixes;
  for (;;) {
    if (accept(Tok::LBracket)) {
      DeclaratorPart P;
      P.Kind = DeclaratorPart::Arr;
      if (!at(Tok::RBracket)) {
        CERB_TRY(Sz, parseAssignExpr());
        P.ArraySize = std::move(Sz);
      }
      CERB_CHECK(expect(Tok::RBracket, "6.7.6.2"));
      Suffixes.push_back(std::move(P));
      continue;
    }
    if (at(Tok::LParen)) {
      take();
      DeclaratorPart P;
      P.Kind = DeclaratorPart::Fun;
      if (accept(Tok::RParen)) {
        // K&R-style empty parens: treated as (void) prototype in the
        // fragment (unprototyped functions are not supported).
        Suffixes.push_back(std::move(P));
        continue;
      }
      if (at(Tok::KwVoid) && ahead(1).Kind == Tok::RParen) {
        take();
        take();
        Suffixes.push_back(std::move(P));
        continue;
      }
      for (;;) {
        if (accept(Tok::Ellipsis)) {
          P.Variadic = true;
          break;
        }
        CERB_TRY(Spec, parseDeclSpecifiers());
        if (Spec.first != StorageClass::None &&
            Spec.first != StorageClass::Register)
          return err("bad storage class on parameter", cur().Loc, "6.7.6.3p2");
        CERB_TRY(PD, parseDeclarator(/*Abstract=*/true));
        CERB_TRY(PTy, applyDeclarator(Spec.second, PD));
        CabsParamDecl Param;
        Param.Ty = PTy;
        Param.Name = PD.Name;
        Param.Loc = PD.Loc;
        P.Params.push_back(std::move(Param));
        if (!accept(Tok::Comma))
          break;
      }
      CERB_CHECK(expect(Tok::RParen, "6.7.6.3"));
      Suffixes.push_back(std::move(P));
      continue;
    }
    break;
  }

  // Application order onto the base type (6.7.6 "declaration mirrors use"):
  // the constructor *farthest* from the identifier wraps the base first.
  // That is: pointers in left-to-right order, then suffixes right-to-left,
  // then the parenthesised inner declarator's parts (closest of all) last.
  //   int *p[3]      -> Arr3(Ptr(int))      : apply Ptr, then Arr3
  //   int a[2][3]    -> Arr2(Arr3(int))     : apply Arr3, then Arr2
  //   int (*fp[4])() -> Arr4(Ptr(Fun(int))) : apply Fun, then Ptr, Arr4
  D.Parts = std::move(Pointers);
  for (auto It = Suffixes.rbegin(); It != Suffixes.rend(); ++It)
    D.Parts.push_back(std::move(*It));
  if (Nested) {
    D.Name = Nested->Name;
    if (Nested->Loc.isValid())
      D.Loc = Nested->Loc;
    for (auto &P : Nested->Parts)
      D.Parts.push_back(std::move(P));
  }
  // Each part is one more level of the declared type, which the later
  // passes walk recursively.
  if (D.Parts.size() > MaxSyntaxDepth)
    return tooDeep(G);
  return D;
}

Expected<CabsTypePtr> Parser::applyDeclarator(CabsTypePtr Base,
                                              Declarator &D) {
  CabsTypePtr Ty = Base;
  // Parts are innermost-first; wrap outward.
  for (DeclaratorPart &P : D.Parts) {
    auto Next = std::make_shared<CabsType>();
    Next->Loc = D.Loc;
    switch (P.Kind) {
    case DeclaratorPart::Ptr:
      Next->Kind = CabsTypeKind::Pointer;
      Next->Inner = Ty;
      Next->Const = P.Const;
      break;
    case DeclaratorPart::Arr:
      Next->Kind = CabsTypeKind::Array;
      Next->Inner = Ty;
      Next->ArraySize = std::move(P.ArraySize);
      break;
    case DeclaratorPart::Fun:
      Next->Kind = CabsTypeKind::Function;
      Next->Inner = Ty;
      Next->Params = std::move(P.Params);
      Next->Variadic = P.Variadic;
      break;
    }
    Ty = Next;
  }
  return Ty;
}

Expected<CabsTypePtr> Parser::parseTypeName() {
  CERB_TRY(Spec, parseDeclSpecifiers());
  if (Spec.first != StorageClass::None)
    return err("storage class in type name", cur().Loc, "6.7.7");
  CERB_TRY(D, parseDeclarator(/*Abstract=*/true));
  if (!D.Name.empty())
    return err("type name must not declare an identifier", D.Loc, "6.7.7");
  return applyDeclarator(Spec.second, D);
}

Expected<CabsInit> Parser::parseInitializer() {
  DepthGuard G = guard();
  if (!G)
    return tooDeep(G);
  CabsInit Init;
  Init.Loc = cur().Loc;
  if (accept(Tok::LBrace)) {
    for (;;) {
      if (accept(Tok::RBrace))
        return Init;
      if (at(Tok::Dot) || at(Tok::LBracket))
        return err("designated initialisers are outside the fragment",
                   cur().Loc);
      CERB_TRY(Sub, parseInitializer());
      Init.List.push_back(std::move(Sub));
      if (!accept(Tok::Comma)) {
        CERB_CHECK(expect(Tok::RBrace, "6.7.9"));
        return Init;
      }
    }
  }
  CERB_TRY(E, parseAssignExpr());
  Init.E = std::move(E);
  return Init;
}

Expected<std::vector<CabsDecl>> Parser::parseDeclarationGroup() {
  CERB_TRY(Spec, parseDeclSpecifiers());
  std::vector<CabsDecl> Out;
  // A bare "struct s { ... };" has no declarators: emit a nameless decl so
  // the tag definition is still processed.
  if (at(Tok::Semi)) {
    take();
    CabsDecl Decl;
    Decl.SC = Spec.first;
    Decl.Ty = Spec.second;
    Decl.Loc = Spec.second->Loc;
    Out.push_back(std::move(Decl));
    return Out;
  }
  for (;;) {
    CERB_TRY(D, parseDeclarator(/*Abstract=*/false));
    CERB_TRY(Ty, applyDeclarator(Spec.second, D));
    CabsDecl Decl;
    Decl.SC = Spec.first;
    Decl.Ty = Ty;
    Decl.Name = D.Name;
    Decl.Loc = D.Loc;
    declareName(D.Name, Spec.first == StorageClass::Typedef);
    if (accept(Tok::Eq)) {
      CERB_TRY(Init, parseInitializer());
      Decl.Init = std::move(Init);
    }
    Out.push_back(std::move(Decl));
    if (!accept(Tok::Comma))
      break;
  }
  CERB_CHECK(expect(Tok::Semi, "6.7"));
  return Out;
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

/// Binary operator precedence (higher binds tighter), 6.5.5–6.5.14.
static int precedenceOf(Tok K) {
  switch (K) {
  case Tok::Star: case Tok::Slash: case Tok::Percent: return 10;
  case Tok::Plus: case Tok::Minus: return 9;
  case Tok::LessLess: case Tok::GreaterGreater: return 8;
  case Tok::Less: case Tok::Greater: case Tok::LessEq: case Tok::GreaterEq:
    return 7;
  case Tok::EqEq: case Tok::ExclaimEq: return 6;
  case Tok::Amp: return 5;
  case Tok::Caret: return 4;
  case Tok::Pipe: return 3;
  case Tok::AmpAmp: return 2;
  case Tok::PipePipe: return 1;
  default: return 0;
  }
}

static BinaryOp binOpOf(Tok K) {
  switch (K) {
  case Tok::Star: return BinaryOp::Mul;
  case Tok::Slash: return BinaryOp::Div;
  case Tok::Percent: return BinaryOp::Rem;
  case Tok::Plus: return BinaryOp::Add;
  case Tok::Minus: return BinaryOp::Sub;
  case Tok::LessLess: return BinaryOp::Shl;
  case Tok::GreaterGreater: return BinaryOp::Shr;
  case Tok::Less: return BinaryOp::Lt;
  case Tok::Greater: return BinaryOp::Gt;
  case Tok::LessEq: return BinaryOp::Le;
  case Tok::GreaterEq: return BinaryOp::Ge;
  case Tok::EqEq: return BinaryOp::Eq;
  case Tok::ExclaimEq: return BinaryOp::Ne;
  case Tok::Amp: return BinaryOp::BitAnd;
  case Tok::Caret: return BinaryOp::BitXor;
  case Tok::Pipe: return BinaryOp::BitOr;
  case Tok::AmpAmp: return BinaryOp::LogAnd;
  case Tok::PipePipe: return BinaryOp::LogOr;
  default: assert(false && "not a binary operator token"); return BinaryOp::Add;
  }
}

/// Maps a compound-assignment token to its arithmetic operator.
static std::optional<BinaryOp> compoundOpOf(Tok K) {
  switch (K) {
  case Tok::StarEq: return BinaryOp::Mul;
  case Tok::SlashEq: return BinaryOp::Div;
  case Tok::PercentEq: return BinaryOp::Rem;
  case Tok::PlusEq: return BinaryOp::Add;
  case Tok::MinusEq: return BinaryOp::Sub;
  case Tok::LessLessEq: return BinaryOp::Shl;
  case Tok::GreaterGreaterEq: return BinaryOp::Shr;
  case Tok::AmpEq: return BinaryOp::BitAnd;
  case Tok::CaretEq: return BinaryOp::BitXor;
  case Tok::PipeEq: return BinaryOp::BitOr;
  default: return std::nullopt;
  }
}

Expected<CabsExprPtr> Parser::parseExpr() {
  CERB_TRY(Lhs, parseAssignExpr());
  CabsExprPtr Cur = std::move(Lhs);
  DepthGuard Chain = chain();
  while (at(Tok::Comma)) {
    SourceLoc L = take().Loc;
    CERB_TRY(Rhs, parseAssignExpr());
    auto E = makeExpr(CabsExprKind::Comma, L);
    E->Kids.push_back(std::move(Cur));
    E->Kids.push_back(std::move(Rhs));
    Cur = std::move(E);
    if (!Chain.deeper())
      return tooDeep(Chain);
  }
  return Cur;
}

Expected<CabsExprPtr> Parser::parseAssignExpr() {
  DepthGuard G = guard();
  if (!G)
    return tooDeep(G);
  // Parse a conditional-expression, then check for an assignment operator;
  // the type checker rejects non-lvalue left operands (6.5.16p2).
  CERB_TRY(Lhs, parseCondExpr());
  Tok K = cur().Kind;
  if (K == Tok::Eq || compoundOpOf(K)) {
    SourceLoc L = take().Loc;
    CERB_TRY(Rhs, parseAssignExpr());
    auto E = makeExpr(CabsExprKind::Assign, L);
    E->AssignOp = compoundOpOf(K);
    E->Kids.push_back(std::move(Lhs));
    E->Kids.push_back(std::move(Rhs));
    return E;
  }
  return std::move(Lhs);
}

Expected<CabsExprPtr> Parser::parseCondExpr() {
  DepthGuard G = guard();
  if (!G)
    return tooDeep(G);
  CERB_TRY(Cond, parseBinaryExpr(1));
  if (!at(Tok::Question))
    return std::move(Cond);
  SourceLoc L = take().Loc;
  CERB_TRY(Then, parseExpr());
  CERB_CHECK(expect(Tok::Colon, "6.5.15"));
  CERB_TRY(Else, parseCondExpr());
  auto E = makeExpr(CabsExprKind::Cond, L);
  E->Kids.push_back(std::move(Cond));
  E->Kids.push_back(std::move(Then));
  E->Kids.push_back(std::move(Else));
  return E;
}

Expected<CabsExprPtr> Parser::parseBinaryExpr(int MinPrec) {
  CERB_TRY(Lhs, parseCastExpr());
  CabsExprPtr Cur = std::move(Lhs);
  DepthGuard Chain = chain();
  for (;;) {
    int Prec = precedenceOf(cur().Kind);
    if (Prec < MinPrec || Prec == 0)
      return Cur;
    Tok OpTok = cur().Kind;
    SourceLoc L = take().Loc;
    CERB_TRY(Rhs, parseBinaryExpr(Prec + 1));
    auto E = makeExpr(CabsExprKind::Binary, L);
    E->BOp = binOpOf(OpTok);
    E->Kids.push_back(std::move(Cur));
    E->Kids.push_back(std::move(Rhs));
    Cur = std::move(E);
    if (!Chain.deeper())
      return tooDeep(Chain);
  }
}

Expected<CabsExprPtr> Parser::parseCastExpr() {
  DepthGuard G = guard();
  if (!G)
    return tooDeep(G);
  if (at(Tok::LParen) && startsTypeName(Pos + 1)) {
    SourceLoc L = take().Loc;
    CERB_TRY(Ty, parseTypeName());
    CERB_CHECK(expect(Tok::RParen, "6.5.4"));
    if (at(Tok::LBrace))
      return err("compound literals are outside the fragment", L);
    CERB_TRY(Inner, parseCastExpr());
    auto E = makeExpr(CabsExprKind::Cast, L);
    E->TypeName = Ty;
    E->Kids.push_back(std::move(Inner));
    return E;
  }
  return parseUnaryExpr();
}

Expected<CabsExprPtr> Parser::parseUnaryExpr() {
  DepthGuard G = guard();
  if (!G)
    return tooDeep(G);
  SourceLoc L = cur().Loc;
  auto MakeUnary = [&](UnaryOp Op,
                       Expected<CabsExprPtr> Sub) -> Expected<CabsExprPtr> {
    if (!Sub)
      return Sub.takeError();
    auto E = makeExpr(CabsExprKind::Unary, L);
    E->UOp = Op;
    E->Kids.push_back(std::move(*Sub));
    return E;
  };
  switch (cur().Kind) {
  case Tok::PlusPlus:
    take();
    return MakeUnary(UnaryOp::PreInc, parseUnaryExpr());
  case Tok::MinusMinus:
    take();
    return MakeUnary(UnaryOp::PreDec, parseUnaryExpr());
  case Tok::Amp:
    take();
    return MakeUnary(UnaryOp::AddrOf, parseCastExpr());
  case Tok::Star:
    take();
    return MakeUnary(UnaryOp::Deref, parseCastExpr());
  case Tok::Plus:
    take();
    return MakeUnary(UnaryOp::Plus, parseCastExpr());
  case Tok::Minus:
    take();
    return MakeUnary(UnaryOp::Minus, parseCastExpr());
  case Tok::Tilde:
    take();
    return MakeUnary(UnaryOp::BitNot, parseCastExpr());
  case Tok::Exclaim:
    take();
    return MakeUnary(UnaryOp::LogNot, parseCastExpr());
  case Tok::KwSizeof: {
    take();
    if (at(Tok::LParen) && startsTypeName(Pos + 1)) {
      take();
      CERB_TRY(Ty, parseTypeName());
      CERB_CHECK(expect(Tok::RParen, "6.5.3.4"));
      auto E = makeExpr(CabsExprKind::SizeofType, L);
      E->TypeName = Ty;
      return E;
    }
    CERB_TRY(Sub, parseUnaryExpr());
    auto E = makeExpr(CabsExprKind::SizeofExpr, L);
    E->Kids.push_back(std::move(Sub));
    return E;
  }
  case Tok::KwAlignof: {
    take();
    CERB_CHECK(expect(Tok::LParen, "6.5.3.4"));
    CERB_TRY(Ty, parseTypeName());
    CERB_CHECK(expect(Tok::RParen, "6.5.3.4"));
    auto E = makeExpr(CabsExprKind::AlignofType, L);
    E->TypeName = Ty;
    return E;
  }
  default:
    return parsePostfixExpr();
  }
}

Expected<CabsExprPtr> Parser::parsePostfixExpr() {
  CERB_TRY(Base, parsePrimaryExpr());
  CabsExprPtr Cur = std::move(Base);
  DepthGuard Chain = chain();
  for (bool First = true;; First = false) {
    // The operator built in the round before nests the chain deeper.
    if (!First && !Chain.deeper())
      return tooDeep(Chain);
    SourceLoc L = cur().Loc;
    if (accept(Tok::LBracket)) {
      CERB_TRY(Idx, parseExpr());
      CERB_CHECK(expect(Tok::RBracket, "6.5.2.1"));
      auto E = makeExpr(CabsExprKind::Index, L);
      E->Kids.push_back(std::move(Cur));
      E->Kids.push_back(std::move(Idx));
      Cur = std::move(E);
      continue;
    }
    if (accept(Tok::LParen)) {
      auto E = makeExpr(CabsExprKind::Call, L);
      E->Kids.push_back(std::move(Cur));
      if (!accept(Tok::RParen)) {
        for (;;) {
          CERB_TRY(Arg, parseAssignExpr());
          E->Kids.push_back(std::move(Arg));
          if (!accept(Tok::Comma))
            break;
        }
        CERB_CHECK(expect(Tok::RParen, "6.5.2.2"));
      }
      Cur = std::move(E);
      continue;
    }
    if (accept(Tok::Dot) || at(Tok::Arrow)) {
      bool IsArrow = false;
      if (at(Tok::Arrow)) {
        take();
        IsArrow = true;
      }
      if (!at(Tok::Ident))
        return err("expected member name", cur().Loc, "6.5.2.3");
      auto E = makeExpr(IsArrow ? CabsExprKind::MemberPtr
                                : CabsExprKind::Member,
                        L);
      E->Text = take().Text;
      E->Kids.push_back(std::move(Cur));
      Cur = std::move(E);
      continue;
    }
    if (at(Tok::PlusPlus) || at(Tok::MinusMinus)) {
      bool Inc = cur().Kind == Tok::PlusPlus;
      take();
      auto E = makeExpr(CabsExprKind::Unary, L);
      E->UOp = Inc ? UnaryOp::PostInc : UnaryOp::PostDec;
      E->Kids.push_back(std::move(Cur));
      Cur = std::move(E);
      continue;
    }
    return Cur;
  }
}

Expected<CabsExprPtr> Parser::parsePrimaryExpr() {
  SourceLoc L = cur().Loc;
  switch (cur().Kind) {
  case Tok::Ident: {
    auto E = makeExpr(CabsExprKind::Ident, L);
    E->Text = take().Text;
    return E;
  }
  case Tok::IntConst: {
    auto E = makeExpr(CabsExprKind::IntConst, L);
    E->Text = take().Text;
    return E;
  }
  case Tok::CharConst: {
    auto E = makeExpr(CabsExprKind::CharConst, L);
    E->IntValue = take().IntValue;
    return E;
  }
  case Tok::StringLit: {
    auto E = makeExpr(CabsExprKind::StringLit, L);
    E->Text = take().Text;
    return E;
  }
  case Tok::LParen: {
    take();
    CERB_TRY(E, parseExpr());
    CERB_CHECK(expect(Tok::RParen, "6.5.1"));
    return std::move(E);
  }
  default:
    return err(fmt("expected expression but found '{0}'",
                   tokName(cur().Kind)),
               L, "6.5.1");
  }
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

Expected<CabsStmtPtr> Parser::parseBlock() {
  SourceLoc L = cur().Loc;
  CERB_CHECK(expect(Tok::LBrace, "6.8.2"));
  pushScope();
  auto Block = std::make_unique<CabsStmt>();
  Block->Kind = CabsStmtKind::Block;
  Block->Loc = L;
  while (!accept(Tok::RBrace)) {
    if (at(Tok::EndOfFile)) {
      popScope();
      return err("unterminated block", L, "6.8.2");
    }
    auto Sub = parseStmt();
    if (!Sub) {
      popScope();
      return Sub.takeError();
    }
    Block->Body.push_back(std::move(*Sub));
  }
  popScope();
  return Block;
}

Expected<CabsStmtPtr> Parser::parseStmt() {
  DepthGuard G = guard();
  if (!G)
    return tooDeep(G);
  SourceLoc L = cur().Loc;
  auto Make = [&](CabsStmtKind K) {
    auto S = std::make_unique<CabsStmt>();
    S->Kind = K;
    S->Loc = L;
    return S;
  };
  switch (cur().Kind) {
  case Tok::LBrace:
    return parseBlock();
  case Tok::Semi:
    take();
    return Make(CabsStmtKind::Expr); // empty statement: E == nullptr
  case Tok::KwIf: {
    take();
    CERB_CHECK(expect(Tok::LParen, "6.8.4.1"));
    CERB_TRY(Cond, parseExpr());
    CERB_CHECK(expect(Tok::RParen, "6.8.4.1"));
    CERB_TRY(Then, parseStmt());
    auto S = Make(CabsStmtKind::If);
    S->E = std::move(Cond);
    S->Body.push_back(std::move(Then));
    if (accept(Tok::KwElse)) {
      CERB_TRY(Else, parseStmt());
      S->Body.push_back(std::move(Else));
    }
    return S;
  }
  case Tok::KwWhile: {
    take();
    CERB_CHECK(expect(Tok::LParen, "6.8.5.1"));
    CERB_TRY(Cond, parseExpr());
    CERB_CHECK(expect(Tok::RParen, "6.8.5.1"));
    CERB_TRY(Body, parseStmt());
    auto S = Make(CabsStmtKind::While);
    S->E = std::move(Cond);
    S->Body.push_back(std::move(Body));
    return S;
  }
  case Tok::KwDo: {
    take();
    CERB_TRY(Body, parseStmt());
    CERB_CHECK(expect(Tok::KwWhile, "6.8.5.2"));
    CERB_CHECK(expect(Tok::LParen, "6.8.5.2"));
    CERB_TRY(Cond, parseExpr());
    CERB_CHECK(expect(Tok::RParen, "6.8.5.2"));
    CERB_CHECK(expect(Tok::Semi, "6.8.5.2"));
    auto S = Make(CabsStmtKind::DoWhile);
    S->E = std::move(Cond);
    S->Body.push_back(std::move(Body));
    return S;
  }
  case Tok::KwFor: {
    take();
    CERB_CHECK(expect(Tok::LParen, "6.8.5.3"));
    pushScope(); // for-init declarations scope over the whole loop
    auto S = Make(CabsStmtKind::For);
    auto Fail = [&](StaticError E) -> Expected<CabsStmtPtr> {
      popScope();
      return E;
    };
    if (startsDeclaration()) {
      auto Decls = parseDeclarationGroup();
      if (!Decls)
        return Fail(Decls.takeError());
      S->Decls = std::move(*Decls);
    } else if (!at(Tok::Semi)) {
      auto Init = parseExpr();
      if (!Init)
        return Fail(Init.takeError());
      S->E = std::move(*Init);
      if (auto R = expect(Tok::Semi, "6.8.5.3"); !R)
        return Fail(R.error());
    } else {
      take();
    }
    if (!at(Tok::Semi)) {
      auto Cond = parseExpr();
      if (!Cond)
        return Fail(Cond.takeError());
      S->E2 = std::move(*Cond);
    }
    if (auto R = expect(Tok::Semi, "6.8.5.3"); !R)
      return Fail(R.error());
    if (!at(Tok::RParen)) {
      auto Step = parseExpr();
      if (!Step)
        return Fail(Step.takeError());
      S->E3 = std::move(*Step);
    }
    if (auto R = expect(Tok::RParen, "6.8.5.3"); !R)
      return Fail(R.error());
    auto Body = parseStmt();
    if (!Body)
      return Fail(Body.takeError());
    S->Body.push_back(std::move(*Body));
    popScope();
    return S;
  }
  case Tok::KwSwitch: {
    take();
    CERB_CHECK(expect(Tok::LParen, "6.8.4.2"));
    CERB_TRY(Cond, parseExpr());
    CERB_CHECK(expect(Tok::RParen, "6.8.4.2"));
    CERB_TRY(Body, parseStmt());
    auto S = Make(CabsStmtKind::Switch);
    S->E = std::move(Cond);
    S->Body.push_back(std::move(Body));
    return S;
  }
  case Tok::KwCase: {
    take();
    CERB_TRY(V, parseConstantExpr());
    CERB_CHECK(expect(Tok::Colon, "6.8.1"));
    CERB_TRY(Sub, parseStmt());
    auto S = Make(CabsStmtKind::Case);
    S->E = std::move(V);
    S->Body.push_back(std::move(Sub));
    return S;
  }
  case Tok::KwDefault: {
    take();
    CERB_CHECK(expect(Tok::Colon, "6.8.1"));
    CERB_TRY(Sub, parseStmt());
    auto S = Make(CabsStmtKind::Default);
    S->Body.push_back(std::move(Sub));
    return S;
  }
  case Tok::KwGoto: {
    take();
    if (!at(Tok::Ident))
      return err("expected label name after goto", cur().Loc, "6.8.6.1");
    auto S = Make(CabsStmtKind::Goto);
    S->Text = take().Text;
    CERB_CHECK(expect(Tok::Semi, "6.8.6.1"));
    return S;
  }
  case Tok::KwBreak:
    take();
    CERB_CHECK(expect(Tok::Semi, "6.8.6.3"));
    return Make(CabsStmtKind::Break);
  case Tok::KwContinue:
    take();
    CERB_CHECK(expect(Tok::Semi, "6.8.6.2"));
    return Make(CabsStmtKind::Continue);
  case Tok::KwReturn: {
    take();
    auto S = Make(CabsStmtKind::Return);
    if (!at(Tok::Semi)) {
      CERB_TRY(E, parseExpr());
      S->E = std::move(E);
    }
    CERB_CHECK(expect(Tok::Semi, "6.8.6.4"));
    return S;
  }
  default:
    break;
  }

  // Label: "ident :" (but not a typedef'd declaration).
  if (at(Tok::Ident) && ahead(1).Kind == Tok::Colon &&
      !isTypedefName(cur().Text)) {
    auto S = Make(CabsStmtKind::Label);
    S->Text = take().Text;
    take(); // ':'
    CERB_TRY(Sub, parseStmt());
    S->Body.push_back(std::move(Sub));
    return S;
  }

  if (startsDeclaration()) {
    CERB_TRY(Decls, parseDeclarationGroup());
    auto S = Make(CabsStmtKind::Decl);
    S->Decls = std::move(Decls);
    return S;
  }

  CERB_TRY(E, parseExpr());
  CERB_CHECK(expect(Tok::Semi, "6.8.3"));
  auto S = Make(CabsStmtKind::Expr);
  S->E = std::move(E);
  return S;
}

//===----------------------------------------------------------------------===//
// Translation unit
//===----------------------------------------------------------------------===//

Expected<CabsTranslationUnit> Parser::parseUnit() {
  CabsTranslationUnit Unit;
  while (!at(Tok::EndOfFile)) {
    CERB_TRY(Spec, parseDeclSpecifiers());
    // Bare tag declaration: "struct s {...};"
    if (accept(Tok::Semi)) {
      CabsExternal Ext;
      CabsDecl Decl;
      Decl.SC = Spec.first;
      Decl.Ty = Spec.second;
      Decl.Loc = Spec.second->Loc;
      Ext.Decls.push_back(std::move(Decl));
      Unit.Items.push_back(std::move(Ext));
      continue;
    }
    CERB_TRY(D, parseDeclarator(/*Abstract=*/false));
    CERB_TRY(Ty, applyDeclarator(Spec.second, D));

    // Function definition: declarator of function type followed by '{'.
    if (Ty->Kind == CabsTypeKind::Function && at(Tok::LBrace)) {
      declareName(D.Name, /*IsTypedef=*/false);
      pushScope();
      for (const CabsParamDecl &P : Ty->Params)
        if (!P.Name.empty())
          declareName(P.Name, /*IsTypedef=*/false);
      auto Body = parseBlock();
      popScope();
      if (!Body)
        return Body.takeError();
      CabsExternal Ext;
      CabsFunctionDef F;
      F.SC = Spec.first;
      F.Ty = Ty;
      F.Name = D.Name;
      F.Body = std::move(*Body);
      F.Loc = D.Loc;
      Ext.Function = std::move(F);
      Unit.Items.push_back(std::move(Ext));
      continue;
    }

    // Otherwise: a declaration group (we already consumed one declarator).
    CabsExternal Ext;
    declareName(D.Name, Spec.first == StorageClass::Typedef);
    CabsDecl First;
    First.SC = Spec.first;
    First.Ty = Ty;
    First.Name = D.Name;
    First.Loc = D.Loc;
    if (accept(Tok::Eq)) {
      CERB_TRY(Init, parseInitializer());
      First.Init = std::move(Init);
    }
    Ext.Decls.push_back(std::move(First));
    while (accept(Tok::Comma)) {
      CERB_TRY(D2, parseDeclarator(/*Abstract=*/false));
      CERB_TRY(Ty2, applyDeclarator(Spec.second, D2));
      CabsDecl Decl;
      Decl.SC = Spec.first;
      Decl.Ty = Ty2;
      Decl.Name = D2.Name;
      Decl.Loc = D2.Loc;
      declareName(D2.Name, Spec.first == StorageClass::Typedef);
      if (accept(Tok::Eq)) {
        CERB_TRY(Init, parseInitializer());
        Decl.Init = std::move(Init);
      }
      Ext.Decls.push_back(std::move(Decl));
    }
    CERB_CHECK(expect(Tok::Semi, "6.7"));
    Unit.Items.push_back(std::move(Ext));
  }
  return Unit;
}

Expected<CabsExprPtr> Parser::parseExprOnly() {
  CERB_TRY(E, parseExpr());
  if (!at(Tok::EndOfFile))
    return err("trailing tokens after expression", cur().Loc);
  return std::move(E);
}

} // namespace

Expected<CabsTranslationUnit>
cerb::cabs::parseTranslationUnit(std::string_view Source) {
  CERB_TRY(Toks, lex(Source));
  Parser P(std::move(Toks));
  return P.parseUnit();
}

Expected<CabsExprPtr> cerb::cabs::parseExpression(std::string_view Source) {
  CERB_TRY(Toks, lex(Source));
  Parser P(std::move(Toks));
  return P.parseExprOnly();
}
