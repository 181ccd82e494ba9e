//===-- tests/test_frontend.cpp - lexer + parser unit tests ---------------===//

#include "cabs/Lexer.h"
#include "cabs/Parser.h"

#include <gtest/gtest.h>

using namespace cerb;
using namespace cerb::cabs;

namespace {

std::vector<Token> lexOk(std::string_view Src) {
  auto R = lex(Src);
  EXPECT_TRUE(static_cast<bool>(R)) << (R ? "" : R.error().str());
  return R ? std::move(*R) : std::vector<Token>{};
}

} // namespace

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

TEST(Lexer, KeywordsAndIdentifiers) {
  auto T = lexOk("int foo while whilex _Bool");
  ASSERT_EQ(T.size(), 6u); // incl. EOF
  EXPECT_EQ(T[0].Kind, Tok::KwInt);
  EXPECT_EQ(T[1].Kind, Tok::Ident);
  EXPECT_EQ(T[1].Text, "foo");
  EXPECT_EQ(T[2].Kind, Tok::KwWhile);
  EXPECT_EQ(T[3].Kind, Tok::Ident); // not a keyword
  EXPECT_EQ(T[4].Kind, Tok::KwBool);
}

TEST(Lexer, MaximalMunchPunctuators) {
  auto T = lexOk("a+++b <<= >>= ... ->");
  EXPECT_EQ(T[1].Kind, Tok::PlusPlus); // a ++ + b
  EXPECT_EQ(T[2].Kind, Tok::Plus);
  EXPECT_EQ(T[4].Kind, Tok::LessLessEq);
  EXPECT_EQ(T[5].Kind, Tok::GreaterGreaterEq);
  EXPECT_EQ(T[6].Kind, Tok::Ellipsis);
  EXPECT_EQ(T[7].Kind, Tok::Arrow);
}

TEST(Lexer, CommentsStripped) {
  auto T = lexOk("a /* b\nc */ d // e\nf");
  ASSERT_EQ(T.size(), 4u);
  EXPECT_EQ(T[0].Text, "a");
  EXPECT_EQ(T[1].Text, "d");
  EXPECT_EQ(T[2].Text, "f");
}

TEST(Lexer, UnterminatedCommentIsError) {
  EXPECT_FALSE(static_cast<bool>(lex("a /* b")));
}

TEST(Lexer, CharConstants) {
  auto T = lexOk(R"('a' '\n' '\0' '\x41' '\\')");
  EXPECT_EQ(T[0].IntValue, 'a');
  EXPECT_EQ(T[1].IntValue, '\n');
  EXPECT_EQ(T[2].IntValue, 0);
  EXPECT_EQ(T[3].IntValue, 0x41);
  EXPECT_EQ(T[4].IntValue, '\\');
}

TEST(Lexer, StringLiteralsDecodeAndConcatenate) {
  auto T = lexOk(R"("ab\n" "cd")");
  ASSERT_EQ(T.size(), 2u);
  EXPECT_EQ(T[0].Kind, Tok::StringLit);
  EXPECT_EQ(T[0].Text, "ab\ncd"); // 6.4.5p5 concatenation
}

TEST(Lexer, ObjectLikeMacros) {
  auto T = lexOk("#define N 42\nint x = N;");
  bool SawFortyTwo = false;
  for (const Token &Tok1 : T)
    if (Tok1.Kind == Tok::IntConst && Tok1.Text == "42")
      SawFortyTwo = true;
  EXPECT_TRUE(SawFortyTwo);
}

TEST(Lexer, IfdefSkipsInactiveRegion) {
  auto T = lexOk("#define YES 1\n#ifdef NO\nint skipped;\n#endif\nint x;");
  for (const Token &Tok1 : T)
    EXPECT_NE(Tok1.Text, "skipped");
}

TEST(Lexer, IncludeIsIgnored) {
  auto T = lexOk("#include <stdio.h>\nint x;");
  EXPECT_EQ(T[0].Kind, Tok::KwInt);
}

TEST(Lexer, LineSplices) {
  auto T = lexOk("in\\\nt x;");
  EXPECT_EQ(T[0].Kind, Tok::KwInt);
}

TEST(Lexer, TracksLineNumbers) {
  auto T = lexOk("a\nb\n  c");
  EXPECT_EQ(T[0].Loc.Line, 1u);
  EXPECT_EQ(T[1].Loc.Line, 2u);
  EXPECT_EQ(T[2].Loc.Line, 3u);
  EXPECT_EQ(T[2].Loc.Col, 3u);
}

//===----------------------------------------------------------------------===//
// Parser: expressions
//===----------------------------------------------------------------------===//

namespace {

CabsExprPtr parseOk(std::string_view Src) {
  auto R = parseExpression(Src);
  EXPECT_TRUE(static_cast<bool>(R)) << (R ? "" : R.error().str());
  return R ? std::move(*R) : nullptr;
}

} // namespace

TEST(Parser, Precedence) {
  auto E = parseOk("1 + 2 * 3");
  ASSERT_EQ(E->Kind, CabsExprKind::Binary);
  EXPECT_EQ(E->BOp, BinaryOp::Add);
  EXPECT_EQ(E->Kids[1]->BOp, BinaryOp::Mul);
}

TEST(Parser, LeftAssociativity) {
  auto E = parseOk("1 - 2 - 3");
  // (1 - 2) - 3
  ASSERT_EQ(E->Kind, CabsExprKind::Binary);
  EXPECT_EQ(E->Kids[0]->Kind, CabsExprKind::Binary);
  EXPECT_EQ(E->Kids[1]->Kind, CabsExprKind::IntConst);
}

TEST(Parser, AssignmentIsRightAssociative) {
  auto E = parseOk("a = b = 1");
  ASSERT_EQ(E->Kind, CabsExprKind::Assign);
  EXPECT_EQ(E->Kids[1]->Kind, CabsExprKind::Assign);
}

TEST(Parser, ConditionalNesting) {
  auto E = parseOk("a ? b : c ? d : e");
  // a ? b : (c ? d : e)
  ASSERT_EQ(E->Kind, CabsExprKind::Cond);
  EXPECT_EQ(E->Kids[2]->Kind, CabsExprKind::Cond);
}

TEST(Parser, PostfixChains) {
  auto E = parseOk("a.b[1](2)->c");
  ASSERT_EQ(E->Kind, CabsExprKind::MemberPtr);
  EXPECT_EQ(E->Text, "c");
  EXPECT_EQ(E->Kids[0]->Kind, CabsExprKind::Call);
}

TEST(Parser, SizeofForms) {
  EXPECT_EQ(parseOk("sizeof x")->Kind, CabsExprKind::SizeofExpr);
  EXPECT_EQ(parseOk("sizeof(int)")->Kind, CabsExprKind::SizeofType);
  EXPECT_EQ(parseOk("sizeof(int*)")->Kind, CabsExprKind::SizeofType);
}

TEST(Parser, CastVsParenthesisedExpr) {
  auto Cast = parseOk("(int)x");
  EXPECT_EQ(Cast->Kind, CabsExprKind::Cast);
  auto Mul = parseOk("(x)*y"); // x is not a typedef here: multiplication
  EXPECT_EQ(Mul->Kind, CabsExprKind::Binary);
}

TEST(Parser, UnaryChain) {
  auto E = parseOk("*&!~-+x");
  EXPECT_EQ(E->Kind, CabsExprKind::Unary);
  EXPECT_EQ(E->UOp, UnaryOp::Deref);
}

//===----------------------------------------------------------------------===//
// Parser: declarations and whole units
//===----------------------------------------------------------------------===//

namespace {

CabsTranslationUnit unitOk(std::string_view Src) {
  auto R = parseTranslationUnit(Src);
  EXPECT_TRUE(static_cast<bool>(R)) << (R ? "" : R.error().str());
  return R ? std::move(*R) : CabsTranslationUnit{};
}

/// Walks a declarator-produced type spine collecting the kinds.
std::vector<CabsTypeKind> spine(const CabsTypePtr &Ty) {
  std::vector<CabsTypeKind> Out;
  for (CabsTypePtr T = Ty; T; T = T->Inner)
    Out.push_back(T->Kind);
  return Out;
}

} // namespace

TEST(Parser, DeclaratorPointerToArray) {
  auto U = unitOk("int (*p)[3];");
  ASSERT_EQ(U.Items.size(), 1u);
  const CabsDecl &D = U.Items[0].Decls[0];
  EXPECT_EQ(D.Name, "p");
  // pointer -> array -> base
  EXPECT_EQ(spine(D.Ty),
            (std::vector<CabsTypeKind>{CabsTypeKind::Pointer,
                                       CabsTypeKind::Array,
                                       CabsTypeKind::Base}));
}

TEST(Parser, DeclaratorArrayOfPointers) {
  auto U = unitOk("int *p[3];");
  EXPECT_EQ(spine(U.Items[0].Decls[0].Ty),
            (std::vector<CabsTypeKind>{CabsTypeKind::Array,
                                       CabsTypeKind::Pointer,
                                       CabsTypeKind::Base}));
}

TEST(Parser, DeclaratorMultiDimArray) {
  auto U = unitOk("int a[2][3];");
  EXPECT_EQ(spine(U.Items[0].Decls[0].Ty),
            (std::vector<CabsTypeKind>{CabsTypeKind::Array,
                                       CabsTypeKind::Array,
                                       CabsTypeKind::Base}));
}

TEST(Parser, DeclaratorFunctionPointer) {
  auto U = unitOk("int (*f)(int, char);");
  EXPECT_EQ(spine(U.Items[0].Decls[0].Ty),
            (std::vector<CabsTypeKind>{CabsTypeKind::Pointer,
                                       CabsTypeKind::Function,
                                       CabsTypeKind::Base}));
}

TEST(Parser, DeclaratorArrayOfFunctionPointers) {
  auto U = unitOk("int (*ops[4])(int);");
  EXPECT_EQ(spine(U.Items[0].Decls[0].Ty),
            (std::vector<CabsTypeKind>{CabsTypeKind::Array,
                                       CabsTypeKind::Pointer,
                                       CabsTypeKind::Function,
                                       CabsTypeKind::Base}));
}

TEST(Parser, TypedefNameDisambiguation) {
  // After the typedef, (T)x parses as a cast.
  auto U = unitOk("typedef int T; int f(void) { return (T)1.0 == 1; }");
  EXPECT_EQ(U.Items.size(), 2u);
}

TEST(Parser, TypedefShadowedByVariable) {
  auto U = unitOk("typedef int T; int f(void) { int T = 2; return T * 3; }");
  EXPECT_EQ(U.Items.size(), 2u);
}

TEST(Parser, FunctionDefinitionVsPrototype) {
  auto U = unitOk("int f(int a); int f(int a) { return a; }");
  ASSERT_EQ(U.Items.size(), 2u);
  EXPECT_FALSE(U.Items[0].isFunction());
  EXPECT_TRUE(U.Items[1].isFunction());
}

TEST(Parser, StructDefinitionWithMembers) {
  auto U = unitOk("struct s { int x; char c; struct s *next; };");
  const CabsDecl &D = U.Items[0].Decls[0];
  EXPECT_EQ(D.Ty->Kind, CabsTypeKind::StructUnion);
  EXPECT_EQ(D.Ty->Fields.size(), 3u);
}

TEST(Parser, EnumWithValues) {
  auto U = unitOk("enum e { A, B = 10, C };");
  EXPECT_EQ(U.Items[0].Decls[0].Ty->Enumerators.size(), 3u);
}

TEST(Parser, StatementsRoundtrip) {
  // Make sure all statement forms parse inside a function.
  unitOk(R"(
int f(int n) {
  int i, acc = 0;
  for (i = 0; i < n; i++) {
    if (i == 2) continue;
    else acc += i;
    while (acc > 100) { acc /= 2; break; }
    do acc++; while (0);
    switch (i) {
    case 0: acc = 1; break;
    default: break;
    }
  }
  goto out;
out:
  return acc;
}
)");
}

TEST(Parser, ErrorsCiteIsoClauses) {
  auto R = parseTranslationUnit("int f(void) { return 1 }");
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_NE(R.error().str().find("expected"), std::string::npos);
}

TEST(Parser, RejectsBitfields) {
  EXPECT_FALSE(
      static_cast<bool>(parseTranslationUnit("struct s { int x : 3; };")));
}

TEST(Parser, RejectsFunctionLikeMacros) {
  EXPECT_FALSE(static_cast<bool>(
      parseTranslationUnit("#define F(x) x\nint y = F(1);")));
}

//===----------------------------------------------------------------------===//
// Preprocessor corner cases
//===----------------------------------------------------------------------===//

TEST(Lexer, UndefRemovesMacro) {
  auto T = lexOk("#define N 1\n#undef N\nint N;");
  // N stays an identifier (no substitution).
  EXPECT_EQ(T[1].Kind, Tok::Ident);
  EXPECT_EQ(T[1].Text, "N");
}

TEST(Lexer, NestedIfdef) {
  auto T = lexOk(R"(
#define A 1
#ifdef A
#ifdef B
int not_this;
#endif
int this_one;
#endif
)");
  bool SawThis = false;
  for (const Token &Tok1 : T) {
    EXPECT_NE(Tok1.Text, "not_this");
    if (Tok1.Text == "this_one")
      SawThis = true;
  }
  EXPECT_TRUE(SawThis);
}

TEST(Lexer, ElseBranch) {
  auto T = lexOk("#ifdef NOPE\nint a;\n#else\nint b;\n#endif\n");
  ASSERT_GE(T.size(), 2u);
  EXPECT_EQ(T[1].Text, "b");
}

TEST(Lexer, MacroInsideStringNotSubstituted) {
  auto T = lexOk("#define N 42\nchar *s = \"N\";");
  for (const Token &Tok1 : T)
    if (Tok1.Kind == Tok::StringLit) {
      EXPECT_EQ(Tok1.Text, "N");
    }
}

TEST(Lexer, HashInsideLineIsNotADirective) {
  // '#' only introduces a directive at the start of a line; elsewhere it
  // is a stray character (we have no stringize operator).
  EXPECT_FALSE(static_cast<bool>(lex("int x = 1 # 2;")));
}

TEST(Lexer, EndifWithoutIfIsError) {
  EXPECT_FALSE(static_cast<bool>(lex("#endif\nint x;")));
}

TEST(Parser, EnumInSwitch) {
  unitOk(R"(
enum mode { OFF, ON };
int f(enum mode m) {
  switch (m) {
  case OFF: return 0;
  case ON: return 1;
  }
  return 2;
}
)");
}

TEST(Parser, PointerReturningFunctionDeclarators) {
  auto U = unitOk("char *strdupish(const char *s);");
  EXPECT_EQ(spine(U.Items[0].Decls[0].Ty),
            (std::vector<CabsTypeKind>{CabsTypeKind::Function,
                                       CabsTypeKind::Pointer,
                                       CabsTypeKind::Base}));
}

TEST(Parser, AnonymousStructTagInTypedef) {
  unitOk("typedef struct { int x; } box; box b;");
}
