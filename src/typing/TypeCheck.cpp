//===-- typing/TypeCheck.cpp ----------------------------------------------===//

#include "typing/TypeCheck.h"

#include "support/DepthGuard.h"
#include "support/Format.h"

#include <cassert>
#include <map>
#include <set>

using namespace cerb;
using namespace cerb::ail;
using cabs::BinaryOp;
using cabs::UnaryOp;

//===----------------------------------------------------------------------===//
// Conversion machinery
//===----------------------------------------------------------------------===//

int cerb::typing::rankOf(IntKind K) {
  switch (K) {
  case IntKind::Bool:
    return 0;
  case IntKind::Char:
  case IntKind::SChar:
  case IntKind::UChar:
    return 1;
  case IntKind::Short:
  case IntKind::UShort:
    return 2;
  case IntKind::Int:
  case IntKind::UInt:
    return 3;
  case IntKind::Long:
  case IntKind::ULong:
    return 4;
  case IntKind::LongLong:
  case IntKind::ULongLong:
    return 5;
  }
  return 0;
}

/// The signed/unsigned sibling of an integer kind.
static IntKind toUnsigned(IntKind K) {
  switch (K) {
  case IntKind::Char:
  case IntKind::SChar: return IntKind::UChar;
  case IntKind::Short: return IntKind::UShort;
  case IntKind::Int: return IntKind::UInt;
  case IntKind::Long: return IntKind::ULong;
  case IntKind::LongLong: return IntKind::ULongLong;
  default: return K;
  }
}

CType cerb::typing::promote(const ImplEnv &Env, const CType &Ty) {
  assert(Ty.isInteger() && "promoting non-integer");
  IntKind K = Ty.intKind();
  if (rankOf(K) >= rankOf(IntKind::Int))
    return Ty;
  // 6.3.1.1p2: if int can represent all values of the original type, the
  // value is converted to int; otherwise to unsigned int. With 32-bit int
  // every sub-int type fits in int.
  return CType::intTy();
}

CType cerb::typing::usualArithmetic(const ImplEnv &Env, const CType &A0,
                                    const CType &B0) {
  CType A = promote(Env, A0), B = promote(Env, B0);
  IntKind KA = A.intKind(), KB = B.intKind();
  if (KA == KB)
    return A;
  bool UA = isUnsignedKind(KA), UB = isUnsignedKind(KB);
  if (UA == UB)
    return rankOf(KA) >= rankOf(KB) ? A : B;
  // Mixed signedness (6.3.1.8p1).
  IntKind Unsig = UA ? KA : KB;
  IntKind Sig = UA ? KB : KA;
  if (rankOf(Unsig) >= rankOf(Sig))
    return CType::makeInteger(Unsig);
  if (Env.maxOf(Sig) >= Env.maxOf(Unsig))
    return CType::makeInteger(Sig);
  return CType::makeInteger(toUnsigned(Sig));
}

namespace {

/// Is \p E a null pointer constant (6.3.2.3p3)? We recognise the common
/// syntactic forms: an integer constant 0 and (void*)0, through parens
/// (already flattened) and casts to integer types of value 0.
bool isNullPointerConstant(const AilExpr &E) {
  if (E.Kind == AilExprKind::IntConst)
    return E.IntValue == 0;
  if (E.Kind == AilExprKind::Cast && E.CastTy.isPointer() &&
      E.CastTy.pointee().isVoid())
    return isNullPointerConstant(*E.Kids[0]);
  if (E.Kind == AilExprKind::Cast && E.CastTy.isInteger())
    return isNullPointerConstant(*E.Kids[0]);
  return false;
}

/// Pointer compatibility for the purposes of assignment/comparison: we use
/// structural equality of unqualified types; void* pairs with any object
/// pointer (6.3.2.3p1).
bool pointersCompatible(const CType &A, const CType &B) {
  if (A.pointee() == B.pointee())
    return true;
  if (A.pointee().isVoid() && !B.pointee().isFunction())
    return true;
  if (B.pointee().isVoid() && !A.pointee().isFunction())
    return true;
  return false;
}

class Checker {
public:
  explicit Checker(AilProgram &Prog) : Prog(Prog), Env(Prog.Tags) {}

  ExpectedVoid run();

private:
  AilProgram &Prog;
  ImplEnv Env;
  /// Object symbol id -> declared type. Symbols are globally unique, so a
  /// flat map works across scopes.
  std::map<unsigned, CType> ObjTypes;
  CType CurrentReturnTy;
  /// Depth of the recursive walk (support/DepthGuard.h).
  unsigned Depth = 0;
  DepthGuard guard() { return DepthGuard(Depth, MaxSyntaxDepth); }

  //===------------------------------------------------------------------===//
  // Expressions
  //===------------------------------------------------------------------===//

  /// Checks \p E, setting Ty and Cat.
  ExpectedVoid check(AilExpr &E);
  /// Checks \p E and returns its type after lvalue conversion and array/
  /// function decay (6.3.2.1) — the type it has when used as a value.
  Expected<CType> checkValue(AilExpr &E);

  /// The decayed type of an already-checked expression.
  CType valueTypeOf(const AilExpr &E) {
    if (E.Ty.isArray())
      return Prog.Tags.pointerTo(E.Ty.element());
    if (E.Ty.isFunction())
      return Prog.Tags.pointerTo(E.Ty);
    return E.Ty;
  }

  ExpectedVoid checkUnary(AilExpr &E);
  ExpectedVoid checkBinary(AilExpr &E);
  ExpectedVoid checkAssign(AilExpr &E);
  ExpectedVoid checkCond(AilExpr &E);
  ExpectedVoid checkCall(AilExpr &E);
  ExpectedVoid checkCast(AilExpr &E);
  ExpectedVoid checkMember(AilExpr &E);

  /// Checks that a value of decayed type \p From may initialise/assign a
  /// location of type \p To (6.5.16.1 constraints), given the RHS
  /// expression for null-pointer-constant detection.
  ExpectedVoid checkAssignable(const CType &To, const CType &From,
                               const AilExpr &Rhs, SourceLoc Loc);

  //===------------------------------------------------------------------===//
  // Statements / initialisers
  //===------------------------------------------------------------------===//
  ExpectedVoid checkStmt(AilStmt &S);
  ExpectedVoid checkInit(const CType &Ty, AilInit &Init);
  ExpectedVoid checkSwitchBody(AilStmt &S, const CType &CtrlTy,
                               std::set<Int128> &Seen, bool &SawDefault);
};

//===----------------------------------------------------------------------===//
// Expression checking
//===----------------------------------------------------------------------===//

Expected<CType> Checker::checkValue(AilExpr &E) {
  CERB_CHECK(check(E));
  if (E.Ty.isVoid() && E.Kind != AilExprKind::Call &&
      E.Kind != AilExprKind::Cast && E.Kind != AilExprKind::Comma &&
      E.Kind != AilExprKind::Cond)
    return err("void value used where a value is required", E.Loc,
               "6.3.2.2");
  return valueTypeOf(E);
}

ExpectedVoid Checker::check(AilExpr &E) {
  DepthGuard G = guard();
  if (!G)
    return G.error("typecheck", E.Loc);
  switch (E.Kind) {
  case AilExprKind::Var: {
    auto It = ObjTypes.find(E.Sym.Id);
    if (It == ObjTypes.end())
      return err(fmt("object '{0}' has no visible declaration",
                     Prog.Syms.nameOf(E.Sym)),
                 E.Loc);
    E.Ty = It->second;
    E.Cat = ValueCat::LValue;
    return ExpectedVoid();
  }
  case AilExprKind::FuncRef: {
    auto It = Prog.DeclaredFunctions.find(E.Sym.Id);
    if (It == Prog.DeclaredFunctions.end())
      return err(fmt("function '{0}' has no declaration",
                     Prog.Syms.nameOf(E.Sym)),
                 E.Loc);
    E.Ty = It->second;
    E.Cat = ValueCat::RValue; // a function designator; decays to pointer
    return ExpectedVoid();
  }
  case AilExprKind::IntConst:
    assert(E.Ty.isValid() && "IntConst without a type from desugaring");
    E.Cat = ValueCat::RValue;
    return ExpectedVoid();
  case AilExprKind::Unary:
    return checkUnary(E);
  case AilExprKind::Binary:
    return checkBinary(E);
  case AilExprKind::Assign:
    return checkAssign(E);
  case AilExprKind::Cond:
    return checkCond(E);
  case AilExprKind::Cast:
    return checkCast(E);
  case AilExprKind::Call:
    return checkCall(E);
  case AilExprKind::Member:
    return checkMember(E);
  case AilExprKind::SizeofExpr: {
    CERB_CHECK(check(*E.Kids[0]));
    CType SubTy = E.Kids[0]->Ty; // no decay: sizeof array is the array size
    if (SubTy.isFunction())
      return err("sizeof applied to a function type", E.Loc, "6.5.3.4p1");
    if (SubTy.isArray() && !SubTy.arraySize())
      return err("sizeof applied to an incomplete array", E.Loc,
                 "6.5.3.4p1");
    // Fold: sizeof never evaluates its operand in this fragment.
    E.Kind = AilExprKind::IntConst;
    E.IntValue = Int128(Env.sizeOf(SubTy));
    E.Ty = CType::sizeTy();
    E.Cat = ValueCat::RValue;
    E.Kids.clear();
    return ExpectedVoid();
  }
  case AilExprKind::SizeofType:
  case AilExprKind::AlignofType: {
    if (E.CastTy.isFunction())
      return err("sizeof/_Alignof applied to a function type", E.Loc,
                 "6.5.3.4p1");
    if (E.CastTy.isArray() && !E.CastTy.arraySize())
      return err("sizeof/_Alignof of an incomplete array type", E.Loc,
                 "6.5.3.4p1");
    Int128 V = E.Kind == AilExprKind::SizeofType
                   ? Int128(Env.sizeOf(E.CastTy))
                   : Int128(Env.alignOf(E.CastTy));
    E.Kind = AilExprKind::IntConst;
    E.IntValue = V;
    E.Ty = CType::sizeTy();
    E.Cat = ValueCat::RValue;
    return ExpectedVoid();
  }
  case AilExprKind::Comma: {
    CERB_CHECK(check(*E.Kids[0]));
    CERB_TRY(RTy, checkValue(*E.Kids[1]));
    E.Ty = RTy;
    E.Cat = ValueCat::RValue;
    return ExpectedVoid();
  }
  }
  return err("bad expression kind", E.Loc);
}

ExpectedVoid Checker::checkUnary(AilExpr &E) {
  AilExpr &Sub = *E.Kids[0];
  switch (E.UOp) {
  case UnaryOp::Plus:
  case UnaryOp::Minus:
  case UnaryOp::BitNot: {
    CERB_TRY(Ty, checkValue(Sub));
    if (!Ty.isInteger())
      return err(fmt("operand of unary '{0}' must have integer type",
                     unaryOpSpelling(E.UOp)),
                 E.Loc, "6.5.3.3p1");
    E.Ty = typing::promote(Env, Ty);
    E.Cat = ValueCat::RValue;
    return ExpectedVoid();
  }
  case UnaryOp::LogNot: {
    CERB_TRY(Ty, checkValue(Sub));
    if (!Ty.isScalar())
      return err("operand of '!' must have scalar type", E.Loc, "6.5.3.3p1");
    E.Ty = CType::intTy();
    E.Cat = ValueCat::RValue;
    return ExpectedVoid();
  }
  case UnaryOp::AddrOf: {
    CERB_CHECK(check(Sub));
    if (Sub.Ty.isFunction()) { // &f
      E.Ty = Prog.Tags.pointerTo(Sub.Ty);
      E.Cat = ValueCat::RValue;
      return ExpectedVoid();
    }
    if (Sub.Cat != ValueCat::LValue)
      return err("cannot take the address of an rvalue", E.Loc, "6.5.3.2p1");
    E.Ty = Prog.Tags.pointerTo(Sub.Ty);
    E.Cat = ValueCat::RValue;
    return ExpectedVoid();
  }
  case UnaryOp::Deref: {
    CERB_TRY(Ty, checkValue(Sub));
    if (!Ty.isPointer())
      return err("cannot dereference a non-pointer", E.Loc, "6.5.3.2p2");
    CType Pointee = Ty.pointee();
    if (Pointee.isVoid())
      return err("dereferencing a void pointer", E.Loc, "6.5.3.2p2");
    E.Ty = Pointee;
    E.Cat = Pointee.isFunction() ? ValueCat::RValue : ValueCat::LValue;
    return ExpectedVoid();
  }
  case UnaryOp::PreInc:
  case UnaryOp::PreDec:
  case UnaryOp::PostInc:
  case UnaryOp::PostDec: {
    CERB_CHECK(check(Sub));
    if (Sub.Cat != ValueCat::LValue)
      return err("operand of ++/-- must be an lvalue", E.Loc, "6.5.2.4p1");
    CType Ty = Sub.Ty;
    if (Ty.isPointer()) {
      if (!Ty.pointee().isObject())
        return err("++/-- on pointer to function", E.Loc, "6.5.6p2");
      E.ArithElemTy = Ty.pointee();
    } else if (!Ty.isInteger()) {
      return err("operand of ++/-- must have scalar type", E.Loc,
                 "6.5.2.4p1");
    }
    E.Ty = Ty;
    E.Cat = ValueCat::RValue;
    return ExpectedVoid();
  }
  }
  return err("bad unary operator", E.Loc);
}

ExpectedVoid Checker::checkBinary(AilExpr &E) {
  AilExpr &L = *E.Kids[0];
  AilExpr &R = *E.Kids[1];

  // Short-circuit logicals first: operands need only be scalar (6.5.13/14).
  if (E.BOp == BinaryOp::LogAnd || E.BOp == BinaryOp::LogOr) {
    CERB_TRY(LT, checkValue(L));
    CERB_TRY(RT, checkValue(R));
    if (!LT.isScalar() || !RT.isScalar())
      return err("operands of '&&'/'||' must have scalar type", E.Loc,
                 "6.5.13p2");
    E.Ty = CType::intTy();
    E.Cat = ValueCat::RValue;
    return ExpectedVoid();
  }

  CERB_TRY(LT, checkValue(L));
  CERB_TRY(RT, checkValue(R));
  E.Cat = ValueCat::RValue;

  switch (E.BOp) {
  case BinaryOp::Mul:
  case BinaryOp::Div:
  case BinaryOp::Rem:
  case BinaryOp::BitAnd:
  case BinaryOp::BitXor:
  case BinaryOp::BitOr: {
    if (!LT.isInteger() || !RT.isInteger())
      return err(fmt("operands of '{0}' must have integer type",
                     binaryOpSpelling(E.BOp)),
                 E.Loc, "6.5.5p2");
    E.Ty = typing::usualArithmetic(Env, LT, RT);
    return ExpectedVoid();
  }
  case BinaryOp::Shl:
  case BinaryOp::Shr: {
    if (!LT.isInteger() || !RT.isInteger())
      return err("operands of shift must have integer type", E.Loc,
                 "6.5.7p2");
    // 6.5.7p3: promotions performed on each operand separately.
    E.Ty = typing::promote(Env, LT);
    E.RhsConvTy = typing::promote(Env, RT);
    return ExpectedVoid();
  }
  case BinaryOp::Add: {
    if (LT.isInteger() && RT.isInteger()) {
      E.Ty = typing::usualArithmetic(Env, LT, RT);
      return ExpectedVoid();
    }
    // ptr + int / int + ptr (6.5.6p2). Canonicalise pointer to the left.
    if (LT.isInteger() && RT.isPointer()) {
      std::swap(E.Kids[0], E.Kids[1]);
      std::swap(LT, RT);
    }
    if (LT.isPointer() && RT.isInteger()) {
      if (!LT.pointee().isObject())
        return err("arithmetic on pointer to function", E.Loc, "6.5.6p2");
      E.Ty = LT;
      E.ArithElemTy = LT.pointee();
      return ExpectedVoid();
    }
    return err("invalid operands to '+'", E.Loc, "6.5.6p2");
  }
  case BinaryOp::Sub: {
    if (LT.isInteger() && RT.isInteger()) {
      E.Ty = typing::usualArithmetic(Env, LT, RT);
      return ExpectedVoid();
    }
    if (LT.isPointer() && RT.isInteger()) {
      if (!LT.pointee().isObject())
        return err("arithmetic on pointer to function", E.Loc, "6.5.6p3");
      E.Ty = LT;
      E.ArithElemTy = LT.pointee();
      return ExpectedVoid();
    }
    if (LT.isPointer() && RT.isPointer()) {
      if (!(LT.pointee() == RT.pointee()))
        return err("subtraction of incompatible pointer types", E.Loc,
                   "6.5.6p3");
      E.Ty = CType::ptrdiffTy();
      E.ArithElemTy = LT.pointee();
      return ExpectedVoid();
    }
    return err("invalid operands to '-'", E.Loc, "6.5.6p3");
  }
  case BinaryOp::Lt:
  case BinaryOp::Gt:
  case BinaryOp::Le:
  case BinaryOp::Ge: {
    if (LT.isInteger() && RT.isInteger()) {
      E.CommonTy = typing::usualArithmetic(Env, LT, RT);
      E.Ty = CType::intTy();
      return ExpectedVoid();
    }
    if (LT.isPointer() && RT.isPointer()) {
      // 6.5.8p2 requires pointers to compatible object types. Both the
      // strictness and the de facto latitude (Q25) are decided by the
      // memory object model at run time, not here.
      E.Ty = CType::intTy();
      return ExpectedVoid();
    }
    return err("invalid operands to relational operator", E.Loc, "6.5.8p2");
  }
  case BinaryOp::Eq:
  case BinaryOp::Ne: {
    if (LT.isInteger() && RT.isInteger()) {
      E.CommonTy = typing::usualArithmetic(Env, LT, RT);
      E.Ty = CType::intTy();
      return ExpectedVoid();
    }
    bool LNull = isNullPointerConstant(L), RNull = isNullPointerConstant(R);
    if (LT.isPointer() && (RT.isPointer() || RNull)) {
      if (RT.isPointer() && !RNull && !LNull &&
          !pointersCompatible(LT, RT))
        return err("comparison of incompatible pointer types", E.Loc,
                   "6.5.9p2");
      E.Ty = CType::intTy();
      return ExpectedVoid();
    }
    if (RT.isPointer() && LNull) {
      E.Ty = CType::intTy();
      return ExpectedVoid();
    }
    return err("invalid operands to equality operator", E.Loc, "6.5.9p2");
  }
  default:
    return err("bad binary operator", E.Loc);
  }
}

ExpectedVoid Checker::checkAssignable(const CType &To, const CType &From,
                                      const AilExpr &Rhs, SourceLoc Loc) {
  if (To.isInteger() && From.isInteger())
    return ExpectedVoid();
  if (To.isPointer()) {
    if (From.isPointer()) {
      if (pointersCompatible(To, From))
        return ExpectedVoid();
      return err(fmt("assigning '{0}' to '{1}' from incompatible pointer "
                     "type",
                     From.str(), To.str()),
                 Loc, "6.5.16.1p1");
    }
    if (isNullPointerConstant(Rhs))
      return ExpectedVoid();
    return err("assigning an integer to a pointer without a cast", Loc,
               "6.5.16.1p1");
  }
  if (To.isInteger() && From.isPointer())
    return err("assigning a pointer to an integer without a cast", Loc,
               "6.5.16.1p1");
  if (To.isStructOrUnion() && To == From)
    return ExpectedVoid();
  return err(fmt("incompatible types in assignment ('{0}' from '{1}')",
                 To.str(), From.str()),
             Loc, "6.5.16.1p1");
}

ExpectedVoid Checker::checkAssign(AilExpr &E) {
  AilExpr &L = *E.Kids[0];
  AilExpr &R = *E.Kids[1];
  CERB_CHECK(check(L));
  if (L.Cat != ValueCat::LValue)
    return err("left operand of assignment must be an lvalue", E.Loc,
               "6.5.16p2");
  if (L.Ty.isArray())
    return err("cannot assign to an array", E.Loc, "6.5.16p2");
  CERB_TRY(RT, checkValue(R));

  if (!E.AssignOp) {
    CERB_CHECK(checkAssignable(L.Ty, RT, R, E.Loc));
    E.Ty = L.Ty;
    E.Cat = ValueCat::RValue;
    return ExpectedVoid();
  }

  // Compound assignment (6.5.16.2): lhs op rhs computed, then stored.
  BinaryOp Op = *E.AssignOp;
  if (L.Ty.isPointer()) {
    if (Op != BinaryOp::Add && Op != BinaryOp::Sub)
      return err("invalid compound assignment on a pointer", E.Loc,
                 "6.5.16.2p1");
    if (!RT.isInteger())
      return err("pointer compound assignment needs an integer rhs", E.Loc,
                 "6.5.16.2p1");
    E.ArithElemTy = L.Ty.pointee();
    E.Ty = L.Ty;
    E.Cat = ValueCat::RValue;
    return ExpectedVoid();
  }
  if (!L.Ty.isInteger() || !RT.isInteger())
    return err("invalid operands to compound assignment", E.Loc,
               "6.5.16.2p2");
  if (Op == BinaryOp::Shl || Op == BinaryOp::Shr) {
    E.CommonTy = typing::promote(Env, L.Ty);
    E.RhsConvTy = typing::promote(Env, RT);
  } else {
    E.CommonTy = typing::usualArithmetic(Env, L.Ty, RT);
  }
  E.Ty = L.Ty;
  E.Cat = ValueCat::RValue;
  return ExpectedVoid();
}

ExpectedVoid Checker::checkCond(AilExpr &E) {
  CERB_TRY(CT, checkValue(*E.Kids[0]));
  if (!CT.isScalar())
    return err("condition of '?:' must have scalar type", E.Loc, "6.5.15p2");
  CERB_TRY(TT, checkValue(*E.Kids[1]));
  CERB_TRY(FT, checkValue(*E.Kids[2]));
  E.Cat = ValueCat::RValue;
  if (TT.isInteger() && FT.isInteger()) {
    E.Ty = typing::usualArithmetic(Env, TT, FT);
    E.CommonTy = E.Ty;
    return ExpectedVoid();
  }
  if (TT.isPointer() && FT.isPointer()) {
    if (TT.pointee() == FT.pointee()) {
      E.Ty = TT;
      return ExpectedVoid();
    }
    if (TT.pointee().isVoid() || FT.pointee().isVoid()) {
      E.Ty = Prog.Tags.pointerTo(CType::makeVoid());
      return ExpectedVoid();
    }
    return err("incompatible pointer types in '?:'", E.Loc, "6.5.15p3");
  }
  if (TT.isPointer() && isNullPointerConstant(*E.Kids[2])) {
    E.Ty = TT;
    return ExpectedVoid();
  }
  if (FT.isPointer() && isNullPointerConstant(*E.Kids[1])) {
    E.Ty = FT;
    return ExpectedVoid();
  }
  if (TT.isVoid() && FT.isVoid()) {
    E.Ty = CType::makeVoid();
    return ExpectedVoid();
  }
  if (TT.isStructOrUnion() && TT == FT) {
    E.Ty = TT;
    return ExpectedVoid();
  }
  return err("incompatible operands of '?:'", E.Loc, "6.5.15p3");
}

ExpectedVoid Checker::checkCast(AilExpr &E) {
  CERB_TRY(From, checkValue(*E.Kids[0]));
  const CType &To = E.CastTy;
  E.Cat = ValueCat::RValue;
  E.Ty = To;
  if (To.isVoid())
    return ExpectedVoid();
  if (!To.isScalar())
    return err("cast target must be void or a scalar type", E.Loc,
               "6.5.4p2");
  if (!From.isScalar())
    return err("cast operand must have scalar type", E.Loc, "6.5.4p2");
  return ExpectedVoid();
}

ExpectedVoid Checker::checkCall(AilExpr &E) {
  AilExpr &Callee = *E.Kids[0];
  CERB_TRY(CTy, checkValue(Callee));
  CType FnTy;
  if (CTy.isPointer() && CTy.pointee().isFunction())
    FnTy = CTy.pointee();
  else
    return err("called object is not a function or function pointer", E.Loc,
               "6.5.2.2p1");

  std::span<const CType> Params = FnTy.paramTypes();
  size_t NArgs = E.Kids.size() - 1;
  if (NArgs < Params.size())
    return err(fmt("too few arguments to function call ({0} given, {1} "
                   "expected)",
                   NArgs, Params.size()),
               E.Loc, "6.5.2.2p2");
  if (NArgs > Params.size() && !FnTy.isVariadic())
    return err(fmt("too many arguments to function call ({0} given, {1} "
                   "expected)",
                   NArgs, Params.size()),
               E.Loc, "6.5.2.2p2");
  for (size_t I = 0; I < NArgs; ++I) {
    AilExpr &Arg = *E.Kids[I + 1];
    CERB_TRY(AT, checkValue(Arg));
    if (I < Params.size())
      CERB_CHECK(checkAssignable(Params[I], AT, Arg, Arg.Loc));
    // Variadic extras undergo the default argument promotions at
    // elaboration time (6.5.2.2p6).
  }
  E.Ty = FnTy.returnType();
  E.Cat = ValueCat::RValue;
  return ExpectedVoid();
}

ExpectedVoid Checker::checkMember(AilExpr &E) {
  AilExpr &Sub = *E.Kids[0];
  CERB_CHECK(check(Sub));
  if (!Sub.Ty.isStructOrUnion())
    return err("member access on non-struct/union", E.Loc, "6.5.2.3p1");
  if (Sub.Cat != ValueCat::LValue)
    return err("member access on a non-lvalue aggregate is outside the "
               "fragment",
               E.Loc);
  const TagDef &D = Prog.Tags.get(Sub.Ty.tag());
  if (!D.Complete)
    return err(fmt("member access into incomplete type '{0}'", D.Name),
               E.Loc, "6.5.2.3p1");
  auto Idx = D.memberIndex(E.MemberName);
  if (!Idx)
    return err(fmt("no member named '{0}' in '{1}'", E.MemberName, D.Name),
               E.Loc, "6.5.2.3p1");
  E.Ty = D.Members[*Idx].Ty;
  E.Cat = ValueCat::LValue;
  return ExpectedVoid();
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

ExpectedVoid Checker::checkInit(const CType &Ty, AilInit &Init) {
  DepthGuard G = guard();
  if (!G)
    return G.error("typecheck", Init.Loc);
  if (!Init.isList()) {
    CERB_TRY(From, checkValue(*Init.E));
    return checkAssignable(Ty, From, *Init.E, Init.Loc);
  }
  if (Ty.isArray()) {
    uint64_t N = Ty.arraySize() ? *Ty.arraySize() : Init.List.size();
    if (Init.List.size() > N)
      return err("too many initialisers for array", Init.Loc, "6.7.9p2");
    for (AilInit &Sub : Init.List)
      CERB_CHECK(checkInit(Ty.element(), Sub));
    return ExpectedVoid();
  }
  if (Ty.isStruct()) {
    const TagDef &D = Prog.Tags.get(Ty.tag());
    if (Init.List.size() > D.Members.size())
      return err("too many initialisers for struct", Init.Loc, "6.7.9p2");
    for (size_t I = 0; I < Init.List.size(); ++I)
      CERB_CHECK(checkInit(D.Members[I].Ty, Init.List[I]));
    return ExpectedVoid();
  }
  if (Ty.isUnion()) {
    const TagDef &D = Prog.Tags.get(Ty.tag());
    if (Init.List.size() > 1)
      return err("too many initialisers for union", Init.Loc, "6.7.9p2");
    if (!Init.List.empty())
      CERB_CHECK(checkInit(D.Members[0].Ty, Init.List[0]));
    return ExpectedVoid();
  }
  // Scalar in braces: { e } (6.7.9p11).
  if (Init.List.size() == 1)
    return checkInit(Ty, Init.List[0]);
  return err("invalid braced initialiser for scalar", Init.Loc, "6.7.9p11");
}

ExpectedVoid Checker::checkSwitchBody(AilStmt &S, const CType &CtrlTy,
                                      std::set<Int128> &Seen,
                                      bool &SawDefault) {
  DepthGuard G = guard();
  if (!G)
    return G.error("typecheck", S.Loc);
  // Walk the statement tree, stopping at nested switches.
  if (S.Kind == AilStmtKind::Switch) {
    // Still need to type-check the nested switch itself.
    return checkStmt(S);
  }
  if (S.Kind == AilStmtKind::Case) {
    Int128 Converted = Env.convert(CtrlTy.intKind(), S.CaseValue);
    if (!Seen.insert(Converted).second)
      return err("duplicate case value", S.Loc, "6.8.4.2p3");
    S.CaseValue = Converted;
    return checkSwitchBody(*S.Body[0], CtrlTy, Seen, SawDefault);
  }
  if (S.Kind == AilStmtKind::Default) {
    if (SawDefault)
      return err("multiple default labels in one switch", S.Loc,
                 "6.8.4.2p3");
    SawDefault = true;
    return checkSwitchBody(*S.Body[0], CtrlTy, Seen, SawDefault);
  }
  // Check expressions/declarations at this level, then recurse into bodies.
  switch (S.Kind) {
  case AilStmtKind::Expr:
    if (S.E)
      CERB_CHECK(check(*S.E));
    return ExpectedVoid();
  case AilStmtKind::Decl:
  case AilStmtKind::Goto:
  case AilStmtKind::Break:
  case AilStmtKind::Continue:
  case AilStmtKind::Return:
    return checkStmt(S);
  case AilStmtKind::If: {
    CERB_TRY(CT, checkValue(*S.E));
    if (!CT.isScalar())
      return err("if condition must have scalar type", S.Loc, "6.8.4.1p1");
    for (auto &Sub : S.Body)
      CERB_CHECK(checkSwitchBody(*Sub, CtrlTy, Seen, SawDefault));
    return ExpectedVoid();
  }
  case AilStmtKind::While: {
    CERB_TRY(CT, checkValue(*S.E));
    if (!CT.isScalar())
      return err("while condition must have scalar type", S.Loc,
                 "6.8.5p2");
    for (auto &Sub : S.Body)
      CERB_CHECK(checkSwitchBody(*Sub, CtrlTy, Seen, SawDefault));
    return ExpectedVoid();
  }
  default:
    for (auto &Sub : S.Body)
      CERB_CHECK(checkSwitchBody(*Sub, CtrlTy, Seen, SawDefault));
    return ExpectedVoid();
  }
}

ExpectedVoid Checker::checkStmt(AilStmt &S) {
  DepthGuard G = guard();
  if (!G)
    return G.error("typecheck", S.Loc);
  switch (S.Kind) {
  case AilStmtKind::Expr:
    if (S.E)
      CERB_CHECK(check(*S.E));
    return ExpectedVoid();
  case AilStmtKind::Decl: {
    if (!S.DeclTy.isObject() || S.DeclTy.isVoid())
      return err("declared object must have a complete object type", S.Loc,
                 "6.7p7");
    if (S.DeclTy.isArray() && !S.DeclTy.arraySize())
      return err("block-scope array has incomplete type", S.Loc, "6.7p7");
    if (S.DeclTy.isStructOrUnion() &&
        !Prog.Tags.get(S.DeclTy.tag()).Complete)
      return err("declared object has incomplete struct/union type", S.Loc,
                 "6.7p7");
    ObjTypes[S.DeclSym.Id] = S.DeclTy;
    if (S.DeclInit)
      CERB_CHECK(checkInit(S.DeclTy, *S.DeclInit));
    return ExpectedVoid();
  }
  case AilStmtKind::Block:
    for (auto &Sub : S.Body)
      CERB_CHECK(checkStmt(*Sub));
    return ExpectedVoid();
  case AilStmtKind::If: {
    CERB_TRY(CT, checkValue(*S.E));
    if (!CT.isScalar())
      return err("if condition must have scalar type", S.Loc, "6.8.4.1p1");
    for (auto &Sub : S.Body)
      CERB_CHECK(checkStmt(*Sub));
    return ExpectedVoid();
  }
  case AilStmtKind::While: {
    CERB_TRY(CT, checkValue(*S.E));
    if (!CT.isScalar())
      return err("while condition must have scalar type", S.Loc, "6.8.5p2");
    CERB_CHECK(checkStmt(*S.Body[0]));
    return ExpectedVoid();
  }
  case AilStmtKind::Switch: {
    CERB_TRY(CT, checkValue(*S.E));
    if (!CT.isInteger())
      return err("switch controlling expression must have integer type",
                 S.Loc, "6.8.4.2p1");
    CType Promoted = typing::promote(Env, CT);
    S.E->CommonTy = Promoted; // record for the elaboration
    std::set<Int128> Seen;
    bool SawDefault = false;
    return checkSwitchBody(*S.Body[0], Promoted, Seen, SawDefault);
  }
  case AilStmtKind::Case:
  case AilStmtKind::Default:
    // Reached only via a path that bypassed an enclosing switch.
    return err("case/default label outside a switch", S.Loc, "6.8.1p2");
  case AilStmtKind::Label:
    return checkStmt(*S.Body[0]);
  case AilStmtKind::Goto:
  case AilStmtKind::Break:
  case AilStmtKind::Continue:
    return ExpectedVoid();
  case AilStmtKind::Return: {
    if (!S.E) {
      if (!CurrentReturnTy.isVoid())
        return err("non-void function must return a value", S.Loc,
                   "6.8.6.4p1");
      return ExpectedVoid();
    }
    if (CurrentReturnTy.isVoid())
      return err("void function must not return a value", S.Loc,
                 "6.8.6.4p1");
    CERB_TRY(RT, checkValue(*S.E));
    return checkAssignable(CurrentReturnTy, RT, *S.E, S.Loc);
  }
  }
  return err("bad statement kind", S.Loc);
}

ExpectedVoid Checker::run() {
  // Declare all globals first (C file-scope identifiers have file scope
  // from their declaration; our lenient model makes them visible to all
  // functions, matching declaration-before-use in practice).
  for (AilGlobal &G : Prog.Globals) {
    if (G.Ty.isArray() && !G.Ty.arraySize())
      return err(fmt("global array '{0}' has incomplete type",
                     Prog.Syms.nameOf(G.Sym)),
                 G.Loc, "6.9.2p3");
    ObjTypes[G.Sym.Id] = G.Ty;
  }
  for (AilGlobal &G : Prog.Globals)
    if (G.Init)
      CERB_CHECK(checkInit(G.Ty, *G.Init));

  for (AilFunction &F : Prog.Functions) {
    CurrentReturnTy = F.Ty.returnType();
    for (const AilParam &P : F.Params)
      ObjTypes[P.Sym.Id] = P.Ty;
    CERB_CHECK(checkStmt(*F.Body));
  }
  return ExpectedVoid();
}

} // namespace

ExpectedVoid cerb::typing::typeCheck(AilProgram &Prog) {
  Checker C(Prog);
  return C.run();
}
