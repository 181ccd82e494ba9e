//===-- exec/Builtins.cpp - C standard library shims ----------------------===//
///
/// \file
/// The library functions the de facto test suite needs (§5.1: Cerberus
/// "supports only small parts of the standard libraries", §2.1 uses printf
/// and memcmp). All memory traffic goes through the memory object model so
/// each model's semantics (provenance on bytes, uninitialised reads, CHERI
/// tags) applies to library calls too.
///
//===----------------------------------------------------------------------===//

#include "exec/Evaluator.h"

#include "support/Format.h"

using namespace cerb;
using namespace cerb::exec;
using namespace cerb::core;

namespace {

/// Renders an integer as lowercase hex.
std::string toHex(UInt128 V) {
  if (V == 0)
    return "0";
  std::string Out;
  while (V != 0) {
    Out.push_back("0123456789abcdef"[static_cast<unsigned>(V & 0xF)]);
    V >>= 4;
  }
  return std::string(Out.rbegin(), Out.rend());
}

} // namespace

Evaluator::Res Evaluator::doPrintf(std::vector<Value> &Args, SourceLoc Loc) {
  auto FmtPtr = asPointer(Args[0]);
  if (!FmtPtr)
    return error("printf with a non-pointer format");
  auto FmtOr = Mem.readString(*FmtPtr);
  if (!FmtOr) {
    auto U = FmtOr.takeUB();
    U.Loc = Loc;
    return undef(std::move(U));
  }
  const std::string &Fmt = *FmtOr;

  std::string Printed;
  size_t ArgIdx = 1;
  auto NextInt = [&](std::optional<mem::IntegerValue> &Out) -> bool {
    if (ArgIdx >= Args.size())
      return false;
    const Value &V = Args[ArgIdx++];
    if (V.kind() == ValueKind::Unspecified) {
      ++Events.UnspecifiedIntoLibrary;
      // De facto latitude: an arbitrary but stable value; we print 0.
      Out = mem::IntegerValue(0);
      return true;
    }
    Out = asInteger(V);
    return Out.has_value();
  };

  for (size_t I = 0; I < Fmt.size(); ++I) {
    char C = Fmt[I];
    if (C != '%') {
      Printed.push_back(C);
      continue;
    }
    ++I;
    if (I >= Fmt.size())
      break;
    // Length modifiers are parsed and ignored: our integer values carry
    // exact mathematical values already converted to the argument type.
    while (I < Fmt.size() &&
           (Fmt[I] == 'l' || Fmt[I] == 'z' || Fmt[I] == 'h'))
      ++I;
    if (I >= Fmt.size())
      break;
    char Conv = Fmt[I];
    switch (Conv) {
    case '%':
      Printed.push_back('%');
      break;
    case 'd':
    case 'i': {
      std::optional<mem::IntegerValue> V;
      if (!NextInt(V))
        return error("printf %d with a missing/bad argument");
      Printed += toString(V->V);
      break;
    }
    case 'u': {
      std::optional<mem::IntegerValue> V;
      if (!NextInt(V))
        return error("printf %u with a missing/bad argument");
      // Negative values only arise from mismatched formats; render the
      // twos-complement 64-bit reading like a real libc would.
      Printed += V->V < 0 ? toString(UInt128(uint64_t(V->V)))
                          : toString(UInt128(V->V));
      break;
    }
    case 'x': {
      std::optional<mem::IntegerValue> V;
      if (!NextInt(V))
        return error("printf %x with a missing/bad argument");
      Printed += V->V < 0 ? toHex(UInt128(uint64_t(V->V)))
                          : toHex(UInt128(V->V));
      break;
    }
    case 'c': {
      std::optional<mem::IntegerValue> V;
      if (!NextInt(V))
        return error("printf %c with a missing/bad argument");
      Printed.push_back(static_cast<char>(V->V));
      break;
    }
    case 's': {
      if (ArgIdx >= Args.size())
        return error("printf %s with a missing argument");
      auto P = asPointer(Args[ArgIdx++]);
      if (!P)
        return error("printf %s with a non-pointer argument");
      auto S = Mem.readString(*P);
      if (!S) {
        auto U = S.takeUB();
        U.Loc = Loc;
        return undef(std::move(U));
      }
      Printed += *S;
      break;
    }
    case 'p': {
      if (ArgIdx >= Args.size())
        return error("printf %p with a missing argument");
      const Value &V = Args[ArgIdx++];
      if (V.kind() == ValueKind::Unspecified) {
        ++Events.UnspecifiedIntoLibrary;
        Printed += "(unspec)";
        break;
      }
      auto P = asPointer(V);
      if (!P)
        return error("printf %p with a non-pointer argument");
      if (P->isNull())
        Printed += "(nil)";
      else
        Printed += "0x" + toHex(P->Addr);
      break;
    }
    default:
      return error(fmt("printf: unsupported conversion '%{0}'", Conv));
    }
  }
  Out += Printed;
  return Res(Value::specified(
      Value::integer(Int128(Printed.size()))));
}

Evaluator::Res Evaluator::callBuiltin(ail::Builtin B,
                                      std::vector<Value> &Args,
                                      SourceLoc Loc) {
  auto UB = [&](mem::UndefinedBehaviour U) {
    U.Loc = Loc;
    return undef(std::move(U));
  };
  auto IntArg = [&](size_t I) { return asInteger(Args[I]); };
  auto PtrArg = [&](size_t I) { return asPointer(Args[I]); };

  switch (B) {
  case ail::Builtin::Printf:
    return doPrintf(Args, Loc);

  case ail::Builtin::Malloc: {
    auto N = IntArg(0);
    if (!N)
      return error("malloc with a bad size");
    return Res(Value::specified(Value::pointer(
        Mem.allocateRegion(static_cast<uint64_t>(N->V), 16))));
  }
  case ail::Builtin::Calloc: {
    auto N = IntArg(0), S = IntArg(1);
    if (!N || !S)
      return error("calloc with bad arguments");
    uint64_t Total = static_cast<uint64_t>(N->V) *
                     static_cast<uint64_t>(S->V);
    mem::PointerValue P = Mem.allocateRegion(Total, 16);
    if (auto R = Mem.setBytes(P, 0, Total); !R)
      return UB(R.takeUB());
    return Res(Value::specified(Value::pointer(P)));
  }
  case ail::Builtin::Free: {
    auto P = PtrArg(0);
    if (!P)
      return error("free with a bad pointer argument");
    if (auto R = Mem.freeRegion(*P); !R)
      return UB(R.takeUB());
    return Res(Value::specified(Value::unit()));
  }
  case ail::Builtin::Memcpy:
  case ail::Builtin::Memmove: {
    auto D = PtrArg(0), S = PtrArg(1);
    auto N = IntArg(2);
    if (!D || !S || !N)
      return error("memcpy with bad arguments");
    if (auto R = Mem.copyBytes(*D, *S, static_cast<uint64_t>(N->V)); !R)
      return UB(R.takeUB());
    return Res(Value::specified(Value::pointer(*D)));
  }
  case ail::Builtin::Memset: {
    auto D = PtrArg(0);
    auto C = IntArg(1), N = IntArg(2);
    if (!D || !C || !N)
      return error("memset with bad arguments");
    if (auto R = Mem.setBytes(*D, static_cast<uint8_t>(C->V),
                              static_cast<uint64_t>(N->V));
        !R)
      return UB(R.takeUB());
    return Res(Value::specified(Value::pointer(*D)));
  }
  case ail::Builtin::Memcmp: {
    auto A = PtrArg(0), C = PtrArg(1);
    auto N = IntArg(2);
    if (!A || !C || !N)
      return error("memcmp with bad arguments");
    auto R = Mem.compareBytes(*A, *C, static_cast<uint64_t>(N->V));
    if (!R)
      return UB(R.takeUB());
    return Res(Value::specified(Value::integer(*R)));
  }
  case ail::Builtin::Strcpy: {
    auto D = PtrArg(0), S = PtrArg(1);
    if (!D || !S)
      return error("strcpy with bad arguments");
    auto Str = Mem.readString(*S);
    if (!Str)
      return UB(Str.takeUB());
    if (auto R = Mem.copyBytes(*D, *S, Str->size() + 1); !R)
      return UB(R.takeUB());
    return Res(Value::specified(Value::pointer(*D)));
  }
  case ail::Builtin::Strcmp: {
    auto A = PtrArg(0), C = PtrArg(1);
    if (!A || !C)
      return error("strcmp with bad arguments");
    auto SA = Mem.readString(*A);
    if (!SA)
      return UB(SA.takeUB());
    auto SC = Mem.readString(*C);
    if (!SC)
      return UB(SC.takeUB());
    int R = SA->compare(*SC);
    return Res(Value::specified(
        Value::integer(Int128(R < 0 ? -1 : R > 0 ? 1 : 0))));
  }
  case ail::Builtin::Puts: {
    auto P = PtrArg(0);
    if (!P)
      return error("puts with a bad pointer");
    auto S = Mem.readString(*P);
    if (!S)
      return UB(S.takeUB());
    Out += *S;
    Out += '\n';
    return Res(Value::specified(Value::integer(Int128(S->size() + 1))));
  }
  case ail::Builtin::Putchar: {
    auto C = IntArg(0);
    if (!C)
      return error("putchar with a bad argument");
    Out.push_back(static_cast<char>(C->V));
    return Res(Value::specified(Value::integer(C->V)));
  }
  case ail::Builtin::Realloc: {
    auto P = PtrArg(0);
    auto N = IntArg(1);
    if (!P || !N)
      return error("realloc with bad arguments");
    uint64_t NewSize = static_cast<uint64_t>(N->V);
    if (P->isNull())
      return Res(Value::specified(
          Value::pointer(Mem.allocateRegion(NewSize, 16))));
    if (!P->Prov.isAlloc())
      return UB(mem::undef(mem::UBKind::FreeInvalidPointer,
                           "realloc of a pointer with no allocation"));
    uint64_t OldSize = Mem.allocations()[P->Prov.AllocId].Size;
    mem::PointerValue NewP = Mem.allocateRegion(NewSize, 16);
    uint64_t CopyN = OldSize < NewSize ? OldSize : NewSize;
    if (CopyN > 0)
      if (auto R = Mem.copyBytes(NewP, *P, CopyN); !R)
        return UB(R.takeUB());
    if (auto R = Mem.freeRegion(*P); !R)
      return UB(R.takeUB());
    return Res(Value::specified(Value::pointer(NewP)));
  }
  case ail::Builtin::Strlen: {
    auto P = PtrArg(0);
    if (!P)
      return error("strlen with a bad pointer");
    auto S = Mem.readString(*P);
    if (!S)
      return UB(S.takeUB());
    return Res(
        Value::specified(Value::integer(Int128(S->size()))));
  }
  case ail::Builtin::Abort: {
    return exitSig(OutcomeKind::Abort, 0);
  }
  case ail::Builtin::Exit: {
    auto C = IntArg(0);
    return exitSig(OutcomeKind::Exit, C ? static_cast<int>(C->V) : 0);
  }
  case ail::Builtin::Assert: {
    const Value &V = Args[0];
    if (V.kind() == ValueKind::Unspecified) {
      auto U = mem::undef(mem::UBKind::IndeterminateValueUse,
                          "assertion on an unspecified value");
      U.Loc = Loc;
      return undef(std::move(U));
    }
    auto C = asInteger(V);
    if (!C)
      return error("__cerb_assert with a bad argument");
    if (C->V == 0) {
      return exitSig(OutcomeKind::AssertFail, 0,
                     fmt("assertion failed at {0}", Loc.str()));
    }
    return Res(Value::specified(Value::unit()));
  }
  }
  return error("unknown builtin");
}
