//===- smt/Term.cpp - hash-consed bit-vector/bool terms ---------------------===//

#include "smt/Term.h"

#include "support/Format.h"

#include <algorithm>
#include <cassert>

using namespace lv;
using namespace lv::smt;

bool lv::smt::isBvKind(TK K) {
  switch (K) {
  case TK::Const:
  case TK::Var:
  case TK::Add:
  case TK::Sub:
  case TK::Mul:
  case TK::SDiv:
  case TK::SRem:
  case TK::BvAnd:
  case TK::BvOr:
  case TK::BvXor:
  case TK::BvNot:
  case TK::Shl:
  case TK::LShr:
  case TK::AShr:
  case TK::Ite:
    return true;
  default:
    return false;
  }
}

TermTable::TermTable() {
  Term T;
  T.K = TK::True;
  TrueId = intern(T);
  T.K = TK::False;
  FalseId = intern(T);
}

void TermTable::reserve(size_t Expected) {
  // Clamp: MaxTerms is an upper *bound* (memout analogue), not an estimate;
  // reserving the full default 2M would cost ~50MB per session up front.
  constexpr size_t MaxReserve = size_t(1) << 20;
  size_t N = std::min(Expected, MaxReserve);
  Terms.reserve(N);
  VarNames.reserve(N);
  Unique.reserve(N);
  size_t Cap = size_t(1) << 12;
  while (Cap < N)
    Cap <<= 1;
  if (Memo.size() < Cap)
    memoGrow(Cap);
}

TermId TermTable::intern(Term T) {
  auto It = Unique.find(T);
  if (It != Unique.end())
    return It->second;
  TermId Id = static_cast<TermId>(Terms.size());
  Terms.push_back(T);
  VarNames.emplace_back();
  Unique.emplace(T, Id);
  return Id;
}

const std::string &TermTable::varName(TermId Id) const {
  return VarNames[static_cast<size_t>(Id)];
}

//===----------------------------------------------------------------------===//
// Rewrite memo
//===----------------------------------------------------------------------===//

TermId TermTable::memoGet(TK K, TermId A, TermId B, TermId C) const {
  if (Memo.empty())
    return NoTerm;
  size_t Mask = Memo.size() - 1;
  for (size_t I = memoIndex(K, A, B, C, Mask);; I = (I + 1) & Mask) {
    const MemoEntry &E = Memo[I];
    if (E.R == NoTerm)
      return NoTerm;
    if (E.K == K && E.A == A && E.B == B && E.C == C)
      return E.R;
  }
}

void TermTable::memoGrow(size_t NewCap) {
  std::vector<MemoEntry> Old = std::move(Memo);
  Memo.assign(NewCap, MemoEntry());
  size_t Mask = NewCap - 1;
  for (const MemoEntry &E : Old) {
    if (E.R == NoTerm)
      continue;
    size_t I = memoIndex(E.K, E.A, E.B, E.C, Mask);
    while (Memo[I].R != NoTerm)
      I = (I + 1) & Mask;
    Memo[I] = E;
  }
}

void TermTable::memoPut(TK K, TermId A, TermId B, TermId C, TermId R) {
  if (Memo.empty())
    memoGrow(size_t(1) << 12);
  else if (MemoLive * 10 >= Memo.size() * 6) // 60% load
    memoGrow(Memo.size() * 2);
  size_t Mask = Memo.size() - 1;
  size_t I = memoIndex(K, A, B, C, Mask);
  while (Memo[I].R != NoTerm) {
    if (Memo[I].K == K && Memo[I].A == A && Memo[I].B == B && Memo[I].C == C)
      return; // raced with a recursive rewrite of the same application
    I = (I + 1) & Mask;
  }
  Memo[I] = MemoEntry{K, A, B, C, R};
  ++MemoLive;
}

// Public constructors: memo probe first, rewrite chain on miss.
TermId TermTable::mkNot(TermId X) {
  return memoized(TK::Not, X, NoTerm, NoTerm, [&] { return rwNot(X); });
}
TermId TermTable::mkAnd(TermId X, TermId Y) {
  return memoized(TK::And, X, Y, NoTerm, [&] { return rwAnd(X, Y); });
}
TermId TermTable::mkOr(TermId X, TermId Y) {
  return memoized(TK::Or, X, Y, NoTerm, [&] { return rwOr(X, Y); });
}
TermId TermTable::mkBIte(TermId C, TermId T, TermId E) {
  return memoized(TK::BIte, C, T, E, [&] { return rwBIte(C, T, E); });
}
TermId TermTable::mkEq(TermId X, TermId Y) {
  return memoized(TK::Eq, X, Y, NoTerm, [&] { return rwEq(X, Y); });
}
TermId TermTable::mkUlt(TermId X, TermId Y) {
  return memoized(TK::Ult, X, Y, NoTerm, [&] { return rwUlt(X, Y); });
}
TermId TermTable::mkSlt(TermId X, TermId Y) {
  return memoized(TK::Slt, X, Y, NoTerm, [&] { return rwSlt(X, Y); });
}
TermId TermTable::mkAddOvf(TermId X, TermId Y) {
  return memoized(TK::AddOvf, X, Y, NoTerm, [&] { return rwAddOvf(X, Y); });
}
TermId TermTable::mkSubOvf(TermId X, TermId Y) {
  return memoized(TK::SubOvf, X, Y, NoTerm, [&] { return rwSubOvf(X, Y); });
}
TermId TermTable::mkMulOvf(TermId X, TermId Y) {
  return memoized(TK::MulOvf, X, Y, NoTerm, [&] { return rwMulOvf(X, Y); });
}
// The six ite-lifting kinds run liftIte, which falls back to their
// rewrite body.
TermId TermTable::mkAdd(TermId X, TermId Y) {
  return memoized(TK::Add, X, Y, NoTerm,
                  [&] { return liftIte(TK::Add, X, Y, &TermTable::rwAdd); });
}
TermId TermTable::mkSub(TermId X, TermId Y) {
  return memoized(TK::Sub, X, Y, NoTerm,
                  [&] { return liftIte(TK::Sub, X, Y, &TermTable::rwSub); });
}
TermId TermTable::mkMul(TermId X, TermId Y) {
  return memoized(TK::Mul, X, Y, NoTerm,
                  [&] { return liftIte(TK::Mul, X, Y, &TermTable::rwMul); });
}
TermId TermTable::mkSDiv(TermId X, TermId Y) {
  return memoized(TK::SDiv, X, Y, NoTerm, [&] { return rwSDiv(X, Y); });
}
TermId TermTable::mkSRem(TermId X, TermId Y) {
  return memoized(TK::SRem, X, Y, NoTerm, [&] { return rwSRem(X, Y); });
}
TermId TermTable::mkBvAnd(TermId X, TermId Y) {
  return memoized(TK::BvAnd, X, Y, NoTerm, [&] {
    return liftIte(TK::BvAnd, X, Y, &TermTable::rwBvAnd);
  });
}
TermId TermTable::mkBvOr(TermId X, TermId Y) {
  return memoized(TK::BvOr, X, Y, NoTerm,
                  [&] { return liftIte(TK::BvOr, X, Y, &TermTable::rwBvOr); });
}
TermId TermTable::mkBvXor(TermId X, TermId Y) {
  return memoized(TK::BvXor, X, Y, NoTerm, [&] {
    return liftIte(TK::BvXor, X, Y, &TermTable::rwBvXor);
  });
}
TermId TermTable::mkBvNot(TermId X) {
  return memoized(TK::BvNot, X, NoTerm, NoTerm, [&] { return rwBvNot(X); });
}
TermId TermTable::mkShl(TermId X, TermId Y) {
  return memoized(TK::Shl, X, Y, NoTerm, [&] { return rwShl(X, Y); });
}
TermId TermTable::mkLShr(TermId X, TermId Y) {
  return memoized(TK::LShr, X, Y, NoTerm, [&] { return rwLShr(X, Y); });
}
TermId TermTable::mkAShr(TermId X, TermId Y) {
  return memoized(TK::AShr, X, Y, NoTerm, [&] { return rwAShr(X, Y); });
}
TermId TermTable::mkIte(TermId C, TermId T, TermId E) {
  return memoized(TK::Ite, C, T, E, [&] { return rwIte(C, T, E); });
}

TermId TermTable::mkBVar(const std::string &Name) {
  Term T;
  T.K = TK::BVar;
  T.CVal = NextVarOrdinal++;
  TermId Id = intern(T);
  VarNames[static_cast<size_t>(Id)] = Name;
  return Id;
}

TermId TermTable::mkVar(const std::string &Name) {
  Term T;
  T.K = TK::Var;
  T.CVal = NextVarOrdinal++;
  TermId Id = intern(T);
  VarNames[static_cast<size_t>(Id)] = Name;
  return Id;
}

TermId TermTable::mkConst(uint32_t V) {
  Term T;
  T.K = TK::Const;
  T.CVal = V;
  return intern(T);
}

//===----------------------------------------------------------------------===//
// Bool constructors
//===----------------------------------------------------------------------===//

TermId TermTable::rwNot(TermId X) {
  if (X == TrueId)
    return FalseId;
  if (X == FalseId)
    return TrueId;
  const Term &TX = get(X);
  if (TX.K == TK::Not)
    return TX.A; // !!x = x
  Term T;
  T.K = TK::Not;
  T.A = X;
  return intern(T);
}

TermId TermTable::rwAnd(TermId X, TermId Y) {
  if (X == FalseId || Y == FalseId)
    return FalseId;
  if (X == TrueId)
    return Y;
  if (Y == TrueId)
    return X;
  if (X == Y)
    return X;
  // x && !x = false
  if (get(X).K == TK::Not && get(X).A == Y)
    return FalseId;
  if (get(Y).K == TK::Not && get(Y).A == X)
    return FalseId;
  if (X > Y)
    std::swap(X, Y);
  Term T;
  T.K = TK::And;
  T.A = X;
  T.B = Y;
  return intern(T);
}

TermId TermTable::rwOr(TermId X, TermId Y) {
  if (X == TrueId || Y == TrueId)
    return TrueId;
  if (X == FalseId)
    return Y;
  if (Y == FalseId)
    return X;
  if (X == Y)
    return X;
  if (get(X).K == TK::Not && get(X).A == Y)
    return TrueId;
  if (get(Y).K == TK::Not && get(Y).A == X)
    return TrueId;
  if (X > Y)
    std::swap(X, Y);
  Term T;
  T.K = TK::Or;
  T.A = X;
  T.B = Y;
  return intern(T);
}

TermId TermTable::rwBIte(TermId C, TermId T0, TermId E) {
  if (C == TrueId)
    return T0;
  if (C == FalseId)
    return E;
  if (T0 == E)
    return T0;
  if (T0 == TrueId && E == FalseId)
    return C;
  if (T0 == FalseId && E == TrueId)
    return mkNot(C);
  if (get(C).K == TK::Not)
    return mkBIte(get(C).A, E, T0);
  Term T;
  T.K = TK::BIte;
  T.A = C;
  T.B = T0;
  T.C = E;
  return intern(T);
}

TermId TermTable::rwEq(TermId X, TermId Y) {
  if (X == Y)
    return TrueId;
  uint32_t CX, CY;
  if (isConst(X, CX) && isConst(Y, CY))
    return mkBool(CX == CY);
  // (x + c1) == c2  ->  x == c2 - c1  (normalizes unrolled index checks)
  if (isConst(Y, CY)) {
    const Term &TX0 = get(X);
    uint32_t C1;
    if (TX0.K == TK::Add && isConst(TX0.B, C1))
      return mkEq(TX0.A, mkConst(CY - C1));
  }
  // Ite-hoisting: the refinement queries compare guarded memory writes
  // `ite(g_src, v, base)` against `ite(g_tgt, v', base')`. Hoisting the
  // conditions out of the equality lets shared values cancel syntactically
  // instead of dragging their circuits (multipliers!) into the SAT search.
  {
    const Term TX = get(X);
    const Term TY = get(Y);
    if (TX.K == TK::Ite && TY.K == TK::Ite && TX.B == TY.B &&
        TX.C == TY.C) {
      // Equal when the conditions agree, else when the arms coincide.
      TermId Iff = mkOr(mkAnd(TX.A, TY.A), mkAnd(mkNot(TX.A), mkNot(TY.A)));
      return mkOr(Iff, mkEq(TX.B, TX.C));
    }
    if (TX.K == TK::Ite && (TX.B == Y || TX.C == Y)) {
      // ite(c, Y, b) == Y  ->  c || (b == Y); dual for the other arm.
      if (TX.B == Y)
        return mkOr(TX.A, mkEq(TX.C, Y));
      return mkOr(mkNot(TX.A), mkEq(TX.B, Y));
    }
    if (TY.K == TK::Ite && (TY.B == X || TY.C == X)) {
      if (TY.B == X)
        return mkOr(TY.A, mkEq(TY.C, X));
      return mkOr(mkNot(TY.A), mkEq(TY.B, X));
    }
  }
  if (X > Y)
    std::swap(X, Y);
  Term T;
  T.K = TK::Eq;
  T.A = X;
  T.B = Y;
  return intern(T);
}

TermId TermTable::rwUlt(TermId X, TermId Y) {
  if (X == Y)
    return FalseId;
  uint32_t CX, CY;
  if (isConst(X, CX) && isConst(Y, CY))
    return mkBool(CX < CY);
  if (isConst(Y, CY) && CY == 0)
    return FalseId; // x <u 0 is false
  Term T;
  T.K = TK::Ult;
  T.A = X;
  T.B = Y;
  return intern(T);
}

TermId TermTable::rwSlt(TermId X, TermId Y) {
  if (X == Y)
    return FalseId;
  uint32_t CX, CY;
  if (isConst(X, CX) && isConst(Y, CY))
    return mkBool(static_cast<int32_t>(CX) < static_cast<int32_t>(CY));
  Term T;
  T.K = TK::Slt;
  T.A = X;
  T.B = Y;
  return intern(T);
}

static bool addOvf(int32_t A, int32_t B) {
  int64_t R = static_cast<int64_t>(A) + B;
  return R < INT32_MIN || R > INT32_MAX;
}
static bool subOvf(int32_t A, int32_t B) {
  int64_t R = static_cast<int64_t>(A) - B;
  return R < INT32_MIN || R > INT32_MAX;
}
bool lv::smt::mulOverflows(int32_t A, int32_t B) {
  int64_t R = static_cast<int64_t>(A) * B;
  return R < INT32_MIN || R > INT32_MAX;
}

TermId TermTable::rwAddOvf(TermId X, TermId Y) {
  uint32_t CX, CY;
  if (isConst(X, CX) && isConst(Y, CY))
    return mkBool(addOvf(static_cast<int32_t>(CX), static_cast<int32_t>(CY)));
  if (isConst(X, CX) && CX == 0)
    return FalseId;
  if (isConst(Y, CY) && CY == 0)
    return FalseId;
  if (X > Y)
    std::swap(X, Y);
  Term T;
  T.K = TK::AddOvf;
  T.A = X;
  T.B = Y;
  return intern(T);
}

TermId TermTable::rwSubOvf(TermId X, TermId Y) {
  uint32_t CX, CY;
  if (isConst(X, CX) && isConst(Y, CY))
    return mkBool(subOvf(static_cast<int32_t>(CX), static_cast<int32_t>(CY)));
  if (isConst(Y, CY) && CY == 0)
    return FalseId;
  if (X == Y)
    return FalseId;
  Term T;
  T.K = TK::SubOvf;
  T.A = X;
  T.B = Y;
  return intern(T);
}

TermId TermTable::rwMulOvf(TermId X, TermId Y) {
  uint32_t CX, CY;
  if (isConst(X, CX) && isConst(Y, CY))
    return mkBool(
        mulOverflows(static_cast<int32_t>(CX), static_cast<int32_t>(CY)));
  if ((isConst(X, CX) && (CX == 0 || CX == 1)) ||
      (isConst(Y, CY) && (CY == 0 || CY == 1)))
    return FalseId;
  if (X > Y)
    std::swap(X, Y);
  Term T;
  T.K = TK::MulOvf;
  T.A = X;
  T.B = Y;
  return intern(T);
}

//===----------------------------------------------------------------------===//
// BV constructors
//===----------------------------------------------------------------------===//

TermId TermTable::rwAdd(TermId X, TermId Y) {
  uint32_t CX, CY;
  if (isConst(X, CX) && isConst(Y, CY))
    return mkConst(CX + CY);
  if (isConst(X, CX) && CX == 0)
    return Y;
  if (isConst(Y, CY) && CY == 0)
    return X;
  // Keep constants on the right and flatten (x + c1) + c2.
  if (isConst(X))
    std::swap(X, Y);
  if (isConst(Y, CY)) {
    const Term &TX = get(X);
    uint32_t C1;
    if (TX.K == TK::Add && isConst(TX.B, C1))
      return mkAdd(TX.A, mkConst(C1 + CY));
    if (TX.K == TK::Sub && isConst(TX.B, C1))
      return mkAdd(TX.A, mkConst(CY - C1));
  }
  if (!isConst(Y) && X > Y)
    std::swap(X, Y);
  Term T;
  T.K = TK::Add;
  T.A = X;
  T.B = Y;
  return intern(T);
}

TermId TermTable::rwSub(TermId X, TermId Y) {
  uint32_t CX, CY;
  if (isConst(X, CX) && isConst(Y, CY))
    return mkConst(CX - CY);
  if (isConst(Y, CY) && CY == 0)
    return X;
  if (X == Y)
    return mkConst(0);
  if (isConst(Y, CY))
    return mkAdd(X, mkConst(-CY)); // normalize x - c to x + (-c)
  Term T;
  T.K = TK::Sub;
  T.A = X;
  T.B = Y;
  return intern(T);
}

TermId TermTable::rwMul(TermId X, TermId Y) {
  uint32_t CX, CY;
  if (isConst(X, CX) && isConst(Y, CY))
    return mkConst(CX * CY);
  if (isConst(X))
    std::swap(X, Y);
  if (isConst(Y, CY)) {
    if (CY == 0)
      return mkConst(0);
    if (CY == 1)
      return X;
  }
  if (!isConst(Y) && X > Y)
    std::swap(X, Y);
  Term T;
  T.K = TK::Mul;
  T.A = X;
  T.B = Y;
  return intern(T);
}

TermId TermTable::rwSDiv(TermId X, TermId Y) {
  uint32_t CX, CY;
  if (isConst(X, CX) && isConst(Y, CY) && CY != 0 &&
      !(CX == 0x80000000u && CY == 0xffffffffu))
    return mkConstS(static_cast<int32_t>(CX) / static_cast<int32_t>(CY));
  if (isConst(Y, CY) && CY == 1)
    return X;
  Term T;
  T.K = TK::SDiv;
  T.A = X;
  T.B = Y;
  return intern(T);
}

TermId TermTable::rwSRem(TermId X, TermId Y) {
  uint32_t CX, CY;
  if (isConst(X, CX) && isConst(Y, CY) && CY != 0 &&
      !(CX == 0x80000000u && CY == 0xffffffffu))
    return mkConstS(static_cast<int32_t>(CX) % static_cast<int32_t>(CY));
  if (isConst(Y, CY) && CY == 1)
    return mkConst(0);
  // x % 2^k  ->  ite(x >=s 0, x & (2^k-1), -((-x) & (2^k-1))).
  // This keeps the common divisibility assumptions out of the divider
  // circuit entirely.
  if (isConst(Y, CY) && CY != 0 && (CY & (CY - 1)) == 0) {
    TermId Mask = mkConst(CY - 1);
    TermId NonNeg = mkSge(X, mkConst(0));
    TermId PosCase = mkBvAnd(X, Mask);
    TermId NegCase = mkNeg(mkBvAnd(mkNeg(X), Mask));
    return mkIte(NonNeg, PosCase, NegCase);
  }
  Term T;
  T.K = TK::SRem;
  T.A = X;
  T.B = Y;
  return intern(T);
}

TermId TermTable::rwBvAnd(TermId X, TermId Y) {
  uint32_t CX, CY;
  if (isConst(X, CX) && isConst(Y, CY))
    return mkConst(CX & CY);
  if (X == Y)
    return X;
  if (isConst(X))
    std::swap(X, Y);
  if (isConst(Y, CY)) {
    if (CY == 0)
      return mkConst(0);
    if (CY == 0xffffffffu)
      return X;
  }
  if (!isConst(Y) && X > Y)
    std::swap(X, Y);
  Term T;
  T.K = TK::BvAnd;
  T.A = X;
  T.B = Y;
  return intern(T);
}

TermId TermTable::rwBvOr(TermId X, TermId Y) {
  uint32_t CX, CY;
  if (isConst(X, CX) && isConst(Y, CY))
    return mkConst(CX | CY);
  if (X == Y)
    return X;
  if (isConst(X))
    std::swap(X, Y);
  if (isConst(Y, CY)) {
    if (CY == 0)
      return X;
    if (CY == 0xffffffffu)
      return mkConst(0xffffffffu);
  }
  if (!isConst(Y) && X > Y)
    std::swap(X, Y);
  Term T;
  T.K = TK::BvOr;
  T.A = X;
  T.B = Y;
  return intern(T);
}

TermId TermTable::rwBvXor(TermId X, TermId Y) {
  uint32_t CX, CY;
  if (isConst(X, CX) && isConst(Y, CY))
    return mkConst(CX ^ CY);
  if (X == Y)
    return mkConst(0);
  if (isConst(X))
    std::swap(X, Y);
  if (isConst(Y, CY) && CY == 0)
    return X;
  if (!isConst(Y) && X > Y)
    std::swap(X, Y);
  Term T;
  T.K = TK::BvXor;
  T.A = X;
  T.B = Y;
  return intern(T);
}

TermId TermTable::rwBvNot(TermId X) {
  uint32_t CX;
  if (isConst(X, CX))
    return mkConst(~CX);
  if (get(X).K == TK::BvNot)
    return get(X).A;
  Term T;
  T.K = TK::BvNot;
  T.A = X;
  return intern(T);
}

TermId TermTable::rwShl(TermId X, TermId Y) {
  uint32_t CX, CY;
  if (isConst(Y, CY)) {
    CY &= 31;
    if (isConst(X, CX))
      return mkConst(CX << CY);
    if (CY == 0)
      return X;
    Y = mkConst(CY);
  }
  Term T;
  T.K = TK::Shl;
  T.A = X;
  T.B = Y;
  return intern(T);
}

TermId TermTable::rwLShr(TermId X, TermId Y) {
  uint32_t CX, CY;
  if (isConst(Y, CY)) {
    CY &= 31;
    if (isConst(X, CX))
      return mkConst(CX >> CY);
    if (CY == 0)
      return X;
    Y = mkConst(CY);
  }
  Term T;
  T.K = TK::LShr;
  T.A = X;
  T.B = Y;
  return intern(T);
}

TermId TermTable::rwAShr(TermId X, TermId Y) {
  uint32_t CX, CY;
  if (isConst(Y, CY)) {
    CY &= 31;
    if (isConst(X, CX))
      return mkConstS(static_cast<int32_t>(CX) >> CY);
    if (CY == 0)
      return X;
    Y = mkConst(CY);
  }
  Term T;
  T.K = TK::AShr;
  T.A = X;
  T.B = Y;
  return intern(T);
}

TermId TermTable::rwIte(TermId C, TermId T0, TermId E) {
  if (C == TrueId)
    return T0;
  if (C == FalseId)
    return E;
  if (T0 == E)
    return T0;
  if (get(C).K == TK::Not)
    return mkIte(get(C).A, E, T0);
  // Nested ite with the same condition.
  if (get(T0).K == TK::Ite && get(T0).A == C)
    return mkIte(C, get(T0).B, E);
  if (get(E).K == TK::Ite && get(E).A == C)
    return mkIte(C, T0, get(E).C);
  Term T;
  T.K = TK::Ite;
  T.A = C;
  T.B = T0;
  T.C = E;
  return intern(T);
}

//===----------------------------------------------------------------------===//
// Mask idioms
//===----------------------------------------------------------------------===//

TermId TermTable::mkBin(TK K, TermId X, TermId Y) {
  switch (K) {
  case TK::Add: return mkAdd(X, Y);
  case TK::Sub: return mkSub(X, Y);
  case TK::Mul: return mkMul(X, Y);
  case TK::BvAnd: return mkBvAnd(X, Y);
  case TK::BvOr: return mkBvOr(X, Y);
  case TK::BvXor: return mkBvXor(X, Y);
  default: break;
  }
  assert(false && "mkBin: not an ite-lifting kind");
  return NoTerm;
}

TermId TermTable::liftIte(TK K, TermId X, TermId Y, RewriteFn Rewrite) {
  // Copies: the mk* calls below may grow `Terms`.
  const Term TX = get(X), TY = get(Y);
  bool IteX = TX.K == TK::Ite, IteY = TY.K == TK::Ite;
  if (!IteX && !IteY)
    return (this->*Rewrite)(X, Y);
  auto ConstArms = [&](const Term &I) {
    return isConst(I.B) && isConst(I.C);
  };
  // Constant-armed ite against a constant: op(ite(c,k1,k2), k3) ->
  // ite(c, k1 op k3, k2 op k3), and the mirror. Both arms fold.
  if (IteX && isConst(Y) && ConstArms(TX))
    return mkIte(TX.A, mkBin(K, TX.B, Y), mkBin(K, TX.C, Y));
  if (IteY && isConst(X) && ConstArms(TY))
    return mkIte(TY.A, mkBin(K, X, TY.B), mkBin(K, X, TY.C));
  // Shared guard: op(ite(c,x,a), ite(c,y,b)) -> ite(c, x op y, a op b)
  // when one pair of arms is constant, so one op node remains.
  if (IteX && IteY && TX.A == TY.A &&
      ((isConst(TX.B) && isConst(TY.B)) || (isConst(TX.C) && isConst(TY.C))))
    return mkIte(TX.A, mkBin(K, TX.B, TY.B), mkBin(K, TX.C, TY.C));
  // Identity arm: x + ite(c,y,0) -> ite(c, x + y, x), and the mirrors.
  if (K == TK::Add && IteX != IteY) {
    TermId Base = IteX ? Y : X;
    const Term &I = IteX ? TX : TY;
    uint32_t Z;
    if (isConst(I.C, Z) && Z == 0)
      return mkIte(I.A, mkAdd(Base, I.B), Base);
    if (isConst(I.B, Z) && Z == 0)
      return mkIte(I.A, Base, mkAdd(Base, I.C));
  }
  return (this->*Rewrite)(X, Y);
}

//===----------------------------------------------------------------------===//
// Evaluation
//===----------------------------------------------------------------------===//

uint32_t TermTable::evalCone(
    TermId Root, const std::unordered_map<TermId, uint32_t> &Env) const {
  // Operands are interned before the terms that use them, so a sweep over
  // the root's cone in ascending id order finds every operand's value
  // ready. Marking the cone and sweeping keeps deep DAGs off the stack.
  size_t N = static_cast<size_t>(Root) + 1;
  std::vector<char> InCone(N, 0);
  std::vector<uint32_t> Val(N, 0);
  std::vector<TermId> Stack{Root};
  InCone[N - 1] = 1;
  while (!Stack.empty()) {
    const Term &T = get(Stack.back());
    Stack.pop_back();
    for (TermId Op : {T.A, T.B, T.C}) {
      if (Op != NoTerm && !InCone[static_cast<size_t>(Op)]) {
        InCone[static_cast<size_t>(Op)] = 1;
        Stack.push_back(Op);
      }
    }
  }
  for (size_t Id = 0; Id < N; ++Id) {
    if (!InCone[Id])
      continue;
    const Term &T = Terms[Id];
    auto B = [&](TermId K) { return Val[static_cast<size_t>(K)]; };
    uint32_t R = 0;
    switch (T.K) {
    case TK::True: R = 1; break;
    case TK::False: R = 0; break;
    case TK::BVar:
    case TK::Var: {
      auto It = Env.find(static_cast<TermId>(Id));
      R = It == Env.end() ? 0u : It->second;
      break;
    }
    case TK::Not: R = B(T.A) ? 0 : 1; break;
    case TK::And: R = (B(T.A) && B(T.B)) ? 1 : 0; break;
    case TK::Or: R = (B(T.A) || B(T.B)) ? 1 : 0; break;
    case TK::BIte: R = B(T.A) ? B(T.B) : B(T.C); break;
    case TK::Eq: R = B(T.A) == B(T.B) ? 1 : 0; break;
    case TK::Ult: R = B(T.A) < B(T.B) ? 1 : 0; break;
    case TK::Slt:
      R = static_cast<int32_t>(B(T.A)) < static_cast<int32_t>(B(T.B)) ? 1 : 0;
      break;
    case TK::AddOvf:
      R = addOvf(static_cast<int32_t>(B(T.A)), static_cast<int32_t>(B(T.B)));
      break;
    case TK::SubOvf:
      R = subOvf(static_cast<int32_t>(B(T.A)), static_cast<int32_t>(B(T.B)));
      break;
    case TK::MulOvf:
      R = mulOverflows(static_cast<int32_t>(B(T.A)),
                       static_cast<int32_t>(B(T.B)));
      break;
    case TK::Const: R = T.CVal; break;
    case TK::Add: R = B(T.A) + B(T.B); break;
    case TK::Sub: R = B(T.A) - B(T.B); break;
    case TK::Mul: R = B(T.A) * B(T.B); break;
    case TK::SDiv: {
      int32_t Num = static_cast<int32_t>(B(T.A));
      int32_t D = static_cast<int32_t>(B(T.B));
      R = (D == 0 || (Num == INT32_MIN && D == -1))
              ? 0u
              : static_cast<uint32_t>(Num / D);
      break;
    }
    case TK::SRem: {
      int32_t Num = static_cast<int32_t>(B(T.A));
      int32_t D = static_cast<int32_t>(B(T.B));
      R = (D == 0 || (Num == INT32_MIN && D == -1))
              ? 0u
              : static_cast<uint32_t>(Num % D);
      break;
    }
    case TK::BvAnd: R = B(T.A) & B(T.B); break;
    case TK::BvOr: R = B(T.A) | B(T.B); break;
    case TK::BvXor: R = B(T.A) ^ B(T.B); break;
    case TK::BvNot: R = ~B(T.A); break;
    case TK::Shl: R = B(T.A) << (B(T.B) & 31); break;
    case TK::LShr: R = B(T.A) >> (B(T.B) & 31); break;
    case TK::AShr:
      R = static_cast<uint32_t>(static_cast<int32_t>(B(T.A)) >>
                                (B(T.B) & 31));
      break;
    case TK::Ite: R = B(T.A) ? B(T.B) : B(T.C); break;
    }
    Val[Id] = R;
  }
  return Val[N - 1];
}

uint32_t
TermTable::evalBv(TermId Id,
                  const std::unordered_map<TermId, uint32_t> &Env) const {
  return evalCone(Id, Env);
}

bool TermTable::evalBool(
    TermId Id, const std::unordered_map<TermId, uint32_t> &Env) const {
  return evalCone(Id, Env) != 0;
}

//===----------------------------------------------------------------------===//
// Printing
//===----------------------------------------------------------------------===//

static const char *kindName(TK K) {
  switch (K) {
  case TK::True: return "true";
  case TK::False: return "false";
  case TK::BVar: return "bvar";
  case TK::Not: return "not";
  case TK::And: return "and";
  case TK::Or: return "or";
  case TK::BIte: return "bite";
  case TK::Eq: return "=";
  case TK::Ult: return "bvult";
  case TK::Slt: return "bvslt";
  case TK::AddOvf: return "saddo";
  case TK::SubOvf: return "ssubo";
  case TK::MulOvf: return "smulo";
  case TK::Const: return "const";
  case TK::Var: return "var";
  case TK::Add: return "bvadd";
  case TK::Sub: return "bvsub";
  case TK::Mul: return "bvmul";
  case TK::SDiv: return "bvsdiv";
  case TK::SRem: return "bvsrem";
  case TK::BvAnd: return "bvand";
  case TK::BvOr: return "bvor";
  case TK::BvXor: return "bvxor";
  case TK::BvNot: return "bvnot";
  case TK::Shl: return "bvshl";
  case TK::LShr: return "bvlshr";
  case TK::AShr: return "bvashr";
  case TK::Ite: return "ite";
  }
  return "?";
}

std::string TermTable::print(TermId Id) const {
  const Term &T = get(Id);
  switch (T.K) {
  case TK::True: return "true";
  case TK::False: return "false";
  case TK::Const:
    return format("#x%08x", T.CVal);
  case TK::Var:
  case TK::BVar: {
    const std::string &N = varName(Id);
    return N.empty() ? format("v%u", T.CVal) : N;
  }
  default:
    break;
  }
  std::string S = std::string("(") + kindName(T.K);
  if (T.A != NoTerm)
    S += " " + print(T.A);
  if (T.B != NoTerm)
    S += " " + print(T.B);
  if (T.C != NoTerm)
    S += " " + print(T.C);
  return S + ")";
}
