//===- smt/Blast.cpp - term -> CNF bit-blasting ------------------------------===//

#include "smt/Blast.h"

#include <cassert>

using namespace lv;
using namespace lv::smt;

BitBlaster::BitBlaster(const TermTable &TT, SatSolver &S) : TT(TT), S(S) {
  TrueLit = Lit(S.newVar(), false);
  S.addClause(TrueLit);
}

//===----------------------------------------------------------------------===//
// Gates
//===----------------------------------------------------------------------===//

// Gate keys pack the op tag and the operand literal codes into disjoint
// bit fields, so a key identifies its gate exactly while every operand
// fits its field. An operand past its field would alias another gate's
// key, so such a gate is built without the memo. Below 2^20 variables
// every operand fits, and the CNF is exactly the fully memoized encoding.
static constexpr int BinField = 30; ///< and/xor: Op<<60 | A<<30 | B.
static constexpr int MuxField = 21; ///< mux: 1<<63 | Sel<<42 | T<<21 | E.

static uint64_t code(Lit L) { return static_cast<uint32_t>(L.X); }
static bool fits(Lit L, int Bits) { return code(L) < (1ULL << Bits); }

static uint64_t gateKey(int Op, Lit A, Lit B) {
  // Commutative ops are normalized by the callers (sorted operands).
  return (static_cast<uint64_t>(Op) << 60) | (code(A) << BinField) | code(B);
}

Lit BitBlaster::gAnd(Lit A, Lit B) {
  bool CA, CB;
  if (isConstLit(A, CA))
    return CA ? B : falseLit();
  if (isConstLit(B, CB))
    return CB ? A : falseLit();
  if (A == B)
    return A;
  if (A == ~B)
    return falseLit();
  if (B.X < A.X)
    std::swap(A, B);
  Lit *Memo = nullptr;
  if (fits(A, BinField) && fits(B, BinField)) {
    bool Fresh;
    Memo = &GateCache.findOrInsert(gateKey(1, A, B), Fresh);
    if (!Fresh)
      return *Memo;
  }
  Lit Z = freshLit();
  S.addClause(~Z, A);
  S.addClause(~Z, B);
  S.addClause(~A, ~B, Z);
  if (Memo)
    *Memo = Z;
  return Z;
}

Lit BitBlaster::gXor(Lit A, Lit B) {
  bool CA, CB;
  if (isConstLit(A, CA))
    return CA ? ~B : B;
  if (isConstLit(B, CB))
    return CB ? ~A : A;
  if (A == B)
    return falseLit();
  if (A == ~B)
    return TrueLit;
  // Normalize: strip polarity into a result flip.
  bool Flip = false;
  if (A.sign()) {
    A = ~A;
    Flip = !Flip;
  }
  if (B.sign()) {
    B = ~B;
    Flip = !Flip;
  }
  if (B.X < A.X)
    std::swap(A, B);
  Lit *Memo = nullptr;
  if (fits(A, BinField) && fits(B, BinField)) {
    bool Fresh;
    Memo = &GateCache.findOrInsert(gateKey(2, A, B), Fresh);
    if (!Fresh)
      return Flip ? ~*Memo : *Memo;
  }
  Lit Z = freshLit();
  S.addClause(~Z, A, B);
  S.addClause(~Z, ~A, ~B);
  S.addClause(Z, ~A, B);
  S.addClause(Z, A, ~B);
  if (Memo)
    *Memo = Z;
  return Flip ? ~Z : Z;
}

Lit BitBlaster::gMux(Lit Sel, Lit T, Lit E) {
  bool C;
  if (isConstLit(Sel, C))
    return C ? T : E;
  if (T == E)
    return T;
  if (T == ~E) // mux(s, ~e, e) = s XOR e
    return gXor(Sel, E);
  Lit *Memo = nullptr;
  if (fits(Sel, MuxField) && fits(T, MuxField) && fits(E, MuxField)) {
    uint64_t Key = (1ULL << 63) | (code(Sel) << (2 * MuxField)) |
                   (code(T) << MuxField) | code(E);
    bool Fresh;
    Memo = &GateCache.findOrInsert(Key, Fresh);
    if (!Fresh)
      return *Memo;
  }
  Lit Z = freshLit();
  S.addClause(~Sel, ~T, Z);
  S.addClause(~Sel, T, ~Z);
  S.addClause(Sel, ~E, Z);
  S.addClause(Sel, E, ~Z);
  if (Memo)
    *Memo = Z;
  return Z;
}

//===----------------------------------------------------------------------===//
// Word helpers
//===----------------------------------------------------------------------===//

BitBlaster::Word BitBlaster::wConst(uint32_t V, int Width) {
  // Width can exceed 32 (e.g. double-width wMul accumulators); bits past
  // the value's width are zero, and shifting a uint32_t by >= 32 is UB.
  Word W(static_cast<size_t>(Width));
  for (int I = 0; I < Width; ++I)
    W[static_cast<size_t>(I)] = constLit(I < 32 && ((V >> I) & 1));
  return W;
}

BitBlaster::Word BitBlaster::wAdd(WordView A, WordView B, Lit CarryIn,
                                  Lit *CarryOut, Lit *CarryPrev) {
  size_t N = A.size();
  assert(B.size() == N);
  Word Sum(N);
  Lit C = CarryIn;
  Lit PrevC = CarryIn;
  for (size_t I = 0; I < N; ++I) {
    Lit AxB = gXor(A[I], B[I]);
    Sum[I] = gXor(AxB, C);
    PrevC = C;
    // carry = (a & b) | (c & (a ^ b))
    C = gOr(gAnd(A[I], B[I]), gAnd(C, AxB));
  }
  if (CarryOut)
    *CarryOut = C;
  if (CarryPrev)
    *CarryPrev = PrevC;
  return Sum;
}

BitBlaster::Word BitBlaster::wNeg(WordView A) {
  Word NotA(A.size());
  for (size_t I = 0; I < A.size(); ++I)
    NotA[I] = ~A[I];
  return wAdd(NotA, wConst(0, static_cast<int>(A.size())), TrueLit, nullptr,
              nullptr);
}

BitBlaster::Word BitBlaster::wMux(Lit Sel, WordView T, WordView E) {
  Word R(T.size());
  for (size_t I = 0; I < T.size(); ++I)
    R[I] = gMux(Sel, T[I], E[I]);
  return R;
}

Lit BitBlaster::wUlt(WordView A, WordView B) {
  Lit Lt = falseLit();
  for (size_t I = 0; I < A.size(); ++I) {
    Lit Diff = gXor(A[I], B[I]);
    Lt = gMux(Diff, B[I], Lt);
  }
  return Lt;
}

Lit BitBlaster::wEq(WordView A, WordView B) {
  Lit Eq = TrueLit;
  for (size_t I = 0; I < A.size(); ++I)
    Eq = gAnd(Eq, gXnor(A[I], B[I]));
  return Eq;
}

BitBlaster::Word BitBlaster::wMul(WordView A, WordView B,
                                  int OutWidth) {
  size_t N = static_cast<size_t>(OutWidth);
  Word Acc = wConst(0, OutWidth);
  for (size_t I = 0; I < A.size() && I < N; ++I) {
    // Partial product: (B << I) & A[I], truncated to OutWidth.
    bool CA;
    if (isConstLit(A[I], CA) && !CA)
      continue;
    Word PP(N, falseLit());
    for (size_t J = 0; I + J < N && J < B.size(); ++J)
      PP[I + J] = gAnd(B[J], A[I]);
    Acc = wAdd(Acc, PP, falseLit(), nullptr, nullptr);
  }
  return Acc;
}

void BitBlaster::wUDivRem(WordView A, WordView B, Word &Q, Word &R) {
  size_t N = A.size();
  Q.assign(N, falseLit());
  R = wConst(0, static_cast<int>(N));
  for (size_t Step = N; Step-- > 0;) {
    // R = (R << 1) | A[Step]
    Word R2(N);
    R2[0] = A[Step];
    for (size_t I = 1; I < N; ++I)
      R2[I] = R[I - 1];
    // If R2 >= B: R = R2 - B, Q[Step] = 1.
    Lit Ge = ~wUlt(R2, B);
    Word Diff = wAdd(R2, wNeg(B), falseLit(), nullptr, nullptr);
    R = wMux(Ge, Diff, R2);
    Q[Step] = Ge;
  }
}

BitBlaster::Word BitBlaster::wAbs(WordView A) {
  Lit Sign = A.back();
  return wMux(Sign, wNeg(A), A);
}

//===----------------------------------------------------------------------===//
// Term blasting
//===----------------------------------------------------------------------===//

const BitBlaster::PackedWord &BitBlaster::blastBv(TermId Id) {
  if (const PackedWord *Cached = bvCached(Id))
    return *Cached;
  checkCancelTick();
  const Term &T = TT.get(Id);
  // Operand recursion runs before this term's own gates are built, so
  // restoring on exit attributes every fresh variable below to Id.
  TermId SavedOwner = CurOwner;
  CurOwner = Id;
  Word W;
  switch (T.K) {
  case TK::Const:
    W = wConst(T.CVal);
    break;
  case TK::Var: {
    W.resize(32);
    for (int I = 0; I < 32; ++I)
      W[static_cast<size_t>(I)] = freshLit();
    VarsSeen.push_back(Id);
    break;
  }
  case TK::Add:
    W = wAdd(blastBv(T.A), blastBv(T.B), falseLit(), nullptr, nullptr);
    break;
  case TK::Sub: {
    const auto &B = blastBv(T.B);
    Word NotB(B.size());
    for (size_t I = 0; I < B.size(); ++I)
      NotB[I] = ~B[I];
    W = wAdd(blastBv(T.A), NotB, TrueLit, nullptr, nullptr);
    break;
  }
  case TK::Mul:
    W = wMul(blastBv(T.A), blastBv(T.B), 32);
    break;
  case TK::SDiv:
  case TK::SRem: {
    const auto &A = blastBv(T.A);
    const auto &B = blastBv(T.B);
    Word AbsA = wAbs(A), AbsB = wAbs(B);
    Word Q, R;
    wUDivRem(AbsA, AbsB, Q, R);
    if (T.K == TK::SDiv) {
      Lit QNeg = gXor(A.back(), B.back());
      W = wMux(QNeg, wNeg(Q), Q);
    } else {
      // Remainder takes the dividend's sign (C truncated semantics).
      W = wMux(A.back(), wNeg(R), R);
    }
    break;
  }
  case TK::BvAnd: {
    const auto &A = blastBv(T.A), &B = blastBv(T.B);
    W.resize(32);
    for (size_t I = 0; I < 32; ++I)
      W[I] = gAnd(A[I], B[I]);
    break;
  }
  case TK::BvOr: {
    const auto &A = blastBv(T.A), &B = blastBv(T.B);
    W.resize(32);
    for (size_t I = 0; I < 32; ++I)
      W[I] = gOr(A[I], B[I]);
    break;
  }
  case TK::BvXor: {
    const auto &A = blastBv(T.A), &B = blastBv(T.B);
    W.resize(32);
    for (size_t I = 0; I < 32; ++I)
      W[I] = gXor(A[I], B[I]);
    break;
  }
  case TK::BvNot: {
    const auto &A = blastBv(T.A);
    W.resize(32);
    for (size_t I = 0; I < 32; ++I)
      W[I] = ~A[I];
    break;
  }
  case TK::Shl:
  case TK::LShr:
  case TK::AShr: {
    const auto &A = blastBv(T.A);
    uint32_t CAmt;
    if (TT.isConst(T.B, CAmt)) {
      CAmt &= 31;
      W.assign(32, falseLit());
      if (T.K == TK::AShr)
        W.assign(32, A[31]);
      for (int I = 0; I < 32; ++I) {
        int Src = T.K == TK::Shl ? I - static_cast<int>(CAmt)
                                 : I + static_cast<int>(CAmt);
        if (Src >= 0 && Src < 32)
          W[static_cast<size_t>(I)] = A[static_cast<size_t>(Src)];
      }
    } else {
      // Barrel shifter over the low 5 amount bits.
      const auto &Amt = blastBv(T.B);
      W.assign(A.begin(), A.end());
      for (int Stage = 0; Stage < 5; ++Stage) {
        int Sh = 1 << Stage;
        Word Shifted(32);
        for (int I = 0; I < 32; ++I) {
          int Src = T.K == TK::Shl ? I - Sh : I + Sh;
          Lit Fill = T.K == TK::AShr ? W[31] : falseLit();
          Shifted[static_cast<size_t>(I)] =
              (Src >= 0 && Src < 32) ? W[static_cast<size_t>(Src)] : Fill;
        }
        W = wMux(Amt[static_cast<size_t>(Stage)], Shifted, W);
      }
    }
    break;
  }
  case TK::Ite:
    W = wMux(blastBool(T.A), blastBv(T.B), blastBv(T.C));
    break;
  default:
    assert(false && "blastBv on a bool term");
    W = wConst(0);
  }
  assert(W.size() == 32 && "BV words are 32 bits");
  CurOwner = SavedOwner;
  return internBv(Id, W);
}

Lit BitBlaster::blastBool(TermId Id) {
  Lit Cached;
  if (boolCached(Id, Cached))
    return Cached;
  checkCancelTick();
  const Term &T = TT.get(Id);
  TermId SavedOwner = CurOwner;
  CurOwner = Id;
  Lit L;
  switch (T.K) {
  case TK::True:
    L = TrueLit;
    break;
  case TK::False:
    L = falseLit();
    break;
  case TK::BVar:
    L = freshLit();
    VarsSeen.push_back(Id);
    break;
  case TK::Not:
    L = ~blastBool(T.A);
    break;
  case TK::And:
    L = gAnd(blastBool(T.A), blastBool(T.B));
    break;
  case TK::Or:
    L = gOr(blastBool(T.A), blastBool(T.B));
    break;
  case TK::BIte:
    L = gMux(blastBool(T.A), blastBool(T.B), blastBool(T.C));
    break;
  case TK::Eq:
    L = wEq(blastBv(T.A), blastBv(T.B));
    break;
  case TK::Ult:
    L = wUlt(blastBv(T.A), blastBv(T.B));
    break;
  case TK::Slt: {
    // Signed compare: flip sign bits, compare unsigned.
    const auto &PA = blastBv(T.A);
    const auto &PB = blastBv(T.B);
    Word A2(PA.begin(), PA.end()), B2(PB.begin(), PB.end());
    A2[31] = ~A2[31];
    B2[31] = ~B2[31];
    L = wUlt(A2, B2);
    break;
  }
  case TK::AddOvf: {
    const auto &A = blastBv(T.A), &B = blastBv(T.B);
    Word Sum = wAdd(A, B, falseLit(), nullptr, nullptr);
    // Signed overflow: operands share a sign that differs from the result.
    Lit SameSign = gXnor(A[31], B[31]);
    L = gAnd(SameSign, gXor(Sum[31], A[31]));
    break;
  }
  case TK::SubOvf: {
    const auto &A = blastBv(T.A), &B = blastBv(T.B);
    Word NotB(B.size());
    for (size_t I = 0; I < B.size(); ++I)
      NotB[I] = ~B[I];
    Word Diff = wAdd(A, NotB, TrueLit, nullptr, nullptr);
    Lit DiffSign = gXor(A[31], B[31]);
    L = gAnd(DiffSign, gXor(Diff[31], A[31]));
    break;
  }
  case TK::MulOvf: {
    // Full 64-bit product of sign-extended operands; overflow iff the top
    // 33 bits are not a sign-extension of bit 31.
    const auto &PA = blastBv(T.A);
    const auto &PB = blastBv(T.B);
    Word A64(PA.begin(), PA.end()), B64(PB.begin(), PB.end());
    A64.resize(64, A64[31]);
    B64.resize(64, B64[31]);
    Word P = wMul(A64, B64, 64);
    Lit Ovf = falseLit();
    for (size_t I = 32; I < 64; ++I)
      Ovf = gOr(Ovf, gXor(P[I], P[31]));
    L = Ovf;
    break;
  }
  default:
    assert(false && "blastBool on a bv term");
    L = falseLit();
  }
  CurOwner = SavedOwner;
  return internBool(Id, L);
}

bool BitBlaster::modelOfVar(TermId Id, uint32_t &Out) const {
  const PackedWord *Cached = bvCached(Id);
  if (!Cached)
    return false;
  const PackedWord &Bits = *Cached;
  uint32_t V = 0;
  for (int I = 0; I < 32; ++I) {
    Lit L = Bits[static_cast<size_t>(I)];
    bool Bit;
    if (isConstLit(L, Bit)) {
      // constant
    } else {
      Bit = S.modelValue(L.var()) != L.sign();
    }
    if (Bit)
      V |= 1u << I;
  }
  Out = V;
  return true;
}

bool BitBlaster::modelOfBVar(TermId Id, bool &Out) const {
  Lit L;
  if (!boolCached(Id, L))
    return false;
  bool Bit;
  if (isConstLit(L, Bit)) {
    Out = Bit;
    return true;
  }
  Out = S.modelValue(L.var()) != L.sign();
  return true;
}
