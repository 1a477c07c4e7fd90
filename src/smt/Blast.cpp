//===- smt/Blast.cpp - term -> CNF bit-blasting ------------------------------===//

#include "smt/Blast.h"

#include "obs/Metrics.h"

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

Lit BitBlaster::wMulOvf(WordView A, WordView B) {
  // Unsigned 64-bit product of the zero-extended operands. Its low half is
  // exactly the 32-bit Mul circuit: the low bits of every ripple add are
  // the same gates over the same literals, so the gate memo shares them.
  Word P = wMul(A, B, 64);
  // Signed high half: hi(a*b) - (a < 0 ? b : 0) - (b < 0 ? a : 0).
  Word Hi(P.begin() + 32, P.end());
  Word NotB(32), NotA(32);
  for (size_t I = 0; I < 32; ++I) {
    NotB[I] = ~gAnd(A[31], B[I]);
    NotA[I] = ~gAnd(B[31], A[I]);
  }
  Hi = wAdd(Hi, NotB, TrueLit, nullptr, nullptr);
  Hi = wAdd(Hi, NotA, TrueLit, nullptr, nullptr);
  // Overflow iff the high half is not the sign extension of bit 31.
  Lit Ovf = falseLit();
  for (size_t I = 0; I < 32; ++I)
    Ovf = gOr(Ovf, gXor(Hi[I], P[31]));
  return Ovf;
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
// Multiplier abstraction
//===----------------------------------------------------------------------===//

bool BitBlaster::abstractMul(TermId Id) {
  const Term &T = TT.get(Id);
  if (TT.isConst(T.A) || TT.isConst(T.B))
    return false;
  // Operand words are blasted now: refinement reads their model values
  // and builds the exact circuit over them.
  blastBv(T.A);
  blastBv(T.B);
  Muls.push_back(MulInstance{Id, false});
  static obs::Counter &Abstracted = obs::counter("smt.mul_abstracted");
  Abstracted.inc();
  return true;
}

size_t BitBlaster::refineMismatched() {
  size_t Refined = 0;
  auto tie = [this](Lit Abstract, Lit Exact) {
    S.addClause(~Abstract, Exact);
    S.addClause(Abstract, ~Exact);
  };
  for (MulInstance &M : Muls) {
    if (M.Refined)
      continue;
    const Term &T = TT.get(M.Id);
    const PackedWord &A = *bvCached(T.A);
    const PackedWord &B = *bvCached(T.B);
    uint32_t VA = modelWord(A), VB = modelWord(B);
    if (T.K == TK::Mul) {
      const PackedWord &Out = *bvCached(M.Id);
      if (modelWord(Out) == VA * VB)
        continue;
      Word Exact = wMul(A, B, 32);
      for (size_t I = 0; I < 32; ++I)
        tie(Out[I], Exact[I]);
    } else {
      Lit Out = BoolCache[static_cast<size_t>(M.Id)];
      if (modelLit(Out) == mulOverflows(static_cast<int32_t>(VA),
                                        static_cast<int32_t>(VB)))
        continue;
      tie(Out, wMulOvf(A, B));
    }
    M.Refined = true;
    ++Refined;
  }
  static obs::Counter &RefinedCount = obs::counter("smt.mul_refined");
  RefinedCount.inc(Refined);
  return Refined;
}

//===----------------------------------------------------------------------===//
// Term blasting
//===----------------------------------------------------------------------===//

const BitBlaster::PackedWord &BitBlaster::blastBv(TermId Id) {
  if (const PackedWord *Cached = bvCached(Id))
    return *Cached;
  checkCancelTick();
  const Term &T = TT.get(Id);
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
    if (abstractMul(Id)) {
      W.resize(32);
      for (size_t I = 0; I < 32; ++I)
        W[I] = freshLit();
    } else {
      W = wMul(blastBv(T.A), blastBv(T.B), 32);
    }
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
  return internBv(Id, W);
}

Lit BitBlaster::blastBool(TermId Id) {
  Lit Cached;
  if (boolCached(Id, Cached))
    return Cached;
  checkCancelTick();
  const Term &T = TT.get(Id);
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
  case TK::MulOvf:
    L = abstractMul(Id) ? freshLit() : wMulOvf(blastBv(T.A), blastBv(T.B));
    break;
  default:
    assert(false && "blastBool on a bv term");
    L = falseLit();
  }
  return internBool(Id, L);
}

bool BitBlaster::modelLit(Lit L) const {
  bool Bit;
  if (isConstLit(L, Bit))
    return Bit;
  return S.modelValue(L.var()) != L.sign();
}

uint32_t BitBlaster::modelWord(const PackedWord &Bits) const {
  uint32_t V = 0;
  for (size_t I = 0; I < 32; ++I)
    if (modelLit(Bits[I]))
      V |= 1u << I;
  return V;
}

bool BitBlaster::modelOfVar(TermId Id, uint32_t &Out) const {
  const PackedWord *Cached = bvCached(Id);
  if (!Cached)
    return false;
  Out = modelWord(*Cached);
  return true;
}

bool BitBlaster::modelOfBVar(TermId Id, bool &Out) const {
  Lit L;
  if (!boolCached(Id, L))
    return false;
  Out = modelLit(L);
  return true;
}
