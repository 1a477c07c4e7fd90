//===- tv/SymExec.cpp - symbolic execution of VIR ----------------------------===//

#include "tv/SymExec.h"

#include "support/Cancel.h"
#include "support/Format.h"

#include <cassert>

using namespace lv;
using namespace lv::tv;
using namespace lv::vir;
using smt::TermId;
using smt::TermTable;

//===----------------------------------------------------------------------===//
// SharedInputs
//===----------------------------------------------------------------------===//

TermId SharedInputs::scalar(const std::string &Name) {
  auto It = Scalars.find(Name);
  if (It != Scalars.end())
    return It->second;
  auto Pin = Pins.find(Name);
  TermId V = Pin != Pins.end() ? T.mkConstS(Pin->second) : T.mkVar(Name);
  Scalars.emplace(Name, V);
  ScalarOrder.push_back(Name);
  return V;
}

TermId SharedInputs::arraySize(const std::string &Name) {
  auto It = Sizes.find(Name);
  if (It != Sizes.end())
    return It->second;
  TermId V = T.mkVar("size." + Name);
  Sizes.emplace(Name, V);
  return V;
}

const std::vector<SymVal> &SharedInputs::arrayBase(const std::string &Name,
                                                   int Cap) {
  auto It = Bases.find(Name);
  if (It == Bases.end()) {
    It = Bases.emplace(Name, std::vector<SymVal>()).first;
    ArrayOrder.push_back(Name);
  }
  std::vector<SymVal> &B = It->second;
  while (static_cast<int>(B.size()) < Cap) {
    SymVal V;
    V.Val = T.mkVar(format("%s[%zu]", Name.c_str(), B.size()));
    V.Poison = T.mkFalse();
    B.push_back(V);
  }
  return B;
}

//===----------------------------------------------------------------------===//
// SymMemory
//===----------------------------------------------------------------------===//

SymMemory::SymMemory(TermTable &T, const std::string &Name, int Cap,
                     TermId Size, std::vector<SymVal> Base)
    : T(T), Name(Name), Cap(Cap), Size(Size), Base(std::move(Base)) {}

SymMemory::SymMemory(TermTable &T, const std::string &Name, int Cap,
                     int64_t LocalSize)
    : T(T), Name(Name), Cap(Cap),
      Size(T.mkConstS(static_cast<int32_t>(LocalSize))) {
  // Local arrays start uninitialized: reading them yields poison.
  Base.assign(static_cast<size_t>(Cap), SymVal{T.mkConst(0), T.mkTrue()});
}

SymVal SymMemory::readBase(TermId Off) const {
  uint32_t C;
  if (T.isConst(Off, C)) {
    if (C < Base.size())
      return Base[C];
    // Outside the bounded window: unconstrained (fresh-var-free fallback;
    // accesses here are excluded by the size-domain assumption).
    return SymVal{T.mkConst(0), T.mkTrue()};
  }
  // Symbolic offset: mux over the window.
  SymVal Acc{T.mkConst(0), T.mkTrue()};
  for (int I = static_cast<int>(Base.size()) - 1; I >= 0; --I) {
    TermId Hit = T.mkEq(Off, T.mkConst(static_cast<uint32_t>(I)));
    Acc.Val = T.mkIte(Hit, Base[static_cast<size_t>(I)].Val, Acc.Val);
    Acc.Poison =
        T.mkBIte(Hit, Base[static_cast<size_t>(I)].Poison, Acc.Poison);
  }
  return Acc;
}

SymVal SymMemory::read(TermId Off) const {
  SymVal Acc = readBase(Off);
  // Newest write wins: fold from oldest to newest.
  for (const WriteRec &W : Log) {
    TermId Hit = T.mkAnd(W.Guard, T.mkEq(Off, W.Off));
    Acc.Val = T.mkIte(Hit, W.V.Val, Acc.Val);
    Acc.Poison = T.mkBIte(Hit, W.V.Poison, Acc.Poison);
  }
  return Acc;
}

void SymMemory::write(TermId Off, SymVal V, TermId Guard) {
  if (T.isFalse(Guard))
    return;
  Log.push_back(WriteRec{Off, V, Guard});
}

TermId SymMemory::inBounds(TermId Off) const {
  return T.mkAnd(T.mkSge(Off, T.mkConst(0)), T.mkSlt(Off, Size));
}

TermId SymMemory::inBoundsRange(TermId Off, int N) const {
  TermId End = T.mkAdd(Off, T.mkConst(static_cast<uint32_t>(N)));
  return T.mkAnd(T.mkSge(Off, T.mkConst(0)), T.mkSle(End, Size));
}

TermId SymMemory::sizeDomain() const {
  return T.mkAnd(T.mkSge(Size, T.mkConst(0)),
                 T.mkSle(Size, T.mkConst(static_cast<uint32_t>(Cap))));
}

//===----------------------------------------------------------------------===//
// Executor
//===----------------------------------------------------------------------===//

namespace {

/// Symbolic executor for one function.
class SymExec {
public:
  SymExec(const VFunction &F, TermTable &T, SharedInputs &In,
          const ExecOptions &Opts)
      : F(F), T(T), In(In), Opts(Opts) {}

  SymState run();

private:
  const VFunction &F;
  TermTable &T;
  SharedInputs &In;
  const ExecOptions &Opts;

  std::vector<SymVal> Scalars;
  std::vector<SymVec> Vectors;
  std::vector<SymMemory> Mems;
  TermId UB, Assum, RetCond;
  SymVal RetVal;
  std::string Error;

  struct LoopCtx {
    TermId Broken;    ///< Accumulated break conditions (whole loop).
    TermId Continued; ///< Accumulated continue conditions (this iteration).
  };
  std::vector<LoopCtx> Loops;

  void fail(const std::string &M) {
    if (Error.empty())
      Error = M;
  }

  SymVal &s(int R) { return Scalars[static_cast<size_t>(R)]; }
  SymVec &v(int R) { return Vectors[static_cast<size_t>(R)]; }

  void addUB(TermId Alive, TermId Cond) {
    UB = T.mkOr(UB, T.mkAnd(Alive, Cond));
  }

  /// Lane activity for blendv-style masks: MSB of the lane.
  TermId laneMsb(TermId V) {
    return T.mkEq(T.mkLShr(V, T.mkConst(31)), T.mkConst(1));
  }

  void execInstr(const Instr &I, TermId Alive);
  TermId execRegion(const Region &R, TermId Alive);
  TermId execRegionFrom(const Region &R, size_t From, TermId Alive);
  TermId execNode(const Node &N, TermId Alive);

  /// Executes a region's nodes from \p From whose guard may be false:
  /// register effects are merged back under the guard (memory writes and
  /// UB contributions are already guarded individually). This keeps
  /// registers correct across guarded loop iterations — e.g. a reduction
  /// accumulator must not pick up contributions from iterations excluded
  /// by the trip count — and across mid-region guard narrowing (a
  /// `continue` must mask every later register update for exited lanes).
  TermId execRegionGuardedMerge(const Region &R, TermId Alive,
                                size_t From = 0) {
    if (T.isFalse(Alive))
      return Alive;
    if (T.isTrue(Alive))
      return execRegionFrom(R, From, Alive);
    std::vector<SymVal> SavedS = Scalars;
    std::vector<SymVec> SavedV = Vectors;
    TermId Out = execRegionFrom(R, From, Alive);
    for (size_t R2 = 0; R2 < Scalars.size(); ++R2) {
      SymVal &NS = Scalars[R2];
      const SymVal &OS = SavedS[R2];
      if (NS.Val != OS.Val || NS.Poison != OS.Poison) {
        NS.Val = T.mkIte(Alive, NS.Val, OS.Val);
        NS.Poison = T.mkBIte(Alive, NS.Poison, OS.Poison);
      }
      for (size_t L = 0; L < Lanes; ++L) {
        SymVal &NV = Vectors[R2].Lane[L];
        const SymVal &OV = SavedV[R2].Lane[L];
        if (NV.Val != OV.Val || NV.Poison != OV.Poison) {
          NV.Val = T.mkIte(Alive, NV.Val, OV.Val);
          NV.Poison = T.mkBIte(Alive, NV.Poison, OV.Poison);
        }
      }
    }
    return Out;
  }
};

} // namespace

void SymExec::execInstr(const Instr &I, TermId Alive) {
  auto A = [&](size_t K) -> SymVal & { return s(I.Args[K]); };
  auto AV = [&](size_t K) -> SymVec & { return v(I.Args[K]); };
  TermId False = T.mkFalse();

  auto scalarBin = [&](TermId Val, TermId ExtraPoison) {
    SymVal R;
    R.Val = Val;
    R.Poison = T.mkOr(T.mkOr(A(0).Poison, A(1).Poison), ExtraPoison);
    s(I.Rd) = R;
  };

  switch (I.Opcode) {
  case Op::ConstI32:
    s(I.Rd) = SymVal{T.mkConstS(static_cast<int32_t>(I.Imm)), False};
    return;
  case Op::Copy:
    if (F.RegTypes[static_cast<size_t>(I.Rd)] == VType::V8I32)
      v(I.Rd) = AV(0);
    else
      s(I.Rd) = A(0);
    return;
  case Op::Add:
    scalarBin(T.mkAdd(A(0).Val, A(1).Val),
              I.Nsw ? T.mkAddOvf(A(0).Val, A(1).Val) : False);
    return;
  case Op::Sub:
    scalarBin(T.mkSub(A(0).Val, A(1).Val),
              I.Nsw ? T.mkSubOvf(A(0).Val, A(1).Val) : False);
    return;
  case Op::Mul:
    scalarBin(T.mkMul(A(0).Val, A(1).Val),
              I.Nsw ? T.mkMulOvf(A(0).Val, A(1).Val) : False);
    return;
  case Op::SDiv:
  case Op::SRem: {
    TermId Zero = T.mkConst(0);
    TermId DivZero = T.mkEq(A(1).Val, Zero);
    TermId Ovf = T.mkAnd(T.mkEq(A(0).Val, T.mkConst(0x80000000u)),
                         T.mkEq(A(1).Val, T.mkConst(0xffffffffu)));
    addUB(Alive, T.mkOr(T.mkOr(A(0).Poison, A(1).Poison),
                        T.mkOr(DivZero, Ovf)));
    SymVal R;
    R.Val = I.Opcode == Op::SDiv ? T.mkSDiv(A(0).Val, A(1).Val)
                                 : T.mkSRem(A(0).Val, A(1).Val);
    R.Poison = False;
    s(I.Rd) = R;
    return;
  }
  case Op::Shl:
    scalarBin(T.mkShl(A(0).Val, T.mkBvAnd(A(1).Val, T.mkConst(31))), False);
    return;
  case Op::AShr:
    scalarBin(T.mkAShr(A(0).Val, T.mkBvAnd(A(1).Val, T.mkConst(31))), False);
    return;
  case Op::LShr:
    scalarBin(T.mkLShr(A(0).Val, T.mkBvAnd(A(1).Val, T.mkConst(31))), False);
    return;
  case Op::And:
    scalarBin(T.mkBvAnd(A(0).Val, A(1).Val), False);
    return;
  case Op::Or:
    scalarBin(T.mkBvOr(A(0).Val, A(1).Val), False);
    return;
  case Op::Xor:
    scalarBin(T.mkBvXor(A(0).Val, A(1).Val), False);
    return;
  case Op::ICmp: {
    TermId C;
    switch (I.P) {
    case Pred::EQ: C = T.mkEq(A(0).Val, A(1).Val); break;
    case Pred::NE: C = T.mkNe(A(0).Val, A(1).Val); break;
    case Pred::SLT: C = T.mkSlt(A(0).Val, A(1).Val); break;
    case Pred::SLE: C = T.mkSle(A(0).Val, A(1).Val); break;
    case Pred::SGT: C = T.mkSgt(A(0).Val, A(1).Val); break;
    case Pred::SGE: C = T.mkSge(A(0).Val, A(1).Val); break;
    }
    scalarBin(T.boolToBv(C), False);
    return;
  }
  case Op::Select: {
    TermId CB = T.mkNe(A(0).Val, T.mkConst(0));
    SymVal R;
    R.Val = T.mkIte(CB, A(1).Val, A(2).Val);
    R.Poison =
        T.mkOr(A(0).Poison, T.mkBIte(CB, A(1).Poison, A(2).Poison));
    s(I.Rd) = R;
    return;
  }
  case Op::SAbs: {
    TermId Neg = T.mkSlt(A(0).Val, T.mkConst(0));
    SymVal R;
    R.Val = T.mkIte(Neg, T.mkNeg(A(0).Val), A(0).Val);
    // abs(INT_MIN) overflows (UB in C -> poison).
    R.Poison = T.mkOr(A(0).Poison,
                      T.mkEq(A(0).Val, T.mkConst(0x80000000u)));
    s(I.Rd) = R;
    return;
  }
  case Op::SMax:
  case Op::SMin: {
    TermId C = I.Opcode == Op::SMax ? T.mkSgt(A(0).Val, A(1).Val)
                                    : T.mkSlt(A(0).Val, A(1).Val);
    scalarBin(T.mkIte(C, A(0).Val, A(1).Val), False);
    return;
  }
  case Op::Load: {
    SymMemory &M = Mems[static_cast<size_t>(I.Imm)];
    addUB(Alive, T.mkOr(A(0).Poison, T.mkNot(M.inBounds(A(0).Val))));
    s(I.Rd) = M.read(A(0).Val);
    return;
  }
  case Op::Store: {
    SymMemory &M = Mems[static_cast<size_t>(I.Imm)];
    addUB(Alive, T.mkOr(A(0).Poison, T.mkNot(M.inBounds(A(0).Val))));
    M.write(A(0).Val, A(1), Alive);
    return;
  }
  case Op::VBroadcast: {
    SymVec R;
    for (int L = 0; L < Lanes; ++L)
      R.Lane[static_cast<size_t>(L)] = A(0);
    v(I.Rd) = R;
    return;
  }
  case Op::VBuild: {
    SymVec R;
    for (int L = 0; L < Lanes; ++L)
      R.Lane[static_cast<size_t>(L)] = s(I.Args[static_cast<size_t>(L)]);
    v(I.Rd) = R;
    return;
  }
  case Op::VAdd:
  case Op::VSub:
  case Op::VMul:
  case Op::VMinS:
  case Op::VMaxS:
  case Op::VAnd:
  case Op::VOr:
  case Op::VXor:
  case Op::VAndNot:
  case Op::VCmpGt:
  case Op::VCmpEq: {
    SymVec R;
    const SymVec &X = AV(0);
    const SymVec &Y = AV(1);
    for (size_t L = 0; L < Lanes; ++L) {
      TermId XV = X.Lane[L].Val, YV = Y.Lane[L].Val;
      TermId Val;
      switch (I.Opcode) {
      case Op::VAdd: Val = T.mkAdd(XV, YV); break;
      case Op::VSub: Val = T.mkSub(XV, YV); break;
      case Op::VMul: Val = T.mkMul(XV, YV); break;
      case Op::VMinS: Val = T.mkIte(T.mkSlt(XV, YV), XV, YV); break;
      case Op::VMaxS: Val = T.mkIte(T.mkSgt(XV, YV), XV, YV); break;
      case Op::VAnd: Val = T.mkBvAnd(XV, YV); break;
      case Op::VOr: Val = T.mkBvOr(XV, YV); break;
      case Op::VXor: Val = T.mkBvXor(XV, YV); break;
      case Op::VAndNot: Val = T.mkBvAnd(T.mkBvNot(XV), YV); break;
      case Op::VCmpGt:
        Val = T.mkIte(T.mkSgt(XV, YV), T.mkConst(0xffffffffu), T.mkConst(0));
        break;
      case Op::VCmpEq:
        Val = T.mkIte(T.mkEq(XV, YV), T.mkConst(0xffffffffu), T.mkConst(0));
        break;
      default: Val = XV; break;
      }
      R.Lane[L].Val = Val;
      R.Lane[L].Poison = T.mkOr(X.Lane[L].Poison, Y.Lane[L].Poison);
    }
    v(I.Rd) = R;
    return;
  }
  case Op::VAbs: {
    SymVec R;
    const SymVec &X = AV(0);
    for (size_t L = 0; L < Lanes; ++L) {
      TermId Neg = T.mkSlt(X.Lane[L].Val, T.mkConst(0));
      // _mm256_abs_epi32 wraps on INT_MIN (no poison).
      R.Lane[L].Val = T.mkIte(Neg, T.mkNeg(X.Lane[L].Val), X.Lane[L].Val);
      R.Lane[L].Poison = X.Lane[L].Poison;
    }
    v(I.Rd) = R;
    return;
  }
  case Op::VBlend: {
    // Byte-exact value semantics; per-lane select semantics for poison.
    SymVec R;
    const SymVec &X = AV(0);
    const SymVec &Y = AV(1);
    const SymVec &M = AV(2);
    for (size_t L = 0; L < Lanes; ++L) {
      TermId MaskBytes = T.mkConst(0);
      for (int B = 0; B < 4; ++B) {
        TermId Bit = T.mkBvAnd(
            T.mkLShr(M.Lane[L].Val, T.mkConst(static_cast<uint32_t>(B * 8 + 7))),
            T.mkConst(1));
        TermId ByteMask = T.mkShl(T.mkMul(Bit, T.mkConst(0xffu)),
                                  T.mkConst(static_cast<uint32_t>(B * 8)));
        MaskBytes = T.mkBvOr(MaskBytes, ByteMask);
      }
      R.Lane[L].Val = T.mkBvOr(T.mkBvAnd(Y.Lane[L].Val, MaskBytes),
                               T.mkBvAnd(X.Lane[L].Val, T.mkBvNot(MaskBytes)));
      TermId Msb = laneMsb(M.Lane[L].Val);
      R.Lane[L].Poison =
          T.mkOr(M.Lane[L].Poison,
                 T.mkBIte(Msb, Y.Lane[L].Poison, X.Lane[L].Poison));
    }
    v(I.Rd) = R;
    return;
  }
  case Op::VSelect: {
    TermId CB = T.mkNe(A(0).Val, T.mkConst(0));
    SymVec R;
    const SymVec &X = AV(1);
    const SymVec &Y = AV(2);
    for (size_t L = 0; L < Lanes; ++L) {
      R.Lane[L].Val = T.mkIte(CB, X.Lane[L].Val, Y.Lane[L].Val);
      R.Lane[L].Poison =
          T.mkOr(A(0).Poison,
                 T.mkBIte(CB, X.Lane[L].Poison, Y.Lane[L].Poison));
    }
    v(I.Rd) = R;
    return;
  }
  case Op::VShlI:
  case Op::VShrLI:
  case Op::VShrAI:
  case Op::VShlV:
  case Op::VShrLV:
  case Op::VShrAV: {
    bool Variable = I.Opcode == Op::VShlV || I.Opcode == Op::VShrLV ||
                    I.Opcode == Op::VShrAV;
    SymVec R;
    const SymVec &X = AV(0);
    for (size_t L = 0; L < Lanes; ++L) {
      SymVal Amt = Variable ? AV(1).Lane[L] : A(1);
      TermId AmtV = Amt.Val;
      // AVX2 semantics: counts >= 32 saturate (0 for logical, sign for
      // arithmetic right shifts).
      TermId Big = T.mkUlt(T.mkConst(31), AmtV);
      TermId Masked = T.mkBvAnd(AmtV, T.mkConst(31));
      TermId Val;
      switch (I.Opcode) {
      case Op::VShlI:
      case Op::VShlV:
        Val = T.mkIte(Big, T.mkConst(0), T.mkShl(X.Lane[L].Val, Masked));
        break;
      case Op::VShrLI:
      case Op::VShrLV:
        Val = T.mkIte(Big, T.mkConst(0), T.mkLShr(X.Lane[L].Val, Masked));
        break;
      default:
        Val = T.mkIte(Big, T.mkAShr(X.Lane[L].Val, T.mkConst(31)),
                      T.mkAShr(X.Lane[L].Val, Masked));
        break;
      }
      R.Lane[L].Val = Val;
      R.Lane[L].Poison = T.mkOr(X.Lane[L].Poison, Amt.Poison);
    }
    v(I.Rd) = R;
    return;
  }
  case Op::VExtract:
    s(I.Rd) = AV(0).Lane[static_cast<size_t>(I.Imm)];
    return;
  case Op::VInsert: {
    SymVec R = AV(0);
    R.Lane[static_cast<size_t>(I.Imm)] = A(1);
    v(I.Rd) = R;
    return;
  }
  case Op::VPermute: {
    SymVec R;
    const SymVec &X = AV(0);
    const SymVec &Idx = AV(1);
    for (size_t L = 0; L < Lanes; ++L) {
      TermId Sel = T.mkBvAnd(Idx.Lane[L].Val, T.mkConst(7));
      SymVal Acc = X.Lane[0];
      for (size_t K = 1; K < Lanes; ++K) {
        TermId Hit = T.mkEq(Sel, T.mkConst(static_cast<uint32_t>(K)));
        Acc.Val = T.mkIte(Hit, X.Lane[K].Val, Acc.Val);
        Acc.Poison = T.mkBIte(Hit, X.Lane[K].Poison, Acc.Poison);
      }
      R.Lane[L].Val = Acc.Val;
      R.Lane[L].Poison = T.mkOr(Idx.Lane[L].Poison, Acc.Poison);
    }
    v(I.Rd) = R;
    return;
  }
  case Op::VHAdd: {
    const SymVec &X = AV(0);
    const SymVec &Y = AV(1);
    auto Pair = [&](const SymVec &V, size_t LO) {
      SymVal R;
      R.Val = T.mkAdd(V.Lane[LO].Val, V.Lane[LO + 1].Val);
      R.Poison = T.mkOr(V.Lane[LO].Poison, V.Lane[LO + 1].Poison);
      return R;
    };
    SymVec R;
    R.Lane[0] = Pair(X, 0);
    R.Lane[1] = Pair(X, 2);
    R.Lane[2] = Pair(Y, 0);
    R.Lane[3] = Pair(Y, 2);
    R.Lane[4] = Pair(X, 4);
    R.Lane[5] = Pair(X, 6);
    R.Lane[6] = Pair(Y, 4);
    R.Lane[7] = Pair(Y, 6);
    v(I.Rd) = R;
    return;
  }
  case Op::VLoad: {
    SymMemory &M = Mems[static_cast<size_t>(I.Imm)];
    addUB(Alive,
          T.mkOr(A(0).Poison, T.mkNot(M.inBoundsRange(A(0).Val, Lanes))));
    SymVec R;
    for (int L = 0; L < Lanes; ++L)
      R.Lane[static_cast<size_t>(L)] =
          M.read(T.mkAdd(A(0).Val, T.mkConst(static_cast<uint32_t>(L))));
    v(I.Rd) = R;
    return;
  }
  case Op::VStore: {
    SymMemory &M = Mems[static_cast<size_t>(I.Imm)];
    addUB(Alive,
          T.mkOr(A(0).Poison, T.mkNot(M.inBoundsRange(A(0).Val, Lanes))));
    const SymVec &V0 = AV(1);
    for (int L = 0; L < Lanes; ++L)
      M.write(T.mkAdd(A(0).Val, T.mkConst(static_cast<uint32_t>(L))),
              V0.Lane[static_cast<size_t>(L)], Alive);
    return;
  }
  case Op::VMaskLoad: {
    SymMemory &M = Mems[static_cast<size_t>(I.Imm)];
    const SymVec &Mask = AV(1);
    SymVec R;
    for (int L = 0; L < Lanes; ++L) {
      size_t LS = static_cast<size_t>(L);
      TermId Off = T.mkAdd(A(0).Val, T.mkConst(static_cast<uint32_t>(L)));
      TermId Active = laneMsb(Mask.Lane[LS].Val);
      addUB(Alive, T.mkOr(Mask.Lane[LS].Poison,
                          T.mkAnd(Active, T.mkOr(A(0).Poison,
                                                 T.mkNot(M.inBounds(Off))))));
      SymVal Cell = M.read(Off);
      R.Lane[LS].Val = T.mkIte(Active, Cell.Val, T.mkConst(0));
      R.Lane[LS].Poison = T.mkAnd(Active, Cell.Poison);
    }
    v(I.Rd) = R;
    return;
  }
  case Op::VMaskStore: {
    SymMemory &M = Mems[static_cast<size_t>(I.Imm)];
    const SymVec &Mask = AV(1);
    const SymVec &V0 = AV(2);
    for (int L = 0; L < Lanes; ++L) {
      size_t LS = static_cast<size_t>(L);
      TermId Off = T.mkAdd(A(0).Val, T.mkConst(static_cast<uint32_t>(L)));
      TermId Active = laneMsb(Mask.Lane[LS].Val);
      addUB(Alive, T.mkOr(Mask.Lane[LS].Poison,
                          T.mkAnd(Active, T.mkOr(A(0).Poison,
                                                 T.mkNot(M.inBounds(Off))))));
      M.write(Off, V0.Lane[LS], T.mkAnd(Alive, Active));
    }
    return;
  }
  }
}

TermId SymExec::execNode(const Node &N, TermId Alive) {
  if (!Error.empty())
    return T.mkFalse();
  switch (N.K) {
  case Node::Inst:
    execInstr(N.I, Alive);
    return Alive;
  case Node::If: {
    SymVal C = s(N.CondReg);
    addUB(Alive, C.Poison); // branching on poison is UB
    TermId CB = T.mkNe(C.Val, T.mkConst(0));
    TermId AliveT = T.mkAnd(Alive, CB);
    TermId AliveE = T.mkAnd(Alive, T.mkNot(CB));
    // Guards are disjoint, so the arms can run sequentially: each arm's
    // register effects are merged under its own guard.
    TermId OutT = execRegionGuardedMerge(N.BodyR, AliveT);
    TermId OutE = execRegionGuardedMerge(N.ElseR, AliveE);
    return T.mkOr(OutT, OutE);
  }
  case Node::For: {
    TermId L = execRegionGuardedMerge(N.Init, Alive);
    TermId ExitAccum = T.mkFalse();
    Loops.push_back(LoopCtx{T.mkFalse(), T.mkFalse()});
    size_t Depth = Loops.size() - 1;
    for (int K = 0; K < Opts.UnrollBound && Error.empty(); ++K) {
      // Each unrolled iteration builds thousands of terms; a task past
      // its deadline must stop between iterations, not after the bound.
      support::throwIfCancelled("tv.symexec");
      execRegionGuardedMerge(N.CondCalc, L);
      SymVal C = s(N.CondReg);
      addUB(L, C.Poison);
      TermId CB = T.mkNe(C.Val, T.mkConst(0));
      ExitAccum = T.mkOr(ExitAccum, T.mkAnd(L, T.mkNot(CB)));
      TermId InBody = T.mkAnd(L, CB);
      if (T.isFalse(InBody))
        break; // fully unrolled within bound
      Loops[Depth].Continued = T.mkFalse();
      TermId BodyOut = execRegionGuardedMerge(N.BodyR, InBody);
      TermId AfterBody = T.mkOr(BodyOut, Loops[Depth].Continued);
      execRegionGuardedMerge(N.StepR, AfterBody);
      L = AfterBody;
    }
    // Whatever is still alive would need more iterations: evaluate the
    // condition once more; executions that would continue are excluded by
    // assumption (bounded verification, "modulo unrolling").
    if (!T.isFalse(L)) {
      execRegionGuardedMerge(N.CondCalc, L);
      SymVal C = s(N.CondReg);
      TermId CB = T.mkNe(C.Val, T.mkConst(0));
      ExitAccum = T.mkOr(ExitAccum, T.mkAnd(L, T.mkNot(CB)));
      Assum = T.mkAnd(Assum, T.mkNot(T.mkAnd(L, CB)));
    }
    TermId Broken = Loops[Depth].Broken;
    Loops.pop_back();
    return T.mkOr(ExitAccum, Broken);
  }
  case Node::Break:
    if (Loops.empty()) {
      fail("break outside loop during symbolic execution");
      return T.mkFalse();
    }
    Loops.back().Broken = T.mkOr(Loops.back().Broken, Alive);
    return T.mkFalse();
  case Node::Continue:
    if (Loops.empty()) {
      fail("continue outside loop during symbolic execution");
      return T.mkFalse();
    }
    Loops.back().Continued = T.mkOr(Loops.back().Continued, Alive);
    return T.mkFalse();
  case Node::Ret: {
    if (N.CondReg >= 0) {
      SymVal V = s(N.CondReg);
      RetVal.Val = T.mkIte(Alive, V.Val, RetVal.Val);
      RetVal.Poison = T.mkBIte(Alive, V.Poison, RetVal.Poison);
    }
    RetCond = T.mkOr(RetCond, Alive);
    return T.mkFalse();
  }
  }
  return Alive;
}

TermId SymExec::execRegion(const Region &R, TermId Alive) {
  return execRegionFrom(R, 0, Alive);
}

TermId SymExec::execRegionFrom(const Region &R, size_t From, TermId Alive) {
  for (size_t I = From; I < R.Nodes.size(); ++I) {
    if (T.isFalse(Alive))
      return Alive;
    TermId Next = execNode(*R.Nodes[I], Alive);
    // A break/continue/return (possibly inside an if) narrowed the live
    // set: the remainder's register effects must be masked for the lanes
    // that left.
    if (Next != Alive && I + 1 < R.Nodes.size())
      return execRegionGuardedMerge(R, Next, I + 1);
    Alive = Next;
  }
  return Alive;
}

SymState SymExec::run() {
  UB = T.mkFalse();
  Assum = T.mkTrue();
  RetCond = T.mkFalse();
  RetVal = SymVal{T.mkConst(0), T.mkFalse()};

  TermId False = T.mkFalse();
  Scalars.assign(static_cast<size_t>(F.numRegs()),
                 SymVal{T.mkConst(0), False});
  SymVec ZeroVec;
  for (size_t L = 0; L < Lanes; ++L)
    ZeroVec.Lane[L] = SymVal{T.mkConst(0), False};
  Vectors.assign(static_cast<size_t>(F.numRegs()), ZeroVec);

  // Bind scalar parameters to shared input terms.
  for (const VParam &P : F.Params)
    if (!P.IsPointer)
      Scalars[static_cast<size_t>(P.Reg)] = SymVal{In.scalar(P.Name), False};

  // Build memories: parameter regions share inputs; locals are fresh.
  Mems.reserve(F.Memories.size());
  for (const RegionInfo &M : F.Memories) {
    if (M.IsParam) {
      Mems.emplace_back(T, M.Name, Opts.MemWindow, In.arraySize(M.Name),
                        In.arrayBase(M.Name, Opts.MemWindow));
    } else {
      Mems.emplace_back(T, M.Name, Opts.MemWindow, M.LocalSize);
    }
  }

  execRegion(F.Body, T.mkTrue());

  SymState Out;
  Out.Mems = std::move(Mems);
  Out.UB = UB;
  Out.Assum = Assum;
  Out.RetCond = RetCond;
  Out.RetVal = RetVal;
  Out.Error = Error;
  return Out;
}

SymState lv::tv::executeSymbolic(const VFunction &F, TermTable &T,
                                 SharedInputs &Inputs,
                                 const ExecOptions &Opts) {
  SymExec E(F, T, Inputs, Opts);
  return E.run();
}
