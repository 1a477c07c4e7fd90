//===- interp/Bytecode.cpp - register bytecode VM -----------------------------===//
//
// Two halves: the flattener (structured VIR -> flat instruction stream with
// direct branch targets) and the dispatch loop. The contract both keep: one
// charged event per tree-walk charge point, in identical order, with
// identical cycle values, fuel checks, and trap messages — so the two
// engines are interchangeable down to the bit pattern of ExecResult.
//
//===----------------------------------------------------------------------===//

#include "interp/Bytecode.h"

#include "obs/Metrics.h"
#include "support/Cancel.h"
#include "support/Format.h"

using namespace lv;
using namespace lv::interp;
using namespace lv::vir;

const char *lv::interp::bcName(BC Op) {
  switch (Op) {
  case BC::ConstI32: return "const";
  case BC::CopyS: return "copys";
  case BC::CopyV: return "copyv";
  case BC::Add: return "add";
  case BC::Sub: return "sub";
  case BC::Mul: return "mul";
  case BC::SDiv: return "sdiv";
  case BC::SRem: return "srem";
  case BC::Shl: return "shl";
  case BC::AShr: return "ashr";
  case BC::LShr: return "lshr";
  case BC::And: return "and";
  case BC::Or: return "or";
  case BC::Xor: return "xor";
  case BC::ICmpEQ: return "icmp.eq";
  case BC::ICmpNE: return "icmp.ne";
  case BC::ICmpSLT: return "icmp.slt";
  case BC::ICmpSLE: return "icmp.sle";
  case BC::ICmpSGT: return "icmp.sgt";
  case BC::ICmpSGE: return "icmp.sge";
  case BC::Select: return "select";
  case BC::SAbs: return "sabs";
  case BC::SMax: return "smax";
  case BC::SMin: return "smin";
  case BC::Load: return "load";
  case BC::Store: return "store";
  case BC::VBroadcast: return "vbroadcast";
  case BC::VBuild: return "vbuild";
  case BC::VAdd: return "vadd";
  case BC::VSub: return "vsub";
  case BC::VMul: return "vmul";
  case BC::VMinS: return "vmins";
  case BC::VMaxS: return "vmaxs";
  case BC::VAnd: return "vand";
  case BC::VOr: return "vor";
  case BC::VXor: return "vxor";
  case BC::VAndNot: return "vandnot";
  case BC::VAbs: return "vabs";
  case BC::VCmpGt: return "vcmpgt";
  case BC::VCmpEq: return "vcmpeq";
  case BC::VBlend: return "vblend";
  case BC::VSelect: return "vselect";
  case BC::VShlI: return "vshli";
  case BC::VShrLI: return "vshrli";
  case BC::VShrAI: return "vshrai";
  case BC::VShlV: return "vshlv";
  case BC::VShrLV: return "vshrlv";
  case BC::VShrAV: return "vshrav";
  case BC::VExtract: return "vextract";
  case BC::VInsert: return "vinsert";
  case BC::VPermute: return "vpermute";
  case BC::VHAdd: return "vhadd";
  case BC::VLoad: return "vload";
  case BC::VStore: return "vstore";
  case BC::VMaskLoad: return "vmaskload";
  case BC::VMaskStore: return "vmaskstore";
  case BC::Jmp: return "jmp";
  case BC::IfBr: return "ifbr";
  case BC::LoopBr: return "loopbr";
  case BC::RetVoid: return "ret";
  case BC::RetVal: return "retv";
  case BC::Halt: return "halt";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Flattener
//===----------------------------------------------------------------------===//

static BC bcOf(const Instr &I) {
  switch (I.Opcode) {
  case Op::ConstI32: return BC::ConstI32;
  case Op::Copy: return BC::CopyS; // caller resolves CopyV by Rd type
  case Op::Add: return BC::Add;
  case Op::Sub: return BC::Sub;
  case Op::Mul: return BC::Mul;
  case Op::SDiv: return BC::SDiv;
  case Op::SRem: return BC::SRem;
  case Op::Shl: return BC::Shl;
  case Op::AShr: return BC::AShr;
  case Op::LShr: return BC::LShr;
  case Op::And: return BC::And;
  case Op::Or: return BC::Or;
  case Op::Xor: return BC::Xor;
  case Op::ICmp:
    return static_cast<BC>(static_cast<uint8_t>(BC::ICmpEQ) +
                           static_cast<uint8_t>(I.P));
  case Op::Select: return BC::Select;
  case Op::SAbs: return BC::SAbs;
  case Op::SMax: return BC::SMax;
  case Op::SMin: return BC::SMin;
  case Op::Load: return BC::Load;
  case Op::Store: return BC::Store;
  case Op::VBroadcast: return BC::VBroadcast;
  case Op::VBuild: return BC::VBuild;
  case Op::VAdd: return BC::VAdd;
  case Op::VSub: return BC::VSub;
  case Op::VMul: return BC::VMul;
  case Op::VMinS: return BC::VMinS;
  case Op::VMaxS: return BC::VMaxS;
  case Op::VAnd: return BC::VAnd;
  case Op::VOr: return BC::VOr;
  case Op::VXor: return BC::VXor;
  case Op::VAndNot: return BC::VAndNot;
  case Op::VAbs: return BC::VAbs;
  case Op::VCmpGt: return BC::VCmpGt;
  case Op::VCmpEq: return BC::VCmpEq;
  case Op::VBlend: return BC::VBlend;
  case Op::VSelect: return BC::VSelect;
  case Op::VShlI: return BC::VShlI;
  case Op::VShrLI: return BC::VShrLI;
  case Op::VShrAI: return BC::VShrAI;
  case Op::VShlV: return BC::VShlV;
  case Op::VShrLV: return BC::VShrLV;
  case Op::VShrAV: return BC::VShrAV;
  case Op::VExtract: return BC::VExtract;
  case Op::VInsert: return BC::VInsert;
  case Op::VPermute: return BC::VPermute;
  case Op::VHAdd: return BC::VHAdd;
  case Op::VLoad: return BC::VLoad;
  case Op::VStore: return BC::VStore;
  case Op::VMaskLoad: return BC::VMaskLoad;
  case Op::VMaskStore: return BC::VMaskStore;
  }
  return BC::Halt;
}

namespace {

class Flattener {
public:
  explicit Flattener(const VFunction &F) : F(F) {}

  BytecodeProgram run() {
    P.NumRegs = F.numRegs();
    P.ReturnsValue = F.ReturnsValue;
    P.Params.reserve(F.Params.size());
    for (const VParam &Pm : F.Params)
      P.Params.push_back({Pm.IsPointer, Pm.Reg});
    P.Mems.reserve(F.Memories.size());
    for (const RegionInfo &M : F.Memories)
      P.Mems.push_back({M.Name, M.IsParam, M.LocalSize});
    region(F.Body);
    emit(ctrl(BC::Halt));
    return std::move(P);
  }

private:
  const VFunction &F;
  BytecodeProgram P;
  /// Patch lists of the enclosing loops. A loop frame covers only the
  /// loop *body* — break/continue inside init/cond/step regions belong to
  /// the enclosing loop, exactly as the tree-walk's signal propagation
  /// resolves them.
  struct LoopFrame {
    std::vector<size_t> Breaks, Continues;
  };
  std::vector<LoopFrame> Loops;

  size_t emit(BInst I) {
    P.Code.push_back(I);
    return P.Code.size() - 1;
  }
  size_t here() const { return P.Code.size(); }
  void patch(size_t At, size_t Target) {
    P.Code[At].Imm = static_cast<int64_t>(Target);
  }
  static BInst ctrl(BC Op, int A = -1, uint8_t Cls = 0) {
    BInst I;
    I.Op = Op;
    I.A = A;
    I.Cls = Cls;
    return I;
  }

  void inst(const Instr &In) {
    BInst I;
    I.Op = bcOf(In);
    if (In.Opcode == Op::Copy &&
        F.RegTypes[static_cast<size_t>(In.Rd)] == VType::V8I32)
      I.Op = BC::CopyV;
    I.Cls = static_cast<uint8_t>(opClassOf(In.Opcode));
    I.Rd = In.Rd;
    I.Imm = In.Imm;
    if (In.Opcode == Op::VBuild) {
      // 8 lane operands live in the Extra pool; A holds the offset.
      I.A = static_cast<int32_t>(P.Extra.size());
      for (int L = 0; L < Lanes; ++L)
        P.Extra.push_back(In.Args[static_cast<size_t>(L)]);
    } else {
      if (In.Args.size() > 0) I.A = In.Args[0];
      if (In.Args.size() > 1) I.B = In.Args[1];
      if (In.Args.size() > 2) I.C = In.Args[2];
    }
    emit(I);
  }

  void region(const Region &R) {
    for (const NodePtr &N : R.Nodes)
      node(*N);
  }

  void node(const Node &N) {
    switch (N.K) {
    case Node::Inst:
      inst(N.I);
      return;
    case Node::If: {
      size_t Br = emit(ctrl(BC::IfBr, N.CondReg,
                            static_cast<uint8_t>(OpClass::Branch)));
      region(N.BodyR);
      if (!N.ElseR.Nodes.empty()) {
        size_t J = emit(ctrl(BC::Jmp));
        patch(Br, here());
        region(N.ElseR);
        patch(J, here());
      } else {
        patch(Br, here());
      }
      return;
    }
    case Node::For: {
      region(N.Init);
      size_t CondLabel = here();
      region(N.CondCalc);
      size_t LB = emit(ctrl(BC::LoopBr, N.CondReg,
                            static_cast<uint8_t>(OpClass::LoopIter)));
      Loops.push_back({});
      region(N.BodyR);
      // Pop the frame before the step region: in the tree-walk a
      // Broke/Continued signal out of StepR propagates past this loop to
      // the enclosing one, so break/continue inside the step must bind
      // to the *enclosing* frame (as init/cond already do).
      LoopFrame Frame = std::move(Loops.back());
      Loops.pop_back();
      size_t StepLabel = here();
      for (size_t C : Frame.Continues)
        patch(C, StepLabel);
      region(N.StepR);
      BInst Back = ctrl(BC::Jmp);
      Back.Imm = static_cast<int64_t>(CondLabel);
      emit(Back);
      size_t End = here();
      patch(LB, End);
      for (size_t B : Frame.Breaks)
        patch(B, End);
      return;
    }
    case Node::Break:
      // Outside any loop the tree-walk's Broke signal unwinds to the
      // function top and execution simply ends.
      if (Loops.empty())
        emit(ctrl(BC::Halt));
      else
        Loops.back().Breaks.push_back(emit(ctrl(BC::Jmp)));
      return;
    case Node::Continue:
      if (Loops.empty())
        emit(ctrl(BC::Halt));
      else
        Loops.back().Continues.push_back(emit(ctrl(BC::Jmp)));
      return;
    case Node::Ret:
      emit(N.CondReg >= 0 ? ctrl(BC::RetVal, N.CondReg)
                          : ctrl(BC::RetVoid));
      return;
    }
  }
};

} // namespace

BytecodeProgram lv::interp::compileBytecode(const VFunction &F) {
  static obs::Counter &Compiles = obs::counter("interp.bc_compiles");
  Compiles.inc();
  return Flattener(F).run();
}

BytecodeCacheStats lv::interp::bytecodeCacheStats() {
  return {obs::counterValue("interp.bc_compiles")};
}

namespace {

/// Compact injective structural serializer — every semantically relevant
/// field, tagged and length-prefixed, appended as raw little-endian bytes.
/// Orders of magnitude cheaper than printFunction (no printf formatting).
class KeyBuilder {
public:
  std::string Out;

  void bytes(const void *P, size_t N) {
    Out.append(static_cast<const char *>(P), N);
  }
  void u8(uint8_t V) { Out.push_back(static_cast<char>(V)); }
  void i32(int32_t V) { bytes(&V, sizeof(V)); }
  void u32(uint32_t V) { bytes(&V, sizeof(V)); }
  void i64(int64_t V) { bytes(&V, sizeof(V)); }
  void str(const std::string &S) {
    u32(static_cast<uint32_t>(S.size()));
    bytes(S.data(), S.size());
  }
  void region(const Region &R) {
    u32(static_cast<uint32_t>(R.Nodes.size()));
    for (const NodePtr &N : R.Nodes)
      node(*N);
  }
  void node(const Node &N) {
    u8(static_cast<uint8_t>(N.K));
    switch (N.K) {
    case Node::Inst:
      u8(static_cast<uint8_t>(N.I.Opcode));
      i32(N.I.Rd);
      u32(static_cast<uint32_t>(N.I.Args.size()));
      for (int A : N.I.Args)
        i32(A);
      i64(N.I.Imm);
      u8(static_cast<uint8_t>(N.I.P));
      u8(N.I.Nsw ? 1 : 0);
      return;
    case Node::If:
      i32(N.CondReg);
      region(N.BodyR);
      region(N.ElseR);
      return;
    case Node::For:
      i32(N.CondReg);
      region(N.Init);
      region(N.CondCalc);
      region(N.BodyR);
      region(N.StepR);
      return;
    case Node::Break:
    case Node::Continue:
      return;
    case Node::Ret:
      i32(N.CondReg);
      return;
    }
  }
};

} // namespace

std::string lv::interp::bytecodeKey(const VFunction &F) {
  KeyBuilder B;
  B.Out.reserve(256);
  B.bytes("BK1", 3);
  B.str(F.Name);
  B.u8(F.ReturnsValue ? 1 : 0);
  B.u32(static_cast<uint32_t>(F.Params.size()));
  for (const VParam &P : F.Params) {
    B.str(P.Name);
    B.u8(P.IsPointer ? 1 : 0);
    B.i32(P.Reg);
    B.i32(P.MemRegion);
  }
  B.u32(static_cast<uint32_t>(F.Memories.size()));
  for (const RegionInfo &M : F.Memories) {
    B.str(M.Name);
    B.u8(M.IsParam ? 1 : 0);
    B.i64(M.LocalSize);
  }
  B.u32(static_cast<uint32_t>(F.RegTypes.size()));
  for (VType T : F.RegTypes)
    B.u8(static_cast<uint8_t>(T));
  B.region(F.Body);
  return std::move(B.Out);
}

//===----------------------------------------------------------------------===//
// Dispatch loop
//===----------------------------------------------------------------------===//

namespace {

using VecVal = std::array<int32_t, Lanes>;

int32_t wrapAdd(int32_t A, int32_t B) {
  return static_cast<int32_t>(static_cast<uint32_t>(A) +
                              static_cast<uint32_t>(B));
}
int32_t wrapSub(int32_t A, int32_t B) {
  return static_cast<int32_t>(static_cast<uint32_t>(A) -
                              static_cast<uint32_t>(B));
}
int32_t wrapMul(int32_t A, int32_t B) {
  return static_cast<int32_t>(static_cast<uint32_t>(A) *
                              static_cast<uint32_t>(B));
}
int32_t vshl(int32_t X, int64_t C) {
  if (C < 0 || C >= 32)
    return 0;
  return static_cast<int32_t>(static_cast<uint32_t>(X) << C);
}
int32_t vshrl(int32_t X, int64_t C) {
  if (C < 0 || C >= 32)
    return 0;
  return static_cast<int32_t>(static_cast<uint32_t>(X) >> C);
}
int32_t vshra(int32_t X, int64_t C) {
  if (C < 0 || C >= 32)
    C = 31;
  return X >> C;
}

/// Mirrors CostModel::costOf for every bytecode opcode (control ops get
/// the If/For charge values; uncharged ops get 0, which is never read).
void buildCostTab(const CostModel &C, double *T) {
  for (size_t I = 0; I < kNumBC; ++I)
    T[I] = C.ScalarAlu;
  auto set = [&](BC Op, double V) { T[static_cast<size_t>(Op)] = V; };
  set(BC::ConstI32, 0.0);
  set(BC::CopyS, 0.0);
  set(BC::CopyV, 0.0);
  set(BC::Mul, C.ScalarMul);
  set(BC::SDiv, C.ScalarDiv);
  set(BC::SRem, C.ScalarDiv);
  set(BC::Load, C.ScalarLoad);
  set(BC::Store, C.ScalarStore);
  set(BC::VMul, C.VectorMul);
  set(BC::VLoad, C.VectorLoad);
  set(BC::VStore, C.VectorStore);
  set(BC::VBlend, C.VectorBlend);
  set(BC::VSelect, C.VectorBlend);
  set(BC::VPermute, C.VectorPermute);
  set(BC::VHAdd, C.VectorPermute);
  set(BC::VMaskLoad, C.VectorMaskMem);
  set(BC::VMaskStore, C.VectorMaskMem);
  for (BC Op : {BC::VBroadcast, BC::VBuild, BC::VAdd, BC::VSub, BC::VMinS,
                BC::VMaxS, BC::VAnd, BC::VOr, BC::VXor, BC::VAndNot,
                BC::VAbs, BC::VCmpGt, BC::VCmpEq, BC::VShlI, BC::VShrLI,
                BC::VShrAI, BC::VShlV, BC::VShrLV, BC::VShrAV, BC::VExtract,
                BC::VInsert})
    set(Op, C.VectorAlu);
  set(BC::Jmp, 0.0);
  set(BC::IfBr, C.Branch);
  set(BC::LoopBr, C.LoopIter);
  set(BC::RetVoid, 0.0);
  set(BC::RetVal, 0.0);
  set(BC::Halt, 0.0);
}

} // namespace

ExecResult lv::interp::execBytecode(const BytecodeProgram &P,
                                    const std::vector<int32_t> &ScalarArgs,
                                    MemoryImage &Mem, const ExecConfig &Cfg,
                                    BytecodeScratch *Scratch) {
  ExecResult Res;

  // Hot counters live in locals so the dispatch loop keeps them in
  // registers; every exit path flushes them into the result.
  uint64_t Steps = 0;
  double Cycles = 0.0;
  uint64_t *Hist = Res.Work.Hist;
  const uint64_t MaxSteps = Cfg.MaxSteps;
  // Captured once: the task's cancel token (null outside task scope). The
  // periodic mask keeps the hot path at one branch per charge.
  const support::CancelToken *CT = support::currentCancelToken();
  auto flush = [&]() {
    Res.Steps = Steps;
    // Every charged event increments Steps except loop back-edges, which
    // only enter the histogram — so Instrs is derivable, not tracked.
    Res.Work.Instrs =
        Steps + Hist[static_cast<size_t>(OpClass::LoopIter)];
    Res.Cycles = Cycles;
  };
  auto trapRes = [&](TrapKind K, std::string Msg) -> ExecResult & {
    flush();
    Res.St = ExecResult::Trap;
    Res.Cause = K;
    Res.TrapMsg = std::move(Msg);
    return Res;
  };

  // Prologue: bind scalar parameters, then wire up memory regions — the
  // same order (and the same trap precedence) as the tree-walk. The
  // register files come from the caller's scratch when provided (re-zeroed
  // every run) to amortize allocation across a checksum replay.
  BytecodeScratch Local;
  BytecodeScratch &Sc = Scratch ? *Scratch : Local;
  Sc.S.assign(static_cast<size_t>(P.NumRegs), 0);
  Sc.V.assign(static_cast<size_t>(P.NumRegs), VecVal{});
  int32_t *S = Sc.S.data();
  VecVal *V = Sc.V.data();
  size_t ArgIdx = 0;
  for (const BytecodeProgram::ParamBind &Pm : P.Params) {
    if (Pm.IsPointer)
      continue;
    if (ArgIdx >= ScalarArgs.size())
      return trapRes(TrapKind::Harness, "missing scalar argument");
    S[static_cast<size_t>(Pm.Reg)] = ScalarArgs[ArgIdx++];
  }
  for (size_t I = 0; I < P.Mems.size(); ++I) {
    const BytecodeProgram::MemBind &M = P.Mems[I];
    if (M.IsParam) {
      if (I >= Mem.Regions.size())
        return trapRes(TrapKind::Harness,
                       format("missing memory for region @%s",
                              M.Name.c_str()));
      continue;
    }
    Mem.resize(I, static_cast<size_t>(M.LocalSize));
  }

  const CostModel *CM = Cfg.Costs;
  double CostTab[kNumBC];
  if (CM)
    buildCostTab(*CM, CostTab);

  // No opcode resizes Mem.Regions during dispatch, so the base pointer is
  // loop-invariant.
  std::vector<int32_t> *RegBase = Mem.Regions.data();
  const size_t NumRegions = Mem.Regions.size();
  auto regionAt = [&](int64_t Idx) -> std::vector<int32_t> * {
    if (Idx < 0 || Idx >= static_cast<int64_t>(NumRegions))
      return nullptr;
    return RegBase + Idx;
  };

  const BInst *Code = P.Code.data();
  const int32_t *Extra = P.Extra.data();
  size_t PC = 0;
  const BInst *Ip;
  // Threaded dispatch: one indirect jump per instruction, no loop branch,
  // no switch-range check. The table is in BC enum order.
  static const void *JumpTab[] = {
      &&L_ConstI32, &&L_CopyS, &&L_CopyV, &&L_Add, &&L_Sub,
      &&L_Mul, &&L_SDiv, &&L_SRem, &&L_Shl, &&L_AShr,
      &&L_LShr, &&L_And, &&L_Or, &&L_Xor, &&L_ICmpEQ,
      &&L_ICmpNE, &&L_ICmpSLT, &&L_ICmpSLE, &&L_ICmpSGT, &&L_ICmpSGE,
      &&L_Select, &&L_SAbs, &&L_SMax, &&L_SMin, &&L_Load,
      &&L_Store, &&L_VBroadcast, &&L_VBuild, &&L_VAdd, &&L_VSub,
      &&L_VMul, &&L_VMinS, &&L_VMaxS, &&L_VAnd, &&L_VOr,
      &&L_VXor, &&L_VAndNot, &&L_VAbs, &&L_VCmpGt, &&L_VCmpEq,
      &&L_VBlend, &&L_VSelect, &&L_VShlI, &&L_VShrLI, &&L_VShrAI,
      &&L_VShlV, &&L_VShrLV, &&L_VShrAV, &&L_VExtract, &&L_VInsert,
      &&L_VPermute, &&L_VHAdd, &&L_VLoad, &&L_VStore, &&L_VMaskLoad,
      &&L_VMaskStore, &&L_Jmp, &&L_IfBr, &&L_LoopBr, &&L_RetVoid,
      &&L_RetVal, &&L_Halt};

#define LV_DISPATCH()                                                        \
  do {                                                                       \
    Ip = Code + PC++;                                                        \
    goto *JumpTab[static_cast<size_t>(Ip->Op)];                              \
  } while (0)

#define LV_CHARGE()                                                          \
  do {                                                                       \
    ++Hist[Ip->Cls];                                                         \
    if (CM)                                                                  \
      Cycles += CostTab[static_cast<size_t>(Ip->Op)];                        \
    if (++Steps > MaxSteps) {                                                \
      flush();                                                               \
      Res.St = ExecResult::OutOfFuel;                                        \
      return Res;                                                            \
    }                                                                        \
    if ((Steps & 0xFFFFFULL) == 0 && CT && CT->expired())                    \
      throw support::CancelledError("interp.bytecode");                      \
  } while (0)

  LV_DISPATCH();

  L_ConstI32:
      LV_CHARGE();
      S[static_cast<size_t>(Ip->Rd)] = static_cast<int32_t>(Ip->Imm);
      LV_DISPATCH();
  L_CopyS:
      LV_CHARGE();
      S[static_cast<size_t>(Ip->Rd)] = S[static_cast<size_t>(Ip->A)];
      LV_DISPATCH();
  L_CopyV:
      LV_CHARGE();
      V[static_cast<size_t>(Ip->Rd)] = V[static_cast<size_t>(Ip->A)];
      LV_DISPATCH();
  L_Add:
      LV_CHARGE();
      S[static_cast<size_t>(Ip->Rd)] =
          wrapAdd(S[static_cast<size_t>(Ip->A)], S[static_cast<size_t>(Ip->B)]);
      LV_DISPATCH();
  L_Sub:
      LV_CHARGE();
      S[static_cast<size_t>(Ip->Rd)] =
          wrapSub(S[static_cast<size_t>(Ip->A)], S[static_cast<size_t>(Ip->B)]);
      LV_DISPATCH();
  L_Mul:
      LV_CHARGE();
      S[static_cast<size_t>(Ip->Rd)] =
          wrapMul(S[static_cast<size_t>(Ip->A)], S[static_cast<size_t>(Ip->B)]);
      LV_DISPATCH();
  L_SDiv: {
      LV_CHARGE();
      int32_t D = S[static_cast<size_t>(Ip->B)];
      int32_t N = S[static_cast<size_t>(Ip->A)];
      if (D == 0)
        return trapRes(TrapKind::DivByZero, "integer division by zero");
      if (N == INT32_MIN && D == -1)
        return trapRes(TrapKind::Overflow, "signed division overflow");
      if (CM && D > 0 && (D & (D - 1)) == 0)
        Cycles -= CM->ScalarDiv - 2 * CM->ScalarAlu;
      S[static_cast<size_t>(Ip->Rd)] = N / D;
      LV_DISPATCH();
    }
  L_SRem: {
      LV_CHARGE();
      int32_t D = S[static_cast<size_t>(Ip->B)];
      int32_t N = S[static_cast<size_t>(Ip->A)];
      if (D == 0)
        return trapRes(TrapKind::DivByZero, "integer remainder by zero");
      if (N == INT32_MIN && D == -1)
        return trapRes(TrapKind::Overflow, "signed remainder overflow");
      if (CM && D > 0 && (D & (D - 1)) == 0)
        Cycles -= CM->ScalarDiv - 2 * CM->ScalarAlu;
      S[static_cast<size_t>(Ip->Rd)] = N % D;
      LV_DISPATCH();
    }
  L_Shl:
      LV_CHARGE();
      S[static_cast<size_t>(Ip->Rd)] = static_cast<int32_t>(
          static_cast<uint32_t>(S[static_cast<size_t>(Ip->A)])
          << (S[static_cast<size_t>(Ip->B)] & 31));
      LV_DISPATCH();
  L_AShr:
      LV_CHARGE();
      S[static_cast<size_t>(Ip->Rd)] =
          S[static_cast<size_t>(Ip->A)] >> (S[static_cast<size_t>(Ip->B)] & 31);
      LV_DISPATCH();
  L_LShr:
      LV_CHARGE();
      S[static_cast<size_t>(Ip->Rd)] = static_cast<int32_t>(
          static_cast<uint32_t>(S[static_cast<size_t>(Ip->A)]) >>
          (S[static_cast<size_t>(Ip->B)] & 31));
      LV_DISPATCH();
  L_And:
      LV_CHARGE();
      S[static_cast<size_t>(Ip->Rd)] =
          S[static_cast<size_t>(Ip->A)] & S[static_cast<size_t>(Ip->B)];
      LV_DISPATCH();
  L_Or:
      LV_CHARGE();
      S[static_cast<size_t>(Ip->Rd)] =
          S[static_cast<size_t>(Ip->A)] | S[static_cast<size_t>(Ip->B)];
      LV_DISPATCH();
  L_Xor:
      LV_CHARGE();
      S[static_cast<size_t>(Ip->Rd)] =
          S[static_cast<size_t>(Ip->A)] ^ S[static_cast<size_t>(Ip->B)];
      LV_DISPATCH();
  L_ICmpEQ:
  L_ICmpNE:
  L_ICmpSLT:
  L_ICmpSLE:
  L_ICmpSGT:
  L_ICmpSGE: {
      LV_CHARGE();
      int32_t L = S[static_cast<size_t>(Ip->A)];
      int32_t R = S[static_cast<size_t>(Ip->B)];
      bool C = false;
      switch (Ip->Op) {
      case BC::ICmpEQ: C = L == R; break;
      case BC::ICmpNE: C = L != R; break;
      case BC::ICmpSLT: C = L < R; break;
      case BC::ICmpSLE: C = L <= R; break;
      case BC::ICmpSGT: C = L > R; break;
      default: C = L >= R; break;
      }
      S[static_cast<size_t>(Ip->Rd)] = C ? 1 : 0;
      LV_DISPATCH();
    }
  L_Select:
      LV_CHARGE();
      S[static_cast<size_t>(Ip->Rd)] = S[static_cast<size_t>(Ip->A)] != 0
                                         ? S[static_cast<size_t>(Ip->B)]
                                         : S[static_cast<size_t>(Ip->C)];
      LV_DISPATCH();
  L_SAbs: {
      LV_CHARGE();
      int32_t X = S[static_cast<size_t>(Ip->A)];
      S[static_cast<size_t>(Ip->Rd)] = X < 0 ? wrapSub(0, X) : X;
      LV_DISPATCH();
    }
  L_SMax: {
      LV_CHARGE();
      int32_t X = S[static_cast<size_t>(Ip->A)];
      int32_t Y = S[static_cast<size_t>(Ip->B)];
      S[static_cast<size_t>(Ip->Rd)] = X > Y ? X : Y;
      LV_DISPATCH();
    }
  L_SMin: {
      LV_CHARGE();
      int32_t X = S[static_cast<size_t>(Ip->A)];
      int32_t Y = S[static_cast<size_t>(Ip->B)];
      S[static_cast<size_t>(Ip->Rd)] = X < Y ? X : Y;
      LV_DISPATCH();
    }
  L_Load: {
      LV_CHARGE();
      std::vector<int32_t> *R = regionAt(Ip->Imm);
      int64_t Off = S[static_cast<size_t>(Ip->A)];
      if (!R || Off < 0 || Off >= static_cast<int64_t>(R->size()))
        return trapRes(
            TrapKind::OutOfBounds,
            format("out-of-bounds load @%s[%lld]",
                   P.Mems[static_cast<size_t>(Ip->Imm)].Name.c_str(),
                   static_cast<long long>(Off)));
      S[static_cast<size_t>(Ip->Rd)] = (*R)[static_cast<size_t>(Off)];
      LV_DISPATCH();
    }
  L_Store: {
      LV_CHARGE();
      std::vector<int32_t> *R = regionAt(Ip->Imm);
      int64_t Off = S[static_cast<size_t>(Ip->A)];
      if (!R || Off < 0 || Off >= static_cast<int64_t>(R->size()))
        return trapRes(
            TrapKind::OutOfBounds,
            format("out-of-bounds store @%s[%lld]",
                   P.Mems[static_cast<size_t>(Ip->Imm)].Name.c_str(),
                   static_cast<long long>(Off)));
      (*R)[static_cast<size_t>(Off)] = S[static_cast<size_t>(Ip->B)];
      LV_DISPATCH();
    }
  L_VBroadcast: {
      LV_CHARGE();
      VecVal R;
      R.fill(S[static_cast<size_t>(Ip->A)]);
      V[static_cast<size_t>(Ip->Rd)] = R;
      LV_DISPATCH();
    }
  L_VBuild: {
      LV_CHARGE();
      VecVal R;
      for (int L = 0; L < Lanes; ++L)
        R[static_cast<size_t>(L)] =
            S[static_cast<size_t>(Extra[Ip->A + L])];
      V[static_cast<size_t>(Ip->Rd)] = R;
      LV_DISPATCH();
    }
  L_VAdd:
  L_VSub:
  L_VMul:
  L_VMinS:
  L_VMaxS:
  L_VAnd:
  L_VOr:
  L_VXor:
  L_VAndNot:
  L_VCmpGt:
  L_VCmpEq: {
      LV_CHARGE();
      const VecVal &X = V[static_cast<size_t>(Ip->A)];
      const VecVal &Y = V[static_cast<size_t>(Ip->B)];
      VecVal R;
      for (size_t L = 0; L < Lanes; ++L) {
        switch (Ip->Op) {
        case BC::VAdd: R[L] = wrapAdd(X[L], Y[L]); break;
        case BC::VSub: R[L] = wrapSub(X[L], Y[L]); break;
        case BC::VMul: R[L] = wrapMul(X[L], Y[L]); break;
        case BC::VMinS: R[L] = X[L] < Y[L] ? X[L] : Y[L]; break;
        case BC::VMaxS: R[L] = X[L] > Y[L] ? X[L] : Y[L]; break;
        case BC::VAnd: R[L] = X[L] & Y[L]; break;
        case BC::VOr: R[L] = X[L] | Y[L]; break;
        case BC::VXor: R[L] = X[L] ^ Y[L]; break;
        case BC::VAndNot: R[L] = ~X[L] & Y[L]; break;
        case BC::VCmpGt: R[L] = X[L] > Y[L] ? -1 : 0; break;
        default: R[L] = X[L] == Y[L] ? -1 : 0; break;
        }
      }
      V[static_cast<size_t>(Ip->Rd)] = R;
      LV_DISPATCH();
    }
  L_VAbs: {
      LV_CHARGE();
      const VecVal &X = V[static_cast<size_t>(Ip->A)];
      VecVal R;
      for (size_t L = 0; L < Lanes; ++L)
        R[L] = X[L] < 0 ? wrapSub(0, X[L]) : X[L];
      V[static_cast<size_t>(Ip->Rd)] = R;
      LV_DISPATCH();
    }
  L_VBlend: {
      LV_CHARGE();
      const VecVal &X = V[static_cast<size_t>(Ip->A)];
      const VecVal &Y = V[static_cast<size_t>(Ip->B)];
      const VecVal &M = V[static_cast<size_t>(Ip->C)];
      VecVal R;
      for (size_t L = 0; L < Lanes; ++L) {
        uint32_t XB = static_cast<uint32_t>(X[L]);
        uint32_t YB = static_cast<uint32_t>(Y[L]);
        uint32_t MB = static_cast<uint32_t>(M[L]);
        uint32_t Out = 0;
        for (int B = 0; B < 4; ++B) {
          uint32_t Mask = 0xffu << (B * 8);
          bool Take = (MB >> (B * 8 + 7)) & 1u;
          Out |= (Take ? YB : XB) & Mask;
        }
        R[L] = static_cast<int32_t>(Out);
      }
      V[static_cast<size_t>(Ip->Rd)] = R;
      LV_DISPATCH();
    }
  L_VSelect:
      LV_CHARGE();
      V[static_cast<size_t>(Ip->Rd)] = S[static_cast<size_t>(Ip->A)] != 0
                                         ? V[static_cast<size_t>(Ip->B)]
                                         : V[static_cast<size_t>(Ip->C)];
      LV_DISPATCH();
  L_VShlI:
  L_VShrLI:
  L_VShrAI: {
      LV_CHARGE();
      const VecVal &X = V[static_cast<size_t>(Ip->A)];
      int64_t C = S[static_cast<size_t>(Ip->B)];
      VecVal R;
      for (size_t L = 0; L < Lanes; ++L) {
        if (Ip->Op == BC::VShlI)
          R[L] = vshl(X[L], C);
        else if (Ip->Op == BC::VShrLI)
          R[L] = vshrl(X[L], C);
        else
          R[L] = vshra(X[L], C);
      }
      V[static_cast<size_t>(Ip->Rd)] = R;
      LV_DISPATCH();
    }
  L_VShlV:
  L_VShrLV:
  L_VShrAV: {
      LV_CHARGE();
      const VecVal &X = V[static_cast<size_t>(Ip->A)];
      const VecVal &C = V[static_cast<size_t>(Ip->B)];
      VecVal R;
      for (size_t L = 0; L < Lanes; ++L) {
        if (Ip->Op == BC::VShlV)
          R[L] = vshl(X[L], C[L]);
        else if (Ip->Op == BC::VShrLV)
          R[L] = vshrl(X[L], C[L]);
        else
          R[L] = vshra(X[L], C[L]);
      }
      V[static_cast<size_t>(Ip->Rd)] = R;
      LV_DISPATCH();
    }
  L_VExtract:
      LV_CHARGE();
      S[static_cast<size_t>(Ip->Rd)] =
          V[static_cast<size_t>(Ip->A)][static_cast<size_t>(Ip->Imm)];
      LV_DISPATCH();
  L_VInsert: {
      LV_CHARGE();
      VecVal R = V[static_cast<size_t>(Ip->A)];
      R[static_cast<size_t>(Ip->Imm)] = S[static_cast<size_t>(Ip->B)];
      V[static_cast<size_t>(Ip->Rd)] = R;
      LV_DISPATCH();
    }
  L_VPermute: {
      LV_CHARGE();
      const VecVal &X = V[static_cast<size_t>(Ip->A)];
      const VecVal &Idx = V[static_cast<size_t>(Ip->B)];
      VecVal R;
      for (size_t L = 0; L < Lanes; ++L)
        R[L] = X[static_cast<size_t>(Idx[L] & 7)];
      V[static_cast<size_t>(Ip->Rd)] = R;
      LV_DISPATCH();
    }
  L_VHAdd: {
      LV_CHARGE();
      const VecVal &X = V[static_cast<size_t>(Ip->A)];
      const VecVal &Y = V[static_cast<size_t>(Ip->B)];
      VecVal R;
      R[0] = wrapAdd(X[0], X[1]);
      R[1] = wrapAdd(X[2], X[3]);
      R[2] = wrapAdd(Y[0], Y[1]);
      R[3] = wrapAdd(Y[2], Y[3]);
      R[4] = wrapAdd(X[4], X[5]);
      R[5] = wrapAdd(X[6], X[7]);
      R[6] = wrapAdd(Y[4], Y[5]);
      R[7] = wrapAdd(Y[6], Y[7]);
      V[static_cast<size_t>(Ip->Rd)] = R;
      LV_DISPATCH();
    }
  L_VLoad: {
      LV_CHARGE();
      std::vector<int32_t> *R = regionAt(Ip->Imm);
      int64_t Off = S[static_cast<size_t>(Ip->A)];
      if (!R || Off < 0 || Off + Lanes > static_cast<int64_t>(R->size()))
        return trapRes(
            TrapKind::OutOfBounds,
            format("out-of-bounds vector load @%s[%lld..%lld]",
                   P.Mems[static_cast<size_t>(Ip->Imm)].Name.c_str(),
                   static_cast<long long>(Off),
                   static_cast<long long>(Off + Lanes - 1)));
      VecVal Val;
      for (size_t L = 0; L < Lanes; ++L)
        Val[L] = (*R)[static_cast<size_t>(Off) + L];
      V[static_cast<size_t>(Ip->Rd)] = Val;
      LV_DISPATCH();
    }
  L_VStore: {
      LV_CHARGE();
      std::vector<int32_t> *R = regionAt(Ip->Imm);
      int64_t Off = S[static_cast<size_t>(Ip->A)];
      if (!R || Off < 0 || Off + Lanes > static_cast<int64_t>(R->size()))
        return trapRes(
            TrapKind::OutOfBounds,
            format("out-of-bounds vector store @%s[%lld..%lld]",
                   P.Mems[static_cast<size_t>(Ip->Imm)].Name.c_str(),
                   static_cast<long long>(Off),
                   static_cast<long long>(Off + Lanes - 1)));
      const VecVal &Val = V[static_cast<size_t>(Ip->B)];
      for (size_t L = 0; L < Lanes; ++L)
        (*R)[static_cast<size_t>(Off) + L] = Val[L];
      LV_DISPATCH();
    }
  L_VMaskLoad: {
      LV_CHARGE();
      std::vector<int32_t> *R = regionAt(Ip->Imm);
      int64_t Off = S[static_cast<size_t>(Ip->A)];
      const VecVal &M = V[static_cast<size_t>(Ip->B)];
      VecVal Val{};
      for (size_t L = 0; L < Lanes; ++L) {
        if (!(static_cast<uint32_t>(M[L]) >> 31))
          continue; // inactive lanes do not touch memory
        int64_t At = Off + static_cast<int64_t>(L);
        if (!R || At < 0 || At >= static_cast<int64_t>(R->size()))
          return trapRes(TrapKind::OutOfBounds,
                         "out-of-bounds masked load");
        Val[L] = (*R)[static_cast<size_t>(At)];
      }
      V[static_cast<size_t>(Ip->Rd)] = Val;
      LV_DISPATCH();
    }
  L_VMaskStore: {
      LV_CHARGE();
      std::vector<int32_t> *R = regionAt(Ip->Imm);
      int64_t Off = S[static_cast<size_t>(Ip->A)];
      const VecVal &M = V[static_cast<size_t>(Ip->B)];
      const VecVal &Val = V[static_cast<size_t>(Ip->C)];
      for (size_t L = 0; L < Lanes; ++L) {
        if (!(static_cast<uint32_t>(M[L]) >> 31))
          continue;
        int64_t At = Off + static_cast<int64_t>(L);
        if (!R || At < 0 || At >= static_cast<int64_t>(R->size()))
          return trapRes(TrapKind::OutOfBounds,
                         "out-of-bounds masked store");
        (*R)[static_cast<size_t>(At)] = Val[L];
      }
      LV_DISPATCH();
    }
  L_Jmp:
      PC = static_cast<size_t>(Ip->Imm);
      LV_DISPATCH();
  L_IfBr:
      // The `if` dispatch: Branch cost + step + fuel check, as the
      // tree-walk's Node::If does.
      if (CM)
        Cycles += CM->Branch;
      ++Hist[Ip->Cls];
      if (++Steps > MaxSteps) {
        flush();
        Res.St = ExecResult::OutOfFuel;
        return Res;
      }
      if (S[static_cast<size_t>(Ip->A)] == 0)
        PC = static_cast<size_t>(Ip->Imm);
      LV_DISPATCH();
  L_LoopBr:
      // Loop back-edge: LoopIter cost only — no step, no fuel check —
      // exactly the tree-walk's per-iteration charge.
      if (CM)
        Cycles += CM->LoopIter;
      ++Hist[Ip->Cls];
      if (S[static_cast<size_t>(Ip->A)] == 0)
        PC = static_cast<size_t>(Ip->Imm);
      LV_DISPATCH();
  L_RetVoid:
      flush();
      Res.Returned = true;
      return Res;
  L_RetVal:
      flush();
      Res.Returned = true;
      Res.RetVal = S[static_cast<size_t>(Ip->A)];
      return Res;
  L_Halt:
      flush();
      return Res;
#undef LV_DISPATCH
#undef LV_CHARGE
}
