//===- interp/Bytecode.h - register bytecode VM ----------------*- C++ -*-===//
///
/// \file
/// Compile-once execution backend for VIR: a `VFunction` is lowered once
/// into a flat register-bytecode program — dense opcodes, pre-resolved
/// operand slots (predicates folded into opcode variants, `Copy` split by
/// register type), direct branch targets — and executed by a tight
/// dispatch loop with none of the tree-walk's per-node pointer chasing or
/// per-run re-decoding. One checksum test runs its candidate up to
/// `RunsPerN x |NValues|` times, so one compile per runChecksumTest call
/// amortizes across all of those runs. There is no program
/// cache: a compile costs less than a content-keyed lookup would.
///
/// Semantics are *bit-identical* to interp::execute by construction: the
/// flattener emits exactly one charged event per tree-walk charge point
/// (instruction / `if` dispatch / loop back-edge), in the same order, with
/// the same cycle values, fuel accounting, trap kinds, and trap messages.
/// bench_table2_checksum gates this parity over the full TSVC corpus.
///
/// See src/interp/README.md for the instruction format and the checksum
/// harness built on top of this VM.
///
//===----------------------------------------------------------------------===//

#ifndef LV_INTERP_BYTECODE_H
#define LV_INTERP_BYTECODE_H

#include "interp/Interp.h"
#include "vir/IR.h"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace lv {
namespace interp {

/// Dense bytecode opcodes: every vir::Op (with predicates and Copy types
/// pre-resolved) plus the control ops the flattener introduces.
enum class BC : uint8_t {
  // Scalar.
  ConstI32, CopyS, CopyV,
  Add, Sub, Mul, SDiv, SRem, Shl, AShr, LShr, And, Or, Xor,
  ICmpEQ, ICmpNE, ICmpSLT, ICmpSLE, ICmpSGT, ICmpSGE, ///< Pred folded in.
  Select, SAbs, SMax, SMin, Load, Store,
  // Vector.
  VBroadcast, VBuild,
  VAdd, VSub, VMul, VMinS, VMaxS, VAnd, VOr, VXor, VAndNot, VAbs,
  VCmpGt, VCmpEq, VBlend, VSelect,
  VShlI, VShrLI, VShrAI, VShlV, VShrLV, VShrAV,
  VExtract, VInsert, VPermute, VHAdd,
  VLoad, VStore, VMaskLoad, VMaskStore,
  // Control (the flattened structure; charge semantics mirror the tree).
  Jmp,     ///< pc = Imm. Charges nothing (region sequencing/break/continue).
  IfBr,    ///< `if` dispatch: Branch cost + step + fuel; pc = Imm if rA==0.
  LoopBr,  ///< Loop back-edge: LoopIter cost only; pc = Imm if rA==0.
  RetVoid, ///< Return, no value. Charges nothing.
  RetVal,  ///< Return rA. Charges nothing.
  Halt,    ///< Fell off the function body.
};
inline constexpr size_t kNumBC = static_cast<size_t>(BC::Halt) + 1;

const char *bcName(BC Op);

/// One flat instruction. Operand registers pre-resolved into fixed slots;
/// `Imm` holds the constant / region id / lane index / branch target.
/// VBuild stores its 8 lane registers in the program's Extra pool and the
/// pool offset in A.
struct BInst {
  BC Op = BC::Halt;
  uint8_t Cls = 0; ///< OpClass index for the work histogram.
  int32_t Rd = -1;
  int32_t A = -1, B = -1, C = -1;
  int64_t Imm = 0;
};

/// A compiled function: the instruction stream plus the parameter/region
/// binding metadata execution needs (copied out of the VFunction, so a
/// program outlives the IR it was compiled from).
struct BytecodeProgram {
  std::vector<BInst> Code;
  std::vector<int32_t> Extra; ///< Operand pool (VBuild lanes).
  int NumRegs = 0;
  bool ReturnsValue = false;

  struct ParamBind {
    bool IsPointer = false;
    int Reg = -1;
  };
  std::vector<ParamBind> Params; ///< Declaration order, as in VFunction.

  struct MemBind {
    std::string Name; ///< For trap messages.
    bool IsParam = true;
    int64_t LocalSize = 0;
  };
  std::vector<MemBind> Mems;
};

/// Canonical content key of \p F: a compact injective binary
/// serialization of every semantically relevant field (params, memories,
/// register types, body). Two functions with equal keys compile to
/// identical programs; interp::ScalarRefMemo uses it as the scalar's
/// identity. The string is binary — compare whole buffers, not c_str().
std::string bytecodeKey(const vir::VFunction &F);

/// Lowers \p F to bytecode. Thread-safe; keeps no state between calls.
BytecodeProgram compileBytecode(const vir::VFunction &F);

/// Compile counter. Misses is the number of compileBytecode calls since
/// the process started (the `interp.bc_compiles` obs counter, so
/// obs::resetMetrics() zeroes it too).
struct BytecodeCacheStats {
  uint64_t Misses = 0;
};
BytecodeCacheStats bytecodeCacheStats();

/// Reusable register-file storage. Optional: passing one to execBytecode
/// across runs (the checksum harness replays the same candidate
/// RunsPerN x bounds times) skips the per-run allocation; contents are
/// reinitialized to zero on every run, so results never depend on reuse.
struct BytecodeScratch {
  std::vector<int32_t> S;
  std::vector<std::array<int32_t, vir::Lanes>> V;
};

/// Runs \p P with the same contract as interp::execute — identical
/// results, counters, cycles, and trap behavior.
ExecResult execBytecode(const BytecodeProgram &P,
                        const std::vector<int32_t> &ScalarArgs,
                        MemoryImage &Mem,
                        const ExecConfig &Cfg = ExecConfig(),
                        BytecodeScratch *Scratch = nullptr);

} // namespace interp
} // namespace lv

#endif // LV_INTERP_BYTECODE_H
