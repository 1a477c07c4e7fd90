//===- tv/SymExec.h - symbolic execution of VIR -----------------*- C++ -*-===//
///
/// \file
/// Symbolic executor over VIR producing SMT terms, in the style of Alive2's
/// encoding of LLVM IR:
///
///  * Values carry a poison flag. C-level signed arithmetic (nsw) poisons
///    on overflow; AVX2 vector ops wrap. Branching on poison, dividing by
///    zero and out-of-bounds accesses are immediate UB.
///  * Memory regions have a *symbolic allocation size*: an access is UB
///    unless `0 <= off < size`. Distinct arrays live in distinct regions
///    (the paper's non-aliasing device), and speculative loads beyond the
///    source's footprint become refutable — the s124 counterexample sets a
///    region size the source never needs but the target dereferences.
///  * Control flow is executed with guard terms: `if` runs both arms and
///    merges with ite; loops are unrolled up to a bound with per-iteration
///    guards, and the "loop still running after the bound" condition is
///    collected as an assumption (bounded TV, the paper's "modulo loop
///    unrolling").
///
//===----------------------------------------------------------------------===//

#ifndef LV_TV_SYMEXEC_H
#define LV_TV_SYMEXEC_H

#include "smt/Term.h"
#include "vir/IR.h"

#include <array>
#include <string>
#include <unordered_map>
#include <vector>

namespace lv {
namespace tv {

/// A symbolic scalar value with poison flag.
struct SymVal {
  smt::TermId Val = smt::NoTerm;
  smt::TermId Poison = smt::NoTerm;
};

/// A symbolic 8-lane vector value.
struct SymVec {
  std::array<SymVal, vir::Lanes> Lane;
};

/// Symbolic memory for one region: base cells (fresh variables for
/// parameters, poison for locals), a guarded write log, and a symbolic
/// allocation size.
class SymMemory {
public:
  /// Parameter region backed by shared inputs (see SharedInputs below).
  SymMemory(smt::TermTable &T, const std::string &Name, int Cap,
            smt::TermId Size, std::vector<SymVal> Base);

  /// Local-array region: fixed size, poison-initialized cells.
  SymMemory(smt::TermTable &T, const std::string &Name, int Cap,
            int64_t LocalSize);

  /// Reads the cell at \p Off (no bounds check; see inBounds).
  SymVal read(smt::TermId Off) const;

  /// Writes under \p Guard.
  void write(smt::TermId Off, SymVal V, smt::TermId Guard);

  /// `0 <= off < size` (signed).
  smt::TermId inBounds(smt::TermId Off) const;

  /// `0 <= off && off + n <= size` for an n-element access.
  smt::TermId inBoundsRange(smt::TermId Off, int N) const;

  smt::TermId sizeTerm() const { return Size; }
  int capacity() const { return Cap; }
  const std::string &name() const { return Name; }

  /// Assumption constraining the symbolic size to the bounded window.
  smt::TermId sizeDomain() const;

private:
  smt::TermTable &T;
  std::string Name;
  int Cap;
  smt::TermId Size;
  std::vector<SymVal> Base;
  struct WriteRec {
    smt::TermId Off;
    SymVal V;
    smt::TermId Guard;
  };
  std::vector<WriteRec> Log;

  SymVal readBase(smt::TermId Off) const;
};

/// Options controlling symbolic execution.
struct ExecOptions {
  int UnrollBound = 18;  ///< Max iterations per loop.
  int MemWindow = 24;    ///< Bounded memory capacity per region.
};

/// Result state of symbolically executing one function.
struct SymState {
  std::vector<SymMemory> Mems;          ///< Indexed like VFunction::Memories.
  smt::TermId UB = smt::NoTerm;         ///< Immediate-UB condition.
  smt::TermId Assum = smt::NoTerm;      ///< Unroll-exhaustion assumptions.
  smt::TermId RetCond = smt::NoTerm;    ///< "Function returned a value".
  SymVal RetVal;
  std::string Error;                    ///< Non-empty on executor failure.

  bool ok() const { return Error.empty(); }
};

/// Initial-state inputs shared between the source and target executions so
/// both sides see identical parameters and memory contents.
class SharedInputs {
public:
  explicit SharedInputs(smt::TermTable &T) : T(T) {}

  /// Binds scalar parameter \p Name to the constant \p Value: scalar()
  /// then returns that constant instead of a fresh variable, so every
  /// guard and index that depends on it folds during execution. Must be
  /// called before the first scalar(Name).
  void pin(const std::string &Name, int32_t Value) { Pins[Name] = Value; }

  /// Term for scalar parameter \p Name (created on first use; a constant
  /// when pinned).
  smt::TermId scalar(const std::string &Name);

  /// Allocation size term for array \p Name (created on first use).
  smt::TermId arraySize(const std::string &Name);

  /// Initial cells for array \p Name, grown to \p Cap entries.
  const std::vector<SymVal> &arrayBase(const std::string &Name, int Cap);

  /// All scalar names seen (for counterexample printing).
  const std::vector<std::string> &scalarNames() const { return ScalarOrder; }
  const std::vector<std::string> &arrayNames() const { return ArrayOrder; }

private:
  smt::TermTable &T;
  std::vector<std::string> ScalarOrder, ArrayOrder;
  std::unordered_map<std::string, smt::TermId> Scalars;
  std::unordered_map<std::string, int32_t> Pins;
  std::unordered_map<std::string, smt::TermId> Sizes;
  std::unordered_map<std::string, std::vector<SymVal>> Bases;
};

/// Symbolically executes \p F against the shared initial state.
SymState executeSymbolic(const vir::VFunction &F, smt::TermTable &T,
                         SharedInputs &Inputs, const ExecOptions &Opts);

} // namespace tv
} // namespace lv

#endif // LV_TV_SYMEXEC_H
