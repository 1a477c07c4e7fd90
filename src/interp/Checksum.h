//===- interp/Checksum.h - checksum-based testing ---------------*- C++ -*-===//
///
/// \file
/// Checksum-based equivalence testing (paper §2.1): initialize the input
/// arrays with random values, run the scalar and the vectorized function on
/// identical inputs, and compare every output array and the return value.
/// A pair that survives all runs is Plausible; any mismatch, crash, or hang
/// of the candidate is NotEquivalent.
///
/// Loop bounds are multiples of the vector width (as in the paper's harness,
/// where n = 32000): candidates without an epilogue loop are not penalized
/// for the remainder, and latent UB (speculative loads) goes unnoticed —
/// that blind spot is exactly what the symbolic verifier later closes.
///
/// `runChecksumTest` is the harness's one entry point: one candidate
/// against one scalar. With a `ScalarRefMemo` the scalar reference runs
/// once per (seed, bound) input set and its outputs are reused across
/// calls (the FSM repair loop, the service tester hook and Sample mode
/// pass a per-task memo), so testing many candidates against one scalar
/// builds each random image and runs the scalar once per input set.
///
/// The harness executes on the compiled bytecode VM (interp/Bytecode.h) by
/// default; `ChecksumConfig::UseBytecode = false` selects the tree-walk
/// engine (the seed behaviour, kept as the A/B baseline for
/// bench_table2_checksum).
///
//===----------------------------------------------------------------------===//

#ifndef LV_INTERP_CHECKSUM_H
#define LV_INTERP_CHECKSUM_H

#include "interp/Interp.h"
#include "vir/IR.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace lv {
namespace interp {

/// Verdict of checksum testing.
enum class TestVerdict : uint8_t {
  Plausible,     ///< No run distinguished the two functions.
  NotEquivalent, ///< Outputs differ / candidate crashed or hung.
  Error,         ///< Harness could not run (signature mismatch etc).
};

/// Harness parameters.
struct ChecksumConfig {
  uint64_t Seed = 0x5eed;
  int RunsPerN = 2;                      ///< Random input sets per bound.
  std::vector<int> NValues = {0, 8, 64, 256}; ///< Multiples of the width.
  int BufferLen = 512;                   ///< Allocation per array param.
  int32_t ValueMin = -1000;
  int32_t ValueMax = 1000;
  /// Execute on the compiled bytecode VM instead of the tree-walk
  /// interpreter. Verdicts and modeled cycles are identical by
  /// construction (parity-gated in bench_table2_checksum over the whole
  /// TSVC corpus); false restores the seed engine for A/B measurement.
  bool UseBytecode = true;

  /// Canonical content hash over every field (tagged per field, so values
  /// swapped between same-typed fields change the hash). Keys the
  /// service-layer verdict cache; extend when adding fields.
  uint64_t configHash() const;
};

/// A concrete distinguishing example, reported back to the vectorizer agent
/// by the compiler-tester agent in the multi-agent FSM.
struct Mismatch {
  std::string Where;   ///< e.g. "region a index 3" or "return value".
  int N = 0;           ///< Loop bound of the failing run.
  int32_t Expected = 0;
  int32_t Actual = 0;
  std::string TrapMsg; ///< Non-empty when the candidate trapped/hung.
};

/// What one checksum test cost in interpreter work. Candidate-side
/// counters are a pure function of (scalar, candidate, config); a memo
/// shares scalar references across calls, so scalar-side counters describe
/// the runs *this call* paid for.
struct ChecksumWork {
  uint64_t InputSets = 0;       ///< (N, run) sets this candidate consumed.
  uint64_t CandRuns = 0;        ///< Candidate executions.
  uint64_t ScalarRuns = 0;      ///< Reference executions performed here.
  uint64_t ScalarRunsSaved = 0; ///< References served from the memo.
  InterpWork Cand;              ///< Candidate-side interpreter work.
  InterpWork Scalar;            ///< Reference-side work paid for here.
  TrapKind CandTrap = TrapKind::None; ///< Set when the candidate trapped.
  bool CandHang = false;        ///< Candidate exceeded the step budget.
};

/// Outcome with diagnostics.
struct ChecksumOutcome {
  TestVerdict Verdict = TestVerdict::Error;
  Mismatch FirstMismatch; ///< Valid when Verdict == NotEquivalent.
  std::string Detail;
  ChecksumWork Work;      ///< Interpreter work counters (see above).

  bool plausible() const { return Verdict == TestVerdict::Plausible; }
};

/// Memoized scalar reference runs: per (N, run) input set, the random
/// input image, the post-run reference outputs, and the argument plan.
/// Owned by one task (FSM run / service task) — not thread-safe — and
/// automatically invalidated when the scalar function or the checksum
/// config changes. Passing one to runChecksumTest makes the scalar run
/// once per input set *across* candidate invocations.
struct ScalarRefMemo {
  struct RefRun {
    bool Computed = false;
    bool RefOk = false;    ///< Reference executed cleanly (usable oracle).
    int32_t RetVal = 0;
    /// Resolved scalar-argument vector. Candidates share it: the harness
    /// only runs candidates whose parameter list matches the scalar's
    /// name for name, so by-name resolution yields the same values.
    std::vector<int32_t> Args;
    MemoryImage Input;     ///< Param regions before the reference ran.
    MemoryImage RefOut;    ///< Full image after the reference ran.
    InterpWork ScalarWork; ///< Work of the one reference execution.
  };

  std::string ScalarKey;  ///< Content key of the memoized scalar.
  uint64_t ConfigHash = 0;
  std::vector<RefRun> Runs; ///< NValues-major, RunsPerN-minor.
  uint64_t ScalarRuns = 0;  ///< Reference executions recorded in here.
};

/// Runs checksum testing of candidate \p Vec against reference \p Scalar.
/// Scalar parameters are matched by name; the parameter named "n" receives
/// the loop bound. \p Memo (optional) memoizes the scalar reference runs
/// across calls with the same scalar and config.
ChecksumOutcome runChecksumTest(const vir::VFunction &Scalar,
                                const vir::VFunction &Vec,
                                const ChecksumConfig &Cfg = ChecksumConfig(),
                                ScalarRefMemo *Memo = nullptr);

} // namespace interp
} // namespace lv

#endif // LV_INTERP_CHECKSUM_H
