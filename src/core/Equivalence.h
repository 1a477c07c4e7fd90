//===- core/Equivalence.h - Algorithm 1: checkEquivalence ------*- C++ -*-===//
///
/// \file
/// The paper's Algorithm 1: staged equivalence checking of a vectorized
/// candidate V against scalar source S.
///
///   1. checksumTesting(S, V)          -> Inequivalent | Plausible
///   2. checkWithAlive2Unroll(S, V)    -> guarded symbolic unrolling with
///      loop alignment, one query per admissible trip count (§3.1)
///   3. checkWithCUnroll(S, V)         -> C-level straight-lining of one
///      aligned block on both sides (§3.2)
///   4. checkWithSpatialSplitting(S,V) -> per-cell queries under the
///      conservative no-loop-carried-dependence check (§3.3)
///
/// Each stage may return Inconclusive (budget exhaustion — the paper's
/// Alive2 timeout/memout); the next stage then runs.
///
/// Stage 2 is case-split on the trip count (the paper's spatial-splitting
/// idea applied to the loop bound instead of the cell index). When the
/// alignment names a trip-count parameter n, the stage asks one
/// tv::checkRefinement per admissible value v of n, in ascending order:
/// 0 <= v <= ScalarMax, v + Div.Offset >= 0 and (v + Div.Offset) %
/// Div.Mod == 0 — exactly the values one query under the divisibility
/// assumption would admit. Each case pins n to v (RefineOptions::Pins), so
/// symbolic execution folds every loop guard and induction variables stay
/// concrete, and unrolls both sides to ScalarMax + 2.
///   * Emptiness rule: a case whose assumptions fold to false (a loop that
///     needs more iterations than the bound at that v) is Inconclusive,
///     never a vacuous Equivalent.
///   * Budget: the cases share Alive2Budget; each gets what the earlier
///     cases left.
///   * Verdict: all cases Equivalent => Equivalent; the first case that is
///     not Equivalent ends the stage with its verdict (Inequivalent
///     decides, and its counterexample prints the pinned `n = v`; Unknown
///     leaves the stage Inconclusive).
///   * Alive2Res sums Conflicts, Propagations, Restarts, Clauses, SatVars
///     and SolveNanos over the cases (TermCount is the largest case's),
///     so span sums, tv.* counters and svc::StageSatWork stay equal.
/// Pairs without a trip-count parameter keep one query with unroll bounds
/// ScalarMax / step + 2 per side.
///
/// Nested loops are
/// handled by requiring syntactically identical outer loops and elevating
/// the outer iterator to a parameter before stages 2-4.
///
/// Stages 3 and 4 share one tv::RefinementSession over the straight-lined
/// block: symbolic execution and the common-encoding blast happen once,
/// and every query (the stage-3 attempt, each stage-4 cell) is exactly one
/// solve in a throwaway fork of the session's pristine base, so its
/// verdict and work equal a one-shot tv::checkRefinement with the same
/// options. Stages 3-4 straight-line one aligned block of V / step copies
/// per side, so they are Unsupported when the candidate's first loop has
/// no known step (a peel loop, say): a guessed copy count would compare a
/// different block than the source's and could refute a correct candidate.
///
/// Every query of stages 2-4 abstracts its multipliers and refines them on
/// demand (smt::IncrementalSolver::check, smt/README.md "Multiplier
/// abstraction"): the rounds share the stage's conflict budget, Unsat
/// stays final and a counterexample is a model the terms themselves
/// satisfy, so a verdict means what it meant with exact multipliers;
/// queries that used to exhaust their budget in multiplier CNF now often
/// settle at an earlier stage. A masked multiply adds no multiplier of its
/// own: smt::TermTable lifts mask-idiom ites (smt/README.md "Mask idioms"),
/// so mullo(maskload(d, m), maskload(e, m)) becomes ite(m, d * e, 0) and
/// shares the scalar's d * e, and a masked accumulate matches the scalar's
/// guarded update.
///
//===----------------------------------------------------------------------===//

#ifndef LV_CORE_EQUIVALENCE_H
#define LV_CORE_EQUIVALENCE_H

#include "interp/Checksum.h"
#include "tv/Refine.h"

#include <functional>
#include <string>
#include <vector>

namespace lv {
namespace core {

/// Which stage settled the verdict.
enum class Stage : uint8_t {
  None,
  Checksum,
  Alive2Unroll,
  CUnroll,
  Splitting,
};

const char *stageName(Stage S);

/// Configuration (budgets double as the ablation knobs).
struct EquivConfig {
  interp::ChecksumConfig Checksum;
  int32_t ScalarMax = 16;        ///< Bounded domain for scalar params.
  uint64_t Alive2Budget = 25'000; ///< Conflicts for stage 2.
  uint64_t CUnrollBudget = 25'000;
  uint64_t SplitBudget = 10'000; ///< Per-cell budget for stage 4.
  size_t MaxTerms = 600'000;     ///< Symbolic-encoding cap (memout knob).
  bool EnableAlive2 = true;      ///< Ablation: skip stage 2.
  bool EnableCUnroll = true;     ///< Ablation: skip stage 3.
  bool EnableSplitting = true;   ///< Ablation: skip stage 4.
  /// Reference hook: when set, every stage-4 per-cell refinement query
  /// routes through this callback instead of the session. Either way
  /// stage 4 asks one query per cell, in cell order, and stops at the
  /// first Inequivalent cell. bench_table3_equivalence
  /// uses it to drive a frozen copy of the seed smt stack as the "before"
  /// measurement; tests use tv::checkRefinement as a scratch-solver
  /// reference.
  std::function<tv::TVResult(const vir::VFunction &, const vir::VFunction &,
                             const tv::RefineOptions &)>
      SplitCellOverride;

  /// Canonical content hash (tagged per field; see support/Rng.h). Keys
  /// the svc:: verdict cache together with the scalar/candidate source
  /// hashes; only the *presence* of SplitCellOverride participates
  /// (callbacks have no content identity — the service bypasses the cache
  /// entirely when one is installed). Extend when adding fields.
  uint64_t configHash() const;
};

/// Full result with per-stage evidence.
struct EquivResult {
  enum Outcome : uint8_t {
    CannotCompile,
    Inequivalent,
    Equivalent,
    Inconclusive,
  } Final = Inconclusive;
  Stage DecidedBy = Stage::None;
  std::string Detail;
  std::string Counterexample;

  interp::ChecksumOutcome ChecksumRes;
  tv::TVResult Alive2Res;
  tv::TVResult CUnrollRes;
  std::vector<tv::TVResult> SplitRes; ///< One per compared cell.
  bool SplittingEligible = false;

  /// Wall time per stage. ChecksumNanos covers the stage-1 interpreter
  /// runs (the Table-2 cost the bytecode VM attacks); the formal-stage
  /// timers include symbolic execution and blasting, not just SAT search
  /// — the costs incremental solving amortizes.
  uint64_t ChecksumNanos = 0;
  uint64_t Alive2Nanos = 0;
  uint64_t CUnrollNanos = 0;
  uint64_t SplitNanos = 0;

  /// The run was cut short by task cancellation (deadline expiry): the
  /// verdict is Inconclusive and the per-stage evidence is partial. A
  /// cancelled result reflects the deadline, not the pair, so it must
  /// never enter the verdict cache or the persistent store — the service
  /// enforces that, and the store serialization deliberately omits this
  /// field (schema unchanged; cancelled results are simply never written).
  bool Cancelled = false;

  bool equivalent() const { return Final == Equivalent; }
};

const char *outcomeName(EquivResult::Outcome O);

/// Runs Algorithm 1 on source text. \p VecSrc failing to compile yields
/// CannotCompile (Table 2's row).
///
/// This is the single-task *kernel*: it owns every piece of mutable state
/// it touches (TermTable, solvers, interpreter images), so concurrent
/// calls never share anything. Batch callers should not invoke it in a
/// hand-rolled loop — svc::VectorizerService is the canonical API for
/// running the funnel over many functions (batching, a worker pool, and
/// the content-addressed verdict cache); svc::verifyPair is the
/// single-call convenience wrapper over a one-worker service.
EquivResult checkEquivalence(const std::string &ScalarSrc,
                             const std::string &VecSrc,
                             const EquivConfig &Cfg = EquivConfig());

} // namespace core
} // namespace lv

#endif // LV_CORE_EQUIVALENCE_H
