//===- tv/Refine.h - bounded translation validation -------------*- C++ -*-===//
///
/// \file
/// Refinement checking of a vectorized candidate against its scalar source
/// (the project's Alive2): both functions are executed symbolically from a
/// shared initial state, and the SAT core searches for an input where the
/// source is UB-free but the target misbehaves:
///
///   violation := assumptions && !UB_src &&
///                (UB_tgt || return-differs || exists cell: cell-differs)
///
/// where a cell/return "differs" when the source value is non-poison and
/// the target value is poison or unequal. Unsat => Equivalent (within the
/// bounded domain, "modulo unrolling"), Sat => Inequivalent with a concrete
/// counterexample, Unknown => Inconclusive (the paper's timeout). An
/// assumption prefix that folds to false (every execution needs more loop
/// iterations than the unroll bound, or the pins leave the domain) admits
/// no input at all, so the query is Inconclusive rather than a vacuous
/// Equivalent.
///
/// Options carry the paper's domain-specific devices: the divisibility
/// assumption `(end - start) % m == 0` from loop alignment (§3.1), separate
/// unroll bounds per side, a cell filter for spatial case splitting
/// (§3.3), and scalar pins for stage 2's case split on the trip count.
///
//===----------------------------------------------------------------------===//

#ifndef LV_TV_REFINE_H
#define LV_TV_REFINE_H

#include "smt/Sat.h"
#include "tv/SymExec.h"
#include "vir/IR.h"

#include <memory>
#include <string>
#include <vector>

namespace lv {
namespace tv {

/// Divisibility assumption `(Param + Offset) % Mod == 0` (paper §3.1:
/// "(end1 - start1) % m == 0", with end expressed as n + Offset).
struct DivAssumption {
  std::string Param;
  int32_t Offset = 0;
  int32_t Mod = 8;
};

/// Binds scalar parameter `Param` to the constant `Value` (Algorithm 1's
/// stage-2 case split on the trip count; see core/Equivalence.h).
struct ScalarPin {
  std::string Param;
  int32_t Value = 0;
};

/// Verification options.
struct RefineOptions {
  ExecOptions SrcExec{18, 24}; ///< Source unroll bound / memory window.
  ExecOptions TgtExec{4, 24};  ///< Target (vectorized) side.
  int32_t ScalarMax = 16;      ///< Scalar params constrained to [0, this].
  std::vector<DivAssumption> Divs;
  std::vector<ScalarPin> Pins; ///< Scalars bound to constants (SharedInputs
                               ///< folds them into the encoding).
  int CompareWindow = 24;      ///< Cells compared per region.
  int CellFilter = -1;         ///< >= 0: compare only this cell index
                               ///< (spatial case splitting).
  smt::SatBudget Budget{/*MaxConflicts=*/25'000, UINT64_MAX,
                        /*MaxClauses=*/3'000'000};
                               ///< SAT budget; exceeded => Inconclusive.
  size_t MaxTerms = 2'000'000; ///< Term-DAG cap (memout analogue).
};

/// Verdicts mirror the paper's Table 3 labels.
enum class TVVerdict : uint8_t {
  Equivalent,
  Inequivalent,
  Inconclusive, ///< Budget exhausted (timeout/memout analogue).
  Unsupported,  ///< Encoder limitation (unmodeled construct analogue).
};

/// Result with diagnostics and query-size statistics. SAT statistics are
/// per-query deltas (comparable between one-shot and incremental solving).
struct TVResult {
  TVVerdict V = TVVerdict::Unsupported;
  std::string Counterexample; ///< Human-readable model when Inequivalent.
  std::string Detail;
  uint64_t Conflicts = 0;
  uint64_t Propagations = 0;
  uint64_t Restarts = 0;
  uint64_t Clauses = 0;
  uint64_t SatVars = 0;
  uint64_t LearntLive = 0;  ///< Learnt-clause DB size after the query.
  double AvgLBD = 0.0;      ///< Mean learnt-clause LBD (solver health).
  uint64_t SolveNanos = 0;  ///< Wall time of encode+solve for this query.
  size_t TermCount = 0;

  bool equivalent() const { return V == TVVerdict::Equivalent; }
};

/// A reusable refinement-checking context. Symbolic execution of both
/// sides, the shared assumption prefix, and the bit-blasted encoding are
/// built once into a pristine base solver; checkFull()/checkCell() then
/// run each query in a cheap throwaway fork of that base (flat copies of
/// the clause arena and blaster memos — see IncrementalSolver). The
/// spatial-splitting stage (paper §3.3) asks one query per cell over the
/// same symbolic states — with a session the per-query cost drops from
/// "symbolic execution + full blast + solve" to "fork + cell-cone blast
/// + solve". Because the base is never searched, a fork behaves exactly
/// like a scratch solver over the same encoding: verdicts are identical
/// to one-shot checkRefinement by construction (learnt clauses are NOT
/// shared across queries — warm-solver state measurably distorts
/// budget-bounded searches). Each query is exactly one solve, in its own
/// fork. Identical queries (same violation TermId, same budget) replay
/// their memoized verdict without solving.
///
/// \p Src and \p Tgt must outlive the session.
class RefinementSession {
public:
  RefinementSession(const vir::VFunction &Src, const vir::VFunction &Tgt,
                    const RefineOptions &Opts);
  ~RefinementSession();
  RefinementSession(RefinementSession &&) noexcept;

  /// Full compare-window query — the stage-2/3 shape (honours
  /// Opts.CellFilter for compatibility with one-shot checkRefinement).
  TVResult checkFull(const smt::SatBudget &Budget);

  /// Single-cell query — the stage-4 spatial-splitting shape. Stage 4
  /// calls it once per cell, in cell order, on the session's thread.
  TVResult checkCell(int Cell, const smt::SatBudget &Budget);

private:
  struct Impl;
  std::unique_ptr<Impl> I;

  friend TVResult checkRefinement(const vir::VFunction &Src,
                                  const vir::VFunction &Tgt,
                                  const RefineOptions &Opts);
};

/// Checks that \p Tgt refines \p Src under \p Opts (one-shot wrapper
/// around a fresh RefinementSession; it solves in the base directly, which
/// a session's fork of the same base reproduces bit for bit).
TVResult checkRefinement(const vir::VFunction &Src, const vir::VFunction &Tgt,
                         const RefineOptions &Opts = RefineOptions());

const char *verdictName(TVVerdict V);

} // namespace tv
} // namespace lv

#endif // LV_TV_REFINE_H
