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
/// counterexample, Unknown => Inconclusive (the paper's timeout).
///
/// Options carry the paper's domain-specific devices: the divisibility
/// assumption `(end - start) % m == 0` from loop alignment (§3.1), separate
/// unroll bounds per side, and a cell filter for spatial case splitting
/// (§3.3).
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

/// Verification options.
struct RefineOptions {
  ExecOptions SrcExec{18, 24}; ///< Source unroll bound / memory window.
  ExecOptions TgtExec{4, 24};  ///< Target (vectorized) side.
  int32_t ScalarMax = 16;      ///< Scalar params constrained to [0, this].
  std::vector<DivAssumption> Divs;
  int CompareWindow = 24;      ///< Cells compared per region.
  int CellFilter = -1;         ///< >= 0: compare only this cell index
                               ///< (spatial case splitting).
  smt::SatBudget Budget{/*MaxConflicts=*/25'000, UINT64_MAX,
                        /*MaxClauses=*/3'000'000};
                               ///< SAT budget; exceeded => Inconclusive.
  size_t MaxTerms = 2'000'000; ///< Term-DAG cap (memout analogue).
  /// Sessions only: portfolio racing (see smt/README.md "Portfolio
  /// mode"). Every query first runs a *fast arm* — a dedicated
  /// shared-learnt base with cone projection and trail reuse — under a
  /// probe slice of the query budget; a decided fast verdict is accepted
  /// (both arms run complete searches, so any Sat/Unsat they produce is
  /// sound), while an indeterminate one falls back to the *sound arm*, a
  /// throwaway fork of the pristine base exactly like plain fork-per-query
  /// solving. The sound base is never searched, so fallback verdicts are
  /// bit-identical to Portfolio=false solving by construction. An adaptive
  /// gate stops racing a budget class once the fast arm has exhausted it
  /// without deciding (skipping the race is equally sound: the sound
  /// fork's verdict is the reference either way), so budget-bound stages
  /// like spatial splitting degrade to pure fork cost instead of paying
  /// for both arms on every query.
  bool Portfolio = false;
  /// Test hook: caps the fast arm's conflict budget below the query
  /// budget (UINT64_MAX: no cap). Tests force fast-arm budget exhaustion
  /// with 0 to pin that the sound fork verdict wins every fallback.
  uint64_t PortfolioFastMaxConflicts = UINT64_MAX;
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
  uint64_t TrailReused = 0; ///< Trail literals kept across restarts.
  uint64_t ConeVars = 0;    ///< Query-cone size (0: projection off).
  uint64_t ConeClauses = 0;
  uint64_t Clauses = 0;
  uint64_t SatVars = 0;
  uint64_t LearntLive = 0;  ///< Learnt-clause DB size after the query.
  double AvgLBD = 0.0;      ///< Mean learnt-clause LBD (solver health).
  uint64_t SolveNanos = 0;  ///< Wall time of encode+solve for this query.
  size_t TermCount = 0;

  /// Portfolio-mode accounting (all zero outside portfolio sessions).
  /// The headline counters above total the work of *both* racers, so
  /// StageSatWork/span/counter parity is preserved; the Fast* fields
  /// break out the fast racer's share (sound share = total - fast).
  /// 0: not a portfolio query; 1: fast arm decided; 2: the sound arm
  /// produced the verdict — either the fast racer ran and exhausted its
  /// budget (FastConflicts > 0) or the adaptive gate skipped it outright
  /// (all Fast* fields zero).
  uint8_t PortfolioArm = 0;
  uint64_t FastConflicts = 0;
  uint64_t FastPropagations = 0;
  uint64_t FastRestarts = 0;
  uint64_t FastTrailReused = 0;
  uint64_t FastConeVars = 0;   ///< Fast racer's query-cone size.
  uint64_t FastConeClauses = 0;

  bool equivalent() const { return V == TVVerdict::Equivalent; }
  bool decided() const {
    return V == TVVerdict::Equivalent || V == TVVerdict::Inequivalent;
  }
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
/// budget-bounded searches). RefineOptions::Portfolio adds the fast
/// racer, the one place learnt clauses are shared (see smt/README.md
/// "Portfolio mode"). Identical queries (same violation TermId, same
/// budget) replay their memoized verdict without solving.
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
/// around a fresh RefinementSession; it solves in the base directly and
/// never races, so Opts.Portfolio is ignored and PortfolioArm stays 0).
TVResult checkRefinement(const vir::VFunction &Src, const vir::VFunction &Tgt,
                         const RefineOptions &Opts = RefineOptions());

const char *verdictName(TVVerdict V);

} // namespace tv
} // namespace lv

#endif // LV_TV_REFINE_H
