//===- smt/Solve.h - satisfiability queries ---------------------*- C++ -*-===//
///
/// \file
/// Query interfaces over the SAT backend.
///
/// checkSat() is the one-shot entry point: satisfiability of a boolean term
/// under a resource budget, with model extraction for counterexample
/// reporting. The translation validator asks "can the refinement be
/// violated?": Unsat => Equivalent, Sat => Inequivalent (model =
/// distinguishing input), Unknown => Inconclusive (the paper's timeout
/// outcome).
///
/// IncrementalSolver is the persistent variant: one SatSolver plus one
/// BitBlaster kept alive across queries over a shared TermTable. Because
/// the Tseitin encoding is a full equivalence (root literal <=> term), each
/// query is decided by passing its root literal as a SAT *assumption* — no
/// clause is ever retracted and the shared encoding blasts exactly once.
/// Repeated check() calls on one instance additionally share learnt
/// clauses (useful when queries are related and budgets generous); the
/// translation validator instead forks a pristine instance per query for
/// verdict stability — see tv::RefinementSession. Either way the
/// spatial-splitting stage pays O(formula + cells) blasting instead of
/// O(cells * formula).
///
//===----------------------------------------------------------------------===//

#ifndef LV_SMT_SOLVE_H
#define LV_SMT_SOLVE_H

#include "smt/Blast.h"
#include "smt/Sat.h"
#include "smt/Term.h"

#include <string>
#include <unordered_map>

namespace lv {
namespace smt {

/// Result of a satisfiability query. Statistics are per-query deltas, so
/// incremental and one-shot solving report comparable numbers.
struct SmtResult {
  SatResult R = SatResult::Unknown;
  /// Model for Var/BVar terms appearing in the query (valid when Sat).
  std::unordered_map<TermId, uint32_t> Model;
  // Statistics (per query).
  uint64_t ConflictsUsed = 0;
  uint64_t PropagationsUsed = 0;
  uint64_t RestartsUsed = 0;
  uint64_t ClauseCount = 0;
  uint64_t VarCount = 0;
  uint64_t LearntLive = 0; ///< Learnt-DB size after the query.
  double AvgLBD = 0.0;     ///< Mean LBD over all clauses learnt so far.

  bool sat() const { return R == SatResult::Sat; }
  bool unsat() const { return R == SatResult::Unsat; }
  bool unknown() const { return R == SatResult::Unknown; }
};

/// Persistent solver context for a family of queries over one TermTable.
/// Queries run under assumption literals, so results are independent but
/// the blasted encoding and learnt clauses are shared.
class IncrementalSolver {
public:
  explicit IncrementalSolver(const TermTable &TT) : TT(TT), B(TT, S) {}

  /// Fork: an exact copy of \p O — clause arena, watchers, level-0
  /// assignments, heuristic state, and all blaster memos — in flat copies,
  /// with no re-blasting. A fork of a pristine base behaves bit-for-bit
  /// like a scratch solver that blasted the same context, so queries run
  /// in throwaway forks are guaranteed to reproduce one-shot verdicts
  /// while still paying the shared encoding's blast cost only once.
  IncrementalSolver(const IncrementalSolver &O)
      : TT(O.TT), S(O.S), B(O.B, S), RootUnsat(O.RootUnsat) {}

  IncrementalSolver &operator=(const IncrementalSolver &) = delete;

  /// Re-forks in place from \p O (same TermTable), reusing this fork's
  /// buffer capacity so repeated per-query forking costs flat memcpys.
  void assignFrom(const IncrementalSolver &O) {
    S = O.S;
    B.assignFrom(O.B);
    RootUnsat = O.RootUnsat;
  }

  /// Permanently asserts \p T (e.g. the shared assumption prefix all
  /// queries conjoin). Cheaper than carrying it per query: its root
  /// literal is fixed at decision level 0.
  void assertAlways(TermId T);

  /// Checks satisfiability of \p Query (conjoined with all prior
  /// assertAlways terms) under \p Budget. Repeatable: the query is
  /// retracted afterwards.
  SmtResult check(TermId Query, const SatBudget &Budget = SatBudget());

  /// Cumulative statistics of the underlying solver.
  const SatStats &stats() const { return S.stats(); }
  uint64_t numClauses() const { return S.numClauses(); }
  int numVars() const { return S.numVars(); }
  /// The underlying solver (read-only), e.g. to fingerprint the CNF.
  const SatSolver &solver() const { return S; }

private:
  const TermTable &TT;
  SatSolver S;
  BitBlaster B;
  bool RootUnsat = false; ///< An assertAlways made the context UNSAT.
};

/// Checks satisfiability of \p Query (a bool term in \p TT).
SmtResult checkSat(const TermTable &TT, TermId Query,
                   const SatBudget &Budget = SatBudget());

/// Renders a model as "name=value" lines using the table's variable names.
std::string printModel(const TermTable &TT,
                       const std::unordered_map<TermId, uint32_t> &Model);

} // namespace smt
} // namespace lv

#endif // LV_SMT_SOLVE_H
