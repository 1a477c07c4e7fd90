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
/// Every query abstracts its multipliers (lemmas on demand, see Blast.h
/// and smt/README.md): check() solves with each non-constant Mul/MulOvf as
/// free output bits, accepts a Sat model once the asserted terms and the
/// query evaluate true on its inputs, and otherwise blasts the exact
/// circuit of the multipliers the model got wrong and solves again. Unsat
/// is final at any round because the abstraction only drops constraints;
/// the rounds share the query's conflict and propagation budget.
///
/// IncrementalSolver is the persistent variant: one SatSolver plus one
/// BitBlaster over a shared TermTable. Because the Tseitin encoding is a
/// full equivalence (root literal <=> term), a query is decided by passing
/// its root literal as a SAT *assumption* — no clause is ever retracted.
/// The shipped pattern blasts the shared encoding once into a pristine
/// base that is never searched, and runs every query in a fork of it
/// (copy constructor or assignFrom) — see tv::RefinementSession. So the
/// spatial-splitting stage pays O(formula + cells) blasting instead of
/// O(cells * formula), and each query's verdict and work equal a one-shot
/// solve. Repeated check() calls on one instance stay correct and carry
/// learnt clauses over, but no production query runs that way: a
/// budget-bounded verdict then depends on query order, and every query's
/// gates stay in the clause database for later queries to re-propagate
/// (per-query propagations grew from 6.5k to 91k over 1800 pinned MulOvf
/// queries on one instance).
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
/// Queries run under assumption literals; forking a pristine instance per
/// query (the copy constructor or assignFrom) keeps each query's search
/// independent of the others while the shared encoding blasts once.
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
      : TT(O.TT), S(O.S), B(O.B, S), Asserted(O.Asserted),
        RootUnsat(O.RootUnsat) {}

  IncrementalSolver &operator=(const IncrementalSolver &) = delete;

  /// Re-forks in place from \p O (same TermTable), reusing this fork's
  /// buffer capacity so repeated per-query forking costs flat memcpys.
  void assignFrom(const IncrementalSolver &O) {
    S = O.S;
    B.assignFrom(O.B);
    Asserted = O.Asserted;
    RootUnsat = O.RootUnsat;
  }

  /// Permanently asserts \p T (e.g. the shared assumption prefix all
  /// queries conjoin). Cheaper than carrying it per query: its root
  /// literal is fixed at decision level 0.
  void assertAlways(TermId T);

  /// Checks satisfiability of \p Query (conjoined with all prior
  /// assertAlways terms) under \p Budget, refining abstract multipliers
  /// until a model is genuine, the formula is Unsat, or the budget is
  /// spent. Repeatable: the query is retracted afterwards (refinements
  /// stay; they hold in every model). Its gates and learnt clauses stay
  /// too and shape later checks on the same instance, so production
  /// queries each run in a fork of a pristine base instead.
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
  std::vector<TermId> Asserted; ///< assertAlways terms, for model checks.
  bool RootUnsat = false; ///< An assertAlways made the context UNSAT.

  /// The current Sat model's values of every blasted Var/BVar.
  std::unordered_map<TermId, uint32_t> readModel() const;
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
