//===- smt/Solve.cpp - satisfiability queries --------------------------------===//

#include "smt/Solve.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Format.h"

#include <algorithm>

using namespace lv;
using namespace lv::smt;

/// Blasts \p T under an "smt.blast" span, so a trace separates encoding
/// from SAT search.
static Lit blastTraced(BitBlaster &B, TermId T) {
  obs::Span Blast("smt", "smt.blast");
  return B.blastBool(T);
}

void IncrementalSolver::assertAlways(TermId T) {
  if (RootUnsat || TT.isTrue(T))
    return;
  if (TT.isFalse(T)) {
    RootUnsat = true;
    return;
  }
  Lit Root = blastTraced(B, T);
  Asserted.push_back(T);
  if (!S.addClause(Root))
    RootUnsat = true;
}

std::unordered_map<TermId, uint32_t> IncrementalSolver::readModel() const {
  std::unordered_map<TermId, uint32_t> Model;
  for (TermId V : B.seenVars()) {
    if (TT.isBv(V)) {
      uint32_t Val;
      if (B.modelOfVar(V, Val))
        Model.emplace(V, Val);
    } else {
      bool Bit;
      if (B.modelOfBVar(V, Bit))
        Model.emplace(V, Bit ? 1u : 0u);
    }
  }
  return Model;
}

SmtResult IncrementalSolver::check(TermId Query, const SatBudget &Budget) {
  SmtResult Out;
  if (RootUnsat || !S.ok()) {
    Out.R = SatResult::Unsat;
    return Out;
  }
  // Fast path: a query the rewriter reduced to false is unsat regardless
  // of the asserted context. The converse is NOT a fast path — a
  // trivially-true query still asks "is the asserted context
  // satisfiable?", so it falls through to a real solve (blastBool yields
  // the constant-true literal and the assumption is vacuous).
  if (TT.isFalse(Query)) {
    Out.R = SatResult::Unsat;
    return Out;
  }

  const SatStats &St = S.stats();
  const uint64_t C0 = St.Conflicts;
  const uint64_t P0 = St.Propagations;
  const uint64_t R0 = St.Restarts;

  Lit Root = blastTraced(B, Query);
  Out.ClauseCount = S.numClauses();
  Out.VarCount = static_cast<uint64_t>(S.numVars());
  if (S.numClauses() > Budget.MaxClauses) {
    // Formula too large to attempt: the memout analogue.
    Out.R = SatResult::Unknown;
    return Out;
  }
  if (!S.ok()) {
    // Blasting itself derived a root-level contradiction.
    Out.R = SatResult::Unsat;
    return Out;
  }
  // The Tseitin root literal is *equivalent* to the query term, so solving
  // under it as an assumption decides exactly F && Query — and leaves the
  // clause DB reusable for the next query. With abstract multipliers F is
  // weaker than the exact encoding: Unsat is final, and a Sat model counts
  // only once it satisfies the terms themselves.
  static obs::Counter &Rounds = obs::counter("smt.refine_rounds");
  const std::vector<Lit> Assumps{Root};
  for (;;) {
    SatBudget Left = Budget;
    Left.MaxConflicts -= std::min(St.Conflicts - C0, Budget.MaxConflicts);
    Left.MaxPropagations -=
        std::min(St.Propagations - P0, Budget.MaxPropagations);
    Out.R = S.solve(Assumps, Left);
    if (Out.R != SatResult::Sat)
      break;
    Out.Model = readModel();
    bool Genuine = TT.evalBool(Query, Out.Model);
    for (size_t I = 0; Genuine && I < Asserted.size(); ++I)
      Genuine = TT.evalBool(Asserted[I], Out.Model);
    if (Genuine)
      break;
    size_t Refined;
    {
      obs::Span Blast("smt", "smt.blast");
      Refined = B.refineMismatched();
    }
    // No multiplier disagrees with its operands: the model satisfies the
    // exact encoding (the evaluator and the circuits differ only where
    // the encoding guards the value away, e.g. division by zero).
    if (Refined == 0)
      break;
    Rounds.inc();
    Out.Model.clear();
    if (S.numClauses() > Budget.MaxClauses) {
      Out.R = SatResult::Unknown;
      break;
    }
  }
  Out.ConflictsUsed = St.Conflicts - C0;
  Out.PropagationsUsed = St.Propagations - P0;
  Out.RestartsUsed = St.Restarts - R0;
  Out.ClauseCount = S.numClauses();
  Out.VarCount = static_cast<uint64_t>(S.numVars());
  Out.LearntLive = St.LearntLive;
  Out.AvgLBD = St.avgLBD();
  return Out;
}

SmtResult lv::smt::checkSat(const TermTable &TT, TermId Query,
                            const SatBudget &Budget) {
  IncrementalSolver IS(TT);
  return IS.check(Query, Budget);
}

std::string
lv::smt::printModel(const TermTable &TT,
                    const std::unordered_map<TermId, uint32_t> &Model) {
  std::string Out;
  for (const auto &KV : Model) {
    const std::string &Name = TT.varName(KV.first);
    appendf(Out, "%s = %d\n",
            Name.empty() ? format("v%d", KV.first).c_str() : Name.c_str(),
            static_cast<int32_t>(KV.second));
  }
  return Out;
}
