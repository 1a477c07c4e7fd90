//===- smt/Solve.cpp - satisfiability queries --------------------------------===//

#include "smt/Solve.h"

#include "obs/Trace.h"
#include "support/Format.h"

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
  AssertedRoots.push_back(T); // every query's cone includes the context
  Lit Root = blastTraced(B, T);
  if (!S.addClause(Root))
    RootUnsat = true;
}

void IncrementalSolver::computeQueryCone(TermId Query) {
  // Stamp every term reachable from the query or an asserted root.
  if (TermStamp.size() < TT.size())
    TermStamp.resize(TT.size(), 0);
  if (++TermGen == 0) {
    std::fill(TermStamp.begin(), TermStamp.end(), 0u);
    TermGen = 1;
  }
  WalkStack.clear();
  auto Push = [&](TermId Id) {
    if (Id != NoTerm && TermStamp[static_cast<size_t>(Id)] != TermGen) {
      TermStamp[static_cast<size_t>(Id)] = TermGen;
      WalkStack.push_back(Id);
    }
  };
  Push(Query);
  for (TermId R : AssertedRoots)
    Push(R);
  while (!WalkStack.empty()) {
    const Term &T = TT.get(WalkStack.back());
    WalkStack.pop_back();
    Push(T.A);
    Push(T.B);
    Push(T.C);
  }

  // Collect the solver variables those terms own: their interned bit
  // literals plus every internal gate variable introduced while blasting
  // them. One linear pass over the var table — about the cost of a single
  // propagation sweep, replacing per-DB search costs.
  ConeScratch.clear();
  int N = B.numOwnedVars();
  for (Var V = 0; V < N; ++V) {
    TermId Owner = B.varOwner(V);
    if (Owner != NoTerm && TermStamp[static_cast<size_t>(Owner)] == TermGen)
      ConeScratch.push_back(V);
  }
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
  const uint64_t T0 = St.TrailReused;

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
  // clause DB reusable for the next query. Projected solves get the
  // blaster's definitional cone: the context, the query's own encoding,
  // and nothing a sibling query left behind.
  const std::vector<Var> *Cone = nullptr;
  if (SolveOpts.ConeProjection) {
    computeQueryCone(Query);
    Cone = &ConeScratch;
  }
  Out.R = S.solve(std::vector<Lit>{Root}, Budget, SolveOpts, Cone);
  Out.ConflictsUsed = St.Conflicts - C0;
  Out.PropagationsUsed = St.Propagations - P0;
  Out.RestartsUsed = St.Restarts - R0;
  Out.TrailReused = St.TrailReused - T0;
  Out.ConeVars = St.ConeVars;
  Out.ConeClauses = St.ConeClauses;
  Out.ClauseCount = S.numClauses();
  Out.LearntLive = St.LearntLive;
  Out.AvgLBD = St.avgLBD();
  if (Out.R == SatResult::Sat) {
    for (TermId V : B.seenVars()) {
      // Cone-projected queries report a cone-restricted certificate: a
      // variable none of whose bits lie in the query cone carries only an
      // arbitrary satisfying extension of unrelated structure (in shared
      // solvers, typically an earlier query's inputs).
      if (S.lastConeActive() && !B.varInLastCone(V, S))
        continue;
      if (TT.isBv(V)) {
        uint32_t Val;
        if (B.modelOfVar(V, Val))
          Out.Model.emplace(V, Val);
      } else {
        bool Bit;
        if (B.modelOfBVar(V, Bit))
          Out.Model.emplace(V, Bit ? 1u : 0u);
      }
    }
  }
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
