//===- smt/Sat.h - incremental CDCL SAT solver ------------------*- C++ -*-===//
///
/// \file
/// A compact incremental CDCL SAT solver (two-watched-literal propagation
/// with blocking literals, 1UIP clause learning with backjumping, VSIDS
/// branching, phase saving, Luby restarts, glucose-style learnt-clause DB
/// reduction) with a per-call conflict budget. Exceeding the budget yields
/// Unknown — this is how the reproduction models Alive2/Z3 timeouts: harder
/// refinement encodings blow the budget, cheaper domain-specific encodings
/// (C-level unrolling, spatial splitting) fit, producing the paper's
/// Table 3 funnel.
///
/// The solver is incremental: clauses may be added between solve() calls,
/// and solve(assumptions) decides satisfiability under a set of assumption
/// literals that are retracted afterwards. Each assumption occupies its own
/// decision level below all search decisions, so learnt clauses derived
/// under one set of assumptions remain valid for every later query — this
/// is what lets the spatial-splitting stage share one solver across all
/// per-cell queries.
///
/// Clauses live in a flat uint32 arena addressed by CRef offsets (header
/// word, LBD word, then literals), so propagation walks contiguous memory
/// instead of chasing per-clause std::vector allocations.
///
//===----------------------------------------------------------------------===//

#ifndef LV_SMT_SAT_H
#define LV_SMT_SAT_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lv {
namespace smt {

/// Propositional variable (0-based).
using Var = int;

/// Literal encoded as 2*var + (negated ? 1 : 0).
struct Lit {
  int X = -2;

  Lit() = default;
  Lit(Var V, bool Neg) : X(2 * V + (Neg ? 1 : 0)) {}

  Var var() const { return X >> 1; }
  bool sign() const { return X & 1; } ///< True when negated.
  Lit operator~() const {
    Lit L;
    L.X = X ^ 1;
    return L;
  }
  bool operator==(const Lit &O) const { return X == O.X; }
  bool operator!=(const Lit &O) const { return X != O.X; }
};

/// Tri-state assignment.
enum class LBool : int8_t { False = -1, Undef = 0, True = 1 };

/// Solver result.
enum class SatResult : uint8_t { Sat, Unsat, Unknown };

/// Resource limits; conflicts are the primary budget knob. Budgets are
/// per-solve-call: an incremental solver that has already spent conflicts
/// on earlier queries gets a fresh allowance for each new query. MaxClauses
/// bounds the blasted formula size (the memout analogue): solving is
/// refused when exceeded.
struct SatBudget {
  uint64_t MaxConflicts = 200'000;
  uint64_t MaxPropagations = UINT64_MAX;
  uint64_t MaxClauses = 3'000'000;
};

/// Query-scoped solving knobs, per solve() call. Both techniques perturb
/// search order (and therefore which budget-bound queries come back
/// Unknown), so callers that need verdict stability across configurations
/// gate them behind a parity harness — see bench_table3_equivalence.
struct SatOptions {
  /// Cone-of-influence projection: restrict the search to the query's
  /// cone. Decisions only pick cone variables, and clauses with an
  /// unfixed out-of-cone literal are excluded from propagation entirely
  /// (a skip flag mirrored into their watcher nodes), so a query against
  /// a large shared clause DB no longer pays propagation proportional to
  /// the whole DB. The cone is either supplied by the caller (the query
  /// layer passes the blaster's definitional cone — see
  /// IncrementalSolver) or, by default, computed here as clause
  /// connectivity from the assumption roots, stopping at level-0-fixed
  /// variables.
  ///
  /// Soundness: out-of-cone variables are never assigned while the
  /// restriction holds, so a skipped clause always retains an unassigned
  /// literal and can be neither falsified nor unit — conflicts found in
  /// the cone are conflicts of the full DB (Unsat stays sound). When the
  /// cone is fully assigned without conflict, the restriction lifts and
  /// ordinary CDCL finishes the job: the search restarts to level 0,
  /// skip flags clear, the root trail replays against the re-enabled
  /// clauses, and search continues to a full model — so Sat is never
  /// claimed from the cone alone. Every exit replays the root trail the
  /// same way, keeping the watcher invariants of the shared solver
  /// intact for later queries.
  bool ConeProjection = false;
  /// Restart trail reuse: after a Luby restart, keep the assumption
  /// prefix of the trail (those decisions are re-made verbatim by the
  /// very next round, and re-deriving their propagation — the whole
  /// shared context — is the dominant propagation cost of budget-bound
  /// incremental queries) instead of cancelling to level 0. Search
  /// decisions above the assumptions are still cancelled, preserving the
  /// purpose of the restart.
  bool TrailReuse = false;
};

/// Aggregate solver statistics (cumulative across solve() calls).
struct SatStats {
  uint64_t Conflicts = 0;
  uint64_t Propagations = 0;
  uint64_t Restarts = 0;
  uint64_t Decisions = 0;
  uint64_t LearntTotal = 0;   ///< Clauses ever learnt.
  uint64_t LearntLive = 0;    ///< Learnt clauses currently in the DB.
  uint64_t LearntDeleted = 0; ///< Removed by reduceDB.
  uint64_t ReduceDBs = 0;     ///< Reduction passes run.
  uint64_t SumLBD = 0;        ///< Over all learnt clauses (for the mean).
  uint64_t ArenaWords = 0;    ///< Current clause-arena footprint.
  // Query-scoped solving (SatOptions). TrailReused is cumulative;
  // ConeVars/ConeClauses describe the most recent solve() call (0 when
  // projection did not run).
  uint64_t TrailReused = 0;   ///< Trail literals kept across restarts.
  uint64_t ConeVars = 0;      ///< Cone size of the last projected solve.
  uint64_t ConeClauses = 0;   ///< Live clauses in that cone.

  double avgLBD() const {
    return LearntTotal ? static_cast<double>(SumLBD) /
                             static_cast<double>(LearntTotal)
                       : 0.0;
  }
};

/// The solver.
class SatSolver {
public:
  SatSolver() = default;

  /// Creates a fresh variable.
  Var newVar();

  int numVars() const { return static_cast<int>(Activity.size()); }

  /// Adds the clause \p Lits[0..N); returns false if the formula became
  /// trivially UNSAT. Normalizes in place (sorts, drops duplicate and
  /// level-0-false literals, detects tautologies and satisfied clauses), so
  /// the caller's buffer is scratch afterwards. Allocation-free apart from
  /// the clause arena and watch pool themselves.
  bool addClause(Lit *Lits, size_t N);

  /// Forwarders: the vector's copy and the small clauses' stack arrays are
  /// the scratch buffer the normalization runs in.
  bool addClause(std::vector<Lit> Lits) {
    return addClause(Lits.data(), Lits.size());
  }
  bool addClause(Lit A) { return addClause(&A, 1); }
  bool addClause(Lit A, Lit B) {
    Lit Ls[2] = {A, B};
    return addClause(Ls, 2);
  }
  bool addClause(Lit A, Lit B, Lit C) {
    Lit Ls[3] = {A, B, C};
    return addClause(Ls, 3);
  }

  /// Solves under the given budget.
  SatResult solve(const SatBudget &Budget = SatBudget());

  /// Solves under \p Assumps: satisfiability of the clause DB with every
  /// assumption literal forced true. Assumptions are retracted on return,
  /// and Unsat-under-assumptions leaves the solver usable (only a conflict
  /// at decision level zero marks the DB permanently UNSAT). \p Opts
  /// selects the query-scoped techniques (cone projection, trail reuse);
  /// the defaults reproduce the classic search exactly. \p ExternalCone,
  /// when given with ConeProjection, is the caller-computed cone variable
  /// set (e.g. the blaster's definitional cone); otherwise the cone is
  /// derived here by clause connectivity.
  SatResult solve(const std::vector<Lit> &Assumps, const SatBudget &Budget,
                  const SatOptions &Opts = SatOptions(),
                  const std::vector<Var> *ExternalCone = nullptr);

  /// Model access after Sat.
  bool modelValue(Var V) const {
    return Model[static_cast<size_t>(V)] == LBool::True;
  }

  /// True when the last solve() ran cone-projected (it had assumptions,
  /// projection was requested, and the cone was non-empty).
  bool lastConeActive() const { return LastConeUsed; }

  /// After a projected solve: was \p V inside the query cone? The model is
  /// total either way (the lift phase completes it), but certificates
  /// should be read cone-restricted — out-of-cone values are an arbitrary
  /// satisfying extension of unrelated structure.
  bool inLastCone(Var V) const {
    return LastConeUsed && static_cast<size_t>(V) < ConeStamp.size() &&
           ConeStamp[static_cast<size_t>(V)] == ConeGen;
  }

  /// Branching-heuristic state (VSIDS activity, saved phases, the decay
  /// bump). Shared-learnt sessions snapshot it at the fork point and
  /// restore before every query, so what is shared across queries is the
  /// clause DB — learnt lemmas included — and not heuristic warmth, which
  /// is the dominant source of cross-query search drift.
  struct HeuristicSnapshot {
    std::vector<double> Activity;
    std::vector<char> Polarity;
    double VarInc = 1.0;
  };
  void saveHeuristics(HeuristicSnapshot &Out) const {
    Out.Activity = Activity;
    Out.Polarity = Polarity;
    Out.VarInc = VarInc;
  }
  /// Restores a snapshot: snapshot values for vars that existed then,
  /// fresh-var defaults for newer ones, and the decision heap rebuilt to
  /// creation order — exactly the state a fork taken at the snapshot
  /// would present to its next query.
  void restoreHeuristics(const HeuristicSnapshot &S);

  /// Statistics.
  uint64_t conflicts() const { return Stats.Conflicts; }
  uint64_t propagations() const { return Stats.Propagations; }
  uint64_t numClauses() const {
    return ProblemClauses.size() + Learnts.size();
  }
  const SatStats &stats() const { return Stats; }

  /// True unless a level-0 conflict proved the clause DB UNSAT outright.
  bool ok() const { return OkFlag; }

  /// Read-only views for CNF-identity checks: the clause arena (per clause
  /// a header word [size:30][learnt:1][deleted:1], an LBD word, then the
  /// literal codes), the arena offsets of the problem clauses in the order
  /// they were added, and the assignment trail.
  const std::vector<uint32_t> &arenaWords() const { return Arena; }
  const std::vector<uint32_t> &problemClauseRefs() const {
    return ProblemClauses;
  }
  const std::vector<Lit> &trail() const { return Trail; }

private:
  /// Offset of a clause in the arena; header word, LBD word, literals.
  using CRef = uint32_t;
  static constexpr CRef NoReason = UINT32_MAX;

  // Header encoding: [size:30][learnt:1][deleted:1].
  static constexpr uint32_t LearntBit = 2;
  static constexpr uint32_t DeletedBit = 1;

  /// Watcher node in a flat pool; per-literal lists are intrusive singly
  /// linked lists through Next. Flat storage keeps propagation cache
  /// friendly and makes copying the solver (forking) a plain vector copy
  /// instead of ~2*vars heap allocations. Binary clauses are specialized:
  /// the watcher carries the other literal (Blocker) and WatchBinary set,
  /// so propagation implies it without touching clause memory, and the
  /// watch never moves — gate CNF is roughly half binary clauses.
  /// WatchSkip mirrors the clause's out-of-cone flag during a projected
  /// solve, so skipping costs one branch on the already-loaded node
  /// instead of a clause-memory touch.
  static constexpr uint32_t WatchBinary = 1;
  static constexpr uint32_t WatchSkip = 2;
  struct WatchNode {
    CRef C = NoReason;
    Lit Blocker;
    int32_t Next = -1;
    uint32_t Flags = 0;
  };

  std::vector<uint32_t> Arena;
  std::vector<CRef> ProblemClauses;
  std::vector<CRef> Learnts;
  uint64_t WastedWords = 0;

  /// Assignment indexed per *literal* (Lit.X): 1 = true, -1 = false,
  /// 0 = undef. One load answers value(L) — no sign branch on the hot
  /// propagation path.
  std::vector<int8_t> AssignLit;

  // Per-literal lists are kept in append order (insertion at tail), the
  // same visit order as classic vector watch lists — propagation visit
  // order is search-visible, and keeping it stable keeps verdicts stable.
  std::vector<WatchNode> WatchPool;
  std::vector<int32_t> WatchHead; ///< Indexed by Lit.X; -1 = empty.
  std::vector<int32_t> WatchTail; ///< Indexed by Lit.X; -1 = empty.
  int32_t WatchFree = -1;         ///< Free list threaded through Next.
  std::vector<LBool> Model;
  std::vector<int> Level;
  std::vector<CRef> Reason;
  std::vector<Lit> Trail;
  std::vector<int> TrailLim;
  size_t QHead = 0;

  std::vector<double> Activity;
  double VarInc = 1.0;
  static constexpr double VarDecay = 0.95;
  std::vector<char> Polarity; ///< Phase saving (last assigned sign).
  std::vector<char> Seen;

  // Level stamps for LBD computation (generation-tagged).
  std::vector<uint32_t> LevelStamp;
  uint32_t StampGen = 0;

  // Indexed max-heap over variable activity.
  std::vector<Var> Heap;
  std::vector<int> HeapPos; ///< -1 when not in heap.

  bool OkFlag = true;
  SatStats Stats;

  // Cone-of-influence state (SatOptions::ConeProjection). ConeStamp is
  // generation-tagged so consecutive queries never pay an O(vars) clear;
  // the scratch buffers used to build the per-solve occurrence index are
  // emptied after setup so forking copies only their (zero) sizes.
  std::vector<uint32_t> ConeStamp; ///< Var in cone <=> stamp == ConeGen.
  uint32_t ConeGen = 0;
  bool ConeActive = false;   ///< Mid-solve: search restricted to cone.
  bool ConeFlagged = false;  ///< Skip flags currently applied to the DB.
  bool LastConeUsed = false; ///< Last solve ran projected (certificates).
  size_t ConeEntryMark = 0;  ///< Trail size at projected-solve entry: the
                             ///< catch-up replay starts here — everything
                             ///< below was fully propagated before.
  std::vector<Var> ConeDeferred; ///< Out-of-cone vars popped from the heap.
  std::vector<Var> ConeQueue;    ///< BFS worklist (scratch).
  std::vector<uint32_t> OccCount, OccList; ///< Occurrence CSR (scratch).
  std::vector<CRef> LiveScratch;           ///< Live clauses (scratch).

  // Clause skip flag: high bit of the LBD word (LBDs are tiny). Survives
  // the arena GC because relocation copies the word before forwarding.
  static constexpr uint32_t SkipBit = 0x80000000u;
  bool isSkipped(CRef C) const { return Arena[C + 1] & SkipBit; }

  /// Marks the cone variable set for this solve: the caller-supplied
  /// \p ExternalCone when present, else clause connectivity from the
  /// assumption roots. Then classifies every live clause (skip iff it has
  /// an unfixed out-of-cone literal), mirrors the flags into the watcher
  /// nodes, and turns the search restriction on. No-op (cone stays off)
  /// when the resulting cone is empty.
  void setupCone(const std::vector<Lit> &Assumps,
                 const std::vector<Var> *ExternalCone);
  void markConeByConnectivity(const std::vector<Lit> &Assumps,
                              uint64_t &NumVars);
  /// Ends the projected phase: restarts to level 0, clears the skip
  /// flags, returns deferred vars to the heap, and rewinds QHead so the
  /// next propagate() replays the root trail against the full DB —
  /// catching up the watcher state (and any implication a skipped clause
  /// was withholding). Callers on exit paths must run that propagation
  /// before returning.
  void liftCone();
  void clearConeFlags();
  bool coneMarked(Var V) const {
    return ConeStamp[static_cast<size_t>(V)] == ConeGen;
  }

  // Learnt-DB reduction schedule.
  uint64_t NextReduce = 2000;
  static constexpr uint64_t ReduceIncrement = 1000;

  // Arena accessors.
  uint32_t clauseSize(CRef C) const { return Arena[C] >> 2; }
  bool isLearnt(CRef C) const { return Arena[C] & LearntBit; }
  bool isDeleted(CRef C) const { return Arena[C] & DeletedBit; }
  void markDeleted(CRef C) { Arena[C] |= DeletedBit; }
  uint32_t lbd(CRef C) const { return Arena[C + 1] & ~SkipBit; }
  void setLbd(CRef C, uint32_t L) {
    Arena[C + 1] = (Arena[C + 1] & SkipBit) | L;
  }
  Lit litAt(CRef C, uint32_t I) const {
    Lit L;
    L.X = static_cast<int>(Arena[C + 2 + I]);
    return L;
  }
  void setLitAt(CRef C, uint32_t I, Lit L) {
    Arena[C + 2 + I] = static_cast<uint32_t>(L.X);
  }
  CRef allocClause(const Lit *Lits, size_t N, bool Learnt, uint32_t Lbd);

  void watchInsert(int LitX, CRef C, Lit Blocker, uint32_t Flags) {
    int32_t N;
    if (WatchFree >= 0) {
      N = WatchFree;
      WatchFree = WatchPool[static_cast<size_t>(N)].Next;
    } else {
      N = static_cast<int32_t>(WatchPool.size());
      WatchPool.emplace_back();
    }
    WatchNode &W = WatchPool[static_cast<size_t>(N)];
    W.C = C;
    W.Blocker = Blocker;
    W.Next = -1;
    W.Flags = Flags;
    watchAppendNode(LitX, N);
  }

  void watchAppendNode(int LitX, int32_t N) {
    size_t L = static_cast<size_t>(LitX);
    if (WatchTail[L] >= 0)
      WatchPool[static_cast<size_t>(WatchTail[L])].Next = N;
    else
      WatchHead[L] = N;
    WatchTail[L] = N;
  }

  LBool value(Lit L) const {
    return static_cast<LBool>(AssignLit[static_cast<size_t>(L.X)]);
  }
  bool isUnassigned(Var V) const {
    return AssignLit[static_cast<size_t>(2 * V)] == 0;
  }
  int decisionLevel() const { return static_cast<int>(TrailLim.size()); }

  void enqueue(Lit L, CRef From);
  CRef propagate();
  void analyze(CRef Confl, std::vector<Lit> &OutLearnt, int &OutBtLevel,
               uint32_t &OutLbd);
  void cancelUntil(int Lvl);
  Lit pickBranchLit();
  void attachClause(CRef C);
  uint32_t computeLBD(const std::vector<Lit> &Lits);
  bool locked(CRef C) const;
  void reduceDB();
  void garbageCollect();

  // Heap helpers.
  void heapInsert(Var V);
  void heapDecrease(Var V); ///< Activity increased: sift up.
  Var heapPop();
  bool heapEmpty() const { return Heap.empty(); }
  void siftUp(int I);
  void siftDown(int I);
  bool heapLess(Var A, Var B) const {
    return Activity[static_cast<size_t>(A)] >
           Activity[static_cast<size_t>(B)];
  }

  void bumpVar(Var V);
  void decayActivities() { VarInc /= VarDecay; }
};

/// Reluctant-doubling (Luby) sequence value for restart \p X (0-based),
/// scaled by base \p Y: 1,1,Y,1,1,Y,Y^2,... for Y=2. Exposed for the
/// restart-schedule unit tests.
double luby(double Y, int X);

} // namespace smt
} // namespace lv

#endif // LV_SMT_SAT_H
