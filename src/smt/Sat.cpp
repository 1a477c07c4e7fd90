//===- smt/Sat.cpp - incremental CDCL SAT solver -----------------------------===//

#include "smt/Sat.h"
#include "obs/Metrics.h"
#include "support/Cancel.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace lv;
using namespace lv::smt;

Var SatSolver::newVar() {
  Var V = numVars();
  AssignLit.push_back(0);
  AssignLit.push_back(0);
  Model.push_back(LBool::Undef);
  Level.push_back(0);
  Reason.push_back(NoReason);
  Activity.push_back(0.0);
  Polarity.push_back(1); // default phase: false (MiniSat convention)
  Seen.push_back(0);
  HeapPos.push_back(-1);
  WatchHead.push_back(-1);
  WatchHead.push_back(-1);
  WatchTail.push_back(-1);
  WatchTail.push_back(-1);
  heapInsert(V);
  return V;
}

//===----------------------------------------------------------------------===//
// Activity heap
//===----------------------------------------------------------------------===//

void SatSolver::siftUp(int I) {
  Var V = Heap[static_cast<size_t>(I)];
  while (I > 0) {
    int P = (I - 1) >> 1;
    if (!heapLess(V, Heap[static_cast<size_t>(P)]))
      break;
    Heap[static_cast<size_t>(I)] = Heap[static_cast<size_t>(P)];
    HeapPos[static_cast<size_t>(Heap[static_cast<size_t>(I)])] = I;
    I = P;
  }
  Heap[static_cast<size_t>(I)] = V;
  HeapPos[static_cast<size_t>(V)] = I;
}

void SatSolver::siftDown(int I) {
  Var V = Heap[static_cast<size_t>(I)];
  int N = static_cast<int>(Heap.size());
  for (;;) {
    int L = 2 * I + 1;
    if (L >= N)
      break;
    int R = L + 1;
    int C = (R < N && heapLess(Heap[static_cast<size_t>(R)],
                               Heap[static_cast<size_t>(L)]))
                ? R
                : L;
    if (!heapLess(Heap[static_cast<size_t>(C)], V))
      break;
    Heap[static_cast<size_t>(I)] = Heap[static_cast<size_t>(C)];
    HeapPos[static_cast<size_t>(Heap[static_cast<size_t>(I)])] = I;
    I = C;
  }
  Heap[static_cast<size_t>(I)] = V;
  HeapPos[static_cast<size_t>(V)] = I;
}

void SatSolver::heapInsert(Var V) {
  if (HeapPos[static_cast<size_t>(V)] >= 0)
    return;
  Heap.push_back(V);
  HeapPos[static_cast<size_t>(V)] = static_cast<int>(Heap.size()) - 1;
  siftUp(static_cast<int>(Heap.size()) - 1);
}

void SatSolver::heapDecrease(Var V) {
  int I = HeapPos[static_cast<size_t>(V)];
  if (I >= 0)
    siftUp(I);
}

Var SatSolver::heapPop() {
  Var Top = Heap[0];
  HeapPos[static_cast<size_t>(Top)] = -1;
  Var Last = Heap.back();
  Heap.pop_back();
  if (!Heap.empty()) {
    Heap[0] = Last;
    HeapPos[static_cast<size_t>(Last)] = 0;
    siftDown(0);
  }
  return Top;
}

void SatSolver::restoreHeuristics(const HeuristicSnapshot &S) {
  assert(decisionLevel() == 0);
  size_t N = Activity.size();
  size_t Old = S.Activity.size();
  std::copy(S.Activity.begin(), S.Activity.end(), Activity.begin());
  std::fill(Activity.begin() + static_cast<long>(std::min(Old, N)),
            Activity.end(), 0.0);
  std::copy(S.Polarity.begin(), S.Polarity.end(), Polarity.begin());
  std::fill(Polarity.begin() + static_cast<long>(std::min(Old, N)),
            Polarity.end(), static_cast<char>(1));
  VarInc = S.VarInc;
  // Heap in creation order, exactly as a never-searched solver (or a
  // fork of one) would hold it: every variable present, assigned ones
  // skipped lazily by pickBranchLit.
  Heap.resize(N);
  for (size_t I = 0; I < N; ++I) {
    Heap[I] = static_cast<Var>(I);
    HeapPos[I] = static_cast<int>(I);
  }
  // Equal-activity ties keep creation order only while activities are the
  // snapshot's; with a pristine snapshot (all zero) no sift is needed, and
  // non-zero snapshots restore by re-heapifying bottom-up.
  for (size_t I = N / 2; I-- > 0;)
    siftDown(static_cast<int>(I));
}

void SatSolver::bumpVar(Var V) {
  Activity[static_cast<size_t>(V)] += VarInc;
  if (Activity[static_cast<size_t>(V)] > 1e100) {
    for (double &A : Activity)
      A *= 1e-100;
    VarInc *= 1e-100;
  }
  heapDecrease(V);
}

//===----------------------------------------------------------------------===//
// Clause arena
//===----------------------------------------------------------------------===//

SatSolver::CRef SatSolver::allocClause(const Lit *Lits, size_t N,
                                       bool Learnt, uint32_t Lbd) {
  CRef C = static_cast<CRef>(Arena.size());
  Arena.push_back((static_cast<uint32_t>(N) << 2) |
                  (Learnt ? LearntBit : 0u));
  Arena.push_back(Lbd);
  for (size_t I = 0; I < N; ++I)
    Arena.push_back(static_cast<uint32_t>(Lits[I].X));
  (Learnt ? Learnts : ProblemClauses).push_back(C);
  Stats.ArenaWords = Arena.size();
  return C;
}

void SatSolver::attachClause(CRef C) {
  assert(clauseSize(C) >= 2);
  Lit L0 = litAt(C, 0), L1 = litAt(C, 1);
  uint32_t Flags = (clauseSize(C) == 2 ? WatchBinary : 0) |
                   (isSkipped(C) ? WatchSkip : 0);
  watchInsert((~L0).X, C, L1, Flags);
  watchInsert((~L1).X, C, L0, Flags);
}

bool SatSolver::addClause(Lit *Lits, size_t N) {
  if (!OkFlag)
    return false;
  assert(decisionLevel() == 0);
  // Normalize in place: sort, dedupe, drop false lits, detect
  // tautology/satisfied. Kept literals compact to the front of Lits.
  std::sort(Lits, Lits + N, [](Lit A, Lit B) { return A.X < B.X; });
  size_t Kept = 0;
  for (size_t I = 0; I < N; ++I) {
    Lit L = Lits[I];
    if (value(L) == LBool::True)
      return true; // already satisfied at level 0
    if (value(L) == LBool::False)
      continue; // drop
    if (Kept && L == Lits[Kept - 1])
      continue;
    if (Kept && L == ~Lits[Kept - 1])
      return true; // tautology
    Lits[Kept++] = L;
  }
  if (Kept == 0) {
    OkFlag = false;
    return false;
  }
  if (Kept == 1) {
    enqueue(Lits[0], NoReason);
    if (propagate() != NoReason) {
      OkFlag = false;
      return false;
    }
    return true;
  }
  CRef C = allocClause(Lits, Kept, /*Learnt=*/false, /*Lbd=*/0);
  attachClause(C);
  return true;
}

bool SatSolver::locked(CRef C) const {
  Lit L0 = litAt(C, 0);
  size_t V = static_cast<size_t>(L0.var());
  return value(L0) == LBool::True && Reason[V] == C;
}

void SatSolver::reduceDB() {
  ++Stats.ReduceDBs;
  // Best clauses first: low LBD, then short. The worst half is dropped,
  // except "glue" clauses (LBD <= 2) and clauses locked as reasons.
  std::sort(Learnts.begin(), Learnts.end(), [this](CRef A, CRef B) {
    uint32_t LA = lbd(A), LB = lbd(B);
    if (LA != LB)
      return LA < LB;
    return clauseSize(A) < clauseSize(B);
  });
  size_t Keep = Learnts.size() / 2;
  std::vector<CRef> Kept;
  Kept.reserve(Learnts.size());
  for (size_t I = 0; I < Learnts.size(); ++I) {
    CRef C = Learnts[I];
    if (I >= Keep && lbd(C) > 2 && !locked(C)) {
      markDeleted(C);
      WastedWords += clauseSize(C) + 2;
      ++Stats.LearntDeleted;
    } else {
      Kept.push_back(C);
    }
  }
  Learnts = std::move(Kept);
  Stats.LearntLive = Learnts.size();
  // Purge watchers of deleted clauses (unlink into the free list).
  for (size_t L = 0; L < WatchHead.size(); ++L) {
    int32_t *Link = &WatchHead[L];
    int32_t Last = -1;
    while (*Link >= 0) {
      int32_t N = *Link;
      WatchNode &W = WatchPool[static_cast<size_t>(N)];
      if (isDeleted(W.C)) {
        *Link = W.Next;
        W.C = NoReason; // free-node marker: flag passes must skip it
        W.Next = WatchFree;
        WatchFree = N;
      } else {
        Last = N;
        Link = &W.Next;
      }
    }
    WatchTail[L] = Last;
  }
  if (WastedWords * 3 > Arena.size())
    garbageCollect();
}

void SatSolver::garbageCollect() {
  std::vector<uint32_t> NewArena;
  NewArena.reserve(Arena.size() - WastedWords);
  // Copy each surviving clause and leave a forwarding pointer in the old
  // clause's LBD slot so Reason references can be rewritten.
  auto Reloc = [&](CRef C) {
    CRef NC = static_cast<CRef>(NewArena.size());
    uint32_t N = clauseSize(C) + 2;
    for (uint32_t I = 0; I < N; ++I)
      NewArena.push_back(Arena[C + I]);
    Arena[C + 1] = NC;
    return NC;
  };
  for (CRef &C : ProblemClauses)
    C = Reloc(C);
  for (CRef &C : Learnts)
    C = Reloc(C);
  for (Lit L : Trail) {
    size_t V = static_cast<size_t>(L.var());
    if (Reason[V] != NoReason)
      Reason[V] = Arena[Reason[V] + 1];
  }
  Arena.swap(NewArena);
  WastedWords = 0;
  Stats.ArenaWords = Arena.size();
  WatchPool.clear();
  WatchFree = -1;
  std::fill(WatchHead.begin(), WatchHead.end(), -1);
  std::fill(WatchTail.begin(), WatchTail.end(), -1);
  for (CRef C : ProblemClauses)
    attachClause(C);
  for (CRef C : Learnts)
    attachClause(C);
}

//===----------------------------------------------------------------------===//
// Search
//===----------------------------------------------------------------------===//

void SatSolver::enqueue(Lit L, CRef From) {
  assert(value(L) == LBool::Undef);
  size_t V = static_cast<size_t>(L.var());
  AssignLit[static_cast<size_t>(L.X)] = 1;
  AssignLit[static_cast<size_t>(L.X ^ 1)] = -1;
  Level[V] = decisionLevel();
  Reason[V] = From;
  Polarity[V] = L.sign();
  Trail.push_back(L);
}

SatSolver::CRef SatSolver::propagate() {
  while (QHead < Trail.size()) {
    Lit P = Trail[QHead++];
    ++Stats.Propagations;
    // Walk P's watcher list in append order. Nodes never allocate during
    // propagation: a moved watcher is unlinked and appended onto the new
    // literal's list (tail insertion preserves the classic vector-list
    // visit order, which is search-visible).
    size_t PX = static_cast<size_t>(P.X);
    int32_t *Link = &WatchHead[PX];
    int32_t Prev = -1;
    while (*Link >= 0) {
      int32_t NI = *Link;
      WatchNode &W = WatchPool[static_cast<size_t>(NI)];
      // Blocking literal: skip the clause without touching its memory.
      LBool BlockerVal = value(W.Blocker);
      if (BlockerVal == LBool::True) {
        Prev = NI;
        Link = &W.Next;
        continue;
      }
      // Out-of-cone clause during a projected solve: it still holds an
      // unassigned out-of-cone literal (the restriction keeps it that
      // way), so it can be neither unit nor conflicting — pass over it
      // without touching clause memory.
      if (W.Flags & WatchSkip) {
        Prev = NI;
        Link = &W.Next;
        continue;
      }
      // Binary clause: the blocker IS the other literal — imply it
      // directly, no clause memory touched, watch never moves.
      if (W.Flags & WatchBinary) {
        if (BlockerVal == LBool::False) {
          QHead = Trail.size();
          return W.C;
        }
        enqueue(W.Blocker, W.C);
        Prev = NI;
        Link = &W.Next;
        continue;
      }
      CRef C = W.C;
      // Make sure the false literal is at slot 1.
      Lit NotP = ~P;
      Lit L0 = litAt(C, 0);
      if (L0 == NotP) {
        setLitAt(C, 0, litAt(C, 1));
        setLitAt(C, 1, NotP);
        L0 = litAt(C, 0);
      }
      assert(litAt(C, 1) == NotP);
      // If the first literal is true, the clause is satisfied.
      if (value(L0) == LBool::True) {
        W.Blocker = L0;
        Prev = NI;
        Link = &W.Next;
        continue;
      }
      // Look for a new literal to watch.
      uint32_t Sz = clauseSize(C);
      bool Found = false;
      for (uint32_t K = 2; K < Sz; ++K) {
        Lit LK = litAt(C, K);
        if (value(LK) != LBool::False) {
          setLitAt(C, 1, LK);
          setLitAt(C, K, NotP);
          // Unlink from P's list, append onto (~LK)'s list.
          *Link = W.Next;
          if (W.Next < 0)
            WatchTail[PX] = Prev;
          W.Blocker = L0;
          W.Next = -1;
          watchAppendNode((~LK).X, NI);
          Found = true;
          break;
        }
      }
      if (Found)
        continue;
      // Unit or conflicting.
      W.Blocker = L0;
      Prev = NI;
      Link = &W.Next;
      if (value(L0) == LBool::False) {
        QHead = Trail.size();
        return C;
      }
      enqueue(L0, C);
    }
  }
  return NoReason;
}

uint32_t SatSolver::computeLBD(const std::vector<Lit> &Lits) {
  ++StampGen;
  uint32_t N = 0;
  for (Lit L : Lits) {
    uint32_t Lvl =
        static_cast<uint32_t>(Level[static_cast<size_t>(L.var())]);
    if (Lvl >= LevelStamp.size())
      LevelStamp.resize(Lvl + 1, 0);
    if (LevelStamp[Lvl] != StampGen) {
      LevelStamp[Lvl] = StampGen;
      ++N;
    }
  }
  return N;
}

void SatSolver::analyze(CRef Confl, std::vector<Lit> &OutLearnt,
                        int &OutBtLevel, uint32_t &OutLbd) {
  OutLearnt.clear();
  OutLearnt.push_back(Lit()); // placeholder for the asserting literal
  int PathC = 0;
  Lit P;
  bool PValid = false;
  size_t Index = Trail.size();

  do {
    assert(Confl != NoReason);
    uint32_t Sz = clauseSize(Confl);
    for (uint32_t K = 0; K < Sz; ++K) {
      // When expanding a reason clause, skip the implied literal P itself;
      // the remaining literals are its antecedents.
      Lit Q = litAt(Confl, K);
      if (PValid && Q == P)
        continue;
      size_t V = static_cast<size_t>(Q.var());
      if (Seen[V] || Level[V] == 0)
        continue;
      Seen[V] = 1;
      bumpVar(Q.var());
      if (Level[V] >= decisionLevel())
        ++PathC;
      else
        OutLearnt.push_back(Q);
    }
    // Select next literal on the trail to expand.
    while (!Seen[static_cast<size_t>(Trail[Index - 1].var())])
      --Index;
    P = Trail[--Index];
    PValid = true;
    Confl = Reason[static_cast<size_t>(P.var())];
    Seen[static_cast<size_t>(P.var())] = 0;
    --PathC;
  } while (PathC > 0);
  OutLearnt[0] = ~P;

  // Clause minimization: drop tail literals implied by the rest of the
  // clause (self-subsumption over their reason clauses). Removed literals
  // keep their Seen mark until the final clearing below, which therefore
  // iterates the pre-minimization literal set.
  std::vector<Lit> ToClear = OutLearnt;
  size_t W = 1;
  for (size_t K = 1; K < OutLearnt.size(); ++K) {
    Lit Q = OutLearnt[K];
    CRef RC = Reason[static_cast<size_t>(Q.var())];
    bool Redundant = false;
    if (RC != NoReason) {
      Redundant = true;
      uint32_t RSz = clauseSize(RC);
      for (uint32_t RK = 0; RK < RSz; ++RK) {
        Lit RL = litAt(RC, RK);
        if (RL == ~Q || RL == Q)
          continue;
        size_t RV = static_cast<size_t>(RL.var());
        if (!Seen[RV] && Level[RV] != 0) {
          Redundant = false;
          break;
        }
      }
    }
    if (!Redundant)
      OutLearnt[W++] = Q;
  }
  OutLearnt.resize(W);

  // Compute backtrack level: max level among tail literals.
  OutBtLevel = 0;
  size_t MaxI = 1;
  for (size_t K = 1; K < OutLearnt.size(); ++K) {
    int L = Level[static_cast<size_t>(OutLearnt[K].var())];
    if (L > OutBtLevel) {
      OutBtLevel = L;
      MaxI = K;
    }
  }
  if (OutLearnt.size() > 1)
    std::swap(OutLearnt[1], OutLearnt[MaxI]);

  OutLbd = computeLBD(OutLearnt);

  for (Lit L : ToClear)
    Seen[static_cast<size_t>(L.var())] = 0;
}

void SatSolver::cancelUntil(int Lvl) {
  if (decisionLevel() <= Lvl)
    return;
  size_t Bound = static_cast<size_t>(TrailLim[static_cast<size_t>(Lvl)]);
  for (size_t I = Trail.size(); I > Bound; --I) {
    Lit L = Trail[I - 1];
    size_t V = static_cast<size_t>(L.var());
    AssignLit[static_cast<size_t>(L.X)] = 0;
    AssignLit[static_cast<size_t>(L.X ^ 1)] = 0;
    Reason[V] = NoReason;
    heapInsert(static_cast<Var>(V));
  }
  Trail.resize(Bound);
  TrailLim.resize(static_cast<size_t>(Lvl));
  QHead = Trail.size();
}

Lit SatSolver::pickBranchLit() {
  while (!heapEmpty()) {
    Var V = heapPop();
    if (!isUnassigned(V))
      continue;
    if (ConeActive && !coneMarked(V)) {
      // Out-of-cone: park it until the restriction lifts. Every clause
      // that could need this variable is skip-flagged out of propagation
      // (clauses with all unfixed vars in the cone stay active and never
      // mention it), so deferring cannot hide an implication.
      ConeDeferred.push_back(V);
      continue;
    }
    return Lit(V, Polarity[static_cast<size_t>(V)]);
  }
  return Lit();
}

/// Luby sequence for restart scheduling.
double lv::smt::luby(double Y, int X) {
  int Size, Seq;
  for (Size = 1, Seq = 0; Size < X + 1; ++Seq, Size = 2 * Size + 1)
    ;
  while (Size - 1 != X) {
    Size = (Size - 1) >> 1;
    --Seq;
    X = X % Size;
  }
  return std::pow(Y, Seq);
}

//===----------------------------------------------------------------------===//
// Cone-of-influence projection
//===----------------------------------------------------------------------===//

void SatSolver::markConeByConnectivity(const std::vector<Lit> &Assumps,
                                       uint64_t &NumVars) {
  // Live clause list: skip deleted clauses and clauses already satisfied
  // at level 0 (they can never propagate again, so they conduct nothing).
  LiveScratch.clear();
  auto ScanList = [&](const std::vector<CRef> &List) {
    for (CRef C : List) {
      if (isDeleted(C))
        continue;
      uint32_t Sz = clauseSize(C);
      bool Satisfied = false;
      for (uint32_t K = 0; K < Sz && !Satisfied; ++K)
        Satisfied = value(litAt(C, K)) == LBool::True;
      if (!Satisfied)
        LiveScratch.push_back(C);
    }
  };
  ScanList(ProblemClauses);
  ScanList(Learnts);

  // Occurrence index (CSR over unfixed variables), rebuilt per solve: an
  // O(live literals) build, i.e. about one propagation pass.
  OccCount.assign(static_cast<size_t>(numVars()) + 1, 0);
  for (CRef C : LiveScratch) {
    uint32_t Sz = clauseSize(C);
    for (uint32_t K = 0; K < Sz; ++K) {
      Lit L = litAt(C, K);
      if (value(L) == LBool::Undef)
        ++OccCount[static_cast<size_t>(L.var()) + 1];
    }
  }
  for (size_t V = 1; V < OccCount.size(); ++V)
    OccCount[V] += OccCount[V - 1];
  OccList.assign(OccCount.back(), 0);
  std::vector<uint32_t> Fill(OccCount.begin(), OccCount.end() - 1);
  for (uint32_t I = 0; I < LiveScratch.size(); ++I) {
    CRef C = LiveScratch[static_cast<size_t>(I)];
    uint32_t Sz = clauseSize(C);
    for (uint32_t K = 0; K < Sz; ++K) {
      Lit L = litAt(C, K);
      if (value(L) == LBool::Undef)
        OccList[Fill[static_cast<size_t>(L.var())]++] = I;
    }
  }

  // BFS from the (unfixed) assumption variables.
  std::vector<uint8_t> Reached(LiveScratch.size(), 0);
  ConeQueue.clear();
  auto Mark = [&](Var V) {
    if (ConeStamp[static_cast<size_t>(V)] != ConeGen) {
      ConeStamp[static_cast<size_t>(V)] = ConeGen;
      ConeQueue.push_back(V);
      ++NumVars;
    }
  };
  for (Lit A : Assumps)
    if (value(A) == LBool::Undef)
      Mark(A.var());
  while (!ConeQueue.empty()) {
    Var V = ConeQueue.back();
    ConeQueue.pop_back();
    size_t Lo = OccCount[static_cast<size_t>(V)];
    size_t Hi = OccCount[static_cast<size_t>(V) + 1];
    for (size_t I = Lo; I < Hi; ++I) {
      uint32_t CI = OccList[I];
      if (Reached[CI])
        continue;
      Reached[CI] = 1;
      CRef C = LiveScratch[CI];
      uint32_t Sz = clauseSize(C);
      for (uint32_t K = 0; K < Sz; ++K) {
        Lit L = litAt(C, K);
        if (value(L) == LBool::Undef)
          Mark(L.var());
      }
    }
  }

  // Scratch is only needed during setup; empty it so forking the solver
  // copies sizes, not dead contents.
  LiveScratch.clear();
  OccCount.clear();
  OccList.clear();
}

void SatSolver::setupCone(const std::vector<Lit> &Assumps,
                          const std::vector<Var> *ExternalCone) {
  ConeEntryMark = Trail.size(); // level-0 prefix, fully propagated already
  if (ConeStamp.size() < static_cast<size_t>(numVars()))
    ConeStamp.resize(static_cast<size_t>(numVars()), 0);
  if (++ConeGen == 0) { // generation wrap: invalidate all stale stamps
    std::fill(ConeStamp.begin(), ConeStamp.end(), 0u);
    ConeGen = 1;
  }

  uint64_t NumVars = 0;
  if (ExternalCone) {
    // Caller-computed (definitional) cone, e.g. the blaster's term cone.
    // The assumption variables must be decidable whatever the caller sent.
    for (Var V : *ExternalCone)
      if (static_cast<size_t>(V) < ConeStamp.size() &&
          ConeStamp[static_cast<size_t>(V)] != ConeGen) {
        ConeStamp[static_cast<size_t>(V)] = ConeGen;
        if (isUnassigned(V))
          ++NumVars;
      }
    for (Lit A : Assumps) {
      Var V = A.var();
      if (ConeStamp[static_cast<size_t>(V)] != ConeGen) {
        ConeStamp[static_cast<size_t>(V)] = ConeGen;
        if (isUnassigned(V))
          ++NumVars;
      }
    }
  } else {
    markConeByConnectivity(Assumps, NumVars);
  }

  ConeActive = NumVars > 0;
  LastConeUsed = ConeActive;
  if (!ConeActive) {
    Stats.ConeVars = 0;
    Stats.ConeClauses = 0;
    return;
  }

  // Classify every live clause — skip iff it still has an unfixed
  // out-of-cone literal (such a literal stays unassigned for the whole
  // projected phase, so the clause can never propagate) — and mirror the
  // verdict into the watcher nodes so the hot loop never touches skipped
  // clause memory.
  uint64_t NumClauses = 0;
  auto Classify = [&](const std::vector<CRef> &List) {
    for (CRef C : List) {
      if (isDeleted(C))
        continue;
      uint32_t Sz = clauseSize(C);
      bool Skip = false;
      for (uint32_t K = 0; K < Sz; ++K) {
        Lit L = litAt(C, K);
        if (value(L) == LBool::Undef && !coneMarked(L.var())) {
          Skip = true;
          break;
        }
      }
      if (Skip)
        Arena[C + 1] |= SkipBit;
      else {
        Arena[C + 1] &= ~SkipBit;
        ++NumClauses;
      }
    }
  };
  Classify(ProblemClauses);
  Classify(Learnts);
  for (WatchNode &W : WatchPool) {
    if (W.C == NoReason)
      continue; // free-list node
    if (isSkipped(W.C))
      W.Flags |= WatchSkip;
    else
      W.Flags &= ~WatchSkip;
  }
  ConeFlagged = true;

  Stats.ConeVars = NumVars;
  Stats.ConeClauses = NumClauses;
}

void SatSolver::clearConeFlags() {
  if (!ConeFlagged)
    return;
  for (CRef C : ProblemClauses)
    Arena[C + 1] &= ~SkipBit;
  for (CRef C : Learnts)
    Arena[C + 1] &= ~SkipBit;
  for (WatchNode &W : WatchPool)
    W.Flags &= ~WatchSkip;
  ConeFlagged = false;
}

void SatSolver::liftCone() {
  ConeActive = false;
  // Restart before re-enabling the skipped clauses. Replaying a deep
  // search trail against them is not conflict-safe: a replay conflict
  // would backjump with QHead snapped past the unreplayed positions,
  // leaving re-enabled clauses permanently blind to surviving trail
  // literals (a later Sat could then violate one of them). At level 0
  // the replay below covers exactly the literals fixed while the flags
  // were on, and a replay conflict is a genuine root contradiction.
  cancelUntil(0);
  for (Var V : ConeDeferred)
    if (isUnassigned(V))
      heapInsert(V);
  ConeDeferred.clear();
  clearConeFlags();
  // Replay every root literal fixed since the projected phase began
  // against the re-enabled clauses: their skipped watchers never moved,
  // so without this the solver would go blind to those clauses forever.
  // Older trail entries were fully propagated before the phase started.
  QHead = std::min(ConeEntryMark, Trail.size());
}

SatResult SatSolver::solve(const SatBudget &Budget) {
  static const std::vector<Lit> NoAssumps;
  return solve(NoAssumps, Budget);
}

namespace {
/// Publishes per-call deltas of the cumulative SatStats to the obs
/// metrics registry on every exit path (solve has several). Relaxed
/// atomic adds only; never touches search state.
struct SolveMetricsGuard {
  const SatStats &S;
  uint64_t C0, P0, R0, D0;
  explicit SolveMetricsGuard(const SatStats &S)
      : S(S), C0(S.Conflicts), P0(S.Propagations), R0(S.Restarts),
        D0(S.Decisions) {}
  ~SolveMetricsGuard() {
    static obs::Counter &Solves = obs::counter("sat.solves");
    static obs::Counter &Conflicts = obs::counter("sat.conflicts");
    static obs::Counter &Props = obs::counter("sat.propagations");
    static obs::Counter &Restarts = obs::counter("sat.restarts");
    static obs::Counter &Decisions = obs::counter("sat.decisions");
    Solves.inc();
    Conflicts.inc(S.Conflicts - C0);
    Props.inc(S.Propagations - P0);
    Restarts.inc(S.Restarts - R0);
    Decisions.inc(S.Decisions - D0);
  }
};
} // namespace

SatResult SatSolver::solve(const std::vector<Lit> &Assumps,
                           const SatBudget &Budget, const SatOptions &Opts,
                           const std::vector<Var> *ExternalCone) {
  SolveMetricsGuard Metrics(Stats);
  if (!OkFlag)
    return SatResult::Unsat;
  assert(decisionLevel() == 0);
  if (propagate() != NoReason) {
    OkFlag = false;
    return SatResult::Unsat;
  }

  Stats.ConeVars = 0;
  Stats.ConeClauses = 0;
  LastConeUsed = false;
  ConeActive = false;
  if (Opts.ConeProjection && !Assumps.empty())
    setupCone(Assumps, ExternalCone);

  // Non-Sat exits of a projected solve must lift the restriction and run
  // the catch-up propagation themselves (the Sat path lifts mid-search):
  // the solver outlives the query, and later queries rely on complete
  // watcher state.
  auto ProjectedExit = [&](SatResult R) {
    if (ConeActive || ConeFlagged) {
      liftCone();
      if (OkFlag && propagate() != NoReason)
        OkFlag = false; // catch-up exposed a root-level contradiction
    }
    return R;
  };

  // Budgets are per call: measure against the counters at entry so an
  // incremental solver gets a fresh allowance for every query.
  const uint64_t StartConflicts = Stats.Conflicts;
  const uint64_t StartProps = Stats.Propagations;

  // A task deadline must be able to stop a long solve between conflicts
  // and between decisions; budgets alone only bound the conflict path.
  // Expiry exits through the ordinary Unknown path (solver stays usable,
  // caller's next stage checkpoint raises the cancellation) rather than
  // throwing from inside the search loop. Clock reads are amortised.
  const support::CancelToken *CT = support::currentCancelToken();
  uint64_t CancelTick = 0;

  int RestartNum = 0;
  uint64_t RestartLimit =
      static_cast<uint64_t>(100 * luby(2.0, RestartNum));
  uint64_t ConflictsAtRestart = 0;
  std::vector<Lit> Learnt;

  for (;;) {
    CRef Confl = propagate();
    if (Confl != NoReason) {
      ++Stats.Conflicts;
      ++ConflictsAtRestart;
      if (decisionLevel() == 0) {
        OkFlag = false;
        return ProjectedExit(SatResult::Unsat);
      }
      int BtLevel;
      uint32_t Lbd;
      analyze(Confl, Learnt, BtLevel, Lbd);
      cancelUntil(BtLevel);
      if (Learnt.size() == 1) {
        enqueue(Learnt[0], NoReason);
        Lbd = 1;
      } else {
        CRef C = allocClause(Learnt.data(), Learnt.size(), /*Learnt=*/true,
                             Lbd);
        attachClause(C);
        enqueue(Learnt[0], C);
        Stats.LearntLive = Learnts.size();
      }
      ++Stats.LearntTotal;
      Stats.SumLBD += Lbd;
      decayActivities();
      if (Stats.Conflicts - StartConflicts >= Budget.MaxConflicts ||
          Stats.Propagations - StartProps >= Budget.MaxPropagations ||
          ((Stats.Conflicts & 0x3F) == 0 && CT && CT->expired())) {
        cancelUntil(0);
        return ProjectedExit(SatResult::Unknown);
      }
      // Learnt-DB reduction: long-budget runs otherwise drown propagation
      // in stale learnt clauses.
      if (Stats.Conflicts >= NextReduce) {
        reduceDB();
        NextReduce =
            Stats.Conflicts + 2000 + ReduceIncrement * Stats.ReduceDBs;
      }
      continue;
    }
    // No conflict.
    if (ConflictsAtRestart >= RestartLimit) {
      ConflictsAtRestart = 0;
      RestartLimit = static_cast<uint64_t>(100 * luby(2.0, ++RestartNum));
      ++Stats.Restarts;
      int Keep = 0;
      if (Opts.TrailReuse && decisionLevel() > 0) {
        // Keep the assumption prefix of the trail: those decisions are
        // re-made verbatim by the next round anyway, and re-deriving
        // their propagation — the whole shared context — is the dominant
        // propagation cost of budget-bound incremental queries. Search
        // levels above the assumptions still cancel, preserving the point
        // of the restart.
        Keep = std::min(static_cast<int>(Assumps.size()), decisionLevel());
        if (Keep > 0) {
          size_t Bound = Keep < decisionLevel()
                             ? static_cast<size_t>(
                                   TrailLim[static_cast<size_t>(Keep)])
                             : Trail.size();
          Stats.TrailReused += Bound - static_cast<size_t>(TrailLim[0]);
        }
      }
      cancelUntil(Keep);
      continue;
    }
    // Take pending assumptions first, one decision level each.
    Lit Next;
    while (decisionLevel() < static_cast<int>(Assumps.size())) {
      Lit P = Assumps[static_cast<size_t>(decisionLevel())];
      LBool V = value(P);
      if (V == LBool::True) {
        // Already satisfied: open a dummy level to keep the
        // assumption-index == decision-level correspondence.
        TrailLim.push_back(static_cast<int>(Trail.size()));
      } else if (V == LBool::False) {
        // The clause DB (plus earlier assumptions) refutes this
        // assumption: Unsat under assumptions, solver stays usable.
        cancelUntil(0);
        return ProjectedExit(SatResult::Unsat);
      } else {
        Next = P;
        break;
      }
    }
    if (Next.X < 0)
      Next = pickBranchLit();
    if (Next.X < 0 && ConeActive) {
      // Cone exhausted without conflict: every cone clause is satisfied.
      // Lift the restriction (a restart plus root-trail replay) and let
      // ordinary CDCL re-derive and complete the assignment over the
      // full DB — so Sat is never claimed from the cone alone.
      liftCone();
      continue;
    }
    if (Next.X < 0) {
      // All variables assigned: SAT.
      for (size_t V = 0; V < Model.size(); ++V)
        Model[V] = static_cast<LBool>(AssignLit[2 * V]);
      cancelUntil(0);
      return SatResult::Sat;
    }
    if ((++CancelTick & 0x3FF) == 0 && CT && CT->expired()) {
      cancelUntil(0);
      return ProjectedExit(SatResult::Unknown);
    }
    ++Stats.Decisions;
    TrailLim.push_back(static_cast<int>(Trail.size()));
    enqueue(Next, NoReason);
  }
}
