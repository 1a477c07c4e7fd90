//===- smt/Blast.h - term -> CNF bit-blasting -------------------*- C++ -*-===//
///
/// \file
/// Tseitin bit-blasting of bool/BV32 terms into a SatSolver: ripple-carry
/// adders, shift-add multipliers, barrel shifters for symbolic shift
/// amounts, and a restoring divider for symbolic divisors. Gates are
/// structurally hashed so shared subterms blast once.
///
/// Multipliers are abstracted (lemmas on demand): a Mul or MulOvf term
/// whose operands are both non-constant blasts as fresh output literals
/// with no constraint on them, and is recorded as an instance. After a
/// Sat answer, refineMismatched() blasts the exact circuit of each
/// instance whose model output is wrong for its model operands and ties it
/// to the abstract outputs (see IncrementalSolver::check). The exact
/// circuits are a 32-bit shift-add product for Mul and, for the signed
/// overflow predicate, the unsigned 32x32->64 product of the operands
/// with its high half sign-corrected; that product's low half is the Mul
/// circuit, shared through the gate memo. A multiplier with a constant
/// operand blasts exactly at once (it is a few shifted adds).
///
//===----------------------------------------------------------------------===//

#ifndef LV_SMT_BLAST_H
#define LV_SMT_BLAST_H

#include "smt/Sat.h"
#include "support/Cancel.h"
#include "smt/Term.h"

#include <array>
#include <cstring>
#include <deque>
#include <vector>

namespace lv {
namespace smt {

/// Structural-hash gate memo: open-addressing so a fork is two flat vector
/// copies instead of a node-based hash-map rebuild. Keys are gate
/// signatures (never 0), values the defined output literal. The slot is a
/// mixed hash of the key: the key's low bits are an operand literal, and
/// fresh literals are sequential, so slotting by the raw low bits builds
/// long linear-probe clusters. Where a key lands never changes the value
/// it maps to, so the hash is invisible in the emitted CNF.
class GateTable {
public:
  GateTable() : Keys(1024, 0), Vals(1024) {}

  /// Probes once for \p Key. On a hit returns its value's slot and clears
  /// \p Fresh. On a miss inserts \p Key, sets \p Fresh, and returns the
  /// new value slot, which the caller must fill before the next call.
  Lit &findOrInsert(uint64_t Key, bool &Fresh) {
    size_t Mask = Keys.size() - 1;
    size_t I = slot(Key, Mask);
    for (; Keys[I] != 0; I = (I + 1) & Mask) {
      if (Keys[I] == Key) {
        Fresh = false;
        return Vals[I];
      }
    }
    Fresh = true;
    if (Count * 10 >= Keys.size() * 7) {
      grow();
      Mask = Keys.size() - 1;
      I = slot(Key, Mask);
      while (Keys[I] != 0)
        I = (I + 1) & Mask;
    }
    Keys[I] = Key;
    ++Count;
    return Vals[I];
  }

  size_t size() const { return Count; }
  size_t capacity() const { return Keys.size(); } ///< Slots (power of 2).

private:
  /// murmur3's 64-bit finalizer: every key bit reaches the masked slot.
  static size_t slot(uint64_t Key, size_t Mask) {
    Key ^= Key >> 33;
    Key *= 0xff51afd7ed558ccdULL;
    Key ^= Key >> 33;
    Key *= 0xc4ceb9fe1a85ec53ULL;
    Key ^= Key >> 33;
    return static_cast<size_t>(Key) & Mask;
  }

  void grow() {
    std::vector<uint64_t> OldK = std::move(Keys);
    std::vector<Lit> OldV = std::move(Vals);
    Keys.assign(OldK.size() * 2, 0);
    Vals.assign(OldK.size() * 2, Lit());
    size_t Mask = Keys.size() - 1;
    for (size_t I = 0; I < OldK.size(); ++I) {
      if (OldK[I] == 0)
        continue;
      size_t J = slot(OldK[I], Mask);
      while (Keys[J] != 0)
        J = (J + 1) & Mask;
      Keys[J] = OldK[I];
      Vals[J] = OldV[I];
    }
  }

  std::vector<uint64_t> Keys; ///< 0 = empty slot.
  std::vector<Lit> Vals;
  size_t Count = 0;
};

/// Blasts terms into CNF over a SatSolver. The blaster is persistent: it
/// memoizes per TermId against a long-lived TermTable, so a single instance
/// shared across many queries (see IncrementalSolver) blasts each shared
/// subterm exactly once.
class BitBlaster {
public:
  using Word = std::vector<Lit>;          ///< Working word, LSB first.
  using PackedWord = std::array<Lit, 32>; ///< Interned 32-bit result.

  BitBlaster(const TermTable &TT, SatSolver &S);

  /// Fork: copies every memo (bool/BV/gate caches, pool, seen vars) but
  /// binds the copy to \p NewS — which must be a copy of the original's
  /// solver, so all cached literals stay valid. Together with SatSolver's
  /// copy constructor this clones a blasted context in O(state) flat
  /// copies, without re-blasting anything.
  BitBlaster(const BitBlaster &O, SatSolver &NewS)
      : TT(O.TT), S(NewS), TrueLit(O.TrueLit), BoolCache(O.BoolCache),
        BvPool(O.BvPool), BvCache(O.BvCache), GateCache(O.GateCache),
        VarsSeen(O.VarsSeen), Muls(O.Muls), CT(O.CT) {}

  /// Re-forks in place: like the fork constructor, but reuses this
  /// instance's existing buffer capacity (repeated forking stays pure
  /// memcpy, no allocation churn). The bound solver is unchanged — assign
  /// it from the source's solver alongside this call.
  void assignFrom(const BitBlaster &O) {
    TrueLit = O.TrueLit;
    BoolCache = O.BoolCache;
    BvPool = O.BvPool;
    BvCache = O.BvCache;
    GateCache = O.GateCache;
    VarsSeen = O.VarsSeen;
    Muls = O.Muls;
    CT = O.CT;
  }

  /// Blasts a bool term; the returned literal is equivalent to the term.
  Lit blastBool(TermId Id);

  /// Blasts a BV term into 32 literals (LSB first). The reference points
  /// into a stable-address pool (deque): it stays valid across later
  /// blasts, so cache hits cost nothing instead of a 32-entry copy.
  const PackedWord &blastBv(TermId Id);

  /// After a Sat result, reads back the model value of a Var term that was
  /// reachable from the blasted query.
  bool modelOfVar(TermId Id, uint32_t &Out) const;
  bool modelOfBVar(TermId Id, bool &Out) const;

  /// Terms of kind Var/BVar encountered during blasting (for model dumps).
  const std::vector<TermId> &seenVars() const { return VarsSeen; }

  /// After a Sat result: blasts the exact circuit of every abstract
  /// multiplier instance whose model output differs from the product (or
  /// overflow) of its model operands, and ties it to the instance's
  /// outputs. Returns how many instances it refined; 0 means the model
  /// agrees with the exact encoding of everything blasted so far.
  size_t refineMismatched();

private:
  const TermTable &TT;
  SatSolver &S;
  Lit TrueLit;

  // Term-level caches are dense vectors indexed by TermId (ids are dense),
  // so forking them is a flat copy instead of a hash-map rebuild; the BV
  // pool holds fixed-size packed words (no per-entry heap allocation).
  std::vector<Lit> BoolCache;   ///< X == -2 means "not blasted yet".
  std::deque<PackedWord> BvPool; ///< Stable addresses across growth.
  std::vector<int32_t> BvCache; ///< TermId -> BvPool index, -1 when unset.
  GateTable GateCache;
  std::vector<TermId> VarsSeen;
  /// An abstracted Mul/MulOvf term. Its operand words and outputs live in
  /// the term caches; Refined is set once its exact circuit is tied in.
  struct MulInstance {
    TermId Id;
    bool Refined;
  };
  std::vector<MulInstance> Muls;
  /// Captured at construction and preserved across fork()/assignFrom so
  /// blasters running on tv worker threads still honour the owning
  /// task's deadline. Null when no CancelScope is active.
  const support::CancelToken *CT = support::currentCancelToken();
  uint64_t BlastSteps = 0; ///< Fresh-blast tick for periodic cancel checks.

  void checkCancelTick() {
    if ((++BlastSteps & 0xFFF) == 0 && CT && CT->expired())
      throw support::CancelledError("smt.blast");
  }

  bool boolCached(TermId Id, Lit &Out) const {
    size_t I = static_cast<size_t>(Id);
    if (I < BoolCache.size() && BoolCache[I].X >= 0) {
      Out = BoolCache[I];
      return true;
    }
    return false;
  }
  const PackedWord *bvCached(TermId Id) const {
    size_t I = static_cast<size_t>(Id);
    if (I < BvCache.size() && BvCache[I] >= 0)
      return &BvPool[static_cast<size_t>(BvCache[I])];
    return nullptr;
  }
  const PackedWord &internBv(TermId Id, const Word &W) {
    PackedWord P;
    std::memcpy(P.data(), W.data(), sizeof(PackedWord));
    BvPool.push_back(P);
    size_t I = static_cast<size_t>(Id);
    if (I >= BvCache.size())
      BvCache.resize(I + 1, -1);
    BvCache[I] = static_cast<int32_t>(BvPool.size()) - 1;
    return BvPool.back();
  }
  Lit internBool(TermId Id, Lit L) {
    size_t I = static_cast<size_t>(Id);
    if (I >= BoolCache.size())
      BoolCache.resize(I + 1, Lit());
    BoolCache[I] = L;
    return L;
  }

  Lit falseLit() const { return ~TrueLit; }
  Lit constLit(bool B) const { return B ? TrueLit : ~TrueLit; }
  bool isConstLit(Lit L, bool &B) const {
    if (L == TrueLit) {
      B = true;
      return true;
    }
    if (L == ~TrueLit) {
      B = false;
      return true;
    }
    return false;
  }

  Lit freshLit() { return Lit(S.newVar(), false); }
  bool modelLit(Lit L) const;
  uint32_t modelWord(const PackedWord &Bits) const;

  /// Records \p Id (a Mul or MulOvf whose operands are both non-constant)
  /// as an abstract instance and returns true; false for a multiplier that
  /// blasts exactly at once.
  bool abstractMul(TermId Id);

  // Simplifying gate constructors.
  Lit gAnd(Lit A, Lit B);
  Lit gOr(Lit A, Lit B) { return ~gAnd(~A, ~B); }
  Lit gXor(Lit A, Lit B);
  Lit gXnor(Lit A, Lit B) { return ~gXor(A, B); }
  Lit gMux(Lit Sel, Lit T, Lit E);

  /// Read-only view over a word of literals; lets the helpers consume
  /// working vectors and interned packed words alike without copies.
  struct WordView {
    const Lit *Ptr;
    size_t Len;
    WordView(const Word &W) : Ptr(W.data()), Len(W.size()) {}
    WordView(const PackedWord &W) : Ptr(W.data()), Len(W.size()) {}
    const Lit &operator[](size_t I) const { return Ptr[I]; }
    size_t size() const { return Len; }
    const Lit &back() const { return Ptr[Len - 1]; }
  };

  // Word-level helpers over literal words (LSB first).
  Word wConst(uint32_t V, int Width = 32);
  Word wAdd(WordView A, WordView B, Lit CarryIn, Lit *CarryOut,
            Lit *CarryPrev);
  Word wNeg(WordView A);
  Word wMux(Lit Sel, WordView T, WordView E);
  Lit wUlt(WordView A, WordView B);
  Lit wEq(WordView A, WordView B);
  Word wMul(WordView A, WordView B, int OutWidth);
  Lit wMulOvf(WordView A, WordView B);
  void wUDivRem(WordView A, WordView B, Word &Q, Word &R);
  Word wAbs(WordView A);
};

} // namespace smt
} // namespace lv

#endif // LV_SMT_BLAST_H
