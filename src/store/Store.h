//===- store/Store.h - persistent content-addressed result store -*- C++ -*-===//
///
/// \file
/// The service's content-addressed verdict cache: full `EquivResult` and
/// `ChecksumOutcome` objects, keyed by (scalar hash, candidate hash,
/// configHash). With a directory it is also persistent — a verified
/// verdict never expires, so a store directory turns every bench rerun,
/// CI job, and service restart from a cold start into a warm one; with an
/// empty directory it is memory-only.
///
/// Layout: one append-only record log (`<dir>/records.log`, a RecordLog —
/// see RecordLog.h) holding a versioned header followed by CRC-framed
/// records, plus the in-memory index, rebuilt on open, that every lookup
/// reads:
///
///   * **Never a wrong verdict.** Lookups verify the stored source texts
///     against the probe, so a 64-bit key collision degrades to a miss.
///     Damaged bytes degrade the same way: a record that fails its CRC or
///     parses short drops the rest of the log (append-only means
///     everything after a torn write is suspect) and the file is
///     truncated back to the last good record.
///   * **Kill-safe.** Records are framed and appended with a flush per
///     record; a process killed mid-append leaves at most one torn record
///     at the tail, which the next open drops. Fresh stores are created
///     via temp file + atomic rename, so a header is never partially
///     visible.
///   * **Version-pinned.** The header embeds the schema version and the
///     three default `configHash()` golden values (checksum / equivalence
///     / FSM). A store written by an incompatible build is set aside
///     (renamed to `records.log.skipped`) and replaced by a fresh one —
///     logged via the `store.version_skipped` counter, never an error.
///
/// See src/store/README.md for the byte-level record format and the key
/// discipline.
///
//===----------------------------------------------------------------------===//

#ifndef LV_STORE_STORE_H
#define LV_STORE_STORE_H

#include "core/Equivalence.h"
#include "store/RecordLog.h"

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>

namespace lv {
namespace store {

/// Store counters. Hits/Misses cover every lookup of both record kinds
/// (equivalence and checksum); Entries is the index size; Writes counts
/// records appended this session; CorruptSkipped / VersionSkipped count
/// load-time salvage events (also exported as `store.corrupt_skipped` /
/// `store.version_skipped`).
struct StoreStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Entries = 0;
  uint64_t Writes = 0;
  uint64_t CorruptSkipped = 0;  ///< Damaged tail records dropped on load.
  uint64_t VersionSkipped = 0;  ///< Incompatible stores set aside on load.
  uint64_t AppendFailed = 0;    ///< Appends lost to I/O failure (then
                                ///< memory-only; `store.append_failed`).
  uint64_t ReadFailed = 0;      ///< Loads aborted by read failure (then
                                ///< memory-only; `store.read_failed`).
  uint64_t LoadedEquiv = 0;     ///< Equivalence records loaded on open.
  uint64_t LoadedChecksum = 0;  ///< Checksum records loaded on open.

  void add(const StoreStats &O) {
    Hits += O.Hits;
    Misses += O.Misses;
    Entries += O.Entries;
    Writes += O.Writes;
    CorruptSkipped += O.CorruptSkipped;
    VersionSkipped += O.VersionSkipped;
    AppendFailed += O.AppendFailed;
    ReadFailed += O.ReadFailed;
    LoadedEquiv += O.LoadedEquiv;
    LoadedChecksum += O.LoadedChecksum;
  }
};

/// Fault-injection hooks for persistent-store I/O, the storage analogue of
/// llm/Chaos.h's transport faults (see src/svc/README.md "Failure model").
/// Process-global: set before opening/driving stores under test, clear by
/// setting empty hooks. Each callback is polled once per candidate I/O and
/// returns true to inject a failure:
///   * FailAppend — the next record append fails as if fwrite hit EIO /
///     disk-full: the log closes, the store degrades to memory-only
///     (`StoreStats::AppendFailed`, `store.append_failed`). Nothing is
///     written for the failed record, so the on-disk log stays clean.
///   * FailLoad — the next open fails to read the log: the store starts
///     memory-only and empty (`StoreStats::ReadFailed`, `store.read_failed`)
///     WITHOUT touching the existing file — a transient read failure must
///     never clobber a good log with a fresh one.
struct ChaosFileHooks {
  std::function<bool()> FailAppend;
  std::function<bool()> FailLoad;
};
void setChaosFileHooks(ChaosFileHooks H);

/// The verdict cache. Thread-safe (one mutex over index + log handle).
class ResultStore {
public:
  /// On-disk schema version; bump when any serialized layout changes, or
  /// when a stage's verdicts change under an unchanged configHash (older
  /// records would replay stale verdicts). Version 2 dropped the racer and
  /// cone/trail-reuse fields of tv::TVResult; version 3 marks stage 2's
  /// case split on the trip count; version 4 the multiplier abstraction
  /// (stored Inconclusive verdicts may now be decided); version 5 removed
  /// the compiled-program record kind; version 6 marks the mask-idiom ite
  /// lifts in smt::TermTable (s124, s276 and s2712 became Equivalent).
  static constexpr uint32_t SchemaVersion = 6;

  /// (scalar source hash, candidate source hash, configHash).
  struct Key {
    uint64_t Scalar = 0, Candidate = 0, Config = 0;
    bool operator==(const Key &O) const {
      return Scalar == O.Scalar && Candidate == O.Candidate &&
             Config == O.Config;
    }
  };

  /// The one key function: fnv1a of both source texts plus the hash of
  /// the config the value was computed under.
  static Key makeKey(const std::string &ScalarSrc, const std::string &CandSrc,
                     uint64_t ConfigHash);

  /// Opens (or creates) the store under \p Dir, replaying the record log
  /// into the in-memory index (`store.load` span). A missing directory is
  /// created; an unreadable or incompatible one degrades to an empty
  /// in-memory store (ok() stays true as long as appends can be written —
  /// a store must never turn a warm start into a failed run). An empty
  /// \p Dir opens nothing: the store is memory-only from the start.
  explicit ResultStore(const std::string &Dir);

  ResultStore(const ResultStore &) = delete;
  ResultStore &operator=(const ResultStore &) = delete;

  const std::string &dir() const { return Dir; }

  /// True when the log file is open for appending (lookups work either
  /// way; a read-only filesystem just loses write-through).
  bool ok() const { return Log.ok(); }

  /// Lookups verify stored sources against the probe, so a key collision
  /// degrades to a miss. The first store of a key wins; later ones (a
  /// concurrent duplicate computed the same value) are dropped.
  bool lookupEquiv(const Key &K, const std::string &ScalarSrc,
                   const std::string &CandSrc, core::EquivResult &Out);
  void storeEquiv(const Key &K, const std::string &ScalarSrc,
                  const std::string &CandSrc, const core::EquivResult &R);
  bool lookupChecksum(const Key &K, const std::string &ScalarSrc,
                      const std::string &CandSrc,
                      interp::ChecksumOutcome &Out);
  void storeChecksum(const Key &K, const std::string &ScalarSrc,
                     const std::string &CandSrc,
                     const interp::ChecksumOutcome &O);

  /// Forces buffered log bytes to the OS (appendRecord already flushes per
  /// record; drain calls this so teardown is explicit about durability).
  void flush();

  StoreStats stats() const;

private:
  struct KeyHash {
    size_t operator()(const Key &K) const;
  };
  template <class V> struct Entry {
    std::string ScalarSrc, CandSrc; ///< Exactness check on hit.
    V Value;
  };
  template <class V>
  using Index = std::unordered_map<Key, Entry<V>, KeyHash>;

  /// Replays one log record into the index (false: corrupt).
  bool decodeRecord(framing::Rd &R);
  /// The lookup and store behind both record kinds: a hit needs equal
  /// source texts; a fresh entry is appended as a \p Kind record whose
  /// value \p Put serializes.
  template <class V>
  bool lookup(const Index<V> &Map, const Key &K, const std::string &ScalarSrc,
              const std::string &CandSrc, V &Out);
  template <class V>
  void insert(Index<V> &Map, uint8_t Kind,
              void (*Put)(framing::Wr &, const V &), const Key &K,
              const std::string &ScalarSrc, const std::string &CandSrc,
              const V &Value);

  std::string Dir;
  mutable std::mutex M;
  RecordLog Log; ///< records.log; memory-only when closed.
  Index<core::EquivResult> Equiv;
  Index<interp::ChecksumOutcome> Checksum;
  StoreStats Stats; ///< Index counters; the log keeps its own.
};

/// Canonical binary serializations, exposed so tests and the bench gates
/// can assert *bit*-identity of replayed verdicts (string equality of the
/// serialized form is exactly the store's round-trip contract).
std::string serializeEquivResult(const core::EquivResult &R);
bool deserializeEquivResult(const std::string &Bytes, core::EquivResult &Out);
std::string serializeChecksumOutcome(const interp::ChecksumOutcome &O);
bool deserializeChecksumOutcome(const std::string &Bytes,
                                interp::ChecksumOutcome &Out);

} // namespace store
} // namespace lv

#endif // LV_STORE_STORE_H
