//===- store/Journal.h - crash-recovery batch journal -----------*- C++ -*-===//
///
/// \file
/// A write-ahead journal that makes a batch survive process death. The
/// service appends one `TaskDone` record per completed task (the task's
/// content-addressed key, its identity string and its fully serialized
/// Outcome). A process killed mid-batch reopens the journal, finds the
/// completed subset, and re-runs only the remainder — because every task
/// is a pure function of its Request, replayed outcomes are byte-identical
/// to what the re-run would have produced, so an interrupted batch
/// converges on exactly the uninterrupted result.
///
/// The file is a RecordLog (RecordLog.h), the same log ResultStore uses:
/// a versioned header ('LVJN' magic + schema version + the three default
/// configHash goldens), CRC-framed records flushed one by one, a torn or
/// flipped tail truncated back to the last good record on open, and an
/// incompatible header set aside (`journal.log.skipped`) rather than
/// trusted or destroyed. Only *completed* outcomes are journaled and
/// lookups re-check the request identity string, so a replay can skip
/// work but never change a result.
///
/// Threading: one mutex, same as ResultStore. The journal is the log plus
/// an in-memory index; it is shared by all workers of a service.
///
//===----------------------------------------------------------------------===//

#ifndef LV_STORE_JOURNAL_H
#define LV_STORE_JOURNAL_H

#include "store/RecordLog.h"

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

namespace lv {
namespace store {

/// Journal counters, mirroring StoreStats' salvage taxonomy.
struct JournalStats {
  uint64_t LoadedDone = 0;     ///< TaskDone records replayed on open.
  uint64_t ReplayHits = 0;     ///< Lookups served from a prior process.
  uint64_t Writes = 0;         ///< Records appended this session.
  uint64_t CorruptSkipped = 0; ///< Damaged tails dropped on load.
  uint64_t VersionSkipped = 0; ///< Incompatible journals set aside.
  uint64_t AppendFailed = 0;   ///< Appends lost to I/O failure.

  void add(const JournalStats &O) {
    LoadedDone += O.LoadedDone;
    ReplayHits += O.ReplayHits;
    Writes += O.Writes;
    CorruptSkipped += O.CorruptSkipped;
    VersionSkipped += O.VersionSkipped;
    AppendFailed += O.AppendFailed;
  }
};

class BatchJournal {
public:
  /// On-disk schema version; bump when the record layout or the service's
  /// Outcome wire format (svc::serializeOutcome) changes, or when verdicts
  /// change under an unchanged configHash. Version 2 dropped the batch
  /// membership record; version 3 the racer fields of svc::StageSatWork
  /// and tv::TVResult; version 4 marks stage 2's case split on the trip
  /// count; version 5 the multiplier abstraction; version 6 the mask-idiom
  /// ite lifts in smt::TermTable; version 7 drops Outcome::Retries and
  /// renumbers svc::FailureKind (the client failure kinds are gone).
  static constexpr uint32_t SchemaVersion = 7;

  /// Opens (or creates) `<Dir>/journal.log`, replaying completed-task
  /// records into the in-memory index. Same degradation ladder as
  /// ResultStore: unreadable/incompatible logs become an empty journal,
  /// never an error.
  explicit BatchJournal(const std::string &Dir);

  BatchJournal(const BatchJournal &) = delete;
  BatchJournal &operator=(const BatchJournal &) = delete;

  const std::string &dir() const { return Dir; }

  /// True when the log is open for appending (replay works either way).
  bool ok() const { return Log.ok(); }

  /// Fetches the serialized Outcome of a completed task. \p Verify is the
  /// request identity string (svc builds it from the request's name and
  /// sources); a key hit with a different identity degrades to a miss —
  /// the same collision discipline as the result store.
  bool lookupDone(uint64_t Key, const std::string &Verify,
                  std::string &Payload);

  /// Appends a completed task's serialized Outcome. Idempotent per key:
  /// the first record wins (re-recording a replayed task is a no-op).
  void recordDone(uint64_t Key, const std::string &Verify,
                  const std::string &Payload);

  /// Forces buffered bytes to the OS (appends already flush per record).
  void flush();

  JournalStats stats() const;

private:
  struct DoneEntry {
    std::string Verify;
    std::string Payload;
  };

  std::string Dir;
  mutable std::mutex M;
  RecordLog Log; ///< journal.log; memory-only once writes fail.
  std::unordered_map<uint64_t, DoneEntry> Done;
  JournalStats Stats; ///< Index counters; the log keeps its own.
};

} // namespace store
} // namespace lv

#endif // LV_STORE_JOURNAL_H
