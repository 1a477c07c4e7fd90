//===- store/RecordLog.h - the append-only record log -----------*- C++ -*-===//
///
/// \file
/// The one implementation of the on-disk log behind ResultStore
/// (`records.log`) and BatchJournal (`journal.log`). The owners keep their
/// own in-memory indexes and decode their own record kinds; the log owns
/// the file and its recovery rules:
///
///   file   := header record*
///   header := FileMagic(u32) SchemaVersion(u32)
///             default configHash of ChecksumConfig, EquivConfig and
///             FsmConfig (u64 each)
///   record := RecordMagic(u32) payloadLen(u32) crc32(payload)(u32) payload
///
/// * **Open.** A missing or empty file becomes a fresh log, created via
///   temp file + atomic rename so a header is never partially visible. A
///   header that differs from the current build's (another format, schema
///   version or config layout) is set aside as `<file>.skipped` and
///   replaced — never trusted, never destroyed. Records then replay in
///   order through the owner's decoder; the first record whose frame, CRC
///   or decode fails ends the replay, and the file is truncated back to
///   the last good record (append-only: everything after a torn write is
///   suspect).
/// * **Append.** One framed record per call, flushed at once, so a kill
///   leaves at most one torn record. A failed write closes the file and
///   the log carries on memory-only (ok() false): losing the log costs
///   re-work, never a wrong answer.
///
/// Each salvage event is counted in LogStats and in the obs counters
/// `<prefix>.writes`, `.corrupt_skipped`, `.version_skipped`,
/// `.append_failed` and `.read_failed`.
///
/// Not thread-safe: owners call it under their own mutex.
///
//===----------------------------------------------------------------------===//

#ifndef LV_STORE_RECORDLOG_H
#define LV_STORE_RECORDLOG_H

#include "store/Framing.h"

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>

namespace lv {
namespace store {

/// Per-log counters (mirrored into StoreStats / JournalStats).
struct LogStats {
  uint64_t Writes = 0;         ///< Records appended this session.
  uint64_t CorruptSkipped = 0; ///< Damaged tails dropped on open.
  uint64_t VersionSkipped = 0; ///< Incompatible logs set aside on open.
  uint64_t AppendFailed = 0;   ///< Appends lost to I/O failure.
  uint64_t ReadFailed = 0;     ///< Opens aborted by read failure.
};

/// Fault injection, each polled once per candidate I/O; empty hooks never
/// fail.
struct LogFaults {
  /// The open reads nothing: the log starts memory-only and empty WITHOUT
  /// touching the file (a transient read failure must never clobber a
  /// good log with a fresh one).
  std::function<bool()> FailLoad;
  /// The append fails as if fwrite hit EIO, before a byte is written.
  std::function<bool()> FailAppend;
};

class RecordLog {
public:
  /// Decodes one CRC-checked payload into the owner's index; returns false
  /// when the payload is corrupt (the replay stops there).
  using Decoder = std::function<bool(framing::Rd &Payload)>;

  /// `<Dir>/<FileName>`, headed by \p FileMagic and \p SchemaVersion;
  /// \p CounterPrefix names the obs counters ("store", "journal").
  RecordLog(const std::string &Dir, const char *FileName, uint32_t FileMagic,
            uint32_t SchemaVersion, const char *CounterPrefix,
            LogFaults Faults = LogFaults());
  ~RecordLog();

  RecordLog(const RecordLog &) = delete;
  RecordLog &operator=(const RecordLog &) = delete;

  /// Creates the directory if needed and opens the log, replaying every
  /// intact record through \p Decode. Call once.
  void open(const Decoder &Decode);

  /// Appends one framed record and flushes it.
  void append(const std::string &Payload);

  /// Forces buffered bytes to the OS (appends already flush per record).
  void flush();

  /// True when the file is open for appending.
  bool ok() const { return File != nullptr; }

  const LogStats &stats() const { return Stats; }

private:
  void count(const char *Event);
  std::string currentHeader() const;
  void setAside();
  void openFresh();

  std::string Dir;
  std::string Path;
  uint32_t FileMagic;
  uint32_t SchemaVersion;
  std::string CounterPrefix;
  LogFaults Faults;
  std::FILE *File = nullptr; ///< Append handle; null when memory-only.
  LogStats Stats;
};

} // namespace store
} // namespace lv

#endif // LV_STORE_RECORDLOG_H
