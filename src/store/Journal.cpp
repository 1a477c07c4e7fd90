//===- store/Journal.cpp - crash-recovery batch journal ----------------------===//

#include "store/Journal.h"

#include "obs/Metrics.h"

using namespace lv;
using namespace lv::store;

namespace {

constexpr uint32_t FileMagic = 0x4C564A4E; // "LVJN"

/// The journal's one record kind. Kind 1 (the batch membership record of
/// schema version 1) is retired.
constexpr uint8_t KindTaskDone = 2;

} // namespace

BatchJournal::BatchJournal(const std::string &D)
    : Dir(D), Log(D, "journal.log", FileMagic, SchemaVersion, "journal") {
  Log.open([this](framing::Rd &R) {
    if (R.u8() != KindTaskDone)
      return false;
    uint64_t Key = R.u64();
    DoneEntry E;
    E.Verify = R.str();
    E.Payload = R.str();
    if (!R.done())
      return false;
    Done.emplace(Key, std::move(E));
    Stats.LoadedDone++;
    return true;
  });
}

bool BatchJournal::lookupDone(uint64_t Key, const std::string &Verify,
                              std::string &Payload) {
  std::lock_guard<std::mutex> L(M);
  auto It = Done.find(Key);
  if (It == Done.end() || It->second.Verify != Verify)
    return false;
  Payload = It->second.Payload;
  Stats.ReplayHits++;
  obs::counter("journal.replay_hits").inc();
  return true;
}

void BatchJournal::recordDone(uint64_t Key, const std::string &Verify,
                              const std::string &Payload) {
  std::lock_guard<std::mutex> L(M);
  auto Ins = Done.emplace(Key, DoneEntry{Verify, Payload});
  if (!Ins.second)
    return; // already journaled (replayed task or duplicate key)
  std::string Rec;
  framing::Wr W{Rec};
  W.u8(KindTaskDone);
  W.u64(Key);
  W.str(Verify);
  W.str(Payload);
  Log.append(Rec);
}

void BatchJournal::flush() {
  std::lock_guard<std::mutex> L(M);
  Log.flush();
}

JournalStats BatchJournal::stats() const {
  std::lock_guard<std::mutex> L(M);
  JournalStats S = Stats;
  const LogStats &LS = Log.stats();
  S.Writes = LS.Writes;
  S.CorruptSkipped = LS.CorruptSkipped;
  S.VersionSkipped = LS.VersionSkipped;
  S.AppendFailed = LS.AppendFailed;
  return S;
}
