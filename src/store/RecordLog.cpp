//===- store/RecordLog.cpp - the append-only record log -----------------------===//

#include "store/RecordLog.h"

#include "agents/Fsm.h"
#include "core/Equivalence.h"
#include "interp/Checksum.h"
#include "obs/Metrics.h"

#include <filesystem>
#include <system_error>

using namespace lv;
using namespace lv::store;

namespace fs = std::filesystem;

using framing::crc32;
using framing::FrameBytes;
using framing::Rd;
using framing::RecordMagic;
using framing::Wr;

RecordLog::RecordLog(const std::string &D, const char *FileName,
                     uint32_t Magic, uint32_t Version,
                     const char *Prefix, LogFaults F)
    : Dir(D), Path(D + "/" + FileName), FileMagic(Magic),
      SchemaVersion(Version), CounterPrefix(Prefix),
      Faults(std::move(F)) {}

RecordLog::~RecordLog() {
  if (File)
    std::fclose(File);
}

void RecordLog::count(const char *Event) {
  obs::counter(CounterPrefix + "." + Event).inc();
}

/// Magic + schema version + the three default configHash() goldens
/// (pinned in test_svc.cpp). Any change to a config layout or hash scheme
/// changes them, so an incompatible log is detected without reading a
/// single record.
std::string RecordLog::currentHeader() const {
  std::string Out;
  Wr W{Out};
  W.u32(FileMagic);
  W.u32(SchemaVersion);
  W.u64(interp::ChecksumConfig().configHash());
  W.u64(core::EquivConfig().configHash());
  W.u64(agents::FsmConfig().configHash());
  return Out;
}

/// Renames the incompatible log aside (never deletes data a different
/// build may still want).
void RecordLog::setAside() {
  std::error_code EC;
  fs::rename(Path, Path + ".skipped", EC);
  if (EC)
    fs::remove(Path, EC); // rename failed (e.g. target busy): drop it
  Stats.VersionSkipped++;
  count("version_skipped");
}

/// Temp file + atomic rename: a crash between the two steps leaves either
/// no log (the next open recreates it) or a complete header.
void RecordLog::openFresh() {
  std::string Tmp = Path + ".tmp";
  std::FILE *F = std::fopen(Tmp.c_str(), "wb");
  if (!F)
    return;
  std::string H = currentHeader();
  size_t Written = std::fwrite(H.data(), 1, H.size(), F);
  std::fclose(F);
  if (Written != H.size())
    return;
  std::error_code EC;
  fs::rename(Tmp, Path, EC);
  if (EC)
    return;
  File = std::fopen(Path.c_str(), "ab");
}

/// Reads the whole regular file at \p Path into \p Out; false on any
/// failure (not a regular file, open, seek/tell, or a short read).
static bool readWhole(const std::string &Path, std::string &Out) {
  std::error_code EC;
  if (!fs::is_regular_file(Path, EC))
    return false;
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return false;
  long Size = std::fseek(F, 0, SEEK_END) == 0 ? std::ftell(F) : -1;
  bool Ok = Size >= 0 && std::fseek(F, 0, SEEK_SET) == 0;
  if (Ok && Size > 0) {
    Out.resize(static_cast<size_t>(Size));
    Ok = std::fread(&Out[0], 1, Out.size(), F) == Out.size();
  }
  std::fclose(F);
  return Ok;
}

void RecordLog::open(const Decoder &Decode) {
  std::error_code EC;
  fs::create_directories(Dir, EC);

  // An existing log that cannot be read is left alone: memory-only, like
  // the FailLoad hook. Only a missing (or empty) log gets a fresh header.
  std::string Bytes;
  if ((Faults.FailLoad && Faults.FailLoad()) ||
      (fs::exists(Path, EC) && !readWhole(Path, Bytes))) {
    Stats.ReadFailed++;
    count("read_failed");
    return;
  }

  if (Bytes.empty()) {
    openFresh();
    return;
  }
  const std::string Header = currentHeader();
  if (Bytes.compare(0, Header.size(), Header) != 0) {
    setAside();
    openFresh();
    return;
  }

  size_t Off = Header.size();
  size_t LastGood = Off;
  while (Off < Bytes.size()) {
    Rd Frame(reinterpret_cast<const uint8_t *>(Bytes.data()) + Off,
             Bytes.size() - Off);
    if (Frame.u32() != RecordMagic)
      break;
    uint32_t Len = Frame.u32();
    uint32_t Crc = Frame.u32();
    if (Frame.Fail || !Frame.need(Len))
      break;
    if (crc32(Frame.P, Len) != Crc)
      break;
    Rd Payload(Frame.P, Len);
    if (!Decode(Payload))
      break; // CRC passed but the payload did not decode: corruption too.
    Off += FrameBytes + Len;
    LastGood = Off;
  }
  if (LastGood < Bytes.size()) {
    // Damaged suffix: truncate back so the next append lands on a clean
    // tail.
    Stats.CorruptSkipped++;
    count("corrupt_skipped");
    fs::resize_file(Path, LastGood, EC);
  }
  File = std::fopen(Path.c_str(), "ab");
}

void RecordLog::append(const std::string &Payload) {
  if (!File)
    return;
  std::string Frame;
  Wr W{Frame};
  W.u32(RecordMagic);
  W.u32(static_cast<uint32_t>(Payload.size()));
  W.u32(crc32(Payload));
  Frame += Payload;
  // An injected failure short-circuits before fwrite, so nothing lands in
  // the log (a simulated EIO must not leave real bytes behind).
  if ((Faults.FailAppend && Faults.FailAppend()) ||
      std::fwrite(Frame.data(), 1, Frame.size(), File) != Frame.size()) {
    std::fclose(File);
    File = nullptr;
    Stats.AppendFailed++;
    count("append_failed");
    return;
  }
  std::fflush(File);
  Stats.Writes++;
  count("writes");
}

void RecordLog::flush() {
  if (File)
    std::fflush(File);
}
