//===- store/Framing.h - shared on-disk framing primitives ------*- C++ -*-===//
///
/// \file
/// The byte-level building blocks of the on-disk formats: a little-endian
/// writer/reader pair, the CRC32 and the record frame constants. The one
/// record log (RecordLog.h, behind ResultStore and BatchJournal) frames
/// its records with them, and the service's Outcome wire format
/// (svc::serializeOutcome) reuses the writer/reader:
///
///   record := RecordMagic(u32) payloadLen(u32) crc32(payload)(u32) payload
///
/// RecordLog owns the file header, the frame walk, torn-tail truncation
/// and append-and-flush; each log type has its own *file* magic, the
/// *record* frame is shared.
///
//===----------------------------------------------------------------------===//

#ifndef LV_STORE_FRAMING_H
#define LV_STORE_FRAMING_H

#include "support/Rng.h"

#include <array>
#include <cstdint>
#include <cstring>
#include <string>

namespace lv {
namespace store {
namespace framing {

/// Frame constants shared by every record log.
constexpr uint32_t RecordMagic = 0x4C565243; // "LVRC"
constexpr size_t FrameBytes = 4 + 4 + 4;     // magic + payload len + CRC.

/// Table-driven CRC32 (reflected, poly 0xEDB88320) over the payload; the
/// standard zlib polynomial, implemented locally to keep the store
/// dependency-free.
inline uint32_t crc32(const uint8_t *P, size_t N) {
  static const auto Table = [] {
    std::array<uint32_t, 256> T{};
    for (uint32_t I = 0; I < 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K < 8; ++K)
        C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
      T[I] = C;
    }
    return T;
  }();
  uint32_t C = 0xFFFFFFFFu;
  for (size_t I = 0; I < N; ++I)
    C = Table[(C ^ P[I]) & 0xFF] ^ (C >> 8);
  return C ^ 0xFFFFFFFFu;
}

inline uint32_t crc32(const std::string &S) {
  return crc32(reinterpret_cast<const uint8_t *>(S.data()), S.size());
}

/// Little-endian append-only writer over a std::string (explicit shifts,
/// so the on-disk layout is host-endianness-independent).
struct Wr {
  std::string &Out;
  void u8(uint8_t V) { Out.push_back(static_cast<char>(V)); }
  void u32(uint32_t V) {
    for (int I = 0; I < 4; ++I)
      Out.push_back(static_cast<char>((V >> (8 * I)) & 0xFF));
  }
  void u64(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      Out.push_back(static_cast<char>((V >> (8 * I)) & 0xFF));
  }
  void i32(int32_t V) { u32(static_cast<uint32_t>(V)); }
  void i64(int64_t V) { u64(static_cast<uint64_t>(V)); }
  void d(double V) { u64(bitsOfDouble(V)); }
  void str(const std::string &S) {
    u32(static_cast<uint32_t>(S.size()));
    Out.append(S);
  }
};

/// Bounds-checked reader; any short read or range violation latches Fail
/// (the caller treats a failed parse as corruption, never as data).
struct Rd {
  const uint8_t *P;
  const uint8_t *End;
  bool Fail = false;

  explicit Rd(const std::string &S)
      : P(reinterpret_cast<const uint8_t *>(S.data())), End(P + S.size()) {}
  Rd(const uint8_t *Begin, size_t N) : P(Begin), End(Begin + N) {}

  bool need(size_t N) {
    if (Fail || static_cast<size_t>(End - P) < N) {
      Fail = true;
      return false;
    }
    return true;
  }
  bool done() const { return !Fail && P == End; }

  uint8_t u8() {
    if (!need(1))
      return 0;
    return *P++;
  }
  uint32_t u32() {
    if (!need(4))
      return 0;
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I)
      V |= static_cast<uint32_t>(P[I]) << (8 * I);
    P += 4;
    return V;
  }
  uint64_t u64() {
    if (!need(8))
      return 0;
    uint64_t V = 0;
    for (int I = 0; I < 8; ++I)
      V |= static_cast<uint64_t>(P[I]) << (8 * I);
    P += 8;
    return V;
  }
  int32_t i32() { return static_cast<int32_t>(u32()); }
  int64_t i64() { return static_cast<int64_t>(u64()); }
  double d() {
    uint64_t U = u64();
    double V;
    std::memcpy(&V, &U, sizeof(V));
    return V;
  }
  std::string str() {
    uint32_t N = u32();
    if (!need(N))
      return std::string();
    std::string S(reinterpret_cast<const char *>(P), N);
    P += N;
    return S;
  }
};

} // namespace framing
} // namespace store
} // namespace lv

#endif // LV_STORE_FRAMING_H
