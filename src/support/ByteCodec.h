//===- support/ByteCodec.h - Little-endian byte codec ----------*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one fixed-width little-endian codec every serving-tier format is
/// written and read with: the wire frames (serving/NetProtocol.h), the
/// disk segments (serving/DiskCertStore.h) and the replication journal
/// (serving/StoreJournal.h). Integers are explicitly little-endian
/// whatever the host; floats and doubles travel as their storage bits
/// (support/BitHash.h policy), so -0.0 and NaN payloads round-trip
/// bit-identically.
///
/// `Reader` is bounds-checked and its failure is sticky: an overrun (or
/// an out-of-range enum byte) fails the reader, every later read returns
/// zero, and the caller checks `ok()` once after the last field instead
/// of after every one.
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_SUPPORT_BYTECODEC_H
#define ANTIDOTE_SUPPORT_BYTECODEC_H

#include "support/BitHash.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace antidote {
namespace codec {

/// A fixed-capacity byte buffer a `Writer` appends to without touching
/// the heap — for encodes whose size is known up front.
template <size_t N>
class FixedBytes {
public:
  using value_type = uint8_t;

  void push_back(uint8_t B) {
    assert(Size < N && "FixedBytes overflow");
    Bytes[Size++] = B;
  }
  const uint8_t *data() const { return Bytes; }
  size_t size() const { return Size; }

private:
  uint8_t Bytes[N] = {};
  size_t Size = 0;
};

/// Appends little-endian scalars to \p Bytes: a `std::string` (wire
/// frames), a `std::vector<uint8_t>` (disk records) or a `FixedBytes`.
template <typename Bytes>
class Writer {
public:
  explicit Writer(Bytes &Out) : Out(Out) {}

  void u8(uint8_t V) {
    Out.push_back(static_cast<typename Bytes::value_type>(V));
  }
  void u32(uint32_t V) { le(V); }
  void u64(uint64_t V) { le(V); }
  void f32(float V) { le(floatBits(V)); }
  void f64(double V) { le(doubleBits(V)); }
  void bytes(const uint8_t *Data, size_t Size) {
    // Inserting the buffer's own element type takes the bulk-copy path.
    auto *P = reinterpret_cast<const typename Bytes::value_type *>(Data);
    Out.insert(Out.end(), P, P + Size);
  }

private:
  template <typename T>
  void le(T V) {
    for (size_t I = 0; I < sizeof(T); ++I)
      u8(static_cast<uint8_t>(V >> (8 * I)));
  }

  Bytes &Out;
};

/// Bounds-checked little-endian reads over one byte range.
class Reader {
public:
  Reader(const uint8_t *Data, size_t Size) : Data(Data), Size(Size) {}

  uint8_t u8() { return static_cast<uint8_t>(le<1>()); }
  uint32_t u32() { return static_cast<uint32_t>(le<4>()); }
  uint64_t u64() { return le<8>(); }
  float f32() {
    uint32_t Bits = u32();
    float V;
    std::memcpy(&V, &Bits, sizeof(V));
    return V;
  }
  double f64() {
    uint64_t Bits = u64();
    double V;
    std::memcpy(&V, &Bits, sizeof(V));
    return V;
  }

  /// One enum byte, range-checked: a byte above \p Last names no
  /// enumerator, so it fails the reader (and yields the zero value).
  template <typename Enum>
  Enum enumU8(Enum Last) {
    uint8_t B = u8();
    if (B > static_cast<uint8_t>(Last)) {
      fail();
      return Enum();
    }
    return static_cast<Enum>(B);
  }

  /// A boolean byte: 0 or 1, anything else fails the reader.
  bool flag() { return enumU8(true); }

  /// Steps over \p N bytes and returns where they start; nullptr (and a
  /// failed reader) when fewer remain.
  const uint8_t *skip(size_t N) {
    if (Size - Pos < N) {
      fail();
      return nullptr;
    }
    const uint8_t *Start = Data + Pos;
    Pos += N;
    return Start;
  }

  bool ok() const { return Ok; }
  /// Every byte consumed and no read failed.
  bool exhausted() const { return Ok && Pos == Size; }
  size_t remaining() const { return Size - Pos; }

private:
  void fail() {
    Ok = false;
    Pos = Size; // Every later read zero-fills.
  }

  template <size_t Width>
  uint64_t le() {
    if (Size - Pos < Width) {
      fail();
      return 0;
    }
    uint64_t V = 0;
    for (size_t I = 0; I < Width; ++I)
      V |= static_cast<uint64_t>(Data[Pos + I]) << (8 * I);
    Pos += Width;
    return V;
  }

  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
  bool Ok = true;
};

} // namespace codec
} // namespace antidote

#endif // ANTIDOTE_SUPPORT_BYTECODEC_H
