//===- serving/NetProtocol.h - Certificate-serving wire format -*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The length-prefixed binary wire protocol between `NetServer` and its
/// clients, and the incremental frame reassembler both sides use. The
/// format is deliberately dumb: fixed little-endian scalars, no varints,
/// no compression — every byte position is testable as a golden and a
/// torn read at *any* offset leaves the reader in a recoverable
/// "need more bytes" state, never a misparse. Every field is written and
/// read with the serving tier's one codec (support/ByteCodec.h), the
/// same one the disk store and journal use; blocking senders go through
/// support/FdIo.h's `sendFull`.
///
/// Frame layout (both directions):
///
///   u32 magic     'Q''T''N''A' (requests) / 'R''T''N''A' (responses),
///                 i.e. the bytes "ANTQ"/"ANTR" on the wire
///   u32 length    payload bytes that follow (bounded by MaxFrameBytes)
///   ...payload
///
/// Request payload:
///
///   u64 tag             client-chosen, echoed verbatim in the response
///                       (responses may complete out of order under
///                       mixed deadlines)
///   u32 poisoningBudget n of the ∆n(T) query
///   u32 deadlineMillis  client deadline from *server receipt*, queue
///                       wait included; 0 = none. Propagated into
///                       `ResourceLimits::TimeoutSeconds`, and a request
///                       that expires before dispatch answers
///                       `timeout` without verifying.
///   u32 numFeatures     must equal the training set's arity
///   f32 × numFeatures   query point (bit patterns, BitHash policy)
///
/// Response payload:
///
///   u64 tag
///   u8  status          0 Ok, 1 Shed, 2 Error
///   Ok:    u8 path (0 = verification path — fresh, cache, range or
///          slack served; 1 = admission-control store probe answered
///          while shedding), then the certificate encoding below
///   Shed:  u8 reason (0 = queue overload, 1 = per-client pacing).
///          Never carries a verdict — a shed is an explicit refusal,
///          not a fabricated answer.
///   Error: u8 reason (0 = feature-count mismatch, 1 = budget over
///          the training-set size)
///
/// Certificate encoding (every field of `Certificate`, so a served
/// answer is reconstructible bit-for-bit and the soundness property
/// tests can compare wire answers against fresh verification):
///
///   u8 kind, u32 poisoningBudget, u32 certifiedRadius, u32 depth,
///   u8 domain, u8 threat, u32 concretePrediction, u8 hasDominating,
///   u32 dominatingClass, u64 numTerminals, u64 peakDisjuncts,
///   u64 peakStateBytes, u32 bestSplitCalls, f64 seconds
///
/// Framing errors (wrong magic, length above the server's MaxFrameBytes,
/// truncated payload at EOF) are not recoverable within a connection —
/// the stream position is untrustworthy — so the policy at both ends is:
/// close the connection, keep the process. tests/NetServerTests.cpp pins
/// that a garbage header costs exactly one connection.
///
/// ## Replication frames
///
/// The same server socket multiplexes the pull-based store replication
/// protocol (serving/Replicator.h): a replica sends `JournalPoll` frames
/// (magic "ANTJ") carrying its (epoch, serial) cursor plus an optional
/// dataset-fingerprint scope, and the source answers with a
/// `JournalDelta` frame (magic "ANTD") — either the next batch of whole
/// serialized store records (bytes exactly as they sit in the source's
/// segments), or an `EpochReset` status telling the replica its epoch
/// is gone and it must restart from serial 0. The server tells query
/// frames from poll frames by magic alone (the dual-magic `FrameReader`
/// below), so one listen port serves both clients and replicas.
///
///   JournalPoll payload:   u64 epoch, u64 serial, u64 scopeHi,
///                          u64 scopeLo (both 0 = unscoped), u32
///                          maxRecords
///   JournalDelta payload:  u8 status (0 delta, 1 epoch-reset,
///                          2 unavailable), u64 epoch, u64 nextSerial,
///                          u64 headSerial, u32 numRecords, then per
///                          record u32 byteCount + the raw record
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_SERVING_NETPROTOCOL_H
#define ANTIDOTE_SERVING_NETPROTOCOL_H

#include "antidote/Certificate.h"
#include "serving/CertificateStore.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace antidote {

/// Wire magics, little-endian ("ANTQ"/"ANTR" as bytes on the wire).
constexpr uint32_t NetRequestMagic = 0x51544E41;  // 'A','N','T','Q'
constexpr uint32_t NetResponseMagic = 0x52544E41; // 'A','N','T','R'
/// Replication magics ("ANTJ" journal poll, "ANTD" journal delta).
constexpr uint32_t NetJournalPollMagic = 0x4A544E41;  // 'A','N','T','J'
constexpr uint32_t NetJournalDeltaMagic = 0x44544E41; // 'A','N','T','D'

/// Frames larger than this are a protocol violation (a frame holds one
/// query or one certificate; megabytes mean a desynced or hostile
/// peer). Servers may configure tighter.
constexpr uint32_t NetMaxFrameBytes = 1u << 20;

/// Delta frames carry a whole record batch (the source caps batches at
/// a fraction of this), so their reader accepts more than the one-query
/// bound above.
constexpr uint32_t NetMaxDeltaFrameBytes = 4u << 20;

/// Response status byte.
enum class NetStatus : uint8_t {
  Ok = 0,    ///< Payload carries a certificate.
  Shed = 1,  ///< Admission control refused; explicit, verdict-free.
  Error = 2, ///< Malformed-but-framed request (e.g. wrong arity).
};

/// Second byte of a Shed response.
enum class NetShedReason : uint8_t {
  Overload = 0, ///< Verification queue past the shed depth.
  Paced = 1,    ///< This client's token bucket is empty.
};

/// Second byte of an Error response.
enum class NetErrorReason : uint8_t {
  BadArity = 0,  ///< numFeatures does not match the training set.
  BadBudget = 1, ///< poisoningBudget exceeds the training-set size.
};

/// How an Ok response was produced (for tests and ops counters; both
/// paths are equally sound).
enum class NetServePath : uint8_t {
  Verified = 0,  ///< Through Verifier::verify (fresh / cache / range /
                 ///< slack — the normal admission path).
  ShedProbe = 1, ///< Store-only probe answered while shedding.
};

/// One parsed request frame.
struct NetRequest {
  uint64_t Tag = 0;
  uint32_t PoisoningBudget = 0;
  uint32_t DeadlineMillis = 0; ///< 0 = none.
  std::vector<float> X;
};

/// One parsed response frame.
struct NetResponse {
  uint64_t Tag = 0;
  NetStatus Status = NetStatus::Ok;
  NetServePath Path = NetServePath::Verified; ///< Ok only.
  NetShedReason ShedReason = NetShedReason::Overload; ///< Shed only.
  NetErrorReason ErrorReason = NetErrorReason::BadArity; ///< Error only.
  Certificate Cert; ///< Ok only.
};

/// Encodes a complete request/response frame (header included).
std::string encodeRequestFrame(const NetRequest &Request);
std::string encodeResponseFrame(const NetResponse &Response);

/// Decodes one frame *payload* (header already stripped and validated by
/// the FrameReader). nullopt on truncated/over-long payloads or invalid
/// enum bytes — the caller treats that like a framing error.
std::optional<NetRequest> decodeRequestPayload(const uint8_t *Data,
                                               size_t Size);
std::optional<NetResponse> decodeResponsePayload(const uint8_t *Data,
                                                 size_t Size);

/// Replication frames: the wire twins of `ReplicationEndpoint`'s
/// `PollRequest` and `Delta` (serving/CertificateStore.h).
std::string encodeJournalPollFrame(const ReplicationEndpoint::PollRequest &Poll);
std::string encodeJournalDeltaFrame(const ReplicationEndpoint::Delta &Delta);
std::optional<ReplicationEndpoint::PollRequest>
decodeJournalPollPayload(const uint8_t *Data, size_t Size);
std::optional<ReplicationEndpoint::Delta>
decodeJournalDeltaPayload(const uint8_t *Data, size_t Size);

/// Incremental frame reassembler for one connection/direction. Feed it
/// whatever recv returned — single bytes, half frames, three frames at
/// once — and take complete payloads out. Any framing violation parks it
/// in the Corrupt state permanently: the byte stream can no longer be
/// trusted, so the connection must be closed.
class FrameReader {
public:
  /// \p Magic is the expected direction magic; \p MaxFrameBytes bounds
  /// accepted payload lengths (0 = the protocol default).
  explicit FrameReader(uint32_t Magic, uint32_t MaxFrameBytes = 0)
      : Magic1(Magic), Magic2(0),
        MaxBytes(MaxFrameBytes ? MaxFrameBytes : NetMaxFrameBytes) {}

  /// Dual-magic reader for multiplexed streams: either magic is
  /// accepted, and `nextFrame` reports which one each frame carried —
  /// how the server tells a query ("ANTQ") from a journal poll
  /// ("ANTJ") on the same connection.
  FrameReader(uint32_t MagicA, uint32_t MagicB, uint32_t MaxFrameBytes)
      : Magic1(MagicA), Magic2(MagicB),
        MaxBytes(MaxFrameBytes ? MaxFrameBytes : NetMaxFrameBytes) {}

  /// Appends \p Size raw bytes. Returns false when the stream is (or
  /// just became) corrupt.
  bool feed(const uint8_t *Data, size_t Size);

  /// One reassembled frame: which magic it arrived under, and its
  /// payload.
  struct Frame {
    uint32_t Magic = 0;
    std::vector<uint8_t> Payload;
  };

  /// Pops the next complete frame payload, oldest first.
  std::optional<std::vector<uint8_t>> next();

  /// Like `next`, but keeps the frame's magic — required with the
  /// dual-magic constructor, where the payload type depends on it.
  std::optional<Frame> nextFrame();

  bool corrupt() const { return Corrupt; }

  /// True while a frame header or payload is partially buffered — the
  /// peer owes bytes. The slow-loris sweep reads this.
  bool midFrame() const { return !Corrupt && !Buffer.empty(); }

private:
  uint32_t Magic1;
  uint32_t Magic2; ///< 0 = single-magic mode.
  uint32_t MaxBytes;
  bool Corrupt = false;
  std::vector<uint8_t> Buffer; ///< Unconsumed stream bytes.
  std::vector<Frame> Ready;
};

} // namespace antidote

#endif // ANTIDOTE_SERVING_NETPROTOCOL_H
