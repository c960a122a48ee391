//===- serving/NetProtocol.cpp - Certificate-serving wire format --------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "serving/NetProtocol.h"

#include "support/ByteCodec.h"

#include <algorithm>

using namespace antidote;

namespace {

using Writer = codec::Writer<std::string>;
using codec::Reader;

/// One whole frame: the 8-byte header, then the payload \p WritePayload
/// appends.
template <typename PayloadFn>
std::string encodeFrame(uint32_t Magic, PayloadFn &&WritePayload) {
  std::string Payload;
  Writer PW(Payload);
  WritePayload(PW);
  std::string Frame;
  Frame.reserve(8 + Payload.size());
  Writer W(Frame);
  W.u32(Magic);
  W.u32(static_cast<uint32_t>(Payload.size()));
  Frame += Payload;
  return Frame;
}

void writeCertificate(Writer &W, const Certificate &Cert) {
  W.u8(static_cast<uint8_t>(Cert.Kind));
  W.u32(Cert.PoisoningBudget);
  W.u32(Cert.CertifiedRadius);
  W.u32(Cert.Depth);
  W.u8(static_cast<uint8_t>(Cert.Domain));
  W.u8(static_cast<uint8_t>(Cert.Threat));
  W.u32(Cert.ConcretePrediction);
  W.u8(Cert.DominatingClass ? 1 : 0);
  W.u32(Cert.DominatingClass ? *Cert.DominatingClass : 0);
  W.u64(Cert.NumTerminals);
  W.u64(Cert.PeakDisjuncts);
  W.u64(Cert.PeakStateBytes);
  W.u32(Cert.BestSplitCalls);
  W.f64(Cert.Seconds);
}

void readCertificate(Reader &R, Certificate &Cert) {
  Cert.Kind = R.enumU8(VerdictKind::Cancelled);
  Cert.PoisoningBudget = R.u32();
  Cert.CertifiedRadius = R.u32();
  Cert.Depth = R.u32();
  Cert.Domain = R.enumU8(AbstractDomainKind::DisjunctsCapped);
  Cert.Threat = R.enumU8(ThreatModelKind::LabelFlip);
  Cert.ConcretePrediction = R.u32();
  bool HasDominating = R.flag();
  uint32_t Dominating = R.u32();
  Cert.DominatingClass =
      HasDominating ? std::optional<unsigned>(Dominating) : std::nullopt;
  Cert.NumTerminals = R.u64();
  Cert.PeakDisjuncts = R.u64();
  Cert.PeakStateBytes = R.u64();
  Cert.BestSplitCalls = R.u32();
  Cert.Seconds = R.f64();
}

} // namespace

std::string antidote::encodeRequestFrame(const NetRequest &Request) {
  return encodeFrame(NetRequestMagic, [&](Writer &W) {
    W.u64(Request.Tag);
    W.u32(Request.PoisoningBudget);
    W.u32(Request.DeadlineMillis);
    W.u32(static_cast<uint32_t>(Request.X.size()));
    for (float V : Request.X)
      W.f32(V);
  });
}

std::string antidote::encodeResponseFrame(const NetResponse &Response) {
  return encodeFrame(NetResponseMagic, [&](Writer &W) {
    W.u64(Response.Tag);
    W.u8(static_cast<uint8_t>(Response.Status));
    switch (Response.Status) {
    case NetStatus::Ok:
      W.u8(static_cast<uint8_t>(Response.Path));
      writeCertificate(W, Response.Cert);
      break;
    case NetStatus::Shed:
      W.u8(static_cast<uint8_t>(Response.ShedReason));
      break;
    case NetStatus::Error:
      W.u8(static_cast<uint8_t>(Response.ErrorReason));
      break;
    }
  });
}

std::optional<NetRequest> antidote::decodeRequestPayload(const uint8_t *Data,
                                                         size_t Size) {
  Reader R(Data, Size);
  NetRequest Request;
  Request.Tag = R.u64();
  Request.PoisoningBudget = R.u32();
  Request.DeadlineMillis = R.u32();
  uint32_t NumFeatures = R.u32();
  if (!R.ok() || R.remaining() != NumFeatures * sizeof(float))
    return std::nullopt;
  Request.X.reserve(NumFeatures);
  for (uint32_t I = 0; I < NumFeatures; ++I)
    Request.X.push_back(R.f32());
  if (!R.exhausted())
    return std::nullopt;
  return Request;
}

std::optional<NetResponse>
antidote::decodeResponsePayload(const uint8_t *Data, size_t Size) {
  Reader R(Data, Size);
  NetResponse Response;
  Response.Tag = R.u64();
  Response.Status = R.enumU8(NetStatus::Error);
  switch (Response.Status) {
  case NetStatus::Ok:
    Response.Path = R.enumU8(NetServePath::ShedProbe);
    readCertificate(R, Response.Cert);
    break;
  case NetStatus::Shed:
    Response.ShedReason = R.enumU8(NetShedReason::Paced);
    break;
  case NetStatus::Error:
    Response.ErrorReason = R.enumU8(NetErrorReason::BadBudget);
    break;
  }
  if (!R.exhausted())
    return std::nullopt;
  return Response;
}

std::string
antidote::encodeJournalPollFrame(const ReplicationEndpoint::PollRequest &Poll) {
  return encodeFrame(NetJournalPollMagic, [&](Writer &W) {
    W.u64(Poll.Epoch);
    W.u64(Poll.Serial);
    W.u64(Poll.ScopeHi);
    W.u64(Poll.ScopeLo);
    W.u32(Poll.MaxRecords);
  });
}

std::string
antidote::encodeJournalDeltaFrame(const ReplicationEndpoint::Delta &Delta) {
  return encodeFrame(NetJournalDeltaMagic, [&](Writer &W) {
    W.u8(static_cast<uint8_t>(Delta.Status));
    W.u64(Delta.Epoch);
    W.u64(Delta.NextSerial);
    W.u64(Delta.HeadSerial);
    W.u32(static_cast<uint32_t>(Delta.Records.size()));
    for (const std::vector<uint8_t> &Record : Delta.Records) {
      W.u32(static_cast<uint32_t>(Record.size()));
      W.bytes(Record.data(), Record.size());
    }
  });
}

std::optional<ReplicationEndpoint::PollRequest>
antidote::decodeJournalPollPayload(const uint8_t *Data, size_t Size) {
  Reader R(Data, Size);
  ReplicationEndpoint::PollRequest Poll;
  Poll.Epoch = R.u64();
  Poll.Serial = R.u64();
  Poll.ScopeHi = R.u64();
  Poll.ScopeLo = R.u64();
  Poll.MaxRecords = R.u32();
  if (!R.exhausted())
    return std::nullopt;
  return Poll;
}

std::optional<ReplicationEndpoint::Delta>
antidote::decodeJournalDeltaPayload(const uint8_t *Data, size_t Size) {
  Reader R(Data, Size);
  ReplicationEndpoint::Delta Delta;
  Delta.Status = R.enumU8(ReplicationEndpoint::PollStatus::Unavailable);
  Delta.Epoch = R.u64();
  Delta.NextSerial = R.u64();
  Delta.HeadSerial = R.u64();
  uint32_t NumRecords = R.u32();
  if (!R.ok())
    return std::nullopt;
  Delta.Records.reserve(std::min<uint32_t>(NumRecords, 4096));
  for (uint32_t I = 0; I < NumRecords; ++I) {
    uint32_t Bytes = R.u32();
    const uint8_t *Start = R.skip(Bytes);
    if (!R.ok())
      return std::nullopt;
    Delta.Records.emplace_back(Start, Start + Bytes);
  }
  if (!R.exhausted())
    return std::nullopt;
  return Delta;
}

bool FrameReader::feed(const uint8_t *Data, size_t Size) {
  if (Corrupt)
    return false;
  Buffer.insert(Buffer.end(), Data, Data + Size);
  // Slice off every complete frame; whatever remains waits for more
  // bytes. An 8-byte header is enough to validate magic and length, so
  // garbage is detected long before a bogus "length" could make us
  // buffer unboundedly.
  size_t Pos = 0;
  while (Buffer.size() - Pos >= 8) {
    Reader Header(Buffer.data() + Pos, 8);
    uint32_t FrameMagic = Header.u32();
    uint32_t Length = Header.u32();
    if ((FrameMagic != Magic1 && (Magic2 == 0 || FrameMagic != Magic2)) ||
        Length > MaxBytes) {
      Corrupt = true;
      Buffer.clear();
      return false;
    }
    if (Buffer.size() - Pos - 8 < Length)
      break; // Torn frame: recoverable, wait for the rest.
    Frame F;
    F.Magic = FrameMagic;
    F.Payload.assign(Buffer.begin() + static_cast<ptrdiff_t>(Pos + 8),
                     Buffer.begin() +
                         static_cast<ptrdiff_t>(Pos + 8 + Length));
    Ready.push_back(std::move(F));
    Pos += 8 + Length;
  }
  Buffer.erase(Buffer.begin(), Buffer.begin() + static_cast<ptrdiff_t>(Pos));
  return true;
}

std::optional<std::vector<uint8_t>> FrameReader::next() {
  if (std::optional<Frame> F = nextFrame())
    return std::move(F->Payload);
  return std::nullopt;
}

std::optional<FrameReader::Frame> FrameReader::nextFrame() {
  if (Ready.empty())
    return std::nullopt;
  Frame Out = std::move(Ready.front());
  Ready.erase(Ready.begin());
  return Out;
}
