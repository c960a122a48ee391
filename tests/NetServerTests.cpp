//===- tests/NetServerTests.cpp - Socket serving tier tests -------------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
// The network tier end to end, driven by the fault-injection harness
// (tests/NetHarness.h): wire-format goldens, torn frames at every
// offset, garbage headers costing exactly one connection, slow-loris
// clients that cannot stall their neighbours, mid-verify disconnects
// releasing queue slots, and deadline expiry answering Timeout without
// verifying. Every wait is bounded; the TSan/ASan CI jobs run this
// suite unchanged.
//
//===----------------------------------------------------------------------===//

#include "serving/NetServer.h"

#include "NetHarness.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <memory>
#include <thread>

using namespace antidote;
using namespace antidote::testharness;
using namespace antidote::testutil;

namespace {

std::vector<float> point(float X) { return std::vector<float>{X}; }

/// Spin-waits (bounded) for \p Cond — the loop/worker threads only
/// need to be observed, never nudged.
template <typename Fn> bool eventually(Fn Cond, int TimeoutMillis = 30000) {
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(TimeoutMillis);
  while (!Cond()) {
    if (std::chrono::steady_clock::now() > Deadline)
      return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// One server stack on an ephemeral port: figure-2 dataset, cache on,
/// the GateStore as backing tier so tests can pin verifications.
struct ServerStack {
  Dataset Train = figure2Dataset();
  GateStore Gate;
  std::unique_ptr<CertServer> Server;
  std::unique_ptr<NetServer> Net;

  explicit ServerStack(NetServerConfig NetConfig = NetServerConfig(),
                       unsigned Jobs = 2) {
    CertServerConfig Config;
    Config.Query.Depth = 2;
    Config.Query.Domain = AbstractDomainKind::Disjuncts;
    Config.Query.Limits.TimeoutSeconds = 30.0;
    Config.Jobs = Jobs;
    Config.Store = &Gate;
    Server = std::make_unique<CertServer>(Train, Config);
    NetConfig.Port = 0;
    Net = std::make_unique<NetServer>(*Server, NetConfig);
    std::string Error;
    if (!Net->start(Error))
      ADD_FAILURE() << "NetServer start: " << Error;
  }

  ~ServerStack() {
    Gate.open(); // Shutdown drains; a closed gate would deadlock it.
    Net->stop();
  }

  uint16_t port() const { return Net->port(); }

  Certificate fresh(float X, uint32_t N) {
    VerifierConfig Direct;
    Direct.Depth = 2;
    Direct.Domain = AbstractDomainKind::Disjuncts;
    Direct.Limits.TimeoutSeconds = 30.0;
    const float Q[] = {X};
    return Server->verifier().verify(Q, N, Direct);
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Wire-format goldens (no sockets): every byte position is pinned, so a
// codec change that would break deployed clients breaks these first.
//===----------------------------------------------------------------------===//

TEST(NetProtocolTest, RequestFrameGolden) {
  NetRequest Request;
  Request.Tag = 0x1122334455667788ULL;
  Request.PoisoningBudget = 3;
  Request.DeadlineMillis = 250;
  Request.X = {1.5f, -0.0f};
  std::string Frame = encodeRequestFrame(Request);

  const uint8_t Expected[] = {
      'A', 'N', 'T', 'Q',                             // magic
      0x1C, 0x00, 0x00, 0x00,                         // length = 28
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, // tag
      0x03, 0x00, 0x00, 0x00,                         // budget
      0xFA, 0x00, 0x00, 0x00,                         // deadline 250
      0x02, 0x00, 0x00, 0x00,                         // numFeatures
      0x00, 0x00, 0xC0, 0x3F,                         // 1.5f
      0x00, 0x00, 0x00, 0x80,                         // -0.0f (bit pattern)
  };
  ASSERT_EQ(Frame.size(), sizeof(Expected));
  for (size_t I = 0; I < sizeof(Expected); ++I)
    EXPECT_EQ(static_cast<uint8_t>(Frame[I]), Expected[I]) << "byte " << I;

  std::optional<NetRequest> Back =
      decodeRequestPayload(reinterpret_cast<const uint8_t *>(Frame.data()) + 8,
                           Frame.size() - 8);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->Tag, Request.Tag);
  EXPECT_EQ(Back->PoisoningBudget, 3u);
  EXPECT_EQ(Back->DeadlineMillis, 250u);
  ASSERT_EQ(Back->X.size(), 2u);
  EXPECT_EQ(Back->X[0], 1.5f);
  EXPECT_TRUE(std::signbit(Back->X[1])); // -0.0 survives bit-exactly.
}

TEST(NetProtocolTest, ShedResponseFrameGolden) {
  NetResponse Response;
  Response.Tag = 7;
  Response.Status = NetStatus::Shed;
  Response.ShedReason = NetShedReason::Paced;
  std::string Frame = encodeResponseFrame(Response);

  const uint8_t Expected[] = {
      'A',  'N',  'T',  'R',                          // magic
      0x0A, 0x00, 0x00, 0x00,                         // length = 10
      0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // tag
      0x01,                                           // status = Shed
      0x01,                                           // reason = Paced
  };
  ASSERT_EQ(Frame.size(), sizeof(Expected));
  for (size_t I = 0; I < sizeof(Expected); ++I)
    EXPECT_EQ(static_cast<uint8_t>(Frame[I]), Expected[I]) << "byte " << I;
}

TEST(NetProtocolTest, OkResponseFrameGolden) {
  // Every certificate field set to a distinct multi-byte value, so a
  // reordered, resized or byte-swapped field moves at least one byte.
  NetResponse Response;
  Response.Tag = 0x0102030405060708ULL;
  Response.Status = NetStatus::Ok;
  Response.Path = NetServePath::ShedProbe;
  Response.Cert.Kind = VerdictKind::ResourceLimit;
  Response.Cert.PoisoningBudget = 0x105;
  Response.Cert.CertifiedRadius = 0x209;
  Response.Cert.Depth = 3;
  Response.Cert.Domain = AbstractDomainKind::DisjunctsCapped;
  Response.Cert.Threat = ThreatModelKind::LabelFlip;
  Response.Cert.ConcretePrediction = 4;
  Response.Cert.DominatingClass = 6;
  Response.Cert.NumTerminals = 0x0A0B0C0D0EULL;
  Response.Cert.PeakDisjuncts = 0x10001;
  Response.Cert.PeakStateBytes = 0x1122334455667788ULL;
  Response.Cert.BestSplitCalls = 0xABCDEF;
  Response.Cert.Seconds = 0.125;
  std::string Frame = encodeResponseFrame(Response);

  const uint8_t Expected[] = {
      'A',  'N',  'T',  'R',                          // magic
      0x46, 0x00, 0x00, 0x00,                         // length = 70
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // tag
      0x00,                                           // status = Ok
      0x01,                                           // path = ShedProbe
      0x03,                                           // kind = ResourceLimit
      0x05, 0x01, 0x00, 0x00,                         // poisoningBudget
      0x09, 0x02, 0x00, 0x00,                         // certifiedRadius
      0x03, 0x00, 0x00, 0x00,                         // depth
      0x02,                                           // domain
      0x01,                                           // threat
      0x04, 0x00, 0x00, 0x00,                         // concretePrediction
      0x01,                                           // hasDominating
      0x06, 0x00, 0x00, 0x00,                         // dominatingClass
      0x0E, 0x0D, 0x0C, 0x0B, 0x0A, 0x00, 0x00, 0x00, // numTerminals
      0x01, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, // peakDisjuncts
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, // peakStateBytes
      0xEF, 0xCD, 0xAB, 0x00,                         // bestSplitCalls
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xC0, 0x3F, // seconds = 0.125
  };
  ASSERT_EQ(Frame.size(), sizeof(Expected));
  for (size_t I = 0; I < sizeof(Expected); ++I)
    EXPECT_EQ(static_cast<uint8_t>(Frame[I]), Expected[I]) << "byte " << I;

  std::optional<NetResponse> Back =
      decodeResponsePayload(Expected + 8, sizeof(Expected) - 8);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(encodeResponseFrame(*Back), Frame);
}

TEST(NetProtocolTest, ResponseCertificateRoundTripsEveryField) {
  NetResponse Response;
  Response.Tag = 42;
  Response.Status = NetStatus::Ok;
  Response.Path = NetServePath::ShedProbe;
  Response.Cert.Kind = VerdictKind::Robust;
  Response.Cert.PoisoningBudget = 5;
  Response.Cert.CertifiedRadius = 9;
  Response.Cert.Depth = 2;
  Response.Cert.Domain = AbstractDomainKind::DisjunctsCapped;
  Response.Cert.Threat = ThreatModelKind::LabelFlip;
  Response.Cert.ConcretePrediction = 1;
  Response.Cert.DominatingClass = 1;
  Response.Cert.NumTerminals = 12345678901ULL;
  Response.Cert.PeakDisjuncts = 777;
  Response.Cert.PeakStateBytes = 1 << 20;
  Response.Cert.BestSplitCalls = 4242;
  Response.Cert.Seconds = 0.125;

  std::string Frame = encodeResponseFrame(Response);
  std::optional<NetResponse> Back = decodeResponsePayload(
      reinterpret_cast<const uint8_t *>(Frame.data()) + 8, Frame.size() - 8);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->Tag, 42u);
  EXPECT_EQ(Back->Status, NetStatus::Ok);
  EXPECT_EQ(Back->Path, NetServePath::ShedProbe);
  EXPECT_EQ(Back->Cert.Kind, VerdictKind::Robust);
  EXPECT_EQ(Back->Cert.PoisoningBudget, 5u);
  EXPECT_EQ(Back->Cert.CertifiedRadius, 9u);
  EXPECT_EQ(Back->Cert.Domain, AbstractDomainKind::DisjunctsCapped);
  EXPECT_EQ(Back->Cert.Threat, ThreatModelKind::LabelFlip);
  EXPECT_EQ(Back->Cert.DominatingClass, std::optional<unsigned>(1));
  EXPECT_EQ(Back->Cert.NumTerminals, 12345678901ULL);
  EXPECT_EQ(Back->Cert.PeakDisjuncts, 777u);
  EXPECT_EQ(Back->Cert.PeakStateBytes, uint64_t(1) << 20);
  EXPECT_EQ(Back->Cert.BestSplitCalls, 4242u);
  EXPECT_EQ(Back->Cert.Seconds, 0.125);
}

TEST(NetProtocolTest, FrameReaderReassemblesAtEveryTearOffset) {
  NetRequest Request;
  Request.Tag = 9;
  Request.PoisoningBudget = 2;
  Request.X = {3.25f};
  std::string Frame = encodeRequestFrame(Request);

  // Cut the frame at every possible offset; both halves must reassemble
  // into exactly one identical payload, with midFrame() signalling the
  // torn state in between.
  for (size_t Cut = 0; Cut <= Frame.size(); ++Cut) {
    FrameReader Reader(NetRequestMagic);
    const uint8_t *Bytes = reinterpret_cast<const uint8_t *>(Frame.data());
    ASSERT_TRUE(Reader.feed(Bytes, Cut));
    if (Cut > 0 && Cut < Frame.size()) {
      EXPECT_TRUE(Reader.midFrame()) << "cut " << Cut;
    }
    ASSERT_TRUE(Reader.feed(Bytes + Cut, Frame.size() - Cut));
    std::optional<std::vector<uint8_t>> Payload = Reader.next();
    ASSERT_TRUE(Payload.has_value()) << "cut " << Cut;
    EXPECT_FALSE(Reader.next().has_value());
    std::optional<NetRequest> Back =
        decodeRequestPayload(Payload->data(), Payload->size());
    ASSERT_TRUE(Back.has_value());
    EXPECT_EQ(Back->Tag, 9u);
  }
}

TEST(NetProtocolTest, FrameReaderRejectsGarbageAndOversize) {
  FrameReader Garbage(NetRequestMagic);
  const uint8_t Junk[] = {'J', 'U', 'N', 'K', 0, 0, 0, 0};
  EXPECT_FALSE(Garbage.feed(Junk, sizeof(Junk)));
  EXPECT_TRUE(Garbage.corrupt());
  // Permanently: even valid bytes are refused afterwards.
  NetRequest Request;
  Request.X = {1.0f};
  std::string Frame = encodeRequestFrame(Request);
  EXPECT_FALSE(Garbage.feed(
      reinterpret_cast<const uint8_t *>(Frame.data()), Frame.size()));

  FrameReader Oversize(NetRequestMagic);
  const uint8_t Huge[] = {'A', 'N', 'T', 'Q', 0xFF, 0xFF, 0xFF, 0x7F};
  EXPECT_FALSE(Oversize.feed(Huge, sizeof(Huge)));
  EXPECT_TRUE(Oversize.corrupt());
}

//===----------------------------------------------------------------------===//
// Live-socket behavior.
//===----------------------------------------------------------------------===//

TEST(NetServerTest, RoundTripMatchesFreshVerifier) {
  ServerStack Stack;
  NetClient Client(Stack.port());
  ASSERT_TRUE(Client.connected());

  const float Queries[] = {0.5f, 2.5f, 9.5f, 12.5f, 9.5f};
  for (uint64_t I = 0; I < 5; ++I)
    ASSERT_TRUE(Client.send(makeRequest(I, 2, point(Queries[I]))));

  for (uint64_t I = 0; I < 5; ++I) {
    NetResponse Response;
    ASSERT_TRUE(Client.recvResponse(Response));
    ASSERT_EQ(Response.Status, NetStatus::Ok);
    EXPECT_EQ(Response.Path, NetServePath::Verified);
    ASSERT_LT(Response.Tag, 5u);
    Certificate Expected =
        Stack.fresh(Queries[Response.Tag], /*N=*/2);
    EXPECT_EQ(Response.Cert.Kind, Expected.Kind) << "tag " << Response.Tag;
    EXPECT_EQ(Response.Cert.ConcretePrediction,
              Expected.ConcretePrediction);
    EXPECT_EQ(Response.Cert.PoisoningBudget, 2u);
  }
}

TEST(NetServerTest, TornFrameAcrossWritesIsStillServed) {
  ServerStack Stack;
  NetClient Client(Stack.port());
  ASSERT_TRUE(Client.connected());

  NetRequest Request = makeRequest(1, 2, point(9.5f));
  std::string Frame = encodeRequestFrame(Request);
  // 5 bytes tears inside the header itself; wait until the server has
  // at least accepted us (so the reads really are separate events),
  // then send the rest.
  ASSERT_TRUE(Client.sendPartial(Request, 5));
  ASSERT_TRUE(eventually(
      [&] { return Stack.Net->stats().Accepted == 1; }));
  ASSERT_TRUE(Client.sendRaw(Frame.data() + 5, Frame.size() - 5));

  NetResponse Response;
  ASSERT_TRUE(Client.recvResponse(Response));
  EXPECT_EQ(Response.Status, NetStatus::Ok);
  EXPECT_EQ(Response.Tag, 1u);
}

TEST(NetServerTest, GarbageHeaderCostsExactlyOneConnection) {
  ServerStack Stack;
  NetClient Bad(Stack.port());
  ASSERT_TRUE(Bad.connected());
  const char Junk[] = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_TRUE(Bad.sendRaw(Junk, sizeof(Junk) - 1));
  EXPECT_TRUE(Bad.waitForClose());

  // The process and every other connection live on.
  NetClient Good(Stack.port());
  ASSERT_TRUE(Good.connected());
  ASSERT_TRUE(Good.send(makeRequest(5, 2, point(2.5f))));
  NetResponse Response;
  ASSERT_TRUE(Good.recvResponse(Response));
  EXPECT_EQ(Response.Status, NetStatus::Ok);
  EXPECT_EQ(Stack.Net->stats().FramingErrors, 1u);
}

TEST(NetServerTest, UndecodablePayloadClosesConnection) {
  ServerStack Stack;
  NetClient Client(Stack.port());
  ASSERT_TRUE(Client.connected());

  // Valid header, honest length — but the payload claims 100 features
  // and carries two. The decoder must refuse and the server must close.
  std::string Payload;
  auto U32 = [&](uint32_t V) {
    for (int I = 0; I < 4; ++I)
      Payload.push_back(static_cast<char>((V >> (8 * I)) & 0xFF));
  };
  U32(0);
  U32(0);   // tag (u64 as two words)
  U32(1);   // budget
  U32(0);   // deadline
  U32(100); // numFeatures (the lie)
  U32(0);
  U32(0); // only two floats actually follow
  std::string Frame = "ANTQ";
  uint32_t Len = static_cast<uint32_t>(Payload.size());
  for (int I = 0; I < 4; ++I)
    Frame.push_back(static_cast<char>((Len >> (8 * I)) & 0xFF));
  Frame += Payload;
  ASSERT_TRUE(Client.sendRaw(Frame.data(), Frame.size()));
  EXPECT_TRUE(Client.waitForClose());
  EXPECT_EQ(Stack.Net->stats().FramingErrors, 1u);
}

TEST(NetServerTest, SlowLorisCannotStallOtherClients) {
  ServerStack Stack;
  NetClient Loris(Stack.port());
  ASSERT_TRUE(Loris.connected());
  NetRequest Drip = makeRequest(77, 2, point(9.5f));
  ASSERT_TRUE(Loris.sendPartial(Drip, 3)); // Three bytes, then silence.

  NetClient Busy(Stack.port());
  ASSERT_TRUE(Busy.connected());
  for (uint64_t I = 0; I < 5; ++I) {
    ASSERT_TRUE(Busy.send(makeRequest(I, 1 + (I % 3), point(0.5f + I))));
    NetResponse Response;
    ASSERT_TRUE(Busy.recvResponse(Response)) << "round trip " << I
                                             << " stalled behind a loris";
    EXPECT_EQ(Response.Status, NetStatus::Ok);
    EXPECT_EQ(Response.Tag, I);
  }

  // The loris connection is still open (no timeout policy — it holds
  // only its own buffer); finishing the frame gets a real answer.
  std::string Frame = encodeRequestFrame(Drip);
  ASSERT_TRUE(Loris.sendRaw(Frame.data() + 3, Frame.size() - 3));
  NetResponse Late;
  ASSERT_TRUE(Loris.recvResponse(Late));
  EXPECT_EQ(Late.Status, NetStatus::Ok);
  EXPECT_EQ(Late.Tag, 77u);
}

TEST(NetServerTest, DisconnectMidVerifyReleasesQueueSlotsAndCancels) {
  ServerStack Stack(NetServerConfig(), /*Jobs=*/1);
  Stack.Gate.close();

  NetClient Doomed(Stack.port());
  ASSERT_TRUE(Doomed.connected());
  // Three unique (uncached) queries: the first reaches the gate inside
  // the store write-through, the other two sit in the queue.
  for (uint64_t I = 0; I < 3; ++I)
    ASSERT_TRUE(Doomed.send(makeRequest(I, 3, point(20.0f + I))));
  ASSERT_TRUE(Stack.Gate.waitForEntered(1));
  ASSERT_TRUE(eventually(
      [&] { return Stack.Server->pendingRequests() == 3; }));

  // The client vanishes mid-flight. The two queued requests must free
  // their slots promptly — with the gate still closed, nothing else can
  // shrink the count — and the in-flight one is token-cancelled.
  Doomed.close();
  EXPECT_TRUE(eventually(
      [&] { return Stack.Server->pendingRequests() == 1; }))
      << "queued requests of a dead client still hold queue slots";
  EXPECT_TRUE(eventually(
      [&] { return Stack.Net->stats().Cancelled == 3; }));

  // The server is fully usable afterwards.
  Stack.Gate.open();
  NetClient Alive(Stack.port());
  ASSERT_TRUE(Alive.connected());
  ASSERT_TRUE(Alive.send(makeRequest(9, 2, point(9.5f))));
  NetResponse Response;
  ASSERT_TRUE(Alive.recvResponse(Response));
  EXPECT_EQ(Response.Status, NetStatus::Ok);
}

TEST(NetServerTest, ExpiredDeadlineAnswersTimeoutWithoutVerifying) {
  ServerStack Stack(NetServerConfig(), /*Jobs=*/1);
  Stack.Gate.close();

  NetClient Client(Stack.port());
  ASSERT_TRUE(Client.connected());
  // A blocker occupies the one worker, then a 50ms-deadline request
  // queues behind it for well over 50ms.
  ASSERT_TRUE(Client.send(makeRequest(0, 3, point(30.0f))));
  ASSERT_TRUE(Stack.Gate.waitForEntered(1));
  ASSERT_TRUE(Client.send(
      makeRequest(1, 3, point(31.0f), /*DeadlineMillis=*/50)));
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  Stack.Gate.open();

  for (int I = 0; I < 2; ++I) {
    NetResponse Response;
    ASSERT_TRUE(Client.recvResponse(Response));
    ASSERT_EQ(Response.Status, NetStatus::Ok);
    if (Response.Tag == 1) {
      // Expired while queued: Timeout, claiming nothing — never a
      // fabricated verdict, never a verification for a dead deadline.
      EXPECT_EQ(Response.Cert.Kind, VerdictKind::Timeout);
      EXPECT_EQ(Response.Cert.PoisoningBudget, 3u);
    }
  }
}

TEST(NetServerTest, BadArityAndBadBudgetAnswerErrorAndConnectionSurvives) {
  ServerStack Stack;
  NetClient Client(Stack.port());
  ASSERT_TRUE(Client.connected());

  // Figure-2 has 1 feature and 13 rows: two features is BadArity, a
  // budget of 14 is BadBudget — both honest frames, both answered (not
  // closed), and the connection keeps serving.
  ASSERT_TRUE(Client.send(makeRequest(1, 2, {1.0f, 2.0f})));
  ASSERT_TRUE(Client.send(makeRequest(2, 14, point(9.5f))));
  ASSERT_TRUE(Client.send(makeRequest(3, 2, point(9.5f))));

  NetResponse First, Second, Third;
  ASSERT_TRUE(Client.recvResponse(First));
  ASSERT_TRUE(Client.recvResponse(Second));
  ASSERT_TRUE(Client.recvResponse(Third));
  EXPECT_EQ(First.Status, NetStatus::Error);
  EXPECT_EQ(First.ErrorReason, NetErrorReason::BadArity);
  EXPECT_EQ(Second.Status, NetStatus::Error);
  EXPECT_EQ(Second.ErrorReason, NetErrorReason::BadBudget);
  EXPECT_EQ(Third.Status, NetStatus::Ok);
  EXPECT_EQ(Stack.Net->stats().BadArity, 2u);
  EXPECT_EQ(Stack.Net->stats().FramingErrors, 0u);
}

TEST(NetServerTest, ConcurrentClientsEachGetTheirOwnAnswers) {
  ServerStack Stack;
  constexpr int NumClients = 6;
  constexpr uint64_t PerClient = 4;

  std::vector<std::unique_ptr<NetClient>> Clients;
  for (int C = 0; C < NumClients; ++C) {
    Clients.push_back(std::make_unique<NetClient>(Stack.port()));
    ASSERT_TRUE(Clients.back()->connected());
  }
  // Interleave the sends across clients so the loop really multiplexes.
  for (uint64_t I = 0; I < PerClient; ++I)
    for (int C = 0; C < NumClients; ++C) {
      float X = 0.5f + static_cast<float>((C * 7 + I * 3) % 14);
      uint64_t Tag = static_cast<uint64_t>(C) * 100 + I;
      ASSERT_TRUE(
          Clients[C]->send(makeRequest(Tag, 1 + (I % 3), point(X))));
    }

  for (int C = 0; C < NumClients; ++C)
    for (uint64_t I = 0; I < PerClient; ++I) {
      NetResponse Response;
      ASSERT_TRUE(Clients[C]->recvResponse(Response));
      ASSERT_EQ(Response.Status, NetStatus::Ok);
      // Tags are namespaced per client: an answer crossing connections
      // would show up immediately here.
      EXPECT_EQ(Response.Tag / 100, static_cast<uint64_t>(C));
      uint64_t Seq = Response.Tag % 100;
      float X = 0.5f + static_cast<float>((C * 7 + Seq * 3) % 14);
      Certificate Expected =
          Stack.fresh(X, 1 + static_cast<uint32_t>(Seq % 3));
      EXPECT_EQ(Response.Cert.Kind, Expected.Kind);
      EXPECT_EQ(Response.Cert.ConcretePrediction,
                Expected.ConcretePrediction);
    }
}

TEST(NetServerTest, MaxClientsRefusesTheExtraConnection) {
  NetServerConfig NetConfig;
  NetConfig.MaxClients = 2;
  ServerStack Stack(NetConfig);

  NetClient A(Stack.port()), B(Stack.port());
  ASSERT_TRUE(A.connected() && B.connected());
  // Ensure both are admitted before the third knocks.
  ASSERT_TRUE(A.send(makeRequest(1, 2, point(9.5f))));
  ASSERT_TRUE(B.send(makeRequest(2, 2, point(9.5f))));
  NetResponse Ra, Rb;
  ASSERT_TRUE(A.recvResponse(Ra));
  ASSERT_TRUE(B.recvResponse(Rb));

  NetClient C(Stack.port());
  ASSERT_TRUE(C.connected()); // TCP accept succeeds...
  EXPECT_TRUE(C.waitForClose()); // ...and the server closes immediately.
  EXPECT_EQ(Stack.Net->stats().RefusedClients, 1u);

  // The admitted pair keeps working.
  ASSERT_TRUE(A.send(makeRequest(3, 2, point(0.5f))));
  NetResponse Again;
  ASSERT_TRUE(A.recvResponse(Again));
  EXPECT_EQ(Again.Status, NetStatus::Ok);
}
