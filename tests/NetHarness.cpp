//===- tests/NetHarness.cpp - Fault-injection protocol client -----------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "NetHarness.h"

#include "support/FdIo.h"

#include <algorithm>
#include <cerrno>

#include <poll.h>
#include <sys/socket.h>

using namespace antidote;
using namespace antidote::testharness;

NetRequest testharness::makeRequest(uint64_t Tag, uint32_t PoisoningBudget,
                                    std::vector<float> X,
                                    uint32_t DeadlineMillis) {
  NetRequest Request;
  Request.Tag = Tag;
  Request.PoisoningBudget = PoisoningBudget;
  Request.DeadlineMillis = DeadlineMillis;
  Request.X = std::move(X);
  return Request;
}

NetClient::NetClient(uint16_t Port) : Sock(connectTcpLoopback(Port)) {}

bool NetClient::send(const NetRequest &Request) {
  std::string Frame = encodeRequestFrame(Request);
  return sendRaw(Frame.data(), Frame.size());
}

bool NetClient::sendPartial(const NetRequest &Request, size_t Bytes) {
  std::string Frame = encodeRequestFrame(Request);
  return sendRaw(Frame.data(), std::min(Bytes, Frame.size()));
}

bool NetClient::sendRaw(const void *Data, size_t Size) {
  return sendFull(Sock.get(), Data, Size) == IoResult::Ok;
}

bool NetClient::recvResponse(NetResponse &Out, int TimeoutMillis) {
  for (;;) {
    if (std::optional<std::vector<uint8_t>> Payload = In.next()) {
      std::optional<NetResponse> Response =
          decodeResponsePayload(Payload->data(), Payload->size());
      if (!Response)
        return false;
      Out = *Response;
      return true;
    }
    pollfd Pfd{Sock.get(), POLLIN, 0};
    int Ready = ::poll(&Pfd, 1, TimeoutMillis);
    if (Ready <= 0)
      return false; // Timeout (or poll failure): the test's assertion.
    uint8_t Buf[4096];
    ssize_t N = ::recv(Sock.get(), Buf, sizeof(Buf), 0);
    if (N <= 0)
      return false; // EOF/reset before a complete response.
    if (!In.feed(Buf, static_cast<size_t>(N)))
      return false; // Corrupt response stream — server-side bug.
  }
}

bool NetClient::waitForClose(int TimeoutMillis) {
  for (;;) {
    pollfd Pfd{Sock.get(), POLLIN, 0};
    int Ready = ::poll(&Pfd, 1, TimeoutMillis);
    if (Ready <= 0)
      return false;
    uint8_t Buf[4096];
    ssize_t N = ::recv(Sock.get(), Buf, sizeof(Buf), 0);
    if (N == 0)
      return true;
    if (N < 0)
      return errno != EINTR && errno != EAGAIN; // Reset counts as closed.
  }
}

void NetClient::finishSending() { ::shutdown(Sock.get(), SHUT_WR); }
