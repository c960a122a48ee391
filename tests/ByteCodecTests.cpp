//===- tests/ByteCodecTests.cpp - Byte codec and full-transfer I/O ------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
// The two primitives under every serving-tier format: support/ByteCodec.h
// (little-endian layout, the sticky zero-filling Reader, range-checked
// enum bytes) and support/FdIo.h (the Ok / Eof / Error split, and no
// SIGPIPE from a closed socket peer). The formats built on them are
// pinned byte for byte in NetServerTests and DiskCertStoreTests.
//
//===----------------------------------------------------------------------===//

#include "support/ByteCodec.h"
#include "support/FdIo.h"

#include "abstract/AbstractDTrace.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <fcntl.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace antidote;

namespace {

/// Writes one of every scalar kind through \p W.
template <typename Bytes>
void writeSample(codec::Writer<Bytes> &W) {
  W.u8(0xAB);
  W.u32(0x11223344);
  W.u64(0x0102030405060708ULL);
  W.f32(-0.0f);
  W.f64(0.125);
}

} // namespace

TEST(ByteCodecTest, WriterIsLittleEndianForEveryBuffer) {
  const uint8_t Expected[] = {
      0xAB,                                           // u8
      0x44, 0x33, 0x22, 0x11,                         // u32
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // u64
      0x00, 0x00, 0x00, 0x80,                         // -0.0f bits
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xC0, 0x3F, // 0.125
  };
  std::string Str;
  codec::Writer<std::string> SW(Str);
  writeSample(SW);
  std::vector<uint8_t> Vec;
  codec::Writer<std::vector<uint8_t>> VW(Vec);
  writeSample(VW);
  codec::FixedBytes<sizeof(Expected)> Fixed;
  codec::Writer<codec::FixedBytes<sizeof(Expected)>> FW(Fixed);
  writeSample(FW);

  ASSERT_EQ(Str.size(), sizeof(Expected));
  ASSERT_EQ(Vec.size(), sizeof(Expected));
  ASSERT_EQ(Fixed.size(), sizeof(Expected));
  for (size_t I = 0; I < sizeof(Expected); ++I) {
    EXPECT_EQ(static_cast<uint8_t>(Str[I]), Expected[I]) << "byte " << I;
    EXPECT_EQ(Vec[I], Expected[I]) << "byte " << I;
    EXPECT_EQ(Fixed.data()[I], Expected[I]) << "byte " << I;
  }

  codec::Reader R(Vec.data(), Vec.size());
  EXPECT_EQ(R.u8(), 0xAB);
  EXPECT_EQ(R.u32(), 0x11223344u);
  EXPECT_EQ(R.u64(), 0x0102030405060708ULL);
  float NegZero = R.f32();
  EXPECT_EQ(NegZero, 0.0f);
  EXPECT_TRUE(std::signbit(NegZero));
  EXPECT_EQ(R.f64(), 0.125);
  EXPECT_TRUE(R.exhausted());
}

TEST(ByteCodecTest, NaNPayloadRoundTripsBitExactly) {
  const uint64_t Bits = 0x7FF8000000C0FFEEULL;
  double NaN;
  std::memcpy(&NaN, &Bits, sizeof(NaN));
  std::vector<uint8_t> Buf;
  codec::Writer<std::vector<uint8_t>> W(Buf);
  W.f64(NaN);
  codec::Reader R(Buf.data(), Buf.size());
  EXPECT_EQ(doubleBits(R.f64()), Bits);
  EXPECT_TRUE(R.exhausted());
}

TEST(ByteCodecTest, ReaderOverrunIsStickyAndZeroFills) {
  const uint8_t Bytes[] = {0x01, 0x02, 0x03, 0x04, 0x05};
  codec::Reader R(Bytes, sizeof(Bytes));
  EXPECT_EQ(R.u32(), 0x04030201u);
  EXPECT_TRUE(R.ok());
  EXPECT_EQ(R.remaining(), 1u);

  // Four bytes asked, one left: the read fails and yields zero...
  EXPECT_EQ(R.u32(), 0u);
  EXPECT_FALSE(R.ok());
  // ...and so does every read after it, even one the leftover byte
  // could have satisfied.
  EXPECT_EQ(R.u8(), 0u);
  EXPECT_EQ(R.u64(), 0u);
  EXPECT_EQ(R.f64(), 0.0);
  EXPECT_EQ(R.remaining(), 0u);
  EXPECT_FALSE(R.ok());
  EXPECT_FALSE(R.exhausted());
}

TEST(ByteCodecTest, EnumBytesAboveTheLastEnumeratorFailTheReader) {
  const uint8_t Bytes[] = {0x02, 0x01, 0x03, 0x05};
  codec::Reader R(Bytes, sizeof(Bytes));
  EXPECT_EQ(R.enumU8(AbstractDomainKind::DisjunctsCapped),
            AbstractDomainKind::DisjunctsCapped);
  EXPECT_TRUE(R.flag());
  EXPECT_TRUE(R.ok());
  // 3 names no AbstractDomainKind: zero value, failed reader, and the
  // failure is sticky like an overrun's.
  EXPECT_EQ(R.enumU8(AbstractDomainKind::DisjunctsCapped),
            AbstractDomainKind::Box);
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.u8(), 0u);

  const uint8_t Flag[] = {0x02};
  codec::Reader F(Flag, sizeof(Flag));
  EXPECT_FALSE(F.flag());
  EXPECT_FALSE(F.ok());
}

TEST(ByteCodecTest, SkipReturnsTheSkippedSpan) {
  const uint8_t Bytes[] = {0x01, 0x02, 0x03};
  codec::Reader R(Bytes, sizeof(Bytes));
  EXPECT_EQ(R.u8(), 0x01);
  EXPECT_EQ(R.skip(2), Bytes + 1);
  EXPECT_TRUE(R.exhausted());
  EXPECT_EQ(R.skip(1), nullptr);
  EXPECT_FALSE(R.ok());
}

//===----------------------------------------------------------------------===//
// support/FdIo.h
//===----------------------------------------------------------------------===//

namespace {

/// A temporary file holding \p Size bytes 0, 1, 2, ...; removed on
/// destruction.
class TempFile {
public:
  explicit TempFile(size_t Size) {
    char Template[] = "/tmp/antidote-fdio-test-XXXXXX";
    Fd = ::mkstemp(Template);
    EXPECT_GE(Fd, 0);
    Path = Template;
    std::vector<uint8_t> Bytes(Size);
    for (size_t I = 0; I < Size; ++I)
      Bytes[I] = static_cast<uint8_t>(I);
    EXPECT_EQ(writeFull(Fd, Bytes.data(), Bytes.size()), IoResult::Ok);
  }
  ~TempFile() {
    ::close(Fd);
    ::unlink(Path.c_str());
  }
  int fd() const { return Fd; }

private:
  int Fd = -1;
  std::string Path;
};

} // namespace

TEST(FdIoTest, PreadFullOnAShortFileReturnsEof) {
  TempFile File(10);
  uint8_t Buf[16] = {};
  EXPECT_EQ(preadFull(File.fd(), Buf, 4, 2), IoResult::Ok);
  EXPECT_EQ(Buf[0], 2);
  EXPECT_EQ(Buf[3], 5);
  // Two bytes remain past offset 8: a short count, then end of file.
  EXPECT_EQ(preadFull(File.fd(), Buf, 4, 8), IoResult::Eof);
  EXPECT_EQ(preadFull(File.fd(), Buf, sizeof(Buf), 0), IoResult::Eof);
  EXPECT_EQ(preadFull(File.fd(), Buf, 1, 10), IoResult::Eof);
}

TEST(FdIoTest, WritesAndReadsRoundTripAndBadFdsAreErrors) {
  TempFile File(0);
  const uint8_t Data[] = {9, 8, 7, 6};
  ASSERT_EQ(pwriteFull(File.fd(), Data, sizeof(Data), 3), IoResult::Ok);
  uint8_t Back[4] = {};
  ASSERT_EQ(preadFull(File.fd(), Back, sizeof(Back), 3), IoResult::Ok);
  EXPECT_EQ(std::memcmp(Back, Data, sizeof(Data)), 0);
  ASSERT_EQ(::lseek(File.fd(), 3, SEEK_SET), 3);
  ASSERT_EQ(readFull(File.fd(), Back, sizeof(Back)), IoResult::Ok);
  EXPECT_EQ(readFull(File.fd(), Back, 1), IoResult::Eof);

  errno = 0;
  EXPECT_EQ(preadFull(-1, Back, 1, 0), IoResult::Error);
  EXPECT_EQ(errno, EBADF);
  errno = 0;
  EXPECT_EQ(writeFull(-1, Data, 1), IoResult::Error);
  EXPECT_EQ(errno, EBADF);
}

TEST(FdIoTest, SendFullToAClosedPeerIsAnErrorNotASigpipe) {
  int Pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Pair), 0);
  ::close(Pair[1]);

  // Block SIGPIPE so that, were one raised, it would sit pending where
  // this test can see it instead of killing the process.
  sigset_t Pipe, Old;
  sigemptyset(&Pipe);
  sigaddset(&Pipe, SIGPIPE);
  ASSERT_EQ(::pthread_sigmask(SIG_BLOCK, &Pipe, &Old), 0);

  const char Data[] = "certificate";
  errno = 0;
  EXPECT_EQ(sendFull(Pair[0], Data, sizeof(Data)), IoResult::Error);
  EXPECT_EQ(errno, EPIPE);

  sigset_t Pending;
  sigemptyset(&Pending);
  ASSERT_EQ(::sigpending(&Pending), 0);
  bool Raised = sigismember(&Pending, SIGPIPE) == 1;
  EXPECT_FALSE(Raised);
  if (Raised) {
    int Sig = 0;
    ::sigwait(&Pipe, &Sig); // Consume it before unblocking.
  }
  ::pthread_sigmask(SIG_SETMASK, &Old, nullptr);
  ::close(Pair[0]);
}
