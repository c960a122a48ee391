//===- support/FdIo.cpp - Blocking full-transfer I/O --------------------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "support/FdIo.h"

#include <cerrno>

#include <sys/socket.h>
#include <unistd.h>

using namespace antidote;

namespace {

/// Calls `Step(Done)` — one syscall moving bytes from offset `Done` —
/// until \p Size bytes have moved.
template <typename StepFn>
IoResult transferFull(size_t Size, StepFn &&Step) {
  size_t Done = 0;
  while (Done < Size) {
    ssize_t N = Step(Done);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return IoResult::Error;
    }
    if (N == 0)
      return IoResult::Eof;
    Done += static_cast<size_t>(N);
  }
  return IoResult::Ok;
}

} // namespace

IoResult antidote::readFull(int Fd, void *Buf, size_t Size) {
  return transferFull(Size, [&](size_t Done) {
    return ::read(Fd, static_cast<char *>(Buf) + Done, Size - Done);
  });
}

IoResult antidote::preadFull(int Fd, void *Buf, size_t Size,
                             uint64_t Offset) {
  return transferFull(Size, [&](size_t Done) {
    return ::pread(Fd, static_cast<char *>(Buf) + Done, Size - Done,
                   static_cast<off_t>(Offset + Done));
  });
}

IoResult antidote::writeFull(int Fd, const void *Buf, size_t Size) {
  return transferFull(Size, [&](size_t Done) {
    return ::write(Fd, static_cast<const char *>(Buf) + Done, Size - Done);
  });
}

IoResult antidote::pwriteFull(int Fd, const void *Buf, size_t Size,
                              uint64_t Offset) {
  return transferFull(Size, [&](size_t Done) {
    return ::pwrite(Fd, static_cast<const char *>(Buf) + Done, Size - Done,
                    static_cast<off_t>(Offset + Done));
  });
}

IoResult antidote::sendFull(int Fd, const void *Buf, size_t Size) {
  return transferFull(Size, [&](size_t Done) {
    return ::send(Fd, static_cast<const char *>(Buf) + Done, Size - Done,
                  MSG_NOSIGNAL);
  });
}
