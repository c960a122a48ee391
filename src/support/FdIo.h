//===- support/FdIo.h - Blocking full-transfer I/O -------------*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one blocking "transfer all of it" loop the serving tier's files
/// and sockets go through: each helper retries EINTR and short counts
/// until \p Size bytes moved, and reports how it stopped.
///
///  - `Ok`: every byte transferred.
///  - `Eof`: the call returned 0 before the end — a file shorter than
///    asked for, a closed peer, or a device that accepts no more bytes.
///    Callers that care (the disk store's `Gone` vs `Transient` read
///    split) tell it apart from an error; a write never spins on it.
///  - `Error`: the call failed; `errno` is the call's own.
///
/// Event-loop paths that want partial, non-blocking transfers
/// (serving/NetServer.cpp, the replication receive loop) use the
/// syscalls directly.
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_SUPPORT_FDIO_H
#define ANTIDOTE_SUPPORT_FDIO_H

#include <cstddef>
#include <cstdint>

namespace antidote {

enum class IoResult : uint8_t { Ok, Eof, Error };

IoResult readFull(int Fd, void *Buf, size_t Size);
IoResult preadFull(int Fd, void *Buf, size_t Size, uint64_t Offset);
IoResult writeFull(int Fd, const void *Buf, size_t Size);
IoResult pwriteFull(int Fd, const void *Buf, size_t Size, uint64_t Offset);

/// `send` with `MSG_NOSIGNAL`: a peer that closed yields `Error`
/// (EPIPE), never a SIGPIPE.
IoResult sendFull(int Fd, const void *Buf, size_t Size);

} // namespace antidote

#endif // ANTIDOTE_SUPPORT_FDIO_H
