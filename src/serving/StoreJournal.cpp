//===- serving/StoreJournal.cpp - Replication journal -------------------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "serving/StoreJournal.h"

#include "support/ByteCodec.h"
#include "support/FdIo.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

using namespace antidote;

namespace {

constexpr uint32_t JournalMagic = 0x4A544341; // "ACTJ" little-endian.

using HeaderLine = codec::FixedBytes<StoreJournal::HeaderBytes>;
using EntryLine = codec::FixedBytes<StoreJournal::EntryBytes>;

HeaderLine encodeHeader(uint64_t Epoch, uint64_t Generation) {
  HeaderLine Line;
  codec::Writer<HeaderLine> W(Line);
  W.u32(JournalMagic);
  W.u32(StoreJournal::FormatVersion);
  W.u64(Epoch);
  W.u64(Generation);
  return Line;
}

EntryLine encodeEntry(const StoreJournal::Entry &E) {
  EntryLine Line;
  codec::Writer<EntryLine> W(Line);
  W.u32(E.Segment);
  W.u32(E.RecordBytes);
  W.u64(E.Offset);
  W.u64(E.Checksum);
  return Line;
}

/// Reads \p Fd's header; false when unreadable or not a current-format
/// journal.
bool readHeader(int Fd, uint64_t &Epoch, uint64_t &Generation) {
  uint8_t Head[StoreJournal::HeaderBytes];
  if (preadFull(Fd, Head, sizeof(Head), 0) != IoResult::Ok)
    return false;
  codec::Reader R(Head, sizeof(Head));
  uint32_t Magic = R.u32();
  uint32_t Version = R.u32();
  Epoch = R.u64();
  Generation = R.u64();
  return Magic == JournalMagic && Version == StoreJournal::FormatVersion;
}

/// Appends entries [\p From, \p To) of \p Fd's journal to \p Out, in
/// one read.
bool readEntries(int Fd, uint64_t From, uint64_t To,
                 std::vector<StoreJournal::Entry> &Out) {
  std::vector<uint8_t> Bytes((To - From) * StoreJournal::EntryBytes);
  if (preadFull(Fd, Bytes.data(), Bytes.size(),
                StoreJournal::HeaderBytes + From * StoreJournal::EntryBytes) !=
      IoResult::Ok)
    return false;
  codec::Reader R(Bytes.data(), Bytes.size());
  for (uint64_t I = From; I < To; ++I) {
    StoreJournal::Entry E;
    E.Segment = R.u32();
    E.RecordBytes = R.u32();
    E.Offset = R.u64();
    E.Checksum = R.u64();
    Out.push_back(E);
  }
  return true;
}

} // namespace

StoreJournal::~StoreJournal() {
  if (Fd >= 0)
    ::close(Fd);
}

bool StoreJournal::open(const std::string &Dir, bool WantWritable,
                        std::string &Error) {
  Path = Dir + "/journal.antj";
  Writable = WantWritable;
  Valid = false;
  Epoch = 0;
  Generation = 0;
  Entries.clear();
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }

  int Flags = Writable ? (O_RDWR | O_CREAT | O_CLOEXEC) : (O_RDONLY | O_CLOEXEC);
  Fd = ::open(Path.c_str(), Flags, 0644);
  if (Fd < 0) {
    // A read-only opener of a store that never journaled is not an
    // error: the store serves lookups fine, it just cannot act as a
    // replication source until a writer creates the journal.
    if (!Writable && errno == ENOENT) {
      Error.clear();
      return true;
    }
    Error = "cannot open journal '" + Path + "': " + std::strerror(errno);
    return false;
  }

  std::string LoadError;
  if (loadFile(LoadError))
    return true;

  if (!Writable) {
    // Unreadable journal, read-only handle: degrade to "no journal".
    Valid = false;
    Error.clear();
    return true;
  }

  // Writable and unparseable (fresh file lands here too: zero bytes is
  // not a valid header): initialize a new epoch-1 journal. The caller
  // reconciles the record list in afterwards; a *rebuild* over an old
  // journal instead goes through reset() with epoch+1, which the caller
  // drives because only it knows the old epoch survived peekHeader.
  Epoch = 1;
  Generation = 1;
  Entries.clear();
  if (::ftruncate(Fd, 0) != 0 || !writeHeaderLocked()) {
    Error = "cannot initialize journal '" + Path + "': " + std::strerror(errno);
    return false;
  }
  Valid = true;
  return true;
}

bool StoreJournal::loadFile(std::string &Error) {
  off_t End = ::lseek(Fd, 0, SEEK_END);
  if (End < 0) {
    Error = "journal seek failed";
    return false;
  }
  uint64_t Size = static_cast<uint64_t>(End);
  if (Size < HeaderBytes) {
    Error = "journal too short";
    return false;
  }
  if (!readHeader(Fd, Epoch, Generation)) {
    Error = "journal header unreadable or of another format";
    return false;
  }

  uint64_t Body = Size - HeaderBytes;
  uint64_t Whole = Body / EntryBytes;
  if (Body % EntryBytes != 0) {
    // Torn entry tail — the journal twin of the append segment's torn
    // record. Writable handles repair in place (the caller holds the
    // store flock); read-only handles just ignore the fragment.
    if (Writable &&
        ::ftruncate(Fd, static_cast<off_t>(HeaderBytes + Whole * EntryBytes)) !=
            0) {
      Error = "journal tail repair failed";
      return false;
    }
  }

  Entries.clear();
  if (!readEntries(Fd, 0, Whole, Entries)) {
    Error = "journal entries unreadable";
    return false;
  }
  Valid = true;
  return true;
}

bool StoreJournal::writeHeaderLocked() {
  HeaderLine Head = encodeHeader(Epoch, Generation);
  return pwriteFull(Fd, Head.data(), Head.size(), 0) == IoResult::Ok;
}

bool StoreJournal::append(const Entry &E) {
  uint64_t Index = Entries.size();
  Entries.push_back(E);
  ++Generation;
  if (!Writable || Fd < 0 || !Valid)
    return false;
  EntryLine Line = encodeEntry(E);
  // Entry first, then the generation bump: a peeker that sees the new
  // generation is guaranteed to find the entry it advertises.
  bool Ok = pwriteFull(Fd, Line.data(), Line.size(),
                       HeaderBytes + Index * EntryBytes) == IoResult::Ok;
  Ok = writeHeaderLocked() && Ok;
  return Ok;
}

bool StoreJournal::reset(uint64_t NewEpoch, std::vector<Entry> NewEntries) {
  Epoch = NewEpoch;
  ++Generation;
  Entries = std::move(NewEntries);
  if (!Writable || Fd < 0)
    return false;

  // Rewrite through a temp file + rename: a crash mid-rewrite must not
  // leave a journal whose serials misnumber the surviving records.
  std::string Tmp = Path + ".tmp";
  int TmpFd = ::open(Tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC,
                     0644);
  if (TmpFd < 0)
    return false;
  std::vector<uint8_t> Bytes;
  Bytes.reserve(HeaderBytes + Entries.size() * EntryBytes);
  codec::Writer<std::vector<uint8_t>> W(Bytes);
  HeaderLine Head = encodeHeader(Epoch, Generation);
  W.bytes(Head.data(), Head.size());
  for (const Entry &E : Entries) {
    EntryLine Line = encodeEntry(E);
    W.bytes(Line.data(), Line.size());
  }
  bool Ok = writeFull(TmpFd, Bytes.data(), Bytes.size()) == IoResult::Ok;
  Ok = ::fsync(TmpFd) == 0 && Ok;
  ::close(TmpFd);
  if (!Ok || ::rename(Tmp.c_str(), Path.c_str()) != 0) {
    ::unlink(Tmp.c_str());
    return false;
  }
  // Swap the open descriptor to the renamed file so appends land there.
  int NewFd = ::open(Path.c_str(), O_RDWR | O_CLOEXEC);
  if (NewFd < 0)
    return false;
  ::close(Fd);
  Fd = NewFd;
  Valid = true;
  return true;
}

StoreJournal::Header StoreJournal::peekHeader() const {
  // Read via the *path*, not the cached fd: a sibling's reset() renames
  // a fresh file over the journal, and the cached descriptor would keep
  // reading the unlinked inode's stale (and never again changing)
  // header, hiding the sibling's mutation forever.
  Header H;
  if (Path.empty())
    return H;
  int PeekFd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (PeekFd < 0)
    return H;
  H.Ok = readHeader(PeekFd, H.Epoch, H.Generation);
  ::close(PeekFd);
  return H;
}

bool StoreJournal::refresh(uint64_t &FirstNewSerial) {
  FirstNewSerial = 1;
  if (Path.empty())
    return false;
  // Chase the current inode unconditionally — cheap, and correct across
  // a sibling's rename-over reset.
  int NewFd = ::open(Path.c_str(),
                     Writable ? (O_RDWR | O_CLOEXEC) : (O_RDONLY | O_CLOEXEC));
  if (NewFd < 0)
    return false;
  if (Fd >= 0)
    ::close(Fd);
  Fd = NewFd;
  Header H = peekHeader();
  if (!H.Ok)
    return false;

  off_t End = ::lseek(Fd, 0, SEEK_END);
  if (End < 0 || static_cast<uint64_t>(End) < HeaderBytes)
    return false;
  uint64_t Whole = (static_cast<uint64_t>(End) - HeaderBytes) / EntryBytes;

  uint64_t From = 0;
  if (H.Epoch == Epoch && Whole >= Entries.size()) {
    From = Entries.size(); // Incremental: only the growth.
  } else {
    Entries.clear(); // Epoch moved or the file shrank: full reload.
  }
  FirstNewSerial = From + 1;

  if (!readEntries(Fd, From, Whole, Entries))
    return false;
  Epoch = H.Epoch;
  Generation = H.Generation;
  Valid = true;
  return true;
}
