//===- serving/DiskCertStore.cpp - Disk-backed certificate store --------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "serving/DiskCertStore.h"

#include "support/ByteCodec.h"
#include "support/FdIo.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <set>

#include <dirent.h>
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace antidote;

namespace {

// Segment header: "ACST" magic + format version, 8 bytes.
constexpr uint32_t SegmentMagic = 0x54534341u; // "ACST" little-endian.
constexpr uint32_t RecordMagic = 0x54524543u;  // "CERT" little-endian.
constexpr size_t SegmentHeaderBytes = 8;
constexpr size_t RecordHeaderBytes = 16; // magic + payload size + checksum.
/// Sanity bound on one record's payload: a query would need ~60M
/// features to exceed it, so anything larger is corruption, not data.
constexpr uint32_t MaxPayloadBytes = 1u << 28;

/// FNV-1a 64 over the payload — torn-write detection, not a MAC (the
/// threat model poisons training rows, not the store directory).
uint64_t fnv1a64(const uint8_t *Data, size_t Size) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (size_t I = 0; I < Size; ++I) {
    H ^= Data[I];
    H *= 0x100000001b3ull;
  }
  return H;
}

using codec::Reader;
using RecordWriter = codec::Writer<std::vector<uint8_t>>;

/// Only deterministic verdicts may be persisted (same discipline as the
/// RAM tier); `Verifier` already filters on the write path, and
/// `readPayload` applies the same whitelist on the read path, so the
/// two sides can never disagree about what belongs in a store.
bool isPersistableVerdict(VerdictKind Kind) {
  return Kind == VerdictKind::Robust || Kind == VerdictKind::Unknown ||
         Kind == VerdictKind::ResourceLimit;
}

void writePayload(RecordWriter &W, const StoreKey &K,
                  const Certificate &Cert) {
  // Key first (so the index rebuild never touches certificate fields),
  // certificate after; see the header comment for the field meanings.
  W.u64(K.Data.Hi);
  W.u64(K.Data.Lo);
  W.u32(K.PoisoningBudget);
  W.u32(K.Depth);
  W.u8(static_cast<uint8_t>(K.Domain));
  W.u8(static_cast<uint8_t>(K.Cprob));
  W.u8(static_cast<uint8_t>(K.Gini));
  // FormatVersion 3: the threat model partitions keys (and hence the
  // range indexes) per model.
  W.u8(static_cast<uint8_t>(K.Threat));
  W.u64(K.DisjunctCap);
  W.f64(K.TimeoutSeconds);
  W.u64(K.MaxDisjuncts);
  W.u64(K.MaxStateBytes);
  W.u32(static_cast<uint32_t>(K.Query.size()));
  for (float V : K.Query)
    W.f32(V);

  W.u8(static_cast<uint8_t>(Cert.Kind));
  W.u32(Cert.PoisoningBudget);
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
  // FormatVersion 2: the proof radius the range index serves from.
  W.u32(Cert.CertifiedRadius);
}

bool readPayload(const uint8_t *Payload, size_t PayloadBytes, StoreKey &K,
                 Certificate &Cert) {
  Reader R(Payload, PayloadBytes);
  K.Data.Hi = R.u64();
  K.Data.Lo = R.u64();
  K.PoisoningBudget = R.u32();
  K.Depth = R.u32();
  K.Domain = R.enumU8(AbstractDomainKind::DisjunctsCapped);
  K.Cprob = R.enumU8(CprobTransformerKind::NaiveInterval);
  K.Gini = R.enumU8(GiniLiftingKind::NaturalLifting);
  K.Threat = R.enumU8(ThreatModelKind::LabelFlip);
  K.DisjunctCap = static_cast<size_t>(R.u64());
  K.TimeoutSeconds = R.f64();
  K.MaxDisjuncts = static_cast<size_t>(R.u64());
  K.MaxStateBytes = R.u64();
  uint32_t NumFeatures = R.u32();
  if (!R.ok() || NumFeatures > R.remaining() / sizeof(float))
    return false;
  K.Query.resize(NumFeatures);
  for (uint32_t I = 0; I < NumFeatures; ++I)
    K.Query[I] = R.f32();

  Cert.Kind = R.enumU8(VerdictKind::Cancelled);
  Cert.PoisoningBudget = R.u32();
  Cert.Depth = R.u32();
  Cert.Domain = R.enumU8(AbstractDomainKind::DisjunctsCapped);
  Cert.Threat = R.enumU8(ThreatModelKind::LabelFlip);
  Cert.ConcretePrediction = R.u32();
  bool HasDominating = R.flag();
  uint32_t Dominating = R.u32();
  Cert.DominatingClass =
      HasDominating ? std::optional<unsigned>(Dominating) : std::nullopt;
  Cert.NumTerminals = static_cast<size_t>(R.u64());
  Cert.PeakDisjuncts = static_cast<size_t>(R.u64());
  Cert.PeakStateBytes = R.u64();
  Cert.BestSplitCalls = R.u32();
  Cert.Seconds = R.f64();
  Cert.CertifiedRadius = R.u32();
  // The whole payload must be consumed (trailing bytes mean a format
  // skew the version header should have caught), every enum byte must
  // name an enumerator (the same check the wire decoder applies), and
  // only verdicts the write side may persist are accepted back — the
  // read-side twin of `isPersistableVerdict`, so even a record appended
  // by buggy or foreign tooling can never replay a Timeout/Cancelled a
  // fresh run might contradict (and compaction drops it rather than
  // copying it forward).
  return R.exhausted() && isPersistableVerdict(Cert.Kind);
}

std::vector<uint8_t> serializeRecord(const StoreKey &K,
                                     const Certificate &Cert) {
  std::vector<uint8_t> Payload;
  RecordWriter PW(Payload);
  writePayload(PW, K, Cert);
  std::vector<uint8_t> Record;
  Record.reserve(RecordHeaderBytes + Payload.size());
  RecordWriter W(Record);
  W.u32(RecordMagic);
  W.u32(static_cast<uint32_t>(Payload.size()));
  W.u64(fnv1a64(Payload.data(), Payload.size()));
  W.bytes(Payload.data(), Payload.size());
  return Record;
}

/// The 8-byte header every segment starts with.
codec::FixedBytes<SegmentHeaderBytes> segmentHeader() {
  codec::FixedBytes<SegmentHeaderBytes> Header;
  codec::Writer<codec::FixedBytes<SegmentHeaderBytes>> W(Header);
  W.u32(SegmentMagic);
  W.u32(DiskCertStore::FormatVersion);
  return Header;
}

/// Whether \p Bytes start with a whole current-format segment header.
/// Anything else — torn before the header finished, a foreign file or
/// an older format — is skipped wholesale: a format bump invalidates
/// cleanly instead of half-parsing, and compaction reclaims the file.
bool isCurrentSegment(const std::vector<uint8_t> &Bytes) {
  Reader R(Bytes.data(), Bytes.size());
  uint32_t Magic = R.u32();
  uint32_t Version = R.u32();
  return R.ok() && Magic == SegmentMagic &&
         Version == DiskCertStore::FormatVersion;
}

/// Outcome of walking one header-validated segment's records.
struct SegmentWalk {
  size_t ValidEnd = SegmentHeaderBytes; ///< End of the last whole record.
  uint64_t Corrupt = 0;                 ///< Torn/corrupt records seen.
};

/// The one record scan both the open-time index rebuild and compaction
/// share: invokes `Cb(Key, Cert, RecordOffset, PayloadBytes, Checksum)`
/// for every intact record of \p Bytes (whose segment header the caller
/// already validated). A bad or torn record header loses the boundary
/// and stops the walk; a checksum or payload failure skips just that
/// record.
template <typename OnRecord>
SegmentWalk walkSegmentRecords(const std::vector<uint8_t> &Bytes,
                               OnRecord &&Cb) {
  SegmentWalk Walk;
  size_t Offset = SegmentHeaderBytes;
  while (Offset + RecordHeaderBytes <= Bytes.size()) {
    Reader R(Bytes.data() + Offset, RecordHeaderBytes);
    uint32_t Magic = R.u32();
    uint32_t PayloadBytes = R.u32();
    uint64_t Checksum = R.u64();
    if (Magic != RecordMagic || PayloadBytes > MaxPayloadBytes ||
        PayloadBytes > Bytes.size() - Offset - RecordHeaderBytes) {
      // Bad or torn header: the record boundary is lost, stop here.
      ++Walk.Corrupt;
      return Walk;
    }
    const uint8_t *Payload = Bytes.data() + Offset + RecordHeaderBytes;
    size_t RecordBytes = RecordHeaderBytes + PayloadBytes;
    StoreKey Key;
    Certificate Cert;
    if (fnv1a64(Payload, PayloadBytes) != Checksum ||
        !readPayload(Payload, PayloadBytes, Key, Cert)) {
      // Checksum/payload mismatch behind a plausible header: skip just
      // this record — the next boundary is still known.
      ++Walk.Corrupt;
    } else {
      Cb(std::move(Key), Cert, Offset, PayloadBytes, Checksum);
    }
    Offset += RecordBytes;
    Walk.ValidEnd = Offset;
  }
  if (Offset != Bytes.size()) {
    // Trailing bytes too short for a record header: a torn tail.
    ++Walk.Corrupt;
  }
  return Walk;
}

std::string errnoString() { return std::strerror(errno); }

/// Strictly parses "seg-NNNNNN.antcert": only names that round-trip
/// through the `segmentPath` shape (zero-padded to >= 6 digits) are
/// accepted, so a foreign "seg-1.antcert" can never alias the store's
/// own "seg-000001.antcert" — every accepted Id reads and unlinks
/// exactly the directory entry it was parsed from. (sscanf would
/// silently truncate wide ids and accept mismatched suffixes.)
bool parseSegmentName(const char *Name, uint32_t &Id) {
  static const char Prefix[] = "seg-";
  static const char Suffix[] = ".antcert";
  if (std::strncmp(Name, Prefix, sizeof(Prefix) - 1) != 0)
    return false;
  const char *P = Name + sizeof(Prefix) - 1;
  uint64_t Value = 0;
  unsigned Digits = 0;
  while (*P >= '0' && *P <= '9') {
    Value = Value * 10 + static_cast<uint64_t>(*P - '0');
    if (Value > UINT32_MAX)
      return false;
    ++P;
    ++Digits;
  }
  if (std::strcmp(P, Suffix) != 0)
    return false;
  // Round-trip check: %06u pads to 6 digits and never truncates wider
  // ids, so the canonical spelling has exactly max(6, natural) digits.
  char Canonical[16];
  std::snprintf(Canonical, sizeof(Canonical), "%06u",
                static_cast<uint32_t>(Value));
  if (Digits != std::strlen(Canonical))
    return false;
  Id = static_cast<uint32_t>(Value);
  return true;
}

/// mkdir -p: creates every missing component of \p Dir.
bool makeDirs(const std::string &Dir, std::string &Error) {
  std::string Path;
  size_t Pos = 0;
  while (Pos <= Dir.size()) {
    size_t Slash = Dir.find('/', Pos);
    if (Slash == std::string::npos)
      Slash = Dir.size();
    Path = Dir.substr(0, Slash);
    Pos = Slash + 1;
    if (Path.empty())
      continue; // Leading '/'.
    if (::mkdir(Path.c_str(), 0755) != 0 && errno != EEXIST) {
      Error = "cannot create directory '" + Path + "': " + errnoString();
      return false;
    }
  }
  // A trailing component that exists must be a directory.
  struct stat St;
  if (::stat(Dir.c_str(), &St) != 0 || !S_ISDIR(St.st_mode)) {
    Error = "'" + Dir + "' is not a directory";
    return false;
  }
  return true;
}

bool readWholeFile(const std::string &Path, std::vector<uint8_t> &Out) {
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0)
    return false;
  struct stat St;
  bool Ok = ::fstat(Fd, &St) == 0;
  if (Ok) {
    Out.resize(static_cast<size_t>(St.st_size));
    Ok = readFull(Fd, Out.data(), Out.size()) == IoResult::Ok;
  }
  ::close(Fd);
  return Ok;
}

/// RAII `flock` holder; retried on EINTR. Callers must check
/// `locked()` — proceeding without the lock would silently void the
/// cross-process single-writer guarantee (e.g. ENOLCK on NFS, or a
/// `ReadOnly` handle whose LockFd is -1 by design).
/// `Blocking = false` tries `LOCK_NB` with a few short-sleep retries
/// instead of waiting indefinitely — the append path uses it so a
/// sibling's long compaction (seconds, lock held throughout) cannot
/// stall this process's lookups behind the store mutex; contended
/// appends decline, which `CertificateStore` explicitly permits.
class FileLock {
public:
  explicit FileLock(int Fd, bool Blocking = true) : Fd(Fd) {
    if (Fd < 0)
      return;
    int Rc;
    if (Blocking) {
      while ((Rc = ::flock(Fd, LOCK_EX)) != 0 && errno == EINTR) {
      }
      Locked = Rc == 0;
      return;
    }
    // Normal appends hold the lock for microseconds, so a handful of
    // millisecond retries rides out writer-writer contention while
    // bailing quickly on a compaction.
    for (int Attempt = 0; Attempt < 5; ++Attempt) {
      while ((Rc = ::flock(Fd, LOCK_EX | LOCK_NB)) != 0 &&
             errno == EINTR) {
      }
      if (Rc == 0) {
        Locked = true;
        return;
      }
      if (errno != EWOULDBLOCK)
        return;
      ::usleep(2000);
    }
  }
  ~FileLock() {
    if (Locked)
      ::flock(Fd, LOCK_UN);
  }

  bool locked() const { return Locked; }

private:
  int Fd;
  bool Locked = false;
};

} // namespace

DiskCertStore::OpenResult DiskCertStore::open(const std::string &Dir,
                                              const DiskCertStoreOptions &Options) {
  OpenResult Result;
  if (Dir.empty()) {
    Result.Error = "certificate store directory must not be empty";
    return Result;
  }
  if (Options.ReadOnly) {
    // The flock downgrade: never create, never lock, never repair.
    struct stat St;
    if (::stat(Dir.c_str(), &St) != 0 || !S_ISDIR(St.st_mode)) {
      Result.Error = "cannot open certificate store '" + Dir +
                     "' read-only: not a directory";
      return Result;
    }
  } else if (!makeDirs(Dir, Result.Error)) {
    return Result;
  }

  std::unique_ptr<DiskCertStore> Store(new DiskCertStore(Dir, Options));
  if (!Options.ReadOnly) {
    std::string LockPath = Dir + "/LOCK";
    Store->LockFd = ::open(LockPath.c_str(), O_CREAT | O_RDWR, 0644);
    if (Store->LockFd < 0) {
      Result.Error =
          "cannot open certificate store '" + Dir + "': " + errnoString();
      return Result;
    }
  }
  // (ReadOnly: LockFd stays -1, so every FileLock below fails closed —
  // no tail repair, no journal writes, and store() declines.)
  uint64_t TotalSegmentBytes = 0;
  if (!Store->loadLocked(Result.Error, TotalSegmentBytes))
    return Result;

  std::string JournalError;
  if (!Store->Journal.open(Dir, /*Writable=*/!Options.ReadOnly,
                           JournalError)) {
    Result.Error = JournalError;
    return Result;
  }
  if (!Options.ReadOnly) {
    FileLock Lock(Store->LockFd);
    if (Lock.locked())
      Store->reconcileJournalLocked();
  }

  // Auto-compaction: when the directory is mostly dead weight —
  // stale-version segments after a format bump, corruption, piles of
  // duplicates — reclaim it now rather than serving from (and paying
  // the scan of) a junkyard forever. Dead bytes are everything scanned
  // but not indexed. Best effort: a failed compaction leaves the
  // just-built index serving, same as no trigger at all.
  if (!Options.ReadOnly && Options.AutoCompactDeadFraction > 0 &&
      TotalSegmentBytes > 0) {
    uint64_t Live = Store->Stats.LiveBytes;
    uint64_t Dead = TotalSegmentBytes > Live ? TotalSegmentBytes - Live : 0;
    if (static_cast<double>(Dead) >
        Options.AutoCompactDeadFraction *
            static_cast<double>(TotalSegmentBytes))
      Store->compact();
  }
  // The directory may already exceed the retention budget (the budget
  // may have shrunk since the last run).
  Store->applyRetentionLocked();
  Result.Store = std::move(Store);
  return Result;
}

DiskCertStore::~DiskCertStore() {
  std::lock_guard<std::mutex> Guard(Mutex);
  closeFdsLocked();
  if (LockFd >= 0)
    ::close(LockFd);
}

void DiskCertStore::closeFdsLocked() {
  for (auto &[Segment, Fd] : ReadFds)
    if (Fd >= 0)
      ::close(Fd);
  ReadFds.clear();
  if (AppendFd >= 0) {
    ::close(AppendFd);
    AppendFd = -1;
  }
}

void DiskCertStore::clearIndexLocked() {
  closeFdsLocked();
  Index.clear();
  RangeIndex.clear();
  KnownSegments.clear();
  SegmentBytes.clear();
  Stats.Segments = 0;
  Stats.LiveRecords = 0;
  Stats.LiveBytes = 0;
}

std::string DiskCertStore::segmentPath(uint32_t Segment) const {
  char Name[32];
  std::snprintf(Name, sizeof(Name), "seg-%06u.antcert", Segment);
  return Dir + "/" + Name;
}

bool DiskCertStore::loadLocked(std::string &Error,
                               uint64_t &TotalSegmentBytes) {
  // The exclusive lock serializes index rebuilds against appends from
  // other processes (and lets the tail repair below truncate safely).
  // An unlockable LOCK file (ENOLCK on NFS, or a ReadOnly handle)
  // degrades to a read-only scan: no repair, and appends — which
  // demand the lock — will decline.
  FileLock Lock(LockFd);

  // Collect segment ids. Foreign files are left alone.
  std::vector<uint32_t> SegmentIds;
  DIR *D = ::opendir(Dir.c_str());
  if (!D) {
    Error = "cannot list '" + Dir + "': " + errnoString();
    return false;
  }
  while (struct dirent *Entry = ::readdir(D)) {
    uint32_t Id = 0;
    if (parseSegmentName(Entry->d_name, Id))
      SegmentIds.push_back(Id);
  }
  ::closedir(D);
  std::sort(SegmentIds.begin(), SegmentIds.end());

  // Whether the highest-numbered segment ends in a clean record
  // boundary we may append after.
  bool LastAppendable = false;
  for (uint32_t Id : SegmentIds) {
    std::vector<uint8_t> Bytes;
    if (!readWholeFile(segmentPath(Id), Bytes)) {
      // Unreadable segment: skip it — the store serves what it can.
      ++Stats.StaleSegments;
      continue;
    }
    TotalSegmentBytes += Bytes.size();
    if (!isCurrentSegment(Bytes)) {
      ++Stats.StaleSegments;
      continue;
    }

    ++Stats.Segments;
    KnownSegments.push_back(Id);
    SegmentBytes[Id] = Bytes.size();
    SegmentWalk Walk = walkSegmentRecords(
        Bytes, [&](StoreKey &&Key, const Certificate &Cert, size_t Offset,
                   uint32_t PayloadBytes, uint64_t Checksum) {
          indexRecordLocked(
              std::move(Key), Cert,
              {Id, static_cast<uint32_t>(RecordHeaderBytes + PayloadBytes),
               Offset, Checksum});
        });
    Stats.CorruptSkipped += Walk.Corrupt;

    // Tail repair on the segment appends will continue into: truncating
    // the torn suffix keeps new records reachable (a scan stops at the
    // first bad boundary, so appending after garbage would strand them).
    if (Id == SegmentIds.back()) {
      LastAppendable = Lock.locked();
      if (Walk.ValidEnd < Bytes.size()) {
        if (!Lock.locked() ||
            ::truncate(segmentPath(Id).c_str(),
                       static_cast<off_t>(Walk.ValidEnd)) != 0)
          LastAppendable = false; // Unrepairable tail: never append past it.
        else
          SegmentBytes[Id] = Walk.ValidEnd;
      }
    }
  }

  if (SegmentIds.empty())
    AppendSegment = 1;
  else
    // Appending behind a stale/foreign/torn last segment would strand
    // the new records, so route them to a fresh one instead.
    AppendSegment = LastAppendable ? SegmentIds.back()
                                   : SegmentIds.back() + 1;
  return true;
}

std::vector<StoreJournal::Entry>
DiskCertStore::journalEntriesFromIndexLocked() const {
  std::vector<StoreJournal::Entry> Entries;
  Entries.reserve(Index.size());
  for (const auto &[Key, Ref] : Index) {
    (void)Key;
    StoreJournal::Entry E;
    E.Segment = Ref.Segment;
    E.RecordBytes = Ref.PayloadBytes + RecordHeaderBytes;
    E.Offset = Ref.PayloadOffset - RecordHeaderBytes;
    E.Checksum = Ref.Checksum;
    Entries.push_back(E);
  }
  std::sort(Entries.begin(), Entries.end(),
            [](const StoreJournal::Entry &A, const StoreJournal::Entry &B) {
              return A.Segment != B.Segment ? A.Segment < B.Segment
                                            : A.Offset < B.Offset;
            });
  return Entries;
}

uint64_t DiskCertStore::nextEpochLocked() const {
  // Epochs must be monotone across *all* writers: a sibling may have
  // bumped past our cached value, and publishing a lower epoch would
  // let a replica's (epoch, serial) cursor alias two different
  // journals.
  uint64_t E = Journal.epoch();
  StoreJournal::Header H = Journal.peekHeader();
  if (H.Ok && H.Epoch > E)
    E = H.Epoch;
  return E + 1;
}

void DiskCertStore::reconcileJournalLocked() {
  if (Options.ReadOnly)
    return;
  if (!Journal.valid()) {
    // Journal unusable even after open()'s fresh-create attempt:
    // republish from the index, best effort.
    Journal.reset(nextEpochLocked(), journalEntriesFromIndexLocked());
    return;
  }
  // Append a journal line for every indexed record a crash separated
  // from its line (records are written before their journal entries, so
  // the gap is always in this direction; an entry without a record just
  // fails serve-time validation and is skipped).
  std::set<std::pair<uint32_t, uint64_t>> Journaled;
  for (uint64_t S = 1; S <= Journal.entryCount(); ++S) {
    const StoreJournal::Entry &E = Journal.entry(S);
    Journaled.emplace(E.Segment, E.Offset);
  }
  for (const StoreJournal::Entry &E : journalEntriesFromIndexLocked())
    if (!Journaled.count({E.Segment, E.Offset}))
      Journal.append(E);
}

int DiskCertStore::readFdLocked(uint32_t Segment) {
  auto It = ReadFds.find(Segment);
  if (It != ReadFds.end())
    return It->second;
  int Fd = ::open(segmentPath(Segment).c_str(), O_RDONLY);
  // Cache successes only: a transient failure (EMFILE under load) must
  // not turn the whole segment into permanent misses — the next lookup
  // retries.
  if (Fd >= 0)
    ReadFds.emplace(Segment, Fd);
  return Fd;
}

DiskCertStore::ReadStatus
DiskCertStore::readPayloadLocked(const RecordRef &Ref,
                                 std::vector<uint8_t> &Out) {
  int Fd = readFdLocked(Ref.Segment);
  if (Fd < 0)
    // ENOENT = the segment file is gone (a sibling compacted it);
    // anything else (EMFILE under load, ...) may clear up — retry
    // later.
    return errno == ENOENT ? ReadStatus::Gone : ReadStatus::Transient;
  Out.resize(Ref.PayloadBytes);
  switch (preadFull(Fd, Out.data(), Out.size(), Ref.PayloadOffset)) {
  case IoResult::Ok:
    return ReadStatus::Ok;
  case IoResult::Eof:
    return ReadStatus::Gone; // The file shrank: record gone for good.
  case IoResult::Error:
    break;
  }
  return ReadStatus::Transient;
}

bool DiskCertStore::readRecordLocked(const StoreJournal::Entry &E,
                                     std::vector<uint8_t> &Out) {
  if (E.RecordBytes < RecordHeaderBytes ||
      E.RecordBytes - RecordHeaderBytes > MaxPayloadBytes)
    return false;
  int Fd = readFdLocked(E.Segment);
  if (Fd < 0)
    return false;
  Out.resize(E.RecordBytes);
  if (preadFull(Fd, Out.data(), Out.size(), E.Offset) != IoResult::Ok)
    return false;
  // The header must agree with the journal entry, and the payload with
  // the header's checksum — corrupt bytes are never shipped or indexed.
  Reader R(Out.data(), RecordHeaderBytes);
  uint32_t Magic = R.u32();
  uint32_t PayloadBytes = R.u32();
  uint64_t Checksum = R.u64();
  return Magic == RecordMagic &&
         PayloadBytes == E.RecordBytes - RecordHeaderBytes &&
         Checksum == E.Checksum &&
         fnv1a64(Out.data() + RecordHeaderBytes, PayloadBytes) == Checksum;
}

void DiskCertStore::ingestJournalEntryLocked(const StoreJournal::Entry &E) {
  std::vector<uint8_t> Record;
  if (!readRecordLocked(E, Record))
    return; // Corrupt/vanished record: its serial stays a dead line.
  StoreKey Key;
  Certificate Cert;
  if (!readPayload(Record.data() + RecordHeaderBytes,
                   E.RecordBytes - RecordHeaderBytes, Key, Cert))
    return;
  if (std::find(KnownSegments.begin(), KnownSegments.end(), E.Segment) ==
      KnownSegments.end()) {
    KnownSegments.push_back(E.Segment);
    std::sort(KnownSegments.begin(), KnownSegments.end());
    ++Stats.Segments;
  }
  struct stat St;
  if (::stat(segmentPath(E.Segment).c_str(), &St) == 0)
    SegmentBytes[E.Segment] = static_cast<uint64_t>(St.st_size);
  indexRecordLocked(std::move(Key), Cert, E);
}

void DiskCertStore::indexRecordLocked(StoreKey &&Key, const Certificate &Cert,
                                      const StoreJournal::Entry &E) {
  RecordRef Ref;
  Ref.Segment = E.Segment;
  Ref.PayloadOffset = E.Offset + RecordHeaderBytes;
  Ref.PayloadBytes = E.RecordBytes - RecordHeaderBytes;
  Ref.Checksum = E.Checksum;
  Ref.Kind = Cert.Kind;
  Ref.CertifiedRadius = Cert.CertifiedRadius;
  auto [It, Inserted] = Index.try_emplace(std::move(Key), Ref);
  if (!Inserted) {
    // Equal keys hold interchangeable certificates; keep the first, let
    // compaction reclaim the rest.
    ++Stats.DuplicateRecords;
    return;
  }
  RangeIndex.add(It->first, Ref.Kind, Ref.CertifiedRadius);
  ++Stats.LiveRecords;
  Stats.LiveBytes += E.RecordBytes;
}

void DiskCertStore::syncJournalWithDiskLocked() {
  // Caller holds the flock. Bring the journal (and, incrementally, the
  // index) in line with sibling mutations so our next journal entry
  // lands *after* theirs instead of over theirs.
  StoreJournal::Header H = Journal.peekHeader();
  if (!H.Ok) {
    // The journal vanished or rotted externally: republish from the
    // index under a fresh epoch (replicas resync).
    Journal.reset(nextEpochLocked(), journalEntriesFromIndexLocked());
    return;
  }
  if (H.Epoch == Journal.epoch() && H.Generation == Journal.generation())
    return;
  uint64_t OldEpoch = Journal.epoch();
  uint64_t OldEntries = Journal.entryCount();
  uint64_t FirstNew = 0;
  if (!Journal.refresh(FirstNew))
    return;
  ++Stats.IndexRefreshes;
  // Growth continues right after our last line (an empty journal's
  // growth included — the sibling's first append must be ingested here,
  // or the caller could append the very key it carries); anything else
  // was a wholesale reload.
  if (Journal.epoch() != OldEpoch || FirstNew != OldEntries + 1) {
    // The segments changed shape under us (sibling compaction or
    // retention). The full rescan takes the flock itself, which would
    // not nest here, so defer it to the next lookup miss; meanwhile the
    // index's dead refs degrade to misses on read.
    PendingFullReload = true;
    return;
  }
  for (uint64_t S = FirstNew; S <= Journal.entryCount(); ++S)
    ingestJournalEntryLocked(Journal.entry(S));
}

bool DiskCertStore::maybeRefreshIndexLocked() {
  StoreJournal::Header H = Journal.peekHeader();
  bool Foreign = H.Ok && (H.Epoch != Journal.epoch() ||
                          H.Generation != Journal.generation());
  if (!PendingFullReload && !Foreign)
    return false;
  uint64_t OldEpoch = Journal.epoch();
  uint64_t FirstNew = 0;
  if (Foreign && !Journal.refresh(FirstNew))
    return false;
  ++Stats.IndexRefreshes;
  if (PendingFullReload || Journal.epoch() != OldEpoch ||
      (Foreign && FirstNew == 1)) {
    // Records may have been removed (sibling compaction/retention):
    // rebuild the index from the directory.
    PendingFullReload = false;
    clearIndexLocked();
    std::string Error;
    uint64_t TotalSegmentBytes = 0;
    loadLocked(Error, TotalSegmentBytes);
    return true;
  }
  // Same-epoch growth: ingest exactly the new journal lines.
  for (uint64_t S = FirstNew; S <= Journal.entryCount(); ++S)
    ingestJournalEntryLocked(Journal.entry(S));
  return true;
}

void DiskCertStore::dropDeadEntryLocked(
    std::unordered_map<StoreKey, RecordRef, StoreKeyHash>::iterator It) {
  // Permanently unreadable or not the record we indexed: drop the
  // dead entry — leaving it would also make `store` decline the
  // re-verified certificate as a "duplicate", pinning the key in a
  // never-served state for the rest of the process.
  RangeIndex.remove(It->first, It->second.Kind,
                    It->second.CertifiedRadius);
  Stats.LiveBytes -= std::min<uint64_t>(
      Stats.LiveBytes, RecordHeaderBytes + It->second.PayloadBytes);
  --Stats.LiveRecords;
  Index.erase(It);
  ++Stats.CorruptSkipped;
}

bool DiskCertStore::lookupLocked(const StoreKey &K, uint32_t PoisoningBudget,
                                 Certificate &Out) {
  auto It = Index.find(K);
  bool Ranged = false;
  if (It == Index.end()) {
    // Exact miss: radius-range resolution, the same rule as the RAM
    // tier's (serving/StoreKey.h `RadiusIndex`).
    if (const StoreKey *Found = RangeIndex.find(K, PoisoningBudget)) {
      It = Index.find(*Found);
      assert(It != Index.end() && "range index out of lockstep");
      Ranged = true;
    }
    if (It == Index.end())
      return false;
  }
  std::vector<uint8_t> Payload;
  StoreKey StoredKey;
  Certificate Cert;
  // Records are immutable once written, but re-verify end to end anyway:
  // a deleted segment (another process compacted), bit rot, or an index
  // bug must degrade to a miss (re-verification), never to a wrong
  // certificate.
  ReadStatus Status = readPayloadLocked(It->second, Payload);
  if (Status == ReadStatus::Transient)
    // The record is probably fine (fd exhaustion etc.); keep the entry
    // so the next lookup retries, just miss this once.
    return false;
  if (Status == ReadStatus::Gone ||
      fnv1a64(Payload.data(), Payload.size()) != It->second.Checksum ||
      !readPayload(Payload.data(), Payload.size(), StoredKey, Cert) ||
      StoredKey != It->first ||
      (Ranged && !rangeServes(Cert.Kind, Cert.CertifiedRadius,
                              PoisoningBudget))) {
    dropDeadEntryLocked(It);
    return false;
  }
  if (Ranged) {
    ++Stats.RangeHits;
    // The stored proof keeps its radius; only the answered budget is
    // rewritten (CertificateStore range contract,
    // serving/CertificateStore.h).
    Cert.PoisoningBudget = PoisoningBudget;
  } else {
    ++Stats.Hits;
  }
  Out = Cert;
  return true;
}

bool DiskCertStore::lookup(const DatasetFingerprint &Data, const float *X,
                           unsigned NumFeatures, uint32_t PoisoningBudget,
                           const VerifierConfig &Config, Certificate &Out) {
  StoreKey K = makeStoreKey(Data, X, NumFeatures, PoisoningBudget, Config);
  std::lock_guard<std::mutex> Guard(Mutex);
  for (int Pass = 0; Pass < 2; ++Pass) {
    if (lookupLocked(K, PoisoningBudget, Out))
      return true;
    // A miss may just mean a sibling process appended (or compacted)
    // since we last looked: one journal-header pread tells, a refresh
    // absorbs, and the retry serves their record without a reopen.
    if (Pass != 0 || !maybeRefreshIndexLocked())
      break;
  }
  ++Stats.Misses;
  return false;
}

DiskCertStore::ApplyResult
DiskCertStore::insertRecordLocked(StoreKey &&K, const Certificate &Cert,
                                  const uint8_t *Record, size_t Size) {
  // Certificates for equal keys are interchangeable; appending again
  // would only grow the segment for compaction to reclaim.
  if (Index.count(K)) {
    ++Stats.DuplicatesDeclined;
    return ApplyResult::Duplicate;
  }
  StoreJournal::Entry E;
  {
    // Cross-process single-writer section. No lock, no write: appending
    // unserialized would let two processes interleave records. Non-
    // blocking: the caller holds the store mutex, and waiting out a
    // sibling's compaction here would freeze this process's lookups
    // too.
    FileLock Lock(LockFd, /*Blocking=*/false);
    if (!Lock.locked())
      return ApplyResult::Declined;
    // Under the lock, absorb any sibling journal growth first: our entry
    // must extend the journal, not overwrite a line a sibling just
    // wrote — and the sibling may have appended this very key.
    syncJournalWithDiskLocked();
    if (Index.count(K)) {
      ++Stats.DuplicatesDeclined;
      return ApplyResult::Duplicate;
    }
    if (!appendLocked(Record, Size, E))
      return ApplyResult::Declined;
  }
  indexRecordLocked(std::move(K), Cert, E);
  ++Stats.Stores;
  applyRetentionLocked();
  return ApplyResult::Applied;
}

bool DiskCertStore::appendLocked(const uint8_t *Record, size_t Size,
                                 StoreJournal::Entry &E) {
  // Up to four tries: open + nlink-rotation + size-rotation + write.
  for (int Attempt = 0; Attempt < 4; ++Attempt) {
    if (AppendFd < 0) {
      AppendFd = ::open(segmentPath(AppendSegment).c_str(),
                        O_CREAT | O_RDWR | O_APPEND, 0644);
      if (AppendFd < 0)
        return false;
    }
    // A sibling's compaction may have unlinked the segment this fd
    // still points at — writing there would "succeed" into an inode
    // that vanishes with the last close. Detect it and rotate to the
    // next id (appending to an existing, sibling-written segment is
    // fine: its end is a record boundary).
    struct stat St;
    if (::fstat(AppendFd, &St) != 0 || St.st_nlink == 0) {
      ::close(AppendFd);
      AppendFd = -1;
      ++AppendSegment;
      continue;
    }
    // Another process may have appended since we last looked; the
    // authoritative size is the file's, read under the lock.
    off_t End = ::lseek(AppendFd, 0, SEEK_END);
    if (End < 0)
      return false;
    // A failed or partial write (disk full) must roll the file back to
    // the last good boundary: leaving torn bytes would strand every
    // later append behind them — the next open's scan stops at the
    // first bad record, silently losing the rest of the segment.
    auto WriteOrRollBack = [&](const uint8_t *Data, size_t Bytes,
                               off_t GoodEnd) {
      if (writeFull(AppendFd, Data, Bytes) == IoResult::Ok)
        return true;
      if (::ftruncate(AppendFd, GoodEnd) != 0) {
        // Rollback failed too: abandon the segment, never append to it
        // again from this handle (reopen repairs it).
        ::close(AppendFd);
        AppendFd = -1;
        ++AppendSegment;
      }
      return false;
    };
    if (End == 0) {
      codec::FixedBytes<SegmentHeaderBytes> Header = segmentHeader();
      if (!WriteOrRollBack(Header.data(), Header.size(), 0))
        return false;
      End = static_cast<off_t>(SegmentHeaderBytes);
      if (std::find(KnownSegments.begin(), KnownSegments.end(),
                    AppendSegment) == KnownSegments.end()) {
        KnownSegments.push_back(AppendSegment);
        std::sort(KnownSegments.begin(), KnownSegments.end());
        ++Stats.Segments;
      }
    }
    if (Options.MaxSegmentBytes &&
        static_cast<uint64_t>(End) + Size > Options.MaxSegmentBytes &&
        static_cast<uint64_t>(End) > SegmentHeaderBytes) {
      // Rotate and retry once with the fresh segment.
      ::close(AppendFd);
      AppendFd = -1;
      ++AppendSegment;
      continue;
    }
    if (!WriteOrRollBack(Record, Size, End))
      return false;
    SegmentBytes[AppendSegment] = static_cast<uint64_t>(End) + Size;
    // Journal the record while still holding the flock: the serial a
    // replica pulls by must name exactly these bytes.
    E.Segment = AppendSegment;
    E.RecordBytes = static_cast<uint32_t>(Size);
    E.Offset = static_cast<uint64_t>(End);
    E.Checksum = Reader(Record + 8, 8).u64(); // The header's checksum.
    Journal.append(E);
    return true;
  }
  return false;
}

void DiskCertStore::store(const DatasetFingerprint &Data, const float *X,
                          unsigned NumFeatures, uint32_t PoisoningBudget,
                          const VerifierConfig &Config,
                          const Certificate &Cert) {
  if (Options.ReadOnly || !isPersistableVerdict(Cert.Kind)) {
    std::lock_guard<std::mutex> Guard(Mutex);
    ++Stats.Declined;
    return;
  }
  StoreKey K = makeStoreKey(Data, X, NumFeatures, PoisoningBudget, Config);
  std::vector<uint8_t> Record = serializeRecord(K, Cert);
  std::lock_guard<std::mutex> Guard(Mutex);
  // The store may decline (CertificateStore contract).
  insertRecordLocked(std::move(K), Cert, Record.data(), Record.size());
}

void DiskCertStore::applyRetentionLocked() {
  if (!Options.RetentionBytes || Options.ReadOnly)
    return;
  uint64_t Total = 0;
  for (const auto &[Segment, Bytes] : SegmentBytes) {
    (void)Segment;
    Total += Bytes;
  }
  if (Total <= Options.RetentionBytes)
    return;
  FileLock Lock(LockFd, /*Blocking=*/false);
  if (!Lock.locked())
    return; // Contended: the budget check just waits for the next append.
  bool Evicted = false;
  // Oldest-first, never the open append segment, never the last one
  // standing: certificates are cache entries, so an evicted record is
  // simply re-verified — but evicting the segment appends are landing
  // in would tear the write path out from under itself.
  while (Total > Options.RetentionBytes && KnownSegments.size() > 1 &&
         KnownSegments.front() != AppendSegment) {
    uint32_t Victim = KnownSegments.front();
    for (auto It = Index.begin(); It != Index.end();) {
      if (It->second.Segment == Victim) {
        RangeIndex.remove(It->first, It->second.Kind,
                          It->second.CertifiedRadius);
        Stats.LiveBytes -= std::min<uint64_t>(
            Stats.LiveBytes, RecordHeaderBytes + It->second.PayloadBytes);
        --Stats.LiveRecords;
        ++Stats.Evictions;
        It = Index.erase(It);
      } else {
        ++It;
      }
    }
    auto FdIt = ReadFds.find(Victim);
    if (FdIt != ReadFds.end()) {
      ::close(FdIt->second);
      ReadFds.erase(FdIt);
    }
    ::unlink(segmentPath(Victim).c_str());
    Total -= std::min(Total, SegmentBytes[Victim]);
    SegmentBytes.erase(Victim);
    KnownSegments.erase(KnownSegments.begin());
    --Stats.Segments;
    ++Stats.RetentionEvictedSegments;
    Evicted = true;
  }
  if (Evicted)
    // Serials renumbered: publish the survivors under a fresh epoch so
    // replicas resync instead of silently skipping records.
    Journal.reset(nextEpochLocked(), journalEntriesFromIndexLocked());
}

bool DiskCertStore::compact(std::string *Error) {
  auto Fail = [&](const std::string &Message) {
    if (Error)
      *Error = Message;
    return false;
  };
  if (Options.ReadOnly)
    return Fail("certificate store '" + Dir + "' is read-only");
  std::lock_guard<std::mutex> Guard(Mutex);
  FileLock Lock(LockFd);
  if (!Lock.locked())
    return Fail("cannot lock '" + Dir + "/LOCK': " + errnoString());

  // This handle's index only covers the records it saw at open plus its
  // own appends — sibling processes may have appended records (and
  // whole segments) since. Compaction is a *directory-wide* rewrite, so
  // rescan under the lock: every intact record in every current-version
  // segment survives (deduped), whoever wrote it. Only duplicates,
  // torn/corrupt records, and stale-version segments are reclaimed.
  std::vector<uint32_t> OldSegments;
  {
    DIR *D = ::opendir(Dir.c_str());
    if (!D)
      return Fail("cannot list '" + Dir + "': " + errnoString());
    while (struct dirent *Entry = ::readdir(D)) {
      uint32_t Id = 0;
      if (parseSegmentName(Entry->d_name, Id))
        OldSegments.push_back(Id);
    }
    ::closedir(D);
  }
  std::sort(OldSegments.begin(), OldSegments.end());
  uint32_t MaxSeen =
      std::max(AppendSegment,
               OldSegments.empty() ? 0u : OldSegments.back());
  uint32_t NewSegment = MaxSeen + 1;
  std::string NewPath = segmentPath(NewSegment);

  std::unordered_map<StoreKey, RecordRef, StoreKeyHash> NewIndex;
  uint64_t NewBytes = SegmentHeaderBytes;
  uint64_t SeenRecords = 0;
  // O_EXCL: never clobber a file some racing writer created — the lock
  // should make that impossible, but an unlink is irreversible.
  int Fd = ::open(NewPath.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (Fd < 0)
    return Fail("cannot create '" + NewPath + "': " + errnoString());
  auto Abort = [&](const std::string &Message) {
    ::close(Fd);
    ::unlink(NewPath.c_str());
    return Fail(Message);
  };
  codec::FixedBytes<SegmentHeaderBytes> Header = segmentHeader();
  if (writeFull(Fd, Header.data(), Header.size()) != IoResult::Ok)
    return Abort("cannot write '" + NewPath + "': " + errnoString());
  for (uint32_t Id : OldSegments) {
    std::vector<uint8_t> Bytes;
    if (!readWholeFile(segmentPath(Id), Bytes) || !isCurrentSegment(Bytes))
      continue; // Unreadable, torn or stale: nothing to preserve.
    bool WriteFailed = false;
    walkSegmentRecords(Bytes, [&](StoreKey &&Key, const Certificate &Cert,
                                  size_t, uint32_t, uint64_t Checksum) {
      ++SeenRecords;
      if (WriteFailed || NewIndex.count(Key))
        return; // Duplicate (first wins — certificates interchangeable).
      std::vector<uint8_t> Record = serializeRecord(Key, Cert);
      if (writeFull(Fd, Record.data(), Record.size()) != IoResult::Ok) {
        WriteFailed = true;
        return;
      }
      RecordRef NewRef;
      NewRef.Segment = NewSegment;
      NewRef.PayloadOffset = NewBytes + RecordHeaderBytes;
      NewRef.PayloadBytes =
          static_cast<uint32_t>(Record.size() - RecordHeaderBytes);
      NewRef.Checksum = Checksum;
      NewRef.Kind = Cert.Kind;
      NewRef.CertifiedRadius = Cert.CertifiedRadius;
      NewIndex.emplace(std::move(Key), NewRef);
      NewBytes += Record.size();
    });
    if (WriteFailed)
      return Abort("cannot write '" + NewPath + "': " + errnoString());
  }
  // The new segment must be durable before the old ones disappear —
  // its *data* via fsync on the file, its *directory entry* via fsync
  // on the directory (without the latter, a power loss after the
  // unlinks below could persist the removals but not the new file,
  // emptying the store).
  if (::fsync(Fd) != 0)
    return Abort("cannot fsync '" + NewPath + "': " + errnoString());
  ::close(Fd);
  {
    int DirFd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (DirFd < 0 || ::fsync(DirFd) != 0) {
      if (DirFd >= 0)
        ::close(DirFd);
      ::unlink(NewPath.c_str());
      return Fail("cannot fsync '" + Dir + "': " + errnoString());
    }
    ::close(DirFd);
  }

  // Point reads at the new segment, then reclaim every old file —
  // including stale-version and torn segments the scan skipped.
  closeFdsLocked();
  for (uint32_t Id : OldSegments)
    ::unlink(segmentPath(Id).c_str());

  Index = std::move(NewIndex);
  RangeIndex.clear();
  for (const auto &[Key, Ref] : Index)
    RangeIndex.add(Key, Ref.Kind, Ref.CertifiedRadius);
  KnownSegments = {NewSegment};
  SegmentBytes.clear();
  SegmentBytes[NewSegment] = NewBytes;
  AppendSegment = NewSegment;
  Stats.Segments = 1;
  Stats.LiveRecords = Index.size();
  // Same accounting as the open-time scan: record bytes (16-byte record
  // headers included), the 8-byte segment header excluded.
  Stats.LiveBytes = NewBytes - SegmentHeaderBytes;
  ++Stats.Compactions;
  Stats.CompactionRecordsDropped += SeenRecords - Index.size();
  Stats.DuplicateRecords = 0;
  // Every serial renumbered: new epoch, survivor list republished, and
  // every replica's next poll answers EpochReset into a full resync.
  Journal.reset(nextEpochLocked(), journalEntriesFromIndexLocked());
  return true;
}

ReplicationEndpoint::Delta
DiskCertStore::serveJournalPoll(const PollRequest &Poll) {
  std::lock_guard<std::mutex> Guard(Mutex);
  Delta D;
  // Serve sibling appends promptly rather than waiting for a lookup
  // miss to notice them.
  maybeRefreshIndexLocked();
  if (!Journal.valid())
    return D; // Status stays Unavailable.
  D.Epoch = Journal.epoch();
  D.HeadSerial = Journal.entryCount();
  if (Poll.Epoch != Journal.epoch() || Poll.Serial > D.HeadSerial) {
    // The replica's epoch is gone (or it is ahead of a journal that was
    // rebuilt underneath it): full resync from serial 0.
    D.Status = PollStatus::EpochReset;
    return D;
  }
  uint32_t MaxRecords =
      std::min<uint32_t>(std::max<uint32_t>(Poll.MaxRecords, 1), 512);
  constexpr size_t MaxBatchBytes = 256u << 10;
  uint64_t Serial = Poll.Serial;
  size_t BatchBytes = 0;
  while (Serial < D.HeadSerial && D.Records.size() < MaxRecords &&
         BatchBytes < MaxBatchBytes) {
    const StoreJournal::Entry &E = Journal.entry(++Serial);
    std::vector<uint8_t> Record;
    if (!readRecordLocked(E, Record))
      continue; // Corrupt/evicted record: its serial still advances.
    if (Poll.ScopeHi || Poll.ScopeLo) {
      // The key's dataset fingerprint leads the payload; out-of-scope
      // records are skipped but their serials advance the cursor.
      Reader R(Record.data() + RecordHeaderBytes,
               Record.size() - RecordHeaderBytes);
      uint64_t Hi = R.u64();
      uint64_t Lo = R.u64();
      if (!R.ok() || Hi != Poll.ScopeHi || Lo != Poll.ScopeLo)
        continue;
    }
    BatchBytes += Record.size();
    D.Records.push_back(std::move(Record));
  }
  D.NextSerial = Serial;
  D.Status = PollStatus::Delta;
  return D;
}

ReplicationEndpoint::ApplyResult
DiskCertStore::applyReplicatedRecord(const uint8_t *Data, size_t Size) {
  std::lock_guard<std::mutex> Guard(Mutex);
  if (Options.ReadOnly) {
    ++Stats.Declined;
    return ApplyResult::Declined;
  }
  // The same validation an open-time scan applies: header shape,
  // checksum, parseable payload, persistable verdict. A corrupt delta
  // is reported (and counted) but never lands in a segment.
  if (Size < RecordHeaderBytes ||
      Size > RecordHeaderBytes + static_cast<size_t>(MaxPayloadBytes)) {
    ++Stats.CorruptSkipped;
    return ApplyResult::Corrupt;
  }
  Reader R(Data, RecordHeaderBytes);
  uint32_t Magic = R.u32();
  uint32_t PayloadBytes = R.u32();
  uint64_t Checksum = R.u64();
  StoreKey Key;
  Certificate Cert;
  if (Magic != RecordMagic || PayloadBytes != Size - RecordHeaderBytes ||
      fnv1a64(Data + RecordHeaderBytes, PayloadBytes) != Checksum ||
      !readPayload(Data + RecordHeaderBytes, PayloadBytes, Key, Cert)) {
    ++Stats.CorruptSkipped;
    return ApplyResult::Corrupt;
  }
  // Replays (EpochReset resyncs, duplicate deltas) are declined as
  // duplicates, which makes replication idempotent. Otherwise append
  // the *identical bytes* the source shipped: a replicated certificate
  // is byte-for-byte the source's record payload.
  return insertRecordLocked(std::move(Key), Cert, Data, Size);
}

StoreStats DiskCertStore::stats() const {
  std::lock_guard<std::mutex> Guard(Mutex);
  StoreStats Snapshot = Stats;
  Snapshot.Epoch = Journal.epoch();
  Snapshot.JournalRecords = Journal.entryCount();
  return Snapshot;
}
