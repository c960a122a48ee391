//===- serving/DiskCertStore.h - Disk-backed certificate store -*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistence tier of the certificate store: a `CertificateStore`
/// that appends certificates to segment files in one directory and
/// rebuilds a fingerprint-keyed in-memory index on open, so certificates
/// outlive the process that verified them. The 128-bit dataset content
/// fingerprint in every key (see serving/StoreKey.h) makes staleness
/// structurally impossible — a rebuilt or edited training set changes
/// the fingerprint, and the old records simply never match again.
///
/// ## On-disk format (FormatVersion 3)
///
/// A store directory holds a `LOCK` file plus append-only segments
/// `seg-NNNNNN.antcert`. Each segment starts with an 8-byte header
/// (magic "ACST", u32 format version); records follow back to back:
///
///     u32 record magic "CERT"
///     u32 payload bytes
///     u64 payload checksum (FNV-1a 64)
///     payload: serialized StoreKey, then the Certificate, both as
///              fixed-width little-endian fields with floats/doubles
///              stored as their bit patterns (support/BitHash.h policy)
///
/// FormatVersion 2 appended the certificate's `CertifiedRadius` (u32)
/// to the payload — the field the radius-range index serves from.
/// FormatVersion 3 added the threat model byte to both the key and the
/// certificate sections (a removal proof must never answer a flip
/// query; pre-threat records carry no model tag, so they cannot be
/// attributed safely). Per the invalidation story below, version-1 and
/// version-2 segments are skipped wholesale on open and reclaimed by
/// the next compaction (their certificates are simply re-verified;
/// always sound).
///
/// Every multi-byte field is explicitly little-endian, written and read
/// with the serving tier's one codec (support/ByteCodec.h), whose
/// range-checked enum reads reject the same bytes the wire decoder
/// does. A record is written with one `writeFull` (support/FdIo.h) under
/// the lock, so a crash can only leave a *torn tail*, never an
/// interleaved one; segment reads go through `readFull`/`preadFull`.
///
/// Alongside the segments lives `journal.antj` (serving/StoreJournal.h):
/// a replication journal assigning every appended record a serial within
/// an epoch. The journal is derived data — segments stay the system of
/// record — reconciled against the index on every open and rebuilt
/// under a fresh epoch when missing or unreadable.
///
/// ## Crash consistency and corruption tolerance
///
/// `open` validates every record: a bad segment header (or unknown
/// format version) skips the whole segment, a bad record header stops
/// the scan of that segment (the record boundary is lost), and a
/// checksum mismatch skips just that record. A torn or corrupt record
/// is therefore *never served* — at worst a previously stored
/// certificate is forgotten and re-verified, which is always sound.
/// When the tail of the last segment is torn, open truncates it back to
/// the last whole record (under the exclusive lock) so later appends
/// are not stranded behind garbage; a torn journal entry tail is
/// repaired the same way. tests/DiskCertStoreTests.cpp truncates a
/// store at every byte offset and asserts reopen never returns a wrong
/// certificate.
///
/// ## Locking protocol (single-writer / multi-reader)
///
/// Cross-process coordination uses an advisory `flock(2)` on the `LOCK`
/// file: appends, open-time tail repair, and compaction hold it
/// exclusively; lookups take no lock at all (records are immutable once
/// written, and the checksum + full-key compare reject anything torn).
/// Several `CertServer` processes can thus share one store directory:
/// one appends at a time, everyone reads. A process's index covers the
/// records present when it opened plus its own appends; a sibling's
/// append bumps the journal generation, which a lookup miss detects
/// with one header `pread` and absorbs by refreshing the index in
/// place — no reopen required. A `ReadOnly` open never takes the lock
/// at all (and never repairs, journals, or appends), so a pure replica
/// can serve from a directory another process owns.
///
/// ## Replication (the `ReplicationEndpoint` face)
///
/// `serveJournalPoll` answers "(epoch, serial) → what next?" by
/// shipping whole serialized records, bytes exactly as they sit in the
/// segment (checksum re-verified before shipping, corrupt entries
/// skipped but their serials still advance). `applyReplicatedRecord`
/// is the replica side: it validates the record like an open-time scan
/// would, declines duplicates, and appends the *identical bytes* — so
/// a replicated certificate is byte-for-byte the source's, and a
/// corrupt or replayed delta degrades to a skip, never a wrong
/// certificate. Compaction and retention bump the journal *epoch*; a
/// replica presenting an old epoch is told `EpochReset` and performs a
/// full resync, which the duplicate-decline path makes idempotent.
///
/// ## Retention
///
/// `RetentionBytes` caps the directory's segment bytes: once exceeded,
/// whole segments are evicted oldest-first (never the open append
/// segment) and the journal epoch bumps. Certificates are cache
/// entries, not ledger rows — an evicted record is simply re-verified.
///
/// ## Invalidation story
///
///  - dataset changed → fingerprint changed → key never matches: no
///    staleness by construction, nothing to invalidate.
///  - format changed → bump `FormatVersion` → old segments fail the
///    header check, are skipped wholesale on open, and are reclaimed by
///    the next compaction.
///
/// Only deterministic verdicts (Robust / Unknown / ResourceLimit) are
/// ever persisted — the same discipline as the RAM tier; `store`
/// declines anything else defensively even though `Verifier` never
/// offers it.
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_SERVING_DISKCERTSTORE_H
#define ANTIDOTE_SERVING_DISKCERTSTORE_H

#include "serving/CertificateStore.h"
#include "serving/StoreJournal.h"
#include "serving/StoreKey.h"

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace antidote {

struct DiskCertStoreOptions {
  /// Appends rotate to a fresh segment once the current one would grow
  /// past this (compaction granularity; the format has no hard limit).
  /// 0 = never rotate.
  uint64_t MaxSegmentBytes = 4ull << 20;

  /// `open` compacts the directory right after the index rebuild when
  /// dead bytes — stale-version segments, torn/corrupt records,
  /// duplicates, anything scanned but not indexed — exceed this
  /// fraction of the total segment bytes on disk. A format bump thus
  /// reclaims its invalidated segments on the first open instead of
  /// waiting for an explicit `compact()`. <= 0 disables; the trigger
  /// failing (I/O error) is not an open failure — the store serves
  /// what it indexed and the dead bytes wait for the next chance.
  double AutoCompactDeadFraction = 0.5;

  /// Byte budget for the directory's segment files; 0 = unbounded.
  /// Exceeding it after an append (or found exceeded on open) evicts
  /// whole segments oldest-first — never the open append segment — and
  /// bumps the journal epoch so replicas resync rather than miss the
  /// renumbering.
  uint64_t RetentionBytes = 0;

  /// Open without ever taking the writer flock or mutating the
  /// directory: no tail repair, no journal reconcile, `store` declines
  /// (counted), `compact` fails. The directory must already exist. The
  /// mode a pure replica or diagnostic reader uses against a directory
  /// a sibling process owns.
  bool ReadOnly = false;
};

/// The disk tier of the production certificate store. Thread-safe like
/// every `CertificateStore` (one internal mutex); cross-process safe per
/// the locking protocol above. Compose it behind the RAM tier with
/// serving/TieredStore.h rather than using it as `VerifierConfig::Cache`
/// directly — it works alone, but every hit then pays a disk read.
class DiskCertStore final : public CertificateStore,
                            public ReplicationEndpoint {
public:
  /// Bump on any record/segment layout change: old segments are then
  /// skipped wholesale on open (never half-parsed) and reclaimed by the
  /// next compaction. 2 = CertifiedRadius joined the payload; 3 = the
  /// threat model byte joined both the key and certificate sections.
  static constexpr uint32_t FormatVersion = 3;

  /// `open` either yields a store or a human-readable reason it could
  /// not (unwritable directory, lock failure, ...). Skipped corrupt
  /// records are *not* errors — they are counted in `stats()`.
  struct OpenResult {
    std::unique_ptr<DiskCertStore> Store;
    std::string Error;
    bool ok() const { return Store != nullptr; }
  };

  /// Opens (creating if needed) the store directory \p Dir and rebuilds
  /// the index from its segments.
  static OpenResult open(const std::string &Dir,
                         const DiskCertStoreOptions &Options = {});

  ~DiskCertStore() override;

  DiskCertStore(const DiskCertStore &) = delete;
  DiskCertStore &operator=(const DiskCertStore &) = delete;

  bool lookup(const DatasetFingerprint &Data, const float *X,
              unsigned NumFeatures, uint32_t PoisoningBudget,
              const VerifierConfig &Config, Certificate &Out) override;

  void store(const DatasetFingerprint &Data, const float *X,
             unsigned NumFeatures, uint32_t PoisoningBudget,
             const VerifierConfig &Config, const Certificate &Cert) override;

  StoreStats stats() const override;

  /// The disk tier *is* the replication endpoint.
  ReplicationEndpoint *replication() override { return this; }

  Delta serveJournalPoll(const PollRequest &Poll) override;
  ApplyResult applyReplicatedRecord(const uint8_t *Data,
                                    size_t Size) override;

  const std::string &directory() const { return Dir; }
  bool readOnly() const { return Options.ReadOnly; }

  /// Directory-wide rewrite under the exclusive lock: re-scans every
  /// segment (not just this handle's index — sibling processes may have
  /// appended records this handle never saw) and copies every intact,
  /// deduplicated record into one fresh segment, then deletes the old
  /// files. What gets reclaimed is exactly duplicate records (racing
  /// writers append the same key independently), torn/corrupt records,
  /// and stale-version segments. The journal epoch bumps and the
  /// journal is rewritten to list the survivors. Lookups keep answering
  /// throughout from this process; other processes holding an old index
  /// degrade to misses until their next refresh. Returns false (and
  /// fills \p Error) on I/O failure, leaving the old segments in place.
  bool compact(std::string *Error = nullptr);

private:
  struct RecordRef {
    uint32_t Segment = 0;
    uint64_t PayloadOffset = 0;
    uint32_t PayloadBytes = 0;
    /// Kept in the index so every `lookup` re-verifies the payload it
    /// just read — post-open bit rot degrades to a miss, never to a
    /// wrong certificate.
    uint64_t Checksum = 0;
    /// Mirrored from the record so the range index can be maintained
    /// (and a dead entry unregistered) without re-reading the payload.
    VerdictKind Kind = VerdictKind::Unknown;
    uint32_t CertifiedRadius = 0;
  };

  DiskCertStore(std::string Dir, const DiskCertStoreOptions &Options)
      : Dir(std::move(Dir)), Options(Options) {}

  /// Scans all segments, builds the index, repairs a torn tail on the
  /// append segment. \p TotalSegmentBytes accumulates every byte read
  /// from a segment file, indexed or not — the denominator of the
  /// auto-compaction dead fraction. Returns false with \p Error on hard
  /// I/O failure. Callable again after `clearIndexLocked` (the sibling
  /// epoch-change reload path).
  bool loadLocked(std::string &Error, uint64_t &TotalSegmentBytes);

  /// Drops every in-memory view of the directory (index, range index,
  /// known segments, cached fds; live-footprint stats zeroed) ahead of
  /// a full `loadLocked` rescan. Monotonic counters are kept.
  void clearIndexLocked();

  /// Reconciles the journal with the freshly built index: repairs /
  /// rebuilds an unusable journal under a bumped epoch and appends
  /// entries for indexed records a crash separated from their journal
  /// line. Writable stores only; caller holds the mutex and the flock.
  void reconcileJournalLocked();

  /// The lookup-miss staleness check: one journal-header `pread`; if a
  /// sibling moved the generation, refreshes the index (incrementally
  /// for same-epoch growth, by full rescan across an epoch change) and
  /// returns true so the caller retries its probe. Caller holds the
  /// mutex.
  bool maybeRefreshIndexLocked();

  /// Brings the journal (and, for same-epoch growth, the index) in line
  /// with sibling mutations before this process appends its own entry —
  /// without it two writers would publish colliding generations and
  /// overwrite each other's journal lines. An epoch change cannot be
  /// absorbed here (the full rescan re-enters the flock, which does not
  /// nest), so it sets `PendingFullReload` for the next lookup miss.
  /// Caller holds the mutex *and* the flock.
  void syncJournalWithDiskLocked();

  /// Indexes one journaled record (reading and re-validating its bytes);
  /// silently skips entries whose records vanished or rotted. Caller
  /// holds the mutex.
  void ingestJournalEntryLocked(const StoreJournal::Entry &E);

  /// Indexes the validated record \p E names under \p Key (first record
  /// of a key wins; later ones count as `DuplicateRecords`). Caller
  /// holds the mutex.
  void indexRecordLocked(StoreKey &&Key, const Certificate &Cert,
                         const StoreJournal::Entry &E);

  /// The epoch a record-removing rewrite publishes under: one past the
  /// max of our cached epoch and whatever the on-disk header says, so
  /// epochs stay monotone across sibling writers. Caller holds the
  /// mutex.
  uint64_t nextEpochLocked() const;

  /// Enforces `RetentionBytes` by evicting whole segments oldest-first;
  /// never touches the open append segment. Needs the flock (its own,
  /// non-blocking — a contended budget check just waits for the next
  /// append). Bumps the journal epoch when anything was evicted. Caller
  /// holds the mutex.
  void applyRetentionLocked();

  /// Journal entries for every indexed record, in (segment, offset)
  /// order — the survivor list a `reset` publishes after compaction or
  /// retention. Caller holds the mutex.
  std::vector<StoreJournal::Entry> journalEntriesFromIndexLocked() const;

  std::string segmentPath(uint32_t Segment) const;

  /// Read fd for \p Segment, opened on demand and cached. -1 on failure.
  int readFdLocked(uint32_t Segment);

  /// Appends one serialized record for \p K (whose certificate is
  /// \p Cert) under the cross-process exclusive lock, journals and
  /// indexes it. A key already indexed is declined as `Duplicate` —
  /// including one a sibling appended, which only the journal sync under
  /// the lock reveals. `Declined` when the lock or the write fails.
  /// Caller holds the mutex.
  ApplyResult insertRecordLocked(StoreKey &&K, const Certificate &Cert,
                                 const uint8_t *Record, size_t Size);

  /// The write half of `insertRecordLocked`: appends \p Record to the
  /// current segment (rotating as needed) and journals it as \p E.
  /// Caller holds the mutex and the flock.
  bool appendLocked(const uint8_t *Record, size_t Size,
                    StoreJournal::Entry &E);

  /// How a record read failed, if it did. The distinction matters for
  /// index hygiene: a transient failure must leave the entry in place
  /// for a later retry, a permanent one must drop it (or `store` would
  /// forever decline the re-verified certificate as a "duplicate").
  enum class ReadStatus : uint8_t {
    Ok,
    Transient, ///< fd exhaustion etc.; the record may still be fine.
    Gone,      ///< Missing file / short read: permanently unreadable.
  };

  /// Loads one record's payload (checksum verified by the caller).
  /// Caller holds the mutex.
  ReadStatus readPayloadLocked(const RecordRef &Ref,
                               std::vector<uint8_t> &Out);

  /// Loads one *whole* record (header included) as a journal entry
  /// names it, verifying the record header and payload checksum against
  /// the entry — the poll-serving read. False on any mismatch. Caller
  /// holds the mutex.
  bool readRecordLocked(const StoreJournal::Entry &E,
                        std::vector<uint8_t> &Out);

  void closeFdsLocked();

  /// Drops a permanently unreadable index entry (stats + range index);
  /// caller holds the mutex. \p It must be valid.
  void dropDeadEntryLocked(
      std::unordered_map<StoreKey, RecordRef, StoreKeyHash>::iterator It);

  /// One pass of `lookup`: the exact key, else the radius-range probe,
  /// then the payload load and re-verification; caller holds the mutex.
  bool lookupLocked(const StoreKey &K, uint32_t PoisoningBudget,
                    Certificate &Out);

  const std::string Dir;
  const DiskCertStoreOptions Options;

  mutable std::mutex Mutex;
  int LockFd = -1;   ///< `LOCK` file; flock target (-1 when ReadOnly).
  int AppendFd = -1; ///< Current append segment, O_APPEND.
  uint32_t AppendSegment = 0;
  std::unordered_map<StoreKey, RecordRef, StoreKeyHash> Index;
  /// Radius-sorted views of `Index`'s original proofs; kept in lockstep
  /// with `Index` by load/store/compact and dead-entry drops.
  RadiusIndex RangeIndex;
  std::unordered_map<uint32_t, int> ReadFds;
  std::vector<uint32_t> KnownSegments; ///< Readable, ascending.
  /// On-disk bytes per known segment (headers included) — the retention
  /// accounting, maintained by load/append/compact/evict.
  std::map<uint32_t, uint64_t> SegmentBytes;
  StoreJournal Journal;
  /// Set when a flock-held path noticed a sibling epoch change it could
  /// not absorb in place; the next lookup miss performs the full rescan.
  bool PendingFullReload = false;
  StoreStats Stats;
};

} // namespace antidote

#endif // ANTIDOTE_SERVING_DISKCERTSTORE_H
