//===- serving/StoreJournal.h - Replication journal ------------*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The disk store's replication journal: a sidecar file (`journal.antj`)
/// that assigns a monotonically increasing *serial* to every record
/// appended to the segment files, so a replica can ask "what changed
/// since serial S?" and pull exactly the delta — bind9's
/// serial-number-driven incremental zone transfer is the exemplar
/// (ROADMAP: cross-machine scale-out via store replication).
///
/// ## File format (FormatVersion 1)
///
///     header (24 bytes):
///       u32 magic "ACTJ"
///       u32 format version
///       u64 epoch       — bumped by every record-removing rewrite
///       u64 generation  — bumped by every journal mutation
///     entries (24 bytes each, back to back):
///       u32 segment     — where the record lives
///       u32 record bytes (header + payload)
///       u64 record offset within the segment
///       u64 payload checksum (FNV-1a 64, same as the record header)
///
/// Header and entries are encoded with support/ByteCodec.h (the same
/// codec as the segments and the wire; an entry encodes without a heap
/// allocation) and moved with support/FdIo.h's `preadFull`/`pwriteFull`.
///
/// Serial numbers are implicit: the entry at index i holds serial i+1
/// within the current epoch. The journal is *derived* data — the
/// segments stay the system of record — so it never needs fsync
/// discipline of its own: on open the store reconciles journal against
/// index (appending entries for records a crash separated from their
/// journal line, truncate-repairing a torn entry tail the same way the
/// append segment's tail is repaired) and rebuilds it wholesale, under
/// a fresh epoch, when it is missing or unreadable.
///
/// ## Epochs
///
/// Compaction and retention eviction remove records, which would
/// silently re-number every surviving serial. Instead they bump the
/// *epoch* and rewrite the journal to list the survivors from serial 1.
/// A replica always presents (epoch, serial); a source whose epoch
/// moved past the replica's answers `EpochReset`, and the replica
/// restarts from serial 0 of the new epoch — a full resync whose
/// replays the duplicate-decline path absorbs.
///
/// ## Generations
///
/// Every journal mutation (append, reset) bumps the header's generation
/// counter. A sibling process that appended to a shared store therefore
/// moved the generation, and a reader can detect it with one 24-byte
/// `pread` of the header (`peekHeader`) — the hook `DiskCertStore` uses
/// to refresh its in-memory index on a lookup miss instead of requiring
/// a reopen.
///
/// Thread-safety: none of its own — `DiskCertStore` calls it under its
/// mutex (and mutations additionally under the cross-process `flock`).
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_SERVING_STOREJOURNAL_H
#define ANTIDOTE_SERVING_STOREJOURNAL_H

#include <cstdint>
#include <string>
#include <vector>

namespace antidote {

class StoreJournal {
public:
  static constexpr uint32_t FormatVersion = 1;
  static constexpr size_t HeaderBytes = 24;
  static constexpr size_t EntryBytes = 24;

  /// One journaled record: where it lives and the payload checksum a
  /// serving poll re-verifies before shipping its bytes.
  struct Entry {
    uint32_t Segment = 0;
    uint32_t RecordBytes = 0;
    uint64_t Offset = 0;
    uint64_t Checksum = 0;
  };

  /// The header snapshot `peekHeader` returns; `Ok` false means the
  /// file is missing or its header is unreadable/foreign.
  struct Header {
    uint64_t Epoch = 0;
    uint64_t Generation = 0;
    bool Ok = false;
  };

  StoreJournal() = default;
  ~StoreJournal();
  StoreJournal(const StoreJournal &) = delete;
  StoreJournal &operator=(const StoreJournal &) = delete;

  /// Opens `Dir/journal.antj`. Writable mode truncate-repairs a torn
  /// entry tail (under the store's flock, like the append segment) and
  /// creates a fresh epoch-1 journal when none exists; read-only mode
  /// loads what is parseable and never writes. Returns false only on a
  /// hard I/O error creating the file — an unreadable existing journal
  /// degrades to `valid() == false` so the store can rebuild it.
  bool open(const std::string &Dir, bool Writable, std::string &Error);

  /// True once a parseable journal is loaded (or freshly created).
  bool valid() const { return Valid; }

  uint64_t epoch() const { return Epoch; }
  uint64_t generation() const { return Generation; }
  uint64_t entryCount() const { return Entries.size(); }

  /// \p Serial is 1-based; callers bound it by `entryCount()`.
  const Entry &entry(uint64_t Serial) const { return Entries[Serial - 1]; }

  /// Appends one entry and bumps the generation. False on I/O failure
  /// (the in-memory state still advances — the journal is derived data,
  /// and the next open rebuilds it).
  bool append(const Entry &E);

  /// Rewrites the whole journal under \p NewEpoch listing exactly
  /// \p NewEntries from serial 1 — the compaction/retention epoch bump.
  /// The rewrite goes through a temp file + rename so a crash leaves
  /// either the old or the new journal, never a half one.
  bool reset(uint64_t NewEpoch, std::vector<Entry> NewEntries);

  /// One header `pread`, no state change — the sibling-append detector.
  Header peekHeader() const;

  /// Re-reads the file after `peekHeader` saw a foreign mutation.
  /// Same-epoch growth loads just the new entries and returns their
  /// first index via \p FirstNewSerial (1-based); an epoch change or a
  /// shrink reloads wholesale and reports `FirstNewSerial = 1`. False
  /// when the file is unreadable (state unchanged).
  bool refresh(uint64_t &FirstNewSerial);

private:
  bool loadFile(std::string &Error);
  bool writeHeaderLocked();

  std::string Path;
  int Fd = -1;
  bool Writable = false;
  bool Valid = false;
  uint64_t Epoch = 0;
  uint64_t Generation = 0;
  std::vector<Entry> Entries;
};

} // namespace antidote

#endif // ANTIDOTE_SERVING_STOREJOURNAL_H
