//===- serving/CertCache.h - Fingerprint-keyed certificate cache *- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving layer's incremental re-verification cache: a thread-safe
/// LRU map from the normalized `StoreKey` (dataset fingerprint, query bit
/// pattern, poisoning budget, result-relevant `VerifierConfig` fields) to
/// the `Certificate` a fresh verification produced, evicting
/// least-recently-used entries once its byte budget (`--cache-bytes`,
/// `ANTIDOTE_CACHE_BYTES`) is exceeded.
///
/// Invariants (tests/CertCacheTests.cpp enforces each):
///
///  - **Cached ≡ fresh.** A hit returns the stored certificate verbatim —
///    every field, including the diagnostics and the `Seconds` the
///    original run took — so a cached answer is byte-identical to the
///    fresh verification that seeded it, and field-identical (modulo
///    wall-clock `Seconds`) to any re-verification, because only
///    deterministic verdicts are ever offered for storage (see
///    `CertificateStore` in serving/CertificateStore.h).
///  - **Keys capture exactly the result-relevant state.** The key
///    discipline lives in serving/StoreKey.h, shared with the on-disk
///    tier: scheduling knobs never split the key, so a serial client
///    hits entries a 64-thread sweep populated, and vice versa.
///  - **Range-served ≡ sound.** When the exact key misses, a
///    radius-range probe (serving/StoreKey.h `rangeServes`) may serve
///    a Robust certificate proven at a *wider* radius or an Unknown
///    attempt that failed at a *narrower* one — both monotone-sound,
///    counted as `RangeHits`, and returned with `PoisoningBudget`
///    rewritten to the queried n while `CertifiedRadius` keeps naming
///    the stored proof. Exact hits stay verbatim.
///  - **Byte-budgeted.** Every entry is charged its approximate resident
///    footprint — the key (query vector included), the certificate, and
///    the map/list node overhead, so the charge can never undercount to
///    just the value bytes; inserting past the budget evicts from the
///    LRU tail until the new entry fits (an entry alone exceeding the
///    whole budget is declined outright). 0 = unbounded, matching the
///    "0 disables the cap" convention of the `ResourceLimits` knobs.
///  - **Concurrent.** `lookup`/`store` run from batch-pool workers inside
///    `Verifier::verifyBatch` and from `CertServer` workers; one internal
///    mutex serializes them (the guarded work is a hash probe plus a
///    splice — microseconds against verification's milliseconds-to-hours).
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_SERVING_CERTCACHE_H
#define ANTIDOTE_SERVING_CERTCACHE_H

#include "serving/CertificateStore.h"
#include "serving/StoreKey.h"

#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace antidote {

/// The RAM tier of the production certificate store: fingerprint-keyed,
/// LRU-evicted under a byte budget, safe for concurrent pool workers.
/// Composes with the disk tier (serving/DiskCertStore.h) behind
/// serving/TieredStore.h.
class CertCache final : public CertificateStore {
public:
  /// \p MaxBytes caps the approximate resident footprint; 0 = unbounded.
  explicit CertCache(uint64_t MaxBytes) : MaxBytes(MaxBytes) {}

  uint64_t maxBytes() const { return MaxBytes; }

  bool lookup(const DatasetFingerprint &Data, const float *X,
              unsigned NumFeatures, uint32_t PoisoningBudget,
              const VerifierConfig &Config, Certificate &Out) override;

  void store(const DatasetFingerprint &Data, const float *X,
             unsigned NumFeatures, uint32_t PoisoningBudget,
             const VerifierConfig &Config, const Certificate &Cert) override;

  StoreStats stats() const override;

  /// Drops every entry (counters are kept; `LiveBytes`/`LiveRecords`
  /// reset). For dataset-reload handovers and tests.
  void clear();

  /// Approximate resident bytes one entry with \p K's query shape is
  /// charged against the budget: key + certificate (via the map's
  /// key/slot pair, padding included), the query vector's heap block,
  /// and both containers' per-node overhead (hash bucket slot, map node
  /// links, LRU list node). Exposed so the eviction tests can pin the
  /// floor of the charge — it need not be exact, just monotone in the
  /// real footprint, stable for a given key shape, and never an
  /// undercount of the bytes the entry demonstrably owns.
  static uint64_t entryBytes(const StoreKey &K);

private:
  struct Slot {
    Certificate Cert;
    uint64_t Bytes = 0;
    std::list<const StoreKey *>::iterator LruIt;
  };

  /// Pops the LRU tail. Caller holds the mutex.
  void evictOneLocked();

  const uint64_t MaxBytes;

  mutable std::mutex Mutex;
  /// Front = most recently used. Points at the map's stored keys
  /// (unordered_map never moves its elements, only its buckets).
  std::list<const StoreKey *> Lru;
  std::unordered_map<StoreKey, Slot, StoreKeyHash> Entries;
  /// Radius-sorted views of `Entries`' original proofs; kept in
  /// lockstep with `Entries` by store/evict/clear.
  RadiusIndex RangeIndex;
  StoreStats Stats;
};

} // namespace antidote

#endif // ANTIDOTE_SERVING_CERTCACHE_H
