//===- perfbench/src/Stores.h - Observing wrappers of store interfaces -*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run sees inside the library only through its public
/// interfaces. Two wrappers do it:
///
///  - `QuerySpanStore` is a `CertificateStore` that always misses. The
///    verifier calls `lookup` before a query's engine run and `store`
///    after it, on the same thread, so the pair brackets one query.
///  - `ObservedStore` forwards every call to a real store and times it,
///    and wraps the store's `ReplicationEndpoint` the same way.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STORES_H
#define PERFBENCH_STORES_H

#include "serving/CertificateStore.h"

#include <atomic>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// FNV-1a over the query's bit pattern and budget: the per-key identity
/// the FIFO matching uses.
uint64_t queryKey(const float *X, unsigned NumFeatures, uint32_t Budget);

/// One query bracketed by `QuerySpanStore`.
struct QueryRecord {
  double Start = 0.0;
  double End = -1.0; ///< < 0 when the verdict was never offered for storage.
  std::vector<float> X;
  uint32_t Budget = 0;
  antidote::VerifierConfig Config; ///< Copied with its pointers cleared.
  antidote::Certificate Cert;
};

class QuerySpanStore final : public antidote::CertificateStore {
public:
  bool lookup(const antidote::DatasetFingerprint &Data, const float *X,
              unsigned NumFeatures, uint32_t PoisoningBudget,
              const antidote::VerifierConfig &Config,
              antidote::Certificate &Out) override;
  void store(const antidote::DatasetFingerprint &Data, const float *X,
             unsigned NumFeatures, uint32_t PoisoningBudget,
             const antidote::VerifierConfig &Config,
             const antidote::Certificate &Cert) override;

  std::vector<QueryRecord> records() const;

private:
  mutable std::mutex Mutex;
  std::vector<QueryRecord> Records;
  std::unordered_map<std::thread::id, size_t> Open;
};

/// A timed call: start and end on the `nowSeconds` clock.
struct TimedCall {
  double Start = 0.0;
  double End = 0.0;
};

/// Times a `ReplicationEndpoint`'s two calls.
class TimedEndpoint final : public antidote::ReplicationEndpoint {
public:
  explicit TimedEndpoint(antidote::ReplicationEndpoint *Inner)
      : Inner(Inner) {}

  Delta serveJournalPoll(const PollRequest &Poll) override;
  ApplyResult applyReplicatedRecord(const uint8_t *Data,
                                    size_t Size) override;

  std::vector<TimedCall> polls() const;
  std::vector<TimedCall> applies() const;

private:
  antidote::ReplicationEndpoint *Inner;
  mutable std::mutex Mutex;
  std::vector<TimedCall> Polls, Applies;
};

/// One timed `lookup` of an `ObservedStore`.
struct LookupEvent {
  double Start = 0.0;
  double End = 0.0;
  uint64_t Key = 0;
  bool Hit = false;
};

/// Forwards to \p Inner, timing `lookup` and `store` and exposing a
/// `TimedEndpoint` in place of the inner replication endpoint.
class ObservedStore final : public antidote::CertificateStore {
public:
  explicit ObservedStore(antidote::CertificateStore &Inner)
      : Inner(Inner), Endpoint(Inner.replication()) {}

  bool lookup(const antidote::DatasetFingerprint &Data, const float *X,
              unsigned NumFeatures, uint32_t PoisoningBudget,
              const antidote::VerifierConfig &Config,
              antidote::Certificate &Out) override;
  void store(const antidote::DatasetFingerprint &Data, const float *X,
             unsigned NumFeatures, uint32_t PoisoningBudget,
             const antidote::VerifierConfig &Config,
             const antidote::Certificate &Cert) override;
  bool probe(const antidote::DatasetFingerprint &Data, const float *X,
             unsigned NumFeatures, uint32_t PoisoningBudget,
             const antidote::VerifierConfig &Config,
             antidote::Certificate &Out) override {
    return Inner.probe(Data, X, NumFeatures, PoisoningBudget, Config, Out);
  }
  bool rangeLookup(const antidote::DatasetFingerprint &Data, const float *X,
                   unsigned NumFeatures, uint32_t PoisoningBudget,
                   const antidote::VerifierConfig &Config,
                   antidote::Certificate &Out) override {
    return Inner.rangeLookup(Data, X, NumFeatures, PoisoningBudget, Config,
                             Out);
  }
  antidote::StoreStats stats() const override { return Inner.stats(); }
  antidote::ReplicationEndpoint *replication() override {
    return Inner.replication() ? &Endpoint : nullptr;
  }

  /// While off, calls are forwarded untimed.
  void setRecording(bool On) { Recording = On; }

  std::vector<LookupEvent> lookups() const;
  std::vector<double> storeSeconds() const;
  const TimedEndpoint &endpoint() const { return Endpoint; }

private:
  antidote::CertificateStore &Inner;
  TimedEndpoint Endpoint;
  std::atomic<bool> Recording{true};
  mutable std::mutex Mutex;
  std::vector<LookupEvent> Lookups;
  std::vector<double> Stores;
};

} // namespace perfbench

#endif // PERFBENCH_STORES_H
