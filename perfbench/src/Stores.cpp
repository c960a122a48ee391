//===- perfbench/src/Stores.cpp - Observing wrappers of store interfaces --===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "Stores.h"

#include "Trace.h"


using namespace antidote;

namespace perfbench {

uint64_t queryKey(const float *X, unsigned NumFeatures, uint32_t Budget) {
  uint64_t H = 1469598103934665603ull;
  auto Mix = [&H](const void *Data, size_t Size) {
    const unsigned char *P = static_cast<const unsigned char *>(Data);
    for (size_t I = 0; I < Size; ++I) {
      H ^= P[I];
      H *= 1099511628211ull;
    }
  };
  Mix(X, NumFeatures * sizeof(float));
  Mix(&Budget, sizeof(Budget));
  return H;
}

bool QuerySpanStore::lookup(const DatasetFingerprint &, const float *X,
                            unsigned NumFeatures, uint32_t PoisoningBudget,
                            const VerifierConfig &Config, Certificate &) {
  QueryRecord R;
  R.X.assign(X, X + NumFeatures);
  R.Budget = PoisoningBudget;
  R.Config = Config;
  R.Config.Cache = nullptr;
  R.Config.Cancel = nullptr;
  R.Config.FrontierPool = nullptr;
  R.Config.Reverify = nullptr;
  R.Start = nowSeconds();
  std::lock_guard<std::mutex> Guard(Mutex);
  Records.push_back(std::move(R));
  Open[std::this_thread::get_id()] = Records.size() - 1;
  return false;
}

void QuerySpanStore::store(const DatasetFingerprint &, const float *,
                           unsigned, uint32_t, const VerifierConfig &,
                           const Certificate &Cert) {
  double End = nowSeconds();
  std::lock_guard<std::mutex> Guard(Mutex);
  auto It = Open.find(std::this_thread::get_id());
  if (It == Open.end())
    return;
  Records[It->second].End = End;
  Records[It->second].Cert = Cert;
  Open.erase(It);
}

std::vector<QueryRecord> QuerySpanStore::records() const {
  std::lock_guard<std::mutex> Guard(Mutex);
  return Records;
}

ReplicationEndpoint::Delta
TimedEndpoint::serveJournalPoll(const PollRequest &Poll) {
  double Start = nowSeconds();
  Delta D = Inner->serveJournalPoll(Poll);
  TimedCall Took{Start, nowSeconds()};
  std::lock_guard<std::mutex> Guard(Mutex);
  Polls.push_back(Took);
  return D;
}

ReplicationEndpoint::ApplyResult
TimedEndpoint::applyReplicatedRecord(const uint8_t *Data, size_t Size) {
  double Start = nowSeconds();
  ApplyResult R = Inner->applyReplicatedRecord(Data, Size);
  TimedCall Took{Start, nowSeconds()};
  std::lock_guard<std::mutex> Guard(Mutex);
  Applies.push_back(Took);
  return R;
}

std::vector<TimedCall> TimedEndpoint::polls() const {
  std::lock_guard<std::mutex> Guard(Mutex);
  return Polls;
}

std::vector<TimedCall> TimedEndpoint::applies() const {
  std::lock_guard<std::mutex> Guard(Mutex);
  return Applies;
}

bool ObservedStore::lookup(const DatasetFingerprint &Data, const float *X,
                           unsigned NumFeatures, uint32_t PoisoningBudget,
                           const VerifierConfig &Config, Certificate &Out) {
  if (!Recording)
    return Inner.lookup(Data, X, NumFeatures, PoisoningBudget, Config, Out);
  double Start = nowSeconds();
  bool Hit = Inner.lookup(Data, X, NumFeatures, PoisoningBudget, Config, Out);
  LookupEvent E{Start, nowSeconds(), queryKey(X, NumFeatures, PoisoningBudget),
                Hit};
  std::lock_guard<std::mutex> Guard(Mutex);
  Lookups.push_back(E);
  return Hit;
}

void ObservedStore::store(const DatasetFingerprint &Data, const float *X,
                          unsigned NumFeatures, uint32_t PoisoningBudget,
                          const VerifierConfig &Config,
                          const Certificate &Cert) {
  if (!Recording)
    return Inner.store(Data, X, NumFeatures, PoisoningBudget, Config, Cert);
  double Start = nowSeconds();
  Inner.store(Data, X, NumFeatures, PoisoningBudget, Config, Cert);
  double Took = nowSeconds() - Start;
  std::lock_guard<std::mutex> Guard(Mutex);
  Stores.push_back(Took);
}

std::vector<LookupEvent> ObservedStore::lookups() const {
  std::lock_guard<std::mutex> Guard(Mutex);
  return Lookups;
}

std::vector<double> ObservedStore::storeSeconds() const {
  std::lock_guard<std::mutex> Guard(Mutex);
  return Stores;
}

} // namespace perfbench
