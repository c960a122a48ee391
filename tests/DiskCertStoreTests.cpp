//===- tests/DiskCertStoreTests.cpp - Disk certificate store tests ------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
// The persistence tier's core promises: a fresh process pointed at a warm
// store directory answers a previously-verified query from disk,
// byte-identical to the fresh verdict; a torn or corrupt record is
// *never served* (the crash-consistency test truncates a store at every
// byte offset and reopens it — the ASan CI job runs this too); format
// bumps invalidate old segments wholesale; compaction reclaims duplicate
// records without losing live ones; and the two-tier composition
// promotes disk hits into RAM.
//
//===----------------------------------------------------------------------===//

#include "serving/DiskCertStore.h"

#include "TestUtil.h"
#include "serving/CertCache.h"
#include "serving/TieredStore.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <dirent.h>
#include <fstream>
#include <sys/stat.h>
#include <unistd.h>

using namespace antidote;
using namespace antidote::testutil;

namespace {

/// A fresh store directory per test, recursively removed on teardown
/// (store directories are flat: LOCK + segments).
class TempStoreDir {
public:
  TempStoreDir() {
    char Template[] = "/tmp/antidote-store-test-XXXXXX";
    const char *Made = mkdtemp(Template);
    EXPECT_NE(Made, nullptr);
    Dir = Made ? Made : "";
  }
  ~TempStoreDir() {
    if (Dir.empty())
      return;
    if (DIR *D = opendir(Dir.c_str())) {
      while (struct dirent *Entry = readdir(D)) {
        std::string Name = Entry->d_name;
        if (Name != "." && Name != "..")
          ::unlink((Dir + "/" + Name).c_str());
      }
      closedir(D);
    }
    ::rmdir(Dir.c_str());
  }

  const std::string &path() const { return Dir; }
  std::string sub(const std::string &Name) const { return Dir + "/" + Name; }

private:
  std::string Dir;
};

/// Field-by-field certificate identity, `Seconds` included: a disk hit
/// returns the stored certificate verbatim.
void expectIdenticalCertificates(const Certificate &A, const Certificate &B) {
  EXPECT_EQ(A.Kind, B.Kind);
  EXPECT_EQ(A.PoisoningBudget, B.PoisoningBudget);
  EXPECT_EQ(A.CertifiedRadius, B.CertifiedRadius);
  EXPECT_EQ(A.Depth, B.Depth);
  EXPECT_EQ(A.Domain, B.Domain);
  EXPECT_EQ(A.ConcretePrediction, B.ConcretePrediction);
  EXPECT_EQ(A.DominatingClass, B.DominatingClass);
  EXPECT_EQ(A.NumTerminals, B.NumTerminals);
  EXPECT_EQ(A.PeakDisjuncts, B.PeakDisjuncts);
  EXPECT_EQ(A.PeakStateBytes, B.PeakStateBytes);
  EXPECT_EQ(A.BestSplitCalls, B.BestSplitCalls);
  EXPECT_EQ(A.Seconds, B.Seconds);
}

VerifierConfig makeConfig(AbstractDomainKind Domain) {
  VerifierConfig Config;
  Config.Depth = 2;
  Config.Domain = Domain;
  Config.DisjunctCap = 4;
  Config.Limits.TimeoutSeconds = 30.0;
  return Config;
}

std::unique_ptr<DiskCertStore> openOrDie(const std::string &Dir,
                                         const DiskCertStoreOptions &Options =
                                             {}) {
  DiskCertStore::OpenResult Opened = DiskCertStore::open(Dir, Options);
  EXPECT_TRUE(Opened.ok()) << Opened.Error;
  return std::move(Opened.Store);
}

std::vector<uint8_t> readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << Path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(In),
                              std::istreambuf_iterator<char>());
}

void writeFileBytes(const std::string &Path, const std::vector<uint8_t> &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
  ASSERT_TRUE(Out.good()) << Path;
}

/// Record boundaries of one segment, parsed with format knowledge the
/// corruption tests need: each element is the offset of a record start;
/// the first record starts right after the 8-byte segment header.
struct RecordSpan {
  size_t Offset = 0; ///< Of the 16-byte record header.
  size_t Bytes = 0;  ///< Header + payload.
};

std::vector<RecordSpan> parseRecordSpans(const std::vector<uint8_t> &Segment) {
  std::vector<RecordSpan> Spans;
  size_t Offset = 8;
  while (Offset + 16 <= Segment.size()) {
    uint32_t PayloadBytes = 0;
    for (int I = 0; I < 4; ++I)
      PayloadBytes |= static_cast<uint32_t>(Segment[Offset + 4 + I])
                      << (8 * I);
    RecordSpan Span;
    Span.Offset = Offset;
    Span.Bytes = 16 + PayloadBytes;
    EXPECT_LE(Offset + Span.Bytes, Segment.size());
    Spans.push_back(Span);
    Offset += Span.Bytes;
  }
  EXPECT_EQ(Offset, Segment.size());
  return Spans;
}

} // namespace

//===----------------------------------------------------------------------===//
// Warm restart: cached ≡ fresh, across all three abstract domains
//===----------------------------------------------------------------------===//

class DiskStoreRestartTest
    : public ::testing::TestWithParam<AbstractDomainKind> {};

TEST_P(DiskStoreRestartTest, FreshProcessAnswersFromWarmDirByteIdentical) {
  TempStoreDir Dir;
  Dataset Train = figure2Dataset();
  VerifierConfig Config = makeConfig(GetParam());
  const float X[] = {9.5f};

  Certificate Cold;
  {
    // "Process one": verify against a cold store, then shut down.
    Verifier V(Train);
    std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path());
    Config.Cache = Store.get();
    Cold = V.verify(X, /*PoisoningBudget=*/2, Config);
    StoreStats Stats = Store->stats();
    EXPECT_EQ(Stats.Misses, 1u);
    EXPECT_EQ(Stats.Stores, 1u);
  }

  // "Process two": a fresh Verifier and a fresh store handle on the
  // same directory. The first query must be served from disk, verbatim —
  // `Seconds` included, which a re-verification could never reproduce.
  Verifier V(Train);
  std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path());
  EXPECT_EQ(Store->stats().LiveRecords, 1u);
  Config.Cache = Store.get();
  Certificate Warm = V.verify(X, /*PoisoningBudget=*/2, Config);
  StoreStats Stats = Store->stats();
  EXPECT_EQ(Stats.Hits, 1u);
  EXPECT_EQ(Stats.Misses, 0u);
  expectIdenticalCertificates(Cold, Warm);

  // And identical (Seconds aside) to a store-less verification: serving
  // from disk never changes an answer.
  VerifierConfig Fresh = makeConfig(GetParam());
  Certificate Reverified = V.verify(X, /*PoisoningBudget=*/2, Fresh);
  EXPECT_EQ(Warm.Kind, Reverified.Kind);
  EXPECT_EQ(Warm.ConcretePrediction, Reverified.ConcretePrediction);
  EXPECT_EQ(Warm.DominatingClass, Reverified.DominatingClass);
  EXPECT_EQ(Warm.NumTerminals, Reverified.NumTerminals);
  EXPECT_EQ(Warm.PeakDisjuncts, Reverified.PeakDisjuncts);
}

INSTANTIATE_TEST_SUITE_P(AllDomains, DiskStoreRestartTest,
                         ::testing::Values(AbstractDomainKind::Box,
                                           AbstractDomainKind::Disjuncts,
                                           AbstractDomainKind::DisjunctsCapped),
                         [](const auto &Info) {
                           switch (Info.param) {
                           case AbstractDomainKind::Box:
                             return "Box";
                           case AbstractDomainKind::Disjuncts:
                             return "Disjuncts";
                           case AbstractDomainKind::DisjunctsCapped:
                             return "DisjunctsCapped";
                           }
                           return "Unknown";
                         });

//===----------------------------------------------------------------------===//
// Key discipline and verdict discipline
//===----------------------------------------------------------------------===//

TEST(DiskCertStoreTest, DatasetMutationMissesViaFingerprint) {
  TempStoreDir Dir;
  Dataset Train = figure2Dataset();
  Dataset Mutated = figure2Dataset();
  Mutated.addRow({5.0f}, 1);

  std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path());
  VerifierConfig Config = makeConfig(AbstractDomainKind::Disjuncts);
  Config.Cache = Store.get();
  const float X[] = {9.5f};

  Verifier V(Train);
  V.verify(X, 2, Config);

  Verifier VMutated(Mutated);
  ASSERT_NE(V.fingerprint(), VMutated.fingerprint());
  VMutated.verify(X, 2, Config);

  StoreStats Stats = Store->stats();
  EXPECT_EQ(Stats.Hits, 0u);
  EXPECT_EQ(Stats.Misses, 2u);
  EXPECT_EQ(Stats.LiveRecords, 2u);
}

TEST(DiskCertStoreTest, NonDeterministicVerdictsAreNeverPersisted) {
  TempStoreDir Dir;
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path());
  VerifierConfig Config = makeConfig(AbstractDomainKind::Disjuncts);
  const float X[] = {9.5f};

  // Defense in depth: even a store() call that bypasses Verifier's own
  // filter must decline a wall-clock-dependent verdict.
  Certificate TimedOut;
  TimedOut.Kind = VerdictKind::Timeout;
  Store->store(V.fingerprint(), X, 1, 2, Config, TimedOut);
  Certificate Cancelled;
  Cancelled.Kind = VerdictKind::Cancelled;
  Store->store(V.fingerprint(), X, 1, 2, Config, Cancelled);

  StoreStats Stats = Store->stats();
  EXPECT_EQ(Stats.Declined, 2u);
  EXPECT_EQ(Stats.Stores, 0u);
  EXPECT_EQ(Stats.LiveRecords, 0u);
}

TEST(DiskCertStoreTest, DuplicateStoreIsDeclinedNotAppended) {
  TempStoreDir Dir;
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path());
  VerifierConfig Config = makeConfig(AbstractDomainKind::Box);
  Config.Cache = Store.get();
  const float X[] = {9.5f};
  Certificate Cold = V.verify(X, 2, Config);

  // A second offer for the same key (certificates are interchangeable)
  // must not grow the segment.
  Store->store(V.fingerprint(), X, 1, 2, Config, Cold);
  StoreStats Stats = Store->stats();
  EXPECT_EQ(Stats.Stores, 1u);
  EXPECT_EQ(Stats.DuplicatesDeclined, 1u);
  EXPECT_EQ(Stats.LiveRecords, 1u);
}

//===----------------------------------------------------------------------===//
// Corruption tolerance
//===----------------------------------------------------------------------===//

namespace {

/// Seeds a store with one Box certificate per query in \p Queries and
/// returns the store-less reference certificates (index-aligned).
std::vector<Certificate> seedStore(const std::string &Dir, Verifier &V,
                                   const std::vector<float> &Queries) {
  std::vector<Certificate> Expected;
  VerifierConfig Config = makeConfig(AbstractDomainKind::Box);
  std::unique_ptr<DiskCertStore> Store = openOrDie(Dir);
  Config.Cache = Store.get();
  for (float Q : Queries) {
    const float X[] = {Q};
    Expected.push_back(V.verify(X, /*PoisoningBudget=*/1, Config));
  }
  EXPECT_EQ(Store->stats().Stores, Queries.size());
  return Expected;
}

} // namespace

TEST(DiskCertStoreTest, ForeignNonDeterministicRecordIsNotServedBack) {
  // The write-side filter has a read-side twin: a record that *claims*
  // a Timeout verdict but carries a valid checksum (appended by buggy
  // or foreign tooling into a shared directory) must be dropped on
  // open, never served — a cached Timeout could contradict a fresh run.
  TempStoreDir Dir;
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  seedStore(Dir.path(), V, {9.5f});

  std::string Segment = Dir.sub("seg-000001.antcert");
  std::vector<uint8_t> Bytes = readFileBytes(Segment);
  std::vector<RecordSpan> Spans = parseRecordSpans(Bytes);
  ASSERT_EQ(Spans.size(), 1u);
  // Payload layout: 64 bytes of fixed key fields (threat byte included)
  // + one 4-byte query float, then the certificate starting with its
  // Kind byte.
  size_t PayloadOffset = Spans[0].Offset + 16;
  size_t KindOffset = PayloadOffset + 64 + 4;
  ASSERT_LT(KindOffset, Bytes.size());
  Bytes[KindOffset] = 2; // VerdictKind::Timeout.
  // Re-checksum (FNV-1a 64) so the record looks structurally intact.
  uint64_t H = 0xcbf29ce484222325ull;
  for (size_t I = PayloadOffset; I < Spans[0].Offset + Spans[0].Bytes; ++I) {
    H ^= Bytes[I];
    H *= 0x100000001b3ull;
  }
  for (int I = 0; I < 8; ++I)
    Bytes[Spans[0].Offset + 8 + I] = static_cast<uint8_t>(H >> (8 * I));
  writeFileBytes(Segment, Bytes);

  std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path());
  EXPECT_EQ(Store->stats().LiveRecords, 0u);
  EXPECT_EQ(Store->stats().CorruptSkipped, 1u);
  VerifierConfig Config = makeConfig(AbstractDomainKind::Box);
  Certificate Out;
  const float X[] = {9.5f};
  EXPECT_FALSE(Store->lookup(V.fingerprint(), X, 1, 1, Config, Out));
}

TEST(DiskCertStoreTest, CorruptRecordIsSkippedOthersIntact) {
  TempStoreDir Dir;
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  std::vector<float> Queries = {1.5f, 9.5f, 12.5f};
  std::vector<Certificate> Expected = seedStore(Dir.path(), V, Queries);

  // Flip one byte inside the *middle* record's payload.
  std::string Segment = Dir.sub("seg-000001.antcert");
  std::vector<uint8_t> Bytes = readFileBytes(Segment);
  std::vector<RecordSpan> Spans = parseRecordSpans(Bytes);
  ASSERT_EQ(Spans.size(), 3u);
  Bytes[Spans[1].Offset + 16 + 5] ^= 0xFF;
  writeFileBytes(Segment, Bytes);

  std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path());
  StoreStats Stats = Store->stats();
  EXPECT_EQ(Stats.CorruptSkipped, 1u);
  EXPECT_EQ(Stats.LiveRecords, 2u);

  VerifierConfig Config = makeConfig(AbstractDomainKind::Box);
  Config.Cache = Store.get();
  // Records 0 and 2 still hit, byte-identical; the corrupted one misses
  // (and re-verifies rather than serving garbage).
  const float X0[] = {Queries[0]}, X1[] = {Queries[1]}, X2[] = {Queries[2]};
  expectIdenticalCertificates(Expected[0], V.verify(X0, 1, Config));
  expectIdenticalCertificates(Expected[2], V.verify(X2, 1, Config));
  EXPECT_EQ(Store->stats().Hits, 2u);
  Certificate Reverified = V.verify(X1, 1, Config);
  EXPECT_EQ(Store->stats().Misses, 1u);
  EXPECT_EQ(Reverified.Kind, Expected[1].Kind);
}

// The ISSUE's crash-consistency gate (the ASan matrix job runs this
// too): truncate the segment at *every* byte offset — simulating a
// crash mid-append at any point — and assert reopen never returns a
// wrong certificate: records wholly before the cut still hit verbatim,
// everything after it misses, and nothing crashes or leaks.
TEST(DiskCertStoreTest, TruncationAtEveryOffsetNeverServesWrongCertificate) {
  TempStoreDir SeedDir;
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  std::vector<float> Queries = {1.5f, 3.5f, 9.5f, 12.5f};
  std::vector<Certificate> Expected = seedStore(SeedDir.path(), V, Queries);

  std::vector<uint8_t> Bytes =
      readFileBytes(SeedDir.sub("seg-000001.antcert"));
  std::vector<RecordSpan> Spans = parseRecordSpans(Bytes);
  ASSERT_EQ(Spans.size(), Queries.size());

  VerifierConfig Probe = makeConfig(AbstractDomainKind::Box);
  for (size_t Cut = 0; Cut <= Bytes.size(); ++Cut) {
    TempStoreDir Dir;
    writeFileBytes(Dir.sub("seg-000001.antcert"),
                   std::vector<uint8_t>(Bytes.begin(), Bytes.begin() + Cut));
    std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path());
    ASSERT_NE(Store, nullptr) << "cut at " << Cut;
    for (size_t I = 0; I < Queries.size(); ++I) {
      const float X[] = {Queries[I]};
      Certificate Out;
      bool Hit = Store->lookup(V.fingerprint(), X, 1, /*PoisoningBudget=*/1,
                               Probe, Out);
      bool WholeRecordSurvived = Spans[I].Offset + Spans[I].Bytes <= Cut;
      EXPECT_EQ(Hit, WholeRecordSurvived)
          << "cut at " << Cut << ", record " << I;
      if (Hit)
        expectIdenticalCertificates(Expected[I], Out);
    }
  }
}

TEST(DiskCertStoreTest, PostOpenCorruptionDegradesToMissNotWrongCert) {
  // `lookup` re-reads the payload from disk on every hit, so corruption
  // that lands *after* the open-time scan — in the certificate bytes,
  // where the full-key compare cannot see it — must still be caught by
  // the checksum kept in the index and degrade to a miss.
  TempStoreDir Dir;
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  seedStore(Dir.path(), V, {9.5f});

  std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path());
  EXPECT_EQ(Store->stats().LiveRecords, 1u);

  // Flip a byte in the certificate region (past the 64-byte fixed key
  // fields + one 4-byte query float) while the store handle is live.
  std::string Segment = Dir.sub("seg-000001.antcert");
  std::vector<uint8_t> Bytes = readFileBytes(Segment);
  std::vector<RecordSpan> Spans = parseRecordSpans(Bytes);
  ASSERT_EQ(Spans.size(), 1u);
  size_t CertByte = Spans[0].Offset + 16 + 64 + 4 + 2;
  ASSERT_LT(CertByte, Bytes.size());
  Bytes[CertByte] ^= 0xFF;
  writeFileBytes(Segment, Bytes);

  VerifierConfig Config = makeConfig(AbstractDomainKind::Box);
  Certificate Out;
  const float X[] = {9.5f};
  EXPECT_FALSE(Store->lookup(V.fingerprint(), X, 1, 1, Config, Out));
  EXPECT_GE(Store->stats().CorruptSkipped, 1u);
  EXPECT_EQ(Store->stats().Hits, 0u);
}

TEST(DiskCertStoreTest, TornTailIsRepairedAndAppendsStayReachable) {
  TempStoreDir Dir;
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  std::vector<float> Queries = {1.5f, 9.5f};
  std::vector<Certificate> Expected = seedStore(Dir.path(), V, Queries);

  // Tear the last record in half — a crash mid-append.
  std::string Segment = Dir.sub("seg-000001.antcert");
  std::vector<uint8_t> Bytes = readFileBytes(Segment);
  std::vector<RecordSpan> Spans = parseRecordSpans(Bytes);
  size_t Cut = Spans[1].Offset + Spans[1].Bytes / 2;
  writeFileBytes(Segment,
                 std::vector<uint8_t>(Bytes.begin(), Bytes.begin() + Cut));

  // Reopen repairs the tail, then a new append lands after the repair
  // and must be reachable by the *next* open (a scan stops at the first
  // bad boundary, so appending after garbage would strand it).
  {
    std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path());
    EXPECT_EQ(Store->stats().LiveRecords, 1u);
    EXPECT_GE(Store->stats().CorruptSkipped, 1u);
    VerifierConfig Config = makeConfig(AbstractDomainKind::Box);
    Config.Cache = Store.get();
    const float X[] = {12.5f};
    V.verify(X, 1, Config);
    EXPECT_EQ(Store->stats().Stores, 1u);
  }
  std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path());
  EXPECT_EQ(Store->stats().LiveRecords, 2u);
  VerifierConfig Config = makeConfig(AbstractDomainKind::Box);
  Config.Cache = Store.get();
  const float X0[] = {1.5f}, X2[] = {12.5f};
  expectIdenticalCertificates(Expected[0], V.verify(X0, 1, Config));
  V.verify(X2, 1, Config);
  EXPECT_EQ(Store->stats().Hits, 2u);
}

//===----------------------------------------------------------------------===//
// Versioning, compaction, rotation, multi-handle sharing
//===----------------------------------------------------------------------===//

TEST(DiskCertStoreTest, FormatVersionBumpInvalidatesWholeSegment) {
  TempStoreDir Dir;
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  seedStore(Dir.path(), V, {1.5f, 9.5f});

  // Rewrite the segment header's version field: simulates records laid
  // down by a future (or past) format.
  std::string Segment = Dir.sub("seg-000001.antcert");
  std::vector<uint8_t> Bytes = readFileBytes(Segment);
  Bytes[4] = static_cast<uint8_t>(DiskCertStore::FormatVersion + 1);
  writeFileBytes(Segment, Bytes);

  // Auto-compaction off: this test pins the *skip* behavior; the
  // reclaim-on-open path has its own tests below.
  DiskCertStoreOptions NoAuto;
  NoAuto.AutoCompactDeadFraction = 0;
  std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path(), NoAuto);
  StoreStats Stats = Store->stats();
  EXPECT_EQ(Stats.StaleSegments, 1u);
  EXPECT_EQ(Stats.LiveRecords, 0u);
  EXPECT_EQ(Stats.Segments, 0u);

  // New writes must route to a fresh segment, never append behind the
  // foreign-format one, and the next open must see them.
  VerifierConfig Config = makeConfig(AbstractDomainKind::Box);
  Config.Cache = Store.get();
  const float X[] = {9.5f};
  Certificate Cold = V.verify(X, 1, Config);
  EXPECT_EQ(Store->stats().Stores, 1u);
  Store.reset();

  Store = openOrDie(Dir.path(), NoAuto);
  EXPECT_EQ(Store->stats().LiveRecords, 1u);
  Config.Cache = Store.get();
  Certificate Warm = V.verify(X, 1, Config);
  EXPECT_EQ(Store->stats().Hits, 1u);
  expectIdenticalCertificates(Cold, Warm);
}

TEST(DiskCertStoreTest, AutoCompactOnOpenReclaimsStaleSegments) {
  // A format bump leaves the directory dominated by dead bytes; the
  // default options reclaim them on the very next open instead of
  // waiting for an explicit compact().
  TempStoreDir Dir;
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  seedStore(Dir.path(), V, {1.5f, 9.5f});

  std::string Segment = Dir.sub("seg-000001.antcert");
  std::vector<uint8_t> Bytes = readFileBytes(Segment);
  Bytes[4] = static_cast<uint8_t>(DiskCertStore::FormatVersion + 1);
  writeFileBytes(Segment, Bytes);

  // The whole directory is dead (fraction 1.0 > default 0.5): open
  // compacts, unlinking the stale segment.
  std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path());
  StoreStats Stats = Store->stats();
  EXPECT_EQ(Stats.StaleSegments, 1u);
  EXPECT_EQ(Stats.LiveRecords, 0u);
  EXPECT_EQ(Stats.Compactions, 1u);
  struct stat St;
  EXPECT_NE(::stat(Segment.c_str(), &St), 0); // Stale file reclaimed.
}

TEST(DiskCertStoreTest, AutoCompactThresholdGatesTheTrigger) {
  // One corrupt record out of three is ~1/3 dead: a threshold above
  // that must not trigger, one below it must — and live records
  // survive either way.
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  auto SeedAndCorrupt = [&](const std::string &Dir) {
    seedStore(Dir, V, {1.5f, 9.5f, 12.5f});
    std::string Segment = Dir + "/seg-000001.antcert";
    std::vector<uint8_t> Bytes = readFileBytes(Segment);
    std::vector<RecordSpan> Spans = parseRecordSpans(Bytes);
    ASSERT_EQ(Spans.size(), 3u);
    Bytes[Spans[1].Offset + 16 + 5] ^= 0xFF;
    writeFileBytes(Segment, Bytes);
  };

  {
    TempStoreDir Dir;
    SeedAndCorrupt(Dir.path());
    DiskCertStoreOptions High;
    High.AutoCompactDeadFraction = 0.9; // Above ~1/3 dead: no trigger.
    std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path(), High);
    EXPECT_EQ(Store->stats().Compactions, 0u);
    EXPECT_EQ(Store->stats().LiveRecords, 2u);
  }
  {
    TempStoreDir Dir;
    SeedAndCorrupt(Dir.path());
    DiskCertStoreOptions Low;
    Low.AutoCompactDeadFraction = 0.1; // Below ~1/3 dead: triggers.
    std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path(), Low);
    StoreStats Stats = Store->stats();
    EXPECT_EQ(Stats.Compactions, 1u);
    EXPECT_EQ(Stats.LiveRecords, 2u);
    EXPECT_EQ(Stats.Segments, 1u);

    // The surviving records still serve, byte-identical, from the
    // compacted segment — through this handle and a cold reopen.
    VerifierConfig Config = makeConfig(AbstractDomainKind::Box);
    Config.Cache = Store.get();
    const float X0[] = {1.5f}, X2[] = {12.5f};
    V.verify(X0, 1, Config);
    V.verify(X2, 1, Config);
    EXPECT_EQ(Store->stats().Hits, 2u);
    Store.reset();
    Store = openOrDie(Dir.path());
    EXPECT_EQ(Store->stats().LiveRecords, 2u);
  }
}

TEST(DiskCertStoreTest, CompactionDropsDuplicatesAndStaleSegments) {
  TempStoreDir Dir;
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  VerifierConfig Config = makeConfig(AbstractDomainKind::Box);
  const float X[] = {9.5f}, Y[] = {1.5f};

  // Sibling handles no longer race a duplicate in (the journal
  // generation check refreshes the second handle's index on its miss),
  // so plant the duplicate at the byte level — exactly what a writer
  // that crashed between append and journal sync can leave behind: a
  // valid, checksummed record for a key that is already indexed.
  std::unique_ptr<DiskCertStore> A = openOrDie(Dir.path());
  Config.Cache = A.get();
  Certificate Cold = V.verify(X, 1, Config);
  V.verify(Y, 1, Config);
  A.reset();
  {
    std::string Segment = Dir.sub("seg-000001.antcert");
    std::vector<uint8_t> Bytes = readFileBytes(Segment);
    std::vector<RecordSpan> Spans = parseRecordSpans(Bytes);
    ASSERT_EQ(Spans.size(), 2u);
    std::vector<uint8_t> Copy(Bytes.begin() + Spans[0].Offset,
                              Bytes.begin() + Spans[0].Offset +
                                  Spans[0].Bytes);
    Bytes.insert(Bytes.end(), Copy.begin(), Copy.end());
    writeFileBytes(Segment, Bytes);
  }

  std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path());
  EXPECT_EQ(Store->stats().DuplicateRecords, 1u);
  EXPECT_EQ(Store->stats().LiveRecords, 2u);
  // The duplicate occupies file bytes without being indexed; compaction
  // must shrink the *files* (LiveBytes never counted it).
  uint64_t FileBytesBefore =
      readFileBytes(Dir.sub("seg-000001.antcert")).size();

  std::string Error;
  ASSERT_TRUE(Store->compact(&Error)) << Error;
  StoreStats Stats = Store->stats();
  EXPECT_EQ(Stats.Compactions, 1u);
  EXPECT_EQ(Stats.CompactionRecordsDropped, 1u);
  EXPECT_EQ(Stats.LiveRecords, 2u);
  EXPECT_EQ(Stats.Segments, 1u);
  EXPECT_EQ(Stats.DuplicateRecords, 0u);
  EXPECT_LT(readFileBytes(Dir.sub("seg-000002.antcert")).size(),
            FileBytesBefore);

  // Still serving, still byte-identical — through this handle and a
  // fresh open.
  Config.Cache = Store.get();
  expectIdenticalCertificates(Cold, V.verify(X, 1, Config));
  Store.reset();
  Store = openOrDie(Dir.path());
  EXPECT_EQ(Store->stats().LiveRecords, 2u);
  EXPECT_EQ(Store->stats().DuplicateRecords, 0u);
  Config.Cache = Store.get();
  expectIdenticalCertificates(Cold, V.verify(X, 1, Config));
}

TEST(DiskCertStoreTest, CompactionPreservesRecordsFromSiblingHandles) {
  TempStoreDir Dir;
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  VerifierConfig Config = makeConfig(AbstractDomainKind::Box);
  const float X[] = {9.5f}, Y[] = {1.5f};

  // A opens the empty directory; B then appends two certificates A's
  // index has never seen (and, with a tiny rotation budget, a whole
  // segment A does not know exists). A's compaction is a
  // directory-wide rewrite: it must carry B's records over, not
  // destroy them.
  std::unique_ptr<DiskCertStore> A = openOrDie(Dir.path());
  DiskCertStoreOptions Tiny;
  Tiny.MaxSegmentBytes = 1; // B rotates every record into a new segment.
  std::unique_ptr<DiskCertStore> B = openOrDie(Dir.path(), Tiny);
  Config.Cache = B.get();
  Certificate CertX = V.verify(X, 1, Config);
  Certificate CertY = V.verify(Y, 1, Config);
  ASSERT_EQ(B->stats().Stores, 2u);
  B.reset();

  std::string Error;
  ASSERT_TRUE(A->compact(&Error)) << Error;
  EXPECT_EQ(A->stats().LiveRecords, 2u);
  EXPECT_EQ(A->stats().CompactionRecordsDropped, 0u);
  Config.Cache = A.get();
  expectIdenticalCertificates(CertX, V.verify(X, 1, Config));
  expectIdenticalCertificates(CertY, V.verify(Y, 1, Config));
  EXPECT_EQ(A->stats().Hits, 2u);

  // And a fresh open sees exactly the compacted segment.
  A.reset();
  std::unique_ptr<DiskCertStore> C = openOrDie(Dir.path());
  EXPECT_EQ(C->stats().LiveRecords, 2u);
  EXPECT_EQ(C->stats().Segments, 1u);
}

TEST(DiskCertStoreTest, AppendsSurviveSiblingCompaction) {
  TempStoreDir Dir;
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  VerifierConfig Config = makeConfig(AbstractDomainKind::Box);
  const float X[] = {9.5f}, Y[] = {1.5f};

  // B appends, then A compacts (unlinking the segment B's append fd
  // still points at). B's next append must detect the unlinked inode
  // and rotate — writing through the stale fd would "succeed" into an
  // inode that vanishes with the last close.
  std::unique_ptr<DiskCertStore> A = openOrDie(Dir.path());
  std::unique_ptr<DiskCertStore> B = openOrDie(Dir.path());
  Config.Cache = B.get();
  Certificate CertX = V.verify(X, 1, Config);
  std::string Error;
  ASSERT_TRUE(A->compact(&Error)) << Error;
  Certificate CertY = V.verify(Y, 1, Config);
  EXPECT_EQ(B->stats().Stores, 2u);
  A.reset();
  B.reset();

  std::unique_ptr<DiskCertStore> C = openOrDie(Dir.path());
  EXPECT_EQ(C->stats().LiveRecords, 2u);
  Config.Cache = C.get();
  expectIdenticalCertificates(CertX, V.verify(X, 1, Config));
  expectIdenticalCertificates(CertY, V.verify(Y, 1, Config));
  EXPECT_EQ(C->stats().Hits, 2u);
}

TEST(DiskCertStoreTest, SegmentsRotateUnderMaxSegmentBytes) {
  TempStoreDir Dir;
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  DiskCertStoreOptions Options;
  Options.MaxSegmentBytes = 1; // Every record rotates to a new segment.
  std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path(), Options);
  VerifierConfig Config = makeConfig(AbstractDomainKind::Box);
  Config.Cache = Store.get();
  for (float Q : {1.5f, 9.5f, 12.5f}) {
    const float X[] = {Q};
    V.verify(X, 1, Config);
  }
  EXPECT_EQ(Store->stats().Segments, 3u);
  EXPECT_EQ(Store->stats().LiveRecords, 3u);

  // A reopen sees all segments; compaction folds them into one.
  Store.reset();
  Store = openOrDie(Dir.path(), Options);
  EXPECT_EQ(Store->stats().Segments, 3u);
  EXPECT_EQ(Store->stats().LiveRecords, 3u);
  std::string Error;
  ASSERT_TRUE(Store->compact(&Error)) << Error;
  EXPECT_EQ(Store->stats().Segments, 1u);
  EXPECT_EQ(Store->stats().LiveRecords, 3u);
  Config.Cache = Store.get();
  const float X[] = {9.5f};
  V.verify(X, 1, Config);
  EXPECT_EQ(Store->stats().Hits, 1u);
}

TEST(DiskCertStoreTest, UnwritableDirectoryFailsOpenWithClearError) {
  DiskCertStore::OpenResult Opened =
      DiskCertStore::open("/proc/antidote-definitely-not-writable/store");
  EXPECT_FALSE(Opened.ok());
  EXPECT_FALSE(Opened.Error.empty());
  EXPECT_EQ(Opened.Store, nullptr);
}

//===----------------------------------------------------------------------===//
// The two-tier composition
//===----------------------------------------------------------------------===//

TEST(TieredStoreTest, DiskHitIsPromotedToRam) {
  TempStoreDir Dir;
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  VerifierConfig Config = makeConfig(AbstractDomainKind::Disjuncts);
  const float X[] = {9.5f};

  // Process one: write-through seeds both tiers.
  Certificate Cold;
  {
    CertCache Ram(/*MaxBytes=*/0);
    std::unique_ptr<DiskCertStore> Disk = openOrDie(Dir.path());
    TieredStore Tiered(&Ram, Disk.get());
    Config.Cache = &Tiered;
    Cold = V.verify(X, 2, Config);
    StoreStats Stats = Tiered.stats();
    EXPECT_EQ(Stats.Misses, 1u);
    EXPECT_EQ(Ram.stats().Stores, 1u);
    EXPECT_EQ(Disk->stats().Stores, 1u);
  }

  // Process two: RAM is empty, disk is warm. First repeat hits disk and
  // is promoted; the second repeat must hit RAM without touching disk.
  CertCache Ram(/*MaxBytes=*/0);
  std::unique_ptr<DiskCertStore> Disk = openOrDie(Dir.path());
  TieredStore Tiered(&Ram, Disk.get());
  Config.Cache = &Tiered;

  Certificate FirstRepeat = V.verify(X, 2, Config);
  expectIdenticalCertificates(Cold, FirstRepeat);
  StoreStats Stats = Tiered.stats();
  EXPECT_EQ(Stats.DiskHits, 1u);
  EXPECT_EQ(Stats.RamHits, 0u);
  EXPECT_EQ(Ram.stats().Stores, 1u); // The promotion.

  Certificate SecondRepeat = V.verify(X, 2, Config);
  expectIdenticalCertificates(Cold, SecondRepeat);
  Stats = Tiered.stats();
  EXPECT_EQ(Stats.RamHits, 1u);
  EXPECT_EQ(Stats.DiskHits, 1u);          // Unchanged.
  EXPECT_EQ(Disk->stats().Hits, 1u);      // Disk untouched by the repeat.
  // The disk tier declined nothing and appended nothing extra: the
  // promotion is RAM-only, write-through happened once.
  EXPECT_EQ(Disk->stats().Stores, 0u);
  EXPECT_EQ(Disk->stats().LiveRecords, 1u);
}

TEST(TieredStoreTest, RamEvictionFallsBackToDiskAndRepromotes) {
  TempStoreDir Dir;
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  // A RAM tier too small for any entry: every store declines, every
  // lookup falls through — the disk tier alone must keep serving.
  CertCache Ram(/*MaxBytes=*/1);
  std::unique_ptr<DiskCertStore> Disk = openOrDie(Dir.path());
  TieredStore Tiered(&Ram, Disk.get());
  VerifierConfig Config = makeConfig(AbstractDomainKind::Box);
  Config.Cache = &Tiered;
  const float X[] = {9.5f};

  Certificate Cold = V.verify(X, 1, Config);
  Certificate Warm = V.verify(X, 1, Config);
  expectIdenticalCertificates(Cold, Warm);
  StoreStats Stats = Tiered.stats();
  EXPECT_EQ(Stats.Misses, 1u);
  EXPECT_EQ(Stats.DiskHits, 1u);
  EXPECT_EQ(Stats.RamHits, 0u);
  EXPECT_EQ(Ram.stats().Declined, 2u); // Write-through + promotion.
}

TEST(TieredStoreTest, ConcurrentBatchWorkersShareBothTiers) {
  // The TSan CI job runs this: four pool workers hammering one tiered
  // store — RAM probes, disk appends under the flock, promotions —
  // must stay race-free, and every served certificate must match a
  // store-less verification in every deterministic field.
  Rng R(77);
  RandomDatasetSpec Spec;
  Spec.MinRows = 8;
  Spec.MaxRows = 12;
  Dataset Train = makeRandomDataset(R, Spec);
  Verifier V(Train);

  TempStoreDir Dir;
  CertCache Ram(/*MaxBytes=*/4096); // Small: concurrent RAM evictions.
  std::unique_ptr<DiskCertStore> Disk = openOrDie(Dir.path());
  TieredStore Tiered(&Ram, Disk.get());
  VerifierConfig Config = makeConfig(AbstractDomainKind::Disjuncts);
  Config.Cache = &Tiered;

  std::vector<std::vector<float>> Points;
  for (int I = 0; I < 16; ++I)
    Points.push_back(makeRandomQuery(R, Spec));
  std::vector<const float *> Inputs;
  for (int Round = 0; Round < 3; ++Round)
    for (const auto &P : Points)
      Inputs.push_back(P.data());

  std::unique_ptr<ThreadPool> Pool = makeVerificationPool(4);
  std::vector<Certificate> Certs =
      V.verifyBatch(Inputs, 2, Config, Pool.get());

  VerifierConfig Fresh = makeConfig(AbstractDomainKind::Disjuncts);
  for (size_t I = 0; I < Inputs.size(); ++I) {
    Certificate Expected = V.verify(Inputs[I], 2, Fresh);
    EXPECT_EQ(Certs[I].Kind, Expected.Kind) << "query " << I;
    EXPECT_EQ(Certs[I].ConcretePrediction, Expected.ConcretePrediction);
    EXPECT_EQ(Certs[I].NumTerminals, Expected.NumTerminals);
    EXPECT_EQ(Certs[I].PeakDisjuncts, Expected.PeakDisjuncts);
  }
  StoreStats Stats = Tiered.stats();
  EXPECT_EQ(Stats.RamHits + Stats.DiskHits + Stats.Misses, Inputs.size());
  EXPECT_GE(Stats.Misses, 16u); // At least one cold run per point.
  // Every distinct point is on disk exactly once (duplicate offers from
  // racing workers were declined, not appended).
  EXPECT_EQ(Disk->stats().LiveRecords, 16u);

  // And a restart serves all 16 from disk.
  Disk.reset();
  Disk = openOrDie(Dir.path());
  EXPECT_EQ(Disk->stats().LiveRecords, 16u);
  Config.Cache = Disk.get();
  for (const auto &P : Points)
    V.verify(P.data(), 2, Config);
  EXPECT_EQ(Disk->stats().Hits, 16u);
}

TEST(TieredStoreTest, DegradesToSingleTierWhenOneIsAbsent) {
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  VerifierConfig Config = makeConfig(AbstractDomainKind::Box);
  const float X[] = {9.5f};

  // RAM-only tiering behaves like the plain cache.
  CertCache Ram(/*MaxBytes=*/0);
  TieredStore RamOnly(&Ram, nullptr);
  Config.Cache = &RamOnly;
  Certificate Cold = V.verify(X, 1, Config);
  expectIdenticalCertificates(Cold, V.verify(X, 1, Config));
  EXPECT_EQ(RamOnly.stats().RamHits, 1u);

  // Disk-only tiering still serves across handles.
  TempStoreDir Dir;
  std::unique_ptr<DiskCertStore> Disk = openOrDie(Dir.path());
  TieredStore DiskOnly(nullptr, Disk.get());
  Config.Cache = &DiskOnly;
  Certificate DiskCold = V.verify(X, 1, Config);
  expectIdenticalCertificates(DiskCold, V.verify(X, 1, Config));
  EXPECT_EQ(DiskOnly.stats().DiskHits, 1u);
}

//===----------------------------------------------------------------------===//
// Radius-range lookup across restarts: the serving lattice on disk
//===----------------------------------------------------------------------===//

namespace {

/// A synthetic *original* proof at \p Radius (`CertifiedRadius` equals
/// the key's budget, so the record joins the range index on load).
Certificate makeProof(VerdictKind Kind, uint32_t Radius) {
  Certificate Cert;
  Cert.Kind = Kind;
  Cert.PoisoningBudget = Radius;
  Cert.CertifiedRadius = Radius;
  Cert.NumTerminals = 1;
  return Cert;
}

DatasetFingerprint someFingerprint() {
  DatasetFingerprint FP;
  FP.Hi = 0x1234;
  FP.Lo = 0x5678;
  return FP;
}

} // namespace

TEST(DiskStoreRangeTest, ColdProcessAnswersNarrowerBudgetViaRange) {
  TempStoreDir Dir;
  VerifierConfig Config = makeConfig(AbstractDomainKind::Disjuncts);
  DatasetFingerprint FP = someFingerprint();
  const float X[] = {1.0f};

  // Process one proves Robust at radius 5 and exits.
  {
    std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path());
    Store->store(FP, X, 1, 5, Config, makeProof(VerdictKind::Robust, 5));
  }

  // Process two never saw that query: the rebuilt index must serve the
  // narrower budget from the persisted proof, radius intact (the v2
  // payload round-trips CertifiedRadius).
  std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path());
  Certificate Out;
  ASSERT_TRUE(Store->lookup(FP, X, 1, 3, Config, Out));
  EXPECT_EQ(Out.Kind, VerdictKind::Robust);
  EXPECT_EQ(Out.PoisoningBudget, 3u);
  EXPECT_EQ(Out.CertifiedRadius, 5u);
  EXPECT_EQ(Store->stats().RangeHits, 1u);

  // The exact budget is a plain hit; wider than the proof is a miss.
  ASSERT_TRUE(Store->lookup(FP, X, 1, 5, Config, Out));
  EXPECT_EQ(Out.CertifiedRadius, 5u);
  EXPECT_FALSE(Store->lookup(FP, X, 1, 6, Config, Out));
  StoreStats Stats = Store->stats();
  EXPECT_EQ(Stats.Hits, 1u);
  EXPECT_EQ(Stats.Misses, 1u);
}

TEST(DiskStoreRangeTest, UnknownServesWiderBudgetAcrossRestart) {
  TempStoreDir Dir;
  VerifierConfig Config = makeConfig(AbstractDomainKind::Disjuncts);
  DatasetFingerprint FP = someFingerprint();
  const float X[] = {1.0f};
  {
    std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path());
    Store->store(FP, X, 1, 2, Config, makeProof(VerdictKind::Unknown, 2));
  }

  std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path());
  Certificate Out;
  ASSERT_TRUE(Store->lookup(FP, X, 1, 4, Config, Out));
  EXPECT_EQ(Out.Kind, VerdictKind::Unknown);
  EXPECT_EQ(Out.PoisoningBudget, 4u);
  EXPECT_EQ(Out.CertifiedRadius, 2u);
  EXPECT_FALSE(Store->lookup(FP, X, 1, 1, Config, Out));
}

TEST(DiskStoreRangeTest, CompactionRebuildsTheRangeIndex) {
  TempStoreDir Dir;
  VerifierConfig Config = makeConfig(AbstractDomainKind::Disjuncts);
  DatasetFingerprint FP = someFingerprint();
  const float X[] = {1.0f};
  std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path());
  Store->store(FP, X, 1, 5, Config, makeProof(VerdictKind::Robust, 5));
  Store->store(FP, X, 1, 8, Config, makeProof(VerdictKind::Unknown, 8));

  std::string Error;
  ASSERT_TRUE(Store->compact(&Error)) << Error;

  Certificate Out;
  ASSERT_TRUE(Store->lookup(FP, X, 1, 3, Config, Out));
  EXPECT_EQ(Out.Kind, VerdictKind::Robust);
  EXPECT_EQ(Out.CertifiedRadius, 5u);
  ASSERT_TRUE(Store->lookup(FP, X, 1, 9, Config, Out));
  EXPECT_EQ(Out.Kind, VerdictKind::Unknown);
  EXPECT_EQ(Out.CertifiedRadius, 8u);

  // And again from a cold open of the compacted directory.
  std::unique_ptr<DiskCertStore> Reopened = openOrDie(Dir.path());
  ASSERT_TRUE(Reopened->lookup(FP, X, 1, 3, Config, Out));
  EXPECT_EQ(Out.CertifiedRadius, 5u);
}

TEST(DiskStoreRangeTest, OffBudgetRecordServesExactOnly) {
  TempStoreDir Dir;
  VerifierConfig Config = makeConfig(AbstractDomainKind::Disjuncts);
  DatasetFingerprint FP = someFingerprint();
  const float X[] = {1.0f};
  std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path());

  // A record whose radius differs from its key's budget (what a
  // promoted range-served answer would look like if it were ever
  // written through) must not join the range index.
  Certificate Promoted = makeProof(VerdictKind::Robust, 5);
  Promoted.PoisoningBudget = 3;
  Store->store(FP, X, 1, 3, Config, Promoted);

  Certificate Out;
  EXPECT_FALSE(Store->lookup(FP, X, 1, 2, Config, Out));
  ASSERT_TRUE(Store->lookup(FP, X, 1, 3, Config, Out));
  EXPECT_EQ(Out.CertifiedRadius, 5u);
  EXPECT_EQ(Store->stats().RangeHits, 0u);

  // Same discipline after a cold reload of the segment.
  Store.reset();
  std::unique_ptr<DiskCertStore> Reopened = openOrDie(Dir.path());
  EXPECT_FALSE(Reopened->lookup(FP, X, 1, 2, Config, Out));
}

TEST(TieredStoreTest, DiskRangeHitPromotesAsExactOnly) {
  TempStoreDir Dir;
  VerifierConfig Config = makeConfig(AbstractDomainKind::Disjuncts);
  DatasetFingerprint FP = someFingerprint();
  const float X[] = {1.0f};
  std::unique_ptr<DiskCertStore> Disk = openOrDie(Dir.path());
  Disk->store(FP, X, 1, 5, Config, makeProof(VerdictKind::Robust, 5));

  CertCache Ram(/*MaxBytes=*/0);
  TieredStore Tiered(&Ram, Disk.get());

  // RAM misses, disk range-serves, the answer is promoted under the
  // queried budget 3.
  Certificate Out;
  ASSERT_TRUE(Tiered.lookup(FP, X, 1, 3, Config, Out));
  EXPECT_EQ(Out.CertifiedRadius, 5u);
  EXPECT_EQ(Disk->stats().RangeHits, 1u);
  EXPECT_EQ(Ram.stats().Stores, 1u);

  // Exact repeats of budget 3 now hit RAM...
  ASSERT_TRUE(Tiered.lookup(FP, X, 1, 3, Config, Out));
  EXPECT_EQ(Ram.stats().Hits, 1u);
  EXPECT_EQ(Disk->stats().RangeHits, 1u);

  // ...but the promoted copy (radius 5 under budget 3) stayed out of
  // the RAM range index: budget 2 falls through to the disk tier's
  // original proof instead of being served twice over from RAM.
  ASSERT_TRUE(Tiered.lookup(FP, X, 1, 2, Config, Out));
  EXPECT_EQ(Out.CertifiedRadius, 5u);
  EXPECT_EQ(Ram.stats().RangeHits, 0u);
  EXPECT_EQ(Disk->stats().RangeHits, 2u);
}

TEST(DiskCertStoreTest, RetentionEvictsOldestSegmentsButNeverTheOpenOne) {
  TempStoreDir Dir;
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  VerifierConfig Config = makeConfig(AbstractDomainKind::Box);

  // One record per segment (a record plus the segment header is ~152
  // bytes; rotating past 160 isolates each append), with room for two
  // closed segments plus the open one in the byte budget.
  DiskCertStoreOptions Options;
  Options.MaxSegmentBytes = 160;
  Options.RetentionBytes = 320;
  std::unique_ptr<DiskCertStore> Store = openOrDie(Dir.path(), Options);
  Config.Cache = Store.get();

  std::vector<float> Queries = {1.5f, 4.5f, 9.5f, 12.5f};
  Certificate Last;
  for (float Q : Queries) {
    const float X[] = {Q};
    Last = V.verify(X, /*PoisoningBudget=*/1, Config);
  }

  StoreStats Stats = Store->stats();
  EXPECT_GT(Stats.RetentionEvictedSegments, 0u);
  EXPECT_LT(Stats.LiveRecords, Queries.size());
  // Renumbering retires the old epoch so replicas full-resync instead
  // of silently skipping the evicted serials.
  EXPECT_GT(Stats.Epoch, 1u);

  // The newest record rode the open append segment, which retention
  // must never touch: it still serves, byte-identical.
  const float X[] = {Queries.back()};
  Certificate Out;
  ASSERT_TRUE(
      Store->lookup(V.fingerprint(), X, 1, 1, Config, Out));
  expectIdenticalCertificates(Last, Out);

  // The degenerate budget: every append overshoots one byte, yet the
  // record just written must survive its own store.
  TempStoreDir TinyDir;
  DiskCertStoreOptions Tiny;
  Tiny.MaxSegmentBytes = 160;
  Tiny.RetentionBytes = 1;
  std::unique_ptr<DiskCertStore> TinyStore = openOrDie(TinyDir.path(), Tiny);
  VerifierConfig TinyConfig = makeConfig(AbstractDomainKind::Box);
  TinyConfig.Cache = TinyStore.get();
  Certificate Fresh = V.verify(X, /*PoisoningBudget=*/1, TinyConfig);
  ASSERT_TRUE(
      TinyStore->lookup(V.fingerprint(), X, 1, 1, TinyConfig, Out));
  expectIdenticalCertificates(Fresh, Out);
  EXPECT_GE(TinyStore->stats().LiveRecords, 1u);
}

TEST(DiskCertStoreTest, ReadOnlyOpenServesBesideALiveWriter) {
  TempStoreDir Dir;
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  VerifierConfig Config = makeConfig(AbstractDomainKind::Box);

  // The writer stays open — and keeps the writer flock — for the whole
  // test; a pure replica or diagnostic reader must not need it.
  std::unique_ptr<DiskCertStore> Writer = openOrDie(Dir.path());
  Config.Cache = Writer.get();
  const float X[] = {9.5f};
  Certificate Cold = V.verify(X, /*PoisoningBudget=*/2, Config);

  DiskCertStoreOptions ReadOnly;
  ReadOnly.ReadOnly = true;
  std::unique_ptr<DiskCertStore> Reader = openOrDie(Dir.path(), ReadOnly);
  ASSERT_NE(Reader, nullptr);

  Certificate Out;
  ASSERT_TRUE(Reader->lookup(V.fingerprint(), X, 1, 2, Config, Out));
  expectIdenticalCertificates(Cold, Out);

  // Writes decline (counted, not crashed), and compaction refuses:
  // both would mutate a directory this handle does not own.
  Reader->store(V.fingerprint(), X, 1, 3, Config, Cold);
  StoreStats Stats = Reader->stats();
  EXPECT_EQ(Stats.Stores, 0u);
  EXPECT_GE(Stats.Declined, 1u);
  std::string Error;
  EXPECT_FALSE(Reader->compact(&Error));
  EXPECT_FALSE(Error.empty());

  // A record the writer appends after the read-only open is picked up
  // on the reader's next miss via the journal generation check.
  const float Y[] = {1.5f};
  Certificate Later = V.verify(Y, /*PoisoningBudget=*/1, Config);
  Certificate Seen;
  ASSERT_TRUE(Reader->lookup(V.fingerprint(), Y, 1, 1, Config, Seen));
  expectIdenticalCertificates(Later, Seen);
  EXPECT_GE(Reader->stats().IndexRefreshes, 1u);
}

//===----------------------------------------------------------------------===//
// Byte goldens: the segment and journal layouts, every byte pinned
//===----------------------------------------------------------------------===//

namespace {

/// Stores one certificate whose key and certificate fields all carry
/// distinct multi-byte values into a fresh store at \p Dir, so a
/// reordered, resized or byte-swapped field moves at least one byte of
/// the goldens below. Returns the stored certificate.
Certificate writeGoldenStore(const std::string &Dir, DatasetFingerprint &FP,
                             VerifierConfig &Config) {
  FP.Hi = 0x0102030405060708ULL;
  FP.Lo = 0x1112131415161718ULL;
  Config.Depth = 3;
  Config.Domain = AbstractDomainKind::DisjunctsCapped;
  Config.Threat = ThreatModelKind::LabelFlip;
  Config.Cprob = CprobTransformerKind::NaiveInterval;
  Config.Gini = GiniLiftingKind::NaturalLifting;
  Config.DisjunctCap = 33;
  Config.Limits.TimeoutSeconds = 2.5;
  Config.Limits.MaxDisjuncts = 0x10000;
  Config.Limits.MaxStateBytes = 0x123456789ULL;

  Certificate Cert;
  Cert.Kind = VerdictKind::Robust;
  Cert.PoisoningBudget = 5;
  Cert.CertifiedRadius = 7;
  Cert.Depth = 3;
  Cert.Domain = AbstractDomainKind::DisjunctsCapped;
  Cert.Threat = ThreatModelKind::LabelFlip;
  Cert.ConcretePrediction = 1;
  Cert.DominatingClass = 1;
  Cert.NumTerminals = 0x0A0B0C0D0EULL;
  Cert.PeakDisjuncts = 0x10001;
  Cert.PeakStateBytes = 0x1122334455667788ULL;
  Cert.BestSplitCalls = 0xABCDEF;
  Cert.Seconds = 0.125;

  const float X[] = {1.5f, -0.0f};
  std::unique_ptr<DiskCertStore> Store = openOrDie(Dir);
  Store->store(FP, X, 2, /*PoisoningBudget=*/5, Config, Cert);
  EXPECT_EQ(Store->stats().Stores, 1u);
  return Cert;
}

void expectBytes(const std::vector<uint8_t> &Got, const uint8_t *Expected,
                 size_t Size) {
  ASSERT_EQ(Got.size(), Size);
  for (size_t I = 0; I < Size; ++I)
    EXPECT_EQ(Got[I], Expected[I]) << "byte " << I;
}

} // namespace

TEST(DiskFormatGoldenTest, SegmentHeaderAndRecord) {
  TempStoreDir Dir;
  DatasetFingerprint FP;
  VerifierConfig Config;
  Certificate Stored = writeGoldenStore(Dir.path(), FP, Config);

  const uint8_t Expected[] = {
      // Segment header.
      'A', 'C', 'S', 'T',                             // magic
      0x03, 0x00, 0x00, 0x00,                         // format version 3
      // Record header.
      'C', 'E', 'R', 'T',                             // magic
      0x84, 0x00, 0x00, 0x00,                         // payload = 132
      0x59, 0x34, 0x7D, 0x92, 0x7D, 0xF4, 0x24, 0x19, // FNV-1a 64
      // Payload, key section.
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // fingerprint hi
      0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11, // fingerprint lo
      0x05, 0x00, 0x00, 0x00,                         // poisoningBudget
      0x03, 0x00, 0x00, 0x00,                         // depth
      0x02,                                           // domain
      0x01,                                           // cprob
      0x01,                                           // gini
      0x01,                                           // threat
      0x21, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // disjunctCap
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x40, // timeout 2.5
      0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, // maxDisjuncts
      0x89, 0x67, 0x45, 0x23, 0x01, 0x00, 0x00, 0x00, // maxStateBytes
      0x02, 0x00, 0x00, 0x00,                         // numFeatures
      0x00, 0x00, 0xC0, 0x3F,                         // 1.5f
      0x00, 0x00, 0x00, 0x80,                         // -0.0f
      // Payload, certificate section.
      0x00,                                           // kind = Robust
      0x05, 0x00, 0x00, 0x00,                         // poisoningBudget
      0x03, 0x00, 0x00, 0x00,                         // depth
      0x02,                                           // domain
      0x01,                                           // threat
      0x01, 0x00, 0x00, 0x00,                         // concretePrediction
      0x01,                                           // hasDominating
      0x01, 0x00, 0x00, 0x00,                         // dominatingClass
      0x0E, 0x0D, 0x0C, 0x0B, 0x0A, 0x00, 0x00, 0x00, // numTerminals
      0x01, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, // peakDisjuncts
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, // peakStateBytes
      0xEF, 0xCD, 0xAB, 0x00,                         // bestSplitCalls
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xC0, 0x3F, // seconds = 0.125
      0x07, 0x00, 0x00, 0x00,                         // certifiedRadius
  };
  expectBytes(readFileBytes(Dir.sub("seg-000001.antcert")), Expected,
              sizeof(Expected));

  // The pinned bytes decode back to the stored certificate.
  std::unique_ptr<DiskCertStore> Reopened = openOrDie(Dir.path());
  EXPECT_EQ(Reopened->stats().LiveRecords, 1u);
  const float X[] = {1.5f, -0.0f};
  Certificate Out;
  ASSERT_TRUE(Reopened->lookup(FP, X, 2, 5, Config, Out));
  expectIdenticalCertificates(Stored, Out);
  EXPECT_EQ(Out.Threat, Stored.Threat);
}

TEST(DiskFormatGoldenTest, JournalHeaderAndEntry) {
  TempStoreDir Dir;
  DatasetFingerprint FP;
  VerifierConfig Config;
  writeGoldenStore(Dir.path(), FP, Config);

  const uint8_t Expected[] = {
      // Header.
      'A', 'C', 'T', 'J',                             // magic
      0x01, 0x00, 0x00, 0x00,                         // format version 1
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // epoch 1
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // generation 2
      // Entry for serial 1.
      0x01, 0x00, 0x00, 0x00,                         // segment 1
      0x94, 0x00, 0x00, 0x00,                         // record bytes 148
      0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // offset 8
      0x59, 0x34, 0x7D, 0x92, 0x7D, 0xF4, 0x24, 0x19, // payload checksum
  };
  expectBytes(readFileBytes(Dir.sub("journal.antj")), Expected,
              sizeof(Expected));
}

//===----------------------------------------------------------------------===//
// Enum bytes are range-checked on every read path
//===----------------------------------------------------------------------===//

namespace {

/// Recomputes the FNV-1a 64 payload checksum of the record at \p Span
/// in place, so a patched record looks structurally intact.
void rechecksum(std::vector<uint8_t> &Segment, const RecordSpan &Span) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (size_t I = Span.Offset + 16; I < Span.Offset + Span.Bytes; ++I) {
    H ^= Segment[I];
    H *= 0x100000001b3ull;
  }
  for (int I = 0; I < 8; ++I)
    Segment[Span.Offset + 8 + I] = static_cast<uint8_t>(H >> (8 * I));
}

} // namespace

TEST(DiskCertStoreTest, OutOfRangeEnumBytesAreCorruptOnApplyAndOpen) {
  // A record whose checksum is intact but whose enum bytes name no
  // enumerator must be rejected exactly like the wire decoder rejects
  // it — otherwise a lookup would serve a certificate the server could
  // not even put on the wire.
  TempStoreDir Source;
  Dataset Train = figure2Dataset();
  Verifier V(Train);
  seedStore(Source.path(), V, {9.5f});
  std::vector<uint8_t> Segment =
      readFileBytes(Source.sub("seg-000001.antcert"));
  std::vector<RecordSpan> Spans = parseRecordSpans(Segment);
  ASSERT_EQ(Spans.size(), 1u);
  const RecordSpan Span = Spans[0];

  // Payload offsets (one query feature): the key's domain, cprob, gini
  // and threat bytes at 24..27; the certificate starts at 64 + 4 with
  // its kind byte, then domain at +9, threat at +10, hasDominating at
  // +15.
  struct Patch {
    size_t PayloadOffset;
    uint8_t Value;
    const char *Field;
  };
  const Patch Patches[] = {
      {24, 3, "key domain"},
      {25, 2, "key cprob"},
      {26, 2, "key gini"},
      {27, 2, "key threat"},
      {68 + 9, 7, "cert domain"},
      {68 + 10, 2, "cert threat"},
      {68 + 15, 2, "cert hasDominating"},
  };

  TempStoreDir ReplicaDir;
  std::unique_ptr<DiskCertStore> Replica = openOrDie(ReplicaDir.path());
  ReplicationEndpoint *End = Replica->replication();
  ASSERT_NE(End, nullptr);
  for (const Patch &P : Patches) {
    std::vector<uint8_t> Mutant = Segment;
    Mutant[Span.Offset + 16 + P.PayloadOffset] = P.Value;
    rechecksum(Mutant, Span);

    EXPECT_EQ(End->applyReplicatedRecord(Mutant.data() + Span.Offset,
                                         Span.Bytes),
              ReplicationEndpoint::ApplyResult::Corrupt)
        << P.Field;

    TempStoreDir Patched;
    writeFileBytes(Patched.sub("seg-000001.antcert"), Mutant);
    std::unique_ptr<DiskCertStore> Opened = openOrDie(Patched.path());
    EXPECT_EQ(Opened->stats().LiveRecords, 0u) << P.Field;
    EXPECT_EQ(Opened->stats().CorruptSkipped, 1u) << P.Field;
  }
  EXPECT_EQ(Replica->stats().LiveRecords, 0u);

  // The unpatched record still applies: the patches, not the record,
  // were rejected.
  EXPECT_EQ(End->applyReplicatedRecord(Segment.data() + Span.Offset,
                                       Span.Bytes),
            ReplicationEndpoint::ApplyResult::Applied);
  EXPECT_EQ(Replica->stats().LiveRecords, 1u);
}

//===----------------------------------------------------------------------===//
// A sibling's append of the key being stored
//===----------------------------------------------------------------------===//

TEST(DiskCertStoreTest, SiblingAppendOfTheSameKeyIsDeclinedNotDuplicated) {
  // Handle A only learns of B's record for K1 while appending K1 itself
  // (the journal sync under the flock); that record must be declined
  // as a duplicate, not appended a second time and double-counted.
  TempStoreDir Dir;
  VerifierConfig Config = makeConfig(AbstractDomainKind::Box);
  DatasetFingerprint FP = someFingerprint();
  const float K0[] = {1.0f};
  const float K1[] = {2.0f};
  std::unique_ptr<DiskCertStore> A = openOrDie(Dir.path());
  std::unique_ptr<DiskCertStore> B = openOrDie(Dir.path());
  A->store(FP, K0, 1, 1, Config, makeProof(VerdictKind::Robust, 1));
  B->store(FP, K1, 1, 1, Config, makeProof(VerdictKind::Robust, 1));
  A->store(FP, K1, 1, 1, Config, makeProof(VerdictKind::Robust, 1));

  StoreStats Stats = A->stats();
  EXPECT_EQ(Stats.Stores, 1u);
  EXPECT_EQ(Stats.DuplicatesDeclined, 1u);
  EXPECT_EQ(Stats.LiveRecords, 2u);
  std::unique_ptr<DiskCertStore> Fresh = openOrDie(Dir.path());
  EXPECT_EQ(Fresh->stats().LiveRecords, 2u);
  EXPECT_EQ(Fresh->stats().DuplicateRecords, 0u);

  // The replication path takes the same decline: C applies the bytes
  // of a record D appended after C last looked.
  TempStoreDir Dir2;
  std::unique_ptr<DiskCertStore> C = openOrDie(Dir2.path());
  std::unique_ptr<DiskCertStore> D = openOrDie(Dir2.path());
  D->store(FP, K1, 1, 1, Config, makeProof(VerdictKind::Robust, 1));
  std::vector<uint8_t> Segment = readFileBytes(Dir2.sub("seg-000001.antcert"));
  std::vector<RecordSpan> Spans = parseRecordSpans(Segment);
  ASSERT_EQ(Spans.size(), 1u);
  EXPECT_EQ(C->replication()->applyReplicatedRecord(
                Segment.data() + Spans[0].Offset, Spans[0].Bytes),
            ReplicationEndpoint::ApplyResult::Duplicate);
  EXPECT_EQ(C->stats().LiveRecords, 1u);
  EXPECT_EQ(C->stats().Stores, 0u);
  std::unique_ptr<DiskCertStore> Fresh2 = openOrDie(Dir2.path());
  EXPECT_EQ(Fresh2->stats().LiveRecords, 1u);
  EXPECT_EQ(Fresh2->stats().DuplicateRecords, 0u);
}
