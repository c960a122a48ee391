//===- serving/ServingOptions.h - Shared serving-flag parsing --*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one home of every serving-layer knob the front ends share:
/// parallelism, store composition (RAM cache / disk store / retention),
/// the threat model, network serving, and replication. Each knob is one
/// row of an option table carrying the flag, its `ANTIDOTE_*` env twin,
/// the parse rule, and the help text — `parse` walks the table (env
/// twins first, then flags, so a flag always beats its twin), and
/// `printHelp` renders the same table, so a new knob added as one row
/// surfaces in both front ends and their `--help` at once.
///
/// `parse` consumes the flags it recognizes and compacts the rest of
/// argv in place, letting each front end keep its own mode flags
/// (`--serve`, `--csv`, ...) on top. Malformed values — flag or env
/// twin alike — are reported to stderr and fail the parse; the shared
/// policy is that garbage never silently becomes a default.
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_SERVING_SERVINGOPTIONS_H
#define ANTIDOTE_SERVING_SERVINGOPTIONS_H

#include "abstract/ThreatModel.h"

#include <cstdint>
#include <cstdio>
#include <string>

namespace antidote {

/// Every shared serving knob, defaulted; `parse` overwrites from the
/// environment and argv. The front ends translate these into
/// `CertServerConfig` / `NetServerConfig` / `DiskCertStoreOptions` /
/// `ReplicatorConfig` at wiring time.
struct ServingOptions {
  // Parallelism (0 = all cores on each axis).
  unsigned Jobs = 1;         ///< Batch/serve worker threads.
  unsigned FrontierJobs = 1; ///< Executors inside one DTrace# frontier.

  // Store composition.
  uint64_t CacheBytes = 0;     ///< RAM-tier byte budget; 0 = unbounded.
  bool CacheEnabled = false;   ///< --cache-bytes/--cache-dir/env seen.
  std::string CacheDir;        ///< Persistent store directory; "" = off.
  uint64_t RetentionBytes = 0; ///< Disk-store segment-byte budget; 0 = off.
  bool DeltaSlack = true;      ///< Lineage-parent delta serving.

  ThreatModelKind Threat = ThreatModelKind::Removal;

  // Network serving.
  bool Listen = false;      ///< --listen/ANTIDOTE_LISTEN seen.
  uint16_t ListenPort = 0;  ///< 0 = kernel-assigned.
  uint64_t MaxClients = 64; ///< Concurrent connections; 0 = unbounded.
  uint64_t ShedDepth = 0;   ///< Queue depth that sheds; 0 = never.
  double ClientRate = 0.0;  ///< Per-client admits/second; 0 = unpaced.
  double ClientBurst = 8.0; ///< Per-client token-bucket capacity.

  // Replication (the replica side; the source side is just --listen).
  bool Replicate = false;        ///< --replicate-from/env seen.
  std::string ReplicateHost;     ///< Source host (name or address).
  uint16_t ReplicatePort = 0;    ///< Source port (1-65535).
  double ReplicateInterval = 1.0; ///< Seconds between polls when caught up.

  /// The single entry point: applies the `ANTIDOTE_*` env twins, then
  /// scans argv, consuming every flag the table knows and compacting
  /// the unrecognized remainder in place (\p Argc is rewritten). False
  /// when any value — flag or env — is malformed; the error has
  /// already been printed to stderr.
  bool parse(int &Argc, char **Argv);

  /// Renders the option table: one block of `flag / env twin / default /
  /// description` lines, shared verbatim by every front end's --help.
  static void printHelp(std::FILE *Out);
};

} // namespace antidote

#endif // ANTIDOTE_SERVING_SERVINGOPTIONS_H
