//===- serving/ServingOptions.cpp - Shared serving-flag parsing ---------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "serving/ServingOptions.h"

#include "support/Parse.h"

#include <climits>
#include <cstring>
#include <optional>

using namespace antidote;

namespace {

/// How a row's value text is parsed and checked.
enum class OptKind : uint8_t {
  Unsigned, ///< Whole base-10 integer in [0, Max].
  Double,   ///< Finite double >= Min.
  Threat,   ///< 'removal' | 'flip'.
  Text,     ///< Free-form (paths); validation belongs to the consumer.
  HostPort, ///< HOST:PORT with a nonempty host and port in [1, 65535].
};

/// One knob: flag, env twin, parse rule, help text, and the setter that
/// lands the parsed value in `ServingOptions`. `--help` renders these
/// rows verbatim, so the table is the single source of truth.
struct OptRow {
  const char *Flag;
  const char *Env; ///< Null = no env twin.
  OptKind Kind;
  uint64_t Max;            ///< Unsigned bound.
  double Min;              ///< Double bound.
  const char *ZeroMeaning; ///< What 0 means (unsigned error text/help).
  const char *Meta;        ///< Value placeholder for the help line.
  const char *Default;     ///< Default, as help text.
  const char *Help;        ///< One-line description.
  void (*Apply)(ServingOptions &O, uint64_t U, double D, const char *S);
};

const OptRow Rows[] = {
    {"--jobs", "ANTIDOTE_JOBS", OptKind::Unsigned, UINT_MAX, 0.0,
     "all cores", "N", "1", "worker threads for batch/serve modes",
     [](ServingOptions &O, uint64_t U, double, const char *) {
       O.Jobs = static_cast<unsigned>(U);
     }},
    {"--frontier-jobs", "ANTIDOTE_FRONTIER_JOBS", OptKind::Unsigned,
     UINT_MAX, 0.0, "all cores", "N", "1",
     "executors inside one query's DTrace# frontier",
     [](ServingOptions &O, uint64_t U, double, const char *) {
       O.FrontierJobs = static_cast<unsigned>(U);
     }},
    {"--threat", "ANTIDOTE_THREAT", OptKind::Threat, 0, 0.0, nullptr,
     "removal|flip", "removal",
     "poisoning model: rows added ('removal') or relabeled ('flip')",
     [](ServingOptions &O, uint64_t U, double, const char *) {
       O.Threat = static_cast<ThreatModelKind>(U);
     }},
    {"--cache-bytes", "ANTIDOTE_CACHE_BYTES", OptKind::Unsigned,
     UINT64_MAX, 0.0, "unbounded", "B", "off",
     "RAM certificate-cache byte budget",
     [](ServingOptions &O, uint64_t U, double, const char *) {
       O.CacheBytes = U;
       O.CacheEnabled = true;
     }},
    {"--cache-dir", "ANTIDOTE_CACHE_DIR", OptKind::Text, 0, 0.0, nullptr,
     "DIR", "off", "persistent certificate-store directory",
     [](ServingOptions &O, uint64_t, double, const char *S) {
       O.CacheDir = S;
       O.CacheEnabled = true;
     }},
    {"--store-retention-bytes", "ANTIDOTE_STORE_RETENTION_BYTES",
     OptKind::Unsigned, UINT64_MAX, 0.0, "unbounded", "B", "0",
     "disk-store segment budget; oldest segments evicted first",
     [](ServingOptions &O, uint64_t U, double, const char *) {
       O.RetentionBytes = U;
     }},
    {"--delta-slack", "ANTIDOTE_DELTA_SLACK", OptKind::Unsigned, 1, 0.0,
     "disabled", "0|1", "1",
     "serve from a lineage parent's certificates on a store miss",
     [](ServingOptions &O, uint64_t U, double, const char *) {
       O.DeltaSlack = U != 0;
     }},
    {"--listen", "ANTIDOTE_LISTEN", OptKind::Unsigned, 65535, 0.0,
     "kernel-assigned port", "PORT", "off",
     "serve the binary protocol on 127.0.0.1:PORT",
     [](ServingOptions &O, uint64_t U, double, const char *) {
       O.ListenPort = static_cast<uint16_t>(U);
       O.Listen = true;
     }},
    {"--max-clients", "ANTIDOTE_MAX_CLIENTS", OptKind::Unsigned,
     UINT64_MAX, 0.0, "unbounded", "N", "64",
     "concurrent connections; extra accepts are closed",
     [](ServingOptions &O, uint64_t U, double, const char *) {
       O.MaxClients = U;
     }},
    {"--shed-depth", "ANTIDOTE_SHED_DEPTH", OptKind::Unsigned, UINT64_MAX,
     0.0, "never shed", "N", "0",
     "verification-queue depth at which new work is shed",
     [](ServingOptions &O, uint64_t U, double, const char *) {
       O.ShedDepth = U;
     }},
    {"--client-rate", "ANTIDOTE_CLIENT_RATE", OptKind::Double, 0, 0.0,
     nullptr, "R", "0", "per-client admitted requests/second (0 = unpaced)",
     [](ServingOptions &O, uint64_t, double D, const char *) {
       O.ClientRate = D;
     }},
    {"--client-burst", "ANTIDOTE_CLIENT_BURST", OptKind::Double, 0, 1.0,
     nullptr, "B", "8", "token-bucket capacity one client may burst",
     [](ServingOptions &O, uint64_t, double D, const char *) {
       O.ClientBurst = D;
     }},
    {"--replicate-from", "ANTIDOTE_REPLICATE_FROM", OptKind::HostPort, 0,
     0.0, nullptr, "HOST:PORT", "off",
     "pull certificates from a source server's journal",
     [](ServingOptions &O, uint64_t U, double, const char *S) {
       O.ReplicateHost = S;
       O.ReplicatePort = static_cast<uint16_t>(U);
       O.Replicate = true;
     }},
    {"--replicate-interval", "ANTIDOTE_REPLICATE_INTERVAL",
     OptKind::Double, 0, 0.0, nullptr, "SECONDS", "1",
     "seconds between replication polls once caught up",
     [](ServingOptions &O, uint64_t, double D, const char *) {
       O.ReplicateInterval = D;
     }},
};

/// Splits "HOST:PORT" on the *last* colon. Null port text / empty host
/// fails; the port must parse as [1, 65535].
bool parseHostPort(const char *Text, std::string &Host, uint16_t &Port) {
  const char *Colon = std::strrchr(Text, ':');
  if (!Colon || Colon == Text)
    return false;
  std::optional<uint64_t> Parsed = parseUnsignedArg(Colon + 1, 65535);
  if (!Parsed || *Parsed == 0)
    return false;
  Host.assign(Text, Colon);
  Port = static_cast<uint16_t>(*Parsed);
  return true;
}

/// Parses \p Value per \p Row and applies it. \p Name is the flag or
/// env-twin name for the error message; both paths share one wording
/// per kind.
bool applyValue(ServingOptions &O, const OptRow &Row, const char *Name,
                const char *Value) {
  switch (Row.Kind) {
  case OptKind::Unsigned: {
    std::optional<uint64_t> Parsed = parseUnsignedArg(Value, Row.Max);
    if (!Parsed) {
      std::fprintf(stderr,
                   "error: %s needs an unsigned integer (0 = %s), got "
                   "'%s'\n",
                   Name, Row.ZeroMeaning, Value);
      return false;
    }
    Row.Apply(O, *Parsed, 0.0, Value);
    return true;
  }
  case OptKind::Double: {
    std::optional<double> Parsed = parseDoubleArg(Value);
    if (!Parsed || *Parsed < Row.Min) {
      std::fprintf(stderr,
                   "error: %s needs a finite number >= %g, got '%s'\n",
                   Name, Row.Min, Value);
      return false;
    }
    Row.Apply(O, 0, *Parsed, Value);
    return true;
  }
  case OptKind::Threat: {
    std::optional<ThreatModelKind> Parsed = parseThreatModelName(Value);
    if (!Parsed) {
      std::fprintf(stderr,
                   "error: %s must be 'removal' or 'flip', got '%s'\n",
                   Name, Value);
      return false;
    }
    Row.Apply(O, static_cast<uint64_t>(*Parsed), 0.0, Value);
    return true;
  }
  case OptKind::Text:
    Row.Apply(O, 0, 0.0, Value);
    return true;
  case OptKind::HostPort: {
    std::string Host;
    uint16_t Port = 0;
    if (!parseHostPort(Value, Host, Port)) {
      std::fprintf(stderr,
                   "error: %s needs HOST:PORT (port 1-65535), got "
                   "'%s'\n",
                   Name, Value);
      return false;
    }
    // Apply receives the host through S and the port through U.
    std::string HostOnly = Host;
    Row.Apply(O, Port, 0.0, HostOnly.c_str());
    return true;
  }
  }
  return false;
}

} // namespace

bool ServingOptions::parse(int &Argc, char **Argv) {
  // Environment twins first, so explicit flags override them below.
  // Malformed env values are as fatal as malformed flags.
  for (const OptRow &Row : Rows) {
    if (!Row.Env)
      continue;
    std::optional<std::string> Text = readStringEnv(Row.Env);
    if (!Text)
      continue;
    if (!applyValue(*this, Row, Row.Env, Text->c_str()))
      return false;
  }
  // Flags: consume what the table knows, keep everything else in order.
  int Kept = 1;
  for (int I = 1; I < Argc; ++I) {
    const OptRow *Found = nullptr;
    for (const OptRow &Row : Rows)
      if (std::strcmp(Argv[I], Row.Flag) == 0) {
        Found = &Row;
        break;
      }
    if (!Found) {
      Argv[Kept++] = Argv[I];
      continue;
    }
    if (I + 1 >= Argc) {
      std::fprintf(stderr, "error: %s needs a value\n", Argv[I]);
      return false;
    }
    if (!applyValue(*this, *Found, Found->Flag, Argv[++I]))
      return false;
  }
  Argc = Kept;
  return true;
}

void ServingOptions::printHelp(std::FILE *Out) {
  std::fprintf(Out,
               "serving knobs (flag beats env-var twin beats default; "
               "malformed values\nin either error out):\n");
  for (const OptRow &Row : Rows) {
    char FlagMeta[64];
    std::snprintf(FlagMeta, sizeof(FlagMeta), "%s %s", Row.Flag, Row.Meta);
    std::fprintf(Out, "  %-28s %s\n", FlagMeta, Row.Help);
    if (Row.ZeroMeaning)
      std::fprintf(Out, "  %-28s   (0 = %s; env %s; default %s)\n", "",
                   Row.ZeroMeaning, Row.Env, Row.Default);
    else
      std::fprintf(Out, "  %-28s   (env %s; default %s)\n", "", Row.Env,
                   Row.Default);
  }
}
