// The benchmark's three negotiation workloads, each run as a sequence of
// rounds against a fresh in-process service::NegotiationServer.
//
// A round generates its jobs from a seed, starts the server, connects the
// clients (together: the round's set-up), drives every job through the
// wire, checks the ledger with a wire VERIFY and stops the server.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/time.h"
#include "helpers.h"
#include "qos/qos.h"
#include "sched/arbitrator.h"
#include "spans.h"
#include "taskmodel/chain.h"

namespace perfbench {

enum class WorkloadKind { DeepChurn, TenantMix, FlashOpen };

struct WorkloadConfig {
  WorkloadKind kind = WorkloadKind::DeepChurn;
  std::string name;
  /// Server sizing; everything else stays at the ServerConfig defaults.
  int processors = 32;
  int shards = 1;
  bool gang = false;
  bool elastic = false;
  /// Client side: connections, and the v2 window per connection (0 = the
  /// blocking v1 client).
  int connections = 1;
  std::uint32_t window = 0;
  /// Jobs per round.
  std::size_t roundJobs = 1000;
  /// The first jobs of a round warm the fresh server (connections, caches,
  /// allocator); their round trips are not part of the latency samples.
  std::size_t warmupJobs = 0;
  /// deep-churn: cancel every Nth admitted job of a connection (0 = never).
  int cancelEvery = 0;
  /// tenant-mix: multiplier on the scenario's base arrival rate.
  double loadMultiplier = 1.0;
  /// flash-open: mean send rate over a round, requests per second.
  double meanRate = 0.0;
};

[[nodiscard]] std::optional<WorkloadConfig> workloadByName(
    const std::string& name);

struct Job {
  tprm::task::TunableJobSpec spec;
  tprm::Time release = 0;
  /// Tenant quality floor (tenant-mix); 0 elsewhere.
  double floor = 0.0;
};

struct GeneratedRound {
  std::vector<Job> jobs;
  /// flash-open: send time of each job, nanoseconds after the first.
  std::vector<std::int64_t> dueOffsetsNs;
};

/// Jobs of one round: a pure function of the config and the seed.
[[nodiscard]] GeneratedRound generateRound(const WorkloadConfig& config,
                                           std::uint64_t seed);

/// One NEGOTIATE decision as the client saw it.
struct LiveDecision {
  bool admitted = false;
  std::uint64_t jobId = 0;
  std::size_t chainIndex = 0;
  double quality = 0.0;
  std::vector<tprm::sched::TaskPlacement> placements;
};

struct RoundOptions {
  /// Unix socket the round's server listens on.
  std::string socketPath;
  /// Non-empty: record the request stream there and record client spans.
  std::string recordPath;
  const tprm::qos::ReshapePolicy* reshapePolicy = nullptr;
};

struct RoundOutcome {
  double generateS = 0.0;
  double setupS = 0.0;
  double measuredS = 0.0;

  std::uint64_t attempted = 0;     // NEGOTIATE + CANCEL requests issued
  std::uint64_t failed = 0;        // errored, timed out or BUSY past budget
  std::uint64_t undecodable = 0;   // responses that did not decode
  std::uint64_t negotiations = 0;  // NEGOTIATE responses
  std::uint64_t cancels = 0;       // CANCEL responses
  std::uint64_t offered = 0;       // NEGOTIATE requests (failed included)
  std::uint64_t admitted = 0;
  std::uint64_t busyRetries = 0;

  /// NEGOTIATE round trips after the warm-up (open loop: from the due
  /// time).
  TimingSummary latency;
  /// Open loop only: how late each request was sent.
  TimingSummary sendLag;

  double qualitySum = 0.0;  // final quality summed over admitted jobs
  double utilization = 0.0;
  int floorViolations = 0;

  std::string problem;  // first failed check, empty when all passed
  std::uint64_t reshapeEventsDispatched = 0;
  std::uint64_t busyRejections = 0;
  std::int64_t queueDepthMax = 0;

  // Traced rounds only.
  std::map<std::uint64_t, LiveDecision> decisionsBySeq;
  std::map<std::uint64_t, std::int64_t> freedByJob;
  std::vector<Span> spans;

  [[nodiscard]] double throughputRps() const {
    return measuredS > 0
               ? static_cast<double>(negotiations + cancels) / measuredS
               : 0.0;
  }
};

/// Runs one round.  Never throws for a failed check: the outcome's
/// `problem` names it.
[[nodiscard]] RoundOutcome runRound(const WorkloadConfig& config,
                                    std::uint64_t seed,
                                    const RoundOptions& options);

}  // namespace perfbench
