// Pure helpers of the negotiation benchmark: the percentile rule, the
// placement ledger behind `utilization` and `mean_quality`, and open-loop
// timing.  Everything here is deterministic and covered by
// perfbench/tests/selftest.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/time.h"
#include "sched/arbitrator.h"

namespace perfbench {

/// Percentile ladder the rule picks from, lowest first.
inline constexpr double kPercentileLadder[] = {50.0, 90.0, 99.0, 99.9,
                                               99.99};

/// Samples strictly above the nearest-rank `percentile` of `samples` values.
[[nodiscard]] std::size_t samplesBeyond(std::size_t samples,
                                        double percentile);

/// The percentile rule: the highest ladder percentile that still has at
/// least 10 samples beyond it, or 0 when even the median has fewer.
[[nodiscard]] double supportedPercentile(std::size_t samples);

/// Nearest-rank percentile of `values` (sorted in place); 0 when empty.
[[nodiscard]] double percentile(std::vector<double>& values,
                                double percentile);

/// Median of `values` (sorted in place); 0 when empty.
[[nodiscard]] double median(std::vector<double> values);

[[nodiscard]] double mean(const std::vector<double>& values);

/// One timing distribution as the benchmark reports it.
struct TimingSummary {
  std::size_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  /// supportedPercentile(count) and the value there.
  double tailPercentile = 0.0;
  double tailValue = 0.0;
};

[[nodiscard]] TimingSummary summarize(std::vector<double> values);

/// Final placements and quality of every admitted job, as a client sees
/// them: the NEGOTIATE response places a job, each RESHAPED move replaces
/// its placements and quality, a CANCEL removes it from the live set.
class PlacementLedger {
 public:
  void admit(std::uint64_t jobId, double quality,
             std::vector<tprm::sched::TaskPlacement> placements);
  /// A RESHAPED move; ignored for a job this ledger never admitted.
  void reshape(std::uint64_t jobId, double quality,
               std::vector<tprm::sched::TaskPlacement> placements);
  void cancel(std::uint64_t jobId);

  [[nodiscard]] std::size_t admitted() const { return jobs_.size(); }
  [[nodiscard]] double quality(std::uint64_t jobId) const;

  /// Mean final quality over every admitted job (cancelled ones keep the
  /// quality they held); 0 when nothing was admitted.
  [[nodiscard]] double meanQuality() const;

  /// Processor-ticks of the live jobs' placements over
  /// processors x (latest end - earliest begin) of those placements; 0 when
  /// no live job holds a placement.
  [[nodiscard]] double utilization(int processors) const;

 private:
  struct Job {
    double quality = 0.0;
    bool live = true;
    std::vector<tprm::sched::TaskPlacement> placements;
  };
  std::unordered_map<std::uint64_t, Job> jobs_;
};

/// Wall-clock send offsets (nanoseconds from the first arrival) for a
/// stream of releases, scaled so the whole stream runs at `meanRate`
/// requests per second.  Bursts in the releases stay bursts.
[[nodiscard]] std::vector<std::int64_t> openLoopOffsetsNs(
    const std::vector<tprm::Time>& releases, double meanRate);

/// Timestamps of one open-loop request (monotonic nanoseconds).
struct OpenLoopSample {
  std::int64_t dueNs = 0;   // when the schedule said to send
  std::int64_t sentNs = 0;  // when the generator actually sent
  std::int64_t doneNs = 0;  // when the response arrived
};

/// How late the generator sent, in microseconds (never negative).
[[nodiscard]] double sendLagUs(const OpenLoopSample& sample);
/// Latency from the due time, so a stall also charges the requests it
/// delayed.
[[nodiscard]] double latencyFromDueUs(const OpenLoopSample& sample);

/// Host fingerprint stamped into every result.
struct HostFingerprint {
  unsigned cores = 0;
  std::string compiler;
  std::string buildType;
  bool optimized = false;
  std::string commit;
  std::string sourceDigest;
};

[[nodiscard]] HostFingerprint hostFingerprint(std::string commit,
                                              std::string sourceDigest);

}  // namespace perfbench
