#include "helpers.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <thread>
#include <utility>

namespace perfbench {

namespace {

/// 1-based nearest rank of `percentile` among `samples` values.
std::size_t nearestRank(std::size_t samples, double percentile) {
  const double rank =
      std::ceil(percentile / 100.0 * static_cast<double>(samples) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, samples);
}

}  // namespace

std::size_t samplesBeyond(std::size_t samples, double percentile) {
  if (samples == 0) return 0;
  return samples - nearestRank(samples, percentile);
}

double supportedPercentile(std::size_t samples) {
  double best = 0.0;
  for (const double p : kPercentileLadder) {
    if (samplesBeyond(samples, p) >= 10) best = p;
  }
  return best;
}

double percentile(std::vector<double>& values, double percentile) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[nearestRank(values.size(), percentile) - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2.0;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

TimingSummary summarize(std::vector<double> values) {
  TimingSummary out;
  out.count = values.size();
  if (values.empty()) return out;
  out.mean = mean(values);
  out.p50 = percentile(values, 50.0);
  out.p99 = percentile(values, 99.0);
  out.tailPercentile = supportedPercentile(values.size());
  out.tailValue =
      out.tailPercentile > 0 ? percentile(values, out.tailPercentile) : 0.0;
  return out;
}

void PlacementLedger::admit(std::uint64_t jobId, double quality,
                            std::vector<tprm::sched::TaskPlacement> placements) {
  jobs_[jobId] = Job{quality, true, std::move(placements)};
}

void PlacementLedger::reshape(
    std::uint64_t jobId, double quality,
    std::vector<tprm::sched::TaskPlacement> placements) {
  const auto it = jobs_.find(jobId);
  if (it == jobs_.end()) return;
  it->second.quality = quality;
  it->second.placements = std::move(placements);
}

void PlacementLedger::cancel(std::uint64_t jobId) {
  const auto it = jobs_.find(jobId);
  if (it != jobs_.end()) it->second.live = false;
}

double PlacementLedger::quality(std::uint64_t jobId) const {
  const auto it = jobs_.find(jobId);
  return it == jobs_.end() ? 0.0 : it->second.quality;
}

double PlacementLedger::meanQuality() const {
  if (jobs_.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& [id, job] : jobs_) sum += job.quality;
  return sum / static_cast<double>(jobs_.size());
}

double PlacementLedger::utilization(int processors) const {
  double area = 0.0;
  tprm::Time first = std::numeric_limits<tprm::Time>::max();
  tprm::Time last = std::numeric_limits<tprm::Time>::min();
  for (const auto& [id, job] : jobs_) {
    if (!job.live) continue;
    for (const auto& p : job.placements) {
      area += static_cast<double>(p.processors) *
              static_cast<double>(p.interval.length());
      first = std::min(first, p.interval.begin);
      last = std::max(last, p.interval.end);
    }
  }
  if (last <= first || processors <= 0) return 0.0;
  return area / (static_cast<double>(processors) *
                 static_cast<double>(last - first));
}

std::vector<std::int64_t> openLoopOffsetsNs(
    const std::vector<tprm::Time>& releases, double meanRate) {
  std::vector<std::int64_t> offsets(releases.size(), 0);
  if (releases.size() < 2 || meanRate <= 0.0) return offsets;
  const double spanTicks =
      static_cast<double>(releases.back() - releases.front());
  const double spanNs =
      static_cast<double>(releases.size() - 1) / meanRate * 1e9;
  const double nsPerTick = spanTicks > 0 ? spanNs / spanTicks : 0.0;
  for (std::size_t i = 0; i < releases.size(); ++i) {
    offsets[i] = static_cast<std::int64_t>(
        std::llround(static_cast<double>(releases[i] - releases.front()) *
                     nsPerTick));
  }
  return offsets;
}

double sendLagUs(const OpenLoopSample& sample) {
  return static_cast<double>(std::max<std::int64_t>(
             sample.sentNs - sample.dueNs, 0)) /
         1e3;
}

double latencyFromDueUs(const OpenLoopSample& sample) {
  return static_cast<double>(sample.doneNs - sample.dueNs) / 1e3;
}

HostFingerprint hostFingerprint(std::string commit, std::string sourceDigest) {
  HostFingerprint host;
  host.cores = std::thread::hardware_concurrency();
#if defined(__clang__)
  host.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  host.compiler = "gcc " __VERSION__;
#else
  host.compiler = "unknown";
#endif
  host.buildType = TPRMBENCH_BUILD_TYPE;
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  host.optimized = true;
#endif
  host.commit = std::move(commit);
  host.sourceDigest = std::move(sourceDigest);
  return host;
}

}  // namespace perfbench
