#include "sched/greedy_arbitrator.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"

namespace tprm::sched {
namespace {

/// Best-fit placement: among maximal holes that can host the task, pick the
/// one whose processor level exceeds the request by the least (then the
/// earliest), and place the task at the earliest feasible start inside it.
std::optional<TaskPlacement> bestFitPlace(
    const resource::AvailabilityProfile& profile, Time earliest, Time duration,
    int processors, Time deadline) {
  const Time windowEnd = deadline >= kTimeInfinity ? kTimeInfinity : deadline;
  const auto holes =
      profile.maximalHoles(TimeInterval{earliest, windowEnd});
  std::optional<TaskPlacement> best;
  int bestSlack = 0;
  for (const auto& hole : holes) {
    if (hole.processors < processors) continue;
    const Time start = std::max(hole.begin, earliest);
    if (start + duration > hole.end || start + duration > deadline) continue;
    const int slack = hole.processors - processors;
    if (!best || slack < bestSlack ||
        (slack == bestSlack && start < best->interval.begin)) {
      best = TaskPlacement{TimeInterval{start, start + duration}, processors,
                           deadline};
      bestSlack = slack;
    }
  }
  return best;
}

}  // namespace

GreedyArbitrator::GreedyArbitrator(GreedyOptions options)
    : options_(options) {}

std::string GreedyArbitrator::name() const {
  std::string n = "greedy";
  switch (options_.chainChoice) {
    case ChainChoice::Paper: n += "-paper"; break;
    case ChainChoice::WindowUtilization: n += "-windowutil"; break;
    case ChainChoice::FirstSchedulable: n += "-firstchain"; break;
    case ChainChoice::Random: n += "-randomchain"; break;
    case ChainChoice::QualityFirst: n += "-quality"; break;
  }
  if (options_.fitPolicy == FitPolicy::BestFit) n += "-bestfit";
  if (options_.malleable) {
    n += "-malleable";
    // The malleable policy is active only when malleability is on; the name
    // reflects only options that can influence decisions.
    if (options_.malleablePolicy == MalleablePolicy::EarliestFinish) {
      n += "-earliestfinish";
    }
  }
  return n;
}

std::optional<TaskPlacement> GreedyArbitrator::placeTask(
    const task::TaskSpec& taskSpec, Time earliest, Time deadline,
    const resource::AvailabilityProfile& profile,
    resource::FitHint* hint) const {
  auto placeRigid = [&](int processors,
                        Time duration) -> std::optional<TaskPlacement> {
    if (options_.fitPolicy == FitPolicy::BestFit) {
      return bestFitPlace(profile, earliest, duration, processors, deadline);
    }
    const auto start =
        profile.findEarliestFit(earliest, duration, processors, deadline,
                                hint);
    if (!start) return std::nullopt;
    return TaskPlacement{TimeInterval{*start, *start + duration}, processors,
                         deadline};
  };

  if (!options_.malleable || !taskSpec.malleable) {
    return placeRigid(taskSpec.request.processors, taskSpec.request.duration);
  }

  // Malleable placement (Section 5.4): try processor counts from the degree
  // of concurrency downward.  The probes share `hint`: the profile does not
  // change between them, so each q after the first searches only from the
  // segment the previous probe entered at.
  const auto& spec = *taskSpec.malleable;
  std::optional<TaskPlacement> best;
  for (int q = spec.maxConcurrency; q >= 1; --q) {
    const Time duration = spec.durationOn(q);
    const auto candidate = placeRigid(q, duration);
    if (!candidate) continue;
    if (options_.malleablePolicy == MalleablePolicy::WidestFit) {
      // First fit in descending-q order.
      return candidate;
    }
    if (!best || candidate->interval.end < best->interval.end) {
      best = candidate;
    }
  }
  return best;
}

std::optional<ChainSchedule> GreedyArbitrator::tryChain(
    const task::JobInstance& job, std::size_t chainIndex,
    const resource::AvailabilityProfile& profile) const {
  const task::Chain& chain = job.spec.chains[chainIndex];
  ChainSchedule schedule;
  schedule.chainIndex = chainIndex;
  schedule.placements.reserve(chain.tasks.size());

  // Task k+1 probes only times >= task k's end, so reserving task k could
  // not change its placement: the chain is planned against the unmodified
  // profile, and one hint is shared from one task's probe to the next.
  Time earliest = job.release;
  resource::FitHint hint;
  for (std::size_t k = 0; k < chain.tasks.size(); ++k) {
    const Time deadline = job.absoluteDeadline(chainIndex, k);
    const auto placement =
        placeTask(chain.tasks[k], earliest, deadline, profile, &hint);
    if (!placement) return std::nullopt;
    earliest = placement->interval.end;
    schedule.placements.push_back(*placement);
  }
  return schedule;
}

AdmissionDecision GreedyArbitrator::admit(
    const task::JobInstance& job, resource::AvailabilityProfile& profile) {
  AdmissionDecision decision;
  decision.chainsConsidered = static_cast<int>(job.spec.chains.size());

  struct Candidate {
    ChainSchedule schedule;
    Time finish;
    std::int64_t busyWindowTicks;  // committed + this chain, over the window
    std::vector<std::int64_t> prefixAreas;
    double quality;
  };
  std::vector<Candidate> candidates;

  for (std::size_t c = 0; c < job.spec.chains.size(); ++c) {
    if (metrics_ != nullptr) metrics_->chainsEvaluated->add();
    auto schedule = tryChain(job, c, profile);
    if (!schedule) continue;
    Candidate candidate;
    candidate.finish = schedule->finishTime();
    candidate.busyWindowTicks =
        profile.busyProcessorTicks(TimeInterval{job.release, candidate.finish}) +
        schedule->area();
    candidate.prefixAreas = job.spec.chains[c].prefixAreas();
    candidate.quality =
        job.spec.chains[c].quality(job.spec.qualityComposition);
    candidate.schedule = std::move(*schedule);
    candidates.push_back(std::move(candidate));
    if (options_.chainChoice == ChainChoice::FirstSchedulable) break;
  }

  decision.chainsSchedulable = static_cast<int>(candidates.size());
  if (metrics_ != nullptr && !candidates.empty()) {
    metrics_->chainsSchedulable->add(candidates.size());
  }
  if (candidates.empty()) {
    if (metrics_ != nullptr) metrics_->jobsRejected->add();
    return decision;
  }

  // The paper's tie-break chain (earliest finish, densest window, smaller
  // resource prefix), reused by the quality-maximizing policy.
  auto paperBetter = [](const Candidate& a, const Candidate& b) {
    if (a.finish != b.finish) return a.finish < b.finish;
    if (a.busyWindowTicks != b.busyWindowTicks) {
      // Equal finish => identical window; denser window = higher system
      // utilization.
      return a.busyWindowTicks > b.busyWindowTicks;
    }
    // "Fewer total resources for some prefix of their tasks".
    return std::lexicographical_compare(
        a.prefixAreas.begin(), a.prefixAreas.end(), b.prefixAreas.begin(),
        b.prefixAreas.end());
  };

  std::size_t chosen = 0;
  switch (options_.chainChoice) {
    case ChainChoice::FirstSchedulable:
      chosen = 0;
      break;
    case ChainChoice::Random:
      if (!rng_) rng_.emplace(options_.seed);
      chosen = static_cast<std::size_t>(
          rng_->uniformBelow(static_cast<std::uint64_t>(candidates.size())));
      break;
    case ChainChoice::Paper: {
      for (std::size_t i = 1; i < candidates.size(); ++i) {
        if (paperBetter(candidates[i], candidates[chosen])) chosen = i;
      }
      break;
    }
    case ChainChoice::QualityFirst: {
      auto better = [&paperBetter](const Candidate& a, const Candidate& b) {
        if (a.quality != b.quality) return a.quality > b.quality;
        return paperBetter(a, b);
      };
      for (std::size_t i = 1; i < candidates.size(); ++i) {
        if (better(candidates[i], candidates[chosen])) chosen = i;
      }
      break;
    }
    case ChainChoice::WindowUtilization: {
      const auto release = job.release;
      auto utilization = [release](const Candidate& c) {
        const Time window = c.finish - release;
        if (window <= 0) return 1.0;
        return static_cast<double>(c.busyWindowTicks) /
               static_cast<double>(window);
      };
      auto better = [&](const Candidate& a, const Candidate& b) {
        const double ua = utilization(a);
        const double ub = utilization(b);
        if (ua != ub) return ua > ub;
        if (a.finish != b.finish) return a.finish < b.finish;
        return std::lexicographical_compare(
            a.prefixAreas.begin(), a.prefixAreas.end(), b.prefixAreas.begin(),
            b.prefixAreas.end());
      };
      for (std::size_t i = 1; i < candidates.size(); ++i) {
        if (better(candidates[i], candidates[chosen])) chosen = i;
      }
      break;
    }
  }

  Candidate& winner = candidates[chosen];
  for (const auto& placement : winner.schedule.placements) {
    profile.reserve(placement.interval, placement.processors);
  }
  if (metrics_ != nullptr) metrics_->jobsAdmitted->add();
  decision.admitted = true;
  decision.quality = job.spec.chains[winner.schedule.chainIndex].quality(
      job.spec.qualityComposition);
  decision.schedule = std::move(winner.schedule);
  return decision;
}

}  // namespace tprm::sched
