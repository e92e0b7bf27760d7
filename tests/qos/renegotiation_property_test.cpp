// Property test for the renegotiation surface: random submit/cancel/resize
// scripts against QoSArbitrator, checking after every step that
//  * verify() is clean across all machine eras,
//  * no running (non-preemptible) task's capacity is ever re-issued — the
//    profile's availability always leaves room for every tracked commitment,
//    including the kept remainder of a cancelled job's running task,
//  * every never-started job dropped at a resize truly had no feasible
//    remaining chain: a brute-force re-try of each rebased chain against the
//    post-resize profile must fail (one-sided: the profile only lost
//    capacity since the drop decision, so any fit found now was a fit then).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "qos/qos.h"
#include "sched/greedy_arbitrator.h"

namespace tprm::qos {
namespace {

using task::Chain;
using task::TaskSpec;
using task::TunableJobSpec;

struct Commitment {
  TimeInterval interval;
  int processors = 0;
};

struct ShadowJob {
  TunableJobSpec spec;
  Time release = 0;
  std::vector<Commitment> commitments;

  [[nodiscard]] bool startedBy(Time t) const {
    return std::any_of(commitments.begin(), commitments.end(),
                       [&](const Commitment& c) { return c.interval.begin < t; });
  }
};

TunableJobSpec randomSpec(Rng& rng, int step) {
  TunableJobSpec spec;
  spec.name = "p" + std::to_string(step);
  const int chains = static_cast<int>(rng.uniformInt(1, 3));
  for (int c = 0; c < chains; ++c) {
    Chain chain;
    chain.name = "c" + std::to_string(c);
    const int tasks = static_cast<int>(rng.uniformInt(1, 2));
    double cumulative = 0.0;
    for (int t = 0; t < tasks; ++t) {
      const int procs = static_cast<int>(rng.uniformInt(1, 10));
      const double duration = static_cast<double>(rng.uniformInt(5, 40));
      cumulative += duration;
      // Mix of tight and generous deadlines, always relative to release and
      // covering the chain's cumulative work.
      const double laxity = rng.uniformReal(1.05, 8.0);
      chain.tasks.push_back(TaskSpec::rigid(
          "t" + std::to_string(t), procs, ticksFromUnits(duration),
          ticksFromUnits(cumulative * laxity),
          /*quality=*/1.0 - 0.1 * c));
    }
    spec.chains.push_back(std::move(chain));
  }
  return spec;
}

class RenegotiationScript {
 public:
  explicit RenegotiationScript(std::uint64_t seed)
      : rng_(seed), arbitrator_(kInitialProcs) {}

  void run(int steps) {
    for (int step = 0; step < steps; ++step) {
      const double dice = rng_.uniform01();
      if (dice < 0.6) {
        doSubmit(step);
      } else if (dice < 0.8) {
        doCancel(step);
      } else {
        doResize(step);
      }
      checkInvariants(step);
    }
  }

 private:
  static constexpr int kInitialProcs = 16;

  void doSubmit(int step) {
    clock_ += ticksFromUnits(static_cast<double>(rng_.uniformInt(0, 5)));
    const auto spec = randomSpec(rng_, step);
    const auto decision = arbitrator_.submit(spec, clock_);
    if (!decision.admitted) return;
    const auto id = arbitrator_.lastJobId().value();
    ShadowJob job;
    job.spec = spec;
    job.release = clock_;
    for (const auto& p : decision.schedule.placements) {
      job.commitments.push_back(Commitment{p.interval, p.processors});
    }
    live_[id] = std::move(job);
  }

  void doCancel(int step) {
    if (live_.empty() || rng_.uniform01() < 0.1) {
      // Cancel of an unknown id must be a harmless miss.
      EXPECT_EQ(arbitrator_.cancel(1'000'000 + static_cast<std::uint64_t>(step)),
                0);
      return;
    }
    auto it = live_.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(
                         rng_.uniformBelow(live_.size())));
    (void)arbitrator_.cancel(it->first);
    // The running task's remainder stays reserved until it completes; only
    // not-yet-started commitments are returned.
    for (const auto& c : it->second.commitments) {
      if (c.interval.begin < clock_ && clock_ < c.interval.end) {
        phantoms_.push_back(Commitment{{clock_, c.interval.end}, c.processors});
      }
    }
    live_.erase(it);
  }

  void doResize(int step) {
    clock_ += ticksFromUnits(static_cast<double>(rng_.uniformInt(1, 20)));
    const int newSize = static_cast<int>(rng_.uniformInt(4, 24));
    // Snapshot which jobs had started, for the dropped-job feasibility
    // cross-check below.
    std::map<std::uint64_t, bool> started;
    for (const auto& [id, job] : live_) {
      started[id] = job.startedBy(clock_);
    }
    const auto report = arbitrator_.resize(newSize, clock_);

    for (const auto id : report.dropped) {
      ASSERT_TRUE(live_.count(id)) << "dropped unknown job " << id;
      if (!started.at(id)) {
        expectNoFeasibleChain(live_.at(id), step);
      }
      live_.erase(id);
    }
    // The resize started a new machine era: rebuild every survivor's
    // commitments from the current-era ledger (pinned remainders plus
    // re-recorded future placements).  Era entries for jobs outside the live
    // set are the pinned running tasks of jobs dropped mid-run (phase 1 pins
    // before phase 2 gives up on the suffix) — like cancelled running tasks,
    // they stay reserved until they complete, so track them as phantoms.
    phantoms_.clear();
    for (auto& [id, job] : live_) {
      job.commitments.clear();
      const bool reconfigured =
          std::find(report.reconfigured.begin(), report.reconfigured.end(),
                    id) != report.reconfigured.end();
      if (reconfigured && !started.at(id)) job.release = clock_;
    }
    for (const auto& r : arbitrator_.ledger().reservations()) {
      const auto it = live_.find(r.jobId);
      if (it != live_.end()) {
        it->second.commitments.push_back(Commitment{r.interval, r.processors});
      } else {
        phantoms_.push_back(Commitment{r.interval, r.processors});
      }
    }
  }

  // Brute force: a never-started dropped job must have no chain that both
  // survives deadline rebasing and fits the post-resize profile.
  void expectNoFeasibleChain(const ShadowJob& job, int step) {
    for (std::size_t c = 0; c < job.spec.chains.size(); ++c) {
      Chain chain = job.spec.chains[c];
      bool feasible = true;
      for (auto& taskSpec : chain.tasks) {
        if (taskSpec.relativeDeadline >= kTimeInfinity) continue;
        const Time absolute = job.release + taskSpec.relativeDeadline;
        if (absolute <= clock_ + taskSpec.request.duration) {
          feasible = false;
          break;
        }
        taskSpec.relativeDeadline = absolute - clock_;
      }
      if (!feasible) continue;
      task::JobInstance probe;
      probe.id = 0;
      probe.release = clock_;
      probe.spec.name = job.spec.name;
      probe.spec.chains = {chain};
      sched::GreedyArbitrator greedy;
      const auto schedule = greedy.tryChain(probe, 0, arbitrator_.profile());
      EXPECT_FALSE(schedule.has_value())
          << "step " << step << ": dropped job " << job.spec.name
          << " still had feasible chain " << c;
    }
  }

  void checkInvariants(int step) {
    const auto report = arbitrator_.verify();
    ASSERT_TRUE(report.ok) << "step " << step << ": " << report.firstViolation;

    // Committed capacity is never re-issued: at every sample instant the
    // profile's availability leaves room for all tracked commitments.
    std::vector<Time> samples{clock_};
    auto addSamples = [&](const Commitment& c) {
      const Time begin = std::max(c.interval.begin, clock_);
      if (begin >= c.interval.end) return;
      samples.push_back(begin);
      samples.push_back(begin + (c.interval.end - begin) / 2);
      samples.push_back(c.interval.end - 1);
    };
    for (const auto& [id, job] : live_) {
      for (const auto& c : job.commitments) addSamples(c);
    }
    for (const auto& c : phantoms_) addSamples(c);
    std::sort(samples.begin(), samples.end());
    samples.erase(std::unique(samples.begin(), samples.end()), samples.end());
    const int total = arbitrator_.processors();
    for (const Time t : samples) {
      int committed = 0;
      for (const auto& [id, job] : live_) {
        for (const auto& c : job.commitments) {
          if (c.interval.contains(t)) committed += c.processors;
        }
      }
      for (const auto& c : phantoms_) {
        if (c.interval.contains(t)) committed += c.processors;
      }
      EXPECT_LE(arbitrator_.profile().availableAt(t), total - committed)
          << "step " << step << ": capacity re-issued at t=" << formatTime(t);
    }
  }

  Rng rng_;
  QoSArbitrator arbitrator_;
  Time clock_ = 0;
  std::map<std::uint64_t, ShadowJob> live_;
  /// Running-task remainders of cancelled jobs: still reserved until their
  /// interval ends (cleared when a resize opens a new era).
  std::vector<Commitment> phantoms_;
};

TEST(RenegotiationProperty, RandomScriptsKeepEveryInvariant) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL, 1234ULL, 98765ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RenegotiationScript script(seed);
    script.run(160);
  }
}

}  // namespace
}  // namespace tprm::qos
