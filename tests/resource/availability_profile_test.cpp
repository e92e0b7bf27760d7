#include "resource/availability_profile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"

namespace tprm::resource {
namespace {

// ---------------------------------------------------------------------------
// Reference model: a dense per-tick availability array over a small horizon.
// All property tests compare the production profile against this model.
// ---------------------------------------------------------------------------
class DenseModel {
 public:
  DenseModel(int total, Time horizon) : total_(total), avail_(
      static_cast<std::size_t>(horizon), total) {}

  void reserve(TimeInterval iv, int processors) {
    for (Time t = iv.begin; t < iv.end; ++t) {
      avail_[static_cast<std::size_t>(t)] -= processors;
    }
  }
  void release(TimeInterval iv, int processors) {
    for (Time t = iv.begin; t < iv.end; ++t) {
      avail_[static_cast<std::size_t>(t)] += processors;
    }
  }
  [[nodiscard]] int at(Time t) const {
    return t < horizon() ? avail_[static_cast<std::size_t>(t)] : total_;
  }
  [[nodiscard]] int minOver(TimeInterval iv) const {
    int minFree = total_;
    for (Time t = iv.begin; t < iv.end; ++t) minFree = std::min(minFree, at(t));
    return minFree;
  }
  [[nodiscard]] std::optional<Time> earliestFit(Time earliest, Time duration,
                                                int processors,
                                                Time deadline) const {
    if (processors > total_) return std::nullopt;
    const Time searchEnd = std::min<Time>(deadline, horizon() + duration + 1);
    for (Time s = earliest; s + duration <= searchEnd; ++s) {
      if (minOver(TimeInterval{s, s + duration}) >= processors) return s;
    }
    return std::nullopt;
  }
  [[nodiscard]] std::int64_t busy(TimeInterval window) const {
    std::int64_t sum = 0;
    for (Time t = window.begin; t < window.end; ++t) sum += total_ - at(t);
    return sum;
  }
  [[nodiscard]] Time horizon() const {
    return static_cast<Time>(avail_.size());
  }

 private:
  int total_;
  std::vector<int> avail_;
};

TEST(AvailabilityProfile, StartsFullyFree) {
  AvailabilityProfile p(8);
  EXPECT_EQ(p.totalProcessors(), 8);
  EXPECT_EQ(p.availableAt(0), 8);
  EXPECT_EQ(p.availableAt(1'000'000), 8);
  EXPECT_EQ(p.segmentCount(), 1u);
}

TEST(AvailabilityProfileDeath, RejectsNonPositiveMachine) {
  EXPECT_DEATH(AvailabilityProfile(0), "at least one");
  EXPECT_DEATH(AvailabilityProfile(-3), "at least one");
}

TEST(AvailabilityProfile, SingleReservation) {
  AvailabilityProfile p(8);
  p.reserve(TimeInterval{10, 20}, 3);
  EXPECT_EQ(p.availableAt(9), 8);
  EXPECT_EQ(p.availableAt(10), 5);
  EXPECT_EQ(p.availableAt(19), 5);
  EXPECT_EQ(p.availableAt(20), 8);
}

TEST(AvailabilityProfile, OverlappingReservationsStack) {
  AvailabilityProfile p(8);
  p.reserve(TimeInterval{0, 10}, 3);
  p.reserve(TimeInterval{5, 15}, 4);
  EXPECT_EQ(p.availableAt(4), 5);
  EXPECT_EQ(p.availableAt(5), 1);
  EXPECT_EQ(p.availableAt(10), 4);
  EXPECT_EQ(p.availableAt(15), 8);
}

TEST(AvailabilityProfile, ReleaseRestoresAvailability) {
  AvailabilityProfile p(8);
  p.reserve(TimeInterval{10, 20}, 5);
  p.release(TimeInterval{10, 20}, 5);
  EXPECT_EQ(p.availableAt(15), 8);
  EXPECT_EQ(p.segmentCount(), 1u);  // fully coalesced back
}

TEST(AvailabilityProfile, PartialReleaseSplitsSegment) {
  AvailabilityProfile p(8);
  p.reserve(TimeInterval{0, 30}, 4);
  p.release(TimeInterval{10, 20}, 4);
  EXPECT_EQ(p.availableAt(5), 4);
  EXPECT_EQ(p.availableAt(15), 8);
  EXPECT_EQ(p.availableAt(25), 4);
}

TEST(AvailabilityProfileDeath, OvercommitAborts) {
  AvailabilityProfile p(8);
  p.reserve(TimeInterval{0, 10}, 8);
  EXPECT_DEATH(p.reserve(TimeInterval{5, 6}, 1), "overcommitted");
}

TEST(AvailabilityProfileDeath, OverReleaseAborts) {
  AvailabilityProfile p(8);
  EXPECT_DEATH(p.release(TimeInterval{0, 10}, 1), "exceeds reserved");
}

TEST(AvailabilityProfileDeath, InfiniteReservationAborts) {
  AvailabilityProfile p(8);
  EXPECT_DEATH(p.reserve(TimeInterval{0, kTimeInfinity}, 1), "finite");
}

TEST(AvailabilityProfile, EmptyReservationIsNoOp) {
  AvailabilityProfile p(8);
  p.reserve(TimeInterval{10, 10}, 5);
  EXPECT_EQ(p.segmentCount(), 1u);
  EXPECT_EQ(p.availableAt(10), 8);
}

TEST(AvailabilityProfile, MinAvailable) {
  AvailabilityProfile p(8);
  p.reserve(TimeInterval{10, 20}, 3);
  p.reserve(TimeInterval{15, 25}, 2);
  EXPECT_EQ(p.minAvailable(TimeInterval{0, 10}), 8);
  EXPECT_EQ(p.minAvailable(TimeInterval{0, 11}), 5);
  EXPECT_EQ(p.minAvailable(TimeInterval{0, 30}), 3);
  EXPECT_EQ(p.minAvailable(TimeInterval{20, 30}), 6);
  EXPECT_EQ(p.minAvailable(TimeInterval{5, 5}), 8);  // empty
}

TEST(AvailabilityProfile, FindEarliestFitOnEmptyMachine) {
  AvailabilityProfile p(8);
  const auto s = p.findEarliestFit(0, 10, 8, kTimeInfinity);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(*s, 0);
}

TEST(AvailabilityProfile, FindEarliestFitRespectsEarliest) {
  AvailabilityProfile p(8);
  const auto s = p.findEarliestFit(42, 10, 4, kTimeInfinity);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(*s, 42);
}

TEST(AvailabilityProfile, FindEarliestFitSkipsBusyRegion) {
  AvailabilityProfile p(8);
  p.reserve(TimeInterval{0, 50}, 6);  // only 2 free until 50
  const auto s = p.findEarliestFit(0, 10, 4, kTimeInfinity);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(*s, 50);
  // A smaller task fits immediately.
  const auto s2 = p.findEarliestFit(0, 10, 2, kTimeInfinity);
  ASSERT_TRUE(s2.has_value());
  EXPECT_EQ(*s2, 0);
}

TEST(AvailabilityProfile, FindEarliestFitNeedsContiguousRun) {
  AvailabilityProfile p(8);
  p.reserve(TimeInterval{10, 20}, 6);  // a 2-free dip splits the free runs
  // Duration 15 with 4 procs cannot straddle the dip: first fit is at 20.
  const auto s = p.findEarliestFit(0, 15, 4, kTimeInfinity);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(*s, 20);
  // Duration 10 fits before the dip.
  const auto s2 = p.findEarliestFit(0, 10, 4, kTimeInfinity);
  ASSERT_TRUE(s2.has_value());
  EXPECT_EQ(*s2, 0);
}

TEST(AvailabilityProfile, FindEarliestFitHonorsDeadline) {
  AvailabilityProfile p(8);
  p.reserve(TimeInterval{0, 50}, 8);
  EXPECT_FALSE(p.findEarliestFit(0, 10, 1, 50).has_value());
  EXPECT_FALSE(p.findEarliestFit(0, 10, 1, 59).has_value());
  const auto s = p.findEarliestFit(0, 10, 1, 60);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(*s, 50);
}

TEST(AvailabilityProfile, FindEarliestFitImpossibleRequests) {
  AvailabilityProfile p(8);
  EXPECT_FALSE(p.findEarliestFit(0, 10, 9, kTimeInfinity).has_value());
  EXPECT_FALSE(p.findEarliestFit(0, 10, 1, 5).has_value());  // deadline < dur
}

TEST(AvailabilityProfile, FindEarliestFitZeroDuration) {
  AvailabilityProfile p(8);
  p.reserve(TimeInterval{0, 100}, 8);
  const auto s = p.findEarliestFit(5, 0, 4, 50);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(*s, 5);
}

TEST(AvailabilityProfile, FindEarliestFitZeroDurationAtDeadlineBoundary) {
  AvailabilityProfile p(8);
  p.reserve(TimeInterval{0, 100}, 8);
  // A zero-length task "fits" exactly at its deadline...
  const auto s = p.findEarliestFit(50, 0, 4, 50);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(*s, 50);
  // ...but not one tick past it.
  EXPECT_FALSE(p.findEarliestFit(51, 0, 4, 50).has_value());
}

TEST(AvailabilityProfile, FindEarliestFitProbeBeforeHorizon) {
  AvailabilityProfile p(8);
  p.reserve(TimeInterval{0, 20}, 4);
  p.discardBefore(10);
  // A probe from before the horizon is clamped to the horizon start.
  const auto s = p.findEarliestFit(0, 5, 8, kTimeInfinity);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(*s, 20);
  const auto s2 = p.findEarliestFit(0, 5, 4, kTimeInfinity);
  ASSERT_TRUE(s2.has_value());
  EXPECT_EQ(*s2, 10);
  // Zero-duration quirk: nothing to clamp, the probe time comes straight
  // back even from before the horizon (preserved pre-rewrite behavior).
  const auto s3 = p.findEarliestFit(3, 0, 4, kTimeInfinity);
  ASSERT_TRUE(s3.has_value());
  EXPECT_EQ(*s3, 3);
}

TEST(AvailabilityProfile, FindEarliestFitWholeMachineRequest) {
  AvailabilityProfile p(8);
  p.reserve(TimeInterval{10, 20}, 1);
  p.reserve(TimeInterval{40, 50}, 1);
  // processors == totalProcessors: only fully-free gaps qualify, and the
  // run must not straddle either one-processor dip.
  const auto s = p.findEarliestFit(0, 10, 8, kTimeInfinity);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(*s, 0);
  const auto s2 = p.findEarliestFit(5, 25, 8, kTimeInfinity);
  ASSERT_TRUE(s2.has_value());
  EXPECT_EQ(*s2, 50);  // [20,40) is only 20 long; first fit is the tail
  const auto s3 = p.findEarliestFit(5, 20, 8, kTimeInfinity);
  ASSERT_TRUE(s3.has_value());
  EXPECT_EQ(*s3, 20);
}

TEST(AvailabilityProfile, BusyTicksWindowTouchingInfiniteTail) {
  AvailabilityProfile p(8);
  p.reserve(TimeInterval{10, 20}, 3);
  // Windows reaching past the last reservation into the (fully free)
  // trailing segment only accumulate the finite busy part.
  EXPECT_EQ(p.busyProcessorTicks(TimeInterval{0, 1'000'000}), 3 * 10);
  EXPECT_EQ(p.busyProcessorTicks(TimeInterval{20, 1'000'000}), 0);
  EXPECT_EQ(p.busyProcessorTicks(TimeInterval{15, 500}), 3 * 5);
}

// ---------------------------------------------------------------------------
// Trial scopes (undo-log speculative placement).
// ---------------------------------------------------------------------------

TEST(ProfileTrial, DestructorRollsBackUncommitted) {
  AvailabilityProfile p(8);
  p.reserve(TimeInterval{0, 10}, 2);
  const auto before = p.breakpoints();
  {
    AvailabilityProfile::Trial trial(p);
    p.reserve(TimeInterval{5, 25}, 4);
    p.release(TimeInterval{0, 3}, 2);
    EXPECT_EQ(p.availableAt(6), 2);
  }
  EXPECT_EQ(p.breakpoints(), before);
  EXPECT_EQ(p.availableAt(6), 6);
  EXPECT_FALSE(p.inTrial());
}

TEST(ProfileTrial, RollbackKeepsScopeOpenForNextCandidate) {
  AvailabilityProfile p(8);
  AvailabilityProfile::Trial trial(p);
  p.reserve(TimeInterval{0, 10}, 8);
  trial.rollback();
  EXPECT_TRUE(p.inTrial());
  // The capacity is back, so an overlapping second candidate fits.
  EXPECT_EQ(p.minAvailable(TimeInterval{0, 10}), 8);
  p.reserve(TimeInterval{0, 10}, 8);
  trial.commit();
  EXPECT_FALSE(p.inTrial());
  EXPECT_EQ(p.availableAt(5), 0);
}

TEST(ProfileTrial, CommitKeepsChanges) {
  AvailabilityProfile p(8);
  {
    AvailabilityProfile::Trial trial(p);
    p.reserve(TimeInterval{10, 20}, 5);
    trial.commit();
  }
  EXPECT_EQ(p.availableAt(15), 3);
}

TEST(ProfileTrial, VersionAdvancesAcrossRollback) {
  // A FitHint captured mid-trial must not validate after the rollback
  // mutates the profile back.
  AvailabilityProfile p(8);
  AvailabilityProfile::Trial trial(p);
  FitHint hint;
  (void)p.findEarliestFit(0, 5, 2, kTimeInfinity, &hint);
  p.reserve(TimeInterval{0, 10}, 4);
  trial.rollback();
  EXPECT_NE(hint.version, p.version());
  // A stale hint degrades to the unhinted search, never changes the answer.
  EXPECT_EQ(p.findEarliestFit(0, 5, 6, kTimeInfinity, &hint),
            p.findEarliestFit(0, 5, 6, kTimeInfinity));
  trial.commit();
}

TEST(ProfileTrial, SavepointRollsBackOnlyTheSuffix) {
  AvailabilityProfile p(8);
  AvailabilityProfile::Trial trial(p);
  p.reserve(TimeInterval{0, 10}, 3);
  const auto mark = trial.savepoint();
  p.reserve(TimeInterval{5, 25}, 4);
  p.release(TimeInterval{0, 3}, 1);
  trial.rollbackTo(mark);
  // Ops after the savepoint are undone; the first reservation survives.
  EXPECT_EQ(p.availableAt(6), 5);
  EXPECT_EQ(p.availableAt(1), 5);
  EXPECT_TRUE(p.inTrial());
  // The savepoint stays valid for a second speculative attempt.
  p.reserve(TimeInterval{0, 10}, 5);
  trial.rollbackTo(mark);
  EXPECT_EQ(p.minAvailable(TimeInterval{0, 10}), 5);
  trial.commit();
  EXPECT_EQ(p.availableAt(6), 5);
}

TEST(ProfileTrial, SavepointAtCurrentTipIsANoOp) {
  AvailabilityProfile p(4);
  AvailabilityProfile::Trial trial(p);
  p.reserve(TimeInterval{0, 10}, 2);
  const auto mark = trial.savepoint();
  trial.rollbackTo(mark);  // nothing past the mark: must not disturb state
  EXPECT_EQ(p.availableAt(5), 2);
  trial.commit();
}

// ---------------------------------------------------------------------------
// FitHint identity: a hint is only resumable on the profile that wrote it.
// ---------------------------------------------------------------------------

TEST(ProfileIdentity, EveryConstructionGetsDistinctNonZeroId) {
  AvailabilityProfile a(8);
  AvailabilityProfile b(8);
  EXPECT_NE(a.profileId(), 0u);
  EXPECT_NE(b.profileId(), 0u);
  EXPECT_NE(a.profileId(), b.profileId());
}

TEST(ProfileIdentity, CopyGetsFreshIdMoveKeepsIt) {
  AvailabilityProfile a(8);
  const auto idA = a.profileId();
  AvailabilityProfile copy(a);
  EXPECT_NE(copy.profileId(), idA);
  EXPECT_NE(copy.profileId(), 0u);
  AvailabilityProfile assigned(4);
  assigned = a;
  EXPECT_NE(assigned.profileId(), idA);
  // Histories converge again under move: the moved-to object IS the source.
  AvailabilityProfile moved(std::move(a));
  EXPECT_EQ(moved.profileId(), idA);
  AvailabilityProfile moveAssigned(4);
  moveAssigned = std::move(moved);
  EXPECT_EQ(moveAssigned.profileId(), idA);
}

TEST(ProfileIdentity, ProbeStampsHintWithOwnerId) {
  AvailabilityProfile p(8);
  FitHint hint;
  (void)p.findEarliestFit(0, 5, 2, kTimeInfinity, &hint);
  EXPECT_EQ(hint.profile, p.profileId());
  EXPECT_EQ(hint.version, p.version());
}

TEST(FitHintResume, ForwardProbesMatchUnhintedOnAFragmentedProfile) {
  // A chain's probes share one hint and jump forward past each other's
  // scans, often across many segments; every resumed probe must still
  // answer exactly as a fresh lookup does.
  Rng rng(11);
  AvailabilityProfile p(8);
  for (int i = 0; i < 400; ++i) {
    const Time begin = rng.uniformInt(0, 4000);
    const TimeInterval iv{begin, begin + rng.uniformInt(1, 40)};
    const int procs = static_cast<int>(rng.uniformInt(1, 8));
    if (p.minAvailable(iv) >= procs) p.reserve(iv, procs);
  }
  ASSERT_GT(p.segmentCount(), 200u);
  for (int chain = 0; chain < 50; ++chain) {
    FitHint hint;
    Time earliest = rng.uniformInt(0, 200);
    for (int k = 0; k < 8; ++k) {
      const Time duration = rng.uniformInt(1, 60);
      const int procs = static_cast<int>(rng.uniformInt(1, 8));
      const Time deadline = rng.uniformBelow(3) == 0
                                ? earliest + rng.uniformInt(0, 400)
                                : kTimeInfinity;
      const auto hinted =
          p.findEarliestFit(earliest, duration, procs, deadline, &hint);
      ASSERT_EQ(hinted, p.findEarliestFit(earliest, duration, procs,
                                          deadline))
          << "chain " << chain << " task " << k;
      earliest = hinted ? *hinted + duration
                        : earliest + rng.uniformInt(0, 300);
    }
  }
}

TEST(FitHintCrossProfile, HintFromEqualVersionSiblingIsIgnored) {
  // Regression: two profiles can reach identical mutation counters through
  // different histories.  Before the identity token, a hint written by `a`
  // validated against `b` (same version) and resumed b's scan mid-array,
  // skipping b's actual earliest hole and returning a far-too-late start.
  AvailabilityProfile a(8);
  a.reserve(TimeInterval{0, 10}, 8);
  a.reserve(TimeInterval{10, 20}, 7);
  a.reserve(TimeInterval{20, 30}, 8);
  a.reserve(TimeInterval{30, 100}, 7);

  AvailabilityProfile b(8);
  b.reserve(TimeInterval{50, 60}, 8);
  b.reserve(TimeInterval{60, 70}, 7);
  b.reserve(TimeInterval{70, 80}, 8);
  b.reserve(TimeInterval{80, 100}, 7);

  // Same mutation count — the version check alone cannot tell them apart.
  ASSERT_EQ(a.version(), b.version());

  FitHint hint;
  // a is saturated until t=100, so its probe parks the hint deep in the
  // segment array.
  const auto fitA = a.findEarliestFit(0, 5, 2, kTimeInfinity, &hint);
  ASSERT_TRUE(fitA.has_value());
  EXPECT_EQ(*fitA, 100);
  EXPECT_EQ(hint.profile, a.profileId());

  // b is wide open at t=0.  Feeding it a's hint must not move the answer.
  const auto unhinted = b.findEarliestFit(0, 5, 2, kTimeInfinity);
  const auto hinted = b.findEarliestFit(0, 5, 2, kTimeInfinity, &hint);
  ASSERT_TRUE(unhinted.has_value());
  EXPECT_EQ(*unhinted, 0);
  EXPECT_EQ(hinted, unhinted);
  // The probe re-stamps the hint for its own profile, so follow-up probes
  // on b CAN resume.
  EXPECT_EQ(hint.profile, b.profileId());
  const auto resumed = b.findEarliestFit(0, 5, 2, kTimeInfinity, &hint);
  EXPECT_EQ(resumed, unhinted);
}

TEST(FitHintCrossProfile, CopySharesLayoutButNotHints) {
  // A copy starts byte-identical, but the histories diverge immediately:
  // honouring the original's hint after the copy mutates would be unsound,
  // and the fresh id guarantees it never happens.
  AvailabilityProfile a(8);
  a.reserve(TimeInterval{0, 50}, 8);
  AvailabilityProfile copy(a);
  copy.release(TimeInterval{0, 50}, 8);
  a.reserve(TimeInterval{50, 60}, 8);  // equalise the mutation counters
  ASSERT_EQ(a.version(), copy.version());
  FitHint hint;
  (void)a.findEarliestFit(0, 5, 2, kTimeInfinity, &hint);
  ASSERT_EQ(hint.version, copy.version());
  const auto hinted = copy.findEarliestFit(0, 5, 2, kTimeInfinity, &hint);
  const auto unhinted = copy.findEarliestFit(0, 5, 2, kTimeInfinity);
  EXPECT_EQ(hinted, unhinted);
  ASSERT_TRUE(unhinted.has_value());
  EXPECT_EQ(*unhinted, 0);
}

TEST(ProfileMetricsObservation, CountersTrackProbesWithoutChangingResults) {
  obs::MetricsRegistry registry;
  obs::ProfileMetrics metrics = obs::ProfileMetrics::fromRegistry(registry, "p");
  AvailabilityProfile instrumented(8);
  AvailabilityProfile plain(8);
  for (auto* p : {&instrumented, &plain}) {
    p->reserve(TimeInterval{0, 10}, 8);
    p->reserve(TimeInterval{20, 30}, 7);
  }
  instrumented.attachMetrics(&metrics);

  FitHint hint;
  const auto r1 = instrumented.findEarliestFit(0, 5, 2, kTimeInfinity, &hint);
  const auto r2 = instrumented.findEarliestFit(0, 5, 2, kTimeInfinity, &hint);
  EXPECT_EQ(r1, plain.findEarliestFit(0, 5, 2, kTimeInfinity));
  EXPECT_EQ(r1, r2);

  EXPECT_EQ(metrics.fitProbes->value(), 2u);
  // First probe has a default (invalid) hint; the second resumes from it.
  EXPECT_EQ(metrics.fitHintMisses->value(), 1u);
  EXPECT_EQ(metrics.fitHintHits->value(), 1u);
  EXPECT_GT(metrics.segmentsScanned->value(), 0u);

  {
    AvailabilityProfile::Trial trial(instrumented);
    instrumented.reserve(TimeInterval{40, 50}, 3);
    trial.rollback();
    trial.commit();
  }
  EXPECT_EQ(metrics.trialRollbacks->value(), 1u);
  EXPECT_EQ(metrics.trialCommits->value(), 1u);
  EXPECT_EQ(metrics.trialOpsUndone->value(), 1u);
}

TEST(ProfileTrialDeath, NestedTrialAborts) {
  AvailabilityProfile p(8);
  AvailabilityProfile::Trial outer(p);
  EXPECT_DEATH(AvailabilityProfile::Trial inner(p), "nest");
  outer.commit();
}

TEST(ProfileTrialDeath, DiscardBeforeInsideTrialAborts) {
  AvailabilityProfile p(8);
  AvailabilityProfile::Trial trial(p);
  EXPECT_DEATH(p.discardBefore(10), "Trial");
  trial.commit();
}

TEST(AvailabilityProfile, BusyProcessorTicks) {
  AvailabilityProfile p(10);
  p.reserve(TimeInterval{10, 20}, 4);
  p.reserve(TimeInterval{15, 30}, 6);
  EXPECT_EQ(p.busyProcessorTicks(TimeInterval{0, 10}), 0);
  EXPECT_EQ(p.busyProcessorTicks(TimeInterval{10, 15}), 4 * 5);
  EXPECT_EQ(p.busyProcessorTicks(TimeInterval{15, 20}), 10 * 5);
  EXPECT_EQ(p.busyProcessorTicks(TimeInterval{0, 40}),
            4 * 5 + 10 * 5 + 6 * 10);
  EXPECT_EQ(p.busyProcessorTicks(TimeInterval{12, 17}), 4 * 3 + 10 * 2);
}

TEST(AvailabilityProfile, DiscardBeforeRetiresBusyCapacity) {
  AvailabilityProfile p(10);
  p.reserve(TimeInterval{0, 20}, 4);
  p.reserve(TimeInterval{10, 30}, 3);
  const auto before = p.busyProcessorTicks(TimeInterval{0, 30});
  p.discardBefore(15);
  EXPECT_EQ(p.horizonStart(), 15);
  EXPECT_EQ(p.retiredBusyTicks(), 4 * 15 + 3 * 5);
  EXPECT_EQ(p.retiredBusyTicks() + p.busyProcessorTicks(TimeInterval{15, 30}),
            before);
  // Queries at/after the new horizon still work.
  EXPECT_EQ(p.availableAt(15), 3);
  EXPECT_EQ(p.availableAt(25), 7);
}

TEST(AvailabilityProfile, DiscardBeforeIsMonotonicNoOp) {
  AvailabilityProfile p(10);
  p.reserve(TimeInterval{0, 20}, 4);
  p.discardBefore(10);
  const auto retired = p.retiredBusyTicks();
  p.discardBefore(5);  // going backwards is a no-op
  EXPECT_EQ(p.retiredBusyTicks(), retired);
  EXPECT_EQ(p.horizonStart(), 10);
}

TEST(AvailabilityProfileDeath, QueriesBeforeHorizonAbort) {
  AvailabilityProfile p(10);
  p.reserve(TimeInterval{0, 20}, 4);
  p.discardBefore(10);
  EXPECT_DEATH((void)p.availableAt(5), "horizon");
  EXPECT_DEATH(p.reserve(TimeInterval{5, 15}, 1), "horizon");
}

TEST(AvailabilityProfile, CoalescingKeepsSegmentCountMinimal) {
  AvailabilityProfile p(8);
  p.reserve(TimeInterval{0, 10}, 3);
  p.reserve(TimeInterval{10, 20}, 3);  // adjacent, same depth -> one segment
  EXPECT_EQ(p.segmentCount(), 2u);     // [0,20)@5 and tail@8
  p.release(TimeInterval{0, 20}, 3);
  EXPECT_EQ(p.segmentCount(), 1u);
}

TEST(AvailabilityProfile, BreakpointsAreSorted) {
  AvailabilityProfile p(8);
  p.reserve(TimeInterval{30, 40}, 1);
  p.reserve(TimeInterval{10, 20}, 1);
  const auto bps = p.breakpoints();
  EXPECT_TRUE(std::is_sorted(bps.begin(), bps.end()));
  EXPECT_EQ(bps.front(), 0);
}

TEST(AvailabilityProfile, DumpMentionsSegments) {
  AvailabilityProfile p(4);
  p.reserve(TimeInterval{0, kTicksPerUnit}, 1);
  const auto text = p.dump();
  EXPECT_NE(text.find("3 free"), std::string::npos);
  EXPECT_NE(text.find("4 free"), std::string::npos);
  EXPECT_NE(text.find("inf"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Property tests against the dense reference model.
// ---------------------------------------------------------------------------

class ProfilePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProfilePropertyTest, RandomOperationsMatchDenseModel) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  const int total = static_cast<int>(rng.uniformInt(1, 12));
  const Time horizon = 200;
  AvailabilityProfile profile(total);
  DenseModel model(total, horizon);

  struct Res {
    TimeInterval iv;
    int procs;
  };
  std::vector<Res> live;

  for (int step = 0; step < 300; ++step) {
    const bool doReserve = live.empty() || rng.bernoulli(0.6);
    if (doReserve) {
      const Time b = rng.uniformInt(0, horizon - 2);
      const Time e = rng.uniformInt(b + 1, std::min<Time>(b + 40, horizon));
      const TimeInterval iv{b, e};
      const int free = model.minOver(iv);
      if (free == 0) continue;
      const int procs = static_cast<int>(rng.uniformInt(1, free));
      profile.reserve(iv, procs);
      model.reserve(iv, procs);
      live.push_back(Res{iv, procs});
    } else {
      const auto idx =
          static_cast<std::size_t>(rng.uniformBelow(live.size()));
      profile.release(live[idx].iv, live[idx].procs);
      model.release(live[idx].iv, live[idx].procs);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    }

    // Point queries at random instants.
    for (int q = 0; q < 5; ++q) {
      const Time t = rng.uniformInt(0, horizon - 1);
      ASSERT_EQ(profile.availableAt(t), model.at(t))
          << "seed=" << seed << " step=" << step << " t=" << t;
    }
    // Interval minimum.
    {
      const Time b = rng.uniformInt(0, horizon - 1);
      const Time e = rng.uniformInt(b, horizon);
      ASSERT_EQ(profile.minAvailable(TimeInterval{b, e}),
                model.minOver(TimeInterval{b, e}));
    }
    // Busy integral.
    {
      const Time b = rng.uniformInt(0, horizon - 1);
      const Time e = rng.uniformInt(b, horizon);
      ASSERT_EQ(profile.busyProcessorTicks(TimeInterval{b, e}),
                model.busy(TimeInterval{b, e}));
    }
    // Earliest fit.
    {
      const Time earliest = rng.uniformInt(0, horizon / 2);
      const Time duration = rng.uniformInt(1, 30);
      const int procs = static_cast<int>(rng.uniformInt(1, total + 1));
      const Time deadline = rng.uniformInt(earliest, horizon);
      const auto got =
          profile.findEarliestFit(earliest, duration, procs, deadline);
      const auto want = model.earliestFit(earliest, duration, procs, deadline);
      ASSERT_EQ(got.has_value(), want.has_value())
          << "seed=" << seed << " step=" << step << " earliest=" << earliest
          << " dur=" << duration << " procs=" << procs
          << " deadline=" << deadline;
      if (got) {
        ASSERT_EQ(*got, *want);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, ProfilePropertyTest,
                         ::testing::Range<std::uint64_t>(0, 20));

TEST(ProfileProperty, SegmentCountStaysBoundedWithGc) {
  // Steady-state simulation pattern: reservations march forward in time and
  // the profile is garbage-collected behind the clock; segment count must
  // not grow without bound.
  AvailabilityProfile p(16);
  Rng rng(99);
  Time clock = 0;
  std::size_t maxSegments = 0;
  for (int i = 0; i < 5'000; ++i) {
    clock += rng.uniformInt(1, 10);
    p.discardBefore(clock);
    const Time start = clock + rng.uniformInt(0, 50);
    const Time duration = rng.uniformInt(1, 100);
    const int procs = static_cast<int>(rng.uniformInt(1, 4));
    if (p.minAvailable(TimeInterval{start, start + duration}) >= procs) {
      p.reserve(TimeInterval{start, start + duration}, procs);
    }
    maxSegments = std::max(maxSegments, p.segmentCount());
  }
  EXPECT_LT(maxSegments, 200u);
}

}  // namespace
}  // namespace tprm::resource
