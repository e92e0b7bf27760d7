#include "taskmodel/chain.h"

#include <gtest/gtest.h>

namespace tprm::task {
namespace {

Chain twoTaskChain() {
  Chain chain;
  chain.name = "c";
  chain.tasks = {TaskSpec::rigid("a", 16, 25, 200, 0.9),
                 TaskSpec::rigid("b", 4, 100, 250, 0.8)};
  return chain;
}

TEST(Chain, Aggregates) {
  const auto chain = twoTaskChain();
  EXPECT_EQ(chain.totalArea(), 16 * 25 + 4 * 100);
  EXPECT_EQ(chain.criticalPathLength(), 125);
  EXPECT_EQ(chain.maxProcessors(), 16);
}

TEST(Chain, PrefixAreas) {
  const auto chain = twoTaskChain();
  const auto prefix = chain.prefixAreas();
  ASSERT_EQ(prefix.size(), 2u);
  EXPECT_EQ(prefix[0], 400);
  EXPECT_EQ(prefix[1], 800);
}

TEST(Chain, QualityComposition) {
  const auto chain = twoTaskChain();
  EXPECT_NEAR(chain.quality(QualityComposition::Multiplicative), 0.72, 1e-12);
  EXPECT_NEAR(chain.quality(QualityComposition::Minimum), 0.8, 1e-12);
}

TEST(Chain, EmptyChainHasZeroQuality) {
  Chain chain;
  EXPECT_DOUBLE_EQ(chain.quality(), 0.0);
  EXPECT_EQ(chain.totalArea(), 0);
  EXPECT_EQ(chain.criticalPathLength(), 0);
  EXPECT_EQ(chain.maxProcessors(), 0);
}

TEST(TunableJobSpec, TunableFlag) {
  TunableJobSpec spec;
  spec.chains = {twoTaskChain()};
  EXPECT_FALSE(spec.tunable());
  spec.chains.push_back(twoTaskChain());
  EXPECT_TRUE(spec.tunable());
}

TEST(JobInstance, AbsoluteDeadlines) {
  JobInstance job;
  job.release = 1000;
  job.spec.chains = {twoTaskChain()};
  EXPECT_EQ(job.absoluteDeadline(0, 0), 1200);
  EXPECT_EQ(job.absoluteDeadline(0, 1), 1250);
}

TEST(JobInstance, InfiniteDeadlineStaysInfinite) {
  JobInstance job;
  job.release = 1000;
  Chain chain;
  chain.tasks = {TaskSpec::rigid("a", 1, 1, kTimeInfinity)};
  job.spec.chains = {chain};
  EXPECT_EQ(job.absoluteDeadline(0, 0), kTimeInfinity);
}

TEST(JobInstanceDeath, OutOfRangeIndices) {
  JobInstance job;
  job.spec.chains = {twoTaskChain()};
  EXPECT_DEATH((void)job.absoluteDeadline(1, 0), "chain index");
  EXPECT_DEATH((void)job.absoluteDeadline(0, 2), "task index");
}

TEST(Validate, AcceptsWellFormedSpec) {
  TunableJobSpec spec;
  spec.name = "ok";
  spec.chains = {twoTaskChain()};
  EXPECT_TRUE(validate(spec).empty());
}

// The rejection tests pin each diagnostic's full text: the messages reach
// clients as "bad spec: ..." errors.
TEST(Validate, RejectsNoChains) {
  TunableJobSpec spec;
  spec.name = "empty";
  EXPECT_EQ(validate(spec),
            (std::vector<std::string>{"job 'empty' has no chains"}));
}

TEST(Validate, RejectsEmptyChain) {
  TunableJobSpec spec;
  spec.chains = {Chain{}};
  EXPECT_EQ(validate(spec),
            (std::vector<std::string>{"job '' chain 0 ('') is empty"}));

  // The location names the chain by index and name, past one digit too.
  Chain empty;
  empty.name = "e";
  spec.name = "j";
  spec.chains.assign(10, twoTaskChain());
  spec.chains.push_back(empty);
  EXPECT_EQ(validate(spec),
            (std::vector<std::string>{"job 'j' chain 10 ('e') is empty"}));
}

TEST(Validate, RejectsBadShape) {
  TunableJobSpec spec;
  Chain chain;
  TaskSpec bad;
  bad.name = "bad";
  bad.request = {0, 0};
  chain.tasks = {bad};
  spec.chains = {chain};
  EXPECT_EQ(validate(spec),
            (std::vector<std::string>{
                "job '' chain 0 ('') task 0 ('bad'): processors <= 0",
                "job '' chain 0 ('') task 0 ('bad'): duration <= 0"}));
}

TEST(Validate, RejectsQualityOutOfRange) {
  TunableJobSpec spec;
  auto chain = twoTaskChain();
  chain.tasks[0].quality = 1.5;
  chain.tasks[1].quality = -0.5;
  spec.chains = {chain};
  EXPECT_EQ(validate(spec),
            (std::vector<std::string>{
                "job '' chain 0 ('c') task 0 ('a'): quality outside [0, 1]",
                "job '' chain 0 ('c') task 1 ('b'): quality outside "
                "[0, 1]"}));
}

TEST(Validate, RejectsDecreasingDeadlines) {
  TunableJobSpec spec;
  Chain chain;
  chain.tasks = {TaskSpec::rigid("a", 1, 10, 100),
                 TaskSpec::rigid("b", 1, 10, 50)};
  spec.chains = {chain};
  EXPECT_EQ(validate(spec),
            (std::vector<std::string>{
                "job '' chain 0 ('') task 1 ('b'): relative deadline "
                "decreases along the chain (a deadline covers all "
                "predecessors, so it must be non-decreasing)"}));
}

TEST(Validate, RejectsInfeasibleCriticalPath) {
  TunableJobSpec spec;
  Chain chain;
  chain.tasks = {TaskSpec::rigid("a", 1, 100, 50)};  // 100 > deadline 50
  spec.chains = {chain};
  EXPECT_EQ(validate(spec),
            (std::vector<std::string>{
                "job '' chain 0 ('') task 0 ('a'): infeasible even on an "
                "idle machine (critical path 0.0001 exceeds deadline "
                "0.00005)"}));

  // The critical path accumulates along the chain: 2.5 + 1 units against
  // the second task's 3-unit deadline.
  chain.tasks = {
      TaskSpec::rigid("a", 1, 5 * kTicksPerUnit / 2, 3 * kTicksPerUnit),
      TaskSpec::rigid("b", 1, kTicksPerUnit, 3 * kTicksPerUnit)};
  spec.chains = {chain};
  EXPECT_EQ(validate(spec),
            (std::vector<std::string>{
                "job '' chain 0 ('') task 1 ('b'): infeasible even on an "
                "idle machine (critical path 3.5 exceeds deadline 3)"}));
}

TEST(Validate, RejectsInconsistentMalleableSpec) {
  TunableJobSpec spec;
  Chain chain;
  auto t = TaskSpec::rigid("a", 8, 10, 100);
  t.malleable = MalleableSpec{80, 4};  // maxConcurrency < shape processors
  chain.tasks = {t};
  spec.chains = {chain};
  EXPECT_EQ(validate(spec),
            (std::vector<std::string>{
                "job '' chain 0 ('') task 0 ('a'): degree of concurrency "
                "below the rigid shape's processors"}));

  spec.chains[0].tasks[0].malleable = MalleableSpec{0, 8};
  EXPECT_EQ(validate(spec),
            (std::vector<std::string>{
                "job '' chain 0 ('') task 0 ('a'): malleable work <= 0"}));
}

TEST(Validate, ReportsChainAndTaskNames) {
  TunableJobSpec spec;
  spec.name = "myjob";
  Chain chain;
  chain.name = "mychain";
  chain.tasks = {TaskSpec::rigid("mytask", 1, 100, 50)};
  spec.chains = {twoTaskChain(), chain};
  EXPECT_EQ(validate(spec),
            (std::vector<std::string>{
                "job 'myjob' chain 1 ('mychain') task 0 ('mytask'): "
                "infeasible even on an idle machine (critical path 0.0001 "
                "exceeds deadline 0.00005)"}));
}

}  // namespace
}  // namespace tprm::task
