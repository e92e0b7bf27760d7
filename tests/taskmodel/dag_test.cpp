#include "taskmodel/dag.h"

#include <gtest/gtest.h>

namespace tprm::task {
namespace {

DagTask node(const std::string& name, int procs, Time dur, Time deadline,
             std::vector<std::size_t> preds = {}, double quality = 1.0) {
  DagTask t;
  t.spec = TaskSpec::rigid(name, procs, dur, deadline, quality);
  t.predecessors = std::move(preds);
  return t;
}

/// Diamond: a -> {b, c} -> d.
DagSpec diamond() {
  DagSpec dag;
  dag.name = "diamond";
  dag.tasks = {node("a", 2, 10, 1000),
               node("b", 4, 20, 1000, {0}),
               node("c", 2, 30, 1000, {0}),
               node("d", 2, 10, 1000, {1, 2})};
  return dag;
}

TEST(DagSpec, TotalArea) {
  EXPECT_EQ(diamond().totalArea(), 2 * 10 + 4 * 20 + 2 * 30 + 2 * 10);
}

TEST(DagSpec, TopologicalOrderIsValidAndDeterministic) {
  const auto dag = diamond();
  const auto order = dag.topologicalOrder();
  ASSERT_EQ(order.size(), 4u);
  std::vector<std::size_t> position(4);
  for (std::size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  for (std::size_t v = 0; v < dag.tasks.size(); ++v) {
    for (const std::size_t p : dag.tasks[v].predecessors) {
      EXPECT_LT(position[p], position[v]);
    }
  }
  // Deterministic (index tie-break): a, b, c, d.
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(DagSpec, CriticalPathLength) {
  // a(10) -> c(30) -> d(10) is the longest path: 50.
  EXPECT_EQ(diamond().criticalPathLength(), 50);
}

TEST(DagSpecDeath, CycleAborts) {
  DagSpec dag;
  dag.tasks = {node("a", 1, 10, 1000, {1}), node("b", 1, 10, 1000, {0})};
  EXPECT_DEATH((void)dag.topologicalOrder(), "cycle");
}

TEST(ValidateDag, AcceptsDiamond) {
  TunableDagJobSpec spec;
  spec.name = "ok";
  spec.alternatives = {diamond()};
  EXPECT_TRUE(validateDag(spec).empty());
}

// The rejection tests pin each diagnostic's full text.
TEST(ValidateDag, RejectsEmptyAndCyclic) {
  TunableDagJobSpec empty;
  empty.name = "empty";
  EXPECT_EQ(validateDag(empty),
            (std::vector<std::string>{"dag job 'empty' has no alternatives"}));

  DagSpec emptyAlternative;
  emptyAlternative.name = "e";
  empty.alternatives = {diamond(), emptyAlternative};
  EXPECT_EQ(validateDag(empty),
            (std::vector<std::string>{
                "dag job 'empty' alternative 1 ('e') is empty"}));

  TunableDagJobSpec cyclic;
  DagSpec dag;
  dag.tasks = {node("a", 1, 10, 1000, {1}), node("b", 1, 10, 1000, {0})};
  cyclic.alternatives = {dag};
  EXPECT_EQ(validateDag(cyclic),
            (std::vector<std::string>{
                "dag job '' alternative 0 ('') contains a cycle"}));
}

TEST(ValidateDag, RejectsSelfLoopAndBadIndex) {
  TunableDagJobSpec spec;
  DagSpec dag;
  dag.tasks = {node("a", 1, 10, 1000, {0})};  // self-loop
  spec.alternatives = {dag};
  EXPECT_EQ(validateDag(spec),
            (std::vector<std::string>{
                "dag job '' alternative 0 ('') task 0 ('a'): task depends on "
                "itself"}));

  DagSpec bad;
  bad.tasks = {node("a", 1, 10, 1000, {7})};
  spec.alternatives = {bad};
  EXPECT_EQ(validateDag(spec),
            (std::vector<std::string>{
                "dag job '' alternative 0 ('') task 0 ('a'): predecessor "
                "index out of range"}));
}

TEST(ValidateDag, RejectsInfeasibleDeadlineAlongPath) {
  TunableDagJobSpec spec;
  DagSpec dag;
  // a(30) -> b(30) with b's deadline at 50 < 60.
  dag.tasks = {node("a", 1, 30, 1000), node("b", 1, 30, 50, {0})};
  spec.alternatives = {dag};
  EXPECT_EQ(validateDag(spec),
            (std::vector<std::string>{
                "dag job '' alternative 0 ('') task 1 ('b'): infeasible even "
                "on an idle machine (earliest finish 0.00006 exceeds "
                "deadline 0.00005)"}));
}

TEST(ValidateDag, RejectsBadShapes) {
  TunableDagJobSpec spec;
  spec.name = "d";
  DagSpec dag;
  dag.name = "alt";
  DagTask bad;
  bad.spec.name = "bad";
  bad.spec.request = {0, 0};
  bad.spec.quality = 2.0;
  dag.tasks = {bad};
  spec.alternatives = {dag};
  EXPECT_EQ(validateDag(spec),
            (std::vector<std::string>{
                "dag job 'd' alternative 0 ('alt') task 0 ('bad'): "
                "processors <= 0",
                "dag job 'd' alternative 0 ('alt') task 0 ('bad'): "
                "duration <= 0",
                "dag job 'd' alternative 0 ('alt') task 0 ('bad'): quality "
                "outside [0, 1]"}));
}

TEST(DagFromChains, PreservesStructure) {
  TunableJobSpec chains;
  chains.name = "chainjob";
  Chain chain;
  chain.name = "c0";
  chain.tasks = {TaskSpec::rigid("x", 2, 10, 100),
                 TaskSpec::rigid("y", 4, 20, 200)};
  chains.chains = {chain, chain};
  const auto dag = dagFromChains(chains);
  EXPECT_EQ(dag.name, "chainjob");
  ASSERT_EQ(dag.alternatives.size(), 2u);
  const auto& alt = dag.alternatives[0];
  ASSERT_EQ(alt.tasks.size(), 2u);
  EXPECT_TRUE(alt.tasks[0].predecessors.empty());
  EXPECT_EQ(alt.tasks[1].predecessors, (std::vector<std::size_t>{0}));
  EXPECT_TRUE(validateDag(dag).empty());
}

}  // namespace
}  // namespace tprm::task
