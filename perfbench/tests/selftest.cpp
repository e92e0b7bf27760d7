// Self-tests of the benchmark's own helpers (perfbench/src/helpers.h).
//
//   .bench_build/perfbench/tprmbench_selftest
#include <gtest/gtest.h>

#include <vector>

#include "helpers.h"
#include "spans.h"

namespace perfbench {
namespace {

using tprm::sched::TaskPlacement;

TaskPlacement placement(tprm::Time begin, tprm::Time end, int processors) {
  TaskPlacement p;
  p.interval = {begin, end};
  p.processors = processors;
  return p;
}

TEST(PercentileRule, ReportsHighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(supportedPercentile(0), 0.0);
  EXPECT_EQ(supportedPercentile(19), 0.0);  // 9 beyond the median
  EXPECT_EQ(supportedPercentile(20), 50.0);
  EXPECT_EQ(supportedPercentile(99), 50.0);  // 9 beyond p90
  EXPECT_EQ(supportedPercentile(100), 90.0);
  EXPECT_EQ(supportedPercentile(999), 90.0);  // 9 beyond p99
  EXPECT_EQ(supportedPercentile(1000), 99.0);
  EXPECT_EQ(supportedPercentile(10'000), 99.9);
  EXPECT_EQ(supportedPercentile(100'000), 99.99);
  EXPECT_EQ(samplesBeyond(1000, 99.0), 10u);
}

TEST(PercentileRule, NearestRankValues) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);
  EXPECT_EQ(percentile(values, 50.0), 50.0);
  EXPECT_EQ(percentile(values, 90.0), 90.0);
  EXPECT_EQ(percentile(values, 99.0), 99.0);
  EXPECT_EQ(percentile(values, 100.0), 100.0);
  const auto summary = summarize(values);
  EXPECT_EQ(summary.count, 100u);
  EXPECT_EQ(summary.tailPercentile, 90.0);
  EXPECT_EQ(summary.tailValue, 90.0);
  EXPECT_DOUBLE_EQ(summary.mean, 50.5);
  EXPECT_EQ(median({3.0, 1.0, 2.0, 10.0}), 2.5);
}

TEST(PlacementLedger, UtilizationFollowsReshapedPlacements) {
  PlacementLedger ledger;
  ledger.admit(1, 1.0, {placement(0, 10, 4)});
  ledger.admit(2, 1.0, {placement(0, 10, 4)});
  EXPECT_DOUBLE_EQ(ledger.utilization(8), 1.0);

  // A RESHAPED demotion replaces job 2's placements: half the width for
  // twice the time, so the span doubles while the area stays the same.
  ledger.reshape(2, 0.6, {placement(0, 20, 2)});
  EXPECT_DOUBLE_EQ(ledger.utilization(8), 80.0 / (8.0 * 20.0));
  EXPECT_DOUBLE_EQ(ledger.meanQuality(), 0.8);

  // Cancelled jobs leave the live placements but keep their quality.
  ledger.cancel(1);
  EXPECT_DOUBLE_EQ(ledger.utilization(8), 40.0 / (8.0 * 20.0));
  EXPECT_DOUBLE_EQ(ledger.meanQuality(), 0.8);

  // A move for a job the client never saw admitted is ignored.
  ledger.reshape(99, 0.1, {placement(0, 1000, 8)});
  EXPECT_EQ(ledger.admitted(), 2u);
  EXPECT_DOUBLE_EQ(ledger.utilization(8), 40.0 / (8.0 * 20.0));
}

TEST(PlacementLedger, MultiTaskSpanRunsFromEarliestBeginToLatestEnd) {
  PlacementLedger ledger;
  ledger.admit(7, 0.5, {placement(10, 20, 2), placement(20, 40, 1)});
  EXPECT_DOUBLE_EQ(ledger.utilization(4), (20.0 + 20.0) / (4.0 * 30.0));
  EXPECT_DOUBLE_EQ(PlacementLedger().utilization(4), 0.0);
}

TEST(OpenLoop, OffsetsKeepBurstsAndHitTheMeanRate) {
  const auto unit = tprm::kTicksPerUnit;
  // Four releases at 0, 1, 2 and 12 units; 1000 requests/s over the stream
  // puts the last one 3 ms in, and the burst stays a burst.
  const auto offsets =
      openLoopOffsetsNs({0, 1 * unit, 2 * unit, 12 * unit}, 1000.0);
  ASSERT_EQ(offsets.size(), 4u);
  EXPECT_EQ(offsets[0], 0);
  EXPECT_EQ(offsets[1], 250'000);
  EXPECT_EQ(offsets[2], 500'000);
  EXPECT_EQ(offsets[3], 3'000'000);
}

TEST(OpenLoop, LatencyRunsFromTheDueTimeAndLagIsNeverNegative) {
  // The generator stalls 1.5 ms at the first request: it is sent late, and
  // the request behind it — sent early enough on its own schedule — still
  // pays for the stall in its latency.
  OpenLoopSample first{1'000'000, 2'500'000, 2'600'000};
  OpenLoopSample second{2'000'000, 2'500'000, 2'700'000};
  OpenLoopSample early{3'000'000, 2'999'000, 3'050'000};
  EXPECT_DOUBLE_EQ(sendLagUs(first), 1500.0);
  EXPECT_DOUBLE_EQ(latencyFromDueUs(first), 1600.0);
  EXPECT_DOUBLE_EQ(sendLagUs(second), 500.0);
  EXPECT_DOUBLE_EQ(latencyFromDueUs(second), 700.0);
  EXPECT_DOUBLE_EQ(sendLagUs(early), 0.0);
  EXPECT_DOUBLE_EQ(latencyFromDueUs(early), 50.0);
}

TEST(Spans, ParentsAndRequestIdsSurviveTheLog) {
  SpanLog log(3);
  const auto parent = log.open("replay.request", 100, 0, 42);
  const auto child = log.add("qos.submit", 110, 150, parent, 42);
  log.close(parent, 200);
  ASSERT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.spans()[0].endNs, 200);
  EXPECT_EQ(log.spans()[1].parent, parent);
  EXPECT_NE(child, parent);
  EXPECT_EQ(log.spans()[1].tid, 3u);
  const auto submits = durationsUs(log.spans(), "qos.submit");
  ASSERT_EQ(submits.size(), 1u);
  EXPECT_DOUBLE_EQ(submits[0], 0.04);
}

}  // namespace
}  // namespace perfbench
