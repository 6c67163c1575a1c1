// Tests for the benchmark itself: the percentile helpers, open-loop
// lateness accounting, the correctness check, span output, and a tiny
// smoke run of every workload that checks each named metric is emitted
// with its unit.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <thread>

#include "openloop.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace psibench {
namespace {

RunOptions TinyOptions(bool trace = false) {
  RunOptions options;
  options.seed = 3;
  options.seconds = 1.0;
  options.threads = 2;
  options.trace = trace;
  return options;
}

TEST(PercentileTest, NearestRankReturnsObservedSamples) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);
  EXPECT_EQ(Percentile(samples, 0.5), 50);
  EXPECT_EQ(Percentile(samples, 0.99), 99);
  EXPECT_EQ(Percentile(samples, 1.0), 100);
  EXPECT_EQ(Percentile(samples, 0.0), 1);
  EXPECT_EQ(Percentile({}, 0.5), 0);
}

TEST(PercentileTest, HighestSupportedPercentileNeedsTenBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(10000), 0.999);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(9999), 0.99);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(1000), 0.99);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(999), 0.95);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(100), 0.90);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(99), 0.75);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(20), 0.50);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(19), 0.0);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(0), 0.0);
}

TEST(OpenLoopTest, StallInflatesLatencyFromDueTime) {
  // 100 q/s for 0.2 s: requests due every 10 ms. Request 2's send blocks
  // for 80 ms, as a stalled service would; requests 3.. are then sent late
  // and their latency from the due time must include that wait even
  // though the "service" answers each of them instantly.
  const std::vector<SendRecord> records = RunOpenLoop(100.0, 0.2, [](size_t i) {
    if (i == 2) std::this_thread::sleep_for(std::chrono::milliseconds(80));
  });
  ASSERT_EQ(records.size(), 20u);  // nothing skipped: every request is sent
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_NEAR(records[i].due_s, i * 0.01, 1e-9);
    EXPECT_GE(records[i].sent_s, records[i].due_s);
  }
  EXPECT_LT(LatencyFromDue(records[1], 0.0), 0.02);
  // Request 3 was due at 30 ms but could only go out after ~100 ms.
  EXPECT_GE(LatencyFromDue(records[3], 0.0), 0.06);
  EXPECT_GE(LatencyFromDue(records[3], 0.005),
            LatencyFromDue(records[3], 0.0) + 0.005 - 1e-12);
  // The generator catches up: the last request goes out on time again.
  EXPECT_LT(LatencyFromDue(records.back(), 0.0), 0.02);
}

TEST(TracerTest, DisabledRecordsNothing) {
  Tracer tracer(false);
  { const ScopedSpan span(tracer, "x", 0, 1); }
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(TracerTest, SpanCostIsMeasured) {
  const double cost = SpanCostSeconds();
  EXPECT_GT(cost, 0.0);
  EXPECT_LT(cost, 1e-3);
}

TEST(TracerTest, WritesOneJsonObjectPerSpan) {
  Tracer tracer(true);
  {
    const ScopedSpan root(tracer, "root", 0, 7);
    const ScopedSpan child(tracer, "child", root.id(), 7);
    EXPECT_EQ(child.id(), root.id() + 1);
  }
  const std::string path = ::testing::TempDir() + "psibench_spans.jsonl";
  ASSERT_TRUE(tracer.WriteJsonLines(path));
  std::ifstream in(path);
  std::string first, second, extra;
  ASSERT_TRUE(std::getline(in, first));
  ASSERT_TRUE(std::getline(in, second));
  EXPECT_FALSE(std::getline(in, extra));
  EXPECT_NE(first.find("\"id\":1,\"parent\":0,\"request\":7,\"name\":\"root\""),
            std::string::npos);
  EXPECT_NE(second.find("\"id\":2,\"parent\":1,\"request\":7"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(CorrectnessTest, ServeTripsOnCorruptedReference) {
  const WorkloadSpec spec = TinySpec("serve");
  Inputs in = MakeInputs(spec, 2);
  Tracer off(false);
  EXPECT_TRUE(RunServe(spec, in, TinyOptions(), 1.0, off).correct());
  // Query 0 is the most popular under the Zipf skew, so it is sent.
  in.answers[0].push_back(static_cast<graph::NodeId>(in.graph.num_nodes()));
  const Result bad = RunServe(spec, in, TinyOptions(), 1.0, off);
  EXPECT_FALSE(bad.correct());
  EXPECT_GT(bad.tally.failed, 0u);
  EXPECT_LT(bad.Get("ok_share"), 1.0);
}

TEST(CorrectnessTest, DeepTripsOnCorruptedReference) {
  const WorkloadSpec spec = TinySpec("deep");
  Inputs in = MakeInputs(spec, 2);
  in.answers[0].clear();
  in.answers[0].push_back(static_cast<graph::NodeId>(in.graph.num_nodes()));
  Tracer off(false);
  const Result bad = RunDeep(spec, in, TinyOptions(), 0.5, off);
  EXPECT_FALSE(bad.correct());
  // Query 0 is sent once per round, and wrong every time.
  EXPECT_GE(bad.tally.wrong, 1u);
  EXPECT_EQ(bad.tally.wrong * in.queries.size(), bad.tally.attempted);
}

TEST(CorrectnessTest, MineTripsOnCorruptedReference) {
  const WorkloadSpec spec = TinySpec("mine");
  Inputs in = MakeInputs(spec, 2);
  ASSERT_FALSE(in.reference_mine.frequent.empty());
  Tracer off(false);
  EXPECT_TRUE(RunMine(spec, in, TinyOptions(), 0.2, off).correct());
  in.reference_mine.frequent.pop_back();
  const Result bad = RunMine(spec, in, TinyOptions(), 0.2, off);
  EXPECT_FALSE(bad.correct());
}

class SmokeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SmokeTest, EveryEndToEndMetricIsMeasured) {
  const WorkloadSpec spec = TinySpec(GetParam());
  Inputs in = MakeInputs(spec, 2);
  const Result result = RunWorkload(spec, in, TinyOptions(), "");
  EXPECT_TRUE(result.correct());
  EXPECT_EQ(result.tally.failed, 0u);
  EXPECT_GT(result.tally.attempted, 0u);
  std::vector<std::string> not_exercised;
  const std::vector<Metric> metrics = NamedMetrics(result, false, &not_exercised);
  EXPECT_TRUE(not_exercised.empty());
  ASSERT_EQ(metrics.size(), EndToEndMetrics().size());
  for (size_t i = 0; i < metrics.size(); ++i) {
    EXPECT_EQ(metrics[i].name, EndToEndMetrics()[i].first);
    EXPECT_EQ(metrics[i].unit, EndToEndMetrics()[i].second);
    EXPECT_TRUE(std::isfinite(metrics[i].value)) << metrics[i].name;
    EXPECT_GT(metrics[i].value, 0.0) << metrics[i].name;
  }
  EXPECT_DOUBLE_EQ(result.Get("ok_share"), 1.0);
}

TEST_P(SmokeTest, TracedRunEmitsEveryLayerMetricAndSpans) {
  const WorkloadSpec spec = TinySpec(GetParam());
  Inputs in = MakeInputs(spec, 2);
  const std::string path =
      ::testing::TempDir() + "psibench_smoke_" + GetParam() + ".jsonl";
  const Result result = RunWorkload(spec, in, TinyOptions(true), path);
  EXPECT_TRUE(result.correct());
  EXPECT_EQ(result.tally.failed, 0u);
  std::vector<std::string> not_exercised;
  const std::vector<Metric> metrics = NamedMetrics(result, true, &not_exercised);
  ASSERT_EQ(metrics.size(), PerLayerMetrics().size());
  for (size_t i = 0; i < metrics.size(); ++i) {
    EXPECT_EQ(metrics[i].name, PerLayerMetrics()[i].first);
    EXPECT_EQ(metrics[i].unit, PerLayerMetrics()[i].second);
    EXPECT_TRUE(std::isfinite(metrics[i].value)) << metrics[i].name;
  }
  // Only the layers a workload does not run may go unmeasured.
  std::set<std::string> allowed;
  if (GetParam() == "mine") {
    // A mine's probes are settled inside the miner, which keeps no
    // per-request responses to split into queue wait and execution.
    allowed = {"loadgen.lag_ms_p99",     "service.queue_wait_ms_p50",
               "service.queue_wait_ms_p99", "service.exec_ms_p50",
               "service.exec_ms_p99",    "service.busy_share"};
  } else {
    allowed = {"fsm.candidates_evaluated", "fsm.frequent_patterns",
               "fsm.mine_s", "fsm.inproc_mine_s",
               "fsm.serving_overhead_ratio"};
  }
  for (const std::string& name : not_exercised) {
    EXPECT_TRUE(allowed.count(name) > 0) << name << " was not measured";
  }
  EXPECT_GT(result.Get("trace.spans"), 0.0);
  EXPECT_GT(result.Get("signature.build_s"), 0.0);
  std::ifstream spans(path);
  std::string line;
  size_t lines = 0;
  while (std::getline(spans, line)) ++lines;
  EXPECT_EQ(static_cast<double>(lines), result.Get("trace.spans"));
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Workloads, SmokeTest,
                         ::testing::Values("serve", "deep", "mine"));

}  // namespace
}  // namespace psibench
