// Deadline / stop-token / truncation behaviour across all enumeration
// engines and the Realist's parallel training phase, plus SearchStats
// aggregation semantics.

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>

#include <gtest/gtest.h>

#include "core/pure_drivers.h"
#include "core/smart_psi.h"
#include "graph/query_extractor.h"
#include "match/cfl_match.h"
#include "match/engine.h"
#include "match/psi_evaluator.h"
#include "match/subgraph_enumerator.h"
#include "match/turbo_iso.h"
#include "match/ullmann.h"
#include "match/vf2.h"
#include "signature/builders.h"
#include "tests/test_fixtures.h"
#include "util/timer.h"

namespace psi::match {
namespace {

/// A query whose enumeration is large enough that every engine must hit
/// its periodic deadline poll.
graph::QueryGraph HeavyQuery() {
  graph::QueryGraph q;
  graph::NodeId prev = q.AddNode(0);
  q.set_pivot(prev);
  for (int i = 1; i < 5; ++i) {
    const graph::NodeId next = q.AddNode(0);
    q.AddEdge(prev, next);
    prev = next;
  }
  return q;
}

class EngineLimitsTest : public ::testing::Test {
 protected:
  EngineLimitsTest()
      : g_(psi::testing::MakeRandomGraph(500, 3500, 2, 71)),
        q_(HeavyQuery()) {}

  graph::Graph g_;
  graph::QueryGraph q_;
};

template <typename Engine>
void ExpectDeadlineCensors(const graph::Graph& g,
                           const graph::QueryGraph& q) {
  Engine engine(g);
  MatchingEngine::Options options;
  options.deadline = util::Deadline::After(-1.0);
  const auto result = engine.Enumerate(q, nullptr, options);
  EXPECT_FALSE(result.complete);
}

TEST_F(EngineLimitsTest, BasicDeadline) {
  ExpectDeadlineCensors<BasicEngine>(g_, q_);
}
TEST_F(EngineLimitsTest, TurboIsoDeadline) {
  ExpectDeadlineCensors<TurboIsoEngine>(g_, q_);
}
TEST_F(EngineLimitsTest, CflMatchDeadline) {
  ExpectDeadlineCensors<CflMatchEngine>(g_, q_);
}
TEST_F(EngineLimitsTest, UllmannDeadline) {
  ExpectDeadlineCensors<UllmannEngine>(g_, q_);
}
TEST_F(EngineLimitsTest, Vf2Deadline) {
  ExpectDeadlineCensors<Vf2Engine>(g_, q_);
}

TEST_F(EngineLimitsTest, TurboIsoPlusDeadline) {
  TurboIsoEngine engine(g_);
  MatchingEngine::Options options;
  options.deadline = util::Deadline::After(-1.0);
  const auto psi = engine.EvaluatePsi(q_, options);
  EXPECT_FALSE(psi.complete);
}

template <typename Engine>
void ExpectMaxEmbeddingsTruncates(const graph::Graph& g,
                                  const graph::QueryGraph& q) {
  Engine engine(g);
  MatchingEngine::Options options;
  options.max_embeddings = 5;
  const auto result = engine.Enumerate(q, nullptr, options);
  EXPECT_EQ(result.embedding_count, 5u);
  EXPECT_FALSE(result.complete);
}

TEST_F(EngineLimitsTest, MaxEmbeddingsAcrossEngines) {
  ExpectMaxEmbeddingsTruncates<BasicEngine>(g_, q_);
  ExpectMaxEmbeddingsTruncates<TurboIsoEngine>(g_, q_);
  ExpectMaxEmbeddingsTruncates<CflMatchEngine>(g_, q_);
  ExpectMaxEmbeddingsTruncates<UllmannEngine>(g_, q_);
  ExpectMaxEmbeddingsTruncates<Vf2Engine>(g_, q_);
}

TEST_F(EngineLimitsTest, StopTokenCancelsEnumeration) {
  util::StopSource source;
  source.RequestStop();
  BasicEngine engine(g_);
  MatchingEngine::Options options;
  options.stop = util::StopToken(&source);
  const auto result = engine.Enumerate(q_, nullptr, options);
  EXPECT_FALSE(result.complete);
}

// The Realist's training phase runs its ground-truth nodes across the
// engine's work-stealing workers (DESIGN.md §14.1). A deadline or a stop
// that lands mid-training must abort every worker: the result is marked
// incomplete, holds only proven answers, and arrives within a bounded
// overrun. Every candidate is a training node here (train_fraction = 1)
// and the forests have one tree each, so nearly all of a run is ground-
// truth evaluation: refuting a 5-cycle through each of ~2000 pivots.
class RealistTraining : public ::testing::Test {
 protected:
  RealistTraining()
      : g_(psi::testing::MakeRandomGraph(2000, 6000, 1, 83)),
        q_(CycleQuery(5)) {}

  static graph::QueryGraph CycleQuery(graph::NodeId length) {
    graph::QueryGraph q;
    for (graph::NodeId v = 0; v < length; ++v) q.AddNode(0);
    for (graph::NodeId v = 0; v < length; ++v) {
      q.AddEdge(v, (v + 1) % length);
    }
    q.set_pivot(0);
    return q;
  }

  static core::SmartPsiConfig TrainingOnlyConfig() {
    core::SmartPsiConfig config;
    config.num_threads = 4;
    config.min_candidates_for_ml = 4;
    config.train_fraction = 1.0;
    config.max_train_nodes = std::numeric_limits<size_t>::max();
    config.forest_trees = 1;
    return config;
  }

  /// The exact answer, from the pessimistic pure driver.
  std::vector<graph::NodeId> Oracle() const {
    const auto sigs = signature::BuildSignatures(
        g_, signature::Method::kMatrix, 2, g_.num_labels());
    core::PureDriverOptions pure;
    pure.strategy = core::PureStrategy::kPessimistic;
    const auto truth = core::EvaluatePure(g_, sigs, q_, pure);
    EXPECT_TRUE(truth.complete);
    return truth.valid_nodes;
  }

  /// Wall seconds of one uninterrupted training-only evaluation, after
  /// checking that it is complete and exact.
  double FullRunSeconds(const std::vector<graph::NodeId>& oracle) const {
    core::SmartPsiEngine engine(g_, TrainingOnlyConfig());
    const core::PsiQueryResult full = engine.Evaluate(q_);
    EXPECT_TRUE(full.complete);
    EXPECT_EQ(full.valid_nodes, oracle);
    EXPECT_GT(full.num_training_nodes, 1000u);
    return full.total_seconds;
  }

  static void ExpectInterruptedSubset(const core::PsiQueryResult& result,
                                      const std::vector<graph::NodeId>& oracle) {
    EXPECT_FALSE(result.complete);
    EXPECT_GT(result.search.recursive_calls, 0u) << "training never started";
    EXPECT_TRUE(std::is_sorted(result.valid_nodes.begin(),
                               result.valid_nodes.end()));
    EXPECT_TRUE(std::includes(oracle.begin(), oracle.end(),
                              result.valid_nodes.begin(),
                              result.valid_nodes.end()));
  }

  graph::Graph g_;
  graph::QueryGraph q_;
};

TEST_F(RealistTraining, DeadlineMidTrainingReturnsProvenSubset) {
  const std::vector<graph::NodeId> oracle = Oracle();
  const double full_seconds = FullRunSeconds(oracle);
  const double budget = full_seconds / 4;

  core::SmartPsiEngine engine(g_, TrainingOnlyConfig());
  util::WallTimer timer;
  const core::PsiQueryResult result =
      engine.Evaluate(q_, util::Deadline::After(budget));
  const double elapsed = timer.Seconds();
  ExpectInterruptedSubset(result, oracle);
  EXPECT_LT(elapsed, budget + full_seconds / 2) << "unbounded overrun";
}

TEST_F(RealistTraining, StopMidTrainingReturnsProvenSubset) {
  const std::vector<graph::NodeId> oracle = Oracle();
  const double full_seconds = FullRunSeconds(oracle);
  const double fire_after = full_seconds / 4;

  core::SmartPsiEngine engine(g_, TrainingOnlyConfig());
  util::StopSource source;
  util::WallTimer timer;
  std::thread stopper([&source, fire_after] {
    std::this_thread::sleep_for(std::chrono::duration<double>(fire_after));
    source.RequestStop();
  });
  const core::PsiQueryResult result =
      engine.Evaluate(q_, util::Deadline(), util::StopToken(&source));
  const double elapsed = timer.Seconds();
  stopper.join();
  ExpectInterruptedSubset(result, oracle);
  EXPECT_LT(elapsed, fire_after + full_seconds / 2) << "unbounded overrun";
}

TEST(SearchStatsTest, AggregationSumsAllCounters) {
  SearchStats a;
  a.recursive_calls = 1;
  a.candidates_examined = 2;
  a.signature_checks = 3;
  a.pruned_by_signature = 4;
  a.score_sorts = 5;
  a.embeddings_found = 6;
  a.work_steals = 10;
  SearchStats b = a;
  b += a;
  EXPECT_EQ(b.recursive_calls, 2u);
  EXPECT_EQ(b.candidates_examined, 4u);
  EXPECT_EQ(b.signature_checks, 6u);
  EXPECT_EQ(b.pruned_by_signature, 8u);
  EXPECT_EQ(b.score_sorts, 10u);
  EXPECT_EQ(b.embeddings_found, 12u);
  EXPECT_EQ(b.work_steals, 20u);
}

TEST(OutcomeTest, Names) {
  EXPECT_STREQ(OutcomeName(Outcome::kValid), "valid");
  EXPECT_STREQ(OutcomeName(Outcome::kInvalid), "invalid");
  EXPECT_STREQ(OutcomeName(Outcome::kTimeout), "timeout");
  EXPECT_STREQ(OutcomeName(Outcome::kStopped), "stopped");
  EXPECT_STREQ(PsiModeName(PsiMode::kOptimistic), "optimistic");
  EXPECT_STREQ(PsiModeName(PsiMode::kSuperOptimistic), "super-optimistic");
  EXPECT_STREQ(PsiModeName(PsiMode::kPessimistic), "pessimistic");
}

}  // namespace
}  // namespace psi::match
