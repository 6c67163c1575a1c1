// Search-core upgrades (DESIGN.md §14): Luby restart policy, nogood
// recording, and work-stealing parallel search. Covers the policy math,
// the store's exactness/binding semantics, the stealing executor's
// exactly-once contract, and the enumerator's budget/restart/parallel
// paths against its own sequential ground truth.

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "match/nogood_store.h"
#include "match/parallel_search.h"
#include "match/plan.h"
#include "match/psi_evaluator.h"
#include "match/restart_policy.h"
#include "match/subgraph_enumerator.h"
#include "signature/builders.h"
#include "tests/test_fixtures.h"
#include "util/thread_pool.h"

namespace psi::match {
namespace {

// --- Luby sequence -------------------------------------------------------

TEST(RestartPolicyTest, LubyPrefixMatchesTheLiterature) {
  const uint64_t expected[] = {1, 1, 2, 1, 1, 2, 4, 1, 1, 2,
                               1, 1, 2, 4, 8, 1, 1, 2, 1, 1};
  for (size_t i = 0; i < std::size(expected); ++i) {
    EXPECT_EQ(LubyValue(i + 1), expected[i]) << "i=" << i + 1;
  }
  // Positions 2^k - 1 are the powers themselves.
  EXPECT_EQ(LubyValue(31), 16u);
  EXPECT_EQ(LubyValue(63), 32u);
}

TEST(RestartPolicyTest, BudgetForRunScalesAndTerminates) {
  RestartOptions options;
  options.enabled = true;
  options.unit_nodes = 100;
  options.max_restarts = 4;
  EXPECT_EQ(options.BudgetForRun(0), 100u);
  EXPECT_EQ(options.BudgetForRun(1), 100u);
  EXPECT_EQ(options.BudgetForRun(2), 200u);
  EXPECT_EQ(options.BudgetForRun(3), 100u);
  // The final run is budget-unlimited — the soundness guarantee.
  EXPECT_EQ(options.BudgetForRun(4), 0u);
  EXPECT_EQ(options.BudgetForRun(1000), 0u);
  RestartOptions disabled;
  EXPECT_EQ(disabled.BudgetForRun(0), 0u);
}

TEST(RestartPolicyTest, PerturbationIsDeterministicAndRunZeroIsIdentity) {
  RestartOptions options;
  options.enabled = true;
  // Run 0 perturbs nothing: the first budgeted run walks exactly the tree
  // the non-restarting search would.
  EXPECT_EQ(PerturbationSeed(options, 7, 0), 0u);
  const uint64_t a = PerturbationSeed(options, 7, 1);
  const uint64_t b = PerturbationSeed(options, 7, 1);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, 0u);
  EXPECT_NE(PerturbationSeed(options, 7, 1), PerturbationSeed(options, 7, 2));
  EXPECT_NE(PerturbationSeed(options, 7, 1), PerturbationSeed(options, 8, 1));
}

// --- Nogood store --------------------------------------------------------

TEST(NogoodStoreTest, RecordsAndLooksUpExactPrefixes) {
  NogoodStore store(/*salt=*/42);
  const graph::NodeId head[] = {3, 1, 4};
  EXPECT_FALSE(store.Contains(head, 5));
  EXPECT_TRUE(store.Record(head, 5));
  EXPECT_TRUE(store.Contains(head, 5));
  EXPECT_EQ(store.size(), 1u);
  // Exact match only: different last element, shorter head, permuted head.
  EXPECT_FALSE(store.Contains(head, 6));
  EXPECT_FALSE(store.Contains({head, 2}, 5));
  const graph::NodeId permuted[] = {1, 3, 4};
  EXPECT_FALSE(store.Contains(permuted, 5));
  // Duplicates are refused.
  EXPECT_FALSE(store.Record(head, 5));
  EXPECT_EQ(store.size(), 1u);
}

TEST(NogoodStoreTest, EnforcesLimits) {
  NogoodStore::Limits limits;
  limits.max_entries = 2;
  limits.max_prefix_length = 3;
  NogoodStore store(/*salt=*/0, limits);
  const graph::NodeId head[] = {1, 2, 3};
  // head(3) + last = prefix of 4 > max_prefix_length: refused.
  EXPECT_FALSE(store.Record(head, 4));
  EXPECT_TRUE(store.Record({head, 2}, 9));
  EXPECT_TRUE(store.Record({head, 1}, 9));
  EXPECT_TRUE(store.full());
  EXPECT_FALSE(store.Record({head, 1}, 8));
  EXPECT_EQ(store.size(), 2u);
}

TEST(NogoodStoreTest, BindingChangeDropsEntries) {
  NogoodStore store;
  const graph::NodeId head[] = {1, 2};
  store.EnsureBinding(100);
  EXPECT_TRUE(store.Record(head, 3));
  store.EnsureBinding(100);  // same binding: entries survive
  EXPECT_TRUE(store.Contains(head, 3));
  store.EnsureBinding(200);  // new (query, plan): everything is stale
  EXPECT_TRUE(store.empty());
  EXPECT_FALSE(store.Contains(head, 3));
}

TEST(NogoodStoreTest, ResetReSalts) {
  NogoodStore store(/*salt=*/1);
  const graph::NodeId head[] = {1, 2};
  EXPECT_TRUE(store.Record(head, 3));
  store.Reset(/*salt=*/2);
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.salt(), 2u);
  EXPECT_FALSE(store.Contains(head, 3));
}

// --- Work-stealing executor ----------------------------------------------

TEST(WorkStealingTest, EveryItemRunsExactlyOnce) {
  for (const size_t workers : {1u, 2u, 3u, 8u, 64u}) {
    for (const size_t count : {0u, 1u, 5u, 97u}) {
      std::vector<std::atomic<int>> hits(count);
      RunWorkStealing(count, workers, nullptr, [&](size_t item, size_t) {
        hits[item].fetch_add(1, std::memory_order_relaxed);
      });
      for (size_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "workers=" << workers << " i=" << i;
      }
    }
  }
}

TEST(WorkStealingTest, RunsOnAProvidedPool) {
  util::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(200);
  RunWorkStealing(hits.size(), 4, &pool, [&](size_t item, size_t) {
    hits[item].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(WorkStealingTest, ImbalancedWorkProvokesSteals) {
  // One worker owns a range of slow items; the others run dry and steal.
  // Steals are schedule-dependent, so only assert the exactly-once
  // contract plus a sane return value.
  std::atomic<uint64_t> done{0};
  const uint64_t steals =
      RunWorkStealing(64, 4, nullptr, [&](size_t item, size_t) {
        if (item < 16) {
          // Busy-spin to hold the first range's owner occupied.
          for (volatile int spin = 0; spin < 50000;) {
            spin = spin + 1;
          }
        }
        done.fetch_add(1, std::memory_order_relaxed);
      });
  EXPECT_EQ(done.load(), 64u);
  EXPECT_LT(steals, 64u);
}

// --- Enumerator: budgets, restarts, parallel projection ------------------

class EnumeratorSearchCoreTest : public ::testing::Test {
 protected:
  // An extracted query is guaranteed at least one embedding (itself).
  EnumeratorSearchCoreTest()
      : g_(psi::testing::MakeRandomGraph(300, 1800, 3, 29)),
        q_(psi::testing::ExtractQuery(g_, 4, 17)) {}

  void SetUp() override {
    if (q_.num_nodes() != 4) GTEST_SKIP() << "extraction failed";
  }

  graph::Graph g_;
  graph::QueryGraph q_;
};

TEST_F(EnumeratorSearchCoreTest, NodeBudgetTruncates) {
  SubgraphEnumerator enumerator(g_);
  const Plan plan = MakeHeuristicPlan(q_, g_, q_.pivot());
  SubgraphEnumerator::Options unlimited;
  const auto full = enumerator.CountEmbeddings(q_, plan, unlimited);
  ASSERT_TRUE(full.complete);
  ASSERT_GT(full.embedding_count, 0u);

  SubgraphEnumerator::Options budgeted;
  budgeted.node_budget = 1;  // expands almost nothing
  const auto cut = enumerator.CountEmbeddings(q_, plan, budgeted);
  EXPECT_FALSE(cut.complete);
  EXPECT_LT(cut.embedding_count, full.embedding_count);
}

TEST_F(EnumeratorSearchCoreTest, RestartsStayExact) {
  SubgraphEnumerator enumerator(g_);
  const Plan plan = MakeHeuristicPlan(q_, g_, q_.pivot());
  SubgraphEnumerator::Options plain;
  const auto expected = enumerator.ProjectPivot(q_, plan, plain);
  ASSERT_TRUE(expected.complete);

  SubgraphEnumerator::Options restarting;
  restarting.restarts.enabled = true;
  restarting.restarts.unit_nodes = 2;  // tiny: forces many restarts
  restarting.restarts.max_restarts = 5;
  SearchStats stats;
  const auto got = enumerator.ProjectPivot(q_, plan, restarting, &stats);
  EXPECT_TRUE(got.complete);
  EXPECT_EQ(got.pivot_matches, expected.pivot_matches);
  EXPECT_EQ(got.embedding_count, expected.embedding_count);
  EXPECT_GT(stats.restarts, 0u);
}

TEST_F(EnumeratorSearchCoreTest, ParallelProjectionBitIdenticalAcrossThreads) {
  SubgraphEnumerator enumerator(g_);
  const Plan plan = MakeHeuristicPlan(q_, g_, q_.pivot());
  SubgraphEnumerator::Options options;
  const auto sequential = enumerator.ProjectPivot(q_, plan, options);
  ASSERT_TRUE(sequential.complete);

  for (const size_t threads : {2u, 3u, 8u}) {
    SearchStats stats;
    const auto parallel = enumerator.ProjectPivotParallel(
        q_, plan, options, threads, nullptr, &stats);
    EXPECT_TRUE(parallel.complete) << threads;
    EXPECT_EQ(parallel.pivot_matches, sequential.pivot_matches) << threads;
    EXPECT_EQ(parallel.embedding_count, sequential.embedding_count)
        << threads;
  }

  util::ThreadPool pool(4);
  const auto pooled =
      enumerator.ProjectPivotParallel(q_, plan, options, 4, &pool);
  EXPECT_TRUE(pooled.complete);
  EXPECT_EQ(pooled.pivot_matches, sequential.pivot_matches);
}

TEST_F(EnumeratorSearchCoreTest, ParallelRespectsMaxEmbeddings) {
  SubgraphEnumerator enumerator(g_);
  const Plan plan = MakeHeuristicPlan(q_, g_, q_.pivot());
  SubgraphEnumerator::Options unlimited;
  const auto full = enumerator.ProjectPivot(q_, plan, unlimited);
  ASSERT_GT(full.embedding_count, 2u);

  SubgraphEnumerator::Options capped;
  capped.max_embeddings = 2;
  const auto cut = enumerator.ProjectPivotParallel(q_, plan, capped, 4);
  EXPECT_FALSE(cut.complete);
  EXPECT_GE(cut.embedding_count, capped.max_embeddings);
  // A truncated projection is a subset of the full answer.
  for (const graph::NodeId v : cut.pivot_matches) {
    EXPECT_TRUE(std::binary_search(full.pivot_matches.begin(),
                                   full.pivot_matches.end(), v));
  }
}

// --- Evaluator: restart soundness under budgets and deadlines ------------

class EvaluatorRestartTest : public ::testing::Test {
 protected:
  EvaluatorRestartTest()
      : g_(psi::testing::MakeRandomGraph(300, 1800, 3, 29)),
        q_(psi::testing::ExtractQuery(g_, 5, 23)),
        gs_(signature::BuildMatrixSignatures(g_, 2, g_.num_labels())),
        qs_(signature::BuildMatrixSignatures(q_, 2, g_.num_labels())),
        plan_(q_.num_nodes() == 5 ? MakeHeuristicPlan(q_, g_, q_.pivot())
                                  : Plan()) {}

  void SetUp() override {
    if (q_.num_nodes() != 5) GTEST_SKIP() << "extraction failed";
  }

  graph::Graph g_;
  graph::QueryGraph q_;
  signature::SignatureMatrix gs_;
  signature::SignatureMatrix qs_;
  Plan plan_;
};

TEST_F(EvaluatorRestartTest, FinalUnbudgetedRunKeepsAnswersExact) {
  PsiEvaluator baseline(g_, gs_);
  baseline.BindQuery(q_, qs_, plan_);
  PsiEvaluator::Options plain;
  plain.mode = PsiMode::kPessimistic;

  PsiEvaluator restarting_eval(g_, gs_);
  restarting_eval.BindQuery(q_, qs_, plan_);
  NogoodStore nogoods(/*salt=*/7);
  PsiEvaluator::Options restarting = plain;
  restarting.restarts.enabled = true;
  restarting.restarts.unit_nodes = 1;  // every run exhausts immediately
  restarting.restarts.max_restarts = 3;
  restarting.nogoods = &nogoods;

  SearchStats stats;
  for (graph::NodeId u = 0; u < g_.num_nodes(); ++u) {
    const Outcome expected = baseline.EvaluateNode(u, plain);
    const Outcome got = restarting_eval.EvaluateNode(u, restarting, &stats);
    // kBudgetExhausted is internal to the restart loop and must never
    // escape: the final run is unlimited, so the answer is exact.
    ASSERT_NE(got, Outcome::kBudgetExhausted) << u;
    EXPECT_EQ(got, expected) << u;
  }
  EXPECT_GT(stats.restarts, 0u);
}

TEST_F(EvaluatorRestartTest, ExpiredDeadlineStillReportsTimeout) {
  PsiEvaluator evaluator(g_, gs_);
  evaluator.BindQuery(q_, qs_, plan_);
  NogoodStore nogoods;
  PsiEvaluator::Options options;
  options.mode = PsiMode::kPessimistic;
  options.restarts.enabled = true;
  options.restarts.unit_nodes = 1;
  options.nogoods = &nogoods;
  options.deadline = util::Deadline::After(-1.0);
  // Restart budgets must not mask the deadline: the run is censored, not
  // falsely completed.
  bool saw_timeout = false;
  for (graph::NodeId u = 0; u < g_.num_nodes() && !saw_timeout; ++u) {
    saw_timeout = evaluator.EvaluateNode(u, options) == Outcome::kTimeout;
  }
  EXPECT_TRUE(saw_timeout);
}

TEST_F(EvaluatorRestartTest, NogoodsRecordAndHitAcrossRuns) {
  PsiEvaluator evaluator(g_, gs_);
  evaluator.BindQuery(q_, qs_, plan_);
  NogoodStore nogoods;
  PsiEvaluator::Options options;
  options.mode = PsiMode::kPessimistic;
  options.restarts.enabled = true;
  options.restarts.unit_nodes = 4;
  options.restarts.max_restarts = 8;
  options.nogoods = &nogoods;
  SearchStats stats;
  for (graph::NodeId u = 0; u < g_.num_nodes(); ++u) {
    evaluator.EvaluateNode(u, options, &stats);
  }
  // On a graph this size the tiny budgets must fire at least one restart
  // boundary that records something.
  EXPECT_GT(stats.restarts, 0u);
  EXPECT_GT(stats.nogoods_recorded, 0u);
}

}  // namespace
}  // namespace psi::match
