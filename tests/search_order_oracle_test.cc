// Visit-order oracle for PsiEvaluator's candidate generation. The evaluator
// scans each level's candidates lazily: the pessimist visits a candidate as
// soon as it passes the signature check, and the super-optimist stops
// scanning at its cap. The reference DFS below does it the eager way —
// materialize every consistent candidate, then filter (pessimist) or cap
// and rank (optimists), then visit — using only the dense scalar signature
// functions. Both must take the same decisions in the same order, so every
// Outcome and every SearchStats::recursive_calls count must be equal.
// Registered in the differential binary, so the chaos and injection-off
// suites run it too.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph_builder.h"
#include "match/plan.h"
#include "match/psi_evaluator.h"
#include "signature/builders.h"
#include "tests/test_fixtures.h"

namespace psi::match {
namespace {

/// Eager reference search: EvaluateNode's semantics with the candidate
/// list of every level built in full before its first visit.
class ReferenceSearch {
 public:
  ReferenceSearch(const graph::Graph& g,
                  const signature::SignatureMatrix& graph_sigs,
                  const graph::QueryGraph& q,
                  const signature::SignatureMatrix& query_sigs,
                  const Plan& plan)
      : g_(g), gs_(graph_sigs), q_(q), qs_(query_sigs), plan_(plan) {}

  /// EvaluateNode(candidate) in `mode` with cap `limit`; adds the
  /// recursive calls made to `*calls`.
  Outcome Evaluate(graph::NodeId candidate, PsiMode mode, size_t limit,
                   uint64_t* calls) {
    const graph::NodeId pivot = q_.pivot();
    if (g_.label(candidate) != q_.label(pivot)) return Outcome::kInvalid;
    if (g_.degree(candidate) < q_.degree(pivot)) return Outcome::kInvalid;
    if (mode == PsiMode::kPessimistic &&
        !signature::Satisfies(gs_.row(candidate), qs_.row(pivot))) {
      ++pruned_;
      return Outcome::kInvalid;
    }
    mapping_.assign(q_.num_nodes(), graph::kInvalidNode);
    mapping_[pivot] = candidate;
    return Search(1, mode, limit, calls);
  }

  /// EvaluateNodeOptimisticStrategy: a capped pass, then a full one.
  Outcome EvaluateStrategy(graph::NodeId candidate, size_t limit,
                           uint64_t* calls) {
    const Outcome quick =
        Evaluate(candidate, PsiMode::kSuperOptimistic, limit, calls);
    if (quick != Outcome::kInvalid) return quick;
    return Evaluate(candidate, PsiMode::kOptimistic, limit, calls);
  }

  /// Candidates the pessimist's signature check removed so far (shows the
  /// check is exercised).
  uint64_t pruned() const { return pruned_; }

 private:
  Outcome Search(size_t level, PsiMode mode, size_t limit, uint64_t* calls) {
    ++*calls;
    if (level == plan_.size()) return Outcome::kValid;
    const graph::NodeId v = plan_.order[level];
    std::vector<graph::NodeId> candidates = Consistent(v);
    if (mode == PsiMode::kPessimistic) {
      const size_t before = candidates.size();
      std::erase_if(candidates, [&](graph::NodeId c) {
        return !signature::Satisfies(gs_.row(c), qs_.row(v));
      });
      pruned_ += before - candidates.size();
    } else {
      if (mode == PsiMode::kSuperOptimistic && candidates.size() > limit) {
        candidates.resize(limit);
      }
      std::stable_sort(candidates.begin(), candidates.end(),
                       [&](graph::NodeId a, graph::NodeId b) {
                         return Score(a, v) > Score(b, v);
                       });
    }
    for (const graph::NodeId c : candidates) {
      mapping_[v] = c;
      const Outcome result = Search(level + 1, mode, limit, calls);
      mapping_[v] = graph::kInvalidNode;
      if (result != Outcome::kInvalid) return result;
    }
    return Outcome::kInvalid;
  }

  /// Every unused data node, in ascending id (the order of any sorted
  /// adjacency list), whose label and degree fit query node `v` and which
  /// is joined by the right edge labels to the images of all of `v`'s
  /// mapped query neighbors.
  std::vector<graph::NodeId> Consistent(graph::NodeId v) const {
    std::vector<graph::NodeId> out;
    for (graph::NodeId c = 0; c < g_.num_nodes(); ++c) {
      if (g_.label(c) != q_.label(v) || g_.degree(c) < q_.degree(v)) continue;
      if (std::find(mapping_.begin(), mapping_.end(), c) != mapping_.end()) {
        continue;
      }
      bool consistent = true;
      for (const auto& [nbr, edge_label] : q_.neighbors(v)) {
        if (mapping_[nbr] == graph::kInvalidNode) continue;
        const auto label = g_.EdgeLabelBetween(mapping_[nbr], c);
        if (!label.has_value() || *label != edge_label) {
          consistent = false;
          break;
        }
      }
      if (consistent) out.push_back(c);
    }
    return out;
  }

  float Score(graph::NodeId c, graph::NodeId v) const {
    return static_cast<float>(
        signature::SatisfiabilityScore(gs_.row(c), qs_.row(v)));
  }

  const graph::Graph& g_;
  const signature::SignatureMatrix& gs_;
  const graph::QueryGraph& q_;
  const signature::SignatureMatrix& qs_;
  const Plan& plan_;
  std::vector<graph::NodeId> mapping_;
  uint64_t pruned_ = 0;
};

/// Random labeled background plus `hubs` label-0 nodes adjacent to every
/// label-1 node, so search levels anchored on a hub see candidate lists far
/// longer than the super-optimist's cap, while the sparse background keeps
/// signatures varied enough for the pessimist to prune.
graph::Graph MakeHubGraph(size_t nodes, size_t hubs, size_t extra_edges,
                          uint64_t seed) {
  util::Rng rng(seed);
  graph::GraphBuilder b;
  for (size_t u = 0; u < nodes; ++u) {
    b.AddNode(u < hubs ? 0 : static_cast<graph::Label>(1 + u % 3));
  }
  for (size_t h = 0; h < hubs; ++h) {
    for (size_t u = hubs; u < nodes; u += 3) {
      b.AddEdge(static_cast<graph::NodeId>(h), static_cast<graph::NodeId>(u));
    }
  }
  for (size_t e = 0; e < extra_edges; ++e) {
    b.AddEdge(static_cast<graph::NodeId>(rng.NextBounded(nodes)),
              static_cast<graph::NodeId>(rng.NextBounded(nodes)));
  }
  return std::move(b).Build();
}

struct OracleCase {
  std::string name;
  bool hub;
  bool compact;

  friend void PrintTo(const OracleCase& c, std::ostream* os) { *os << c.name; }
};

class SearchOrderOracleTest : public ::testing::TestWithParam<OracleCase> {};

/// Graphs of one case, each with the seed it was drawn from.
std::vector<std::pair<uint64_t, graph::Graph>> CaseGraphs(
    const OracleCase& c) {
  std::vector<std::pair<uint64_t, graph::Graph>> graphs;
  for (const uint64_t base : {11u, 12u, 13u, 14u}) {
    const uint64_t seed = psi::testing::TestSeed(base + (c.hub ? 50 : 0));
    graphs.emplace_back(seed, c.hub ? MakeHubGraph(120, 3, 200, seed)
                                    : psi::testing::MakeRandomGraph(
                                          200, 900, 3, seed));
  }
  return graphs;
}

TEST_P(SearchOrderOracleTest, LazyScanVisitsExactlyTheEagerOrder) {
  const OracleCase& oracle_case = GetParam();
  uint64_t reference_pruned = 0;
  size_t queries = 0;
  for (const auto& [seed, g] : CaseGraphs(oracle_case)) {
    PSI_LOG_TEST_SEED(seed);
    signature::SignatureMatrix gs =
        signature::BuildMatrixSignatures(g, 2, g.num_labels());
    if (oracle_case.compact) gs.BuildCompact();
    ASSERT_EQ(gs.compact() != nullptr, oracle_case.compact);
    util::Rng plan_rng(seed + 1);
    for (const size_t size : {4u, 5u}) {
      const graph::QueryGraph q =
          psi::testing::ExtractQuery(g, size, seed + size);
      if (q.num_nodes() != size) continue;
      ++queries;
      const signature::SignatureMatrix qs =
          signature::BuildMatrixSignatures(q, 2, g.num_labels());
      for (const Plan& plan : {MakeHeuristicPlan(q, g, q.pivot()),
                               MakeRandomPlan(q, q.pivot(), plan_rng)}) {
        SCOPED_TRACE("size " + std::to_string(size) + " plan " +
                     plan.ToString());
        ReferenceSearch reference(g, gs, q, qs, plan);
        PsiEvaluator evaluator(g, gs);
        evaluator.BindQuery(q, qs, plan);

        for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
          for (const PsiMode mode :
               {PsiMode::kPessimistic, PsiMode::kOptimistic,
                PsiMode::kSuperOptimistic}) {
            for (const size_t limit : {size_t{1}, size_t{2}, size_t{10}}) {
              if (mode != PsiMode::kSuperOptimistic && limit != 10) continue;
              PsiEvaluator::Options options;
              options.mode = mode;
              options.super_optimistic_limit = limit;
              SearchStats stats;
              uint64_t expected_calls = 0;
              const Outcome expected =
                  reference.Evaluate(u, mode, limit, &expected_calls);
              ASSERT_EQ(evaluator.EvaluateNode(u, options, &stats), expected)
                  << PsiModeName(mode) << " limit " << limit << " node " << u;
              ASSERT_EQ(stats.recursive_calls, expected_calls)
                  << PsiModeName(mode) << " limit " << limit << " node " << u;
            }
          }

          PsiEvaluator::Options options;
          SearchStats stats;
          uint64_t expected_calls = 0;
          const Outcome expected =
              reference.EvaluateStrategy(u, 10, &expected_calls);
          ASSERT_EQ(
              evaluator.EvaluateNodeOptimisticStrategy(u, options, &stats),
              expected)
              << "optimistic strategy node " << u;
          ASSERT_EQ(stats.recursive_calls, expected_calls)
              << "optimistic strategy node " << u;
        }
        reference_pruned += reference.pruned();
      }
    }
  }
  ASSERT_GT(queries, 0u) << "no query could be extracted";
  // The comparisons above only mean something if the signature check
  // actually fired.
  EXPECT_GT(reference_pruned, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, SearchOrderOracleTest,
    ::testing::Values(OracleCase{"random", false, false},
                      OracleCase{"random_compact", false, true},
                      OracleCase{"hub", true, false},
                      OracleCase{"hub_compact", true, true}),
    [](const ::testing::TestParamInfo<OracleCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace psi::match
