#include "match/psi_evaluator.h"

#include <algorithm>
#include <cassert>
#include <span>

#include "signature/kernels.h"
#include "util/random.h"

namespace psi::match {

const char* PsiModeName(PsiMode mode) {
  switch (mode) {
    case PsiMode::kOptimistic:
      return "optimistic";
    case PsiMode::kSuperOptimistic:
      return "super-optimistic";
    case PsiMode::kPessimistic:
      return "pessimistic";
  }
  return "unknown";
}

PsiEvaluator::PsiEvaluator(const graph::Graph& g,
                           const signature::SignatureMatrix& graph_sigs,
                           SearchScratch* scratch)
    : graph_(g),
      graph_sigs_(graph_sigs),
      scratch_(scratch != nullptr ? scratch : &owned_scratch_) {
  assert(graph_sigs.num_rows() == g.num_nodes());
}

void PsiEvaluator::BindQuery(const graph::QueryGraph& q,
                             const signature::SignatureMatrix& query_sigs,
                             const Plan& plan) {
  assert(q.has_pivot());
  assert(query_sigs.num_rows() == q.num_nodes());
  assert(query_sigs.num_labels() == graph_sigs_.num_labels());
  assert(query_sigs.method() == graph_sigs_.method());
  assert(query_sigs.decay() == graph_sigs_.decay());
  assert(IsValidPlan(q, plan, q.pivot()));

  SearchScratch& s = *scratch_;
  // Rebinding the same query/signatures/plan is a no-op: search always
  // unwinds its mappings, so the arena is already in the bound state. This
  // makes the per-candidate rebinds of the SmartPSI executor free whenever
  // consecutive candidates run the same predicted plan.
  if (query_ == &q && query_sigs_ == &query_sigs &&
      s.plan.order == plan.order) {
    return;
  }

  query_ = &q;
  query_sigs_ = &query_sigs;
  s.plan.order.assign(plan.order.begin(), plan.order.end());

  const size_t n = q.num_nodes();
  s.plan_position.resize(n);
  for (size_t i = 0; i < n; ++i) s.plan_position[s.plan.order[i]] = i;

  s.backward_flat.clear();
  s.backward_offsets.resize(n + 1);
  s.backward_offsets[0] = 0;
  for (size_t level = 0; level < n; ++level) {
    if (level > 0) {
      const graph::NodeId v = s.plan.order[level];
      for (const auto& [nbr, edge_label] : q.neighbors(v)) {
        if (s.plan_position[nbr] < level) {
          s.backward_flat.push_back({nbr, edge_label});
        }
      }
    }
    s.backward_offsets[level + 1] =
        static_cast<uint32_t>(s.backward_flat.size());
  }

  s.mapping.assign(n, graph::kInvalidNode);
  s.mapped_stack.assign(n, graph::kInvalidNode);
  s.level_candidates.resize(n);
  s.level_index.assign(n, 0);
  s.level_reqs.resize(n);
  for (size_t level = 0; level < n; ++level) {
    s.level_reqs[level].Assign(query_sigs.row(s.plan.order[level]));
  }

  // Nogood prefixes are positional in the plan order, so the scoping tag
  // covers both the query's structure and the exact matching order.
  uint64_t tag = q.Fingerprint();
  for (const graph::NodeId v : s.plan.order) {
    tag ^= (tag << 6) + (tag >> 2) + 0x9e3779b97f4a7c15ULL + v;
  }
  binding_tag_ = tag;
}

bool PsiEvaluator::IsUsed(graph::NodeId data_node, size_t level) const {
  const SearchScratch& s = *scratch_;
  for (size_t i = 0; i < level; ++i) {
    if (s.mapped_stack[i] == data_node) return true;
  }
  return false;
}

bool PsiEvaluator::ShouldAbort(const Options& options, Outcome* outcome) {
  if (--steps_until_check_ != 0) return false;
  steps_until_check_ = kCheckInterval;
  if (options.stop.StopRequested()) {
    *outcome = Outcome::kStopped;
    return true;
  }
  if (options.deadline.Expired()) {
    *outcome = Outcome::kTimeout;
    return true;
  }
  return false;
}

PsiEvaluator::LevelScan PsiEvaluator::BeginScan(size_t level) const {
  const SearchScratch& s = *scratch_;
  const BackwardNeighbor* anchors =
      s.backward_flat.data() + s.backward_offsets[level];
  const size_t num_anchors =
      s.backward_offsets[level + 1] - s.backward_offsets[level];
  assert(num_anchors > 0 && "plans must be connected");

  // Anchor on the mapped neighbor whose image has the smallest degree:
  // its adjacency is the cheapest superset of the candidate set.
  size_t anchor_index = 0;
  size_t anchor_degree = SIZE_MAX;
  for (size_t i = 0; i < num_anchors; ++i) {
    const size_t deg = graph_.degree(s.mapping[anchors[i].query_node]);
    if (deg < anchor_degree) {
      anchor_degree = deg;
      anchor_index = i;
    }
  }
  const graph::NodeId anchor_image =
      s.mapping[anchors[anchor_index].query_node];
  const auto nbrs = graph_.neighbors(anchor_image);
  return {nbrs.data(), nbrs.data() + nbrs.size(),
          graph_.edge_labels(anchor_image).data(), anchor_index};
}

bool PsiEvaluator::NextCandidate(size_t level, LevelScan& scan,
                                 bool check_signature, SearchStats* stats,
                                 graph::NodeId* out) {
  const SearchScratch& s = *scratch_;
  const BackwardNeighbor* anchors =
      s.backward_flat.data() + s.backward_offsets[level];
  const size_t num_anchors =
      s.backward_offsets[level + 1] - s.backward_offsets[level];
  const graph::Label want_edge_label = anchors[scan.anchor_index].edge_label;
  const graph::NodeId v = s.plan.order[level];
  const graph::Label want_label = query_->label(v);
  const size_t want_degree = query_->degree(v);

  while (scan.next != scan.end) {
    const graph::NodeId c = *scan.next++;
    const graph::Label edge_label = *scan.next_edge_label++;
    if (stats != nullptr) ++stats->candidates_examined;
    if (edge_label != want_edge_label) continue;
    if (graph_.label(c) != want_label) continue;
    if (graph_.degree(c) < want_degree) continue;
    if (IsUsed(c, level)) continue;
    // Verify edges to the remaining mapped query neighbors.
    bool consistent = true;
    for (size_t a = 0; a < num_anchors; ++a) {
      if (a == scan.anchor_index) continue;
      const auto label =
          graph_.EdgeLabelBetween(s.mapping[anchors[a].query_node], c);
      if (!label.has_value() || *label != anchors[a].edge_label) {
        consistent = false;
        break;
      }
    }
    if (!consistent) continue;
    if (check_signature) {
      // Line 7 (pessimist): prune candidates whose neighborhood signature
      // cannot satisfy the query node's signature (Proposition 3.2).
      if (stats != nullptr) ++stats->signature_checks;
      if (!signature::CandidateSatisfies(graph_sigs_, s.level_reqs[level],
                                         c)) {
        if (stats != nullptr) ++stats->pruned_by_signature;
        continue;
      }
    }
    *out = c;
    return true;
  }
  return false;
}

Outcome PsiEvaluator::Search(size_t level, const Options& options,
                             SearchStats* stats) {
  if (stats != nullptr) ++stats->recursive_calls;
  Outcome abort_outcome;
  if (ShouldAbort(options, &abort_outcome)) return abort_outcome;

  SearchScratch& s = *scratch_;
  // Line 1: full mapping -> a first embedding exists; PSI stops here.
  if (level == s.plan.size()) return Outcome::kValid;

  // Luby budget (restart runs only): charge one node per call. Checked
  // after the full-mapping test so a completed embedding always reports
  // kValid even on the run's last node.
  if (budget_limited_) {
    if (budget_remaining_ == 0) return Outcome::kBudgetExhausted;
    if (--budget_remaining_ == 0) {
      RecordNogoods(stats);
      return Outcome::kBudgetExhausted;
    }
  }

  const graph::NodeId v = s.plan.order[level];
  auto& candidates = s.level_candidates[level];
  candidates.clear();
  LevelScan scan = BeginScan(level);
  const bool pessimist = options.mode == PsiMode::kPessimistic;
  // The plain pessimist visits each candidate as soon as the scan yields
  // it, so the first embedding also ends the scan. Every other run reorders
  // its candidates and so takes them up front: the optimists rank them and
  // restart runs shuffle them.
  const bool streaming = pessimist && perturb_seed_ == 0;
  if (!streaming) {
    // Line 4 (super optimist): only the first super_optimistic_limit
    // candidates are kept, so the scan stops there and sorting work is
    // bounded too.
    const size_t limit = options.mode == PsiMode::kSuperOptimistic
                             ? options.super_optimistic_limit
                             : SIZE_MAX;
    graph::NodeId c = graph::kInvalidNode;
    while (candidates.size() < limit &&
           NextCandidate(level, scan, pessimist, stats, &c)) {
      candidates.push_back(c);
    }
    if (pessimist) {
      // Restart runs past the first perturb the value ordering so a rerun
      // explores the heavy-tailed space in a different order (the point of
      // restarting). The pessimist's base order carries no heuristic, so
      // shuffling loses nothing.
      if (candidates.size() > 1) {
        util::Rng rng(perturb_seed_ ^
                      (0x9e3779b97f4a7c15ULL *
                       (static_cast<uint64_t>(level) + 1)));
        util::Shuffle(candidates, rng);
      }
    } else if (candidates.size() > 1) {
      // Line 5 (optimist): visit high satisfiability scores first.
      signature::ScoreAndRank(graph_sigs_, s.level_reqs[level], candidates,
                              s.rank);
      if (stats != nullptr) ++stats->score_sorts;
    }
  }

  const bool consult_nogoods = nogoods_ != nullptr && !nogoods_->empty() &&
                               level + 1 <= nogoods_->limits().max_prefix_length;
  for (size_t idx = 0;; ++idx) {
    if (idx == candidates.size()) {
      // Every visited candidate stays in the buffer: RecordNogoods reads
      // the exhausted prefix [0, level_index) back from it.
      graph::NodeId next = graph::kInvalidNode;
      if (!streaming || !NextCandidate(level, scan, true, stats, &next)) {
        break;
      }
      candidates.push_back(next);
    }
    const graph::NodeId c = candidates[idx];
    s.level_index[level] = idx;
    if (consult_nogoods &&
        nogoods_->Contains({s.mapped_stack.data(), level}, c)) {
      // A previous run exhausted this assignment's subtree; skipping it is
      // as sound as having searched it again.
      if (stats != nullptr) ++stats->nogood_hits;
      continue;
    }
    s.mapping[v] = c;
    s.mapped_stack[level] = c;
    const Outcome result = Search(level + 1, options, stats);
    s.mapping[v] = graph::kInvalidNode;
    s.mapped_stack[level] = graph::kInvalidNode;
    if (result != Outcome::kInvalid) return result;
    // `candidates` and the scan belong to this level, which deeper levels
    // never touch — safe to continue.
  }
  return Outcome::kInvalid;
}

Outcome PsiEvaluator::RunFromPivot(graph::NodeId candidate,
                                   const Options& options,
                                   SearchStats* stats) {
  SearchScratch& s = *scratch_;
  const graph::NodeId pivot = query_->pivot();
  s.mapping[pivot] = candidate;
  s.mapped_stack[0] = candidate;
  const Outcome result = Search(1, options, stats);
  s.mapping[pivot] = graph::kInvalidNode;
  s.mapped_stack[0] = graph::kInvalidNode;
  return result;
}

void PsiEvaluator::RecordNogoods(SearchStats* stats) {
  if (nogoods_ == nullptr) return;
  SearchScratch& s = *scratch_;
  const size_t n = s.plan.size();
  const size_t max_len = nogoods_->limits().max_prefix_length;
  // Walk the live search path. At each active level the candidates before
  // level_index[level] were either exhaustively refuted this run or pruned
  // by an earlier nogood — either way their subtrees are proven empty, so
  // (mapped_stack[0..level-1], sibling) is a sound nogood.
  for (size_t level = 1; level < n; ++level) {
    if (s.mapped_stack[level] == graph::kInvalidNode) break;
    if (level + 1 > max_len) break;  // deeper prefixes only get longer
    const std::span<const graph::NodeId> head(s.mapped_stack.data(), level);
    const auto& candidates = s.level_candidates[level];
    const size_t exhausted = std::min(s.level_index[level], candidates.size());
    for (size_t idx = 0; idx < exhausted; ++idx) {
      if (nogoods_->full()) return;
      if (nogoods_->Record(head, candidates[idx]) && stats != nullptr) {
        ++stats->nogoods_recorded;
      }
    }
  }
}

Outcome PsiEvaluator::EvaluateNode(graph::NodeId candidate,
                                   const Options& options,
                                   SearchStats* stats) {
  assert(query_ != nullptr && "BindQuery first");
  SearchScratch& s = *scratch_;
  const graph::NodeId pivot = query_->pivot();
  if (stats != nullptr) ++stats->candidates_examined;
  if (graph_.label(candidate) != query_->label(pivot)) {
    return Outcome::kInvalid;
  }
  if (graph_.degree(candidate) < query_->degree(pivot)) {
    return Outcome::kInvalid;
  }
  if (options.mode == PsiMode::kPessimistic && !options.pivot_prefiltered) {
    if (stats != nullptr) ++stats->signature_checks;
    if (!signature::CandidateSatisfies(graph_sigs_, s.level_reqs[0],
                                       candidate)) {
      if (stats != nullptr) ++stats->pruned_by_signature;
      return Outcome::kInvalid;
    }
  }

  const bool restarting =
      options.restarts.enabled && options.mode == PsiMode::kPessimistic;
  if (!restarting) {
    budget_limited_ = false;
    perturb_seed_ = 0;
    nogoods_ = nullptr;
    return RunFromPivot(candidate, options, stats);
  }

  if (options.nogoods != nullptr) {
    options.nogoods->EnsureBinding(binding_tag_);
  }
  for (size_t run = 0;; ++run) {
    const uint64_t budget = options.restarts.BudgetForRun(run);
    budget_limited_ = budget != 0;
    budget_remaining_ = budget;
    // Perturbation diversifies *budgeted* probes only. The final unlimited
    // run reverts to the unperturbed baseline order, so its cost is the
    // non-restarting search minus whatever the nogoods prune — restarts
    // can never make the worst case more than the budgeted probes slower.
    perturb_seed_ = budget_limited_
                        ? PerturbationSeed(options.restarts, candidate, run)
                        : 0;
    nogoods_ = options.nogoods;
    const Outcome outcome = RunFromPivot(candidate, options, stats);
    budget_limited_ = false;
    perturb_seed_ = 0;
    nogoods_ = nullptr;
    // BudgetForRun(run >= max_restarts) is 0 = unlimited, so the loop
    // always terminates with a definite (or timeout/stop) outcome —
    // kBudgetExhausted never escapes.
    if (outcome != Outcome::kBudgetExhausted) return outcome;
    if (stats != nullptr) ++stats->restarts;
  }
}

Outcome PsiEvaluator::EvaluateNodeOptimisticStrategy(graph::NodeId candidate,
                                                     const Options& options,
                                                     SearchStats* stats) {
  Options super = options;
  super.mode = PsiMode::kSuperOptimistic;
  const Outcome quick = EvaluateNode(candidate, super, stats);
  // kInvalid from the truncated search is inconclusive; everything else
  // (valid / timeout / stopped) is final.
  if (quick != Outcome::kInvalid) return quick;
  Options full = options;
  full.mode = PsiMode::kOptimistic;
  return EvaluateNode(candidate, full, stats);
}

size_t PsiEvaluator::FilterPivotCandidates(
    std::vector<graph::NodeId>& candidates, SearchStats* stats) {
  assert(query_ != nullptr && "BindQuery first");
  if (stats != nullptr) stats->signature_checks += candidates.size();
  const size_t pruned = signature::FilterCandidates(
      graph_sigs_, scratch_->level_reqs[0], candidates);
  if (stats != nullptr) stats->pruned_by_signature += pruned;
  return pruned;
}

}  // namespace psi::match
