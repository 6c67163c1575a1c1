#include "core/smart_psi.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>
#include <unordered_set>
#include <cassert>
#include <cmath>

#include "core/query_context.h"
#include "match/parallel_search.h"
#include "match/plan.h"
#include "match/psi_evaluator.h"
#include "core/classifier.h"
#include "ml/dataset.h"
#include "signature/builders.h"
#include "util/fault_injection.h"
#include "util/stats.h"

namespace psi::core {

namespace {

using match::Outcome;
using match::PsiEvaluator;
using match::PsiMode;

/// Bundles one node evaluation under a mode: optimistic means the paper's
/// full optimistic strategy (super-optimistic pass + complete fallback).
Outcome RunMethod(PsiEvaluator& evaluator, graph::NodeId node, bool optimistic,
                  size_t super_limit, util::Deadline deadline,
                  util::StopToken stop, match::SearchStats* stats,
                  bool pivot_prefiltered = false) {
  PsiEvaluator::Options options;
  options.super_optimistic_limit = super_limit;
  options.deadline = deadline;
  options.stop = stop;
  options.pivot_prefiltered = pivot_prefiltered;
  if (optimistic) {
    return evaluator.EvaluateNodeOptimisticStrategy(node, options, stats);
  }
  options.mode = PsiMode::kPessimistic;
  return evaluator.EvaluateNode(node, options, stats);
}

/// Takes the earlier of two deadlines.
util::Deadline MinDeadline(util::Deadline a, util::Deadline b) {
  return a.RemainingSeconds() <= b.RemainingSeconds() ? a : b;
}

/// Per-worker accumulation merged after the parallel phases. The seconds
/// are the worker's own busy time, so they sum to CPU time across workers.
struct WorkerState {
  std::vector<graph::NodeId> valid;
  match::SearchStats stats;
  size_t cache_hits = 0;
  size_t cache_mismatches = 0;
  size_t alpha_predictions = 0;
  size_t alpha_correct = 0;
  size_t method_recoveries = 0;
  size_t plan_fallbacks = 0;
  double predict_seconds = 0.0;
  double search_seconds = 0.0;
  bool incomplete = false;
};

/// One evaluation stack per work-stealing worker, used by both phases:
/// scratch and evaluator.
struct EvalWorker {
  WorkerState state;
  std::unique_ptr<match::SearchScratchPool::Lease> scratch;
  std::unique_ptr<PsiEvaluator> evaluator;
};

/// Ground truth for one training node (paper §4.2): whether any plan
/// finished, the node's type, and the plan that finished fastest.
struct TrainLabel {
  bool decided = false;
  bool valid = false;
  int32_t best_plan = 0;
};

}  // namespace

const graph::EquivalenceClasses& SmartPsiEngine::EquivalencePartition() {
  if (equivalence_ == nullptr) {
    equivalence_ = std::make_unique<graph::EquivalenceClasses>(
        graph::ComputeSyntacticEquivalence(*graph_));
  }
  return *equivalence_;
}

SmartPsiEngine::SmartPsiEngine(const graph::Graph& g, SmartPsiConfig config)
    : graph_(&g), config_(config), rng_(config.seed) {
  if (config_.num_threads > 1) {
    pool_ = std::make_unique<util::ThreadPool>(config_.num_threads);
  }
  util::WallTimer timer;
  graph_sigs_ =
      signature::BuildSignatures(g, config_.signature_method,
                                 config_.signature_depth, g.num_labels(),
                                 pool_.get(), config_.signature_decay);
  signature_build_seconds_ = timer.Seconds();
}

SmartPsiEngine::SmartPsiEngine(SmartPsiConfig config)
    : config_(config), rng_(config.seed) {
  if (config_.num_threads > 1) {
    pool_ = std::make_unique<util::ThreadPool>(config_.num_threads);
  }
}

SmartPsiEngine::SmartPsiEngine(const graph::Graph& g,
                               const signature::SignatureMatrix* shared_sigs,
                               SmartPsiConfig config)
    : graph_(&g), config_(config), sigs_view_(shared_sigs), rng_(config.seed) {
  assert(shared_sigs != nullptr);
  assert(shared_sigs->num_rows() == g.num_nodes());
  assert(shared_sigs->num_labels() >= g.num_labels());
  if (config_.num_threads > 1) {
    pool_ = std::make_unique<util::ThreadPool>(config_.num_threads);
  }
  config_.signature_method = shared_sigs->method();
  config_.signature_depth = shared_sigs->depth();
  config_.signature_decay = shared_sigs->decay();
}

void SmartPsiEngine::Rebind(const graph::Graph& g,
                            const signature::SignatureMatrix* sigs) {
  assert(sigs != nullptr);
  if (graph_ == &g && sigs_view_ == sigs) return;  // steady-state fast path
  assert(sigs->num_rows() == g.num_nodes());
  assert(sigs->num_labels() >= g.num_labels());
  graph_ = &g;
  sigs_view_ = sigs;
  graph_sigs_ = signature::SignatureMatrix();  // drop any self-built matrix
  equivalence_.reset();  // memoized partition belongs to the old graph
  config_.signature_method = sigs->method();
  config_.signature_depth = sigs->depth();
  config_.signature_decay = sigs->decay();
}

PsiQueryResult SmartPsiEngine::Evaluate(const graph::QueryGraph& q,
                                        util::Deadline deadline,
                                        util::StopToken stop) {
  assert(q.has_pivot());
  assert(bound() && "Evaluate() on an unbound engine — call Rebind() first");
  util::WallTimer total_timer;
  PsiQueryResult result;

  const QueryContext ctx = PrepareQuery(*graph_, sigs(), q);
  result.num_candidates = ctx.candidates.size();
  if (!ctx.feasible || ctx.candidates.empty()) {
    result.total_seconds = total_timer.Seconds();
    return result;
  }

  // With a query-keyed cache the plan pool (and training sample) must be a
  // pure function of (engine seed, query): cached plan indices written by
  // one engine are then valid for every engine sharing the cache.
  const uint64_t query_salt =
      config_.query_keyed_cache ? q.Fingerprint() : 0;
  // Snapshot keying composes by XOR on top of the query salt: entries from
  // different snapshot generations land under different keys, and the epoch
  // stamp makes any residual collision observable (epoch_drops).
  const uint64_t cache_key_salt = query_salt ^ cache_salt_;
  util::Rng rng = config_.query_keyed_cache
                      ? util::Rng(config_.seed ^ query_salt)
                      : rng_.Fork();
  const std::vector<match::Plan> plan_pool = match::SamplePlanPool(
      q, *graph_, q.pivot(), std::max<size_t>(1, config_.plan_pool_size), rng);
  const size_t num_plans = plan_pool.size();

  // Optional BoostIso-style dedup: keep one representative per syntactic-
  // equivalence class; twins inherit the representative's answer at the end.
  std::vector<graph::NodeId> candidates = ctx.candidates;
  std::vector<std::pair<uint32_t, graph::NodeId>> dropped_twins;
  if (config_.exploit_equivalence) {
    const graph::EquivalenceClasses& classes = EquivalencePartition();
    std::unordered_map<uint32_t, graph::NodeId> first_in_class;
    std::vector<graph::NodeId> unique;
    unique.reserve(candidates.size());
    for (const graph::NodeId u : candidates) {
      const uint32_t c = classes.class_of[u];
      if (first_in_class.emplace(c, u).second) {
        unique.push_back(u);
      } else {
        dropped_twins.emplace_back(c, u);
      }
    }
    candidates.swap(unique);
  }

  // Expansion of the twins' answers, shared by every return path below.
  auto expand_twins = [&]() {
    if (dropped_twins.empty()) return;
    const graph::EquivalenceClasses& classes = EquivalencePartition();
    std::unordered_set<uint32_t> valid_classes;
    for (const graph::NodeId u : result.valid_nodes) {
      valid_classes.insert(classes.class_of[u]);
    }
    for (const auto& [c, u] : dropped_twins) {
      if (valid_classes.count(c) > 0) result.valid_nodes.push_back(u);
    }
    std::sort(result.valid_nodes.begin(), result.valid_nodes.end());
  };

  // ---------------------------------------------------------------------
  // Tiny candidate sets: ML overhead would dominate (paper Table 4 shows
  // it already hurts on small graphs) — evaluate everything pessimistically
  // with the heuristic plan.
  // ---------------------------------------------------------------------
  if (candidates.size() < config_.min_candidates_for_ml) {
    util::WallTimer eval_timer;
    match::SearchScratchPool::Lease scratch(&scratch_pool_);
    PsiEvaluator evaluator(*graph_, sigs(), scratch.get());
    evaluator.BindQuery(q, ctx.query_sigs, plan_pool[0]);
    // Everything below runs pessimistically, so one bulk kernel sweep
    // replaces the per-candidate pivot signature checks.
    evaluator.FilterPivotCandidates(candidates, &result.search);
    for (const graph::NodeId u : candidates) {
      // Same rationale as the phase-2 loop below: poll between candidates
      // so small searches cannot slip past an expired deadline.
      if (deadline.Expired() || stop.StopRequested()) {
        result.complete = false;
        break;
      }
      const Outcome outcome =
          RunMethod(evaluator, u, /*optimistic=*/false,
                    config_.super_optimistic_limit, deadline, stop,
                    &result.search, /*pivot_prefiltered=*/true);
      if (outcome == Outcome::kValid) {
        result.valid_nodes.push_back(u);
      } else if (outcome != Outcome::kInvalid) {
        result.complete = false;
        break;
      }
    }
    result.eval_seconds = eval_timer.Seconds();
    expand_twins();
    result.total_seconds = total_timer.Seconds();
    return result;
  }

  // Work-stealing workers (see parallel_search.h) for both phases:
  // contiguous initial ranges, idle workers steal the back half of the
  // busiest victim's range, so one heavy-tailed node no longer strands the
  // nodes queued behind it. Without a pool everything runs inline.
  std::vector<EvalWorker> workers(pool_ != nullptr ? pool_->num_threads()
                                                   : 1);
  for (EvalWorker& w : workers) {
    w.scratch =
        std::make_unique<match::SearchScratchPool::Lease>(&scratch_pool_);
    w.evaluator =
        std::make_unique<PsiEvaluator>(*graph_, sigs(), w.scratch->get());
  }

  // ---------------------------------------------------------------------
  // Phase 1 — training sample: ground-truth labels for Model α, best plans
  // and per-plan average times for Model β / MaxTime (paper §4.2). Nodes
  // run in parallel, but each node's whole escalation ladder runs on one
  // worker, so its per-plan timings stay comparable; the outcomes merge in
  // train_indices order afterwards.
  // ---------------------------------------------------------------------
  util::WallTimer train_timer;
  const size_t want_train = std::clamp<size_t>(
      static_cast<size_t>(std::ceil(config_.train_fraction *
                                    static_cast<double>(
                                        candidates.size()))),
      1, std::min(config_.max_train_nodes, candidates.size()));
  std::vector<size_t> train_indices =
      util::SampleWithoutReplacement(candidates.size(), want_train, rng);
  std::vector<uint8_t> is_training(candidates.size(), 0);
  for (const size_t i : train_indices) is_training[i] = 1;
  result.num_training_nodes = train_indices.size();

  std::vector<TrainLabel> labels(train_indices.size());
  // Row t holds each plan's finishing time on training node t, or -1 for a
  // plan that did not finish.
  std::vector<double> label_seconds(train_indices.size() * num_plans, -1.0);
  std::atomic<bool> training_aborted{false};
  auto train_one = [&](size_t t, EvalWorker& worker) {
    if (training_aborted.load(std::memory_order_relaxed)) return;
    // Same rationale as the phase-2 check: poll between nodes so cheap
    // nodes cannot keep starting past an expired deadline.
    if (deadline.Expired() || stop.StopRequested()) {
      training_aborted.store(true, std::memory_order_relaxed);
      return;
    }
    PsiEvaluator& trainer = *worker.evaluator;
    match::SearchStats* stats = &worker.state.stats;
    const graph::NodeId u = candidates[train_indices[t]];
    TrainLabel& label = labels[t];
    double* plan_seconds = &label_seconds[t * num_plans];
    double best_time = 0.0;

    // Escalating per-plan time limits (paper §4.2.2): try every plan under
    // a small budget; if none finishes, grow the budget and retry.
    double limit = config_.plan_time_limit_init_seconds;
    for (size_t round = 0;
         round < config_.plan_escalation_rounds && !label.decided; ++round) {
      for (size_t p = 0; p < num_plans; ++p) {
        trainer.BindQuery(q, ctx.query_sigs, plan_pool[p]);
        // Once some plan finished in best_time, a competitor is only
        // interesting if it beats that — cap its budget accordingly.
        const double budget =
            label.decided ? std::min(limit, best_time) : limit;
        util::WallTimer plan_timer;
        const Outcome outcome = RunMethod(
            trainer, u, /*optimistic=*/false, config_.super_optimistic_limit,
            MinDeadline(util::Deadline::After(budget), deadline), stop,
            stats);
        const double seconds = plan_timer.Seconds();
        if (outcome == Outcome::kValid || outcome == Outcome::kInvalid) {
          plan_seconds[p] = seconds;
          if (!label.decided || seconds < best_time) {
            label.best_plan = static_cast<int32_t>(p);
            best_time = seconds;
          }
          label.valid = outcome == Outcome::kValid;
          label.decided = true;
        }
      }
      limit *= config_.plan_time_limit_growth;
      if (deadline.Expired() || stop.StopRequested()) break;
    }
    if (!label.decided) {
      // No plan finished under any limit: heuristic plan, no plan budget.
      trainer.BindQuery(q, ctx.query_sigs, plan_pool[0]);
      util::WallTimer plan_timer;
      const Outcome outcome =
          RunMethod(trainer, u, /*optimistic=*/false,
                    config_.super_optimistic_limit, deadline, stop, stats);
      if (outcome == Outcome::kValid || outcome == Outcome::kInvalid) {
        plan_seconds[0] = plan_timer.Seconds();
        label.valid = outcome == Outcome::kValid;
        label.best_plan = 0;
        label.decided = true;
      } else {
        // Query deadline expired (or a stop arrived) mid-training.
        training_aborted.store(true, std::memory_order_relaxed);
      }
    }
  };
  result.search.work_steals += match::RunWorkStealing(
      train_indices.size(), workers.size(), pool_.get(),
      [&](size_t item, size_t worker_index) {
        train_one(item, workers[worker_index]);
      });

  const size_t num_features = sigs().num_labels();
  ml::Dataset alpha_data(num_features);
  ml::Dataset beta_data(num_features);
  alpha_data.Reserve(train_indices.size());
  beta_data.Reserve(train_indices.size());
  std::vector<util::RunningStats> plan_times(num_plans);
  util::RunningStats all_times;
  for (size_t t = 0; t < train_indices.size(); ++t) {
    const TrainLabel& label = labels[t];
    if (!label.decided) continue;
    for (size_t p = 0; p < num_plans; ++p) {
      const double seconds = label_seconds[t * num_plans + p];
      if (seconds < 0.0) continue;
      plan_times[p].Add(seconds);
      all_times.Add(seconds);
    }
    const graph::NodeId u = candidates[train_indices[t]];
    const auto row = sigs().row(u);
    alpha_data.AddExample(row, label.valid ? 1 : 0);
    beta_data.AddExample(row, label.best_plan);
    if (label.valid) result.valid_nodes.push_back(u);
    if (config_.enable_cache) {
      active_cache_->Insert(
          sigs().RowHash(u) ^ cache_key_salt,
          {label.valid, static_cast<uint32_t>(label.best_plan),
           cache_epoch_});
    }
  }

  const bool aborted = training_aborted.load();
  Classifier alpha(config_.classifier);
  Classifier beta(config_.classifier);
  if (!aborted) {
    alpha.Train(alpha_data, /*num_classes=*/2, config_.forest_trees, rng,
                pool_.get());
    if (config_.enable_plan_model && num_plans > 1) {
      beta.Train(beta_data, num_plans, config_.forest_trees, rng,
                 pool_.get());
    }
  }
  result.train_seconds = train_timer.Seconds();
  if (aborted) {
    result.complete = false;
    for (const EvalWorker& worker : workers) {
      result.search += worker.state.stats;
    }
    std::sort(result.valid_nodes.begin(), result.valid_nodes.end());
    expand_twins();
    result.total_seconds = total_timer.Seconds();
    return result;
  }

  // Per-plan MaxTime base: mean pessimistic time for that plan during
  // training; fall back to the overall mean when a plan has no samples.
  std::vector<double> plan_mean(num_plans, 0.0);
  for (size_t p = 0; p < num_plans; ++p) {
    plan_mean[p] =
        plan_times[p].count() > 0 ? plan_times[p].mean() : all_times.mean();
    plan_mean[p] = std::max(plan_mean[p], config_.min_preemption_seconds);
  }

  // ---------------------------------------------------------------------
  // Phase 2 — predicted evaluation of the remaining candidates with the
  // preemptive 3-state executor (paper §4.3).
  // ---------------------------------------------------------------------
  util::WallTimer eval_timer;
  std::vector<size_t> remaining;
  remaining.reserve(candidates.size() - train_indices.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (!is_training[i]) remaining.push_back(i);
  }

  std::atomic<bool> global_incomplete{false};
  auto evaluate_one = [&](size_t r, EvalWorker& worker) {
    WorkerState& ws = worker.state;
    PsiEvaluator& evaluator = *worker.evaluator;
    {
      if (global_incomplete.load(std::memory_order_relaxed)) return;
      // Check before starting a candidate, not only inside the search (which
      // polls every kCheckInterval steps): small searches finish between
      // polls, so without this an expired deadline could still start every
      // remaining candidate and overrun its budget unboundedly.
      if (deadline.Expired() || stop.StopRequested()) {
        ws.incomplete = true;
        global_incomplete.store(true, std::memory_order_relaxed);
        return;
      }
      const graph::NodeId u = candidates[remaining[r]];
      const auto row = sigs().row(u);

      // --- Prediction (cache, then models) --------------------------
      util::WallTimer predict_timer;
      bool predicted_valid = false;
      uint32_t plan_index = 0;
      bool from_cache = false;
      const uint64_t hash = sigs().RowHash(u) ^ cache_key_salt;
      if (config_.enable_cache) {
        if (const auto entry = active_cache_->Lookup(hash, cache_epoch_)) {
          predicted_valid = entry->valid;
          plan_index = std::min<uint32_t>(entry->plan_index,
                                          static_cast<uint32_t>(num_plans -
                                                                1));
          from_cache = true;
          ++ws.cache_hits;
        }
      }
      if (!from_cache) {
        predicted_valid = alpha.Predict(row) == 1;
        if (config_.enable_plan_model && beta.trained()) {
          plan_index = static_cast<uint32_t>(
              std::clamp<int32_t>(beta.Predict(row), 0,
                                  static_cast<int32_t>(num_plans - 1)));
        }
      }
      // Chaos hooks: simulated Model α / Model β mispredictions. The
      // preemptive executor below is exactly the machinery that must absorb
      // these — a flip costs a state-2/3 recovery, never correctness.
      if (PSI_INJECT_FAULT(util::faults::kSmartPredictFlip)) {
        predicted_valid = !predicted_valid;
      }
      if (num_plans > 1 &&
          PSI_INJECT_FAULT(util::faults::kSmartPlanMispredict)) {
        plan_index = (plan_index + 1) % static_cast<uint32_t>(num_plans);
      }
      ws.predict_seconds += predict_timer.Seconds();

      // --- Preemptive execution (3 states) ---------------------------
      util::WallTimer search_timer;
      const double max_time = config_.timeout_factor * plan_mean[plan_index];
      Outcome outcome;
      uint32_t completed_plan = plan_index;
      evaluator.BindQuery(q, ctx.query_sigs, plan_pool[plan_index]);
      if (config_.enable_preemption) {
        // State 1: predicted method + predicted plan, limited.
        outcome = RunMethod(evaluator, u, predicted_valid,
                            config_.super_optimistic_limit,
                            MinDeadline(util::Deadline::After(max_time),
                                        deadline),
                            stop, &ws.stats);
        // Chaos hook: pretend MaxTime expired even though state 1 finished,
        // forcing the recovery ladder. Both PSI methods are exact, so the
        // re-evaluation in state 2/3 reaches the same answer.
        if (outcome != Outcome::kTimeout && !deadline.Expired() &&
            PSI_INJECT_FAULT(util::faults::kSmartPreemptExpire)) {
          outcome = Outcome::kTimeout;
        }
        if (outcome == Outcome::kTimeout && !deadline.Expired()) {
          // State 2: opposite method, restarted, still limited — recovers
          // from Model α mispredictions.
          ++ws.method_recoveries;
          outcome = RunMethod(evaluator, u, !predicted_valid,
                              config_.super_optimistic_limit,
                              MinDeadline(util::Deadline::After(max_time),
                                          deadline),
                              stop, &ws.stats);
        }
        if (outcome == Outcome::kTimeout && !deadline.Expired()) {
          // State 3: predicted method + heuristic plan, no MaxTime —
          // recovers from Model β mispredictions.
          ++ws.plan_fallbacks;
          completed_plan = 0;
          evaluator.BindQuery(q, ctx.query_sigs, plan_pool[0]);
          outcome = RunMethod(evaluator, u, predicted_valid,
                              config_.super_optimistic_limit, deadline,
                              stop, &ws.stats);
        }
      } else {
        outcome = RunMethod(evaluator, u, predicted_valid,
                            config_.super_optimistic_limit, deadline,
                            stop, &ws.stats);
      }

      ws.search_seconds += search_timer.Seconds();
      if (outcome != Outcome::kValid && outcome != Outcome::kInvalid) {
        // Only the query deadline or a cancellation can get us here.
        ws.incomplete = true;
        global_incomplete.store(true, std::memory_order_relaxed);
        return;
      }
      const bool actual_valid = outcome == Outcome::kValid;
      if (actual_valid) ws.valid.push_back(u);
      if (from_cache) {
        // A cached decision that disagrees with the confirmed outcome means
        // the entry was stale or corrupted — the poisoning signal the
        // service's verify-on-sample detector consumes.
        if (predicted_valid != actual_valid) ++ws.cache_mismatches;
      } else {
        ++ws.alpha_predictions;
        if (predicted_valid == actual_valid) ++ws.alpha_correct;
      }
      if (config_.enable_cache) {
        active_cache_->Insert(hash,
                              {actual_valid, completed_plan, cache_epoch_});
      }
    }
  };

  result.search.work_steals += match::RunWorkStealing(
      remaining.size(), workers.size(), pool_.get(),
      [&](size_t item, size_t worker_index) {
        evaluate_one(item, workers[worker_index]);
      });

  double predict_busy = 0.0;
  double search_busy = 0.0;
  for (const EvalWorker& worker : workers) {
    const WorkerState& ws = worker.state;
    result.valid_nodes.insert(result.valid_nodes.end(), ws.valid.begin(),
                              ws.valid.end());
    result.search += ws.stats;
    result.cache_hits += ws.cache_hits;
    result.cache_mismatches += ws.cache_mismatches;
    result.alpha_predictions += ws.alpha_predictions;
    result.alpha_correct += ws.alpha_correct;
    result.method_recoveries += ws.method_recoveries;
    result.plan_fallbacks += ws.plan_fallbacks;
    predict_busy += ws.predict_seconds;
    search_busy += ws.search_seconds;
    if (ws.incomplete) result.complete = false;
  }
  // The workers' busy times sum over threads; split the phase's wall time
  // in their proportion so predict + eval is wall time at any thread count.
  const double phase2_seconds = eval_timer.Seconds();
  const double busy = predict_busy + search_busy;
  result.predict_seconds =
      busy > 0.0 ? phase2_seconds * (predict_busy / busy) : 0.0;
  result.eval_seconds = phase2_seconds - result.predict_seconds;

  std::sort(result.valid_nodes.begin(), result.valid_nodes.end());
  expand_twins();
  result.total_seconds = total_timer.Seconds();
  return result;
}

}  // namespace psi::core
