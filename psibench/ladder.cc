// The traced layer ladder: one fixed sample of the workload's queries run
// through each public layer in turn — ExtractPivotCandidates, PrepareQuery,
// EvaluatePure (pessimist, optimist, parallel), SmartPsiEngine::Evaluate,
// PsiService::Submit and SubmitBatch — with a span around every call and
// every answer checked. The per-layer metrics come from here and from the
// traced timed run (service, fsm, loadgen).

#include <algorithm>
#include <future>
#include <optional>

#include "core/pure_drivers.h"
#include "core/query_context.h"
#include "core/smart_psi.h"
#include "match/candidates.h"
#include "signature/builders.h"
#include "stats.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "workloads.h"

namespace psibench {

namespace {

/// Queries per SubmitBatch on serve and deep.
constexpr size_t kBatch = 8;

struct LadderQuery {
  graph::QueryGraph query;
  /// Reference answer; empty optional for mine probes, whose reference is
  /// the sequential pessimist rung.
  std::optional<std::vector<graph::NodeId>> answer;
  /// Queries of one group go to SubmitBatch together.
  size_t group = 0;
};

std::vector<LadderQuery> LadderSample(const WorkloadSpec& spec,
                                      const Inputs& in, uint64_t seed) {
  std::vector<LadderQuery> sample;
  if (spec.name == "serve") {
    // The workload's own skew, so repeats reach the prediction cache.
    psi::util::Rng rng(seed * 0xbf58476d1ce4e5b9ULL + 11);
    psi::util::ZipfSampler zipf(in.queries.size(), spec.zipf_exponent);
    for (size_t i = 0; i < spec.ladder_queries; ++i) {
      const size_t q = zipf.Sample(rng);
      sample.push_back({in.queries[q], in.answers[q], i / kBatch});
    }
  } else if (spec.name == "deep") {
    for (size_t i = 0; i < spec.ladder_queries && i < in.queries.size(); ++i) {
      sample.push_back({in.queries[i], in.answers[i], i / kBatch});
    }
  } else {
    // Evenly spaced frequent patterns of every size, each one support
    // batch of one probe per pivot, as FsmMiner submits it.
    const auto& patterns = in.reference_mine.frequent;
    const size_t take = std::min(spec.ladder_queries, patterns.size());
    for (size_t i = 0; i < take; ++i) {
      const graph::QueryGraph& p = patterns[i * patterns.size() / take].pattern;
      for (graph::NodeId v = 0; v < p.num_nodes(); ++v) {
        graph::QueryGraph probe = p;
        probe.set_pivot(v);
        sample.push_back({std::move(probe), std::nullopt, i});
      }
    }
  }
  return sample;
}

double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

void RunLadder(const WorkloadSpec& spec, Inputs& in,
               const RunOptions& options, Tracer& tracer, Result* result) {
  const size_t threads = options.threads;
  // The workload's own parallelism: deep searches with every thread, the
  // others run one search thread per worker.
  const size_t search_threads = spec.name == "deep" ? threads : 1;
  const size_t workers = spec.name == "deep" ? 1 : threads;
  Tally& tally = result->tally;

  // signature: the matrix build the service's set-up pays.
  {
    psi::util::ThreadPool pool(threads);
    std::vector<double> build_s;
    for (int r = 0; r < 3; ++r) {
      const ScopedSpan span(tracer, "signature.build", 0, 0);
      psi::util::WallTimer timer;
      const auto sigs = psi::signature::BuildMatrixSignatures(
          in.graph, psi::signature::kDefaultDepth, in.graph.num_labels(), &pool);
      build_s.push_back(timer.Seconds());
    }
    result->AddLayer("signature.build_s", Median(build_s), "s");
  }

  const std::vector<LadderQuery> sample = LadderSample(spec, in, options.seed);
  psi::core::SmartPsiConfig engine_config;
  engine_config.num_threads = search_threads;
  engine_config.query_keyed_cache = true;
  psi::core::SmartPsiEngine engine(in.graph, &in.sigs, engine_config);

  std::vector<double> extract_us, prepare_us, pessimist_ms, optimist_ms,
      parallel_ms;
  double candidates = 0, valid = 0, recursive_calls = 0, signature_checks = 0,
         pruned = 0, steals = 0;
  double train_s = 0, predict_s = 0, eval_s = 0, total_s = 0, training_nodes = 0,
         alpha_predictions = 0, alpha_correct = 0, recoveries = 0,
         fallbacks = 0, cache_hits = 0, realist_candidates = 0;
  std::vector<std::vector<graph::NodeId>> answers;
  const uint64_t request_base = 1'000'000;

  for (size_t i = 0; i < sample.size(); ++i) {
    const graph::QueryGraph& q = sample[i].query;
    const uint64_t request = request_base + i;
    const ScopedSpan root(tracer, "ladder.query", 0, request);
    {
      const ScopedSpan span(tracer, "match.extract_pivot_candidates", root.id(),
                            request);
      psi::util::WallTimer timer;
      const auto c = psi::match::ExtractPivotCandidates(in.graph, q);
      extract_us.push_back(timer.Micros());
      candidates += static_cast<double>(c.size());
    }
    {
      const ScopedSpan span(tracer, "core.prepare_query", root.id(), request);
      psi::util::WallTimer timer;
      const auto context = psi::core::PrepareQuery(in.graph, in.sigs, q);
      prepare_us.push_back(timer.Micros());
    }
    auto pure = [&](const char* name, psi::core::PureStrategy strategy,
                    size_t search, std::vector<double>* ms) {
      psi::core::PureDriverOptions o;
      o.strategy = strategy;
      o.search_threads = search;
      const Clock::time_point start = Clock::now();
      auto r = psi::core::EvaluatePure(in.graph, in.sigs, q, o);
      const Clock::time_point end = Clock::now();
      tracer.Record(name, root.id(), request, start, end);
      ms->push_back(MillisBetween(start, end));
      return r;
    };
    const auto pessimist = pure("search.evaluate_pure.pessimist",
                                psi::core::PureStrategy::kPessimistic, 1,
                                &pessimist_ms);
    const std::vector<graph::NodeId>& want =
        sample[i].answer.has_value() ? *sample[i].answer : pessimist.valid_nodes;
    tally.Record(pessimist.complete && pessimist.valid_nodes == want,
                 pessimist.complete && pessimist.valid_nodes != want);
    answers.push_back(want);
    valid += static_cast<double>(want.size());
    recursive_calls += static_cast<double>(pessimist.stats.recursive_calls);
    signature_checks += static_cast<double>(pessimist.stats.signature_checks);
    pruned += static_cast<double>(pessimist.stats.pruned_by_signature);

    const auto optimist = pure("search.evaluate_pure.optimist",
                               psi::core::PureStrategy::kOptimistic, 1,
                               &optimist_ms);
    tally.Record(optimist.complete && optimist.valid_nodes == want,
                 optimist.complete && optimist.valid_nodes != want);
    const auto parallel = pure("search.evaluate_pure.parallel",
                               psi::core::PureStrategy::kPessimistic, threads,
                               &parallel_ms);
    tally.Record(parallel.complete && parallel.valid_nodes == want,
                 parallel.complete && parallel.valid_nodes != want);
    steals += static_cast<double>(parallel.stats.work_steals);

    psi::core::PsiQueryResult smart;
    {
      const ScopedSpan span(tracer, "realist.evaluate", root.id(), request);
      smart = engine.Evaluate(q);
    }
    tally.Record(smart.complete && smart.valid_nodes == want,
                 smart.complete && smart.valid_nodes != want);
    train_s += smart.train_seconds;
    predict_s += smart.predict_seconds;
    eval_s += smart.eval_seconds;
    total_s += smart.total_seconds;
    training_nodes += static_cast<double>(smart.num_training_nodes);
    alpha_predictions += static_cast<double>(smart.alpha_predictions);
    alpha_correct += static_cast<double>(smart.alpha_correct);
    recoveries += static_cast<double>(smart.method_recoveries);
    fallbacks += static_cast<double>(smart.plan_fallbacks);
    cache_hits += static_cast<double>(smart.cache_hits);
    realist_candidates += static_cast<double>(smart.num_candidates);
  }

  // Service rungs on a fresh service with the workload's parallelism: one
  // Submit per query (closed loop), then one SubmitBatch per sample group.
  // mine's probes are pessimistic, as fsm::SubmitSupportBatch sends them.
  const service::Method method = spec.name == "mine"
                                     ? service::Method::kPessimistic
                                     : service::Method::kSmart;
  service::PsiService svc(in.graph, MakeServiceOptions(workers, search_threads));
  for (size_t i = 0; i < sample.size(); ++i) {
    service::QueryRequest request;
    request.id = request_base + i;
    request.query = sample[i].query;
    request.method = method;
    const ScopedSpan span(tracer, "service.submit", 0, request.id);
    auto future = svc.Submit(std::move(request));
    if (!future.has_value()) {
      tally.Record(false, false);
      continue;
    }
    tally.Check(future->get(), answers[i]);
  }
  std::vector<double> batch_ms;
  double members = 0, context_hits = 0, degraded = 0;
  std::vector<std::pair<size_t, std::optional<std::future<service::BatchResponse>>>>
      batches;
  std::vector<Clock::time_point> batch_sent;
  for (size_t begin = 0, end = 0; begin < sample.size(); begin = end) {
    end = begin + 1;
    while (end < sample.size() && sample[end].group == sample[begin].group) {
      ++end;
    }
    service::BatchRequest batch;
    batch.id = request_base + begin;
    for (size_t i = begin; i < end; ++i) {
      service::QueryRequest request;
      request.query = sample[i].query;
      request.method = method;
      batch.queries.push_back(std::move(request));
    }
    batch_sent.push_back(Clock::now());
    batches.emplace_back(begin, svc.SubmitBatch(std::move(batch)));
  }
  for (size_t b = 0; b < batches.size(); ++b) {
    auto& [begin, future] = batches[b];
    if (!future.has_value()) {
      tally.Record(false, false);
      continue;
    }
    const service::BatchResponse response = future->get();
    tracer.Record("service.submit_batch", 0, request_base + begin,
                  batch_sent[b],
                  batch_sent[b] + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(
                                          response.latency_seconds)));
    batch_ms.push_back(response.latency_seconds * 1e3);
    members += static_cast<double>(response.responses.size());
    context_hits += static_cast<double>(response.context_hits);
    degraded += static_cast<double>(response.degraded_queries);
    for (size_t k = 0; k < response.responses.size(); ++k) {
      tally.Check(response.responses[k], answers[begin + k]);
    }
  }

  const double n = std::max<double>(1.0, static_cast<double>(sample.size()));
  result->AddLayer("match.candidates_per_query", candidates / n, "count");
  result->AddLayer("match.extract_us_p50", Median(extract_us), "us");
  result->AddLayer("match.valid_ratio", Ratio(valid, candidates), "share");
  result->AddLayer("core.prepare_us_p50", Median(prepare_us), "us");
  result->AddLayer("search.pessimist_ms_p50", Percentile(pessimist_ms, 0.5),
                   "ms");
  result->AddLayer("search.pessimist_ms_p99", Percentile(pessimist_ms, 0.99),
                   "ms");
  result->AddLayer("search.optimist_ms_p50", Percentile(optimist_ms, 0.5), "ms");
  result->AddLayer("search.parallel_ms_p50", Percentile(parallel_ms, 0.5), "ms");
  result->AddLayer("search.recursive_calls", recursive_calls / n, "count");
  result->AddLayer("search.prune_ratio", Ratio(pruned, signature_checks),
                   "share");
  result->AddLayer("search.work_steals", steals / n, "count");
  result->AddLayer("realist.train_ms", train_s * 1e3 / n, "ms");
  result->AddLayer("realist.predict_ms", predict_s * 1e3 / n, "ms");
  result->AddLayer("realist.eval_ms", eval_s * 1e3 / n, "ms");
  result->AddLayer("realist.ml_share", Ratio(train_s + predict_s, total_s),
                   "share");
  result->AddLayer("realist.alpha_accuracy",
                   Ratio(alpha_correct, alpha_predictions), "share");
  result->AddLayer("realist.training_nodes", training_nodes / n, "count");
  result->AddLayer("realist.method_recoveries", recoveries / n, "count");
  result->AddLayer("realist.plan_fallbacks", fallbacks / n, "count");
  result->AddLayer("realist.cache_hit_ratio",
                   Ratio(cache_hits, realist_candidates), "share");
  result->AddLayer("batch.latency_ms_p50", Percentile(batch_ms, 0.5), "ms");
  result->AddLayer("batch.latency_ms_p99", Percentile(batch_ms, 0.99), "ms");
  result->AddLayer("batch.members_per_batch",
                   Ratio(members, static_cast<double>(batch_ms.size())),
                   "count");
  result->AddLayer("batch.context_hit_ratio", Ratio(context_hits, members),
                   "share");
  result->AddLayer("batch.degraded", degraded, "count");
  result->AddFact("ladder_queries", static_cast<double>(sample.size()));
}

}  // namespace psibench
