// Workload specs, input generation with reference answers, and the result
// bookkeeping every workload shares.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <unordered_set>

#include "core/pure_drivers.h"
#include "core/smart_psi.h"
#include "fsm/canonical.h"
#include "graph/query_extractor.h"
#include "signature/builders.h"
#include "stats.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "workloads.h"

namespace psibench {

using psi::graph::NodeId;
using psi::graph::QueryGraph;

WorkloadSpec FullSpec(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "serve") {
    spec.dataset = psi::graph::Dataset::kYouTube;
    spec.graph_scale = 0.004;  // ~20.4k nodes, ~170k edges
    spec.query_size = 5;
    spec.pool_size = 400;
    spec.zipf_exponent = 1.0;
    spec.open_loop_qps = 40.0;
    spec.ladder_queries = 48;
  } else if (name == "deep") {
    spec.dataset = psi::graph::Dataset::kTwitter;
    spec.graph_scale = 0.002;  // ~22.6k nodes, ~171k edges
    spec.query_size = 6;
    spec.pool_size = 320;
    spec.ladder_queries = 16;
  } else if (name == "mine") {
    spec.dataset = psi::graph::Dataset::kWeibo;
    spec.graph_scale = 0.0005;  // ~830 nodes, ~185k edges (dense)
    spec.min_support = 40;
    spec.max_edges = 4;
    spec.ladder_queries = 24;
  }
  return spec;
}

WorkloadSpec TinySpec(const std::string& name) {
  WorkloadSpec spec = FullSpec(name);
  spec.setup_repeats = 3;
  if (name == "serve") {
    spec.graph_scale = 0.0005;
    spec.pool_size = 24;
    spec.ladder_queries = 6;
  } else if (name == "deep") {
    spec.graph_scale = 0.0003;
    spec.pool_size = 40;
    spec.ladder_queries = 4;
  } else if (name == "mine") {
    spec.graph_scale = 0.0001;
    spec.min_support = 10;
    spec.max_edges = 2;
    spec.ladder_queries = 4;
  }
  return spec;
}

bool IsWorkload(const std::string& name) {
  return name == "serve" || name == "deep" || name == "mine";
}

namespace {

/// Distinct pivoted queries: the extractor can return the same induced
/// subgraph twice, which would turn a "unique" query into a cache hit.
std::vector<QueryGraph> ExtractDistinct(const psi::graph::Graph& g,
                                        size_t size, size_t count,
                                        uint64_t seed) {
  psi::graph::QueryExtractor extractor(g);
  psi::util::Rng rng(seed);
  std::unordered_set<uint64_t> seen;
  std::vector<QueryGraph> queries;
  for (size_t attempts = 0; queries.size() < count && attempts < 8 * count;
       ++attempts) {
    QueryGraph q = extractor.Extract(size, rng);
    if (q.num_nodes() != size) continue;
    const uint64_t key = q.Fingerprint() * 31 + q.pivot();
    if (seen.insert(key).second) queries.push_back(std::move(q));
  }
  if (queries.size() < count) {
    throw std::runtime_error("query extraction yielded too few queries");
  }
  return queries;
}

/// Computes the reference answer of every query, running `threads`
/// sequential pessimist evaluations at a time; a query over
/// kPessimistBudgetSeconds is answered by a standalone in-process
/// SmartPsiEngine (cache off), which must contain the pessimist's partial
/// answer. Untimed; its wall time goes to `in.reference_seconds`.
void ComputeAnswers(Inputs& in, size_t threads) {
  psi::util::WallTimer timer;
  const size_t count = in.queries.size();
  in.answers.assign(count, {});
  // One byte per query: pool threads write distinct elements concurrently,
  // which std::vector<bool>'s packed bits would turn into a data race.
  std::vector<char> complete(count, 0);
  {
    psi::util::ThreadPool pool(threads);
    for (size_t i = 0; i < count; ++i) {
      pool.Submit([&, i] {
        psi::core::PureDriverOptions options;  // sequential pessimist
        options.deadline = psi::util::Deadline::After(kPessimistBudgetSeconds);
        auto r = psi::core::EvaluatePure(in.graph, in.sigs, in.queries[i],
                                         options);
        complete[i] = r.complete;
        in.answers[i] = std::move(r.valid_nodes);
      });
    }
    pool.Wait();
  }
  // Over budget: a standalone in-process Realist (no service, no shared
  // cache) decides, and must contain the pessimist's partial answer.
  std::unique_ptr<psi::core::SmartPsiEngine> engine;
  for (size_t i = 0; i < count; ++i) {
    if (complete[i]) continue;
    if (engine == nullptr) {
      psi::core::SmartPsiConfig config;
      config.num_threads = threads;
      config.enable_cache = false;
      engine = std::make_unique<psi::core::SmartPsiEngine>(in.graph, &in.sigs,
                                                           config);
    }
    auto r = engine->Evaluate(in.queries[i]);
    if (!r.complete || !std::includes(r.valid_nodes.begin(),
                                      r.valid_nodes.end(),
                                      in.answers[i].begin(),
                                      in.answers[i].end())) {
      throw std::runtime_error("reference evaluations disagree");
    }
    in.answers[i] = std::move(r.valid_nodes);
    ++in.realist_references;
  }
  in.reference_seconds = timer.Seconds();
}

}  // namespace

Inputs MakeInputs(const WorkloadSpec& spec, size_t threads) {
  Inputs in;
  in.graph = psi::graph::MakeDataset(spec.dataset, spec.graph_scale,
                                     kGraphSeed);
  {
    psi::util::ThreadPool pool(threads);
    in.sigs = psi::signature::BuildMatrixSignatures(
        in.graph, psi::signature::kDefaultDepth, in.graph.num_labels(), &pool);
  }
  if (spec.name == "mine") {
    psi::util::WallTimer reference_timer;
    psi::fsm::FsmConfig config;
    config.min_support = spec.min_support;
    config.max_edges = spec.max_edges;
    config.num_threads = threads;
    config.method = psi::fsm::SupportMethod::kPsi;
    in.reference_mine = psi::fsm::FsmMiner(in.graph, config).Mine();
    if (!in.reference_mine.complete) {
      throw std::runtime_error("reference mine did not complete");
    }
    in.reference_seconds = reference_timer.Seconds();
  } else {
    in.queries = ExtractDistinct(in.graph, spec.query_size, spec.pool_size,
                                 kGraphSeed + 1);
    ComputeAnswers(in, threads);
  }
  return in;
}

bool Tally::Check(const psi::service::QueryResponse& response,
                  const std::vector<NodeId>& want) {
  if (!response.ok()) return Record(false, false);
  return Record(response.valid_nodes == want, response.valid_nodes != want);
}

bool Tally::Record(bool ok, bool wrong_answer) {
  ++attempted;
  if (!ok) ++failed;
  if (wrong_answer) ++wrong;
  return ok;
}

void Tally::Count(uint64_t ok, uint64_t failed_ops) {
  attempted += ok + failed_ops;
  failed += failed_ops;
}

void Tally::Merge(const Tally& other) {
  attempted += other.attempted;
  failed += other.failed;
  wrong += other.wrong;
}

void Result::AddE2E(std::string name, double value, std::string unit) {
  end_to_end.push_back({std::move(name), value, std::move(unit)});
}

void Result::AddLayer(std::string name, double value, std::string unit) {
  per_layer.push_back({std::move(name), value, std::move(unit)});
}

void Result::AddFact(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  facts.push_back("\"" + key + "\": " + buf);
}

void Result::AddFact(const std::string& key, const std::string& text) {
  facts.push_back("\"" + key + "\": \"" + text + "\"");
}

const Metric* Result::Find(const std::string& name) const {
  for (const auto* list : {&end_to_end, &per_layer}) {
    for (const Metric& m : *list) {
      if (m.name == name) return &m;
    }
  }
  return nullptr;
}

double Result::Get(const std::string& name) const {
  const Metric* m = Find(name);
  return m == nullptr ? 0.0 : m->value;
}

std::vector<Metric> NamedMetrics(const Result& result, bool trace,
                                 std::vector<std::string>* not_exercised) {
  std::vector<Metric> out;
  for (const auto& [name, unit] :
       trace ? PerLayerMetrics() : EndToEndMetrics()) {
    const Metric* m = result.Find(name);
    if (m == nullptr) not_exercised->push_back(name);
    out.push_back({name, m == nullptr ? 0.0 : m->value, unit});
  }
  return out;
}

psi::service::ServiceOptions MakeServiceOptions(size_t workers,
                                                size_t search_threads) {
  psi::service::ServiceOptions options;
  options.num_workers = workers;
  options.search_threads = search_threads;
  return options;
}

double TimedSetup(const psi::graph::Graph& g,
                  const psi::service::ServiceOptions& so, size_t repeats,
                  std::unique_ptr<psi::service::PsiService>* service) {
  std::vector<double> times;
  for (size_t r = 0; r < std::max<size_t>(1, repeats); ++r) {
    service->reset();
    psi::util::WallTimer timer;
    *service = std::make_unique<psi::service::PsiService>(g, so);
    times.push_back(timer.Seconds());
  }
  return Median(times);
}

void AddServiceLayer(const std::vector<psi::service::QueryResponse>& responses,
                     const psi::service::ServiceStats& stats,
                     double wall_seconds, size_t workers, Result* result) {
  std::vector<double> wait_ms;
  std::vector<double> exec_ms;
  for (const auto& r : responses) {
    if (r.status == psi::service::RequestStatus::kRejected) continue;
    wait_ms.push_back(std::max(0.0, r.latency_seconds - r.exec_seconds) * 1e3);
    exec_ms.push_back(r.exec_seconds * 1e3);
  }
  result->AddLayer("service.queue_wait_ms_p50", Percentile(wait_ms, 0.5), "ms");
  result->AddLayer("service.queue_wait_ms_p99", Percentile(wait_ms, 0.99),
                   "ms");
  result->AddLayer("service.exec_ms_p50", Percentile(exec_ms, 0.5), "ms");
  result->AddLayer("service.exec_ms_p99", Percentile(exec_ms, 0.99), "ms");
  result->AddLayer("service.cache_hit_rate", stats.cache.HitRate(), "share");
  result->AddLayer(
      "service.busy_share",
      Ratio(Sum(exec_ms) / 1e3, wall_seconds * static_cast<double>(workers)),
      "share");
  result->AddLayer("service.rejected",
                   static_cast<double>(stats.metrics.rejected), "count");
}

std::vector<std::string> FrequentCodes(const psi::fsm::FsmResult& result) {
  std::vector<std::string> codes;
  for (const auto& m : result.frequent) {
    codes.push_back(psi::fsm::CanonicalCode(m.pattern));
  }
  std::sort(codes.begin(), codes.end());
  return codes;
}

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},   {"throughput_qps", "q/s"}, {"p50_ms", "ms"},
      {"tail_ms", "ms"},  {"ok_share", "share"},
  };
  return kMetrics;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"signature.build_s", "s"},
      {"match.candidates_per_query", "count"},
      {"match.extract_us_p50", "us"},
      {"match.valid_ratio", "share"},
      {"core.prepare_us_p50", "us"},
      {"search.pessimist_ms_p50", "ms"},
      {"search.pessimist_ms_p99", "ms"},
      {"search.optimist_ms_p50", "ms"},
      {"search.parallel_ms_p50", "ms"},
      {"search.recursive_calls", "count"},
      {"search.prune_ratio", "share"},
      {"search.work_steals", "count"},
      {"realist.train_ms", "ms"},
      {"realist.predict_ms", "ms"},
      {"realist.eval_ms", "ms"},
      {"realist.ml_share", "share"},
      {"realist.alpha_accuracy", "share"},
      {"realist.training_nodes", "count"},
      {"realist.method_recoveries", "count"},
      {"realist.plan_fallbacks", "count"},
      {"realist.cache_hit_ratio", "share"},
      {"service.queue_wait_ms_p50", "ms"},
      {"service.queue_wait_ms_p99", "ms"},
      {"service.exec_ms_p50", "ms"},
      {"service.exec_ms_p99", "ms"},
      {"service.cache_hit_rate", "share"},
      {"service.busy_share", "share"},
      {"service.rejected", "count"},
      {"batch.latency_ms_p50", "ms"},
      {"batch.latency_ms_p99", "ms"},
      {"batch.members_per_batch", "count"},
      {"batch.context_hit_ratio", "share"},
      {"batch.degraded", "count"},
      {"fsm.candidates_evaluated", "count"},
      {"fsm.frequent_patterns", "count"},
      {"fsm.mine_s", "s"},
      {"fsm.inproc_mine_s", "s"},
      {"fsm.serving_overhead_ratio", "ratio"},
      {"loadgen.lag_ms_p99", "ms"},
      {"trace.overhead_share", "share"},
  };
  return kMetrics;
}

namespace {

/// The cost the tracing overhead is measured on: time per unit of the
/// workload's headline work, lower is better.
double TracedCost(const WorkloadSpec& spec, const Result& r) {
  if (spec.name == "mine") return r.Get("fsm.mine_s");
  return Ratio(1.0, r.Get("throughput_qps"));
}

}  // namespace

Result RunWorkload(const WorkloadSpec& spec, Inputs& in,
                   const RunOptions& options, const std::string& span_path) {
  auto run = [&](double seconds, Tracer& tracer) {
    if (spec.name == "serve") return RunServe(spec, in, options, seconds, tracer);
    if (spec.name == "deep") return RunDeep(spec, in, options, seconds, tracer);
    return RunMine(spec, in, options, seconds, tracer);
  };
  if (!options.trace) {
    Tracer off(false);
    return run(options.seconds, off);
  }
  Tracer off(false);
  Result untraced = run(options.seconds / 2, off);
  Tracer tracer(true);
  psi::util::WallTimer traced_timer;
  Result traced = run(options.seconds / 2, tracer);
  RunLadder(spec, in, options, tracer, &traced);
  const double traced_s = traced_timer.Seconds();
  // Recording cost of the spans over the traced wall time. The traced and
  // untraced halves' cost ratio is kept as a fact only: run-to-run noise
  // (about +-15%) swamps spans of a few hundred ns.
  const double span_s = SpanCostSeconds();
  const double spans = static_cast<double>(tracer.size());
  traced.AddLayer("trace.overhead_share", Ratio(span_s * spans, traced_s),
                  "share");
  traced.AddLayer("trace.spans", spans, "count");
  traced.AddFact("spans", spans);
  traced.AddFact("span_cost_ns", span_s * 1e9);
  traced.AddFact("traced_s", traced_s);
  traced.AddFact("traced_over_untraced_cost",
                 Ratio(TracedCost(spec, traced), TracedCost(spec, untraced)));
  traced.tally.Merge(untraced.tally);
  if (!span_path.empty()) {
    if (!tracer.WriteJsonLines(span_path)) {
      throw std::runtime_error("cannot write span file " + span_path);
    }
    traced.AddFact("span_file", span_path);
  }
  return traced;
}

}  // namespace psibench
