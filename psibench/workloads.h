#ifndef PSIBENCH_WORKLOADS_H_
#define PSIBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fsm/miner.h"
#include "graph/datasets.h"
#include "graph/graph.h"
#include "graph/query_graph.h"
#include "service/request.h"
#include "service/service.h"
#include "signature/signature_matrix.h"
#include "trace.h"

namespace psibench {

namespace fsm = psi::fsm;
namespace graph = psi::graph;
namespace service = psi::service;
namespace signature = psi::signature;

/// Graphs and query pools are fixed per workload, like a dataset and its
/// query file; the workload seed draws the request sequence (serve) or the
/// order of the fixed query set in each round (deep). Seeded pools swung throughput and
/// p99 by ±45% between seeds, because a few heavy queries decide a pool's
/// mean cost.
inline constexpr uint64_t kGraphSeed = 20190326;

/// Sizes of one workload. FullSpec is what the benchmark measures; TinySpec
/// is the same workload shrunk so the tests can run it in seconds.
struct WorkloadSpec {
  std::string name;  // serve | deep | mine
  graph::Dataset dataset = graph::Dataset::kYouTube;
  double graph_scale = 1.0;
  /// serve, deep: nodes per extracted query.
  size_t query_size = 0;
  /// serve: distinct queries in the pool; deep: the unique queries every
  /// round sends.
  size_t pool_size = 0;
  /// serve: Zipf exponent of query popularity.
  double zipf_exponent = 0.0;
  /// serve: open-loop arrival rate of phase A, below saturated capacity.
  double open_loop_qps = 0.0;
  /// mine: MNI threshold and pattern size bound.
  uint64_t min_support = 0;
  size_t max_edges = 0;
  /// PsiService constructions timed per run; setup_s is their median.
  size_t setup_repeats = 31;
  /// Queries (serve, deep) or candidate patterns (mine) the traced ladder
  /// runs through every layer.
  size_t ladder_queries = 0;
};

WorkloadSpec FullSpec(const std::string& name);
WorkloadSpec TinySpec(const std::string& name);
bool IsWorkload(const std::string& name);

struct RunOptions {
  uint64_t seed = 1;
  /// Measured time of the run (phases split it; see README.md).
  double seconds = 20.0;
  /// Total compute threads: service workers × search threads.
  size_t threads = 4;
  bool trace = false;
};

/// Benchmark inputs, generated before anything is timed.
struct Inputs {
  graph::Graph graph;
  /// Signatures for the reference answers and the traced ladder.
  signature::SignatureMatrix sigs;
  /// serve: the distinct query pool; deep: the unique query set.
  std::vector<graph::QueryGraph> queries;
  /// Reference answer per query (sequential pessimistic EvaluatePure),
  /// computed for every query before anything is timed.
  std::vector<std::vector<graph::NodeId>> answers;
  /// References the pessimist could not finish within its budget.
  size_t realist_references = 0;
  /// mine: in-process kPsi mine of the same graph, the reference frequent
  /// set.
  fsm::FsmResult reference_mine;
  double reference_seconds = 0.0;
};

Inputs MakeInputs(const WorkloadSpec& spec, size_t threads);

/// Sequential pessimist time per reference query before the reference
/// falls back to a standalone Realist: a few deep queries run for minutes
/// under any single fixed plan, which the Realist's plan model avoids.
inline constexpr double kPessimistBudgetSeconds = 1.0;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Counts every operation the run attempted and every one that failed: shed,
/// timed out, cancelled, or answered differently from the reference.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;

  /// Checks one served answer against its reference; true when correct.
  bool Check(const service::QueryResponse& response,
             const std::vector<graph::NodeId>& want);
  /// Records one operation whose correctness the caller decided.
  bool Record(bool ok, bool wrong_answer);
  /// Records operations the service settled without an answer to check:
  /// `ok` succeeded, `failed` were shed or did not complete.
  void Count(uint64_t ok, uint64_t failed);
  void Merge(const Tally& other);
};

struct Result {
  Tally tally;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Extra run facts for the config block, as `"key": value` JSON members.
  std::vector<std::string> facts;

  void AddE2E(std::string name, double value, std::string unit);
  void AddLayer(std::string name, double value, std::string unit);
  void AddFact(const std::string& key, double value);
  void AddFact(const std::string& key, const std::string& text);
  /// The metric of that name from either list, or null.
  const Metric* Find(const std::string& name) const;
  /// Value of a metric in either list; 0 when absent.
  double Get(const std::string& name) const;
  /// False iff some answer differed from its reference; the command then
  /// exits non-zero.
  bool correct() const { return tally.wrong == 0; }
};

/// Runs one workload's timed phases (no ladder). With tracing enabled every
/// call the benchmark makes into the service records a span.
Result RunServe(const WorkloadSpec& spec, Inputs& in,
                const RunOptions& options, double seconds, Tracer& tracer);
Result RunDeep(const WorkloadSpec& spec, Inputs& in,
               const RunOptions& options, double seconds, Tracer& tracer);
Result RunMine(const WorkloadSpec& spec, Inputs& in,
               const RunOptions& options, double seconds, Tracer& tracer);

/// The traced layer ladder: the workload's query set through EvaluatePure,
/// SmartPsiEngine::Evaluate, PsiService::Submit and SubmitBatch (and, for
/// mine, FsmMiner::Mine via the timed run), one span per call. Adds the
/// per-layer metrics to `result`.
void RunLadder(const WorkloadSpec& spec, Inputs& in,
               const RunOptions& options, Tracer& tracer, Result* result);

/// Untraced: the timed run and its end-to-end metrics. Traced: half the
/// time untraced, half traced, then the ladder; per-layer metrics plus
/// trace.overhead_share. Writes spans to `span_path` when non-empty.
Result RunWorkload(const WorkloadSpec& spec, Inputs& in,
                   const RunOptions& options, const std::string& span_path);

/// Names of the metrics RunWorkload emits, in order, with their units.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Every metric of the run's kind (end-to-end, or per-layer when traced) in
/// list order with its unit. A metric the workload does not exercise reads
/// 0 and is appended to `not_exercised`.
std::vector<Metric> NamedMetrics(const Result& result, bool trace,
                                 std::vector<std::string>* not_exercised);

/// Shared service-layer metrics from settled responses.
void AddServiceLayer(const std::vector<service::QueryResponse>& responses,
                     const service::ServiceStats& stats, double wall_seconds,
                     size_t workers, Result* result);

/// Default service options with the given parallelism.
service::ServiceOptions MakeServiceOptions(size_t workers,
                                           size_t search_threads);

/// Constructs the service `repeats` times (the set-up a user pays before
/// the first query) and keeps the last one; returns the median time.
double TimedSetup(const graph::Graph& g, const service::ServiceOptions& so,
                  size_t repeats,
                  std::unique_ptr<service::PsiService>* service);

/// Sorted canonical codes of a mined frequent set.
std::vector<std::string> FrequentCodes(const fsm::FsmResult& result);

}  // namespace psibench

#endif  // PSIBENCH_WORKLOADS_H_
