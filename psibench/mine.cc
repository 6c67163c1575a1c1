// mine: served frequent-subgraph mining. Full FsmMiner::Mine runs through
// the service (one SubmitBatch of pessimistic per-pivot probes per
// candidate pattern) until the time is up, each round on a fresh service,
// so that round's Stats() describe exactly one mine. Bypasses the ML models
// and the prediction cache entirely.

#include <algorithm>

#include "stats.h"
#include "util/timer.h"
#include "workloads.h"

namespace psibench {

Result RunMine(const WorkloadSpec& spec, Inputs& in,
               const RunOptions& options, double seconds, Tracer& tracer) {
  Result result;
  const size_t workers = options.threads;
  const service::ServiceOptions service_options = MakeServiceOptions(workers, 1);
  std::unique_ptr<service::PsiService> svc;
  const double setup_s =
      TimedSetup(in.graph, service_options, spec.setup_repeats, &svc);
  const std::vector<std::string> reference_codes =
      FrequentCodes(in.reference_mine);

  fsm::FsmConfig config;
  config.min_support = spec.min_support;
  config.max_edges = spec.max_edges;
  config.num_threads = 1;

  std::vector<double> mine_s;
  std::vector<double> probe_p50_ms;
  std::vector<double> probe_p99_ms;
  service::MetricsSnapshot last;
  size_t candidates_evaluated = 0;
  size_t frequent_patterns = 0;
  double cache_hit_rate = 0.0;
  uint64_t rejected = 0;
  uint64_t next_id = 1;
  // Full mines for `seconds`. Every figure is a median over the rounds: on
  // a shared 4-vCPU VM one full mine's wall time drifts by ~10% within
  // seconds, and a median of rounds rides out such a burst.
  const Clock::time_point start = Clock::now();
  do {
    if (!mine_s.empty()) {
      svc.reset();
      svc = std::make_unique<service::PsiService>(in.graph, service_options);
    }
    config.service = svc.get();
    const uint64_t span = tracer.Begin("fsm.mine", 0, next_id++);
    psi::util::WallTimer timer;
    const fsm::FsmResult mined = fsm::FsmMiner(in.graph, config).Mine();
    mine_s.push_back(timer.Seconds());
    tracer.End(span);

    const service::ServiceStats stats = svc->Stats();
    last = stats.metrics;
    // Batch members share their batch's admission timer, so each probe's
    // latency runs from its batch's admission to the probe's settlement.
    probe_p50_ms.push_back(last.latency.p50 * 1e3);
    probe_p99_ms.push_back(last.latency.p99 * 1e3);
    cache_hit_rate = stats.cache.HitRate();
    rejected += last.rejected;

    const bool same = mined.complete && FrequentCodes(mined) == reference_codes;
    result.tally.Record(same, mined.complete && !same);
    result.tally.Count(last.completed, last.Settled() - last.completed +
                                           last.rejected);
    candidates_evaluated = mined.candidates_evaluated;
    frequent_patterns = mined.frequent.size();
  } while (SecondsSince(start) < seconds);

  const double median_mine_s = Median(mine_s);
  const double probes = static_cast<double>(last.batch_queries);
  const double tail_p = 0.99;
  result.AddE2E("setup_s", setup_s, "s");
  result.AddE2E("throughput_qps", Ratio(probes, median_mine_s), "q/s");
  result.AddE2E("p50_ms", Median(probe_p50_ms), "ms");
  result.AddE2E("tail_ms", Median(probe_p99_ms), "ms");
  result.AddE2E("ok_share",
                1.0 - Ratio(static_cast<double>(result.tally.failed),
                            static_cast<double>(result.tally.attempted)),
                "share");

  result.AddLayer("service.cache_hit_rate", cache_hit_rate, "share");
  result.AddLayer("service.rejected", static_cast<double>(rejected), "count");
  result.AddLayer("fsm.candidates_evaluated",
                  static_cast<double>(candidates_evaluated), "count");
  result.AddLayer("fsm.frequent_patterns",
                  static_cast<double>(frequent_patterns), "count");
  result.AddLayer("fsm.mine_s", median_mine_s, "s");
  result.AddLayer("fsm.inproc_mine_s", in.reference_mine.seconds, "s");
  result.AddLayer("fsm.serving_overhead_ratio",
                  Ratio(median_mine_s, in.reference_mine.seconds), "ratio");

  // The service keeps the latest kDefaultCapacity latencies: a mine with
  // more probes is summarized over its last ones.
  const size_t window = static_cast<size_t>(std::min<uint64_t>(
      last.latency.count, service::LatencyReservoir::kDefaultCapacity));
  result.AddFact("workers", static_cast<double>(workers));
  result.AddFact("miner_threads", 1.0);
  result.AddFact("mine_s", median_mine_s);
  result.AddFact("mines", static_cast<double>(mine_s.size()));
  result.AddFact("batches_per_mine", static_cast<double>(last.batch_submitted));
  result.AddFact("probes_per_mine", probes);
  result.AddFact("members_per_batch",
                 Ratio(probes, static_cast<double>(last.batch_submitted)));
  result.AddFact("context_hit_ratio",
                 Ratio(static_cast<double>(last.batch_context_hits), probes));
  result.AddFact("frequent_patterns", static_cast<double>(frequent_patterns));
  result.AddFact("tail_percentile", tail_p);
  result.AddFact("latency_window_probes", static_cast<double>(window));
  result.AddFact("highest_supported_percentile",
                 HighestSupportedPercentile(window));
  result.AddFact("fastest_mine_s",
                 *std::min_element(mine_s.begin(), mine_s.end()));
  result.AddFact("slowest_mine_s",
                 *std::max_element(mine_s.begin(), mine_s.end()));
  return result;
}

}  // namespace psibench
