// deep: unique size-6 kSmart queries from one closed-loop client against a
// single service worker that searches with every thread. Every query pays
// full Realist training (no cache hits) and work-stealing search, and
// nothing queues. The fixed query set is sent in rounds, each on a freshly
// constructed service, so a query never meets its own cached prediction.

#include <algorithm>
#include <numeric>

#include "stats.h"
#include "util/random.h"
#include "workloads.h"

namespace psibench {

Result RunDeep(const WorkloadSpec& spec, Inputs& in,
               const RunOptions& options, double seconds, Tracer& tracer) {
  Result result;
  const service::ServiceOptions service_options =
      MakeServiceOptions(1, options.threads);
  std::unique_ptr<service::PsiService> svc;
  const double setup_s =
      TimedSetup(in.graph, service_options, spec.setup_repeats, &svc);

  const size_t count = in.queries.size();
  std::vector<size_t> order(count);
  std::iota(order.begin(), order.end(), 0);
  psi::util::Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + 3);

  // Each query's latencies, one per round it was answered correctly in.
  std::vector<std::vector<double>> query_ms(count);
  std::vector<service::QueryResponse> all;
  std::vector<double> lag_ms;
  double wall_s = 0.0;
  size_t rounds = 0;
  service::ServiceStats stats;
  // Rounds until `seconds` have passed. On a shared VM a whole round can
  // run 15% slow; a query's median over the rounds rides out such a
  // stretch, and the median query then no longer shifts with the few
  // queries whose plan timings flip under the slowdown.
  const Clock::time_point start = Clock::now();
  do {
    if (rounds > 0) {
      svc.reset();
      svc = std::make_unique<service::PsiService>(in.graph, service_options);
    }
    for (size_t k = count; k > 1; --k) {
      std::swap(order[k - 1], order[rng.NextBounded(k)]);
    }
    const Clock::time_point round_start = Clock::now();
    Clock::time_point previous_done = round_start;
    for (const size_t i : order) {
      service::QueryRequest request;
      request.id = rounds * count + i + 1;
      request.query = in.queries[i];
      const Clock::time_point sent = Clock::now();
      auto future = svc->Submit(std::move(request));
      service::QueryResponse r;
      if (future.has_value()) {
        r = future->get();
      } else {
        r.status = service::RequestStatus::kRejected;
      }
      const Clock::time_point done = Clock::now();
      tracer.Record("service.submit", 0, rounds * count + i + 1, sent, done);
      lag_ms.push_back(
          std::chrono::duration<double, std::milli>(sent - previous_done)
              .count());
      if (result.tally.Check(r, in.answers[i])) {
        query_ms[i].push_back(
            std::chrono::duration<double, std::milli>(done - sent).count());
      }
      previous_done = done;
      all.push_back(std::move(r));
    }
    wall_s += std::chrono::duration<double>(previous_done - round_start).count();
    stats = svc->Stats();
    ++rounds;
  } while (SecondsSince(start) < seconds);
  svc.reset();

  std::vector<double> median_ms;
  size_t ok = 0;
  for (const auto& samples : query_ms) {
    ok += samples.size();
    if (!samples.empty()) median_ms.push_back(Median(samples));
  }
  const double tail_p = 0.90;
  result.AddE2E("setup_s", setup_s, "s");
  result.AddE2E("throughput_qps", Ratio(static_cast<double>(ok), wall_s),
                "q/s");
  result.AddE2E("p50_ms", Percentile(median_ms, 0.5), "ms");
  result.AddE2E("tail_ms", Percentile(median_ms, tail_p), "ms");
  result.AddE2E("ok_share",
                1.0 - Ratio(static_cast<double>(result.tally.failed),
                            static_cast<double>(result.tally.attempted)),
                "share");

  AddServiceLayer(all, stats, wall_s, 1, &result);
  result.AddLayer("loadgen.lag_ms_p99", Percentile(lag_ms, 0.99), "ms");

  const double slowest_ms =
      median_ms.empty() ? 0.0
                        : *std::max_element(median_ms.begin(), median_ms.end());
  result.AddFact("workers", 1.0);
  result.AddFact("search_threads", static_cast<double>(options.threads));
  result.AddFact("queries_per_round", static_cast<double>(count));
  result.AddFact("rounds", static_cast<double>(rounds));
  result.AddFact("wall_s", wall_s);
  result.AddFact("tail_percentile", tail_p);
  result.AddFact("highest_supported_percentile",
                 HighestSupportedPercentile(median_ms.size()));
  result.AddFact("p99_ms", Percentile(median_ms, 0.99));
  result.AddFact("slowest_query_ms", slowest_ms);
  result.AddFact("round_over_slowest",
                 Ratio(wall_s * 1e3 / static_cast<double>(rounds), slowest_ms));
  return result;
}

}  // namespace psibench
