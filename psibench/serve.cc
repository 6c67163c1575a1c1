// serve: many short kSmart queries from a Zipf-skewed pool through
// PsiService::Submit — an open-loop phase at a fixed rate, then a saturated
// phase. Exercises admission, the shared prediction cache and the per-query
// Realist; intra-query parallel search and batching stay idle.

#include <algorithm>
#include <future>
#include <optional>

#include "openloop.h"
#include "stats.h"
#include "util/random.h"
#include "workloads.h"

namespace psibench {

namespace {

/// Zipf-skewed request stream over the query pool: rank r is pool query r,
/// and the pool is in random extraction order.
class RequestStream {
 public:
  RequestStream(size_t pool, double exponent, uint64_t seed)
      : rng_(seed), zipf_(pool, exponent) {}
  size_t Next() { return zipf_.Sample(rng_); }

 private:
  psi::util::Rng rng_;
  psi::util::ZipfSampler zipf_;
};

struct Settled {
  size_t query = 0;
  service::QueryResponse response;
  /// Seconds from the phase start to the send.
  double sent_s = 0.0;
};

service::QueryResponse Rejected() {
  service::QueryResponse r;
  r.status = service::RequestStatus::kRejected;
  return r;
}

/// One submitter keeps `in_flight` requests outstanding until `duration_s`
/// has passed, then drains them. Polls rather than blocking on the oldest
/// request, so one slow query never idles the other workers.
std::vector<Settled> RunSaturated(service::PsiService& svc, const Inputs& in,
                                  RequestStream& stream, size_t in_flight,
                                  double duration_s, Tracer& tracer,
                                  uint64_t* next_id) {
  struct Slot {
    size_t query = 0;
    double sent_s = 0.0;
    Clock::time_point sent;
    std::optional<std::future<service::QueryResponse>> future;
  };
  std::vector<Settled> settled;
  std::vector<Slot> slots(in_flight);
  const Clock::time_point start = Clock::now();
  auto settle = [&](Slot& slot, service::QueryResponse response) {
    tracer.Record("service.submit", 0, response.id, slot.sent,
                  slot.sent + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(
                                      response.latency_seconds)));
    settled.push_back({slot.query, std::move(response), slot.sent_s});
    slot.future.reset();
  };
  auto send = [&](Slot& slot) {
    slot.query = stream.Next();
    slot.sent = Clock::now();
    slot.sent_s = SecondsSince(start);
    service::QueryRequest request;
    request.id = (*next_id)++;
    request.query = in.queries[slot.query];
    slot.future = svc.Submit(std::move(request));
    if (!slot.future.has_value()) settle(slot, Rejected());
  };
  size_t outstanding = 0;
  for (Slot& slot : slots) {
    send(slot);
    if (slot.future.has_value()) ++outstanding;
  }
  while (outstanding > 0) {
    bool progressed = false;
    for (Slot& slot : slots) {
      if (!slot.future.has_value() ||
          slot.future->wait_for(std::chrono::seconds(0)) !=
              std::future_status::ready) {
        continue;
      }
      progressed = true;
      settle(slot, slot.future->get());
      --outstanding;
      if (SecondsSince(start) < duration_s) {
        send(slot);
        if (slot.future.has_value()) ++outstanding;
      }
    }
    if (!progressed) std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return settled;
}

}  // namespace

Result RunServe(const WorkloadSpec& spec, Inputs& in,
                const RunOptions& options, double seconds, Tracer& tracer) {
  Result result;
  const size_t workers = options.threads;
  std::unique_ptr<service::PsiService> svc;
  const double setup_s = TimedSetup(in.graph, MakeServiceOptions(workers, 1),
                                    spec.setup_repeats, &svc);

  RequestStream stream(in.queries.size(), spec.zipf_exponent,
                       options.seed * 0xbf58476d1ce4e5b9ULL + 7);
  uint64_t next_id = 1;
  // The warm-up lets the popular queries reach the prediction cache: the
  // open-loop median sits between the cached (~4 ms) and uncached (~40 ms)
  // modes, and moved by ±30% between runs while the cache was still
  // filling. Phase A needs >= 1000 samples for its p99 at its 40 q/s, and
  // phase B >= 20 x the slowest query. serve measures 2.8 x `seconds` in
  // all (README.md, "Sizing").
  const double warm_s = 0.3 * seconds;
  const double open_s = 1.6 * seconds;
  const double saturated_s = 0.9 * seconds;
  std::vector<service::QueryResponse> all;

  // Warm-up: checked, not measured.
  for (Settled& s :
       RunSaturated(*svc, in, stream, 2 * workers, warm_s, tracer, &next_id)) {
    result.tally.Check(s.response, in.answers[s.query]);
  }

  // Phase A: open loop at a fixed rate; latency from each due time.
  psi::util::WallTimer measured;
  std::vector<std::pair<size_t, std::optional<std::future<service::QueryResponse>>>>
      pending;
  pending.reserve(static_cast<size_t>(open_s * spec.open_loop_qps) + 2);
  std::vector<Clock::time_point> sent_at;
  sent_at.reserve(pending.capacity());
  const std::vector<SendRecord> records =
      RunOpenLoop(spec.open_loop_qps, open_s, [&](size_t) {
        const size_t q = stream.Next();
        service::QueryRequest request;
        request.id = next_id++;
        request.query = in.queries[q];
        sent_at.push_back(Clock::now());
        pending.emplace_back(q, svc->Submit(std::move(request)));
      });
  std::vector<double> open_ms;
  std::vector<double> lag_ms;
  for (size_t i = 0; i < pending.size(); ++i) {
    service::QueryResponse r =
        pending[i].second.has_value() ? pending[i].second->get() : Rejected();
    tracer.Record("service.submit", 0, r.id, sent_at[i],
                  sent_at[i] + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       r.latency_seconds)));
    lag_ms.push_back((records[i].sent_s - records[i].due_s) * 1e3);
    if (result.tally.Check(r, in.answers[pending[i].first])) {
      open_ms.push_back(LatencyFromDue(records[i], r.latency_seconds) * 1e3);
    }
    all.push_back(std::move(r));
  }

  // Phase B: saturation, 2 × workers requests in flight.
  size_t completed_in_window = 0;
  size_t phase_b = 0;
  for (Settled& s : RunSaturated(*svc, in, stream, 2 * workers, saturated_s,
                                 tracer, &next_id)) {
    ++phase_b;
    const bool ok = result.tally.Check(s.response, in.answers[s.query]);
    if (ok && s.sent_s + s.response.latency_seconds <= saturated_s) {
      ++completed_in_window;
    }
    all.push_back(std::move(s.response));
  }
  const double measured_s = measured.Seconds();

  double slowest_ms = 0.0;
  for (const auto& r : all) slowest_ms = std::max(slowest_ms, r.exec_seconds * 1e3);
  const double tail_p = 0.99;
  result.AddE2E("setup_s", setup_s, "s");
  result.AddE2E("throughput_qps",
                static_cast<double>(completed_in_window) / saturated_s, "q/s");
  result.AddE2E("p50_ms", Percentile(open_ms, 0.5), "ms");
  result.AddE2E("tail_ms", Percentile(open_ms, tail_p), "ms");
  result.AddE2E("ok_share",
                1.0 - Ratio(static_cast<double>(result.tally.failed),
                            static_cast<double>(result.tally.attempted)),
                "share");

  const service::ServiceStats stats = svc->Stats();
  AddServiceLayer(all, stats, measured_s, workers, &result);
  result.AddLayer("loadgen.lag_ms_p99", Percentile(lag_ms, 0.99), "ms");

  result.AddFact("workers", static_cast<double>(workers));
  result.AddFact("search_threads", 1.0);
  result.AddFact("open_loop_rate_qps", spec.open_loop_qps);
  result.AddFact("open_loop_s", open_s);
  result.AddFact("open_loop_requests", static_cast<double>(records.size()));
  result.AddFact("saturated_s", saturated_s);
  result.AddFact("saturated_in_flight", static_cast<double>(2 * workers));
  result.AddFact("saturated_requests", static_cast<double>(phase_b));
  result.AddFact("warmup_s", warm_s);
  result.AddFact("tail_percentile", tail_p);
  result.AddFact("tail_samples", static_cast<double>(open_ms.size()));
  result.AddFact("highest_supported_percentile",
                 HighestSupportedPercentile(open_ms.size()));
  result.AddFact("p90_ms", Percentile(open_ms, 0.9));
  result.AddFact("lag_ms_p99", Percentile(lag_ms, 0.99));
  result.AddFact("slowest_query_ms", slowest_ms);
  result.AddFact("saturated_s_over_slowest",
                 Ratio(saturated_s * 1e3, slowest_ms));
  result.AddFact("cache_hit_rate", stats.cache.HitRate());
  return result;
}

}  // namespace psibench
