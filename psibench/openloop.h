#ifndef PSIBENCH_OPENLOOP_H_
#define PSIBENCH_OPENLOOP_H_

#include <chrono>
#include <cstddef>
#include <thread>
#include <vector>

#include "trace.h"

namespace psibench {

/// When one open-loop request was due and when the generator really sent
/// it, both in seconds from the start of the schedule.
struct SendRecord {
  double due_s = 0.0;
  double sent_s = 0.0;
};

/// Open-loop generator: request i is due at i / rate_qps, and `send(i)` is
/// called at that time whether or not earlier requests have completed —
/// independent users do not wait for each other. The generator never waits
/// for replies; if it falls behind (it was descheduled, or `send` blocked)
/// it sends the overdue requests at once, and the record shows how late.
template <typename SendFn>
std::vector<SendRecord> RunOpenLoop(double rate_qps, double duration_s,
                                    SendFn&& send) {
  std::vector<SendRecord> records;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0;; ++i) {
    const double due = static_cast<double>(i) / rate_qps;
    if (due >= duration_s) break;
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(due)));
    const double sent = SecondsSince(start);
    send(i);
    records.push_back({due, sent});
  }
  return records;
}

/// Latency as an open-loop user sees it: from when the request was due to
/// when it completed. The service measures `service_latency_s` from
/// admission, which happens when the request is sent, so a generator that
/// ran late charges its lateness to the request instead of hiding it.
inline double LatencyFromDue(const SendRecord& record,
                             double service_latency_s) {
  return (record.sent_s - record.due_s) + service_latency_s;
}

}  // namespace psibench

#endif  // PSIBENCH_OPENLOOP_H_
