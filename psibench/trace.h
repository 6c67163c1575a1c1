#ifndef PSIBENCH_TRACE_H_
#define PSIBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace psibench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One timed call into a layer, recorded by the benchmark around the public
/// function it calls. Spans of one request share `request`; `parent` is the
/// span that caused this one (0 for a root).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
};

/// In-memory span store. A disabled tracer records nothing and every call
/// is a branch on one bool, so untraced runs pay nothing measurable.
/// Thread-safe.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Records a finished span; returns its id (0 when disabled).
  uint64_t Record(const char* name, uint64_t parent, uint64_t request,
                  Clock::time_point start, Clock::time_point end);

  /// Opens a span that ends at the matching End(); returns its id.
  uint64_t Begin(const char* name, uint64_t parent, uint64_t request);
  void End(uint64_t id);

  size_t size() const;

  /// Writes one JSON object per line (format in README.md, "Span records");
  /// times are microseconds since the tracer was created.
  bool WriteJsonLines(const std::string& path) const;

 private:
  const bool enabled_;
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_; span id = index + 1
};

/// Mean cost of recording one span (Begin + End) on an enabled tracer,
/// measured on a throwaway tracer.
double SpanCostSeconds();

/// RAII span over a synchronous call.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, uint64_t parent,
             uint64_t request)
      : tracer_(tracer), id_(tracer.Begin(name, parent, request)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  const uint64_t id_;
};

}  // namespace psibench

#endif  // PSIBENCH_TRACE_H_
