#include "trace.h"

#include <cstdio>

namespace psibench {

uint64_t Tracer::Record(const char* name, uint64_t parent, uint64_t request,
                        Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.request = request;
  span.name = name;
  span.start = start;
  span.end = end;
  spans_.push_back(span);
  return span.id;
}

uint64_t Tracer::Begin(const char* name, uint64_t parent, uint64_t request) {
  if (!enabled_) return 0;
  const Clock::time_point now = Clock::now();
  return Record(name, parent, request, now, now);
}

void Tracer::End(uint64_t id) {
  if (!enabled_ || id == 0) return;
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id - 1].end = now;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

double SpanCostSeconds() {
  constexpr int kSpans = 20000;
  Tracer tracer(true);
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    const ScopedSpan span(tracer, "calibration", 0, 0);
  }
  return SecondsSince(start) / kSpans;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  auto micros = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  for (const Span& s : spans_) {
    std::fprintf(out,
                 "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name,
                 micros(s.start), micros(s.end));
  }
  return std::fclose(out) == 0;
}

}  // namespace psibench
