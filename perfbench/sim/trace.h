// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded only by the benchmark's own code, around its calls into each simulator
// layer (kernel syscalls, fork, guest allocation, machine stores, the apps, the scheduler's
// Run loop). Each span carries a name "layer.what", host start/end (steady_clock ns), the
// span that was open on the same simulated thread when it began (its parent) and a request
// id shared by the spans of one request. Spans are kept in memory and written at exit as
// Chrome trace-event JSON, which Perfetto opens.
//
// The host is single-threaded, but simulated threads are coroutines that suspend inside a
// call (a blocking wait, a contended kernel lock), so one span's interval can contain spans of
// other simulated threads. Self time therefore subtracts every span that BEGAN inside the
// interval (clipped to it), not only recorded children: whatever ran then was not this span's
// own work.
#ifndef PERFBENCH_SIM_TRACE_H_
#define PERFBENCH_SIM_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t HostNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = -1;  // -1 while open
  int32_t parent = -1;  // index into the span list, -1 for a root
  uint64_t request = 0;
  const void* thread = nullptr;  // simulated thread that opened it (nullptr: host/boot)
};

class Tracer {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  // Opens a span on `thread`; returns its id, or -1 when tracing is off.
  int Begin(const char* name, uint64_t request, const void* thread);
  void End(int id);

  // Drops all recorded spans (between rounds).
  void Clear();

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::map<const void*, std::vector<int>> open_;  // per-thread stack of open span ids
};

// Self time of every closed span, index-aligned with `spans`.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

// Writes closed spans as Chrome trace-event JSON ("X" complete events, one track per simulated
// thread); returns false if the file cannot be written.
bool WriteChromeTrace(const std::vector<Span>& spans, const std::string& path);

// RAII span. The object may live in a coroutine frame across suspension points.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, uint64_t request, const void* thread)
      : tracer_(tracer), id_(tracer.Begin(name, request, thread)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SIM_TRACE_H_
