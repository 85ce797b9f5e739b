#include "sim/trace.h"

#include <algorithm>
#include <cstdio>
#include <numeric>

namespace perfbench {

int Tracer::Begin(const char* name, uint64_t request, const void* thread) {
  if (!enabled_) {
    return -1;
  }
  Span span;
  span.name = name;
  span.request = request;
  span.thread = thread;
  // Parent: the innermost span open on this simulated thread, else the innermost host-side
  // span (the Run loop that is executing the thread).
  auto parent_of = [this](const void* key) -> int32_t {
    auto it = open_.find(key);
    return it == open_.end() || it->second.empty() ? -1 : it->second.back();
  };
  span.parent = parent_of(thread);
  if (span.parent < 0 && thread != nullptr) {
    span.parent = parent_of(nullptr);
  }
  const int id = static_cast<int>(spans_.size());
  open_[thread].push_back(id);
  span.start_ns = HostNowNs();
  spans_.push_back(span);
  return id;
}

void Tracer::End(int id) {
  if (id < 0) {
    return;
  }
  Span& span = spans_[static_cast<size_t>(id)];
  span.end_ns = HostNowNs();
  std::vector<int>& stack = open_[span.thread];
  auto it = std::find(stack.rbegin(), stack.rend(), id);
  if (it != stack.rend()) {
    stack.erase(std::next(it).base());
  }
}

void Tracer::Clear() {
  spans_.clear();
  open_.clear();
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<size_t> order(spans.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&spans](size_t a, size_t b) {
    if (spans[a].start_ns != spans[b].start_ns) {
      return spans[a].start_ns < spans[b].start_ns;
    }
    return spans[a].end_ns > spans[b].end_ns;  // enclosing span first on a tie
  });
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t pos = 0; pos < order.size(); ++pos) {
    const Span& outer = spans[order[pos]];
    if (outer.end_ns < 0) {
      continue;
    }
    // Union of the intervals of spans that began inside `outer`, clipped to it. The scan is
    // in start order, so the union is a running (seg_start, seg_end) merge.
    int64_t covered = 0;
    int64_t seg_start = 0;
    int64_t seg_end = -1;
    for (size_t k = pos + 1; k < order.size(); ++k) {
      const Span& inner = spans[order[k]];
      if (inner.start_ns >= outer.end_ns) {
        break;
      }
      const int64_t end = std::min(inner.end_ns < 0 ? outer.end_ns : inner.end_ns, outer.end_ns);
      if (inner.start_ns > seg_end) {
        covered += std::max<int64_t>(0, seg_end - seg_start);
        seg_start = inner.start_ns;
        seg_end = end;
      } else {
        seg_end = std::max(seg_end, end);
      }
    }
    covered += std::max<int64_t>(0, seg_end - seg_start);
    self[order[pos]] = (outer.end_ns - outer.start_ns) - covered;
  }
  return self;
}

bool WriteChromeTrace(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::map<const void*, int> tids;  // one Perfetto track per simulated thread, 0 = host
  tids[nullptr] = 0;
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", out);
  bool first = true;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns < 0) {
      continue;
    }
    auto [it, inserted] = tids.try_emplace(s.thread, static_cast<int>(tids.size()));
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"request\":%llu}}",
                 first ? "" : ",\n", s.name,
                 static_cast<int>(std::string(s.name).find('.')), s.name, it->second,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                 static_cast<unsigned long long>(s.request));
    first = false;
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

}  // namespace perfbench
