#include "spans.h"

#include <time.h>

#include <cstdio>

namespace perfbench {

namespace {

uint64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

}  // namespace

uint64_t WallNs() { return ClockNs(CLOCK_MONOTONIC); }
uint64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }
uint64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

SpanRecorder::Scope::Scope(SpanRecorder* recorder, const char* name)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  Span span;
  span.name = name;
  span.request = recorder_->request_;
  span.parent = recorder_->current_;
  index_ = static_cast<int64_t>(recorder_->spans_.size());
  saved_parent_ = recorder_->current_;
  recorder_->current_ = index_;
  recorder_->spans_.push_back(span);
  // Clocks last, so the bookkeeping above is not inside the span.
  recorder_->spans_.back().cpu_start = recorder_->Cpu();
  recorder_->spans_.back().wall_start = WallNs();
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) return;
  const uint64_t wall = WallNs();
  const uint64_t cpu = recorder_->Cpu();
  Span& span = recorder_->spans_[static_cast<size_t>(index_)];
  span.wall_end = wall;
  span.cpu_end = cpu;
  recorder_->current_ = saved_parent_;
}

std::map<std::string, SelfTime> SpanRecorder::SelfTimes(
    const std::function<bool(uint64_t request)>& keep) const {
  std::vector<uint64_t> child_wall(spans_.size(), 0), child_cpu(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    child_wall[static_cast<size_t>(s.parent)] += s.wall_end - s.wall_start;
    child_cpu[static_cast<size_t>(s.parent)] += s.cpu_end - s.cpu_start;
  }
  std::map<std::string, SelfTime> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (keep && !keep(s.request)) continue;
    SelfTime& t = out[s.name];
    ++t.calls;
    const uint64_t wall = s.wall_end - s.wall_start;
    const uint64_t cpu = s.cpu_end - s.cpu_start;
    // Clock granularity can make the children's sum exceed the parent.
    t.wall_ns += wall > child_wall[i] ? wall - child_wall[i] : 0;
    t.cpu_ns += cpu > child_cpu[i] ? cpu - child_cpu[i] : 0;
  }
  return out;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path,
                                    size_t max_spans) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  const size_t n = spans_.size() < max_spans ? spans_.size() : max_spans;
  const uint64_t origin = n > 0 ? spans_[0].wall_start : 0;
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                 "\"span\":%zu,\"parent\":%lld,\"cpu_us\":%.3f}}\n",
                 i == 0 ? "" : ",", s.name,
                 static_cast<double>(s.wall_start - origin) / 1000.0,
                 static_cast<double>(s.wall_end - s.wall_start) / 1000.0,
                 static_cast<unsigned long long>(s.request), i,
                 static_cast<long long>(s.parent),
                 static_cast<double>(s.cpu_end - s.cpu_start) / 1000.0);
  }
  std::fprintf(f, "],\"otherData\":{\"spans_recorded\":%zu,\"spans_written\":%zu}}\n",
               spans_.size(), n);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
