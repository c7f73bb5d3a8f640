#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

// In-memory span recorder of the traced runs. Each span carries its name,
// wall start/end, CPU start/end (thread or process clock), its parent and
// the id of the request it belongs to. Spans stay in memory until the run
// ends, then export as Chrome trace JSON (Perfetto opens it) and as
// per-name self times: a span's duration minus what its children cover.
// (The program's own Tracer, util/trace.h, keeps neither parents, request
// ids nor CPU time, and drops events from a bounded ring.)

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

uint64_t WallNs();
uint64_t ThreadCpuNs();
uint64_t ProcessCpuNs();

struct Span {
  const char* name = nullptr;  ///< literal
  uint64_t request = 0;
  int64_t parent = -1;         ///< index into the recorder, -1 = root
  uint64_t wall_start = 0, wall_end = 0;
  uint64_t cpu_start = 0, cpu_end = 0;
};

struct SelfTime {
  uint64_t calls = 0;
  uint64_t wall_ns = 0;  ///< self wall time, summed
  uint64_t cpu_ns = 0;   ///< self CPU time, summed
};

class SpanRecorder {
 public:
  /// `process_cpu`: read the process CPU clock instead of the thread's,
  /// for spans around calls that fan out to a worker pool.
  explicit SpanRecorder(bool process_cpu) : process_cpu_(process_cpu) {}

  /// RAII span; a null recorder records nothing.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    int64_t index_ = -1;
    int64_t saved_parent_ = -1;
  };

  void set_request(uint64_t request) { request_ = request; }

  /// Self time per span name, over the spans of the requests `keep`
  /// accepts (all when empty).
  std::map<std::string, SelfTime> SelfTimes(
      const std::function<bool(uint64_t request)>& keep = {}) const;

  /// Writes the first `max_spans` spans as Chrome trace JSON.
  bool WriteChromeTrace(const std::string& path, size_t max_spans) const;

  size_t size() const { return spans_.size(); }

 private:
  uint64_t Cpu() const { return process_cpu_ ? ProcessCpuNs() : ThreadCpuNs(); }

  bool process_cpu_;
  std::vector<Span> spans_;
  int64_t current_ = -1;
  uint64_t request_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
