// In-memory span recorder for the end-to-end fit benchmark.
//
// Spans are recorded from the benchmark's own code around calls into the
// library's public API (outside-in); nothing inside src/ is instrumented.
// Each span carries a name, start and end (steady clock, nanoseconds from
// the recorder's origin), the id of the span that caused it and the id of
// the fit it belongs to. Spans stay in memory until WriteChromeTrace()
// emits them as Chrome trace-event JSON ("X" complete events), which
// Perfetto and chrome://tracing load directly.

#ifndef RHCHME_E2EBENCH_TRACE_H_
#define RHCHME_E2EBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace e2ebench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  int id = 0;
  int parent = -1;  ///< -1 for a root span.
  int fit_id = 0;   ///< Spans of one fit (or one probe group) share this.
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  double Seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// Opens a span whose parent is the innermost open span; returns its id.
  int Begin(const std::string& name, int fit_id);
  /// Closes span `id`, which must be the innermost open span.
  void End(int id);
  /// Records a span measured elsewhere (e.g. from iteration-callback
  /// timestamps) under an explicit parent.
  int Add(const std::string& name, int parent, int fit_id,
          Clock::time_point start, Clock::time_point end);

  const Span& Get(int id) const { return spans_[static_cast<std::size_t>(id)]; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as Chrome trace-event JSON. `context` is a list of
  /// (key, already-JSON-encoded value) pairs stored under "otherData".
  bool WriteChromeTrace(
      const std::string& path,
      const std::vector<std::pair<std::string, std::string>>& context) const;

 private:
  int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: Begin on construction, End on destruction. A null tracer
/// records nothing, so untraced runs share the same code path.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int fit_id)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, fit_id) : -1) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// Minimal JSON string escaping for names and context values.
std::string JsonString(const std::string& s);

}  // namespace e2ebench

#endif  // RHCHME_E2EBENCH_TRACE_H_
