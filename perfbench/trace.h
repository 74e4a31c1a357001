// Benchmark-side tracing: in-memory spans recorded around calls into
// the program's layers, span self times, and deltas of the program's own
// metrics registry (the kStatsSnapshot payload).
//
// Spans never touch the program: the benchmark opens one before it
// calls into a layer and closes it when the call returns. A span's
// self time is its duration minus the part of it that its direct
// children cover (overlapping children are merged first, and children
// are clipped to the parent's interval).

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"

namespace perfbench {

struct Span {
  std::string_view name;  // a string literal; outlives the trace
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index in the same buffer, -1 for a root
  uint64_t op_id = 0;   // shared by every span of one benchmark op
};

// One thread's spans, in the order they were opened. Not thread-safe:
// each client thread (and the replay) owns its own buffer.
class SpanBuffer {
 public:
  explicit SpanBuffer(bool enabled = true) : enabled_(enabled) {}

  // Opens a span under the innermost open span and returns its index
  // (-1 when tracing is off).
  int32_t Begin(std::string_view name, uint64_t op_id);
  // Closes span `index`, which must be the innermost open one (a no-op
  // for -1).
  void End(int32_t index);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, std::string_view name, uint64_t op_id)
      : buffer_(buffer), index_(buffer->Begin(name, op_id)) {}
  ~ScopedSpan() { buffer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer* buffer_;
  int32_t index_;
};

// Self time of every span in `spans` (same indexing), in nanoseconds.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

// Per-name aggregate over one or more span buffers.
struct SpanStats {
  int64_t count = 0;
  int64_t self_ns = 0;                // summed self time
  std::vector<int64_t> durations_ns;  // one per span, for quantiles
};
std::map<std::string, SpanStats> SummarizeSpans(
    const std::vector<const std::vector<Span>*>& buffers);

// Writes every span as one tab-separated line: buffer, op id, name,
// start and end (steady-clock ns), parent index, self time.
bool WriteSpans(const std::string& path,
                const std::vector<const std::vector<Span>*>& buffers);

// The change of the program's metrics registry between two snapshots:
// counters and histogram counts/sums, differenced. Names missing from a
// snapshot count as zero; gauges are not differenced and read as zero.
class RegistryDelta {
 public:
  RegistryDelta(const pqidx::MetricsSnapshot& before,
                const pqidx::MetricsSnapshot& after);

  // Counter delta, or the histogram's sample-count delta.
  int64_t Count(std::string_view name) const;
  // Histogram value-sum delta (0 for counters and gauges).
  int64_t Sum(std::string_view name) const;
  // Exact histogram mean over the interval: Sum / Count (0 when empty).
  double Mean(std::string_view name) const;
  // Count(numerator) / Count(denominator), 0 when the denominator is 0.
  double Ratio(std::string_view numerator,
               std::string_view denominator) const;

 private:
  struct Cell {
    int64_t count = 0;
    int64_t sum = 0;
  };
  std::map<std::string, Cell, std::less<>> cells_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
