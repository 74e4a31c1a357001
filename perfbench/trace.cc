#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "util.h"

namespace perfbench {

int32_t SpanBuffer::Begin(std::string_view name, uint64_t op_id) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.op_id = op_id;
  span.start_ns = NowNs();
  spans_.push_back(span);
  const int32_t index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanBuffer::End(int32_t index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  // ScopedSpan closes innermost-first, so `index` is the top.
  open_.pop_back();
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    const Span& parent = spans[static_cast<size_t>(span.parent)];
    const int64_t start = std::max(span.start_ns, parent.start_ns);
    const int64_t end = std::min(span.end_ns, parent.end_ns);
    if (end > start) {
      children[static_cast<size_t>(span.parent)].emplace_back(start, end);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t run_start = 0;
    int64_t run_end = 0;
    bool in_run = false;
    for (const auto& [start, end] : kids) {
      if (in_run && start <= run_end) {
        run_end = std::max(run_end, end);
        continue;
      }
      if (in_run) covered += run_end - run_start;
      run_start = start;
      run_end = end;
      in_run = true;
    }
    if (in_run) covered += run_end - run_start;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

std::map<std::string, SpanStats> SummarizeSpans(
    const std::vector<const std::vector<Span>*>& buffers) {
  std::map<std::string, SpanStats> out;
  for (const std::vector<Span>* spans : buffers) {
    const std::vector<int64_t> self = SelfTimes(*spans);
    for (size_t i = 0; i < spans->size(); ++i) {
      const Span& span = (*spans)[i];
      SpanStats& stats = out[std::string(span.name)];
      ++stats.count;
      stats.self_ns += self[i];
      stats.durations_ns.push_back(span.end_ns - span.start_ns);
    }
  }
  return out;
}

bool WriteSpans(const std::string& path,
                const std::vector<const std::vector<Span>*>& buffers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "buffer\top_id\tname\tstart_ns\tend_ns\tparent\tself_ns\n");
  for (size_t b = 0; b < buffers.size(); ++b) {
    const std::vector<Span>& spans = *buffers[b];
    const std::vector<int64_t> self = SelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%zu\t%llu\t%.*s\t%lld\t%lld\t%d\t%lld\n", b,
                   static_cast<unsigned long long>(s.op_id),
                   static_cast<int>(s.name.size()), s.name.data(),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<long long>(self[i]));
    }
  }
  return std::fclose(f) == 0;
}

RegistryDelta::RegistryDelta(const pqidx::MetricsSnapshot& before,
                             const pqidx::MetricsSnapshot& after) {
  using Kind = pqidx::MetricSample::Kind;
  auto add = [this](const pqidx::MetricsSnapshot& snapshot, int64_t sign) {
    for (const pqidx::MetricSample& s : snapshot.samples) {
      if (s.kind == Kind::kCounter) {
        cells_[s.name].count += sign * s.value;
      } else if (s.kind == Kind::kHistogram) {
        cells_[s.name].count += sign * s.count;
        cells_[s.name].sum += sign * s.sum;
      }
    }
  };
  add(after, 1);
  add(before, -1);
}

int64_t RegistryDelta::Count(std::string_view name) const {
  auto it = cells_.find(name);
  return it == cells_.end() ? 0 : it->second.count;
}

int64_t RegistryDelta::Sum(std::string_view name) const {
  auto it = cells_.find(name);
  return it == cells_.end() ? 0 : it->second.sum;
}

double RegistryDelta::Mean(std::string_view name) const {
  const int64_t count = Count(name);
  return count == 0 ? 0 : static_cast<double>(Sum(name)) / count;
}

double RegistryDelta::Ratio(std::string_view numerator,
                            std::string_view denominator) const {
  const int64_t den = Count(denominator);
  return den == 0 ? 0 : static_cast<double>(Count(numerator)) / den;
}

}  // namespace perfbench
