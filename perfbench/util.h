// Small process-level helpers for the benchmark: clocks, CPU time,
// resident memory, directory sizes and exact sample quantiles.

#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Monotonic clock in nanoseconds.
int64_t NowNs();

// User + system CPU time of the whole process, in nanoseconds.
int64_t ProcessCpuNs();

// Resident set size in bytes, read after returning free heap pages to
// the kernel so that readings track live memory rather than allocator
// slack.
int64_t ResidentBytes();

// Total bytes of the regular files under directory `path` (0 when it
// is missing).
int64_t DirectoryBytes(const std::string& path);

// Exact nearest-rank quantile (q in [0, 1]) of `samples`; sorts them.
// 0 for an empty vector.
double Quantile(std::vector<int64_t>* samples, double q);

// Arithmetic mean (0 for an empty vector).
double Mean(const std::vector<int64_t>& samples);

// Median of a small set of doubles (the mean of the middle two for an
// even count); 0 when empty.
double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
