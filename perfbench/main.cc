// perfbench: the pqidx service benchmark. See README.md.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR]
//
// Prints one "name value unit" line per metric, then, as the last line
// of standard output, one JSON object:
//   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
// Exits nonzero without that line on any failure, oracle divergences
// included.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "bench.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR]\nworkloads:",
               message);
  for (const std::string& name : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  options.work_dir = ".bench_build/perfbench-work";
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return Usage("missing flag value");
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage("bad --seed");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(options.seconds > 0)) {
        return Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (std::string_view(value) != "0" && std::string_view(value) != "1") {
        return Usage("--trace takes 0 or 1");
      }
      options.trace = std::string_view(value) == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage("unknown flag");
    }
  }
  const perfbench::WorkloadSpec* spec =
      perfbench::FindWorkload(options.workload);
  if (spec == nullptr) return Usage("unknown or missing --workload");

  std::fprintf(stdout,
               "# workload %s seed %" PRIu64 " seconds %.3g trace %d: "
               "%d trees, %d connections, mix %.0f/%.0f/%.0f "
               "lookup/topk/edit, %s queries\n",
               spec->name.c_str(), options.seed, options.seconds,
               options.trace ? 1 : 0, spec->num_trees, spec->clients,
               spec->lookup * 100, spec->topk * 100, spec->edit * 100,
               spec->query_pool > 0 ? "pooled zipfian" : "unique");
  perfbench::Bench bench(*spec, options);
  perfbench::MetricSet metrics;
  const pqidx::Status status = bench.Run(&metrics);
  if (!status.ok()) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
    return 1;
  }
  const std::string json = metrics.Print(stdout);
  std::fprintf(stdout,
               "# oracle comparisons %" PRId64 ", failed_frac %.6f\n",
               bench.comparisons(),
               bench.attempted() > 0
                   ? static_cast<double>(bench.failed()) / bench.attempted()
                   : 0.0);
  if (bench.comparisons() == 0) {
    std::fprintf(stderr, "perfbench: the oracle made no comparison\n");
    return 1;
  }
  std::fprintf(stdout,
               "{\"correct\": true, \"attempted\": %" PRId64
               ", \"failed\": %" PRId64 ", \"metrics\": %s}\n",
               bench.attempted(), bench.failed(), json.c_str());
  return 0;
}
