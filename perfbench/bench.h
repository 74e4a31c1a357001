// One benchmark run: an in-process pqidx Server over loopback TCP, fed
// by closed-loop clients (one request in flight per connection), with
// the differential oracle checking served answers at every quiesce
// point.
//
// Phases, in order (only the windows are timed per op):
//   inputs   seeded trees, bags, query pool and the oracle mirror;
//   setup    empty directory -> ShardedStore::BulkAdd -> Server::Start
//            -> first oracle-checked lookup (repeated; median reported);
//   window   the closed loop, split into rounds; each round ends at a
//            quiesce point where the oracle rebuilds every edited tree's
//            mirror bag from scratch and compares served answers;
//   restart  stop -> ShardedStore::Open -> Server::Start -> first
//            oracle-checked lookup, timed;
//   verify   the reopened store's forest must equal the mirror bag for
//            bag, which checks incremental maintenance end to end.
//
// The traced run (--trace 1) adds a traced live window with spans
// around every call into a layer, registry deltas over it, and a
// single-threaded replay of the same op streams straight through the
// layers' public functions (replay.cc).

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/forest_index.h"
#include "service/client.h"
#include "service/server.h"
#include "storage/sharded_store.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

// The snapshot shard count a Server with default options compiles
// (ServerOptions::lookup_shards 0 with no lookup threads).
inline constexpr int kServerSnapshotShards = 16;

// Named metric values in the order they were set.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  // Prints "name value unit" lines, then returns the JSON object body
  // {"name": {"value": v, "unit": "u"}, ...}.
  std::string Print(std::FILE* out) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // scratch directory for stores and traces
};

class Bench {
 public:
  Bench(const WorkloadSpec& spec, RunOptions options);
  ~Bench();

  // Runs every phase and fills `metrics` (end-to-end metrics untraced,
  // per-layer metrics traced). Returns the first failure: a failed
  // setup step or any oracle divergence.
  pqidx::Status Run(MetricSet* metrics);

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  int64_t comparisons() const { return comparisons_; }

 private:
  struct Sample;
  struct ClientState;
  struct WindowResult;
  struct FirstCheck {
    PqGramIndex query;
    double tau = 0;
    std::vector<pqidx::LookupResult> expected;
  };

  void BuildInputs();
  FirstCheck MakeFirstCheck() const;

  // setup / restart / teardown of the served store.
  pqidx::Status Setup(const std::string& dir, const FirstCheck& check,
                      double* seconds);
  pqidx::Status Restart(const FirstCheck& check, double* seconds);
  pqidx::Status StartServer();
  pqidx::Status CheckFirstLookup(const FirstCheck& check);
  void StopServer();
  pqidx::Status ConnectClients();

  // The closed loop.
  pqidx::Status RunWindow(double seconds, int rounds, bool traced,
                          WindowResult* result);
  void ClientLoop(ClientState* state, int64_t deadline_ns, bool traced,
                  bool sample);
  pqidx::Status Quiesce(uint64_t check_seed);
  pqidx::Status CompareServed(const PqGramIndex& query,
                              const std::string& what);
  // Stops the server, checks the store's forest against the mirror and
  // counts the posting entries; with `build_s`, also times a snapshot
  // build of that forest.
  pqidx::Status VerifyStore(double* materialize_s, double* build_s,
                            int64_t* posting_entries);

  // Traced-run helpers.
  pqidx::Status MeasurePing(std::vector<int64_t>* ping_ns);
  pqidx::Status Replay(double budget_s, std::map<std::string, double>* out);

  pqidx::Status Diverged(const std::string& what) const;
  // Prints the wall time since the previous call as "# phase NAME S".
  void Phase(const char* name);

  const WorkloadSpec& spec_;
  const RunOptions options_;
  const pqidx::PqShape shape_;

  // Inputs (built before any memory reading).
  std::vector<PqGramIndex> seed_bags_;
  std::vector<PqGramIndex> pool_;
  pqidx::ForestIndex mirror_;
  std::vector<std::unique_ptr<ClientState>> clients_;

  // The served system.
  std::string store_dir_;
  std::unique_ptr<pqidx::ShardedStore> store_;
  std::unique_ptr<pqidx::Server> server_;
  int port_ = 0;
  std::unique_ptr<pqidx::Client> oracle_client_;

  // Per-layer spans outside the windows (setup, restart, replay).
  SpanBuffer phase_spans_;
  SpanBuffer replay_spans_;

  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t comparisons_ = 0;
  uint64_t next_check_ = 1;
  int64_t phase_start_ns_ = 0;
  // Requests completed by every client so far (sampled per interval).
  std::atomic<int64_t> completed_ops_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
