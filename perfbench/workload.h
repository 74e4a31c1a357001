// The benchmark's workloads: seeded forests, closed-loop op streams and
// query generation. Everything here is a pure function of (workload,
// seed), so a run reproduces from its command line alone and the
// traced replay sees the same ops as the measured run.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "core/forest_index.h"
#include "core/pqgram_index.h"
#include "tree/tree.h"

namespace perfbench {

using pqidx::PqGramIndex;
using pqidx::TreeId;

enum class OpKind : uint8_t { kLookup = 0, kTopK = 1, kEdit = 2 };
inline constexpr int kOpKinds = 3;
const char* OpKindName(OpKind kind);

struct WorkloadSpec {
  std::string name;
  int num_trees = 0;
  // Closed-loop connections, one client thread each; fixed per workload.
  int clients = 0;
  // Op mix (fractions summing to 1).
  double lookup = 0;
  double topk = 0;
  double edit = 0;
  // Size of the finite query pool, drawn zipfian (pool_theta); 0 makes
  // every query unique (a fresh perturbation of a uniformly chosen
  // tree).
  int query_pool = 0;
  double pool_theta = 0.99;
  // Skew of each client's edits over the trees it owns.
  double edit_theta = 0.99;
  int tree_records = 6;  // DBLP-like records per seeded tree
  int max_script_ops = 3;  // edit ops per ApplyEdits request: 1..max
  std::vector<double> taus{0.2, 0.5, 0.8};
  int topk_k = 10;
};

// The workload named `name`, or null.
const WorkloadSpec* FindWorkload(std::string_view name);
std::vector<std::string> WorkloadNames();

// The pq-gram shape every workload indexes with.
pqidx::PqShape BenchShape();

// One request of a client's stream. For lookups and top-k, `target` is
// a pool index (pooled workloads) or the query's base tree; for edits
// it is the edited tree, owned by the issuing client.
struct Op {
  OpKind kind = OpKind::kLookup;
  int32_t target = 0;
  uint8_t tau_index = 0;
  uint64_t seed = 0;  // query perturbation or edit-script randomness
};

// The trees client `client` owns and alone edits: [*begin, *end).
void OwnedRange(const WorkloadSpec& spec, int client, TreeId* begin,
                TreeId* end);

// Client `client`'s endless op stream, generated on demand. Two
// streams built from the same (spec, seed, client) yield the same ops.
class OpStream {
 public:
  OpStream(const WorkloadSpec& spec, uint64_t seed, int client);
  Op Next();

 private:
  const WorkloadSpec* spec_;
  pqidx::Rng rng_;
  TreeId own_begin_ = 0;
  TreeId own_end_ = 0;
};

// Tree `id` of the seeded forest, with its own label dictionary.
pqidx::Tree MakeTree(const WorkloadSpec& spec, uint64_t seed, TreeId id);

// A query near `base`: one or two seeded foreign tuples added and, half
// of the time, one existing occurrence removed.
PqGramIndex PerturbQuery(const PqGramIndex& base, uint64_t seed);

// The finite query pool of a pooled workload, built from the seeded
// bags: pool entry i perturbs a zipfian-chosen tree.
std::vector<PqGramIndex> MakeQueryPool(const WorkloadSpec& spec,
                                       uint64_t seed,
                                       const std::vector<PqGramIndex>& bags);

// The query a lookup or top-k op sends: its pool entry, or a
// perturbation of its base tree's seeded bag built into `scratch`.
const PqGramIndex& QueryFor(const WorkloadSpec& spec, const Op& op,
                            const std::vector<PqGramIndex>& pool,
                            const std::vector<PqGramIndex>& bags,
                            PqGramIndex* scratch);

// Operations in the edit script of an edit op (1..max_script_ops).
int ScriptOps(const WorkloadSpec& spec, const Op& op);

// A 64-bit mix of (seed, salt, lane) for independent random streams.
uint64_t MixSeed(uint64_t seed, uint64_t salt, uint64_t lane);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
