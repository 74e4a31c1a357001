#include "workload.h"

#include <algorithm>
#include <memory>

#include "tree/generators.h"
#include "tree/label_dict.h"

namespace perfbench {

namespace {

constexpr uint64_t kTreeSalt = 0xbf58476d1ce4e5b9ULL;
constexpr uint64_t kStreamSalt = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t kQuerySalt = 0x94d049bb133111ebULL;
constexpr uint64_t kPoolSalt = 0xd6e8feb86659fd93ULL;

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> out;
  WorkloadSpec hot;
  hot.name = "read_hot";
  hot.num_trees = 1000;
  hot.clients = 2;
  hot.lookup = 0.80;
  hot.topk = 0.15;
  hot.edit = 0.05;
  hot.query_pool = 512;
  out.push_back(hot);

  WorkloadSpec cold;
  cold.name = "read_cold";
  cold.num_trees = 5000;
  cold.clients = 2;
  cold.lookup = 0.80;
  cold.topk = 0.20;
  cold.edit = 0;
  out.push_back(cold);

  WorkloadSpec churn;
  churn.name = "write_churn";
  churn.num_trees = 1000;
  churn.clients = 4;
  churn.lookup = 0.10;
  churn.topk = 0.10;
  churn.edit = 0.80;
  out.push_back(churn);
  return out;
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = MakeWorkloads();
  return workloads;
}

// The `rank`-th smallest fingerprint of a non-empty bag (rank taken
// modulo the distinct count): content-ranked, so independent of the
// hash map's iteration order.
pqidx::PqGramFingerprint FingerprintByRank(const PqGramIndex& bag,
                                           uint64_t rank) {
  std::vector<pqidx::PqGramFingerprint> fps;
  fps.reserve(static_cast<size_t>(bag.distinct()));
  for (const auto& [fp, count] : bag.counts()) fps.push_back(fp);
  const size_t nth = static_cast<size_t>(rank % fps.size());
  std::nth_element(fps.begin(), fps.begin() + static_cast<ptrdiff_t>(nth),
                   fps.end());
  return fps[nth];
}

}  // namespace

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kLookup:
      return "lookup";
    case OpKind::kTopK:
      return "topk";
    case OpKind::kEdit:
      return "edit";
  }
  return "?";
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : Workloads()) names.push_back(spec.name);
  return names;
}

pqidx::PqShape BenchShape() { return pqidx::PqShape{2, 3}; }

uint64_t MixSeed(uint64_t seed, uint64_t salt, uint64_t lane) {
  uint64_t x = seed ^ salt ^ (lane * 0x9e3779b97f4a7c15ULL);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

void OwnedRange(const WorkloadSpec& spec, int client, TreeId* begin,
                TreeId* end) {
  const int64_t n = spec.num_trees;
  const int64_t c = spec.clients;
  *begin = static_cast<TreeId>(client * n / c);
  *end = static_cast<TreeId>((client + 1) * n / c);
}

OpStream::OpStream(const WorkloadSpec& spec, uint64_t seed, int client)
    : spec_(&spec),
      rng_(MixSeed(seed, kStreamSalt, static_cast<uint64_t>(client))) {
  OwnedRange(spec, client, &own_begin_, &own_end_);
}

Op OpStream::Next() {
  const WorkloadSpec& spec = *spec_;
  Op op;
  const double roll = rng_.NextDouble();
  op.kind = roll < spec.lookup               ? OpKind::kLookup
            : roll < spec.lookup + spec.topk ? OpKind::kTopK
                                             : OpKind::kEdit;
  if (op.kind == OpKind::kEdit) {
    op.target = own_begin_ + static_cast<TreeId>(rng_.Zipf(
                                 own_end_ - own_begin_, spec.edit_theta));
  } else if (spec.query_pool > 0) {
    op.target = rng_.Zipf(spec.query_pool, spec.pool_theta);
  } else {
    op.target = static_cast<int32_t>(
        rng_.NextBounded(static_cast<uint64_t>(spec.num_trees)));
  }
  op.tau_index = static_cast<uint8_t>(rng_.NextBounded(spec.taus.size()));
  op.seed = rng_.Next();
  return op;
}

pqidx::Tree MakeTree(const WorkloadSpec& spec, uint64_t seed, TreeId id) {
  pqidx::Rng rng(MixSeed(seed, kTreeSalt, static_cast<uint64_t>(id)));
  return pqidx::GenerateDblpLike(std::make_shared<pqidx::LabelDict>(), &rng,
                                 spec.tree_records);
}

PqGramIndex PerturbQuery(const PqGramIndex& base, uint64_t seed) {
  PqGramIndex query = base;
  pqidx::Rng rng(MixSeed(seed, kQuerySalt, 0));
  const int extra = 1 + static_cast<int>(rng.NextBounded(2));
  for (int i = 0; i < extra; ++i) {
    query.Add(static_cast<pqidx::PqGramFingerprint>(rng.Next()), 1);
  }
  if (!query.empty() && rng.Bernoulli(0.5)) {
    query.Remove(FingerprintByRank(query, rng.Next()), 1);
  }
  return query;
}

std::vector<PqGramIndex> MakeQueryPool(const WorkloadSpec& spec,
                                       uint64_t seed,
                                       const std::vector<PqGramIndex>& bags) {
  std::vector<PqGramIndex> pool;
  if (spec.query_pool == 0) return pool;
  pqidx::Rng rng(MixSeed(seed, kPoolSalt, 0));
  pool.reserve(static_cast<size_t>(spec.query_pool));
  for (int i = 0; i < spec.query_pool; ++i) {
    const int base = rng.Zipf(spec.num_trees, 0.99);
    pool.push_back(PerturbQuery(bags[static_cast<size_t>(base)], rng.Next()));
  }
  return pool;
}

const PqGramIndex& QueryFor(const WorkloadSpec& spec, const Op& op,
                            const std::vector<PqGramIndex>& pool,
                            const std::vector<PqGramIndex>& bags,
                            PqGramIndex* scratch) {
  if (spec.query_pool > 0) return pool[static_cast<size_t>(op.target)];
  *scratch = PerturbQuery(bags[static_cast<size_t>(op.target)], op.seed);
  return *scratch;
}

int ScriptOps(const WorkloadSpec& spec, const Op& op) {
  return 1 + static_cast<int>(op.seed % static_cast<uint64_t>(
                                            spec.max_script_ops));
}

}  // namespace perfbench
