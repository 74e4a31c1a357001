#include "core/lookup_engine.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <iterator>
#include <limits>
#include <string>
#include <utility>

#include "common/metrics.h"
#include "core/simd_intersect.h"

namespace pqidx {
namespace {

// The SIMD kernels read the arena as interleaved int32 pairs.
static_assert(sizeof(PqGramFingerprint) == sizeof(uint64_t),
              "galloping search assumes 64-bit fingerprints");

// Shard uids are minted here and never reused, so a QueryCache entry
// keyed by a uid can only ever match the exact frozen arena it was
// computed from (no ABA across snapshot epochs).
std::atomic<uint64_t> g_next_shard_uid{1};

// The pq-gram distance formula, exactly as PqGramDistance computes it:
// lookup results must be bit-identical to the scanning baseline, so the
// engine never deviates from this double arithmetic.
inline double BagDistance(int64_t shared, int64_t union_size) {
  return union_size == 0
             ? 0.0
             : 1.0 - 2.0 * static_cast<double>(shared) /
                         static_cast<double>(union_size);
}

// Smallest integer overlap for which BagDistance(overlap, u) <= tau,
// for tau < 1 and u > 0. Derived from shared >= (1-tau)*u/2 but settled
// with the actual double predicate: BagDistance is monotone nonincreasing
// in `shared`, so walking up from slightly below the algebraic bound
// finds the exact floating-point threshold and the count filter can never
// disagree with the final test.
int64_t MinQualifyingOverlap(double tau, int64_t u) {
  // Distances are never negative, so no overlap qualifies for tau < 0
  // (or NaN). Without this guard a hostile tau would overflow the cast
  // below (-1e308 -> need > int64) or spin the walk forever (-inf).
  if (!(tau >= 0.0)) return std::numeric_limits<int64_t>::max();
  // From here tau >= 0, so need <= u/2 and the cast cannot overflow.
  double need = (1.0 - tau) * 0.5 * static_cast<double>(u);
  int64_t shared = static_cast<int64_t>(need) - 2;
  if (shared < 0) shared = 0;
  while (BagDistance(shared, u) > tau) ++shared;
  return shared;
}

// "a ranks before b": the comparator of every lookup result ordering.
inline bool RanksBefore(const LookupResult& a, const LookupResult& b) {
  return a.distance < b.distance ||
         (a.distance == b.distance && a.tree_id < b.tree_id);
}

// Folds one query's work accounting into the "lookup_engine.*" registry
// cells and records its latency.
void RecordQueryMetrics(const LookupEngineStats& stats, int64_t start_us) {
  static Counter* const m_queries =
      Metrics::Default().counter("lookup_engine.queries");
  static Counter* const m_candidates =
      Metrics::Default().counter("lookup_engine.candidates");
  static Counter* const m_pruned =
      Metrics::Default().counter("lookup_engine.candidates_pruned");
  static Counter* const m_scored =
      Metrics::Default().counter("lookup_engine.candidates_scored");
  static Counter* const m_postings =
      Metrics::Default().counter("lookup_engine.postings_scanned");
  static Histogram* const m_query_us =
      Metrics::Default().histogram("lookup_engine.query_us");
  m_queries->Increment();
  m_candidates->Add(stats.candidates);
  m_pruned->Add(stats.pruned);
  m_scored->Add(stats.scored);
  m_postings->Add(stats.postings_scanned);
  if (Metrics::enabled()) {
    m_query_us->Record(Metrics::NowUs() - start_us);
  }
}

uint64_t MixFingerprint(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

std::shared_ptr<const LookupEngine> LookupEngine::Build(
    const ForestIndex& forest, int num_shards) {
  std::vector<TreeId> ids = forest.TreeIds();  // ascending
  std::vector<int64_t> sizes;
  sizes.reserve(ids.size());
  std::vector<RawPosting> raw;
  for (size_t slot = 0; slot < ids.size(); ++slot) {
    const PqGramIndex* bag = forest.Find(ids[slot]);
    sizes.push_back(bag->size());
    for (const auto& [fp, count] : bag->counts()) {
      raw.push_back({fp, static_cast<int32_t>(slot), count});
    }
  }
  return Compile(forest.shape(), ids, sizes, std::move(raw), num_shards);
}

std::shared_ptr<const LookupEngine> LookupEngine::Build(
    const InvertedForestIndex& inverted, int num_shards) {
  std::vector<std::pair<TreeId, int64_t>> trees(
      inverted.tree_sizes().begin(), inverted.tree_sizes().end());
  std::sort(trees.begin(), trees.end());
  std::vector<TreeId> ids;
  std::vector<int64_t> sizes;
  ids.reserve(trees.size());
  sizes.reserve(trees.size());
  std::unordered_map<TreeId, int32_t> slot_of;
  slot_of.reserve(trees.size());
  for (const auto& [id, size] : trees) {
    slot_of.emplace(id, static_cast<int32_t>(ids.size()));
    ids.push_back(id);
    sizes.push_back(size);
  }
  std::vector<RawPosting> raw;
  raw.reserve(static_cast<size_t>(inverted.posting_entries()));
  for (const auto& [fp, list] : inverted.postings()) {
    for (const InvertedForestIndex::Posting& posting : list) {
      raw.push_back({fp, slot_of.at(posting.tree_id), posting.count});
    }
  }
  return Compile(inverted.shape(), ids, sizes, std::move(raw), num_shards);
}

void LookupEngine::FreezeShard(Shard* shard, std::vector<RawPosting> part) {
  std::sort(part.begin(), part.end(),
            [](const RawPosting& a, const RawPosting& b) {
              return a.fp < b.fp || (a.fp == b.fp && a.slot < b.slot);
            });
  shard->entries.reserve(part.size());
  for (const RawPosting& p : part) {
    AppendPosting(shard, p.fp, p.slot, p.count);
  }
  FinishArena(shard);
}

void LookupEngine::AppendPosting(Shard* shard, PqGramFingerprint fp,
                                 int32_t slot, int64_t count) {
  PQIDX_CHECK_MSG(count > 0, "nonpositive posting count");
  PQIDX_CHECK_MSG(shard->entries.size() < UINT32_MAX,
                  "shard posting arena exceeds 32-bit offsets");
  const uint32_t index = static_cast<uint32_t>(shard->entries.size());
  if (shard->fps.empty() || shard->fps.back() != fp) {
    shard->fps.push_back(fp);
    shard->offsets.push_back(index);
  }
  // Counts beyond int32 are legitimate (accumulated edit deltas) but
  // rare; spill them to the side map rather than abort a build that
  // may be publishing a live server's next snapshot.
  if (count <= INT32_MAX) {
    shard->entries.push_back({slot, static_cast<int32_t>(count)});
  } else {
    shard->wide_counts.emplace(index, count);
    shard->entries.push_back({slot, kWideCount});
  }
}

void LookupEngine::FinishArena(Shard* shard) {
  shard->uid = g_next_shard_uid.fetch_add(1, std::memory_order_relaxed);
  shard->offsets.push_back(static_cast<uint32_t>(shard->entries.size()));
}

std::shared_ptr<const LookupEngine> LookupEngine::Compile(
    const PqShape& shape, const std::vector<TreeId>& tree_ids,
    const std::vector<int64_t>& tree_sizes, std::vector<RawPosting> raw,
    int num_shards) {
  static Counter* const m_builds =
      Metrics::Default().counter("lookup_engine.builds");
  static Histogram* const m_build_us =
      Metrics::Default().histogram("lookup_engine.build_us");
  const int64_t start_us = Metrics::enabled() ? Metrics::NowUs() : 0;
  // Private constructor; the factory idiom owns the allocation directly.
  std::shared_ptr<LookupEngine> engine(new LookupEngine());
  engine->shape_ = shape;
  engine->target_shards_ = std::max(1, num_shards);
  const int n = static_cast<int>(tree_ids.size());
  engine->num_trees_ = n;
  int shard_count = std::clamp(num_shards, 1, std::max(1, n));
  engine->shards_.resize(static_cast<size_t>(shard_count));

  // Contiguous slot ranges per shard; slots follow ascending tree id.
  std::vector<int> shard_begin(static_cast<size_t>(shard_count) + 1);
  for (int s = 0; s <= shard_count; ++s) {
    shard_begin[s] = static_cast<int>(static_cast<int64_t>(s) * n /
                                      shard_count);
  }
  std::vector<std::shared_ptr<Shard>> shards(
      static_cast<size_t>(shard_count));
  std::vector<int32_t> slot_shard(static_cast<size_t>(n));
  for (int s = 0; s < shard_count; ++s) {
    shards[static_cast<size_t>(s)] = std::make_shared<Shard>();
    Shard& shard = *shards[static_cast<size_t>(s)];
    for (int slot = shard_begin[s]; slot < shard_begin[s + 1]; ++slot) {
      slot_shard[slot] = s;
      shard.tree_ids.push_back(tree_ids[static_cast<size_t>(slot)]);
      shard.tree_sizes.push_back(tree_sizes[static_cast<size_t>(slot)]);
    }
  }

  // Partition the postings by shard, rebase slots, and freeze each
  // shard's arena grouped by fingerprint (entries slot-ascending within
  // a group, for deterministic scans).
  std::vector<std::vector<RawPosting>> shard_raw(
      static_cast<size_t>(shard_count));
  for (const RawPosting& p : raw) {
    int s = slot_shard[static_cast<size_t>(p.slot)];
    RawPosting local = p;
    local.slot = p.slot - shard_begin[s];
    shard_raw[static_cast<size_t>(s)].push_back(local);
  }
  raw.clear();
  raw.shrink_to_fit();
  for (int s = 0; s < shard_count; ++s) {
    std::vector<RawPosting>& part = shard_raw[static_cast<size_t>(s)];
    engine->posting_entries_ += static_cast<int64_t>(part.size());
    FreezeShard(shards[static_cast<size_t>(s)].get(), std::move(part));
    engine->shards_[static_cast<size_t>(s)] =
        std::move(shards[static_cast<size_t>(s)]);
  }
  m_builds->Increment();
  if (Metrics::enabled()) {
    m_build_us->Record(Metrics::NowUs() - start_us);
  }
  return engine;
}

std::shared_ptr<const LookupEngine> LookupEngine::ApplyDelta(
    const std::shared_ptr<const LookupEngine>& prev,
    const ForestIndex& forest, const std::vector<TreeId>& changed) {
  static Counter* const m_incremental =
      Metrics::Default().counter("lookup_engine.incremental_builds");
  static Counter* const m_reused =
      Metrics::Default().counter("lookup_engine.shards_reused");
  static Counter* const m_recompiled =
      Metrics::Default().counter("lookup_engine.shards_recompiled");
  static Histogram* const m_incremental_us =
      Metrics::Default().histogram("lookup_engine.incremental_us");
  PQIDX_CHECK_MSG(prev != nullptr, "ApplyDelta needs a previous snapshot");
  PQIDX_CHECK_MSG(prev->shape_ == forest.shape(),
                  "delta forest shape does not match the snapshot");
  if (changed.empty()) return prev;
  if (prev->num_trees_ == 0) {
    // No shard tree-id ranges exist yet to route the delta into.
    return Build(forest, prev->target_shards_);
  }
  const int64_t start_us = Metrics::enabled() ? Metrics::NowUs() : 0;
  const size_t shard_count = prev->shards_.size();

  // Route every changed id to the shard whose ascending tree-id range
  // (would) contain it. Ranges start contiguous (Build) and this routing
  // keeps them disjoint and ascending, so an id already in the snapshot
  // always routes to the shard that holds it.
  std::vector<std::vector<TreeId>> incoming(shard_count);
  for (TreeId id : changed) incoming[prev->OwningShard(id)].push_back(id);

  // Each shard's tree count after the delta: a routed id it holds that
  // the forest lacks is a removal, one it lacks that the forest holds an
  // insert.
  std::vector<int64_t> trees(shard_count);
  int64_t n = 0;
  for (size_t s = 0; s < shard_count; ++s) {
    std::vector<TreeId>& ids = incoming[s];
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    const std::vector<TreeId>& held = prev->shards_[s]->tree_ids;
    trees[s] = static_cast<int64_t>(held.size());
    for (TreeId id : ids) {
      trees[s] += (forest.Find(id) != nullptr ? 1 : 0) -
                  (std::binary_search(held.begin(), held.end(), id) ? 1 : 0);
    }
    n += trees[s];
  }
  const int64_t target = prev->target_shards_;
  const int64_t per = std::max<int64_t>(1, (n + target - 1) / target);

  // Group the surviving shards into runs that become new shards: an
  // emptied shard is dropped, and a shard joins the run before it while
  // their trees together fit in `per` (this is what keeps the shard
  // count near the target while ids come and go). A run of one untouched
  // shard is shared as is.
  struct Run {
    size_t begin;
    size_t end;
    int64_t trees;
    bool dirty;
  };
  std::vector<Run> runs;
  for (size_t s = 0; s < shard_count; ++s) {
    if (trees[s] == 0) continue;
    if (!runs.empty() && runs.back().trees + trees[s] <= per) {
      runs.back().end = s + 1;
      runs.back().trees += trees[s];
      runs.back().dirty = true;
    } else {
      runs.push_back({s, s + 1, trees[s], !incoming[s].empty()});
    }
  }

  std::shared_ptr<LookupEngine> engine(new LookupEngine());
  engine->shape_ = prev->shape_;
  engine->target_shards_ = prev->target_shards_;
  engine->num_trees_ = static_cast<int>(n);
  for (const Run& run : runs) {
    if (!run.dirty) {
      // Untouched: share the frozen arena with the previous epoch.
      engine->shards_.push_back(prev->shards_[run.begin]);
      m_reused->Increment();
      continue;
    }
    // An overgrown run is halved by slot range until every piece fits.
    int64_t pieces = 1;
    while ((run.trees + pieces - 1) / pieces > 2 * per) pieces *= 2;
    for (std::shared_ptr<const Shard>& shard :
         RewriteRun(*prev, run.begin, run.end, incoming, forest, pieces)) {
      engine->shards_.push_back(std::move(shard));
      m_recompiled->Increment();
    }
  }
  if (engine->shards_.empty()) {
    // Every tree left: the snapshot keeps one empty shard.
    auto shard = std::make_shared<Shard>();
    FinishArena(shard.get());
    engine->shards_.push_back(std::move(shard));
  }
  for (const std::shared_ptr<const Shard>& shard : engine->shards_) {
    engine->posting_entries_ += static_cast<int64_t>(shard->entries.size());
  }
  m_incremental->Increment();
  if (Metrics::enabled()) {
    m_incremental_us->Record(Metrics::NowUs() - start_us);
  }
  return engine;
}

std::vector<std::shared_ptr<const LookupEngine::Shard>>
LookupEngine::RewriteRun(const LookupEngine& prev, size_t begin, size_t end,
                         const std::vector<std::vector<TreeId>>& incoming,
                         const ForestIndex& forest, int64_t pieces) {
  // The run's new tree list: each source shard's held ids merged with
  // the changed ids routed to it. Routing keeps the per-shard ranges
  // ascending, so concatenating them keeps the list ascending.
  // remap[k][old slot] is the tree's new slot in the run, or -1 when it
  // changed or left (its old postings are skipped). The changed trees'
  // postings are read from the forest into `fresh`.
  std::vector<TreeId> ids;
  std::vector<int64_t> sizes;
  std::vector<std::vector<int32_t>> remap(end - begin);
  std::vector<RawPosting> fresh;
  size_t old_entries = 0;
  size_t old_fps = 0;
  for (size_t s = begin; s < end; ++s) {
    const Shard& old = *prev.shards_[s];
    const std::vector<TreeId>& in = incoming[s];
    std::vector<int32_t>& map = remap[s - begin];
    map.assign(old.tree_ids.size(), -1);
    old_entries += old.entries.size();
    old_fps += old.fps.size();
    size_t i = 0;
    size_t j = 0;
    while (i < old.tree_ids.size() || j < in.size()) {
      const int32_t slot = static_cast<int32_t>(ids.size());
      if (j == in.size() ||
          (i < old.tree_ids.size() && old.tree_ids[i] < in[j])) {
        map[i] = slot;
        ids.push_back(old.tree_ids[i]);
        sizes.push_back(old.tree_sizes[i]);
        ++i;
        continue;
      }
      const TreeId id = in[j++];
      if (i < old.tree_ids.size() && old.tree_ids[i] == id) ++i;
      const PqGramIndex* bag = forest.Find(id);
      if (bag == nullptr) continue;  // removed
      ids.push_back(id);
      sizes.push_back(bag->size());
      for (const auto& [fp, count] : bag->counts()) {
        fresh.push_back({fp, slot, count});
      }
    }
  }
  std::sort(fresh.begin(), fresh.end(),
            [](const RawPosting& a, const RawPosting& b) {
              return a.fp < b.fp || (a.fp == b.fp && a.slot < b.slot);
            });

  // Piece p owns run slots [cut[p], cut[p + 1]).
  const int64_t n = static_cast<int64_t>(ids.size());
  std::vector<int32_t> cut(static_cast<size_t>(pieces) + 1);
  std::vector<std::shared_ptr<Shard>> out(static_cast<size_t>(pieces));
  for (int64_t p = 0; p <= pieces; ++p) {
    cut[static_cast<size_t>(p)] = static_cast<int32_t>(p * n / pieces);
  }
  for (size_t p = 0; p < out.size(); ++p) {
    out[p] = std::make_shared<Shard>();
    out[p]->tree_ids.assign(ids.begin() + cut[p], ids.begin() + cut[p + 1]);
    out[p]->tree_sizes.assign(sizes.begin() + cut[p],
                              sizes.begin() + cut[p + 1]);
  }
  if (pieces == 1) {
    out[0]->entries.reserve(old_entries + fresh.size());
    out[0]->fps.reserve(old_fps + fresh.size());
    out[0]->offsets.reserve(old_fps + fresh.size() + 1);
  }
  auto emit = [&](PqGramFingerprint fp, int32_t slot, int64_t count) {
    const size_t p = static_cast<size_t>(
        std::upper_bound(cut.begin() + 1, cut.end() - 1, slot) -
        (cut.begin() + 1));
    AppendPosting(out[p].get(), fp, slot - cut[p], count);
  };

  // One merge in (fp, slot) order, the order FreezeShard sorts into.
  // Within a fingerprint the sources' groups come out slot-ascending in
  // source order (monotone remap over ascending id ranges); the fresh
  // postings of that fingerprint interleave by slot.
  std::vector<size_t> group(end - begin, 0);
  size_t f = 0;
  while (true) {
    bool any = f < fresh.size();
    PqGramFingerprint fp = any ? fresh[f].fp : 0;
    for (size_t k = 0; k < group.size(); ++k) {
      const Shard& old = *prev.shards_[begin + k];
      if (group[k] < old.fps.size() && (!any || old.fps[group[k]] < fp)) {
        fp = old.fps[group[k]];
        any = true;
      }
    }
    if (!any) break;
    for (size_t k = 0; k < group.size(); ++k) {
      const Shard& old = *prev.shards_[begin + k];
      if (group[k] == old.fps.size() || old.fps[group[k]] != fp) continue;
      const std::vector<int32_t>& map = remap[k];
      for (uint32_t e = old.offsets[group[k]]; e < old.offsets[group[k] + 1];
           ++e) {
        const int32_t slot = map[static_cast<size_t>(old.entries[e].slot)];
        if (slot < 0) continue;
        for (; f < fresh.size() && fresh[f].fp == fp && fresh[f].slot < slot;
             ++f) {
          emit(fp, fresh[f].slot, fresh[f].count);
        }
        emit(fp, slot, old.EntryCount(e));
      }
      ++group[k];
    }
    for (; f < fresh.size() && fresh[f].fp == fp; ++f) {
      emit(fp, fresh[f].slot, fresh[f].count);
    }
  }
  std::vector<std::shared_ptr<const Shard>> frozen;
  frozen.reserve(out.size());
  for (std::shared_ptr<Shard>& shard : out) {
    FinishArena(shard.get());
    frozen.push_back(std::move(shard));
  }
  return frozen;
}

size_t LookupEngine::OwningShard(TreeId id) const {
  auto it = std::upper_bound(
      shards_.begin(), shards_.end(), id,
      [](TreeId value, const std::shared_ptr<const Shard>& shard) {
        return value < shard->tree_ids.front();
      });
  return it == shards_.begin() ? 0
                               : static_cast<size_t>(it - shards_.begin()) - 1;
}

std::optional<PqGramIndex> LookupEngine::FindBag(TreeId id) const {
  if (num_trees_ == 0) return std::nullopt;
  const Shard& shard = *shards_[OwningShard(id)];
  auto held = std::lower_bound(shard.tree_ids.begin(), shard.tree_ids.end(),
                               id);
  if (held == shard.tree_ids.end() || *held != id) return std::nullopt;
  const size_t slot = static_cast<size_t>(held - shard.tree_ids.begin());
  PqGramIndex bag(shape_);
  // One sequential pass over the arena, stopping once the bag is
  // complete; only a hit pays for finding its fingerprint group.
  int64_t missing = shard.tree_sizes[slot];
  for (uint32_t e = 0; e < shard.entries.size() && missing > 0; ++e) {
    if (static_cast<size_t>(shard.entries[e].slot) != slot) continue;
    const size_t g = static_cast<size_t>(
        std::upper_bound(shard.offsets.begin(), shard.offsets.end(), e) -
        shard.offsets.begin() - 1);
    const int64_t count = shard.EntryCount(e);
    bag.Add(shard.fps[g], count);
    missing -= count;
  }
  return bag;
}

ForestIndex LookupEngine::ToForest() const {
  ForestIndex forest(shape_);
  for (const std::shared_ptr<const Shard>& shard : shards_) {
    std::vector<PqGramIndex> bags(shard->tree_ids.size(),
                                  PqGramIndex(shape_));
    for (size_t g = 0; g < shard->fps.size(); ++g) {
      for (uint32_t e = shard->offsets[g]; e < shard->offsets[g + 1]; ++e) {
        bags[static_cast<size_t>(shard->entries[e].slot)].Add(
            shard->fps[g], shard->EntryCount(e));
      }
    }
    for (size_t slot = 0; slot < bags.size(); ++slot) {
      forest.AddIndex(shard->tree_ids[slot], std::move(bags[slot]));
    }
  }
  return forest;
}

std::vector<int> LookupEngine::ShardSizes() const {
  std::vector<int> sizes;
  sizes.reserve(shards_.size());
  for (const std::shared_ptr<const Shard>& shard : shards_) {
    sizes.push_back(static_cast<int>(shard->tree_ids.size()));
  }
  return sizes;
}

Status LookupEngine::CheckInvariants() const {
  auto fail = [](size_t s, const char* what) {
    return DataLossError("lookup engine shard " + std::to_string(s) + ": " +
                         what);
  };
  if (shards_.empty()) return DataLossError("lookup engine has no shards");
  int64_t trees = 0;
  int64_t postings = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = *shards_[s];
    const size_t n = shard.tree_ids.size();
    if (n == 0 && shards_.size() > 1) return fail(s, "empty beside others");
    if (shard.tree_sizes.size() != n) return fail(s, "tree_sizes length");
    for (size_t i = 1; i < n; ++i) {
      if (!(shard.tree_ids[i - 1] < shard.tree_ids[i])) {
        return fail(s, "tree ids not strictly ascending");
      }
    }
    if (s > 0 && n > 0 &&
        !(shards_[s - 1]->tree_ids.back() < shard.tree_ids.front())) {
      return fail(s, "tree-id range not above the previous shard's");
    }
    if (shard.offsets.size() != shard.fps.size() + 1 ||
        shard.offsets.front() != 0 ||
        shard.offsets.back() != shard.entries.size()) {
      return fail(s, "offsets do not bracket the arena");
    }
    std::vector<int64_t> sums(n, 0);
    size_t wide = 0;
    for (size_t g = 0; g < shard.fps.size(); ++g) {
      if (g > 0 && !(shard.fps[g - 1] < shard.fps[g])) {
        return fail(s, "fingerprints not strictly ascending");
      }
      if (!(shard.offsets[g] < shard.offsets[g + 1])) {
        return fail(s, "offsets not strictly increasing");
      }
      for (uint32_t e = shard.offsets[g]; e < shard.offsets[g + 1]; ++e) {
        const int32_t slot = shard.entries[e].slot;
        if (slot < 0 || static_cast<size_t>(slot) >= n) {
          return fail(s, "slot out of range");
        }
        if (e > shard.offsets[g] && !(shard.entries[e - 1].slot < slot)) {
          return fail(s, "slots not strictly ascending within a group");
        }
        int64_t count = shard.entries[e].count;
        if (count == kWideCount) {
          auto it = shard.wide_counts.find(e);
          if (it == shard.wide_counts.end() || it->second <= INT32_MAX) {
            return fail(s, "wide count missing or narrow");
          }
          count = it->second;
          ++wide;
        } else if (count <= 0) {
          return fail(s, "nonpositive count");
        }
        sums[static_cast<size_t>(slot)] += count;
      }
    }
    if (wide != shard.wide_counts.size()) {
      return fail(s, "wide_counts entry without a sentinel");
    }
    if (sums != shard.tree_sizes) {
      return fail(s, "tree size differs from the sum of its counts");
    }
    trees += static_cast<int64_t>(n);
    postings += static_cast<int64_t>(shard.entries.size());
  }
  if (trees != num_trees_ || postings != posting_entries_) {
    return DataLossError("lookup engine totals do not match its shards");
  }
  return Status::Ok();
}

std::vector<uint64_t> LookupEngine::ShardUids() const {
  std::vector<uint64_t> uids;
  uids.reserve(shards_.size());
  for (const std::shared_ptr<const Shard>& shard : shards_) {
    uids.push_back(shard->uid);
  }
  return uids;
}

QueryFingerprint LookupEngine::FingerprintQuery(
    const std::vector<QueryTuple>& tuples, int64_t query_size, uint64_t op,
    uint64_t param) {
  // Two independently seeded lanes over the same sequence; both are
  // compared on a cache hit, so a collision needs both to collide.
  uint64_t lo = MixFingerprint(op ^ 0x243f6a8885a308d3ULL);
  uint64_t hi = MixFingerprint(op + 0x452821e638d01377ULL);
  lo = MixFingerprint(lo ^ param);
  hi = MixFingerprint(hi + param);
  lo = MixFingerprint(lo ^ static_cast<uint64_t>(query_size));
  hi = MixFingerprint(hi + static_cast<uint64_t>(query_size));
  for (const QueryTuple& t : tuples) {
    lo = MixFingerprint(lo ^ t.fp);
    lo = MixFingerprint(lo ^ static_cast<uint64_t>(t.count));
    hi = MixFingerprint(hi + (t.fp * 0x9e3779b97f4a7c15ULL));
    hi = MixFingerprint(hi + static_cast<uint64_t>(t.count));
  }
  return {lo, hi};
}

std::vector<LookupEngine::QueryTuple> LookupEngine::QueryTuples(
    const PqGramIndex& query) {
  std::vector<QueryTuple> tuples;
  tuples.reserve(query.counts().size());
  for (const auto& [fp, count] : query.counts()) {
    tuples.push_back({fp, count});
  }
  // Deterministic processing order (the bag map iterates in hash order).
  std::sort(tuples.begin(), tuples.end(),
            [](const QueryTuple& a, const QueryTuple& b) {
              return a.fp < b.fp;
            });
  return tuples;
}

std::vector<LookupEngine::PostingList> LookupEngine::RarestFirstLists(
    const Shard& shard, const std::vector<QueryTuple>& tuples,
    std::vector<int64_t>* rest) {
  // Query tuples arrive fingerprint-ascending and shard.fps is sorted,
  // so each tuple's list is found by galloping forward from the
  // previous position instead of bisecting the whole array.
  std::vector<PostingList> lists;
  lists.reserve(tuples.size());
  size_t pos = 0;
  for (const QueryTuple& t : tuples) {
    pos = GallopLowerBound(shard.fps.data(), shard.fps.size(), pos, t.fp);
    if (pos == shard.fps.size()) break;
    if (shard.fps[pos] != t.fp) continue;
    lists.push_back({shard.offsets[pos],
                     shard.offsets[pos + 1] - shard.offsets[pos], t.count,
                     t.fp});
  }
  // Rarest posting list first: the large lists then run with the small
  // remaining-gain bound, which is where the count filter prunes.
  std::sort(lists.begin(), lists.end(),
            [](const PostingList& a, const PostingList& b) {
              return a.length < b.length ||
                     (a.length == b.length && a.fp < b.fp);
            });
  // Each remaining tuple contributes at most its query multiplicity.
  rest->assign(lists.size() + 1, 0);
  for (size_t j = lists.size(); j-- > 0;) {
    (*rest)[j] = (*rest)[j + 1] + lists[j].qcount;
  }
  return lists;
}

void LookupEngine::ScoreShard(const Shard& shard,
                              const std::vector<QueryTuple>& tuples,
                              int64_t query_size, double tau,
                              std::vector<LookupResult>* out,
                              LookupEngineStats* stats) const {
  const size_t n = shard.tree_ids.size();
  static_assert(sizeof(Entry) == 2 * sizeof(int32_t),
                "kernels read the arena as interleaved int32 pairs");
  std::vector<int64_t> rest;
  const std::vector<PostingList> lists = RarestFirstLists(shard, tuples, &rest);

  const bool filter = tau < 1.0;
  // The prefix cut: a tree no list has reached yet can gain at most
  // rest[j] from list j on, and needs at least `floor` -- the overlap
  // the shard's smallest tree needs, since the bar only rises with the
  // tree's size. From the first list where rest[j] < floor on, no new
  // candidate can qualify.
  size_t cut = lists.size();
  if (filter && n > 0) {
    const int64_t floor = MinQualifyingOverlap(
        tau, query_size + *std::min_element(shard.tree_sizes.begin(),
                                            shard.tree_sizes.end()));
    cut = 0;
    while (cut < lists.size() && rest[cut] >= floor) ++cut;
  }

  std::vector<int64_t> overlap(n, 0);
  std::vector<int64_t> required(filter ? n : 0, 0);
  std::vector<uint8_t> pruned(n, 0);
  std::vector<int32_t> touched;
  // Live candidates are touched slots not pruned; this call prunes
  // stats->pruned - pruned_before of them. An admitted slot's overlap is
  // positive, so a zero overlap marks a slot never admitted.
  const int64_t pruned_before = stats->pruned;
  // Drops `slot` once even its maximum attainable overlap misses the
  // bar; reports whether it is still live.
  auto survives = [&](int32_t slot, int64_t gain_after) {
    if (filter && overlap[static_cast<size_t>(slot)] + gain_after <
                      required[static_cast<size_t>(slot)]) {
      pruned[static_cast<size_t>(slot)] = 1;
      ++stats->pruned;
      return false;
    }
    return true;
  };

  // Past the cut only the live candidates matter. Scanning a list costs
  // its length; probing costs one gallop per live slot, so probing pays
  // only once the live set is small against the list. Lists only grow
  // and the live set only shrinks, so once probing starts it stays.
  constexpr int64_t kProbeRatio = 8;
  std::vector<int32_t> probes;  // live slots, ascending, once probing
  bool probing = false;

  // The SIMD kernel deinterleaves each block and clamps every count
  // against the query multiplicity up front; the scalar pass below only
  // scatters the precomputed contributions into the accumulators. A
  // negative contribution is the wide-count sentinel surviving the
  // clamp and is resolved exactly from the side map.
  constexpr size_t kBlock = 256;
  int32_t slot_buf[kBlock];
  int32_t contrib_buf[kBlock];

  for (size_t j = 0; j < lists.size(); ++j) {
    const PostingList& list = lists[j];
    const int64_t gain_after = rest[j + 1];
    const bool admit = j < cut;
    if (!admit) {
      const int64_t live = static_cast<int64_t>(touched.size()) -
                           (stats->pruned - pruned_before);
      if (live == 0) break;
      if (!probing && live * kProbeRatio <= list.length) {
        probing = true;
        for (int32_t slot : touched) {
          if (!pruned[static_cast<size_t>(slot)]) probes.push_back(slot);
        }
        std::sort(probes.begin(), probes.end());
      }
    }
    if (probing) {
      // Entries within a list ascend by slot, so the probes gallop
      // forward from the previous hit.
      stats->postings_scanned += static_cast<int64_t>(probes.size());
      const Entry* entries = shard.entries.data() + list.begin;
      size_t pos = 0;
      size_t kept = 0;
      for (int32_t slot : probes) {
        pos = GallopLowerBound(entries, list.length, pos, slot,
                               [](const Entry& entry) { return entry.slot; });
        if (pos < list.length && entries[pos].slot == slot) {
          overlap[static_cast<size_t>(slot)] += std::min<int64_t>(
              list.qcount, shard.EntryCount(list.begin + pos));
        }
        if (survives(slot, gain_after)) probes[kept++] = slot;
      }
      probes.resize(kept);
      continue;
    }
    stats->postings_scanned += list.length;
    const int32_t qc32 = static_cast<int32_t>(
        std::min<int64_t>(list.qcount, INT32_MAX));
    for (size_t base = 0; base < list.length; base += kBlock) {
      const size_t m = std::min<size_t>(kBlock, list.length - base);
      ComputeContribs(
          reinterpret_cast<const int32_t*>(shard.entries.data() +
                                           list.begin + base),
          m, qc32, slot_buf, contrib_buf);
      for (size_t i = 0; i < m; ++i) {
        const int32_t slot = slot_buf[i];
        if (pruned[static_cast<size_t>(slot)]) continue;
        int64_t& acc = overlap[static_cast<size_t>(slot)];
        if (acc == 0) {
          // Before the cut an untouched slot becomes a candidate; after
          // it, it is skipped.
          if (!admit) continue;
          touched.push_back(slot);
          if (filter) {
            required[static_cast<size_t>(slot)] = MinQualifyingOverlap(
                tau,
                query_size + shard.tree_sizes[static_cast<size_t>(slot)]);
          }
        }
        int64_t contrib = contrib_buf[i];
        if (contrib < 0) {
          contrib = std::min<int64_t>(
              list.qcount, shard.EntryCount(list.begin + base + i));
        }
        acc += contrib;
        survives(slot, gain_after);
      }
    }
  }
  stats->candidates += static_cast<int64_t>(touched.size());

  if (!filter) {
    // tau >= 1: every tree qualifies by definition (distance <= 1), the
    // zero-overlap ones included; score the whole shard.
    stats->scored += static_cast<int64_t>(n);
    for (size_t slot = 0; slot < n; ++slot) {
      out->push_back({shard.tree_ids[slot],
                      BagDistance(overlap[slot],
                                  query_size + shard.tree_sizes[slot])});
    }
    return;
  }
  for (int32_t slot : touched) {
    if (pruned[static_cast<size_t>(slot)]) continue;
    ++stats->scored;
    if (overlap[static_cast<size_t>(slot)] >=
        required[static_cast<size_t>(slot)]) {
      out->push_back(
          {shard.tree_ids[static_cast<size_t>(slot)],
           BagDistance(overlap[static_cast<size_t>(slot)],
                       query_size +
                           shard.tree_sizes[static_cast<size_t>(slot)])});
    }
  }
  if (query_size == 0 && tau >= 0.0) {
    // An empty query is at distance 0 from every empty tree (empty
    // union); those trees own no postings, so the scan above cannot see
    // them. Distance 0 only qualifies for tau >= 0, exactly as the
    // scanning baseline's `distance <= tau` test decides.
    for (size_t slot = 0; slot < n; ++slot) {
      if (shard.tree_sizes[slot] == 0) {
        out->push_back({shard.tree_ids[slot], 0.0});
      }
    }
  }
}

std::vector<LookupResult> LookupEngine::Lookup(const PqGramIndex& query,
                                               double tau,
                                               LookupEngineStats* stats,
                                               QueryCache* cache) const {
  PQIDX_CHECK_MSG(query.shape() == shape_,
                  "query shape does not match lookup engine shape");
  // Distances are never negative, so tau < 0 (or NaN) matches nothing.
  // The scanning baseline reaches the same answer through its
  // `distance <= tau` test; deciding it up front keeps hostile tau
  // values (-inf, -1e308, NaN) out of the scoring machinery.
  if (!(tau >= 0.0)) return {};
  const int64_t start_us = Metrics::enabled() ? Metrics::NowUs() : 0;
  const std::vector<QueryTuple> tuples = QueryTuples(query);
  QueryFingerprint qfp;
  if (cache != nullptr) {
    qfp = FingerprintQuery(tuples, query.size(), /*op=*/0,
                           std::bit_cast<uint64_t>(tau));
  }
  std::vector<LookupResult> results;
  std::vector<LookupResult> part;
  LookupEngineStats folded;
  for (const std::shared_ptr<const Shard>& shard : shards_) {
    part.clear();
    if (cache == nullptr || !cache->Get(qfp, shard->uid, &part)) {
      ScoreShard(*shard, tuples, query.size(), tau, &part, &folded);
      if (cache != nullptr) cache->Put(qfp, shard->uid, part);
    }
    results.insert(results.end(), part.begin(), part.end());
  }
  std::sort(results.begin(), results.end(), RanksBefore);
  RecordQueryMetrics(folded, start_us);
  if (stats != nullptr) *stats += folded;
  return results;
}

std::vector<LookupResult> LookupEngine::Lookup(const Tree& query, double tau,
                                               LookupEngineStats* stats,
                                               QueryCache* cache) const {
  return Lookup(BuildIndex(query, shape_), tau, stats, cache);
}

void LookupEngine::ScoreShardTopK(const Shard& shard,
                                  const std::vector<QueryTuple>& tuples,
                                  int64_t query_size, int k,
                                  std::vector<LookupResult>* heap,
                                  LookupEngineStats* stats) const {
  const size_t n = shard.tree_ids.size();
  std::vector<int64_t> rest;
  const std::vector<PostingList> lists = RarestFirstLists(shard, tuples, &rest);

  std::vector<int64_t> overlap(n, 0);
  std::vector<uint8_t> pruned(n, 0);
  int64_t candidates = 0;
  constexpr size_t kBlock = 256;
  int32_t slot_buf[kBlock];
  int32_t contrib_buf[kBlock];
  for (size_t j = 0; j < lists.size(); ++j) {
    const PostingList& list = lists[j];
    const int64_t gain_after = rest[j + 1];
    stats->postings_scanned += list.length;
    const int32_t qc32 = static_cast<int32_t>(
        std::min<int64_t>(list.qcount, INT32_MAX));
    for (size_t base = 0; base < list.length; base += kBlock) {
      const size_t m = std::min<size_t>(kBlock, list.length - base);
      ComputeContribs(
          reinterpret_cast<const int32_t*>(shard.entries.data() +
                                           list.begin + base),
          m, qc32, slot_buf, contrib_buf);
      for (size_t i = 0; i < m; ++i) {
        const int32_t slot = slot_buf[i];
        if (pruned[static_cast<size_t>(slot)]) continue;
        int64_t& acc = overlap[static_cast<size_t>(slot)];
        if (acc == 0) ++candidates;
        int64_t contrib = contrib_buf[i];
        if (contrib < 0) {
          contrib = std::min<int64_t>(
              list.qcount, shard.EntryCount(list.begin + base + i));
        }
        acc += contrib;
        // Adaptive bound: once the heap holds k results, a candidate
        // whose best attainable rank cannot beat the current k-th best
        // is dead. The k-th best only improves, so the decision stays
        // valid.
        if (static_cast<int>(heap->size()) == k) {
          const LookupResult& worst = heap->front();
          LookupResult best_attainable{
              shard.tree_ids[static_cast<size_t>(slot)],
              BagDistance(acc + gain_after,
                          query_size +
                              shard.tree_sizes[static_cast<size_t>(slot)])};
          if (!RanksBefore(best_attainable, worst)) {
            pruned[static_cast<size_t>(slot)] = 1;
            ++stats->pruned;
          }
        }
      }
    }
  }
  stats->candidates += candidates;

  // TopK ranks every tree (a zero-overlap tree still has a distance), so
  // the emit pass walks all slots, skipping only the provably beaten.
  for (size_t slot = 0; slot < n; ++slot) {
    if (pruned[slot]) continue;
    ++stats->scored;
    LookupResult candidate{
        shard.tree_ids[slot],
        BagDistance(overlap[slot], query_size + shard.tree_sizes[slot])};
    if (static_cast<int>(heap->size()) < k) {
      heap->push_back(candidate);
      std::push_heap(heap->begin(), heap->end(), RanksBefore);
    } else if (RanksBefore(candidate, heap->front())) {
      std::pop_heap(heap->begin(), heap->end(), RanksBefore);
      heap->back() = candidate;
      std::push_heap(heap->begin(), heap->end(), RanksBefore);
    }
  }
}

std::vector<LookupResult> LookupEngine::TopK(const PqGramIndex& query,
                                             int k, LookupEngineStats* stats,
                                             QueryCache* cache) const {
  PQIDX_CHECK_MSG(query.shape() == shape_,
                  "query shape does not match lookup engine shape");
  if (k <= 0) return {};
  const int64_t start_us = Metrics::enabled() ? Metrics::NowUs() : 0;
  const std::vector<QueryTuple> tuples = QueryTuples(query);
  LookupEngineStats local_stats;
  std::vector<LookupResult> merged;
  if (cache != nullptr) {
    // Independent per-shard heaps; the global top k is a subset of the
    // union of the per-shard top k. A cached partial must not depend on
    // the heap state other shards left behind.
    const QueryFingerprint qfp = FingerprintQuery(
        tuples, query.size(), /*op=*/1, static_cast<uint64_t>(k));
    std::vector<LookupResult> heap;
    for (const std::shared_ptr<const Shard>& shard : shards_) {
      heap.clear();
      if (!cache->Get(qfp, shard->uid, &heap)) {
        ScoreShardTopK(*shard, tuples, query.size(), k, &heap,
                       &local_stats);
        cache->Put(qfp, shard->uid, heap);
      }
      merged.insert(merged.end(), heap.begin(), heap.end());
    }
  } else {
    for (const std::shared_ptr<const Shard>& shard : shards_) {
      ScoreShardTopK(*shard, tuples, query.size(), k, &merged,
                     &local_stats);
    }
  }
  std::sort(merged.begin(), merged.end(), RanksBefore);
  if (static_cast<int>(merged.size()) > k) {
    merged.resize(static_cast<size_t>(k));
  }
  RecordQueryMetrics(local_stats, start_us);
  if (stats != nullptr) *stats += local_stats;
  return merged;
}

}  // namespace pqidx
