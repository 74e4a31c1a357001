// Read-optimized approximate-lookup engine: an immutable, compact
// snapshot of a forest's pq-gram postings.
//
// The maintainable structures (ForestIndex, InvertedForestIndex) are
// built for cheap incremental updates: node-based maps whose postings
// scatter across the heap. This engine compiles either of them into a
// read-only snapshot laid out for the lookup hot path:
//
//   * postings live in flat arena-backed arrays -- per shard one sorted
//     fingerprint array, a parallel offset array, and one contiguous
//     {slot, count} entry buffer -- so accumulating a query is sequential
//     pointer walks over dense memory, not hash-map hopping;
//   * trees are renumbered into dense slots, making the per-lookup
//     accumulator a flat array indexed by slot;
//   * query tuples are processed rarest-posting-first, and a tau-derived
//     count filter prunes candidates mid-accumulation: from
//     dist = 1 - 2*shared/(|Q|+s), a tree with bag size s qualifies only
//     with shared >= (1-tau)*(|Q|+s)/2, so once a candidate's overlap
//     plus the maximum gain still attainable from the remaining (rarer
//     processed first, so larger) lists falls below that bound, it is
//     dropped without finishing its accumulation;
//   * the same bound cuts the scan itself (a prefix filter): once the
//     query multiplicity left in the remaining lists falls below what
//     the shard's smallest tree needs, no tree that no list has reached
//     yet can qualify, so the rest of the lists admit no new candidate.
//     Past that cut the scan only feeds the live candidates, and once
//     those are few against the next list it stops scanning and instead
//     gallops each live slot into the (slot-sorted) list, costing about
//     min(|live| * log|list|, |list|) per list; it stops as soon as no
//     candidate is left;
//   * the trees are split into shards with independent posting arenas
//     and accumulators; each shard is scored on its own and the partial
//     results are merged at the end;
//   * TopK ranks every tree, so without a tau it has no cut: shards
//     scored in sequence share one heap and prune against its current
//     k-th best, while with a QueryCache (what pqidxd passes) every
//     shard fills its own heap, which holds nothing until the shard's
//     final emit pass, so the bound never prunes during accumulation.
//
// Results are bit-identical to ForestIndex::Lookup -- same distances
// (identical double arithmetic), same ordering, same tie-breaks -- for
// every tau including tau >= 1 (everything qualifies), tau < 0 or NaN
// (distances are never negative, so nothing qualifies), and empty bags
// (two empty bags are at distance 0). The count filter is exact: a
// candidate is only pruned when even its maximum attainable overlap
// fails the same floating-point test that gates the final result.
//
// A snapshot is immutable after Build, so concurrent lookups need no
// locking; writers publish a fresh snapshot (see service/server.h for
// the epoch-published shared_ptr protocol pqidxd uses).
//
// Snapshots are maintained the same way the paper maintains the index
// itself (Lemma 2: In = I0 \ lambda(Delta-) |+| lambda(Delta+)):
// ApplyDelta derives the next snapshot from the previous one by
// copy-on-write. Every untouched shard is shared with the previous epoch
// through its shared_ptr; a shard owning a changed tree is patched by a
// linear merge of its previous frozen arena (unchanged trees, copied
// without re-sorting) with the sorted postings of the changed trees. So
// publishing a commit of k edits costs O(postings of the shards touched
// plus sort of the k changed bags), not O(total postings). The same
// merge keeps the layout balanced against the shard count the snapshot
// was built for: an overgrown shard splits, small neighbors merge and
// emptied shards drop.

#ifndef PQIDX_CORE_LOOKUP_ENGINE_H_
#define PQIDX_CORE_LOOKUP_ENGINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/forest_index.h"
#include "core/inverted_index.h"
#include "core/pqgram_index.h"
#include "core/query_cache.h"

namespace pqidx {

// Work accounting for one lookup (or one TopK). All counters are sums
// over the shards the lookup touched.
struct LookupEngineStats {
  // Trees admitted as candidates: reached by a posting at all (TopK) or
  // before the prefix cut (Lookup).
  int64_t candidates = 0;
  int64_t pruned = 0;            // dropped mid-accumulation by the filter
  int64_t scored = 0;            // candidates that reached the final test
  // Posting entries visited: every entry a scan reads, plus one per
  // galloping probe of a live slot into a list (hit or miss), however
  // many entries the probe stepped over.
  int64_t postings_scanned = 0;

  LookupEngineStats& operator+=(const LookupEngineStats& other) {
    candidates += other.candidates;
    pruned += other.pruned;
    scored += other.scored;
    postings_scanned += other.postings_scanned;
    return *this;
  }
};

class LookupEngine {
 public:
  // Compiles a snapshot of `forest` split into `num_shards` shards
  // (clamped to [1, max(1, #trees)]; the unclamped count is kept as the
  // target later ApplyDelta calls balance against). Shard count trades
  // publish cost (ApplyDelta rewrites one shard) against per-shard query
  // setup; results never depend on it.
  static std::shared_ptr<const LookupEngine> Build(const ForestIndex& forest,
                                                   int num_shards = 1);
  static std::shared_ptr<const LookupEngine> Build(
      const InvertedForestIndex& inverted, int num_shards = 1);

  // Derives the next snapshot from `prev` by copy-on-write. `changed`
  // lists every tree id whose bag differs between the snapshot and
  // `forest` (Lemma 2's lambda(Delta+) and lambda(Delta-)): an id
  // present in `forest` is an insert or update, an id absent from it is
  // a removal. Only the shards owning a changed id are rewritten; each
  // is merge-patched from its previous arena plus the changed trees'
  // bags read from `forest`, every other shard is shared with `prev`.
  // The caller must list every differing id -- an unlisted change would
  // be silently missed in a shared shard.
  //
  // `forest` is read only through Find(changed id), so it may hold just
  // the changed bags (pqidxd passes a batch's composed bags) and gives
  // the same snapshot as the whole forest -- except for a `prev` with no
  // trees (below), where the changed bags are the whole state anyway.
  //
  // With n trees afterwards and `target` the shard count `prev` was
  // built for, per = ceil(n / target): a rewritten shard holding more
  // than 2 * per trees is halved by slot range (repeatedly, until every
  // half fits), adjacent shards whose trees together fit in per merge,
  // and shards left with no tree are dropped (one shard always stays).
  // A `prev` with no trees has no ranges to route into and falls back to
  // Build(forest, target).
  static std::shared_ptr<const LookupEngine> ApplyDelta(
      const std::shared_ptr<const LookupEngine>& prev,
      const ForestIndex& forest, const std::vector<TreeId>& changed);

  const PqShape& shape() const { return shape_; }
  int size() const { return num_trees_; }

  // Tree `id`'s bag rebuilt from the shard owning it, in O(that shard's
  // postings); nullopt when the snapshot does not hold `id`.
  std::optional<PqGramIndex> FindBag(TreeId id) const;
  // The forest the snapshot reflects, rebuilt in O(postings).
  ForestIndex ToForest() const;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  int64_t posting_entries() const { return posting_entries_; }
  // Trees per shard, in shard order.
  std::vector<int> ShardSizes() const;

  // Verifies the snapshot's structural invariants, for tests and
  // debugging: per shard, tree ids and fingerprints strictly ascending,
  // offsets bracketing nonempty groups, slots strictly ascending within
  // a group and below the shard's tree count, counts positive (wide ones
  // resolved through the side map), tree_sizes[slot] equal to the sum of
  // the slot's counts; across shards, tree-id ranges disjoint and
  // ascending, no empty shard unless it is the only one, and the
  // snapshot totals matching. O(postings).
  Status CheckInvariants() const;

  // The process-unique ids of this snapshot's shards, in shard order.
  // A shard shared with a previous epoch (ApplyDelta copy-on-write)
  // keeps its uid; a rewritten or freshly built shard gets a new one.
  // QueryCache keys embed these, which is the whole epoch protocol.
  std::vector<uint64_t> ShardUids() const;

  // Approximate lookup: all trees T with dist(query, T) <= tau, most
  // similar first (ties by tree id) -- bit-identical to
  // ForestIndex::Lookup. `stats`, when non-null, receives the work
  // counters of this call. With `cache`, per-shard partial results are
  // served from / inserted into it (cached shards contribute no work
  // counters).
  std::vector<LookupResult> Lookup(const PqGramIndex& query, double tau,
                                   LookupEngineStats* stats = nullptr,
                                   QueryCache* cache = nullptr) const;
  std::vector<LookupResult> Lookup(const Tree& query, double tau,
                                   LookupEngineStats* stats = nullptr,
                                   QueryCache* cache = nullptr) const;

  // The k most similar trees, most similar first (ties by tree id);
  // identical to ForestIndex::TopK. Without `cache` the shards are
  // scored in sequence into one heap, so the pruning bound tightens from
  // the current k-th best across shards; with `cache`, whose entries
  // must not depend on cross-shard state, every shard computes an
  // independent top-k heap and the heaps are merged at the end.
  std::vector<LookupResult> TopK(const PqGramIndex& query, int k,
                                 LookupEngineStats* stats = nullptr,
                                 QueryCache* cache = nullptr) const;

 private:
  // One posting: tree (as a shard-local slot) and tuple multiplicity.
  // Slots and counts are narrowed to 32 bits for density; the rare
  // count that does not fit stores kWideCount and its exact value lives
  // in the shard's wide_counts side map, so Compile never rejects a
  // legitimate bag and results stay exact.
  struct Entry {
    int32_t slot;
    int32_t count;
  };

  // Sentinel Entry::count for a multiplicity above INT32_MAX (real
  // counts are always positive).
  static constexpr int32_t kWideCount = -1;

  // An independent slice of the forest: dense slots, own posting arena.
  struct Shard {
    // Process-unique id minted at freeze time, never reused. Shards
    // shared across epochs keep theirs; see ShardUids().
    uint64_t uid = 0;
    std::vector<TreeId> tree_ids;             // slot -> tree id (ascending)
    std::vector<int64_t> tree_sizes;          // slot -> |I(T)|
    std::vector<PqGramFingerprint> fps;       // sorted ascending
    std::vector<uint32_t> offsets;            // fps.size() + 1 prefix sums
    std::vector<Entry> entries;               // arena, grouped by fps order
    // Exact values of kWideCount entries, keyed by arena index.
    std::unordered_map<uint32_t, int64_t> wide_counts;

    // The multiplicity of the arena entry at `index`, resolving the
    // kWideCount indirection.
    int64_t EntryCount(size_t index) const {
      int32_t narrow = entries[index].count;
      return narrow != kWideCount
                 ? narrow
                 : wide_counts.at(static_cast<uint32_t>(index));
    }
  };

  // A query tuple after shape validation: fingerprint + multiplicity.
  struct QueryTuple {
    PqGramFingerprint fp;
    int64_t count;
  };

  // One query tuple's posting list in a shard: its arena range and the
  // tuple's query multiplicity.
  struct PostingList {
    uint32_t begin;
    uint32_t length;
    int64_t qcount;
    PqGramFingerprint fp;
  };

  // A posting during one build: global-slot form before sharding.
  struct RawPosting {
    PqGramFingerprint fp;
    int32_t slot;
    int64_t count;
  };

  LookupEngine() = default;

  static std::shared_ptr<const LookupEngine> Compile(
      const PqShape& shape, const std::vector<TreeId>& tree_ids,
      const std::vector<int64_t>& tree_sizes, std::vector<RawPosting> raw,
      int num_shards);

  // Freezes one shard's posting arena from its local-slot raw postings
  // (sorts by (fp, slot), then appends them in that order).
  // tree_ids/tree_sizes must already be filled in.
  static void FreezeShard(Shard* shard, std::vector<RawPosting> part);

  // Appends one posting to a shard under construction. Postings must
  // arrive in (fp, slot) order; a count above INT32_MAX spills to
  // wide_counts. FinishArena closes the offsets array and mints the uid.
  static void AppendPosting(Shard* shard, PqGramFingerprint fp,
                            int32_t slot, int64_t count);
  static void FinishArena(Shard* shard);

  // ApplyDelta's rewrite of the contiguous run of `prev` shards
  // [begin, end): their trees patched by the changed ids routed to them
  // (`incoming[s]`, ascending), cut into `pieces` shards of near-equal
  // tree count. The arenas come from one merge over the old arenas
  // (slots remapped monotonically, so no sort) and the changed trees'
  // sorted postings, and equal what FreezeShard builds for the same
  // trees.
  static std::vector<std::shared_ptr<const Shard>> RewriteRun(
      const LookupEngine& prev, size_t begin, size_t end,
      const std::vector<std::vector<TreeId>>& incoming,
      const ForestIndex& forest, int64_t pieces);

  // Index of the shard whose ascending tree-id range holds (or would
  // hold) `id`: the last shard whose first id <= id, else the first.
  // Requires a nonempty snapshot (no shard is then empty).
  size_t OwningShard(TreeId id) const;

  static std::vector<QueryTuple> QueryTuples(const PqGramIndex& query);

  // 128-bit cache fingerprint of (op, param, query size, sorted query
  // tuples). `op` separates Lookup from TopK keys; `param` carries the
  // tau bit pattern or k.
  static QueryFingerprint FingerprintQuery(
      const std::vector<QueryTuple>& tuples, int64_t query_size,
      uint64_t op, uint64_t param);

  // The posting lists of `tuples` present in `shard`, shortest first
  // (ties by fingerprint), and (*rest)[j] = the query multiplicity of
  // lists j.. -- the most overlap a tree can still gain from list j on.
  static std::vector<PostingList> RarestFirstLists(
      const Shard& shard, const std::vector<QueryTuple>& tuples,
      std::vector<int64_t>* rest);

  // Scores one shard for Lookup: accumulates overlaps rarest-first with
  // the tau-derived count filter, stops admitting candidates at the
  // prefix cut, probes instead of scanning once the live candidates are
  // few, and appends qualifying results.
  void ScoreShard(const Shard& shard, const std::vector<QueryTuple>& tuples,
                  int64_t query_size, double tau,
                  std::vector<LookupResult>* out,
                  LookupEngineStats* stats) const;

  // Scores one shard for TopK into `heap` (worst-first heap of size <=
  // k), pruning against the heap's current worst entry.
  void ScoreShardTopK(const Shard& shard,
                      const std::vector<QueryTuple>& tuples,
                      int64_t query_size, int k,
                      std::vector<LookupResult>* heap,
                      LookupEngineStats* stats) const;

  PqShape shape_;
  // The shard count Build was asked for, before clamping to the tree
  // count; ApplyDelta balances shard sizes against it.
  int target_shards_ = 1;
  int num_trees_ = 0;
  int64_t posting_entries_ = 0;
  // Shards are individually refcounted so ApplyDelta can share the
  // untouched ones between consecutive snapshot epochs.
  std::vector<std::shared_ptr<const Shard>> shards_;
};

}  // namespace pqidx

#endif  // PQIDX_CORE_LOOKUP_ENGINE_H_
