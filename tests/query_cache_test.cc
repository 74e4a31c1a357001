// Tests for the epoch-keyed query-result cache: Put/Get/eviction/
// reclamation semantics on the cache itself, the epoch protocol through
// LookupEngine (incremental publishes keep untouched shards warm, full
// rebuilds go cold wholesale), bit-identity of cached answers, and a
// threaded hammer racing lookups against snapshot swaps (TSan in CI).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/forest_index.h"
#include "core/lookup_engine.h"
#include "core/query_cache.h"
#include "edit/edit_script.h"
#include "tree/generators.h"
#include "tree/tree_builder.h"

namespace pqidx {
namespace {

constexpr double kTaus[] = {0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0, 1.5};

void ExpectSameResults(const std::vector<LookupResult>& got,
                       const std::vector<LookupResult>& want,
                       const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].tree_id, want[i].tree_id) << what << " position " << i;
    EXPECT_EQ(got[i].distance, want[i].distance) << what << " position " << i;
  }
}

std::vector<LookupResult> MakeResults(int n, int base) {
  std::vector<LookupResult> results;
  for (int i = 0; i < n; ++i) {
    results.push_back(LookupResult{base + i, 0.25 * i});
  }
  return results;
}

TEST(QueryCacheTest, PutGetRoundTripAndMisses) {
  QueryCache cache(QueryCache::Options{});
  const QueryFingerprint a{0x1111, 0x2222};
  const QueryFingerprint b{0x3333, 0x4444};
  const std::vector<LookupResult> want = MakeResults(3, 10);

  std::vector<LookupResult> out;
  EXPECT_FALSE(cache.Get(a, 7, &out));
  EXPECT_EQ(cache.misses(), 1);

  cache.Put(a, 7, want);
  EXPECT_EQ(cache.entries(), 1);
  ASSERT_TRUE(cache.Get(a, 7, &out));
  ExpectSameResults(out, want, "round trip");
  EXPECT_EQ(cache.hits(), 1);

  // Same fingerprint under a different shard uid, and a different
  // fingerprint under the same uid, are both distinct keys.
  out.clear();
  EXPECT_FALSE(cache.Get(a, 8, &out));
  EXPECT_FALSE(cache.Get(b, 7, &out));
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(cache.misses(), 3);

  // Re-inserting an existing key keeps the original entry.
  cache.Put(a, 7, MakeResults(5, 99));
  EXPECT_EQ(cache.entries(), 1);
  ASSERT_TRUE(cache.Get(a, 7, &out));
  ExpectSameResults(out, want, "after duplicate put");
}

TEST(QueryCacheTest, EvictionRespectsByteBudget) {
  // 16 internal shards; a 64 KiB budget leaves room for a handful of
  // entries per shard, so a few hundred inserts must evict.
  QueryCache::Options options;
  options.max_bytes = size_t{64} << 10;
  QueryCache cache(options);

  Rng rng(11);
  QueryFingerprint last{};
  for (int i = 0; i < 400; ++i) {
    const QueryFingerprint fp{rng.Next(), rng.Next()};
    cache.Put(fp, 1, MakeResults(8, i));
    last = fp;
  }
  EXPECT_GT(cache.evictions(), 0);
  EXPECT_LE(static_cast<size_t>(cache.bytes()), options.max_bytes);
  EXPECT_GT(cache.entries(), 0);
  EXPECT_LT(cache.entries(), 400);

  // The most recent insert is the most recent entry of its internal
  // shard, so LRU eviction cannot have removed it.
  std::vector<LookupResult> out;
  EXPECT_TRUE(cache.Get(last, 1, &out));
}

TEST(QueryCacheTest, OnPublishReclaimsDeadUids) {
  QueryCache cache(QueryCache::Options{});
  const QueryFingerprint fp{0xabc, 0xdef};
  for (uint64_t uid = 1; uid <= 4; ++uid) {
    cache.Put(fp, uid, MakeResults(2, static_cast<int>(uid)));
  }
  EXPECT_EQ(cache.entries(), 4);

  cache.OnPublish({2, 4});
  EXPECT_EQ(cache.stale(), 2);
  EXPECT_EQ(cache.entries(), 2);
  std::vector<LookupResult> out;
  EXPECT_FALSE(cache.Get(fp, 1, &out));
  EXPECT_FALSE(cache.Get(fp, 3, &out));
  EXPECT_TRUE(cache.Get(fp, 2, &out));
  EXPECT_TRUE(cache.Get(fp, 4, &out));

  // An all-new uid set (a server's Start compiles one) empties the
  // cache wholesale.
  cache.OnPublish({100, 101});
  EXPECT_EQ(cache.stale(), 4);
  EXPECT_EQ(cache.entries(), 0);
  EXPECT_EQ(cache.bytes(), 0);
}

TEST(QueryCacheTest, ClearDropsEverythingAsStale) {
  QueryCache cache(QueryCache::Options{});
  const QueryFingerprint fp{1, 2};
  cache.Put(fp, 1, MakeResults(1, 0));
  cache.Put(fp, 2, MakeResults(1, 1));
  cache.Clear();
  EXPECT_EQ(cache.entries(), 0);
  EXPECT_EQ(cache.bytes(), 0);
  EXPECT_EQ(cache.stale(), 2);
  std::vector<LookupResult> out;
  EXPECT_FALSE(cache.Get(fp, 1, &out));
}

// One forest + engine + cache fixture for the epoch-protocol tests.
struct EpochFixture {
  static constexpr int kShards = 4;

  EpochFixture() : forest(PqShape{2, 3}), cache(QueryCache::Options{}) {
    Rng rng(29);
    dict = std::make_shared<LabelDict>();
    for (TreeId id = 0; id < 30; ++id) {
      docs.push_back(GenerateDblpLike(dict, &rng, 60));
      forest.AddTree(id, docs.back());
    }
    engine = LookupEngine::Build(forest, kShards);
    query = BuildIndex(GenerateDblpLike(dict, &rng, 60), PqShape{2, 3});
  }

  ForestIndex forest;
  std::shared_ptr<LabelDict> dict;
  std::vector<Tree> docs;
  std::shared_ptr<const LookupEngine> engine;
  PqGramIndex query;
  QueryCache cache;
};

TEST(QueryCacheEpochTest, WarmLookupsHitAndStayBitIdentical) {
  EpochFixture fx;
  for (double tau : kTaus) {
    const std::vector<LookupResult> want = fx.forest.Lookup(fx.query, tau);
    const int64_t hits_before = fx.cache.hits();
    const int64_t misses_before = fx.cache.misses();
    ExpectSameResults(
        fx.engine->Lookup(fx.query, tau, nullptr, &fx.cache), want,
        "cold");
    EXPECT_EQ(fx.cache.misses() - misses_before, EpochFixture::kShards);
    ExpectSameResults(
        fx.engine->Lookup(fx.query, tau, nullptr, &fx.cache), want,
        "warm");
    EXPECT_EQ(fx.cache.hits() - hits_before, EpochFixture::kShards);
  }
}

TEST(QueryCacheEpochTest, TopKCachedMatchesForest) {
  EpochFixture fx;
  for (int k : {1, 3, 10, 50}) {
    const std::vector<LookupResult> want = fx.forest.TopK(fx.query, k);
    ExpectSameResults(
        fx.engine->TopK(fx.query, k, nullptr, &fx.cache), want,
        "cold topk");
    const int64_t hits_before = fx.cache.hits();
    ExpectSameResults(
        fx.engine->TopK(fx.query, k, nullptr, &fx.cache), want,
        "warm topk");
    EXPECT_EQ(fx.cache.hits() - hits_before, EpochFixture::kShards);
  }
}

TEST(QueryCacheEpochTest, HostileTauAndNonPositiveKBypassCache) {
  EpochFixture fx;
  const double hostile[] = {-0.5, -1e308,
                            -std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()};
  for (double tau : hostile) {
    EXPECT_TRUE(
        fx.engine->Lookup(fx.query, tau, nullptr, &fx.cache)
            .empty());
  }
  EXPECT_TRUE(
      fx.engine->TopK(fx.query, 0, nullptr, &fx.cache).empty());
  EXPECT_TRUE(
      fx.engine->TopK(fx.query, -3, nullptr, &fx.cache).empty());
  EXPECT_EQ(fx.cache.hits(), 0);
  EXPECT_EQ(fx.cache.misses(), 0);
  EXPECT_EQ(fx.cache.entries(), 0);
}

TEST(QueryCacheEpochTest, IncrementalPublishKeepsUntouchedShardsWarm) {
  EpochFixture fx;
  // Warm every shard for one (query, tau) key.
  const double tau = 0.8;
  fx.engine->Lookup(fx.query, tau, nullptr, &fx.cache);
  ASSERT_EQ(fx.cache.entries(), EpochFixture::kShards);

  // Edit one tree; ApplyDelta rewrites only its shard and shares the
  // rest, which the uid sets make directly observable.
  Rng rng(31);
  EditLog log;
  GenerateEditScript(&fx.docs[5], &rng, 8, EditScriptOptions{}, &log);
  ASSERT_TRUE(fx.forest.ApplyLog(5, fx.docs[5], log).ok());
  auto next = LookupEngine::ApplyDelta(fx.engine, fx.forest, {5});

  const std::vector<uint64_t> old_uids = fx.engine->ShardUids();
  const std::vector<uint64_t> new_uids = next->ShardUids();
  ASSERT_EQ(new_uids.size(), old_uids.size());
  int64_t shared = 0;
  for (uint64_t uid : new_uids) {
    for (uint64_t old : old_uids) shared += uid == old ? 1 : 0;
  }
  ASSERT_GT(shared, 0);
  ASSERT_LT(shared, EpochFixture::kShards);

  fx.cache.OnPublish(new_uids);
  EXPECT_EQ(fx.cache.stale(), EpochFixture::kShards - shared);
  EXPECT_EQ(fx.cache.entries(), shared);

  // The same query against the new snapshot hits the shared shards,
  // misses exactly the recompiled ones, and stays bit-identical.
  const int64_t hits_before = fx.cache.hits();
  const int64_t misses_before = fx.cache.misses();
  ExpectSameResults(next->Lookup(fx.query, tau, nullptr, &fx.cache),
                    fx.forest.Lookup(fx.query, tau), "incremental warm");
  EXPECT_EQ(fx.cache.hits() - hits_before, shared);
  EXPECT_EQ(fx.cache.misses() - misses_before,
            EpochFixture::kShards - shared);

  // A from-scratch Build (only a server's Start compiles one) mints
  // all-new uids: publishing its uid set empties the cache wholesale and
  // the next lookup misses on every shard.
  auto rebuilt = LookupEngine::Build(fx.forest, EpochFixture::kShards);
  for (uint64_t uid : rebuilt->ShardUids()) {
    for (uint64_t old : new_uids) EXPECT_NE(uid, old);
  }
  fx.cache.OnPublish(rebuilt->ShardUids());
  EXPECT_EQ(fx.cache.entries(), 0);
  const int64_t misses_cold = fx.cache.misses();
  ExpectSameResults(
      rebuilt->Lookup(fx.query, tau, nullptr, &fx.cache),
      fx.forest.Lookup(fx.query, tau), "post rebuild");
  EXPECT_EQ(fx.cache.misses() - misses_cold, EpochFixture::kShards);
}

// An ephemeral apply-then-revert burst recompiles the touched shard
// twice. The reverted snapshot's content is bit-identical to the
// pre-burst snapshot, but the recompiled shard carries a fresh uid --
// so the cache must miss there (it can never resurrect the pre-burst
// entry for content that was rebuilt) while every untouched shard stays
// warm and answers remain bit-identical throughout.
TEST(QueryCacheEpochTest, RevertedBurstNeverServesStaleHits) {
  EpochFixture fx;
  const double tau = 0.8;
  const std::vector<LookupResult> pre =
      fx.engine->Lookup(fx.query, tau, nullptr, &fx.cache);
  ASSERT_EQ(fx.cache.entries(), EpochFixture::kShards);

  // Burst: edit one tree's bag and publish, then restore the original
  // bag and publish again -- the workload driver's ephemeral burst in
  // miniature (two incremental publishes, net content change zero).
  const TreeId victim = 5;
  const PqGramIndex original = *fx.forest.Find(victim);
  PqGramIndex edited = original;
  edited.Add(static_cast<PqGramFingerprint>(0xdeadbeefcafef00d), 3);
  fx.forest.AddIndex(victim, edited);
  auto mid = LookupEngine::ApplyDelta(fx.engine, fx.forest, {victim});
  fx.cache.OnPublish(mid->ShardUids());
  // Publishing the mid epoch reclaims exactly the touched shard's entry.
  EXPECT_EQ(fx.cache.stale(), 1);
  EXPECT_EQ(fx.cache.entries(), EpochFixture::kShards - 1);

  fx.forest.AddIndex(victim, original);
  auto post = LookupEngine::ApplyDelta(mid, fx.forest, {victim});
  fx.cache.OnPublish(post->ShardUids());

  // Content restored exactly...
  EXPECT_EQ(*fx.forest.Find(victim), original);
  EXPECT_EQ(post->size(), fx.engine->size());
  EXPECT_EQ(post->posting_entries(), fx.engine->posting_entries());

  // ...behind a fresh uid on the recompiled shard: the next lookup
  // hits every shared shard and misses exactly the rebuilt one. A
  // stale hit would show up as kShards hits here (or as a result
  // mismatch if the pre-burst entry had diverged).
  int64_t hits_before = fx.cache.hits();
  const int64_t misses_before = fx.cache.misses();
  ExpectSameResults(post->Lookup(fx.query, tau, nullptr, &fx.cache),
                    pre, "post-revert cold");
  EXPECT_EQ(fx.cache.hits() - hits_before, EpochFixture::kShards - 1);
  EXPECT_EQ(fx.cache.misses() - misses_before, 1);

  // The miss repopulated the fresh uid's entry: fully warm now.
  hits_before = fx.cache.hits();
  ExpectSameResults(post->Lookup(fx.query, tau, nullptr, &fx.cache),
                    pre, "post-revert warm");
  EXPECT_EQ(fx.cache.hits() - hits_before, EpochFixture::kShards);
}

// Readers hammer cache-enabled lookups while a
// writer edits trees, publishes ApplyDelta snapshots, and reclaims dead
// uids -- the server's publish path in miniature. TSan'd in CI.
TEST(QueryCacheStressTest, CachedLookupsRaceSnapshotSwaps) {
  const PqShape shape{2, 3};
  ForestIndex forest(shape);
  Rng rng(67);
  auto dict = std::make_shared<LabelDict>();
  std::vector<Tree> docs;
  for (TreeId id = 0; id < 16; ++id) {
    docs.push_back(GenerateDblpLike(dict, &rng, 50));
    forest.AddTree(id, docs.back());
  }

  QueryCache cache(QueryCache::Options{});
  std::mutex engine_mutex;
  std::shared_ptr<const LookupEngine> engine = LookupEngine::Build(forest, 4);
  std::atomic<bool> stop{false};
  std::atomic<int64_t> lookups_done{0};

  std::thread writer([&] {
    Rng wrng(71);
    auto current = engine;
    for (int round = 0; round < 40; ++round) {
      const TreeId id = static_cast<TreeId>(wrng.NextBounded(docs.size()));
      EditLog log;
      GenerateEditScript(&docs[id], &wrng, 6, EditScriptOptions{}, &log);
      ASSERT_TRUE(forest.ApplyLog(id, docs[id], log).ok());
      current = LookupEngine::ApplyDelta(current, forest, {id});
      {
        std::lock_guard<std::mutex> lock(engine_mutex);
        engine = current;
      }
      cache.OnPublish(current->ShardUids());
    }
    stop.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      Rng rrng(300 + r);
      auto query_doc = GenerateDblpLike(nullptr, &rrng, 50);
      PqGramIndex query = BuildIndex(query_doc, shape);
      while (!stop.load()) {
        std::shared_ptr<const LookupEngine> snapshot;
        {
          std::lock_guard<std::mutex> lock(engine_mutex);
          snapshot = engine;
        }
        std::vector<LookupResult> hits =
            snapshot->Lookup(query, 0.9, nullptr, &cache);
        for (size_t i = 1; i < hits.size(); ++i) {
          ASSERT_TRUE(hits[i - 1].distance < hits[i].distance ||
                      (hits[i - 1].distance == hits[i].distance &&
                       hits[i - 1].tree_id < hits[i].tree_id));
        }
        std::vector<LookupResult> top =
            snapshot->TopK(query, 5, nullptr, &cache);
        ASSERT_LE(top.size(), 5u);
        lookups_done.fetch_add(1);
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_GT(lookups_done.load(), 0);

  // The cache survived 40 publishes; the final snapshot still answers
  // bit-identically through it, cold and warm.
  PqGramIndex final_query = BuildIndex(docs[0], shape);
  for (double tau : kTaus) {
    const std::vector<LookupResult> want = forest.Lookup(final_query, tau);
    ExpectSameResults(
        engine->Lookup(final_query, tau, nullptr, &cache), want,
        "post-hammer cold");
    ExpectSameResults(
        engine->Lookup(final_query, tau, nullptr, &cache), want,
        "post-hammer warm");
  }
}

}  // namespace
}  // namespace pqidx
