// Tests for the read-optimized lookup engine: bit-identical equivalence
// with ForestIndex::Lookup / InvertedForestIndex::Lookup across tau
// sweeps (including tau >= 1 and empty bags), TopK equivalence, edit-log
// evolution, pruning accounting, and concurrent lookups racing snapshot
// swaps (run under TSan in CI).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/forest_index.h"
#include "core/inverted_index.h"
#include "core/lookup_engine.h"
#include "core/query_cache.h"
#include "core/simd_intersect.h"
#include "edit/edit_script.h"
#include "tree/generators.h"
#include "tree/tree_builder.h"

namespace pqidx {
namespace {

constexpr double kTaus[] = {0.0, 0.1, 0.3, 0.5, 0.7, 0.9,
                            0.99, 1.0, 1.5};

Tree MustParse(std::string_view notation) {
  StatusOr<Tree> tree = ParseTreeNotation(notation);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  return std::move(tree).value();
}

// Bit-identical: same ids, same order, same double bit patterns.
void ExpectSameResults(const std::vector<LookupResult>& got,
                       const std::vector<LookupResult>& want,
                       const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].tree_id, want[i].tree_id) << what << " position " << i;
    EXPECT_EQ(got[i].distance, want[i].distance) << what << " position " << i;
  }
}

// Restores the process-wide kernel selection on scope exit so a failing
// SIMD test cannot leak a forced kernel into later tests.
class ScopedSimdKernel {
 public:
  ScopedSimdKernel() : saved_(ActiveSimdKernel()) {}
  ~ScopedSimdKernel() { SetSimdKernelForTesting(saved_); }
  ScopedSimdKernel(const ScopedSimdKernel&) = delete;
  ScopedSimdKernel& operator=(const ScopedSimdKernel&) = delete;

 private:
  SimdKernel saved_;
};

constexpr SimdKernel kAllKernels[] = {SimdKernel::kScalar, SimdKernel::kSse41,
                                      SimdKernel::kAvx2, SimdKernel::kNeon};

// Every bag the snapshot rebuilds equals the forest's: FindBag for each
// tree (empty bags and wide counts included) and ToForest as a whole.
// Ids the snapshot does not hold -- between its trees, below the first
// shard's range, above the last's, at the TreeId extremes -- rebuild to
// nothing.
void ExpectBagsRebuild(const LookupEngine& engine, const ForestIndex& forest,
                       const char* what) {
  const std::vector<TreeId> ids = forest.TreeIds();
  for (TreeId id : ids) {
    const std::optional<PqGramIndex> bag = engine.FindBag(id);
    ASSERT_TRUE(bag.has_value()) << what << " tree " << id;
    EXPECT_TRUE(*bag == *forest.Find(id)) << what << " tree " << id;
  }
  EXPECT_TRUE(engine.ToForest() == forest) << what;
  std::vector<TreeId> absent = {std::numeric_limits<TreeId>::min(),
                                std::numeric_limits<TreeId>::max()};
  if (!ids.empty()) {
    for (TreeId id = ids.front() - 3; id <= ids.back() + 3; ++id) {
      if (forest.Find(id) == nullptr) absent.push_back(id);
    }
  }
  for (TreeId id : absent) {
    EXPECT_FALSE(engine.FindBag(id).has_value()) << what << " id " << id;
  }
}

// A snapshot derived by ApplyDelta must be structurally sound and answer
// Lookup and TopK bit-identically to a from-scratch Build of the same
// forest (and to the scan), under every SIMD kernel this machine can
// run.
void ExpectMatchesFreshBuild(const LookupEngine& engine,
                             const ForestIndex& forest,
                             const std::vector<PqGramIndex>& queries,
                             const char* what) {
  const Status sound = engine.CheckInvariants();
  ASSERT_TRUE(sound.ok()) << what << ": " << sound.ToString();
  ASSERT_EQ(engine.size(), forest.size()) << what;
  auto fresh = LookupEngine::Build(forest, 4);
  ASSERT_EQ(engine.posting_entries(), fresh->posting_entries()) << what;
  ExpectBagsRebuild(engine, forest, what);
  ScopedSimdKernel restore;
  for (SimdKernel kernel : kAllKernels) {
    if (!SetSimdKernelForTesting(kernel)) continue;
    for (const PqGramIndex& query : queries) {
      for (double tau : kTaus) {
        const std::vector<LookupResult> want = fresh->Lookup(query, tau);
        ExpectSameResults(engine.Lookup(query, tau), want, what);
        ExpectSameResults(want, forest.Lookup(query, tau), what);
      }
      for (int k : {1, 5, 100}) {
        const std::vector<LookupResult> want = fresh->TopK(query, k);
        ExpectSameResults(engine.TopK(query, k), want, what);
        ExpectSameResults(want, forest.TopK(query, k), what);
      }
    }
  }
}

// Checks one engine snapshot against the scan for every tau in the sweep,
// with 1..n shards.
void ExpectEngineMatchesScan(const ForestIndex& forest,
                             const PqGramIndex& query) {
  for (int shards : {1, 3, 8}) {
    auto engine = LookupEngine::Build(forest, shards);
    ASSERT_EQ(engine->size(), forest.size());
    for (double tau : kTaus) {
      std::vector<LookupResult> want = forest.Lookup(query, tau);
      ExpectSameResults(engine->Lookup(query, tau), want, "engine");
    }
  }
}

TEST(LookupEngineTest, MatchesScanOnSmallForest) {
  ForestIndex forest(PqShape{2, 2});
  forest.AddTree(1, MustParse("a(b,c)"));
  forest.AddTree(2, MustParse("a(b,x)"));
  forest.AddTree(3, MustParse("z(w)"));
  InvertedForestIndex inverted(forest);

  Tree query = MustParse("a(b,c)");
  PqGramIndex bag = BuildIndex(query, PqShape{2, 2});
  ExpectEngineMatchesScan(forest, bag);

  // Building from the inverted postings yields the same snapshot.
  auto from_inverted = LookupEngine::Build(inverted, 2);
  for (double tau : kTaus) {
    ExpectSameResults(from_inverted->Lookup(bag, tau),
                      forest.Lookup(bag, tau), "from inverted");
  }
}

TEST(LookupEngineTest, EmptyEngineAndEmptyBags) {
  const PqShape shape{2, 3};
  ForestIndex forest(shape);
  auto empty_engine = LookupEngine::Build(forest, 4);
  EXPECT_EQ(empty_engine->size(), 0);
  EXPECT_TRUE(empty_engine->Lookup(PqGramIndex(shape), 1.0).empty());
  EXPECT_TRUE(empty_engine->TopK(PqGramIndex(shape), 5).empty());

  // A forest mixing empty and non-empty bags: two empty bags are at
  // distance 0 (union 0), an empty vs non-empty bag at distance 1.
  forest.AddIndex(7, PqGramIndex(shape));
  forest.AddIndex(9, PqGramIndex(shape));
  Rng rng(3);
  auto dict = std::make_shared<LabelDict>();
  for (TreeId id = 0; id < 6; ++id) {
    forest.AddTree(id, GenerateDblpLike(dict, &rng, 30));
  }

  const PqGramIndex empty_query(shape);
  const PqGramIndex full_query =
      BuildIndex(GenerateDblpLike(dict, &rng, 30), shape);
  ExpectEngineMatchesScan(forest, empty_query);
  ExpectEngineMatchesScan(forest, full_query);

  // The empty query must find exactly the two empty-bag trees at tau 0.
  auto engine = LookupEngine::Build(forest, 2);
  ExpectBagsRebuild(*engine, forest, "empty bags");
  ExpectBagsRebuild(*empty_engine, ForestIndex(shape), "empty engine");
  std::vector<LookupResult> hits = engine->Lookup(empty_query, 0.0);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].tree_id, 7);
  EXPECT_EQ(hits[1].tree_id, 9);
  EXPECT_EQ(hits[0].distance, 0.0);

  // The inverted index agrees on the empty-query edge case too.
  InvertedForestIndex inverted(forest);
  for (double tau : kTaus) {
    ExpectSameResults(inverted.Lookup(empty_query, tau),
                      forest.Lookup(empty_query, tau), "inverted empty");
  }
}

// Distances are never negative, so tau < 0 (however hostile: -inf, a
// huge negative, NaN) matches nothing -- on every structure, without
// hanging, aborting, or tripping UB. The forest includes an empty bag
// and the sweep an empty query, the one pair whose distance-0 result
// used to be appended unconditionally.
TEST(LookupEngineTest, HostileTauMatchesScanExactly) {
  const PqShape shape{2, 2};
  ForestIndex forest(shape);
  forest.AddIndex(3, PqGramIndex(shape));
  forest.AddTree(1, MustParse("a(b,c)"));
  forest.AddTree(2, MustParse("a(b,x)"));
  InvertedForestIndex inverted(forest);
  auto engine = LookupEngine::Build(forest, 2);

  const double hostile[] = {-0.5, -1.0, -1e308,
                            -std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()};
  const PqGramIndex queries[] = {BuildIndex(MustParse("a(b,c)"), shape),
                                 PqGramIndex(shape)};
  for (const PqGramIndex& query : queries) {
    for (double tau : hostile) {
      EXPECT_TRUE(forest.Lookup(query, tau).empty());
      EXPECT_TRUE(inverted.Lookup(query, tau).empty());
      EXPECT_TRUE(engine->Lookup(query, tau).empty());
    }
  }
}

// Posting counts above INT32_MAX (legitimately reachable by
// accumulating edit deltas) must compile -- a live server republishes
// snapshots from such forests -- and must score exactly, not clamped.
TEST(LookupEngineTest, CountsBeyondInt32CompileAndScoreExactly) {
  const PqShape shape{2, 2};
  const int64_t kWide = int64_t{3} << 31;  // > INT32_MAX
  Tree doc = MustParse("a(b,c)");
  PqGramIndex huge = BuildIndex(doc, shape);
  const PqGramFingerprint fp = huge.counts().begin()->first;
  huge.Add(fp, kWide);

  ForestIndex forest(shape);
  forest.AddIndex(1, huge);
  forest.AddTree(2, MustParse("a(b,x)"));
  InvertedForestIndex inverted(forest);

  // The query's multiplicity for `fp` also exceeds int32, so
  // min(qcount, count) is decided by the exact wide count: a clamp at
  // INT32_MAX would shift the distance and fail the bit-identity check.
  PqGramIndex query = BuildIndex(doc, shape);
  query.Add(fp, kWide + 12345);

  ExpectEngineMatchesScan(forest, query);
  ExpectEngineMatchesScan(forest, BuildIndex(doc, shape));
  auto engine = LookupEngine::Build(inverted, 2);
  for (double tau : kTaus) {
    ExpectSameResults(engine->Lookup(query, tau), forest.Lookup(query, tau),
                      "wide counts from inverted");
  }
  ExpectSameResults(engine->TopK(query, 2), forest.TopK(query, 2),
                    "wide counts topk");
}

TEST(LookupEngineTest, ThreeWayEquivalenceOnRandomForests) {
  Rng rng(17);
  auto dict = std::make_shared<LabelDict>();
  for (int round = 0; round < 3; ++round) {
    const PqShape shape{2 + round % 2, 2 + round};
    ForestIndex forest(shape);
    InvertedForestIndex inverted(shape);
    const int trees = 20 + 15 * round;
    for (TreeId id = 0; id < trees; ++id) {
      Tree doc = round % 2 == 0 ? GenerateXmarkLike(dict, &rng, 120)
                                : GenerateDblpLike(dict, &rng, 80);
      forest.AddTree(id, doc);
      inverted.AddTree(id, doc);
    }
    inverted.CheckConsistency();

    for (int trial = 0; trial < 4; ++trial) {
      PqGramIndex query = BuildIndex(
          GenerateXmarkLike(dict, &rng, 120), shape);
      ExpectEngineMatchesScan(forest, query);
      auto engine = LookupEngine::Build(inverted, 5);
      for (double tau : kTaus) {
        std::vector<LookupResult> want = forest.Lookup(query, tau);
        ExpectSameResults(inverted.Lookup(query, tau), want, "inverted");
        ExpectSameResults(engine->Lookup(query, tau), want,
                          "engine from inverted");
      }
    }
  }
}

TEST(LookupEngineTest, StaysEquivalentAcrossEditLogEvolution) {
  Rng rng(29);
  auto dict = std::make_shared<LabelDict>();
  const PqShape shape{2, 3};
  ForestIndex forest(shape);
  InvertedForestIndex inverted(shape);
  std::vector<Tree> docs;
  for (TreeId id = 0; id < 12; ++id) {
    docs.push_back(GenerateDblpLike(dict, &rng, 60));
    forest.AddTree(id, docs.back());
    inverted.AddTree(id, docs.back());
  }

  for (int round = 0; round < 5; ++round) {
    // Edit a few documents through the incremental path on both
    // maintainable structures, then recompile the snapshot.
    for (int e = 0; e < 4; ++e) {
      const TreeId id = static_cast<TreeId>(rng.NextBounded(docs.size()));
      EditLog log;
      GenerateEditScript(&docs[id], &rng, 12, EditScriptOptions{}, &log);
      ASSERT_TRUE(forest.ApplyLog(id, docs[id], log).ok());
      ASSERT_TRUE(inverted.ApplyLog(id, docs[id], log).ok());
    }
    inverted.CheckConsistency();

    PqGramIndex query = BuildIndex(
        docs[rng.NextBounded(docs.size())], shape);
    auto engine = LookupEngine::Build(inverted, 1 + round);
    for (double tau : kTaus) {
      std::vector<LookupResult> want = forest.Lookup(query, tau);
      ExpectSameResults(inverted.Lookup(query, tau), want, "inverted");
      ExpectSameResults(engine->Lookup(query, tau), want, "engine");
    }
  }
}

TEST(LookupEngineTest, TopKMatchesForestIndex) {
  Rng rng(41);
  auto dict = std::make_shared<LabelDict>();
  const PqShape shape{2, 3};
  ForestIndex forest(shape);
  for (TreeId id = 0; id < 40; ++id) {
    forest.AddTree(id, GenerateXmarkLike(dict, &rng, 90));
  }
  for (int shards : {1, 4}) {
    auto engine = LookupEngine::Build(forest, shards);
    for (int trial = 0; trial < 3; ++trial) {
      PqGramIndex query = BuildIndex(
          GenerateXmarkLike(dict, &rng, 90), shape);
      for (int k : {0, 1, 3, 10, 40, 100}) {
        std::vector<LookupResult> want = forest.TopK(query, k);
        ExpectSameResults(engine->TopK(query, k), want, "topk");
      }
    }
  }
}

TEST(LookupEngineTest, PruningStatsAccounting) {
  Rng rng(53);
  auto dict = std::make_shared<LabelDict>();
  const PqShape shape{2, 3};
  ForestIndex forest(shape);
  for (TreeId id = 0; id < 60; ++id) {
    forest.AddTree(id, GenerateXmarkLike(dict, &rng, 100));
  }
  auto engine = LookupEngine::Build(forest, 4);
  EXPECT_GT(engine->posting_entries(), 0);
  PqGramIndex query = BuildIndex(
      GenerateXmarkLike(dict, &rng, 100), shape);

  // Selective tau: every candidate is either pruned mid-accumulation or
  // reaches the final test; nothing is double-counted.
  LookupEngineStats selective;
  engine->Lookup(query, 0.2, &selective);
  EXPECT_GT(selective.candidates, 0);
  EXPECT_GT(selective.postings_scanned, 0);
  EXPECT_EQ(selective.pruned + selective.scored, selective.candidates);

  // tau >= 1 admits everything: no pruning, every tree scored.
  LookupEngineStats everything;
  std::vector<LookupResult> all = engine->Lookup(query, 1.0, &everything);
  EXPECT_EQ(all.size(), static_cast<size_t>(forest.size()));
  EXPECT_EQ(everything.pruned, 0);
  EXPECT_EQ(everything.scored, forest.size());

  // A tighter tau never scores more candidates than a looser one.
  LookupEngineStats loose;
  engine->Lookup(query, 0.8, &loose);
  EXPECT_LE(selective.scored, loose.scored);
}

// The taus the prefix-cut oracle sweeps: exact, selective, middling and
// loose, everything-qualifies, and two hostile values.
constexpr double kCutTaus[] = {0.0, 0.2, 0.5, 0.8, 1.0,
                               std::numeric_limits<double>::quiet_NaN(),
                               -std::numeric_limits<double>::infinity()};

// Every Lookup and TopK answer of `engine` equals the scan's bit for
// bit, scored directly and through a QueryCache both cold and warm.
void ExpectOracleAnswers(const LookupEngine& engine,
                         const ForestIndex& forest,
                         const std::vector<PqGramIndex>& queries,
                         const char* what) {
  ASSERT_TRUE(engine.CheckInvariants().ok()) << what;
  QueryCache cache(QueryCache::Options{});
  for (const PqGramIndex& query : queries) {
    for (double tau : kCutTaus) {
      const std::vector<LookupResult> want = forest.Lookup(query, tau);
      LookupEngineStats stats;
      ExpectSameResults(engine.Lookup(query, tau, &stats), want, what);
      if (tau >= 0.0 && tau < 1.0) {
        EXPECT_EQ(stats.pruned + stats.scored, stats.candidates) << what;
      }
      for (int pass = 0; pass < 2; ++pass) {
        ExpectSameResults(engine.Lookup(query, tau, nullptr, &cache), want,
                          what);
      }
    }
    for (int k : {1, 3, 10}) {
      const std::vector<LookupResult> want = forest.TopK(query, k);
      ExpectSameResults(engine.TopK(query, k), want, what);
      for (int pass = 0; pass < 2; ++pass) {
        ExpectSameResults(engine.TopK(query, k, nullptr, &cache), want,
                          what);
      }
    }
  }
}

// The prefix cut (no candidate admitted once the remaining lists cannot
// lift an untouched tree to the shard's smallest bar) and the switch to
// galloping probes must never change an answer. The forest mixes shards
// of uniformly large trees (an early cut) with shards where a tiny tree
// or an empty bag sets a low floor (a late or no cut), carries counts
// above INT32_MAX, and is scored as one shard, four, one tree per shard,
// and as an ApplyDelta chain grown, edited and shrunk from a Build. The
// queries are near-copies of forest trees (few live candidates past the
// cut, so the probes run), a tiny tree, a random document, a wide-count
// query and the empty query.
TEST(LookupEngineTest, PrefixCutMatchesScanOracle) {
  const PqShape shape{2, 3};
  const int64_t kWide = int64_t{3} << 31;  // > INT32_MAX
  Rng rng(107);
  auto dict = std::make_shared<LabelDict>();
  ForestIndex forest(shape);
  constexpr TreeId kTrees = 64;
  for (TreeId id = 0; id < kTrees; ++id) {
    // The first half is uniformly large; in the second half every third
    // tree is tiny.
    const bool tiny = id >= kTrees / 2 && id % 3 == 0;
    forest.AddTree(id, tiny ? MustParse("a(b)")
                            : GenerateDblpLike(dict, &rng, 60 + 4 * (id % 30)));
  }
  forest.AddIndex(kTrees + 1, PqGramIndex(shape));
  const Tree wide_doc = MustParse("a(b,c)");
  PqGramIndex wide_bag = BuildIndex(wide_doc, shape);
  const PqGramFingerprint wide_fp = wide_bag.counts().begin()->first;
  wide_bag.Add(wide_fp, kWide);
  forest.AddIndex(kTrees + 2, wide_bag);

  std::vector<PqGramIndex> queries;
  for (TreeId base : {TreeId{5}, TreeId{21}, TreeId{40}, TreeId{61}}) {
    // A near-copy: one occurrence dropped and a foreign tuple added.
    PqGramIndex query = *forest.Find(base);
    query.Remove(query.counts().begin()->first);
    query.Add(PqGramFingerprint{0x5eed0000 + static_cast<uint64_t>(base)});
    queries.push_back(std::move(query));
  }
  queries.push_back(BuildIndex(MustParse("a(b)"), shape));
  queries.push_back(BuildIndex(GenerateDblpLike(dict, &rng, 80), shape));
  PqGramIndex wide_query = BuildIndex(wide_doc, shape);
  wide_query.Add(wide_fp, kWide + 12345);
  queries.push_back(std::move(wide_query));
  queries.push_back(PqGramIndex(shape));

  for (int shards : {1, 4, forest.size()}) {
    auto engine = LookupEngine::Build(forest, shards);
    ExpectOracleAnswers(*engine, forest, queries, "built");
    // The cut must actually bite: a near-copy at tau 0.2 visits fewer
    // postings than the uncut walk at tau 1.
    LookupEngineStats cut, whole;
    engine->Lookup(queries.front(), 0.2, &cut);
    engine->Lookup(queries.front(), 1.0, &whole);
    EXPECT_LT(cut.postings_scanned, whole.postings_scanned)
        << shards << " shards";
  }

  // An ApplyDelta chain from a Build of the first half: the second half
  // arrives in batches, then trees are edited (a large tree becomes
  // tiny and a tiny one large, moving shard floors) and removed.
  ForestIndex partial(shape);
  for (TreeId id = 0; id < kTrees / 2; ++id) {
    partial.AddIndex(id, *forest.Find(id));
  }
  auto engine = LookupEngine::Build(partial, 4);
  std::vector<TreeId> ids = forest.TreeIds();
  for (size_t begin = kTrees / 2; begin < ids.size(); begin += 12) {
    const std::vector<TreeId> batch(
        ids.begin() + static_cast<long>(begin),
        ids.begin() + static_cast<long>(std::min(ids.size(), begin + 12)));
    for (TreeId id : batch) partial.AddIndex(id, *forest.Find(id));
    engine = LookupEngine::ApplyDelta(engine, partial, batch);
    ExpectOracleAnswers(*engine, partial, queries, "grown");
  }
  partial.AddIndex(7, BuildIndex(MustParse("a(b)"), shape));
  partial.AddIndex(33, BuildIndex(GenerateDblpLike(dict, &rng, 150), shape));
  ASSERT_TRUE(partial.RemoveTree(40));
  ASSERT_TRUE(partial.RemoveTree(kTrees + 1));
  engine = LookupEngine::ApplyDelta(engine, partial, {7, 33, 40, kTrees + 1});
  ExpectOracleAnswers(*engine, partial, queries, "edited");
}

// Incremental snapshot maintenance: a randomized edit log evolves the
// forest (updates, inserts below the first shard and above the last,
// removals, re-inserts, a whole shard emptied) while ApplyDelta chains
// snapshot to snapshot. Trees with counts above INT32_MAX move into and
// out of patched shards, and one stays put while its shard is patched
// around it; an empty bag stays put too. Every epoch must be
// structurally sound, rebuild every bag, and answer exactly like a
// from-scratch Build AND the scan. A second chain is fed only the
// changed bags (the relaxed ApplyDelta contract pqidxd relies on) and
// must produce the same snapshot: same shard sizes and postings, and
// the same bags, which together fix every arena.
TEST(LookupEngineTest, ApplyDeltaTracksEditLogEvolution) {
  Rng rng(83);
  auto dict = std::make_shared<LabelDict>();
  const PqShape shape{2, 3};
  const int64_t kWide = int64_t{3} << 31;  // > INT32_MAX
  ForestIndex forest(shape);
  std::map<TreeId, Tree> docs;
  // Ids spaced by 10 leave room to insert inside every shard's range.
  for (TreeId id = 100; id < 240; id += 10) {
    Tree doc = GenerateDblpLike(dict, &rng, 50);
    forest.AddTree(id, doc);
    docs.insert_or_assign(id, std::move(doc));
  }
  const Tree wide_doc = MustParse("a(b,c)");
  PqGramIndex wide_bag = BuildIndex(wide_doc, shape);
  const PqGramFingerprint wide_fp = wide_bag.counts().begin()->first;
  wide_bag.Add(wide_fp, kWide);
  // Never edited itself; its shard is patched around it.
  const TreeId kStayingWide = 155;
  forest.AddIndex(kStayingWide, wide_bag);
  forest.AddIndex(175, PqGramIndex(shape));

  std::vector<PqGramIndex> queries;
  queries.push_back(BuildIndex(docs.begin()->second, shape));
  PqGramIndex wide_query = BuildIndex(wide_doc, shape);
  wide_query.Add(wide_fp, kWide + 12345);
  queries.push_back(std::move(wide_query));

  auto engine = LookupEngine::Build(forest, 4);
  ExpectBagsRebuild(*engine, forest, "built");
  std::shared_ptr<const LookupEngine> from_changed = engine;
  TreeId next_high = 300;
  TreeId next_low = 99;
  TreeId moving_wide = -1;  // a wide tree inserted, edited, removed
  for (int round = 0; round < 10; ++round) {
    std::vector<TreeId> changed;
    // Update a few documents through their edit logs.
    for (int e = 0; e < 3; ++e) {
      auto it = docs.begin();
      std::advance(it, static_cast<long>(rng.NextBounded(docs.size())));
      EditLog log;
      GenerateEditScript(&it->second, &rng, 10, EditScriptOptions{}, &log);
      ASSERT_TRUE(forest.ApplyLog(it->first, it->second, log).ok());
      changed.push_back(it->first);
    }
    // Remove one tree (the changed list carries the id; ApplyDelta sees
    // it absent from the forest).
    if (round % 2 == 0 && docs.size() > 4) {
      auto it = docs.begin();
      std::advance(it, static_cast<long>(rng.NextBounded(docs.size())));
      ASSERT_TRUE(forest.RemoveTree(it->first));
      changed.push_back(it->first);
      docs.erase(it);
    }
    // Insert a brand-new tree, alternately below the first shard's range
    // and above the last's.
    {
      const TreeId id = round % 2 == 0 ? next_high++ : next_low--;
      Tree doc = GenerateDblpLike(dict, &rng, 50);
      forest.AddTree(id, doc);
      changed.push_back(id);
      docs.insert_or_assign(id, std::move(doc));
    }
    // A wide-count tree moves into a shard's range, has its wide count
    // grow, then leaves again.
    if (round % 3 == 0) {
      moving_wide = 201 + round;
      forest.AddIndex(moving_wide, wide_bag);
      changed.push_back(moving_wide);
    } else if (round % 3 == 1) {
      PqGramIndex grown = wide_bag;
      grown.Add(wide_fp, 7);
      forest.AddIndex(moving_wide, grown);
      changed.push_back(moving_wide);
    } else {
      ASSERT_TRUE(forest.RemoveTree(moving_wide));
      changed.push_back(moving_wide);
    }
    // Once, on a round whose insert goes above the last shard, empty the
    // first shard entirely.
    if (round == 4) {
      const int first = engine->ShardSizes().front();
      const std::vector<TreeId> ids = forest.TreeIds();
      for (int i = 0; i < first; ++i) {
        ASSERT_NE(ids[static_cast<size_t>(i)], kStayingWide);
        ASSERT_NE(ids[static_cast<size_t>(i)], 175);
        ASSERT_TRUE(forest.RemoveTree(ids[static_cast<size_t>(i)]));
        changed.push_back(ids[static_cast<size_t>(i)]);
        docs.erase(ids[static_cast<size_t>(i)]);
      }
    }

    engine = LookupEngine::ApplyDelta(engine, forest, changed);
    queries.front() = BuildIndex(docs.begin()->second, shape);
    ExpectMatchesFreshBuild(*engine, forest, queries, "incremental");

    ForestIndex changed_bags(shape);
    for (TreeId id : changed) {
      if (const PqGramIndex* bag = forest.Find(id)) {
        changed_bags.AddIndex(id, *bag);
      }
    }
    from_changed =
        LookupEngine::ApplyDelta(from_changed, changed_bags, changed);
    ASSERT_TRUE(from_changed->CheckInvariants().ok());
    EXPECT_EQ(from_changed->ShardSizes(), engine->ShardSizes());
    EXPECT_EQ(from_changed->posting_entries(), engine->posting_entries());
    ExpectBagsRebuild(*from_changed, forest, "from changed bags");
    for (const PqGramIndex& query : queries) {
      ExpectSameResults(from_changed->Lookup(query, 0.5),
                        engine->Lookup(query, 0.5), "from changed bags");
      ExpectSameResults(from_changed->TopK(query, 5), engine->TopK(query, 5),
                        "from changed bags topk");
    }
  }
}

// ApplyDelta edge cases: identity on an empty changed list, full-build
// fallback from an empty snapshot, wide counts entering, moving within
// and leaving patched shards, ids routed below the first and above the
// last shard, a middle shard emptied, evolution down to an empty forest
// and back.
TEST(LookupEngineTest, ApplyDeltaEdgeCasesAndWideCounts) {
  const PqShape shape{2, 2};
  const int64_t kWide = int64_t{3} << 31;  // > INT32_MAX
  ForestIndex forest(shape);
  auto engine = LookupEngine::Build(forest, 3);

  // Empty changed list: the same snapshot comes back.
  EXPECT_EQ(LookupEngine::ApplyDelta(engine, forest, {}).get(),
            engine.get());

  // Empty previous snapshot: falls back to a full build at the shard
  // count the empty snapshot was built for (3, not the clamped 1).
  Tree doc = MustParse("a(b,c)");
  PqGramIndex huge = BuildIndex(doc, shape);
  const PqGramFingerprint fp = huge.counts().begin()->first;
  huge.Add(fp, kWide);
  forest.AddIndex(10, huge);
  forest.AddTree(20, MustParse("a(b,x)"));
  forest.AddIndex(30, PqGramIndex(shape));  // empty bag rides along
  engine = LookupEngine::ApplyDelta(engine, forest, {10, 20, 30});
  ASSERT_EQ(engine->size(), 3);
  EXPECT_EQ(engine->num_shards(), 3);

  PqGramIndex query = BuildIndex(doc, shape);
  query.Add(fp, kWide + 12345);
  const std::vector<PqGramIndex> queries = {query, PqGramIndex(shape)};
  ExpectMatchesFreshBuild(*engine, forest, queries,
                          "wide counts via ApplyDelta");
  const double hostile[] = {-0.5, -1.0, -1e308,
                            -std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()};
  for (double tau : hostile) {
    EXPECT_TRUE(engine->Lookup(query, tau).empty());
  }

  // Evolve the wide-count bag (still wide) through another delta.
  huge.Add(fp, 7);
  forest.AddIndex(10, huge);
  engine = LookupEngine::ApplyDelta(engine, forest, {10});
  ExpectMatchesFreshBuild(*engine, forest, queries,
                          "wide counts evolved");

  // A wide tree below the first shard's range and one above the last's;
  // a wide tree joins the middle shard beside its narrow tree.
  forest.AddIndex(5, huge);
  forest.AddIndex(40, huge);
  forest.AddIndex(25, huge);
  engine = LookupEngine::ApplyDelta(engine, forest, {5, 40, 25});
  ExpectMatchesFreshBuild(*engine, forest, queries,
                          "wide ids at both ends and inside");

  // The middle shard's narrow tree leaves while its wide neighbor stays
  // (the wide entry's arena index shifts), then the wide one leaves too,
  // emptying whatever shard held the pair.
  ASSERT_TRUE(forest.RemoveTree(20));
  engine = LookupEngine::ApplyDelta(engine, forest, {20});
  ExpectMatchesFreshBuild(*engine, forest, queries,
                          "wide entry shifted");
  ASSERT_TRUE(forest.RemoveTree(25));
  engine = LookupEngine::ApplyDelta(engine, forest, {25});
  ExpectMatchesFreshBuild(*engine, forest, queries,
                          "shard emptied");

  // A wide count shrinks back to narrow in place.
  forest.AddIndex(40, BuildIndex(doc, shape));
  engine = LookupEngine::ApplyDelta(engine, forest, {40});
  ExpectMatchesFreshBuild(*engine, forest, queries, "wide to narrow");

  // Remove everything, then repopulate from the empty snapshot.
  const std::vector<TreeId> all = forest.TreeIds();
  for (TreeId id : all) ASSERT_TRUE(forest.RemoveTree(id));
  engine = LookupEngine::ApplyDelta(engine, forest, all);
  ASSERT_EQ(engine->size(), 0);
  ASSERT_TRUE(engine->CheckInvariants().ok());
  EXPECT_TRUE(engine->Lookup(query, 1.0).empty());
  forest.AddTree(9, MustParse("a(b,c)"));
  engine = LookupEngine::ApplyDelta(engine, forest, {9});
  ASSERT_EQ(engine->size(), 1);
  ExpectMatchesFreshBuild(*engine, forest, queries,
                          "repopulated from empty");
}

// A snapshot built on an empty forest clamps to one shard but remembers
// the requested count: inserting ascending ids one ApplyDelta at a time
// (every id routes to the last shard) must split that shard as it grows
// and never leave a shard above 2 * ceil(n / target), while small
// neighbors merge so the shard count stays near the target.
TEST(LookupEngineTest, ApplyDeltaGrowsBalancedShardsFromAnEmptyStart) {
  const PqShape shape{2, 2};
  constexpr int kTarget = 16;
  constexpr int kTrees = 2000;
  Rng rng(97);
  ForestIndex forest(shape);
  auto engine = LookupEngine::Build(forest, kTarget);
  for (TreeId id = 0; id < kTrees; ++id) {
    PqGramIndex bag(shape);
    for (int t = 0; t < 4; ++t) {
      bag.Add(static_cast<PqGramFingerprint>(rng.NextBounded(64)), 1);
    }
    forest.AddIndex(id, bag);
    engine = LookupEngine::ApplyDelta(engine, forest, {id});
  }
  const Status sound = engine->CheckInvariants();
  ASSERT_TRUE(sound.ok()) << sound.ToString();
  ASSERT_EQ(engine->size(), kTrees);
  const std::vector<int> sizes = engine->ShardSizes();
  EXPECT_GT(sizes.size(), 1u);
  EXPECT_LE(sizes.size(), 2u * kTarget + 1);
  const int bound = 2 * ((kTrees + kTarget - 1) / kTarget);
  for (int trees : sizes) EXPECT_LE(trees, bound);

  for (int q = 0; q < 3; ++q) {
    PqGramIndex query(shape);
    for (int t = 0; t < 4; ++t) {
      query.Add(static_cast<PqGramFingerprint>(rng.NextBounded(64)), 1);
    }
    for (double tau : kTaus) {
      const std::vector<LookupResult> want = forest.Lookup(query, tau);
      ExpectSameResults(engine->Lookup(query, tau), want, "grown");
    }
    ExpectSameResults(engine->TopK(query, 10), forest.TopK(query, 10),
                      "grown topk");
  }
}

// Named to run in the TSan CI job: readers race an engine-swapping
// writer through the same shared_ptr slot pqidxd uses.
TEST(LookupEngineParallelTest, ConcurrentLookupsDuringSnapshotSwaps) {
  Rng rng(67);
  auto dict = std::make_shared<LabelDict>();
  const PqShape shape{2, 3};
  ForestIndex forest(shape);
  std::vector<Tree> docs;
  for (TreeId id = 0; id < 16; ++id) {
    docs.push_back(GenerateDblpLike(dict, &rng, 50));
    forest.AddTree(id, docs.back());
  }

  std::mutex engine_mutex;
  std::shared_ptr<const LookupEngine> engine = LookupEngine::Build(forest, 2);
  std::atomic<bool> stop{false};
  std::atomic<int64_t> lookups_done{0};

  // Writer: keeps editing the forest and publishing fresh snapshots.
  std::thread writer([&] {
    Rng wrng(71);
    for (int round = 0; round < 40; ++round) {
      const TreeId id = static_cast<TreeId>(wrng.NextBounded(docs.size()));
      EditLog log;
      GenerateEditScript(&docs[id], &wrng, 6, EditScriptOptions{}, &log);
      ASSERT_TRUE(forest.ApplyLog(id, docs[id], log).ok());
      auto fresh = LookupEngine::Build(forest, 1 + round % 4);
      std::lock_guard<std::mutex> lock(engine_mutex);
      engine = std::move(fresh);
    }
    stop.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      Rng rrng(100 + r);
      auto query_doc = GenerateDblpLike(nullptr, &rrng, 50);
      PqGramIndex query = BuildIndex(query_doc, shape);
      while (!stop.load()) {
        std::shared_ptr<const LookupEngine> snapshot;
        {
          std::lock_guard<std::mutex> lock(engine_mutex);
          snapshot = engine;
        }
        // Scoring runs entirely on the private snapshot copy; the writer
        // may swap (and free the previous engine) at any point.
        std::vector<LookupResult> hits = snapshot->Lookup(query, 0.9);
        for (size_t i = 1; i < hits.size(); ++i) {
          ASSERT_TRUE(hits[i - 1].distance < hits[i].distance ||
                      (hits[i - 1].distance == hits[i].distance &&
                       hits[i - 1].tree_id < hits[i].tree_id));
        }
        lookups_done.fetch_add(1);
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_GT(lookups_done.load(), 0);

  // After the dust settles the final snapshot matches the final forest.
  PqGramIndex query = BuildIndex(docs[0], shape);
  for (double tau : kTaus) {
    ExpectSameResults(engine->Lookup(query, tau), forest.Lookup(query, tau),
                      "final snapshot");
  }
}

// Incremental variant: epochs chain through ApplyDelta, so consecutive
// snapshots SHARE untouched shards. Readers score shards the writer is
// concurrently sharing into new epochs and releasing from old ones --
// the exact aliasing pqidxd produces under pipelined commits (TSan job).
TEST(LookupEngineParallelTest, ConcurrentLookupsDuringIncrementalSwaps) {
  Rng rng(73);
  auto dict = std::make_shared<LabelDict>();
  const PqShape shape{2, 3};
  ForestIndex forest(shape);
  std::vector<Tree> docs;
  for (TreeId id = 0; id < 16; ++id) {
    docs.push_back(GenerateDblpLike(dict, &rng, 50));
    forest.AddTree(id, docs.back());
  }

  std::mutex engine_mutex;
  std::shared_ptr<const LookupEngine> engine = LookupEngine::Build(forest, 4);
  std::atomic<bool> stop{false};
  std::atomic<int64_t> lookups_done{0};

  std::thread writer([&] {
    Rng wrng(79);
    auto current = engine;
    for (int round = 0; round < 40; ++round) {
      const TreeId id = static_cast<TreeId>(wrng.NextBounded(docs.size()));
      EditLog log;
      GenerateEditScript(&docs[id], &wrng, 6, EditScriptOptions{}, &log);
      ASSERT_TRUE(forest.ApplyLog(id, docs[id], log).ok());
      current = LookupEngine::ApplyDelta(current, forest, {id});
      std::lock_guard<std::mutex> lock(engine_mutex);
      engine = current;
    }
    stop.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      Rng rrng(200 + r);
      auto query_doc = GenerateDblpLike(nullptr, &rrng, 50);
      PqGramIndex query = BuildIndex(query_doc, shape);
      while (!stop.load()) {
        std::shared_ptr<const LookupEngine> snapshot;
        {
          std::lock_guard<std::mutex> lock(engine_mutex);
          snapshot = engine;
        }
        std::vector<LookupResult> hits = snapshot->Lookup(query, 0.9);
        for (size_t i = 1; i < hits.size(); ++i) {
          ASSERT_TRUE(hits[i - 1].distance < hits[i].distance ||
                      (hits[i - 1].distance == hits[i].distance &&
                       hits[i - 1].tree_id < hits[i].tree_id));
        }
        lookups_done.fetch_add(1);
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_GT(lookups_done.load(), 0);

  PqGramIndex query = BuildIndex(docs[0], shape);
  for (double tau : kTaus) {
    ExpectSameResults(engine->Lookup(query, tau), forest.Lookup(query, tau),
                      "final incremental snapshot");
  }
}

TEST(SimdIntersectTest, GallopLowerBoundMatchesStdLowerBound) {
  Rng rng(41);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = rng.NextBounded(64);
    std::vector<uint64_t> data(n);
    for (uint64_t& v : data) v = rng.NextBounded(96);
    std::sort(data.begin(), data.end());
    const size_t begin = n == 0 ? 0 : rng.NextBounded(n + 1);
    // Probe present values, absent values, and the extremes.
    const uint64_t probes[] = {0, rng.NextBounded(100), 95, 96,
                               std::numeric_limits<uint64_t>::max()};
    for (uint64_t target : probes) {
      const size_t want =
          std::lower_bound(data.begin() + begin, data.end(), target) -
          data.begin();
      EXPECT_EQ(GallopLowerBound(data.data(), n, begin, target), want)
          << "n=" << n << " begin=" << begin << " target=" << target;
    }
  }
}

// ComputeContribs must agree with the obvious scalar loop on every
// supported kernel, across lengths that straddle every vector-tail
// boundary, with the kWideCount sentinel (-1) passed through intact.
TEST(SimdIntersectTest, ComputeContribsMatchesScalarReference) {
  ScopedSimdKernel restore;
  Rng rng(43);
  const int32_t qcounts[] = {0, 1, 7, std::numeric_limits<int32_t>::max()};
  for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{7}, size_t{8},
                   size_t{15}, size_t{16}, size_t{17}, size_t{33},
                   size_t{70}}) {
    std::vector<int32_t> pairs(2 * n);
    for (size_t i = 0; i < n; ++i) {
      pairs[2 * i] = static_cast<int32_t>(rng.NextBounded(1 << 20));
      // Mix small counts, INT32_MAX, and the wide-count sentinel.
      const uint64_t pick = rng.NextBounded(10);
      pairs[2 * i + 1] =
          pick == 0 ? -1
          : pick == 1
              ? std::numeric_limits<int32_t>::max()
              : static_cast<int32_t>(rng.NextBounded(1000));
    }
    for (int32_t qcount : qcounts) {
      std::vector<int32_t> want_slots(n), want_contribs(n);
      for (size_t i = 0; i < n; ++i) {
        want_slots[i] = pairs[2 * i];
        want_contribs[i] = std::min(pairs[2 * i + 1], qcount);
        if (pairs[2 * i + 1] == -1) want_contribs[i] = -1;
      }
      for (SimdKernel kernel : kAllKernels) {
        if (!SetSimdKernelForTesting(kernel)) continue;
        std::vector<int32_t> slots(n), contribs(n);
        ComputeContribs(pairs.data(), n, qcount, slots.data(),
                        contribs.data());
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(slots[i], want_slots[i])
              << SimdKernelName(kernel) << " n=" << n << " i=" << i;
          ASSERT_EQ(contribs[i], want_contribs[i])
              << SimdKernelName(kernel) << " n=" << n << " i=" << i
              << " qcount=" << qcount;
        }
      }
    }
  }
}

// Every available kernel must produce results bit-identical to the
// forest scan AND to the forced-scalar engine, across random forests,
// the full tau sweep, hostile taus, wide counts, and TopK.
TEST(SimdIntersectTest, AllKernelsBitIdenticalToScalarOnRandomForests) {
  ScopedSimdKernel restore;
  Rng rng(47);
  auto dict = std::make_shared<LabelDict>();

  const PqShape shape{2, 3};
  ForestIndex forest(shape);
  for (TreeId id = 0; id < 40; ++id) {
    Tree doc = id % 2 == 0 ? GenerateXmarkLike(dict, &rng, 100)
                           : GenerateDblpLike(dict, &rng, 70);
    forest.AddTree(id, doc);
  }
  // A wide-count bag so min(qcount, count) exercises the sentinel path.
  const int64_t kWide = int64_t{3} << 31;
  Tree wide_doc = MustParse("a(b,c)");
  PqGramIndex wide_bag = BuildIndex(wide_doc, shape);
  const PqGramFingerprint wide_fp = wide_bag.counts().begin()->first;
  wide_bag.Add(wide_fp, kWide);
  forest.AddIndex(1000, wide_bag);

  std::vector<PqGramIndex> queries;
  for (int q = 0; q < 3; ++q) {
    queries.push_back(BuildIndex(GenerateDblpLike(dict, &rng, 60), shape));
  }
  PqGramIndex wide_query = BuildIndex(wide_doc, shape);
  wide_query.Add(wide_fp, kWide + 999);
  queries.push_back(std::move(wide_query));
  queries.push_back(PqGramIndex(shape));

  const double hostile[] = {-0.5, -1e308,
                            -std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()};

  for (int shards : {1, 4}) {
    ASSERT_TRUE(SetSimdKernelForTesting(SimdKernel::kScalar));
    auto scalar_engine = LookupEngine::Build(forest, shards);
    for (SimdKernel kernel : kAllKernels) {
      // A rejected kernel (wrong architecture / missing CPU feature)
      // leaves the previous selection in place.
      if (!SetSimdKernelForTesting(kernel)) continue;
      auto engine = LookupEngine::Build(forest, shards);
      for (const PqGramIndex& query : queries) {
        for (double tau : kTaus) {
          std::vector<LookupResult> want = forest.Lookup(query, tau);
          ExpectSameResults(engine->Lookup(query, tau), want,
                            SimdKernelName(kernel));
          // The snapshot built under the scalar kernel answers
          // identically when scored by this kernel (same arenas).
          ExpectSameResults(scalar_engine->Lookup(query, tau), want,
                            "scalar snapshot under forced kernel");
        }
        for (double tau : hostile) {
          EXPECT_TRUE(engine->Lookup(query, tau).empty())
              << SimdKernelName(kernel);
        }
        for (int k : {0, 1, 5, 100}) {
          ExpectSameResults(engine->TopK(query, k), forest.TopK(query, k),
                            SimdKernelName(kernel));
        }
      }
    }
  }
}

}  // namespace
}  // namespace pqidx
