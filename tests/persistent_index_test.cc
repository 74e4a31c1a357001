// Tests for the durable forest index: correctness against the in-memory
// index, incremental maintenance on disk, crash recovery, and catalog
// handling.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/serde.h"
#include "core/forest_index.h"
#include "core/incremental.h"
#include "edit/edit_script.h"
#include "storage/persistent_forest_index.h"
#include "tree/generators.h"
#include "tree/tree_builder.h"

namespace pqidx {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

using StorePtr = std::unique_ptr<PersistentForestIndex>;

StorePtr MustCreate(const std::string& name, PqShape shape) {
  StatusOr<StorePtr> store =
      PersistentForestIndex::Create(TempPath(name), shape);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(store).value();
}

StorePtr MustOpen(const std::string& name) {
  StatusOr<StorePtr> store = PersistentForestIndex::Open(TempPath(name));
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(store).value();
}

TEST(PersistentIndexTest, CreateAddLookupReopen) {
  const PqShape shape{3, 3};
  Rng rng(1);
  auto dict = std::make_shared<LabelDict>();
  Tree a = GenerateXmarkLike(dict, &rng, 200);
  Tree b = GenerateXmarkLike(dict, &rng, 200);
  {
    StorePtr store = MustCreate("pfi_basic.db", shape);
    ASSERT_TRUE(store->AddTree(1, a).ok());
    ASSERT_TRUE(store->AddTree(2, b).ok());
    store->CheckConsistency();
    EXPECT_EQ(store->size(), 2);
    EXPECT_EQ(store->TreeBagSize(1), BuildIndex(a, shape).size());
  }
  StorePtr store = MustOpen("pfi_basic.db");
  EXPECT_EQ(store->shape(), shape);
  EXPECT_EQ(store->size(), 2);
  store->CheckConsistency();

  // Distances match the in-memory index exactly.
  ForestIndex memory(shape);
  memory.AddTree(1, a);
  memory.AddTree(2, b);
  PqGramIndex query = BuildIndex(a, shape);
  auto on_disk = store->Lookup(query, 1.0);
  ASSERT_TRUE(on_disk.ok());
  auto in_memory = memory.Lookup(query, 1.0);
  ASSERT_EQ(on_disk->size(), in_memory.size());
  for (size_t i = 0; i < in_memory.size(); ++i) {
    EXPECT_EQ((*on_disk)[i].tree_id, in_memory[i].tree_id);
    EXPECT_DOUBLE_EQ((*on_disk)[i].distance, in_memory[i].distance);
  }
}

TEST(PersistentIndexTest, DuplicateAddRejected) {
  StorePtr store = MustCreate("pfi_dup.db", PqShape{2, 2});
  Tree a = ParseTreeNotation("a(b)").value();
  ASSERT_TRUE(store->AddTree(1, a).ok());
  EXPECT_FALSE(store->AddTree(1, a).ok());
  EXPECT_EQ(store->size(), 1);
}

TEST(PersistentIndexTest, IncrementalUpdateMatchesRebuild) {
  const PqShape shape{3, 3};
  Rng rng(2);
  Tree doc = GenerateDblpLike(nullptr, &rng, 80);
  StorePtr store = MustCreate("pfi_update.db", shape);
  ASSERT_TRUE(store->AddTree(5, doc).ok());

  for (int round = 0; round < 6; ++round) {
    EditLog log;
    GenerateEditScript(&doc, &rng, 25, EditScriptOptions{}, &log);
    ASSERT_TRUE(store->ApplyLog(5, doc, log).ok()) << "round " << round;
    store->CheckConsistency();
    StatusOr<PqGramIndex> materialized = store->MaterializeIndex(5);
    ASSERT_TRUE(materialized.ok());
    ASSERT_EQ(*materialized, BuildIndex(doc, shape)) << "round " << round;
  }
}

TEST(PersistentIndexTest, UpdatesSurviveReopen) {
  const PqShape shape{2, 3};
  Rng rng(3);
  Tree doc = GenerateXmarkLike(nullptr, &rng, 300);
  {
    StorePtr store = MustCreate("pfi_persist.db", shape);
    ASSERT_TRUE(store->AddTree(1, doc).ok());
    EditLog log;
    GenerateEditScript(&doc, &rng, 30, EditScriptOptions{}, &log);
    ASSERT_TRUE(store->ApplyLog(1, doc, log).ok());
  }
  StorePtr store = MustOpen("pfi_persist.db");
  StatusOr<PqGramIndex> materialized = store->MaterializeIndex(1);
  ASSERT_TRUE(materialized.ok());
  EXPECT_EQ(*materialized, BuildIndex(doc, shape));
}

TEST(PersistentIndexTest, RemoveTreeReclaimsTuples) {
  const PqShape shape{2, 2};
  Rng rng(4);
  StorePtr store = MustCreate("pfi_remove.db", shape);
  Tree a = GenerateDblpLike(nullptr, &rng, 20);
  Tree b = GenerateDblpLike(nullptr, &rng, 20);
  ASSERT_TRUE(store->AddTree(1, a).ok());
  ASSERT_TRUE(store->AddTree(2, b).ok());
  ASSERT_TRUE(store->RemoveTree(1).ok());
  EXPECT_FALSE(store->RemoveTree(1).ok());
  store->CheckConsistency();  // no orphaned tuples
  EXPECT_EQ(store->size(), 1);
  EXPECT_EQ(store->TreeBagSize(1), -1);
  StatusOr<PqGramIndex> remaining = store->MaterializeIndex(2);
  ASSERT_TRUE(remaining.ok());
  EXPECT_EQ(*remaining, BuildIndex(b, shape));
}

TEST(PersistentIndexTest, StaleDeltaRolledBackAtomically) {
  const PqShape shape{2, 2};
  StorePtr store = MustCreate("pfi_stale.db", shape);
  Tree a = ParseTreeNotation("a(b,c)").value();
  ASSERT_TRUE(store->AddTree(1, a).ok());
  int64_t size_before = store->TreeBagSize(1);

  // A minus-bag referencing tuples the tree does not have must fail and
  // leave the store exactly as it was (including partially applied
  // removals being rolled back).
  PqGramIndex plus(shape);
  plus.Add(111, 1);
  PqGramIndex minus(shape);
  minus.Add(0xdeadbeefdeadbeefULL, 1);
  EXPECT_FALSE(store->UpdateTree(1, plus, minus).ok());
  store->CheckConsistency();
  EXPECT_EQ(store->TreeBagSize(1), size_before);
  StatusOr<PqGramIndex> materialized = store->MaterializeIndex(1);
  ASSERT_TRUE(materialized.ok());
  EXPECT_EQ(*materialized, BuildIndex(a, shape));
}

TEST(PersistentIndexTest, CrashDuringUpdateRecoversDurably) {
  const PqShape shape{3, 3};
  Rng rng(5);
  Tree doc = GenerateDblpLike(nullptr, &rng, 40);
  {
    StorePtr store = MustCreate("pfi_crash.db", shape);
    ASSERT_TRUE(store->AddTree(1, doc).ok());
    EditLog log;
    GenerateEditScript(&doc, &rng, 15, EditScriptOptions{}, &log);
    // The commit's WAL is sealed, then the process "dies" before the
    // in-place writes finish: the update is durable.
    ASSERT_TRUE(
        store->CrashNextCommit(Pager::CrashPoint::kDuringInPlace).ok());
    ASSERT_TRUE(store->ApplyLog(1, doc, log).ok());
  }
  StorePtr store = MustOpen("pfi_crash.db");
  store->CheckConsistency();
  StatusOr<PqGramIndex> materialized = store->MaterializeIndex(1);
  ASSERT_TRUE(materialized.ok());
  EXPECT_EQ(*materialized, BuildIndex(doc, shape));
}

TEST(PersistentIndexTest, ManyTreesSpillCatalogAcrossPages) {
  const PqShape shape{1, 1};
  Rng rng(6);
  StorePtr store = MustCreate("pfi_manytrees.db", shape);
  const int kTrees = 800;  // > 340 catalog entries per page
  for (TreeId id = 0; id < kTrees; ++id) {
    Tree t = GenerateRandomTree(nullptr, &rng, {.num_nodes = 3});
    ASSERT_TRUE(store->AddTree(id, t).ok());
  }
  EXPECT_EQ(store->size(), kTrees);
  // Reopen and verify the catalog round-trips.
  std::string path = TempPath("pfi_manytrees.db");
  StatusOr<StorePtr> reopened = PersistentForestIndex::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->size(), kTrees);
  (*reopened)->CheckConsistency();
}

TEST(PersistentIndexTest, BulkAddIsOneTransaction) {
  const PqShape shape{2, 2};
  Rng rng(9);
  StorePtr store = MustCreate("pfi_bulk.db", shape);
  std::vector<PqGramIndex> bags;
  std::vector<Tree> trees;
  for (int i = 0; i < 10; ++i) {
    trees.push_back(GenerateDblpLike(nullptr, &rng, 10));
    bags.push_back(BuildIndex(trees.back(), shape));
  }
  std::vector<std::pair<TreeId, const PqGramIndex*>> refs;
  for (size_t i = 0; i < bags.size(); ++i) {
    refs.emplace_back(static_cast<TreeId>(i), &bags[i]);
  }
  int64_t commits_before = store->pager().commits();
  ASSERT_TRUE(store->BulkAdd(refs).ok());
  EXPECT_EQ(store->pager().commits(), commits_before + 1);
  EXPECT_EQ(store->size(), 10);
  store->CheckConsistency();
  for (size_t i = 0; i < bags.size(); ++i) {
    StatusOr<PqGramIndex> loaded =
        store->MaterializeIndex(static_cast<TreeId>(i));
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(*loaded, bags[i]);
  }
  // Duplicate ids anywhere reject the whole batch atomically.
  std::vector<std::pair<TreeId, const PqGramIndex*>> dup = {
      {100, &bags[0]}, {3, &bags[1]}};
  EXPECT_FALSE(store->BulkAdd(dup).ok());
  EXPECT_EQ(store->size(), 10);
  EXPECT_EQ(store->TreeBagSize(100), -1);
  store->CheckConsistency();
}

TEST(PersistentIndexTest, CompactShrinksChurnedStore) {
  const PqShape shape{2, 2};
  Rng rng(8);
  std::string path = TempPath("pfi_compact_src.db");
  {
    StatusOr<StorePtr> store = PersistentForestIndex::Create(path, shape);
    ASSERT_TRUE(store.ok());
    // Grow with many trees, then remove most of them.
    for (TreeId id = 0; id < 40; ++id) {
      Tree t = GenerateDblpLike(nullptr, &rng, 15);
      ASSERT_TRUE((*store)->AddTree(id, t).ok());
    }
    for (TreeId id = 0; id < 38; ++id) {
      ASSERT_TRUE((*store)->RemoveTree(id).ok());
    }
    std::string compact_path = TempPath("pfi_compact_dst.db");
    ASSERT_TRUE((*store)->CompactInto(compact_path).ok());

    StatusOr<StorePtr> compacted = PersistentForestIndex::Open(compact_path);
    ASSERT_TRUE(compacted.ok());
    (*compacted)->CheckConsistency();
    EXPECT_EQ((*compacted)->size(), 2);
    for (TreeId id : {38, 39}) {
      StatusOr<PqGramIndex> a = (*store)->MaterializeIndex(id);
      StatusOr<PqGramIndex> b = (*compacted)->MaterializeIndex(id);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(*a, *b);
    }
    EXPECT_LT((*compacted)->pager().page_count(),
              (*store)->pager().page_count());
  }
}

TEST(PersistentIndexTest, OpenRejectsGarbage) {
  std::string path = TempPath("pfi_garbage.db");
  std::string page(static_cast<size_t>(kPageSize), 'x');
  ASSERT_TRUE(WriteFile(path, page).ok());
  EXPECT_FALSE(PersistentForestIndex::Open(path).ok());
  EXPECT_FALSE(PersistentForestIndex::Open(TempPath("missing.db")).ok());
}

TEST(PersistentIndexTest, OpenRejectsHashLayoutVersion) {
  const std::string path = TempPath("pfi_v1.db");
  { StorePtr store = MustCreate("pfi_v1.db", PqShape{2, 2}); }
  std::string image;
  ASSERT_TRUE(ReadFile(path, &image).ok());
  const uint32_t v1 = 1;  // the former linear-hash layout
  std::memcpy(image.data() + 4, &v1, sizeof(v1));
  ASSERT_TRUE(WriteFile(path, image).ok());
  StatusOr<StorePtr> store = PersistentForestIndex::Open(path);
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(store.status().message().find("version 1"), std::string::npos)
      << store.status().ToString();
  EXPECT_NE(store.status().message().find("version 2"), std::string::npos)
      << store.status().ToString();
}

// Catalog writes follow the edit, not the forest: one UpdateTree logs the
// same WAL bytes on a 10k-tree store (30 catalog pages) as on a 1k-tree
// store (3 catalog pages).
TEST(PersistentIndexTest, UpdateWalBytesIndependentOfForestSize) {
  const PqShape shape{2, 2};
  std::vector<int64_t> wal_bytes;
  for (int trees : {1000, 10000}) {
    const std::string name = "pfi_catalog_" + std::to_string(trees) + ".db";
    StorePtr store = MustCreate(name, shape);
    std::vector<PqGramIndex> bags;
    bags.reserve(static_cast<size_t>(trees));
    for (int t = 0; t < trees; ++t) {
      PqGramIndex bag(shape);
      for (uint64_t fp = 1; fp <= 8; ++fp) bag.Add(fp * 1000 + t, 1);
      bags.push_back(std::move(bag));
    }
    std::vector<std::pair<TreeId, const PqGramIndex*>> refs;
    for (int t = 0; t < trees; ++t) {
      refs.emplace_back(static_cast<TreeId>(t), &bags[static_cast<size_t>(t)]);
    }
    ASSERT_TRUE(store->BulkAdd(refs).ok());
    PqGramIndex plus(shape);
    plus.Add(1000 + 5, 1);  // one more copy of a stored tuple
    PqGramIndex minus(shape);
    const int64_t before = store->pager().wal_bytes();
    ASSERT_TRUE(store->UpdateTree(5, plus, minus).ok());
    wal_bytes.push_back(store->pager().wal_bytes() - before);
    EXPECT_EQ(store->TreeBagSize(5), 9);
    store->CheckConsistency();
  }
  EXPECT_EQ(wal_bytes[0], wal_bytes[1]);
  // The leaf holding tree 5's tuples plus the catalog page of its size.
  EXPECT_LE(wal_bytes[1], 3 * (kPageSize + 12) + 64);
}

TEST(PersistentIndexTest, CatalogChangesSurviveReopen) {
  const PqShape shape{1, 1};
  const std::string name = "pfi_catalog_reopen.db";
  ForestIndex oracle(shape);
  {
    StorePtr store = MustCreate(name, shape);
    // 1000 trees (3 catalog pages) added in descending order, so every
    // add shifts the whole catalog; then in-place size changes, removals
    // in the middle and ascending appends.
    for (TreeId id = 999;; --id) {
      PqGramIndex bag(shape);
      bag.Add(id, 1 + id % 3);
      ASSERT_TRUE(store->AddIndex(id, bag).ok());
      oracle.AddIndex(id, bag);
      if (id == 0) break;
    }
    for (TreeId id : {3, 400, 998}) {
      PqGramIndex plus(shape);
      plus.Add(77, 2);
      ASSERT_TRUE(store->UpdateTree(id, plus, PqGramIndex(shape)).ok());
      PqGramIndex bag = *oracle.Find(id);
      bag.Add(77, 2);
      oracle.AddIndex(id, bag);
    }
    for (TreeId id : {0, 341, 342, 700}) {
      ASSERT_TRUE(store->RemoveTree(id).ok());
      oracle.RemoveTree(id);
    }
    for (TreeId id = 1000; id < 1400; ++id) {
      PqGramIndex bag(shape);
      bag.Add(id, 1);
      ASSERT_TRUE(store->AddIndex(id, bag).ok());
      oracle.AddIndex(id, bag);
    }
  }
  StorePtr store = MustOpen(name);
  store->CheckConsistency();
  ASSERT_EQ(store->size(), oracle.size());
  EXPECT_EQ(store->TreeIds(), oracle.TreeIds());
  for (TreeId id : oracle.TreeIds()) {
    ASSERT_EQ(store->TreeBagSize(id), oracle.Find(id)->size()) << id;
  }
}

TEST(PersistentIndexTest, RemoveTreeMatchesOracle) {
  const PqShape shape{2, 3};
  Rng rng(12);
  const std::string name = "pfi_remove_oracle.db";
  ForestIndex oracle(shape);
  std::vector<Tree> trees;
  {
    StorePtr store = MustCreate(name, shape);
    std::vector<PqGramIndex> bags;
    for (int i = 0; i < 30; ++i) {
      // A few large trees whose tuple runs span several leaves.
      trees.push_back(GenerateDblpLike(nullptr, &rng, i % 10 == 0 ? 400 : 40));
      bags.push_back(BuildIndex(trees.back(), shape));
    }
    std::vector<std::pair<TreeId, const PqGramIndex*>> refs;
    for (size_t i = 0; i < bags.size(); ++i) {
      refs.emplace_back(static_cast<TreeId>(i), &bags[i]);
      oracle.AddIndex(static_cast<TreeId>(i), bags[i]);
    }
    ASSERT_TRUE(store->BulkAdd(refs).ok());
    for (TreeId id : {0, 10, 11, 29, 15}) {
      ASSERT_TRUE(store->RemoveTree(id).ok());
      ASSERT_TRUE(oracle.RemoveTree(id));
    }
    store->CheckConsistency();
    StatusOr<ForestIndex> forest = store->MaterializeForest();
    ASSERT_TRUE(forest.ok()) << forest.status().ToString();
    EXPECT_EQ(*forest, oracle);
  }
  StorePtr store = MustOpen(name);
  store->CheckConsistency();
  StatusOr<ForestIndex> forest = store->MaterializeForest();
  ASSERT_TRUE(forest.ok()) << forest.status().ToString();
  EXPECT_EQ(*forest, oracle);
  for (size_t q : {1u, 10u, 20u}) {
    PqGramIndex query = BuildIndex(trees[q], shape);
    StatusOr<std::vector<LookupResult>> got = store->Lookup(query, 0.9);
    ASSERT_TRUE(got.ok());
    std::vector<LookupResult> want = oracle.Lookup(query, 0.9);
    ASSERT_EQ(got->size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ((*got)[i].tree_id, want[i].tree_id);
      EXPECT_DOUBLE_EQ((*got)[i].distance, want[i].distance);
    }
  }
}

// TreeId is signed; the B+-tree key and the catalog must still agree on
// one order, or MaterializeForest's lockstep walk (and with it a server
// restart) fails once a negative id is stored.
TEST(PersistentIndexTest, NegativeTreeIdsMatchOracle) {
  const PqShape shape{2, 3};
  Rng rng(21);
  const std::string name = "pfi_negative_ids.db";
  ForestIndex oracle(shape);
  std::vector<Tree> trees;
  std::vector<TreeId> ids = {std::numeric_limits<TreeId>::min(), -70000, -2,
                             -1, 0, 1, 5, std::numeric_limits<TreeId>::max()};
  auto expect_matches_oracle = [&](PersistentForestIndex* store) {
    store->CheckConsistency();
    EXPECT_EQ(store->TreeIds(), oracle.TreeIds());
    StatusOr<ForestIndex> forest = store->MaterializeForest();
    ASSERT_TRUE(forest.ok()) << forest.status().ToString();
    EXPECT_EQ(*forest, oracle);
    for (const Tree& tree : trees) {
      PqGramIndex query = BuildIndex(tree, shape);
      StatusOr<std::vector<LookupResult>> got = store->Lookup(query, 0.95);
      ASSERT_TRUE(got.ok());
      std::vector<LookupResult> want = oracle.Lookup(query, 0.95);
      ASSERT_EQ(got->size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ((*got)[i].tree_id, want[i].tree_id);
        EXPECT_DOUBLE_EQ((*got)[i].distance, want[i].distance);
      }
    }
  };
  {
    StorePtr store = MustCreate(name, shape);
    std::vector<PqGramIndex> bags;
    for (size_t i = 0; i < ids.size(); ++i) {
      trees.push_back(GenerateDblpLike(nullptr, &rng, i == 2 ? 400 : 30));
      bags.push_back(BuildIndex(trees.back(), shape));
    }
    // Half in one bulk load, the rest one by one (negative ids landing
    // both below and between the stored ones).
    std::vector<std::pair<TreeId, const PqGramIndex*>> refs;
    for (size_t i = 0; i < ids.size(); i += 2) {
      refs.emplace_back(ids[i], &bags[i]);
      oracle.AddIndex(ids[i], bags[i]);
    }
    ASSERT_TRUE(store->BulkAdd(refs).ok());
    for (size_t i = 1; i < ids.size(); i += 2) {
      ASSERT_TRUE(store->AddIndex(ids[i], bags[i]).ok());
      oracle.AddIndex(ids[i], bags[i]);
    }
    // An incremental update and a removal of negative ids.
    EditLog log;
    GenerateEditScript(&trees[2], &rng, 20, EditScriptOptions{}, &log);
    ASSERT_TRUE(store->ApplyLog(ids[2], trees[2], log).ok());
    oracle.AddIndex(ids[2], BuildIndex(trees[2], shape));
    ASSERT_TRUE(store->RemoveTree(-1).ok());
    ASSERT_TRUE(oracle.RemoveTree(-1));
    // A group-committed add of a negative id between stored ones.
    std::vector<PersistentForestIndex::BatchEdit> edits(1);
    edits[0].id = -3;
    edits[0].add = &bags[4];
    std::vector<Status> results;
    ASSERT_TRUE(store->ApplyBatch(edits, &results).ok());
    ASSERT_TRUE(results[0].ok()) << results[0].ToString();
    oracle.AddIndex(-3, bags[4]);
    expect_matches_oracle(store.get());
  }
  StorePtr store = MustOpen(name);
  expect_matches_oracle(store.get());
}

// The plus bag never covers for a minus tuple the stored bag lacks.
TEST(PersistentIndexTest, UpdateRejectsMinusOutsideStoredBag) {
  const PqShape shape{2, 2};
  StorePtr store = MustCreate("pfi_minus_subbag.db", shape);
  PqGramIndex bag(shape);
  bag.Add(10, 1);
  bag.Add(20, 2);
  ASSERT_TRUE(store->AddIndex(7, bag).ok());
  const int64_t wal_before = store->pager().wal_bytes();
  // An absent tuple, and one more copy than stored; plus re-adds both.
  for (uint64_t fp : {uint64_t{30}, uint64_t{10}}) {
    PqGramIndex minus(shape);
    minus.Add(fp, fp == 10 ? 2 : 1);
    PqGramIndex plus(shape);
    plus.Add(fp, 2);
    Status status = store->UpdateTree(7, plus, minus);
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
        << status.ToString();
  }
  EXPECT_EQ(store->pager().wal_bytes(), wal_before);
  store->CheckConsistency();
  EXPECT_EQ(store->TreeBagSize(7), 3);
  EXPECT_EQ(store->MaterializeIndex(7).value(), bag);
}

TEST(PersistentIndexTest, UnknownTreeOperationsFail) {
  StorePtr store = MustCreate("pfi_unknown.db", PqShape{2, 2});
  PqGramIndex query(PqShape{2, 2});
  EXPECT_FALSE(store->Distance(9, query).ok());
  EXPECT_FALSE(store->MaterializeIndex(9).ok());
  EXPECT_FALSE(store->RemoveTree(9).ok());
  Tree doc = ParseTreeNotation("a").value();
  EditLog log;
  EXPECT_FALSE(store->ApplyLog(9, doc, log).ok());
}

}  // namespace
}  // namespace pqidx
