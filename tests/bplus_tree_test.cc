// Tests for the on-disk B+-tree over (tree, fp): CRUD, deltas, growth
// across many splits, range scans and range deletes, the right-edge bulk
// load, a randomized model check against std::map (with reopen and
// rollback), and rejection of corrupt page images.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/serde.h"
#include "storage/bplus_tree.h"
#include "storage/pager.h"

namespace pqidx {
namespace {

using Model = std::map<std::pair<uint32_t, uint64_t>, int64_t>;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

struct Fixture {
  explicit Fixture(const std::string& name, int pool_pages = 64)
      : pager(pool_pages) {
    path = TempPath(name);
    PQIDX_CHECK(pager.Open(path, /*create=*/true).ok());
    StatusOr<PageId> meta = pager.AllocatePage();
    PQIDX_CHECK(meta.ok());
    meta_page = *meta;
    PQIDX_CHECK(table.Create(meta_page, 0).ok());
  }

  std::string path;
  Pager pager;
  BPlusTree table{&pager};
  PageId meta_page = 0;
};

Model Scan(BPlusTree* table) {
  Model scanned;
  uint32_t last_tree = 0;
  uint64_t last_fp = 0;
  bool first = true;
  Status status = table->ForEach([&](uint32_t tree, uint64_t fp,
                                     int64_t count) {
    // Key order is (tree, fp).
    EXPECT_TRUE(first || last_tree < tree ||
                (last_tree == tree && last_fp < fp));
    first = false;
    last_tree = tree;
    last_fp = fp;
    scanned[{tree, fp}] = count;
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
  return scanned;
}

std::vector<BPlusTree::Entry> Ascending(uint32_t tree, int n, int64_t count) {
  std::vector<BPlusTree::Entry> run;
  for (int i = 0; i < n; ++i) {
    run.push_back({tree, static_cast<uint64_t>(i) * 11 + 5, count});
  }
  return run;
}

TEST(BPlusTreeTest, GetMissingIsZero) {
  Fixture f("bt_missing.db");
  EXPECT_EQ(f.table.Get(1, 42).value(), 0);
  EXPECT_EQ(f.table.entry_count(), 0u);
  EXPECT_EQ(f.table.height(), 1u);
}

TEST(BPlusTreeTest, InsertUpdateDelete) {
  Fixture f("bt_crud.db");
  ASSERT_TRUE(f.table.AddDelta(1, 42, 3).ok());
  EXPECT_EQ(f.table.Get(1, 42).value(), 3);
  ASSERT_TRUE(f.table.AddDelta(1, 42, 2).ok());
  EXPECT_EQ(f.table.Get(1, 42).value(), 5);
  ASSERT_TRUE(f.table.AddDelta(1, 42, -5).ok());
  EXPECT_EQ(f.table.Get(1, 42).value(), 0);
  EXPECT_EQ(f.table.entry_count(), 0u);
  f.table.CheckConsistency();
}

TEST(BPlusTreeTest, NegativeResultRejected) {
  Fixture f("bt_negative.db");
  ASSERT_TRUE(f.table.AddDelta(1, 42, 3).ok());
  EXPECT_FALSE(f.table.AddDelta(1, 42, -4).ok());
  EXPECT_FALSE(f.table.AddDelta(2, 7, -1).ok());  // absent key
  EXPECT_EQ(f.table.Get(1, 42).value(), 3);
}

TEST(BPlusTreeTest, CountBeyondFieldRejected) {
  Fixture f("bt_overflow.db");
  const int64_t max = std::numeric_limits<uint32_t>::max();
  ASSERT_TRUE(f.table.AddDelta(1, 42, max).ok());
  Status status = f.table.AddDelta(1, 42, 1);
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(f.table.AddDelta(1, 43, max + 1).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(f.table.Get(1, 42).value(), max);
}

TEST(BPlusTreeTest, KeysAreTreeScoped) {
  Fixture f("bt_scope.db");
  ASSERT_TRUE(f.table.AddDelta(1, 42, 10).ok());
  ASSERT_TRUE(f.table.AddDelta(2, 42, 20).ok());
  EXPECT_EQ(f.table.Get(1, 42).value(), 10);
  EXPECT_EQ(f.table.Get(2, 42).value(), 20);
  EXPECT_EQ(f.table.Get(3, 42).value(), 0);
}

TEST(BPlusTreeTest, GrowsAcrossManySplits) {
  Fixture f("bt_growth.db");
  Rng rng(1);
  Model model;
  const int kKeys = 20000;
  for (int i = 0; i < kKeys; ++i) {
    uint32_t tree = static_cast<uint32_t>(rng.NextBounded(8));
    uint64_t fp = rng.Next();
    int64_t count = 1 + static_cast<int64_t>(rng.NextBounded(9));
    ASSERT_TRUE(f.table.AddDelta(tree, fp, count).ok());
    model[{tree, fp}] += count;
  }
  EXPECT_EQ(f.table.entry_count(), model.size());
  EXPECT_GT(f.table.height(), 1u);  // must have split many times
  f.table.CheckConsistency();
  Rng probe(2);
  for (int i = 0; i < 500; ++i) {
    auto it = model.begin();
    std::advance(it, probe.NextBounded(model.size()));
    EXPECT_EQ(f.table.Get(it->first.first, it->first.second).value(),
              it->second);
  }
  EXPECT_EQ(Scan(&f.table), model);
}

TEST(BPlusTreeTest, ChurnWithDeletions) {
  Fixture f("bt_churn.db");
  Rng rng(3);
  Model model;
  for (int step = 0; step < 30000; ++step) {
    uint32_t tree = static_cast<uint32_t>(rng.NextBounded(4));
    uint64_t fp = rng.NextBounded(2000);  // small key space: collisions
    auto key = std::make_pair(tree, fp);
    if (rng.Bernoulli(0.35) && model.contains(key)) {
      int64_t remove = 1 + static_cast<int64_t>(
                               rng.NextBounded(model[key]));
      ASSERT_TRUE(f.table.AddDelta(tree, fp, -remove).ok());
      model[key] -= remove;
      if (model[key] == 0) model.erase(key);
    } else {
      int64_t add = 1 + static_cast<int64_t>(rng.NextBounded(5));
      ASSERT_TRUE(f.table.AddDelta(tree, fp, add).ok());
      model[key] += add;
    }
  }
  f.table.CheckConsistency();
  EXPECT_EQ(f.table.entry_count(), model.size());
  for (const auto& [key, count] : model) {
    ASSERT_EQ(f.table.Get(key.first, key.second).value(), count);
  }
}

TEST(BPlusTreeTest, PersistsAcrossReopen) {
  std::string path;
  PageId meta_page;
  std::map<uint64_t, int64_t> model;
  {
    Fixture f("bt_reopen.db");
    path = f.path;
    meta_page = f.meta_page;
    Rng rng(4);
    for (int i = 0; i < 5000; ++i) {
      uint64_t fp = rng.Next();
      ASSERT_TRUE(f.table.AddDelta(9, fp, 7).ok());
      model[fp] = 7;
    }
    ASSERT_TRUE(f.pager.Commit().ok());
    ASSERT_TRUE(f.pager.Close().ok());
  }
  Pager pager;
  ASSERT_TRUE(pager.Open(path, /*create=*/false).ok());
  BPlusTree table(&pager);
  ASSERT_TRUE(table.Attach(meta_page, 0).ok());
  EXPECT_EQ(table.entry_count(), model.size());
  table.CheckConsistency();
  Rng probe(5);
  for (int i = 0; i < 200; ++i) {
    auto it = model.begin();
    std::advance(it, probe.NextBounded(model.size()));
    EXPECT_EQ(table.Get(9, it->first).value(), it->second);
  }
}

TEST(BPlusTreeTest, AttachRejectsWrongPage) {
  Fixture f("bt_badmeta.db");
  StatusOr<PageId> other = f.pager.AllocatePage();
  ASSERT_TRUE(other.ok());
  BPlusTree table(&f.pager);
  EXPECT_FALSE(table.Attach(*other, 0).ok());
}

TEST(BPlusTreeTest, BulkLoadPacksLeavesNinetyPercent) {
  Fixture f("bt_bulk.db");
  const int kEntries = 20000;
  const PageId before = f.pager.page_count();
  ASSERT_TRUE(f.table.AddSorted(Ascending(3, kEntries, 2)).ok());
  f.table.CheckConsistency();
  EXPECT_EQ(f.table.entry_count(), static_cast<uint64_t>(kEntries));
  EXPECT_EQ(f.table.height(), 2u);
  // 255 entries fit a leaf; the load packs 229 (90%) per leaf, plus the
  // one root.
  const int leaves = (kEntries + 228) / 229;
  EXPECT_LE(f.pager.page_count() - before, static_cast<PageId>(leaves + 1));
  Model scanned = Scan(&f.table);
  ASSERT_EQ(scanned.size(), static_cast<size_t>(kEntries));
  EXPECT_EQ(scanned.begin()->second, 2);
}

TEST(BPlusTreeTest, AddSortedMixesAppendsAndUpdates) {
  Fixture f("bt_mixed.db");
  ASSERT_TRUE(f.table.AddSorted(Ascending(5, 600, 1)).ok());
  // Deltas on stored keys, a removal to zero, inserts in the middle, and
  // a tail past the right edge.
  std::vector<BPlusTree::Entry> deltas = {
      {2, 1, 4}, {5, 5, 2}, {5, 16, -1}, {5, 17, 3}, {6, 1, 9}, {6, 2, 9}};
  ASSERT_TRUE(f.table.AddSorted(deltas).ok());
  f.table.CheckConsistency();
  EXPECT_EQ(f.table.Get(2, 1).value(), 4);
  EXPECT_EQ(f.table.Get(5, 5).value(), 3);
  EXPECT_EQ(f.table.Get(5, 16).value(), 0);
  EXPECT_EQ(f.table.Get(5, 17).value(), 3);
  EXPECT_EQ(f.table.Get(6, 2).value(), 9);
  EXPECT_EQ(f.table.entry_count(), 600u + 4 - 1);
}

TEST(BPlusTreeTest, RangeScanAndRemoveTree) {
  Fixture f("bt_range.db");
  Model model;
  // Tree 1's run spans several leaves between trees 0 and 2.
  for (uint32_t tree : {0u, 1u, 2u}) {
    const int n = tree == 1 ? 1000 : 50;
    std::vector<BPlusTree::Entry> run = Ascending(tree, n, tree + 1);
    ASSERT_TRUE(f.table.AddSorted(run).ok());
    for (const BPlusTree::Entry& e : run) model[{e.tree, e.fp}] = e.count;
  }
  std::vector<uint64_t> fps;
  ASSERT_TRUE(f.table
                  .ForEachInTree(1, [&](uint64_t fp, int64_t count) {
                    EXPECT_EQ(count, 2);
                    fps.push_back(fp);
                  })
                  .ok());
  ASSERT_EQ(fps.size(), 1000u);
  EXPECT_TRUE(std::is_sorted(fps.begin(), fps.end()));

  int64_t removed = 0;
  ASSERT_TRUE(f.table.RemoveTree(1, &removed).ok());
  EXPECT_EQ(removed, 2000);
  std::erase_if(model, [](const auto& kv) { return kv.first.first == 1; });
  f.table.CheckConsistency();
  EXPECT_EQ(Scan(&f.table), model);
  ASSERT_TRUE(f.table.RemoveTree(1, &removed).ok());  // already gone
  EXPECT_EQ(removed, 0);
  // The emptied key range still takes inserts.
  ASSERT_TRUE(f.table.AddDelta(1, 77, 1).ok());
  EXPECT_EQ(f.table.Get(1, 77).value(), 1);
  f.table.CheckConsistency();
}

// Random AddDelta / AddSorted / RemoveTree traffic against a std::map
// model, with periodic commit + reopen, deliberate apply-time failures
// rolled back mid-batch, and a final delete-to-empty.
TEST(BPlusTreeTest, RandomizedModelCheck) {
  const std::string path = TempPath("bt_model.db");
  PageId meta_page = 0;
  {
    Pager pager(32);
    ASSERT_TRUE(pager.Open(path, /*create=*/true).ok());
    meta_page = pager.AllocatePage().value();
    BPlusTree table(&pager);
    ASSERT_TRUE(table.Create(meta_page, 0).ok());
    ASSERT_TRUE(pager.Commit().ok());
    ASSERT_TRUE(pager.Close().ok());
  }
  Rng rng(11);
  Model model;
  for (int round = 0; round < 12; ++round) {
    Pager pager(32);
    ASSERT_TRUE(pager.Open(path, /*create=*/false).ok());
    BPlusTree table(&pager);
    ASSERT_TRUE(table.Attach(meta_page, 0).ok());
    ASSERT_EQ(Scan(&table), model) << "round " << round;
    for (int step = 0; step < 400; ++step) {
      const uint32_t tree = static_cast<uint32_t>(rng.NextBounded(12));
      const int op = static_cast<int>(rng.NextBounded(20));
      if (op == 0) {
        ASSERT_TRUE(table.RemoveTree(tree).ok());
        std::erase_if(model,
                      [tree](const auto& kv) { return kv.first.first == tree; });
      } else if (op < 4) {
        // A sorted, coalesced batch: mostly inserts, some decrements.
        std::map<std::pair<uint32_t, uint64_t>, int64_t> batch;
        for (int k = 0; k < 40; ++k) {
          std::pair<uint32_t, uint64_t> key{
              static_cast<uint32_t>(rng.NextBounded(12)), rng.NextBounded(600)};
          auto it = model.find(key);
          if (it != model.end() && rng.Bernoulli(0.3)) {
            batch[key] = -static_cast<int64_t>(1 + rng.NextBounded(
                                                       static_cast<uint64_t>(
                                                           it->second)));
          } else if (it == model.end() || !batch.contains(key)) {
            batch[key] = 1 + static_cast<int64_t>(rng.NextBounded(3));
          }
        }
        std::vector<BPlusTree::Entry> deltas;
        for (const auto& [key, delta] : batch) {
          deltas.push_back({key.first, key.second, delta});
        }
        ASSERT_TRUE(table.AddSorted(deltas).ok());
        for (const auto& [key, delta] : batch) {
          if ((model[key] += delta) == 0) model.erase(key);
        }
      } else {
        const uint64_t fp = rng.NextBounded(600);
        auto it = model.find({tree, fp});
        if (it != model.end() && rng.Bernoulli(0.4)) {
          const int64_t remove = 1 + static_cast<int64_t>(
                                         rng.NextBounded(
                                             static_cast<uint64_t>(it->second)));
          ASSERT_TRUE(table.AddDelta(tree, fp, -remove).ok());
          if ((it->second -= remove) == 0) model.erase(it);
        } else {
          ASSERT_TRUE(table.AddDelta(tree, fp, 1).ok());
          model[{tree, fp}] += 1;
        }
      }
    }
    ASSERT_TRUE(pager.Commit().ok());
    table.CheckConsistency();
    ASSERT_EQ(Scan(&table), model);

    // An apply-time failure mid-batch (a decrement of an absent key after
    // a run of appends that split leaves) rolls back to the commit.
    std::vector<BPlusTree::Entry> doomed = Ascending(100 + round, 700, 1);
    doomed.push_back({200, 1, -1});
    EXPECT_FALSE(table.AddSorted(doomed).ok());
    ASSERT_TRUE(pager.Rollback().ok());
    ASSERT_TRUE(table.Attach(meta_page, 0).ok());
    table.CheckConsistency();
    ASSERT_EQ(Scan(&table), model);
    ASSERT_TRUE(pager.Close().ok());
  }
  // Delete to empty.
  Pager pager(32);
  ASSERT_TRUE(pager.Open(path, /*create=*/false).ok());
  BPlusTree table(&pager);
  ASSERT_TRUE(table.Attach(meta_page, 0).ok());
  for (uint32_t tree = 0; tree < 12; ++tree) {
    ASSERT_TRUE(table.RemoveTree(tree).ok());
  }
  ASSERT_TRUE(pager.Commit().ok());
  table.CheckConsistency();
  EXPECT_EQ(table.entry_count(), 0u);
  EXPECT_TRUE(Scan(&table).empty());
  ASSERT_TRUE(table.AddDelta(4, 4, 4).ok());
  EXPECT_EQ(table.Get(4, 4).value(), 4);
}

// --- corrupt page images ------------------------------------------------

// A committed two-level tree (meta on page 0); returns its file image.
std::string TwoLevelImage(const std::string& name) {
  const std::string path = TempPath(name);
  {
    Pager pager(64);
    PQIDX_CHECK(pager.Open(path, /*create=*/true).ok());
    PQIDX_CHECK(pager.AllocatePage().ok());
    BPlusTree table(&pager);
    PQIDX_CHECK(table.Create(0, 0).ok());
    PQIDX_CHECK(table.AddSorted(Ascending(1, 1000, 1)).ok());
    PQIDX_CHECK(table.height() == 2);
    PQIDX_CHECK(pager.Commit().ok());
    PQIDX_CHECK(pager.Close().ok());
  }
  std::string image;
  PQIDX_CHECK(ReadFile(path, &image).ok());
  return image;
}

uint32_t U32At(const std::string& image, size_t off) {
  uint32_t v;
  std::memcpy(&v, image.data() + off, sizeof(v));
  return v;
}

void PutU32(std::string* image, size_t off, uint32_t v) {
  std::memcpy(image->data() + off, &v, sizeof(v));
}

// Opens the mangled image and runs every read and write path; each must
// fail cleanly (or succeed) -- never crash or hang.
bool AnyOperationFails(const std::string& name, const std::string& image) {
  const std::string path = TempPath(name);
  PQIDX_CHECK(WriteFile(path, image).ok());
  Pager pager(16);
  PQIDX_CHECK(pager.Open(path, /*create=*/false).ok());
  BPlusTree table(&pager);
  if (!table.Attach(0, 0).ok()) return true;
  bool failed = false;
  failed |= !table.Get(1, 500).ok();
  failed |= !table.ForEach([](uint32_t, uint64_t, int64_t) {}).ok();
  failed |= !table.ForEachInTree(1, [](uint64_t, int64_t) {}).ok();
  failed |= !table.AddSorted(Ascending(2, 300, 1)).ok();
  failed |= !table.AddDelta(1, 6, 1).ok();
  failed |= !table.RemoveTree(1).ok();
  return failed;
}

TEST(BPlusTreeTest, CorruptPagesFailCleanly) {
  const std::string image = TwoLevelImage("bt_corrupt_src.db");
  const size_t root = U32At(image, 4) * static_cast<size_t>(kPageSize);
  const size_t leaf0 = U32At(image, root + 12) * static_cast<size_t>(kPageSize);
  const uint32_t pages = static_cast<uint32_t>(image.size() / kPageSize);
  ASSERT_FALSE(AnyOperationFails("bt_corrupt_ok.db", image));

  std::string bad = image;  // hostile leaf entry count
  PutU32(&bad, leaf0 + 4, 0xffff);
  EXPECT_TRUE(AnyOperationFails("bt_corrupt_count.db", bad));

  bad = image;  // child id past the end of the file
  PutU32(&bad, root + 12, pages + 7);
  EXPECT_TRUE(AnyOperationFails("bt_corrupt_child.db", bad));

  bad = image;  // root's child points back at the root (a cycle)
  PutU32(&bad, root + 12, U32At(image, 4));
  EXPECT_TRUE(AnyOperationFails("bt_corrupt_cycle.db", bad));

  bad = image;  // leaf sibling chain loops onto itself
  PutU32(&bad, leaf0 + 8, static_cast<uint32_t>(leaf0 / kPageSize));
  EXPECT_TRUE(AnyOperationFails("bt_corrupt_chain.db", bad));

  bad = image;  // out-of-order keys in a leaf
  PutU32(&bad, leaf0 + 16, 9);  // first entry's tree id > its successors'
  EXPECT_TRUE(AnyOperationFails("bt_corrupt_order.db", bad));

  bad = image;  // bad height in the meta record
  PutU32(&bad, 8, 99);
  EXPECT_TRUE(AnyOperationFails("bt_corrupt_height.db", bad));
}

}  // namespace
}  // namespace pqidx
