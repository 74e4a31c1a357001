// On-disk B+-tree over the index relation (treeId, pqg, cnt), ordered by
// the key (tree, fingerprint). The order clusters each tree's tuples
// into one contiguous run of leaves, so an incremental update of one
// tree (the paper's Lemma 2: only the edited tree's tuples change)
// dirties the one or two leaves holding that run instead of one
// scattered page per tuple.
//
// Layout (all pages owned by a Pager; see docs/FORMATS.md):
//  * a 24-byte meta record (root page, height, entry count) stored at a
//    caller-chosen offset of a caller-owned page, so the tree adds no
//    meta page of its own to a commit;
//  * leaf pages: a header (kind, entry count, right-sibling link)
//    followed by sorted 16-byte entries {tree u32, fingerprint u64,
//    count u32};
//  * inner pages: a header (kind, key count, level) followed by the
//    leftmost child and sorted {tree u32, fingerprint u64, child u32}
//    separators; child i holds the keys in [key i, key i+1).
//
// AddSorted's right-edge appends (the bulk load) pack leaves and inner
// nodes to 90%; every other insert splits a full leaf at a tree boundary
// near the middle. Deletes never merge, and a leaf emptied by deletes
// stays linked until the store is compacted.
// Every page image read from disk is validated before use: corrupt
// kinds, counts, levels, child ids or key order surface as DATA_LOSS,
// never as out-of-bounds access or unbounded loops. Durability and
// atomicity come from the pager's WAL: a sequence of mutations becomes
// atomic by calling Pager::Commit() once.

#ifndef PQIDX_STORAGE_BPLUS_TREE_H_
#define PQIDX_STORAGE_BPLUS_TREE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "storage/pager.h"

namespace pqidx {

class BPlusTree {
 public:
  // Bytes the meta record occupies at its (page, offset) home.
  static constexpr int kMetaSize = 24;

  // The sort key: (tree, fp), lexicographic.
  struct Key {
    uint32_t tree;
    uint64_t fp;
  };

  // One (tree, fp) tuple and its count (or delta, for AddSorted input).
  struct Entry {
    uint32_t tree;
    uint64_t fp;
    int64_t count;
  };

  // The tree lives inside `pager`'s file; `pager` must outlive it.
  explicit BPlusTree(Pager* pager) : pager_(pager) {
    PQIDX_CHECK(pager != nullptr);
  }

  // Formats an empty tree (one empty root leaf) whose meta record lives
  // at `meta_offset` of the already allocated `meta_page`.
  Status Create(PageId meta_page, int meta_offset);

  // Attaches to a tree previously created at (`meta_page`,
  // `meta_offset`), validating the meta record.
  Status Attach(PageId meta_page, int meta_offset);

  // Returns the count stored for (tree, fp), 0 if absent.
  StatusOr<int64_t> Get(uint32_t tree, uint64_t fp);

  // Adds `delta` to the count of (tree, fp), inserting or removing the
  // entry as needed. Fails if the result would be negative or exceed
  // the 32-bit count field.
  Status AddDelta(uint32_t tree, uint64_t fp, int64_t delta);

  // Applies deltas sorted by (tree, fp) with distinct keys. Positive
  // deltas past the last stored key are appended a leaf at a time (the
  // bulk load): leaves are packed to 90%, and a tree's run starts a
  // fresh leaf rather than straddle two when one leaf holds it whole.
  // Everything else goes through AddDelta. All-or-nothing only under
  // the caller's WAL transaction.
  Status AddSorted(const std::vector<Entry>& deltas);

  // Invokes fn(tree, fp, count) for every entry in key order.
  Status ForEach(
      const std::function<void(uint32_t, uint64_t, int64_t)>& fn);

  // Invokes fn(fp, count) for every entry of `tree`, in fp order: one
  // descent, then a walk along the tree's contiguous leaf run.
  Status ForEachInTree(uint32_t tree,
                       const std::function<void(uint64_t, int64_t)>& fn);

  // Range delete: removes every entry of `tree`. `*removed_total`, when
  // non-null, receives the sum of the removed counts.
  Status RemoveTree(uint32_t tree, int64_t* removed_total = nullptr);

  uint64_t entry_count() const { return entry_count_; }
  uint32_t height() const { return height_; }

  // Verifies the structural invariants (levels, key order and
  // separator bounds, leaf chain = in-order leaves, positive counts,
  // entry count). Aborts on violation; tests.
  void CheckConsistency();

 private:
  static constexpr int kMaxHeight = 8;
  // The root-to-leaf path of one descent: the inner page at each level
  // (index = level, 1..height-1) and the child slot taken there.
  struct Path {
    PageId page[kMaxHeight];
    int slot[kMaxHeight];
  };

  // Descends from the root to the leaf whose key range holds `key`.
  Status Descend(Key key, Path* path, PageId* leaf);
  // Inserts separator `key` -> `child` into the inner node at `level`
  // of `path`, right after the slot the descent took, splitting up to
  // (and growing) the root as needed. `append` marks AddSorted's
  // right-edge insert, whose split leaves the left node 90% full.
  Status InsertIntoParent(const Path& path, int level, Key key,
                          PageId child, bool append);
  // Reads a leaf / inner page and validates its header.
  StatusOr<const uint8_t*> ReadLeaf(PageId id);
  StatusOr<const uint8_t*> ReadInner(PageId id, uint32_t level);
  Status CheckChild(PageId child) const;
  // Walks the leaf chain from `leaf`, calling fn on every entry >= `from`
  // in key order until fn returns false. Rejects out-of-order keys,
  // zero counts and chain cycles.
  Status Scan(PageId leaf, Key from,
              const std::function<bool(const Entry&)>& fn);

  Status LoadMeta();
  Status StoreMeta();

  // Recursive helper of CheckConsistency.
  void CheckSubtree(PageId page, uint32_t level, const Key* lo,
                    const Key* hi, std::vector<PageId>* leaves,
                    uint64_t* entries);

  Pager* pager_;
  PageId meta_page_ = 0;
  int meta_offset_ = 0;
  // Cached meta fields (persisted by StoreMeta).
  PageId root_ = 0;
  uint32_t height_ = 0;
  uint64_t entry_count_ = 0;
};

}  // namespace pqidx

#endif  // PQIDX_STORAGE_BPLUS_TREE_H_
