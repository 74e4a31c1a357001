#include "storage/bplus_tree.h"

#include <cstring>
#include <limits>

namespace pqidx {
namespace {

// --- raw page field access ---------------------------------------------------

template <typename T>
T Load(const uint8_t* page, int offset) {
  T value;
  std::memcpy(&value, page + offset, sizeof(T));
  return value;
}

template <typename T>
void Store(uint8_t* page, int offset, T value) {
  std::memcpy(page + offset, &value, sizeof(T));
}

// Meta record layout (relative to the caller-chosen offset).
constexpr uint32_t kMetaMagic = 0x50514254;  // "PQBT"
constexpr int kMetaMagicOff = 0;
constexpr int kMetaRootOff = 4;
constexpr int kMetaHeightOff = 8;
constexpr int kMetaReservedOff = 12;
constexpr int kMetaEntryCountOff = 16;

// Shared node header: u32 kind, u16 count, u16 reserved.
constexpr uint32_t kLeafKind = 0x4641454c;   // "LEAF"
constexpr uint32_t kInnerKind = 0x524e4e49;  // "INNR"
constexpr int kKindOff = 0;
constexpr int kCountOff = 4;

// Leaf: u32 right sibling (0 = last leaf), then 16-byte entries.
constexpr int kLeafNextOff = 8;
constexpr int kLeafEntriesOff = 16;
// Inner: u32 level (leaves are level 0), u32 leftmost child, then
// 16-byte separators {key, child}.
constexpr int kInnerLevelOff = 8;
constexpr int kInnerChild0Off = 12;
constexpr int kInnerEntriesOff = 16;

constexpr int kEntrySize = 16;  // u32 tree + u64 fp + u32 count / child
constexpr int kLeafCapacity = (kPageSize - kLeafEntriesOff) / kEntrySize;
constexpr int kInnerCapacity = (kPageSize - kInnerEntriesOff) / kEntrySize;
// AddSorted's right-edge appends (the bulk load) pack nodes to 90%,
// leaving room for later in-place growth of the trees they hold.
constexpr int kLeafFill = kLeafCapacity * 9 / 10;
constexpr int kInnerFill = kInnerCapacity * 9 / 10;

constexpr int64_t kMaxCount = std::numeric_limits<uint32_t>::max();

using Key = BPlusTree::Key;

int EntryOff(int entries_off, int slot) {
  return entries_off + slot * kEntrySize;
}

// Key order is (tree, fp) lexicographic. Leaf entries and inner
// separators share the {u32 tree, u64 fp, u32 payload} record shape.
bool Less(Key a, Key b) {
  return a.tree < b.tree || (a.tree == b.tree && a.fp < b.fp);
}

bool Equal(Key a, Key b) { return a.tree == b.tree && a.fp == b.fp; }

Key KeyAt(const uint8_t* page, int entries_off, int slot) {
  int off = EntryOff(entries_off, slot);
  return {Load<uint32_t>(page, off), Load<uint64_t>(page, off + 4)};
}

uint32_t PayloadAt(const uint8_t* page, int entries_off, int slot) {
  return Load<uint32_t>(page, EntryOff(entries_off, slot) + 12);
}

void StoreRecord(uint8_t* page, int entries_off, int slot, Key key,
                 uint32_t payload) {
  int off = EntryOff(entries_off, slot);
  Store(page, off, key.tree);
  Store(page, off + 4, key.fp);
  Store(page, off + 12, payload);
}

int NodeCount(const uint8_t* page) {
  return Load<uint16_t>(page, kCountOff);
}

// First leaf slot whose key is >= `key`.
int LeafLowerBound(const uint8_t* page, int count, Key key) {
  int lo = 0, hi = count;
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    if (Less(KeyAt(page, kLeafEntriesOff, mid), key)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// Child slot (0..count) whose range holds `key`: the number of
// separators <= `key`.
int InnerChildSlot(const uint8_t* page, int count, Key key) {
  int lo = 0, hi = count;
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    if (Less(key, KeyAt(page, kInnerEntriesOff, mid))) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

PageId InnerChild(const uint8_t* page, int slot) {
  return slot == 0 ? Load<uint32_t>(page, kInnerChild0Off)
                   : PayloadAt(page, kInnerEntriesOff, slot - 1);
}

void InitLeaf(uint8_t* page, PageId next) {
  std::memset(page, 0, kPageSize);
  Store(page, kKindOff, kLeafKind);
  Store(page, kLeafNextOff, static_cast<uint32_t>(next));
}

void InitInner(uint8_t* page, uint32_t level, PageId child0) {
  std::memset(page, 0, kPageSize);
  Store(page, kKindOff, kInnerKind);
  Store(page, kInnerLevelOff, level);
  Store(page, kInnerChild0Off, static_cast<uint32_t>(child0));
}

// Writes `n` packed records into a node's entry area and zeroes the
// remainder, so page images (and their WAL copies) carry no stale bytes.
void WriteRecords(uint8_t* page, int entries_off, const uint8_t* records,
                  int n) {
  std::memcpy(page + entries_off, records,
              static_cast<size_t>(n) * kEntrySize);
  std::memset(page + entries_off + n * kEntrySize, 0,
              static_cast<size_t>(kPageSize - entries_off - n * kEntrySize));
  Store(page, kCountOff, static_cast<uint16_t>(n));
}

// The separator between two adjacent leaves: at a tree boundary it is
// (tree, 0), so every key of the right tree -- including fingerprints an
// update adds below its current smallest -- descends into the right
// tree's own leaves instead of the tail of its left neighbour's.
Key Separator(Key left_last, Key right_first) {
  return left_last.tree == right_first.tree ? right_first
                                            : Key{right_first.tree, 0};
}

// Where an even split of `n` packed leaf records cuts: the tree
// boundary nearest the middle within the middle half (so neither side
// takes a straddling run), else the middle itself.
int SplitPoint(const uint8_t* records, int n) {
  const int mid = n / 2;
  for (int d = 0; d <= n / 4; ++d) {
    for (int b : {mid - d, mid + d}) {
      if (b > 0 && b < n &&
          KeyAt(records, 0, b - 1).tree != KeyAt(records, 0, b).tree) {
        return b;
      }
    }
  }
  return mid;
}

}  // namespace

Status BPlusTree::Create(PageId meta_page, int meta_offset) {
  PQIDX_CHECK(meta_offset >= 0 && meta_offset + kMetaSize <= kPageSize);
  meta_page_ = meta_page;
  meta_offset_ = meta_offset;
  StatusOr<PageId> root = pager_->AllocatePage();
  PQIDX_RETURN_IF_ERROR(root.status());
  {
    StatusOr<uint8_t*> page = pager_->MutablePage(*root);
    PQIDX_RETURN_IF_ERROR(page.status());
    InitLeaf(*page, 0);
  }
  root_ = *root;
  height_ = 1;
  entry_count_ = 0;
  return StoreMeta();
}

Status BPlusTree::Attach(PageId meta_page, int meta_offset) {
  PQIDX_CHECK(meta_offset >= 0 && meta_offset + kMetaSize <= kPageSize);
  meta_page_ = meta_page;
  meta_offset_ = meta_offset;
  return LoadMeta();
}

Status BPlusTree::LoadMeta() {
  StatusOr<const uint8_t*> meta = pager_->ReadPage(meta_page_);
  PQIDX_RETURN_IF_ERROR(meta.status());
  const uint8_t* record = *meta + meta_offset_;
  if (Load<uint32_t>(record, kMetaMagicOff) != kMetaMagic) {
    return DataLossError("not a B+-tree meta record");
  }
  root_ = Load<uint32_t>(record, kMetaRootOff);
  height_ = Load<uint32_t>(record, kMetaHeightOff);
  entry_count_ = Load<uint64_t>(record, kMetaEntryCountOff);
  if (height_ < 1 || height_ > kMaxHeight) {
    return DataLossError("corrupt B+-tree meta record: bad height");
  }
  return CheckChild(root_);
}

Status BPlusTree::StoreMeta() {
  StatusOr<uint8_t*> meta = pager_->MutablePage(meta_page_);
  PQIDX_RETURN_IF_ERROR(meta.status());
  uint8_t* record = *meta + meta_offset_;
  Store(record, kMetaMagicOff, kMetaMagic);
  Store(record, kMetaRootOff, static_cast<uint32_t>(root_));
  Store(record, kMetaHeightOff, height_);
  Store(record, kMetaReservedOff, uint32_t{0});
  Store(record, kMetaEntryCountOff, entry_count_);
  return Status::Ok();
}

Status BPlusTree::CheckChild(PageId child) const {
  if (child == 0 || child == meta_page_ || child >= pager_->page_count()) {
    return DataLossError("B+-tree page link out of range");
  }
  return Status::Ok();
}

StatusOr<const uint8_t*> BPlusTree::ReadLeaf(PageId id) {
  StatusOr<const uint8_t*> page = pager_->ReadPage(id);
  PQIDX_RETURN_IF_ERROR(page.status());
  if (Load<uint32_t>(*page, kKindOff) != kLeafKind) {
    return DataLossError("B+-tree leaf expected");
  }
  if (NodeCount(*page) > kLeafCapacity) {
    return DataLossError("B+-tree leaf entry count exceeds capacity");
  }
  PageId next = Load<uint32_t>(*page, kLeafNextOff);
  if (next != 0) PQIDX_RETURN_IF_ERROR(CheckChild(next));
  return page;
}

StatusOr<const uint8_t*> BPlusTree::ReadInner(PageId id, uint32_t level) {
  StatusOr<const uint8_t*> page = pager_->ReadPage(id);
  PQIDX_RETURN_IF_ERROR(page.status());
  if (Load<uint32_t>(*page, kKindOff) != kInnerKind ||
      Load<uint32_t>(*page, kInnerLevelOff) != level) {
    return DataLossError("B+-tree inner node expected at this level");
  }
  if (NodeCount(*page) > kInnerCapacity) {
    return DataLossError("B+-tree inner key count exceeds capacity");
  }
  return page;
}

Status BPlusTree::Descend(Key key, Path* path, PageId* leaf) {
  PageId page = root_;
  // Exactly height-1 steps, each one level down: a child link that
  // points back up the tree fails the level check instead of looping.
  for (uint32_t level = height_ - 1; level >= 1; --level) {
    StatusOr<const uint8_t*> data = ReadInner(page, level);
    PQIDX_RETURN_IF_ERROR(data.status());
    int slot = InnerChildSlot(*data, NodeCount(*data), key);
    PageId child = InnerChild(*data, slot);
    PQIDX_RETURN_IF_ERROR(CheckChild(child));
    path->page[level] = page;
    path->slot[level] = slot;
    page = child;
  }
  *leaf = page;
  return Status::Ok();
}

StatusOr<int64_t> BPlusTree::Get(uint32_t tree, uint64_t fp) {
  Path path{};
  PageId leaf = 0;
  PQIDX_RETURN_IF_ERROR(Descend({tree, fp}, &path, &leaf));
  StatusOr<const uint8_t*> data = ReadLeaf(leaf);
  PQIDX_RETURN_IF_ERROR(data.status());
  const int count = NodeCount(*data);
  const int pos = LeafLowerBound(*data, count, {tree, fp});
  if (pos < count && Equal(KeyAt(*data, kLeafEntriesOff, pos), {tree, fp})) {
    return static_cast<int64_t>(PayloadAt(*data, kLeafEntriesOff, pos));
  }
  return int64_t{0};
}

Status BPlusTree::AddDelta(uint32_t tree, uint64_t fp, int64_t delta) {
  if (delta == 0) return Status::Ok();
  const Key key{tree, fp};
  Path path{};
  PageId leaf = 0;
  PQIDX_RETURN_IF_ERROR(Descend(key, &path, &leaf));
  StatusOr<const uint8_t*> data = ReadLeaf(leaf);
  PQIDX_RETURN_IF_ERROR(data.status());
  const int count = NodeCount(*data);
  const int pos = LeafLowerBound(*data, count, key);

  if (pos < count && Equal(KeyAt(*data, kLeafEntriesOff, pos), key)) {
    const int64_t next =
        PayloadAt(*data, kLeafEntriesOff, pos) + delta;
    if (next < 0) {
      return FailedPreconditionError("pq-gram count would become negative");
    }
    if (next > kMaxCount) {
      return OutOfRangeError("pq-gram count exceeds the 32-bit count field");
    }
    StatusOr<uint8_t*> page = pager_->MutablePage(leaf);
    PQIDX_RETURN_IF_ERROR(page.status());
    if (next > 0) {
      StoreRecord(*page, kLeafEntriesOff, pos, key,
                  static_cast<uint32_t>(next));
      return Status::Ok();
    }
    uint8_t* at = *page + EntryOff(kLeafEntriesOff, pos);
    std::memmove(at, at + kEntrySize,
                 static_cast<size_t>(count - pos - 1) * kEntrySize);
    std::memset(*page + EntryOff(kLeafEntriesOff, count - 1), 0, kEntrySize);
    Store(*page, kCountOff, static_cast<uint16_t>(count - 1));
    --entry_count_;
    return StoreMeta();
  }

  if (delta < 0) {
    return FailedPreconditionError("decrement of an absent pq-gram tuple");
  }
  if (delta > kMaxCount) {
    return OutOfRangeError("pq-gram count exceeds the 32-bit count field");
  }
  const PageId right_link = Load<uint32_t>(*data, kLeafNextOff);
  if (count < kLeafCapacity) {
    StatusOr<uint8_t*> page = pager_->MutablePage(leaf);
    PQIDX_RETURN_IF_ERROR(page.status());
    uint8_t* at = *page + EntryOff(kLeafEntriesOff, pos);
    std::memmove(at + kEntrySize, at,
                 static_cast<size_t>(count - pos) * kEntrySize);
    StoreRecord(*page, kLeafEntriesOff, pos, key,
                static_cast<uint32_t>(delta));
    Store(*page, kCountOff, static_cast<uint16_t>(count + 1));
    ++entry_count_;
    return StoreMeta();
  }

  // Full leaf: split the count+1 records near the middle, at a tree
  // boundary when one is close. (Dense right-edge packing is AddSorted's
  // job; a split here makes room for in-place growth.)
  uint8_t records[(kLeafCapacity + 1) * kEntrySize];
  const uint8_t* src = *data + kLeafEntriesOff;
  std::memcpy(records, src, static_cast<size_t>(pos) * kEntrySize);
  std::memcpy(records + (pos + 1) * kEntrySize, src + pos * kEntrySize,
              static_cast<size_t>(count - pos) * kEntrySize);
  StoreRecord(records, 0, pos, key, static_cast<uint32_t>(delta));
  const int left_n = SplitPoint(records, count + 1);
  const int right_n = count + 1 - left_n;

  StatusOr<PageId> right = pager_->AllocatePage();
  PQIDX_RETURN_IF_ERROR(right.status());
  {
    StatusOr<uint8_t*> page = pager_->MutablePage(*right);
    PQIDX_RETURN_IF_ERROR(page.status());
    InitLeaf(*page, right_link);
    WriteRecords(*page, kLeafEntriesOff, records + left_n * kEntrySize,
                 right_n);
  }
  {
    StatusOr<uint8_t*> page = pager_->MutablePage(leaf);
    PQIDX_RETURN_IF_ERROR(page.status());
    Store(*page, kLeafNextOff, static_cast<uint32_t>(*right));
    WriteRecords(*page, kLeafEntriesOff, records, left_n);
  }
  ++entry_count_;
  const Key sep =
      Separator(KeyAt(records, 0, left_n - 1), KeyAt(records, 0, left_n));
  PQIDX_RETURN_IF_ERROR(
      InsertIntoParent(path, 1, sep, *right, /*append=*/false));
  return StoreMeta();
}

Status BPlusTree::InsertIntoParent(const Path& path, int level, Key key,
                                   PageId child, bool append) {
  if (level >= static_cast<int>(height_)) {
    // The split reached the root: grow the tree by one level.
    if (height_ >= kMaxHeight) {
      return OutOfRangeError("B+-tree height limit reached");
    }
    StatusOr<PageId> root = pager_->AllocatePage();
    PQIDX_RETURN_IF_ERROR(root.status());
    StatusOr<uint8_t*> page = pager_->MutablePage(*root);
    PQIDX_RETURN_IF_ERROR(page.status());
    InitInner(*page, height_, root_);
    StoreRecord(*page, kInnerEntriesOff, 0, key,
                static_cast<uint32_t>(child));
    Store(*page, kCountOff, uint16_t{1});
    root_ = *root;
    ++height_;
    return StoreMeta();
  }

  const PageId node = path.page[level];
  const int at = path.slot[level];  // new separator goes to entry `at`
  StatusOr<const uint8_t*> data =
      ReadInner(node, static_cast<uint32_t>(level));
  PQIDX_RETURN_IF_ERROR(data.status());
  const int count = NodeCount(*data);
  if (count < kInnerCapacity) {
    StatusOr<uint8_t*> page = pager_->MutablePage(node);
    PQIDX_RETURN_IF_ERROR(page.status());
    uint8_t* slot = *page + EntryOff(kInnerEntriesOff, at);
    std::memmove(slot + kEntrySize, slot,
                 static_cast<size_t>(count - at) * kEntrySize);
    StoreRecord(*page, kInnerEntriesOff, at, key,
                static_cast<uint32_t>(child));
    Store(*page, kCountOff, static_cast<uint16_t>(count + 1));
    return Status::Ok();
  }

  // Full inner node: separators e[0..count] with the new one at `at`.
  // The left node keeps child0 and e[0..m), e[m] moves up, and the right
  // node takes e[m].child as its leftmost child plus e[m+1..count].
  uint8_t records[(kInnerCapacity + 1) * kEntrySize];
  const uint8_t* src = *data + kInnerEntriesOff;
  std::memcpy(records, src, static_cast<size_t>(at) * kEntrySize);
  std::memcpy(records + (at + 1) * kEntrySize, src + at * kEntrySize,
              static_cast<size_t>(count - at) * kEntrySize);
  StoreRecord(records, 0, at, key, static_cast<uint32_t>(child));
  const int m = append ? kInnerFill : (count + 1) / 2;
  const Key up = KeyAt(records, 0, m);
  const PageId right_child0 = PayloadAt(records, 0, m);

  StatusOr<PageId> right = pager_->AllocatePage();
  PQIDX_RETURN_IF_ERROR(right.status());
  {
    StatusOr<uint8_t*> page = pager_->MutablePage(*right);
    PQIDX_RETURN_IF_ERROR(page.status());
    InitInner(*page, static_cast<uint32_t>(level), right_child0);
    WriteRecords(*page, kInnerEntriesOff, records + (m + 1) * kEntrySize,
                 count - m);
  }
  {
    StatusOr<uint8_t*> page = pager_->MutablePage(node);
    PQIDX_RETURN_IF_ERROR(page.status());
    WriteRecords(*page, kInnerEntriesOff, records, m);
  }
  return InsertIntoParent(path, level + 1, up, *right, append);
}

Status BPlusTree::AddSorted(const std::vector<Entry>& deltas) {
  // deltas[j] can join a right-edge append run that started at `first`.
  auto appendable = [&](size_t first, size_t j) {
    const Entry& e = deltas[j];
    if (e.count <= 0 || e.count > kMaxCount) return false;
    return j == first || Less({deltas[j - 1].tree, deltas[j - 1].fp},
                              {e.tree, e.fp});
  };
  size_t i = 0;
  while (i < deltas.size()) {
    const Entry& e = deltas[i];
    if (!appendable(i, i)) {
      PQIDX_RETURN_IF_ERROR(AddDelta(e.tree, e.fp, e.count));
      ++i;
      continue;
    }
    Path path{};
    PageId leaf = 0;
    PQIDX_RETURN_IF_ERROR(Descend({e.tree, e.fp}, &path, &leaf));
    StatusOr<const uint8_t*> data = ReadLeaf(leaf);
    PQIDX_RETURN_IF_ERROR(data.status());
    const int count = NodeCount(*data);
    const bool right_edge =
        Load<uint32_t>(*data, kLeafNextOff) == 0 &&
        LeafLowerBound(*data, count, {e.tree, e.fp}) == count;
    if (!right_edge) {
      PQIDX_RETURN_IF_ERROR(AddDelta(e.tree, e.fp, e.count));
      ++i;
      continue;
    }
    // Past the last stored key: fill the last leaf to 90%, or start a
    // fresh right leaf once it is that full -- or when the next tree's
    // run would straddle the two although a fresh leaf holds it whole
    // (one tree, one leaf: an edit of that tree then dirties one leaf).
    const Key last = count > 0 ? KeyAt(*data, kLeafEntriesOff, count - 1)
                               : Key{e.tree, e.fp};
    bool fresh = count >= kLeafFill;
    if (!fresh && count > 0 && last.tree != e.tree) {
      size_t run = 0;
      while (i + run < deltas.size() && run <= kLeafFill &&
             deltas[i + run].tree == e.tree) {
        ++run;
      }
      fresh = run > static_cast<size_t>(kLeafFill - count) &&
              run <= static_cast<size_t>(kLeafFill);
    }
    const int room = fresh ? kLeafFill : kLeafFill - count;
    // One tree's run per step, so the next tree gets its own
    // straddle check.
    size_t end = i;
    while (end < deltas.size() && end - i < static_cast<size_t>(room) &&
           deltas[end].tree == e.tree && appendable(i, end)) {
      ++end;
    }
    const int n = static_cast<int>(end - i);
    uint8_t records[kLeafCapacity * kEntrySize];
    for (int k = 0; k < n; ++k) {
      const Entry& r = deltas[i + static_cast<size_t>(k)];
      StoreRecord(records, 0, k, {r.tree, r.fp},
                  static_cast<uint32_t>(r.count));
    }
    if (!fresh) {
      StatusOr<uint8_t*> page = pager_->MutablePage(leaf);
      PQIDX_RETURN_IF_ERROR(page.status());
      std::memcpy(*page + EntryOff(kLeafEntriesOff, count), records,
                  static_cast<size_t>(n) * kEntrySize);
      Store(*page, kCountOff, static_cast<uint16_t>(count + n));
    } else {
      StatusOr<PageId> right = pager_->AllocatePage();
      PQIDX_RETURN_IF_ERROR(right.status());
      {
        StatusOr<uint8_t*> page = pager_->MutablePage(*right);
        PQIDX_RETURN_IF_ERROR(page.status());
        InitLeaf(*page, 0);
        WriteRecords(*page, kLeafEntriesOff, records, n);
      }
      {
        StatusOr<uint8_t*> page = pager_->MutablePage(leaf);
        PQIDX_RETURN_IF_ERROR(page.status());
        Store(*page, kLeafNextOff, static_cast<uint32_t>(*right));
      }
      PQIDX_RETURN_IF_ERROR(InsertIntoParent(
          path, 1, Separator(last, {e.tree, e.fp}), *right, true));
    }
    entry_count_ += static_cast<uint64_t>(n);
    i = end;
  }
  return StoreMeta();
}

Status BPlusTree::Scan(PageId leaf, Key from,
                       const std::function<bool(const Entry&)>& fn) {
  bool have_prev = false;
  Key prev{0, 0};
  std::vector<Entry> entries;
  uint64_t steps = 0;
  for (PageId page = leaf; page != 0;) {
    if (++steps > pager_->page_count()) {
      return DataLossError("B+-tree leaf chain cycle");
    }
    StatusOr<const uint8_t*> data = ReadLeaf(page);
    PQIDX_RETURN_IF_ERROR(data.status());
    const int count = NodeCount(*data);
    // Copy out before invoking fn: the callback may touch the pager and
    // invalidate the borrowed page pointer.
    entries.clear();
    for (int slot = LeafLowerBound(*data, count, from); slot < count;
         ++slot) {
      const Key key = KeyAt(*data, kLeafEntriesOff, slot);
      const uint32_t value = PayloadAt(*data, kLeafEntriesOff, slot);
      if (have_prev && !Less(prev, key)) {
        return DataLossError("B+-tree leaf entries out of order");
      }
      if (value == 0) return DataLossError("B+-tree entry with zero count");
      have_prev = true;
      prev = key;
      entries.push_back({key.tree, key.fp, value});
    }
    page = Load<uint32_t>(*data, kLeafNextOff);
    for (const Entry& entry : entries) {
      if (!fn(entry)) return Status::Ok();
    }
  }
  return Status::Ok();
}

Status BPlusTree::ForEach(
    const std::function<void(uint32_t, uint64_t, int64_t)>& fn) {
  Path path{};
  PageId leaf = 0;
  PQIDX_RETURN_IF_ERROR(Descend({0, 0}, &path, &leaf));
  return Scan(leaf, {0, 0}, [&fn](const Entry& e) {
    fn(e.tree, e.fp, e.count);
    return true;
  });
}

Status BPlusTree::ForEachInTree(
    uint32_t tree, const std::function<void(uint64_t, int64_t)>& fn) {
  Path path{};
  PageId leaf = 0;
  PQIDX_RETURN_IF_ERROR(Descend({tree, 0}, &path, &leaf));
  return Scan(leaf, {tree, 0}, [tree, &fn](const Entry& e) {
    if (e.tree != tree) return false;
    fn(e.fp, e.count);
    return true;
  });
}

Status BPlusTree::RemoveTree(uint32_t tree, int64_t* removed_total) {
  const Key start{tree, 0};
  Path path{};
  PageId leaf = 0;
  PQIDX_RETURN_IF_ERROR(Descend({tree, 0}, &path, &leaf));
  int64_t total = 0;
  uint64_t removed = 0;
  uint64_t steps = 0;
  for (PageId page = leaf; page != 0;) {
    if (++steps > pager_->page_count()) {
      return DataLossError("B+-tree leaf chain cycle");
    }
    StatusOr<const uint8_t*> data = ReadLeaf(page);
    PQIDX_RETURN_IF_ERROR(data.status());
    const int count = NodeCount(*data);
    const PageId next = Load<uint32_t>(*data, kLeafNextOff);
    const int lo = LeafLowerBound(*data, count, start);
    int hi = lo;
    while (hi < count && KeyAt(*data, kLeafEntriesOff, hi).tree == tree) {
      total += PayloadAt(*data, kLeafEntriesOff, hi);
      ++hi;
    }
    if (hi > lo) {
      StatusOr<uint8_t*> mutable_page = pager_->MutablePage(page);
      PQIDX_RETURN_IF_ERROR(mutable_page.status());
      uint8_t* base = *mutable_page + kLeafEntriesOff;
      // Stage the survivors first: memcpy ranges must not overlap.
      uint8_t records[kLeafCapacity * kEntrySize];
      std::memcpy(records, base, static_cast<size_t>(lo) * kEntrySize);
      std::memcpy(records + lo * kEntrySize, base + hi * kEntrySize,
                  static_cast<size_t>(count - hi) * kEntrySize);
      WriteRecords(*mutable_page, kLeafEntriesOff, records,
                   count - (hi - lo));
      removed += static_cast<uint64_t>(hi - lo);
    }
    if (hi < count) break;  // reached the next tree's keys
    page = next;
  }
  if (removed > entry_count_) {
    return DataLossError("B+-tree entry count below its stored entries");
  }
  entry_count_ -= removed;
  if (removed_total != nullptr) *removed_total = total;
  if (removed == 0) return Status::Ok();
  return StoreMeta();
}

void BPlusTree::CheckSubtree(PageId page, uint32_t level, const Key* lo,
                             const Key* hi, std::vector<PageId>* leaves,
                             uint64_t* entries) {
  auto in_bounds = [&](Key key) {
    return (lo == nullptr || !Less(key, *lo)) &&
           (hi == nullptr || Less(key, *hi));
  };
  if (level == 0) {
    StatusOr<const uint8_t*> data = ReadLeaf(page);
    PQIDX_CHECK(data.ok());
    const int count = NodeCount(*data);
    for (int slot = 0; slot < count; ++slot) {
      Key key = KeyAt(*data, kLeafEntriesOff, slot);
      PQIDX_CHECK(in_bounds(key));
      PQIDX_CHECK(PayloadAt(*data, kLeafEntriesOff, slot) > 0);
      if (slot > 0) {
        PQIDX_CHECK(Less(KeyAt(*data, kLeafEntriesOff, slot - 1), key));
      }
    }
    leaves->push_back(page);
    *entries += static_cast<uint64_t>(count);
    return;
  }
  StatusOr<const uint8_t*> data = ReadInner(page, level);
  PQIDX_CHECK(data.ok());
  const int count = NodeCount(*data);
  PQIDX_CHECK(count >= 1);
  std::vector<Key> keys;
  std::vector<PageId> children;
  children.push_back(InnerChild(*data, 0));
  for (int slot = 0; slot < count; ++slot) {
    Key key = KeyAt(*data, kInnerEntriesOff, slot);
    PQIDX_CHECK(in_bounds(key));
    if (slot > 0) {
      PQIDX_CHECK(Less(KeyAt(*data, kInnerEntriesOff, slot - 1), key));
    }
    keys.push_back(key);
    children.push_back(InnerChild(*data, slot + 1));
  }
  for (size_t i = 0; i < children.size(); ++i) {
    PQIDX_CHECK(CheckChild(children[i]).ok());
    CheckSubtree(children[i], level - 1, i == 0 ? lo : &keys[i - 1],
                 i == keys.size() ? hi : &keys[i], leaves, entries);
  }
}

void BPlusTree::CheckConsistency() {
  std::vector<PageId> leaves;
  uint64_t entries = 0;
  CheckSubtree(root_, height_ - 1, nullptr, nullptr, &leaves, &entries);
  PQIDX_CHECK(entries == entry_count_);
  // The sibling chain visits exactly the in-order leaves.
  PageId page = leaves.front();
  for (size_t i = 0; i < leaves.size(); ++i) {
    PQIDX_CHECK(page == leaves[i]);
    StatusOr<const uint8_t*> data = ReadLeaf(page);
    PQIDX_CHECK(data.ok());
    page = Load<uint32_t>(*data, kLeafNextOff);
  }
  PQIDX_CHECK(page == 0);
}

}  // namespace pqidx
