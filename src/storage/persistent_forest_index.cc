#include "storage/persistent_forest_index.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>
#include <map>

#include "common/metrics.h"
#include "core/incremental.h"

namespace pqidx {
namespace {

constexpr uint32_t kStoreMagic = 0x50515046;  // "PQPF"
// Version 2 keeps the index relation in a B+-tree ordered by (tree, fp);
// version 1 kept it in a linear hash table and is no longer readable.
constexpr uint32_t kStoreVersion = 2;
constexpr uint32_t kHashLayoutVersion = 1;

// Store meta (page 0) layout.
constexpr int kMagicOff = 0;
constexpr int kVersionOff = 4;
constexpr int kShapePOff = 8;
constexpr int kShapeQOff = 9;
constexpr int kCatalogHeadOff = 16;
// u64 replication cursor (service/replication.h); 0 = never replicated.
constexpr int kCursorOff = 20;
// u64 store commit ticket (storage/sharded_store.h); 0 = never
// group-committed.
constexpr int kTicketOff = 28;
// The B+-tree's meta record (root, height, entry count) lives on page 0
// too, so a commit dirties no separate table meta page.
constexpr int kTreeMetaOff = 40;
static_assert(kTreeMetaOff + BPlusTree::kMetaSize <= kPageSize);

// Catalog page layout.
constexpr int kCatNextOff = 0;
constexpr int kCatCountOff = 4;
constexpr int kCatEntriesOff = 8;
constexpr int kCatEntrySize = 12;  // tree u32 + size i64
constexpr size_t kCatPerPage = (kPageSize - kCatEntriesOff) / kCatEntrySize;
constexpr size_t kNoPage = std::numeric_limits<size_t>::max();

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

// A (tree, fp) tuple delta: the unit the δ-phase stages and applies.
using Delta = BPlusTree::Entry;

// The B+-tree orders its u32 tree field unsigned, the catalog orders
// TreeIds signed. Flipping the sign bit maps one order onto the other,
// so a negative id's run sits before id 0 in the leaves just as its
// entry does in the catalog, and the two can be walked in lockstep.
uint32_t TreeKey(TreeId id) {
  return static_cast<uint32_t>(id) ^ 0x80000000u;
}

TreeId TreeOfKey(uint32_t key) {
  return static_cast<TreeId>(key ^ 0x80000000u);
}

bool KeyLess(const Delta& a, const Delta& b) {
  return a.tree < b.tree || (a.tree == b.tree && a.fp < b.fp);
}

// Sorts deltas[begin..] by (tree, fp) and coalesces duplicate keys into
// net deltas, dropping zero nets: the apply then walks each tree's leaf
// run once, in order, and a tuple retracted and re-added in the same
// transaction never touches the B+-tree at all.
void SortAndCoalesce(std::vector<Delta>* deltas, size_t begin = 0) {
  std::sort(deltas->begin() + static_cast<ptrdiff_t>(begin), deltas->end(),
            KeyLess);
  size_t w = begin;
  for (size_t i = begin; i < deltas->size();) {
    Delta net = (*deltas)[i];
    size_t k = i + 1;
    while (k < deltas->size() && !KeyLess(net, (*deltas)[k])) {
      net.count += (*deltas)[k].count;
      ++k;
    }
    if (net.count != 0) (*deltas)[w++] = net;
    i = k;
  }
  deltas->resize(w);
}

// The staged tuple deltas of one edit, i.e. of one tree.
struct EditRun {
  uint32_t tree = 0;
  std::vector<Delta> deltas;
};

void StageBag(const PqGramIndex& bag, int64_t sign, EditRun* run) {
  for (const auto& [fp, count] : bag.counts()) {
    run->deltas.push_back({run->tree, fp, sign * count});
  }
}

// Builds the per-edit runs in parallel (with `pool`), then concatenates
// them in tree order into one (tree, fp)-sorted, coalesced delta list.
// Runs of the same tree (an add and a later update in one batch) are
// merged; distinct trees only need ordering, never a global sort.
std::vector<Delta> StageRuns(size_t n,
                             const std::function<void(size_t, EditRun*)>& fill,
                             ThreadPool* pool) {
  std::vector<EditRun> runs(n);
  auto stage = [&](int64_t j) {
    EditRun* run = &runs[static_cast<size_t>(j)];
    fill(static_cast<size_t>(j), run);
    SortAndCoalesce(&run->deltas);
  };
  if (pool != nullptr) {
    pool->ParallelFor(static_cast<int64_t>(n), stage);
  } else {
    for (size_t j = 0; j < n; ++j) stage(static_cast<int64_t>(j));
  }
  std::vector<size_t> order(n);
  size_t total = 0;
  for (size_t j = 0; j < n; ++j) {
    order[j] = j;
    total += runs[j].deltas.size();
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return runs[a].tree < runs[b].tree;
  });
  std::vector<Delta> out;
  out.reserve(total);
  for (size_t i = 0; i < n;) {
    const size_t begin = out.size();
    size_t k = i;
    for (; k < n && runs[order[k]].tree == runs[order[i]].tree; ++k) {
      const std::vector<Delta>& deltas = runs[order[k]].deltas;
      out.insert(out.end(), deltas.begin(), deltas.end());
    }
    if (k - i > 1) SortAndCoalesce(&out, begin);
    i = k;
  }
  return out;
}

}  // namespace

StatusOr<std::unique_ptr<PersistentForestIndex>>
PersistentForestIndex::Create(const std::string& path, PqShape shape,
                              int pool_pages) {
  OpenOptions options;
  options.pool_pages = pool_pages;
  return Create(path, shape, options);
}

StatusOr<std::unique_ptr<PersistentForestIndex>>
PersistentForestIndex::Create(const std::string& path, PqShape shape,
                              const OpenOptions& options) {
  PQIDX_CHECK(shape.Valid());
  std::unique_ptr<PersistentForestIndex> store(new PersistentForestIndex(
      options.pool_pages, options.metric_prefix));
  PQIDX_RETURN_IF_ERROR(store->InitializeNew(path, shape));
  return store;
}

StatusOr<std::unique_ptr<PersistentForestIndex>>
PersistentForestIndex::Open(const std::string& path, int pool_pages) {
  OpenOptions options;
  options.pool_pages = pool_pages;
  return Open(path, options);
}

StatusOr<std::unique_ptr<PersistentForestIndex>>
PersistentForestIndex::Open(const std::string& path,
                            const OpenOptions& options) {
  std::unique_ptr<PersistentForestIndex> store(new PersistentForestIndex(
      options.pool_pages, options.metric_prefix));
  PQIDX_RETURN_IF_ERROR(store->OpenExisting(path, options));
  return store;
}

Status PersistentForestIndex::InitializeNew(const std::string& path,
                                            PqShape shape) {
  shape_ = shape;
  PQIDX_RETURN_IF_ERROR(pager_.Open(path, /*create=*/true));
  StatusOr<PageId> meta = pager_.AllocatePage();
  PQIDX_RETURN_IF_ERROR(meta.status());
  PQIDX_CHECK(*meta == 0);
  StatusOr<PageId> catalog = pager_.AllocatePage();
  PQIDX_RETURN_IF_ERROR(catalog.status());
  {
    StatusOr<uint8_t*> page = pager_.MutablePage(0);
    PQIDX_RETURN_IF_ERROR(page.status());
    Store(*page, kMagicOff, kStoreMagic);
    Store(*page, kVersionOff, kStoreVersion);
    Store(*page, kShapePOff, static_cast<uint8_t>(shape.p));
    Store(*page, kShapeQOff, static_cast<uint8_t>(shape.q));
    Store(*page, kCatalogHeadOff, static_cast<uint32_t>(*catalog));
  }
  catalog_.clear();
  catalog_pages_ = {*catalog};
  catalog_pages_used_ = 0;
  PQIDX_RETURN_IF_ERROR(table_.Create(0, kTreeMetaOff));
  return pager_.Commit();
}

Status PersistentForestIndex::OpenExisting(const std::string& path,
                                           const OpenOptions& options) {
  PQIDX_RETURN_IF_ERROR(pager_.Open(path, /*create=*/false,
                                    /*defer_sealed_wal=*/options.bound_replay));
  if (pager_.has_deferred_wal()) {
    // A crash left this shard's group-commit transaction sealed. Its
    // meta-page image carries the store ticket the group stamped;
    // replay only when that group reached the manifest commit point
    // (ticket <= bound). A WAL that never stamped a ticket (legacy
    // single-store transaction) is a complete sealed commit with no
    // group to be torn from, so it replays unconditionally.
    std::vector<uint8_t> page0(kPageSize);
    uint64_t wal_ticket = 0;
    if (pager_.ReadDeferredWalPage(0, page0.data()).ok()) {
      wal_ticket = Load<uint64_t>(page0.data(), kTicketOff);
    }
    const bool replay =
        wal_ticket == 0 || wal_ticket <= options.replay_ticket_bound;
    PQIDX_RETURN_IF_ERROR(pager_.ResolveDeferredWal(replay));
  }
  if (pager_.page_count() == 0) {
    return DataLossError("empty index file: " + path);
  }
  StatusOr<const uint8_t*> page = pager_.ReadPage(0);
  PQIDX_RETURN_IF_ERROR(page.status());
  if (Load<uint32_t>(*page, kMagicOff) != kStoreMagic) {
    return DataLossError("not a pqidx persistent index: " + path);
  }
  const uint32_t version = Load<uint32_t>(*page, kVersionOff);
  if (version == kHashLayoutVersion) {
    return FailedPreconditionError(
        "persistent index " + path + " is version " +
        std::to_string(kHashLayoutVersion) +
        " (linear-hash layout); this build reads only version " +
        std::to_string(kStoreVersion) +
        " (B+-tree layout): rebuild the store from its documents");
  }
  if (version != kStoreVersion) {
    return DataLossError("unsupported persistent index version " +
                         std::to_string(version));
  }
  shape_.p = Load<uint8_t>(*page, kShapePOff);
  shape_.q = Load<uint8_t>(*page, kShapeQOff);
  if (!shape_.Valid()) return DataLossError("bad index shape");
  return ReloadCaches();
}

Status PersistentForestIndex::LoadCatalog(PageId head) {
  catalog_.clear();
  catalog_pages_.clear();
  catalog_dirty_pages_.clear();
  catalog_rewrite_from_ = kNoPage;
  for (PageId page_id = head; page_id != 0;) {
    // A chain can never have more pages than the file itself.
    if (page_id >= pager_.page_count() ||
        catalog_pages_.size() >= pager_.page_count()) {
      return DataLossError("corrupt catalog chain");
    }
    StatusOr<const uint8_t*> page = pager_.ReadPage(page_id);
    PQIDX_RETURN_IF_ERROR(page.status());
    size_t count = Load<uint16_t>(*page, kCatCountOff);
    if (count > kCatPerPage) return DataLossError("corrupt catalog page");
    for (size_t slot = 0; slot < count; ++slot) {
      int off = kCatEntriesOff + static_cast<int>(slot) * kCatEntrySize;
      CatalogEntry entry{static_cast<TreeId>(Load<uint32_t>(*page, off)),
                         Load<int64_t>(*page, off + 4)};
      if (!catalog_.empty() && catalog_.back().id >= entry.id) {
        return DataLossError("catalog ids out of order");
      }
      catalog_.push_back(entry);
    }
    catalog_pages_.push_back(page_id);
    page_id = Load<uint32_t>(*page, kCatNextOff);
  }
  if (catalog_pages_.empty()) return DataLossError("missing catalog page");
  catalog_pages_used_ = catalog_pages_.size();
  return Status::Ok();
}

std::vector<PersistentForestIndex::CatalogEntry>::iterator
PersistentForestIndex::CatalogLowerBound(TreeId id) {
  return std::lower_bound(
      catalog_.begin(), catalog_.end(), id,
      [](const CatalogEntry& e, TreeId key) { return e.id < key; });
}

void PersistentForestIndex::SetCatalogSize(TreeId id, int64_t size) {
  auto it = CatalogLowerBound(id);
  const size_t pos = static_cast<size_t>(it - catalog_.begin());
  if (it != catalog_.end() && it->id == id) {
    // In place: only the page holding the entry changes.
    it->size = size;
    catalog_dirty_pages_.push_back(pos / kCatPerPage);
    return;
  }
  // An insert shifts every later entry; for an ascending new id that is
  // just the last page (an append).
  catalog_.insert(it, {id, size});
  catalog_rewrite_from_ = std::min(catalog_rewrite_from_, pos / kCatPerPage);
}

void PersistentForestIndex::EraseCatalog(TreeId id) {
  auto it = CatalogLowerBound(id);
  if (it == catalog_.end() || it->id != id) return;
  const size_t pos = static_cast<size_t>(it - catalog_.begin());
  catalog_.erase(it);
  catalog_rewrite_from_ = std::min(catalog_rewrite_from_, pos / kCatPerPage);
}

Status PersistentForestIndex::WriteCatalogPage(size_t k) {
  while (catalog_pages_.size() <= k) {
    // Extend the chain.
    StatusOr<PageId> fresh = pager_.AllocatePage();
    PQIDX_RETURN_IF_ERROR(fresh.status());
    StatusOr<uint8_t*> prev = pager_.MutablePage(catalog_pages_.back());
    PQIDX_RETURN_IF_ERROR(prev.status());
    Store(*prev, kCatNextOff, static_cast<uint32_t>(*fresh));
    catalog_pages_.push_back(*fresh);
  }
  StatusOr<uint8_t*> page = pager_.MutablePage(catalog_pages_[k]);
  PQIDX_RETURN_IF_ERROR(page.status());
  const size_t begin = std::min(k * kCatPerPage, catalog_.size());
  const size_t end = std::min(begin + kCatPerPage, catalog_.size());
  for (size_t i = begin; i < end; ++i) {
    int off = kCatEntriesOff + static_cast<int>(i - begin) * kCatEntrySize;
    Store(*page, off, static_cast<uint32_t>(catalog_[i].id));
    Store(*page, off + 4, catalog_[i].size);
  }
  Store(*page, kCatCountOff, static_cast<uint16_t>(end - begin));
  return Status::Ok();
}

Status PersistentForestIndex::StoreCatalog() {
  const size_t needed = (catalog_.size() + kCatPerPage - 1) / kCatPerPage;
  for (size_t k : catalog_dirty_pages_) {
    if (k < catalog_rewrite_from_) {
      PQIDX_RETURN_IF_ERROR(WriteCatalogPage(k));
    }
  }
  if (catalog_rewrite_from_ != kNoPage) {
    // Everything from the first shifted page on, including pages a
    // shrinking catalog leaves empty.
    const size_t last = std::max(needed, catalog_pages_used_);
    for (size_t k = catalog_rewrite_from_; k < last; ++k) {
      PQIDX_RETURN_IF_ERROR(WriteCatalogPage(k));
    }
    catalog_pages_used_ = needed;
  }
  catalog_dirty_pages_.clear();
  catalog_rewrite_from_ = kNoPage;
  return Status::Ok();
}

Status PersistentForestIndex::StoreCursor(uint64_t cursor) {
  if (cursor <= cursor_) return Status::Ok();
  StatusOr<uint8_t*> page = pager_.MutablePage(0);
  PQIDX_RETURN_IF_ERROR(page.status());
  Store(*page, kCursorOff, cursor);
  cursor_ = cursor;
  return Status::Ok();
}

Status PersistentForestIndex::StoreTicket(uint64_t ticket) {
  if (ticket <= ticket_) return Status::Ok();
  StatusOr<uint8_t*> page = pager_.MutablePage(0);
  PQIDX_RETURN_IF_ERROR(page.status());
  Store(*page, kTicketOff, ticket);
  ticket_ = ticket;
  return Status::Ok();
}

Status PersistentForestIndex::CommitOrCrash(bool prepare) {
  if (prepare) {
    // Group-commit prepare: the crash hook stays on the full-commit
    // path; the sharded store injects its own inter-shard crash points.
    return pager_.PrepareCommit();
  }
  if (crash_armed_) {
    crash_armed_ = false;
    return pager_.CommitWithCrash(crash_point_);
  }
  return pager_.Commit();
}

// Restores the in-memory caches (cursor, ticket, B+-tree meta, catalog)
// from the committed page 0.
Status PersistentForestIndex::ReloadCaches() {
  StatusOr<const uint8_t*> page = pager_.ReadPage(0);
  PQIDX_RETURN_IF_ERROR(page.status());
  const PageId catalog_head = Load<uint32_t>(*page, kCatalogHeadOff);
  cursor_ = Load<uint64_t>(*page, kCursorOff);
  ticket_ = Load<uint64_t>(*page, kTicketOff);
  PQIDX_RETURN_IF_ERROR(table_.Attach(0, kTreeMetaOff));
  return LoadCatalog(catalog_head);
}

// Discards uncommitted page changes and restores the in-memory caches
// (catalog, B+-tree meta) from the committed state.
Status PersistentForestIndex::RollbackAndReload(Status cause) {
  // The reload steps are deliberately best-effort: we are already on the
  // error path and must surface `cause`, not a secondary reload failure
  // (a reload that fails leaves the caches as ReadPage/Attach/LoadCatalog
  // left them, and the next operation reports its own error).
  (void)pager_.Rollback();
  (void)ReloadCaches();
  return cause;
}

Status PersistentForestIndex::FinishPrepared() {
  return pager_.FinishPreparedCommit();
}

Status PersistentForestIndex::AbortPrepared() {
  PQIDX_RETURN_IF_ERROR(pager_.AbortPreparedCommit());
  return ReloadCaches();
}

std::vector<TreeId> PersistentForestIndex::TreeIds() const {
  std::vector<TreeId> ids;
  ids.reserve(catalog_.size());
  for (const CatalogEntry& entry : catalog_) ids.push_back(entry.id);
  return ids;
}

int64_t PersistentForestIndex::TreeBagSize(TreeId id) const {
  auto it = std::lower_bound(
      catalog_.begin(), catalog_.end(), id,
      [](const CatalogEntry& e, TreeId key) { return e.id < key; });
  return it == catalog_.end() || it->id != id ? -1 : it->size;
}

Status PersistentForestIndex::AddIndex(TreeId id,
                                       const PqGramIndex& index) {
  return BulkAdd({{id, &index}}, nullptr, TxnOptions{});
}

Status PersistentForestIndex::AddTree(TreeId id, const Tree& tree) {
  return AddIndex(id, BuildIndex(tree, shape_));
}

Status PersistentForestIndex::BulkAdd(
    const std::vector<std::pair<TreeId, const PqGramIndex*>>& bags,
    ThreadPool* pool, uint64_t cursor) {
  TxnOptions txn;
  txn.cursor = cursor;
  return BulkAdd(bags, pool, txn);
}

Status PersistentForestIndex::BulkAdd(
    const std::vector<std::pair<TreeId, const PqGramIndex*>>& bags,
    ThreadPool* pool, const TxnOptions& txn) {
  std::vector<CatalogEntry> adds;
  adds.reserve(bags.size());
  for (const auto& [id, bag] : bags) {
    if (!(bag->shape() == shape_)) {
      return InvalidArgumentError("index shape does not match the store");
    }
    if (TreeBagSize(id) >= 0) {
      return FailedPreconditionError("tree " + std::to_string(id) +
                                     " already in the store");
    }
    adds.push_back({id, bag->size()});
  }
  std::sort(adds.begin(), adds.end(),
            [](const CatalogEntry& a, const CatalogEntry& b) {
              return a.id < b.id;
            });
  for (size_t i = 1; i < adds.size(); ++i) {
    if (adds[i].id == adds[i - 1].id) {
      return InvalidArgumentError("tree " + std::to_string(adds[i].id) +
                                  " appears twice in one bulk add");
    }
  }
  // Each bag becomes a sorted run in parallel; the runs concatenate in
  // id order, so new ids above every stored one bulk-load leaf by leaf.
  std::vector<Delta> deltas = StageRuns(
      bags.size(),
      [&](size_t j, EditRun* run) {
        run->tree = TreeKey(bags[j].first);
        run->deltas.reserve(bags[j].second->counts().size());
        StageBag(*bags[j].second, 1, run);
      },
      pool);
  Status status = table_.AddSorted(deltas);
  if (!status.ok()) return RollbackAndReload(status);
  if (!adds.empty()) {
    auto first = CatalogLowerBound(adds.front().id);
    const size_t pos = static_cast<size_t>(first - catalog_.begin());
    catalog_rewrite_from_ = std::min(catalog_rewrite_from_, pos / kCatPerPage);
    const size_t old_size = catalog_.size();
    catalog_.insert(catalog_.end(), adds.begin(), adds.end());
    std::inplace_merge(catalog_.begin() + static_cast<ptrdiff_t>(pos),
                       catalog_.begin() + static_cast<ptrdiff_t>(old_size),
                       catalog_.end(),
                       [](const CatalogEntry& a, const CatalogEntry& b) {
                         return a.id < b.id;
                       });
  }
  status = StoreCatalog();
  if (!status.ok()) return RollbackAndReload(status);
  status = StoreCursor(txn.cursor);
  if (!status.ok()) return RollbackAndReload(status);
  status = StoreTicket(txn.ticket);
  if (!status.ok()) return RollbackAndReload(status);
  return CommitOrCrash(txn.prepare);
}

Status PersistentForestIndex::ApplyBatch(const std::vector<BatchEdit>& edits,
                                         std::vector<Status>* results,
                                         ApplyBatchTimings* timings,
                                         ThreadPool* pool, uint64_t cursor) {
  TxnOptions txn;
  txn.cursor = cursor;
  return ApplyBatch(edits, results, timings, pool, txn);
}

Status PersistentForestIndex::ApplyBatch(const std::vector<BatchEdit>& edits,
                                         std::vector<Status>* results,
                                         ApplyBatchTimings* timings,
                                         ThreadPool* pool,
                                         const TxnOptions& txn) {
  static Counter* const m_batches =
      Metrics::Default().counter("apply_batch.batches");
  static Counter* const m_edits =
      Metrics::Default().counter("apply_batch.edits_staged");
  static Histogram* const m_stage_parallelism =
      Metrics::Default().histogram("apply_batch.stage_parallelism");
  static Histogram* const m_batch_edits =
      Metrics::Default().histogram("apply_batch.batch_edits");
  static Histogram* const m_validate_us =
      Metrics::Default().histogram("apply_batch.validate_us");
  static Histogram* const m_delta_us =
      Metrics::Default().histogram("apply_batch.delta_us");
  static Histogram* const m_update_us =
      Metrics::Default().histogram("apply_batch.update_us");
  static Histogram* const m_storage_us =
      Metrics::Default().histogram("apply_batch.storage_us");

  const bool timed = Metrics::enabled();
  ApplyBatchTimings split;
  int64_t lap_start = timed ? Metrics::NowUs() : 0;
  auto lap = [&](int64_t* slot) {
    if (!timed) return;
    int64_t now = Metrics::NowUs();
    *slot = now - lap_start;
    lap_start = now;
  };

  results->assign(edits.size(), Status::Ok());

  // Phase 1: catalog-level validation against a scratch overlay, so an
  // add and a later update of the same tree compose within one batch.
  std::map<TreeId, int64_t> staged_sizes;
  auto staged_size = [&](TreeId id) -> int64_t {
    auto it = staged_sizes.find(id);
    if (it != staged_sizes.end()) return it->second;
    return TreeBagSize(id);
  };
  std::vector<bool> staged(edits.size(), false);
  int num_staged = 0;
  for (size_t i = 0; i < edits.size(); ++i) {
    const BatchEdit& edit = edits[i];
    const bool is_add = edit.add != nullptr;
    const bool is_update = edit.plus != nullptr && edit.minus != nullptr;
    if (is_add == is_update) {
      (*results)[i] =
          InvalidArgumentError("batch edit must be an add or an update");
      continue;
    }
    if (is_add) {
      if (!(edit.add->shape() == shape_)) {
        (*results)[i] =
            InvalidArgumentError("index shape does not match the store");
        continue;
      }
      if (staged_size(edit.id) >= 0) {
        (*results)[i] = FailedPreconditionError(
            "tree " + std::to_string(edit.id) + " already in the store");
        continue;
      }
      staged_sizes[edit.id] = edit.add->size();
    } else {
      if (!(edit.plus->shape() == shape_) ||
          !(edit.minus->shape() == shape_)) {
        (*results)[i] =
            InvalidArgumentError("delta shape does not match the store");
        continue;
      }
      int64_t current = staged_size(edit.id);
      if (current < 0) {
        (*results)[i] = NotFoundError("tree not in the store");
        continue;
      }
      int64_t next = current + edit.plus->size() - edit.minus->size();
      if (next < 0) {
        (*results)[i] =
            InvalidArgumentError("minus bag larger than the stored bag");
        continue;
      }
      staged_sizes[edit.id] = next;
    }
    staged[i] = true;
    ++num_staged;
  }
  lap(&split.validate_us);
  if (num_staged == 0) {
    if (timings != nullptr) *timings = split;
    return Status::Ok();  // nothing to commit
  }

  // Phase 2: stage the tuple deltas. Any failure here (I/O, or a
  // negative net the stored bag cannot cover) aborts the whole
  // transaction. Flattening and sorting each edit's run is
  // side-effect-free and fans out across `pool`; only the final
  // key-ordered apply touches the (non-thread-safe) B+-tree and pager.
  // Per (tree, fp) key the batch's deltas are summed before the apply,
  // so a minus tuple the stored bag lacks is only detected when its
  // *net* is negative (callers pre-validate sub-bags, as the contract
  // requires).
  auto fail_batch = [&](Status cause) {
    for (size_t i = 0; i < edits.size(); ++i) {
      if (staged[i]) (*results)[i] = cause;
    }
    if (timings != nullptr) *timings = split;
    return RollbackAndReload(std::move(cause));
  };
  std::vector<size_t> staged_edits;
  staged_edits.reserve(static_cast<size_t>(num_staged));
  for (size_t i = 0; i < edits.size(); ++i) {
    if (staged[i]) staged_edits.push_back(i);
  }
  const int lanes = pool == nullptr ? 1 : pool->num_threads();
  std::vector<Delta> deltas = StageRuns(
      staged_edits.size(),
      [&](size_t j, EditRun* run) {
        const BatchEdit& edit = edits[staged_edits[j]];
        run->tree = TreeKey(edit.id);
        if (edit.add != nullptr) {
          run->deltas.reserve(edit.add->counts().size());
          StageBag(*edit.add, 1, run);
        } else {
          run->deltas.reserve(edit.minus->counts().size() +
                              edit.plus->counts().size());
          StageBag(*edit.minus, -1, run);
          StageBag(*edit.plus, 1, run);
        }
      },
      pool);
  if (Status status = table_.AddSorted(deltas); !status.ok()) {
    return fail_batch(std::move(status));
  }
  lap(&split.delta_us);

  // Phase 3: catalog + cursor/ticket stamps + one commit (or, in
  // prepare mode, one WAL seal the caller finishes or aborts).
  for (const auto& [id, size] : staged_sizes) SetCatalogSize(id, size);
  Status stored = StoreCatalog();
  if (!stored.ok()) return fail_batch(std::move(stored));
  stored = StoreCursor(txn.cursor);
  if (!stored.ok()) return fail_batch(std::move(stored));
  stored = StoreTicket(txn.ticket);
  if (!stored.ok()) return fail_batch(std::move(stored));
  lap(&split.update_us);
  Status committed = CommitOrCrash(txn.prepare);
  lap(&split.storage_us);
  if (timings != nullptr) *timings = split;
  if (!committed.ok()) {
    // As in the single-op paths, a failed commit poisons the pager; the
    // caller recovers by reopening, so no rollback is attempted here.
    for (size_t i = 0; i < edits.size(); ++i) {
      if (staged[i]) (*results)[i] = committed;
    }
    return committed;
  }
  m_batches->Increment();
  m_edits->Add(num_staged);
  if (timed) {
    m_stage_parallelism->Record(lanes);
    m_batch_edits->Record(num_staged);
    m_validate_us->Record(split.validate_us);
    m_delta_us->Record(split.delta_us);
    m_update_us->Record(split.update_us);
    m_storage_us->Record(split.storage_us);
  }
  return committed;
}

StatusOr<ForestIndex> PersistentForestIndex::MaterializeForest() {
  // One leaf-chain walk in key order: each tree's tuples form one
  // contiguous run, built into its bag in lockstep with the (id-sorted)
  // catalog.
  ForestIndex forest(shape_);
  size_t next = 0;  // catalog cursor
  Status error;
  PqGramIndex bag(shape_);
  auto flush = [&]() {
    const CatalogEntry& entry = catalog_[next++];
    if (bag.size() != entry.size) {
      error = DataLossError("bag size disagrees with the catalog");
    }
    forest.AddIndex(entry.id, std::move(bag));
    bag = PqGramIndex(shape_);
  };
  PQIDX_RETURN_IF_ERROR(table_.ForEach(
      [&](uint32_t tree, uint64_t fp, int64_t count) {
        if (!error.ok()) return;
        // Close the runs of earlier trees (and empty bags) first.
        while (next < catalog_.size() && TreeKey(catalog_[next].id) < tree) {
          flush();
        }
        if (next == catalog_.size() || TreeKey(catalog_[next].id) != tree) {
          error = DataLossError("tuples outside the catalog; index corrupt");
          return;
        }
        bag.Add(fp, count);
      }));
  while (error.ok() && next < catalog_.size()) flush();
  PQIDX_RETURN_IF_ERROR(error);
  return forest;
}

Status PersistentForestIndex::RemoveTree(TreeId id) {
  const int64_t size = TreeBagSize(id);
  if (size < 0) return NotFoundError("tree not in the store");
  // The tree's tuples are one contiguous key range: a range delete.
  int64_t removed = 0;
  Status status = table_.RemoveTree(TreeKey(id), &removed);
  if (status.ok() && removed != size) {
    status = DataLossError("removed tuples disagree with the catalog");
  }
  if (!status.ok()) return RollbackAndReload(status);
  EraseCatalog(id);
  status = StoreCatalog();
  if (!status.ok()) return RollbackAndReload(status);
  return CommitOrCrash();
}

Status PersistentForestIndex::UpdateTree(TreeId id, const PqGramIndex& plus,
                                         const PqGramIndex& minus) {
  const int64_t size = TreeBagSize(id);
  if (size < 0) return NotFoundError("tree not in the store");
  if (!(plus.shape() == shape_) || !(minus.shape() == shape_)) {
    return InvalidArgumentError("delta shape does not match the store");
  }
  // The netting below would let plus cover a minus tuple the stored bag
  // lacks, so check minus ⊆ stored first: one range scan, nothing
  // dirtied yet.
  int64_t covered = 0;
  PQIDX_RETURN_IF_ERROR(table_.ForEachInTree(
      TreeKey(id), [&](uint64_t fp, int64_t count) {
        covered += std::min(minus.Count(fp), count);
      }));
  if (covered != minus.size()) {
    return FailedPreconditionError(
        "minus bag is not a sub-bag of the stored bag");
  }
  EditRun run;
  run.tree = TreeKey(id);
  StageBag(minus, -1, &run);
  StageBag(plus, 1, &run);
  SortAndCoalesce(&run.deltas);
  Status status = table_.AddSorted(run.deltas);
  if (!status.ok()) return RollbackAndReload(status);
  const int64_t next = size + plus.size() - minus.size();
  PQIDX_CHECK(next >= 0);
  SetCatalogSize(id, next);
  status = StoreCatalog();
  if (!status.ok()) return RollbackAndReload(status);
  return CommitOrCrash();
}

Status PersistentForestIndex::ApplyLog(TreeId id, const Tree& tn,
                                       const EditLog& log) {
  if (TreeBagSize(id) < 0) return NotFoundError("tree not in the store");
  PqGramIndex plus(shape_);
  PqGramIndex minus(shape_);
  PQIDX_RETURN_IF_ERROR(
      ComputeIndexDeltas(tn, log, shape_, &plus, &minus, nullptr));
  return UpdateTree(id, plus, minus);
}

StatusOr<double> PersistentForestIndex::Distance(TreeId id,
                                                 const PqGramIndex& query) {
  const int64_t size = TreeBagSize(id);
  if (size < 0) return NotFoundError("tree not in the store");
  PQIDX_CHECK(query.shape() == shape_);
  // One range scan of the tree's tuples, probing the query's bag.
  int64_t intersection = 0;
  PQIDX_RETURN_IF_ERROR(table_.ForEachInTree(
      TreeKey(id), [&](uint64_t fp, int64_t count) {
        intersection += std::min(query.Count(fp), count);
      }));
  int64_t union_size = query.size() + size;
  if (union_size == 0) return 0.0;
  return 1.0 - 2.0 * static_cast<double>(intersection) /
                   static_cast<double>(union_size);
}

StatusOr<std::vector<LookupResult>> PersistentForestIndex::Lookup(
    const PqGramIndex& query, double tau) {
  std::vector<LookupResult> results;
  for (const CatalogEntry& entry : catalog_) {
    StatusOr<double> distance = Distance(entry.id, query);
    PQIDX_RETURN_IF_ERROR(distance.status());
    if (*distance <= tau) results.push_back({entry.id, *distance});
  }
  std::sort(results.begin(), results.end(),
            [](const LookupResult& a, const LookupResult& b) {
              return a.distance < b.distance ||
                     (a.distance == b.distance && a.tree_id < b.tree_id);
            });
  return results;
}

StatusOr<PqGramIndex> PersistentForestIndex::MaterializeIndex(TreeId id) {
  if (TreeBagSize(id) < 0) return NotFoundError("tree not in the store");
  PqGramIndex index(shape_);
  PQIDX_RETURN_IF_ERROR(table_.ForEachInTree(
      TreeKey(id),
      [&](uint64_t fp, int64_t count) { index.Add(fp, count); }));
  return index;
}

Status PersistentForestIndex::CompactInto(const std::string& path) {
  StatusOr<std::unique_ptr<PersistentForestIndex>> fresh =
      Create(path, shape_);
  PQIDX_RETURN_IF_ERROR(fresh.status());
  // Materialize per tree so each AddIndex commits atomically; ascending
  // ids append at the right edge, so the copy's leaves pack to 90%.
  for (const CatalogEntry& entry : catalog_) {
    StatusOr<PqGramIndex> bag = MaterializeIndex(entry.id);
    PQIDX_RETURN_IF_ERROR(bag.status());
    PQIDX_RETURN_IF_ERROR((*fresh)->AddIndex(entry.id, *bag));
  }
  return Status::Ok();
}

void PersistentForestIndex::CheckConsistency() {
  table_.CheckConsistency();
  std::map<TreeId, int64_t> totals;
  Status status = table_.ForEach(
      [&](uint32_t tree, uint64_t fp, int64_t count) {
        (void)fp;
        totals[TreeOfKey(tree)] += count;
      });
  PQIDX_CHECK(status.ok());
  for (const CatalogEntry& entry : catalog_) {
    auto it = totals.find(entry.id);
    PQIDX_CHECK((it == totals.end() ? 0 : it->second) == entry.size);
    if (it != totals.end()) totals.erase(it);
  }
  PQIDX_CHECK_MSG(totals.empty(), "orphaned tuples outside the catalog");
}

}  // namespace pqidx
