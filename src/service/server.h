// pqidxd: a concurrent index service over one ShardedStore (one or
// more PersistentForestIndex shards under a per-batch group commit).
//
// Request pipeline (docs/ARCHITECTURE.md, "The service"):
//
//   * thread-per-connection on the shared ThreadPool: the accept loop
//     hands each connection to a worker, which decodes frames (wire.h)
//     and serves them sequentially for that client;
//   * admission control: connections beyond `max_connections` are
//     rejected with a connection-level UNAVAILABLE frame, and edits
//     beyond `max_write_queue` pending entries get an UNAVAILABLE
//     response (backpressure instead of unbounded queues);
//   * lookups run lock-free against an epoch-published LookupEngine
//     snapshot (core/lookup_engine.h): readers grab the current
//     shared_ptr<const LookupEngine> and score without touching
//     index_mutex_, so read throughput scales with reader threads. It is
//     the server's only in-memory copy of the forest: validation and
//     subscriber images read bags rebuilt from it, and the leader
//     derives each next epoch from it and the batch's composed bags;
//   * writes go through group commit: a writer enqueues its edit and the
//     first free writer becomes a batch leader, drains the queue, and
//     applies the whole batch as ONE WAL transaction
//     (PersistentForestIndex::ApplyBatch -- one fsync pair for the
//     entire batch). Writers submitted while a leader is committing are
//     coalesced into the next batch, amortizing durability cost exactly
//     where the paper's incremental update makes the writes themselves
//     cheap;
//   * group commits pipeline (`commit_pipeline_depth`): up to that many
//     batch leaders run at once, each batch holding a ticket drawn in
//     queue order. Validation + δ-materialization run in ticket order
//     against the snapshot plus an overlay of the predecessors' pending
//     bags, overlapping the predecessor's WAL write/fsync; the storage
//     commits themselves also run in ticket order, so the WAL sees the
//     same strictly ordered, atomic transactions as the serial leader
//     and the crash guarantee (a recovered store is exactly the state
//     before or after a batch) is unchanged. If a batch fails at the
//     storage layer, in-flight successors that validated against its
//     pending bags abort with an error before touching the store;
//   * snapshots are published incrementally: Start compiles the first
//     LookupEngine epoch, and after that the leader derives each epoch
//     from the previous one via LookupEngine::ApplyDelta (copy-on-write:
//     only shards owning touched trees are merge-patched, and the same
//     step splits overgrown shards and merges small ones, so no periodic
//     full rebuild is needed).
//
// Responses are sent only after the edit is durable (commit before ack).
// Invalid edits (unknown tree, duplicate add, minus bag not a sub-bag of
// the stored bag) fail individually with an error response and never
// disturb the other edits of a batch.

#ifndef PQIDX_SERVICE_SERVER_H_
#define PQIDX_SERVICE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "core/forest_index.h"
#include "core/lookup_engine.h"
#include "service/transport.h"
#include "service/wire.h"
#include "storage/sharded_store.h"

namespace pqidx {

class ReplicationHub;

struct ServerOptions {
  // Concurrent connections == handler threads (thread-per-connection).
  int max_connections = 8;
  // Pending group-commit entries before edit requests are rejected with
  // UNAVAILABLE (admission control).
  int max_write_queue = 256;
  // Upper bound on edits coalesced into one WAL transaction.
  int max_group_commit = 64;
  // Test/bench aid: the group-commit leader holds leadership this long
  // before draining the queue, magnifying the batching window the same
  // way a slow fsync would. 0 in production.
  int commit_hold_us = 0;
  // Slow-op threshold in microseconds: requests and group commits at or
  // over it log their phase breakdown through SlowOpLog::Default()
  // (common/metrics.h). 0 inherits that log's threshold (the
  // PQIDX_SLOW_OP_US environment variable, default 100ms); negative
  // disables slow-op logging for this server.
  int64_t slow_op_us = 0;
  // Shards the lookup snapshot is compiled into at Start, and the count
  // later incremental publishes keep shard sizes balanced against; 0
  // means 16 (a single-shard snapshot would rewrite everything on every
  // commit). Results never depend on the shard count.
  //
  // Trade-off: snapshot publication sits on the write-ack path (outside
  // index_mutex_, so concurrent lookups and stats() never wait on it):
  // a committed edit is always visible to the next lookup once its
  // response arrives (read-your-writes). Incremental publication
  // (LookupEngine::ApplyDelta) makes that cost a merge over the
  // postings of the shards the batch touches instead of O(total
  // postings).
  int lookup_shards = 0;
  // How many group-commit batches may be in flight at once (>= 1).
  // 1 is the classic serial leader. At depth d, batch N+1's validation
  // and δ-materialization overlap batch N's WAL write + fsync; the WAL
  // transactions themselves stay strictly ordered.
  int commit_pipeline_depth = 1;
  // Dedicated threads for the write path's parallel work: per-tree
  // validation + δ-materialization during group commit, and the
  // flatten/hash/merge half of PersistentForestIndex::ApplyBatch's
  // δ-staging. 0 stages inline on the leader thread. This pool is
  // separate from the connection pool (leaders run on connection
  // threads and a pool must not wait on itself).
  int staging_threads = 0;
  // Replication fan-out (service/replication.h): when on, every
  // committed batch is published to subscribed followers and kSubscribe
  // connections are served. Off removes the hub (and the per-commit
  // re-encode of the batch's bags) entirely.
  bool replication = true;
  // ReplicationHubOptions::history / ::max_queue.
  int replication_history = 256;
  int replication_max_queue = 256;
  // Read-only follower mode: edit requests (kAddTree / kApplyEdits) are
  // rejected with FAILED_PRECONDITION; the only writer is then
  // ApplyReplicated (the replication stream). Forced on by Follower.
  bool read_only = false;
  // Byte budget (MiB) of the epoch-keyed query-result cache serving
  // kLookup / kTopK (core/query_cache.h). Entries are keyed per engine
  // shard, so snapshot publishes keep results for untouched shards warm
  // and drop only the rewritten shards' entries. 0 (or
  // query_cache_off) disables the cache entirely.
  int query_cache_mb = 32;
  bool query_cache_off = false;
};

class Server {
 public:
  // Serves `index`, which must outlive the server and must not be used
  // by anyone else while the server runs.
  Server(ShardedStore* index, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Compiles the first snapshot and starts accepting on `listener`. A
  // null listener starts the server without a network endpoint (it is
  // then driven in-process: lookups via a follower's streamed state,
  // writes via ApplyReplicated). Starting a started server returns
  // FAILED_PRECONDITION.
  Status Start(std::unique_ptr<Listener> listener);

  // Stops accepting, interrupts every live connection, and joins all
  // handlers. Idempotent; also run by the destructor.
  void Stop() PQIDX_EXCLUDES(connections_mutex_);

  ServiceStats stats() const PQIDX_EXCLUDES(engine_mutex_);

  // Applies a run of streamed delta frames (ascending tickets) as ONE
  // group-commit batch: one WAL transaction stamped with the newest
  // ticket, one snapshot epoch, one hub publish per frame's worth of
  // state (coalesced under the newest ticket). Frames
  // at or below the store's durable cursor are skipped (duplicates
  // after a reconnect). Only valid on a read-only server; any edit the
  // leader committed but this store rejects means divergence and
  // returns DATA_LOSS.
  Status ApplyReplicated(std::vector<DeltaFrame> frames)
      PQIDX_EXCLUDES(write_mutex_, index_mutex_, engine_mutex_);

  // The replication hub (null when ServerOptions::replication is off).
  ReplicationHub* hub() const { return hub_.get(); }

  // Testing hook: the current epoch-published snapshot. The workload
  // harness (bench/workload) pins it on both sides of an ephemeral
  // apply-then-revert burst to prove the post-revert epoch serves
  // bit-identical content from freshly recompiled shards.
  std::shared_ptr<const LookupEngine> EngineSnapshotForTesting() const
      PQIDX_EXCLUDES(engine_mutex_) {
    return EngineSnapshot();
  }

  // Testing hook: the epoch-keyed result cache (null when disabled).
  // Internally synchronized; tests read its hit/miss/stale counters.
  QueryCache* query_cache_for_testing() const { return query_cache_.get(); }

 private:
  struct PendingEdit {
    TreeId id = 0;
    bool is_add = false;
    PqGramIndex add_or_plus;
    PqGramIndex minus;
    Status result;
    bool done = false;
  };

  void AcceptLoop() PQIDX_EXCLUDES(connections_mutex_);
  void HandleConnection(const std::shared_ptr<Connection>& conn);

  // Decodes and serves one request; returns the response payload.
  std::string HandleRequest(MessageType type, std::string_view payload);
  // Serves kLookup / kTopK: decodes a `Request` and answers it with
  // `score(engine, request, stats)` on the current snapshot.
  template <typename Request, typename Score>
  std::string HandleQuery(std::string_view payload, const Score& score);
  std::string HandleAddTree(std::string_view payload);
  std::string HandleApplyEdits(std::string_view payload);
  std::string HandleStats();
  std::string HandleStatsSnapshot(std::string_view payload);

  // Serves one kSubscribe request: registers with the hub, sends the
  // ack (plus the snapshot image when the cursor cannot delta-resume),
  // then streams frames and heartbeats until the subscriber drops, the
  // hub drops it, or the server stops. Takes over the connection; the
  // handler loop ends when this returns.
  void ServeSubscriber(const std::shared_ptr<Connection>& conn,
                       const FrameHeader& header, std::string_view payload)
      PQIDX_EXCLUDES(engine_mutex_);

  // Group commit: blocks until `edit` is durable (or rejected) and
  // returns its result. The calling thread may serve as batch leader.
  Status SubmitEdit(PendingEdit* edit) PQIDX_EXCLUDES(write_mutex_);

  // One validated batch between its two pipeline phases: the composed
  // next bag per touched tree, the store edits in batch order, and the
  // failure stamp observed at validation (a stamp change before the
  // storage turn means a predecessor batch this validation may have
  // depended on failed, so the batch must abort).
  struct StagedBatch {
    ForestIndex scratch;
    std::vector<PersistentForestIndex::BatchEdit> edits;
    std::vector<size_t> edit_to_batch;
    uint64_t failure_stamp = 0;
  };

  // Runs one batch through the pipeline: awaits the validate turn for
  // `ticket`, validates + materializes (ValidateBatch), then awaits the
  // storage turn, commits the WAL transaction (durably stamped with
  // `cursor`, the replication cursor), publishes the next snapshot
  // epoch, and hands the batch's delta frame to the hub.
  void CommitBatch(const std::vector<PendingEdit*>& batch, uint64_t ticket,
                   uint64_t cursor)
      PQIDX_EXCLUDES(index_mutex_, engine_mutex_);

  // Validation + δ-materialization: loads the snapshot, then under
  // index_mutex_ retires the overlay entries it reflects, checks each
  // edit against the snapshot overlaid with the predecessors' pending
  // bags (and a local overlay so edits earlier in the batch are visible
  // to later ones), composes the next bag per touched tree, and
  // installs those into overlay_ tagged with `ticket`. Independent
  // trees fan out across staging_pool_.
  void ValidateBatch(const std::vector<PendingEdit*>& batch,
                     uint64_t ticket, StagedBatch* staged)
      PQIDX_EXCLUDES(index_mutex_, engine_mutex_);

  // Validates + composes the next bag for one same-tree group of a
  // batch, starting from the tree's overlay entry if it is newer than
  // `engine` (ticket >= `engine_next`), else from `engine`'s bag.
  // Requires the leader's index_mutex_: it reads overlay_ and writes
  // only its own group's slots in `edit_ok` / `composed` (which is how
  // fanning the groups across staging workers while the *leader* holds
  // the lock stays sound -- see the no-tsa escape in ValidateBatch).
  void ValidateGroup(const std::vector<PendingEdit*>& batch,
                     const std::vector<size_t>& group,
                     const LookupEngine& engine, uint64_t engine_next,
                     std::vector<uint8_t>* edit_ok,
                     std::unique_ptr<PqGramIndex>* composed) const
      PQIDX_REQUIRES(index_mutex_);

  // The current lookup snapshot (never null after Start()).
  std::shared_ptr<const LookupEngine> EngineSnapshot() const
      PQIDX_EXCLUDES(engine_mutex_);
  // Publishes the next snapshot epoch (reflecting the committed batches
  // below `next_ticket`, i.e. replication cursor `cursor`): Build from
  // `changed` at Start, which passes the whole forest, else ApplyDelta
  // of the changed bags. Callers are serialized by the storage turn.
  void PublishEngine(const ForestIndex& changed, uint64_t next_ticket,
                     uint64_t cursor) PQIDX_EXCLUDES(engine_mutex_);

  ShardedStore* const index_;
  const ServerOptions options_;

  // The forest's pq-gram shape: set once by Start() from the store,
  // before any handler thread exists, and immutable afterwards, so
  // request handlers read it lock-free.
  PqShape shape_;

  // Write-path state: overlay_ holds the pending (validated, not yet
  // published) next bags of in-flight batches, keyed by tree and tagged
  // with the staging batch's ticket. Entries below engine_next_ticket_
  // are reflected in the snapshot and retired by the next validation.
  mutable Mutex index_mutex_;
  struct PendingBag {
    PqGramIndex bag;
    uint64_t ticket;
  };
  std::map<TreeId, PendingBag> overlay_ PQIDX_GUARDED_BY(index_mutex_);
  // Bumped whenever a batch fails after validation; successors compare
  // their validation-time snapshot of it before touching the store.
  uint64_t failure_stamp_ PQIDX_GUARDED_BY(index_mutex_) = 0;

  // The immutable snapshot and what it reflects: the committed batches
  // below engine_next_ticket_, i.e. replication cursor engine_cursor_.
  // engine_mutex_ guards only these copies; scoring, bag rebuilds and
  // image encoding run on a private shared_ptr with no lock held.
  mutable Mutex engine_mutex_;
  std::shared_ptr<const LookupEngine> engine_ PQIDX_GUARDED_BY(engine_mutex_);
  uint64_t engine_next_ticket_ PQIDX_GUARDED_BY(engine_mutex_) = 0;
  uint64_t engine_cursor_ PQIDX_GUARDED_BY(engine_mutex_) = 0;
  // Epoch-keyed result cache for kLookup / kTopK (null when disabled).
  // Internally synchronized; PublishEngine reconciles it against the
  // new snapshot's shard uids after every swap.
  std::unique_ptr<QueryCache> query_cache_;
  // Write-path staging workers (ServerOptions::staging_threads).
  std::unique_ptr<ThreadPool> staging_pool_;

  // Group-commit queue. Tickets are drawn under write_mutex_ at batch
  // drain time, so ticket order == queue order.
  Mutex write_mutex_;
  CondVar write_cv_;
  std::deque<PendingEdit*> write_queue_ PQIDX_GUARDED_BY(write_mutex_);
  int active_commits_ PQIDX_GUARDED_BY(write_mutex_) = 0;
  uint64_t next_ticket_ PQIDX_GUARDED_BY(write_mutex_) = 0;

  // Pipeline turnstiles (common/sync.h): each phase of batch N starts
  // only after the same phase of batch N-1 finished its turn.
  Turnstile validate_turnstile_;
  Turnstile storage_turnstile_;

  // Replication fan-out (null when disabled). Pipeline tickets restart
  // at 0 every Start, so the durable replication cursor is derived:
  // cursor_base_ (the store's cursor at Start) + ticket + 1 on a
  // leader, the streamed frame's own ticket on a follower.
  std::unique_ptr<ReplicationHub> hub_;
  uint64_t cursor_base_ = 0;

  // Lifecycle.
  std::unique_ptr<Listener> listener_;
  std::unique_ptr<ThreadPool> pool_;
  std::thread accept_thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<int> active_connections_{0};
  Mutex connections_mutex_;
  std::vector<std::weak_ptr<Connection>> connections_
      PQIDX_GUARDED_BY(connections_mutex_);

  // Counters (see ServiceStats).
  std::atomic<int64_t> lookups_{0};
  std::atomic<int64_t> edits_applied_{0};
  std::atomic<int64_t> edit_commits_{0};
  std::atomic<int64_t> max_batch_{0};
  std::atomic<int64_t> rejected_{0};
  std::atomic<int64_t> protocol_errors_{0};
  std::atomic<int64_t> snapshot_epoch_{0};
  std::atomic<int64_t> candidates_pruned_{0};
  std::atomic<int64_t> candidates_scored_{0};
  std::atomic<int64_t> snapshot_rebuild_us_{0};
  std::atomic<int64_t> last_rebuild_us_{0};

  // Registry cells (common/metrics.h, "server.*"): the per-server
  // atomics above stay authoritative for ServiceStats (a binary may run
  // several servers); these mirror the same events into the
  // process-wide registry, plus per-opcode latency histograms indexed
  // by MessageType value.
  Histogram* m_request_us_[11] = {};
  Histogram* m_batch_edits_;
  Histogram* m_rebuild_us_;
  Histogram* m_snapshot_incremental_us_;
  Histogram* m_snapshot_full_us_;
  Gauge* m_pipeline_depth_;
  Gauge* m_queue_depth_;
  Gauge* m_active_connections_;
  Gauge* m_snapshot_epoch_;
  Counter* m_lookups_;
  Counter* m_edits_applied_;
  Counter* m_edit_commits_;
  Counter* m_rejected_;
  Counter* m_protocol_errors_;
  // Resolved slow-op threshold (<= 0: disabled).
  int64_t slow_us_ = 0;
};

}  // namespace pqidx

#endif  // PQIDX_SERVICE_SERVER_H_
