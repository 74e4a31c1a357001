// The traced run's replay phase: the same op streams as the live run,
// on one thread, straight through the layers' public functions in the
// order the server applies them -- decode, cache probe, lookup or
// top-k, validate + ApplyBatch, ApplyDelta publish, cache OnPublish,
// ReplicationHub::Publish, encode -- with a span around each call.
//
// The replay owns a private store, replica, snapshot, result cache and
// hub, so nothing it does reaches the live server. Its result cache is
// probed from the outside, once per snapshot shard as the engine does,
// under a key the benchmark derives from the request bytes; an answer
// is reused only while every shard it was computed on is unchanged.

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string_view>

#include "bench.h"
#include "common/metrics.h"
#include "common/serde.h"
#include "core/incremental.h"
#include "core/lookup_engine.h"
#include "core/query_cache.h"
#include "edit/edit_script.h"
#include "service/replication.h"
#include "service/wire.h"
#include "util.h"

namespace perfbench {

using pqidx::LookupResult;
using pqidx::MessageType;
using pqidx::Status;
using pqidx::StatusOr;

namespace {

constexpr int kMaxReplayOps = 5000;

pqidx::QueryFingerprint KeyOf(MessageType type, std::string_view payload) {
  uint64_t lo = 0xcbf29ce484222325ULL ^ static_cast<uint64_t>(type);
  uint64_t hi = 0x84222325cbf29ce4ULL + static_cast<uint64_t>(type);
  for (unsigned char c : payload) {
    lo = (lo ^ c) * 0x100000001b3ULL;
    hi = (hi + c) * 0x9e3779b97f4a7c15ULL;
  }
  return {lo, hi ^ (hi >> 29)};
}

std::string Frame(MessageType type, bool response, uint64_t request_id,
                  std::string_view payload) {
  pqidx::FrameHeader header;
  header.type = type;
  header.flags = response ? pqidx::kFrameFlagResponse : 0;
  header.request_id = request_id;
  header.payload_size = static_cast<uint32_t>(payload.size());
  return pqidx::EncodeFrame(header, payload);
}

// Splits a frame into its validated header and payload view.
Status Unframe(std::string_view frame, pqidx::FrameHeader* header,
               std::string_view* payload) {
  if (frame.size() < pqidx::kFrameHeaderSize) {
    return pqidx::DataLossError("short frame");
  }
  PQIDX_RETURN_IF_ERROR(pqidx::DecodeFrameHeader(
      frame.substr(0, pqidx::kFrameHeaderSize), header));
  *payload = frame.substr(pqidx::kFrameHeaderSize);
  return Status::Ok();
}

// The response frame of a read: status + results.
std::string EncodeResults(MessageType type, uint64_t request_id,
                          std::vector<LookupResult> results) {
  pqidx::ByteWriter writer;
  pqidx::EncodeStatus(Status::Ok(), &writer);
  pqidx::LookupResponse response;
  response.results = std::move(results);
  response.Encode(&writer);
  return Frame(type, true, request_id, writer.data());
}

}  // namespace

Status Bench::Replay(double budget_s, std::map<std::string, double>* out) {
  const std::string dir = options_.work_dir + "/" + spec_.name + "-replay";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) return pqidx::IoError("cannot create " + dir);

  StatusOr<std::unique_ptr<pqidx::ShardedStore>> created =
      pqidx::ShardedStore::Create(dir + "/store", shape_);
  PQIDX_RETURN_IF_ERROR(created.status());
  std::unique_ptr<pqidx::ShardedStore> store = std::move(*created);
  {
    std::vector<std::pair<TreeId, const PqGramIndex*>> bags;
    for (size_t i = 0; i < seed_bags_.size(); ++i) {
      bags.emplace_back(static_cast<TreeId>(i), &seed_bags_[i]);
    }
    PQIDX_RETURN_IF_ERROR(store->BulkAdd(bags));
  }
  pqidx::ForestIndex replica(shape_);
  for (size_t i = 0; i < seed_bags_.size(); ++i) {
    replica.AddIndex(static_cast<TreeId>(i), seed_bags_[i]);
  }
  std::shared_ptr<const pqidx::LookupEngine> engine =
      pqidx::LookupEngine::Build(replica, kServerSnapshotShards);
  pqidx::QueryCache cache{pqidx::QueryCache::Options()};
  pqidx::ReplicationHub hub{pqidx::ReplicationHubOptions()};
  hub.Initialize(1);
  uint64_t ticket = 1;

  // Fresh streams and trees: the replay starts from the seeded forest,
  // exactly as the live run did.
  std::vector<OpStream> streams;
  std::vector<std::map<TreeId, pqidx::Tree>> trees(
      static_cast<size_t>(spec_.clients));
  for (int c = 0; c < spec_.clients; ++c) {
    streams.emplace_back(spec_, options_.seed, c);
  }

  SpanBuffer& spans = replay_spans_;
  PqGramIndex scratch(shape_);
  int64_t lookup_ops = 0;
  int64_t response_bytes = 0;
  int64_t ops = 0;
  const int64_t deadline = NowNs() + static_cast<int64_t>(budget_s * 1e9);
  for (; ops < kMaxReplayOps && NowNs() < deadline; ++ops) {
    const int c = static_cast<int>(ops % spec_.clients);
    const Op op = streams[static_cast<size_t>(c)].Next();
    const uint64_t op_id = (uint64_t{1} << 63) | static_cast<uint64_t>(ops);
    const uint64_t request_id = static_cast<uint64_t>(ops) + 1;

    if (op.kind == OpKind::kEdit) {
      std::map<TreeId, pqidx::Tree>& owned = trees[static_cast<size_t>(c)];
      auto it = owned.find(op.target);
      if (it == owned.end()) {
        it = owned.emplace(op.target, MakeTree(spec_, options_.seed, op.target))
                 .first;
      }
      pqidx::Tree& tree = it->second;
      pqidx::EditLog log;
      pqidx::Rng rng(op.seed);
      pqidx::GenerateEditScript(&tree, &rng, ScriptOps(spec_, op),
                                pqidx::EditScriptOptions(), &log);

      ScopedSpan root(&spans, "op.edit", op_id);
      pqidx::ApplyEditsRequest request;
      request.tree_id = op.target;
      request.plus = PqGramIndex(shape_);
      request.minus = PqGramIndex(shape_);
      request.log_ops = log.size();
      {
        ScopedSpan span(&spans, "incremental.compute_deltas", op_id);
        PQIDX_RETURN_IF_ERROR(pqidx::ComputeIndexDeltas(
            tree, log, shape_, &request.plus, &request.minus));
      }
      std::string frame;
      {
        ScopedSpan span(&spans, "wire.encode", op_id);
        pqidx::ByteWriter writer;
        request.Encode(&writer);
        frame = Frame(MessageType::kApplyEdits, false, request_id,
                      writer.data());
      }
      StatusOr<pqidx::ApplyEditsRequest> decoded =
          pqidx::InvalidArgumentError("not decoded");
      {
        ScopedSpan span(&spans, "wire.decode", op_id);
        pqidx::FrameHeader header;
        std::string_view payload;
        PQIDX_RETURN_IF_ERROR(Unframe(frame, &header, &payload));
        decoded = pqidx::ApplyEditsRequest::Decode(payload);
      }
      PQIDX_RETURN_IF_ERROR(decoded.status());
      const TreeId id = decoded->tree_id;
      PqGramIndex next(shape_);
      {
        // What the server's validation does: minus must be a sub-bag of
        // the stored bag; the composed bag is the next replica entry.
        ScopedSpan span(&spans, "server.validate", op_id);
        const PqGramIndex* current = replica.Find(id);
        if (current == nullptr) return Diverged("replay: unknown tree");
        next = *current;
        for (const auto& [fp, count] : decoded->minus.counts()) {
          if (next.Count(fp) < count) {
            return Diverged("replay: minus bag is not a sub-bag of tree " +
                            std::to_string(id));
          }
          next.Remove(fp, count);
        }
        for (const auto& [fp, count] : decoded->plus.counts()) {
          next.Add(fp, count);
        }
      }
      ++ticket;
      {
        ScopedSpan span(&spans, "store.apply_batch", op_id);
        pqidx::ShardedStore::BatchEdit edit;
        edit.id = id;
        edit.plus = &decoded->plus;
        edit.minus = &decoded->minus;
        std::vector<Status> results;
        PQIDX_RETURN_IF_ERROR(
            store->ApplyBatch({edit}, &results, nullptr, nullptr, ticket));
        PQIDX_RETURN_IF_ERROR(results[0]);
      }
      {
        ScopedSpan span(&spans, "server.replica_apply", op_id);
        replica.AddIndex(id, std::move(next));
      }
      {
        ScopedSpan span(&spans, "lookup_engine.apply_delta", op_id);
        engine = pqidx::LookupEngine::ApplyDelta(engine, replica, {id});
      }
      {
        ScopedSpan span(&spans, "query_cache.on_publish", op_id);
        cache.OnPublish(engine->ShardUids());
      }
      std::vector<std::string> chunks;
      {
        ScopedSpan span(&spans, "replication.encode", op_id);
        pqidx::DeltaEntryView view;
        view.tree_id = id;
        view.plus = &decoded->plus;
        view.minus = &decoded->minus;
        chunks = pqidx::EncodeDeltaFrameChunks(ticket, pqidx::Metrics::NowUs(),
                                               {view});
      }
      {
        ScopedSpan span(&spans, "replication.publish", op_id);
        hub.Publish(ticket, std::move(chunks));
      }
      std::string response;
      {
        ScopedSpan span(&spans, "wire.encode", op_id);
        pqidx::ByteWriter writer;
        pqidx::EncodeStatus(Status::Ok(), &writer);
        response = Frame(MessageType::kApplyEdits, true, request_id,
                         writer.data());
      }
      {
        ScopedSpan span(&spans, "wire.decode", op_id);
        pqidx::FrameHeader header;
        std::string_view payload;
        PQIDX_RETURN_IF_ERROR(Unframe(response, &header, &payload));
        pqidx::ByteReader reader(payload);
        Status transported;
        PQIDX_RETURN_IF_ERROR(pqidx::DecodeStatus(&reader, &transported));
        PQIDX_RETURN_IF_ERROR(transported);
      }
      continue;
    }

    const bool is_lookup = op.kind == OpKind::kLookup;
    const MessageType type =
        is_lookup ? MessageType::kLookup : MessageType::kTopK;
    const PqGramIndex& query = QueryFor(spec_, op, pool_, seed_bags_,
                                        &scratch);
    ScopedSpan root(&spans, is_lookup ? "op.lookup" : "op.topk", op_id);
    std::string frame;
    {
      ScopedSpan span(&spans, "wire.encode", op_id);
      pqidx::ByteWriter writer;
      if (is_lookup) {
        pqidx::LookupRequest request;
        request.query = query;
        request.tau = spec_.taus[op.tau_index];
        request.Encode(&writer);
      } else {
        pqidx::TopKRequest request;
        request.query = query;
        request.k = spec_.topk_k;
        request.Encode(&writer);
      }
      frame = Frame(type, false, request_id, writer.data());
    }
    PqGramIndex decoded_query(shape_);
    double tau = 0;
    int k = 0;
    pqidx::QueryFingerprint key;
    {
      ScopedSpan span(&spans, "wire.decode", op_id);
      pqidx::FrameHeader header;
      std::string_view payload;
      PQIDX_RETURN_IF_ERROR(Unframe(frame, &header, &payload));
      if (is_lookup) {
        StatusOr<pqidx::LookupRequest> request =
            pqidx::LookupRequest::Decode(payload);
        PQIDX_RETURN_IF_ERROR(request.status());
        decoded_query = std::move(request->query);
        tau = request->tau;
      } else {
        StatusOr<pqidx::TopKRequest> request =
            pqidx::TopKRequest::Decode(payload);
        PQIDX_RETURN_IF_ERROR(request.status());
        decoded_query = std::move(request->query);
        k = request->k;
      }
      key = KeyOf(type, payload);
    }
    const std::vector<uint64_t> uids = engine->ShardUids();
    std::vector<LookupResult> results;
    bool hit = true;
    {
      ScopedSpan span(&spans, "query_cache.get", op_id);
      std::vector<LookupResult> part;
      for (uint64_t uid : uids) {
        if (!cache.Get(key, uid, &part)) {
          hit = false;
          break;
        }
        results.insert(results.end(), part.begin(), part.end());
      }
    }
    if (!hit) {
      {
        ScopedSpan span(&spans, is_lookup ? "lookup_engine.lookup"
                                          : "lookup_engine.topk",
                        op_id);
        results = is_lookup ? engine->Lookup(decoded_query, tau)
                            : engine->TopK(decoded_query, k);
      }
      ScopedSpan span(&spans, "query_cache.put", op_id);
      for (size_t s = 0; s < uids.size(); ++s) {
        cache.Put(key, uids[s], s == 0 ? results : std::vector<LookupResult>());
      }
    }
    std::string response;
    {
      ScopedSpan span(&spans, "wire.encode", op_id);
      response = EncodeResults(type, request_id, std::move(results));
    }
    {
      ScopedSpan span(&spans, "wire.decode", op_id);
      pqidx::FrameHeader header;
      std::string_view payload;
      PQIDX_RETURN_IF_ERROR(Unframe(response, &header, &payload));
      pqidx::ByteReader reader(payload);
      Status transported;
      PQIDX_RETURN_IF_ERROR(pqidx::DecodeStatus(&reader, &transported));
      PQIDX_RETURN_IF_ERROR(transported);
      PQIDX_RETURN_IF_ERROR(pqidx::LookupResponse::Decode(&reader).status());
    }
    if (is_lookup) {
      ++lookup_ops;
      response_bytes += static_cast<int64_t>(response.size());
    }
  }
  hub.Shutdown();
  store.reset();
  std::filesystem::remove_all(dir, ec);

  // Per-layer means from the replay's spans.
  const std::vector<Span>& all = spans.spans();
  const std::vector<int64_t> self = SelfTimes(all);
  std::map<std::string, SpanStats> stats = SummarizeSpans({&all});
  auto mean_us = [&](const char* name) {
    const SpanStats& s = stats[name];
    return s.count == 0 ? 0.0 : static_cast<double>(s.self_ns) / s.count / 1e3;
  };
  auto per_op_us = [&](const char* name) {
    return ops == 0 ? 0.0
                    : static_cast<double>(stats[name].self_ns) / ops / 1e3;
  };
  (*out)["wire.encode_us"] = per_op_us("wire.encode");
  (*out)["wire.decode_us"] = per_op_us("wire.decode");
  (*out)["wire.response_bytes_per_lookup"] =
      lookup_ops == 0 ? 0.0 : static_cast<double>(response_bytes) / lookup_ops;
  (*out)["query_cache.get_us"] = mean_us("query_cache.get");
  (*out)["lookup_engine.lookup_us"] = mean_us("lookup_engine.lookup");
  (*out)["lookup_engine.topk_us"] = mean_us("lookup_engine.topk");
  (*out)["lookup_engine.apply_delta_us"] = mean_us("lookup_engine.apply_delta");
  (*out)["store.apply_batch_us"] = mean_us("store.apply_batch");
  (*out)["replication.publish_us"] = mean_us("replication.publish");
  // Time inside layers per op: a root's duration minus its own self
  // time is exactly the part its layer spans cover. A lookup's scoring
  // and cache fill run only when the probe misses, and the replay's
  // cache misses more often than the server's (any change to any shard
  // retires an answer), so that part is kept apart and weighted by the
  // live miss rate by the caller.
  int64_t edit_ops = 0;
  int64_t edit_covered = 0;
  int64_t lookups = 0;
  int64_t lookup_fixed = 0;
  int64_t misses = 0;
  int64_t miss_work = 0;
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& span = all[i];
    if (span.parent < 0) {
      if (span.name == "op.edit") {
        ++edit_ops;
        edit_covered += (span.end_ns - span.start_ns) - self[i];
      } else if (span.name == "op.lookup") {
        ++lookups;
      }
      continue;
    }
    if (all[static_cast<size_t>(span.parent)].name != "op.lookup") continue;
    if (span.name == "lookup_engine.lookup") {
      ++misses;
      miss_work += self[i];
    } else if (span.name == "query_cache.put") {
      miss_work += self[i];
    } else {
      lookup_fixed += self[i];
    }
  }
  auto us = [](int64_t ns, int64_t n) {
    return n == 0 ? 0.0 : static_cast<double>(ns) / n / 1e3;
  };
  (*out)["layers_us.edit"] = us(edit_covered, edit_ops);
  (*out)["layers_us.lookup_fixed"] = us(lookup_fixed, lookups);
  (*out)["layers_us.lookup_miss"] = us(miss_work, misses);
  std::fprintf(stdout, "# replay: %" PRId64 " ops in %.2f s budget\n", ops,
               budget_s);
  return Status::Ok();
}

}  // namespace perfbench
