// Regenerates the checked-in seed corpora under fuzz/corpus/ from the
// current serialization formats, so seeds stay valid when formats evolve:
//
//   ./build/fuzz/make_seed_corpus fuzz/corpus
//
// Each seed is a *valid* artifact (serialized index, well-formed XML,
// committed B+-tree image, sealed WAL): coverage-guided fuzzers
// mutate outward from the accepting paths, which reaches far deeper than
// random bytes, and the standalone smoke mode replays them to pin the
// happy paths under sanitizers.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "common/serde.h"
#include "core/forest_index.h"
#include "core/pqgram_index.h"
#include "service/wire.h"
#include "storage/bplus_tree.h"
#include "storage/pager.h"
#include "storage/shard_manifest.h"
#include "storage/tree_store.h"
#include "tree/generators.h"
#include "xml/xml_writer.h"

namespace pqidx {
namespace {

Status WriteSeed(const std::string& dir, const std::string& name,
                 std::string_view bytes) {
  std::filesystem::create_directories(dir);
  return WriteFile(dir + "/" + name, bytes);
}

Status MakeSerdeSeeds(const std::string& dir) {
  Rng rng(41);
  {
    Tree tree = GenerateDblpLike(nullptr, &rng, 6);
    ByteWriter writer;
    BuildIndex(tree, PqShape{3, 3}).Serialize(&writer);
    PQIDX_RETURN_IF_ERROR(WriteSeed(dir, "pqgram_index.bin", writer.data()));
  }
  {
    ForestIndex forest(PqShape{2, 2});
    for (TreeId id = 0; id < 3; ++id) {
      forest.AddTree(id, GenerateXmarkLike(nullptr, &rng, 12));
    }
    ByteWriter writer;
    forest.Serialize(&writer);
    PQIDX_RETURN_IF_ERROR(WriteSeed(dir, "forest_index.bin", writer.data()));
  }
  {
    Tree tree = GenerateRandomTree(nullptr, &rng, {.num_nodes = 25});
    ByteWriter writer;
    SerializeTree(tree, &writer);
    PQIDX_RETURN_IF_ERROR(WriteSeed(dir, "tree.bin", writer.data()));
  }
  {
    // A primitive stream in the harness's tag-driven format.
    ByteWriter writer;
    writer.PutU8(3);  // tag: varint
    writer.PutVarint(1u << 20);
    writer.PutU8(5);  // tag: string
    writer.PutString("seed");
    writer.PutU8(2);  // tag: u64
    writer.PutU64(0x0123456789abcdefULL);
    PQIDX_RETURN_IF_ERROR(WriteSeed(dir, "primitives.bin", writer.data()));
  }
  return Status::Ok();
}

Status MakeXmlSeeds(const std::string& dir) {
  Rng rng(42);
  PQIDX_RETURN_IF_ERROR(WriteSeed(
      dir, "generated.xml", WriteXml(GenerateXmarkLike(nullptr, &rng, 30))));
  PQIDX_RETURN_IF_ERROR(WriteSeed(
      dir, "features.xml",
      "<?xml version=\"1.0\"?>\n"
      "<!DOCTYPE doc>\n"
      "<doc id=\"1\" kind='seed'>\n"
      "  <!-- comment -->\n"
      "  <a>text &amp; entities &lt;here&gt; &#65; &#x42;</a>\n"
      "  <b><![CDATA[raw <cdata> & bytes]]></b>\n"
      "  <empty/>\n"
      "</doc>\n"));
  PQIDX_RETURN_IF_ERROR(WriteSeed(dir, "minimal.xml", "<r/>"));
  return Status::Ok();
}

// One committed B+-tree page file per way the tree grows: scattered
// inserts (even leaf splits, a root split) and a right-edge bulk load
// (90%-packed leaves). Both stay under the harness's 64-page cap.
Status MakeBPlusTreeSeeds(const std::string& dir) {
  std::filesystem::create_directories(dir);
  const std::string tmp = dir + "/.tmp_bt.pages";
  for (const bool bulk : {false, true}) {
    {
      Pager pager(64);
      PQIDX_RETURN_IF_ERROR(pager.Open(tmp, /*create=*/true));
      StatusOr<PageId> meta = pager.AllocatePage();
      PQIDX_RETURN_IF_ERROR(meta.status());
      BPlusTree tree(&pager);
      PQIDX_RETURN_IF_ERROR(tree.Create(*meta, 0));
      if (bulk) {
        std::vector<BPlusTree::Entry> run;
        for (uint32_t i = 0; i < 1500; ++i) {
          run.push_back({i / 200, 0x9e3779b97f4a7c15ULL * (i % 200 + 1) >> 8,
                         1 + i % 3});
        }
        std::sort(run.begin(), run.end(),
                  [](const BPlusTree::Entry& a, const BPlusTree::Entry& b) {
                    return a.tree < b.tree ||
                           (a.tree == b.tree && a.fp < b.fp);
                  });
        PQIDX_RETURN_IF_ERROR(tree.AddSorted(run));
      } else {
        for (uint32_t i = 0; i < 1500; ++i) {
          PQIDX_RETURN_IF_ERROR(
              tree.AddDelta(i % 7, 0x9e3779b97f4a7c15ULL * i, 1 + i % 3));
        }
      }
      PQIDX_RETURN_IF_ERROR(pager.Commit());
      PQIDX_RETURN_IF_ERROR(pager.Close());
    }
    std::string image;
    PQIDX_RETURN_IF_ERROR(ReadFile(tmp, &image));
    std::remove(tmp.c_str());
    std::remove((tmp + ".wal").c_str());
    PQIDX_RETURN_IF_ERROR(WriteSeed(
        dir, bulk ? "bulk_load.pages" : "scattered.pages", image));
    if (bulk) continue;
    // Hostile variants of the scattered image (docs/FORMATS.md layout):
    // the smoke run must see each fail with a Status, not crash or hang.
    auto u32_at = [&image](size_t off) {
      uint32_t v;
      std::memcpy(&v, image.data() + off, sizeof(v));
      return v;
    };
    auto mangled = [&image](size_t off, uint32_t v) {
      std::string copy = image;
      std::memcpy(copy.data() + off, &v, sizeof(v));
      return copy;
    };
    const size_t root = size_t{u32_at(4)} * kPageSize;  // meta: root id
    const uint32_t leaf = u32_at(root + 12);            // root's child 0
    const size_t leaf_off = size_t{leaf} * kPageSize;
    const uint32_t pages = static_cast<uint32_t>(image.size() / kPageSize);
    const std::pair<const char*, std::string> variants[] = {
        {"hostile_count.pages", mangled(leaf_off + 4, 0xffff)},
        {"child_past_end.pages", mangled(root + 12, pages + 5)},
        {"child_cycle.pages", mangled(root + 12, u32_at(4))},
        {"sibling_cycle.pages", mangled(leaf_off + 8, leaf)},
        {"keys_out_of_order.pages", mangled(leaf_off + 16, 0xfffffff0u)},
    };
    for (const auto& [name, bytes] : variants) {
      PQIDX_RETURN_IF_ERROR(WriteSeed(dir, name, bytes));
    }
  }
  return Status::Ok();
}

Status MakePagerSeeds(const std::string& dir) {
  std::filesystem::create_directories(dir);
  const std::string tmp = dir + "/.tmp_pg.pages";
  // A commit "crashed" after the WAL seal leaves a valid sealed WAL next
  // to a stale file: the exact state ReplayOrDiscardWal exists for.
  {
    Pager pager(16);
    PQIDX_RETURN_IF_ERROR(pager.Open(tmp, /*create=*/true));
    for (int i = 0; i < 3; ++i) {
      StatusOr<PageId> id = pager.AllocatePage();
      PQIDX_RETURN_IF_ERROR(id.status());
      StatusOr<uint8_t*> page = pager.MutablePage(*id);
      PQIDX_RETURN_IF_ERROR(page.status());
      (*page)[0] = static_cast<uint8_t>(0x10 + i);
      (*page)[kPageSize - 1] = static_cast<uint8_t>(0xf0 + i);
    }
    PQIDX_RETURN_IF_ERROR(pager.Commit());
    StatusOr<uint8_t*> page = pager.MutablePage(1);
    PQIDX_RETURN_IF_ERROR(page.status());
    (*page)[7] = 0x77;
    PQIDX_RETURN_IF_ERROR(
        pager.CommitWithCrash(Pager::CrashPoint::kAfterWalSeal));
  }
  std::string file_image, wal_image;
  PQIDX_RETURN_IF_ERROR(ReadFile(tmp, &file_image));
  PQIDX_RETURN_IF_ERROR(ReadFile(tmp + ".wal", &wal_image));
  std::remove(tmp.c_str());
  std::remove((tmp + ".wal").c_str());

  // Seed for the harness's WAL surface: one size byte, then the WAL.
  PQIDX_RETURN_IF_ERROR(
      WriteSeed(dir, "sealed_wal.bin", std::string(1, '\x02') + wal_image));
  // Seed for the page-file surface: a committed 3-page file.
  PQIDX_RETURN_IF_ERROR(WriteSeed(dir, "page_file.bin", file_image));
  return Status::Ok();
}

Status MakeManifestSeeds(const std::string& dir) {
  {
    // A fresh store's manifest: both slots at ticket 0.
    ShardManifest manifest;
    manifest.shard_count = 4;
    PQIDX_RETURN_IF_ERROR(
        WriteSeed(dir, "fresh.manifest", EncodeShardManifest(manifest)));
  }
  {
    // A lived-in manifest with distinct slot generations: slot A holds
    // the previous commit, slot B the latest, as after a group commit.
    ShardManifest manifest;
    manifest.shard_count = 16;
    manifest.committed_ticket = 41;
    manifest.committed_cursor = 1000;
    std::string bytes = EncodeShardManifest(manifest);
    uint8_t slot[kShardManifestSlotSize];
    EncodeShardManifestSlot(42, 1007, slot);
    bytes.replace(kShardManifestSlotBOff, kShardManifestSlotSize,
                  reinterpret_cast<const char*>(slot), kShardManifestSlotSize);
    PQIDX_RETURN_IF_ERROR(
        WriteSeed(dir, "two_generations.manifest", bytes));
  }
  {
    // A torn slot-B write: decode must fall back to slot A. Seeds the
    // checksum-rejection path the fuzzer mutates outward from.
    ShardManifest manifest;
    manifest.shard_count = 2;
    manifest.committed_ticket = 9;
    manifest.committed_cursor = 9;
    std::string bytes = EncodeShardManifest(manifest);
    bytes[kShardManifestSlotBOff + 3] =
        static_cast<char>(bytes[kShardManifestSlotBOff + 3] ^ 0x40);
    PQIDX_RETURN_IF_ERROR(WriteSeed(dir, "torn_slot.manifest", bytes));
  }
  return Status::Ok();
}

Status MakeWireSeeds(const std::string& dir) {
  Rng rng(44);
  const PqShape shape{2, 3};
  Tree tree = GenerateDblpLike(nullptr, &rng, 8);
  PqGramIndex bag = BuildIndex(tree, shape);

  // Full frames (header + payload), the shape the harness slices.
  {
    LookupRequest request;
    request.query = bag;
    request.tau = 0.5;
    ByteWriter writer;
    request.Encode(&writer);
    FrameHeader header;
    header.type = MessageType::kLookup;
    header.request_id = 1;
    header.payload_size = static_cast<uint32_t>(writer.data().size());
    PQIDX_RETURN_IF_ERROR(
        WriteSeed(dir, "lookup_frame.bin", EncodeFrame(header, writer.data())));
  }
  {
    TopKRequest request;
    request.query = bag;
    request.k = 10;
    ByteWriter writer;
    request.Encode(&writer);
    FrameHeader header;
    header.type = MessageType::kTopK;
    header.request_id = 6;
    header.payload_size = static_cast<uint32_t>(writer.data().size());
    PQIDX_RETURN_IF_ERROR(
        WriteSeed(dir, "topk_frame.bin", EncodeFrame(header, writer.data())));
  }
  {
    AddTreeRequest request;
    request.tree_id = 7;
    request.bag = bag;
    ByteWriter writer;
    request.Encode(&writer);
    FrameHeader header;
    header.type = MessageType::kAddTree;
    header.request_id = 2;
    header.payload_size = static_cast<uint32_t>(writer.data().size());
    PQIDX_RETURN_IF_ERROR(WriteSeed(dir, "add_tree_frame.bin",
                                    EncodeFrame(header, writer.data())));
  }
  {
    ApplyEditsRequest request;
    request.tree_id = 7;
    request.plus = bag;
    request.minus = PqGramIndex(shape);
    request.log_ops = 3;
    ByteWriter writer;
    request.Encode(&writer);
    FrameHeader header;
    header.type = MessageType::kApplyEdits;
    header.request_id = 3;
    header.payload_size = static_cast<uint32_t>(writer.data().size());
    PQIDX_RETURN_IF_ERROR(WriteSeed(dir, "apply_edits_frame.bin",
                                    EncodeFrame(header, writer.data())));
  }
  {
    // A response frame: status + lookup results after the header.
    ByteWriter writer;
    EncodeStatus(Status::Ok(), &writer);
    LookupResponse response;
    response.results.push_back(LookupResult{7, 0.25});
    response.results.push_back(LookupResult{9, 0.5});
    response.Encode(&writer);
    FrameHeader header;
    header.type = MessageType::kLookup;
    header.flags = kFrameFlagResponse;
    header.request_id = 1;
    header.payload_size = static_cast<uint32_t>(writer.data().size());
    PQIDX_RETURN_IF_ERROR(WriteSeed(dir, "lookup_response_frame.bin",
                                    EncodeFrame(header, writer.data())));
  }
  {
    ByteWriter writer;
    EncodeStatus(Status::Ok(), &writer);
    ServiceStats stats;
    stats.p = shape.p;
    stats.q = shape.q;
    stats.tree_count = 5;
    stats.lookups = 100;
    stats.edits_applied = 40;
    stats.edit_commits = 9;
    stats.max_batch = 8;
    stats.Encode(&writer);
    FrameHeader header;
    header.type = MessageType::kStats;
    header.flags = kFrameFlagResponse;
    header.request_id = 4;
    header.payload_size = static_cast<uint32_t>(writer.data().size());
    PQIDX_RETURN_IF_ERROR(WriteSeed(dir, "stats_response_frame.bin",
                                    EncodeFrame(header, writer.data())));
  }
  {
    // A kStatsSnapshot request is an empty-payload frame; mutations of
    // this seed exercise the server's non-empty-payload rejection.
    FrameHeader header;
    header.type = MessageType::kStatsSnapshot;
    header.request_id = 5;
    header.payload_size = 0;
    PQIDX_RETURN_IF_ERROR(WriteSeed(dir, "stats_snapshot_request_frame.bin",
                                    EncodeFrame(header, std::string_view())));
  }
  {
    // A kStatsSnapshot response: status + one sample of each kind, so
    // the fuzzer starts from an accepting path through every branch of
    // DecodeMetricsSnapshot (including histogram bucket pairs).
    MetricsSnapshot snapshot;
    MetricSample lookups;
    lookups.kind = MetricSample::Kind::kCounter;
    lookups.name = "server.lookups";
    lookups.value = 100;
    snapshot.samples.push_back(lookups);
    MetricSample epoch;
    epoch.kind = MetricSample::Kind::kGauge;
    epoch.name = "server.snapshot_epoch";
    epoch.value = 9;
    snapshot.samples.push_back(epoch);
    MetricSample latency;
    latency.kind = MetricSample::Kind::kHistogram;
    latency.name = "server.lookup_us";
    latency.count = 3;
    latency.sum = 106;
    latency.max = 100;
    latency.buckets = {{1, 1}, {2, 1}, {7, 1}};
    snapshot.samples.push_back(latency);
    ByteWriter writer;
    EncodeStatus(Status::Ok(), &writer);
    EncodeMetricsSnapshot(snapshot, &writer);
    FrameHeader header;
    header.type = MessageType::kStatsSnapshot;
    header.flags = kFrameFlagResponse;
    header.request_id = 5;
    header.payload_size = static_cast<uint32_t>(writer.data().size());
    PQIDX_RETURN_IF_ERROR(WriteSeed(dir, "stats_snapshot_response_frame.bin",
                                    EncodeFrame(header, writer.data())));
  }
  {
    // A kSubscribe handshake frame (replication follower -> leader).
    SubscribeRequest request;
    request.from_ticket = 42;
    request.force_snapshot = false;
    ByteWriter writer;
    request.Encode(&writer);
    FrameHeader header;
    header.type = MessageType::kSubscribe;
    header.request_id = 6;
    header.payload_size = static_cast<uint32_t>(writer.data().size());
    PQIDX_RETURN_IF_ERROR(WriteSeed(dir, "subscribe_frame.bin",
                                    EncodeFrame(header, writer.data())));
  }
  {
    // The matching kSubscribeAck response (status + ack).
    SubscribeAck ack;
    ack.mode = SubscribeAck::Mode::kSnapshot;
    ack.ticket = 42;
    ack.p = static_cast<uint8_t>(shape.p);
    ack.q = static_cast<uint8_t>(shape.q);
    ByteWriter writer;
    EncodeStatus(Status::Ok(), &writer);
    ack.Encode(&writer);
    FrameHeader header;
    header.type = MessageType::kSubscribeAck;
    header.flags = kFrameFlagResponse;
    header.request_id = 6;
    header.payload_size = static_cast<uint32_t>(writer.data().size());
    PQIDX_RETURN_IF_ERROR(WriteSeed(dir, "subscribe_ack_frame.bin",
                                    EncodeFrame(header, writer.data())));
  }
  {
    // A kDeltaFrame with both entry kinds (a whole-bag add and an
    // (I+, I-) update), so mutations start from an accepting path
    // through DecodeDeltaEntry's branches.
    DeltaFrame frame;
    frame.ticket = 43;
    frame.publish_us = 1234567;
    frame.last_chunk = true;
    DeltaEntry add;
    add.tree_id = 7;
    add.is_add = true;
    add.plus = bag;
    frame.entries.push_back(std::move(add));
    DeltaEntry update;
    update.tree_id = 9;
    update.is_add = false;
    update.plus = bag;
    update.minus = PqGramIndex(shape);
    frame.entries.push_back(std::move(update));
    ByteWriter writer;
    frame.Encode(&writer);
    FrameHeader header;
    header.type = MessageType::kDeltaFrame;
    header.flags = kFrameFlagResponse;
    header.request_id = 6;
    header.payload_size = static_cast<uint32_t>(writer.data().size());
    PQIDX_RETURN_IF_ERROR(WriteSeed(dir, "delta_frame.bin",
                                    EncodeFrame(header, writer.data())));
  }
  return Status::Ok();
}

}  // namespace
}  // namespace pqidx

int main(int argc, char** argv) {
  std::string root = argc > 1 ? argv[1] : "fuzz/corpus";
  struct Job {
    const char* name;
    pqidx::Status (*make)(const std::string&);
  };
  const Job jobs[] = {
      {"serde", pqidx::MakeSerdeSeeds},
      {"xml_scanner", pqidx::MakeXmlSeeds},
      {"bplus_tree", pqidx::MakeBPlusTreeSeeds},
      {"pager", pqidx::MakePagerSeeds},
      {"manifest", pqidx::MakeManifestSeeds},
      {"wire", pqidx::MakeWireSeeds},
  };
  for (const Job& job : jobs) {
    pqidx::Status status = job.make(root + "/" + job.name);
    if (!status.ok()) {
      std::fprintf(stderr, "%s: %s\n", job.name, status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s/%s\n", root.c_str(), job.name);
  }
  return 0;
}
