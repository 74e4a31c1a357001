#include "bench.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <utility>

#include "core/incremental.h"
#include "core/lookup_engine.h"
#include "edit/edit_script.h"
#include "service/transport.h"
#include "util.h"

namespace perfbench {

using pqidx::LookupResult;
using pqidx::Status;
using pqidx::StatusOr;

namespace {

constexpr int kRounds = 2;           // quiesce points per measured window
// setup_s is the median over repetitions: at least kMinSetups, then
// more while they have taken less than kSetupFloorSeconds, up to
// kMaxSetups.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 9;
constexpr double kSetupFloorSeconds = 3.0;
// Throughput and CPU per op are medians over intervals of this length.
constexpr int64_t kIntervalNs = 1'000'000'000;
// Closed-loop time before measuring, so that caches fill and lazy
// set-up finishes first.
constexpr double kWarmupSeconds = 1.5;
constexpr int kSampleEvery = 64;     // in-window answers kept for the oracle
constexpr size_t kMaxSamples = 4;    // per client and round
constexpr int kPings = 2000;
constexpr uint64_t kCheckSalt = 0x2545f4914f6cdd1dULL;

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }
double Millis(double ns) { return ns / 1e6; }

std::string DescribeResults(const std::vector<LookupResult>& expect,
                            const std::vector<LookupResult>& got) {
  if (expect.size() != got.size()) {
    return "expected " + std::to_string(expect.size()) + " results, got " +
           std::to_string(got.size());
  }
  for (size_t i = 0; i < expect.size(); ++i) {
    // Exact comparison: the engine is bit-identical to the scan and the
    // wire ships the raw doubles.
    if (expect[i].tree_id != got[i].tree_id ||
        expect[i].distance != got[i].distance) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "result %zu: expected (tree %d, %.17g), got (tree %d, "
                    "%.17g)",
                    i, expect[i].tree_id, expect[i].distance,
                    got[i].tree_id, got[i].distance);
      return buf;
    }
  }
  return "";
}

}  // namespace

// ---------------------------------------------------------------------------

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

std::string MetricSet::Print(std::FILE* out) const {
  std::string json = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    std::fprintf(out, "%-40s %14.6f %s\n", e.name.c_str(), e.value,
                 e.unit.c_str());
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", e.name.c_str(), e.value,
                  e.unit.c_str());
    json += buf;
  }
  return json + "}";
}

// ---------------------------------------------------------------------------

struct Bench::Sample {
  OpKind kind;
  PqGramIndex query;
  double tau;
  std::vector<LookupResult> got;
};

struct Bench::ClientState {
  int index = 0;
  TreeId own_begin = 0;
  TreeId own_end = 0;
  std::vector<pqidx::Tree> trees;  // owned trees (edit workloads only)
  std::unique_ptr<OpStream> stream;
  uint64_t op_count = 0;
  std::set<TreeId> dirty;  // edited since the last quiesce point
  std::unique_ptr<pqidx::Client> client;

  // Filled by the closed loop, summed over a window's rounds.
  std::vector<int64_t> latency_ns[kOpKinds];
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string first_error;
  int64_t delta_pqgrams = 0;
  int64_t deltas = 0;
  int64_t end_ns = 0;
  std::vector<Sample> samples;
  SpanBuffer spans{false};
};

struct Bench::WindowResult {
  int64_t ops = 0;
  int64_t duration_ns = 0;
  int64_t cpu_ns = 0;
  std::vector<int64_t> latency_ns[kOpKinds];
  int64_t delta_pqgrams = 0;
  int64_t deltas = 0;
  std::vector<SpanBuffer> spans;
  // One entry per whole interval of the window.
  std::vector<double> interval_ops_per_s;
  std::vector<double> interval_cpu_ms_per_op;
  // Traced windows: the registry's query_cache.bytes gauge, read in
  // process once per interval.
  std::vector<double> interval_cache_bytes;

  // Median over intervals, which a stall of a second or two cannot move
  // much; the plain mean when the window had no whole interval.
  double ops_per_s() const {
    if (!interval_ops_per_s.empty()) return Median(interval_ops_per_s);
    return duration_ns > 0 ? static_cast<double>(ops) / Seconds(duration_ns)
                           : 0;
  }
  double cpu_ms_per_op() const {
    if (!interval_cpu_ms_per_op.empty()) {
      return Median(interval_cpu_ms_per_op);
    }
    return ops > 0 ? Millis(static_cast<double>(cpu_ns)) / ops : 0;
  }
};

Bench::Bench(const WorkloadSpec& spec, RunOptions options)
    : spec_(spec),
      options_(std::move(options)),
      shape_(BenchShape()),
      mirror_(BenchShape()) {}

Bench::~Bench() {
  StopServer();
  std::error_code ec;
  if (!store_dir_.empty()) std::filesystem::remove_all(store_dir_, ec);
}

Status Bench::Diverged(const std::string& what) const {
  return pqidx::DataLossError("oracle divergence [" + spec_.name + " seed " +
                              std::to_string(options_.seed) + "]: " + what);
}

void Bench::Phase(const char* name) {
  const int64_t now = NowNs();
  std::fprintf(stdout, "# phase %-10s %8.3f s\n", name,
               Seconds(now - phase_start_ns_));
  phase_start_ns_ = now;
}

void Bench::BuildInputs() {
  seed_bags_.reserve(static_cast<size_t>(spec_.num_trees));
  const bool edits = spec_.edit > 0;
  for (int c = 0; c < spec_.clients; ++c) {
    auto state = std::make_unique<ClientState>();
    state->index = c;
    OwnedRange(spec_, c, &state->own_begin, &state->own_end);
    state->stream = std::make_unique<OpStream>(spec_, options_.seed, c);
    clients_.push_back(std::move(state));
  }
  for (TreeId id = 0; id < spec_.num_trees; ++id) {
    pqidx::Tree tree = MakeTree(spec_, options_.seed, id);
    seed_bags_.push_back(pqidx::BuildIndex(tree, shape_));
    mirror_.AddIndex(id, seed_bags_.back());
    if (edits) {
      // Trees are dealt out in id order, so each client's owned range
      // lands contiguously in its vector.
      for (auto& state : clients_) {
        if (id >= state->own_begin && id < state->own_end) {
          state->trees.push_back(std::move(tree));
          break;
        }
      }
    }
  }
  pool_ = MakeQueryPool(spec_, options_.seed, seed_bags_);
}

Bench::FirstCheck Bench::MakeFirstCheck() const {
  FirstCheck check;
  check.query =
      spec_.query_pool > 0 ? pool_[0] : PerturbQuery(seed_bags_[0], 1);
  check.tau = 0.5;
  check.expected = mirror_.Lookup(check.query, check.tau);
  return check;
}

// --- setup, restart, teardown ------------------------------------------------

Status Bench::StartServer() {
  server_ = std::make_unique<pqidx::Server>(store_.get(),
                                            pqidx::ServerOptions());
  StatusOr<std::unique_ptr<pqidx::TcpListener>> listener =
      pqidx::TcpListener::Listen(0);
  PQIDX_RETURN_IF_ERROR(listener.status());
  port_ = (*listener)->port();
  {
    ScopedSpan span(&phase_spans_, "server.start", 0);
    PQIDX_RETURN_IF_ERROR(server_->Start(std::move(*listener)));
  }
  StatusOr<std::unique_ptr<pqidx::Connection>> conn =
      pqidx::TcpConnect("127.0.0.1", static_cast<uint16_t>(port_));
  PQIDX_RETURN_IF_ERROR(conn.status());
  StatusOr<std::unique_ptr<pqidx::Client>> client =
      pqidx::Client::Connect(std::move(*conn));
  PQIDX_RETURN_IF_ERROR(client.status());
  oracle_client_ = std::move(*client);
  return Status::Ok();
}

Status Bench::CheckFirstLookup(const FirstCheck& check) {
  StatusOr<std::vector<LookupResult>> got =
      oracle_client_->Lookup(check.query, check.tau);
  PQIDX_RETURN_IF_ERROR(got.status());
  ++comparisons_;
  const std::string diff = DescribeResults(check.expected, *got);
  if (!diff.empty()) return Diverged("first lookup after start: " + diff);
  return Status::Ok();
}

void Bench::StopServer() {
  for (auto& state : clients_) state->client.reset();
  oracle_client_.reset();
  if (server_ != nullptr) server_->Stop();
  server_.reset();
  store_.reset();
}

Status Bench::Setup(const std::string& dir, const FirstCheck& check,
                    double* seconds) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) return pqidx::IoError("cannot create " + dir + ": " + ec.message());
  store_dir_ = dir;
  std::vector<std::pair<TreeId, const PqGramIndex*>> bags;
  bags.reserve(seed_bags_.size());
  for (size_t i = 0; i < seed_bags_.size(); ++i) {
    bags.emplace_back(static_cast<TreeId>(i), &seed_bags_[i]);
  }
  const int64_t start = NowNs();
  StatusOr<std::unique_ptr<pqidx::ShardedStore>> store =
      pqidx::ShardedStore::Create(dir + "/store", shape_);
  PQIDX_RETURN_IF_ERROR(store.status());
  store_ = std::move(*store);
  {
    ScopedSpan span(&phase_spans_, "store.bulk_add", 0);
    PQIDX_RETURN_IF_ERROR(store_->BulkAdd(bags));
  }
  PQIDX_RETURN_IF_ERROR(StartServer());
  PQIDX_RETURN_IF_ERROR(CheckFirstLookup(check));
  *seconds = Seconds(NowNs() - start);
  return Status::Ok();
}

Status Bench::Restart(const FirstCheck& check, double* seconds) {
  const int64_t start = NowNs();
  StopServer();
  {
    ScopedSpan span(&phase_spans_, "store.open", 0);
    StatusOr<std::unique_ptr<pqidx::ShardedStore>> store =
        pqidx::ShardedStore::Open(store_dir_ + "/store");
    PQIDX_RETURN_IF_ERROR(store.status());
    store_ = std::move(*store);
  }
  PQIDX_RETURN_IF_ERROR(StartServer());
  PQIDX_RETURN_IF_ERROR(CheckFirstLookup(check));
  *seconds = Seconds(NowNs() - start);
  return Status::Ok();
}

Status Bench::ConnectClients() {
  for (auto& state : clients_) {
    StatusOr<std::unique_ptr<pqidx::Connection>> conn =
        pqidx::TcpConnect("127.0.0.1", static_cast<uint16_t>(port_));
    PQIDX_RETURN_IF_ERROR(conn.status());
    StatusOr<std::unique_ptr<pqidx::Client>> client =
        pqidx::Client::Connect(std::move(*conn));
    PQIDX_RETURN_IF_ERROR(client.status());
    state->client = std::move(*client);
  }
  return Status::Ok();
}

// --- the closed loop ---------------------------------------------------------

void Bench::ClientLoop(ClientState* state, int64_t deadline_ns, bool traced,
                       bool sample) {
  SpanBuffer& spans = state->spans;
  pqidx::Client& client = *state->client;
  PqGramIndex scratch(shape_);
  pqidx::EditLog log;
  while (NowNs() < deadline_ns) {
    const Op op = state->stream->Next();
    const uint64_t op_id =
        (static_cast<uint64_t>(state->index) << 40) | state->op_count++;
    ++state->attempted;
    Status status;
    int64_t start = 0;
    if (op.kind == OpKind::kEdit) {
      pqidx::Tree& tree =
          state->trees[static_cast<size_t>(op.target - state->own_begin)];
      log.Clear();
      pqidx::Rng rng(op.seed);
      pqidx::GenerateEditScript(&tree, &rng, ScriptOps(spec_, op),
                                pqidx::EditScriptOptions(), &log);
      start = NowNs();
      if (!traced) {
        status = client.ApplyEdits(op.target, tree, log);
      } else {
        // Same work as Client::ApplyEdits, split so that Algorithm 1
        // (client-side) and the round trip get spans of their own.
        ScopedSpan root(&spans, "op.edit", op_id);
        PqGramIndex plus(shape_);
        PqGramIndex minus(shape_);
        {
          ScopedSpan span(&spans, "incremental.compute_deltas", op_id);
          status = pqidx::ComputeIndexDeltas(tree, log, shape_, &plus, &minus);
        }
        if (status.ok()) {
          state->delta_pqgrams += plus.size() + minus.size();
          ++state->deltas;
          ScopedSpan span(&spans, "client.apply_deltas", op_id);
          status = client.ApplyDeltas(op.target, plus, minus, log.size());
        }
      }
      if (status.ok()) {
        state->dirty.insert(op.target);
      } else {
        // Keep the client's tree equal to what the server holds.
        (void)log.UndoAll(&tree);
      }
    } else {
      const PqGramIndex& query = QueryFor(spec_, op, pool_, seed_bags_,
                                          &scratch);
      const double tau = spec_.taus[op.tau_index];
      start = NowNs();
      StatusOr<std::vector<LookupResult>> got = std::vector<LookupResult>();
      if (op.kind == OpKind::kLookup) {
        ScopedSpan span(&spans, "client.lookup", op_id);
        got = client.Lookup(query, tau);
      } else {
        ScopedSpan span(&spans, "client.topk", op_id);
        got = client.TopK(query, spec_.topk_k);
      }
      status = got.status();
      if (status.ok() && sample && state->samples.size() < kMaxSamples &&
          op_id % kSampleEvery == 0) {
        state->samples.push_back({op.kind, query, tau, *got});
      }
    }
    const int64_t end = NowNs();
    if (!status.ok()) {
      ++state->failed;
      if (state->first_error.empty()) state->first_error = status.ToString();
      continue;
    }
    state->latency_ns[static_cast<int>(op.kind)].push_back(end - start);
    completed_ops_.fetch_add(1, std::memory_order_relaxed);
  }
  state->end_ns = NowNs();
}

Status Bench::RunWindow(double seconds, int rounds, bool traced,
                        WindowResult* result) {
  // In-window answers can be checked afterwards only when nothing
  // changes the forest meanwhile.
  const bool sample = spec_.edit == 0;
  for (auto& state : clients_) {
    for (auto& v : state->latency_ns) v.clear();
    state->attempted = state->failed = 0;
    state->delta_pqgrams = state->deltas = 0;
    state->spans = SpanBuffer(traced);
  }
  const int64_t round_ns = static_cast<int64_t>(seconds * 1e9 / rounds);
  for (int r = 0; r < rounds; ++r) {
    std::atomic<int> ready{0};
    std::atomic<int64_t> deadline{0};
    std::vector<std::thread> threads;
    for (auto& state : clients_) {
      ClientState* s = state.get();
      threads.emplace_back([&, s] {
        ready.fetch_add(1);
        int64_t until;
        while ((until = deadline.load(std::memory_order_acquire)) == 0) {
          std::this_thread::yield();
        }
        ClientLoop(s, until, traced, sample);
      });
    }
    while (ready.load() < static_cast<int>(threads.size())) {
      std::this_thread::yield();
    }
    const int64_t cpu_start = ProcessCpuNs();
    const int64_t start = NowNs();
    deadline.store(start + round_ns, std::memory_order_release);
    int64_t prev_ns = start;
    int64_t prev_cpu = cpu_start;
    int64_t prev_ops = completed_ops_.load();
    for (int64_t next = start + kIntervalNs; next <= start + round_ns;
         next += kIntervalNs) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(next - NowNs()));
      const int64_t now = NowNs();
      const int64_t cpu = ProcessCpuNs();
      const int64_t ops = completed_ops_.load();
      result->interval_ops_per_s.push_back(
          static_cast<double>(ops - prev_ops) / Seconds(now - prev_ns));
      if (ops > prev_ops) {
        result->interval_cpu_ms_per_op.push_back(
            Millis(static_cast<double>(cpu - prev_cpu)) / (ops - prev_ops));
      }
      if (traced) {
        result->interval_cache_bytes.push_back(static_cast<double>(
            pqidx::Metrics::Default().gauge("query_cache.bytes")->value()));
      }
      prev_ns = now;
      prev_cpu = cpu;
      prev_ops = ops;
    }
    for (std::thread& t : threads) t.join();
    int64_t end = start;
    for (auto& state : clients_) end = std::max(end, state->end_ns);
    result->cpu_ns += ProcessCpuNs() - cpu_start;
    result->duration_ns += end - start;
    // A traced window's registry snapshot is taken by the caller before
    // the quiesce point's own lookups.
    if (!traced) PQIDX_RETURN_IF_ERROR(Quiesce(next_check_++));
  }
  for (auto& state : clients_) {
    if (state->failed > 0) {
      std::fprintf(stderr, "client %d: %" PRId64 " of %" PRId64
                   " ops failed; first: %s\n",
                   state->index, state->failed, state->attempted,
                   state->first_error.c_str());
    }
    attempted_ += state->attempted;
    failed_ += state->failed;
    for (int k = 0; k < kOpKinds; ++k) {
      result->latency_ns[k].insert(result->latency_ns[k].end(),
                                   state->latency_ns[k].begin(),
                                   state->latency_ns[k].end());
      result->ops += static_cast<int64_t>(state->latency_ns[k].size());
    }
    result->delta_pqgrams += state->delta_pqgrams;
    result->deltas += state->deltas;
    if (traced) result->spans.push_back(std::move(state->spans));
  }
  return Status::Ok();
}

// --- the oracle --------------------------------------------------------------

Status Bench::CompareServed(const PqGramIndex& query,
                            const std::string& what) {
  pqidx::Client& client = *oracle_client_;
  for (double tau : spec_.taus) {
    const std::vector<LookupResult> expect = mirror_.Lookup(query, tau);
    // Cold then warm: the second probe is likely a cache hit, so a stale
    // or corrupt cache entry shows up here.
    for (const char* pass : {"cold", "warm"}) {
      StatusOr<std::vector<LookupResult>> got = client.Lookup(query, tau);
      PQIDX_RETURN_IF_ERROR(got.status());
      ++comparisons_;
      const std::string diff = DescribeResults(expect, *got);
      if (!diff.empty()) {
        return Diverged("Lookup(" + what + ", tau " + std::to_string(tau) +
                        ") " + pass + ": " + diff);
      }
    }
  }
  const std::vector<LookupResult> expect = mirror_.TopK(query, spec_.topk_k);
  for (const char* pass : {"cold", "warm"}) {
    StatusOr<std::vector<LookupResult>> got =
        client.TopK(query, spec_.topk_k);
    PQIDX_RETURN_IF_ERROR(got.status());
    ++comparisons_;
    const std::string diff = DescribeResults(expect, *got);
    if (!diff.empty()) {
      return Diverged("TopK(" + what + ") " + pass + ": " + diff);
    }
  }
  return Status::Ok();
}

Status Bench::Quiesce(uint64_t check_seed) {
  const int64_t start = NowNs();
  const int64_t comparisons_before = comparisons_;
  // Rebuild the mirror bag of every edited tree from scratch, from the
  // client's current tree: the served, incrementally maintained bag
  // (paper Algorithm 1 + Lemma 2) must equal it.
  std::vector<TreeId> edited;
  for (auto& state : clients_) {
    for (TreeId id : state->dirty) {
      const pqidx::Tree& tree =
          state->trees[static_cast<size_t>(id - state->own_begin)];
      mirror_.AddIndex(id, pqidx::BuildIndex(tree, shape_));
      edited.push_back(id);
    }
    state->dirty.clear();
  }
  StatusOr<pqidx::ServiceStats> stats = oracle_client_->Stats();
  PQIDX_RETURN_IF_ERROR(stats.status());
  if (stats->tree_count != mirror_.size()) {
    return Diverged("server holds " + std::to_string(stats->tree_count) +
                    " trees, mirror " + std::to_string(mirror_.size()));
  }
  // Answers sampled inside the window (read-only workloads).
  for (auto& state : clients_) {
    for (const Sample& s : state->samples) {
      const std::vector<LookupResult> expect =
          s.kind == OpKind::kLookup ? mirror_.Lookup(s.query, s.tau)
                                    : mirror_.TopK(s.query, spec_.topk_k);
      ++comparisons_;
      const std::string diff = DescribeResults(expect, s.got);
      if (!diff.empty()) {
        return Diverged(std::string("in-window ") + OpKindName(s.kind) +
                        " of client " + std::to_string(state->index) + ": " +
                        diff);
      }
    }
    state->samples.clear();
  }
  // A seeded sweep: popular pool queries (their cached answers must not
  // be stale), fresh queries near random trees, and the exact
  // from-scratch bags of a few edited trees.
  pqidx::Rng rng(MixSeed(options_.seed, kCheckSalt, check_seed));
  if (spec_.query_pool > 0) {
    for (int i = 0; i < 3; ++i) {
      PQIDX_RETURN_IF_ERROR(CompareServed(
          pool_[static_cast<size_t>(i)], "pool query " + std::to_string(i)));
    }
  } else {
    const TreeId base = static_cast<TreeId>(
        rng.NextBounded(static_cast<uint64_t>(spec_.num_trees)));
    PQIDX_RETURN_IF_ERROR(
        CompareServed(PerturbQuery(*mirror_.Find(base), rng.Next()),
                      "query near tree " + std::to_string(base)));
  }
  for (int i = 0; i < 2 && !edited.empty(); ++i) {
    const TreeId id = edited[rng.NextBounded(edited.size())];
    PQIDX_RETURN_IF_ERROR(
        CompareServed(*mirror_.Find(id), "edited tree " + std::to_string(id)));
  }
  std::fprintf(stdout,
               "# quiesce %" PRIu64 ": %zu edited trees rebuilt, %" PRId64
               " comparisons, %.3f s\n",
               check_seed, edited.size(), comparisons_ - comparisons_before,
               Seconds(NowNs() - start));
  return Status::Ok();
}

Status Bench::VerifyStore(double* materialize_s, double* build_s,
                          int64_t* posting_entries) {
  // The server must be down: the store is single-owner.
  for (auto& state : clients_) state->client.reset();
  oracle_client_.reset();
  server_->Stop();
  server_.reset();
  int64_t start = NowNs();
  StatusOr<pqidx::ForestIndex> forest = [&] {
    ScopedSpan span(&phase_spans_, "store.materialize_forest", 0);
    return store_->MaterializeForest();
  }();
  *materialize_s = Seconds(NowNs() - start);
  PQIDX_RETURN_IF_ERROR(forest.status());
  if (!(*forest == mirror_)) {
    for (TreeId id : mirror_.TreeIds()) {
      const PqGramIndex* stored = forest->Find(id);
      if (stored == nullptr || !(*stored == *mirror_.Find(id))) {
        return Diverged("reopened store's bag of tree " + std::to_string(id) +
                        " differs from the from-scratch bag");
      }
    }
    return Diverged("reopened store holds " + std::to_string(forest->size()) +
                    " trees, mirror " + std::to_string(mirror_.size()));
  }
  ++comparisons_;
  *posting_entries = 0;
  for (TreeId id : mirror_.TreeIds()) {
    *posting_entries += mirror_.Find(id)->distinct();
  }
  if (build_s == nullptr) return Status::Ok();
  start = NowNs();
  std::shared_ptr<const pqidx::LookupEngine> engine = [&] {
    ScopedSpan span(&phase_spans_, "lookup_engine.build", 0);
    return pqidx::LookupEngine::Build(*forest, kServerSnapshotShards);
  }();
  *build_s = Seconds(NowNs() - start);
  if (engine->posting_entries() != *posting_entries) {
    return Diverged("snapshot holds " +
                    std::to_string(engine->posting_entries()) +
                    " posting entries, mirror " +
                    std::to_string(*posting_entries));
  }
  return Status::Ok();
}

Status Bench::MeasurePing(std::vector<int64_t>* ping_ns) {
  for (int i = 0; i < kPings; ++i) {
    const int64_t start = NowNs();
    PQIDX_RETURN_IF_ERROR(oracle_client_->Ping());
    ping_ns->push_back(NowNs() - start);
  }
  return Status::Ok();
}

// --- the run -----------------------------------------------------------------

Status Bench::Run(MetricSet* m) {
  phase_start_ns_ = NowNs();
  BuildInputs();
  const FirstCheck first = MakeFirstCheck();
  Phase("inputs");
  const std::string base = options_.work_dir + "/" + spec_.name;
  const double seconds = options_.seconds;

  if (!options_.trace) {
    std::vector<double> setups;
    double setup_total = 0;
    int64_t rss_before = ResidentBytes();
    for (;;) {
      double s = 0;
      PQIDX_RETURN_IF_ERROR(Setup(base + "/store", first, &s));
      setups.push_back(s);
      setup_total += s;
      const int n = static_cast<int>(setups.size());
      if (n >= kMaxSetups ||
          (n >= kMinSetups && setup_total >= kSetupFloorSeconds)) {
        break;
      }
      StopServer();
      // The reading is taken before the store of the set-up that stays
      // up is opened.
      rss_before = ResidentBytes();
    }
    Phase("setup");
    PQIDX_RETURN_IF_ERROR(ConnectClients());
    WindowResult warmup;
    PQIDX_RETURN_IF_ERROR(RunWindow(kWarmupSeconds, 1, false, &warmup));
    Phase("warmup");
    WindowResult w;
    PQIDX_RETURN_IF_ERROR(RunWindow(seconds, kRounds, false, &w));
    const int64_t rss_after = ResidentBytes();
    const int64_t store_bytes = DirectoryBytes(store_dir_);
    Phase("window");

    double restart_s = 0;
    PQIDX_RETURN_IF_ERROR(Restart(MakeFirstCheck(), &restart_s));
    Phase("restart");
    double materialize_s = 0;
    int64_t postings = 0;
    PQIDX_RETURN_IF_ERROR(VerifyStore(&materialize_s, nullptr, &postings));
    Phase("verify");

    std::vector<int64_t> all;
    for (auto& v : w.latency_ns) all.insert(all.end(), v.begin(), v.end());
    auto ms = [](std::vector<int64_t>* samples, double q) {
      return Millis(Quantile(samples, q));
    };
    std::vector<int64_t>& lookups = w.latency_ns[0];
    std::vector<int64_t>& topks = w.latency_ns[1];
    std::vector<int64_t>& edits = w.latency_ns[2];
    m->Set("ops_per_s", w.ops_per_s(), "1/s");
    m->Set("lookup_p50_ms", ms(&lookups, 0.50), "ms");
    m->Set("lookup_p90_ms", ms(&lookups, 0.90), "ms");
    m->Set("topk_p50_ms", ms(&topks, 0.50), "ms");
    m->Set("topk_p90_ms", ms(&topks, 0.90), "ms");
    m->Set("op_p50_ms", ms(&all, 0.50), "ms");
    m->Set("setup_s", Median(setups), "s");
    m->Set("rss_mb", static_cast<double>(rss_after - rss_before) / (1 << 20),
           "MiB");
    m->Set("cpu_ms_per_op", w.cpu_ms_per_op(), "ms");
    m->Set("store_bytes_per_posting",
           postings > 0 ? static_cast<double>(store_bytes) / postings : 0,
           "bytes");
    // Informational (not part of the result object): sample counts,
    // the p99s and restart_s (too unsteady between runs on a shared host
    // to gate on), edit latency where the workload edits, and the spread
    // of the per-second throughput.
    std::fprintf(stdout,
                 "# samples lookup=%zu topk=%zu edit=%zu\n"
                 "# p99_ms lookup=%.4f topk=%.4f op=%.4f\n"
                 "# setup repetitions %zu, restart_s %.4f\n",
                 lookups.size(), topks.size(), edits.size(),
                 ms(&lookups, 0.99), ms(&topks, 0.99), ms(&all, 0.99),
                 setups.size(), restart_s);
    if (!edits.empty()) {
      std::fprintf(stdout, "# edit_ms p50=%.4f p90=%.4f p99=%.4f\n",
                   ms(&edits, 0.50), ms(&edits, 0.90), ms(&edits, 0.99));
    }
    std::vector<double> rates = w.interval_ops_per_s;
    std::sort(rates.begin(), rates.end());
    if (!rates.empty()) {
      std::fprintf(stdout,
                   "# ops/s per second: min %.0f median %.0f max %.0f\n",
                   rates.front(), Median(rates), rates.back());
    }
    return Status::Ok();
  }

  // Traced run: one setup, an untraced window (the overhead baseline)
  // and the traced live window, half the run length each, then restart,
  // verify and a replay of a quarter of the run length.
  double setup_s = 0;
  PQIDX_RETURN_IF_ERROR(Setup(base + "/store", first, &setup_s));
  PQIDX_RETURN_IF_ERROR(ConnectClients());
  Phase("setup");
  WindowResult warmup;
  PQIDX_RETURN_IF_ERROR(RunWindow(kWarmupSeconds, 1, false, &warmup));
  WindowResult plain;
  PQIDX_RETURN_IF_ERROR(RunWindow(seconds / 2, 1, false, &plain));
  Phase("window");
  StatusOr<pqidx::MetricsSnapshot> before = oracle_client_->StatsSnapshot();
  PQIDX_RETURN_IF_ERROR(before.status());
  WindowResult traced;
  PQIDX_RETURN_IF_ERROR(RunWindow(seconds / 2, 1, true, &traced));
  StatusOr<pqidx::MetricsSnapshot> after = oracle_client_->StatsSnapshot();
  PQIDX_RETURN_IF_ERROR(after.status());
  PQIDX_RETURN_IF_ERROR(Quiesce(next_check_++));
  Phase("traced");
  std::vector<int64_t> ping_ns;
  PQIDX_RETURN_IF_ERROR(MeasurePing(&ping_ns));
  double restart_s = 0;
  PQIDX_RETURN_IF_ERROR(Restart(MakeFirstCheck(), &restart_s));
  double materialize_s = 0;
  double build_s = 0;
  int64_t postings = 0;
  PQIDX_RETURN_IF_ERROR(VerifyStore(&materialize_s, &build_s, &postings));
  StopServer();
  Phase("restart");

  std::map<std::string, double> replay;
  PQIDX_RETURN_IF_ERROR(Replay(seconds / 4, &replay));
  Phase("replay");

  const RegistryDelta reg(*before, *after);
  std::vector<const std::vector<Span>*> live;
  for (const SpanBuffer& b : traced.spans) live.push_back(&b.spans());
  std::map<std::string, SpanStats> live_stats = SummarizeSpans(live);
  std::map<std::string, SpanStats> phase_stats =
      SummarizeSpans({&phase_spans_.spans()});
  auto p50_us = [](SpanStats* s) {
    return Quantile(&s->durations_ns, 0.5) / 1e3;
  };
  auto mean_s = [](const SpanStats& s) {
    return s.count == 0 ? 0 : Seconds(s.self_ns) / s.count;
  };
  // The attribution adds means: means of parts add up to the mean of
  // the whole, where medians do not.
  auto mean_us = [](const std::vector<int64_t>& ns) {
    return ns.empty() ? 0.0 : Mean(ns) / 1e3;
  };
  const double ping_mean_us = mean_us(ping_ns);
  const double lookup_live_us = mean_us(traced.latency_ns[0]);
  const double edit_live_us = mean_us(traced.latency_ns[2]);
  auto unattributed = [&](double layers_us, double live_us) {
    return live_us > 0 ? 1 - (layers_us + ping_mean_us) / live_us : 0;
  };
  const int64_t probes =
      reg.Count("query_cache.hits") + reg.Count("query_cache.misses");
  auto frac = [](int64_t num, int64_t den) {
    return den == 0 ? 0 : static_cast<double>(num) / den;
  };

  m->Set("incremental.compute_deltas_us",
         p50_us(&live_stats["incremental.compute_deltas"]), "us");
  m->Set("incremental.delta_pqgrams_per_edit",
         frac(traced.delta_pqgrams, traced.deltas), "count");
  m->Set("transport.ping_us", Quantile(&ping_ns, 0.5) / 1e3, "us");
  m->Set("wire.encode_us", replay["wire.encode_us"], "us");
  m->Set("wire.decode_us", replay["wire.decode_us"], "us");
  m->Set("wire.response_bytes_per_lookup",
         replay["wire.response_bytes_per_lookup"], "bytes");
  const double hit_frac = frac(reg.Count("query_cache.hits"), probes);
  m->Set("server.unattributed_frac.lookup",
         unattributed(replay["layers_us.lookup_fixed"] +
                          (1 - hit_frac) * replay["layers_us.lookup_miss"],
                      lookup_live_us),
         "frac");
  m->Set("server.unattributed_frac.edit",
         unattributed(replay["layers_us.edit"], edit_live_us), "frac");
  m->Set("server.edits_per_commit",
         reg.Ratio("server.edits_applied", "server.edit_commits"), "count");
  m->Set("query_cache.hit_frac", hit_frac, "frac");
  m->Set("query_cache.stale_frac",
         frac(reg.Count("query_cache.stale"), reg.Count("query_cache.misses")),
         "frac");
  m->Set("query_cache.bytes", Median(traced.interval_cache_bytes), "bytes");
  m->Set("query_cache.get_us", replay["query_cache.get_us"], "us");
  m->Set("lookup_engine.lookup_us", replay["lookup_engine.lookup_us"], "us");
  m->Set("lookup_engine.topk_us", replay["lookup_engine.topk_us"], "us");
  m->Set("lookup_engine.postings_per_query",
         reg.Ratio("lookup_engine.postings_scanned", "lookup_engine.queries"),
         "count");
  m->Set("lookup_engine.scored_frac",
         reg.Ratio("lookup_engine.candidates_scored",
                   "lookup_engine.candidates"),
         "frac");
  m->Set("lookup_engine.apply_delta_us", replay["lookup_engine.apply_delta_us"],
         "us");
  m->Set("lookup_engine.shards_recompiled_per_commit",
         reg.Ratio("lookup_engine.shards_recompiled", "server.edit_commits"),
         "count");
  m->Set("lookup_engine.build_s", build_s, "s");
  m->Set("lookup_engine.posting_entries", static_cast<double>(postings),
         "count");
  m->Set("store.apply_batch_us", replay["store.apply_batch_us"], "us");
  m->Set("store.bulk_add_s", mean_s(phase_stats["store.bulk_add"]), "s");
  m->Set("store.open_s", mean_s(phase_stats["store.open"]), "s");
  m->Set("store.materialize_forest_s", materialize_s, "s");
  m->Set("server.restart_s", restart_s, "s");
  m->Set("pager.commit_us_mean", reg.Mean("pager.commit_us"), "us");
  m->Set("pager.fsyncs_per_commit", reg.Ratio("pager.fsyncs", "pager.commits"),
         "count");
  m->Set("pager.wal_bytes_per_edit",
         reg.Ratio("pager.wal_bytes", "server.edits_applied"), "bytes");
  m->Set("pager.cache_hit_frac",
         frac(reg.Count("pager.cache_hits"),
              reg.Count("pager.cache_hits") + reg.Count("pager.cache_misses")),
         "frac");
  m->Set("replication.publish_us", replay["replication.publish_us"], "us");
  m->Set("trace.overhead_frac",
         plain.ops_per_s() > 0 ? 1 - traced.ops_per_s() / plain.ops_per_s()
                               : 0,
         "frac");
  std::fprintf(stdout,
               "# traced live: %" PRId64 " ops (%.1f/s untraced, %.1f/s "
               "traced); setup %.3f s, restart %.3f s\n",
               traced.ops, plain.ops_per_s(), traced.ops_per_s(), setup_s,
               restart_s);

  // Spans are written once, at the end of the run.
  std::vector<const std::vector<Span>*> all = live;
  all.push_back(&phase_spans_.spans());
  all.push_back(&replay_spans_.spans());
  const std::string path = options_.work_dir + "/" + spec_.name + ".spans.tsv";
  if (!WriteSpans(path, all)) {
    return pqidx::IoError("cannot write " + path);
  }
  std::fprintf(stdout, "# spans written to %s\n", path.c_str());
  return Status::Ok();
}

}  // namespace perfbench
