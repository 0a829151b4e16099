// The repository benchmark: one workload of the release -> persist ->
// serve cycle per run, driven through the layers' public APIs only.
//
//   eep_perfbench --workload W --seed N --seconds S --dir STORE_DIR
//                 [--trace-out PATH] [--violate GATE]
//
// Workloads (BENCHMARK.json lists release_cycle and serve_refresh with
// the reason for each; README.md says why serve_lookup is left out):
//   release_cycle  paper preset; each timed cycle releases the paper
//                  tabulations cold (4 threads, real accountant, persist),
//                  refreshes the server and checks one answer through the
//                  Service, then sends a verification burst of requests.
//   serve_lookup   400k preset; the release happens in set-up, then two
//                  closed-loop clients query the Service, no commits.
//                  Release cycles run before and after serving only.
//   serve_refresh  paper preset; one closed-loop client queries all cells
//                  while the main thread republishes back to back from a
//                  warm GroupByCache and the server's refresh thread
//                  follows.
//
// Every input is derived from --seed and built before the timed phase.
// The last stdout line is one JSON object (see PrintResult); the exit
// code is non-zero when any correctness gate failed. --violate breaks one
// gate on purpose so the self-test can show that the gate fails a run.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "gates.h"
#include "harness.h"
#include "lodes/generator.h"
#include "lodes/workload.h"
#include "privacy/accountant.h"
#include "release/pipeline.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "store/store.h"
#include "table/group_by_cache.h"

namespace perfbench {
namespace {

using eep::Rng;
using eep::Status;
using eep::StatusCode;
namespace lodes = eep::lodes;
namespace release = eep::release;
namespace serve = eep::serve;
namespace store = eep::store;

// Request front configuration, identical on every workload.
constexpr int kServiceWorkers = 2;
constexpr size_t kQueueCapacity = 16;
constexpr int64_t kDeadlineMs = 250;
// One request in ten is a TopK.
constexpr uint64_t kTopKEvery = 10;
// Requests release_cycle sends after each cycle's timer stops, so its
// latency percentiles rest on enough samples (200 TopKs per cycle).
constexpr int kBurstRequests = 2000;
// Release cycles serve_lookup runs before and again after serving.
constexpr int kAsideCycles = 40;
// Requests of the traced run's single-threaded probe.
constexpr size_t kProbeRequests = 20000;
// Snapshot loads of the traced run's probe.
constexpr int kProbeLoads = 3;
constexpr int kEpochWaitMs = 60000;
// How long a reader waits for the writer to publish an epoch the server
// already serves (the writer publishes right after its call returns).
constexpr int kPublishWaitMs = 5000;
constexpr int kPollMs = 10;
// Sends between two rate marks of a serve_* client.
constexpr uint64_t kRateMarkEvery = 1024;
// Consecutive windows a run's requests are cut into for the latency
// percentiles and the request rate; each statistic is the median over
// windows, so a host stall moves only the windows it hits.
constexpr size_t kWindows = 32;

// Seed tags: every input is Mix(seed, tag, index).
enum Tag : uint64_t {
  kGeneratorTag = 1,
  kNoiseTag = 2,
  kStreamTag = 3,
  kFirstAnswerTag = 4,
};

uint64_t Mix(uint64_t seed, uint64_t tag, uint64_t index = 0) {
  uint64_t z = seed ^ (tag * 0x9E3779B97F4A7C15ULL) ^
               (index * 0xBF58476D1CE4E5B9ULL + 0x94D049BB133111EBULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

enum class Kind { kReleaseCycle, kServeLookup, kServeRefresh };

struct WorkloadDef {
  Kind kind;
  const char* name;
  bool paper_preset;  // Else the 400k preset.
  int setup_reps;     // Set-ups per run; setup_s is their median.
  // Request streams. serve_* run each on its own closed-loop client
  // thread; release_cycle's main thread sends its one stream itself.
  int clients;
};

constexpr WorkloadDef kWorkloads[] = {
    {Kind::kReleaseCycle, "release_cycle", true, 3, 1},
    {Kind::kServeLookup, "serve_lookup", false, 7, 2},
    {Kind::kServeRefresh, "serve_refresh", true, 3, 1},
};

struct Args {
  const WorkloadDef* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  std::string dir;
  std::string trace_out;
  std::string violate;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      for (const WorkloadDef& w : kWorkloads) {
        if (value == w.name) args->workload = &w;
      }
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--dir") {
      args->dir = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else if (flag == "--violate") {
      args->violate = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && args->workload != nullptr && args->seconds > 0 &&
         !args->dir.empty();
}

// One request of a client's stream, built in set-up.
struct Request {
  bool is_topk = false;
  uint32_t table = 0;
  uint32_t row = 0;  // Lookups: the released row of the cell.
  serve::LookupRequest lookup;
  serve::TopKRequest topk;
  std::vector<std::string> key;  // Probe subset only: the direct key.
};

// A closed-loop client: its requests, its seeded stream over them, and
// what it measured. Owned and touched by one thread at a time.
struct Client {
  explicit Client(std::string name, size_t span_capacity)
      : log(std::move(name), span_capacity) {}

  uint64_t id_base = 0;
  std::vector<Request> requests;
  std::vector<uint32_t> stream;  // Indices into requests.
  size_t pos = 0;

  // Outcomes.
  uint64_t sent = 0;
  uint64_t answered = 0;
  uint64_t shed = 0;
  uint64_t expired = 0;
  uint64_t errors = 0;  // Any other non-OK status (NotFound, ...).
  std::vector<uint32_t> lookup_ns;
  std::vector<uint32_t> topk_ns;
  // (time, answered) every kRateMarkEvery sends of a serve_* client;
  // answers_per_s is the median rate between consecutive windows of them.
  std::vector<std::pair<int64_t, uint64_t>> rate_marks;

  // Verification scratch, reused so the loop allocates nothing.
  std::shared_ptr<const Release> cached;
  Window window;
  // The oldest epoch this client may still be answered from.
  std::atomic<uint64_t> oldest_needed{0};

  SpanLog log;
};

// Everything one set-up builds; torn down in reverse member order.
struct Fixture {
  std::optional<lodes::LodesDataset> data;
  std::optional<eep::privacy::PrivacyAccountant> accountant;
  std::unique_ptr<eep::table::GroupByCache> cache;
  std::unique_ptr<store::Store> writer;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<serve::Service> service;
  release::WorkloadReleaseConfig config;
  std::string expected_fingerprint;
  EpochWindow window;
  std::shared_ptr<const Release> first;   // Epoch 1, the set-up release.
  std::shared_ptr<const Release> latest;  // Newest committed epoch.
  uint64_t setup_requests = 0;            // Service requests in set-up.
};

// Everything one run measured.
struct Measured {
  Samples setup_s;
  Samples generate_ms;
  Samples cycle_ms;
  Samples refresh_lag_ms;
  Samples bytes_per_cell;
  // Per timed release (WorkloadReleaseStats and the call's span).
  Samples release_wall_ms, release_self_ms, scan_ms, derive_ms, scans,
      noise_ms, format_ms, commit_ms, epoch_bytes, release_allocs,
      release_alloc_bytes;
  uint64_t releases = 0, failed_releases = 0;
  uint64_t refreshes = 0, failed_refreshes = 0;
  double timed_wall_s = 0;
  serve::Server::Stats server_before, server_after;
  serve::ServiceStats service_before, service_after;
  // Probe (traced run only).
  Samples read_epoch_ms, load_ms, load_alloc_bytes;
  Samples direct_cell_ns, direct_key_ns, direct_topk_ns, direct_allocs;
  Samples service_ns, service_allocs;
  uint64_t digest = kDigestSeed;
  size_t cells = 0;
};

Args g_args;
Gates g_gates;
// Set once the window gate failed: readers stop waiting on epochs that
// will never be published.
std::atomic<bool> g_window_failed{false};

void FailStatus(const char* gate, const char* what, const Status& status) {
  g_gates.Fail(gate, std::string(what) + ": " + status.ToString());
}

// Release configuration shared by every workload. The accountant is
// sized so no run can exhaust it: at most 9e-4 delta per release against
// a 0.999 budget (SmoothLaplace needs delta >= 2.8e-5 at this alpha and
// epsilon).
release::WorkloadReleaseConfig MakeConfig() {
  release::WorkloadReleaseConfig config;
  config.workload = lodes::WorkloadSpec::PaperTabulations();
  config.mechanism = eep::eval::MechanismKind::kSmoothLaplace;
  config.alpha = 0.1;
  config.epsilon = 2.0;
  config.delta = 1e-4;
  config.round_counts = true;
  config.description = "perfbench";
  return config;
}

std::string ExpectedFingerprintForGate(
    const release::WorkloadReleaseConfig& config) {
  if (g_args.violate != "fingerprint") {
    return serve::ExpectedFingerprint(config);
  }
  release::WorkloadReleaseConfig other = config;
  other.epsilon *= 2;
  return serve::ExpectedFingerprint(other);
}

void CheckServedFingerprint(const Fixture& f) {
  const std::string served = f.server->snapshot()->fingerprint();
  if (served != f.expected_fingerprint) {
    g_gates.Fail("fingerprint", "epoch " +
                                    std::to_string(f.server->serving_epoch()) +
                                    " serves fingerprint " + served);
  }
}

// The window copy of a release; --violate answer corrupts table 0 there
// (never in what was released or digested).
std::shared_ptr<const Release> ForWindow(std::shared_ptr<const Release> r) {
  if (g_args.violate != "answer") return r;
  auto bad = std::make_shared<Release>(*r);
  for (auto& row : bad->tables[0].rows) row.back() += "x";
  for (auto& cell : bad->topk[0]) cell.count += "x";
  return bad;
}

// One RunReleaseWorkload call as an epoch: the call span with the
// library-reported phases as children, then the bench-side Release.
struct EpochOut {
  std::shared_ptr<const Release> release;
  int64_t call_ns = 0;
  int64_t return_ns = 0;
  double bytes_per_cell = 0;  // Manifest segment bytes / released cells.
};

// Where a release happens: set-up releases count toward nothing; timed
// ones toward the failure accounting and the per-layer metrics; the
// cycles around serve_lookup's serving phase toward the accounting only.
enum class Phase { kSetup, kTimed, kAside };

// `quiet`: nothing else runs during the call, so the heap counts of its
// span are the release's own.
std::optional<EpochOut> ReleaseEpoch(Fixture& f, int threads, bool use_cache,
                                     Phase phase, bool quiet, SpanLog& log,
                                     int32_t parent, Measured& m) {
  f.config.num_threads = threads;
  f.config.persist_to = f.writer.get();
  const uint64_t epoch = f.writer->last_committed_epoch() + 1;
  Rng rng(Mix(g_args.seed, kNoiseTag, epoch));
  release::WorkloadReleaseStats stats;
  EpochOut out;
  const int32_t span = log.Begin("release.RunReleaseWorkload", parent);
  out.call_ns = NowNs();
  auto result = release::RunReleaseWorkload(
      *f.data, f.config, &*f.accountant, rng,
      use_cache ? f.cache.get() : nullptr, &stats);
  out.return_ns = NowNs();
  log.End(span);
  if (phase != Phase::kSetup) ++m.releases;
  if (!result.ok() || stats.persisted_epoch != epoch) {
    if (phase != Phase::kSetup) ++m.failed_releases;
    FailStatus("release", "RunReleaseWorkload", result.status());
    return std::nullopt;
  }
  const int64_t base_ns = static_cast<int64_t>(stats.compute.base_ms * 1e6);
  const int64_t derive_ns =
      static_cast<int64_t>(stats.compute.derive_ms * 1e6);
  const int64_t persist_ns = static_cast<int64_t>(stats.persist_ms * 1e6);
  log.AddChild("lodes.scan", span, out.call_ns, out.call_ns + base_ns);
  log.AddChild("lodes.derive", span, out.call_ns + base_ns,
               out.call_ns + base_ns + derive_ns);
  log.AddChild("store.CommitEpoch", span, out.return_ns - persist_ns,
               out.return_ns);

  uint64_t bytes = 0;
  auto info = f.writer->CurrentEpoch();
  if (info.ok()) {
    for (const auto& table : info.value()->tables) bytes += table.size_bytes;
  }
  out.release = MakeRelease(epoch, std::move(result).value());
  size_t cells = 0;
  for (const auto& t : out.release->tables) cells += t.rows.size();
  out.bytes_per_cell = static_cast<double>(bytes) / static_cast<double>(cells);
  if (phase == Phase::kTimed) {
    const double wall_ms = NsToMs(out.return_ns - out.call_ns);
    m.release_wall_ms.Add(wall_ms);
    m.release_self_ms.Add(wall_ms - stats.compute.base_ms -
                          stats.compute.derive_ms - stats.persist_ms);
    m.scan_ms.Add(stats.compute.base_ms);
    m.derive_ms.Add(stats.compute.derive_ms);
    m.scans.Add(stats.compute.full_table_scans);
    m.noise_ms.Add(stats.noise_ms);
    m.format_ms.Add(stats.format_ms);
    m.commit_ms.Add(stats.persist_ms);
    m.epoch_bytes.Add(static_cast<double>(bytes));
    if (quiet && span >= 0) {
      const Span& s = log.spans()[static_cast<size_t>(span)];
      m.release_allocs.Add(static_cast<double>(s.allocs));
      m.release_alloc_bytes.Add(static_cast<double>(s.alloc_bytes));
    }
  }
  return out;
}

serve::LookupRequest LookupFor(const release::ReleasedTable& table,
                               const std::string& name, size_t row) {
  serve::LookupRequest request;
  request.table = name;
  for (size_t c = 0; c + 1 < table.header.size(); ++c) {
    request.values[table.header[c]] = table.rows[row][c];
  }
  return request;
}

std::vector<std::string> TableNames(const Fixture& f) {
  std::vector<std::string> names;
  auto info = f.writer->CurrentEpoch();
  if (info.ok()) {
    for (const auto& table : info.value()->tables) names.push_back(table.name);
  }
  return names;
}

// The one verified Service::Lookup that ends a cycle: a seeded cell of
// the newest epoch, answered from exactly that epoch.
bool FirstAnswer(Fixture& f, const std::vector<std::string>& names,
                 SpanLog& log, int32_t parent) {
  const Release& r = *f.latest;
  const size_t t = Mix(g_args.seed, kFirstAnswerTag, r.epoch) % r.tables.size();
  const size_t row =
      Mix(g_args.seed, kFirstAnswerTag, r.epoch + (1ULL << 32)) %
      r.tables[t].rows.size();
  serve::LookupRequest request = LookupFor(r.tables[t], names[t], row);
  request.deadline_ms = f.service->DeadlineAfterMs(kDeadlineMs);
  const int32_t span = log.Begin("serve.service.Lookup", parent);
  auto got = f.service->Lookup(request);
  log.End(span);
  ++f.setup_requests;
  const auto expected = f.window.Get(r.epoch, kPublishWaitMs);
  if (!got.ok()) {
    FailStatus("answer", "first answer", got.status());
    return false;
  }
  if (expected == nullptr ||
      !LookupInWindow({expected}, t, row, got.value())) {
    g_gates.Fail("answer", "first answer of epoch " + std::to_string(r.epoch) +
                               " is " + got.value());
    return false;
  }
  return true;
}

// Seeded request stream over every released cell of `r`: one Lookup per
// cell in shuffled order, with a TopK of a seeded table in place of every
// tenth request on average.
void BuildClient(const Release& r, const std::vector<std::string>& names,
                 uint64_t stream_seed, bool with_keys, Client* c) {
  Rng rng(stream_seed);
  for (size_t t = 0; t < r.tables.size(); ++t) {
    for (size_t row = 0; row < r.tables[t].rows.size(); ++row) {
      Request request;
      request.table = static_cast<uint32_t>(t);
      request.row = static_cast<uint32_t>(row);
      request.lookup = LookupFor(r.tables[t], names[t], row);
      c->requests.push_back(std::move(request));
    }
  }
  const size_t cells = c->requests.size();
  for (size_t t = 0; t < r.tables.size(); ++t) {
    Request request;
    request.is_topk = true;
    request.table = static_cast<uint32_t>(t);
    request.topk.table = names[t];
    request.topk.k = kTopK;
    c->requests.push_back(std::move(request));
  }
  std::vector<uint32_t> order(cells);
  for (size_t i = 0; i < cells; ++i) order[i] = static_cast<uint32_t>(i);
  for (size_t i = cells; i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextUint64() % i]);
  }
  c->stream.reserve(cells + cells / (kTopKEvery - 1) + 1);
  for (size_t i = 0; i < cells;) {
    if (rng.NextUint64() % kTopKEvery == 0) {
      c->stream.push_back(static_cast<uint32_t>(
          cells + rng.NextUint64() % r.tables.size()));
    } else {
      c->stream.push_back(order[i++]);
    }
  }
  if (with_keys) {
    for (size_t i = 0; i < std::min(kProbeRequests, c->stream.size()); ++i) {
      Request& request = c->requests[c->stream[i]];
      if (request.is_topk || !request.key.empty()) continue;
      for (size_t col = 0; col + 1 < r.tables[request.table].header.size();
           ++col) {
        request.key.push_back(r.tables[request.table].rows[request.row][col]);
      }
    }
  }
}

void ReserveLatencies(Client* c, double seconds, size_t per_second) {
  const size_t n =
      static_cast<size_t>(seconds * static_cast<double>(per_second));
  c->lookup_ns.reserve(n);
  c->topk_ns.reserve(n / 4 + 1024);
  c->rate_marks.reserve(n / kRateMarkEvery + 2);
}

// Sends the client's next request, times it from send to return, and
// checks a completed answer against every epoch served between the
// serving_epoch() read before the send and the one read after it.
void SendNext(Fixture& f, Client& c) {
  Request& rq = c.requests[c.stream[c.pos]];
  c.pos = c.pos + 1 == c.stream.size() ? 0 : c.pos + 1;
  const uint64_t before = f.server->serving_epoch();
  c.oldest_needed.store(before, std::memory_order_release);
  const uint64_t id = c.id_base + ++c.sent;
  Status status;
  std::vector<serve::RankedCell> ranked;
  std::string count;
  int64_t start = 0;
  int64_t end = 0;
  if (rq.is_topk) {
    rq.topk.deadline_ms = f.service->DeadlineAfterMs(kDeadlineMs);
    const int32_t span = c.log.Begin("serve.service.TopK", -1, id);
    start = NowNs();
    auto got = f.service->TopK(rq.topk);
    end = NowNs();
    c.log.End(span);
    if (got.ok()) {
      ranked = std::move(got).value();
    } else {
      status = got.status();
    }
  } else {
    rq.lookup.deadline_ms = f.service->DeadlineAfterMs(kDeadlineMs);
    const int32_t span = c.log.Begin("serve.service.Lookup", -1, id);
    start = NowNs();
    auto got = f.service->Lookup(rq.lookup);
    end = NowNs();
    c.log.End(span);
    if (got.ok()) {
      count = std::move(got).value();
    } else {
      status = got.status();
    }
  }
  const uint64_t after = f.server->serving_epoch();
  if (!status.ok()) {
    if (status.code() == StatusCode::kResourceExhausted) {
      ++c.shed;
    } else if (status.code() == StatusCode::kDeadlineExceeded) {
      ++c.expired;
    } else {
      ++c.errors;
      FailStatus("answer", "request", status);
    }
    return;
  }
  ++c.answered;
  const uint64_t ns = static_cast<uint64_t>(end - start);
  std::vector<uint32_t>& lat = rq.is_topk ? c.topk_ns : c.lookup_ns;
  if (lat.size() < lat.capacity()) {
    lat.push_back(static_cast<uint32_t>(std::min<uint64_t>(ns, UINT32_MAX)));
  }

  if (g_window_failed.load(std::memory_order_relaxed)) return;
  const uint64_t shift = g_args.violate == "window" ? 1 : 0;
  c.window.clear();
  for (uint64_t e = before + shift; e <= after + shift; ++e) {
    if (c.cached == nullptr || c.cached->epoch != e) {
      auto r = f.window.Get(e, kPublishWaitMs);
      if (r == nullptr) {
        g_window_failed.store(true, std::memory_order_relaxed);
        g_gates.Fail("window", "epoch " + std::to_string(e) +
                                   " is not in the released window");
        return;
      }
      c.cached = std::move(r);
    }
    c.window.push_back(c.cached);
  }
  const bool matches =
      rq.is_topk ? TopKInWindow(c.window, rq.table, ranked)
                 : LookupInWindow(c.window, rq.table, rq.row, count);
  if (!matches) {
    g_gates.Fail("answer", std::string(rq.is_topk ? "TopK of " : "Lookup in ") +
                               (rq.is_topk ? rq.topk.table : rq.lookup.table) +
                               " matches no epoch in [" +
                               std::to_string(before) + ", " +
                               std::to_string(after) + "]");
  }
}

// Runs clients[i] on its own thread until `stop` is set (or its latency
// buffer is full); returns the wall time of the phase in seconds.
double RunClients(Fixture& f, std::vector<std::unique_ptr<Client>>& clients,
                  const std::atomic<bool>& stop) {
  std::vector<std::thread> threads;
  const int64_t start = NowNs();
  for (auto& c : clients) {
    Client* client = c.get();
    threads.emplace_back([&f, client, &stop] {
      client->rate_marks.emplace_back(NowNs(), client->answered);
      while (!stop.load(std::memory_order_acquire) &&
             client->lookup_ns.size() < client->lookup_ns.capacity()) {
        SendNext(f, *client);
        if (client->sent % kRateMarkEvery == 0 &&
            client->rate_marks.size() < client->rate_marks.capacity()) {
          client->rate_marks.emplace_back(NowNs(), client->answered);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  return NsToMs(NowNs() - start) / 1000.0;
}

std::string StoreDir(int rep) {
  return g_args.dir + "/rep" + std::to_string(rep);
}

// One complete set-up: extract, initial release (epoch 1), Server::Open,
// Service::Create, the first verified answer, and the warm-up. The
// returned fixture is ready for the timed phase.
std::unique_ptr<Fixture> SetUp(int rep, SpanLog& log, Measured& m) {
  const WorkloadDef& w = *g_args.workload;
  auto f = std::make_unique<Fixture>();
  const int64_t start = NowNs();
  const int32_t setup_span = log.Begin("setup");

  lodes::GeneratorConfig gen = w.paper_preset
                                   ? lodes::GeneratorConfig::PaperExtract()
                                   : lodes::GeneratorConfig();
  if (!w.paper_preset) gen.target_jobs = 400000;
  gen.seed = Mix(g_args.seed, kGeneratorTag);
  const int32_t gen_span = log.Begin("lodes.Generate", setup_span);
  const int64_t gen_start = NowNs();
  auto data = lodes::SyntheticLodesGenerator(gen).Generate();
  m.generate_ms.Add(NsToMs(NowNs() - gen_start));
  log.End(gen_span);
  if (!data.ok()) {
    FailStatus("setup", "Generate", data.status());
    return nullptr;
  }
  f->data.emplace(std::move(data).value());

  f->config = MakeConfig();
  auto accountant = eep::privacy::PrivacyAccountant::Create(
      f->config.alpha, 1e12, 0.999, eep::privacy::AdversaryModel::kWeak);
  if (!accountant.ok()) {
    FailStatus("setup", "PrivacyAccountant::Create", accountant.status());
    return nullptr;
  }
  f->accountant.emplace(std::move(accountant).value());
  if (w.kind == Kind::kServeRefresh) {
    f->cache = std::make_unique<eep::table::GroupByCache>();
  }
  const std::string dir = StoreDir(rep);
  std::filesystem::remove_all(dir);
  auto writer = store::Store::Open(dir);
  if (!writer.ok()) {
    FailStatus("setup", "Store::Open", writer.status());
    return nullptr;
  }
  f->writer = std::move(writer).value();
  f->expected_fingerprint = ExpectedFingerprintForGate(f->config);

  // Epoch 1: the initial release (4 threads; it fills serve_refresh's
  // cache, so the timed republishes scan nothing).
  auto first = ReleaseEpoch(*f, 4, f->cache != nullptr, Phase::kSetup, false,
                            log, setup_span, m);
  if (!first) return nullptr;
  f->first = first->release;
  f->latest = first->release;
  f->window.Publish(ForWindow(f->latest));

  serve::ServerOptions server_options;
  server_options.poll_interval_ms =
      w.kind == Kind::kServeRefresh ? kPollMs : 0;
  server_options.expected_fingerprint = serve::ExpectedFingerprint(f->config);
  const int32_t open_span = log.Begin("serve.server.Open", setup_span);
  auto server = serve::Server::Open(dir, server_options);
  log.End(open_span);
  if (!server.ok()) {
    FailStatus("setup", "Server::Open", server.status());
    return nullptr;
  }
  f->server = std::move(server).value();
  CheckServedFingerprint(*f);
  serve::ServiceOptions service_options;
  service_options.queue_capacity = kQueueCapacity;
  service_options.num_workers = kServiceWorkers;
  auto service = serve::Service::Create(f->server.get(), service_options);
  if (!service.ok()) {
    FailStatus("setup", "Service::Create", service.status());
    return nullptr;
  }
  f->service = std::move(service).value();
  const std::vector<std::string> names = TableNames(*f);
  if (!FirstAnswer(*f, names, log, setup_span)) return nullptr;

  // Warm-up: one untimed cycle where cycles are timed, else one pass of
  // requests so the snapshot and the workers are warm.
  if (w.kind == Kind::kServeLookup) {
    Client warm("warmup", 0);
    BuildClient(*f->first, names, Mix(g_args.seed, kStreamTag, 99), false,
                &warm);
    ReserveLatencies(&warm, 1, warm.stream.size());
    for (size_t i = 0; i < warm.stream.size(); ++i) SendNext(*f, warm);
    f->setup_requests += warm.sent;
  } else {
    const bool cycle = w.kind == Kind::kReleaseCycle;
    auto warm = ReleaseEpoch(*f, cycle ? 4 : 1, !cycle, Phase::kSetup, false,
                             log, setup_span, m);
    if (!warm) return nullptr;
    f->latest = warm->release;
    f->window.Publish(ForWindow(f->latest));
    if (cycle) {
      if (!f->server->RefreshNow().ok()) {
        g_gates.Fail("refresh", "warm-up RefreshNow failed");
        return nullptr;
      }
    } else if (!f->server->WaitForEpoch(f->latest->epoch, kEpochWaitMs)) {
      g_gates.Fail("refresh", "warm-up epoch never served");
      return nullptr;
    }
    CheckServedFingerprint(*f);
    if (!FirstAnswer(*f, names, log, setup_span)) return nullptr;
  }
  log.End(setup_span);
  m.setup_s.Add(NsToMs(NowNs() - start) / 1000.0);
  return f;
}

// One release -> RefreshNow -> first verified answer cycle; cycle_ms is
// the wall time of those three calls (the bench's own bookkeeping between
// them excluded). False when a step failed.
bool RunCycle(Fixture& f, Client& main_client, Measured& m, Phase phase) {
  const std::vector<std::string> names = TableNames(f);
  const int32_t cycle_span = main_client.log.Begin("cycle");
  auto out = ReleaseEpoch(f, 4, false, phase, true, main_client.log,
                          cycle_span, m);
  if (!out) return false;
  f.latest = out->release;
  f.window.Publish(ForWindow(f.latest));
  f.window.DropBefore(f.latest->epoch);
  ++m.refreshes;
  const int32_t refresh_span =
      main_client.log.Begin("serve.server.RefreshNow", cycle_span);
  const int64_t refresh_start = NowNs();
  const Status refreshed = f.server->RefreshNow();
  const int64_t refresh_end = NowNs();
  main_client.log.End(refresh_span);
  if (!refreshed.ok() || f.server->serving_epoch() != f.latest->epoch) {
    ++m.failed_refreshes;
    FailStatus("refresh", "RefreshNow", refreshed);
    return false;
  }
  CheckServedFingerprint(f);
  const bool answered = FirstAnswer(f, names, main_client.log, cycle_span);
  const int64_t answer_end = NowNs();
  main_client.log.End(cycle_span);
  if (!answered) return false;
  m.cycle_ms.Add(NsToMs((out->return_ns - out->call_ns) +
                        (answer_end - refresh_start)));
  m.refresh_lag_ms.Add(NsToMs(refresh_end - refresh_start));
  m.bytes_per_cell.Add(out->bytes_per_cell);
  if (m.releases == 1) m.digest = DigestTables(m.digest, out->release->tables);
  return true;
}

// release_cycle's timed phase: cycles back to back, each followed by a
// verification burst of requests outside the cycle timer.
void TimeReleaseCycles(Fixture& f, Client& main_client, Measured& m) {
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(g_args.seconds * 1e9);
  while (m.releases == 0 || NowNs() < end) {
    if (!RunCycle(f, main_client, m, Phase::kTimed)) break;
    for (int i = 0; i < kBurstRequests; ++i) SendNext(f, main_client);
  }
  m.timed_wall_s = NsToMs(NowNs() - start) / 1000.0;
}

// serve_refresh's writer: republish back to back from the warm cache;
// each epoch is committed as soon as the previous one is serving.
void TimeRepublish(Fixture& f, Client& reader, Measured& m, SpanLog& log) {
  const int64_t end = NowNs() + static_cast<int64_t>(g_args.seconds * 1e9);
  while (m.releases == 0 || NowNs() < end) {
    const int32_t cycle_span = log.Begin("cycle");
    auto out = ReleaseEpoch(f, 1, true, Phase::kTimed, false, log, cycle_span,
                            m);
    if (!out) break;
    f.latest = out->release;
    f.window.Publish(ForWindow(f.latest));
    f.window.DropBefore(std::min(
        reader.oldest_needed.load(std::memory_order_acquire), f.latest->epoch));
    ++m.refreshes;
    const int32_t wait_span =
        log.Begin("serve.server.WaitForEpoch", cycle_span);
    const bool served = f.server->WaitForEpoch(f.latest->epoch, kEpochWaitMs);
    const int64_t serving_ns = NowNs();
    log.End(wait_span);
    log.End(cycle_span);
    if (!served) {
      ++m.failed_refreshes;
      g_gates.Fail("refresh", "epoch " + std::to_string(f.latest->epoch) +
                                  " never served");
      break;
    }
    CheckServedFingerprint(f);
    m.cycle_ms.Add(NsToMs(serving_ns - out->call_ns));
    m.refresh_lag_ms.Add(NsToMs(serving_ns - out->return_ns));
    m.bytes_per_cell.Add(out->bytes_per_cell);
    if (m.releases == 1) {
      m.digest = DigestTables(m.digest, out->release->tables);
    }
  }
}

// Traced run only, after the timed phase: single-threaded probes with
// their heap counts. Snapshot loads read epoch 1 from a bench-owned
// read-only store (epoch 1 is the same on every run of a seed, so its
// counts repeat exactly). The probe requests then go directly to the
// serving snapshot's ServedTable and through the Service.
void Probe(Fixture& f, Client& c, Measured& m, SpanLog& log) {
  const WorkloadDef& w = *g_args.workload;
  if (w.kind != Kind::kServeLookup) {
    auto ro = store::Store::OpenReadOnly(f.writer->dir());
    if (!ro.ok()) {
      FailStatus("probe", "OpenReadOnly", ro.status());
      return;
    }
    const uint64_t epoch = 1;
    for (int i = 0; i < kProbeLoads; ++i) {
      const int32_t read_span = log.Begin("store.ReadEpoch");
      auto tables = ro.value()->ReadEpoch(epoch);
      log.End(read_span);
      const int32_t load_span = log.Begin("serve.snapshot.Load");
      auto snap = serve::Snapshot::Load(*ro.value(), epoch);
      log.End(load_span);
      if (!tables.ok() || !snap.ok()) {
        g_gates.Fail("probe", "ReadEpoch/Snapshot::Load failed");
        return;
      }
      m.load_alloc_bytes.Add(static_cast<double>(
          log.spans()[static_cast<size_t>(load_span)].alloc_bytes));
    }
    m.read_epoch_ms = log.DurationsMs("store.ReadEpoch");
    m.load_ms = log.DurationsMs("serve.snapshot.Load");
  }

  std::shared_ptr<const serve::Snapshot> snap = f.server->snapshot();
  std::vector<const serve::ServedTable*> tables;
  for (const auto& t : snap->tables()) tables.push_back(&t);
  const size_t n = std::min(kProbeRequests, c.stream.size());
  for (size_t i = 0; i < n; ++i) {
    const Request& rq = c.requests[c.stream[i]];
    const serve::ServedTable& table = *tables[rq.table];
    if (rq.is_topk) {
      const int32_t span = log.Begin("serve.snapshot.TopK");
      auto got = table.TopK(rq.topk.k);
      log.End(span);
      m.direct_topk_ns.Add(static_cast<double>(
          log.spans()[static_cast<size_t>(span)].end_ns -
          log.spans()[static_cast<size_t>(span)].start_ns));
      continue;
    }
    const int32_t cell_span = log.Begin("serve.snapshot.LookupCell");
    auto by_cell = table.LookupCell(rq.lookup.values);
    log.End(cell_span);
    const int32_t key_span = log.Begin("serve.snapshot.Lookup");
    auto by_key = table.Lookup(rq.key);
    log.End(key_span);
    if (!by_cell.ok() || !by_key.ok() || by_cell.value() != by_key.value()) {
      g_gates.Fail("answer", "direct ServedTable lookup disagrees");
    }
    const Span& cs = log.spans()[static_cast<size_t>(cell_span)];
    const Span& ks = log.spans()[static_cast<size_t>(key_span)];
    m.direct_cell_ns.Add(static_cast<double>(cs.end_ns - cs.start_ns));
    m.direct_allocs.Add(static_cast<double>(cs.allocs));
    m.direct_key_ns.Add(static_cast<double>(ks.end_ns - ks.start_ns));
  }
  for (size_t i = 0; i < n; ++i) {
    const Request& rq = c.requests[c.stream[i]];
    if (rq.is_topk) continue;
    serve::LookupRequest request = rq.lookup;
    request.deadline_ms = f.service->DeadlineAfterMs(kDeadlineMs);
    const int32_t span = log.Begin("serve.service.Lookup");
    auto got = f.service->Lookup(request);
    log.End(span);
    ++f.setup_requests;
    if (!got.ok()) FailStatus("answer", "probe request", got.status());
    const Span& s = log.spans()[static_cast<size_t>(span)];
    m.service_ns.Add(static_cast<double>(s.end_ns - s.start_ns));
    m.service_allocs.Add(static_cast<double>(s.allocs));
  }
}

// --- Output ----------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
  size_t samples;
};

void PrintResult(const std::vector<Metric>& metrics, uint64_t attempted,
                 uint64_t failed, const Measured& m, const Environment& env,
                 const std::vector<std::pair<std::string, double>>& counts) {
  for (const Metric& metric : metrics) {
    std::printf("%-36s %14.6g %-6s (n=%zu)\n", metric.name.c_str(),
                metric.value, metric.unit, metric.samples);
  }
  std::printf("%-36s %14.6g %-6s (%" PRIu64 " failed / %" PRIu64
              " attempted)\n",
              "error_rate",
              attempted == 0 ? 0.0
                             : static_cast<double>(failed) /
                                   static_cast<double>(attempted),
              "ratio", failed, attempted);
  const std::vector<std::string> failures = g_gates.Failures();
  for (const auto& failure : failures) {
    std::printf("GATE FAILED: %s\n", failure.c_str());
  }
  std::string out = "{\"correct\": ";
  out += g_gates.ok() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016" PRIx64, m.digest);
  out += ", \"digest\": \"" + std::string(digest) + "\"";
  out += ", \"traced\": " + std::string(kTraced ? "true" : "false");
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out += (i == 0 ? "" : ", ") + JsonString(metrics[i].name) +
           ": {\"value\": " + value + ", \"unit\": " +
           JsonString(metrics[i].unit) +
           ", \"samples\": " + std::to_string(metrics[i].samples) + "}";
  }
  out += "}, \"gate_failures\": [";
  for (size_t i = 0; i < failures.size(); ++i) {
    out += (i == 0 ? "" : ", ") + JsonString(failures[i]);
  }
  out += "], \"env\": {\"nproc\": " + std::to_string(env.nproc) +
         ", \"cpu_model\": " + JsonString(env.cpu_model) +
         ", \"build_type\": " + JsonString(env.build_type) +
         ", \"march\": " + JsonString(env.march) +
         ", \"store_fs\": " + JsonString(env.store_fs) +
         ", \"flush_policy\": " + JsonString(env.flush_policy);
  for (const auto& [name, value] : counts) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += ", " + JsonString(name) + ": " + buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

// Request latency percentile in microseconds, robust to a host stall
// that hits part of a run: each client's latencies, in send order, are
// cut into up to kWindows consecutive chunks, each large enough that the
// percentile has at least ten samples beyond it (1000 for a p99, 100 for
// a p90), and the result is the median over all chunks of the chunk's
// percentile. *n receives the number of requests behind it.
double ChunkedPercentile(const std::vector<std::unique_ptr<Client>>& clients,
                         bool topk, double p, size_t* n) {
  const size_t min_chunk = static_cast<size_t>(std::lround(10.0 / (1.0 - p)));
  Samples per_chunk;
  *n = 0;
  for (const auto& c : clients) {
    const std::vector<uint32_t>& ns = topk ? c->topk_ns : c->lookup_ns;
    *n += ns.size();
    const size_t chunks =
        std::clamp<size_t>(ns.size() / min_chunk, 1, kWindows);
    const size_t size = ns.size() / chunks;
    for (size_t k = 0; size > 0 && k < chunks; ++k) {
      Samples chunk;
      for (size_t i = k * size; i < (k + 1) * size; ++i) {
        chunk.Add(static_cast<double>(ns[i]) * 1e-3);
      }
      per_chunk.Add(chunk.Percentile(p));
    }
  }
  return per_chunk.Median();
}

// Answers per second of the serve_* clients, robust in the same way:
// each client's rate marks are cut into up to kWindows consecutive
// windows, the client's rate is the median over windows of answers per
// second, and the result is the sum over clients. A client with too few
// marks counts its answers over the whole timed phase.
double WindowedRate(const std::vector<std::unique_ptr<Client>>& clients,
                    double timed_wall_s) {
  double rate = 0;
  for (const auto& c : clients) {
    const auto& marks = c->rate_marks;
    const size_t intervals = marks.empty() ? 0 : marks.size() - 1;
    const size_t windows = std::min(intervals, kWindows);
    if (windows == 0) {
      rate += timed_wall_s > 0
                  ? static_cast<double>(c->answered) / timed_wall_s
                  : 0.0;
      continue;
    }
    const size_t size = intervals / windows;
    Samples per_window;
    for (size_t k = 0; k < windows; ++k) {
      const auto& [t0, a0] = marks[k * size];
      const auto& [t1, a1] = marks[(k + 1) * size];
      per_window.Add(static_cast<double>(a1 - a0) * 1e9 /
                     static_cast<double>(std::max<int64_t>(t1 - t0, 1)));
    }
    rate += per_window.Median();
  }
  return rate;
}

int Run() {
  const WorkloadDef& w = *g_args.workload;
  std::filesystem::remove_all(g_args.dir);
  std::filesystem::create_directories(g_args.dir);
  const Environment env = DescribeEnvironment(g_args.dir);
  Measured m;
  SpanLog main_log("main", 1u << 18);

  // Set-ups: all but the last are torn down again; their times count
  // toward setup_s.
  std::unique_ptr<Fixture> f;
  for (int rep = 0; rep < w.setup_reps; ++rep) {
    f.reset();
    if (rep > 0) std::filesystem::remove_all(StoreDir(rep - 1));
    f = SetUp(rep, main_log, m);
    if (f == nullptr) break;
  }

  std::vector<std::unique_ptr<Client>> clients;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  if (f != nullptr) {
    m.digest = DigestTables(m.digest, f->first->tables);
    for (const auto& t : f->first->tables) m.cells += t.rows.size();
    const std::vector<std::string> names = TableNames(*f);
    for (int i = 0; i < w.clients; ++i) {
      auto c = std::make_unique<Client>("client" + std::to_string(i),
                                        kTraced ? 400000 : 0);
      c->id_base = static_cast<uint64_t>(i + 1) << 40;
      BuildClient(*f->first, names, Mix(g_args.seed, kStreamTag, i), kTraced,
                  c.get());
      // Room for every answer: release_cycle's bursts give ~1.3k/s, one
      // serve_* client stays far below 200k/s.
      ReserveLatencies(c.get(), g_args.seconds,
                       w.kind == Kind::kReleaseCycle ? 4000 : 200000);
      c->oldest_needed.store(f->server->serving_epoch());
      clients.push_back(std::move(c));
    }
    // serve_lookup serves with no commits; the 400k preset's own release
    // cycles, half before and half after serving, give it its cycle, lag
    // and size figures without touching the serving numbers.
    const bool aside = w.kind == Kind::kServeLookup;
    for (int i = 0; aside && i < kAsideCycles; ++i) {
      if (!RunCycle(*f, *clients[0], m, Phase::kAside)) break;
    }
    m.server_before = f->server->stats();
    m.service_before = f->service->stats();
    std::atomic<bool> stop{false};
    if (w.kind == Kind::kReleaseCycle) {
      TimeReleaseCycles(*f, *clients[0], m);
    } else if (w.kind == Kind::kServeLookup) {
      std::thread timer([&stop] {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(g_args.seconds));
        stop.store(true, std::memory_order_release);
      });
      m.timed_wall_s = RunClients(*f, clients, stop);
      timer.join();
    } else {
      double reader_wall_s = 0;
      std::thread reader(
          [&] { reader_wall_s = RunClients(*f, clients, stop); });
      TimeRepublish(*f, *clients[0], m, main_log);
      stop.store(true, std::memory_order_release);
      reader.join();
      m.timed_wall_s = reader_wall_s;
    }
    m.server_after = f->server->stats();
    m.service_after = f->service->stats();
    for (int i = 0; aside && i < kAsideCycles; ++i) {
      if (!RunCycle(*f, *clients[0], m, Phase::kAside)) break;
    }
    if (kTraced) Probe(*f, *clients[0], m, main_log);

    uint64_t submitted = f->setup_requests;
    for (const auto& c : clients) submitted += c->sent;
    if (g_args.violate == "reconcile") ++submitted;
    const std::string unreconciled =
        CheckReconciled(f->service->stats(), submitted);
    if (!unreconciled.empty()) g_gates.Fail("reconcile", unreconciled);

    // Failure accounting of the timed phase.
    for (const auto& c : clients) {
      attempted += c->sent;
      failed += c->shed + c->expired + c->errors;
    }
    attempted += m.releases + m.refreshes;
    failed += m.failed_releases + m.failed_refreshes +
              (m.server_after.failures - m.server_before.failures);
  }
  if (g_args.violate == "digest") m.digest ^= 1;

  uint64_t answered = 0;
  for (const auto& c : clients) answered += c->answered;
  size_t n_lookup = 0, n_topk = 0;
  const double lookup_p50 =
      ChunkedPercentile(clients, false, 0.5, &n_lookup);
  const double lookup_p90 =
      ChunkedPercentile(clients, false, 0.9, &n_lookup);
  const double lookup_p99 =
      ChunkedPercentile(clients, false, 0.99, &n_lookup);
  const double topk_p50 = ChunkedPercentile(clients, true, 0.5, &n_topk);
  const double topk_p90 = ChunkedPercentile(clients, true, 0.9, &n_topk);
  const double topk_p99 = ChunkedPercentile(clients, true, 0.99, &n_topk);
  // release_cycle's one client sends only between cycles, so its rate is
  // over the whole timed phase, cycles included.
  const double answers_per_s =
      w.kind == Kind::kReleaseCycle
          ? (m.timed_wall_s > 0
                 ? static_cast<double>(answered) / m.timed_wall_s
                 : 0.0)
          : WindowedRate(clients, m.timed_wall_s);

  // The end-to-end metrics; the traced run reports them too, measured
  // with tracing on, so run.py can state the tracing overhead. Per-cycle
  // times are interquartile means: on a shared host one load lands on a
  // fast or a slow CPU (e.g. 26 or 42 ms at 400k), and the median of such
  // a two-mode sample flips between modes from run to run, while the mean
  // of the middle half moves smoothly and ignores stalled cycles.
  std::vector<Metric> metrics = {
      {"setup_s", m.setup_s.Median(), "s", m.setup_s.size()},
      {"cycle_ms", m.cycle_ms.InterquartileMean(), "ms", m.cycle_ms.size()},
      {"store_bytes_per_cell", m.bytes_per_cell.Median(), "B",
       m.bytes_per_cell.size()},
      {"peak_rss_mib", PeakRssMib(), "MiB", 1},
      {"lookup_p50_us", lookup_p50, "us", n_lookup},
      {"lookup_p90_us", lookup_p90, "us", n_lookup},
      {"lookup_p99_us", lookup_p99, "us", n_lookup},
      {"topk_p50_us", topk_p50, "us", n_topk},
      {"topk_p90_us", topk_p90, "us", n_topk},
      {"topk_p99_us", topk_p99, "us", n_topk},
      {"answers_per_s", answers_per_s, "1/s", answered},
      {"refresh_lag_ms", m.refresh_lag_ms.InterquartileMean(), "ms",
       m.refresh_lag_ms.size()},
  };
  if (kTraced) {
    // A layer the workload does not reach has no samples and reads 0.
    const double direct_cell = m.direct_cell_ns.Median();
    const double service = m.service_ns.Median();
    const double server_refresh =
        w.kind == Kind::kServeLookup ? 0.0 : m.refresh_lag_ms.Median();
    std::vector<Metric> layer = {
        {"lodes.generate_ms", m.generate_ms.Median(), "ms",
         m.generate_ms.size()},
        {"lodes.scan_ms", m.scan_ms.Median(), "ms", m.scan_ms.size()},
        {"lodes.derive_ms", m.derive_ms.Median(), "ms",
         m.derive_ms.size()},
        {"lodes.full_table_scans", m.scans.Median(), "count",
         m.scans.size()},
        {"mechanisms.noise_cpu_ms", m.noise_ms.Median(), "ms",
         m.noise_ms.size()},
        {"release.wall_ms", m.release_wall_ms.Median(), "ms",
         m.release_wall_ms.size()},
        {"release.format_cpu_ms", m.format_ms.Median(), "ms",
         m.format_ms.size()},
        {"release.self_ms", m.release_self_ms.Median(), "ms",
         m.release_self_ms.size()},
        {"release.alloc_bytes", m.release_alloc_bytes.Median(), "B",
         m.release_alloc_bytes.size()},
        {"release.allocs", m.release_allocs.Median(), "count",
         m.release_allocs.size()},
        {"store.commit_ms", m.commit_ms.Median(), "ms",
         m.commit_ms.size()},
        {"store.epoch_bytes", m.epoch_bytes.Median(), "B",
         m.epoch_bytes.size()},
        {"store.read_epoch_ms", m.read_epoch_ms.Median(), "ms",
         m.read_epoch_ms.size()},
        {"serve.snapshot.load_ms", m.load_ms.Median(), "ms",
         m.load_ms.size()},
        {"serve.snapshot.build_ms",
         m.load_ms.Median() - m.read_epoch_ms.Median(), "ms",
         m.load_ms.size()},
        {"serve.snapshot.alloc_bytes", m.load_alloc_bytes.Median(),
         "B", m.load_alloc_bytes.size()},
        {"serve.snapshot.lookup_cell_ns", direct_cell, "ns",
         m.direct_cell_ns.size()},
        {"serve.snapshot.lookup_ns", m.direct_key_ns.Median(), "ns",
         m.direct_key_ns.size()},
        {"serve.snapshot.topk_ns", m.direct_topk_ns.Median(), "ns",
         m.direct_topk_ns.size()},
        {"serve.snapshot.allocs_per_lookup", m.direct_allocs.Median(),
         "count", m.direct_allocs.size()},
        {"serve.server.refresh_ms", server_refresh, "ms",
         w.kind == Kind::kServeLookup ? 0 : m.refresh_lag_ms.size()},
        {"serve.server.polls",
         static_cast<double>(m.server_after.polls - m.server_before.polls),
         "count", 1},
        {"serve.server.swaps",
         static_cast<double>(m.server_after.swaps - m.server_before.swaps),
         "count", 1},
        {"serve.server.failures",
         static_cast<double>(m.server_after.failures -
                             m.server_before.failures),
         "count", 1},
        {"serve.service.lookup_ns", service, "ns", m.service_ns.size()},
        {"serve.service.overhead_ns", service - direct_cell, "ns",
         m.service_ns.size()},
        {"serve.service.allocs_per_request", m.service_allocs.Median(),
         "count", m.service_allocs.size()},
        {"serve.service.shed",
         static_cast<double>(m.service_after.shed - m.service_before.shed),
         "count", 1},
        {"serve.service.expired",
         static_cast<double>(
             (m.service_after.expired_at_admission +
              m.service_after.expired_in_queue) -
             (m.service_before.expired_at_admission +
              m.service_before.expired_in_queue)),
         "count", 1},
        {"serve.service.snapshot_pins",
         static_cast<double>(m.service_after.snapshot_pins -
                             m.service_before.snapshot_pins),
         "count", 1},
    };
    metrics.insert(metrics.end(), layer.begin(), layer.end());
    if (!g_args.trace_out.empty()) {
      std::vector<const SpanLog*> logs = {&main_log};
      for (const auto& c : clients) logs.push_back(&c->log);
      if (!WriteTrace(g_args.trace_out, logs)) {
        g_gates.Fail("trace", "cannot write " + g_args.trace_out);
      }
    }
  }

  std::vector<std::pair<std::string, double>> counts = {
      {"jobs", f && f->data ? static_cast<double>(f->data->num_jobs()) : 0},
      {"establishments",
       f && f->data ? static_cast<double>(f->data->num_establishments()) : 0},
      {"places",
       f && f->data ? static_cast<double>(f->data->places().size()) : 0},
      {"released_cells", static_cast<double>(m.cells)},
      {"epochs_committed", static_cast<double>(m.releases)},
      {"timed_wall_s", m.timed_wall_s},
      {"window_epochs", f ? static_cast<double>(f->window.size()) : 0},
  };
  clients.clear();
  f.reset();
  std::filesystem::remove_all(g_args.dir);
  PrintResult(metrics, attempted, failed, m, env, counts);
  return g_gates.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (!perfbench::ParseArgs(argc, argv, &perfbench::g_args)) {
    std::fprintf(stderr,
                 "usage: %s --workload release_cycle|serve_lookup|"
                 "serve_refresh --seed N --seconds S --dir STORE_DIR "
                 "[--trace-out PATH] [--violate GATE]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run();
}
