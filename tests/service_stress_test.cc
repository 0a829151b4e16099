// The saturation proof for the request front, in two halves:
//
//   1. A DETERMINISTIC overload: workers parked, queue capacity K, a
//      flood of M >> K concurrent requests. Exactly K are admitted and
//      exactly M-K are shed with kResourceExhausted — then the fake
//      clock expires the queued K, and every one of them is answered
//      kDeadlineExceeded with ZERO snapshot work (snapshot_pins == 0).
//   2. A LIVE flood with running workers on the real clock: every
//      request ends in exactly one outcome bucket, the client-observed
//      tallies reconcile with the service counters to the last request,
//      and snapshot pins equal completions exactly.
//
// This file runs under the CI TSan sweep (the `service` group): the
// counters and the slot gate must be clean under a genuinely saturating
// thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "serve/server.h"
#include "serve/service.h"
#include "store/store.h"

namespace eep::serve {
namespace {

class ServiceStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/eep_service_stress_test";
    std::filesystem::remove_all(dir_);
    auto writer = store::Store::Open(dir_);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    store::TableData table;
    table.name = "jobs";
    table.header = {"place", "count"};
    for (int r = 0; r < 64; ++r) {
      table.rows.push_back(
          {"p" + std::to_string(r), std::to_string(r * 17 % 900)});
    }
    auto committed = writer.value()->CommitEpoch("fp-1", {table});
    ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(ServiceStressTest, FloodAgainstParkedWorkersShedsExactly) {
  constexpr size_t kCapacity = 8;
  constexpr int kFlood = 64;

  FakeClock clock;
  ServerOptions server_options;
  server_options.poll_interval_ms = 0;
  server_options.clock = &clock;
  auto server = Server::Open(dir_, server_options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  ServiceOptions options;
  options.queue_capacity = kCapacity;
  options.num_workers = 2;
  options.start_suspended = true;  // admission runs, execution waits
  auto service = Service::Create(server.value().get(), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  const int64_t deadline = service.value()->DeadlineAfterMs(50);
  std::vector<Status> outcomes(kFlood, Status::OK());
  std::vector<std::thread> clients;
  clients.reserve(kFlood);
  for (int i = 0; i < kFlood; ++i) {
    // eep-lint: disjoint-writes -- client i writes outcomes[i] only.
    clients.emplace_back([&, i] {
      LookupRequest lookup;
      lookup.table = "jobs";
      lookup.values = {{"place", "p" + std::to_string(i % 64)}};
      lookup.deadline_ms = deadline;
      outcomes[i] = service.value()->Lookup(lookup).status();
    });
  }

  // With the workers parked, the flood can only partition into "queued"
  // (exactly the capacity) and "shed" (everyone else, refused without
  // blocking) — wait for that partition to complete.
  while (true) {
    const ServiceStats stats = service.value()->stats();
    if (stats.admitted + stats.shed == kFlood) break;
    std::this_thread::yield();
  }
  ServiceStats stats = service.value()->stats();
  EXPECT_EQ(stats.admitted, kCapacity);
  EXPECT_EQ(stats.shed, kFlood - kCapacity);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.snapshot_pins, 0u);  // shedding touched no snapshot

  // Expire every queued request, then let the workers at them: each is
  // answered kDeadlineExceeded without pinning a snapshot.
  clock.AdvanceMs(100);
  service.value()->Resume();
  for (auto& t : clients) t.join();

  int shed = 0, expired = 0, other = 0;
  for (const Status& s : outcomes) {
    switch (s.code()) {
      case StatusCode::kResourceExhausted: ++shed; break;
      case StatusCode::kDeadlineExceeded: ++expired; break;
      default: ++other; break;
    }
  }
  EXPECT_EQ(shed, kFlood - static_cast<int>(kCapacity));
  EXPECT_EQ(expired, static_cast<int>(kCapacity));
  EXPECT_EQ(other, 0);

  stats = service.value()->stats();
  EXPECT_EQ(stats.expired_in_queue, kCapacity);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.snapshot_pins, 0u);
  // Exact accounting: every request in exactly one bucket.
  EXPECT_EQ(stats.shed + stats.expired_at_admission + stats.admitted,
            static_cast<uint64_t>(kFlood));
  EXPECT_EQ(stats.completed + stats.expired_in_queue, stats.admitted);
}

TEST_F(ServiceStressTest, LiveFloodReconcilesEveryRequestExactly) {
  ServerOptions server_options;
  server_options.poll_interval_ms = 0;
  auto server = Server::Open(dir_, server_options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  ServiceOptions options;
  options.queue_capacity = 4;  // tight: a real chance of shedding
  options.num_workers = 3;
  auto service = Service::Create(server.value().get(), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  constexpr int kClients = 16;
  constexpr int kPerClient = 25;
  // Generous deadline: an admitted lookup is microseconds of work, so
  // every completion must land inside it (the "admitted requests meet
  // their deadline" half of the contract).
  constexpr int64_t kDeadlineMs = 30000;

  std::atomic<int> ok_count{0}, shed_count{0}, expired_count{0},
      unexpected{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kPerClient; ++r) {
        const int64_t deadline = service.value()->DeadlineAfterMs(kDeadlineMs);
        Status status;
        if (r % 3 == 0) {
          TopKRequest topk;
          topk.table = "jobs";
          topk.k = 5;
          topk.deadline_ms = deadline;
          auto got = service.value()->TopK(topk);
          status = got.status();
          if (got.ok() && got.value().size() != 5u) {
            unexpected.fetch_add(1);
            continue;
          }
        } else {
          LookupRequest lookup;
          lookup.table = "jobs";
          lookup.values = {{"place", "p" + std::to_string((c * 7 + r) % 64)}};
          lookup.deadline_ms = deadline;
          auto got = service.value()->Lookup(lookup);
          status = got.status();
          if (got.ok() && got.value().empty()) {
            unexpected.fetch_add(1);
            continue;
          }
        }
        if (service.value()->NowMs() > deadline && status.ok()) {
          unexpected.fetch_add(1);  // completed but blew its deadline
        } else if (status.ok()) {
          ok_count.fetch_add(1);
        } else if (status.code() == StatusCode::kResourceExhausted) {
          shed_count.fetch_add(1);
        } else if (status.code() == StatusCode::kDeadlineExceeded) {
          expired_count.fetch_add(1);
        } else {
          unexpected.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  constexpr uint64_t kTotal = static_cast<uint64_t>(kClients) * kPerClient;
  EXPECT_EQ(unexpected.load(), 0);
  EXPECT_EQ(static_cast<uint64_t>(ok_count.load() + shed_count.load() +
                                  expired_count.load()),
            kTotal);
  EXPECT_GT(ok_count.load(), 0);

  // The service's books agree with the clients', request for request.
  const ServiceStats stats = service.value()->stats();
  EXPECT_EQ(stats.admitted + stats.shed + stats.expired_at_admission, kTotal);
  EXPECT_EQ(stats.completed + stats.expired_in_queue, stats.admitted);
  EXPECT_EQ(stats.shed, static_cast<uint64_t>(shed_count.load()));
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(ok_count.load()));
  EXPECT_EQ(stats.expired_at_admission + stats.expired_in_queue,
            static_cast<uint64_t>(expired_count.load()));
  // Refused work cost nothing: pins track completions exactly.
  EXPECT_EQ(stats.snapshot_pins, stats.completed);
}

}  // namespace
}  // namespace eep::serve
