// The resilient request front over serve::Server: typed requests with
// per-request deadlines, bounded admission in front of a fixed number of
// execution slots, and explicit degraded-mode reporting. This is the
// process-local core of the paper's OnTheMap deployment — a public web
// application taking heavy interactive traffic over pre-released
// tabulations — where the failure mode that matters is OVERLOAD, not just
// faults.
//
// Every request runs on its caller's thread, which blocks until the
// outcome anyway: the caller either takes one of num_workers execution
// slots at once, or waits for one, in arrival order, behind at most
// queue_capacity - 1 other waiters.
//
// Overload contract (docs/ARCHITECTURE.md, "Overload & degradation
// contract"):
//
//   * BOUNDED ADMISSION. At most queue_capacity callers wait for a slot.
//     A request that cannot run at once while that many already wait is
//     SHED immediately with kResourceExhausted — no blocking, no snapshot
//     work, no unbounded latency. At most (capacity + workers) requests
//     are in the system at once.
//   * DEADLINES, TWICE. A request's deadline is checked at admission (an
//     already-expired request is refused with kDeadlineExceeded before it
//     costs anything) and AGAIN once its caller holds a slot (a request
//     that expired while waiting is answered kDeadlineExceeded without
//     touching a snapshot). Snapshot work is only ever spent on requests
//     that can still meet their deadline.
//   * ACCOUNTED, EXACTLY. Every request ends in exactly one of
//     {completed, shed, expired-at-admission, expired-in-queue}; the
//     counters reconcile to the request total and snapshot_pins ==
//     completed (the "zero snapshot work for refused requests" proof the
//     saturation test asserts).
//   * NEVER DEAD. Health() answers without waiting for a slot — during
//     overload or store faults it still reports the service state: the
//     server's degraded flag (consecutive refresh failures past the
//     threshold, pinned epoch still serving), epoch age, backoff
//     position, and the admission counters.
//
// Time is injected (common/clock.h): deadlines, epoch age and the
// backoff schedule all read the server's clock, so every path above is
// unit-testable with a FakeClock and zero sleeps.
#ifndef EEP_SERVE_SERVICE_H_
#define EEP_SERVE_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "serve/server.h"
#include "serve/snapshot.h"

namespace eep::serve {

/// \brief Point lookup of one released cell (Server::LookupCount shape).
struct LookupRequest {
  std::string table;
  /// Exactly one value per attribute column, by column name.
  std::map<std::string, std::string> values;
  /// Absolute deadline in the service clock's domain (Service::NowMs);
  /// 0 = no deadline. DeadlineAfterMs() builds one from a relative
  /// budget.
  int64_t deadline_ms = 0;
};

/// \brief Top-k ranking over one released table.
struct TopKRequest {
  std::string table;
  size_t k = 10;
  int64_t deadline_ms = 0;  ///< As in LookupRequest.
};

/// \brief Health probe. Deadline-free by design: health must answer
/// exactly when the service is too loaded to answer anything else.
struct HealthRequest {};

/// \brief Admission/outcome counters. Every request finishes in exactly
/// one bucket: completed + shed + expired_at_admission + expired_in_queue
/// == requests received (stopped-service refusals excepted).
struct ServiceStats {
  uint64_t admitted = 0;     ///< Took a slot at once or waited for one.
  uint64_t completed = 0;    ///< Executed against a snapshot.
  uint64_t shed = 0;         ///< Refused at admission: waiting line full.
  uint64_t expired_at_admission = 0;  ///< Deadline already past on arrival.
  uint64_t expired_in_queue = 0;  ///< Deadline passed waiting for a slot.
  /// Snapshots pinned for execution. Equal to completed: shed and
  /// expired requests never touch one.
  uint64_t snapshot_pins = 0;
};

/// \brief Degradation state the front reports.
enum class ServiceState {
  kHealthy,   ///< Refresh is keeping up; serving the latest epoch.
  kDegraded,  ///< Refresh failing past the threshold; the PINNED epoch
              ///< keeps serving bit-identical answers, only freshness
              ///< suffers. Clears automatically on a refresh success.
};

/// \brief What a HealthRequest answers: the server's refresh-path health
/// plus this service's admission counters, one consistent sample.
struct ServiceHealth {
  ServiceState state = ServiceState::kHealthy;
  ServerHealth server;
  ServiceStats stats;
};

/// \brief Service configuration.
struct ServiceOptions {
  /// Callers that may wait for an execution slot. A request that cannot
  /// run at once while this many wait is shed. Must be >= 1.
  size_t queue_capacity = 128;
  /// Max requests executing at once, each on its caller's thread. Must
  /// be >= 1.
  int num_workers = 2;
  /// Deadline/backoff time source; nullptr = the server's clock.
  Clock* clock = nullptr;
  /// When true, the execution gate starts closed: nothing executes until
  /// Resume(). Admission still runs — overload tests use this to fill the
  /// waiting line deterministically (without it, shedding depends on
  /// scheduling).
  bool start_suspended = false;
};

/// \brief The request front. Thread-safe: any number of threads may call
/// Lookup/TopK/Health/stats concurrently; each request executes on, and
/// blocks, its calling thread (which is why admitted latency stays
/// bounded — there is no fire-and-forget buffering anywhere).
class Service {
 public:
  /// `server` must outlive the service.
  static Result<std::unique_ptr<Service>> Create(Server* server,
                                                 ServiceOptions options = {});

  /// Stops admission, opens the execution gate and waits until every
  /// admitted caller has left (waiters still run, in order, each with
  /// its deadline re-checked).
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Blocking point lookup: admitted, executed on the calling thread
  /// against one pinned snapshot, answered verbatim. kResourceExhausted
  /// when shed, kDeadlineExceeded when expired (either check), kNotFound/
  /// kInvalidArgument from the lookup itself, kFailedPrecondition after
  /// shutdown began.
  Result<std::string> Lookup(const LookupRequest& request);

  /// Blocking top-k ranking; same admission semantics as Lookup.
  Result<std::vector<RankedCell>> TopK(const TopKRequest& request);

  /// Never waits for a slot, never sheds, no deadline: one consistent
  /// health sample even (especially) under overload or store faults.
  ServiceHealth Health(const HealthRequest& request = {}) const;

  ServiceStats stats() const;

  /// The service clock's current time; deadlines are absolute in this
  /// domain.
  int64_t NowMs() const;
  /// NowMs() + budget_ms, the usual way to stamp a request's deadline.
  int64_t DeadlineAfterMs(int64_t budget_ms) const;

  /// Opens the execution gate of a start_suspended service. Idempotent.
  void Resume();

 private:
  Service(Server* server, ServiceOptions options);

  /// Acquire, then `fn(const ServedTable&)` on `table` of one pinned
  /// snapshot, then Release — all on the calling thread.
  template <typename T, typename Fn>
  Result<T> Run(const std::string& table, int64_t deadline_ms, Fn fn);
  /// Admission (deadline, shutdown, shed), the wait for a slot in
  /// arrival order, then the deadline re-check. OK means the caller holds
  /// a slot and must Release() it.
  Status Acquire(int64_t deadline_ms);
  void Release();
  bool Expired(int64_t deadline_ms) const;

  Server* const server_;
  const ServiceOptions options_;
  Clock* clock_;  ///< Never null.

  /// Guards the slot state below.
  mutable std::mutex mu_;
  /// Wakes waiters (slot freed, gate opened, head of the line moved) and
  /// the destructor's drain.
  std::condition_variable cv_;
  /// Admitted callers waiting for a slot; <= queue_capacity.
  size_t waiting_ = 0;
  /// Callers holding a slot; <= num_workers.
  int executing_ = 0;
  /// Waiters take tickets in arrival order and leave the line only from
  /// its head, so the head holds ticket next_ticket_ - waiting_ and no
  /// caller overtakes an earlier one.
  uint64_t next_ticket_ = 0;
  bool suspended_ = false;  ///< Execution gate closed (start_suspended).
  bool stop_ = false;

  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> expired_at_admission_{0};
  std::atomic<uint64_t> expired_in_queue_{0};
  std::atomic<uint64_t> snapshot_pins_{0};
};

}  // namespace eep::serve

#endif  // EEP_SERVE_SERVICE_H_
