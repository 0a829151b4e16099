#include "serve/service.h"

#include <utility>

namespace eep::serve {

Result<std::unique_ptr<Service>> Service::Create(Server* server,
                                                 ServiceOptions options) {
  if (server == nullptr) {
    return Status::InvalidArgument("Service::Create: server is null");
  }
  if (options.queue_capacity < 1) {
    return Status::InvalidArgument(
        "Service::Create: queue_capacity must be >= 1");
  }
  if (options.num_workers < 1) {
    return Status::InvalidArgument(
        "Service::Create: num_workers must be >= 1");
  }
  return std::unique_ptr<Service>(new Service(server, std::move(options)));
}

Service::Service(Server* server, ServiceOptions options)
    : server_(server),
      options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock : server->clock()),
      suspended_(options_.start_suspended) {}

Service::~Service() {
  std::unique_lock<std::mutex> lock(mu_);
  stop_ = true;
  // Shutdown opens the gate: waiting callers are blocked on their
  // outcomes and MUST get one (deadline re-check included). Every caller
  // notifies under mu_, so none touches cv_ after this wait returns.
  suspended_ = false;
  cv_.notify_all();
  cv_.wait(lock, [this] { return waiting_ == 0 && executing_ == 0; });
}

int64_t Service::NowMs() const { return clock_->NowMs(); }

int64_t Service::DeadlineAfterMs(int64_t budget_ms) const {
  return clock_->NowMs() + budget_ms;
}

void Service::Resume() {
  std::lock_guard<std::mutex> lock(mu_);
  suspended_ = false;
  cv_.notify_all();
}

bool Service::Expired(int64_t deadline_ms) const {
  return deadline_ms > 0 && clock_->NowMs() >= deadline_ms;
}

Status Service::Acquire(int64_t deadline_ms) {
  // Deadline gate first: an expired request is refused before it can
  // displace viable work, and without any snapshot being pinned.
  if (Expired(deadline_ms)) {
    expired_at_admission_.fetch_add(1, std::memory_order_relaxed);
    return Status::DeadlineExceeded("deadline expired before admission");
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (stop_) {
      return Status::FailedPrecondition("service is shutting down");
    }
    auto slot_free = [this] {
      return !suspended_ && executing_ < options_.num_workers;
    };
    // A newcomer runs at once only when nobody waits ahead of it.
    const bool run_now = waiting_ == 0 && slot_free();
    if (!run_now && waiting_ >= options_.queue_capacity) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      return Status::ResourceExhausted(
          "admission full (" + std::to_string(options_.queue_capacity) +
          " waiting for a slot)");
    }
    admitted_.fetch_add(1, std::memory_order_relaxed);
    if (!run_now) {
      const uint64_t ticket = next_ticket_++;
      ++waiting_;
      // One condvar for every waiter, so a wake-up is a notify_all: each
      // waiter re-checks, and only the head of the line takes the slot.
      cv_.wait(lock, [&] {
        return ticket == next_ticket_ - waiting_ && slot_free();
      });
      --waiting_;
      // The new head may fit a second free slot.
      if (waiting_ > 0 && slot_free()) cv_.notify_all();
    }
    ++executing_;
  }
  // The second deadline check: a request that expired while waiting is
  // answered without pinning a snapshot — under overload the slots' time
  // goes only to requests that can still meet their deadline.
  if (Expired(deadline_ms)) {
    expired_in_queue_.fetch_add(1, std::memory_order_relaxed);
    Release();
    return Status::DeadlineExceeded("deadline expired waiting for a slot");
  }
  return Status::OK();
}

void Service::Release() {
  std::lock_guard<std::mutex> lock(mu_);
  --executing_;
  if (waiting_ > 0 || stop_) cv_.notify_all();
}

template <typename T, typename Fn>
Result<T> Service::Run(const std::string& table, int64_t deadline_ms,
                       Fn fn) {
  EEP_RETURN_NOT_OK(Acquire(deadline_ms));
  snapshot_pins_.fetch_add(1, std::memory_order_relaxed);
  Result<T> out = [&]() -> Result<T> {
    std::shared_ptr<const Snapshot> snap = server_->snapshot();
    EEP_ASSIGN_OR_RETURN(const ServedTable* served, snap->Find(table));
    return fn(*served);
  }();
  completed_.fetch_add(1, std::memory_order_relaxed);
  Release();
  return out;
}

Result<std::string> Service::Lookup(const LookupRequest& request) {
  return Run<std::string>(
      request.table, request.deadline_ms,
      [&](const ServedTable& served) {
        return served.LookupCell(request.values);
      });
}

Result<std::vector<RankedCell>> Service::TopK(const TopKRequest& request) {
  return Run<std::vector<RankedCell>>(
      request.table, request.deadline_ms,
      [&](const ServedTable& served) { return served.TopK(request.k); });
}

ServiceHealth Service::Health(const HealthRequest&) const {
  ServiceHealth health;
  health.server = server_->health();
  health.state = health.server.degraded ? ServiceState::kDegraded
                                        : ServiceState::kHealthy;
  health.stats = stats();
  return health;
}

ServiceStats Service::stats() const {
  ServiceStats stats;
  stats.admitted = admitted_.load(std::memory_order_relaxed);
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.shed = shed_.load(std::memory_order_relaxed);
  stats.expired_at_admission =
      expired_at_admission_.load(std::memory_order_relaxed);
  stats.expired_in_queue = expired_in_queue_.load(std::memory_order_relaxed);
  stats.snapshot_pins = snapshot_pins_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace eep::serve
