#include "gates.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>

namespace perfbench {

void Gates::Fail(const std::string& gate, const std::string& detail) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = failed_.try_emplace(gate, 0, detail);
  ++it->second.first;
}

bool Gates::ok() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_.empty();
}

std::vector<std::string> Gates::Failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [gate, entry] : failed_) {
    out.push_back(gate + " (" + std::to_string(entry.first) +
                  "): " + entry.second);
  }
  return out;
}

std::vector<eep::serve::RankedCell> ExpectedTopK(
    const eep::release::ReleasedTable& table, size_t k) {
  const auto& rows = table.rows;
  const size_t attrs = table.header.empty() ? 0 : table.header.size() - 1;
  std::vector<double> counts(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    counts[i] = std::strtod(rows[i].back().c_str(), nullptr);
  }
  auto ranks_before = [&](size_t a, size_t b) {
    if (counts[a] != counts[b]) return counts[a] > counts[b];
    return std::lexicographical_compare(rows[a].begin(),
                                        rows[a].begin() + attrs,
                                        rows[b].begin(),
                                        rows[b].begin() + attrs);
  };
  std::vector<size_t> order(rows.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  const size_t n = std::min(k, order.size());
  std::partial_sort(order.begin(), order.begin() + n, order.end(),
                    ranks_before);
  std::vector<eep::serve::RankedCell> out(n);
  for (size_t i = 0; i < n; ++i) {
    const auto& row = rows[order[i]];
    out[i].attrs.assign(row.begin(), row.begin() + attrs);
    out[i].count = row.back();
  }
  return out;
}

std::shared_ptr<const Release> MakeRelease(
    uint64_t epoch, std::vector<eep::release::ReleasedTable> tables) {
  auto release = std::make_shared<Release>();
  release->epoch = epoch;
  release->tables = std::move(tables);
  for (const auto& table : release->tables) {
    release->topk.push_back(ExpectedTopK(table, kTopK));
  }
  return release;
}

bool LookupInWindow(const Window& window, size_t table, size_t row,
                    const std::string& answer) {
  for (const auto& release : window) {
    if (table < release->tables.size() &&
        row < release->tables[table].rows.size() &&
        release->tables[table].rows[row].back() == answer) {
      return true;
    }
  }
  return false;
}

bool TopKInWindow(const Window& window, size_t table,
                  const std::vector<eep::serve::RankedCell>& answer) {
  for (const auto& release : window) {
    if (table < release->topk.size() && release->topk[table] == answer) {
      return true;
    }
  }
  return false;
}

std::string CheckReconciled(const eep::serve::ServiceStats& stats,
                            uint64_t submitted) {
  if (stats.admitted + stats.shed + stats.expired_at_admission != submitted) {
    return "admitted + shed + expired_at_admission = " +
           std::to_string(stats.admitted + stats.shed +
                          stats.expired_at_admission) +
           " != submitted " + std::to_string(submitted);
  }
  if (stats.completed + stats.expired_in_queue != stats.admitted) {
    return "completed + expired_in_queue = " +
           std::to_string(stats.completed + stats.expired_in_queue) +
           " != admitted " + std::to_string(stats.admitted);
  }
  if (stats.snapshot_pins != stats.completed) {
    return "snapshot_pins " + std::to_string(stats.snapshot_pins) +
           " != completed " + std::to_string(stats.completed);
  }
  return "";
}

void EpochWindow::Publish(std::shared_ptr<const Release> release) {
  const uint64_t epoch = release->epoch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    epochs_[epoch] = std::move(release);
  }
  published_.notify_all();
}

void EpochWindow::DropBefore(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  epochs_.erase(epochs_.begin(), epochs_.lower_bound(epoch));
}

std::shared_ptr<const Release> EpochWindow::Get(uint64_t epoch,
                                                int timeout_ms) const {
  std::unique_lock<std::mutex> lock(mu_);
  published_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                      [&] { return epochs_.count(epoch) > 0; });
  auto it = epochs_.find(epoch);
  return it == epochs_.end() ? nullptr : it->second;
}

size_t EpochWindow::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epochs_.size();
}

}  // namespace perfbench
