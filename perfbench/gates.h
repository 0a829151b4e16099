// Correctness gates of the benchmark. A run whose gate fails exits
// non-zero and reports correct=false, whatever its timings were. The
// checks are pure functions of what the bench released and what the
// program answered, so gates_test.cc can feed each one a violation.
#ifndef PERFBENCH_GATES_H_
#define PERFBENCH_GATES_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "release/pipeline.h"
#include "serve/service.h"
#include "serve/snapshot.h"

namespace perfbench {

/// The k of every TopK request.
inline constexpr size_t kTopK = 10;

/// \brief Thread-safe record of failed gates: the first message per gate
/// plus a count.
class Gates {
 public:
  void Fail(const std::string& gate, const std::string& detail);
  bool ok() const;
  /// "gate (count): first detail" per failed gate.
  std::vector<std::string> Failures() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::pair<uint64_t, std::string>> failed_;
};

/// \brief What one epoch released, as the pipeline returned it, plus the
/// bench's own expected top-k per table.
struct Release {
  uint64_t epoch = 0;
  std::vector<eep::release::ReleasedTable> tables;
  std::vector<std::vector<eep::serve::RankedCell>> topk;
};

/// The k rows with the highest released count of `table` (numeric
/// descending, ties by attribute tuple ascending), computed from the
/// released rows without the serving layer.
std::vector<eep::serve::RankedCell> ExpectedTopK(
    const eep::release::ReleasedTable& table, size_t k);

/// Builds a Release with its expected top-k.
std::shared_ptr<const Release> MakeRelease(
    uint64_t epoch, std::vector<eep::release::ReleasedTable> tables);

/// The released epochs an answer may come from.
using Window = std::vector<std::shared_ptr<const Release>>;

/// True when `answer` is the released value of (table, row) in some epoch
/// of `window` (row order is the released key order, the same in every
/// epoch of one dataset).
bool LookupInWindow(const Window& window, size_t table, size_t row,
                    const std::string& answer);
/// True when `answer` is the expected top-k of `table` in some epoch of
/// `window`.
bool TopKInWindow(const Window& window, size_t table,
                  const std::vector<eep::serve::RankedCell>& answer);

/// Empty when the service's outcome counters reconcile with each other
/// and with the `submitted` requests the bench sent; otherwise the broken
/// equation.
std::string CheckReconciled(const eep::serve::ServiceStats& stats,
                            uint64_t submitted);

/// \brief The released epochs a reader may still be answered from. The
/// writer publishes each epoch right after its commit and drops the ones
/// no reader can see any more, so only that window stays in memory.
class EpochWindow {
 public:
  void Publish(std::shared_ptr<const Release> release);
  /// Forgets every epoch below `epoch`.
  void DropBefore(uint64_t epoch);
  /// The release of `epoch`, waiting up to `timeout_ms` for the writer to
  /// publish it (a refresh can serve an epoch a moment before its writer
  /// returns); null on timeout or when it was dropped.
  std::shared_ptr<const Release> Get(uint64_t epoch, int timeout_ms) const;
  size_t size() const;

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable published_;
  std::map<uint64_t, std::shared_ptr<const Release>> epochs_;
};

}  // namespace perfbench

#endif  // PERFBENCH_GATES_H_
