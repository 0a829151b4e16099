// Measurement plumbing shared by the benchmark binaries: monotonic
// timestamps, sample sets with medians and percentiles, the allocation
// counters of the traced build, the in-memory span log, the released-row
// digest and the environment record.
//
// The benchmark is compiled twice from the same sources. The untraced
// binary (PERFBENCH_TRACED=0) records no spans and links alloc_off.cc, so
// its end-to-end numbers pay nothing for tracing. The traced binary
// (PERFBENCH_TRACED=1) links alloc_counting.cc, a counting global
// operator new/delete, and records spans around every call it makes into
// a layer's public functions.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "release/pipeline.h"

#ifndef PERFBENCH_TRACED
#define PERFBENCH_TRACED 0
#endif

namespace perfbench {

inline constexpr bool kTraced = PERFBENCH_TRACED != 0;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// \brief Process-wide heap counters. Always {0, 0} in the untraced
/// binary; in the traced one, every operator new since process start.
struct AllocCounts {
  uint64_t allocs = 0;
  uint64_t bytes = 0;
};
AllocCounts CurrentAllocs();

/// \brief A set of measurements of one quantity.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  /// Nearest-rank percentile, p in (0, 1]; 0 for an empty set.
  double Percentile(double p) const;
  double Median() const { return Percentile(0.5); }
  /// Mean of the middle half (the samples between the first and third
  /// quartile); the plain mean below 4 samples; 0 for an empty set.
  double InterquartileMean() const;

 private:
  std::vector<double> values_;
};

/// \brief One traced call: [start, end) on the steady clock, the span
/// that caused it (index into the same log, -1 for a root) and the
/// request it served (0 when it served none). allocs/alloc_bytes are the
/// process-wide counter deltas across the span; they are exact only when
/// no other thread allocates meanwhile.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint64_t request_id = 0;
  uint64_t allocs = 0;
  uint64_t alloc_bytes = 0;
};

/// \brief Spans of one thread, kept in memory and written out when the
/// run ends. Not thread-safe: each recording thread owns its log. In the
/// untraced binary every method is a no-op.
class SpanLog {
 public:
  explicit SpanLog(std::string thread_name, size_t capacity)
      : thread_name_(std::move(thread_name)), capacity_(capacity) {
    if (kTraced) spans_.reserve(capacity);
  }

  /// Opens a span; -1 when the log is full (or untraced).
  int32_t Begin(const char* name, int32_t parent = -1,
                uint64_t request_id = 0);
  /// Closes a span opened by Begin; ignores -1.
  void End(int32_t id);
  /// Records a span measured elsewhere (a library phase reported in
  /// stats), placed inside its parent.
  void AddChild(const char* name, int32_t parent, int64_t start_ns,
                int64_t end_ns);

  /// Durations in ms of every span named `name`.
  Samples DurationsMs(const char* name) const;
  const std::vector<Span>& spans() const { return spans_; }
  const std::string& thread_name() const { return thread_name_; }

 private:
  std::string thread_name_;
  size_t capacity_;
  std::vector<Span> spans_;
};

/// Writes every log as CSV rows (thread,id,name,start_ns,end_ns,parent,
/// request_id,allocs,alloc_bytes); false on an I/O error.
bool WriteTrace(const std::string& path,
                const std::vector<const SpanLog*>& logs);

/// FNV-1a over the released rows of `tables`, folded into `digest`.
uint64_t DigestTables(uint64_t digest,
                      const std::vector<eep::release::ReleasedTable>& tables);
inline constexpr uint64_t kDigestSeed = 0xcbf29ce484222325ULL;

/// \brief Where and how a run executed.
struct Environment {
  long nproc = 0;
  std::string cpu_model;
  std::string build_type;
  std::string march;
  std::string store_fs;
  std::string flush_policy;
};
Environment DescribeEnvironment(const std::string& store_dir);

/// Process peak resident set size in MiB (getrusage).
double PeakRssMib();

/// JSON string literal for `s` (quotes and escapes included).
std::string JsonString(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
