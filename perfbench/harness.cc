#include "harness.h"

#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cpuid.h>
#include <cstring>
#include <fstream>

namespace perfbench {

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(p * static_cast<double>(sorted.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

double Samples::InterquartileMean() const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const size_t trim = sorted.size() / 4;
  double sum = 0.0;
  for (size_t i = trim; i < sorted.size() - trim; ++i) sum += sorted[i];
  return sum / static_cast<double>(sorted.size() - 2 * trim);
}

int32_t SpanLog::Begin(const char* name, int32_t parent, uint64_t request_id) {
  if (!kTraced || spans_.size() >= capacity_) return -1;
  Span span;
  span.name = name;
  span.parent = parent;
  span.request_id = request_id;
  const AllocCounts allocs = CurrentAllocs();
  span.allocs = allocs.allocs;
  span.alloc_bytes = allocs.bytes;
  span.start_ns = NowNs();
  spans_.push_back(span);
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanLog::End(int32_t id) {
  if (!kTraced || id < 0) return;
  Span& span = spans_[static_cast<size_t>(id)];
  span.end_ns = NowNs();
  const AllocCounts allocs = CurrentAllocs();
  span.allocs = allocs.allocs - span.allocs;
  span.alloc_bytes = allocs.bytes - span.alloc_bytes;
}

void SpanLog::AddChild(const char* name, int32_t parent, int64_t start_ns,
                       int64_t end_ns) {
  if (!kTraced || parent < 0 || spans_.size() >= capacity_) return;
  Span span;
  span.name = name;
  span.parent = parent;
  span.request_id = spans_[static_cast<size_t>(parent)].request_id;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
}

Samples SpanLog::DurationsMs(const char* name) const {
  Samples out;
  for (const Span& span : spans_) {
    if (std::strcmp(span.name, name) == 0) {
      out.Add(NsToMs(span.end_ns - span.start_ns));
    }
  }
  return out;
}

bool WriteTrace(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "thread,id,name,start_ns,end_ns,parent,request_id,allocs,"
         "alloc_bytes\n";
  for (const SpanLog* log : logs) {
    const auto& spans = log->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << log->thread_name() << ',' << i << ',' << s.name << ','
          << s.start_ns << ',' << s.end_ns << ',' << s.parent << ','
          << s.request_id << ',' << s.allocs << ',' << s.alloc_bytes << '\n';
    }
  }
  out.flush();
  return static_cast<bool>(out);
}

uint64_t DigestTables(uint64_t digest,
                      const std::vector<eep::release::ReleasedTable>& tables) {
  auto fold = [&digest](const std::string& s) {
    for (const char c : s) {
      digest ^= static_cast<unsigned char>(c);
      digest *= 0x100000001b3ULL;
    }
    digest ^= 0xff;  // Field separator: ("ab","c") != ("a","bc").
    digest *= 0x100000001b3ULL;
  };
  for (const auto& table : tables) {
    for (const auto& column : table.header) fold(column);
    for (const auto& row : table.rows) {
      for (const auto& field : row) fold(field);
    }
  }
  return digest;
}

namespace {

std::string CpuModel() {
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned int leaf = 0; leaf < 3; ++leaf) {
    __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, sizeof(regs));
  std::string model(brand);
  const size_t first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
}

std::string FilesystemName(const std::string& dir) {
  struct statfs fs {};
  if (statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x01021994UL: return "tmpfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x6969UL: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

}  // namespace

Environment DescribeEnvironment(const std::string& store_dir) {
  Environment env;
  env.nproc = sysconf(_SC_NPROCESSORS_ONLN);
  env.cpu_model = CpuModel();
  env.build_type = PERFBENCH_BUILD_TYPE;
  env.march = PERFBENCH_MARCH;
  env.store_fs = FilesystemName(store_dir);
  // store::Store fsyncs every segment, the staged manifest and the
  // directory on each commit, with no knob: the same on every build.
  env.flush_policy = "fsync per segment, manifest and directory per commit";
  return env;
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

}  // namespace perfbench
