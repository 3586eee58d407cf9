#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <unordered_map>

namespace lecbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

ScopedCpuPin::ScopedCpuPin(int cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  cpu_set_t narrow;
  CPU_ZERO(&narrow);
  int kept = 0;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &set)) continue;
    previous_.push_back(c);
    if (kept < cpus) {
      CPU_SET(c, &narrow);
      ++kept;
    }
  }
  if (sched_setaffinity(0, sizeof(narrow), &narrow) != 0) previous_.clear();
}

ScopedCpuPin::~ScopedCpuPin() {
  if (previous_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : previous_) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

uint64_t StreamSeed(uint64_t seed, uint64_t tag, uint64_t index) {
  // splitmix64 over the three inputs: distinct streams for distinct tags.
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + tag * 0xbf58476d1ce4e5b9ULL +
               index * 0x94d049bb133111ebULL + 0x2545f4914f6cdd1dULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int32_t Tracer::Begin(const char* name, uint64_t request, int32_t parent) {
  Span span;
  span.name = name;
  span.request = request;
  span.id = static_cast<int32_t>(spans_.size());
  span.parent = parent;
  span.start_ns = NowNs();
  spans_.push_back(span);
  return span.id;
}

void Tracer::End(int32_t id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
}

void Tracer::Append(const Tracer& other) {
  int32_t offset = static_cast<int32_t>(spans_.size());
  for (Span span : other.spans_) {
    span.id += offset;
    if (span.parent >= 0) span.parent += offset;
    spans_.push_back(span);
  }
}

bool Tracer::WriteCsv(const std::string& path, size_t max_spans) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "id,parent,request,name,start_ns,end_ns\n");
  size_t n = std::min(max_spans, spans_.size());
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::fprintf(out, "%d,%d,%llu,%s,%lld,%lld\n", s.id, s.parent,
                 static_cast<unsigned long long>(s.request), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(out) == 0;
}

std::map<std::string, double> SelfMicrosByName(
    const std::vector<Span>& spans) {
  std::unordered_map<int32_t, double> child_micros;
  for (const Span& s : spans) {
    if (s.parent >= 0) child_micros[s.parent] += s.micros();
  }
  std::map<std::string, double> out;
  for (const Span& s : spans) {
    auto it = child_micros.find(s.id);
    out[s.name] +=
        s.micros() - (it == child_micros.end() ? 0.0 : it->second);
  }
  return out;
}

void Ledger::Fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++failures_;
  if (messages_.size() < 8) messages_.push_back(what);
}

size_t Ledger::failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_;
}

std::vector<std::string> Ledger::messages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return messages_;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics.push_back({name, value, unit});
}

void AddLatencyMetrics(const std::vector<double>& latencies_us,
                       const std::vector<double>& done_s, double elapsed_s,
                       int windows, bool windowed_p99, Report* report) {
  std::vector<std::vector<double>> by_window(static_cast<size_t>(windows));
  double width = elapsed_s / windows;
  for (size_t i = 0; i < latencies_us.size(); ++i) {
    size_t w = std::min(static_cast<size_t>(done_s[i] / width),
                        by_window.size() - 1);
    by_window[w].push_back(latencies_us[i]);
  }
  auto beyond_p99 = [](size_t n) {
    return n - static_cast<size_t>(std::ceil(0.99 * static_cast<double>(n)));
  };
  std::vector<double> qps, p50, p99;
  size_t min_beyond = beyond_p99(latencies_us.size());
  for (const std::vector<double>& window : by_window) {
    qps.push_back(static_cast<double>(window.size()) / width);
    p50.push_back(Quantile(window, 0.50));
    p99.push_back(Quantile(window, 0.99));
    if (windowed_p99) min_beyond = std::min(min_beyond, beyond_p99(window.size()));
  }
  report->Add("qps", Median(qps), "req/s");
  report->Add("latency_p50_ms", Median(p50) / 1e3, "ms");
  report->Add("latency_p99_ms",
              (windowed_p99 ? Median(p99) : Quantile(latencies_us, 0.99)) / 1e3,
              "ms");
  report->notes.push_back(Format(
      "latency samples: %zu in %d windows of %.2f s; p99 %s with >= %zu "
      "samples beyond it%s",
      latencies_us.size(), windows, width,
      windowed_p99 ? "per window" : "over the whole run", min_beyond,
      min_beyond >= 10 ? "" : " -- FEWER THAN 10, p99 not resolved"));
}

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

bool BitIdentical(const lec::OptimizeResult& a, const lec::OptimizeResult& b) {
  return Bits(a.objective) == Bits(b.objective) &&
         lec::PlanEquals(a.plan, b.plan);
}

std::vector<int64_t> PayloadMultiset(const lec::TableData& table) {
  std::vector<int64_t> out;
  out.reserve(table.num_tuples());
  table.ForEachTuple([&](const lec::Tuple& t) { out.push_back(t.payload); });
  std::sort(out.begin(), out.end());
  return out;
}

lec::Workload Relabel(const lec::Workload& src, const std::vector<int>& perm) {
  int n = src.query.num_tables();
  std::vector<int> inv(static_cast<size_t>(n));
  for (int p = 0; p < n; ++p) inv[static_cast<size_t>(perm[p])] = p;
  lec::Workload out;
  out.catalog = src.catalog;
  for (int np = 0; np < n; ++np) {
    out.query.AddTable(src.query.table(inv[static_cast<size_t>(np)]));
  }
  for (const lec::JoinPredicate& p : src.query.predicates()) {
    out.query.AddPredicate(static_cast<lec::QueryPos>(perm[p.left]),
                           static_cast<lec::QueryPos>(perm[p.right]),
                           p.selectivity);
  }
  for (const lec::FilterPredicate& f : src.query.filters()) {
    out.query.AddFilter(static_cast<lec::QueryPos>(perm[f.table]),
                        f.selectivity);
  }
  if (src.query.required_order()) {
    out.query.RequireOrder(*src.query.required_order());
  }
  return out;
}

std::vector<int> RandomPerm(int n, lec::Rng* rng) {
  std::vector<int> perm(static_cast<size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  rng->Shuffle(&perm);
  if (std::is_sorted(perm.begin(), perm.end())) {
    std::rotate(perm.begin(), perm.begin() + 1, perm.end());
  }
  return perm;
}

uint64_t Fnv(uint64_t h, const std::string& bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string Format(const char* fmt, ...) {
  char buf[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

}  // namespace lecbench
