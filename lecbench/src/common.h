// Shared pieces of the lecopt serving benchmark: timing, quantiles, the
// in-memory span tracer, the failure ledger, the metric report and the
// correctness predicates every workload applies to served plans.
#ifndef LECBENCH_COMMON_H_
#define LECBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "optimizer/optimizer.h"
#include "query/generator.h"
#include "storage/table_data.h"

namespace lecbench {

/// Command-line configuration of one benchmark run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory spans are written to when the run ends ("" = do not write).
  std::string span_dir;
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);
/// Median of a small sample (used for repeated set-up timings).
double Median(std::vector<double> values);

/// Peak resident set size of this process, MiB (getrusage).
double PeakRssMb();

/// Confines the calling thread, and every thread it creates from then on,
/// to the first `cpus` CPUs it may run on; restores the previous set on
/// destruction (threads created meanwhile keep the narrow set). Measured
/// phases run pinned: on a shared virtual machine a thread handoff to an
/// idle vCPU waits for the host to schedule that vCPU, which made
/// sub-millisecond serving latencies swing several-fold from run to run;
/// on CPUs that are already running, handoffs stay local.
class ScopedCpuPin {
 public:
  explicit ScopedCpuPin(int cpus);
  ~ScopedCpuPin();
  ScopedCpuPin(const ScopedCpuPin&) = delete;
  ScopedCpuPin& operator=(const ScopedCpuPin&) = delete;

 private:
  std::vector<int> previous_;
};

/// CPUs the measured phases are pinned to (2 clients x 2 workers).
inline constexpr int kMeasuredCpus = 2;

/// Deterministic stream seed for (run seed, stream tag, index).
uint64_t StreamSeed(uint64_t seed, uint64_t tag, uint64_t index = 0);

// ---------------------------------------------------------------------------
// Spans. Each span names the layer whose public function the benchmark
// called, the request it belongs to and the span of the layer above it, so
// self time = duration - time of child spans. Recording is a vector append
// on the recording thread; spans are merged and written when the run ends.
// ---------------------------------------------------------------------------

struct Span {
  const char* name = "";
  uint64_t request = 0;
  int32_t id = 0;
  int32_t parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  double micros() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

class Tracer {
 public:
  /// Opens a span and returns its id (its index in this tracer).
  int32_t Begin(const char* name, uint64_t request, int32_t parent = -1);
  void End(int32_t id);
  const std::vector<Span>& spans() const { return spans_; }
  void Append(const Tracer& other);

  /// Writes at most `max_spans` spans as CSV; returns false on I/O error.
  bool WriteCsv(const std::string& path, size_t max_spans) const;

 private:
  std::vector<Span> spans_;
};

/// Self time of every span (duration minus its children among `spans`),
/// summed by name. Span ids must be unique within `spans`.
std::map<std::string, double> SelfMicrosByName(const std::vector<Span>& spans);

// ---------------------------------------------------------------------------
// Failures: transport errors, non-ok statuses and failed checks all land
// here; each one counts toward `failed` and makes the run incorrect.
// ---------------------------------------------------------------------------

class Ledger {
 public:
  void Fail(const std::string& what);
  size_t failures() const;
  /// The first few failure messages, for the report.
  std::vector<std::string> messages() const;

 private:
  mutable std::mutex mu_;
  size_t failures_ = 0;
  std::vector<std::string> messages_;
};

// ---------------------------------------------------------------------------
// Report.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  /// Counters that must repeat exactly for one seed (determinism test).
  std::map<std::string, double> counters;
  /// Hash of the generated corpus; must change with the seed.
  uint64_t corpus_fingerprint = 0;
  size_t attempted = 0;
  /// Human-readable lines printed before the JSON result.
  std::vector<std::string> notes;

  void Add(const std::string& name, double value, const std::string& unit);
};

/// qps, latency_p50_ms and latency_p99_ms of a closed loop. The run is
/// cut into `windows` equal windows by completion time and qps and p50 are
/// medians over windows, so a transient stall moves one window, not the
/// result. p99 is the median over windows too when `windowed_p99`, else it
/// is taken over the whole run. Notes the sample counts.
void AddLatencyMetrics(const std::vector<double>& latencies_us,
                       const std::vector<double>& done_s, double elapsed_s,
                       int windows, bool windowed_p99, Report* report);

// ---------------------------------------------------------------------------
// Correctness predicates.
// ---------------------------------------------------------------------------

uint64_t Bits(double v);

/// Objective bits and plan structure equal (the PlanCache contract).
bool BitIdentical(const lec::OptimizeResult& a, const lec::OptimizeResult& b);

/// Sorted payload multiset of an executed result (payloads are an
/// order-invariant lineage fingerprint of the joined rows).
std::vector<int64_t> PayloadMultiset(const lec::TableData& table);

/// Relabels `src` by `perm` (perm[p] = new position of original p); the
/// join structure and statistics are unchanged, only the labels move.
lec::Workload Relabel(const lec::Workload& src, const std::vector<int>& perm);

/// A seeded permutation of [0, n) that is not the identity.
std::vector<int> RandomPerm(int n, lec::Rng* rng);

/// FNV-1a over bytes, for corpus fingerprints.
uint64_t Fnv(uint64_t h, const std::string& bytes);

std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace lecbench

#endif  // LECBENCH_COMMON_H_
