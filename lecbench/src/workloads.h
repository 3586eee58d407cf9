// The three workloads and the building blocks they share.
//
//   hot_serve      wire-served lec_static requests whose signatures are all
//                  cached before timing starts (serving path only).
//   cold_optimize  wire-served requests that never hit the cache (DP and
//                  EC kernels dominate).
//   adaptive_exec  in-process plan -> execute -> drift -> invalidate loop
//                  over measured chain workloads (exec, storage, stats).
//
// Every workload reports all per-layer metrics in a traced run. Layers on
// the workload's request path are measured there; a layer that is not on
// the path is measured by a short probe over the same seed's inputs, so
// every layer number is a measurement (see lecbench/layer_map.json).
#ifndef LECBENCH_WORKLOADS_H_
#define LECBENCH_WORKLOADS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "dist/markov.h"
#include "exec/plan_executor.h"
#include "service/plan_cache.h"
#include "service/serde.h"
#include "service/serve_pipeline.h"
#include "service/wire_server.h"
#include "stats/measure.h"

namespace lecbench {

/// Closed-loop load: 2 client connections against 2 pipeline workers.
inline constexpr int kClients = 2;
inline constexpr int kWorkers = 2;
/// Set-up is repeated this many times per untraced run; setup_s is the
/// median.
inline constexpr int kSetupRepeats = 5;
/// Windows a timed run is cut into for qps and latency (AddLatencyMetrics).
inline constexpr int kLatencyWindows = 10;

// ---------------------------------------------------------------------------
// Served corpora.
// ---------------------------------------------------------------------------

struct CorpusEntry {
  lec::serde::ServeRequest request;
  std::string payload;  ///< pre-serialized wire request frame payload
  std::string shape;    ///< join-graph shape name
  /// Corpus cell (cold_optimize: shape x n x strategy; else 0). Layer means
  /// average over cells first, so a decomposed sample weighs cells as the
  /// served load does.
  int stratum = 0;
};

/// Pre-serializes every entry's wire payload.
void Serialize(std::vector<CorpusEntry>* corpus);

uint64_t Fingerprint(const std::vector<CorpusEntry>& corpus);

/// The real serving stack: PlanCache + ServePipeline + WireServer on an
/// ephemeral loopback port. Destruction stops the server, drains the
/// pipeline and joins every thread.
class ServeStack {
 public:
  explicit ServeStack(size_t cache_entries);

  lec::Optimizer optimizer;
  lec::CostModel model;
  lec::PlanCache cache;
  lec::ServePipeline pipeline;
  lec::WireServer server;
};

/// The facade request a ServeRequest stands for (borrows from `request`).
lec::OptimizeRequest ToOptimizeRequest(const lec::serde::ServeRequest& request,
                                       const lec::CostModel& model);

/// First served result per corpus entry; every later serve must be
/// bit-identical to it, and the first must match an uncached recompute.
class ResultBook {
 public:
  explicit ResultBook(size_t entries) : slots_(entries) {}
  /// Stores the first result for `index`; returns false when a later
  /// result differs from the stored one.
  bool Record(size_t index, const lec::OptimizeResult& result);
  const std::optional<lec::OptimizeResult>& first(size_t index) const {
    return slots_[index];
  }

 private:
  std::mutex mu_;
  std::vector<std::optional<lec::OptimizeResult>> slots_;
};

/// Serves `indices` of `corpus` once each from one connection; every
/// response must be kOk. Results go to `book` when it is set.
void ServeSequentially(ServeStack* stack, const std::vector<CorpusEntry>& corpus,
                       const std::vector<size_t>& indices, ResultBook* book,
                       Ledger* ledger);

struct LoopResult {
  std::vector<double> latencies_us;
  std::vector<uint32_t> entries;  ///< corpus entry of each latency sample
  std::vector<double> done_s;     ///< completion time since loop start
  size_t attempted = 0;
  double elapsed_s = 0;
};

/// Closed loop of `num_clients` connections over `sequence` (indices into
/// the corpus, consumed in order through a shared cursor) for `seconds`.
/// Every response is checked against `book`. With a tracer, one
/// "wire.rtt" span per request is recorded per client.
LoopResult RunClosedLoop(ServeStack* stack,
                         const std::vector<CorpusEntry>& corpus,
                         const std::vector<uint32_t>& sequence,
                         std::atomic<size_t>* cursor, double seconds,
                         int num_clients, ResultBook* book, Tracer* tracer,
                         Ledger* ledger);

/// Mean loaded latency per corpus entry; -1 for entries never served.
std::vector<double> MeanLatencyByEntry(const LoopResult& loop, size_t entries);

/// Per-layer decomposition of served requests: re-issues each layer's
/// public call for the same request from the benchmark (round trip,
/// Submit->Wait, codec, facade, rewrite, signature, cache probe), with
/// spans linked by layer, while one background session over `sequence`
/// keeps the stack loaded. Requests are the corpus entries in `order`
/// (cycled until the budget is spent); `loaded_by_entry` is each entry's
/// mean latency under the full load, for the ladder. `cold` clears the
/// cache before each call so the miss path is measured. Fills the wire.*,
/// pipeline.*, plan_cache.*, rewrite.* and optimizer.* layer metrics into
/// `report`.
struct Decomposition {
  std::map<std::string, double> self_us;  ///< mean self time per request
  double rtt_us = 0;     ///< mean decomposed round trip
  double loaded_us = 0;  ///< mean loaded latency of the same entries
  size_t requests = 0;
  size_t background_attempted = 0;
};
Decomposition DecomposeServe(ServeStack* stack,
                             const std::vector<CorpusEntry>& corpus,
                             const std::vector<uint32_t>& sequence,
                             ResultBook* book, bool cold, double budget_s,
                             const std::vector<uint32_t>& order,
                             const std::vector<double>& loaded_by_entry,
                             Tracer* tracer, Report* report, Ledger* ledger);

/// FastEcJoin replayed over the corpus's table-size and memory
/// distributions; fills cost.ec_eval_ns.<method>.
void MeasureEcKernels(const std::vector<CorpusEntry>& corpus, double budget_s,
                      Report* report);

/// Uncached facade time per join-graph shape on seeded n=8 lec_static
/// probes, for shapes the workload's own corpus does not carry.
double ProbeColdMs(lec::JoinGraphShape shape, uint64_t seed,
                   const lec::Optimizer& optimizer,
                   const lec::CostModel& model);

// ---------------------------------------------------------------------------
// Adaptive execution.
// ---------------------------------------------------------------------------

struct AdaptiveQuery {
  lec::stats::MeasuredWorkload measured;
  int version = 0;  ///< bumped by every drift that changed its statistics
};

struct AdaptiveWorld {
  std::vector<AdaptiveQuery> queries;
  lec::Distribution memory = lec::Distribution::PointMass(1);
  std::optional<lec::MarkovChain> chain;
  lec::stats::MeasureOptions measure;
  uint64_t seed = 0;
};

AdaptiveWorld BuildAdaptiveWorld(uint64_t seed, int num_queries);

/// The adaptive request as a ServeRequest (lec_dynamic, rewrite off).
lec::serde::ServeRequest AdaptiveServeRequest(const AdaptiveWorld& world,
                                              size_t query);

/// Totals of an adaptive loop. The `det_` fields cover the first
/// `deterministic_rounds` rounds only, so they repeat exactly per seed.
struct AdaptiveTotals {
  size_t requests = 0;
  size_t rounds = 0;
  std::vector<double> latencies_us;
  std::vector<double> done_s;  ///< completion time since the loop started
  double elapsed_s = 0;
  // Deterministic prefix.
  uint64_t det_lec_io = 0;
  uint64_t det_lsc_io = 0;
  size_t det_requests = 0;
  size_t det_cache_hits = 0;
  size_t det_cache_misses = 0;
  size_t det_candidates = 0;
  size_t det_cost_evals = 0;
  size_t det_pruned = 0;
  std::vector<double> det_ec_ratios;  ///< one per distinct request
  // Layer counters over the traced part.
  uint64_t page_reads = 0;
  uint64_t page_writes = 0;
  size_t executions = 0;
  size_t reoptimizations = 0;
  size_t drifted_phases = 0;
  size_t drift_events = 0;
  size_t invalidated = 0;
  std::vector<double> facade_hit_us;
  double facade_miss_ns = 0;
  size_t facade_miss_candidates = 0;
};

/// Runs rounds over every query until `seconds` pass and at least
/// `min_rounds` rounds completed. Each request plans the query with
/// lec_dynamic and lsc through the facade (shared `cache`), executes both
/// plans on the same memory trajectory with re-optimization on drift and
/// checks both answers are the same multiset; each round ends with a
/// seeded table drift, re-measured through stats, whose stale
/// distributions are invalidated in the cache. Spans go to `tracer` when
/// it is set (only from `trace_from_round` on).
void RunAdaptiveLoop(AdaptiveWorld* world, lec::PlanCache* cache,
                     const lec::Optimizer& optimizer,
                     const lec::CostModel& model, double seconds,
                     size_t min_rounds, size_t deterministic_rounds,
                     Tracer* tracer, size_t* round_cursor,
                     AdaptiveTotals* totals, Ledger* ledger);

/// Per-layer exec.* and stats.* metrics from a traced adaptive loop's
/// spans and counters; the I/O ratios come from `deterministic`, the loop
/// that ran the deterministic prefix.
void ReportExecLayers(const AdaptiveTotals& totals,
                      const AdaptiveTotals& deterministic,
                      const Tracer& tracer, Report* report);

/// One row of the layer ladder: a layer and its mean time per request.
struct LadderRow {
  std::string layer;
  double us = 0;
};

/// Prints the ladder (per-request time, share of `e2e_us`) into the
/// report's notes and adds one share.<layer> metric per ladder layer (0
/// for a layer with no row), share.queueing and trace.overhead_frac.
void AddLadder(const std::string& workload, const std::vector<LadderRow>& rows,
               double e2e_us, const std::string& e2e_label,
               double queueing_share, double trace_overhead_frac,
               Report* report);

// ---------------------------------------------------------------------------
// Workload entry points.
// ---------------------------------------------------------------------------

Report RunServeWorkload(const RunConfig& config, Ledger* ledger);
Report RunAdaptiveExec(const RunConfig& config, Ledger* ledger);

}  // namespace lecbench

#endif  // LECBENCH_WORKLOADS_H_
