// adaptive_exec: the paper's scenario in process. Measured chain workloads
// are planned with lec_dynamic and lsc through the facade (shared plan
// cache), both plans run on the same memory trajectory with re-optimization
// on drift, and between rounds a table drift is re-measured through stats
// and its stale distributions are invalidated in the cache.
#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <utility>

#include "verify/oracle.h"
#include "workloads.h"

namespace lecbench {

using lec::OptimizeResult;
using lec::StrategyId;

namespace {

constexpr int kAdaptiveQueries = 144;
/// Rounds whose totals make the deterministic counters and plan_ec_ratio.
constexpr size_t kDeterministicRounds = 8;
constexpr double kEcRatioSlack = 1e-9;

/// Memory states (pages) of the scaled-down buffer pool and the
/// Example-1.1-shaped start: either starved or plentiful.
const std::vector<double> kMemoryStates = {3, 5, 9, 17, 33};

/// The executor joins a chain table's column 1 to the next table's column
/// 0. Measured data puts the first relation's only join key in column 0,
/// so its columns are swapped; every other relation already matches.
lec::EngineWorkload ExecutableData(const lec::stats::MeasuredWorkload& mw) {
  lec::EngineWorkload out;
  out.tables = mw.data;
  lec::TableData swapped;
  out.tables[0].ForEachTuple([&](const lec::Tuple& t) {
    lec::Tuple s = t;
    std::swap(s.cols[0], s.cols[1]);
    swapped.Append(s);
  });
  out.tables[0] = std::move(swapped);
  return out;
}

/// One distinct (query, statistics version) request and what was served
/// for it first.
struct Snapshot {
  size_t query = 0;
  lec::Workload workload;
  OptimizeResult lec;
  OptimizeResult lsc;
  bool deterministic = false;
};

double DynamicEc(const OptimizeResult& r, const lec::Workload& w,
                 const AdaptiveWorld& world, const lec::CostModel& model) {
  lec::verify::OracleOptions o;
  o.objective = lec::verify::OracleObjective::kLecDynamic;
  o.chain = &*world.chain;
  return lec::verify::OraclePlanObjective(r.plan, w.query, w.catalog, model,
                                          world.memory, o);
}

}  // namespace

AdaptiveWorld BuildAdaptiveWorld(uint64_t seed, int num_queries) {
  AdaptiveWorld world;
  world.seed = seed;
  world.memory = lec::Distribution({{3, 0.4}, {33, 0.6}});
  world.chain = lec::MarkovChain::Drift(kMemoryStates, 0.6);
  for (int q = 0; q < num_queries; ++q) {
    lec::Rng rng(StreamSeed(seed, 3, static_cast<uint64_t>(q)));
    lec::WorkloadOptions wopts;
    wopts.shape = lec::JoinGraphShape::kChain;
    wopts.num_tables = 4 + q % 3;
    lec::Workload base = lec::GenerateWorkload(wopts, &rng);
    AdaptiveQuery aq;
    aq.measured = lec::stats::MaterializeAndMeasure(base, world.measure, &rng);
    world.queries.push_back(std::move(aq));
  }
  return world;
}

lec::serde::ServeRequest AdaptiveServeRequest(const AdaptiveWorld& world,
                                              size_t query) {
  lec::serde::ServeRequest r;
  r.strategy = "lec_dynamic";
  r.workload = world.queries[query].measured.workload;
  r.memory = world.memory;
  r.chain = world.chain;
  return r;
}

void RunAdaptiveLoop(AdaptiveWorld* world, lec::PlanCache* cache,
                     const lec::Optimizer& optimizer,
                     const lec::CostModel& model, double seconds,
                     size_t min_rounds, size_t deterministic_rounds,
                     Tracer* tracer, size_t* round_cursor,
                     AdaptiveTotals* totals, Ledger* ledger) {
  const size_t m = world->queries.size();
  std::vector<lec::EngineWorkload> data;
  for (const AdaptiveQuery& q : world->queries) {
    data.push_back(ExecutableData(q.measured));
  }
  std::map<std::pair<size_t, int>, Snapshot> snapshots;
  int64_t start = NowNs();
  int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  size_t rounds_here = 0;
  uint64_t request_id = totals->requests;
  for (size_t& round = *round_cursor;
       NowNs() < deadline || rounds_here < min_rounds; ++round, ++rounds_here) {
    const bool det = round < deterministic_rounds;
    for (size_t i = 0; i < m; ++i, ++request_id) {
      AdaptiveQuery& aq = world->queries[i];
      const lec::Workload& w = aq.measured.workload;
      lec::OptimizeRequest req;
      req.query = &w.query;
      req.catalog = &w.catalog;
      req.model = &model;
      req.memory = &world->memory;
      req.chain = &*world->chain;
      req.options.plan_cache = cache;

      int64_t t0 = NowNs();
      int32_t s_req =
          tracer != nullptr ? tracer->Begin("request", request_id) : -1;
      OptimizeResult plans[2];
      const StrategyId ids[2] = {StrategyId::kLecDynamic, StrategyId::kLsc};
      for (int s = 0; s < 2; ++s) {
        size_t hits = cache->stats().hits;
        int32_t sp = tracer != nullptr
                         ? tracer->Begin("optimizer", request_id, s_req)
                         : -1;
        int64_t p0 = NowNs();
        plans[s] = optimizer.Optimize(ids[s], req);
        int64_t p1 = NowNs();
        if (sp >= 0) tracer->End(sp);
        bool hit = cache->stats().hits > hits;
        if (det) {
          ++(hit ? totals->det_cache_hits : totals->det_cache_misses);
        }
        if (tracer != nullptr) {
          if (hit) {
            totals->facade_hit_us.push_back(static_cast<double>(p1 - p0) / 1e3);
          } else {
            totals->facade_miss_ns += static_cast<double>(p1 - p0);
            totals->facade_miss_candidates += plans[s].candidates_considered;
          }
        }
      }

      // Same trajectory for both plans: the per-phase memory the executor
      // charges, sampled from the drifting chain.
      int joins = w.query.num_tables() - 1;
      lec::Rng traj_rng(StreamSeed(world->seed, 4, round * 1000003 + i));
      lec::ExecutePlanOptions eo;
      eo.memory_by_phase = world->chain->SampleTrajectory(
          world->memory, static_cast<size_t>(joins), &traj_rng);
      eo.reoptimize_on_drift = true;
      eo.model = &model;
      eo.chain = &*world->chain;
      lec::ExecutionResult runs[2];
      for (int s = 0; s < 2; ++s) {
        int32_t sp =
            tracer != nullptr ? tracer->Begin("exec", request_id, s_req) : -1;
        runs[s] = lec::ExecutePlan(plans[s].plan, w.query, data[i], eo);
        if (sp >= 0) tracer->End(sp);
      }
      if (s_req >= 0) tracer->End(s_req);
      int64_t t1 = NowNs();
      totals->latencies_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      totals->done_s.push_back(static_cast<double>(t1 - start) / 1e9);
      ++totals->requests;

      if (PayloadMultiset(runs[0].result) != PayloadMultiset(runs[1].result)) {
        ledger->Fail(Format("round %zu query %zu: LEC and LSC executions "
                            "returned different answers",
                            round, i));
      }
      auto key = std::make_pair(i, aq.version);
      auto it = snapshots.find(key);
      if (it == snapshots.end()) {
        Snapshot snap;
        snap.query = i;
        snap.workload = w;
        snap.lec = plans[0];
        snap.lsc = plans[1];
        snap.deterministic = det;
        snapshots.emplace(key, std::move(snap));
      } else if (!BitIdentical(it->second.lec, plans[0]) ||
                 !BitIdentical(it->second.lsc, plans[1])) {
        ledger->Fail(Format("round %zu query %zu: cached plan differs from "
                            "the first serve",
                            round, i));
      }
      if (det) {
        totals->det_lec_io += runs[0].total_io();
        totals->det_lsc_io += runs[1].total_io();
        ++totals->det_requests;
        totals->det_candidates += plans[0].candidates_considered;
        totals->det_cost_evals += plans[0].cost_evaluations;
        totals->det_pruned += plans[0].pruned_candidates;
      }
      if (tracer != nullptr) {
        totals->page_reads += runs[0].page_reads + runs[1].page_reads;
        totals->page_writes += runs[0].page_writes + runs[1].page_writes;
        totals->executions += 2;
        for (const lec::ExecutionResult& r : runs) {
          totals->reoptimizations += static_cast<size_t>(r.reoptimizations);
          for (const lec::PhaseTrace& p : r.phases) {
            totals->drifted_phases += p.drifted ? 1 : 0;
          }
        }
      }
    }

    // Table drift: one seeded relation changes size; stats re-measures it
    // and the plans that read its old distributions are invalidated.
    lec::Rng drift_rng(StreamSeed(world->seed, 5, round));
    size_t victim = static_cast<size_t>(
        drift_rng.UniformInt(0, static_cast<int64_t>(m) - 1));
    AdaptiveQuery& aq = world->queries[victim];
    lec::QueryPos pos = static_cast<lec::QueryPos>(drift_rng.UniformInt(
        0, aq.measured.workload.query.num_tables() - 1));
    double target = static_cast<double>(drift_rng.UniformInt(
        2, static_cast<int64_t>(world->measure.max_pages)));
    double growth = target / static_cast<double>(aq.measured.pages[pos]);
    int32_t s_stats =
        tracer != nullptr ? tracer->Begin("stats", request_id) : -1;
    lec::stats::DriftReport report = lec::stats::DriftTable(
        &aq.measured, pos, growth, world->measure, &drift_rng);
    if (s_stats >= 0) tracer->End(s_stats);
    int32_t s_inv =
        tracer != nullptr ? tracer->Begin("plan_cache.invalidate", request_id)
                          : -1;
    size_t dropped = 0;
    for (uint64_t h : report.stale_hashes) {
      dropped += cache->InvalidateDistribution(h);
    }
    if (s_inv >= 0) tracer->End(s_inv);
    if (tracer != nullptr) {
      ++totals->drift_events;
      totals->invalidated += dropped;
    }
    if (!report.stale_hashes.empty()) {
      ++aq.version;
      data[victim] = ExecutableData(aq.measured);
    }
    ++totals->rounds;
  }
  totals->elapsed_s += static_cast<double>(NowNs() - start) / 1e9;

  // Every distinct request's first serve must match an uncached recompute,
  // and the LEC plan's expected cost may not exceed the LSC plan's.
  for (auto& [key, snap] : snapshots) {
    lec::OptimizeRequest req;
    req.query = &snap.workload.query;
    req.catalog = &snap.workload.catalog;
    req.model = &model;
    req.memory = &world->memory;
    req.chain = &*world->chain;
    OptimizeResult lec_want = optimizer.Optimize(StrategyId::kLecDynamic, req);
    OptimizeResult lsc_want = optimizer.Optimize(StrategyId::kLsc, req);
    if (!BitIdentical(snap.lec, lec_want) || !BitIdentical(snap.lsc, lsc_want)) {
      ledger->Fail(Format("query %zu v%d: served plan differs from uncached "
                          "recompute",
                          key.first, key.second));
    }
    double ratio = DynamicEc(snap.lec, snap.workload, *world, model) /
                   DynamicEc(snap.lsc, snap.workload, *world, model);
    if (!(ratio <= 1 + kEcRatioSlack)) {
      ledger->Fail(Format("query %zu v%d: plan EC ratio %.17g > 1", key.first,
                          key.second, ratio));
    }
    if (snap.deterministic) totals->det_ec_ratios.push_back(ratio);
  }
}

void ReportExecLayers(const AdaptiveTotals& totals,
                      const AdaptiveTotals& deterministic,
                      const Tracer& tracer, Report* report) {
  std::vector<double> exec_ms, stats_ms;
  for (const Span& s : tracer.spans()) {
    std::string name = s.name;
    if (name == "exec") exec_ms.push_back(s.micros() / 1e3);
    if (name == "stats") stats_ms.push_back(s.micros() / 1e3);
  }
  double execs = static_cast<double>(std::max<size_t>(totals.executions, 1));
  report->Add("exec.execute_ms", Quantile(exec_ms, 0.5), "ms");
  report->Add("exec.page_reads", static_cast<double>(totals.page_reads) / execs,
              "pages");
  report->Add("exec.page_writes",
              static_cast<double>(totals.page_writes) / execs, "pages");
  report->Add("exec.reoptimizations",
              static_cast<double>(totals.reoptimizations) / execs, "count");
  report->Add("exec.drifted_phases",
              static_cast<double>(totals.drifted_phases) / execs, "count");
  report->Add("exec.io_per_query",
              static_cast<double>(deterministic.det_lec_io) /
                  static_cast<double>(
                      std::max<size_t>(deterministic.det_requests, 1)),
              "pages");
  report->Add("exec.lec_over_lsc_io",
              static_cast<double>(deterministic.det_lec_io) /
                  static_cast<double>(
                      std::max<uint64_t>(deterministic.det_lsc_io, 1)),
              "ratio");
  report->Add("stats.measure_ms", Quantile(stats_ms, 0.5), "ms");
}

Report RunAdaptiveExec(const RunConfig& config, Ledger* ledger) {
  Report report;
  ScopedCpuPin pin(kMeasuredCpus);
  lec::Optimizer optimizer;
  lec::CostModel model;

  // ---- Set-up: measured corpus, cache fill, first execution. ------------
  std::vector<double> setup_s;
  std::unique_ptr<AdaptiveWorld> world;
  std::unique_ptr<lec::PlanCache> cache;
  int repeats = config.trace ? 1 : kSetupRepeats;
  for (int r = 0; r < repeats; ++r) {
    world.reset();
    cache.reset();
    int64_t t0 = NowNs();
    world = std::make_unique<AdaptiveWorld>(
        BuildAdaptiveWorld(config.seed, kAdaptiveQueries));
    cache = std::make_unique<lec::PlanCache>();
    for (size_t i = 0; i < world->queries.size(); ++i) {
      const lec::Workload& w = world->queries[i].measured.workload;
      lec::OptimizeRequest req;
      req.query = &w.query;
      req.catalog = &w.catalog;
      req.model = &model;
      req.memory = &world->memory;
      req.chain = &*world->chain;
      req.options.plan_cache = cache.get();
      OptimizeResult lec_plan = optimizer.Optimize(StrategyId::kLecDynamic, req);
      optimizer.Optimize(StrategyId::kLsc, req);
      if (i == 0) {
        lec::ExecutePlanOptions eo;
        eo.memory_by_phase = {world->memory.Mean()};
        lec::ExecutePlan(lec_plan.plan, w.query,
                         ExecutableData(world->queries[i].measured), eo);
      }
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  uint64_t fp = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < world->queries.size(); ++i) {
    fp = Fnv(fp, lec::serde::ToString(
                     world->queries[i].measured.workload, lec::serde::Encoding::kBinary));
  }
  report.corpus_fingerprint = fp;
  report.notes.push_back(Format(
      "corpus: %zu measured chain queries (n=4-6), memory {3:0.4, 33:0.6} "
      "pages, drift chain over {3,5,9,17,33}; 1 closed-loop session",
      world->queries.size()));

  // `first` is the untraced loop (the whole run, or a traced run's first
  // part); it holds the deterministic prefix.
  AdaptiveTotals first;
  size_t round = 0;
  RunAdaptiveLoop(world.get(), cache.get(), optimizer, model,
                  config.trace ? 0.4 * config.seconds : config.seconds,
                  kDeterministicRounds, kDeterministicRounds, nullptr, &round,
                  &first, ledger);
  report.attempted = first.requests;
  if (!config.trace) {
    AddLatencyMetrics(first.latencies_us, first.done_s, first.elapsed_s,
                      kLatencyWindows, true, &report);
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("peak_rss_mb", PeakRssMb(), "MiB");
  } else {
    AdaptiveTotals totals;
    Tracer tracer;
    lec::PlanCache::Stats c0 = cache->stats();
    RunAdaptiveLoop(world.get(), cache.get(), optimizer, model,
                    0.4 * config.seconds, 1, kDeterministicRounds, &tracer,
                    &round, &totals, ledger);
    lec::PlanCache::Stats c1 = cache->stats();
    report.attempted += totals.requests;
    double overhead = Quantile(totals.latencies_us, 0.5) /
                          Quantile(first.latencies_us, 0.5) -
                      1.0;

    ReportExecLayers(totals, first, tracer, &report);
    size_t lookups = c1.lookups() - c0.lookups();
    report.Add("plan_cache.hit_rate",
               static_cast<double>(c1.hits - c0.hits) /
                   static_cast<double>(std::max<size_t>(lookups, 1)),
               "fraction");
    report.Add("plan_cache.evictions",
               static_cast<double>(c1.evictions - c0.evictions), "count");
    std::vector<double> inv_us;
    for (const Span& s : tracer.spans()) {
      if (std::string(s.name) == "plan_cache.invalidate") {
        inv_us.push_back(s.micros());
      }
    }
    report.Add("plan_cache.invalidate_us", Quantile(inv_us, 0.5), "us");
    report.Add("plan_cache.invalidated",
               static_cast<double>(totals.invalidated) /
                   static_cast<double>(std::max<size_t>(totals.drift_events, 1)),
               "count");
    report.Add("optimizer.facade_hit_us", Quantile(totals.facade_hit_us, 0.5),
               "us");
    report.Add("optimizer.ns_per_candidate",
               totals.facade_miss_candidates > 0
                   ? totals.facade_miss_ns /
                         static_cast<double>(totals.facade_miss_candidates)
                   : 0,
               "ns");

    // Wire, pipeline, rewrite and signature numbers are off this
    // workload's path: measured by serving the adaptive requests (warm)
    // through a real stack.
    std::vector<CorpusEntry> served;
    for (size_t i = 0; i < world->queries.size(); ++i) {
      CorpusEntry e;
      e.request = AdaptiveServeRequest(*world, i);
      e.shape = "chain";
      served.push_back(std::move(e));
    }
    Serialize(&served);
    {
      ServeStack stack(4096);
      ResultBook book(served.size());
      std::vector<uint32_t> sequence(served.size());
      std::iota(sequence.begin(), sequence.end(), 0u);
      // One pass fills the cache; the decomposition then serves warm.
      ServeSequentially(&stack, served,
                        std::vector<size_t>(sequence.begin(), sequence.end()),
                        &book, ledger);
      lec::ServePipeline::Stats p0 = stack.pipeline.stats();
      Tracer serve_tracer;
      Report serve_report;
      Decomposition d = DecomposeServe(
          &stack, served, sequence, &book, false, 0.1 * config.seconds,
          sequence, std::vector<double>(served.size(), 0.0), &serve_tracer,
          &serve_report, ledger);
      report.attempted += d.background_attempted;
      lec::ServePipeline::Stats p1 = stack.pipeline.stats();
      for (const Metric& metric : serve_report.metrics) {
        // The facade numbers come from this workload's own loop above.
        if (metric.name == "optimizer.facade_hit_us" ||
            metric.name == "optimizer.ns_per_candidate") {
          continue;
        }
        report.metrics.push_back(metric);
      }
      size_t submitted = p1.submitted - p0.submitted;
      report.Add("pipeline.coalesced_frac",
                 static_cast<double>(p1.coalesced - p0.coalesced) /
                     static_cast<double>(std::max<size_t>(submitted, 1)),
                 "fraction");
      report.Add("pipeline.rejected",
                 static_cast<double>(p1.rejected - p0.rejected), "count");
      report.Add("pipeline.degraded",
                 static_cast<double>(p1.degraded - p0.degraded), "count");
      report.Add("pipeline.queue_depth_hwm",
                 static_cast<double>(p1.queue_depth_hwm), "count");
    }
    MeasureEcKernels(served, 0.03 * config.seconds, &report);

    // Ladder: mean time per request, drift work amortized over the round.
    std::map<std::string, double> self = SelfMicrosByName(tracer.spans());
    double per_req = totals.elapsed_s * 1e6 /
                     static_cast<double>(std::max<size_t>(totals.requests, 1));
    double reqs = static_cast<double>(std::max<size_t>(totals.requests, 1));
    std::vector<LadderRow> rows = {
        {"optimizer", self["optimizer"] / reqs},
        {"exec", self["exec"] / reqs},
        {"stats", self["stats"] / reqs},
        {"plan_cache", self["plan_cache.invalidate"] / reqs},
    };
    double covered = 0;
    for (const LadderRow& r : rows) covered += r.us;
    rows.push_back({"session (trajectory, answer check)", per_req - covered});
    AddLadder(config.workload, rows, per_req,
              "wall time per request (1 session)", 0.0, overhead, &report);
    if (!config.span_dir.empty()) {
      tracer.WriteCsv(config.span_dir + "/" + config.workload + ".spans.csv",
                      200000);
    }
  }

  double det_requests =
      static_cast<double>(std::max<size_t>(first.det_requests, 1));
  double plan_ec_ratio = Mean(first.det_ec_ratios);
  double io_per_query = static_cast<double>(first.det_lec_io) / det_requests;
  double lec_over_lsc = static_cast<double>(first.det_lec_io) /
                        static_cast<double>(std::max<uint64_t>(first.det_lsc_io, 1));
  report.counters["plan_cache.hits"] = static_cast<double>(first.det_cache_hits);
  report.counters["plan_cache.misses"] =
      static_cast<double>(first.det_cache_misses);
  report.counters["optimizer.candidates"] =
      static_cast<double>(first.det_candidates);
  report.counters["optimizer.cost_evals"] =
      static_cast<double>(first.det_cost_evals);
  report.counters["exec.lec_io"] = static_cast<double>(first.det_lec_io);
  report.counters["exec.lsc_io"] = static_cast<double>(first.det_lsc_io);
  report.counters["plan_ec_ratio"] = plan_ec_ratio;
  report.counters["exec_io_per_query"] = io_per_query;
  report.counters["lec_over_lsc_exec_io"] = lec_over_lsc;
  report.notes.push_back(Format(
      "exec_io_per_query %.4f pages, lec_over_lsc_exec_io %.6f "
      "(first %zu rounds, %zu requests); %zu rounds total",
      io_per_query, lec_over_lsc, kDeterministicRounds, first.det_requests,
      round));
  if (!config.trace) {
    report.Add("plan_ec_ratio", plan_ec_ratio, "ratio");
  } else {
    report.Add("plan_cache.hits", static_cast<double>(first.det_cache_hits),
               "count");
    report.Add("plan_cache.misses",
               static_cast<double>(first.det_cache_misses), "count");
    report.Add("optimizer.candidates",
               static_cast<double>(first.det_candidates) / det_requests,
               "count");
    report.Add("optimizer.cost_evals",
               static_cast<double>(first.det_cost_evals) / det_requests,
               "count");
    double cand = static_cast<double>(first.det_candidates);
    double pruned = static_cast<double>(first.det_pruned);
    report.Add("optimizer.pruned_frac", pruned / std::max(pruned + cand, 1.0),
               "fraction");
  }
  return report;
}

}  // namespace lecbench
