// hot_serve and cold_optimize: wire-served workloads against the real
// serving stack, plus the serving-layer decomposition every workload's
// traced run uses.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <set>
#include <thread>

#include "dist/arena.h"
#include "cost/fast_expected_cost.h"
#include "rewrite/rewrite.h"
#include "verify/oracle.h"
#include "workloads.h"

namespace lecbench {

using lec::JoinGraphShape;
using lec::OptimizeResult;
using lec::StrategyId;

namespace {

constexpr size_t kHotCacheEntries = 4096;
/// Far below the cold corpus size: with per-shard LRU and a cyclic request
/// order every request misses, so the cache only inserts and evicts.
constexpr size_t kColdCacheEntries = 64;

// Hot corpus: structures x relabeled copies, drawn Zipf(1.1).
constexpr int kHotStructures = 240;
constexpr int kHotCopies = 3;
constexpr size_t kHotSequence = size_t{1} << 16;
constexpr double kZipfExponent = 1.1;
/// Requests of the Zipf sequence replayed for the deterministic cache
/// counters.
constexpr size_t kHotReplay = 8192;

// Cold corpus: every (shape, n, strategy) cell, kColdPerCell seeds each,
// interleaved so any prefix is stratified.
constexpr int kColdPerCell = 60;
constexpr int kColdWarmups = 16;

/// Plan quality check: a served LEC plan's EC may exceed the LSC plan's
/// only by rounding.
constexpr double kEcRatioSlack = 1e-9;

const char* ShapeName(JoinGraphShape shape) {
  switch (shape) {
    case JoinGraphShape::kChain:
      return "chain";
    case JoinGraphShape::kStar:
      return "star";
    case JoinGraphShape::kCycle:
      return "cycle";
    case JoinGraphShape::kClique:
      return "clique";
    case JoinGraphShape::kRandom:
      return "random";
  }
  return "?";
}

constexpr JoinGraphShape kLadderShapes[] = {
    JoinGraphShape::kChain, JoinGraphShape::kStar, JoinGraphShape::kCycle,
    JoinGraphShape::kClique};

/// Memory environments: wide, Example-1.1-like spreads so that LEC and LSC
/// plans differ on part of the corpus.
lec::Distribution MemoryChoice(lec::Rng* rng) {
  switch (rng->UniformInt(0, 2)) {
    case 0:
      return lec::Distribution({{64, 0.25}, {512, 0.5}, {4096, 0.25}});
    case 1:
      return lec::Distribution({{200, 0.5}, {20000, 0.5}});
    default:
      return lec::Distribution({{1000, 0.2}, {5000, 0.6}, {50000, 0.2}});
  }
}

/// lec_dynamic's drifting memory: a reflecting walk over four states.
lec::MarkovChain DriftChain() {
  return lec::MarkovChain::Drift({64, 512, 4096, 32768}, 0.6);
}

CorpusEntry MakeEntry(const char* strategy, lec::Workload workload,
                      lec::Distribution memory, JoinGraphShape shape) {
  CorpusEntry e;
  e.request.strategy = strategy;
  e.request.workload = std::move(workload);
  e.request.memory = std::move(memory);
  e.request.options.rewrite_mode = lec::RewriteMode::kOn;
  e.shape = ShapeName(shape);
  return e;
}

std::vector<CorpusEntry> BuildHotCorpus(uint64_t seed) {
  std::vector<CorpusEntry> corpus;
  const JoinGraphShape shapes[] = {JoinGraphShape::kChain,
                                   JoinGraphShape::kStar,
                                   JoinGraphShape::kCycle};
  for (int s = 0; s < kHotStructures; ++s) {
    lec::Rng rng(StreamSeed(seed, 1, static_cast<uint64_t>(s)));
    lec::WorkloadOptions wopts;
    wopts.shape = shapes[s % 3];
    wopts.num_tables = 8 + (s / 3) % 3;
    wopts.filter_probability = 0.25;
    wopts.redundant_edge_probability = 0.25;
    lec::Workload base = lec::GenerateWorkload(wopts, &rng);
    lec::Distribution memory = MemoryChoice(&rng);
    corpus.push_back(MakeEntry("lec_static", base, memory, wopts.shape));
    for (int c = 1; c < kHotCopies; ++c) {
      std::vector<int> perm = RandomPerm(wopts.num_tables, &rng);
      corpus.push_back(
          MakeEntry("lec_static", Relabel(base, perm), memory, wopts.shape));
    }
  }
  return corpus;
}

struct ColdCell {
  JoinGraphShape shape;
  int n;
  const char* strategy;
};

std::vector<ColdCell> ColdCells() {
  std::vector<ColdCell> cells;
  const char* strategies[] = {"lec_static", "algorithm_d", "lec_dynamic"};
  struct {
    JoinGraphShape shape;
    int lo, hi;
  } ranges[] = {{JoinGraphShape::kChain, 8, 12},
                {JoinGraphShape::kCycle, 8, 12},
                {JoinGraphShape::kStar, 8, 10},
                {JoinGraphShape::kClique, 8, 10}};
  for (const auto& r : ranges) {
    for (int n = r.lo; n <= r.hi; ++n) {
      for (const char* s : strategies) cells.push_back({r.shape, n, s});
    }
  }
  return cells;
}

CorpusEntry MakeColdEntry(const ColdCell& cell, uint64_t stream_seed) {
  lec::Rng rng(stream_seed);
  lec::WorkloadOptions wopts;
  wopts.shape = cell.shape;
  wopts.num_tables = cell.n;
  std::string strategy = cell.strategy;
  if (strategy == "algorithm_d") {
    wopts.selectivity_spread = 3.0;
    wopts.table_size_spread = 2.0;
  }
  lec::Workload w = lec::GenerateWorkload(wopts, &rng);
  if (strategy == "lec_dynamic") {
    lec::MarkovChain chain = DriftChain();
    lec::Distribution initial = rng.UniformInt(0, 1) == 0
                                    ? lec::Distribution({{512, 0.5}, {4096, 0.5}})
                                    : lec::Distribution({{64, 0.3}, {32768, 0.7}});
    CorpusEntry e = MakeEntry(cell.strategy, std::move(w), initial, cell.shape);
    e.request.chain = chain;
    return e;
  }
  return MakeEntry(cell.strategy, std::move(w), MemoryChoice(&rng), cell.shape);
}

std::vector<CorpusEntry> BuildColdCorpus(uint64_t seed) {
  std::vector<ColdCell> cells = ColdCells();
  std::vector<CorpusEntry> corpus;
  size_t total = cells.size() * kColdPerCell;
  for (size_t k = 0; k < total; ++k) {
    corpus.push_back(
        MakeColdEntry(cells[k % cells.size()], StreamSeed(seed, 2, k)));
    corpus.back().stratum = static_cast<int>(k % cells.size());
  }
  return corpus;
}

/// Warm-up requests for cold_optimize: same cells, seeds outside the corpus.
std::vector<CorpusEntry> BuildColdWarmups(uint64_t seed) {
  std::vector<ColdCell> cells = ColdCells();
  std::vector<CorpusEntry> out;
  for (int k = 0; k < kColdWarmups; ++k) {
    const ColdCell& cell = cells[static_cast<size_t>(k * 7) % cells.size()];
    if (cell.shape == JoinGraphShape::kClique && cell.n > 8) continue;
    out.push_back(MakeColdEntry(cell, StreamSeed(seed, 6, k)));
  }
  Serialize(&out);
  return out;
}

/// Zipf(1.1) request sequence over the hot corpus. Popularity rank r goes
/// to structure r mod kHotStructures (labeling r / kHotStructures), so the
/// head of the distribution always spans distinct structures of every
/// shape and size; the seed varies their contents and the draw order.
std::vector<uint32_t> ZipfSequence(size_t entries, uint64_t seed) {
  lec::Rng rng(StreamSeed(seed, 7));
  std::vector<uint32_t> rank_to_entry(entries);
  for (size_t r = 0; r < entries; ++r) {
    rank_to_entry[r] = static_cast<uint32_t>(
        (r % kHotStructures) * kHotCopies + (r / kHotStructures) % kHotCopies);
  }
  std::vector<double> cdf(entries);
  double total = 0;
  for (size_t r = 0; r < entries; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    cdf[r] = total;
  }
  std::vector<uint32_t> seq(kHotSequence);
  for (uint32_t& s : seq) {
    double u = rng.Uniform01() * total;
    size_t r = static_cast<size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    s = rank_to_entry[std::min(r, entries - 1)];
  }
  return seq;
}

/// Fills caches, thread-local arenas and connections before timing.
void WarmUp(ServeStack* stack, const std::vector<CorpusEntry>& corpus,
            bool cold, uint64_t seed, ResultBook* book, Ledger* ledger) {
  if (!cold) {
    // Every signature is served once (cache fill), then every entry again
    // from kClients connections at once (both workers, all hits).
    std::vector<size_t> all(corpus.size());
    std::iota(all.begin(), all.end(), size_t{0});
    ServeSequentially(stack, corpus, all, book, ledger);
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back(
          [&] { ServeSequentially(stack, corpus, all, book, ledger); });
    }
    for (std::thread& t : threads) t.join();
    return;
  }
  std::vector<CorpusEntry> warm = BuildColdWarmups(seed);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<size_t> mine;
      for (size_t i = static_cast<size_t>(c); i < warm.size(); i += kClients) {
        mine.push_back(i);
      }
      ServeSequentially(stack, warm, mine, nullptr, ledger);
    });
  }
  for (std::thread& t : threads) t.join();
}

/// Scores `plan` under the objective `strategy` minimizes (the oracle's
/// evaluator), on the rewritten query the plan is expressed in.
double Rescore(const OptimizeResult& result, StrategyId strategy,
               const lec::serde::ServeRequest& request,
               const lec::Query& query, const lec::Catalog& catalog,
               const lec::CostModel& model) {
  lec::verify::OracleOptions o;
  o.optimizer = request.options;
  o.size_buckets = request.options.size_buckets;
  switch (strategy) {
    case StrategyId::kLecDynamic:
      o.objective = lec::verify::OracleObjective::kLecDynamic;
      o.chain = &*request.chain;
      break;
    case StrategyId::kAlgorithmD:
      o.objective = lec::verify::OracleObjective::kMultiParam;
      break;
    default:
      o.objective = lec::verify::OracleObjective::kLecStatic;
      break;
  }
  return lec::verify::OraclePlanObjective(result.plan, query, catalog, model,
                                          request.memory, o);
}

struct CheckOutcome {
  OptimizeResult want;
  double ec_ratio = 1;
};

/// Uncached recompute of every corpus entry (parallel), bit-identity
/// against the first served result, and the EC ratio against LSC.
std::vector<CheckOutcome> CheckCorpus(const std::vector<CorpusEntry>& corpus,
                                      const ResultBook& book,
                                      const lec::Optimizer& optimizer,
                                      const lec::CostModel& model,
                                      Ledger* ledger) {
  std::vector<CheckOutcome> out(corpus.size());
  std::atomic<size_t> next{0};
  auto work = [&] {
    for (size_t i = next++; i < corpus.size(); i = next++) {
      const lec::serde::ServeRequest& req = corpus[i].request;
      try {
        StrategyId id = *lec::ParseStrategy(req.strategy);
        lec::OptimizeRequest oreq = ToOptimizeRequest(req, model);
        OptimizeResult want = optimizer.Optimize(id, oreq);
        const std::optional<OptimizeResult>& served = book.first(i);
        if (served && !BitIdentical(*served, want)) {
          ledger->Fail(Format("entry %zu: served plan differs from uncached "
                              "recompute (%.17g vs %.17g)",
                              i, served->objective, want.objective));
        }
        OptimizeResult lsc = optimizer.Optimize(StrategyId::kLsc, oreq);
        const lec::Query& q = want.rewrite ? want.rewrite->query
                                           : req.workload.query;
        const lec::Catalog& c = want.rewrite ? want.rewrite->catalog
                                             : req.workload.catalog;
        double ec_lec = Rescore(want, id, req, q, c, model);
        double ec_lsc = Rescore(lsc, id, req, q, c, model);
        double ratio = ec_lec / ec_lsc;
        if (!(ratio <= 1 + kEcRatioSlack) || !std::isfinite(ratio)) {
          ledger->Fail(Format("entry %zu (%s %s): plan EC ratio %.17g > 1", i,
                              req.strategy.c_str(), corpus[i].shape.c_str(),
                              ratio));
        }
        out[i].want = std::move(want);
        out[i].ec_ratio = ratio;
      } catch (const std::exception& e) {
        ledger->Fail(Format("entry %zu: recompute threw: %s", i, e.what()));
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) threads.emplace_back(work);
  for (std::thread& t : threads) t.join();
  return out;
}

/// Replays a prefix of the request sequence through a fresh PlanCache of
/// the server's configuration (signature, lookup, insert on miss): the
/// deterministic hit/miss counters of the workload's access pattern.
lec::PlanCache::Stats ReplayCache(const std::vector<CorpusEntry>& corpus,
                                  const std::vector<CheckOutcome>& checked,
                                  const std::vector<uint32_t>& sequence,
                                  size_t replay, size_t cache_entries,
                                  const lec::CostModel& model) {
  lec::PlanCache::Options copts;
  copts.max_entries = cache_entries;
  lec::PlanCache cache(copts);
  for (size_t k = 0; k < replay; ++k) {
    size_t i = sequence[k % sequence.size()];
    const lec::serde::ServeRequest& req = corpus[i].request;
    const OptimizeResult& want = checked[i].want;
    if (!want.plan) continue;
    lec::OptimizeRequest eff = ToOptimizeRequest(req, model);
    if (want.rewrite) {
      eff.query = &want.rewrite->query;
      eff.catalog = &want.rewrite->catalog;
    }
    lec::QuerySignature sig = lec::QuerySignature::Compute(
        *lec::ParseStrategy(req.strategy), eff);
    if (!cache.Lookup(sig)) cache.Insert(sig, want);
  }
  return cache.stats();
}

}  // namespace

// ---------------------------------------------------------------------------
// Shared serving pieces.
// ---------------------------------------------------------------------------

void Serialize(std::vector<CorpusEntry>* corpus) {
  for (CorpusEntry& e : *corpus) {
    e.payload = lec::EncodeWireRequest(
        e.request, std::numeric_limits<double>::infinity(),
        lec::serde::Encoding::kBinary);
  }
}

uint64_t Fingerprint(const std::vector<CorpusEntry>& corpus) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const CorpusEntry& e : corpus) h = Fnv(h, e.payload);
  return h;
}

namespace {

lec::ServePipeline::Options PipelineOptions(lec::PlanCache* cache,
                                            const lec::Optimizer* optimizer,
                                            const lec::CostModel* model) {
  lec::ServePipeline::Options o;
  o.workers = kWorkers;
  o.plan_cache = cache;
  o.optimizer = optimizer;
  o.model = model;
  return o;
}

lec::PlanCache::Options CacheOptions(size_t entries) {
  lec::PlanCache::Options o;
  o.max_entries = entries;
  return o;
}

}  // namespace

ServeStack::ServeStack(size_t cache_entries)
    : cache(CacheOptions(cache_entries)),
      pipeline(PipelineOptions(&cache, &optimizer, &model)),
      server(&pipeline, lec::WireServer::Options{}) {}

lec::OptimizeRequest ToOptimizeRequest(const lec::serde::ServeRequest& request,
                                       const lec::CostModel& model) {
  lec::OptimizeRequest r;
  r.query = &request.workload.query;
  r.catalog = &request.workload.catalog;
  r.model = &model;
  r.memory = &request.memory;
  r.options = request.options;
  r.lsc_estimate = request.lsc_estimate;
  r.top_c = request.top_c;
  if (request.chain) r.chain = &*request.chain;
  r.seed = request.seed;
  r.randomized_restarts = request.randomized_restarts;
  r.randomized_patience = request.randomized_patience;
  r.sample_predicate = request.sample_predicate;
  return r;
}

bool ResultBook::Record(size_t index, const OptimizeResult& result) {
  std::lock_guard<std::mutex> lock(mu_);
  std::optional<OptimizeResult>& slot = slots_[index];
  if (!slot) {
    slot = result;
    return true;
  }
  return BitIdentical(*slot, result);
}

void ServeSequentially(ServeStack* stack, const std::vector<CorpusEntry>& corpus,
                       const std::vector<size_t>& indices, ResultBook* book,
                       Ledger* ledger) {
  try {
    lec::WireClient client(stack->server.port());
    for (size_t i : indices) {
      lec::WireResponse resp =
          lec::DecodeWireResponse(client.CallRaw(corpus[i].payload));
      if (resp.status != lec::ServeStatus::kOk || !resp.result) {
        ledger->Fail("warm-up request " + std::to_string(i) + ": " +
                     std::string(lec::ServeStatusName(resp.status)) + " " +
                     resp.error);
      } else if (book != nullptr && !book->Record(i, *resp.result)) {
        ledger->Fail("warm-up result differs from first serve");
      }
    }
  } catch (const std::exception& e) {
    ledger->Fail(std::string("warm-up transport: ") + e.what());
  }
}

LoopResult RunClosedLoop(ServeStack* stack,
                         const std::vector<CorpusEntry>& corpus,
                         const std::vector<uint32_t>& sequence,
                         std::atomic<size_t>* cursor, double seconds,
                         int num_clients, ResultBook* book, Tracer* tracer,
                         Ledger* ledger) {
  struct ClientState {
    std::vector<double> latencies_us;
    std::vector<uint32_t> entries;
    std::vector<double> done_s;
    size_t attempted = 0;
    Tracer tracer;
  };
  std::vector<ClientState> clients(static_cast<size_t>(num_clients));
  int64_t start = NowNs();
  int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < num_clients; ++c) {
    threads.emplace_back([&, c] {
      ClientState& me = clients[static_cast<size_t>(c)];
      me.latencies_us.reserve(1 << 16);
      me.entries.reserve(1 << 16);
      try {
        lec::WireClient client(stack->server.port());
        while (NowNs() < deadline) {
          size_t k = cursor->fetch_add(1);
          uint32_t idx = sequence[k % sequence.size()];
          ++me.attempted;
          int32_t span =
              tracer != nullptr ? me.tracer.Begin("wire.rtt", k) : -1;
          int64_t t0 = NowNs();
          std::string bytes = client.CallRaw(corpus[idx].payload);
          lec::WireResponse resp = lec::DecodeWireResponse(bytes);
          int64_t t1 = NowNs();
          if (span >= 0) me.tracer.End(span);
          if (resp.status != lec::ServeStatus::kOk || !resp.result) {
            ledger->Fail(Format("request %zu: %s %s", k,
                                std::string(lec::ServeStatusName(resp.status))
                                    .c_str(),
                                resp.error.c_str()));
            continue;
          }
          if (!book->Record(idx, *resp.result)) {
            ledger->Fail(Format("request %zu (entry %u): served plan differs "
                                "from the entry's first serve",
                                k, idx));
            continue;
          }
          me.latencies_us.push_back(static_cast<double>(t1 - t0) / 1e3);
          me.done_s.push_back(static_cast<double>(t1 - start) / 1e9);
          me.entries.push_back(idx);
        }
      } catch (const std::exception& e) {
        ledger->Fail(std::string("transport: ") + e.what());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoopResult out;
  out.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  for (ClientState& c : clients) {
    out.attempted += c.attempted;
    out.latencies_us.insert(out.latencies_us.end(), c.latencies_us.begin(),
                            c.latencies_us.end());
    out.entries.insert(out.entries.end(), c.entries.begin(), c.entries.end());
    out.done_s.insert(out.done_s.end(), c.done_s.begin(), c.done_s.end());
    if (tracer != nullptr) tracer->Append(c.tracer);
  }
  return out;
}

std::vector<double> MeanLatencyByEntry(const LoopResult& loop,
                                       size_t entries) {
  std::vector<double> sum(entries, 0.0), count(entries, 0.0);
  for (size_t i = 0; i < loop.entries.size(); ++i) {
    sum[loop.entries[i]] += loop.latencies_us[i];
    count[loop.entries[i]] += 1;
  }
  for (size_t e = 0; e < entries; ++e) {
    sum[e] = count[e] > 0 ? sum[e] / count[e] : -1.0;
  }
  return sum;
}

Decomposition DecomposeServe(ServeStack* stack,
                             const std::vector<CorpusEntry>& corpus,
                             const std::vector<uint32_t>& sequence,
                             ResultBook* book, bool cold, double budget_s,
                             const std::vector<uint32_t>& order,
                             const std::vector<double>& loaded_by_entry,
                             Tracer* tracer, Report* report, Ledger* ledger) {
  Decomposition out;
  if (order.empty()) {
    ledger->Fail("decomposition: no served entries to decompose");
    return out;
  }
  const lec::rewrite::PassManager passes = lec::rewrite::StandardPassManager();
  lec::PlanCache probe_cache;  // off-path insert probe for warm workloads
  std::map<std::string, std::vector<double>> dur;  // span name -> us
  std::vector<double> wire_self, pipeline_self, req_bytes, resp_bytes,
      rewrite_applied;
  std::map<std::string, std::vector<double>> cold_by_shape;  // ms
  double miss_ns = 0, miss_candidates = 0;
  // Per decomposed request: its entry and its layer times, which sum to
  // the request's own round trip (the optimizer row is the facade time the
  // server stamped on that very response, minus the rewrite and cache
  // calls measured here).
  struct Row {
    size_t entry;
    double rtt, wire, pipeline, rewrite, plan_cache, optimizer;
  };
  std::vector<Row> rows;
  Tracer local;
  auto timed = [&](const char* name, uint64_t k, int32_t parent, auto&& fn) {
    int32_t id = local.Begin(name, k, parent);
    fn();
    local.End(id);
    dur[name].push_back(local.spans()[static_cast<size_t>(id)].micros());
    return id;
  };
  auto us = [&](int32_t s) {
    return local.spans()[static_cast<size_t>(s)].micros();
  };
  // One background session keeps the stack at the benchmark's load level
  // while this thread issues the layer calls (an idle stack pays thread
  // wake-ups a loaded one does not). Everything that can throw below is
  // inside the try, so the thread is always joined.
  LoopResult background;
  std::atomic<size_t> background_cursor{sequence.size() / 2};
  std::thread background_thread([&] {
    background = RunClosedLoop(stack, corpus, sequence, &background_cursor,
                               budget_s, 1, book, nullptr, ledger);
  });
  int64_t deadline = NowNs() + static_cast<int64_t>(budget_s * 1e9);
  try {
    lec::WireClient client(stack->server.port());
    for (uint64_t k = 0; NowNs() < deadline || k < 8; ++k) {
      const size_t entry = order[k % order.size()];
      const CorpusEntry& e = corpus[entry];
      StrategyId id = *lec::ParseStrategy(e.request.strategy);
      lec::OptimizeRequest oreq = ToOptimizeRequest(e.request, stack->model);
      oreq.options.plan_cache = &stack->cache;

      // Warm requests repeat each remote call once untimed first, so the
      // timed call finds its connection and worker threads awake, as they
      // are under load; cold calls are DP-bound and run once.
      if (cold) stack->cache.Clear();
      if (!cold) client.CallRaw(e.payload);
      std::string bytes;
      lec::WireResponse resp;
      int32_t s_wire = timed("wire", k, -1, [&] {
        bytes = client.CallRaw(e.payload);
        resp = lec::DecodeWireResponse(bytes);
      });
      if (cold) stack->cache.Clear();
      if (!cold) stack->pipeline.Submit(e.request).Wait();
      lec::ServeOutcome outcome;
      int32_t s_pipe = timed("pipeline", k, s_wire, [&] {
        outcome = stack->pipeline.Submit(e.request).Wait();
      });
      double codec = 0;
      codec += us(timed("wire.encode_req", k, s_wire, [&] {
        std::string p = lec::EncodeWireRequest(
            e.request, std::numeric_limits<double>::infinity(),
            lec::serde::Encoding::kBinary);
        if (p != e.payload) ledger->Fail("request re-encode differs");
      }));
      codec += us(timed("wire.decode_req", k, s_wire, [&] {
        lec::WireRequest r = lec::DecodeWireRequest(e.payload);
        if (r.request.strategy != e.request.strategy) ledger->Fail("decode");
      }));
      codec += us(timed("wire.encode_resp", k, s_wire, [&] {
        std::string p = lec::EncodeWireResponse(lec::OutcomeToWire(outcome));
        if (p.empty()) ledger->Fail("empty response encoding");
      }));
      codec += us(timed("wire.decode_resp", k, s_wire, [&] {
        lec::WireResponse r = lec::DecodeWireResponse(bytes);
        if (r.status != resp.status) ledger->Fail("response decode differs");
      }));
      if (resp.status != lec::ServeStatus::kOk || !resp.result ||
          outcome.status != lec::ServeStatus::kOk ||
          !BitIdentical(*resp.result, outcome.result)) {
        ledger->Fail(Format("decomposition entry %zu: wire and pipeline "
                            "serves disagree",
                            entry));
        continue;
      }

      if (cold) stack->cache.Clear();
      OptimizeResult res;
      int32_t s_opt = timed("optimizer", k, s_pipe,
                            [&] { res = stack->optimizer.Optimize(id, oreq); });
      lec::OptimizeRequest eff = oreq;
      lec::rewrite::RewriteOutcome rw;
      bool rewrite_on = e.request.options.rewrite_mode == lec::RewriteMode::kOn;
      // Off the path (rewrite off), the pass pipeline is probed as a root
      // span so rewrite.us is still measured on this corpus.
      int32_t s_rw = timed("rewrite", k, rewrite_on ? s_opt : -1, [&] {
        rw = passes.Run(*oreq.query, *oreq.catalog,
                        oreq.options.size_buckets);
      });
      rewrite_applied.push_back(static_cast<double>(rw.total_applied()));
      if (rewrite_on) {
        eff.query = &rw.query;
        eff.catalog = &rw.catalog;
      }
      lec::QuerySignature sig;
      double cache_us = us(timed("plan_cache.signature", k, s_opt, [&] {
        sig = lec::QuerySignature::Compute(id, eff);
      }));
      if (cold) stack->cache.Clear();
      cache_us += us(timed("plan_cache.lookup", k, s_opt, [&] {
        std::optional<OptimizeResult> hit = stack->cache.Lookup(sig);
        if (!cold && !hit) ledger->Fail("warm cache missed a served entry");
      }));
      double miss_us = 0;
      if (cold) {
        cache_us += us(timed("plan_cache.insert", k, s_opt,
                             [&] { stack->cache.Insert(sig, res); }));
        // Off-path probe: the hit path on the entry just inserted.
        timed("optimizer.hit", k, -1, [&] {
          OptimizeResult hit = stack->optimizer.Optimize(id, oreq);
          if (!BitIdentical(hit, res)) ledger->Fail("hit differs from miss");
        });
        miss_us = us(s_opt);
        miss_candidates += static_cast<double>(res.candidates_considered);
      } else {
        timed("plan_cache.insert", k, -1, [&] { probe_cache.Insert(sig, res); });
        // Off-path probe: the uncached miss path for the same request.
        lec::OptimizeRequest uncached = oreq;
        uncached.options.plan_cache = nullptr;
        OptimizeResult fresh;
        miss_us = us(timed("optimizer.cold", k, -1, [&] {
          fresh = stack->optimizer.Optimize(id, uncached);
        }));
        miss_candidates += static_cast<double>(fresh.candidates_considered);
        if (!BitIdentical(fresh, res)) ledger->Fail("cache hit != recompute");
      }
      miss_ns += miss_us * 1e3;
      cold_by_shape[e.shape].push_back(miss_us / 1e3);

      double facade_in_rtt = resp.result->elapsed_seconds * 1e6;
      double facade_in_pipe = outcome.result.elapsed_seconds * 1e6;
      double pipe_self = us(s_pipe) - facade_in_pipe;
      double w_self = us(s_wire) - codec - pipe_self - facade_in_rtt;
      double rewrite_us = rewrite_on ? us(s_rw) : 0.0;
      wire_self.push_back(w_self);
      pipeline_self.push_back(pipe_self);
      rows.push_back({entry, us(s_wire), w_self + codec, pipe_self,
                      rewrite_us, cache_us,
                      facade_in_rtt - rewrite_us - cache_us});
      req_bytes.push_back(static_cast<double>(e.payload.size()));
      resp_bytes.push_back(static_cast<double>(bytes.size()));
      ++out.requests;
    }
  } catch (const std::exception& ex) {
    ledger->Fail(std::string("decomposition: ") + ex.what());
  }
  background_thread.join();
  out.background_attempted = background.attempted;

  // Ladder inputs: mean over strata of each stratum's mean, over entries
  // the loaded phase served (so layer times and loaded latency cover the
  // same entries).
  std::map<int, std::vector<const Row*>> by_stratum;
  for (const Row& r : rows) {
    if (loaded_by_entry[r.entry] >= 0) {
      by_stratum[corpus[r.entry].stratum].push_back(&r);
    }
  }
  for (const auto& [stratum, members] : by_stratum) {
    double w = 1.0 / static_cast<double>(members.size() * by_stratum.size());
    for (const Row* r : members) {
      out.rtt_us += w * r->rtt;
      out.loaded_us += w * loaded_by_entry[r->entry];
      out.self_us["wire"] += w * r->wire;
      out.self_us["pipeline"] += w * r->pipeline;
      out.self_us["rewrite"] += w * r->rewrite;
      out.self_us["plan_cache"] += w * r->plan_cache;
      out.self_us["optimizer"] += w * r->optimizer;
    }
  }

  auto median = [&](const char* name) { return Quantile(dur[name], 0.5); };
  report->Add("wire.rtt_us", median("wire"), "us");
  report->Add("wire.decode_req_us", median("wire.decode_req"), "us");
  report->Add("wire.encode_resp_us", median("wire.encode_resp"), "us");
  report->Add("wire.req_bytes", Mean(req_bytes), "bytes");
  report->Add("wire.resp_bytes", Mean(resp_bytes), "bytes");
  report->Add("wire.overhead_us", Quantile(wire_self, 0.5), "us");
  report->Add("pipeline.submit_wait_us", median("pipeline"), "us");
  report->Add("pipeline.overhead_us", Quantile(pipeline_self, 0.5), "us");
  report->Add("plan_cache.signature_us", median("plan_cache.signature"), "us");
  report->Add("plan_cache.lookup_us", median("plan_cache.lookup"), "us");
  report->Add("plan_cache.insert_us", median("plan_cache.insert"), "us");
  report->Add("rewrite.us", median("rewrite"), "us");
  report->Add("rewrite.applied", Mean(rewrite_applied), "count");
  report->Add("optimizer.facade_hit_us",
              cold ? median("optimizer.hit") : median("optimizer"), "us");
  report->Add("optimizer.ns_per_candidate",
              miss_candidates > 0 ? miss_ns / miss_candidates : 0, "ns");
  for (JoinGraphShape shape : kLadderShapes) {
    std::string name = ShapeName(shape);
    auto it = cold_by_shape.find(name);
    double ms = it != cold_by_shape.end()
                    ? Quantile(it->second, 0.5)
                    : ProbeColdMs(shape, Fingerprint(corpus), stack->optimizer,
                                  stack->model);
    report->Add("optimizer.cold_ms." + name, ms, "ms");
  }
  if (tracer != nullptr) tracer->Append(local);
  return out;
}

void MeasureEcKernels(const std::vector<CorpusEntry>& corpus, double budget_s,
                      Report* report) {
  lec::DistArena arena;
  double sink = 0;
  for (lec::JoinMethod method : lec::kAllJoinMethods) {
    int64_t deadline =
        NowNs() + static_cast<int64_t>(budget_s / 3 * 1e9);
    double ns = 0;
    size_t evals = 0;
    for (size_t k = 0; NowNs() < deadline || evals == 0; ++k) {
      const lec::serde::ServeRequest& req = corpus[k % corpus.size()].request;
      const lec::Query& q = req.workload.query;
      const lec::Catalog& c = req.workload.catalog;
      arena.Reset();
      lec::EcMemoryProfile profile =
          lec::BuildEcMemoryProfile(req.memory.AsView(), &arena);
      for (const lec::JoinPredicate& p : q.predicates()) {
        lec::Distribution left = c.table(q.table(p.left)).SizeDistribution();
        lec::Distribution right = c.table(q.table(p.right)).SizeDistribution();
        constexpr int kReps = 32;
        int64_t t0 = NowNs();
        for (int r = 0; r < kReps; ++r) {
          sink += lec::FastEcJoin(method, left.AsView(), right.AsView(),
                                  profile, left.Mean(), right.Mean());
        }
        ns += static_cast<double>(NowNs() - t0);
        evals += kReps;
      }
    }
    const char* name = method == lec::JoinMethod::kNestedLoop  ? "nested_loop"
                       : method == lec::JoinMethod::kSortMerge ? "sort_merge"
                                                               : "grace_hash";
    report->Add(std::string("cost.ec_eval_ns.") + name,
                ns / static_cast<double>(evals), "ns");
  }
  if (!std::isfinite(sink)) report->notes.push_back("EC kernel sink not finite");
}

double ProbeColdMs(JoinGraphShape shape, uint64_t seed,
                   const lec::Optimizer& optimizer,
                   const lec::CostModel& model) {
  std::vector<double> ms;
  for (int i = 0; i < 3; ++i) {
    lec::Rng rng(StreamSeed(seed, 8, static_cast<uint64_t>(i)));
    lec::WorkloadOptions wopts;
    wopts.shape = shape;
    wopts.num_tables = 8;
    lec::Workload w = lec::GenerateWorkload(wopts, &rng);
    lec::Distribution memory = MemoryChoice(&rng);
    lec::OptimizeRequest r;
    r.query = &w.query;
    r.catalog = &w.catalog;
    r.model = &model;
    r.memory = &memory;
    r.options.rewrite_mode = lec::RewriteMode::kOn;
    int64_t t0 = NowNs();
    optimizer.Optimize(StrategyId::kLecStatic, r);
    ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
  }
  return Quantile(ms, 0.5);
}

void AddLadder(const std::string& workload, const std::vector<LadderRow>& rows,
               double e2e_us, const std::string& e2e_label,
               double queueing_share, double trace_overhead_frac,
               Report* report) {
  static const char* kLadderLayers[] = {"wire",      "pipeline", "rewrite",
                                        "plan_cache", "optimizer", "exec",
                                        "stats"};
  report->notes.push_back(Format("layer ladder (%s), per request:",
                                 workload.c_str()));
  report->notes.push_back(Format("  %-36s %12s %8s", "layer", "us/request",
                                 "share"));
  for (const LadderRow& row : rows) {
    report->notes.push_back(Format("  %-36s %12.2f %7.1f%%", row.layer.c_str(),
                                   row.us, 100.0 * row.us / e2e_us));
  }
  report->notes.push_back(Format("  %-36s %12.2f %7.1f%%", e2e_label.c_str(),
                                 e2e_us, 100.0));
  report->notes.push_back(Format("  tracing overhead (traced vs untraced "
                                 "median latency): %+.2f%%",
                                 100.0 * trace_overhead_frac));
  for (const char* layer : kLadderLayers) {
    double us = 0;
    for (const LadderRow& row : rows) {
      if (row.layer == layer) us += row.us;
    }
    report->Add(std::string("share.") + layer, us / e2e_us, "fraction");
  }
  report->Add("share.queueing", queueing_share, "fraction");
  report->Add("trace.overhead_frac", trace_overhead_frac, "fraction");
}

// ---------------------------------------------------------------------------
// hot_serve / cold_optimize.
// ---------------------------------------------------------------------------

Report RunServeWorkload(const RunConfig& config, Ledger* ledger) {
  const bool cold = config.workload == "cold_optimize";
  const size_t cache_entries = cold ? kColdCacheEntries : kHotCacheEntries;
  Report report;
  auto pin = std::make_unique<ScopedCpuPin>(kMeasuredCpus);

  // ---- Set-up: corpus, pre-serialization, server start, warm-up. --------
  std::vector<double> setup_s;
  std::unique_ptr<ServeStack> stack;
  std::vector<CorpusEntry> corpus;
  std::vector<uint32_t> sequence;
  std::unique_ptr<ResultBook> book;
  int repeats = config.trace ? 1 : kSetupRepeats;
  for (int r = 0; r < repeats; ++r) {
    stack.reset();
    int64_t t0 = NowNs();
    corpus = cold ? BuildColdCorpus(config.seed) : BuildHotCorpus(config.seed);
    Serialize(&corpus);
    if (cold) {
      sequence.resize(corpus.size());
      std::iota(sequence.begin(), sequence.end(), 0u);
    } else {
      sequence = ZipfSequence(corpus.size(), config.seed);
    }
    stack = std::make_unique<ServeStack>(cache_entries);
    book = std::make_unique<ResultBook>(corpus.size());
    WarmUp(stack.get(), corpus, cold, config.seed, book.get(), ledger);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  report.corpus_fingerprint = Fingerprint(corpus);
  report.notes.push_back(Format(
      "corpus: %zu requests (%s), cache capacity %zu, %d clients x %d workers",
      corpus.size(),
      cold ? "distinct, cycled" : "structures x 3 labelings, Zipf(1.1)",
      cache_entries, kClients, kWorkers));

  lec::PlanCache::Stats cache0 = stack->cache.stats();
  lec::ServePipeline::Stats pipe0 = stack->pipeline.stats();
  std::atomic<size_t> cursor{0};
  Tracer tracer;
  if (!config.trace) {
    LoopResult loop = RunClosedLoop(stack.get(), corpus, sequence, &cursor,
                                    config.seconds, kClients, book.get(),
                                    nullptr, ledger);
    report.attempted = loop.attempted;
    // cold_optimize's tail is set by its heaviest corpus cell, which one
    // window samples only a few times, so its p99 is taken over the run.
    AddLatencyMetrics(loop.latencies_us, loop.done_s, loop.elapsed_s,
                      kLatencyWindows, !cold, &report);
    report.Add("setup_s", Median(setup_s), "s");
    // Before the checks, whose recomputes would dominate the peak.
    report.Add("peak_rss_mb", PeakRssMb(), "MiB");
  } else {
    // Untraced and traced halves of the same load: the difference of their
    // medians is the tracing overhead.
    LoopResult plain = RunClosedLoop(stack.get(), corpus, sequence, &cursor,
                                     0.3 * config.seconds, kClients,
                                     book.get(), nullptr, ledger);
    LoopResult traced = RunClosedLoop(stack.get(), corpus, sequence, &cursor,
                                      0.3 * config.seconds, kClients,
                                      book.get(), &tracer, ledger);
    report.attempted = plain.attempted + traced.attempted;
    double overhead = Quantile(traced.latencies_us, 0.5) /
                          Quantile(plain.latencies_us, 0.5) -
                      1.0;
    lec::PlanCache::Stats cache1 = stack->cache.stats();
    lec::ServePipeline::Stats pipe1 = stack->pipeline.stats();
    size_t lookups = cache1.lookups() - cache0.lookups();
    size_t misses = cache1.misses - cache0.misses;
    size_t submitted = pipe1.submitted - pipe0.submitted;
    report.Add("plan_cache.hit_rate",
               lookups > 0 ? static_cast<double>(cache1.hits - cache0.hits) /
                                 static_cast<double>(lookups)
                           : 0,
               "fraction");
    report.Add("plan_cache.evictions",
               static_cast<double>(cache1.evictions - cache0.evictions),
               "count");
    report.Add("pipeline.coalesced_frac",
               submitted > 0 ? static_cast<double>(pipe1.coalesced -
                                                   pipe0.coalesced) /
                                   static_cast<double>(submitted)
                             : 0,
               "fraction");
    report.Add("pipeline.rejected",
               static_cast<double>(pipe1.rejected - pipe0.rejected), "count");
    report.Add("pipeline.degraded",
               static_cast<double>(pipe1.degraded - pipe0.degraded), "count");
    report.Add("pipeline.queue_depth_hwm",
               static_cast<double>(pipe1.queue_depth_hwm), "count");

    // Decompose the entries in the order the traced phase served them, so
    // every decomposed request has a loaded latency to compare with.
    Decomposition d = DecomposeServe(
        stack.get(), corpus, sequence, book.get(), cold,
        0.25 * config.seconds, traced.entries,
        MeanLatencyByEntry(traced, corpus.size()), &tracer, &report, ledger);
    report.attempted += d.background_attempted;
    MeasureEcKernels(corpus, 0.03 * config.seconds, &report);

    // Invalidation probe (off this workload's path): drop the entries that
    // consumed a few corpus memory distributions.
    {
      std::vector<double> us;
      size_t dropped = 0;
      for (size_t i = 0; i < std::min<size_t>(corpus.size(), 24); ++i) {
        int64_t t0 = NowNs();
        dropped += stack->cache.InvalidateDistribution(
            corpus[i].request.workload.catalog
                .table(corpus[i].request.workload.query.table(0))
                .SizeDistribution()
                .ContentHash());
        us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      }
      report.Add("plan_cache.invalidate_us", Quantile(us, 0.5), "us");
      report.Add("plan_cache.invalidated", static_cast<double>(dropped),
                 "count");
    }

    // exec.* and stats.* (off this workload's path): a short adaptive loop
    // over a small seeded world.
    {
      AdaptiveWorld world = BuildAdaptiveWorld(StreamSeed(config.seed, 9), 8);
      lec::PlanCache cache;
      AdaptiveTotals totals;
      Tracer exec_tracer;
      size_t rounds = 0;
      RunAdaptiveLoop(&world, &cache, stack->optimizer, stack->model,
                      0.07 * config.seconds, 4, 4, &exec_tracer, &rounds,
                      &totals, ledger);
      ReportExecLayers(totals, totals, exec_tracer, &report);
    }

    // Ladder: per-layer times of the decomposed requests, which sum to
    // their own round trip; the traced phase's latency for the same
    // entries, minus that round trip, is queueing and contention under the
    // full 2x2 load.
    double miss_fraction = static_cast<double>(misses) /
                           static_cast<double>(std::max<size_t>(lookups, 1));
    std::vector<LadderRow> rows;
    for (const char* layer :
         {"wire", "pipeline", "rewrite", "plan_cache", "optimizer"}) {
      rows.push_back({layer, d.self_us[layer]});
    }
    double queueing = d.loaded_us - d.rtt_us;
    AddLadder(config.workload, rows, d.rtt_us,
              "round trip (1 background session)", queueing / d.loaded_us,
              overhead, &report);
    report.notes.push_back(Format(
        "  loaded latency of the same entries (2 sessions): %.2f us; "
        "queueing + contention %+.2f us (%+.1f%%)",
        d.loaded_us, queueing, 100.0 * queueing / d.loaded_us));
    report.notes.push_back(Format(
        "  optimizer %s; cache misses in the loaded phases: %.4f of lookups",
        cold ? "row = miss path (rewrite/signature/probe excluded): DP + cost "
               "kernels"
             : "row = hit path only (no DP runs on a warm cache)",
        miss_fraction));
    report.notes.push_back(Format("  decomposed requests: %zu, their mean "
                                  "round trip %.2f us under 1 background "
                                  "session",
                                  d.requests, d.rtt_us));
  }

  // ---- Checks: recompute, EC ratio, deterministic counters. -------------
  pin.reset();  // check threads may use every CPU
  std::vector<CheckOutcome> checked =
      CheckCorpus(corpus, *book, stack->optimizer, stack->model, ledger);
  double ratio_sum = 0;
  double candidates = 0, cost_evals = 0, pruned = 0;
  size_t served_distinct = 0;
  for (size_t i = 0; i < corpus.size(); ++i) {
    ratio_sum += checked[i].ec_ratio;
    candidates += static_cast<double>(checked[i].want.candidates_considered);
    cost_evals += static_cast<double>(checked[i].want.cost_evaluations);
    pruned += static_cast<double>(checked[i].want.pruned_candidates);
    if (book->first(i)) ++served_distinct;
  }
  double n = static_cast<double>(corpus.size());
  double plan_ec_ratio = ratio_sum / n;
  size_t replay = cold ? 2 * corpus.size() : kHotReplay;
  lec::PlanCache::Stats replayed = ReplayCache(
      corpus, checked, sequence, replay, cache_entries, stack->model);
  report.counters["plan_cache.hits"] = static_cast<double>(replayed.hits);
  report.counters["plan_cache.misses"] = static_cast<double>(replayed.misses);
  report.counters["optimizer.candidates"] = candidates;
  report.counters["optimizer.cost_evals"] = cost_evals;
  report.counters["plan_ec_ratio"] = plan_ec_ratio;
  report.notes.push_back(Format(
      "checked: %zu distinct requests recomputed uncached, %zu of them served "
      "(each served response matched its entry's first serve)",
      corpus.size(), served_distinct));
  if (!config.trace) {
    report.Add("plan_ec_ratio", plan_ec_ratio, "ratio");
  } else {
    report.Add("plan_cache.hits", static_cast<double>(replayed.hits), "count");
    report.Add("plan_cache.misses", static_cast<double>(replayed.misses),
               "count");
    report.Add("optimizer.candidates", candidates / n, "count");
    report.Add("optimizer.cost_evals", cost_evals / n, "count");
    report.Add("optimizer.pruned_frac", pruned / (pruned + candidates),
               "fraction");
    if (!config.span_dir.empty()) {
      tracer.WriteCsv(config.span_dir + "/" + config.workload + ".spans.csv",
                      200000);
    }
  }
  return report;
}

}  // namespace lecbench
