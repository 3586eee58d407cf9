#include "optimizer/dp_common.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cost/cost_policies.h"
#include "cost/ec_cache.h"
#include "dist/builders.h"
#include "dist/simd.h"
#include "optimizer/algorithm_d.h"
#include "optimizer/exhaustive.h"
#include "plan/plan.h"
#include "query/generator.h"
#include "util/rng.h"
#include "verify/tolerance.h"

namespace lec {
namespace {

struct ChainFixture {
  Catalog catalog;
  Query query;
  OptimizerOptions options;

  ChainFixture() {
    catalog.AddTable("A", 100);
    catalog.AddTable("B", 200);
    catalog.AddTable("C", 400);
    query.AddTable(0);
    query.AddTable(1);
    query.AddTable(2);
    query.AddPredicate(0, 1, 0.01);
    query.AddPredicate(1, 2, 0.001);
  }
};

TEST(DpContextTest, TablePagesFromCatalogMeans) {
  ChainFixture f;
  DpContext ctx(f.query, f.catalog, f.options);
  EXPECT_DOUBLE_EQ(ctx.TablePages(0), 100);
  EXPECT_DOUBLE_EQ(ctx.TablePages(2), 400);
}

TEST(DpContextTest, SubsetPagesMultipliesSizesAndSelectivities) {
  ChainFixture f;
  DpContext ctx(f.query, f.catalog, f.options);
  EXPECT_DOUBLE_EQ(ctx.SubsetPages(0b001), 100);
  EXPECT_DOUBLE_EQ(ctx.SubsetPages(0b011), 100 * 200 * 0.01);
  EXPECT_DOUBLE_EQ(ctx.SubsetPages(0b110), 200 * 400 * 0.001);
  // Disconnected subset {A, C}: no internal predicate applies.
  EXPECT_DOUBLE_EQ(ctx.SubsetPages(0b101), 100 * 400);
  EXPECT_DOUBLE_EQ(ctx.SubsetPages(0b111), 100 * 200 * 400 * 0.01 * 0.001);
}

TEST(DpContextTest, CrossProductRules) {
  ChainFixture f;
  DpContext ctx(f.query, f.catalog, f.options);
  EXPECT_FALSE(ctx.CrossProductForbidden(0b001, 1));  // A-B connected
  EXPECT_TRUE(ctx.CrossProductForbidden(0b001, 2));   // A x C is cross
  OptimizerOptions allow;
  allow.avoid_cross_products = false;
  DpContext ctx2(f.query, f.catalog, allow);
  EXPECT_FALSE(ctx2.CrossProductForbidden(0b001, 2));
}

TEST(DpContextTest, CrossProductsAllowedWhenGraphDisconnected) {
  Catalog catalog;
  catalog.AddTable("A", 10);
  catalog.AddTable("B", 10);
  catalog.AddTable("C", 10);
  Query q;
  q.AddTable(0);
  q.AddTable(1);
  q.AddTable(2);
  q.AddPredicate(0, 1, 0.1);  // C is isolated
  OptimizerOptions opts;
  DpContext ctx(q, catalog, opts);
  EXPECT_FALSE(ctx.CrossProductForbidden(0b011, 2));
}

TEST(DpContextTest, JoinOutputOrderRules) {
  // NL preserves the outer's order.
  EXPECT_EQ(DpContext::JoinOutputOrder(JoinMethod::kNestedLoop, 3,
                                       kUnsorted),
            3);
  EXPECT_EQ(DpContext::JoinOutputOrder(JoinMethod::kNestedLoop, kUnsorted,
                                       kUnsorted),
            kUnsorted);
  // SM emits its key's order.
  EXPECT_EQ(DpContext::JoinOutputOrder(JoinMethod::kSortMerge, 3, 1), 1);
  // GH destroys order.
  EXPECT_EQ(DpContext::JoinOutputOrder(JoinMethod::kGraceHash, 3,
                                       kUnsorted),
            kUnsorted);
}

TEST(DpContextTest, RejectsOversizedQueries) {
  Catalog catalog;
  Query q;
  for (int i = 0; i < 21; ++i) {
    // Two-step concat: GCC 12's -Wrestrict false-fires on the inlined
    // "T" + std::to_string(i) (PR 105329).
    std::string name = "T";
    name += std::to_string(i);
    catalog.AddTable(name, 10);
    q.AddTable(i);
  }
  OptimizerOptions opts;
  EXPECT_THROW(DpContext(q, catalog, opts), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Cost-bounded DP pruning (PR 6). The load-bearing contract is I9: pruning
// is an optimization of the SEARCH, not the semantics — pruned and unpruned
// runs must agree bit for bit in objective and plan. The fuzz driver sweeps
// this over random workloads; these tests pin it deterministically plus the
// counter bookkeeping the bench (E20) and EXPLAIN report.
// ---------------------------------------------------------------------------

Workload PruningWorkload(JoinGraphShape shape, int n) {
  Rng rng(static_cast<uint64_t>(n) * 77 + 13);
  WorkloadOptions wopts;
  wopts.num_tables = n;
  wopts.shape = shape;
  wopts.order_by_probability = 1.0;
  return GenerateWorkload(wopts, &rng);
}

TEST(DpPruningTest, PrunedDpBitIdenticalToUnpruned) {
  CostModel model;
  Distribution memory = UniformBuckets(50, 5000, 27);
  for (JoinGraphShape shape : {JoinGraphShape::kChain, JoinGraphShape::kStar,
                               JoinGraphShape::kClique}) {
    Workload w = PruningWorkload(shape, 8);
    OptimizerOptions on_opts;
    on_opts.dp_pruning = DpPruning::kOn;
    OptimizerOptions off_opts;
    off_opts.dp_pruning = DpPruning::kOff;
    DpContext on_ctx(w.query, w.catalog, on_opts);
    DpContext off_ctx(w.query, w.catalog, off_opts);
    LscCostProvider lsc{model, 800};
    LecStaticCostProvider lec{model, memory};
    auto check = [&](const auto& provider, const char* regime) {
      OptimizeResult on = RunDp(on_ctx, provider);
      OptimizeResult off = RunDp(off_ctx, provider);
      // Bitwise, not near: the branch-and-bound may only skip work whose
      // absence cannot change which entry RetainBest keeps.
      EXPECT_EQ(on.objective, off.objective) << regime;
      EXPECT_TRUE(PlanEquals(on.plan, off.plan)) << regime;
      // Pruning never costs more formula runs than the full sweep, and the
      // greedy incumbent's runs are accounted separately so
      // cost_evaluations keeps the Theorem 3.2/3.3 units.
      EXPECT_LE(on.cost_evaluations, off.cost_evaluations) << regime;
      EXPECT_GT(on.incumbent_cost_evaluations, 0u) << regime;
      // The disabled run must report a silent pruner, not a dormant one.
      EXPECT_EQ(off.pruned_expansions, 0u) << regime;
      EXPECT_EQ(off.pruned_candidates, 0u) << regime;
      EXPECT_EQ(off.pruned_entries, 0u) << regime;
      EXPECT_EQ(off.incumbent_cost_evaluations, 0u) << regime;
    };
    check(lsc, "lsc");
    check(lec, "lec_static");
  }
}

TEST(DpPruningTest, AutoEngagesForDefaultOnProviders) {
  // kAuto must behave as kOn for the providers that declare
  // kPruningDefaultOn (lsc, lec_static): same results, incumbent seeded.
  CostModel model;
  Workload w = PruningWorkload(JoinGraphShape::kChain, 8);
  OptimizerOptions auto_opts;  // dp_pruning defaults to kAuto
  DpContext ctx(w.query, w.catalog, auto_opts);
  LscCostProvider lsc{model, 800};
  OptimizeResult r = RunDp(ctx, lsc);
  EXPECT_GT(r.incumbent_cost_evaluations, 0u);
  OptimizerOptions off_opts;
  off_opts.dp_pruning = DpPruning::kOff;
  DpContext off_ctx(w.query, w.catalog, off_opts);
  OptimizeResult off = RunDp(off_ctx, lsc);
  EXPECT_EQ(r.objective, off.objective);
  EXPECT_TRUE(PlanEquals(r.plan, off.plan));
}

TEST(DpScratchTest, ReleaseReturnsRetainedBytesThenZero) {
  CostModel model;
  Workload w = PruningWorkload(JoinGraphShape::kChain, 8);
  OptimizerOptions opts;
  DpContext ctx(w.query, w.catalog, opts);
  LscCostProvider lsc{model, 800};
  OptimizeResult before = RunDp(ctx, lsc);  // warms the thread-local scratch
  EXPECT_GT(ThreadLocalDpScratch().RetainedBytes(), 0u);
  size_t released = ReleaseThreadLocalDpScratch();
  EXPECT_GT(released, 0u);
  // Idempotent: a second trim finds nothing retained.
  EXPECT_EQ(ReleaseThreadLocalDpScratch(), 0u);
  // And the DP re-warms transparently after a release.
  OptimizeResult after = RunDp(ctx, lsc);
  EXPECT_EQ(after.objective, before.objective);
  EXPECT_TRUE(PlanEquals(after.plan, before.plan));
}

// ---------------------------------------------------------------------------
// Per-step cost memo (StepCostMemo). Within one join step the DP replays a
// memoized formula value for every left order × sort-merge key repeat; the
// contract is that this saves time only — objectives, plans and every
// counter stay exactly what the formula-per-candidate enumeration gives.
// RunDpLegacy and Algorithm D's legacy pipeline never memoize, so they are
// the references.
// ---------------------------------------------------------------------------

/// Forwards to a provider and counts the formula runs that reach it.
template <typename P>
struct CountingProvider {
  const P& inner;
  mutable size_t join_runs = 0;
  mutable size_t sort_runs = 0;

  static constexpr bool kPruningDefaultOn = P::kPruningDefaultOn;

  double JoinCost(JoinMethod m, double a, double b, bool ls, bool rs,
                  int phase) const {
    ++join_runs;
    return inner.JoinCost(m, a, b, ls, rs, phase);
  }
  double SortCost(double pages, int phase) const {
    ++sort_runs;
    return inner.SortCost(pages, phase);
  }
  double StepFloor(JoinMethod m, double a, double b) const {
    return inner.StepFloor(m, a, b);
  }
  double RemStepFloor(JoinMethod m, double a, double b) const {
    return inner.RemStepFloor(m, a, b);
  }
};

void ExpectSameCounters(const OptimizeResult& a, const OptimizeResult& b,
                        const std::string& label) {
  EXPECT_EQ(a.candidates_considered, b.candidates_considered) << label;
  EXPECT_EQ(a.cost_evaluations, b.cost_evaluations) << label;
  EXPECT_EQ(a.candidates_by_phase, b.candidates_by_phase) << label;
  EXPECT_EQ(a.pruned_expansions, b.pruned_expansions) << label;
  EXPECT_EQ(a.pruned_candidates, b.pruned_candidates) << label;
  EXPECT_EQ(a.pruned_entries, b.pruned_entries) << label;
  EXPECT_EQ(a.incumbent_cost_evaluations, b.incumbent_cost_evaluations)
      << label;
}

/// Per-phase memory marginals for the lec_dynamic provider: distinct
/// distributions so a phase mix-up would show.
std::vector<Distribution> TestMarginals(int n) {
  std::vector<Distribution> marginals;
  for (int t = 0; t < std::max(n - 1, 1); ++t) {
    marginals.push_back(t % 2 == 0 ? UniformBuckets(50, 5000, 27)
                                   : UniformBuckets(20, 3000, 9));
  }
  return marginals;
}

/// Counter totals over the pruned runs of the StepMemoParity grid,
/// summed in grid order.
struct PrunedTotals {
  size_t candidates = 0;
  size_t cost_evaluations = 0;
  size_t pruned_expansions = 0;
  size_t pruned_candidates = 0;
  size_t pruned_entries = 0;
  size_t incumbent_cost_evaluations = 0;

  void Add(const OptimizeResult& r) {
    candidates += r.candidates_considered;
    cost_evaluations += r.cost_evaluations;
    pruned_expansions += r.pruned_expansions;
    pruned_candidates += r.pruned_candidates;
    pruned_entries += r.pruned_entries;
    incumbent_cost_evaluations += r.incumbent_cost_evaluations;
  }
};

TEST(StepCostMemoTest, StepMemoParity) {
  PrunedTotals pruned;
  for (JoinGraphShape shape :
       {JoinGraphShape::kClique, JoinGraphShape::kStar}) {
    for (int n = 7; n <= 9; ++n) {
      Workload w = PruningWorkload(shape, n);
      Distribution memory = UniformBuckets(50, 5000, 27);
      std::vector<Distribution> marginals = TestMarginals(n);
      for (bool discount : {false, true}) {
        CostModelOptions mopts;
        mopts.sorted_input_discount = discount;
        CostModel model(mopts);
        LscCostProvider lsc{model, 800};
        LecStaticCostProvider lec_static{model, memory};
        LecDynamicCostProvider lec_dynamic{model, marginals};
        for (bool enforcers : {false, true}) {
          for (DpPruning pruning : {DpPruning::kAuto, DpPruning::kOff}) {
            OptimizerOptions opts;
            opts.consider_sort_enforcers = enforcers;
            opts.dp_pruning = pruning;
            DpContext ctx(w.query, w.catalog, opts);
            std::string label = "shape=" +
                                std::to_string(static_cast<int>(shape)) +
                                " n=" + std::to_string(n) +
                                " discount=" + std::to_string(discount) +
                                " enforcers=" + std::to_string(enforcers) +
                                " pruning=" +
                                std::to_string(static_cast<int>(pruning));
            auto check = [&](const auto& provider, const char* regime) {
              std::string where = label + " " + regime;
              OptimizeResult neo = RunDp(ctx, provider);
              OptimizeResult old = RunDpLegacy(ctx, provider);
              EXPECT_EQ(neo.objective, old.objective) << where;  // bitwise
              EXPECT_TRUE(PlanEquals(neo.plan, old.plan)) << where;
              if (neo.incumbent_cost_evaluations == 0) {
                // Unpruned: the enumeration is the legacy one, so every
                // counter must match it tick for tick.
                ExpectSameCounters(neo, old, where);
              } else {
                // Pruned: RunDpLegacy never prunes; the totals below pin
                // these runs' counters instead.
                pruned.Add(neo);
              }
            };
            check(lsc, "lsc");
            check(lec_static, "lec_static");
            check(lec_dynamic, "lec_dynamic");
          }
        }
      }
    }
  }
  // kAuto prunes lsc and lec_static. These totals were recorded from the
  // formula-per-candidate DP before StepCostMemo existed: the memo sits
  // behind every branch-and-bound check, so it must not move them.
  EXPECT_EQ(pruned.candidates, 1311688u);
  EXPECT_EQ(pruned.cost_evaluations, 1628478u);
  EXPECT_EQ(pruned.pruned_expansions, 1809u);
  EXPECT_EQ(pruned.pruned_candidates, 387376u);
  EXPECT_EQ(pruned.pruned_entries, 254633u);
  EXPECT_EQ(pruned.incumbent_cost_evaluations, 7708u);
}

TEST(StepCostMemoTest, AlgorithmDStepMemoParity) {
  // The kernel path memoizes per step (behind the EcCache); the legacy
  // Distribution pipeline runs every formula. Scalar-pinned like fuzz
  // invariant I7, whose strict plan equality would otherwise trip on true
  // near-ties that reassociated vector sums resolve the other way.
  simd::ScopedLevel pin(simd::Level::kScalar);
  Distribution memory = UniformBuckets(50, 5000, 9);
  for (JoinGraphShape shape :
       {JoinGraphShape::kClique, JoinGraphShape::kStar}) {
    for (int n = 7; n <= 9; ++n) {
      Workload w = PruningWorkload(shape, n);
      for (bool discount : {false, true}) {
        CostModelOptions mopts;
        mopts.sorted_input_discount = discount;
        CostModel model(mopts);
        for (bool enforcers : {false, true}) {
          for (bool cached : {false, true}) {
            std::string where = "shape=" +
                                std::to_string(static_cast<int>(shape)) +
                                " n=" + std::to_string(n) +
                                " discount=" + std::to_string(discount) +
                                " enforcers=" + std::to_string(enforcers) +
                                " cached=" + std::to_string(cached);
            EcCache kernel_cache;
            EcCache legacy_cache;
            OptimizerOptions kernel_opts;
            kernel_opts.consider_sort_enforcers = enforcers;
            if (cached) kernel_opts.ec_cache = &kernel_cache;
            OptimizerOptions legacy_opts = kernel_opts;
            legacy_opts.use_dist_kernels = false;
            if (cached) legacy_opts.ec_cache = &legacy_cache;
            OptimizeResult k =
                OptimizeAlgorithmD(w.query, w.catalog, model, memory,
                                   kernel_opts);
            OptimizeResult l =
                OptimizeAlgorithmD(w.query, w.catalog, model, memory,
                                   legacy_opts);
            EXPECT_TRUE(verify::ApproxEqual(k.objective, l.objective,
                                            verify::kKernelParityRelTol))
                << where << ": " << k.objective << " vs " << l.objective;
            EXPECT_TRUE(PlanEquals(k.plan, l.plan)) << where;
            ExpectSameCounters(k, l, where);
            if (cached) {
              // Behind the cache the memo leaves the cache's traffic as is.
              EXPECT_EQ(kernel_cache.stats().hits, legacy_cache.stats().hits)
                  << where;
              EXPECT_EQ(kernel_cache.stats().misses,
                        legacy_cache.stats().misses)
                  << where;
            }
          }
        }
      }
    }
  }
}

TEST(StepCostMemoTest, FormulaRunsOncePerStepAndKey) {
  // The memo is what makes a step cost O(distinct keys), not O(candidates):
  // on a clique with enforcers the legacy DP runs one formula per counted
  // evaluation, while RunDp runs each at most once per (step, key).
  Workload w = PruningWorkload(JoinGraphShape::kClique, 8);
  CostModelOptions mopts;
  mopts.sorted_input_discount = true;
  CostModel model(mopts);
  Distribution memory = UniformBuckets(50, 5000, 27);
  LecStaticCostProvider lec{model, memory};
  OptimizerOptions opts;
  opts.consider_sort_enforcers = true;
  opts.dp_pruning = DpPruning::kOff;
  DpContext ctx(w.query, w.catalog, opts);

  CountingProvider<LecStaticCostProvider> legacy_count{lec};
  OptimizeResult old = RunDpLegacy(ctx, legacy_count);
  EXPECT_EQ(legacy_count.join_runs + legacy_count.sort_runs,
            old.cost_evaluations);

  CountingProvider<LecStaticCostProvider> memo_count{lec};
  OptimizeResult neo = RunDp(ctx, memo_count);
  EXPECT_EQ(neo.cost_evaluations, old.cost_evaluations);
  // (s, j) steps of an n-clique: every j of every subset of size >= 2.
  int n = w.query.num_tables();
  size_t steps = static_cast<size_t>(n) * (size_t{1} << (n - 1)) -
                 static_cast<size_t>(n);
  size_t distinct_keys = 3 * 4 + 1;  // (method, ls, rs) slots + enforcer
  // Plus at most one final ORDER BY sort per root entry (one per order).
  size_t root_sorts = static_cast<size_t>(w.query.num_predicates()) + 1;
  EXPECT_LE(memo_count.join_runs + memo_count.sort_runs,
            steps * distinct_keys + root_sorts);
  EXPECT_LT(4 * (memo_count.join_runs + memo_count.sort_runs),
            neo.cost_evaluations);
}

TEST(ExhaustiveTest, PlanCountForTwoTables) {
  Catalog catalog;
  catalog.AddTable("A", 10);
  catalog.AddTable("B", 20);
  Query q;
  q.AddTable(0);
  q.AddTable(1);
  q.AddPredicate(0, 1, 0.1);
  OptimizerOptions opts;
  std::vector<PlanPtr> plans = EnumerateLeftDeepPlans(q, catalog, opts);
  // 2 orders x 3 methods.
  EXPECT_EQ(plans.size(), 6u);
}

TEST(ExhaustiveTest, CrossProductsPrunedForConnectedQuery) {
  ChainFixture f;
  std::vector<PlanPtr> plans =
      EnumerateLeftDeepPlans(f.query, f.catalog, f.options);
  for (const PlanPtr& p : plans) {
    // Every join node must have at least one predicate (no cross joins).
    std::vector<const PlanNode*> stack = {p.get()};
    while (!stack.empty()) {
      const PlanNode* n = stack.back();
      stack.pop_back();
      if (n->kind == PlanNode::Kind::kJoin) {
        EXPECT_FALSE(n->predicates.empty());
        stack.push_back(n->left.get());
        stack.push_back(n->right.get());
      } else if (n->kind == PlanNode::Kind::kSort) {
        stack.push_back(n->left.get());
      }
    }
  }
}

TEST(ExhaustiveTest, EnforcersDoubleTheSortMergeCandidates) {
  Catalog catalog;
  catalog.AddTable("A", 10);
  catalog.AddTable("B", 20);
  Query q;
  q.AddTable(0);
  q.AddTable(1);
  q.AddPredicate(0, 1, 0.1);
  OptimizerOptions plain;
  OptimizerOptions with_enforcers;
  with_enforcers.consider_sort_enforcers = true;
  size_t plain_count =
      EnumerateLeftDeepPlans(q, catalog, plain).size();
  size_t enforcer_count =
      EnumerateLeftDeepPlans(q, catalog, with_enforcers).size();
  // Each SM candidate (2 of 6) gains a sorted-inner variant.
  EXPECT_EQ(plain_count, 6u);
  EXPECT_EQ(enforcer_count, 8u);
}

TEST(ExhaustiveTest, TopKOrderedAscending) {
  ChainFixture f;
  auto top = ExhaustiveTopK(
      f.query, f.catalog, f.options,
      [](const PlanPtr& p) { return p->est_pages; }, 5);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_LE(top[i - 1].second, top[i].second);
  }
}

TEST(ExhaustiveTest, SingleTableQuery) {
  Catalog catalog;
  catalog.AddTable("A", 10);
  Query q;
  q.AddTable(0);
  OptimizerOptions opts;
  std::vector<PlanPtr> plans = EnumerateLeftDeepPlans(q, catalog, opts);
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_EQ(plans[0]->kind, PlanNode::Kind::kAccess);
}

}  // namespace
}  // namespace lec
