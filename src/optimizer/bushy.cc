#include "optimizer/bushy.h"

#include <limits>
#include <map>
#include <stdexcept>

#include "optimizer/cost_providers.h"

namespace lec {

namespace {

/// Shared bushy DP, statically parameterized on the cost provider like
/// RunDp (phase is always 0: static memory only).
template <DpCostProvider P>
OptimizeResult RunBushyDp(const DpContext& ctx, const P& cost) {
  const Query& query = ctx.query();
  const OptimizerOptions& opts = ctx.options();
  int n = ctx.num_tables();
  size_t num_subsets = size_t{1} << n;
  bool query_connected = query.IsConnected(query.AllTables());
  std::vector<OrderMap> table(num_subsets);
  OptimizeResult result;
  std::vector<int> preds;  // reused across splits: 1 allocation, not 3^n
  StepCostMemo memo;       // one step = one ordered split (s1, s2)

  for (QueryPos p = 0; p < n; ++p) {
    TableSet s = TableSet{1} << p;
    double pages = ctx.TablePages(p);
    table[s][kUnsorted] = {MakeAccess(p, pages), pages};
  }

  for (int size = 2; size <= n; ++size) {
    for (TableSet s = 1; s < num_subsets; ++s) {
      if (SetSize(s) != size) continue;
      double out_pages = ctx.SubsetPages(s);
      // Every ordered split (s1 = outer/left, s2 = inner/right).
      for (TableSet s1 = (s - 1) & s; s1 != 0; s1 = (s1 - 1) & s) {
        TableSet s2 = s & ~s1;
        if (table[s1].empty() || table[s2].empty()) continue;
        query.CrossingPredicatesInto(s1, s2, &preds);
        if (preds.empty() && opts.avoid_cross_products && query_connected) {
          continue;
        }
        double left_pages = ctx.SubsetPages(s1);
        double right_pages = ctx.SubsetPages(s2);
        memo.Reset();
        for (const auto& [left_order, left] : table[s1]) {
          for (const auto& [right_order, right] : table[s2]) {
            for (JoinMethod method : opts.join_methods) {
              std::vector<int> keys;
              if (method == JoinMethod::kSortMerge) {
                if (preds.empty()) continue;
                keys = preds;
              } else {
                keys.push_back(kUnsorted);
              }
              for (int key : keys) {
                ++result.candidates_considered;
                ++result.cost_evaluations;
                bool ls = key != kUnsorted && left_order == key;
                bool rs = key != kUnsorted && right_order == key;
                double step = memo.Join(method, ls, rs, [&] {
                  return cost.JoinCost(method, left_pages, right_pages, ls,
                                       rs, /*phase_idx=*/0);
                });
                OrderId out_order =
                    DpContext::JoinOutputOrder(method, left_order, key);
                DpEntry e;
                e.plan = MakeJoin(left.plan, right.plan, method, preds,
                                  out_order, out_pages);
                e.cost = left.cost + right.cost + step;
                internal::RetainBest(&table[s], out_order, std::move(e));
              }
            }
          }
        }
      }
    }
  }

  const OrderMap& roots = table[query.AllTables()];
  if (roots.empty()) {
    throw std::runtime_error("no bushy plan found for query");
  }
  double best = std::numeric_limits<double>::infinity();
  for (const auto& [order, entry] : roots) {
    double total = entry.cost;
    PlanPtr plan = entry.plan;
    if (query.required_order() && order != *query.required_order()) {
      ++result.cost_evaluations;
      total += cost.SortCost(ctx.SubsetPages(query.AllTables()), 0);
      plan = MakeSort(plan, *query.required_order());
    }
    if (total < best) {
      best = total;
      result.plan = plan;
    }
  }
  result.objective = best;
  return result;
}

/// All bushy subplans for subset `s`, memoized in `cache`.
const std::vector<PlanPtr>& BushyPlansFor(
    const DpContext& ctx, TableSet s,
    std::vector<std::vector<PlanPtr>>* cache) {
  std::vector<PlanPtr>& slot = (*cache)[s];
  if (!slot.empty()) return slot;
  const Query& query = ctx.query();
  bool query_connected = query.IsConnected(query.AllTables());
  if (SetSize(s) == 1) {
    QueryPos p = Members(s)[0];
    slot.push_back(MakeAccess(p, ctx.TablePages(p)));
    return slot;
  }
  double out_pages = ctx.SubsetPages(s);
  for (TableSet s1 = (s - 1) & s; s1 != 0; s1 = (s1 - 1) & s) {
    TableSet s2 = s & ~s1;
    std::vector<int> preds = query.CrossingPredicates(s1, s2);
    if (preds.empty() && ctx.options().avoid_cross_products &&
        query_connected) {
      continue;
    }
    const std::vector<PlanPtr>& lefts = BushyPlansFor(ctx, s1, cache);
    const std::vector<PlanPtr>& rights = BushyPlansFor(ctx, s2, cache);
    for (const PlanPtr& l : lefts) {
      for (const PlanPtr& r : rights) {
        for (JoinMethod method : ctx.options().join_methods) {
          std::vector<int> keys;
          if (method == JoinMethod::kSortMerge) {
            if (preds.empty()) continue;
            keys = preds;
          } else {
            keys.push_back(kUnsorted);
          }
          for (int key : keys) {
            OrderId order =
                DpContext::JoinOutputOrder(method, l->order, key);
            slot.push_back(MakeJoin(l, r, method, preds, order, out_pages));
          }
        }
      }
    }
  }
  return slot;
}

}  // namespace

OptimizeResult OptimizeBushyLsc(const Query& query, const Catalog& catalog,
                                const CostModel& model, double memory,
                                const OptimizerOptions& options) {
  WallTimer timer;
  DpContext ctx(query, catalog, options);
  OptimizeResult result = RunBushyDp(ctx, LscCostProvider{model, memory});
  result.elapsed_seconds = timer.Seconds();
  return result;
}

OptimizeResult OptimizeBushyLec(const Query& query, const Catalog& catalog,
                                const CostModel& model,
                                const Distribution& memory,
                                const OptimizerOptions& options) {
  WallTimer timer;
  DpContext ctx(query, catalog, options);
  OptimizeResult result =
      RunBushyDp(ctx, LecStaticCostProvider{model, memory});
  result.elapsed_seconds = timer.Seconds();
  return result;
}

std::vector<PlanPtr> EnumerateBushyPlans(const Query& query,
                                         const Catalog& catalog,
                                         const OptimizerOptions& options) {
  DpContext ctx(query, catalog, options);
  size_t num_subsets = size_t{1} << query.num_tables();
  std::vector<std::vector<PlanPtr>> cache(num_subsets);
  std::vector<PlanPtr> roots =
      BushyPlansFor(ctx, query.AllTables(), &cache);
  std::vector<PlanPtr> out;
  out.reserve(roots.size());
  for (const PlanPtr& p : roots) {
    if (query.required_order() && p->order != *query.required_order()) {
      out.push_back(MakeSort(p, *query.required_order()));
    } else {
      out.push_back(p);
    }
  }
  return out;
}

}  // namespace lec
