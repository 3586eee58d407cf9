// Heap-allocation accounting for the storage engine's join operators.
//
// A relation is one contiguous tuple array and every equi-join probes one
// array-chained hash index, so a join allocates a handful of arrays per
// operator (per recursion level for Grace), never one node per build tuple
// or one vector per page. A counting global operator new pins that: a
// 16x16-page nested-loop or Grace join stays under a small fixed budget in
// each memory regime.
#include <gtest/gtest.h>

#include "counting_new.h"
#include "storage/buffer_pool.h"
#include "storage/join_operators.h"
#include "util/rng.h"

namespace lec {
namespace {

constexpr size_t kPages = 16;

JoinColumnSpec ChainSpec() {
  JoinColumnSpec spec;
  spec.left_col = 1;
  spec.right_col = 0;
  spec.out0_side = 0;
  spec.out0_col = 0;
  spec.out1_side = 1;
  spec.out1_col = 1;
  return spec;
}

/// Heap allocations made by one `op` call on a 16x16-page join at memory
/// `m`; also returns the output size through `tuples`.
template <class Op>
size_t CountAllocations(Op op, size_t m, size_t* tuples) {
  Rng rng(42);
  TableData left = GenerateTable(kPages, 640, 640, &rng);
  TableData right = GenerateTable(kPages, 640, 640, &rng);
  BufferPool pool(m);
  size_t before = g_news.load();
  TableData out = op(&pool, left, right, ChainSpec());
  size_t allocations = g_news.load() - before;
  *tuples = out.num_tuples();
  return allocations;
}

// Both budgets are far below one allocation per page (32 input pages, ~26
// output pages) and per build tuple (1024). Most of each budget is the
// output array's geometric growth: ~log2(1600) = 11 reallocations.

TEST(StorageAllocTest, NestedLoopJoinAllocatesAFixedHandful) {
  constexpr size_t kBudget = 20;
  // M = 3: page nested loops; M = 20: inner relation resident.
  for (size_t m : {3, 20}) {
    size_t tuples = 0;
    size_t n = CountAllocations(NestedLoopJoinOp, m, &tuples);
    EXPECT_GT(tuples, 1000u) << "vacuous test";
    EXPECT_LE(n, kBudget) << "M=" << m << ": " << n << " allocations";
  }
}

TEST(StorageAllocTest, GraceHashJoinAllocatesPerLevelNotPerPartition) {
  constexpr size_t kBudget = 48;
  // M = 3: recursive partitioning, fan-out 2 over five levels; M = 6: one
  // pass with five partitions per side.
  for (size_t m : {3, 6}) {
    size_t tuples = 0;
    size_t n = CountAllocations(GraceHashJoinOp, m, &tuples);
    EXPECT_GT(tuples, 1000u) << "vacuous test";
    EXPECT_LE(n, kBudget) << "M=" << m << ": " << n << " allocations";
  }
}

}  // namespace
}  // namespace lec
