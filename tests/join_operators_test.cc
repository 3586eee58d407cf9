#include "storage/join_operators.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>

#include <gtest/gtest.h>

#include "cost/cost_model.h"
#include "storage/external_sort.h"
#include "util/rng.h"

namespace lec {
namespace {

JoinColumnSpec spec_default() { return JoinColumnSpec{}; }

std::vector<int64_t> PayloadMultiset(const TableData& t) {
  std::vector<int64_t> out;
  for (const Tuple& x : t.tuples()) out.push_back(x.payload);
  std::sort(out.begin(), out.end());
  return out;
}

struct JoinCase {
  size_t left_pages;
  size_t right_pages;
  int64_t key_range;
  size_t memory;
};

class JoinCorrectnessTest
    : public ::testing::TestWithParam<std::tuple<JoinMethod, int>> {};

TEST_P(JoinCorrectnessTest, MatchesNaiveReference) {
  auto [method, case_idx] = GetParam();
  const JoinCase cases[] = {
      {8, 6, 40, 20},    // both fit in memory
      {20, 12, 100, 6},  // spills
      {16, 16, 64, 4},   // tight memory, equal sizes
      {3, 30, 50, 5},    // asymmetric
  };
  JoinCase c = cases[case_idx];
  Rng rng(static_cast<uint64_t>(case_idx) * 13 + 7);
  TableData left = GenerateTable(c.left_pages, c.key_range, 0, &rng);
  TableData right = GenerateTable(c.right_pages, c.key_range, 0, &rng);
  JoinColumnSpec spec;  // join on col0 = col0
  TableData expected = NaiveJoinReference(left, right, spec);
  BufferPool pool(c.memory);
  TableData got;
  switch (method) {
    case JoinMethod::kSortMerge:
      got = SortMergeJoinOp(&pool, left, right, spec);
      break;
    case JoinMethod::kGraceHash:
      got = GraceHashJoinOp(&pool, left, right, spec);
      break;
    case JoinMethod::kNestedLoop:
      got = NestedLoopJoinOp(&pool, left, right, spec);
      break;
    case JoinMethod::kHybridHash:
      GTEST_SKIP() << "hybrid hash is analytic-only";
  }
  EXPECT_EQ(PayloadMultiset(got), PayloadMultiset(expected))
      << ToString(method) << " case " << case_idx;
  EXPECT_GT(expected.num_tuples(), 0u) << "vacuous test";
}

INSTANTIATE_TEST_SUITE_P(
    MethodsAndCases, JoinCorrectnessTest,
    ::testing::Combine(::testing::ValuesIn(kAllJoinMethods),
                       ::testing::Values(0, 1, 2, 3)));

TEST(JoinOperatorsTest, ColumnSpecRoutesOutputs) {
  Rng rng(1);
  TableData left = GenerateTable(2, 10, 20, &rng);
  TableData right = GenerateTable(2, 10, 30, &rng);
  JoinColumnSpec spec;
  spec.left_col = 0;
  spec.right_col = 0;
  spec.out0_side = 0;
  spec.out0_col = 1;  // left's col1
  spec.out1_side = 1;
  spec.out1_col = 1;  // right's col1
  TableData out = NaiveJoinReference(left, right, spec);
  for (const Tuple& t : out.tuples()) {
    EXPECT_LT(t.cols[0], 20);
    EXPECT_LT(t.cols[1], 30);
  }
}

TEST(JoinOperatorsTest, SortMergeOutputSortedOnKey) {
  Rng rng(2);
  TableData left = GenerateTable(10, 50, 0, &rng);
  TableData right = GenerateTable(8, 50, 0, &rng);
  JoinColumnSpec spec;
  spec.out0_side = 0;
  spec.out0_col = 0;  // output col0 = the join key
  BufferPool pool(4);
  TableData out = SortMergeJoinOp(&pool, left, right, spec);
  std::span<const Tuple> tuples = out.tuples();
  for (size_t i = 1; i < tuples.size(); ++i) {
    EXPECT_LE(tuples[i - 1].cols[0], tuples[i].cols[0]);
  }
}

TEST(JoinOperatorsTest, NestedLoopIoMatchesModelExactly) {
  CostModel model;
  Rng rng(3);
  // In-memory regime: S + 2 <= M.
  {
    TableData left = GenerateTable(30, 200, 0, &rng);
    TableData right = GenerateTable(10, 200, 0, &rng);
    BufferPool pool(12);
    NestedLoopJoinOp(&pool, left, right, spec_default());
    EXPECT_DOUBLE_EQ(static_cast<double>(pool.total_io()),
                     model.JoinCost(JoinMethod::kNestedLoop, 30, 10, 12));
  }
  // Page-loop regime: M < S + 2.
  {
    TableData left = GenerateTable(6, 200, 0, &rng);
    TableData right = GenerateTable(8, 200, 0, &rng);
    BufferPool pool(7);
    NestedLoopJoinOp(&pool, left, right, spec_default());
    EXPECT_DOUBLE_EQ(static_cast<double>(pool.total_io()),
                     model.JoinCost(JoinMethod::kNestedLoop, 6, 8, 7));
  }
}

TEST(JoinOperatorsTest, SortMergeIoTracksModelShape) {
  // Measured SM I/O = model + one extra read of each input (the model's
  // stylized 2x counts run formation only; the final merge re-read adds
  // |A|+|B|). The *threshold structure* must match: crossing sqrt(L)
  // upward removes a full 2(|A|+|B|) pass.
  Rng rng(4);
  TableData left = GenerateTable(100, 2000, 0, &rng);
  TableData right = GenerateTable(60, 2000, 0, &rng);
  auto measure = [&](size_t memory) {
    BufferPool pool(memory);
    SortMergeJoinOp(&pool, left, right, spec_default());
    return static_cast<double>(pool.total_io());
  };
  double plenty = measure(64);  // runs: 2+1 -> single merge-join pass
  double tight = measure(5);    // many runs -> extra merge passes
  EXPECT_DOUBLE_EQ(plenty, 3.0 * 160);  // 2x run formation + 1x final read
  EXPECT_GE(tight, plenty + 2.0 * 160 - 1);
}

TEST(JoinOperatorsTest, SortMergePresortedSkipsRunFormation) {
  Rng rng(5);
  TableData left = GenerateTable(40, 500, 0, &rng);
  TableData right = GenerateTable(30, 500, 0, &rng);
  BufferPool sort_pool(64);
  TableData left_sorted = ExternalSortOp(&sort_pool, left, 0);
  TableData right_sorted = ExternalSortOp(&sort_pool, right, 0);
  BufferPool pool(64);
  TableData out = SortMergeJoinOp(&pool, left_sorted, right_sorted,
                                  spec_default(), /*left_sorted=*/true,
                                  /*right_sorted=*/true);
  // Pure merge: one read of each side, nothing written.
  EXPECT_EQ(pool.reads(), 70u);
  EXPECT_EQ(pool.writes(), 0u);
  // Same result as unsorted-path join.
  BufferPool pool2(64);
  TableData out2 = SortMergeJoinOp(&pool2, left, right, spec_default());
  EXPECT_EQ(PayloadMultiset(out), PayloadMultiset(out2));
}

TEST(JoinOperatorsTest, SortMergeRejectsUnsortedPresortedInput) {
  // The final pass merges sorted runs instead of re-sorting them, so a side
  // flagged pre-sorted is consumed as one sorted run. If it is not sorted
  // on its join column the merge-join would silently drop matches; the
  // operator must refuse it instead.
  Rng rng(7);
  TableData left = GenerateTable(6, 50, 50, &rng);
  TableData right = GenerateTable(5, 50, 50, &rng);
  BufferPool sort_pool(64);
  TableData left_by_col0 = ExternalSortOp(&sort_pool, left, 0);
  TableData right_by_col0 = ExternalSortOp(&sort_pool, right, 0);
  JoinColumnSpec spec;  // col0 = col0
  for (size_t m : {3, 64}) {
    BufferPool pool(m);
    EXPECT_THROW(SortMergeJoinOp(&pool, left, right_by_col0, spec,
                                 /*left_sorted=*/true, /*right_sorted=*/true),
                 std::invalid_argument);
    EXPECT_THROW(SortMergeJoinOp(&pool, left_by_col0, right, spec,
                                 /*left_sorted=*/true, /*right_sorted=*/true),
                 std::invalid_argument);
    // Sorted on the other column only: still not sorted on the join key.
    JoinColumnSpec on_col1;
    on_col1.left_col = 1;
    on_col1.right_col = 1;
    EXPECT_THROW(SortMergeJoinOp(&pool, left_by_col0, right_by_col0, on_col1,
                                 /*left_sorted=*/true, /*right_sorted=*/false),
                 std::invalid_argument);
    // Correctly flagged inputs still join to the reference multiset.
    TableData got = SortMergeJoinOp(&pool, left_by_col0, right_by_col0, spec,
                                    /*left_sorted=*/true,
                                    /*right_sorted=*/true);
    EXPECT_EQ(PayloadMultiset(got),
              PayloadMultiset(NaiveJoinReference(left, right, spec)));
  }
}

TEST(JoinOperatorsTest, GraceHashIoTracksModelShape) {
  Rng rng(6);
  TableData left = GenerateTable(100, 3000, 0, &rng);
  TableData right = GenerateTable(36, 3000, 0, &rng);
  auto measure = [&](size_t memory) {
    BufferPool pool(memory);
    GraceHashJoinOp(&pool, left, right, spec_default());
    return static_cast<double>(pool.total_io());
  };
  // One partition pass (F = 36; sqrt(F) = 6 -> M = 10 comfortably enough):
  // read both (136) + write both (136) + join-pass read (136) = 3x.
  double one_pass = measure(10);
  // Slack: each of the M-1 partitions per side rounds up to a whole page.
  EXPECT_NEAR(one_pass, 3.0 * 136, 2.0 * 9);
  // Starved memory forces recursive partitioning: at least one extra pass
  // over (most of) the data.
  double starved = measure(3);
  EXPECT_GT(starved, one_pass + 100);
}

TEST(JoinOperatorsTest, GraceHashHandlesSkewWithoutLooping) {
  // All tuples share one key: partitions can never shrink; the max-depth
  // escape hatch must terminate and produce the right (quadratic) result.
  TableData left, right;
  for (size_t i = 0; i < 2 * kTuplesPerPage; ++i) {
    left.Append({{7, 0}, static_cast<int64_t>(i)});
    right.Append({{7, 0}, static_cast<int64_t>(1000 + i)});
  }
  BufferPool pool(3);
  TableData out = GraceHashJoinOp(&pool, left, right, spec_default());
  EXPECT_EQ(out.num_tuples(), 4 * kTuplesPerPage * kTuplesPerPage);
}

TEST(JoinOperatorsTest, DisjointKeysYieldEmptyResult) {
  TableData left, right;
  for (size_t i = 0; i < kTuplesPerPage; ++i) {
    left.Append({{static_cast<int64_t>(i), 0}, 0});
    right.Append({{static_cast<int64_t>(i + 1000), 0}, 0});
  }
  for (JoinMethod m : kAllJoinMethods) {
    BufferPool pool(8);
    TableData out;
    switch (m) {
      case JoinMethod::kSortMerge:
        out = SortMergeJoinOp(&pool, left, right, spec_default());
        break;
      case JoinMethod::kGraceHash:
        out = GraceHashJoinOp(&pool, left, right, spec_default());
        break;
      case JoinMethod::kNestedLoop:
        out = NestedLoopJoinOp(&pool, left, right, spec_default());
        break;
      case JoinMethod::kHybridHash:
        continue;  // analytic-only
    }
    EXPECT_EQ(out.num_tuples(), 0u) << ToString(m);
  }
}

// --- Byte identity ------------------------------------------------------------
// The operators' exact output sequences and I/O counters are pinned, not just
// their multisets: the executor's plans, drift decisions and every counter
// downstream (lecbench's COUNTERS line) depend on them. The pinned values
// were computed by the per-page-vector engine with unordered_multimap probes
// and a stable_sort of the concatenated sorted runs; any reordering of equal
// keys, any extra or missing page charge changes them.

/// FNV-1a over 64-bit words.
struct Fnv1a {
  uint64_t h = 14695981039346656037ULL;
  void Add(uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  }
  void Add(const Tuple& t) {
    Add(static_cast<uint64_t>(t.cols[0]));
    Add(static_cast<uint64_t>(t.cols[1]));
    Add(static_cast<uint64_t>(t.payload));
  }
};

enum class GridOp { kNestedLoop, kSortMerge, kSortMergePresorted, kGraceHash };

/// Fingerprint of `op` over left 1-13 pages x right 1-11 pages x key range
/// {4, 64, 640, 6400} x M in {3, 4, 5, 9, 17, 33}, with the executor's
/// forward chain routing. kSortMergePresorted first sorts the right side
/// with ExternalSortOp (whose I/O is hashed too) and flags it pre-sorted.
uint64_t GridFingerprint(GridOp op) {
  JoinColumnSpec spec;
  spec.left_col = 1;
  spec.right_col = 0;
  spec.out0_side = 0;
  spec.out0_col = 0;
  spec.out1_side = 1;
  spec.out1_col = 1;
  const int64_t kRanges[] = {4, 64, 640, 6400};
  const size_t kMemories[] = {3, 4, 5, 9, 17, 33};
  Fnv1a h;
  for (size_t l = 1; l <= 13; ++l) {
    for (size_t r = 1; r <= 11; ++r) {
      for (int64_t range : kRanges) {
        Rng rng(l * 10007 + r * 101 + static_cast<uint64_t>(range));
        TableData left = GenerateTable(l, range, range, &rng);
        TableData right = GenerateTable(r, range, range, &rng);
        for (size_t m : kMemories) {
          BufferPool pool(m);
          TableData out;
          switch (op) {
            case GridOp::kNestedLoop:
              out = NestedLoopJoinOp(&pool, left, right, spec);
              break;
            case GridOp::kSortMerge:
              out = SortMergeJoinOp(&pool, left, right, spec);
              break;
            case GridOp::kSortMergePresorted: {
              BufferPool sort_pool(m);
              TableData sorted = ExternalSortOp(&sort_pool, right, 0);
              h.Add(sort_pool.reads());
              h.Add(sort_pool.writes());
              out = SortMergeJoinOp(&pool, left, sorted, spec,
                                    /*left_sorted=*/false,
                                    /*right_sorted=*/true);
              break;
            }
            case GridOp::kGraceHash:
              out = GraceHashJoinOp(&pool, left, right, spec);
              break;
          }
          h.Add(out.num_tuples());
          out.ForEachTuple([&](const Tuple& t) { h.Add(t); });
          h.Add(pool.reads());
          h.Add(pool.writes());
        }
      }
    }
  }
  return h.h;
}

TEST(JoinOperatorsByteIdentityTest, NestedLoop) {
  EXPECT_EQ(GridFingerprint(GridOp::kNestedLoop), 0xa33b3f9a81874ebfULL);
}

TEST(JoinOperatorsByteIdentityTest, SortMerge) {
  EXPECT_EQ(GridFingerprint(GridOp::kSortMerge), 0xc6b557aa6fb48ca1ULL);
}

TEST(JoinOperatorsByteIdentityTest, SortMergePresortedRight) {
  EXPECT_EQ(GridFingerprint(GridOp::kSortMergePresorted),
            0xfcad71f49c07eeafULL);
}

TEST(JoinOperatorsByteIdentityTest, GraceHash) {
  EXPECT_EQ(GridFingerprint(GridOp::kGraceHash), 0x954dc873107ac983ULL);
}

}  // namespace
}  // namespace lec
