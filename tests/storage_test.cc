#include <algorithm>
#include <span>

#include <gtest/gtest.h>

#include "storage/buffer_pool.h"
#include "storage/external_sort.h"
#include "storage/table_data.h"
#include "cost/cost_model.h"
#include "util/hash.h"
#include "util/rng.h"

namespace lec {
namespace {

TEST(TableDataTest, PagesAreFullSlicesButTheLast) {
  // Page i is the kTuplesPerPage-tuple slice at i·kTuplesPerPage: every
  // page but the last is full, and pages tile the tuples in order.
  TableData t;
  for (size_t i = 0; i < kTuplesPerPage * 2 + 5; ++i) {
    t.Append({{static_cast<int64_t>(i), 0}, 0});
  }
  ASSERT_EQ(t.num_pages(), 3u);
  EXPECT_EQ(t.page(0).size(), kTuplesPerPage);
  EXPECT_EQ(t.page(1).size(), kTuplesPerPage);
  EXPECT_EQ(t.page(2).size(), 5u);
  int64_t next = 0;
  for (size_t p = 0; p < t.num_pages(); ++p) {
    for (const Tuple& tup : t.page(p)) EXPECT_EQ(tup.cols[0], next++);
  }
  EXPECT_EQ(static_cast<size_t>(next), t.num_tuples());
  EXPECT_EQ(TableData().num_pages(), 0u);
}

TEST(TableDataTest, AppendOpensNewPages) {
  TableData t;
  for (size_t i = 0; i < kTuplesPerPage * 2 + 5; ++i) {
    t.Append({{static_cast<int64_t>(i), 0}, static_cast<int64_t>(i)});
  }
  EXPECT_EQ(t.num_pages(), 3u);
  EXPECT_EQ(t.num_tuples(), kTuplesPerPage * 2 + 5);
  EXPECT_EQ(t.tuples().size(), t.num_tuples());
}

TEST(TableDataTest, GenerateTableShape) {
  Rng rng(1);
  TableData t = GenerateTable(10, 100, 0, &rng);
  EXPECT_EQ(t.num_pages(), 10u);
  EXPECT_EQ(t.num_tuples(), 10 * kTuplesPerPage);
  int64_t row = 0;
  for (const Tuple& tup : t.tuples()) {
    EXPECT_GE(tup.cols[0], 0);
    EXPECT_LT(tup.cols[0], 100);
    EXPECT_EQ(tup.cols[1], row);  // key_range 0 -> row id
    // Payloads are the row id pushed through the SplitMix64 bijection so
    // CombineTuples' additive lineage fingerprint works in a hashed domain.
    EXPECT_EQ(tup.payload,
              static_cast<int64_t>(SplitMix64(static_cast<uint64_t>(row))));
    ++row;
  }
}

TEST(TableDataTest, KeyRangeForSelectivity) {
  // K = tuples_per_page / selectivity.
  EXPECT_EQ(KeyRangeForSelectivity(0.01),
            static_cast<int64_t>(kTuplesPerPage) * 100);
  EXPECT_THROW(KeyRangeForSelectivity(0), std::invalid_argument);
  EXPECT_THROW(KeyRangeForSelectivity(1.5), std::invalid_argument);
}

TEST(BufferPoolTest, CountersAccumulate) {
  BufferPool pool(10);
  pool.ChargeRead(3);
  pool.ChargeWrite();
  EXPECT_EQ(pool.reads(), 3u);
  EXPECT_EQ(pool.writes(), 1u);
  EXPECT_EQ(pool.total_io(), 4u);
  pool.ResetCounters();
  EXPECT_EQ(pool.total_io(), 0u);
}

TEST(BufferPoolTest, ReservationEnforcesCapacity) {
  BufferPool pool(10);
  {
    BufferPool::Reservation r1 = pool.Reserve(6);
    EXPECT_EQ(pool.reserved(), 6u);
    EXPECT_THROW(pool.Reserve(5), OutOfMemoryError);
    BufferPool::Reservation r2 = pool.Reserve(4);
    EXPECT_EQ(pool.reserved(), 10u);
  }
  // RAII released everything.
  EXPECT_EQ(pool.reserved(), 0u);
  EXPECT_NO_THROW(pool.Reserve(10));
  EXPECT_THROW(BufferPool(0), std::invalid_argument);
}

TEST(BufferPoolTest, ReservationMoveTransfersOwnership) {
  BufferPool pool(10);
  {
    BufferPool::Reservation r1 = pool.Reserve(6);
    BufferPool::Reservation r2 = std::move(r1);
    EXPECT_EQ(pool.reserved(), 6u);
  }
  EXPECT_EQ(pool.reserved(), 0u);
}

TEST(ExternalSortTest, SortsCorrectly) {
  Rng rng(2);
  TableData t = GenerateTable(20, 500, 0, &rng);
  BufferPool pool(5);
  TableData sorted = ExternalSortOp(&pool, t, 0);
  EXPECT_EQ(sorted.num_tuples(), t.num_tuples());
  std::span<const Tuple> tuples = sorted.tuples();
  for (size_t i = 1; i < tuples.size(); ++i) {
    EXPECT_LE(tuples[i - 1].cols[0], tuples[i].cols[0]);
  }
  // Multiset of keys preserved.
  std::vector<int64_t> orig, after;
  for (const Tuple& x : t.tuples()) orig.push_back(x.payload);
  for (const Tuple& x : tuples) after.push_back(x.payload);
  std::sort(orig.begin(), orig.end());
  std::sort(after.begin(), after.end());
  EXPECT_EQ(orig, after);
}

TEST(ExternalSortTest, InMemoryChargesOneRead) {
  Rng rng(3);
  TableData t = GenerateTable(8, 100, 0, &rng);
  BufferPool pool(8);
  ExternalSortOp(&pool, t, 0);
  EXPECT_EQ(pool.reads(), 8u);
  EXPECT_EQ(pool.writes(), 0u);
}

TEST(ExternalSortTest, MeasuredIoMatchesAnalyticSortCost) {
  // The engine's headline fidelity property: for inputs larger than memory
  // the measured I/O equals CostModel::SortCost exactly.
  CostModel model;
  Rng rng(4);
  struct Case {
    size_t pages;
    size_t memory;
  };
  for (Case c : {Case{30, 5}, Case{100, 10}, Case{100, 4}, Case{250, 16},
                 Case{64, 3}}) {
    TableData t = GenerateTable(c.pages, 1000, 0, &rng);
    BufferPool pool(c.memory);
    ExternalSortOp(&pool, t, 0);
    EXPECT_DOUBLE_EQ(static_cast<double>(pool.total_io()),
                     model.SortCost(static_cast<double>(c.pages),
                                    static_cast<double>(c.memory)))
        << "pages=" << c.pages << " memory=" << c.memory;
  }
}

TEST(ExternalSortTest, SortByEitherColumn) {
  Rng rng(5);
  TableData t = GenerateTable(12, 50, 90, &rng);
  BufferPool pool(4);
  TableData sorted = ExternalSortOp(&pool, t, 1);
  std::span<const Tuple> tuples = sorted.tuples();
  for (size_t i = 1; i < tuples.size(); ++i) {
    EXPECT_LE(tuples[i - 1].cols[1], tuples[i].cols[1]);
  }
}

TEST(ExternalSortTest, RunFormationRespectsMemory) {
  Rng rng(6);
  TableData t = GenerateTable(20, 100, 0, &rng);
  BufferPool pool(4);
  SortedRuns runs = FormSortedRuns(&pool, t, 0);
  EXPECT_EQ(runs.size(), 5u);  // ceil(20 / 4)
  for (size_t r = 0; r < runs.size(); ++r) {
    std::span<const Tuple> run = runs.run(r);
    EXPECT_LE(PagesForTuples(run.size()), 4u);
    for (size_t i = 1; i < run.size(); ++i) {
      EXPECT_LE(run[i - 1].cols[0], run[i].cols[0]);
    }
  }
  EXPECT_EQ(pool.reads(), 20u);
  EXPECT_EQ(pool.writes(), 20u);
}

TEST(ExternalSortTest, EmptyInput) {
  TableData empty;
  BufferPool pool(4);
  TableData sorted = ExternalSortOp(&pool, empty, 0);
  EXPECT_EQ(sorted.num_tuples(), 0u);
}

}  // namespace
}  // namespace lec
