#include "storage/external_sort.h"

#include <algorithm>

namespace lec {

namespace {

void StableSortByCol(std::span<Tuple> tuples, int col) {
  std::stable_sort(tuples.begin(), tuples.end(),
                   [col](const Tuple& a, const Tuple& b) {
                     return a.cols[col] < b.cols[col];
                   });
}

}  // namespace

void MergeRuns(const SortedRuns& runs, size_t first, size_t last, int col,
               std::vector<Tuple>* out) {
  // Min-heap of run heads ordered by (key, run index); each run's cursor
  // only moves forward, so ties resolve by run, then by in-run position.
  struct Head {
    int64_t key;
    size_t run;
    size_t at;
  };
  auto after = [](const Head& a, const Head& b) {
    return a.key != b.key ? a.key > b.key : a.run > b.run;
  };
  std::vector<Head> heap;
  heap.reserve(last - first);
  for (size_t r = first; r < last; ++r) {
    size_t at = runs.bounds[r];
    if (at < runs.bounds[r + 1]) {
      heap.push_back({runs.tuples[at].cols[col], r, at});
    }
  }
  std::make_heap(heap.begin(), heap.end(), after);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), after);
    Head& h = heap.back();
    out->push_back(runs.tuples[h.at]);
    if (++h.at < runs.bounds[h.run + 1]) {
      h.key = runs.tuples[h.at].cols[col];
      std::push_heap(heap.begin(), heap.end(), after);
    } else {
      heap.pop_back();
    }
  }
}

SortedRuns FormSortedRuns(BufferPool* pool, const TableData& input, int col) {
  size_t memory = pool->capacity();
  BufferPool::Reservation workspace = pool->Reserve(memory);
  std::span<const Tuple> all = input.tuples();
  SortedRuns runs;
  runs.tuples.assign(all.begin(), all.end());
  size_t total_pages = input.num_pages();
  for (size_t start = 0; start < total_pages; start += memory) {
    size_t end = std::min(start + memory, total_pages);
    pool->ChargeRead(end - start);
    size_t begin = runs.bounds.back();
    size_t stop = std::min(end * kTuplesPerPage, all.size());
    StableSortByCol(std::span<Tuple>(runs.tuples).subspan(begin, stop - begin),
                    col);
    pool->ChargeWrite(PagesForTuples(stop - begin));
    runs.bounds.push_back(stop);
  }
  return runs;
}

SortedRuns MergePassOp(BufferPool* pool, const SortedRuns& runs, int col) {
  size_t memory = pool->capacity();
  size_t fan_in = std::max<size_t>(memory > 1 ? memory - 1 : 1, 2);
  BufferPool::Reservation workspace = pool->Reserve(memory);
  SortedRuns next;
  next.tuples.reserve(runs.tuples.size());
  for (size_t start = 0; start < runs.size(); start += fan_in) {
    size_t end = std::min(start + fan_in, runs.size());
    for (size_t r = start; r < end; ++r) {
      pool->ChargeRead(PagesForTuples(runs.run(r).size()));
    }
    MergeRuns(runs, start, end, col, &next.tuples);
    pool->ChargeWrite(PagesForTuples(next.tuples.size() - next.bounds.back()));
    next.bounds.push_back(next.tuples.size());
  }
  return next;
}

TableData ExternalSortOp(BufferPool* pool, const TableData& input, int col) {
  size_t memory = pool->capacity();
  if (input.num_pages() <= memory) {
    // Fits: one read, in-place sort, no spill.
    BufferPool::Reservation workspace = pool->Reserve(input.num_pages());
    pool->ChargeRead(input.num_pages());
    std::vector<Tuple> all(input.tuples().begin(), input.tuples().end());
    StableSortByCol(all, col);
    return TableData(std::move(all));
  }
  SortedRuns runs = FormSortedRuns(pool, input, col);
  while (runs.size() > 1) runs = MergePassOp(pool, runs, col);
  return TableData(std::move(runs.tuples));
}

}  // namespace lec
