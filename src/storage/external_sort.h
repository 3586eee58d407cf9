// External merge sort over TableData, charging page I/O to a BufferPool.
//
// Mirrors the analytic CostModel::SortCost structure: run formation with M
// workspace pages, then (M-1)-way merge passes. For inputs larger than
// memory the measured I/O equals 2·pages·(1 + merge passes) exactly; an
// input that fits in memory is sorted in place for one read of the input.
#ifndef LECOPT_STORAGE_EXTERNAL_SORT_H_
#define LECOPT_STORAGE_EXTERNAL_SORT_H_

#include <cstddef>
#include <span>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/table_data.h"

namespace lec {

/// Sorted runs laid end to end in one buffer: run r is
/// tuples[bounds[r], bounds[r + 1]).
struct SortedRuns {
  std::vector<Tuple> tuples;
  std::vector<size_t> bounds = {0};

  size_t size() const { return bounds.size() - 1; }
  std::span<const Tuple> run(size_t r) const {
    return std::span<const Tuple>(tuples).subspan(bounds[r],
                                                  bounds[r + 1] - bounds[r]);
  }
};

/// Sorts `input` by column `col` using at most pool->capacity() workspace
/// pages. Charges all run-formation and merge-pass I/O to the pool.
TableData ExternalSortOp(BufferPool* pool, const TableData& input, int col);

/// Sorted runs after run formation only (building block shared with the
/// sort-merge join): each run is stably sorted by `col` and at most M pages
/// long. Charges one read and one write of the input.
SortedRuns FormSortedRuns(BufferPool* pool, const TableData& input, int col);

/// One full merge pass reducing `runs` to ceil(runs / (M-1)) runs; charges
/// one read and one write of all pages involved.
SortedRuns MergePassOp(BufferPool* pool, const SortedRuns& runs, int col);

/// Stable merge of runs [first, last) by `col`, appended to `out`: equal
/// keys keep run order, then in-run order — the same sequence a stable sort
/// of the concatenated runs gives, at O(n log k). Charges no I/O.
void MergeRuns(const SortedRuns& runs, size_t first, size_t last, int col,
               std::vector<Tuple>* out);

}  // namespace lec

#endif  // LECOPT_STORAGE_EXTERNAL_SORT_H_
