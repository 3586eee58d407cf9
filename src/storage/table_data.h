// Tuples and materialized synthetic relations for the mini storage engine.
//
// The engine exists to validate the analytic cost model against a system
// that actually moves pages (DESIGN.md, system #15): synthetic tuples, a
// fixed tuples-per-page layout, and join keys in two columns so that chain
// queries can join a relation to two different neighbours.
//
// A relation is one contiguous tuple array. Page i is the kTuplesPerPage
// slice starting at tuple i·kTuplesPerPage; a relation only grows at its
// end, so every page but the last is full and the page count is a function
// of the tuple count alone.
#ifndef LECOPT_STORAGE_TABLE_DATA_H_
#define LECOPT_STORAGE_TABLE_DATA_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace lec {

/// A synthetic row: two join-key columns and a payload.
struct Tuple {
  int64_t cols[2] = {0, 0};
  int64_t payload = 0;
};

/// Tuples per page; fixed so page counts translate to row counts.
inline constexpr size_t kTuplesPerPage = 64;

/// Pages occupied by `n` tuples.
inline constexpr size_t PagesForTuples(size_t n) {
  return (n + kTuplesPerPage - 1) / kTuplesPerPage;
}

/// A relation stored as a sequence of pages ("on disk"). All operator I/O
/// against it is charged through the BufferPool.
class TableData {
 public:
  TableData() = default;
  /// Adopts `tuples` in storage order.
  explicit TableData(std::vector<Tuple> tuples) : tuples_(std::move(tuples)) {}

  size_t num_pages() const { return PagesForTuples(tuples_.size()); }
  size_t num_tuples() const { return tuples_.size(); }

  /// Page `i` (i < num_pages()): kTuplesPerPage tuples, fewer on the last.
  std::span<const Tuple> page(size_t i) const {
    size_t begin = i * kTuplesPerPage;
    return tuples().subspan(begin,
                            std::min(kTuplesPerPage, tuples_.size() - begin));
  }

  /// Every tuple in storage order.
  std::span<const Tuple> tuples() const { return tuples_; }

  /// Appends `t` to the last page, opening a new page when it is full.
  void Append(const Tuple& t) { tuples_.push_back(t); }

  /// Calls `fn` on every tuple in storage order.
  template <class Fn>
  void ForEachTuple(Fn&& fn) const {
    for (const Tuple& t : tuples_) fn(t);
  }

 private:
  std::vector<Tuple> tuples_;
};

/// Generates `num_pages` full pages whose column c is uniform in
/// [0, key_range[c]) (key_range value 0 means the column is the row id —
/// unique keys). Payload is the global row number.
TableData GenerateTable(size_t num_pages, int64_t key_range0,
                        int64_t key_range1, Rng* rng);

/// Key range giving a target page-domain join selectivity for uniform keys:
/// matches = rows_a·rows_b/K and result pages = selectivity·|A|·|B| combine
/// to K = kTuplesPerPage / selectivity.
int64_t KeyRangeForSelectivity(double selectivity);

}  // namespace lec

#endif  // LECOPT_STORAGE_TABLE_DATA_H_
