#include "storage/table_data.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/hash.h"

namespace lec {

TableData GenerateTable(size_t num_pages, int64_t key_range0,
                        int64_t key_range1, Rng* rng) {
  std::vector<Tuple> tuples;
  tuples.reserve(num_pages * kTuplesPerPage);
  int64_t row = 0;
  for (size_t p = 0; p < num_pages; ++p) {
    for (size_t i = 0; i < kTuplesPerPage; ++i, ++row) {
      Tuple t;
      t.cols[0] = key_range0 > 0 ? rng->UniformInt(0, key_range0 - 1) : row;
      t.cols[1] = key_range1 > 0 ? rng->UniformInt(0, key_range1 - 1) : row;
      // Mixed through a bijection so payloads are uniform 64-bit values:
      // CombineTuples' additive lineage fingerprint needs a hashed domain,
      // and distinct-count sketches are unaffected (one payload per row).
      t.payload = static_cast<int64_t>(SplitMix64(static_cast<uint64_t>(row)));
      tuples.push_back(t);
    }
  }
  return TableData(std::move(tuples));
}

int64_t KeyRangeForSelectivity(double selectivity) {
  if (selectivity <= 0 || selectivity > 1) {
    throw std::invalid_argument("selectivity in (0, 1]");
  }
  double k = static_cast<double>(kTuplesPerPage) / selectivity;
  return static_cast<int64_t>(std::llround(std::max(k, 1.0)));
}

}  // namespace lec
