#include "storage/join_operators.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "storage/external_sort.h"
#include "util/hash.h"

namespace lec {

namespace {

Tuple CombineTuples(const Tuple& l, const Tuple& r,
                    const JoinColumnSpec& spec) {
  Tuple out;
  out.cols[0] = (spec.out0_side == 0 ? l : r).cols[spec.out0_col];
  out.cols[1] = (spec.out1_side == 0 ? l : r).cols[spec.out1_col];
  // Additive multiset hash over the base rows' payloads. Payloads live in a
  // SplitMix64-mixed domain (GenerateTable), so the wrapping unsigned sum is
  // a collision-resistant lineage fingerprint that is commutative AND
  // associative: every join order and association over the same base rows
  // produces the same payload. That is what lets result multisets compare
  // exactly across plan orders — including mid-flight re-optimized tails
  // (exec/plan_executor.h) — and it stays well-defined for arbitrarily deep
  // cascades (the old `l.payload << 31 + r.payload` encoding overflowed
  // int64_t on any 3-way join: signed-overflow UB).
  out.payload = static_cast<int64_t>(static_cast<uint64_t>(l.payload) +
                                     static_cast<uint64_t>(r.payload));
  return out;
}

/// Equi-join index over a build array: head_[bucket] starts a chain of
/// build-tuple indices linked through next_, with each tuple's key copied
/// into keys_ so a probe never touches the tuples themselves. Chains are
/// newest-first, so a probe visits equal keys in reverse insertion order.
/// Build() reuses the arrays' capacity, so one index serves every
/// partition of a Grace join without further allocation.
class HashIndex {
 public:
  static constexpr uint32_t kEnd = std::numeric_limits<uint32_t>::max();

  /// Indexes column `col` of `build`. With `ascending` false the tuples are
  /// inserted first to last, so a probe yields equal keys by descending
  /// build index; with `ascending` true they are inserted last to first.
  void Build(std::span<const Tuple> build, int col, bool ascending) {
    if (build.size() >= kEnd) throw std::length_error("hash index overflow");
    shift_ = 63;
    size_t buckets = 2;
    while (buckets < 2 * build.size()) {
      buckets <<= 1;
      --shift_;
    }
    head_.assign(buckets, kEnd);
    next_.resize(build.size());
    keys_.resize(build.size());
    auto insert = [&](uint32_t i) {
      int64_t key = build[i].cols[col];
      keys_[i] = key;
      uint32_t& head = head_[Bucket(key)];
      next_[i] = head;
      head = i;
    };
    uint32_t n = static_cast<uint32_t>(build.size());
    if (ascending) {
      for (uint32_t i = n; i-- > 0;) insert(i);
    } else {
      for (uint32_t i = 0; i < n; ++i) insert(i);
    }
  }

  /// The first build index whose key equals `key`, or kEnd.
  uint32_t First(int64_t key) const {
    return Skip(head_[Bucket(key)], key);
  }

  /// The build index after `i` in `key`'s chain whose key equals `key`.
  uint32_t Next(uint32_t i, int64_t key) const { return Skip(next_[i], key); }

 private:
  /// Fibonacci hashing: the top bits of key·2^64/phi.
  size_t Bucket(int64_t key) const {
    return static_cast<size_t>(
        (static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  uint32_t Skip(uint32_t i, int64_t key) const {
    while (i != kEnd && keys_[i] != key) i = next_[i];
    return i;
  }

  std::vector<uint32_t> head_;
  std::vector<uint32_t> next_;
  std::vector<int64_t> keys_;
  int shift_ = 63;
};

/// Builds `index` over the left side if `build_left`, else the right, and
/// probes it with the other, appending matches in (probe tuple, build tuple
/// newest-first) order.
void InMemoryHashJoin(std::span<const Tuple> left,
                      std::span<const Tuple> right, bool build_left,
                      const JoinColumnSpec& spec, HashIndex* index,
                      TableData* out) {
  std::span<const Tuple> build = build_left ? left : right;
  std::span<const Tuple> probe = build_left ? right : left;
  int build_col = build_left ? spec.left_col : spec.right_col;
  int probe_col = build_left ? spec.right_col : spec.left_col;
  index->Build(build, build_col, /*ascending=*/false);
  for (const Tuple& p : probe) {
    int64_t key = p.cols[probe_col];
    for (uint32_t b = index->First(key); b != HashIndex::kEnd;
         b = index->Next(b, key)) {
      out->Append(build_left ? CombineTuples(build[b], p, spec)
                             : CombineTuples(p, build[b], spec));
    }
  }
}

/// Recursive Grace partition-and-join. Each recursion level scatters its
/// partitions into one buffer per side, reused by every partition at that
/// level and sized on first use to the largest partition of the level
/// above, so a join allocates per level, not per partition.
class GraceJoin {
 public:
  static constexpr int kMaxDepth = 10;

  GraceJoin(BufferPool* pool, const JoinColumnSpec& spec, TableData* out)
      : pool_(pool), spec_(spec), out_(out), levels_(kMaxDepth) {}

  void Run(std::span<const Tuple> left, std::span<const Tuple> right,
           int depth) {
    size_t memory = pool_->capacity();
    size_t left_pages = PagesForTuples(left.size());
    size_t right_pages = PagesForTuples(right.size());
    size_t build_pages = std::min(left_pages, right_pages);

    // After at least one partition pass, join in memory once the build side
    // fits (also the escape hatch for heavily skewed keys).
    if (depth > 0 && (build_pages + 2 <= memory || depth >= kMaxDepth)) {
      pool_->ChargeRead(left_pages + right_pages);  // read both partitions
      InMemoryHashJoin(left, right, left_pages <= right_pages, spec_,
                       &index_, out_);
      return;
    }

    // Partition pass: read both sides, write all partitions. The workspace
    // reservation is scoped to the pass itself — partitions live "on disk"
    // between the pass and the per-partition joins.
    // Just enough partitions for each build partition to fit in memory,
    // capped by the M-1 available output buffers (avoids the pathological
    // one-page-per-partition rounding when memory is plentiful).
    size_t fan_out = std::max<size_t>(memory > 1 ? memory - 1 : 1, 2);
    size_t denom = memory > 2 ? memory - 2 : 1;
    size_t needed = (build_pages + denom - 1) / denom + 1;
    size_t parts = std::clamp<size_t>(needed, 2, fan_out);
    if (depth == 0) ids_.reserve(std::max(left.size(), right.size()));
    Level& level = levels_[static_cast<size_t>(depth)];
    const Level* above =
        depth > 0 ? &levels_[static_cast<size_t>(depth - 1)] : nullptr;
    {
      BufferPool::Reservation workspace = pool_->Reserve(memory);
      pool_->ChargeRead(left_pages + right_pages);
      uint64_t salt = 0x5bd1e995ULL * static_cast<uint64_t>(depth + 1);
      Scatter(left, spec_.left_col, parts, salt,
              above ? above->left.largest : left.size(), &level.left);
      Scatter(right, spec_.right_col, parts, salt,
              above ? above->right.largest : right.size(), &level.right);
      for (size_t i = 0; i < parts; ++i) {
        pool_->ChargeWrite(PagesForTuples(level.left.size(i)));
        pool_->ChargeWrite(PagesForTuples(level.right.size(i)));
      }
    }
    for (size_t i = 0; i < parts; ++i) {
      if (level.left.size(i) == 0 || level.right.size(i) == 0) continue;
      Run(level.left.part(i), level.right.part(i), depth + 1);
    }
  }

 private:
  /// One side's partitions at one level: partition i is
  /// tuples[offsets[i], offsets[i + 1]), in input order.
  struct Partitions {
    std::vector<Tuple> tuples;
    std::vector<size_t> offsets;
    size_t largest = 0;  ///< tuples in the largest partition

    size_t size(size_t i) const { return offsets[i + 1] - offsets[i]; }
    std::span<const Tuple> part(size_t i) const {
      return std::span<const Tuple>(tuples).subspan(offsets[i], size(i));
    }
  };
  struct Level {
    Partitions left, right;
  };

  /// Count-then-scatter: a stable counting sort of `in` by partition id.
  /// `capacity` bounds every input this level will see.
  void Scatter(std::span<const Tuple> in, int col, size_t parts,
               uint64_t salt, size_t capacity, Partitions* out) {
    if (ids_.size() < in.size()) ids_.resize(in.size());
    out->offsets.assign(parts + 1, 0);
    for (size_t i = 0; i < in.size(); ++i) {
      uint32_t id = static_cast<uint32_t>(
          SplitMix64(static_cast<uint64_t>(in[i].cols[col]) + salt) % parts);
      ids_[i] = id;
      ++out->offsets[id + 1];
    }
    out->largest = 0;
    for (size_t p = 0; p < parts; ++p) {
      out->largest = std::max(out->largest, out->offsets[p + 1]);
      out->offsets[p + 1] += out->offsets[p];
    }
    if (out->tuples.size() < in.size()) {
      out->tuples.reserve(capacity);
      out->tuples.resize(in.size());
    }
    // Scatter with offsets[id] as the fill cursor, then shift the cursors
    // (now each partition's end) back into partition starts.
    std::vector<size_t>& fill = out->offsets;
    for (size_t i = 0; i < in.size(); ++i) {
      out->tuples[fill[ids_[i]]++] = in[i];
    }
    for (size_t p = parts; p > 0; --p) fill[p] = fill[p - 1];
    fill[0] = 0;
  }

  BufferPool* pool_;
  const JoinColumnSpec& spec_;
  TableData* out_;
  HashIndex index_;
  std::vector<uint32_t> ids_;  ///< partition id per input tuple, per pass
  std::vector<Level> levels_;
};

}  // namespace

TableData SortMergeJoinOp(BufferPool* pool, const TableData& left,
                          const TableData& right, const JoinColumnSpec& spec,
                          bool left_sorted, bool right_sorted) {
  size_t memory = pool->capacity();
  size_t fan_in = std::max<size_t>(memory > 1 ? memory - 1 : 1, 2);

  // One side's input to the final merge-join: its sorted tuples, either the
  // pre-sorted table itself (read once there) or its runs after run
  // formation and merge passes, merged stably in run order.
  struct Side {
    SortedRuns runs;
    std::vector<Tuple> merged;
    std::span<const Tuple> sorted;
  };
  auto prepare = [&](const TableData& t, int col, bool presorted,
                     const char* name, Side* side) {
    if (presorted) {
      std::span<const Tuple> all = t.tuples();
      if (std::adjacent_find(all.begin(), all.end(),
                             [col](const Tuple& a, const Tuple& b) {
                               return a.cols[col] > b.cols[col];
                             }) != all.end()) {
        throw std::invalid_argument(std::string(name) +
                                    " input flagged pre-sorted is not sorted "
                                    "on its join column");
      }
      pool->ChargeRead(t.num_pages());
      side->sorted = all;
      return;
    }
    // Phase 1: sorted runs.
    side->runs = FormSortedRuns(pool, t, col);
    // Phase 2: merge passes, counted per side — each side independently
    // merges until its runs fit one merge fan-in, exactly the pass
    // structure CostModel::SortCost charges. (The old joint condition
    // `lruns + rruns > fan_in` forced extra passes whenever the two sides'
    // run counts summed above the fan-in even though each side alone fit,
    // diverging from the model; the E23 operator-vs-model parity test pins
    // the per-side accounting.)
    while (side->runs.size() > fan_in) {
      side->runs = MergePassOp(pool, side->runs, col);
    }
    // Phase 3 reads every remaining run page once.
    for (size_t r = 0; r < side->runs.size(); ++r) {
      pool->ChargeRead(PagesForTuples(side->runs.run(r).size()));
    }
    if (side->runs.size() == 1) {
      side->sorted = side->runs.run(0);
      return;
    }
    side->merged.reserve(side->runs.tuples.size());
    MergeRuns(side->runs, 0, side->runs.size(), col, &side->merged);
    side->sorted = side->merged;
  };
  Side ls, rs;
  prepare(left, spec.left_col, left_sorted, "left", &ls);
  prepare(right, spec.right_col, right_sorted, "right", &rs);
  std::span<const Tuple> l = ls.sorted, r = rs.sorted;

  // Phase 3: the merge-join itself.
  TableData out;
  size_t i = 0, j = 0;
  while (i < l.size() && j < r.size()) {
    int64_t lk = l[i].cols[spec.left_col];
    int64_t rk = r[j].cols[spec.right_col];
    if (lk < rk) {
      ++i;
    } else if (lk > rk) {
      ++j;
    } else {
      size_t i_end = i;
      while (i_end < l.size() && l[i_end].cols[spec.left_col] == lk) ++i_end;
      size_t j_end = j;
      while (j_end < r.size() && r[j_end].cols[spec.right_col] == rk) ++j_end;
      for (size_t a = i; a < i_end; ++a) {
        for (size_t b = j; b < j_end; ++b) {
          out.Append(CombineTuples(l[a], r[b], spec));
        }
      }
      i = i_end;
      j = j_end;
    }
  }
  return out;
}

TableData GraceHashJoinOp(BufferPool* pool, const TableData& left,
                          const TableData& right,
                          const JoinColumnSpec& spec) {
  TableData out;
  GraceJoin(pool, spec, &out).Run(left.tuples(), right.tuples(), /*depth=*/0);
  return out;
}

TableData NestedLoopJoinOp(BufferPool* pool, const TableData& left,
                           const TableData& right,
                           const JoinColumnSpec& spec) {
  size_t memory = pool->capacity();
  size_t smaller = std::min(left.num_pages(), right.num_pages());
  TableData out;
  HashIndex index;
  if (smaller + 2 <= memory) {
    // Inner (smaller) relation resident, probe streamed page-at-a-time:
    // the S+2 reservation is S pages of build plus one input and one
    // output buffer, so materializing the probe side too would use
    // unreserved memory (the workspace bound would silently be a lie).
    // Total I/O is unchanged: one read of each input, |A| + |B|.
    BufferPool::Reservation workspace = pool->Reserve(smaller + 2);
    pool->ChargeRead(left.num_pages() + right.num_pages());
    InMemoryHashJoin(left.tuples(), right.tuples(),
                     left.num_pages() <= right.num_pages(), spec, &index,
                     &out);
    return out;
  }
  // Page nested loops with the left as outer (the paper's |A| + |A|·|B|):
  // every left page is read once and meets every right page. The index
  // over the right side only finds each left tuple's matches; chains run by
  // ascending right index, so each left slot's matches arrive page by page
  // and the output keeps the page loop's (right page, left slot, right
  // slot) order.
  BufferPool::Reservation workspace = pool->Reserve(std::min<size_t>(3,
                                                                     memory));
  std::span<const Tuple> inner = right.tuples();
  index.Build(inner, spec.right_col, /*ascending=*/true);
  struct Cursor {
    uint32_t slot;  ///< left slot in the current page
    uint32_t at;    ///< its next matching right tuple
  };
  std::vector<Cursor> active;
  active.reserve(kTuplesPerPage);
  for (size_t i = 0; i < left.num_pages(); ++i) {
    pool->ChargeRead(1 + right.num_pages());
    std::span<const Tuple> lp = left.page(i);
    active.clear();
    for (uint32_t s = 0; s < lp.size(); ++s) {
      uint32_t at = index.First(lp[s].cols[spec.left_col]);
      if (at != HashIndex::kEnd) active.push_back({s, at});
    }
    while (!active.empty()) {
      // The next right page holding a match for any left slot.
      uint32_t lowest = active.front().at;
      for (const Cursor& c : active) lowest = std::min(lowest, c.at);
      size_t page_end = (lowest / kTuplesPerPage + 1) * kTuplesPerPage;
      size_t kept = 0;
      for (Cursor c : active) {
        const Tuple& lt = lp[c.slot];
        int64_t key = lt.cols[spec.left_col];
        for (; c.at != HashIndex::kEnd && c.at < page_end;
             c.at = index.Next(c.at, key)) {
          out.Append(CombineTuples(lt, inner[c.at], spec));
        }
        if (c.at != HashIndex::kEnd) active[kept++] = c;
      }
      active.resize(kept);
    }
  }
  return out;
}

TableData NaiveJoinReference(const TableData& left, const TableData& right,
                             const JoinColumnSpec& spec) {
  TableData out;
  for (const Tuple& lt : left.tuples()) {
    for (const Tuple& rt : right.tuples()) {
      if (lt.cols[spec.left_col] == rt.cols[spec.right_col]) {
        out.Append(CombineTuples(lt, rt, spec));
      }
    }
  }
  return out;
}

}  // namespace lec
