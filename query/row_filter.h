// The row-selection kernel of the query layer (internal header): every
// consumer that asks "which raw rows satisfy these range predicates" —
// the Precise* ground truth and the Anatomy estimator — runs through
// ForEachMatchingRow, so there is exactly one row-predicate loop.
//
// Rows are filtered in fixed blocks: one branch-free pass per range
// predicate AND-s a byte mask (GCC auto-vectorizes these passes, the
// discipline of the formation kernels), then the selected rows of the
// block are visited in ascending order. Visiting in row order keeps
// every caller's floating-point accumulation order, so answers are
// bitwise those of a plain row-at-a-time scan.
#ifndef BETALIKE_QUERY_ROW_FILTER_H_
#define BETALIKE_QUERY_ROW_FILTER_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/span.h"
#include "data/table.h"
#include "query/workload.h"

namespace betalike {

// One inclusive range predicate `lo <= column[row] <= hi`; an inverted
// range (lo > hi) selects nothing.
struct ColumnRange {
  const int32_t* column;
  int32_t lo;
  int32_t hi;
};

// Rows per mask block: small enough for the mask and the block's
// column slices to stay in L1, large enough to amortize the per-block
// setup.
constexpr int64_t kRowBlock = 2048;

// The column ranges of `query` over `table`: one per QI predicate,
// then the SA range when `with_sa` is set and the query has one (the SA
// column filters exactly like one more range predicate).
inline std::vector<ColumnRange> QueryRanges(const Table& table,
                                            const AggregateQuery& query,
                                            bool with_sa) {
  std::vector<ColumnRange> ranges;
  ranges.reserve(query.predicates.size() + 1);
  for (const QueryPredicate& p : query.predicates) {
    ranges.push_back({table.qi_column(p.dim).data(), p.lo, p.hi});
  }
  if (with_sa && query.has_sa_predicate()) {
    ranges.push_back({table.sa_column().data(), query.sa_lo, query.sa_hi});
  }
  return ranges;
}

// Calls visit(row) for every row in [0, n) that satisfies all
// `ranges`, in ascending row order. With no ranges every row matches.
template <typename Visit>
void ForEachMatchingRow(int64_t n, Span<ColumnRange> ranges, Visit&& visit) {
  alignas(64) uint8_t mask[kRowBlock];
  for (int64_t base = 0; base < n; base += kRowBlock) {
    const int64_t len = std::min(kRowBlock, n - base);
    std::memset(mask, 1, static_cast<size_t>(len));
    for (const ColumnRange& r : ranges) {
      const int32_t* column = r.column + base;
      const int32_t lo = r.lo;
      const int32_t hi = r.hi;
      for (int64_t i = 0; i < len; ++i) {
        mask[i] &= static_cast<uint8_t>((column[i] >= lo) & (column[i] <= hi));
      }
    }
    // Skip unselected rows eight mask bytes at a time.
    int64_t i = 0;
    for (; i + 8 <= len; i += 8) {
      uint64_t word;
      std::memcpy(&word, mask + i, sizeof word);
      if (word == 0) continue;
      for (int64_t j = i; j < i + 8; ++j) {
        if (mask[j] != 0) visit(base + j);
      }
    }
    for (; i < len; ++i) {
      if (mask[i] != 0) visit(base + i);
    }
  }
}

}  // namespace betalike

#endif  // BETALIKE_QUERY_ROW_FILTER_H_
