// The row-selection kernel of the query layer (internal header): every
// consumer that asks "which raw rows satisfy these range predicates" —
// the Precise* ground truth and the Anatomy estimator — runs through
// BuildRowMask, so there is exactly one row-predicate loop.
//
// Rows are filtered in fixed blocks: one branch-free pass per range
// predicate AND-s a byte mask (GCC auto-vectorizes these passes, the
// discipline of the formation kernels). ForEachMatchingRow then visits
// the selected rows of the block in ascending order, reading the mask
// eight bytes at a time and jumping from one set byte to the next with
// a count-trailing-zeros, so unselected rows cost no branch. Visiting
// in row order keeps every caller's floating-point accumulation order,
// so answers are bitwise those of a plain row-at-a-time scan.
// CountMatchingRows sums the mask instead and visits nothing.
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

// Sets mask[i] to 1 if row `base + i` satisfies all `ranges` and to 0
// otherwise, for i in [0, len); len <= kRowBlock.
inline void BuildRowMask(int64_t base, int64_t len, Span<ColumnRange> ranges,
                         uint8_t* mask) {
  std::memset(mask, 1, static_cast<size_t>(len));
  for (const ColumnRange& r : ranges) {
    const int32_t* column = r.column + base;
    const int32_t lo = r.lo;
    const int32_t hi = r.hi;
    for (int64_t i = 0; i < len; ++i) {
      mask[i] &= static_cast<uint8_t>((column[i] >= lo) & (column[i] <= hi));
    }
  }
}

// Calls visit(row) for every row in [0, n) that satisfies all
// `ranges`, in ascending row order. With no ranges every row matches.
template <typename Visit>
void ForEachMatchingRow(int64_t n, Span<ColumnRange> ranges, Visit&& visit) {
  static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
                "the mask walk reads byte i of a word as its bits 8i..8i+7");
  alignas(64) uint8_t mask[kRowBlock];
  for (int64_t base = 0; base < n; base += kRowBlock) {
    const int64_t len = std::min(kRowBlock, n - base);
    BuildRowMask(base, len, ranges, mask);
    // Zero-pad a short last block to whole words.
    const int64_t padded = (len + 7) & ~int64_t{7};
    std::memset(mask + len, 0, static_cast<size_t>(padded - len));
    // Every mask byte is 0 or 1, so a set byte j of a word is its bit
    // 8j: ctz / 8 finds the lowest selected row, and word &= word - 1
    // clears it.
    for (int64_t i = 0; i < padded; i += 8) {
      uint64_t word;
      std::memcpy(&word, mask + i, sizeof word);
      while (word != 0) {
        visit(base + i + (__builtin_ctzll(word) >> 3));
        word &= word - 1;
      }
    }
  }
}

// The number of rows in [0, n) that satisfy all `ranges`: the count of
// ForEachMatchingRow's visits, without visiting.
inline int64_t CountMatchingRows(int64_t n, Span<ColumnRange> ranges) {
  alignas(64) uint8_t mask[kRowBlock];
  int64_t count = 0;
  for (int64_t base = 0; base < n; base += kRowBlock) {
    const int64_t len = std::min(kRowBlock, n - base);
    BuildRowMask(base, len, ranges, mask);
    uint32_t block = 0;  // at most kRowBlock
    for (int64_t i = 0; i < len; ++i) block += mask[i];
    count += block;
  }
  return count;
}

}  // namespace betalike

#endif  // BETALIKE_QUERY_ROW_FILTER_H_
