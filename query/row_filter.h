// The row-selection kernel of the query layer (internal header): every
// consumer that asks "which raw rows satisfy these range predicates" —
// the Precise* ground truth and the Anatomy estimator — runs through
// BuildRowMask, so there is exactly one row-predicate loop.
//
// Rows are filtered in fixed blocks: one branch-free pass per range
// predicate AND-s a byte mask (GCC auto-vectorizes these passes, the
// discipline of the formation kernels). ForEachMatchingRow then packs
// each 64 mask bytes into one bit word (a multiply per eight bytes),
// decodes the word's set bits into the block's selection vector with
// count-trailing-zeros in rounds of four, and visits that vector. The
// decode branches once per 64-row word rather than once per selected
// row, and the visit loop runs over a known count, so a visit body's
// loads overlap across rows. Visiting in row order keeps every
// caller's floating-point accumulation order, so answers are bitwise
// those of a plain row-at-a-time scan. CountMatchingRows sums the mask
// instead and visits nothing.
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

// A word of eight 0/1 mask bytes times this constant holds mask byte j
// in bit 56 + j, so its top byte is the eight mask bits in row order:
// byte j's bit 8j times term 2^(56 - 7j) lands on bit 56 + j, and every
// other (byte, term) product lands on its own bit below 56 or above 63,
// so nothing carries into the top byte.
constexpr uint64_t kPackBytes = 0x0102040810204080;

// Calls visit(row) for every row in [0, n) that satisfies all
// `ranges`, in ascending row order. With no ranges every row matches.
template <typename Visit>
void ForEachMatchingRow(int64_t n, Span<ColumnRange> ranges, Visit&& visit) {
  static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
                "the mask walk reads byte i of a word as its bits 8i..8i+7");
  static_assert(kRowBlock % 64 == 0 && kRowBlock <= 65536,
                "blocks are whole 64-row words with uint16_t offsets");
  alignas(64) uint8_t mask[kRowBlock];
  // The block's selected rows as offsets from its base, ascending. The
  // decode writes in rounds of four, so up to three entries past the
  // last selected row land in the slack.
  uint16_t selected[kRowBlock + 3];
  for (int64_t base = 0; base < n; base += kRowBlock) {
    const int64_t len = std::min(kRowBlock, n - base);
    BuildRowMask(base, len, ranges, mask);
    // Zero-pad a short last block to whole 64-row words.
    const int64_t padded = (len + 63) & ~int64_t{63};
    std::memset(mask + len, 0, static_cast<size_t>(padded - len));
    int64_t count = 0;
    for (int64_t i = 0; i < padded; i += 64) {
      uint64_t bits = 0;
      for (int j = 0; j < 8; ++j) {
        uint64_t word;
        std::memcpy(&word, mask + i + 8 * j, sizeof word);
        bits |= ((word * kPackBytes) >> 56) << (8 * j);
      }
      // Rounds of four: ctz finds the lowest selected row and
      // bits &= bits - 1 clears it. The top bit keeps ctz defined once
      // the word is spent (it then reads 63 into the slack) without
      // moving the lowest set bit of a word that is not.
      const int64_t end = count + __builtin_popcountll(bits);
      while (count < end) {
        for (int k = 0; k < 4; ++k) {
          selected[count + k] = static_cast<uint16_t>(
              i + __builtin_ctzll(bits | (uint64_t{1} << 63)));
          bits &= bits - 1;
        }
        count += 4;
      }
      count = end;
    }
    for (int64_t k = 0; k < count; ++k) visit(base + selected[k]);
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
