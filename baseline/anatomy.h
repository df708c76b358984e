// Anatomy (Xiao & Tao, VLDB 2006) — the l-diversity bucketization
// baseline of the paper's Figure 9. Anatomy does not generalize:
// tuples are partitioned into groups of >= l distinct SA values (each
// value at most once per group), and the publication is two separate
// tables — a quasi-identifier table QIT (every tuple's exact QI values
// plus its group id) and a sensitive table ST (the SA values of each
// group, at most one entry per tuple).
// The QI-SA linkage inside a group is what the recipient loses.
//
// Group formation is the paper's algorithm: hash tuples into per-value
// buckets, then repeatedly draw one (seeded-random) tuple from each of
// the l largest buckets until fewer than l buckets remain; the
// leftover tuples (at most one per bucket) each join a group that does
// not yet contain their value. Eligible iff no SA value exceeds an
// n/l share of the table.
#ifndef BETALIKE_BASELINE_ANATOMY_H_
#define BETALIKE_BASELINE_ANATOMY_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "data/table.h"

namespace betalike {

struct AnatomyOptions {
  // Distinct-l-diversity parameter: every group carries at least l
  // distinct SA values, each at most once.
  int l = 4;
  // Seed of the random tuple draws inside buckets (the registry and
  // the golden tests rely on the default).
  uint64_t seed = 1;
};

// Ok iff l >= 2.
Status ValidateAnatomyOptions(const AnatomyOptions& options);

// Partitions `table` into Anatomy groups, returned as a
// GeneralizedTable whose equivalence classes are the groups (the
// registry's uniform publication form; the boxes it derives are what a
// generalization-based release of the same partition would publish).
// Fails on invalid options, an empty table, or an ineligible SA
// distribution (some value more frequent than 1/l).
Result<GeneralizedTable> AnonymizeWithAnatomy(
    std::shared_ptr<const Table> table, const AnatomyOptions& options);

// The separate-table publication built from any group partition: QIT
// (exact QI values + group id per row, via source() and group_of_row)
// and ST (the multiset of (group, SA value) entries, one per row). The
// ST is stored value-major: a CSR with one slice per SA value listing
// the ids of the groups that hold it, ascending and once per holding
// row, so it costs 4 B per row plus 8 B per value, next to 8 B per
// group for the sizes. An SA range [lo, hi] is then one contiguous run
// of entries: ForEachEntryInRange reads only the entries whose value
// lies in the range, and the Figure 9 estimator scatters their moments
// into per-group scratch records, so an answer reads no ST entry
// outside its range. Those records are uint16_t when every group's
// size and full-domain Σ v² are at most 65535 (AnatomizedMomentBytes),
// which with SA values >= 0 bounds every range's moments.
class AnatomizedTable {
 public:
  // Accepts any partition of the source rows, including groups that
  // repeat an SA value.
  static AnatomizedTable FromGrouping(const GeneralizedTable& grouped);

  const Table& source() const { return *source_; }
  int64_t num_rows() const { return source_->num_rows(); }
  size_t num_groups() const { return group_sizes_.size(); }
  int32_t group_of_row(int64_t row) const { return group_of_row_[row]; }
  int64_t group_size(size_t group) const { return group_sizes_[group]; }
  int32_t num_values() const {
    return static_cast<int32_t>(value_offsets_.size()) - 1;
  }

  // The ST entries of SA value `value` in [0, num_values()): the ids of
  // the groups holding it, ascending, a group repeated once per row of
  // it that holds the value.
  Span<int32_t> groups_with_value(int32_t value) const {
    return Span<int32_t>(value_groups_.data() + value_offsets_[value],
                         static_cast<size_t>(value_offsets_[value + 1] -
                                             value_offsets_[value]));
  }

  // Calls add(value, group) for every ST entry whose value lies in
  // [sa_lo, sa_hi], value by value ascending and, within a value, in
  // ascending group order. Inclusive; the range is clamped to the SA
  // domain [0, num_values() - 1], so a range outside it or an inverted
  // one (sa_lo > sa_hi) visits nothing.
  template <typename Add>
  void ForEachEntryInRange(int32_t sa_lo, int32_t sa_hi, Add&& add) const {
    const int32_t lo = std::max(sa_lo, 0);
    const int32_t hi = std::min(sa_hi, num_values() - 1);
    for (int32_t value = lo; value <= hi; ++value) {
      for (int32_t group : groups_with_value(value)) add(value, group);
    }
  }

 private:
  AnatomizedTable() = default;

  std::shared_ptr<const Table> source_;
  std::vector<int32_t> group_of_row_;
  std::vector<int64_t> group_sizes_;
  // Value v's ST entries are value_groups_[value_offsets_[v],
  // value_offsets_[v + 1]).
  std::vector<int64_t> value_offsets_;
  std::vector<int32_t> value_groups_;
};

}  // namespace betalike

#endif  // BETALIKE_BASELINE_ANATOMY_H_
