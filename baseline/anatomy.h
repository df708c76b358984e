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

#include <cstdint>
#include <memory>
#include <vector>

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

// Count, Σ v and Σ v² of the SA values v of one group that lie in a
// range: the ST moments the Anatomy estimators spread across the
// group's rows.
struct SaMoments {
  int64_t count = 0;
  int64_t sum = 0;
  int64_t square_sum = 0;
};

// The separate-table publication built from any group partition: QIT
// (exact QI values + group id per row, via source() and group_of_row)
// and ST (the multiset of SA values of each group, stored as one CSR
// array — the group's entries are contiguous — so the ST costs 4 B per
// row plus 8 B per group, like Anatomy's own one-row-per-(group, value)
// table). This is the view the Figure 9 estimator answers from: it
// reads the ST through GroupSaMoments at most once per group per
// answer, into a per-query record of what its row visit needs, and not
// at all for a COUNT or SUM without an SA range (the full-domain SUM
// records are read once, when the estimator is made).
class AnatomizedTable {
 public:
  // Accepts any partition of the source rows, including groups that
  // repeat an SA value.
  static AnatomizedTable FromGrouping(const GeneralizedTable& grouped);

  const Table& source() const { return *source_; }
  int64_t num_rows() const { return source_->num_rows(); }
  size_t num_groups() const { return group_offsets_.size() - 1; }
  int32_t group_of_row(int64_t row) const { return group_of_row_[row]; }
  int64_t group_size(size_t group) const {
    return group_offsets_[group + 1] - group_offsets_[group];
  }

  // The moments of `group`'s SA values in [sa_lo, sa_hi], in one pass
  // over the group's ST entries. Inclusive; a range outside the SA
  // domain or an inverted one (sa_lo > sa_hi) selects nothing.
  SaMoments GroupSaMoments(size_t group, int32_t sa_lo, int32_t sa_hi) const {
    SaMoments out;
    const int32_t* begin = group_sa_.data() + group_offsets_[group];
    const int32_t* end = group_sa_.data() + group_offsets_[group + 1];
    for (const int32_t* it = begin; it != end; ++it) {
      const int64_t v = *it;
      const int64_t in = (v >= sa_lo) & (v <= sa_hi);
      out.count += in;
      out.sum += in * v;
      out.square_sum += in * v * v;
    }
    return out;
  }

 private:
  AnatomizedTable() = default;

  std::shared_ptr<const Table> source_;
  std::vector<int32_t> group_of_row_;
  // Group g's SA values are group_sa_[group_offsets_[g],
  // group_offsets_[g + 1]).
  std::vector<int64_t> group_offsets_;
  std::vector<int32_t> group_sa_;
};

}  // namespace betalike

#endif  // BETALIKE_BASELINE_ANATOMY_H_
