// Column-typed microdata table with a quasi-identifier (QI) / sensitive-
// attribute (SA) schema, plus the generalized (anonymized) form that the
// BUREL and Mondrian schemes publish.
//
// Simplification for this reproduction: every attribute is an ordered
// integer domain [lo, hi]. Categorical attributes (Gender, Education, …)
// are dense codes; information loss treats them like numeric ranges,
// which matches the paper's normalized-extent AIL on CENSUS.
#ifndef BETALIKE_DATA_TABLE_H_
#define BETALIKE_DATA_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"

namespace betalike {

// Schema of one QI column: an ordered integer domain [lo, hi].
struct QiSpec {
  std::string name;
  int32_t lo = 0;
  int32_t hi = 0;

  int64_t extent() const { return static_cast<int64_t>(hi) - lo; }
};

// Schema of the sensitive attribute: dense codes 0..num_values-1.
struct SaSpec {
  std::string name;
  int32_t num_values = 0;
};

// Full schema of a table: the QI domains plus the SA domain. Consumers
// that only need domains — the query/ workload generator, estimator
// sanity checks — take this instead of a whole Table.
struct TableSchema {
  std::vector<QiSpec> qi;
  SaSpec sa;

  int num_qi() const { return static_cast<int>(qi.size()); }
};

class Table {
 public:
  // Builds a table from column-major data. Every QI column must have the
  // same length as `sa`, and all values must lie in their declared
  // domains (checked).
  static Result<Table> Create(std::vector<QiSpec> qi_schema,
                              SaSpec sa_schema,
                              std::vector<std::vector<int32_t>> qi_columns,
                              std::vector<int32_t> sa_column);

  int64_t num_rows() const { return static_cast<int64_t>(sa_.size()); }
  int num_qi() const { return schema_.num_qi(); }

  const TableSchema& schema() const { return schema_; }
  const QiSpec& qi_spec(int dim) const { return schema_.qi[dim]; }
  const SaSpec& sa_spec() const { return schema_.sa; }

  int32_t qi_value(int64_t row, int dim) const { return qi_cols_[dim][row]; }
  int32_t sa_value(int64_t row) const { return sa_[row]; }

  const std::vector<int32_t>& qi_column(int dim) const {
    return qi_cols_[dim];
  }
  const std::vector<int32_t>& sa_column() const { return sa_; }

  // Returns a copy keeping only the first `qi_prefix` QI attributes
  // (1 <= qi_prefix <= num_qi()); the SA column is always kept. The
  // benches use this to vary QI dimensionality (Figure 6).
  Result<Table> WithQiPrefix(int qi_prefix) const;

  // Uniform sample of `n` distinct rows (n <= num_rows()), in the order
  // drawn. Deterministic given the Rng state.
  Table SampleRows(int64_t n, Rng* rng) const;

  // Overall SA distribution p_v: frequency of each SA value in the table,
  // indexed by value code; sums to 1 for a non-empty table.
  std::vector<double> SaFrequencies() const;

 private:
  Table() = default;

  TableSchema schema_;
  std::vector<std::vector<int32_t>> qi_cols_;
  std::vector<int32_t> sa_;
};

// Normalized information loss of publishing the QI bounding box
// [qi_min, qi_max] in place of exact values: the mean over QI
// attributes of (box extent / domain extent); single-point domains
// contribute 0. This single definition is both the AIL integrand
// (metrics/info_loss) and the objective BUREL's cut search minimizes.
// It reads only the schema, so sources without a materialized Table
// (data/chunked_table) score boxes with the same arithmetic.
double NormalizedBoxLoss(const TableSchema& schema,
                         const std::vector<int32_t>& qi_min,
                         const std::vector<int32_t>& qi_max);

// One equivalence class of a published table: the member rows of the
// source table plus the generalized per-QI ranges (the EC's bounding
// box) that replace their QI values.
struct EquivalenceClass {
  std::vector<int64_t> rows;
  std::vector<int32_t> qi_min;
  std::vector<int32_t> qi_max;

  int64_t size() const { return static_cast<int64_t>(rows.size()); }
};

// The anonymized publication: a partition of the source rows into
// equivalence classes. Construction validates that the classes cover
// every source row exactly once and computes the bounding boxes.
class GeneralizedTable {
 public:
  static Result<GeneralizedTable> Create(
      std::shared_ptr<const Table> source,
      std::vector<std::vector<int64_t>> ec_rows);

  const Table& source() const { return *source_; }
  // The owning handle to the source, for publication views that must
  // outlive this partition (perturbation copies, Anatomy's QIT).
  const std::shared_ptr<const Table>& shared_source() const {
    return source_;
  }
  int64_t num_rows() const { return source_->num_rows(); }
  size_t num_ecs() const { return ecs_.size(); }
  const EquivalenceClass& ec(size_t i) const { return ecs_[i]; }
  const std::vector<EquivalenceClass>& ecs() const { return ecs_; }

 private:
  GeneralizedTable() = default;

  std::shared_ptr<const Table> source_;
  std::vector<EquivalenceClass> ecs_;
};

// Prefix-summed per-equivalence-class SA histograms of a publication,
// built once so every (class, SA range) lookup is O(1). Shared by the
// generalized and perturbed query estimators and by the §7 attacks;
// holds copied counts only, so it stays valid independently of the
// indexed publication's lifetime. Besides plain counts it carries
// value-weighted (Σ v·count) prefixes, the moment the SUM estimator
// needs.
class EcSaIndex {
 public:
  explicit EcSaIndex(const GeneralizedTable& published);

  // Tuples of class `ec` whose SA value lies in [lo, hi] (inclusive;
  // clamped to the SA domain).
  int64_t Count(size_t ec, int32_t lo, int32_t hi) const;

  // Σ v over the tuples of class `ec` with SA value v in [lo, hi] —
  // the exact SUM(SA) of the class restricted to the range.
  int64_t ValueSum(size_t ec, int32_t lo, int32_t hi) const;

 private:
  int32_t num_values_ = 0;
  std::vector<int64_t> prefix_;           // counts
  std::vector<int64_t> weighted_prefix_;  // Σ v·count
};

}  // namespace betalike

#endif  // BETALIKE_DATA_TABLE_H_
