#include "data/table.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"

namespace betalike {

Result<Table> Table::Create(std::vector<QiSpec> qi_schema, SaSpec sa_schema,
                            std::vector<std::vector<int32_t>> qi_columns,
                            std::vector<int32_t> sa_column) {
  if (qi_schema.size() != qi_columns.size()) {
    return Status::InvalidArgument(
        StrFormat("schema has %zu QI columns, data has %zu",
                  qi_schema.size(), qi_columns.size()));
  }
  if (sa_schema.num_values <= 0) {
    return Status::InvalidArgument("SA domain must be non-empty");
  }
  const size_t rows = sa_column.size();
  for (size_t d = 0; d < qi_columns.size(); ++d) {
    if (qi_columns[d].size() != rows) {
      return Status::InvalidArgument(
          StrFormat("QI column %zu has %zu rows, SA has %zu", d,
                    qi_columns[d].size(), rows));
    }
    if (qi_schema[d].lo > qi_schema[d].hi) {
      return Status::InvalidArgument(
          StrFormat("QI column %zu domain [%d, %d] is empty", d,
                    qi_schema[d].lo, qi_schema[d].hi));
    }
    for (int32_t v : qi_columns[d]) {
      if (v < qi_schema[d].lo || v > qi_schema[d].hi) {
        return Status::OutOfRange(
            StrFormat("QI column %zu value %d outside domain [%d, %d]", d,
                      v, qi_schema[d].lo, qi_schema[d].hi));
      }
    }
  }
  for (int32_t v : sa_column) {
    if (v < 0 || v >= sa_schema.num_values) {
      return Status::OutOfRange(StrFormat(
          "SA value %d outside domain [0, %d)", v, sa_schema.num_values));
    }
  }
  Table table;
  table.schema_.qi = std::move(qi_schema);
  table.schema_.sa = std::move(sa_schema);
  table.qi_cols_ = std::move(qi_columns);
  table.sa_ = std::move(sa_column);
  return table;
}

Result<Table> Table::WithQiPrefix(int qi_prefix) const {
  if (qi_prefix < 1 || qi_prefix > num_qi()) {
    return Status::InvalidArgument(StrFormat(
        "QI prefix %d outside [1, %d]", qi_prefix, num_qi()));
  }
  Table out;
  out.schema_.qi.assign(schema_.qi.begin(), schema_.qi.begin() + qi_prefix);
  out.schema_.sa = schema_.sa;
  out.qi_cols_.assign(qi_cols_.begin(), qi_cols_.begin() + qi_prefix);
  out.sa_ = sa_;
  return out;
}

Table Table::SampleRows(int64_t n, Rng* rng) const {
  BETALIKE_CHECK(n >= 0 && n <= num_rows())
      << "SampleRows(" << n << ") on a " << num_rows() << "-row table";
  // Partial Fisher-Yates: after i steps, index[0..i) is a uniform sample.
  std::vector<int64_t> index(num_rows());
  for (int64_t i = 0; i < num_rows(); ++i) index[i] = i;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t j =
        i + static_cast<int64_t>(rng->Below(static_cast<uint64_t>(
                num_rows() - i)));
    std::swap(index[i], index[j]);
  }
  Table out;
  out.schema_ = schema_;
  out.qi_cols_.resize(qi_cols_.size());
  for (size_t d = 0; d < qi_cols_.size(); ++d) {
    out.qi_cols_[d].reserve(n);
    for (int64_t i = 0; i < n; ++i) {
      out.qi_cols_[d].push_back(qi_cols_[d][index[i]]);
    }
  }
  out.sa_.reserve(n);
  for (int64_t i = 0; i < n; ++i) out.sa_.push_back(sa_[index[i]]);
  return out;
}

std::vector<double> Table::SaFrequencies() const {
  std::vector<double> freqs(schema_.sa.num_values, 0.0);
  if (sa_.empty()) return freqs;
  for (int32_t v : sa_) freqs[v] += 1.0;
  const double inv = 1.0 / static_cast<double>(sa_.size());
  for (double& f : freqs) f *= inv;
  return freqs;
}

double NormalizedBoxLoss(const TableSchema& schema,
                         const std::vector<int32_t>& qi_min,
                         const std::vector<int32_t>& qi_max) {
  const int dims = schema.num_qi();
  if (dims == 0) return 0.0;
  double loss = 0.0;
  for (int d = 0; d < dims; ++d) {
    const int64_t extent = schema.qi[d].extent();
    if (extent == 0) continue;
    loss += static_cast<double>(qi_max[d] - qi_min[d]) /
            static_cast<double>(extent);
  }
  return loss / dims;
}

Result<GeneralizedTable> GeneralizedTable::Create(
    std::shared_ptr<const Table> source,
    std::vector<std::vector<int64_t>> ec_rows) {
  if (source == nullptr) {
    return Status::InvalidArgument("null source table");
  }
  const int64_t n = source->num_rows();
  const int dims = source->num_qi();
  std::vector<char> seen(n, 0);
  int64_t covered = 0;

  GeneralizedTable out;
  out.ecs_.reserve(ec_rows.size());
  for (auto& rows : ec_rows) {
    if (rows.empty()) {
      return Status::InvalidArgument("empty equivalence class");
    }
    EquivalenceClass ec;
    ec.qi_min.assign(dims, 0);
    ec.qi_max.assign(dims, 0);
    for (int d = 0; d < dims; ++d) {
      ec.qi_min[d] = source->qi_spec(d).hi;
      ec.qi_max[d] = source->qi_spec(d).lo;
    }
    for (int64_t row : rows) {
      if (row < 0 || row >= n) {
        return Status::OutOfRange(
            StrFormat("EC row %lld outside table of %lld rows",
                      static_cast<long long>(row),
                      static_cast<long long>(n)));
      }
      if (seen[row]) {
        return Status::InvalidArgument(StrFormat(
            "row %lld in two equivalence classes",
            static_cast<long long>(row)));
      }
      seen[row] = 1;
      ++covered;
      for (int d = 0; d < dims; ++d) {
        const int32_t v = source->qi_value(row, d);
        ec.qi_min[d] = std::min(ec.qi_min[d], v);
        ec.qi_max[d] = std::max(ec.qi_max[d], v);
      }
    }
    ec.rows = std::move(rows);
    out.ecs_.push_back(std::move(ec));
  }
  if (covered != n) {
    return Status::InvalidArgument(
        StrFormat("equivalence classes cover %lld of %lld rows",
                  static_cast<long long>(covered),
                  static_cast<long long>(n)));
  }
  out.source_ = std::move(source);
  return out;
}

EcSaIndex::EcSaIndex(const GeneralizedTable& published) {
  const Table& source = published.source();
  num_values_ = source.sa_spec().num_values;
  const size_t stride = static_cast<size_t>(num_values_) + 1;
  prefix_.assign(published.num_ecs() * stride, 0);
  weighted_prefix_.assign(published.num_ecs() * stride, 0);
  for (size_t e = 0; e < published.num_ecs(); ++e) {
    int64_t* prefix = prefix_.data() + e * stride;
    int64_t* weighted = weighted_prefix_.data() + e * stride;
    for (int64_t row : published.ec(e).rows) {
      ++prefix[source.sa_value(row) + 1];
    }
    for (int32_t v = 0; v < num_values_; ++v) {
      const int64_t count = prefix[v + 1];
      weighted[v + 1] = weighted[v] + count * v;
      prefix[v + 1] += prefix[v];
    }
  }
}

int64_t EcSaIndex::Count(size_t ec, int32_t lo, int32_t hi) const {
  lo = std::max(lo, 0);
  hi = std::min(hi, num_values_ - 1);
  if (lo > hi) return 0;
  const int64_t* prefix =
      prefix_.data() + ec * (static_cast<size_t>(num_values_) + 1);
  return prefix[hi + 1] - prefix[lo];
}

int64_t EcSaIndex::ValueSum(size_t ec, int32_t lo, int32_t hi) const {
  lo = std::max(lo, 0);
  hi = std::min(hi, num_values_ - 1);
  if (lo > hi) return 0;
  const int64_t* weighted =
      weighted_prefix_.data() + ec * (static_cast<size_t>(num_values_) + 1);
  return weighted[hi + 1] - weighted[lo];
}

}  // namespace betalike
