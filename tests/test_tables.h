// Tables and estimators shared by the query and serving tests: a
// uniform wide table (where the estimators' uniform-spread variance
// model is the true sampling law), its mod-k generalized publications,
// and BUREL releases — which the serving tests take of the synthetic
// CENSUS (correlated QI/SA data, the shape the paper's query figures
// serve).
#ifndef BETALIKE_TESTS_TEST_TABLES_H_
#define BETALIKE_TESTS_TEST_TABLES_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/random.h"
#include "data/table.h"
#include "query/estimator.h"
#include "query/published_view.h"

namespace betalike {

// Uniform table with wide domains: three QIs on [0, 999] and a 4-value
// SA, all independent. Per-EC boxes of any partition are uniformly
// filled, and per-predicate range lengths round to the target
// selectivity with negligible error.
inline std::shared_ptr<const Table> UniformWideTable(int64_t rows,
                                                     uint64_t seed) {
  const std::vector<QiSpec> qi_schema = {
      {"A", 0, 999}, {"B", 0, 999}, {"C", 0, 999}};
  const SaSpec sa_schema = {"S", 4};
  Rng rng(seed);
  std::vector<std::vector<int32_t>> qi_cols(qi_schema.size());
  std::vector<int32_t> sa;
  for (int64_t i = 0; i < rows; ++i) {
    for (auto& col : qi_cols) {
      col.push_back(static_cast<int32_t>(rng.Below(1000)));
    }
    sa.push_back(static_cast<int32_t>(rng.Below(4)));
  }
  auto table = Table::Create(qi_schema, sa_schema, std::move(qi_cols),
                             std::move(sa));
  BETALIKE_CHECK(table.ok()) << table.status().ToString();
  return std::make_shared<Table>(std::move(table).value());
}

// Mod-k row partition of `table`: k coarse boxes with mixed SA. A
// distinct k is a genuinely different publication of the same table.
inline GeneralizedTable ModKPublication(
    const std::shared_ptr<const Table>& table, int k) {
  std::vector<std::vector<int64_t>> ec_rows(k);
  for (int64_t row = 0; row < table->num_rows(); ++row) {
    ec_rows[row % k].push_back(row);
  }
  auto published = GeneralizedTable::Create(table, std::move(ec_rows));
  BETALIKE_CHECK(published.ok()) << published.status().ToString();
  return std::move(published).value();
}

using bench::MakeEstimatorOrDie;

// The estimator of a BUREL release of `table` at budget `beta`.
inline std::shared_ptr<const Estimator> BurelEstimator(
    const std::shared_ptr<const Table>& table, double beta) {
  return MakeEstimatorOrDie(
      PublishedView::Generalized(bench::Publish(table, {"burel", beta})));
}

}  // namespace betalike

#endif  // BETALIKE_TESTS_TEST_TABLES_H_
