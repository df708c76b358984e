// query/ subsystem tests: deterministic seeded workload generation that
// hits the requested selectivity band, exact estimation on an
// ungeneralized (one-row-per-EC) publication, and the median-relative-
// error aggregation cross-checked against a brute-force recount.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "baseline/anatomy.h"
#include "census/census.h"
#include "common/random.h"
#include "perturb/perturbation.h"
#include "query/estimator.h"
#include "query/published_view.h"
#include "query/row_filter.h"
#include "query/workload.h"
#include "serve/epoch_server.h"
#include "serve/query_server.h"
#include "tests/betalike_test.h"
#include "tests/estimator_oracle.h"
#include "tests/test_tables.h"

namespace betalike {
namespace {

std::shared_ptr<const Table> SmallCensus(int64_t rows = 2000) {
  CensusOptions options;
  options.num_rows = rows;
  auto table = GenerateCensus(options);
  BETALIKE_CHECK(table.ok()) << table.status().ToString();
  return std::make_shared<Table>(std::move(table).value());
}

bool SameWorkload(const std::vector<AggregateQuery>& a,
                  const std::vector<AggregateQuery>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].predicates.size() != b[i].predicates.size()) return false;
    for (size_t j = 0; j < a[i].predicates.size(); ++j) {
      const QueryPredicate& pa = a[i].predicates[j];
      const QueryPredicate& pb = b[i].predicates[j];
      if (pa.dim != pb.dim || pa.lo != pb.lo || pa.hi != pb.hi) return false;
    }
  }
  return true;
}

TEST(Workload, ValidatesOptions) {
  const auto table = SmallCensus();
  const TableSchema& schema = table->schema();
  WorkloadOptions options;

  options.num_queries = 0;
  EXPECT_FALSE(GenerateWorkload(schema, options).ok());

  options = WorkloadOptions();
  options.lambda = 0;
  EXPECT_FALSE(GenerateWorkload(schema, options).ok());
  options.lambda = schema.num_qi() + 1;
  EXPECT_FALSE(GenerateWorkload(schema, options).ok());

  options = WorkloadOptions();
  options.selectivity = 0.0;
  EXPECT_FALSE(GenerateWorkload(schema, options).ok());
  options.selectivity = 1.5;
  EXPECT_FALSE(GenerateWorkload(schema, options).ok());

  EXPECT_OK(GenerateWorkload(schema, WorkloadOptions()));
}

TEST(Workload, DeterministicPerSeed) {
  const auto table = SmallCensus();
  const TableSchema& schema = table->schema();
  WorkloadOptions options;
  options.num_queries = 200;
  options.lambda = 3;
  options.seed = 7;

  auto first = GenerateWorkload(schema, options);
  auto second = GenerateWorkload(schema, options);
  ASSERT_OK(first);
  ASSERT_OK(second);
  EXPECT_TRUE(SameWorkload(*first, *second));

  options.seed = 8;
  auto reseeded = GenerateWorkload(schema, options);
  ASSERT_OK(reseeded);
  EXPECT_FALSE(SameWorkload(*first, *reseeded));
}

TEST(Workload, PredicatesAreDistinctInDomainAndSorted) {
  const auto table = SmallCensus();
  const TableSchema& schema = table->schema();
  WorkloadOptions options;
  options.num_queries = 300;
  options.lambda = 3;
  auto workload = GenerateWorkload(schema, options);
  ASSERT_OK(workload);
  ASSERT_EQ(workload->size(), 300u);
  for (const AggregateQuery& query : *workload) {
    ASSERT_EQ(query.predicates.size(), 3u);
    for (size_t j = 0; j < query.predicates.size(); ++j) {
      const QueryPredicate& p = query.predicates[j];
      if (j > 0) EXPECT_LT(query.predicates[j - 1].dim, p.dim);
      const QiSpec& spec = schema.qi[p.dim];
      EXPECT_LE(spec.lo, p.lo);
      EXPECT_LE(p.lo, p.hi);
      EXPECT_LE(p.hi, spec.hi);
    }
  }
}

TEST(Workload, HitsRequestedSelectivityBand) {
  const auto table = UniformWideTable(20000, /*seed=*/5);
  WorkloadOptions options;
  options.num_queries = 200;
  options.lambda = 2;
  options.selectivity = 0.1;
  options.seed = 11;
  auto workload = GenerateWorkload(table->schema(), options);
  ASSERT_OK(workload);

  // Per query, the covered fraction of the domain volume is θ up to
  // range-length rounding (domains are 1000 points wide).
  for (const AggregateQuery& query : *workload) {
    double volume = 1.0;
    for (const QueryPredicate& p : query.predicates) {
      volume *= static_cast<double>(p.hi - p.lo + 1) /
                static_cast<double>(table->qi_spec(p.dim).extent() + 1);
    }
    EXPECT_NEAR(volume, options.selectivity, 0.01);
  }

  // On uniform data the mean empirical selectivity lands in a band
  // around θ (sampling noise only).
  const std::vector<int64_t> counts = PreciseCounts(*table, *workload);
  double mean = 0.0;
  for (int64_t count : counts) mean += static_cast<double>(count);
  mean /= static_cast<double>(counts.size()) *
          static_cast<double>(table->num_rows());
  EXPECT_GT(mean, 0.08);
  EXPECT_LT(mean, 0.12);
}

// Table sizes straddling the row-selection kernel's 2048-row block:
// a single row, one short of a block, exactly one, one past, and a
// multi-block table with a partial tail.
constexpr int64_t kBlockEdgeSizes[] = {1, 2047, 2048, 2049, 5000};

TEST(Workload, PreciseCountsMatchRowWiseMatches) {
  for (int64_t rows : kBlockEdgeSizes) {
    const auto table = SmallCensus(rows);
    WorkloadOptions options;
    options.num_queries = 50;
    options.lambda = 2;
    options.seed = 3;
    auto workload = GenerateWorkload(table->schema(), options);
    ASSERT_OK(workload);
    // Plus a predicate-free query, which selects every row.
    workload->push_back(AggregateQuery());
    const std::vector<int64_t> counts = PreciseCounts(*table, *workload);
    ASSERT_EQ(counts.size(), workload->size());
    for (size_t i = 0; i < workload->size(); ++i) {
      int64_t expected = 0;
      for (int64_t row = 0; row < table->num_rows(); ++row) {
        if ((*workload)[i].Matches(*table, row)) ++expected;
      }
      EXPECT_EQ(counts[i], expected);
    }
    EXPECT_EQ(counts.back(), rows);
  }
}

// The row kernel on raw columns: for sizes around the 8-byte mask
// group, the 64-row bit word and the 2048-row block, CountMatchingRows,
// the visits of ForEachMatchingRow and a naive per-row loop agree, and
// the visits are strictly ascending. Range sets cover no ranges, an
// inverted range, every row matching (every bit word all set), no row
// matching, whole 64-row words alternately all set and all clear, and
// seeded random ranges.
TEST(RowFilter, CountAndVisitsMatchNaiveScan) {
  for (int64_t n :
       {0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 2047, 2048, 2049, 4103}) {
    Rng rng(static_cast<uint64_t>(n) + 17);
    std::vector<int32_t> a(static_cast<size_t>(n));
    std::vector<int32_t> b(static_cast<size_t>(n));
    std::vector<int32_t> word_parity(static_cast<size_t>(n));
    for (int64_t row = 0; row < n; ++row) {
      a[row] = static_cast<int32_t>(rng.Below(10));
      b[row] = static_cast<int32_t>(rng.Below(10));
      word_parity[row] = static_cast<int32_t>((row / 64) % 2);
    }
    std::vector<std::vector<ColumnRange>> range_sets = {
        {},
        {{a.data(), 5, 4}},
        {{a.data(), 0, 9}, {b.data(), 0, 9}},
        {{b.data(), 10, 20}},
        {{a.data(), 0, 0}},
        {{a.data(), 2, 7}, {b.data(), 0, 4}},
        {{word_parity.data(), 0, 0}},
        {{word_parity.data(), 1, 1}, {a.data(), 0, 9}},
    };
    for (int i = 0; i < 4; ++i) {
      const int32_t lo = static_cast<int32_t>(rng.Below(10));
      const int32_t hi = lo + static_cast<int32_t>(rng.Below(10 - lo));
      range_sets.push_back({{a.data(), lo, hi}, {b.data(), hi - lo, 9}});
    }
    for (const std::vector<ColumnRange>& ranges : range_sets) {
      std::vector<int64_t> expected;
      for (int64_t row = 0; row < n; ++row) {
        bool match = true;
        for (const ColumnRange& r : ranges) {
          if (r.column[row] < r.lo || r.column[row] > r.hi) match = false;
        }
        if (match) expected.push_back(row);
      }
      std::vector<int64_t> visited;
      ForEachMatchingRow(n, ranges,
                         [&visited](int64_t row) { visited.push_back(row); });
      EXPECT_TRUE(std::adjacent_find(visited.begin(), visited.end(),
                                     std::greater_equal<int64_t>()) ==
                  visited.end());
      EXPECT_TRUE(visited == expected);
      EXPECT_EQ(CountMatchingRows(n, ranges),
                static_cast<int64_t>(expected.size()));
    }
    EXPECT_EQ(CountMatchingRows(n, range_sets[0]), n);
    EXPECT_EQ(CountMatchingRows(n, range_sets[1]), 0);
    EXPECT_EQ(CountMatchingRows(n, range_sets[2]), n);
    EXPECT_EQ(CountMatchingRows(n, range_sets[3]), 0);
  }
}

TEST(Estimator, ExactOnUngeneralizedTable) {
  const auto table = SmallCensus(500);
  // One row per EC: every published box is a point, so uniform-spread
  // estimation degenerates to exact counting.
  std::vector<std::vector<int64_t>> ec_rows;
  for (int64_t row = 0; row < table->num_rows(); ++row) {
    ec_rows.push_back({row});
  }
  auto published = GeneralizedTable::Create(table, std::move(ec_rows));
  ASSERT_OK(published);

  WorkloadOptions options;
  options.num_queries = 100;
  options.lambda = 2;
  options.selectivity = 0.2;
  options.seed = 17;
  auto workload = GenerateWorkload(table->schema(), options);
  ASSERT_OK(workload);
  const std::vector<int64_t> truth = PreciseCounts(*table, *workload);
  for (size_t i = 0; i < workload->size(); ++i) {
    EXPECT_NEAR(oracle::Generalized(*published, (*workload)[i]),
                static_cast<double>(truth[i]), 1e-9);
  }
}

TEST(Estimator, UniformSpreadFractionOfOneEc) {
  // One EC spanning a [0, 9] box of 10 rows: a query covering half of
  // the box's points estimates half of the EC's size.
  const std::vector<QiSpec> qi_schema = {{"A", 0, 9}};
  const SaSpec sa_schema = {"S", 2};
  std::vector<std::vector<int32_t>> qi_cols(1);
  std::vector<int32_t> sa;
  for (int32_t v = 0; v < 10; ++v) {
    qi_cols[0].push_back(v);
    sa.push_back(v % 2);
  }
  auto table_or = Table::Create(qi_schema, sa_schema, std::move(qi_cols),
                                std::move(sa));
  ASSERT_OK(table_or);
  auto table = std::make_shared<Table>(std::move(table_or).value());
  auto published = GeneralizedTable::Create(
      table, {{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}});
  ASSERT_OK(published);
  const auto estimator =
      MakeEstimatorOrDie(PublishedView::Generalized(*published));

  AggregateQuery query;
  query.predicates.push_back({0, 0, 4});
  EXPECT_NEAR(estimator->Estimate(query), 5.0, 1e-12);
  EXPECT_EQ(oracle::Generalized(*published, query), 5.0);
  query.predicates[0] = {0, 8, 20};  // clipped overlap: 2 of 10 points
  EXPECT_NEAR(estimator->Estimate(query), 2.0, 1e-12);
  EXPECT_EQ(oracle::Generalized(*published, query), 2.0);
  query.predicates[0] = {0, 15, 20};  // disjoint
  EXPECT_NEAR(estimator->Estimate(query), 0.0, 1e-12);
  EXPECT_EQ(oracle::Generalized(*published, query), 0.0);
}

TEST(Estimator, MedianAndMeanCrossCheckedAgainstBruteForce) {
  const auto table = SmallCensus(1500);
  // A deliberately coarse publication (three arbitrary slabs) so the
  // estimates differ from the truth.
  std::vector<std::vector<int64_t>> ec_rows(3);
  for (int64_t row = 0; row < table->num_rows(); ++row) {
    ec_rows[row % 3].push_back(row);
  }
  auto published = GeneralizedTable::Create(table, std::move(ec_rows));
  ASSERT_OK(published);

  WorkloadOptions options;
  options.num_queries = 101;  // odd: the median is one exact element
  options.lambda = 2;
  options.seed = 23;
  auto workload = GenerateWorkload(table->schema(), options);
  ASSERT_OK(workload);
  const std::vector<int64_t> truth = PreciseCounts(*table, *workload);

  std::vector<double> estimates;
  for (const AggregateQuery& query : *workload) {
    estimates.push_back(oracle::Generalized(*published, query));
  }
  const WorkloadError error = EvaluateWorkloadWithTruth(truth, estimates);
  EXPECT_EQ(error.num_queries, 101);

  // Brute force: recount the truth row by row, recompute every error,
  // and take the median/mean by full sort.
  std::vector<double> errors;
  double sum = 0.0;
  for (size_t i = 0; i < workload->size(); ++i) {
    int64_t recount = 0;
    for (int64_t row = 0; row < table->num_rows(); ++row) {
      if ((*workload)[i].Matches(*table, row)) ++recount;
    }
    ASSERT_EQ(recount, truth[i]);
    const double err =
        100.0 * std::fabs(estimates[i] - static_cast<double>(recount)) /
        std::max(static_cast<double>(recount), 1.0);
    errors.push_back(err);
    sum += err;
  }
  std::sort(errors.begin(), errors.end());
  EXPECT_NEAR(error.median_relative_error, errors[errors.size() / 2], 1e-9);
  EXPECT_NEAR(error.mean_relative_error,
              sum / static_cast<double>(errors.size()), 1e-9);
  EXPECT_GT(error.median_relative_error, 0.0);
}

TEST(Workload, SaPredicateGenerationAndPreciseCounts) {
  const auto table = SmallCensus(1500);
  WorkloadOptions options;
  options.num_queries = 150;
  options.lambda = 2;
  options.include_sa = true;
  options.seed = 41;
  auto workload = GenerateWorkload(table->schema(), options);
  ASSERT_OK(workload);
  const int32_t sa_values = table->sa_spec().num_values;
  for (const AggregateQuery& query : *workload) {
    ASSERT_EQ(query.predicates.size(), 2u);
    ASSERT_TRUE(query.has_sa_predicate());
    EXPECT_LE(0, query.sa_lo);
    EXPECT_LE(query.sa_lo, query.sa_hi);
    EXPECT_LT(query.sa_hi, sa_values);
  }
  // The flat-predicate scan agrees with row-wise Matches (which now
  // checks the SA range too).
  const std::vector<int64_t> counts = PreciseCounts(*table, *workload);
  for (size_t i = 0; i < workload->size(); ++i) {
    int64_t expected = 0;
    for (int64_t row = 0; row < table->num_rows(); ++row) {
      if ((*workload)[i].Matches(*table, row)) ++expected;
    }
    EXPECT_EQ(counts[i], expected);
  }
  // Identical options reproduce the SA ranges too.
  auto again = GenerateWorkload(table->schema(), options);
  ASSERT_OK(again);
  ASSERT_TRUE(SameWorkload(*workload, *again));
  for (size_t i = 0; i < workload->size(); ++i) {
    EXPECT_EQ((*workload)[i].sa_lo, (*again)[i].sa_lo);
    EXPECT_EQ((*workload)[i].sa_hi, (*again)[i].sa_hi);
  }
}

TEST(Workload, WithoutSaPredicateFieldsStayEmpty) {
  const auto table = SmallCensus(300);
  auto workload = GenerateWorkload(table->schema(), WorkloadOptions());
  ASSERT_OK(workload);
  for (const AggregateQuery& query : *workload) {
    EXPECT_FALSE(query.has_sa_predicate());
  }
}

TEST(Estimator, IndexedSaPathMatchesScanningPath) {
  const auto table = SmallCensus(1200);
  // A coarse publication with mixed SA composition per EC.
  std::vector<std::vector<int64_t>> ec_rows(5);
  for (int64_t row = 0; row < table->num_rows(); ++row) {
    ec_rows[row % 5].push_back(row);
  }
  auto published = GeneralizedTable::Create(table, std::move(ec_rows));
  ASSERT_OK(published);
  const auto estimator =
      MakeEstimatorOrDie(PublishedView::Generalized(*published));

  WorkloadOptions options;
  options.num_queries = 120;
  options.lambda = 2;
  options.include_sa = true;
  options.seed = 53;
  auto workload = GenerateWorkload(table->schema(), options);
  ASSERT_OK(workload);
  for (const AggregateQuery& query : *workload) {
    EXPECT_EQ(estimator->Estimate(query),
              oracle::Generalized(*published, query));
  }
}

TEST(Estimator, ExactOnUngeneralizedTableWithSaPredicate) {
  const auto table = SmallCensus(400);
  std::vector<std::vector<int64_t>> ec_rows;
  for (int64_t row = 0; row < table->num_rows(); ++row) {
    ec_rows.push_back({row});
  }
  auto published = GeneralizedTable::Create(table, std::move(ec_rows));
  ASSERT_OK(published);
  const auto estimator =
      MakeEstimatorOrDie(PublishedView::Generalized(*published));

  WorkloadOptions options;
  options.num_queries = 80;
  options.lambda = 2;
  options.include_sa = true;
  options.seed = 61;
  auto workload = GenerateWorkload(table->schema(), options);
  ASSERT_OK(workload);
  const std::vector<int64_t> truth = PreciseCounts(*table, *workload);
  for (size_t i = 0; i < workload->size(); ++i) {
    EXPECT_NEAR(estimator->Estimate((*workload)[i]),
                static_cast<double>(truth[i]), 1e-9);
  }
}

TEST(Estimator, AnatomizedExactWithoutSaPredicate) {
  const auto table = SmallCensus(900);
  // Any grouping will do: Anatomy answers QI-only queries exactly
  // because the QIT publishes exact values.
  std::vector<std::vector<int64_t>> ec_rows(7);
  for (int64_t row = 0; row < table->num_rows(); ++row) {
    ec_rows[row % 7].push_back(row);
  }
  auto published = GeneralizedTable::Create(table, std::move(ec_rows));
  ASSERT_OK(published);
  const auto estimator = MakeEstimatorOrDie(
      PublishedView::Anatomized(AnatomizedTable::FromGrouping(*published)));

  WorkloadOptions options;
  options.num_queries = 60;
  options.lambda = 2;
  options.seed = 67;
  auto workload = GenerateWorkload(table->schema(), options);
  ASSERT_OK(workload);
  const std::vector<int64_t> truth = PreciseCounts(*table, *workload);
  for (size_t i = 0; i < workload->size(); ++i) {
    EXPECT_NEAR(estimator->Estimate((*workload)[i]),
                static_cast<double>(truth[i]), 1e-9);
  }
}

TEST(Estimator, AnatomizedMatchesHandComputedGroupFractions) {
  // Two groups of four rows; QI identifies rows exactly, SA is mixed.
  //   group 0: rows 0-3, SA {0, 0, 1, 2};  group 1: rows 4-7,
  //   SA {1, 2, 2, 3}.
  std::vector<int32_t> qi = {0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<int32_t> sa = {0, 0, 1, 2, 1, 2, 2, 3};
  auto table_or = Table::Create({{"A", 0, 7}}, {"SA", 4}, {qi}, sa);
  ASSERT_OK(table_or);
  auto table = std::make_shared<Table>(std::move(table_or).value());
  auto published =
      GeneralizedTable::Create(table, {{0, 1, 2, 3}, {4, 5, 6, 7}});
  ASSERT_OK(published);
  const AnatomizedTable view = AnatomizedTable::FromGrouping(*published);

  // QI range [1, 5] matches rows 1-3 of group 0 and 4-5 of group 1;
  // SA range [1, 2] has fraction 2/4 in group 0 and 3/4 in group 1:
  // estimate = 3 * 0.5 + 2 * 0.75 = 3.
  AggregateQuery query;
  query.predicates.push_back({0, 1, 5});
  query.sa_lo = 1;
  query.sa_hi = 2;
  EXPECT_NEAR(oracle::AnatomizedCount(view, query).estimate, 3.0, 1e-12);
  const auto estimator = MakeEstimatorOrDie(PublishedView::Anatomized(view));
  EXPECT_EQ(estimator->Estimate(query),
            oracle::AnatomizedCount(view, query).estimate);
}

TEST(Estimator, EvenWorkloadMedianAveragesTheMiddlePair) {
  // Truth {10, 10, 10, 10}, estimates {10, 12, 16, 30} -> errors
  // {0%, 20%, 60%, 200%}, median (20 + 60) / 2 = 40%.
  const WorkloadError error =
      EvaluateWorkloadWithTruth({10, 10, 10, 10}, {10, 12, 16, 30});
  EXPECT_EQ(error.num_queries, 4);
  EXPECT_NEAR(error.median_relative_error, 40.0, 1e-12);
  EXPECT_NEAR(error.mean_relative_error, 70.0, 1e-12);
}

TEST(Estimator, EmptyWorkloadScoresZero) {
  const WorkloadError error = EvaluateWorkloadWithTruth({}, {});
  EXPECT_EQ(error.num_queries, 0);
  EXPECT_EQ(error.median_relative_error, 0.0);
  EXPECT_EQ(error.mean_relative_error, 0.0);
}

std::vector<AggregateQuery> MixedWorkload(const TableSchema& schema,
                                          bool include_sa, uint64_t seed) {
  WorkloadOptions options;
  options.num_queries = 150;
  options.lambda = 2;
  options.include_sa = include_sa;
  options.seed = seed;
  auto workload = GenerateWorkload(schema, options);
  BETALIKE_CHECK(workload.ok()) << workload.status().ToString();
  return std::move(workload).value();
}

// Every shape must answer *bit-identically* to its plain scanning
// formula (tests/estimator_oracle.h; the fig8/fig9 goldens depend on
// it), hence EXPECT_EQ on raw doubles, not EXPECT_NEAR.
TEST(EstimatorInterface, GeneralizedMatchesScanningOracleExactly) {
  const auto table = SmallCensus(1500);
  const GeneralizedTable published = ModKPublication(table, 7);
  const auto estimator =
      MakeEstimatorOrDie(PublishedView::Generalized(published));
  EXPECT_EQ(estimator->Name(), std::string("generalized"));

  for (bool include_sa : {false, true}) {
    const auto workload =
        MixedWorkload(table->schema(), include_sa, include_sa ? 71 : 73);
    for (const AggregateQuery& query : workload) {
      const double expected = oracle::Generalized(published, query);
      EXPECT_EQ(estimator->Estimate(query), expected);
      const EstimateWithVariance ev =
          estimator->EstimateWithUncertainty(query);
      EXPECT_EQ(ev.estimate, expected);
      EXPECT_GE(ev.variance, 0.0);
    }
  }
}

TEST(EstimatorInterface, AnatomizedMatchesScanningOracleExactly) {
  // 5000 rows span several row-selection blocks plus a partial tail.
  for (int64_t rows : {1200, 5000}) {
    const auto table = SmallCensus(rows);
    const AnatomizedTable view =
        AnatomizedTable::FromGrouping(ModKPublication(table, 6));
    const auto estimator =
        MakeEstimatorOrDie(PublishedView::Anatomized(view));
    EXPECT_EQ(estimator->Name(), std::string("anatomized"));

    for (bool include_sa : {false, true}) {
      const auto workload =
          MixedWorkload(table->schema(), include_sa, include_sa ? 79 : 83);
      for (const AggregateQuery& query : workload) {
        const double expected = oracle::AnatomizedCount(view, query).estimate;
        EXPECT_EQ(estimator->Estimate(query), expected);
        EXPECT_EQ(estimator->EstimateWithUncertainty(query).estimate,
                  expected);
      }
    }
  }
}

// Row r of `table` in a group of 3, 5, 7, 12, 25 or 100 rows (sizes
// cycling, the last group taking what is left), each group's rows
// scattered over the table by a seeded shuffle: unequal group sizes
// that are not powers of two, so the ST fractions are not dyadic.
GeneralizedTable MixedSizePublication(
    const std::shared_ptr<const Table>& table) {
  std::vector<int64_t> order(static_cast<size_t>(table->num_rows()));
  std::iota(order.begin(), order.end(), int64_t{0});
  Rng rng(61);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Below(i)]);
  }
  const size_t sizes[] = {3, 5, 7, 12, 25, 100};
  std::vector<std::vector<int64_t>> groups;
  for (size_t start = 0; start < order.size();) {
    const size_t end =
        std::min(order.size(), start + sizes[groups.size() % 6]);
    groups.emplace_back(order.begin() + start, order.begin() + end);
    start = end;
  }
  auto published = GeneralizedTable::Create(table, std::move(groups));
  BETALIKE_CHECK(published.ok()) << published.status().ToString();
  return std::move(published).value();
}

void ExpectSameAnswer(const EstimateWithVariance& actual,
                      const EstimateWithVariance& expected) {
  EXPECT_EQ(actual.estimate, expected.estimate);
  EXPECT_EQ(actual.variance, expected.variance);
}

// Anatomy's whole answer — COUNT and SUM, estimate and variance, alone
// and through the fused COUNT+SUM hook — must be the bits of the
// row-at-a-time oracle, which re-reads each group's ST entries at every
// row: on Anatomy's own groups, on 200-row mod-k groups and on mixed
// group sizes, for every kind of SA range.
TEST(EstimatorInterface, AnatomizedAnswersMatchRowOracleBitwise) {
  const auto table = SmallCensus(1200);
  const int32_t num_values = table->sa_spec().num_values;
  ASSERT_TRUE(num_values >= 4);
  AnatomyOptions anatomy;
  anatomy.l = 4;
  auto anatomy_groups = AnonymizeWithAnatomy(table, anatomy);
  ASSERT_OK(anatomy_groups);
  const GeneralizedTable groupings[] = {std::move(anatomy_groups).value(),
                                        ModKPublication(table, 6),
                                        MixedSizePublication(table)};
  // {sa_lo, sa_hi}: none (the {0, -1} default), interior, inverted
  // (also none), out of the domain on either side, the full domain.
  const std::pair<int32_t, int32_t> sa_ranges[] = {
      {0, -1},
      {num_values / 4, num_values / 2},
      {num_values / 2, num_values / 4},
      {num_values, num_values + 5},
      {-6, -1},
      {0, num_values - 1}};

  for (const GeneralizedTable& grouping : groupings) {
    const AnatomizedTable view = AnatomizedTable::FromGrouping(grouping);
    const auto estimator =
        MakeEstimatorOrDie(PublishedView::Anatomized(view));
    for (AggregateQuery query : MixedWorkload(table->schema(), false, 107)) {
      for (const auto& [lo, hi] : sa_ranges) {
        query.sa_lo = lo;
        query.sa_hi = hi;
        const EstimateWithVariance count =
            oracle::AnatomizedCount(view, query);
        const EstimateWithVariance sum = oracle::AnatomizedSum(view, query);
        ExpectSameAnswer(estimator->EstimateWithUncertainty(query), count);
        ExpectSameAnswer(estimator->EstimateSumWithUncertainty(query), sum);
        const CountAndSum both =
            estimator->EstimateCountAndSumWithUncertainty(query);
        ExpectSameAnswer(both.count, count);
        ExpectSameAnswer(both.sum, sum);
      }
      // An explicit full-domain range (the last above) reads the ST per
      // query; no SA predicate reads the records precomputed at
      // construction. The two must agree.
      AggregateQuery no_sa = query;
      no_sa.sa_lo = 0;
      no_sa.sa_hi = -1;
      ExpectSameAnswer(estimator->EstimateSumWithUncertainty(query),
                       estimator->EstimateSumWithUncertainty(no_sa));
    }
  }
}

// The SA ranges of every kind AnatomizedAnswersMatchRowOracleBitwise
// asks: none (the {0, -1} default), interior, inverted (also none),
// out of the domain on either side, the full domain.
std::vector<std::pair<int32_t, int32_t>> SaRangeKinds(int32_t num_values) {
  return {{0, -1},
          {num_values / 4, num_values / 2},
          {num_values / 2, num_values / 4},
          {num_values, num_values + 5},
          {-6, -1},
          {0, num_values - 1}};
}

// An Anatomy estimator and the view it was built from.
struct AnatomizedPair {
  const Estimator* estimator;
  const AnatomizedTable* view;
};

// Checks COUNT, SUM, AVG and the fused COUNT+SUM hook of each pair's
// estimator against its view's row oracle, bitwise, at `query`. The
// answers alternate between the pairs kind by kind.
void ExpectAnatomizedOracleAnswers(const std::vector<AnatomizedPair>& pairs,
                                   const AggregateQuery& query) {
  std::vector<EstimateWithVariance> count;
  std::vector<EstimateWithVariance> sum;
  std::vector<EstimateWithVariance> avg;
  for (const AnatomizedPair& p : pairs) {
    count.push_back(oracle::AnatomizedCount(*p.view, query));
    sum.push_back(oracle::AnatomizedSum(*p.view, query));
    avg.push_back(oracle::AnatomizedAvg(*p.view, query));
  }
  for (size_t i = 0; i < pairs.size(); ++i) {
    ExpectSameAnswer(pairs[i].estimator->EstimateWithUncertainty(query),
                     count[i]);
  }
  for (size_t i = 0; i < pairs.size(); ++i) {
    ExpectSameAnswer(pairs[i].estimator->EstimateSumWithUncertainty(query),
                     sum[i]);
  }
  for (size_t i = 0; i < pairs.size(); ++i) {
    ExpectSameAnswer(pairs[i].estimator->EstimateAvgWithUncertainty(query),
                     avg[i]);
  }
  for (size_t i = 0; i < pairs.size(); ++i) {
    const CountAndSum both =
        pairs[i].estimator->EstimateCountAndSumWithUncertainty(query);
    ExpectSameAnswer(both.count, count[i]);
    ExpectSameAnswer(both.sum, sum[i]);
  }
}

// A table holding `groups` one after another — QI A the row index, QI
// B the row index mod 7, SA the group's listed values — and the
// grouping that publishes them.
GeneralizedTable HandGrouping(const std::vector<std::vector<int32_t>>& groups,
                              int32_t num_values) {
  std::vector<int32_t> a;
  std::vector<int32_t> b;
  std::vector<int32_t> sa;
  std::vector<std::vector<int64_t>> rows;
  for (const std::vector<int32_t>& group : groups) {
    rows.emplace_back();
    for (int32_t v : group) {
      const int32_t row = static_cast<int32_t>(a.size());
      rows.back().push_back(row);
      a.push_back(row);
      b.push_back(row % 7);
      sa.push_back(v);
    }
  }
  const int32_t num_rows = static_cast<int32_t>(a.size());
  auto table = Table::Create({{"A", 0, num_rows - 1}, {"B", 0, 6}},
                             {"SA", num_values}, {a, b}, sa);
  BETALIKE_CHECK(table.ok()) << table.status().ToString();
  auto published = GeneralizedTable::Create(
      std::make_shared<Table>(std::move(table).value()), std::move(rows));
  BETALIKE_CHECK(published.ok()) << published.status().ToString();
  return std::move(published).value();
}

// A group of `size` rows whose SA values have full-domain Σ v² far
// below 2^16: every 1000th row holds 20, every other third row 1, the
// rest 0 (Σ v² 48223 at 65535 rows).
std::vector<int32_t> MostlyZeroGroup(int32_t size) {
  std::vector<int32_t> values;
  for (int32_t i = 0; i < size; ++i) {
    values.push_back(i % 1000 == 0 ? 20 : (i % 3 == 0 ? 1 : 0));
  }
  return values;
}

// The moment width flips exactly where a group's full-domain Σ v² or
// its size passes 65535, and on both sides of the flip every answer is
// the oracle's bits. 27 rows of 49 hold Σ v² 64827; 26, 4 and 4 bring
// it to 65535, 26, 5, 2 and 2 to 65536 (Σ v stays under 1400). A
// group of 65535 mostly-zero rows is bounded by its size alone, one of
// 65536 is not.
TEST(EstimatorInterface, AnatomizedMomentWidthBoundaryIsExact) {
  constexpr int32_t kValues = 50;
  const std::vector<std::vector<int32_t>> small_groups = {
      {0, 12, 25, 49}, {3, 13, 30}, {20}, {1, 1, 48, 47, 24}};
  std::vector<int32_t> narrow(27, 49);
  narrow.insert(narrow.end(), {26, 4, 4});
  std::vector<int32_t> wide(27, 49);
  wide.insert(wide.end(), {26, 5, 2, 2});
  const std::pair<std::vector<int32_t>, int> cases[] = {
      {narrow, 2},
      {wide, 8},
      {MostlyZeroGroup(65535), 2},
      {MostlyZeroGroup(65536), 8}};

  for (const auto& [largest, bytes] : cases) {
    std::vector<std::vector<int32_t>> groups = small_groups;
    groups.insert(groups.begin() + 2, largest);
    const AnatomizedTable view =
        AnatomizedTable::FromGrouping(HandGrouping(groups, kValues));
    EXPECT_EQ(AnatomizedMomentBytes(view), bytes);
    const auto estimator = MakeEstimatorOrDie(PublishedView::Anatomized(view));

    WorkloadOptions options;
    options.num_queries = 8;
    options.lambda = 1;
    options.seed = 113;
    auto workload = GenerateWorkload(view.source().schema(), options);
    ASSERT_OK(workload);
    workload->push_back(AggregateQuery{});  // every row
    for (AggregateQuery query : *workload) {
      for (const auto& [lo, hi] : SaRangeKinds(kValues)) {
        query.sa_lo = lo;
        query.sa_hi = hi;
        ExpectAnatomizedOracleAnswers({{estimator.get(), &view}}, query);
      }
    }
  }
}

// One thread's answers alternate between a uint16 estimator (Anatomy
// l=4, ~500 groups) and an int64 one (mod 6, 6 groups of ~333 rows,
// whose Σ v² passes 65535 from ~1300 rows up), so each width's
// per-thread scratch is reused after the other width answered and
// after estimators of other group counts: every answer is the oracle's.
TEST(EstimatorInterface, AnatomizedScratchSharedAcrossWidths) {
  const auto table = SmallCensus(2000);
  AnatomyOptions anatomy;
  anatomy.l = 4;
  auto anatomy_groups = AnonymizeWithAnatomy(table, anatomy);
  ASSERT_OK(anatomy_groups);
  const AnatomizedTable views[] = {
      AnatomizedTable::FromGrouping(*anatomy_groups),
      AnatomizedTable::FromGrouping(ModKPublication(table, 6))};
  EXPECT_EQ(AnatomizedMomentBytes(views[0]), 2);
  EXPECT_EQ(AnatomizedMomentBytes(views[1]), 8);
  ASSERT_TRUE(views[0].num_groups() != views[1].num_groups());
  const std::shared_ptr<const Estimator> estimators[] = {
      MakeEstimatorOrDie(PublishedView::Anatomized(views[0])),
      MakeEstimatorOrDie(PublishedView::Anatomized(views[1]))};

  std::vector<AggregateQuery> workload =
      MixedWorkload(table->schema(), true, 109);
  workload.resize(40);
  for (AggregateQuery query : workload) {
    for (const auto& [lo, hi] : SaRangeKinds(table->sa_spec().num_values)) {
      query.sa_lo = lo;
      query.sa_hi = hi;
      ExpectAnatomizedOracleAnswers({{estimators[0].get(), &views[0]},
                                     {estimators[1].get(), &views[1]}},
                                    query);
    }
  }
}

TEST(EstimatorInterface, PerturbedMatchesScanningOracleExactly) {
  const auto table = SmallCensus(1200);
  const GeneralizedTable published = ModKPublication(table, 5);
  PerturbOptions options;
  options.retention = 0.7;
  options.seed = 97;
  auto perturbed = PerturbSaWithinEcs(published, options);
  ASSERT_OK(perturbed);
  const EcSaIndex index(perturbed->view);
  const auto estimator =
      MakeEstimatorOrDie(PublishedView::Perturbed(*perturbed));
  EXPECT_EQ(estimator->Name(), std::string("perturbed"));

  for (bool include_sa : {false, true}) {
    const auto workload =
        MixedWorkload(table->schema(), include_sa, include_sa ? 89 : 91);
    for (const AggregateQuery& query : workload) {
      const double expected = oracle::Perturbed(*perturbed, index, query);
      EXPECT_EQ(estimator->Estimate(query), expected);
      EXPECT_EQ(estimator->EstimateWithUncertainty(query).estimate, expected);
    }
  }
}

TEST(EstimatorInterface, RejectsInvalidRetention) {
  const auto table = SmallCensus(200);
  auto perturbed = PerturbSaWithinEcs(ModKPublication(table, 3), {});
  ASSERT_OK(perturbed);
  perturbed->retention = 0.0;  // a reconstruction divide-by-zero
  EXPECT_FALSE(
      MakeEstimator(PublishedView::Perturbed(std::move(*perturbed))).ok());
}

// AnswerBatch fans the batch across a worker pool; every answer is a
// pure function of its query, so the full ServedAnswer vector must be
// bit-identical for 1, 2, and 8 workers. The 150-query workload spans
// three chunks, so the pool really splits it.
TEST(QueryServer, AnswerBatchDeterministicAcrossWorkerCounts) {
  const auto table = SmallCensus(2000);
  const std::shared_ptr<const Estimator> estimator = MakeEstimatorOrDie(
      PublishedView::Generalized(ModKPublication(table, 11)));

  for (bool include_sa : {false, true}) {
    const auto workload =
        MixedWorkload(table->schema(), include_sa, include_sa ? 101 : 103);
    ASSERT_TRUE(workload.size() > 2 * QueryServer::kChunkSize);
    std::vector<std::vector<ServedAnswer>> results;
    for (int workers : {1, 2, 8}) {
      QueryServerOptions options;
      options.num_workers = workers;
      auto server = EpochServer::Create(0, estimator, options);
      ASSERT_OK(server);
      auto answers = (*server)->AnswerBatch(CountRequests(workload));
      ASSERT_OK(answers);
      results.push_back(std::move(*answers));
    }
    for (size_t i = 1; i < results.size(); ++i) {
      ASSERT_EQ(results[i].size(), results[0].size());
      for (size_t q = 0; q < results[0].size(); ++q) {
        EXPECT_EQ(results[i][q].estimate, results[0][q].estimate);
        EXPECT_EQ(results[i][q].ci_lo, results[0][q].ci_lo);
        EXPECT_EQ(results[i][q].ci_hi, results[0][q].ci_hi);
      }
    }
    // The answers are the estimator's own, interval-wrapped.
    for (size_t q = 0; q < results[0].size(); ++q) {
      EXPECT_EQ(results[0][q].estimate, estimator->Estimate(workload[q]));
      EXPECT_LE(results[0][q].ci_lo, results[0][q].estimate);
      EXPECT_LE(results[0][q].estimate, results[0][q].ci_hi);
    }
  }
}

TEST(Workload, ValidateQueryRejectsDuplicateAndOutOfRangeDims) {
  const auto table = SmallCensus(100);
  const TableSchema& schema = table->schema();

  AggregateQuery ok_query;
  ok_query.predicates.push_back({0, 20, 40});
  ok_query.predicates.push_back({2, 1, 3});
  EXPECT_OK(ValidateQuery(schema, ok_query));

  AggregateQuery dup = ok_query;
  dup.predicates.push_back({0, 30, 50});
  EXPECT_FALSE(ValidateQuery(schema, dup).ok());

  AggregateQuery negative = ok_query;
  negative.predicates.push_back({-1, 0, 1});
  EXPECT_FALSE(ValidateQuery(schema, negative).ok());

  AggregateQuery beyond = ok_query;
  beyond.predicates.push_back({schema.num_qi(), 0, 1});
  EXPECT_FALSE(ValidateQuery(schema, beyond).ok());

  // Inverted or out-of-domain ranges are legal (they match nothing or,
  // for the SA pair, mean "no predicate") — only the dimension
  // structure is policed here.
  AggregateQuery inverted = ok_query;
  inverted.predicates[0] = {0, 40, 20};
  inverted.sa_lo = 5;
  inverted.sa_hi = 2;
  EXPECT_OK(ValidateQuery(schema, inverted));

  // An SA-only query (no QI predicates) is fine.
  AggregateQuery sa_only;
  sa_only.sa_lo = 0;
  sa_only.sa_hi = 3;
  EXPECT_OK(ValidateQuery(schema, sa_only));
}

TEST(Workload, PreciseSumsAndGroupCountsMatchRowWiseMatches) {
  for (int64_t rows : kBlockEdgeSizes) {
    const auto table = SmallCensus(rows);
    for (bool include_sa : {false, true}) {
      WorkloadOptions options;
      options.num_queries = 40;
      options.lambda = 2;
      options.include_sa = include_sa;
      options.seed = include_sa ? 107 : 109;
      auto workload = GenerateWorkload(table->schema(), options);
      ASSERT_OK(workload);

      const std::vector<int64_t> sums = PreciseSums(*table, *workload);
      const std::vector<std::vector<int64_t>> groups =
          PreciseGroupCounts(*table, *workload);
      const std::vector<int64_t> counts = PreciseCounts(*table, *workload);
      ASSERT_EQ(sums.size(), workload->size());
      ASSERT_EQ(groups.size(), workload->size());

      const int32_t num_values = table->sa_spec().num_values;
      for (size_t i = 0; i < workload->size(); ++i) {
        const AggregateQuery& query = (*workload)[i];
        int64_t expected_sum = 0;
        std::vector<int64_t> expected_group(num_values, 0);
        for (int64_t row = 0; row < table->num_rows(); ++row) {
          if (!query.Matches(*table, row)) continue;
          expected_sum += table->sa_value(row);
          ++expected_group[table->sa_value(row)];
        }
        EXPECT_EQ(sums[i], expected_sum);
        ASSERT_EQ(groups[i].size(), static_cast<size_t>(num_values));
        int64_t group_total = 0;
        for (int32_t v = 0; v < num_values; ++v) {
          EXPECT_EQ(groups[i][v], expected_group[v]);
          group_total += groups[i][v];
          if (query.has_sa_predicate() &&
              (v < query.sa_lo || v > query.sa_hi)) {
            EXPECT_EQ(groups[i][v], 0);
          }
        }
        // The group slots partition the query's count.
        EXPECT_EQ(group_total, counts[i]);
      }
    }
  }
}

// Each shape's SUM/AVG/GROUP-BY degenerates to the exact answer when
// the publication carries full information: point boxes (generalized),
// singleton groups (Anatomy), retention 1 (perturbed, over point
// boxes).
TEST(EstimatorAggregates, ExactOnFullInformationPublications) {
  const auto table = SmallCensus(400);
  std::vector<std::vector<int64_t>> singleton_rows;
  for (int64_t row = 0; row < table->num_rows(); ++row) {
    singleton_rows.push_back({row});
  }
  auto published = GeneralizedTable::Create(table, singleton_rows);
  ASSERT_OK(published);

  std::vector<std::shared_ptr<const Estimator>> estimators;
  estimators.push_back(
      MakeEstimatorOrDie(PublishedView::Generalized(*published)));
  estimators.push_back(MakeEstimatorOrDie(PublishedView::Anatomized(
      AnatomizedTable::FromGrouping(*published))));
  PerturbOptions perturb_options;
  perturb_options.retention = 1.0;  // randomized response keeps every SA
  auto perturbed = PerturbSaWithinEcs(*published, perturb_options);
  ASSERT_OK(perturbed);
  estimators.push_back(
      MakeEstimatorOrDie(PublishedView::Perturbed(std::move(*perturbed))));

  for (bool include_sa : {false, true}) {
    WorkloadOptions options;
    options.num_queries = 40;
    options.lambda = 2;
    options.selectivity = 0.2;
    options.include_sa = include_sa;
    options.seed = include_sa ? 113 : 127;
    auto workload = GenerateWorkload(table->schema(), options);
    ASSERT_OK(workload);
    const std::vector<int64_t> counts = PreciseCounts(*table, *workload);
    const std::vector<int64_t> sums = PreciseSums(*table, *workload);
    const std::vector<std::vector<int64_t>> groups =
        PreciseGroupCounts(*table, *workload);

    for (const auto& estimator : estimators) {
      for (size_t i = 0; i < workload->size(); ++i) {
        const AggregateQuery& query = (*workload)[i];
        const EstimateWithVariance sum =
            estimator->EstimateSumWithUncertainty(query);
        EXPECT_NEAR(sum.estimate, static_cast<double>(sums[i]), 1e-6);

        const EstimateWithVariance avg =
            estimator->EstimateAvgWithUncertainty(query);
        const double expected_avg =
            counts[i] > 0 ? static_cast<double>(sums[i]) /
                                static_cast<double>(counts[i])
                          : 0.0;
        EXPECT_NEAR(avg.estimate, expected_avg, 1e-6);

        const std::vector<EstimateWithVariance> by_value =
            estimator->EstimateGroupByWithUncertainty(query);
        ASSERT_EQ(by_value.size(), groups[i].size());
        for (size_t v = 0; v < by_value.size(); ++v) {
          EXPECT_NEAR(by_value[v].estimate,
                      static_cast<double>(groups[i][v]), 1e-6);
        }
      }
    }
  }
}

// On coarse publications the aggregate estimates are not exact, but
// the internal identities must hold for every shape: AVG is bitwise
// SUM/COUNT, each GROUP-BY slot is bitwise the matching width-1 COUNT
// query, and the slots outside an SA range are zero.
TEST(EstimatorAggregates, InternalConsistencyOnCoarsePublications) {
  const auto table = SmallCensus(1200);
  const GeneralizedTable published = ModKPublication(table, 6);

  std::vector<std::shared_ptr<const Estimator>> estimators;
  estimators.push_back(
      MakeEstimatorOrDie(PublishedView::Generalized(published)));
  estimators.push_back(MakeEstimatorOrDie(
      PublishedView::Anatomized(AnatomizedTable::FromGrouping(published))));
  PerturbOptions perturb_options;
  perturb_options.retention = 0.6;
  perturb_options.seed = 131;
  auto perturbed = PerturbSaWithinEcs(published, perturb_options);
  ASSERT_OK(perturbed);
  estimators.push_back(
      MakeEstimatorOrDie(PublishedView::Perturbed(std::move(*perturbed))));

  for (bool include_sa : {false, true}) {
    const auto workload =
        MixedWorkload(table->schema(), include_sa, include_sa ? 137 : 139);
    for (const auto& estimator : estimators) {
      const int32_t num_values = estimator->sa_num_values();
      ASSERT_EQ(num_values, table->sa_spec().num_values);
      for (const AggregateQuery& query : workload) {
        const EstimateWithVariance count =
            estimator->EstimateWithUncertainty(query);
        const EstimateWithVariance sum =
            estimator->EstimateSumWithUncertainty(query);
        EXPECT_GE(sum.variance, 0.0);

        const CountAndSum both =
            estimator->EstimateCountAndSumWithUncertainty(query);
        ExpectSameAnswer(both.count, count);
        ExpectSameAnswer(both.sum, sum);

        const EstimateWithVariance avg =
            estimator->EstimateAvgWithUncertainty(query);
        if (count.estimate > 0.0) {
          // The delta-method formula over separate COUNT and SUM calls.
          const double ratio = sum.estimate / count.estimate;
          EXPECT_EQ(avg.estimate, ratio);
          EXPECT_EQ(avg.variance,
                    (sum.variance + ratio * ratio * count.variance) /
                        (count.estimate * count.estimate));
          EXPECT_GE(avg.variance, 0.0);
        } else {
          EXPECT_EQ(avg.estimate, 0.0);
          EXPECT_EQ(avg.variance, 0.0);
        }

        const std::vector<EstimateWithVariance> by_value =
            estimator->EstimateGroupByWithUncertainty(query);
        ASSERT_EQ(by_value.size(), static_cast<size_t>(num_values));
        AggregateQuery point = query;
        for (int32_t v = 0; v < num_values; ++v) {
          if (query.has_sa_predicate() &&
              (v < query.sa_lo || v > query.sa_hi)) {
            EXPECT_EQ(by_value[v].estimate, 0.0);
            EXPECT_EQ(by_value[v].variance, 0.0);
            continue;
          }
          point.sa_lo = v;
          point.sa_hi = v;
          const EstimateWithVariance slot =
              estimator->EstimateWithUncertainty(point);
          EXPECT_EQ(by_value[v].estimate, slot.estimate);
          EXPECT_EQ(by_value[v].variance, slot.variance);
        }
      }
    }
  }
}

// One group of 49 rows that all hold SA value 5: E[v²] - E[v]² is 0,
// but 1225/49 - (245/49)² rounds to -3.6e-15, so a row's SUM variance
// is 0 only through the clamp — on the no-SA path, which reads the
// records precomputed at construction, and on the SA-range path.
TEST(EstimatorInterface, AnatomizedSumVarianceClampsRoundingToZero) {
  std::vector<int32_t> qi(49);
  std::iota(qi.begin(), qi.end(), 0);
  auto table_or = Table::Create({{"A", 0, 48}}, {"SA", 8}, {qi},
                                std::vector<int32_t>(49, 5));
  ASSERT_OK(table_or);
  auto table = std::make_shared<Table>(std::move(table_or).value());
  std::vector<int64_t> rows(49);
  std::iota(rows.begin(), rows.end(), int64_t{0});
  auto published = GeneralizedTable::Create(table, {rows});
  ASSERT_OK(published);
  const AnatomizedTable view = AnatomizedTable::FromGrouping(*published);
  const auto estimator = MakeEstimatorOrDie(PublishedView::Anatomized(view));

  AggregateQuery query;
  query.predicates.push_back({0, 3, 40});
  for (const auto& [lo, hi] : {std::pair{0, -1}, std::pair{2, 6}}) {
    query.sa_lo = lo;
    query.sa_hi = hi;
    const EstimateWithVariance sum =
        estimator->EstimateSumWithUncertainty(query);
    EXPECT_EQ(sum.variance, 0.0);
    ExpectSameAnswer(sum, oracle::AnatomizedSum(view, query));
    ExpectSameAnswer(
        estimator->EstimateCountAndSumWithUncertainty(query).sum, sum);
  }
}

// A decorator that overrides only COUNT and SUM, like a timing wrapper:
// its AVG goes through the default COUNT+SUM hook, two forwarded calls.
class CountSumForwarder final : public Estimator {
 public:
  explicit CountSumForwarder(std::shared_ptr<const Estimator> inner)
      : inner_(std::move(inner)) {}

  std::string Name() const override { return inner_->Name(); }
  int32_t sa_num_values() const override { return inner_->sa_num_values(); }
  EstimateWithVariance EstimateWithUncertainty(
      const AggregateQuery& query) const override {
    return inner_->EstimateWithUncertainty(query);
  }
  EstimateWithVariance EstimateSumWithUncertainty(
      const AggregateQuery& query) const override {
    return inner_->EstimateSumWithUncertainty(query);
  }

 private:
  std::shared_ptr<const Estimator> inner_;
};

// A shape's own COUNT+SUM hook (Anatomy's fused pass) and the default
// a decorator falls back to must give the same AVG, to the bit.
TEST(EstimatorAggregates, AvgThroughCountSumDecoratorIsBitwiseTheSame) {
  const auto table = SmallCensus(1200);
  const GeneralizedTable published = ModKPublication(table, 6);

  std::vector<std::shared_ptr<const Estimator>> estimators;
  estimators.push_back(
      MakeEstimatorOrDie(PublishedView::Generalized(published)));
  estimators.push_back(MakeEstimatorOrDie(
      PublishedView::Anatomized(AnatomizedTable::FromGrouping(published))));
  PerturbOptions perturb_options;
  perturb_options.retention = 0.6;
  perturb_options.seed = 131;
  auto perturbed = PerturbSaWithinEcs(published, perturb_options);
  ASSERT_OK(perturbed);
  estimators.push_back(
      MakeEstimatorOrDie(PublishedView::Perturbed(std::move(*perturbed))));

  for (bool include_sa : {false, true}) {
    const auto workload =
        MixedWorkload(table->schema(), include_sa, include_sa ? 151 : 157);
    for (const auto& estimator : estimators) {
      const CountSumForwarder forwarder(estimator);
      for (const AggregateQuery& query : workload) {
        const EstimateWithVariance direct =
            estimator->EstimateAvgWithUncertainty(query);
        const EstimateWithVariance forwarded =
            forwarder.EstimateAvgWithUncertainty(query);
        EXPECT_EQ(std::memcmp(&direct, &forwarded, sizeof direct), 0);
      }
    }
  }
}

// An inverted SA range (sa_lo > sa_hi beyond the {0, -1} default) is
// "no SA predicate" for every consumer: generation ground truth,
// estimation, and the aggregate extensions all treat it identically to
// the defaulted query.
TEST(EstimatorAggregates, InvertedSaRangeMeansNoPredicateEverywhere) {
  const auto table = SmallCensus(900);
  const GeneralizedTable published = ModKPublication(table, 5);

  std::vector<std::shared_ptr<const Estimator>> estimators;
  estimators.push_back(
      MakeEstimatorOrDie(PublishedView::Generalized(published)));
  estimators.push_back(MakeEstimatorOrDie(
      PublishedView::Anatomized(AnatomizedTable::FromGrouping(published))));
  PerturbOptions perturb_options;
  perturb_options.retention = 0.8;
  perturb_options.seed = 149;
  auto perturbed = PerturbSaWithinEcs(published, perturb_options);
  ASSERT_OK(perturbed);
  estimators.push_back(
      MakeEstimatorOrDie(PublishedView::Perturbed(std::move(*perturbed))));

  const auto workload = MixedWorkload(table->schema(), false, 151);
  std::vector<AggregateQuery> inverted = workload;
  for (AggregateQuery& query : inverted) {
    query.sa_lo = 5;  // non-default inverted pair
    query.sa_hi = 2;
    ASSERT_FALSE(query.has_sa_predicate());
  }

  EXPECT_TRUE(PreciseCounts(*table, workload) ==
              PreciseCounts(*table, inverted));
  EXPECT_TRUE(PreciseSums(*table, workload) == PreciseSums(*table, inverted));
  EXPECT_TRUE(PreciseGroupCounts(*table, workload) ==
              PreciseGroupCounts(*table, inverted));

  for (const auto& estimator : estimators) {
    for (size_t i = 0; i < workload.size(); ++i) {
      EXPECT_EQ(estimator->Estimate(workload[i]),
                estimator->Estimate(inverted[i]));
      EXPECT_EQ(estimator->EstimateSumWithUncertainty(workload[i]).estimate,
                estimator->EstimateSumWithUncertainty(inverted[i]).estimate);
      EXPECT_EQ(estimator->EstimateAvgWithUncertainty(workload[i]).estimate,
                estimator->EstimateAvgWithUncertainty(inverted[i]).estimate);
      const auto by_default =
          estimator->EstimateGroupByWithUncertainty(workload[i]);
      const auto by_inverted =
          estimator->EstimateGroupByWithUncertainty(inverted[i]);
      ASSERT_EQ(by_default.size(), by_inverted.size());
      for (size_t v = 0; v < by_default.size(); ++v) {
        EXPECT_EQ(by_default[v].estimate, by_inverted[v].estimate);
        EXPECT_EQ(by_default[v].variance, by_inverted[v].variance);
      }
    }
  }
}

}  // namespace
}  // namespace betalike
