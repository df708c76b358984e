// perturb/ subsystem tests: seeded determinism of the randomized
// response, structural identity of the perturbed view (same ECs and
// boxes, same QI columns, only the SA column resampled), option
// validation, and reconstruction accuracy of the estimator on a large
// class with known composition.
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "census/census.h"
#include "core/anonymizer.h"
#include "perturb/perturbation.h"
#include "query/estimator.h"
#include "query/published_view.h"
#include "tests/betalike_test.h"
#include "tests/estimator_oracle.h"

namespace betalike {
namespace {

std::shared_ptr<const Table> SmallCensus(int64_t rows = 2000) {
  CensusOptions options;
  options.num_rows = rows;
  auto full = GenerateCensus(options);
  BETALIKE_CHECK(full.ok()) << full.status().ToString();
  auto prefixed = full->WithQiPrefix(3);
  BETALIKE_CHECK(prefixed.ok()) << prefixed.status().ToString();
  return std::make_shared<Table>(std::move(prefixed).value());
}

GeneralizedTable Publish(const std::shared_ptr<const Table>& table,
                         double beta) {
  auto scheme = MakeAnonymizer({"burel", beta});
  BETALIKE_CHECK(scheme.ok());
  auto published = (*scheme)->Anonymize(table);
  BETALIKE_CHECK(published.ok()) << published.status().ToString();
  return std::move(published).value();
}

TEST(Perturb, ValidatesOptions) {
  auto table = SmallCensus(200);
  const GeneralizedTable published = Publish(table, 2.0);
  PerturbOptions options;
  options.retention = 0.0;
  EXPECT_FALSE(PerturbSaWithinEcs(published, options).ok());
  options.retention = -0.5;
  EXPECT_FALSE(PerturbSaWithinEcs(published, options).ok());
  options.retention = 1.5;
  EXPECT_FALSE(PerturbSaWithinEcs(published, options).ok());
  options.retention = std::nan("");
  EXPECT_FALSE(PerturbSaWithinEcs(published, options).ok());
  options.retention = 1.0;
  EXPECT_OK(PerturbSaWithinEcs(published, options));
}

TEST(Perturb, SameSeedIsBitIdenticalDifferentSeedIsNot) {
  auto table = SmallCensus();
  const GeneralizedTable published = Publish(table, 2.0);
  PerturbOptions options;
  options.retention = 0.7;
  options.seed = 99;
  auto first = PerturbSaWithinEcs(published, options);
  auto second = PerturbSaWithinEcs(published, options);
  ASSERT_OK(first);
  ASSERT_OK(second);
  EXPECT_TRUE(first->view.source().sa_column() ==
              second->view.source().sa_column());

  options.seed = 100;
  auto reseeded = PerturbSaWithinEcs(published, options);
  ASSERT_OK(reseeded);
  EXPECT_FALSE(first->view.source().sa_column() ==
               reseeded->view.source().sa_column());
}

TEST(Perturb, KeepsEcStructureAndQiColumns) {
  auto table = SmallCensus();
  const GeneralizedTable published = Publish(table, 2.0);
  PerturbOptions options;
  options.retention = 0.5;
  auto perturbed = PerturbSaWithinEcs(published, options);
  ASSERT_OK(perturbed);
  const GeneralizedTable& view = perturbed->view;
  ASSERT_EQ(view.num_ecs(), published.num_ecs());
  for (size_t e = 0; e < published.num_ecs(); ++e) {
    EXPECT_TRUE(view.ec(e).rows == published.ec(e).rows);
    EXPECT_TRUE(view.ec(e).qi_min == published.ec(e).qi_min);
    EXPECT_TRUE(view.ec(e).qi_max == published.ec(e).qi_max);
  }
  for (int d = 0; d < table->num_qi(); ++d) {
    EXPECT_TRUE(view.source().qi_column(d) == table->qi_column(d));
  }
  // Some but not all SA values survive at retention 0.5.
  int64_t kept = 0;
  for (int64_t row = 0; row < table->num_rows(); ++row) {
    if (view.source().sa_value(row) == table->sa_value(row)) ++kept;
  }
  EXPECT_GT(kept, 0);
  EXPECT_LT(kept, table->num_rows());
}

TEST(Perturb, FullRetentionIsIdentity) {
  auto table = SmallCensus(500);
  const GeneralizedTable published = Publish(table, 2.0);
  PerturbOptions options;
  options.retention = 1.0;
  auto perturbed = PerturbSaWithinEcs(published, options);
  ASSERT_OK(perturbed);
  EXPECT_TRUE(perturbed->view.source().sa_column() == table->sa_column());
}

// Reconstruction on one large class of known composition: value v has
// true count n * p_v; after randomized response the inverted estimate
// must land within sampling noise of the truth, and far closer than
// the raw perturbed count for rare values.
TEST(Perturb, ReconstructionRecoversTrueCounts) {
  // 8000 rows, one QI point, SA skewed over 4 values.
  const int64_t n = 8000;
  std::vector<int32_t> qi(n, 0);
  std::vector<int32_t> sa(n);
  std::vector<int64_t> truth(4, 0);
  for (int64_t i = 0; i < n; ++i) {
    sa[i] = i % 8 == 0 ? 3 : static_cast<int32_t>(i % 3);  // skew
    ++truth[sa[i]];
  }
  auto table_or = Table::Create({{"A", 0, 0}}, {"SA", 4}, {qi}, sa);
  ASSERT_OK(table_or);
  auto table = std::make_shared<Table>(std::move(table_or).value());
  std::vector<int64_t> all(n);
  for (int64_t i = 0; i < n; ++i) all[i] = i;
  auto published = GeneralizedTable::Create(table, {all});
  ASSERT_OK(published);

  PerturbOptions options;
  options.retention = 0.8;
  options.seed = 7;
  auto perturbed = PerturbSaWithinEcs(*published, options);
  ASSERT_OK(perturbed);
  const EcSaIndex index(perturbed->view);
  auto estimator = MakeEstimator(PublishedView::Perturbed(*perturbed));
  ASSERT_OK(estimator);

  for (int32_t v = 0; v < 4; ++v) {
    AggregateQuery query;
    query.sa_lo = v;
    query.sa_hi = v;
    const double estimate = (*estimator)->Estimate(query);
    EXPECT_EQ(estimate, oracle::Perturbed(*perturbed, index, query));
    // Binomial noise at this size stays well under 5% of n.
    EXPECT_NEAR(estimate, static_cast<double>(truth[v]), 0.05 * n);
  }
  // Disjoint SA range estimates to zero.
  AggregateQuery miss;
  miss.sa_lo = 10;
  miss.sa_hi = 20;
  EXPECT_NEAR((*estimator)->Estimate(miss), 0.0, 1e-12);
  EXPECT_EQ(oracle::Perturbed(*perturbed, index, miss), 0.0);
}

}  // namespace
}  // namespace betalike
