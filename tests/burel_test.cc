#include "core/burel.h"

#include <cmath>
#include <memory>
#include <thread>

#include "baseline/mondrian.h"
#include "census/census.h"
#include "core/formation.h"
#include "metrics/info_loss.h"
#include "metrics/privacy_audit.h"
#include "tests/betalike_test.h"

namespace betalike {
namespace {

std::shared_ptr<const Table> CensusTable(int64_t rows, int qi) {
  CensusOptions options;
  options.num_rows = rows;
  auto full = GenerateCensus(options);
  BETALIKE_CHECK(full.ok()) << full.status().ToString();
  auto prefixed = full->WithQiPrefix(qi);
  BETALIKE_CHECK(prefixed.ok()) << prefixed.status().ToString();
  return std::make_shared<Table>(std::move(prefixed).value());
}

TEST(BetaLikenessThresholds, MatchesHandComputation) {
  const std::vector<double> freqs = {0.5, 0.3, 0.2};
  BurelOptions basic;
  basic.beta = 1.0;
  basic.enhanced = false;
  const std::vector<double> basic_thr =
      BetaLikenessThresholds(freqs, basic);
  EXPECT_NEAR(basic_thr[0], 1.0, 1e-12);  // capped at 1
  EXPECT_NEAR(basic_thr[1], 0.6, 1e-12);
  EXPECT_NEAR(basic_thr[2], 0.4, 1e-12);

  BurelOptions enhanced;
  enhanced.beta = 1.0;
  const std::vector<double> enh_thr =
      BetaLikenessThresholds(freqs, enhanced);
  // ln(1/0.5) < 1 caps the gain for the frequent value.
  EXPECT_NEAR(enh_thr[0], 0.5 * (1.0 + std::log(2.0)), 1e-12);
  EXPECT_NEAR(enh_thr[1], 0.6, 1e-12);
  EXPECT_NEAR(enh_thr[2], 0.4, 1e-12);

  // Absent values get a zero cap (they may not appear in any EC).
  const std::vector<double> with_zero =
      BetaLikenessThresholds({0.5, 0.0, 0.5}, enhanced);
  EXPECT_EQ(with_zero[1], 0.0);
}

TEST(BucketizeSaValues, PacksGreedilyByDescendingFrequency) {
  BurelOptions options;
  options.beta = 1.0;
  auto skewed = BucketizeSaValues({0.5, 0.3, 0.2}, options);
  ASSERT_OK(skewed);
  // No pair fits a shared bucket under its rarer member's threshold.
  EXPECT_EQ(skewed->size(), 3u);

  auto uniform = BucketizeSaValues({0.25, 0.25, 0.25, 0.25}, options);
  ASSERT_OK(uniform);
  // Threshold 0.5 per value: pairs fit exactly.
  ASSERT_EQ(uniform->size(), 2u);
  EXPECT_EQ((*uniform)[0].size(), 2u);
  EXPECT_EQ((*uniform)[1].size(), 2u);

  // Zero-frequency values appear in no bucket.
  auto with_zero = BucketizeSaValues({0.5, 0.0, 0.5}, options);
  ASSERT_OK(with_zero);
  size_t members = 0;
  for (const auto& bucket : *with_zero) members += bucket.size();
  EXPECT_EQ(members, 2u);
}

TEST(BucketizeSaValues, RejectsInvalidInput) {
  BurelOptions options;
  options.beta = 0.0;
  EXPECT_FALSE(BucketizeSaValues({0.5, 0.5}, options).ok());
  options.beta = 1.0;
  EXPECT_FALSE(BucketizeSaValues({-0.1, 1.1}, options).ok());
  EXPECT_FALSE(BucketizeSaValues({0.0, 0.0}, options).ok());
}

// End-to-end property: BUREL output must satisfy β-likeness — the real
// β (worst relative confidence gain) never exceeds the budget, under
// both the enhanced and basic models.
TEST(Burel, OutputSatisfiesBetaLikeness) {
  auto table = CensusTable(5000, 3);
  for (double beta : {0.5, 1.0, 2.0, 4.0}) {
    BurelOptions options;
    options.beta = beta;
    auto published = AnonymizeWithBurel(table, options);
    ASSERT_OK(published);
    EXPECT_LE(MeasuredBeta(*published), beta + 1e-9);
    const double ail = AverageInfoLoss(*published);
    EXPECT_GE(ail, 0.0);
    EXPECT_LE(ail, 1.0);
    EXPECT_GT(published->num_ecs(), 1u);
  }
  BurelOptions basic;
  basic.beta = 2.0;
  basic.enhanced = false;
  auto published = AnonymizeWithBurel(table, basic);
  ASSERT_OK(published);
  EXPECT_LE(MeasuredBeta(*published), 2.0 + 1e-9);
}

TEST(Burel, DeterministicAcrossRuns) {
  auto table = CensusTable(3000, 3);
  BurelOptions options;
  options.beta = 2.0;
  auto a = AnonymizeWithBurel(table, options);
  auto b = AnonymizeWithBurel(table, options);
  ASSERT_OK(a);
  ASSERT_OK(b);
  EXPECT_EQ(a->num_ecs(), b->num_ecs());
  EXPECT_NEAR(AverageInfoLoss(*a), AverageInfoLoss(*b), 0.0);
}

// Bit-identity across thread counts: the parallel formation combines
// subtree results in fixed tree order, so every EC — rows, order, and
// bounding boxes — must be exactly the serial structure no matter how
// many workers ran it.
TEST(Burel, BitIdenticalAcrossThreadCounts) {
  auto table = CensusTable(10000, 3);
  BurelOptions serial;
  serial.beta = 2.0;
  serial.num_threads = 1;
  BurelProfile serial_profile;
  auto golden = AnonymizeWithBurel(table, serial, &serial_profile);
  ASSERT_OK(golden);
  EXPECT_EQ(serial_profile.threads, 1);
  EXPECT_EQ(serial_profile.parallel_tasks, 0);

  // num_threads = 0 (auto) must land on the same structure too. Where
  // it resolves to one thread it is the serial path: no pool tasks.
  const unsigned hw = std::thread::hardware_concurrency();
  for (int threads : {2, hw == 0 ? 4 : static_cast<int>(hw), 0}) {
    BurelOptions options;
    options.beta = 2.0;
    options.num_threads = threads;
    BurelProfile profile;
    auto parallel = AnonymizeWithBurel(table, options, &profile);
    ASSERT_OK(parallel);
    EXPECT_EQ(profile.threads, ResolveFormationThreads(threads));
    if (profile.threads <= 1) EXPECT_EQ(profile.parallel_tasks, 0);
    ASSERT_EQ(parallel->num_ecs(), golden->num_ecs());
    for (size_t i = 0; i < golden->num_ecs(); ++i) {
      const EquivalenceClass& a = golden->ec(i);
      const EquivalenceClass& b = parallel->ec(i);
      EXPECT_TRUE(a.rows == b.rows);
      EXPECT_TRUE(a.qi_min == b.qi_min);
      EXPECT_TRUE(a.qi_max == b.qi_max);
    }
  }
}

// Explicit worker counts pass through; auto (0) is one worker per
// runnable CPU, and 1 where there is at most one.
TEST(Burel, ResolveFormationThreads) {
  for (int threads : {1, 2, 7, kMaxFormationThreads}) {
    EXPECT_EQ(ResolveFormationThreads(threads), threads);
  }
  const int cpus = AvailableConcurrency();
  EXPECT_EQ(ResolveFormationThreads(0), cpus <= 1 ? 1 : cpus);
}

// The paper's headline comparison (Figures 5-7): BUREL loses less
// information than both Mondrian adaptations at equal β.
TEST(Burel, BeatsMondrianBaselinesOnInfoLoss) {
  auto table = CensusTable(20000, 3);
  for (double beta : {1.0, 4.0}) {
    BurelOptions options;
    options.beta = beta;
    auto burel = AnonymizeWithBurel(table, options);
    auto lmondrian = Mondrian::ForBetaLikeness(beta).Anonymize(table);
    auto dmondrian = Mondrian::ForDeltaFromBeta(beta).Anonymize(table);
    ASSERT_OK(burel);
    ASSERT_OK(lmondrian);
    ASSERT_OK(dmondrian);
    EXPECT_LE(AverageInfoLoss(*burel), AverageInfoLoss(*lmondrian));
    EXPECT_LE(AverageInfoLoss(*burel), AverageInfoLoss(*dmondrian));
  }
}

TEST(Burel, HandlesSmallAndDegenerateTables) {
  // Single-row table: one EC, zero loss, zero real beta.
  auto tiny = Table::Create({{"A", 0, 10}}, {"SA", 2}, {{4}}, {1});
  ASSERT_OK(tiny);
  BurelOptions options;
  options.beta = 1.0;
  auto published = AnonymizeWithBurel(
      std::make_shared<Table>(std::move(tiny).value()), options);
  ASSERT_OK(published);
  EXPECT_EQ(published->num_ecs(), 1u);
  EXPECT_NEAR(AverageInfoLoss(*published), 0.0, 1e-12);

  // Single-valued SA: every EC trivially satisfies any beta.
  auto mono = Table::Create({{"A", 0, 10}}, {"SA", 1},
                            {{0, 3, 7, 10}}, {0, 0, 0, 0});
  ASSERT_OK(mono);
  auto mono_pub = AnonymizeWithBurel(
      std::make_shared<Table>(std::move(mono).value()), options);
  ASSERT_OK(mono_pub);
  EXPECT_NEAR(MeasuredBeta(*mono_pub), 0.0, 1e-12);

  // Zero QI attributes: nothing to generalize, but the partition must
  // still satisfy β-likeness.
  auto no_qi = Table::Create({}, {"SA", 2}, {}, {0, 1, 0, 1, 0, 1});
  ASSERT_OK(no_qi);
  auto no_qi_pub = AnonymizeWithBurel(
      std::make_shared<Table>(std::move(no_qi).value()), options);
  ASSERT_OK(no_qi_pub);
  EXPECT_LE(MeasuredBeta(*no_qi_pub), 1.0 + 1e-9);
  EXPECT_NEAR(AverageInfoLoss(*no_qi_pub), 0.0, 1e-12);
}

TEST(Burel, RejectsInvalidArguments) {
  auto table = CensusTable(100, 2);
  BurelOptions options;
  options.beta = 0.0;
  EXPECT_FALSE(AnonymizeWithBurel(table, options).ok());
  options.beta = -1.0;
  EXPECT_FALSE(AnonymizeWithBurel(table, options).ok());
  options.beta = 1.0;
  options.num_threads = kMaxFormationThreads + 1;
  EXPECT_FALSE(AnonymizeWithBurel(table, options).ok());
  options.num_threads = -1;
  EXPECT_FALSE(AnonymizeWithBurel(table, options).ok());
  options.num_threads = 1;
  EXPECT_FALSE(AnonymizeWithBurel(nullptr, options).ok());
  auto empty = Table::Create({{"A", 0, 1}}, {"SA", 2}, {{}}, {});
  ASSERT_OK(empty);
  EXPECT_FALSE(
      AnonymizeWithBurel(
          std::make_shared<Table>(std::move(empty).value()), options)
          .ok());
}

}  // namespace
}  // namespace betalike
