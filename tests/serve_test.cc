// serve/ subsystem tests: the libm-free sqrt against <cmath>, the
// fixed z table (including ULP-noise tolerance), latency-histogram
// bucketing/quantiles (NaN included) and top-octave edge saturation,
// QueryServer option validation, Span slicing, the served confidence
// intervals — exact half-width on a degenerate (one-row-per-EC)
// publication, empirical coverage where the uniform-spread model
// actually holds and on the fig8 CENSUS panel, and a coverage floor
// for every aggregate — plus both entry points of one-epoch servers:
// SubmitBatch futures bitwise-equal to AnswerBatch answers at every
// worker count, concurrent multi-client submission, concurrent
// AnswerBatch callers, and mixed-aggregate batches against the
// estimator's own methods. The hardening layer is covered too:
// admission control (kReject sheds with ResourceExhausted, kBlock
// waits for room), deficit-round-robin fairness between a big and a
// small client, per-batch deadlines (already-expired rejection,
// mid-flight chunk-aligned suffix expiry) — each status identical
// from AnswerBatch and SubmitBatch — the out-of-domain GROUP-BY zero-slot
// convention on all three publication shapes, histogram observers
// polled while the pool records (the TSan race this PR fixes), and
// destruction racing live clients, and malformed requests (bad or
// duplicate predicate dimensions) answered kInvalidQuery on every
// shape without disturbing the rest of their batch.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/span.h"
#include "core/formation.h"
#include "perturb/perturbation.h"
#include "query/estimator.h"
#include "query/published_view.h"
#include "query/workload.h"
#include "serve/epoch_server.h"
#include "serve/latency_histogram.h"
#include "serve/query_server.h"
#include "tests/betalike_test.h"
#include "tests/estimator_oracle.h"
#include "tests/test_tables.h"

namespace betalike {
namespace {

TEST(DeterministicSqrt, MatchesLibmAcrossMagnitudes) {
  for (double x : {1e-12, 0.25, 0.5, 1.0, 2.0, 3.0, 100.0, 12345.678,
                   1e6, 1e12, 7.389e4}) {
    const double got = DeterministicSqrt(x);
    const double expected = std::sqrt(x);
    EXPECT_NEAR(got / expected, 1.0, 1e-12);
  }
}

TEST(DeterministicSqrt, ZeroForNonPositiveAndNan) {
  EXPECT_EQ(DeterministicSqrt(0.0), 0.0);
  EXPECT_EQ(DeterministicSqrt(-4.0), 0.0);
  EXPECT_EQ(DeterministicSqrt(std::nan("")), 0.0);
}

TEST(DeterministicSqrt, ExtremeMagnitudes) {
  // +inf must propagate: the Newton iteration alone reaches
  // inf / inf = NaN on its second step, which used to leak into the
  // served ci_hi.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(DeterministicSqrt(inf), inf);
  // Largest finite double: the exponent-halving guess keeps the
  // iteration finite and convergent.
  const double max = std::numeric_limits<double>::max();
  EXPECT_NEAR(DeterministicSqrt(max) / std::sqrt(max), 1.0, 1e-9);
  // Deep subnormal: the bit-pattern guess degrades (the exponent
  // field is zero), but quadratic convergence still lands within 1%.
  // DBL_TRUE_MIN itself is excluded — five iterations do not recover
  // from the guess that far down.
  const double tiny = 1e-310;
  EXPECT_NEAR(DeterministicSqrt(tiny) / std::sqrt(tiny), 1.0, 1e-2);
}

TEST(NormalCriticalValue, FixedTable) {
  auto z90 = NormalCriticalValue(0.90);
  auto z95 = NormalCriticalValue(0.95);
  auto z99 = NormalCriticalValue(0.99);
  ASSERT_OK(z90);
  ASSERT_OK(z95);
  ASSERT_OK(z99);
  EXPECT_EQ(*z90, 1.6448536269514722);
  EXPECT_EQ(*z95, 1.959963984540054);
  EXPECT_EQ(*z99, 2.5758293035489004);
  EXPECT_FALSE(NormalCriticalValue(0.80).ok());
  EXPECT_FALSE(NormalCriticalValue(0.0).ok());
}

TEST(LatencyHistogram, SmallValuesAreExact) {
  LatencyHistogram hist;
  for (uint64_t n = 0; n < 16; ++n) hist.Record(n);
  EXPECT_EQ(hist.count(), 16u);
  // Direct-indexed region: quantiles resolve to the exact values.
  EXPECT_EQ(hist.QuantileNanos(0.0), 0u);
  EXPECT_EQ(hist.QuantileNanos(1.0), 15u);
  EXPECT_EQ(hist.QuantileNanos(0.5), 7u);
}

TEST(LatencyHistogram, BoundedRelativeErrorAndMonotone) {
  LatencyHistogram hist;
  const std::vector<uint64_t> samples = {17,    90,    1000,   5000,
                                         30000, 99999, 123456, 10000000};
  for (uint64_t s : samples) hist.Record(s);
  // The quantile is the bucket's upper edge: never below the true
  // sample, at most 12.5% above (one sub-bucket of 8 per octave).
  EXPECT_GE(hist.QuantileNanos(1.0), samples.back());
  EXPECT_LE(hist.QuantileNanos(1.0),
            samples.back() + samples.back() / 8 + 1);
  uint64_t prev = 0;
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const uint64_t value = hist.QuantileNanos(q);
    EXPECT_GE(value, prev);
    prev = value;
  }
}

TEST(LatencyHistogram, NearestRankQuantilesOnDistinctBuckets) {
  // Exactly 100 samples, each alone in its own bucket: the
  // direct-indexed values 1..15, then sub-bucket-aligned values
  // 2^m + s * 2^(m-3) from the log-linear octaves (bucket index
  // (m, s), so every sample is distinct by construction).
  LatencyHistogram hist;
  std::vector<uint64_t> samples;
  for (uint64_t v = 1; v <= 15; ++v) samples.push_back(v);
  for (int m = 4; samples.size() < 100; ++m) {
    for (uint64_t s = 0; s < 8 && samples.size() < 100; ++s) {
      samples.push_back((uint64_t{1} << m) + (s << (m - 3)));
    }
  }
  for (uint64_t v : samples) hist.Record(v);
  ASSERT_EQ(hist.count(), 100u);
  // Nearest-rank quantile: q resolves to the ceil(100 q)-th smallest
  // sample, so percentile k must never come back below the k-th
  // smallest sample. The truncating rank did exactly that whenever
  // k / 100.0 rounded low — e.g. p29 truncated to rank 28 and
  // reported the 28th sample's bucket, below the 29th sample.
  // (Monotone but not strictly: rounding the other way can lift a
  // rank by one, merging two adjacent percentiles.)
  uint64_t prev = 0;
  for (int k = 1; k <= 100; ++k) {
    const uint64_t value = hist.QuantileNanos(k / 100.0);
    EXPECT_GE(value, prev);
    EXPECT_GE(value, samples[static_cast<size_t>(k) - 1]);
    prev = value;
  }
  // Every q in (0.99, 1.0] has rank 100 — the maximum's bucket; the
  // truncating rank sent p99.5 to rank 99 instead.
  EXPECT_EQ(hist.QuantileNanos(0.995), hist.QuantileNanos(1.0));
  EXPECT_GT(hist.QuantileNanos(0.995), hist.QuantileNanos(0.99));
}

TEST(LatencyHistogram, MergeAndReset) {
  LatencyHistogram a;
  LatencyHistogram b;
  a.Record(100);
  b.Record(1000000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_GE(a.QuantileNanos(1.0), 1000000u);
  a.Reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.QuantileNanos(0.5), 0u);
}

TEST(LatencyHistogram, NanQuantileReadsAsZero) {
  // NaN slipped past the [0, 1] clamps into a double -> uint64_t cast
  // (UB; UBSan's float-cast-overflow flags it) and came back as the
  // top bucket's edge instead of the bottom one's.
  LatencyHistogram hist;
  for (uint64_t v : {uint64_t{1}, uint64_t{1000}, uint64_t{1000000}}) {
    hist.Record(v);
  }
  // Read through a volatile so the compiler cannot constant-fold the
  // call (and with it whatever the UB cast happens to fold to).
  volatile double nan = std::nan("");
  EXPECT_EQ(hist.QuantileNanos(nan), hist.QuantileNanos(0.0));
  EXPECT_EQ(hist.QuantileNanos(-nan), hist.QuantileNanos(0.0));
  EXPECT_LT(hist.QuantileNanos(nan), hist.QuantileNanos(1.0));
}

TEST(Span, SliceClampsToBounds) {
  const std::vector<int> v = {1, 2, 3, 4, 5};
  const Span<int> all(v);
  EXPECT_EQ(all.size(), 5u);
  EXPECT_EQ(all.Slice(1, 2).size(), 2u);
  EXPECT_EQ(all.Slice(1, 2)[0], 2);
  EXPECT_EQ(all.Slice(3, 100).size(), 2u);   // count clamped
  EXPECT_EQ(all.Slice(100, 2).size(), 0u);   // offset clamped
  EXPECT_TRUE(all.Slice(5, 1).empty());
}

TEST(QueryServer, CreateValidatesOptions) {
  const auto table = UniformWideTable(200, /*seed=*/3);
  const auto estimator =
      MakeEstimatorOrDie(PublishedView::Generalized(ModKPublication(table, 2)));

  QueryServerOptions options;
  options.num_workers = 0;
  EXPECT_FALSE(QueryServer::Create(options).ok());

  options = QueryServerOptions();
  options.confidence = 0.5;
  EXPECT_FALSE(QueryServer::Create(options).ok());

  // The scheduler holds no estimator: every submission names one, and
  // both entry points reject a null one.
  auto server = QueryServer::Create(QueryServerOptions());
  ASSERT_OK(server);
  const std::vector<ServedRequest> one(1);
  auto submitted = (*server)->SubmitBatch(nullptr, one);
  ASSERT_FALSE(submitted.ok());
  EXPECT_TRUE(submitted.status().code() == StatusCode::kInvalidArgument);
  auto answered = (*server)->AnswerBatch(nullptr, one);
  ASSERT_FALSE(answered.ok());
  EXPECT_TRUE(answered.status().code() == StatusCode::kInvalidArgument);
  auto served = (*server)->AnswerBatch(estimator, one);
  ASSERT_OK(served);
  EXPECT_EQ(served->size(), 1u);
}

TEST(QueryServer, ExactPublicationYieldsContinuityWidthOnly) {
  // One row per EC: every box is a point, the estimate is exact, and
  // the model variance is 0 — the interval is exactly est ± 0.5.
  const auto table = UniformWideTable(300, /*seed=*/9);
  std::vector<std::vector<int64_t>> ec_rows;
  for (int64_t row = 0; row < table->num_rows(); ++row) {
    ec_rows.push_back({row});
  }
  auto published = GeneralizedTable::Create(table, std::move(ec_rows));
  ASSERT_OK(published);
  const auto estimator =
      MakeEstimatorOrDie(PublishedView::Generalized(*published));
  auto server = EpochServer::Create(0, estimator, QueryServerOptions());
  ASSERT_OK(server);

  WorkloadOptions options;
  options.num_queries = 50;
  options.lambda = 2;
  options.selectivity = 0.2;
  options.seed = 13;
  auto workload = GenerateWorkload(table->schema(), options);
  ASSERT_OK(workload);
  const std::vector<int64_t> truth = PreciseCounts(*table, *workload);

  const std::vector<ServedAnswer> answers =
      (*server)->AnswerBatch(CountRequests(*workload)).value();
  ASSERT_EQ(answers.size(), workload->size());
  for (size_t i = 0; i < answers.size(); ++i) {
    const double actual = static_cast<double>(truth[i]);
    EXPECT_NEAR(answers[i].estimate, actual, 1e-9);
    EXPECT_EQ(answers[i].ci_hi, answers[i].estimate + 0.5);
    const double expected_lo =
        answers[i].estimate > 0.5 ? answers[i].estimate - 0.5 : 0.0;
    EXPECT_EQ(answers[i].ci_lo, expected_lo);
    EXPECT_LE(answers[i].ci_lo, actual);
    EXPECT_GE(answers[i].ci_hi, actual);
  }
  // Worker 0 (the calling thread) recorded every query.
  EXPECT_EQ((*server)->query_server().MergedHistogram().count(),
            workload->size());
}

// Fraction of `answers` whose served interval contains the matching
// truth — the coverage loop of every calibration check.
template <typename T>
double CiCoverage(const std::vector<ServedAnswer>& answers,
                  const std::vector<T>& truth) {
  BETALIKE_CHECK(answers.size() == truth.size() && !answers.empty());
  int64_t covered = 0;
  for (size_t i = 0; i < answers.size(); ++i) {
    const double actual = static_cast<double>(truth[i]);
    if (actual >= answers[i].ci_lo && actual <= answers[i].ci_hi) ++covered;
  }
  return static_cast<double>(covered) / static_cast<double>(answers.size());
}

// Serves the COUNT workload `options` describes over `table`'s schema
// on a 2-worker one-epoch server and returns the coverage of its
// PreciseCounts ground truth (scanned on a pool, in query slices).
double ServedCountCoverage(const std::shared_ptr<const Estimator>& estimator,
                           const Table& table, const WorkloadOptions& options) {
  QueryServerOptions server_options;
  server_options.num_workers = 2;
  auto server = EpochServer::Create(0, estimator, server_options);
  BETALIKE_CHECK(server.ok()) << server.status().ToString();
  auto workload = GenerateWorkload(table.schema(), options);
  BETALIKE_CHECK(workload.ok()) << workload.status().ToString();
  const std::vector<ServedAnswer> answers =
      (*server)->AnswerBatch(CountRequests(*workload)).value();
  return CiCoverage(answers, bench::PreciseCountsOnPool(table, *workload));
}

TEST(QueryServer, CoverageNearNominalWhereModelHolds) {
  // Coarse boxes over uniform data: the binomial uniform-spread model
  // is the true law, so the nominal 95% intervals must cover the truth
  // at roughly that rate (deterministic given the fixed seeds).
  const auto table = UniformWideTable(20000, /*seed=*/21);
  WorkloadOptions options;
  options.num_queries = 400;
  options.lambda = 2;
  options.selectivity = 0.1;
  options.seed = 31;
  const double coverage = ServedCountCoverage(
      MakeEstimatorOrDie(PublishedView::Generalized(ModKPublication(table, 8))),
      *table, options);
  EXPECT_GE(coverage, 0.85);
  EXPECT_LE(coverage, 1.0);
}

TEST(QueryServer, CoverageNearNominalOnFig8Panel) {
  // The fig8 vary-λ panel served with intervals: a BUREL β=4 release
  // of 20K CENSUS rows, 2000 COUNT queries per λ at θ = 0.1. Every λ
  // must cover within [0.85, 1.0].
  const auto table = bench::MakeCensus(20000, /*qi_prefix=*/5);
  const auto estimator = BurelEstimator(table, 4.0);
  for (int lambda = 1; lambda <= 5; ++lambda) {
    WorkloadOptions options;
    options.num_queries = 2000;
    options.lambda = lambda;
    options.selectivity = 0.1;
    options.seed = static_cast<uint64_t>(100 + lambda);
    const double coverage = ServedCountCoverage(estimator, *table, options);
    EXPECT_GE(coverage, 0.85);
    EXPECT_LE(coverage, 1.0);
  }
}

TEST(QueryServer, MixedAggregateCoverageAboveSanityFloor) {
  // COUNT / SUM / AVG / GROUP-BY-SA slots of an SA-carrying workload on
  // the fig8 panel's release, scored against brute-force truth. This is
  // a sanity floor, not a calibration claim: SA predicates expose the
  // within-box QI/SA correlation the uniform-spread variance model
  // omits, so nominal 95% coverage is not reached here (ROADMAP item 3
  // owns fixing the model and then raising this floor to the 0.85
  // calibration gate). A sign error or a dropped variance term
  // collapses coverage far below 0.60.
  const auto table = bench::MakeCensus(20000, /*qi_prefix=*/5);
  const auto estimator = BurelEstimator(table, 4.0);
  WorkloadOptions options;
  options.num_queries = 500;
  options.lambda = 2;
  options.selectivity = 0.1;
  options.include_sa = true;
  options.seed = 53;
  auto workload = GenerateWorkload(table->schema(), options);
  ASSERT_OK(workload);
  const std::vector<int64_t> counts = PreciseCounts(*table, *workload);
  const std::vector<int64_t> sums = PreciseSums(*table, *workload);
  const std::vector<std::vector<int64_t>> groups =
      PreciseGroupCounts(*table, *workload);

  struct Panel {
    std::vector<ServedRequest> requests;
    std::vector<double> truth;
  };
  Panel count, sum, avg, group;
  for (size_t i = 0; i < workload->size(); ++i) {
    const AggregateQuery& query = (*workload)[i];
    const double n = static_cast<double>(counts[i]);
    const double total = static_cast<double>(sums[i]);
    count.requests.push_back({query, AggregateKind::kCount, 0});
    count.truth.push_back(n);
    sum.requests.push_back({query, AggregateKind::kSum, 0});
    sum.truth.push_back(total);
    avg.requests.push_back({query, AggregateKind::kAvg, 0});
    avg.truth.push_back(counts[i] > 0 ? total / n : 0.0);
    for (const ServedRequest& slot :
         ExpandGroupBy(query, estimator->sa_num_values())) {
      group.requests.push_back(slot);
      group.truth.push_back(static_cast<double>(groups[i][slot.group_value]));
    }
  }

  QueryServerOptions server_options;
  server_options.num_workers = 2;
  auto server = EpochServer::Create(0, estimator, server_options);
  ASSERT_OK(server);
  for (const Panel* panel : {&count, &sum, &avg, &group}) {
    const double coverage = CiCoverage(
        (*server)->AnswerBatch(panel->requests).value(), panel->truth);
    EXPECT_GE(coverage, 0.60);
    EXPECT_LE(coverage, 1.0);
  }
}

TEST(NormalCriticalValue, ToleratesUlpNoiseButNotNearMisses) {
  // A level built by arithmetic (1 - 0.05 != 0.95 exactly) must still
  // resolve — the old exact == rejected it.
  const double computed = 1.0 - 0.05;
  auto z = NormalCriticalValue(computed);
  ASSERT_OK(z);
  EXPECT_EQ(*z, 1.959963984540054);
  auto z_up = NormalCriticalValue(std::nextafter(0.95, 1.0));
  auto z_down = NormalCriticalValue(std::nextafter(0.95, 0.0));
  ASSERT_OK(z_up);
  ASSERT_OK(z_down);
  EXPECT_EQ(*z_up, 1.959963984540054);
  EXPECT_EQ(*z_down, 1.959963984540054);
  // Genuinely different levels stay rejected — the tolerance is ULP
  // noise, not rounding to the nearest supported level.
  EXPECT_FALSE(NormalCriticalValue(0.94).ok());
  EXPECT_FALSE(NormalCriticalValue(0.95 + 1e-6).ok());
  EXPECT_FALSE(NormalCriticalValue(0.951).ok());
}

TEST(LatencyHistogram, BucketEdgesMonotoneAndSaturated) {
  // Sweep every index — including the 16 at the top that only
  // QuantileNanos's fallthrough can reach. Before the saturation
  // clamp, indices >= 496 computed 1 << (64..65): undefined behavior
  // (UBSan flags it) and garbage edges.
  uint64_t prev = 0;
  for (int i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    const uint64_t edge = LatencyHistogram::BucketUpperEdge(i);
    EXPECT_GE(edge, prev);
    prev = edge;
  }
  EXPECT_EQ(LatencyHistogram::BucketUpperEdge(LatencyHistogram::kNumBuckets - 1),
            UINT64_MAX);

  // Every recordable value maps to a bucket whose edge is >= it.
  for (uint64_t v :
       {uint64_t{0}, uint64_t{17}, uint64_t{1} << 40, uint64_t{1} << 62,
        (uint64_t{1} << 63) + 12345, UINT64_MAX}) {
    const int index = LatencyHistogram::BucketIndex(v);
    ASSERT_TRUE(index >= 0 && index < LatencyHistogram::kNumBuckets);
    EXPECT_GE(LatencyHistogram::BucketUpperEdge(index), v);
  }

  // A histogram holding the extreme sample still answers quantiles.
  LatencyHistogram hist;
  hist.Record(UINT64_MAX);
  hist.Record(100);
  EXPECT_EQ(hist.QuantileNanos(1.0), UINT64_MAX);
  EXPECT_GE(hist.QuantileNanos(0.25), 100u);
}

TEST(QueryServer, ExpandGroupByCoversTheEffectiveRange) {
  AggregateQuery query;
  query.predicates.push_back({0, 10, 20});

  // No SA predicate: the full domain, one request per value.
  const auto full = ExpandGroupBy(query, 5);
  ASSERT_EQ(full.size(), 5u);
  for (int32_t v = 0; v < 5; ++v) {
    EXPECT_TRUE(full[v].kind == AggregateKind::kGroupCount);
    EXPECT_EQ(full[v].group_value, v);
    EXPECT_EQ(full[v].query.predicates.size(), query.predicates.size());
  }

  // An SA range clamps to the domain.
  query.sa_lo = 3;
  query.sa_hi = 9;
  const auto clamped = ExpandGroupBy(query, 5);
  ASSERT_EQ(clamped.size(), 2u);
  EXPECT_EQ(clamped[0].group_value, 3);
  EXPECT_EQ(clamped[1].group_value, 4);

  // An inverted range is "no SA predicate", not an empty expansion.
  query.sa_lo = 4;
  query.sa_hi = 1;
  EXPECT_EQ(ExpandGroupBy(query, 5).size(), 5u);

  // A fully out-of-domain range expands to nothing.
  query.sa_lo = 7;
  query.sa_hi = 9;
  EXPECT_TRUE(ExpandGroupBy(query, 5).empty());
}

// Builds a mixed-aggregate request batch over `workload`: each query
// contributes its COUNT, SUM, and AVG forms plus its full GROUP-BY
// expansion.
std::vector<ServedRequest> MixedRequests(
    const std::vector<AggregateQuery>& workload, int32_t sa_num_values) {
  std::vector<ServedRequest> requests;
  for (const AggregateQuery& query : workload) {
    requests.push_back({query, AggregateKind::kCount, 0});
    requests.push_back({query, AggregateKind::kSum, 0});
    requests.push_back({query, AggregateKind::kAvg, 0});
    for (ServedRequest& r : ExpandGroupBy(query, sa_num_values)) {
      requests.push_back(std::move(r));
    }
  }
  return requests;
}

TEST(QueryServer, MixedBatchMatchesEstimatorMethods) {
  // Every served aggregate is bitwise the estimator's own method, on
  // all three publication shapes of one table (fig9's columns, whose
  // golden tables are served COUNT answers) and at 1 worker and
  // AvailableConcurrency() workers.
  const auto table = UniformWideTable(3000, /*seed=*/33);
  const GeneralizedTable published = ModKPublication(table, 9);
  PerturbOptions perturb_options;
  perturb_options.retention = 0.8;
  perturb_options.seed = 35;
  auto perturbed = PerturbSaWithinEcs(published, perturb_options);
  ASSERT_OK(perturbed);
  const std::shared_ptr<const Estimator> estimators[] = {
      MakeEstimatorOrDie(PublishedView::Generalized(published)),
      MakeEstimatorOrDie(
          PublishedView::Anatomized(AnatomizedTable::FromGrouping(published))),
      MakeEstimatorOrDie(PublishedView::Perturbed(*perturbed))};

  WorkloadOptions options;
  options.num_queries = 30;
  options.lambda = 2;
  options.include_sa = true;
  options.seed = 37;
  auto workload = GenerateWorkload(table->schema(), options);
  ASSERT_OK(workload);
  const std::vector<ServedRequest> requests =
      MixedRequests(*workload, table->sa_spec().num_values);

  for (int workers : {1, AvailableConcurrency()}) {
    QueryServerOptions server_options;
    server_options.num_workers = workers;
    auto server = QueryServer::Create(server_options);
    ASSERT_OK(server);
    const double z = *NormalCriticalValue((*server)->confidence());
    for (const std::shared_ptr<const Estimator>& estimator : estimators) {
      const std::vector<ServedAnswer> answers =
          (*server)->AnswerBatch(estimator, requests).value();
      ASSERT_EQ(answers.size(), requests.size());

      for (size_t i = 0; i < requests.size(); ++i) {
        const ServedRequest& request = requests[i];
        EstimateWithVariance expected;
        bool integer_valued = true;
        switch (request.kind) {
          case AggregateKind::kCount:
            expected = estimator->EstimateWithUncertainty(request.query);
            EXPECT_EQ(answers[i].estimate, estimator->Estimate(request.query));
            break;
          case AggregateKind::kSum:
            expected = estimator->EstimateSumWithUncertainty(request.query);
            break;
          case AggregateKind::kAvg:
            expected = estimator->EstimateAvgWithUncertainty(request.query);
            integer_valued = false;
            break;
          case AggregateKind::kGroupCount:
            expected = estimator->EstimateGroupByWithUncertainty(
                request.query)[request.group_value];
            break;
        }
        EXPECT_EQ(answers[i].estimate, expected.estimate);
        const double sd = DeterministicSqrt(
            expected.variance > 0.0 ? expected.variance : 0.0);
        const double half = integer_valued ? z * sd + 0.5 : z * sd;
        const double lo = expected.estimate - half;
        EXPECT_EQ(answers[i].ci_lo, lo > 0.0 ? lo : 0.0);
        EXPECT_EQ(answers[i].ci_hi, expected.estimate + half);
      }
    }
  }
}

TEST(QueryServer, AnatomizedWidthsShareWorkerScratch) {
  // One server alternates batches between a uint16 Anatomy estimator
  // (l=4, ~500 groups) and an int64 one (mod 6, 6 groups), at 1 worker
  // and at AvailableConcurrency() workers, so every worker's per-thread
  // scratch of either width is reused after the other width and after
  // another group count. Every served answer is the row oracle's.
  const auto table = bench::MakeCensus(2000, /*qi_prefix=*/5);
  AnatomyOptions anatomy;
  anatomy.l = 4;
  auto anatomy_groups = AnonymizeWithAnatomy(table, anatomy);
  ASSERT_OK(anatomy_groups);
  const AnatomizedTable views[] = {
      AnatomizedTable::FromGrouping(*anatomy_groups),
      AnatomizedTable::FromGrouping(ModKPublication(table, 6))};
  ASSERT_EQ(AnatomizedMomentBytes(views[0]), 2);
  ASSERT_EQ(AnatomizedMomentBytes(views[1]), 8);
  const std::shared_ptr<const Estimator> estimators[] = {
      MakeEstimatorOrDie(PublishedView::Anatomized(views[0])),
      MakeEstimatorOrDie(PublishedView::Anatomized(views[1]))};

  WorkloadOptions options;
  options.num_queries = 12;
  options.lambda = 2;
  options.include_sa = true;
  options.seed = 41;
  auto workload = GenerateWorkload(table->schema(), options);
  ASSERT_OK(workload);
  const std::vector<ServedRequest> requests =
      MixedRequests(*workload, table->sa_spec().num_values);

  for (int workers : {1, AvailableConcurrency()}) {
    QueryServerOptions server_options;
    server_options.num_workers = workers;
    auto server = QueryServer::Create(server_options);
    ASSERT_OK(server);
    const double z = *NormalCriticalValue((*server)->confidence());
    for (int round = 0; round < 4; ++round) {
      const int i = round % 2;
      const std::vector<ServedAnswer> answers =
          (*server)->AnswerBatch(estimators[i], requests).value();
      ASSERT_EQ(answers.size(), requests.size());
      for (size_t r = 0; r < requests.size(); ++r) {
        const ServedRequest& request = requests[r];
        EstimateWithVariance expected;
        bool integer_valued = true;
        switch (request.kind) {
          case AggregateKind::kCount:
            expected = oracle::AnatomizedCount(views[i], request.query);
            break;
          case AggregateKind::kSum:
            expected = oracle::AnatomizedSum(views[i], request.query);
            break;
          case AggregateKind::kAvg:
            expected = oracle::AnatomizedAvg(views[i], request.query);
            integer_valued = false;
            break;
          case AggregateKind::kGroupCount: {
            AggregateQuery point = request.query;
            point.sa_lo = request.group_value;
            point.sa_hi = request.group_value;
            expected = oracle::AnatomizedCount(views[i], point);
            break;
          }
        }
        EXPECT_TRUE(answers[r].status == AnswerStatus::kOk);
        EXPECT_EQ(answers[r].estimate, expected.estimate);
        const double sd = DeterministicSqrt(
            expected.variance > 0.0 ? expected.variance : 0.0);
        const double half = integer_valued ? z * sd + 0.5 : z * sd;
        const double lo = expected.estimate - half;
        EXPECT_EQ(answers[r].ci_lo, lo > 0.0 ? lo : 0.0);
        EXPECT_EQ(answers[r].ci_hi, expected.estimate + half);
      }
    }
  }
}

TEST(QueryServer, MalformedRequestsAnsweredInvalidOnEveryShape) {
  // A predicate on a dimension outside the schema used to be read out
  // of bounds on every shape: the box index's grid cell (generalized,
  // perturbed) and the QI column (Anatomy). The serving boundary now
  // validates each request: a malformed one comes back kInvalidQuery
  // with zero fields, and every other answer of its batch is bitwise
  // the answer it gets in a clean batch — through AnswerBatch and
  // SubmitBatch alike, on a pool whose workers split the batch.
  const auto table = UniformWideTable(3000, /*seed=*/81);
  const GeneralizedTable published = ModKPublication(table, 6);
  PerturbOptions perturb_options;
  perturb_options.retention = 0.8;
  perturb_options.seed = 83;
  auto perturbed = PerturbSaWithinEcs(published, perturb_options);
  ASSERT_OK(perturbed);
  std::vector<std::shared_ptr<const Estimator>> estimators;
  estimators.push_back(
      MakeEstimatorOrDie(PublishedView::Generalized(published)));
  estimators.push_back(MakeEstimatorOrDie(
      PublishedView::Anatomized(AnatomizedTable::FromGrouping(published))));
  estimators.push_back(
      MakeEstimatorOrDie(PublishedView::Perturbed(*perturbed)));

  WorkloadOptions options;
  options.num_queries = 40;
  options.lambda = 2;
  options.include_sa = true;
  options.seed = 89;
  auto workload = GenerateWorkload(table->schema(), options);
  ASSERT_OK(workload);
  const std::vector<ServedRequest> clean =
      MixedRequests(*workload, table->sa_spec().num_values);

  std::vector<AggregateQuery> malformed(3, (*workload)[0]);
  malformed[0].predicates.push_back({-1, 0, 500});
  malformed[1].predicates.push_back({table->num_qi(), 0, 500});
  malformed[2].predicates.push_back(malformed[2].predicates[0]);
  const AggregateKind kinds[] = {AggregateKind::kCount, AggregateKind::kSum,
                                 AggregateKind::kAvg,
                                 AggregateKind::kGroupCount};
  // Every fifth request of the mixed batch is malformed; `source[j]` is
  // the clean index of request j, or -1 for a malformed one.
  std::vector<ServedRequest> mixed;
  std::vector<int64_t> source;
  for (size_t i = 0; i < clean.size(); ++i) {
    if (i % 4 == 0) {
      const size_t b = mixed.size();
      mixed.push_back({malformed[b % 3], kinds[b % 4], 1});
      source.push_back(-1);
    }
    mixed.push_back(clean[i]);
    source.push_back(static_cast<int64_t>(i));
  }
  ASSERT_TRUE(mixed.size() > 2 * QueryServer::kChunkSize);

  ServedAnswer invalid;
  invalid.status = AnswerStatus::kInvalidQuery;
  QueryServerOptions pool;
  pool.num_workers = 2;
  for (const auto& estimator : estimators) {
    auto reference_server =
        EpochServer::Create(0, estimator, QueryServerOptions());
    ASSERT_OK(reference_server);
    const std::vector<ServedAnswer> reference =
        (*reference_server)->AnswerBatch(clean).value();

    auto server = EpochServer::Create(0, estimator, pool);
    ASSERT_OK(server);
    auto submitted = (*server)->SubmitBatch(mixed);
    ASSERT_OK(submitted);
    for (const std::vector<ServedAnswer>& got :
         {(*server)->AnswerBatch(mixed).value(), submitted->get()}) {
      ASSERT_EQ(got.size(), mixed.size());
      for (size_t j = 0; j < got.size(); ++j) {
        const ServedAnswer& want =
            source[j] < 0 ? invalid : reference[source[j]];
        EXPECT_TRUE(std::memcmp(&got[j], &want, sizeof(ServedAnswer)) == 0);
      }
    }
  }
}

TEST(QueryServer, SubmitBatchMatchesSynchronousAnswersBitwise) {
  // Two publications: mod-k boxes over uniform data, and a BUREL β=4
  // release of 20K CENSUS rows.
  const auto uniform = UniformWideTable(4000, /*seed=*/43);
  const auto census = bench::MakeCensus(20000, /*qi_prefix=*/5);
  const std::vector<std::pair<std::shared_ptr<const Table>,
                              std::shared_ptr<const Estimator>>>
      publications = {
          {uniform, MakeEstimatorOrDie(PublishedView::Generalized(
                        ModKPublication(uniform, 7)))},
          {census, BurelEstimator(census, 4.0)}};

  // memcmp is the determinism gate proper: ServedAnswer is
  // padding-free by static_assert, so any byte difference is a real
  // field difference. The per-field comparison stays for diagnostics.
  const auto expect_same = [](const std::vector<ServedAnswer>& got,
                              const std::vector<ServedAnswer>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].estimate, want[i].estimate);
      EXPECT_EQ(got[i].ci_lo, want[i].ci_lo);
      EXPECT_EQ(got[i].ci_hi, want[i].ci_hi);
      EXPECT_TRUE(got[i].status == want[i].status);
    }
    EXPECT_TRUE(got.empty() ||
                std::memcmp(got.data(), want.data(),
                            got.size() * sizeof(ServedAnswer)) == 0);
  };

  for (const auto& [table, estimator] : publications) {
    WorkloadOptions options;
    options.num_queries = 200;
    options.lambda = 2;
    options.include_sa = true;
    options.seed = 47;
    auto workload = GenerateWorkload(table->schema(), options);
    ASSERT_OK(workload);
    const std::vector<ServedRequest> requests =
        MixedRequests(*workload, estimator->sa_num_values());

    ASSERT_TRUE(workload->size() > 2 * QueryServer::kChunkSize);

    // Reference answers from a single-worker server's AnswerBatch.
    std::vector<ServedAnswer> count_reference;
    std::vector<ServedAnswer> mixed_reference;
    {
      auto server = EpochServer::Create(0, estimator, QueryServerOptions());
      ASSERT_OK(server);
      count_reference =
          (*server)->AnswerBatch(CountRequests(*workload)).value();
      mixed_reference = (*server)->AnswerBatch(requests).value();
    }

    for (int workers : {1, 2, 8}) {
      QueryServerOptions server_options;
      server_options.num_workers = workers;
      // Admission control and fair scheduling enabled: neither may move
      // a single answer bit.
      server_options.max_queued_requests = 1 << 20;
      server_options.admission_policy = AdmissionPolicy::kReject;
      auto server = EpochServer::Create(0, estimator, server_options);
      ASSERT_OK(server);

      // Several async batches queued back to back, interleaved shapes
      // and distinct clients.
      SubmitOptions other_client;
      other_client.client_id = 7;
      auto count_future = (*server)->SubmitBatch(CountRequests(*workload));
      auto mixed_future = (*server)->SubmitBatch(
          requests, EpochServer::kLatestEpoch, other_client);
      auto count_again = (*server)->SubmitBatch(CountRequests(*workload));
      ASSERT_OK(count_future);
      ASSERT_OK(mixed_future);
      ASSERT_OK(count_again);
      expect_same(count_future->get(), count_reference);
      expect_same(mixed_future->get(), mixed_reference);
      expect_same(count_again->get(), count_reference);

      // AnswerBatch agrees too.
      expect_same((*server)->AnswerBatch(CountRequests(*workload)).value(),
                  count_reference);
      expect_same((*server)->AnswerBatch(requests).value(), mixed_reference);

      // Batch latency attribution: one sample per completed non-empty
      // batch (3 SubmitBatch + 2 AnswerBatch) — and every individual
      // query landed in exactly one worker histogram.
      const QueryServer& pool = (*server)->query_server();
      EXPECT_EQ(pool.BatchHistogram().count(), 5u);
      EXPECT_EQ(pool.MergedHistogram().count(),
                3 * workload->size() + 2 * requests.size());
    }
  }
}

TEST(QueryServer, EmptySubmitBatchYieldsReadyEmptyFuture) {
  const auto table = UniformWideTable(100, /*seed=*/51);
  const auto estimator = MakeEstimatorOrDie(
      PublishedView::Generalized(ModKPublication(table, 2)));
  QueryServerOptions options;
  options.num_workers = 2;
  auto server = EpochServer::Create(0, estimator, options);
  ASSERT_OK(server);
  auto future = (*server)->SubmitBatch(std::vector<ServedRequest>());
  ASSERT_OK(future);
  ASSERT_TRUE(future->wait_for(std::chrono::seconds(0)) ==
              std::future_status::ready);
  EXPECT_TRUE(future->get().empty());
  // Empty AnswerBatch batches answer immediately as well.
  EXPECT_TRUE(
      (*server)->AnswerBatch(std::vector<ServedRequest>()).value().empty());
  EXPECT_EQ((*server)->query_server().BatchHistogram().count(), 0u);
}

TEST(QueryServer, ConcurrentClientsGetConsistentAnswers) {
  const auto table = UniformWideTable(2000, /*seed=*/57);
  const auto estimator = MakeEstimatorOrDie(
      PublishedView::Generalized(ModKPublication(table, 5)));
  QueryServerOptions server_options;
  server_options.num_workers = 4;
  auto server = EpochServer::Create(0, estimator, server_options);
  ASSERT_OK(server);

  constexpr int kClients = 6;
  constexpr int kBatchesPerClient = 4;
  std::vector<std::vector<ServedRequest>> workloads;
  std::vector<std::vector<ServedAnswer>> references;
  for (int c = 0; c < kClients; ++c) {
    WorkloadOptions options;
    options.num_queries = 150;  // three chunks per batch
    options.lambda = 2;
    options.include_sa = (c % 2 == 1);
    options.seed = 200 + static_cast<uint64_t>(c);
    auto workload = GenerateWorkload(table->schema(), options);
    BETALIKE_CHECK(workload.ok());
    workloads.push_back(CountRequests(*workload));
  }
  {
    // Single-worker reference server for the expected answers.
    auto reference_server =
        EpochServer::Create(0, estimator, QueryServerOptions());
    BETALIKE_CHECK(reference_server.ok());
    for (const auto& workload : workloads) {
      references.push_back(
          (*reference_server)->AnswerBatch(workload).value());
    }
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      SubmitOptions submit;
      submit.client_id = static_cast<uint64_t>(c);
      for (int b = 0; b < kBatchesPerClient; ++b) {
        auto future = (*server)->SubmitBatch(
            workloads[c], EpochServer::kLatestEpoch, submit);
        if (!future.ok()) {
          mismatches.fetch_add(1);
          continue;
        }
        const std::vector<ServedAnswer> answers = future->get();
        if (answers.size() != references[c].size()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (size_t i = 0; i < answers.size(); ++i) {
          if (answers[i].estimate != references[c][i].estimate ||
              answers[i].ci_lo != references[c][i].ci_lo ||
              answers[i].ci_hi != references[c][i].ci_hi) {
            mismatches.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ((*server)->query_server().BatchHistogram().count(),
            static_cast<uint64_t>(kClients * kBatchesPerClient));
}

TEST(QueryServer, ConcurrentAnswerBatchCallersMatchSingleWorkerReference) {
  // Six threads call AnswerBatch at once on a 3-worker server: each
  // caller submits its own owned job, drains it beside the pool (and
  // beside the other callers, all sharing worker 0's histogram), and
  // gets back exactly the single-worker answers. The synchronous path
  // used to CHECK-fail on a second concurrent caller.
  const auto table = UniformWideTable(2000, /*seed=*/59);
  const auto estimator = MakeEstimatorOrDie(
      PublishedView::Generalized(ModKPublication(table, 5)));
  constexpr int kCallers = 6;
  constexpr int kBatchesPerCaller = 4;
  std::vector<std::vector<ServedRequest>> workloads;
  std::vector<std::vector<ServedAnswer>> references;
  {
    auto reference_server =
        EpochServer::Create(0, estimator, QueryServerOptions());
    ASSERT_OK(reference_server);
    for (int c = 0; c < kCallers; ++c) {
      WorkloadOptions options;
      options.num_queries = 150;  // three chunks per batch
      options.lambda = 2;
      options.include_sa = (c % 2 == 0);
      options.seed = 300 + static_cast<uint64_t>(c);
      auto workload = GenerateWorkload(table->schema(), options);
      ASSERT_OK(workload);
      workloads.push_back(CountRequests(*workload));
      references.push_back(
          (*reference_server)->AnswerBatch(workloads.back()).value());
    }
  }

  QueryServerOptions options;
  options.num_workers = 3;
  auto server = EpochServer::Create(0, estimator, options);
  ASSERT_OK(server);
  std::atomic<int> ready{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      ready.fetch_add(1);
      while (ready.load() < kCallers) std::this_thread::yield();
      for (int b = 0; b < kBatchesPerCaller; ++b) {
        auto answers = (*server)->AnswerBatch(workloads[c]);
        if (!answers.ok() || answers->size() != references[c].size() ||
            std::memcmp(answers->data(), references[c].data(),
                        answers->size() * sizeof(ServedAnswer)) != 0) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  const QueryServer& pool = (*server)->query_server();
  EXPECT_EQ(pool.BatchHistogram().count(),
            static_cast<uint64_t>(kCallers * kBatchesPerCaller));
  EXPECT_EQ(pool.MergedHistogram().count(),
            static_cast<uint64_t>(kBatchesPerCaller) * kCallers * 150);
  EXPECT_EQ(pool.queued_requests(), 0u);
}

// An estimator whose evaluations block until Release(): lets the
// admission and deadline tests pin the pool deterministically, then
// drain it.
class BlockingEstimator final : public Estimator {
 public:
  std::string Name() const override { return "blocking"; }
  EstimateWithVariance EstimateWithUncertainty(
      const AggregateQuery&) const override {
    entered.store(true);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return released; });
    return {};
  }
  int32_t sa_num_values() const override { return 1; }
  EstimateWithVariance EstimateSumWithUncertainty(
      const AggregateQuery&) const override {
    return {};
  }

  // Unblocks every pinned and future evaluation.
  void Release() const {
    {
      std::lock_guard<std::mutex> lock(mu);
      released = true;
    }
    cv.notify_all();
  }

  mutable std::atomic<bool> entered{false};
  mutable std::mutex mu;
  mutable std::condition_variable cv;
  mutable bool released = false;
};

TEST(QueryServer, SubmitBatchLegalWhileSynchronousBatchInFlight) {
  // An async submission during an AnswerBatch call is just another
  // owned job: it queues beside the synchronous one.
  const auto table = UniformWideTable(500, /*seed=*/61);
  const auto estimator = MakeEstimatorOrDie(
      PublishedView::Generalized(ModKPublication(table, 3)));
  QueryServerOptions options;
  options.num_workers = 3;
  auto server = EpochServer::Create(0, estimator, options);
  ASSERT_OK(server);

  WorkloadOptions workload_options;
  workload_options.num_queries = 120;
  workload_options.seed = 67;
  auto workload = GenerateWorkload(table->schema(), workload_options);
  ASSERT_OK(workload);

  std::future<std::vector<ServedAnswer>> async_future;
  std::thread submitter([&] {
    auto submitted = (*server)->SubmitBatch(CountRequests(*workload));
    BETALIKE_CHECK(submitted.ok()) << submitted.status().ToString();
    async_future = std::move(*submitted);
  });
  const std::vector<ServedAnswer> sync_answers =
      (*server)->AnswerBatch(CountRequests(*workload)).value();
  submitter.join();
  const std::vector<ServedAnswer> async_answers = async_future.get();
  ASSERT_EQ(async_answers.size(), sync_answers.size());
  for (size_t i = 0; i < async_answers.size(); ++i) {
    EXPECT_EQ(async_answers[i].estimate, sync_answers[i].estimate);
    EXPECT_EQ(async_answers[i].ci_lo, sync_answers[i].ci_lo);
    EXPECT_EQ(async_answers[i].ci_hi, sync_answers[i].ci_hi);
  }
}

TEST(QueryServer, DestructorDrainsQueuedJobs) {
  const auto table = UniformWideTable(1500, /*seed=*/71);
  const auto estimator = MakeEstimatorOrDie(
      PublishedView::Generalized(ModKPublication(table, 4)));
  WorkloadOptions workload_options;
  workload_options.num_queries = 80;
  workload_options.seed = 73;
  auto workload = GenerateWorkload(table->schema(), workload_options);
  ASSERT_OK(workload);

  std::vector<std::future<std::vector<ServedAnswer>>> futures;
  {
    QueryServerOptions options;
    options.num_workers = 2;
    auto server = EpochServer::Create(0, estimator, options);
    ASSERT_OK(server);
    for (int b = 0; b < 8; ++b) {
      auto submitted = (*server)->SubmitBatch(CountRequests(*workload));
      ASSERT_OK(submitted);
      futures.push_back(std::move(*submitted));
    }
    // Server destroyed here with jobs likely still queued.
  }
  for (auto& future : futures) {
    const std::vector<ServedAnswer> answers = future.get();
    ASSERT_EQ(answers.size(), workload->size());
    for (size_t i = 0; i < answers.size(); ++i) {
      EXPECT_EQ(answers[i].estimate, estimator->Estimate((*workload)[i]));
    }
  }
}

TEST(QueryServer, ExpandGroupByRejectsNegativeDomain) {
  // A malformed schema (negative SA domain) expands to nothing — it
  // used to yield requests against a negative domain.
  AggregateQuery query;
  EXPECT_TRUE(ExpandGroupBy(query, -1).empty());
  EXPECT_TRUE(ExpandGroupBy(query, -100).empty());
  EXPECT_TRUE(ExpandGroupBy(query, 0).empty());
  query.sa_lo = 0;
  query.sa_hi = 0;
  EXPECT_TRUE(ExpandGroupBy(query, -1).empty());
  EXPECT_TRUE(ExpandGroupBy(query, 0).empty());
}

TEST(QueryServer, OutOfDomainGroupValueIsExactZeroSlot) {
  // A kGroupCount request whose group_value lies outside the
  // publication's SA domain (or the query's SA range) is the exact
  // zero slot of EstimateGroupByWithUncertainty — it used to build a
  // "valid" width-1 point query out of the out-of-domain value. Checked
  // on all three publication shapes.
  const auto table = UniformWideTable(2000, /*seed=*/77);
  const GeneralizedTable published = ModKPublication(table, 6);
  PerturbOptions perturb_options;
  perturb_options.retention = 0.8;
  perturb_options.seed = 79;
  auto perturbed = PerturbSaWithinEcs(published, perturb_options);
  ASSERT_OK(perturbed);

  std::vector<std::shared_ptr<const Estimator>> estimators;
  estimators.push_back(
      MakeEstimatorOrDie(PublishedView::Generalized(published)));
  estimators.push_back(MakeEstimatorOrDie(
      PublishedView::Anatomized(AnatomizedTable::FromGrouping(published))));
  estimators.push_back(
      MakeEstimatorOrDie(PublishedView::Perturbed(*perturbed)));

  AggregateQuery query;
  query.predicates.push_back({0, 0, 800});
  AggregateQuery sa_query = query;
  sa_query.sa_lo = 1;
  sa_query.sa_hi = 2;

  for (const auto& estimator : estimators) {
    auto server = EpochServer::Create(0, estimator, QueryServerOptions());
    ASSERT_OK(server);
    const int32_t domain = estimator->sa_num_values();
    ASSERT_TRUE(domain > 3);
    std::vector<ServedRequest> requests;
    for (int32_t v : {-1, -5, domain, domain + 3}) {
      requests.push_back({query, AggregateKind::kGroupCount, v});
    }
    // In the domain but outside the query's SA range: also exact zero.
    requests.push_back({sa_query, AggregateKind::kGroupCount, 3});
    // An in-domain, in-range slot for contrast: served, not zeroed.
    requests.push_back({query, AggregateKind::kGroupCount, 0});
    const std::vector<ServedAnswer> answers =
        (*server)->AnswerBatch(requests).value();
    ASSERT_EQ(answers.size(), requests.size());
    for (size_t i = 0; i + 1 < answers.size(); ++i) {
      // The empty-slot bits: estimate 0, interval [0, 0.5] (pure
      // continuity correction), served normally (status kOk).
      EXPECT_EQ(answers[i].estimate, 0.0);
      EXPECT_EQ(answers[i].ci_lo, 0.0);
      EXPECT_EQ(answers[i].ci_hi, 0.5);
      EXPECT_TRUE(answers[i].status == AnswerStatus::kOk);
    }
    const EstimateWithVariance in_domain =
        estimator->EstimateGroupByWithUncertainty(query)[0];
    EXPECT_EQ(answers.back().estimate, in_domain.estimate);
  }
}

TEST(QueryServer, HistogramObserversSafeUnderConcurrentServing) {
  // 4 clients hammer SubmitBatch while an observer thread polls (and
  // occasionally resets) every histogram accessor. Before the
  // per-worker guards this was a genuine data race — TSan flags the
  // pre-fix code when the guards are removed.
  const auto table = UniformWideTable(1000, /*seed=*/83);
  const auto estimator = MakeEstimatorOrDie(
      PublishedView::Generalized(ModKPublication(table, 4)));
  QueryServerOptions options;
  options.num_workers = 3;
  auto server = EpochServer::Create(0, estimator, options);
  ASSERT_OK(server);
  QueryServer& pool = (*server)->query_server();

  WorkloadOptions workload_options;
  workload_options.num_queries = 150;  // three chunks per batch
  workload_options.seed = 87;
  auto workload = GenerateWorkload(table->schema(), workload_options);
  ASSERT_OK(workload);

  constexpr int kClients = 4;
  constexpr int kBatchesPerClient = 6;
  std::atomic<bool> done{false};
  std::thread observer([&] {
    uint64_t spin = 0;
    uint64_t sink = 0;
    while (!done.load()) {
      sink += pool.MergedHistogram().count();
      sink += pool.BatchHistogram().QuantileNanos(0.5);
      if (++spin % 16 == 0) pool.ResetHistograms();
      std::this_thread::yield();
    }
    // The reads themselves are the test — the race is TSan's to
    // catch; keep the accumulated reads observable.
    (void)sink;
  });
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      SubmitOptions submit;
      submit.client_id = static_cast<uint64_t>(c + 1);
      for (int b = 0; b < kBatchesPerClient; ++b) {
        auto future = (*server)->SubmitBatch(
            CountRequests(*workload), EpochServer::kLatestEpoch, submit);
        BETALIKE_CHECK(future.ok()) << future.status().ToString();
        future->wait();
      }
    });
  }
  for (std::thread& t : clients) t.join();
  done.store(true);
  observer.join();
  // Quiesced: a reset-then-serve round counts exactly once per query.
  pool.ResetHistograms();
  EXPECT_EQ(pool.MergedHistogram().count(), 0u);
  ASSERT_OK((*server)->AnswerBatch(CountRequests(*workload)));
  EXPECT_EQ(pool.MergedHistogram().count(), workload->size());
}

TEST(QueryServer, DestructorRacingLiveClientsStillDrains) {
  // Shared ownership: each client drops its server reference right
  // after its last submission, so ~EpochServer runs in whichever
  // thread releases last — while the pool is mid-serving and every
  // future is still outstanding. The drain contract says all of them
  // complete with real answers.
  const auto table = UniformWideTable(1200, /*seed=*/93);
  const auto estimator = MakeEstimatorOrDie(
      PublishedView::Generalized(ModKPublication(table, 3)));
  WorkloadOptions workload_options;
  workload_options.num_queries = 150;  // three chunks per batch
  workload_options.seed = 95;
  auto workload = GenerateWorkload(table->schema(), workload_options);
  ASSERT_OK(workload);
  std::vector<ServedAnswer> reference;
  {
    auto reference_server =
        EpochServer::Create(0, estimator, QueryServerOptions());
    ASSERT_OK(reference_server);
    reference =
        (*reference_server)->AnswerBatch(CountRequests(*workload)).value();
  }

  constexpr int kClients = 4;
  constexpr int kBatchesPerClient = 5;
  QueryServerOptions options;
  options.num_workers = 2;
  auto created = EpochServer::Create(0, estimator, options);
  ASSERT_OK(created);
  std::shared_ptr<EpochServer> server = std::move(*created);
  std::mutex futures_mu;
  std::vector<std::future<std::vector<ServedAnswer>>> futures;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&futures_mu, &futures, &workload, server, c] {
      SubmitOptions submit;
      submit.client_id = static_cast<uint64_t>(c);
      for (int b = 0; b < kBatchesPerClient; ++b) {
        auto submitted = server->SubmitBatch(
            CountRequests(*workload), EpochServer::kLatestEpoch, submit);
        BETALIKE_CHECK(submitted.ok()) << submitted.status().ToString();
        std::lock_guard<std::mutex> lock(futures_mu);
        futures.push_back(std::move(*submitted));
      }
    });
  }
  server.reset();  // the clients hold the only remaining references
  for (std::thread& t : clients) t.join();
  ASSERT_EQ(futures.size(),
            static_cast<size_t>(kClients * kBatchesPerClient));
  for (auto& future : futures) {
    const std::vector<ServedAnswer> answers = future.get();
    ASSERT_EQ(answers.size(), reference.size());
    for (size_t i = 0; i < answers.size(); ++i) {
      EXPECT_EQ(answers[i].estimate, reference[i].estimate);
    }
  }
}

TEST(QueryServer, RejectPolicyShedsOverflowWithoutQueueGrowth) {
  // The cap is two chunks, so the admitted batch is split across both
  // pool workers.
  constexpr size_t kCap = 2 * QueryServer::kChunkSize;
  auto estimator = std::make_shared<BlockingEstimator>();
  QueryServerOptions options;
  options.num_workers = 3;
  options.max_queued_requests = kCap;
  options.admission_policy = AdmissionPolicy::kReject;
  auto server = EpochServer::Create(0, estimator, options);
  ASSERT_OK(server);
  const QueryServer& pool = (*server)->query_server();

  const std::vector<ServedRequest> full(kCap);
  const std::vector<ServedRequest> one(1);
  auto admitted = (*server)->SubmitBatch(full);
  ASSERT_OK(admitted);
  // Pin the pool inside the estimator so the queue is demonstrably
  // held at the cap.
  while (!estimator->entered.load()) std::this_thread::yield();
  EXPECT_EQ(pool.queued_requests(), kCap);

  // No headroom: the overflow submission is shed, not queued. The
  // error contract is "status instead of future" — never a future
  // that throws.
  auto shed = (*server)->SubmitBatch(one);
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().code() == StatusCode::kResourceExhausted);
  EXPECT_EQ(pool.queued_requests(), kCap);

  estimator->Release();
  EXPECT_EQ(admitted->get().size(), kCap);
  EXPECT_EQ(pool.queued_requests(), 0u);

  // A batch larger than the cap is always shed under kReject, even
  // with an empty queue; with room, admission resumes.
  const std::vector<ServedRequest> oversized(kCap + 2);
  auto rejected = (*server)->SubmitBatch(oversized);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().code() == StatusCode::kResourceExhausted);
  auto after = (*server)->SubmitBatch(one);
  ASSERT_OK(after);
  EXPECT_EQ(after->get().size(), 1u);
}

TEST(QueryServer, BlockPolicyWaitsForRoomAndAdmitsOversizedAlone) {
  constexpr size_t kCap = 2 * QueryServer::kChunkSize;
  auto estimator = std::make_shared<BlockingEstimator>();
  QueryServerOptions options;
  options.num_workers = 2;
  options.max_queued_requests = kCap;
  options.admission_policy = AdmissionPolicy::kBlock;
  auto server = EpochServer::Create(0, estimator, options);
  ASSERT_OK(server);

  const std::vector<ServedRequest> full(kCap);
  auto first = (*server)->SubmitBatch(full);
  ASSERT_OK(first);
  while (!estimator->entered.load()) std::this_thread::yield();

  // The second submission blocks (no room) and admits only once the
  // first batch completes.
  std::atomic<bool> second_submitted{false};
  std::future<std::vector<ServedAnswer>> second;
  std::thread submitter([&] {
    auto submitted = (*server)->SubmitBatch(full);
    BETALIKE_CHECK(submitted.ok()) << submitted.status().ToString();
    second = std::move(*submitted);
    second_submitted.store(true);
  });
  // Not a timing assertion — a sanity window: with the queue pinned
  // full, the submitter cannot have been admitted.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(second_submitted.load());
  estimator->Release();
  submitter.join();
  EXPECT_EQ(first->get().size(), kCap);
  EXPECT_EQ(second.get().size(), kCap);

  // Oversized batch under kBlock: admitted alone once the queue is
  // empty instead of deadlocking — through either entry point.
  const std::vector<ServedRequest> oversized(kCap + 2);
  auto submitted = (*server)->SubmitBatch(oversized);
  ASSERT_OK(submitted);
  EXPECT_EQ(submitted->get().size(), kCap + 2);
  auto answered = (*server)->AnswerBatch(oversized);
  ASSERT_OK(answered);
  EXPECT_EQ(answered->size(), kCap + 2);
}

TEST(QueryServer, OverCapBatchShedIdenticallyByBothEntryPoints) {
  // One admission rule: AnswerBatch is admitted exactly like
  // SubmitBatch (it used to bypass the cap), at every worker count —
  // the poolless server included.
  const auto table = UniformWideTable(300, /*seed=*/107);
  const auto estimator = MakeEstimatorOrDie(
      PublishedView::Generalized(ModKPublication(table, 2)));
  WorkloadOptions workload_options;
  workload_options.num_queries = 20;
  workload_options.seed = 109;
  auto workload = GenerateWorkload(table->schema(), workload_options);
  ASSERT_OK(workload);
  const std::vector<ServedRequest> requests = CountRequests(*workload);

  for (int workers : {1, 2, 4}) {
    QueryServerOptions options;
    options.num_workers = workers;
    options.max_queued_requests = 1;
    options.admission_policy = AdmissionPolicy::kReject;
    auto server = EpochServer::Create(0, estimator, options);
    ASSERT_OK(server);
    // 20 requests against a cap of 1: shed by both, with one status.
    auto submitted = (*server)->SubmitBatch(requests);
    auto answered = (*server)->AnswerBatch(requests);
    ASSERT_FALSE(submitted.ok());
    ASSERT_FALSE(answered.ok());
    EXPECT_TRUE(submitted.status().code() == StatusCode::kResourceExhausted);
    EXPECT_TRUE(answered.status().code() == StatusCode::kResourceExhausted);
    // A batch within the cap is served by both.
    const std::vector<ServedRequest> one(requests.begin(),
                                         requests.begin() + 1);
    auto fits = (*server)->SubmitBatch(one);
    ASSERT_OK(fits);
    EXPECT_EQ(fits->get().size(), 1u);
    auto fits_answered = (*server)->AnswerBatch(one);
    ASSERT_OK(fits_answered);
    EXPECT_EQ(fits_answered->size(), 1u);
    EXPECT_EQ((*server)->query_server().queued_requests(), 0u);
  }
}

TEST(QueryServer, ExpiredAtSubmissionRejectedIdenticallyAcrossWorkerCounts) {
  const auto table = UniformWideTable(400, /*seed=*/101);
  const auto estimator = MakeEstimatorOrDie(
      PublishedView::Generalized(ModKPublication(table, 2)));
  WorkloadOptions workload_options;
  workload_options.num_queries = 12;
  workload_options.seed = 103;
  auto workload = GenerateWorkload(table->schema(), workload_options);
  ASSERT_OK(workload);

  SubmitOptions expired;
  expired.deadline =
      std::chrono::steady_clock::now() - std::chrono::seconds(1);
  for (int workers : {1, 2, 4}) {
    QueryServerOptions options;
    options.num_workers = workers;
    auto server = EpochServer::Create(0, estimator, options);
    ASSERT_OK(server);
    // The deadline is checked before any admission or work, so the
    // rejection is identical whether or not a pool exists — and from
    // either entry point (AnswerBatch used to answer placeholders).
    auto submitted = (*server)->SubmitBatch(CountRequests(*workload),
                                            EpochServer::kLatestEpoch, expired);
    auto answered = (*server)->AnswerBatch(CountRequests(*workload),
                                           EpochServer::kLatestEpoch, expired);
    ASSERT_FALSE(submitted.ok());
    ASSERT_FALSE(answered.ok());
    EXPECT_TRUE(submitted.status().code() == StatusCode::kDeadlineExceeded);
    EXPECT_TRUE(answered.status().code() == StatusCode::kDeadlineExceeded);
    // The server serves normally afterwards.
    auto served = (*server)->AnswerBatch(CountRequests(*workload));
    ASSERT_OK(served);
    EXPECT_EQ(served->size(), workload->size());
  }
}

TEST(QueryServer, MidFlightExpiryShedsAChunkAlignedSuffix) {
  constexpr size_t kChunk = QueryServer::kChunkSize;
  auto estimator = std::make_shared<BlockingEstimator>();
  QueryServerOptions options;
  options.num_workers = 2;  // exactly one pool thread
  auto server = EpochServer::Create(0, estimator, options);
  ASSERT_OK(server);

  SubmitOptions submit;
  submit.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
  const std::vector<ServedRequest> batch(4 * kChunk);
  auto submitted =
      (*server)->SubmitBatch(batch, EpochServer::kLatestEpoch, submit);
  ASSERT_OK(submitted);
  // Wait for the worker to pin inside a claimed chunk — or, on a very
  // slow machine, for the whole batch to expire before the first
  // claim (then the suffix is the whole batch, which the assertions
  // below still accept).
  while (!estimator->entered.load() &&
         submitted->wait_for(std::chrono::milliseconds(1)) !=
             std::future_status::ready) {
  }
  // Let the deadline lapse while the claimed chunk is pinned inside
  // the estimator, then release: chunks claimed before the lapse
  // complete normally, every later claim sheds.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  estimator->Release();
  const std::vector<ServedAnswer> answers = submitted->get();
  ASSERT_EQ(answers.size(), batch.size());
  size_t cut = answers.size();
  for (size_t i = 0; i < answers.size(); ++i) {
    if (answers[i].status == AnswerStatus::kDeadlineExceeded) {
      cut = i;
      break;
    }
  }
  // One pool worker: at most one chunk computed before the lapse, and
  // the shed answers are a chunk-aligned suffix — expiry never punches
  // holes.
  EXPECT_LE(cut, kChunk);
  EXPECT_TRUE(cut % kChunk == 0);
  for (size_t i = 0; i < answers.size(); ++i) {
    const bool should_be_expired = i >= cut;
    EXPECT_TRUE((answers[i].status == AnswerStatus::kDeadlineExceeded) ==
                should_be_expired);
    if (should_be_expired) {
      EXPECT_EQ(answers[i].estimate, 0.0);
      EXPECT_EQ(answers[i].ci_lo, 0.0);
      EXPECT_EQ(answers[i].ci_hi, 0.0);
    }
  }
}

TEST(QueryServer, FairSchedulingBoundsSmallClientLatency) {
  // One client keeps 4096-request batches in flight while another
  // submits 16-request batches and times them client-side (submit →
  // answers). Under strict FIFO the small client's p95 tracks the big
  // batch's makespan (ratio ≈ 1); deficit round robin bounds its wait
  // at one chunk per competitor (ratio ≪ 1). The 0.5 bound leaves a
  // wide margin for noisy machines.
  //
  // Two workers (one pool thread) leave a CPU for each client thread.
  // With more workers on a 4-CPU host the bound failed in 5 of 30 runs
  // at 4 workers and 1 of 30 at 3 (never in 50 runs at 2), and a split
  // of each small batch showed why: its queue wait (submit → first
  // chunk claimed) stayed within about one chunk and its answers took
  // ≤ 0.12 ms to compute, but a slow batch was slow after its answers
  // were ready — the finishing worker's set_value, or the client's
  // return from get(), waited for a CPU until the big batch ended and
  // the pool went idle. That measures the host, not the scheduler.
  const auto table = bench::MakeCensus(10000, /*qi_prefix=*/5);
  const auto estimator = BurelEstimator(table, 4.0);
  WorkloadOptions options;
  options.num_queries = 8192;
  options.lambda = 2;
  options.selectivity = 0.1;
  options.seed = 7;
  auto workload = GenerateWorkload(table->schema(), options);
  ASSERT_OK(workload);
  const std::vector<ServedRequest> requests = CountRequests(*workload);
  const std::vector<ServedRequest> big(requests.begin(),
                                       requests.begin() + 4096);
  const std::vector<ServedRequest> small(requests.begin(),
                                         requests.begin() + 16);
  const auto micros_since = [](std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  QueryServerOptions server_options;
  server_options.num_workers = 2;
  auto server = EpochServer::Create(0, estimator, server_options);
  ASSERT_OK(server);

  std::atomic<bool> stop{false};
  std::atomic<bool> big_submitted{false};
  std::vector<double> big_us;
  std::thread big_client([&] {
    SubmitOptions submit;
    submit.client_id = 1;
    while (!stop.load()) {
      const auto start = std::chrono::steady_clock::now();
      auto submitted =
          (*server)->SubmitBatch(big, EpochServer::kLatestEpoch, submit);
      BETALIKE_CHECK(submitted.ok()) << submitted.status().ToString();
      big_submitted.store(true);
      submitted->get();
      big_us.push_back(micros_since(start));
    }
  });

  // Time the small client only against a big batch already queued: on
  // a loaded host the big client's thread can start after all the
  // small batches are done, leaving nothing to compare against.
  while (!big_submitted.load()) std::this_thread::yield();
  std::vector<double> small_us;
  SubmitOptions submit;
  submit.client_id = 2;
  for (int b = 0; b < 60; ++b) {
    const auto start = std::chrono::steady_clock::now();
    auto submitted =
        (*server)->SubmitBatch(small, EpochServer::kLatestEpoch, submit);
    BETALIKE_CHECK(submitted.ok()) << submitted.status().ToString();
    submitted->get();
    small_us.push_back(micros_since(start));
  }
  stop.store(true);
  big_client.join();

  ASSERT_FALSE(big_us.empty());
  double big_sum = 0.0;
  for (double us : big_us) big_sum += us;
  const double big_mean_us = big_sum / static_cast<double>(big_us.size());
  std::sort(small_us.begin(), small_us.end());
  const double small_p95_us = small_us[small_us.size() * 95 / 100];
  EXPECT_LT(small_p95_us, 0.5 * big_mean_us);
}

}  // namespace
}  // namespace betalike
