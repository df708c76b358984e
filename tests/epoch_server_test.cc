// EpochServer tests: registry validation (publish/retire error
// contracts, the never-empty invariant), latest-epoch routing with
// out-of-order ids through both SubmitBatch and AnswerBatch, per-epoch
// answers bitwise equal to a one-epoch server built on the same
// estimator, retirement pinning (an in-flight batch on a retired epoch
// completes against the retired publication), a live publish/retire
// swap under concurrent submitters, and the cross-epoch CI-overlap
// consistency check — both its pointwise semantics and a two-epoch
// integration sweep.
#include <atomic>
#include <cstdint>
#include <cstring>
#include <future>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "query/estimator.h"
#include "query/published_view.h"
#include "query/workload.h"
#include "serve/epoch_server.h"
#include "serve/query_server.h"
#include "tests/betalike_test.h"

namespace betalike {
namespace {

std::shared_ptr<const Table> UniformWideTable(int64_t rows, uint64_t seed) {
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

// Distinct k → a genuinely different publication of the same table,
// the shape of an incremental republication epoch.
std::shared_ptr<const Estimator> ModKEstimator(
    const std::shared_ptr<const Table>& table, int k) {
  std::vector<std::vector<int64_t>> ec_rows(k);
  for (int64_t row = 0; row < table->num_rows(); ++row) {
    ec_rows[row % k].push_back(row);
  }
  auto published = GeneralizedTable::Create(table, std::move(ec_rows));
  BETALIKE_CHECK(published.ok()) << published.status().ToString();
  auto estimator = MakeEstimator(PublishedView::Generalized(*published));
  BETALIKE_CHECK(estimator.ok()) << estimator.status().ToString();
  return std::move(estimator).value();
}

TEST(EpochServer, CreateValidates) {
  const auto table = UniformWideTable(200, /*seed=*/7);
  const auto estimator = ModKEstimator(table, 2);
  EXPECT_FALSE(EpochServer::Create(-1, estimator, {}).ok());
  EXPECT_FALSE(EpochServer::Create(0, nullptr, {}).ok());
  QueryServerOptions bad;
  bad.num_workers = 0;
  EXPECT_FALSE(EpochServer::Create(0, estimator, bad).ok());
  auto server = EpochServer::Create(0, estimator, {});
  ASSERT_OK(server);
  EXPECT_EQ((*server)->latest_epoch(), 0);
}

TEST(EpochServer, PublishAndRetireContracts) {
  const auto table = UniformWideTable(200, /*seed=*/11);
  auto server = EpochServer::Create(3, ModKEstimator(table, 2), {});
  ASSERT_OK(server);

  EXPECT_FALSE((*server)->PublishEpoch(3, ModKEstimator(table, 4)).ok());
  EXPECT_FALSE((*server)->PublishEpoch(-2, ModKEstimator(table, 4)).ok());
  EXPECT_FALSE((*server)->PublishEpoch(4, nullptr).ok());

  // Out-of-order publish: ids stay sorted, latest is the numeric max.
  ASSERT_OK((*server)->PublishEpoch(7, ModKEstimator(table, 4)));
  ASSERT_OK((*server)->PublishEpoch(5, ModKEstimator(table, 8)));
  const std::vector<int64_t> ids = (*server)->epochs();
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[0], 3);
  EXPECT_EQ(ids[1], 5);
  EXPECT_EQ(ids[2], 7);
  EXPECT_EQ((*server)->latest_epoch(), 7);

  EXPECT_TRUE((*server)->RetireEpoch(4).code() == StatusCode::kNotFound);
  ASSERT_OK((*server)->RetireEpoch(7));
  EXPECT_EQ((*server)->latest_epoch(), 5);
  ASSERT_OK((*server)->RetireEpoch(3));
  // The last live epoch is irremovable — the registry never empties.
  EXPECT_TRUE((*server)->RetireEpoch(5).code() ==
              StatusCode::kFailedPrecondition);
  EXPECT_EQ((*server)->latest_epoch(), 5);
}

TEST(EpochServer, RoutesBitwiseIdenticallyToDirectServers) {
  const auto table = UniformWideTable(3000, /*seed=*/13);
  const auto epoch1 = ModKEstimator(table, 3);
  const auto epoch2 = ModKEstimator(table, 9);

  WorkloadOptions options;
  options.num_queries = 200;  // four chunks, split across the pool
  options.lambda = 2;
  options.seed = 17;
  auto workload = GenerateWorkload(table->schema(), options);
  ASSERT_OK(workload);
  const std::vector<ServedRequest> requests = CountRequests(*workload);
  ASSERT_TRUE(requests.size() > 2 * QueryServer::kChunkSize);

  // References from dedicated single-worker one-epoch servers.
  std::vector<ServedAnswer> reference1;
  std::vector<ServedAnswer> reference2;
  {
    auto direct1 = EpochServer::Create(0, epoch1, {});
    auto direct2 = EpochServer::Create(0, epoch2, {});
    ASSERT_OK(direct1);
    ASSERT_OK(direct2);
    reference1 = (*direct1)->AnswerBatch(requests).value();
    reference2 = (*direct2)->AnswerBatch(requests).value();
  }

  QueryServerOptions server_options;
  server_options.num_workers = 3;
  auto server = EpochServer::Create(1, epoch1, server_options);
  ASSERT_OK(server);
  ASSERT_OK((*server)->PublishEpoch(2, epoch2));

  const auto expect_same = [](const std::vector<ServedAnswer>& got,
                              const std::vector<ServedAnswer>& want) {
    ASSERT_EQ(got.size(), want.size());
    EXPECT_TRUE(got.empty() ||
                std::memcmp(got.data(), want.data(),
                            got.size() * sizeof(ServedAnswer)) == 0);
  };
  auto on1 = (*server)->SubmitBatch(requests, 1);
  auto on2 = (*server)->SubmitBatch(requests, 2);
  auto on_latest = (*server)->SubmitBatch(requests);
  ASSERT_OK(on1);
  ASSERT_OK(on2);
  ASSERT_OK(on_latest);
  expect_same(on1->get(), reference1);
  expect_same(on2->get(), reference2);
  // Default routing: the latest epoch (2).
  expect_same(on_latest->get(), reference2);
  // AnswerBatch routes exactly as SubmitBatch.
  expect_same((*server)->AnswerBatch(requests, 1).value(), reference1);
  expect_same((*server)->AnswerBatch(requests).value(), reference2);

  // A dead epoch is NotFound, not a crash or a silent re-route.
  auto missing = (*server)->SubmitBatch(requests, 9);
  ASSERT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().code() == StatusCode::kNotFound);
  auto missing_answers = (*server)->AnswerBatch(requests, 9);
  ASSERT_FALSE(missing_answers.ok());
  EXPECT_TRUE(missing_answers.status().code() == StatusCode::kNotFound);
}

TEST(EpochServer, RetirementDoesNotDisturbInFlightBatches) {
  const auto table = UniformWideTable(4000, /*seed=*/19);
  const auto epoch1 = ModKEstimator(table, 4);
  const auto epoch2 = ModKEstimator(table, 8);

  WorkloadOptions options;
  options.num_queries = 400;
  options.lambda = 2;
  options.seed = 23;
  auto workload = GenerateWorkload(table->schema(), options);
  ASSERT_OK(workload);
  const std::vector<ServedRequest> requests = CountRequests(*workload);
  ASSERT_TRUE(requests.size() > 2 * QueryServer::kChunkSize);
  std::vector<ServedAnswer> reference1;
  {
    auto direct = EpochServer::Create(0, epoch1, {});
    ASSERT_OK(direct);
    reference1 = (*direct)->AnswerBatch(requests).value();
  }

  QueryServerOptions server_options;
  server_options.num_workers = 2;
  auto server = EpochServer::Create(1, epoch1, server_options);
  ASSERT_OK(server);
  ASSERT_OK((*server)->PublishEpoch(2, epoch2));

  // Submit a large batch on epoch 1, retire it immediately — likely
  // mid-flight. The job pinned the estimator at routing time, so the
  // answers are epoch 1's, bit for bit.
  auto in_flight = (*server)->SubmitBatch(requests, 1);
  ASSERT_OK(in_flight);
  ASSERT_OK((*server)->RetireEpoch(1));
  const std::vector<ServedAnswer> answers = in_flight->get();
  ASSERT_EQ(answers.size(), reference1.size());
  EXPECT_TRUE(std::memcmp(answers.data(), reference1.data(),
                          answers.size() * sizeof(ServedAnswer)) == 0);
  // New submissions can no longer reach it.
  auto gone = (*server)->SubmitBatch(requests, 1);
  ASSERT_FALSE(gone.ok());
  EXPECT_TRUE(gone.status().code() == StatusCode::kNotFound);
}

TEST(EpochServer, LiveSwapUnderConcurrentSubmitters) {
  const auto table = UniformWideTable(2000, /*seed=*/29);
  const auto epoch1 = ModKEstimator(table, 4);
  const auto epoch2 = ModKEstimator(table, 8);

  WorkloadOptions options;
  options.num_queries = 150;  // three chunks per batch
  options.lambda = 2;
  options.seed = 31;
  auto workload = GenerateWorkload(table->schema(), options);
  ASSERT_OK(workload);
  const std::vector<ServedRequest> requests = CountRequests(*workload);
  std::vector<ServedAnswer> reference1;
  std::vector<ServedAnswer> reference2;
  {
    auto direct1 = EpochServer::Create(0, epoch1, {});
    auto direct2 = EpochServer::Create(0, epoch2, {});
    ASSERT_OK(direct1);
    ASSERT_OK(direct2);
    reference1 = (*direct1)->AnswerBatch(requests).value();
    reference2 = (*direct2)->AnswerBatch(requests).value();
  }

  QueryServerOptions server_options;
  server_options.num_workers = 3;
  auto server = EpochServer::Create(1, epoch1, server_options);
  ASSERT_OK(server);

  // Clients route to the latest epoch the whole time; mid-run the main
  // thread publishes epoch 2 and retires epoch 1. Every batch must
  // come back exactly equal to one of the two references — a swap can
  // move a client between epochs, never blend them.
  constexpr int kClients = 3;
  constexpr int kBatchesPerClient = 10;
  std::atomic<int> mismatches{0};
  std::atomic<int> served_epoch2{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      SubmitOptions submit;
      submit.client_id = static_cast<uint64_t>(c);
      for (int b = 0; b < kBatchesPerClient; ++b) {
        auto future = (*server)->SubmitBatch(requests,
                                             EpochServer::kLatestEpoch,
                                             submit);
        if (!future.ok()) {
          mismatches.fetch_add(1);
          continue;
        }
        const std::vector<ServedAnswer> answers = future->get();
        const bool is1 =
            answers.size() == reference1.size() &&
            std::memcmp(answers.data(), reference1.data(),
                        answers.size() * sizeof(ServedAnswer)) == 0;
        const bool is2 =
            answers.size() == reference2.size() &&
            std::memcmp(answers.data(), reference2.data(),
                        answers.size() * sizeof(ServedAnswer)) == 0;
        if (!is1 && !is2) mismatches.fetch_add(1);
        if (is2) served_epoch2.fetch_add(1);
      }
    });
  }
  BETALIKE_CHECK((*server)->PublishEpoch(2, epoch2).ok());
  BETALIKE_CHECK((*server)->RetireEpoch(1).ok());
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  // After the retire, epoch 2 is the only target: the late batches
  // must have landed there.
  EXPECT_GE(served_epoch2.load(), 1);
  EXPECT_EQ((*server)->latest_epoch(), 2);
  EXPECT_EQ((*server)->epochs().size(), 1u);
}

TEST(EpochServer, CrossEpochConsistentSemantics) {
  const auto answer = [](double lo, double est, double hi) {
    ServedAnswer a;
    a.estimate = est;
    a.ci_lo = lo;
    a.ci_hi = hi;
    return a;
  };
  // Overlapping intervals agree; nested and touching intervals too.
  EXPECT_TRUE(CrossEpochConsistent(answer(0, 5, 10), answer(8, 12, 16)));
  EXPECT_TRUE(CrossEpochConsistent(answer(0, 5, 10), answer(2, 4, 6)));
  EXPECT_TRUE(CrossEpochConsistent(answer(0, 5, 10), answer(10, 12, 14)));
  // Disjoint intervals do not.
  EXPECT_FALSE(CrossEpochConsistent(answer(0, 5, 10), answer(11, 12, 13)));
  // A shed answer is never consistent with anything — it carries
  // placeholders, not an interval.
  ServedAnswer shed = answer(0, 0, 0);
  shed.status = AnswerStatus::kDeadlineExceeded;
  EXPECT_FALSE(CrossEpochConsistent(shed, answer(0, 5, 10)));
  EXPECT_FALSE(CrossEpochConsistent(answer(0, 5, 10), shed));
}

TEST(EpochServer, AdjacentEpochsOfOneTableAgreeWithinUnionOfCis) {
  // Two publications of the same table under the model that holds for
  // it: the served intervals of adjacent epochs overlap for nearly
  // every query (deterministic given the fixed seeds).
  const auto table = UniformWideTable(20000, /*seed=*/37);
  auto server = EpochServer::Create(1, ModKEstimator(table, 4), {});
  ASSERT_OK(server);
  ASSERT_OK((*server)->PublishEpoch(2, ModKEstimator(table, 8)));

  WorkloadOptions options;
  options.num_queries = 200;
  options.lambda = 2;
  options.selectivity = 0.1;
  options.seed = 41;
  auto workload = GenerateWorkload(table->schema(), options);
  ASSERT_OK(workload);
  const std::vector<ServedRequest> requests = CountRequests(*workload);

  auto on1 = (*server)->SubmitBatch(requests, 1);
  auto on2 = (*server)->SubmitBatch(requests, 2);
  ASSERT_OK(on1);
  ASSERT_OK(on2);
  const std::vector<ServedAnswer> answers1 = on1->get();
  const std::vector<ServedAnswer> answers2 = on2->get();
  ASSERT_EQ(answers1.size(), answers2.size());
  int consistent = 0;
  for (size_t i = 0; i < answers1.size(); ++i) {
    if (CrossEpochConsistent(answers1[i], answers2[i])) ++consistent;
  }
  EXPECT_GE(static_cast<double>(consistent) /
                static_cast<double>(answers1.size()),
            0.9);
}

}  // namespace
}  // namespace betalike
