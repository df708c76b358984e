// Serving-layer benchmark: sustained COUNT(*) throughput of a
// one-epoch serve/EpochServer over one BUREL publication, across
// worker counts, with per-query latency quantiles — plus a calibration
// check that the served confidence intervals actually cover the ground
// truth at roughly their nominal rate (the fig8 vary-λ panel, answered
// with intervals and scored against PreciseCounts), and a
// mixed-aggregate panel (COUNT / SUM / AVG / GROUP-BY-SA) served
// asynchronously through SubmitBatch and scored against PreciseSums /
// PreciseGroupCounts ground truth, with whole-batch latency quantiles.
//
// The hardening panels exercise the overload machinery end to end:
// "admission" floods a capped kReject server with a 10x oversubmit
// burst (rejects counted, queue demonstrably bounded) and probes the
// deadline path (already-expired rejection, chunk-aligned mid-flight
// shed suffix); "fairness" runs the mixed 4096-vs-16 batch panel and
// hard-fails if the small client's p95 tracks the large batch's
// makespan (the head-of-line blocking deficit-round-robin removes);
// "epochs" performs a live 2-epoch publish/retire swap through
// EpochServer with the cross-epoch CI-overlap consistency CHECK.
//
// Knobs (environment):
//   BENCH_QPS_ROWS           census size          (default: DefaultRows())
//   BENCH_QPS_MAX_THREADS    largest worker count (default: 8)
//   BENCH_QPS_BATCH          queries per AnswerBatch call (default: 1024)
//   BENCH_QPS_QUERIES        queries per throughput point (default: 2M)
//   BENCH_QPS_JSON           output path          (default: BENCH_qps.json)
//   BENCH_QPS_HARDENING_ONLY non-empty, non-"0": skip the throughput /
//                            calibration / aggregate sweeps and run
//                            only the hardening panels (the smoke
//                            ctest's fast path)
//
// Emits the measured series as JSON for the CI artifact. Throughput is
// machine-dependent and only reported; the bench hard-fails on the
// machine-independent properties — answers bit-identical across worker
// counts and across the AnswerBatch/SubmitBatch entry points, 95% CI
// coverage within [0.85, 1.0] on every λ, aggregate-panel coverage
// floors, and the hardening-panel contracts above.
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/span.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "query/estimator.h"
#include "query/published_view.h"
#include "query/workload.h"
#include "serve/epoch_server.h"
#include "serve/query_server.h"

namespace betalike {
namespace {

int64_t EnvInt64(const char* name, int64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(value, &end, 10);
  BETALIKE_CHECK(errno == 0 && end != value && *end == '\0' && parsed > 0)
      << name << "=\"" << value << "\" is not a positive integer";
  return parsed;
}

std::vector<AggregateQuery> MakeWorkload(const TableSchema& schema,
                                         int num_queries, int lambda,
                                         double theta, uint64_t seed,
                                         bool include_sa = false) {
  WorkloadOptions options;
  options.num_queries = num_queries;
  options.lambda = lambda;
  options.selectivity = theta;
  options.include_sa = include_sa;
  options.seed = seed;
  auto workload = GenerateWorkload(schema, options);
  BETALIKE_CHECK(workload.ok()) << workload.status().ToString();
  return std::move(workload).value();
}

// A single-publication server: an EpochServer with one epoch.
std::unique_ptr<EpochServer> MakeServer(
    const std::shared_ptr<const Estimator>& estimator,
    const QueryServerOptions& options) {
  auto server = EpochServer::Create(0, estimator, options);
  BETALIKE_CHECK(server.ok()) << server.status().ToString();
  return std::move(server).value();
}

std::unique_ptr<EpochServer> MakeServer(
    const std::shared_ptr<const Estimator>& estimator, int workers) {
  QueryServerOptions options;
  options.num_workers = workers;
  return MakeServer(estimator, options);
}

std::vector<ServedAnswer> AnswerOrDie(EpochServer& server,
                                      std::vector<ServedRequest> batch) {
  auto answers = server.AnswerBatch(std::move(batch));
  BETALIKE_CHECK(answers.ok()) << answers.status().ToString();
  return std::move(answers).value();
}

// Answers must be bit-identical across worker counts AND across the
// AnswerBatch/SubmitBatch entry points: every answer is a pure
// function of (query, publication), and neither the chunked fan-out
// nor the job queue may change that.
void CheckDeterminism(const std::shared_ptr<const Estimator>& estimator,
                      const std::vector<AggregateQuery>& workload,
                      int max_threads) {
  const std::vector<ServedRequest> requests = CountRequests(workload);
  const std::vector<ServedAnswer> reference =
      AnswerOrDie(*MakeServer(estimator, 1), requests);
  for (int workers : {2, max_threads}) {
    if (workers < 2) continue;
    const std::vector<ServedAnswer> got =
        AnswerOrDie(*MakeServer(estimator, workers), requests);
    BETALIKE_CHECK(got.size() == reference.size());
    BETALIKE_CHECK(std::memcmp(got.data(), reference.data(),
                               got.size() * sizeof(ServedAnswer)) == 0)
        << "answers differ between 1 and " << workers << " workers";
  }
  for (int workers : {1, 2, max_threads}) {
    const std::unique_ptr<EpochServer> server = MakeServer(estimator, workers);
    auto submitted = server->SubmitBatch(requests);
    BETALIKE_CHECK(submitted.ok()) << submitted.status().ToString();
    const std::vector<ServedAnswer> got = submitted->get();
    BETALIKE_CHECK(got.size() == reference.size());
    BETALIKE_CHECK(std::memcmp(got.data(), reference.data(),
                               got.size() * sizeof(ServedAnswer)) == 0)
        << "SubmitBatch answers differ from AnswerBatch at " << workers
        << " workers";
  }
  std::printf("# determinism: 1 == 2 == %d workers, AnswerBatch == "
              "SubmitBatch (bit-identical, %zu queries)\n\n",
              max_threads, workload.size());
}

struct ThroughputPoint {
  int threads = 0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
};

ThroughputPoint MeasureThroughput(
    const std::shared_ptr<const Estimator>& estimator,
    const std::vector<AggregateQuery>& workload, int threads,
    int64_t batch_size, int64_t total_queries) {
  const std::unique_ptr<EpochServer> server = MakeServer(estimator, threads);
  const std::vector<ServedRequest> requests = CountRequests(workload);
  const Span<ServedRequest> all(requests);
  const auto copy = [](Span<ServedRequest> slice) {
    return std::vector<ServedRequest>(slice.data(),
                                      slice.data() + slice.size());
  };

  // One warmup pass (page in the index, spin up the pool).
  AnswerOrDie(*server, copy(all.Slice(0, batch_size)));
  server->query_server().ResetHistograms();

  // Each batch is copied out of the workload before its call, so only
  // the AnswerBatch calls themselves are timed.
  int64_t served = 0;
  size_t offset = 0;
  double seconds = 0.0;
  while (served < total_queries) {
    std::vector<ServedRequest> batch = copy(all.Slice(offset, batch_size));
    if (batch.empty()) {
      offset = 0;
      continue;
    }
    const size_t n = batch.size();
    WallTimer timer;
    AnswerOrDie(*server, std::move(batch));
    seconds += timer.ElapsedSeconds();
    served += static_cast<int64_t>(n);
    offset += n;
  }

  const LatencyHistogram merged = server->query_server().MergedHistogram();
  ThroughputPoint point;
  point.threads = threads;
  point.qps = static_cast<double>(served) / seconds;
  point.p50_us = static_cast<double>(merged.QuantileNanos(0.50)) / 1000.0;
  point.p95_us = static_cast<double>(merged.QuantileNanos(0.95)) / 1000.0;
  point.p99_us = static_cast<double>(merged.QuantileNanos(0.99)) / 1000.0;
  return point;
}

struct CalibrationPoint {
  int lambda = 0;
  double coverage = 0.0;         // fraction of truths inside the CI
  double mean_half_width = 0.0;  // mean (ci_hi - ci_lo) / 2
  double median_error = 0.0;     // fig8 metric, for context
};

// The fig8(a) panel served with intervals: empirical coverage of the
// nominal 95% CI against PreciseCounts ground truth.
CalibrationPoint MeasureCalibration(
    const std::shared_ptr<const Estimator>& estimator,
    const std::shared_ptr<const Table>& table, int lambda, int num_queries) {
  const std::vector<AggregateQuery> workload = MakeWorkload(
      table->schema(), num_queries, lambda, 0.1, 100 + lambda);
  const std::vector<int64_t> truth = PreciseCounts(*table, workload);

  const std::vector<ServedAnswer> answers =
      AnswerOrDie(*MakeServer(estimator, 2), CountRequests(workload));

  CalibrationPoint point;
  point.lambda = lambda;
  int64_t covered = 0;
  double half_width_sum = 0.0;
  for (size_t i = 0; i < answers.size(); ++i) {
    const double actual = static_cast<double>(truth[i]);
    if (actual >= answers[i].ci_lo && actual <= answers[i].ci_hi) ++covered;
    half_width_sum += 0.5 * (answers[i].ci_hi - answers[i].ci_lo);
  }
  point.coverage =
      static_cast<double>(covered) / static_cast<double>(answers.size());
  point.mean_half_width = half_width_sum / static_cast<double>(answers.size());
  point.median_error =
      EvaluateWorkloadWithTruth(truth, workload, *estimator)
          .median_relative_error;
  return point;
}

struct AggregatePoint {
  const char* kind = "";
  size_t answers = 0;
  double coverage = 0.0;         // fraction of truths inside the CI
  double mean_half_width = 0.0;  // mean (ci_hi - ci_lo) / 2
  double median_error = 0.0;     // median 100·|est-truth|/max(1,|truth|)
};

struct AggregatesResult {
  std::vector<AggregatePoint> points;
  size_t batches = 0;      // async sub-batches submitted
  double batch_p50_us = 0.0;
  double batch_p95_us = 0.0;
};

double MedianOf(std::vector<double> values) {
  BETALIKE_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

AggregatePoint ScoreAnswers(const char* kind,
                            const std::vector<ServedAnswer>& answers,
                            const std::vector<double>& truth) {
  BETALIKE_CHECK(answers.size() == truth.size());
  AggregatePoint point;
  point.kind = kind;
  point.answers = answers.size();
  int64_t covered = 0;
  double half_width_sum = 0.0;
  std::vector<double> errors;
  errors.reserve(answers.size());
  for (size_t i = 0; i < answers.size(); ++i) {
    if (truth[i] >= answers[i].ci_lo && truth[i] <= answers[i].ci_hi) {
      ++covered;
    }
    half_width_sum += 0.5 * (answers[i].ci_hi - answers[i].ci_lo);
    const double denom = std::max(1.0, std::abs(truth[i]));
    errors.push_back(100.0 * std::abs(answers[i].estimate - truth[i]) / denom);
  }
  const double n = static_cast<double>(answers.size());
  point.coverage = static_cast<double>(covered) / n;
  point.mean_half_width = half_width_sum / n;
  point.median_error = MedianOf(std::move(errors));
  return point;
}

// Submits `requests` as a stream of async sub-batches (queued ahead of
// any get(), so the pool sees a real multi-batch backlog) and returns
// the concatenated answers in request order.
std::vector<ServedAnswer> ServeAsync(EpochServer& server,
                                     const std::vector<ServedRequest>& requests,
                                     size_t sub_batch, size_t* batches) {
  std::vector<std::future<std::vector<ServedAnswer>>> futures;
  for (size_t off = 0; off < requests.size(); off += sub_batch) {
    const size_t n = std::min(sub_batch, requests.size() - off);
    const auto begin = requests.begin() + static_cast<std::ptrdiff_t>(off);
    auto submitted = server.SubmitBatch(std::vector<ServedRequest>(
        begin, begin + static_cast<std::ptrdiff_t>(n)));
    BETALIKE_CHECK(submitted.ok()) << submitted.status().ToString();
    futures.push_back(std::move(*submitted));
  }
  *batches += futures.size();
  std::vector<ServedAnswer> answers;
  answers.reserve(requests.size());
  for (auto& future : futures) {
    const std::vector<ServedAnswer> part = future.get();
    answers.insert(answers.end(), part.begin(), part.end());
  }
  return answers;
}

// The mixed-aggregate panel: an SA-carrying workload served through
// the async path as COUNT / SUM / AVG / expanded GROUP-BY-SA batches,
// scored against PreciseCounts / PreciseSums / PreciseGroupCounts.
AggregatesResult MeasureAggregates(
    const std::shared_ptr<const Estimator>& estimator,
    const std::shared_ptr<const Table>& table, int num_queries, int workers) {
  const std::vector<AggregateQuery> workload =
      MakeWorkload(table->schema(), num_queries, /*lambda=*/2, /*theta=*/0.1,
                   /*seed=*/53, /*include_sa=*/true);
  const std::vector<int64_t> counts = PreciseCounts(*table, workload);
  const std::vector<int64_t> sums = PreciseSums(*table, workload);
  const std::vector<std::vector<int64_t>> groups =
      PreciseGroupCounts(*table, workload);

  std::vector<ServedRequest> count_reqs, sum_reqs, avg_reqs, group_reqs;
  std::vector<double> count_truth, sum_truth, avg_truth, group_truth;
  for (size_t i = 0; i < workload.size(); ++i) {
    count_reqs.push_back({workload[i], AggregateKind::kCount, 0});
    count_truth.push_back(static_cast<double>(counts[i]));
    sum_reqs.push_back({workload[i], AggregateKind::kSum, 0});
    sum_truth.push_back(static_cast<double>(sums[i]));
    avg_reqs.push_back({workload[i], AggregateKind::kAvg, 0});
    avg_truth.push_back(counts[i] > 0 ? static_cast<double>(sums[i]) /
                                            static_cast<double>(counts[i])
                                      : 0.0);
    for (const ServedRequest& slot :
         ExpandGroupBy(workload[i], estimator->sa_num_values())) {
      group_reqs.push_back(slot);
      group_truth.push_back(static_cast<double>(groups[i][slot.group_value]));
    }
  }

  const std::unique_ptr<EpochServer> server = MakeServer(estimator, workers);
  AggregatesResult result;
  result.points.push_back(ScoreAnswers(
      "count", ServeAsync(*server, count_reqs, 256, &result.batches),
      count_truth));
  result.points.push_back(ScoreAnswers(
      "sum", ServeAsync(*server, sum_reqs, 256, &result.batches), sum_truth));
  result.points.push_back(ScoreAnswers(
      "avg", ServeAsync(*server, avg_reqs, 256, &result.batches), avg_truth));
  result.points.push_back(ScoreAnswers(
      "group_count", ServeAsync(*server, group_reqs, 256, &result.batches),
      group_truth));

  const LatencyHistogram batches = server->query_server().BatchHistogram();
  BETALIKE_CHECK(batches.count() == static_cast<uint64_t>(result.batches));
  result.batch_p50_us =
      static_cast<double>(batches.QuantileNanos(0.50)) / 1000.0;
  result.batch_p95_us =
      static_cast<double>(batches.QuantileNanos(0.95)) / 1000.0;
  return result;
}

struct AdmissionResult {
  size_t cap = 0;
  int submitted = 0;
  int admitted = 0;
  int rejected = 0;
  size_t served_requests = 0;
  size_t max_queued_seen = 0;
  bool pre_expired_rejected = false;
  size_t deadline_shed = 0;  // kDeadlineExceeded answers, tight-deadline probe
};

// Floods a capped kReject server with a 10x oversubmit burst: the cap
// must shed (rejects counted) and the queue must stay bounded — the
// unbounded-deque growth this PR removes. Then probes the deadline
// path: an already-expired batch is rejected with a status, and a
// tight mid-flight deadline sheds (if anything) a chunk-aligned
// kDeadlineExceeded suffix, never holes.
AdmissionResult MeasureAdmission(
    const std::shared_ptr<const Estimator>& estimator,
    const std::vector<AggregateQuery>& workload, int workers) {
  AdmissionResult result;
  result.cap = 2048;
  QueryServerOptions options;
  options.num_workers = workers;
  options.max_queued_requests = result.cap;
  options.admission_policy = AdmissionPolicy::kReject;
  const std::unique_ptr<EpochServer> created = MakeServer(estimator, options);
  EpochServer& server = *created;

  const std::vector<ServedRequest> requests = CountRequests(workload);
  const Span<ServedRequest> all(requests);
  constexpr int kBurst = 40;
  constexpr size_t kBatch = 1024;  // 40 x 1024 vs a cap of 2048: 20x
  std::vector<std::future<std::vector<ServedAnswer>>> futures;
  for (int b = 0; b < kBurst; ++b) {
    const Span<ServedRequest> slice =
        all.Slice((static_cast<size_t>(b) * kBatch) % workload.size(), kBatch);
    ++result.submitted;
    auto submitted = server.SubmitBatch(
        std::vector<ServedRequest>(slice.data(), slice.data() + slice.size()));
    result.max_queued_seen = std::max(
        result.max_queued_seen, server.query_server().queued_requests());
    if (submitted.ok()) {
      ++result.admitted;
      futures.push_back(std::move(*submitted));
    } else {
      BETALIKE_CHECK(submitted.status().code() ==
                     StatusCode::kResourceExhausted)
          << submitted.status().ToString();
      ++result.rejected;
    }
  }
  for (auto& future : futures) result.served_requests += future.get().size();
  BETALIKE_CHECK(result.rejected > 0)
      << "a 20x oversubmit burst was fully admitted past the cap";
  BETALIKE_CHECK(result.max_queued_seen <= result.cap)
      << "queue grew past max_queued_requests: " << result.max_queued_seen;
  BETALIKE_CHECK(result.served_requests ==
                 static_cast<size_t>(result.admitted) * kBatch);

  // Deadline, already expired at submission: a status, not a future —
  // identical at every worker count.
  {
    SubmitOptions expired;
    expired.deadline = std::chrono::steady_clock::now() -
                       std::chrono::milliseconds(1);
    const Span<ServedRequest> slice = all.Slice(0, 256);
    auto submitted = server.SubmitBatch(
        std::vector<ServedRequest>(slice.data(), slice.data() + slice.size()),
        EpochServer::kLatestEpoch, expired);
    BETALIKE_CHECK(!submitted.ok() &&
                   submitted.status().code() == StatusCode::kDeadlineExceeded)
        << "already-expired batch was not rejected";
    result.pre_expired_rejected = true;
  }

  // Deadline mid-flight: whatever the cut point lands on, the shed
  // answers must be a kDeadlineExceeded suffix. On a slow build
  // (sanitizers) the tight window can elapse before submission — then
  // the batch is shed whole at the door, the other legal outcome.
  {
    std::vector<ServedRequest> batch(all.data(), all.data() + result.cap);
    SubmitOptions tight;
    tight.deadline = std::chrono::steady_clock::now() +
                     std::chrono::microseconds(200);
    auto submitted =
        server.SubmitBatch(std::move(batch), EpochServer::kLatestEpoch, tight);
    if (!submitted.ok()) {
      BETALIKE_CHECK(submitted.status().code() ==
                     StatusCode::kDeadlineExceeded)
          << submitted.status().ToString();
      result.deadline_shed = result.cap;
    } else {
      const std::vector<ServedAnswer> answers = submitted->get();
      size_t cut = answers.size();
      for (size_t i = 0; i < answers.size(); ++i) {
        if (answers[i].status == AnswerStatus::kDeadlineExceeded) {
          cut = i;
          break;
        }
      }
      for (size_t i = 0; i < answers.size(); ++i) {
        BETALIKE_CHECK((answers[i].status == AnswerStatus::kDeadlineExceeded) ==
                       (i >= cut))
            << "deadline expiry punched a hole at index " << i;
      }
      result.deadline_shed = answers.size() - cut;
    }
  }
  return result;
}

struct FairnessResult {
  int workers = 0;
  size_t big_batch = 4096;
  size_t small_batch = 16;
  int big_batches = 0;
  int small_batches = 0;
  double big_mean_us = 0.0;
  double small_p50_us = 0.0;
  double small_p95_us = 0.0;
  double ratio = 0.0;  // small p95 / big mean
};

// The mixed 4096-vs-16 panel: one client keeps 4096-request batches in
// flight while another submits 16-request batches and times them
// client-side (submit → answers). Under strict FIFO the small client's
// p95 tracks the big batch's makespan (ratio ≈ 1); deficit-round-robin
// bounds its wait at one chunk per competitor (ratio ≪ 1). The CHECK
// keeps a wide margin for noisy CI machines.
FairnessResult MeasureFairness(
    const std::shared_ptr<const Estimator>& estimator,
    const std::vector<AggregateQuery>& workload, int workers) {
  FairnessResult result;
  result.workers = workers;
  QueryServerOptions options;
  options.num_workers = workers;
  const std::unique_ptr<EpochServer> created = MakeServer(estimator, options);
  EpochServer& server = *created;

  BETALIKE_CHECK(workload.size() >= result.big_batch);
  const std::vector<ServedRequest> requests = CountRequests(workload);
  const std::vector<ServedRequest> big(
      requests.data(), requests.data() + result.big_batch);
  const std::vector<ServedRequest> small(
      requests.data(), requests.data() + result.small_batch);

  std::atomic<bool> stop{false};
  std::atomic<bool> big_submitted{false};
  std::vector<double> big_us;
  std::thread big_client([&] {
    SubmitOptions submit;
    submit.client_id = 1;
    while (!stop.load()) {
      const auto start = std::chrono::steady_clock::now();
      auto submitted =
          server.SubmitBatch(big, EpochServer::kLatestEpoch, submit);
      BETALIKE_CHECK(submitted.ok()) << submitted.status().ToString();
      big_submitted.store(true);
      submitted->get();
      big_us.push_back(std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - start)
                           .count());
    }
  });

  // Time the small client only against a big batch already queued: on
  // a loaded host the big client's thread can start after all the small
  // batches are done, leaving nothing to compare against.
  while (!big_submitted.load()) std::this_thread::yield();
  constexpr int kSmallBatches = 60;
  std::vector<double> small_us;
  small_us.reserve(kSmallBatches);
  SubmitOptions submit;
  submit.client_id = 2;
  for (int b = 0; b < kSmallBatches; ++b) {
    const auto start = std::chrono::steady_clock::now();
    auto submitted =
        server.SubmitBatch(small, EpochServer::kLatestEpoch, submit);
    BETALIKE_CHECK(submitted.ok()) << submitted.status().ToString();
    submitted->get();
    small_us.push_back(std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - start)
                           .count());
  }
  stop.store(true);
  big_client.join();
  BETALIKE_CHECK(!big_us.empty());

  result.big_batches = static_cast<int>(big_us.size());
  result.small_batches = kSmallBatches;
  double big_sum = 0.0;
  for (double us : big_us) big_sum += us;
  result.big_mean_us = big_sum / static_cast<double>(big_us.size());
  std::sort(small_us.begin(), small_us.end());
  result.small_p50_us = small_us[small_us.size() / 2];
  result.small_p95_us = small_us[small_us.size() * 95 / 100];
  result.ratio = result.small_p95_us / result.big_mean_us;
  BETALIKE_CHECK(result.small_p95_us < 0.5 * result.big_mean_us)
      << "small client's p95 (" << result.small_p95_us
      << " us) tracks the big batch's makespan (" << result.big_mean_us
      << " us): head-of-line blocking is back";
  return result;
}

struct EpochsResult {
  size_t queries = 0;
  double consistent_fraction = 0.0;
  bool swap_ok = false;
};

// Live 2-epoch swap: serve the same workload on a β=4 publication
// (epoch 1) and, published mid-flight, a β=2 publication of the same
// table (epoch 2), retiring epoch 1 while its batch may still be in
// flight. Adjacent epochs of one table must agree within the union of
// their CIs on nearly every query.
EpochsResult MeasureEpochs(const std::shared_ptr<const Table>& table,
                           const std::shared_ptr<const Estimator>& epoch1,
                           int workers) {
  auto epoch2_result = MakeEstimator(
      PublishedView::Generalized(bench::Publish(table, {"burel", 2.0})));
  BETALIKE_CHECK(epoch2_result.ok()) << epoch2_result.status().ToString();
  const std::shared_ptr<const Estimator> epoch2 =
      std::move(epoch2_result).value();

  QueryServerOptions options;
  options.num_workers = workers;
  auto created = EpochServer::Create(1, epoch1, options);
  BETALIKE_CHECK(created.ok()) << created.status().ToString();
  EpochServer& server = **created;

  const std::vector<AggregateQuery> workload =
      MakeWorkload(table->schema(), 400, /*lambda=*/2, /*theta=*/0.1,
                   /*seed=*/61);
  std::vector<ServedRequest> requests;
  requests.reserve(workload.size());
  for (const AggregateQuery& query : workload) {
    requests.push_back({query, AggregateKind::kCount, 0});
  }

  auto on1 = server.SubmitBatch(requests, 1);
  BETALIKE_CHECK(on1.ok()) << on1.status().ToString();
  // Swap while the epoch-1 batch is (likely) still in flight: publish
  // the successor, route the same workload to it, retire the old one.
  BETALIKE_CHECK(server.PublishEpoch(2, epoch2).ok());
  auto on2 = server.SubmitBatch(requests);  // latest = 2
  BETALIKE_CHECK(server.RetireEpoch(1).ok());
  BETALIKE_CHECK(on2.ok()) << on2.status().ToString();

  const std::vector<ServedAnswer> answers1 = on1->get();
  const std::vector<ServedAnswer> answers2 = on2->get();
  BETALIKE_CHECK(answers1.size() == answers2.size());
  EpochsResult result;
  result.queries = answers1.size();
  size_t consistent = 0;
  for (size_t i = 0; i < answers1.size(); ++i) {
    if (CrossEpochConsistent(answers1[i], answers2[i])) ++consistent;
  }
  result.consistent_fraction =
      static_cast<double>(consistent) / static_cast<double>(answers1.size());
  BETALIKE_CHECK(result.consistent_fraction >= 0.9)
      << "adjacent epochs disagree beyond their CIs on "
      << (answers1.size() - consistent) << " of " << answers1.size()
      << " queries";
  result.swap_ok =
      server.latest_epoch() == 2 && server.epochs().size() == 1;
  BETALIKE_CHECK(result.swap_ok);
  return result;
}

void WriteJson(const std::string& path, int64_t rows,
               const std::vector<ThroughputPoint>& throughput,
               const std::vector<CalibrationPoint>& calibration,
               const AggregatesResult& aggregates,
               const AdmissionResult& admission,
               const FairnessResult& fairness, const EpochsResult& epochs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  BETALIKE_CHECK(f != nullptr) << "cannot write " << path;
  std::fprintf(f, "{\n  \"rows\": %lld,\n  \"throughput\": [\n",
               static_cast<long long>(rows));
  for (size_t i = 0; i < throughput.size(); ++i) {
    const ThroughputPoint& p = throughput[i];
    std::fprintf(f,
                 "    {\"threads\": %d, \"qps\": %.1f, \"p50_us\": %.2f, "
                 "\"p95_us\": %.2f, \"p99_us\": %.2f}%s\n",
                 p.threads, p.qps, p.p50_us, p.p95_us, p.p99_us,
                 i + 1 < throughput.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"calibration\": [\n");
  for (size_t i = 0; i < calibration.size(); ++i) {
    const CalibrationPoint& p = calibration[i];
    std::fprintf(f,
                 "    {\"lambda\": %d, \"coverage\": %.4f, "
                 "\"mean_half_width\": %.2f, \"median_error_pct\": %.2f}%s\n",
                 p.lambda, p.coverage, p.mean_half_width, p.median_error,
                 i + 1 < calibration.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"aggregates\": [\n");
  for (size_t i = 0; i < aggregates.points.size(); ++i) {
    const AggregatePoint& p = aggregates.points[i];
    std::fprintf(f,
                 "    {\"kind\": \"%s\", \"answers\": %zu, "
                 "\"coverage\": %.4f, \"mean_half_width\": %.3f, "
                 "\"median_error_pct\": %.2f}%s\n",
                 p.kind, p.answers, p.coverage, p.mean_half_width,
                 p.median_error, i + 1 < aggregates.points.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"batch_latency\": {\"batches\": %zu, "
               "\"p50_us\": %.2f, \"p95_us\": %.2f},\n",
               aggregates.batches, aggregates.batch_p50_us,
               aggregates.batch_p95_us);
  std::fprintf(f,
               "  \"admission\": {\"cap\": %zu, \"submitted\": %d, "
               "\"admitted\": %d, \"rejected\": %d, "
               "\"served_requests\": %zu, \"max_queued_seen\": %zu, "
               "\"pre_expired_rejected\": %s, \"deadline_shed\": %zu},\n",
               admission.cap, admission.submitted, admission.admitted,
               admission.rejected, admission.served_requests,
               admission.max_queued_seen,
               admission.pre_expired_rejected ? "true" : "false",
               admission.deadline_shed);
  std::fprintf(f,
               "  \"fairness\": {\"workers\": %d, \"big_batch\": %zu, "
               "\"small_batch\": %zu, \"big_batches\": %d, "
               "\"small_batches\": %d, \"big_mean_us\": %.1f, "
               "\"small_p50_us\": %.1f, \"small_p95_us\": %.1f, "
               "\"ratio\": %.4f},\n",
               fairness.workers, fairness.big_batch, fairness.small_batch,
               fairness.big_batches, fairness.small_batches,
               fairness.big_mean_us, fairness.small_p50_us,
               fairness.small_p95_us, fairness.ratio);
  std::fprintf(f,
               "  \"epochs\": {\"queries\": %zu, "
               "\"consistent_fraction\": %.4f, \"swap_ok\": %s}\n}\n",
               epochs.queries, epochs.consistent_fraction,
               epochs.swap_ok ? "true" : "false");
  std::fclose(f);
}

void Run() {
  const int64_t rows = EnvInt64("BENCH_QPS_ROWS", bench::DefaultRows());
  const int max_threads =
      static_cast<int>(EnvInt64("BENCH_QPS_MAX_THREADS", 8));
  const int64_t batch_size = EnvInt64("BENCH_QPS_BATCH", 1024);
  const int64_t total_queries = EnvInt64("BENCH_QPS_QUERIES", 2000000);
  const char* json_env = std::getenv("BENCH_QPS_JSON");
  const std::string json_path =
      (json_env != nullptr && *json_env != '\0') ? json_env : "BENCH_qps.json";
  const char* hardening_env = std::getenv("BENCH_QPS_HARDENING_ONLY");
  const bool hardening_only = hardening_env != nullptr &&
                              *hardening_env != '\0' &&
                              std::strcmp(hardening_env, "0") != 0;

  bench::PrintHeader(
      "Serving: COUNT(*) QPS and CI calibration over a BUREL publication",
      "throughput scales with workers up to the core count; served 95% "
      "intervals cover the truth at roughly their nominal rate",
      rows);

  auto table = bench::MakeCensus(rows, /*qi_prefix=*/5);
  auto estimator_result = MakeEstimator(
      PublishedView::Generalized(bench::Publish(table, {"burel", 4.0})));
  BETALIKE_CHECK(estimator_result.ok())
      << estimator_result.status().ToString();
  const std::shared_ptr<const Estimator> estimator =
      std::move(estimator_result).value();

  // The hot workload the throughput loop cycles through: fig8's
  // λ=2, θ=0.1 point.
  const std::vector<AggregateQuery> hot =
      MakeWorkload(table->schema(), 8192, /*lambda=*/2, /*theta=*/0.1,
                   /*seed=*/7);

  if (!hardening_only) CheckDeterminism(estimator, hot, max_threads);

  std::vector<ThroughputPoint> throughput;
  if (!hardening_only) {
    TextTable out({"workers", "qps", "p50_us", "p95_us", "p99_us"});
    for (int threads = 1; threads <= max_threads; threads *= 2) {
      const ThroughputPoint p = MeasureThroughput(estimator, hot, threads,
                                                  batch_size, total_queries);
      throughput.push_back(p);
      out.AddRow({StrFormat("%d", p.threads), StrFormat("%.0f", p.qps),
                  StrFormat("%.2f", p.p50_us), StrFormat("%.2f", p.p95_us),
                  StrFormat("%.2f", p.p99_us)});
    }
    std::printf("--- throughput: lambda=2, theta=0.1 workload, %lld "
                "queries/point ---\n",
                static_cast<long long>(total_queries));
    std::printf("%s\n", out.ToString().c_str());
  }

  std::vector<CalibrationPoint> calibration;
  if (!hardening_only) {
    TextTable out({"lambda", "coverage", "half_width", "median_err"});
    for (int lambda = 1; lambda <= 5; ++lambda) {
      const CalibrationPoint p = MeasureCalibration(
          estimator, table, lambda, bench::DefaultQueries());
      calibration.push_back(p);
      out.AddRow({StrFormat("%d", p.lambda), StrFormat("%.3f", p.coverage),
                  StrFormat("%.1f", p.mean_half_width),
                  StrFormat("%.1f%%", p.median_error)});
      BETALIKE_CHECK(p.coverage >= 0.85 && p.coverage <= 1.0)
          << "95% CI coverage " << p.coverage << " at lambda=" << lambda
          << " outside [0.85, 1.0]";
    }
    std::printf(
        "--- CI calibration: nominal 95%% intervals vs PreciseCounts "
        "(fig8 vary-lambda panel) ---\n");
    std::printf("%s\n", out.ToString().c_str());
  }

  const AggregatesResult aggregates =
      hardening_only
          ? AggregatesResult{}
          : MeasureAggregates(estimator, table,
                              std::max(200, bench::DefaultQueries() / 4),
                              /*workers=*/std::max(2, max_threads / 2));
  if (!hardening_only) {
    TextTable out({"kind", "answers", "coverage", "half_width", "median_err"});
    for (const AggregatePoint& p : aggregates.points) {
      out.AddRow({p.kind, StrFormat("%zu", p.answers),
                  StrFormat("%.3f", p.coverage),
                  StrFormat("%.2f", p.mean_half_width),
                  StrFormat("%.1f%%", p.median_error)});
      // Sanity floor, not a calibration claim: the SA-carrying panel
      // workload exposes the within-box QI/SA correlation the
      // uniform-spread variance model deliberately omits, so nominal
      // 95% coverage is not expected here (the no-SA fig8 panel above
      // is the calibration check). The floor catches broken intervals
      // — a sign error or dropped variance term collapses coverage far
      // below it.
      BETALIKE_CHECK(p.coverage >= 0.60 && p.coverage <= 1.0)
          << "95% CI coverage " << p.coverage << " for aggregate " << p.kind
          << " outside [0.60, 1.0]";
    }
    std::printf(
        "--- mixed aggregates: async SubmitBatch, nominal 95%% intervals "
        "vs PreciseSums / PreciseGroupCounts ---\n");
    std::printf("%s", out.ToString().c_str());
    std::printf("# batch latency: %zu async sub-batches, p50 %.0f us, "
                "p95 %.0f us\n\n",
                aggregates.batches, aggregates.batch_p50_us,
                aggregates.batch_p95_us);
  }

  const int hardening_workers = std::max(2, max_threads);
  const AdmissionResult admission =
      MeasureAdmission(estimator, hot, hardening_workers);
  std::printf(
      "--- admission: kReject cap=%zu, %d x 1024-query burst ---\n"
      "# admitted %d, rejected %d, served %zu requests, max queued %zu\n"
      "# pre-expired batch rejected: %s; mid-flight deadline shed %zu "
      "answers (chunk-aligned suffix)\n\n",
      admission.cap, admission.submitted, admission.admitted,
      admission.rejected, admission.served_requests, admission.max_queued_seen,
      admission.pre_expired_rejected ? "yes" : "no", admission.deadline_shed);

  const FairnessResult fairness =
      MeasureFairness(estimator, hot, hardening_workers);
  std::printf(
      "--- fairness: %zu-query client vs %zu-query client, %d workers ---\n"
      "# big: %d batches, mean %.0f us; small: %d batches, p50 %.0f us, "
      "p95 %.0f us (ratio %.3f)\n\n",
      fairness.big_batch, fairness.small_batch, fairness.workers,
      fairness.big_batches, fairness.big_mean_us, fairness.small_batches,
      fairness.small_p50_us, fairness.small_p95_us, fairness.ratio);

  const EpochsResult epochs =
      MeasureEpochs(table, estimator, hardening_workers);
  std::printf(
      "--- epochs: live publish(2)/retire(1) swap under load ---\n"
      "# %zu queries, cross-epoch CI overlap on %.1f%%, final registry "
      "holds only epoch 2: %s\n\n",
      epochs.queries, 100.0 * epochs.consistent_fraction,
      epochs.swap_ok ? "yes" : "no");

  WriteJson(json_path, rows, throughput, calibration, aggregates, admission,
            fairness, epochs);
  std::printf("# wrote %s\n", json_path.c_str());
}

}  // namespace
}  // namespace betalike

int main() {
  betalike::Run();
  return 0;
}
