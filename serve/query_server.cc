#include "serve/query_server.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace betalike {
namespace {

uint64_t ElapsedNanos(std::chrono::steady_clock::time_point start,
                      std::chrono::steady_clock::time_point stop) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
          .count());
}

// Zero placeholder fields carrying a non-kOk disposition.
ServedAnswer UnservedAnswer(AnswerStatus status) {
  ServedAnswer answer;
  answer.status = status;
  return answer;
}

}  // namespace

Result<double> NormalCriticalValue(double confidence) {
  // Fixed two-sided z values; shortest decimal round-trips of the
  // exact doubles. Levels are matched within a small absolute
  // tolerance: a confidence that arrives through arithmetic (say
  // 1.0 - 0.05) can sit an ULP away from the literal, and an exact ==
  // would reject it — the three supported levels are far enough apart
  // that the tolerance is unambiguous.
  constexpr double kTolerance = 1e-9;
  const auto matches = [confidence](double level) {
    const double delta = confidence - level;
    return delta < kTolerance && delta > -kTolerance;
  };
  if (matches(0.90)) return 1.6448536269514722;
  if (matches(0.95)) return 1.959963984540054;
  if (matches(0.99)) return 2.5758293035489004;
  return Status::InvalidArgument(
      "unsupported confidence level (use 0.90, 0.95, or 0.99)");
}

std::vector<ServedRequest> ExpandGroupBy(const AggregateQuery& query,
                                         int32_t sa_num_values) {
  std::vector<ServedRequest> requests;
  // A negative domain is a malformed schema, not a range to iterate:
  // expand to nothing (a zero domain already falls out of the clamp
  // below, but keeping the guard explicit documents the contract).
  if (sa_num_values < 0) return requests;
  int32_t lo = 0;
  int32_t hi = sa_num_values - 1;
  if (query.has_sa_predicate()) {
    lo = std::max(query.sa_lo, 0);
    hi = std::min(query.sa_hi, sa_num_values - 1);
  }
  if (lo > hi) return requests;
  requests.reserve(static_cast<size_t>(hi - lo + 1));
  for (int32_t v = lo; v <= hi; ++v) {
    requests.push_back({query, AggregateKind::kGroupCount, v});
  }
  return requests;
}

std::vector<ServedRequest> CountRequests(
    const std::vector<AggregateQuery>& queries) {
  std::vector<ServedRequest> requests;
  requests.reserve(queries.size());
  for (const AggregateQuery& query : queries) {
    requests.push_back({query, AggregateKind::kCount, 0});
  }
  return requests;
}

Result<std::unique_ptr<QueryServer>> QueryServer::Create(
    const QueryServerOptions& options) {
  if (options.num_workers < 1) {
    return Status::InvalidArgument("num_workers must be >= 1");
  }
  Result<double> z = NormalCriticalValue(options.confidence);
  if (!z.ok()) return z.status();
  return std::unique_ptr<QueryServer>(new QueryServer(options, *z));
}

QueryServer::QueryServer(const QueryServerOptions& options, double z)
    : options_(options), z_(z) {
  histograms_.reserve(options_.num_workers);
  for (int w = 0; w < options_.num_workers; ++w) {
    histograms_.push_back(std::make_unique<GuardedHistogram>());
  }
  // Worker 0 is the calling thread; spawn the rest of the pool.
  threads_.reserve(options_.num_workers - 1);
  for (int w = 1; w < options_.num_workers; ++w) {
    threads_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

QueryServer::~QueryServer() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  // Submitters blocked on admission wake and return FailedPrecondition
  // (their batches were never admitted, so there is nothing to drain).
  room_cv_.notify_all();
  // Pool threads only exit once every claimable chunk is claimed, and
  // each finishes the chunks it claimed, so every admitted future
  // completes before the join. Without a pool every job was answered
  // inline at submission and the queues were never used.
  for (std::thread& t : threads_) t.join();
}

Result<std::shared_ptr<QueryServer::BatchJob>> QueryServer::Submit(
    std::shared_ptr<const Estimator> estimator,
    std::vector<ServedRequest> batch, const SubmitOptions& options) {
  if (estimator == nullptr) {
    return Status::InvalidArgument("estimator must not be null");
  }
  auto job = std::make_shared<BatchJob>();
  job->done = job->promise.get_future();
  if (batch.empty()) {
    job->promise.set_value({});
    return job;
  }
  job->requests = std::move(batch);
  job->estimator = std::move(estimator);
  job->options = options;
  job->answers.resize(job->size());
  job->start = std::chrono::steady_clock::now();
  if (options.has_deadline() && job->start >= options.deadline) {
    // Checked before any admission or work: an already-expired batch
    // is rejected identically at every worker count.
    return Status::DeadlineExceeded(
        "batch deadline passed before submission");
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    Status admitted = AdmitLocked(lock, job->size());
    if (!admitted.ok()) return admitted;
    queued_requests_ += job->size();
    // Without a pool the submitting thread answers the whole job
    // itself, so there is nothing to queue.
    if (!threads_.empty()) EnqueueLocked(job);
  }
  work_cv_.notify_all();
  return job;
}

Result<std::future<std::vector<ServedAnswer>>> QueryServer::SubmitBatch(
    std::shared_ptr<const Estimator> estimator,
    std::vector<ServedRequest> batch, const SubmitOptions& options) {
  Result<std::shared_ptr<BatchJob>> job =
      Submit(std::move(estimator), std::move(batch), options);
  if (!job.ok()) return job.status();
  // No pool: answer on the submitting thread, completing the job (and
  // its future) before returning.
  if (threads_.empty()) DrainJob(*job);
  return std::move((*job)->done);
}

Result<std::vector<ServedAnswer>> QueryServer::AnswerBatch(
    std::shared_ptr<const Estimator> estimator,
    std::vector<ServedRequest> batch, const SubmitOptions& options) {
  Result<std::shared_ptr<BatchJob>> job =
      Submit(std::move(estimator), std::move(batch), options);
  if (!job.ok()) return job.status();
  // The caller helps as worker 0 (a no-op once the pool has claimed
  // every chunk), then waits out the chunks the pool holds.
  DrainJob(*job);
  return (*job)->done.get();
}

Status QueryServer::AdmitLocked(std::unique_lock<std::mutex>& lock,
                                size_t n) {
  if (shutdown_) {
    return Status::FailedPrecondition("server is shutting down");
  }
  const size_t cap = options_.max_queued_requests;
  if (cap == 0) return Status::Ok();
  if (options_.admission_policy == AdmissionPolicy::kReject) {
    if (queued_requests_ + n > cap) {
      return Status::ResourceExhausted(
          "queue full: admitting the batch would exceed "
          "max_queued_requests");
    }
    return Status::Ok();
  }
  // kBlock: wait for room. An over-cap batch can never fit, so it is
  // admitted alone once the queue fully drains instead of blocking
  // forever.
  room_cv_.wait(lock, [this, cap, n] {
    return shutdown_ || queued_requests_ == 0 ||
           queued_requests_ + n <= cap;
  });
  if (shutdown_) {
    return Status::FailedPrecondition("server is shutting down");
  }
  return Status::Ok();
}

void QueryServer::EnqueueLocked(const std::shared_ptr<BatchJob>& job) {
  const uint64_t client_id = job->options.client_id;
  ClientState& client = clients_[client_id];
  if (client.jobs.empty()) {
    client.deficit = 0;
    active_ring_.push_back(client_id);
  }
  client.jobs.push_back(job);
}

QueryServer::Chunk QueryServer::ClaimLocked(
    const std::shared_ptr<BatchJob>& job) {
  if (!job->expired && job->options.has_deadline() &&
      std::chrono::steady_clock::now() >= job->options.deadline) {
    job->expired = true;
  }
  Chunk chunk;
  chunk.job = job;
  chunk.begin = job->next_index;
  // An expired job sheds all remaining requests in one claim — they
  // cost no estimator work, so there is nothing to interleave.
  chunk.end = job->expired ? job->size()
                           : std::min(chunk.begin + kChunkSize, job->size());
  chunk.expired = job->expired;
  job->next_index = chunk.end;
  return chunk;
}

bool QueryServer::ClaimNextChunkLocked(Chunk* chunk) {
  while (!active_ring_.empty()) {
    const uint64_t client_id = active_ring_.front();
    auto it = clients_.find(client_id);
    BETALIKE_CHECK(it != clients_.end());
    ClientState& client = it->second;
    // Prune jobs fully claimed elsewhere (a synchronous caller drains
    // its own job without consulting the ring).
    while (!client.jobs.empty() &&
           client.jobs.front()->next_index >= client.jobs.front()->size()) {
      client.jobs.pop_front();
    }
    if (client.jobs.empty()) {
      active_ring_.pop_front();
      clients_.erase(it);
      continue;
    }
    // Deficit round robin, quantum = one chunk of requests: each turn
    // a client claims one chunk (a short tail chunk leaves change for
    // the next turn), then the ring rotates — so a competitor's
    // head-of-line delay is bounded by one chunk per active client,
    // not by a whole batch.
    if (client.deficit <= 0) {
      client.deficit += static_cast<int64_t>(kChunkSize);
    }
    *chunk = ClaimLocked(client.jobs.front());
    client.deficit -= static_cast<int64_t>(chunk->end - chunk->begin);
    if (chunk->end >= chunk->job->size()) client.jobs.pop_front();
    if (client.jobs.empty()) {
      active_ring_.pop_front();
      clients_.erase(it);
    } else if (client.deficit <= 0) {
      active_ring_.pop_front();
      active_ring_.push_back(client_id);
    }
    return true;
  }
  return false;
}

ServedAnswer QueryServer::AnswerOne(const Estimator& estimator,
                                    const ServedRequest& request) const {
  const AggregateQuery& query = request.query;
  if (!estimator.Validate(query).ok()) {
    return UnservedAnswer(AnswerStatus::kInvalidQuery);
  }
  const int32_t group_value = request.group_value;
  EstimateWithVariance ev;
  bool integer_valued = true;
  switch (request.kind) {
    case AggregateKind::kCount:
      ev = estimator.EstimateWithUncertainty(query);
      break;
    case AggregateKind::kSum:
      ev = estimator.EstimateSumWithUncertainty(query);
      break;
    case AggregateKind::kAvg:
      ev = estimator.EstimateAvgWithUncertainty(query);
      integer_valued = false;
      break;
    case AggregateKind::kGroupCount:
      if (group_value < 0 || group_value >= estimator.sa_num_values() ||
          (query.has_sa_predicate() &&
           (group_value < query.sa_lo || group_value > query.sa_hi))) {
        // Outside the publication's SA domain or the query's SA range
        // the slot is exactly zero — the ExpandGroupBy /
        // EstimateGroupByWithUncertainty convention. Building a
        // width-1 point query instead would hand the estimator an
        // out-of-domain range it never defines an answer for.
        break;
      } else {
        AggregateQuery point = query;
        point.sa_lo = group_value;
        point.sa_hi = group_value;
        ev = estimator.EstimateWithUncertainty(point);
      }
      break;
  }
  const double sd = DeterministicSqrt(ev.variance > 0.0 ? ev.variance : 0.0);
  // +0.5 continuity correction: the interval is for an integer-valued
  // aggregate estimated by a continuous model. AVG is a ratio, not an
  // integer, so it takes the plain z·sd half-width.
  const double half = integer_valued ? z_ * sd + 0.5 : z_ * sd;
  ServedAnswer out;
  out.estimate = ev.estimate;
  out.ci_lo = ev.estimate - half > 0.0 ? ev.estimate - half : 0.0;
  // An infinite variance (or any arithmetic that poisons `half`) must
  // widen the interval, never invalidate it: a NaN upper bound fails
  // every coverage comparison, so clamp it to +inf — "no upper
  // bound" — instead.
  const double hi = ev.estimate + half;
  out.ci_hi = hi == hi ? hi : kDoubleInfinity;
  return out;
}

void QueryServer::DrainJob(const std::shared_ptr<BatchJob>& job) {
  for (;;) {
    Chunk chunk;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (job->next_index >= job->size()) return;
      // The ring entry (if any) is pruned lazily by the pool when it
      // next looks at this client.
      chunk = ClaimLocked(job);
    }
    AnswerChunk(chunk, 0);
  }
}

void QueryServer::AnswerChunk(const Chunk& chunk, int worker) {
  BatchJob& job = *chunk.job;
  GuardedHistogram& guarded = *histograms_[worker];
  if (chunk.expired) {
    // Shed, not served: zero placeholders with kDeadlineExceeded, no
    // estimator work and no per-query latency samples.
    for (size_t i = chunk.begin; i < chunk.end; ++i) {
      job.answers[i] = UnservedAnswer(AnswerStatus::kDeadlineExceeded);
    }
  } else {
    for (size_t i = chunk.begin; i < chunk.end; ++i) {
      const auto start = std::chrono::steady_clock::now();
      job.answers[i] = AnswerOne(*job.estimator, job.requests[i]);
      const uint64_t nanos =
          ElapsedNanos(start, std::chrono::steady_clock::now());
      // The per-worker guard is all but uncontended (only observers
      // ever share it), but it makes concurrent MergedHistogram /
      // ResetHistograms well-defined on the async path, where there is
      // no "between batches" to snapshot in.
      std::lock_guard<std::mutex> lock(guarded.mu);
      guarded.hist.Record(nanos);
    }
  }
  // acq_rel: every worker's answer stores happen-before its own
  // fetch_add, so the last finisher (which observes completed == size)
  // sees all of them before moving the vector out.
  const size_t size = job.size();
  const size_t done =
      job.completed.fetch_add(chunk.end - chunk.begin,
                              std::memory_order_acq_rel) +
      (chunk.end - chunk.begin);
  if (done == size) {
    const uint64_t batch_nanos =
        ElapsedNanos(job.start, std::chrono::steady_clock::now());
    {
      std::lock_guard<std::mutex> lock(mu_);
      batch_histogram_.Record(batch_nanos);
      queued_requests_ -= size;
    }
    room_cv_.notify_all();
    job.promise.set_value(std::move(job.answers));
  }
}

void QueryServer::WorkerLoop(int worker) {
  for (;;) {
    Chunk chunk;
    {
      std::unique_lock<std::mutex> lock(mu_);
      for (;;) {
        if (ClaimNextChunkLocked(&chunk)) break;
        if (shutdown_) return;
        work_cv_.wait(lock);
      }
    }
    AnswerChunk(chunk, worker);
  }
}

LatencyHistogram QueryServer::MergedHistogram() const {
  LatencyHistogram merged;
  for (const auto& guarded : histograms_) {
    std::lock_guard<std::mutex> lock(guarded->mu);
    merged.Merge(guarded->hist);
  }
  return merged;
}

LatencyHistogram QueryServer::BatchHistogram() const {
  std::lock_guard<std::mutex> lock(mu_);
  return batch_histogram_;
}

void QueryServer::ResetHistograms() {
  for (const auto& guarded : histograms_) {
    std::lock_guard<std::mutex> lock(guarded->mu);
    guarded->hist.Reset();
  }
  std::lock_guard<std::mutex> lock(mu_);
  batch_histogram_.Reset();
}

size_t QueryServer::queued_requests() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_requests_;
}

}  // namespace betalike
