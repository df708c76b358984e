// Batched, multi-threaded aggregate serving (the ROADMAP's "millions
// of users" layer), hardened for overload: bounded admission,
// per-batch deadlines, and per-client fair scheduling.
//
// A QueryServer is the estimator-agnostic scheduler EpochServer
// (serve/epoch_server.h) owns: a pool of persistent worker threads
// draining per-client queues of batch jobs. Every batch is a sequence
// of ServedRequests (COUNT is AggregateKind::kCount; CountRequests
// wraps a bare query workload) served against the immutable,
// thread-shareable Estimator the caller routes it to. Every batch
// becomes one owned job — the job owns its requests and pins shared
// ownership of its estimator, so a publication can be retired from a
// registry without pausing its in-flight batches. Both entry points
// build that job through one submit path:
//
//   - SubmitBatch(): asynchronous — returns a std::future of the
//     answers.
//   - AnswerBatch(): synchronous — submits, then drains its own job as
//     one more worker alongside the pool, then waits for the answers.
//
// Any number of client threads may call either concurrently, and both
// obey the same rules. Admission: when `max_queued_requests` is set, a
// batch that would push the admitted-but-unfinished requests past the
// cap either blocks until there is room (AdmissionPolicy::kBlock) or is
// shed with a ResourceExhausted status (kReject) instead of growing the
// queue without bound.
//
// Every request is checked with Estimator::Validate first; a malformed
// one is answered AnswerStatus::kInvalidQuery, never read out of
// bounds, and the rest of its batch is served normally.
//
// Scheduling is deficit-round-robin over per-client queues at chunk
// granularity: each batch is split into kChunkSize-request chunks, and
// the pool serves one chunk per client per turn (clients identified by
// SubmitOptions::client_id, batches of one client FIFO among
// themselves). A small batch therefore waits at most one chunk per
// competing client, never a competitor's whole batch — the strict-FIFO
// head-of-line blocking this replaces. Every answer depends only on
// its request and the immutable estimator, so the result vector is
// bit-identical for any worker count, scheduling order, admission
// configuration, or entry point.
//
// A batch may carry a steady-clock deadline. A batch whose deadline
// has already passed at submission is rejected with a DeadlineExceeded
// status by both entry points, before any admission or work (so
// identically at every worker count). Later expiry is checked at
// chunk-claim granularity: once a claim observes the deadline passed,
// the batch is expired for all of its remaining (unclaimed) requests,
// which are answered with ServedAnswer::status == kDeadlineExceeded
// and zero estimates instead of being computed. Because chunks are
// claimed in index order, the expired answers of a batch always form a
// chunk-aligned suffix — the answers are reproducible given the cut
// point.
//
// Requests cover four aggregates: COUNT(*), SUM(SA), AVG(SA), and
// GROUP-BY-SA COUNT slots (one width-1 count per SA value; see
// ExpandGroupBy). Each answer carries a confidence interval derived
// from the estimator's model variance: half-width = z·sqrt(variance),
// plus a +0.5 continuity correction for the integer-valued aggregates
// (COUNT and its GROUP-BY slots, SUM of integer codes) but not AVG.
// All interval arithmetic uses integer/IEEE operations only (Newton's
// method sqrt, a fixed z table) so served intervals are identical
// across platforms — no libm.
#ifndef BETALIKE_SERVE_QUERY_SERVER_H_
#define BETALIKE_SERVE_QUERY_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/deterministic_math.h"
#include "common/status.h"
#include "query/estimator.h"
#include "serve/latency_histogram.h"

namespace betalike {

// Two-sided standard-normal critical value for the supported
// confidence levels (0.90, 0.95, 0.99), matched within a small
// absolute tolerance — a level that arrives through arithmetic
// (e.g. 1 - 0.05) may differ from the literal by an ULP, which must
// not be rejected. InvalidArgument for anything else. Fixed constants,
// not an erf⁻¹ evaluation, for cross-platform identity.
Result<double> NormalCriticalValue(double confidence);

// The aggregate a served request asks for.
enum class AggregateKind {
  kCount,       // COUNT(*) — the original served aggregate
  kSum,         // SUM(SA) over the matching rows
  kAvg,         // AVG(SA) = SUM/COUNT (no continuity correction)
  kGroupCount,  // one GROUP-BY-SA slot: COUNT at SA value group_value
};

// One client request: a query plus the aggregate to serve for it. For
// kGroupCount, `group_value` selects the SA value of the slot; the
// answer is bitwise the same slot of
// Estimator::EstimateGroupByWithUncertainty (zero when the value lies
// outside the query's SA range or outside the publication's SA domain
// [0, sa_num_values) — both are exact-zero slots, the ExpandGroupBy
// convention). `group_value` is ignored by the other kinds.
struct ServedRequest {
  AggregateQuery query;
  AggregateKind kind = AggregateKind::kCount;
  int32_t group_value = 0;
};

// Expands a GROUP-BY-SA query into its width-1 kGroupCount requests —
// one per SA value in the query's effective range (the full domain
// [0, sa_num_values) when it has no SA predicate); empty when the
// clamped range is, and empty for a malformed negative domain
// (sa_num_values < 0) rather than yielding requests against it.
// Serving the expansion yields, slot for slot, the in-range entries of
// EstimateGroupByWithUncertainty.
std::vector<ServedRequest> ExpandGroupBy(const AggregateQuery& query,
                                         int32_t sa_num_values);

// One kCount request per query, in order — the served form of a
// COUNT(*) workload.
std::vector<ServedRequest> CountRequests(
    const std::vector<AggregateQuery>& queries);

// Per-answer disposition. Anything other than kOk means the estimate
// and interval fields are zero placeholders, not served values.
enum class AnswerStatus : int32_t {
  kOk = 0,
  // The batch's deadline passed before this request's chunk was
  // claimed; the request was shed, not computed.
  kDeadlineExceeded = 1,
  // The request's query failed Estimator::Validate (a predicate
  // dimension outside the schema, or a duplicate dimension); it was
  // rejected, not computed.
  kInvalidQuery = 2,
};

// One served answer: the point estimate (bit-identical to the matching
// Estimator method) and a confidence interval at the server's
// configured level. ci_lo is clamped at 0 (every served aggregate of
// non-negative SA codes is non-negative). The struct is padding-free
// (static_assert below) so answer vectors can be compared with memcmp
// — the determinism gates rely on that.
struct ServedAnswer {
  double estimate = 0.0;
  double ci_lo = 0.0;
  double ci_hi = 0.0;
  AnswerStatus status = AnswerStatus::kOk;
  int32_t reserved = 0;  // explicit tail padding, always zero
};
static_assert(sizeof(ServedAnswer) == 32,
              "ServedAnswer must stay padding-free for memcmp identity");

// What SubmitBatch does when admitting a batch would push the queue
// past max_queued_requests.
enum class AdmissionPolicy {
  // Block the submitting thread until the queue has room (or the
  // server shuts down). A batch larger than the cap is admitted alone
  // once the queue fully drains, so it cannot deadlock.
  kBlock,
  // Shed the batch: SubmitBatch returns ResourceExhausted and the
  // queue is untouched. A batch larger than the cap is always shed.
  kReject,
};

struct QueryServerOptions {
  // Total workers answering a batch, *including* the calling thread:
  // 1 answers every batch on the thread that submits it (SubmitBatch
  // then returns an already-ready future), n spawns n-1 pool threads.
  int num_workers = 1;
  // Nominal two-sided coverage of the served intervals.
  double confidence = 0.95;
  // Admission cap: total requests admitted but not yet finished,
  // summed over every in-flight batch. 0 means unbounded (the pre-
  // admission-control behavior).
  size_t max_queued_requests = 0;
  AdmissionPolicy admission_policy = AdmissionPolicy::kBlock;
};

// Per-submission routing: which client the batch belongs to (for fair
// scheduling) and an optional deadline.
struct SubmitOptions {
  // Batches of one client are served FIFO among themselves; distinct
  // clients round-robin at chunk granularity.
  uint64_t client_id = 0;
  // Steady-clock deadline; time_point::max() (the default) means none.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();

  bool has_deadline() const {
    return deadline != std::chrono::steady_clock::time_point::max();
  }
};

class QueryServer {
 public:
  // Requests claimed per cursor increment. Large enough to amortize the
  // claim, small enough to balance a skewed batch; also the
  // deficit-round-robin quantum, so it bounds how long one client can
  // hold the pool per turn.
  static constexpr size_t kChunkSize = 64;

  // Validates the options (num_workers >= 1, supported confidence) and
  // starts the pool.
  static Result<std::unique_ptr<QueryServer>> Create(
      const QueryServerOptions& options);

  // Drains every queued job (pending futures still complete), wakes
  // any submitter blocked on admission (its call returns
  // FailedPrecondition), then joins the pool. Clients must not call
  // SubmitBatch/AnswerBatch concurrently with destruction — share the
  // server (shared_ptr) if its lifetime is not externally ordered
  // after every client's last call.
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  // Moves the batch into an owned job served against `estimator`,
  // queues it on its client's queue, and returns a future that yields
  // the answers, in request order. Deterministic: the answers depend
  // only on the batch, the estimator, and the deadline cut point (if
  // any). Error returns instead of a future:
  //   - InvalidArgument: `estimator` is null;
  //   - DeadlineExceeded: the batch's deadline had already passed at
  //     submission (checked before any work, so identical at every
  //     worker count);
  //   - ResourceExhausted: admission policy kReject and the batch
  //     would overflow max_queued_requests;
  //   - FailedPrecondition: the server began shutting down while this
  //     submission was blocked on admission.
  // With num_workers == 1 there is no pool, so an admitted batch is
  // answered on the submitting thread and the returned future is
  // already ready. The estimator must be immutable and
  // thread-shareable; the job keeps it alive until the batch is done.
  Result<std::future<std::vector<ServedAnswer>>> SubmitBatch(
      std::shared_ptr<const Estimator> estimator,
      std::vector<ServedRequest> batch, const SubmitOptions& options = {});

  // SubmitBatch, then the calling thread drains its own job as one
  // more worker (the pool helps), then waits for the answers — bit for
  // bit those of SubmitBatch, with the same error returns.
  Result<std::vector<ServedAnswer>> AnswerBatch(
      std::shared_ptr<const Estimator> estimator,
      std::vector<ServedRequest> batch, const SubmitOptions& options = {});

  // All workers' per-query service-time histograms merged (worker 0 is
  // every thread answering its own batch). A snapshot copy taken under
  // each worker's histogram guard — safe to call while the pool is
  // recording.
  LatencyHistogram MergedHistogram() const;

  // Whole-batch latency attribution: one sample per completed batch,
  // measured from submission to the last answer — so queueing delay
  // behind earlier jobs, and any kBlock admission wait, is included:
  // that is what a client experiences. Safe to call while serving.
  LatencyHistogram BatchHistogram() const;

  void ResetHistograms();

  // Requests admitted but not yet finished (the quantity
  // max_queued_requests caps). Snapshot; moves under load.
  size_t queued_requests() const;

  int num_workers() const { return options_.num_workers; }
  double confidence() const { return options_.confidence; }

 private:
  // One submitted batch: it owns its requests and pins its estimator —
  // shared ownership keeps a retired epoch's publication alive until
  // its last in-flight batch completes.
  struct BatchJob {
    std::vector<ServedRequest> requests;
    std::shared_ptr<const Estimator> estimator;
    SubmitOptions options;

    std::vector<ServedAnswer> answers;
    size_t next_index = 0;  // chunk-claim cursor, guarded by mu_
    // Deadline tripped at a chunk claim: every later claim of this job
    // sheds instead of computing. Guarded by mu_ (claims happen under
    // the lock).
    bool expired = false;
    std::atomic<size_t> completed{0};  // answers finished
    std::chrono::steady_clock::time_point start;
    std::promise<std::vector<ServedAnswer>> promise;
    // The submitter's end of `promise`, taken before the job is
    // queued; only the submitting thread touches it.
    std::future<std::vector<ServedAnswer>> done;

    size_t size() const { return requests.size(); }
  };

  // A claimed slice of one job: requests [begin, end), either to be
  // computed or (expired) filled with kDeadlineExceeded placeholders.
  struct Chunk {
    std::shared_ptr<BatchJob> job;
    size_t begin = 0;
    size_t end = 0;
    bool expired = false;
  };

  // One client's pending jobs plus its deficit-round-robin balance, in
  // request units.
  struct ClientState {
    std::deque<std::shared_ptr<BatchJob>> jobs;
    int64_t deficit = 0;
  };

  QueryServer(const QueryServerOptions& options, double z);

  // The one submit path: builds the owned job, rejects an expired or
  // inadmissible batch, and (with a pool) queues the job. An empty
  // batch yields a job whose answers are already delivered.
  Result<std::shared_ptr<BatchJob>> Submit(
      std::shared_ptr<const Estimator> estimator,
      std::vector<ServedRequest> batch, const SubmitOptions& options);

  // One answer: validation, then the kind dispatch — every entry point
  // shares the exact operation sequence.
  ServedAnswer AnswerOne(const Estimator& estimator,
                         const ServedRequest& request) const;

  // Admission (under mu_): Ok to admit, or the shed / shutdown status.
  // Blocks on room_cv_ under kBlock.
  Status AdmitLocked(std::unique_lock<std::mutex>& lock, size_t n);

  // Queues `job` on its client's queue. Every job must already carry
  // its estimator, answers, start stamp, and options.
  void EnqueueLocked(const std::shared_ptr<BatchJob>& job);

  // The one chunk-claim routine (under mu_): slices the next
  // [begin, end) off `job` — one chunk, or its whole unclaimed rest
  // once a check finds the deadline passed — and advances its cursor.
  Chunk ClaimLocked(const std::shared_ptr<BatchJob>& job);

  // The deficit-round-robin pick: claims the next chunk across all
  // client queues, pruning exhausted jobs and idle clients as it goes.
  // Returns false when nothing is claimable.
  bool ClaimNextChunkLocked(Chunk* chunk);

  // Claims chunks of `job` only (a synchronous caller helping its own
  // batch, and the poolless inline path) until its cursor is
  // exhausted.
  void DrainJob(const std::shared_ptr<BatchJob>& job);

  // Computes (or sheds) a claimed chunk, recording per-query latency
  // into histograms_[worker]; the worker that finishes the job's last
  // answer records the batch latency, releases the admission count,
  // and fulfills the promise.
  void AnswerChunk(const Chunk& chunk, int worker);

  // Pool thread main: claim chunks until the queues are empty and
  // shutdown is requested.
  void WorkerLoop(int worker);

  const QueryServerOptions options_;
  const double z_;  // critical value for options_.confidence

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // pool waits for claimable chunks
  std::condition_variable room_cv_;  // kBlock submitters wait for room
  // Fair-scheduling state, all guarded by mu_: per-client queues, the
  // round-robin ring of clients with pending work, and the admission
  // count.
  std::unordered_map<uint64_t, ClientState> clients_;
  std::deque<uint64_t> active_ring_;
  size_t queued_requests_ = 0;
  bool shutdown_ = false;

  // Per-worker histograms, each behind its own light guard: workers
  // Record() while observers merge/reset concurrently (the async path
  // has no quiescent point), which was a genuine data race when the
  // counters were bare. Worker 0 is shared by every thread draining
  // its own job.
  struct GuardedHistogram {
    mutable std::mutex mu;
    LatencyHistogram hist;
  };
  std::vector<std::unique_ptr<GuardedHistogram>> histograms_;
  LatencyHistogram batch_histogram_;  // guarded by mu_
  std::vector<std::thread> threads_;
};

}  // namespace betalike

#endif  // BETALIKE_SERVE_QUERY_SERVER_H_
