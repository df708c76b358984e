// Batched, multi-threaded aggregate serving over one anonymized
// publication (the ROADMAP's "millions of users" layer), hardened for
// overload: bounded admission, per-batch deadlines, and per-client
// fair scheduling.
//
// A QueryServer owns a shared, immutable Estimator (query/estimator.h)
// and a pool of persistent worker threads draining per-client queues
// of batch jobs. Every batch is a sequence of ServedRequests (COUNT is
// AggregateKind::kCount; CountRequests wraps a bare query workload),
// and every entry point builds the same kind of job:
//
//   - AnswerBatch(): synchronous — the caller enqueues its batch,
//     participates as one more worker, and blocks until every answer
//     is in. One in-flight synchronous batch at a time (a concurrent
//     second call CHECK-fails; see below). Exempt from admission
//     control (the blocking caller is its own back-pressure).
//   - SubmitBatch() / SubmitBatchOn(): asynchronous — the batch is
//     moved into an owned job and a std::future of the answers is
//     returned, subject to admission control: when
//     `max_queued_requests` is set, a batch that would overflow the
//     queue either blocks until there is room (AdmissionPolicy::kBlock)
//     or is shed with a ResourceExhausted status (kReject) instead of
//     growing the queue without bound. Any number of client threads
//     may submit concurrently. SubmitBatchOn serves against an
//     estimator the caller supplies (the EpochServer hook).
//
// Every request is checked with Estimator::Validate first; a malformed
// one is answered AnswerStatus::kInvalidQuery, never read out of
// bounds, and the rest of its batch is served normally.
//
// Scheduling is deficit-round-robin over per-client queues at chunk
// granularity: each batch is split into fixed-size chunks, and the
// pool serves one chunk per client per turn (clients identified by
// SubmitOptions::client_id, batches of one client FIFO among
// themselves). A small batch therefore waits at most one chunk per
// competing client, never a competitor's whole batch — the strict-FIFO
// head-of-line blocking this replaces. Every answer depends only on
// its request and the immutable estimator, so the result vector is
// bit-identical for any worker count, scheduling order, admission
// configuration, or sync/async entry point.
//
// A batch may carry a steady-clock deadline. Expiry is checked at
// chunk-claim granularity: once a claim observes the deadline passed,
// the batch is expired for all of its remaining (unclaimed) requests,
// which are answered with ServedAnswer::status == kDeadlineExceeded
// and zero estimates instead of being computed. Because chunks are
// claimed in index order, the expired answers of a batch always form a
// chunk-aligned suffix — the answers are reproducible given the cut
// point. A batch whose deadline has already passed at submission is
// rejected with a DeadlineExceeded status by SubmitBatch (identically
// at every worker count); the synchronous AnswerBatch, which cannot
// return a status, answers it with every status set to
// kDeadlineExceeded.
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
#include "common/span.h"
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
  // Total workers answering a batch, *including* the calling thread of
  // a synchronous AnswerBatch: 1 answers inline (SubmitBatch then
  // completes on the submitting thread before returning), n spawns
  // n-1 pool threads.
  int num_workers = 1;
  // Nominal two-sided coverage of the served intervals.
  double confidence = 0.95;
  // Queries claimed per cursor increment. Large enough to amortize the
  // claim, small enough to balance a skewed batch; also the
  // deficit-round-robin quantum, so it bounds how long one client can
  // hold the pool per turn.
  int chunk_size = 64;
  // Admission cap: total async requests admitted but not yet finished,
  // summed over every queued batch. 0 means unbounded (the pre-
  // admission-control behavior). Synchronous batches are exempt.
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
  // Validates the options (non-null estimator, num_workers ≥ 1,
  // chunk_size ≥ 1, supported confidence) and starts the pool.
  static Result<std::unique_ptr<QueryServer>> Create(
      std::shared_ptr<const Estimator> estimator,
      const QueryServerOptions& options);

  // Drains every queued job (pending futures still complete), wakes
  // any submitter blocked on admission (their SubmitBatch returns
  // FailedPrecondition), then joins the pool. Clients must not call
  // SubmitBatch/AnswerBatch concurrently with destruction — share the
  // server (shared_ptr) if its lifetime is not externally ordered
  // after every client's last call.
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  // Answers every request in `batch`, in order. Deterministic: the
  // result depends only on the batch, the publication, and the
  // deadline cut point (if any). Synchronous and not reentrant —
  // a second thread calling while a batch is in flight CHECK-fails
  // (concurrent clients must use SubmitBatch); the batch Span must
  // stay valid until the call returns, which the blocking guarantees.
  std::vector<ServedAnswer> AnswerBatch(Span<ServedRequest> batch,
                                        const SubmitOptions& options = {});

  // Asynchronous submission: moves the batch into an owned job, queues
  // it on its client's queue, and returns a future that yields the
  // answers (same values, bit for bit, as AnswerBatch).
  // Safe to call from any number of client threads concurrently.
  // Error returns instead of a future:
  //   - DeadlineExceeded: the batch's deadline had already passed at
  //     submission (checked before any work, so identical at every
  //     worker count);
  //   - ResourceExhausted: admission policy kReject and the batch
  //     would overflow max_queued_requests;
  //   - FailedPrecondition: the server began shutting down while this
  //     submission was blocked on admission.
  // With num_workers == 1 there is no pool, so an admitted batch is
  // answered on the submitting thread and the returned future is
  // already ready.
  Result<std::future<std::vector<ServedAnswer>>> SubmitBatch(
      std::vector<ServedRequest> batch, const SubmitOptions& options = {});

  // As SubmitBatch, but served against `estimator` instead of the
  // server's own — the multi-epoch hook (serve/epoch_server.h): one
  // pool serves many immutable publications, each job pinning shared
  // ownership of the estimator it was routed to, so a publication can
  // be retired from a registry without pausing its in-flight batches.
  // The estimator must be non-null (InvalidArgument otherwise) and,
  // like the server's own, immutable and thread-shareable.
  Result<std::future<std::vector<ServedAnswer>>> SubmitBatchOn(
      std::shared_ptr<const Estimator> estimator,
      std::vector<ServedRequest> batch, const SubmitOptions& options = {});

  // Per-worker latency histogram of individual query service times
  // (worker 0 is the thread calling AnswerBatch, or the submitting
  // thread when num_workers == 1). Returns a snapshot copy taken under
  // the worker's histogram guard — safe to call while the pool is
  // recording.
  LatencyHistogram worker_histogram(int worker) const;
  // All workers' histograms merged (a guarded snapshot, like above).
  LatencyHistogram MergedHistogram() const;

  // Whole-batch latency attribution: one sample per completed batch,
  // measured from submission (or the start of a synchronous call) to
  // the last answer — so queueing delay behind earlier jobs, and any
  // kBlock admission wait, is included: that is what an async client
  // experiences. Safe to call while serving.
  LatencyHistogram BatchHistogram() const;

  void ResetHistograms();

  // Async requests admitted but not yet finished (the quantity
  // max_queued_requests caps). Snapshot; moves under load.
  size_t queued_requests() const;

  int num_workers() const { return options_.num_workers; }
  double confidence() const { return options_.confidence; }

 private:
  // One queued batch. Async jobs own their requests; the synchronous
  // path borrows the caller's span (the caller blocks until the job
  // completes, keeping it valid).
  struct BatchJob {
    // The requests served: `owned_requests` for async jobs, the
    // caller's storage for a synchronous one.
    Span<ServedRequest> requests;
    std::vector<ServedRequest> owned_requests;

    // The estimator this job is served against (the server's own, or
    // the per-epoch one from SubmitBatchOn). Shared ownership keeps a
    // retired epoch's publication alive until its last in-flight batch
    // completes.
    std::shared_ptr<const Estimator> estimator;

    std::vector<ServedAnswer> answers;
    size_t next_index = 0;  // chunk-claim cursor, guarded by mu_
    // Deadline tripped at a chunk claim: every later claim of this job
    // sheds instead of computing. Guarded by mu_ (claims happen under
    // the lock).
    bool expired = false;
    std::chrono::steady_clock::time_point deadline;
    bool has_deadline = false;
    // Counted toward queued_requests_ (async pool jobs only).
    bool counted = false;
    std::atomic<size_t> completed{0};  // answers finished
    std::chrono::steady_clock::time_point start;
    std::promise<std::vector<ServedAnswer>> promise;

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

  QueryServer(std::shared_ptr<const Estimator> estimator,
              const QueryServerOptions& options, double z);

  // The one place a job is set up: served against `estimator`, over
  // `owned` when it is non-empty (async; moved into the job) or else
  // over the borrowed `requests` (the synchronous caller's storage),
  // with answers sized, the start stamped, and `options`' deadline.
  std::shared_ptr<BatchJob> NewJob(std::shared_ptr<const Estimator> estimator,
                                   std::vector<ServedRequest> owned,
                                   Span<ServedRequest> requests,
                                   const SubmitOptions& options) const;

  // One answer: validation, then the kind dispatch — every entry point
  // shares the exact operation sequence.
  ServedAnswer AnswerOne(const Estimator& estimator,
                         const ServedRequest& request) const;

  // Admission (pool mode, under mu_): Ok to enqueue, or the shed /
  // shutdown status. Blocks on room_cv_ under kBlock.
  Status AdmitLocked(std::unique_lock<std::mutex>& lock, size_t n);

  // Queues `job` on its client's queue and wakes the pool. Every job
  // must already carry its estimator, answers, start stamp, deadline.
  void EnqueueLocked(const std::shared_ptr<BatchJob>& job,
                     uint64_t client_id);

  // The deficit-round-robin pick: claims the next chunk across all
  // client queues, pruning exhausted jobs and idle clients as it goes.
  // Returns false when nothing is claimable.
  bool ClaimNextChunkLocked(Chunk* chunk);

  // Claims chunks of `job` only (the synchronous caller helping its
  // own batch, and the poolless inline path) until its cursor is
  // exhausted.
  void DrainJob(const std::shared_ptr<BatchJob>& job, int worker);

  // Computes (or sheds) a claimed chunk, recording per-query latency
  // into histograms_[worker]; the worker that finishes the job's last
  // answer records the batch latency, releases the admission count,
  // and fulfills the promise.
  void AnswerChunk(const Chunk& chunk, int worker);

  // Claims whether this job's deadline has passed (under mu_),
  // latching expired.
  bool CheckExpiryLocked(BatchJob& job) const;

  // Pool thread main: claim chunks until the queues are empty and
  // shutdown is requested.
  void WorkerLoop(int worker);

  const std::shared_ptr<const Estimator> estimator_;
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

  // Guard against concurrent *synchronous* calls: AnswerBatch borrows
  // the caller's storage, so overlapping calls are a client bug —
  // caught loudly instead of racing.
  std::atomic<int> sync_calls_{0};

  // Per-worker histograms, each behind its own light guard: pool
  // workers Record() while observers merge/reset concurrently (the
  // async path has no quiescent point), which was a genuine data race
  // when the counters were bare.
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
