// The serving front: one QueryServer pool fronting N immutable
// (epoch_id, Estimator) publications of the same logical table. A
// single-publication server is an EpochServer with one epoch.
//
// The republication story (ROADMAP; SNIPPETS.md Snippet 1,
// DBSP-style view maintenance) produces a fresh anonymized
// publication per epoch while the previous one is still serving
// traffic. EpochServer makes the hand-off safe and pause-free:
//
//   - The set of live publications is an immutable Registry snapshot
//     behind an atomically swapped shared_ptr. Routing a batch reads
//     one snapshot; PublishEpoch/RetireEpoch build a new snapshot and
//     swap it in. Readers never block writers and vice versa.
//   - Every routed batch becomes an owned QueryServer job that pins
//     shared ownership of the estimator it resolved, so RetireEpoch
//     returns immediately and the retired publication is freed only
//     after its last in-flight batch completes. In-flight batches are
//     never paused, re-routed, or cancelled by a swap.
//   - Epoch ids are client-chosen, distinct, and typically increasing;
//     "latest" is the numerically largest live id, and a batch routed
//     with kLatestEpoch (the default) binds to the latest epoch at
//     submission time — a concurrent publish does not re-route it.
//
// SubmitBatch (a future) and AnswerBatch (the answers, with the caller
// helping the pool) route identically and share every QueryServer
// rule: admission, deadlines, fair scheduling, any number of
// concurrent callers.
//
// Consistency across adjacent epochs is checked with
// CrossEpochConsistent: the same query served on epoch k and k+1 of
// the same table must agree within the union of their confidence
// intervals (the intervals must overlap). bench_qps CHECKs this over
// a live swap.
#ifndef BETALIKE_SERVE_EPOCH_SERVER_H_
#define BETALIKE_SERVE_EPOCH_SERVER_H_

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "serve/query_server.h"

namespace betalike {

// True when the two answers to the same query, served on different
// epochs of the same table, are mutually consistent: both were
// actually served (status kOk) and their confidence intervals
// overlap — each estimate then lies within the union of the two
// intervals. Two publications of the same data whose intervals are
// disjoint indicate a broken epoch, not sampling noise.
bool CrossEpochConsistent(const ServedAnswer& a, const ServedAnswer& b);

class EpochServer {
 public:
  // Routes to the numerically largest live epoch id.
  static constexpr int64_t kLatestEpoch = -1;

  // Starts the shared pool (same options as QueryServer::Create) with
  // `epoch_id` → `estimator` as the first live publication. Epoch ids
  // must be non-negative (kLatestEpoch is the routing sentinel).
  static Result<std::unique_ptr<EpochServer>> Create(
      int64_t epoch_id, std::shared_ptr<const Estimator> estimator,
      const QueryServerOptions& options);

  // Queued batches drain (their futures complete) before the pool
  // joins — the QueryServer destructor contract.
  ~EpochServer() = default;

  EpochServer(const EpochServer&) = delete;
  EpochServer& operator=(const EpochServer&) = delete;

  // Adds a live publication. The estimator must be non-null and
  // immutable; `epoch_id` must be non-negative and not already live
  // (InvalidArgument otherwise). Batches submitted with kLatestEpoch
  // after the swap route to it if its id is now the largest; batches
  // already in flight are unaffected.
  Status PublishEpoch(int64_t epoch_id,
                      std::shared_ptr<const Estimator> estimator);

  // Removes a live publication. NotFound when `epoch_id` is not live;
  // FailedPrecondition when it is the only one left (a server with
  // zero epochs could not route anything). In-flight batches on the
  // retired epoch run to completion; the publication is freed when the
  // last of them finishes.
  Status RetireEpoch(int64_t epoch_id);

  // Live epoch ids, ascending. Snapshot; a concurrent swap may change
  // the registry immediately after.
  std::vector<int64_t> epochs() const;
  int64_t latest_epoch() const;

  // Routes the batch to `epoch_id` (resolved against the registry
  // snapshot at submission) and submits it on the shared pool —
  // admission control, deadlines, and fair scheduling all apply
  // exactly as in QueryServer::SubmitBatch. NotFound when the epoch is
  // not live; the QueryServer submission errors (DeadlineExceeded /
  // ResourceExhausted / FailedPrecondition) pass through.
  Result<std::future<std::vector<ServedAnswer>>> SubmitBatch(
      std::vector<ServedRequest> batch, int64_t epoch_id = kLatestEpoch,
      const SubmitOptions& options = {});

  // Routes exactly as SubmitBatch, then answers through
  // QueryServer::AnswerBatch: the calling thread helps the pool and
  // returns the answers, or the same error statuses.
  Result<std::vector<ServedAnswer>> AnswerBatch(
      std::vector<ServedRequest> batch, int64_t epoch_id = kLatestEpoch,
      const SubmitOptions& options = {});

  // The shared pool, for histogram observation and configuration.
  const QueryServer& query_server() const { return *server_; }
  QueryServer& query_server() { return *server_; }

 private:
  // One immutable snapshot of the live publications, ordered by
  // ascending epoch id (so back() is the latest).
  struct Registry {
    std::vector<std::pair<int64_t, std::shared_ptr<const Estimator>>> epochs;
  };

  EpochServer(std::unique_ptr<QueryServer> server,
              std::shared_ptr<const Registry> registry);

  std::shared_ptr<const Registry> Snapshot() const;

  // The live estimator for `epoch_id` (kLatestEpoch for the latest);
  // NotFound when the epoch is not live. The returned shared_ptr stays
  // valid past retirement — it pins the publication like an in-flight
  // batch does.
  Result<std::shared_ptr<const Estimator>> EpochEstimator(
      int64_t epoch_id) const;

  std::unique_ptr<QueryServer> server_;
  // Swapped with std::atomic_store / read with std::atomic_load;
  // writers additionally serialize on mu_ so publish/retire
  // read-modify-writes do not lose updates.
  std::shared_ptr<const Registry> registry_;
  std::mutex mu_;  // serializes PublishEpoch / RetireEpoch
};

}  // namespace betalike

#endif  // BETALIKE_SERVE_EPOCH_SERVER_H_
