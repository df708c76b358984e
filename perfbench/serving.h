// The analyst side of every workload: closed-loop clients, a bulk
// phase, and the open-loop sustained-rate ladder, all submitting
// ServedRequest batches through EpochServer::SubmitBatch.
#ifndef PERFBENCH_SERVING_H_
#define PERFBENCH_SERVING_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "perfbench/pool.h"
#include "perfbench/trace.h"
#include "perfbench/util.h"
#include "serve/epoch_server.h"

namespace perfbench {

using betalike::EpochServer;

constexpr int kClients = 2;      // closed-loop client threads
constexpr int kPoolThreads = 2;  // EpochServer pool threads
constexpr int kFirstEpoch = 1;   // the release every workload serves first

struct ServeSettings {
  double latency_s = 4.0;   // closed loop of small batches
  double bulk_s = 2.0;      // closed loop of large batches
  double rung_s = 0.2;      // ladder bisection step; doubling steps a sixth
  int small_max = 6;        // requests per small batch: 1..small_max
  int group_percent = 0;    // share of small-loop batches that are GROUP-BY
  int bulk_batch = 4096;    // requests per bulk batch
  // Admission cap (requests), reject policy: room for a few hundred ms
  // of backlog at the generalized knee, so a short host stall is
  // absorbed by the queue instead of being shed.
  size_t max_queued = size_t{1} << 16;
};

// Per-epoch expectations; epoch e (1-based) is expected[e - 1].
struct ServeInputs {
  EpochServer* server = nullptr;
  const RequestPool* pool = nullptr;
  std::vector<const Expected*> expected;
  // When set, published as epoch 2 halfway through the latency loop.
  std::shared_ptr<const betalike::Estimator> second_epoch;
  ServeSettings settings;
  uint64_t seed = 1;
  bool trace = false;
};

struct BatchRecord {
  int64_t submit_ns = 0;
  int64_t submitted_ns = 0;
  int64_t ready_ns = 0;
  const void* begin = nullptr;  // request buffer the server takes over
  const void* end = nullptr;
  uint64_t fingerprint = 0;  // GROUP-BY batches: their query's fingerprint
  int32_t epoch = 1;
  int32_t size = 0;
  int64_t own_ns = 0;  // estimator time attributed to this batch
};

struct ClientLog {
  std::vector<BatchRecord> batches;
  int64_t answers = 0;
  int64_t errors = 0;      // submission errors and non-OK answers
  int64_t mismatches = 0;  // answers not bit-identical to the direct call
  size_t queued_max = 0;
  // First answer seen per (epoch, item): repeats must be memcmp-equal.
  std::vector<std::vector<ServedAnswer>> first;
  std::vector<std::vector<char>> seen;

  void Init(size_t epochs, size_t items) {
    first.assign(epochs, std::vector<ServedAnswer>(items));
    seen.assign(epochs, std::vector<char>(items, 0));
  }
};

// Checks a batch's answers against the direct estimates of `epoch`.
inline void CheckAnswers(const ServeInputs& in, const std::vector<int>& items,
                         const std::vector<ServedAnswer>& answers, int epoch,
                         ClientLog* log) {
  const Expected& expected = *in.expected[epoch - 1];
  if (answers.size() != items.size()) {
    log->errors += static_cast<int64_t>(items.size());
    return;
  }
  for (size_t i = 0; i < items.size(); ++i) {
    const ServedAnswer& a = answers[i];
    const int item = items[i];
    if (a.status != betalike::AnswerStatus::kOk) ++log->errors;
    if (std::memcmp(&a.estimate, &expected.estimate[item], sizeof(double)) !=
        0) {
      ++log->mismatches;
    }
    if (log->seen[epoch - 1][item]) {
      if (std::memcmp(&a, &log->first[epoch - 1][item], sizeof a) != 0) {
        ++log->mismatches;
      }
    } else {
      log->seen[epoch - 1][item] = 1;
      log->first[epoch - 1][item] = a;
    }
  }
  log->answers += static_cast<int64_t>(items.size());
}

// Draws the next batch: `bulk` batches hold settings.bulk_batch plain
// requests, small ones 1..small_max, or a whole GROUP-BY expansion.
inline std::vector<int> NextBatch(const ServeInputs& in, bool bulk,
                                  SplitMix* rng) {
  const RequestPool& pool = *in.pool;
  const ServeSettings& s = in.settings;
  if (!bulk && !pool.group_batches.empty() &&
      static_cast<int>(rng->Below(100)) < s.group_percent) {
    return pool.group_batches[rng->Below(pool.group_batches.size())];
  }
  const int n = bulk ? s.bulk_batch
                     : 1 + static_cast<int>(rng->Below(s.small_max));
  std::vector<int> items(n);
  for (int& item : items) item = static_cast<int>(rng->Below(pool.num_plain()));
  return items;
}

inline std::vector<ServedRequest> Materialize(const RequestPool& pool,
                                              const std::vector<int>& items) {
  std::vector<ServedRequest> batch;
  batch.reserve(items.size());
  for (int item : items) batch.push_back(pool.items[item]);
  return batch;
}

// Waits for a small batch's answers: spins for up to a millisecond, then
// blocks. A client that blocks at once adds a thread wake-up to every
// batch, tens of µs on a virtual machine that vary with the load other
// tenants put on the host, as much as a cheap batch costs in all. Bulk
// batches take milliseconds, so their clients block at once and leave
// the CPUs to the pool.
inline std::vector<ServedAnswer> AwaitAnswers(
    std::future<std::vector<ServedAnswer>>* answers) {
  const int64_t spin_end = NowNs() + 1000000;
  while (answers->wait_for(std::chrono::seconds(0)) !=
             std::future_status::ready &&
         NowNs() < spin_end) {
  }
  return answers->get();
}

// One closed-loop client: submit to the current target epoch, wait for
// the answers, check, repeat.
inline void ClosedLoopClient(const ServeInputs& in, int client, bool bulk,
                             int64_t end_ns,
                             const std::atomic<int32_t>* target_epoch,
                             ClientLog* log) {
  SplitMix rng(in.seed * 1000003 + static_cast<uint64_t>(client) * 7919 +
               (bulk ? 17 : 0));
  uint64_t round = 0;
  while (NowNs() < end_ns) {
    const std::vector<int> items = NextBatch(in, bulk, &rng);
    std::vector<ServedRequest> batch = Materialize(*in.pool, items);
    BatchRecord rec;
    rec.epoch = target_epoch->load();
    rec.size = static_cast<int32_t>(items.size());
    rec.begin = batch.data();
    rec.end = batch.data() + batch.size();
    if (items.size() > 1 &&
        in.pool->items[items[0]].kind == AggregateKind::kGroupCount) {
      rec.fingerprint = PredicateFingerprint(in.pool->items[items[0]].query);
    }
    betalike::SubmitOptions options;
    options.client_id = static_cast<uint64_t>(client) * 4 + round++ % 4;
    rec.submit_ns = NowNs();
    auto submitted = in.server->SubmitBatch(std::move(batch), rec.epoch,
                                            options);
    rec.submitted_ns = NowNs();
    if (!submitted.ok()) {
      log->errors += rec.size;
      continue;
    }
    if (in.trace) {
      log->queued_max = std::max(
          log->queued_max, in.server->query_server().queued_requests());
    }
    const std::vector<ServedAnswer> answers =
        bulk ? submitted.value().get() : AwaitAnswers(&submitted.value());
    rec.ready_ns = NowNs();
    CheckAnswers(in, items, answers, rec.epoch, log);
    log->batches.push_back(rec);
  }
}

// Runs the clients for `seconds` against epoch 1. The latency loop of a
// workload with a second epoch publishes it halfway and moves the
// clients to it; epoch 1 stays published. Returns the publish time in
// µs (0 when there was none).
inline double RunClosedLoop(const ServeInputs& in, bool bulk, double seconds,
                            std::vector<ClientLog>* logs) {
  std::atomic<int32_t> target_epoch{kFirstEpoch};
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back(ClosedLoopClient, std::cref(in), c, bulk, end,
                         &target_epoch, &(*logs)[c]);
  }
  double swap_us = 0.0;
  if (!bulk && in.second_epoch != nullptr) {
    std::this_thread::sleep_until(Clock::now() + std::chrono::nanoseconds(
                                                     (end - start) / 2));
    const int64_t t0 = NowNs();
    const betalike::Status published =
        in.server->PublishEpoch(kFirstEpoch + 1, in.second_epoch);
    swap_us = static_cast<double>(NowNs() - t0) * 1e-3;
    if (!published.ok()) Die("PublishEpoch: " + published.ToString());
    target_epoch.store(kFirstEpoch + 1);
  }
  for (std::thread& t : threads) t.join();
  return swap_us;
}

// p50 and p99 batch latency, in µs, of the closed-loop batches served
// by epoch 1, over the whole loop: a quantile of every batch moves
// smoothly with the share of the loop a slow or fast phase of the host
// covers, where the best or median of short windows jumps between the
// phases' levels.
inline std::pair<double, double> FirstEpochLatencyUs(
    const std::vector<ClientLog>& logs, int64_t* samples) {
  std::vector<double> lat;
  for (const ClientLog& log : logs) {
    for (const BatchRecord& r : log.batches) {
      if (r.epoch == kFirstEpoch) {
        lat.push_back(static_cast<double>(r.ready_ns - r.submit_ns) * 1e-3);
      }
    }
  }
  *samples = static_cast<int64_t>(lat.size());
  return {Quantile(lat, 0.5), Quantile(lat, 0.99)};
}

// Attributes each estimator span to the in-flight batch it served: by
// the address of the request it received, or — for GROUP-BY slots,
// which the server answers from a local copy — by predicate
// fingerprint. Fills BatchRecord::own_ns and, per span, the id of its
// batch (client << 32 | the batch's index in its client's log; -1 when
// none); returns the spans left unattributed inside the loop's window.
inline int64_t AttributeSpans(const std::vector<EstimatorSpan>& spans,
                              std::vector<ClientLog>* logs,
                              std::vector<int64_t>* batch_of) {
  int64_t unattributed = 0;
  batch_of->assign(spans.size(), -1);
  for (size_t i = 0; i < spans.size(); ++i) {
    const EstimatorSpan& span = spans[i];
    BatchRecord* owner = nullptr;
    BatchRecord* by_fingerprint = nullptr;
    int64_t owner_id = -1;
    int64_t fingerprint_id = -1;
    bool in_window = false;
    for (size_t c = 0; c < logs->size(); ++c) {
      ClientLog& log = (*logs)[c];
      auto& b = log.batches;
      auto it = std::upper_bound(
          b.begin(), b.end(), span.start_ns,
          [](int64_t t, const BatchRecord& r) { return t < r.submit_ns; });
      if (it == b.begin()) continue;
      BatchRecord& r = *(it - 1);
      if (r.ready_ns < span.end_ns) continue;
      in_window = true;
      const int64_t id = static_cast<int64_t>(c) << 32 | (it - 1 - b.begin());
      if (span.query >= r.begin && span.query < r.end) {
        owner = &r;
        owner_id = id;
      }
      if (r.fingerprint != 0 && r.fingerprint == span.fingerprint) {
        by_fingerprint = &r;
        fingerprint_id = id;
      }
    }
    if (owner == nullptr) {
      owner = by_fingerprint;
      owner_id = fingerprint_id;
    }
    if (owner != nullptr) {
      owner->own_ns += span.end_ns - span.start_ns;
      (*batch_of)[i] = owner_id;
    } else if (in_window) {
      ++unattributed;
    }
  }
  return unattributed;
}

struct RungResult {
  double rate = 0.0;
  double achieved = 0.0;  // batches answered per second over the step
  bool pass = false;
  int64_t offered = 0;
  int64_t rejected = 0;
  int64_t answers = 0;
  std::vector<double> lag_us;   // generator: actual send - due
  std::vector<double> open_us;  // due -> answers ready
};

// One open-loop ladder step against epoch 1: batches are due every
// 1/rate seconds for `seconds`; a completer thread timestamps each batch
// when its answers are ready. The step passes when nothing is rejected
// or fails and the last answers are ready within `grace_s` of the last
// due time, i.e. the backlog did not grow beyond what drains in grace_s.
inline RungResult RunRung(const ServeInputs& in, double rate, double seconds,
                          double grace_s, int rung_index, ClientLog* log) {
  struct Pending {
    int64_t due_ns;
    std::future<std::vector<ServedAnswer>> answers;
    std::vector<int> items;
  };
  RungResult out;
  out.rate = rate;
  const int64_t n = std::max<int64_t>(1, static_cast<int64_t>(rate * seconds));
  const int epoch = kFirstEpoch;
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> queue;
  bool generating = true;
  int64_t last_ready = 0;
  int64_t bad = 0;
  std::thread completer([&] {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !queue.empty() || !generating; });
        if (queue.empty()) return;
        p = std::move(queue.front());
        queue.pop_front();
      }
      const std::vector<ServedAnswer> answers = p.answers.get();
      const int64_t ready = NowNs();
      out.open_us.push_back(static_cast<double>(ready - p.due_ns) * 1e-3);
      last_ready = std::max(last_ready, ready);
      const int64_t errors_before = log->errors;
      CheckAnswers(in, p.items, answers, epoch, log);
      bad += log->errors - errors_before;
    }
  });
  SplitMix rng(in.seed * 2654435761ULL + static_cast<uint64_t>(rung_index));
  const int64_t t0 = NowNs() + 1000000;
  const double interval_ns = 1e9 / rate;
  for (int64_t i = 0; i < n; ++i) {
    const std::vector<int> items = NextBatch(in, false, &rng);
    std::vector<ServedRequest> batch = Materialize(*in.pool, items);
    const int64_t due = t0 + static_cast<int64_t>(interval_ns * i);
    const int64_t now = NowNs();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    }
    out.lag_us.push_back(static_cast<double>(NowNs() - due) * 1e-3);
    betalike::SubmitOptions options;
    options.client_id = 100 + static_cast<uint64_t>(i % 4);
    auto submitted = in.server->SubmitBatch(std::move(batch), epoch, options);
    ++out.offered;
    if (!submitted.ok()) {
      ++out.rejected;
      continue;
    }
    if (in.trace) {
      log->queued_max = std::max(
          log->queued_max, in.server->query_server().queued_requests());
    }
    out.answers += static_cast<int64_t>(items.size());
    std::lock_guard<std::mutex> lock(mu);
    queue.push_back(Pending{due, std::move(submitted).value(), items});
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    generating = false;
    cv.notify_one();
  }
  completer.join();
  const int64_t last_due = t0 + static_cast<int64_t>(interval_ns * (n - 1));
  if (last_ready > t0) {
    out.achieved = static_cast<double>(out.open_us.size()) /
                   (static_cast<double>(last_ready - t0) * 1e-9);
  }
  const int64_t grace = static_cast<int64_t>(grace_s * 1e9);
  out.pass = out.rejected == 0 && bad == 0 && last_ready <= last_due + grace;
  return out;
}

struct LadderResult {
  double sustained_rps = 0.0;
  std::vector<RungResult> rungs;
  int best = -1;  // index of the highest passing step
};

// The fixed geometric ladder: 25 batches/s doubling up to 25 * 2^15
// (819200/s) in steps a sixth as long as `rung_s`, stopping at the first
// failing step, then four geometric bisections between the last pass and
// that failure in full-length steps (2^(1/16) ≈ 4.4% resolution); the
// long steps decide on the server's capacity over a second or more,
// which varies less with the host than a short step's. A failing step is
// run once more before it counts, so one burst of host interference
// does not end the climb. A step may end with a quarter step, or four
// closed-loop median batch latencies (`p50_us`), of backlog still
// draining; the pass condition is then the same at either step length.
// When even the first step fails, the rate it achieved stands in, so a
// slow build still reports a number.
inline LadderResult RunLadder(const ServeInputs& in, double p50_us,
                              ClientLog* log) {
  LadderResult out;
  int index = 0;
  auto step = [&](double rate, double seconds) {
    const double grace_s = std::max(0.25 * seconds, 4e-6 * p50_us);
    for (int attempt = 0; attempt < 2; ++attempt) {
      out.rungs.push_back(RunRung(in, rate, seconds, grace_s, index++, log));
      if (out.rungs.back().pass) return true;
    }
    return false;
  };
  double pass_rate = 0.0;
  double fail_rate = 0.0;
  for (int k = 0; k <= 15; ++k) {
    const double rate = 25.0 * static_cast<double>(1 << k);
    if (!step(rate, in.settings.rung_s / 6)) {
      fail_rate = rate;
      break;
    }
    pass_rate = rate;
  }
  if (pass_rate > 0.0 && fail_rate > 0.0) {
    for (int bisection = 0; bisection < 4; ++bisection) {
      const double rate = std::sqrt(pass_rate * fail_rate);
      (step(rate, in.settings.rung_s) ? pass_rate : fail_rate) = rate;
    }
  }
  out.sustained_rps = pass_rate > 0.0 ? pass_rate : out.rungs[0].achieved;
  for (size_t i = 0; i < out.rungs.size(); ++i) {
    if (out.rungs[i].pass && out.rungs[i].rate == pass_rate) {
      out.best = static_cast<int>(i);
    }
  }
  return out;
}

// Deliberate failure probes: an already-expired deadline, a batch over
// the admission cap, and an unknown epoch must each be refused with the
// documented status. They are checks, not counted operations.
inline void RunProbes(const ServeInputs& in, Report* report,
                      int64_t* rejected, int64_t* deadline_shed) {
  const RequestPool& pool = *in.pool;
  betalike::SubmitOptions expired;
  expired.deadline = Clock::now() - std::chrono::milliseconds(1);
  auto late = in.server->SubmitBatch(Materialize(pool, {0}),
                                     EpochServer::kLatestEpoch, expired);
  report->Check(!late.ok() && late.status().code() ==
                                  betalike::StatusCode::kDeadlineExceeded,
                "expired deadline not refused with DeadlineExceeded");
  if (!late.ok()) ++*deadline_shed;
  std::vector<int> items(in.settings.max_queued + 1);
  for (size_t i = 0; i < items.size(); ++i) {
    items[i] = static_cast<int>(i % pool.num_plain());
  }
  auto big = in.server->SubmitBatch(Materialize(pool, items));
  report->Check(!big.ok() && big.status().code() ==
                                 betalike::StatusCode::kResourceExhausted,
                "over-cap batch not refused with ResourceExhausted");
  if (!big.ok()) ++*rejected;
  auto lost = in.server->SubmitBatch(Materialize(pool, {0}), 999);
  report->Check(!lost.ok() &&
                    lost.status().code() == betalike::StatusCode::kNotFound,
                "unknown epoch not refused with NotFound");
}

}  // namespace perfbench

#endif  // PERFBENCH_SERVING_H_
