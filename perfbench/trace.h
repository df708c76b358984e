// In-memory span recording for the traced perfbench run. Spans are
// recorded from the benchmark's own code only: around each call into a
// layer's public functions (LayerSpans) and around every Estimator call
// the serving pool makes, through the TimedEstimator decorator handed to
// EpochServer (EstimatorSpans). Nothing is written until the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "query/estimator.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Nanoseconds since the first call in this process.
inline int64_t NowNs() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

// FNV-1a over the QI predicates of a query (not its SA range), so every
// GROUP-BY slot the server derives from one query shares the value of
// that query.
inline uint64_t PredicateFingerprint(const betalike::AggregateQuery& query) {
  uint64_t hash = 1469598103934665603ULL;
  const auto mix = [&hash](uint64_t x) {
    hash ^= x;
    hash *= 1099511628211ULL;
  };
  for (const betalike::QueryPredicate& p : query.predicates) {
    mix(static_cast<uint64_t>(p.dim));
    mix(static_cast<uint32_t>(p.lo));
    mix(static_cast<uint32_t>(p.hi));
  }
  return hash;
}

// One call into a layer from the benchmark's main thread.
struct LayerSpan {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  // index of the enclosing span, -1 at top level
};

class LayerSpans {
 public:
  // Opens a span; spans nest by open/close order.
  void Open(std::string name) {
    LayerSpan span;
    span.name = std::move(name);
    span.parent = open_.empty() ? -1 : open_.back();
    span.start_ns = NowNs();
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int64_t>(spans_.size()) - 1);
  }
  // Closes the innermost open span; returns its duration in seconds.
  double Close() {
    LayerSpan& span = spans_[open_.back()];
    open_.pop_back();
    span.end_ns = NowNs();
    return static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
  }
  const std::vector<LayerSpan>& spans() const { return spans_; }

 private:
  std::vector<LayerSpan> spans_;
  std::vector<int64_t> open_;
};

// One Estimator call made by a serving thread.
struct EstimatorSpan {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  const void* query = nullptr;  // address of the query the call received
  uint64_t fingerprint = 0;     // PredicateFingerprint of that query
  int32_t epoch = 0;
  int32_t op = 0;  // 0 COUNT, 1 SUM
  int32_t thread = 0;
};

// Per-thread append-only buffers: a pool thread registers once, then
// records without taking a lock.
class EstimatorSpans {
 public:
  static EstimatorSpans& Get() {
    static EstimatorSpans* spans = new EstimatorSpans();
    return *spans;
  }

  void Record(const EstimatorSpan& span) { Local()->push_back(span); }

  // Every span recorded so far. Call only while no serving thread runs.
  std::vector<EstimatorSpan> Collect() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<EstimatorSpan> all;
    for (size_t t = 0; t < buffers_.size(); ++t) {
      for (EstimatorSpan span : *buffers_[t]) {
        span.thread = static_cast<int32_t>(t);
        all.push_back(span);
      }
    }
    return all;
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& buffer : buffers_) buffer->clear();
  }

 private:
  std::vector<EstimatorSpan>* Local() {
    thread_local std::vector<EstimatorSpan>* local = nullptr;
    if (local == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<std::vector<EstimatorSpan>>());
      buffers_.back()->reserve(1 << 16);
      local = buffers_.back().get();
    }
    return local;
  }

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<EstimatorSpan>>> buffers_;
};

// Timing decorator: forwards every call to the wrapped estimator
// unchanged (answers stay bit-identical) and records one span per call.
class TimedEstimator final : public betalike::Estimator {
 public:
  TimedEstimator(std::shared_ptr<const betalike::Estimator> inner,
                 int32_t epoch)
      : inner_(std::move(inner)), epoch_(epoch) {}

  std::string Name() const override { return inner_->Name(); }
  int32_t sa_num_values() const override { return inner_->sa_num_values(); }

  double Estimate(const betalike::AggregateQuery& query) const override {
    const int64_t start = NowNs();
    const double out = inner_->Estimate(query);
    Record(query, 0, start);
    return out;
  }
  betalike::EstimateWithVariance EstimateWithUncertainty(
      const betalike::AggregateQuery& query) const override {
    const int64_t start = NowNs();
    const betalike::EstimateWithVariance out =
        inner_->EstimateWithUncertainty(query);
    Record(query, 0, start);
    return out;
  }
  betalike::EstimateWithVariance EstimateSumWithUncertainty(
      const betalike::AggregateQuery& query) const override {
    const int64_t start = NowNs();
    const betalike::EstimateWithVariance out =
        inner_->EstimateSumWithUncertainty(query);
    Record(query, 1, start);
    return out;
  }

 private:
  void Record(const betalike::AggregateQuery& query, int32_t op,
              int64_t start) const {
    EstimatorSpan span;
    span.start_ns = start;
    span.end_ns = NowNs();
    span.query = &query;
    span.fingerprint = PredicateFingerprint(query);
    span.epoch = epoch_;
    span.op = op;
    EstimatorSpans::Get().Record(span);
  }

  std::shared_ptr<const betalike::Estimator> inner_;
  int32_t epoch_;
};

// Writes the run's spans as CSV: layer spans (kind "layer", with the
// index of their parent span), then estimator spans (kind "estimator",
// with the id of the batch each was attributed to, -1 if none).
// `batch_of` is empty or parallel to `estimator`.
inline bool WriteSpans(const std::string& path,
                       const std::vector<LayerSpan>& layers,
                       const std::vector<EstimatorSpan>& estimator,
                       const std::vector<int64_t>& batch_of) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "kind,name,start_ns,end_ns,parent,thread,epoch,batch\n");
  for (const LayerSpan& s : layers) {
    std::fprintf(f, "layer,%s,%lld,%lld,%lld,0,0,-1\n", s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent));
  }
  for (size_t i = 0; i < estimator.size(); ++i) {
    const EstimatorSpan& s = estimator[i];
    std::fprintf(f, "estimator,%s,%lld,%lld,-1,%d,%d,%lld\n",
                 s.op == 0 ? "count" : "sum",
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.thread, s.epoch,
                 static_cast<long long>(i < batch_of.size() ? batch_of[i]
                                                            : -1));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
