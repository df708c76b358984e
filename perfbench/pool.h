// The analyst's request mix: a fixed pool of distinct ServedRequests
// (the same for every seed; the seed only draws which of them each
// batch carries), the expected answer of each from a direct
// single-thread Estimator call, and brute-force truth for a fixed
// checked subset.
#ifndef PERFBENCH_POOL_H_
#define PERFBENCH_POOL_H_

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "perfbench/trace.h"
#include "perfbench/util.h"
#include "query/estimator.h"
#include "query/workload.h"
#include "serve/query_server.h"

namespace perfbench {

using betalike::AggregateKind;
using betalike::AggregateQuery;
using betalike::ServedAnswer;
using betalike::ServedRequest;

struct RequestPool {
  // Items [0, 3 * queries.size()) are COUNT, SUM, AVG of queries[i] at
  // 3i, 3i+1, 3i+2; GROUP-BY slots follow.
  std::vector<ServedRequest> items;
  std::vector<AggregateQuery> queries;
  std::vector<AggregateQuery> group_queries;
  std::vector<std::vector<int>> group_batches;  // item indices per query

  int num_plain() const { return static_cast<int>(3 * queries.size()); }
};

// `num_queries` range queries (half with an SA predicate, λ = 2,
// selectivity 0.1) and `num_group` GROUP-BY-SA queries.
inline RequestPool MakePool(const betalike::TableSchema& schema,
                            int num_queries, int num_group) {
  RequestPool pool;
  betalike::WorkloadOptions options;
  options.lambda = 2;
  options.selectivity = 0.1;
  options.num_queries = (num_queries + 1) / 2;
  options.seed = 1;
  auto plain = Must(betalike::GenerateWorkload(schema, options), "workload");
  options.include_sa = true;
  options.seed = 2;
  auto with_sa = Must(betalike::GenerateWorkload(schema, options), "workload");
  for (int i = 0; static_cast<int>(pool.queries.size()) < num_queries; ++i) {
    pool.queries.push_back(i % 2 == 0 ? plain[i / 2] : with_sa[i / 2]);
  }
  for (const AggregateQuery& q : pool.queries) {
    for (AggregateKind kind :
         {AggregateKind::kCount, AggregateKind::kSum, AggregateKind::kAvg}) {
      ServedRequest request;
      request.query = q;
      request.kind = kind;
      pool.items.push_back(request);
    }
  }
  if (num_group > 0) {
    options.include_sa = false;
    options.num_queries = num_group;
    options.seed = 3;
    pool.group_queries =
        Must(betalike::GenerateWorkload(schema, options), "workload");
    for (const AggregateQuery& q : pool.group_queries) {
      std::vector<int> batch;
      for (const ServedRequest& slot :
           betalike::ExpandGroupBy(q, schema.sa.num_values)) {
        batch.push_back(static_cast<int>(pool.items.size()));
        pool.items.push_back(slot);
      }
      pool.group_batches.push_back(std::move(batch));
    }
  }
  return pool;
}

inline const char* KindName(AggregateKind kind) {
  switch (kind) {
    case AggregateKind::kCount:
      return "count";
    case AggregateKind::kSum:
      return "sum";
    case AggregateKind::kAvg:
      return "avg";
    case AggregateKind::kGroupCount:
      break;
  }
  return "group";
}

// The estimate a direct single-thread Estimator call gives for `request`
// — the value every served answer must equal bit for bit.
inline double DirectEstimate(const betalike::Estimator& estimator,
                             const ServedRequest& request) {
  switch (request.kind) {
    case AggregateKind::kCount:
      return estimator.EstimateWithUncertainty(request.query).estimate;
    case AggregateKind::kSum:
      return estimator.EstimateSumWithUncertainty(request.query).estimate;
    case AggregateKind::kAvg:
      return estimator.EstimateAvgWithUncertainty(request.query).estimate;
    case AggregateKind::kGroupCount:
      break;
  }
  const AggregateQuery& q = request.query;
  const int32_t v = request.group_value;
  if (v < 0 || v >= estimator.sa_num_values() ||
      (q.has_sa_predicate() && (v < q.sa_lo || v > q.sa_hi))) {
    return 0.0;
  }
  AggregateQuery point = q;
  point.sa_lo = v;
  point.sa_hi = v;
  return estimator.EstimateWithUncertainty(point).estimate;
}

struct Expected {
  std::vector<double> estimate;  // per pool item
  // Direct-call latencies in µs, per kind name.
  std::map<std::string, std::vector<double>> micros;
};

// Direct answers for every pool item; each item is timed `repeats`
// times (the estimate of every repeat must agree bit for bit).
inline Expected DirectAnswers(const betalike::Estimator& estimator,
                              const RequestPool& pool, int repeats,
                              Report* report) {
  Expected out;
  out.estimate.resize(pool.items.size());
  for (int r = 0; r < repeats; ++r) {
    for (size_t i = 0; i < pool.items.size(); ++i) {
      const int64_t start = NowNs();
      const double value = DirectEstimate(estimator, pool.items[i]);
      out.micros[KindName(pool.items[i].kind)].push_back(
          static_cast<double>(NowNs() - start) * 1e-3);
      if (r == 0) {
        out.estimate[i] = value;
      } else {
        report->Check(std::memcmp(&value, &out.estimate[i], sizeof value) == 0,
                      "direct estimate not repeatable");
      }
    }
  }
  return out;
}

// Brute-force truth for queries [0, checked) of the pool.
struct Truth {
  std::vector<int64_t> counts;
  std::vector<int64_t> sums;
};

inline Truth ComputeTruth(const betalike::Table& table, const RequestPool& pool,
                          int checked) {
  const std::vector<AggregateQuery> subset(pool.queries.begin(),
                                           pool.queries.begin() + checked);
  Truth truth;
  truth.counts = betalike::PreciseCounts(table, subset);
  truth.sums = betalike::PreciseSums(table, subset);
  return truth;
}

inline double RelErrPct(double estimate, double truth) {
  const double floor = truth > 1.0 ? truth : 1.0;
  return 100.0 * std::fabs(estimate - truth) / floor;
}

// Relative errors of the checked COUNT, SUM and AVG answers of one
// publication (AVG only where the true count is non-zero).
inline std::vector<double> CheckedErrors(const Expected& expected,
                                         const Truth& truth) {
  std::vector<double> errors;
  for (size_t i = 0; i < truth.counts.size(); ++i) {
    const double count = static_cast<double>(truth.counts[i]);
    const double sum = static_cast<double>(truth.sums[i]);
    errors.push_back(RelErrPct(expected.estimate[3 * i], count));
    errors.push_back(RelErrPct(expected.estimate[3 * i + 1], sum));
    if (truth.counts[i] > 0) {
      errors.push_back(RelErrPct(expected.estimate[3 * i + 2], sum / count));
    }
  }
  return errors;
}

}  // namespace perfbench

#endif  // PERFBENCH_POOL_H_
