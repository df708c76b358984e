#include "query/workload.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"
#include "query/row_filter.h"

namespace betalike {

bool AggregateQuery::Matches(const Table& table, int64_t row) const {
  for (const QueryPredicate& p : predicates) {
    const int32_t v = table.qi_value(row, p.dim);
    if (v < p.lo || v > p.hi) return false;
  }
  if (has_sa_predicate()) {
    const int32_t v = table.sa_value(row);
    if (v < sa_lo || v > sa_hi) return false;
  }
  return true;
}

Status ValidateWorkloadOptions(const TableSchema& schema,
                               const WorkloadOptions& options) {
  if (options.num_queries <= 0) {
    return Status::InvalidArgument(
        StrFormat("num_queries = %d must be positive", options.num_queries));
  }
  if (options.lambda < 1 || options.lambda > schema.num_qi()) {
    return Status::InvalidArgument(StrFormat(
        "lambda = %d outside [1, %d] (the schema's QI count)",
        options.lambda, schema.num_qi()));
  }
  if (!std::isfinite(options.selectivity) || options.selectivity <= 0.0 ||
      options.selectivity > 1.0) {
    return Status::InvalidArgument(StrFormat(
        "selectivity = %g outside (0, 1]", options.selectivity));
  }
  if (options.include_sa && schema.sa.num_values < 1) {
    return Status::InvalidArgument(
        "include_sa needs a non-empty SA domain");
  }
  return Status::Ok();
}

Status ValidateQuery(const TableSchema& schema, const AggregateQuery& query) {
  // O(p²) duplicate scan: p is a handful of predicates, and this runs
  // once per served request, so it must not allocate.
  const std::vector<QueryPredicate>& preds = query.predicates;
  for (size_t i = 0; i < preds.size(); ++i) {
    const int dim = preds[i].dim;
    if (dim < 0 || dim >= schema.num_qi()) {
      return Status::InvalidArgument(StrFormat(
          "predicate dimension %d outside [0, %d)", dim, schema.num_qi()));
    }
    for (size_t j = 0; j < i; ++j) {
      if (preds[j].dim == dim) {
        return Status::InvalidArgument(StrFormat(
            "duplicate predicate on dimension %d (box estimators would "
            "multiply the two fractions instead of intersecting the "
            "ranges)",
            dim));
      }
    }
  }
  return Status::Ok();
}

namespace {

// x^n by repeated multiplication in a fixed order: every step is a
// correctly-rounded IEEE multiply, so the result is bit-identical on
// every platform (std::pow is not — libm implementations differ by
// ULPs, which would break the seeded-workload determinism guarantee).
double PowByMult(double x, int n) {
  double result = 1.0;
  for (int i = 0; i < n; ++i) result *= x;
  return result;
}

// The per-predicate range length: round(θ^(1/λ) * domain) clamped to
// [1, domain], so that λ independent predicates of per-attribute
// selectivity θ^(1/λ) compose to θ over the domain volume. Computed
// without std::pow: binary search for the largest len with
// len^λ <= θ * domain^λ, then apply round-half-up at (len + 0.5)^λ —
// deterministic because only IEEE multiplies and compares are used.
int64_t TargetRangeLength(int64_t domain, int lambda, double theta) {
  const double target =
      theta * PowByMult(static_cast<double>(domain), lambda);
  int64_t lo = 1;
  int64_t hi = domain;
  while (lo < hi) {
    const int64_t mid = lo + (hi - lo + 1) / 2;
    if (PowByMult(static_cast<double>(mid), lambda) <= target) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  if (lo < domain &&
      PowByMult(static_cast<double>(lo) + 0.5, lambda) <= target) {
    ++lo;
  }
  return lo;
}

}  // namespace

Result<std::vector<AggregateQuery>> GenerateWorkload(
    const TableSchema& schema, const WorkloadOptions& options) {
  const Status valid = ValidateWorkloadOptions(schema, options);
  if (!valid.ok()) return valid;

  Rng rng(options.seed);
  std::vector<int> dims(schema.num_qi());
  for (int d = 0; d < schema.num_qi(); ++d) dims[d] = d;
  // With the SA predicate the selectivity composes over one more
  // range, so every per-attribute length uses the λ + 1 root.
  const int num_predicates = options.lambda + (options.include_sa ? 1 : 0);

  std::vector<AggregateQuery> workload;
  workload.reserve(options.num_queries);
  for (int q = 0; q < options.num_queries; ++q) {
    // Partial Fisher-Yates: after λ steps, dims[0..λ) is a uniform
    // draw of distinct attributes.
    for (int i = 0; i < options.lambda; ++i) {
      const int j = i + static_cast<int>(rng.Below(dims.size() - i));
      std::swap(dims[i], dims[j]);
    }
    AggregateQuery query;
    query.predicates.reserve(options.lambda);
    for (int i = 0; i < options.lambda; ++i) {
      const QiSpec& spec = schema.qi[dims[i]];
      const int64_t domain = spec.extent() + 1;  // integer points
      const int64_t len =
          TargetRangeLength(domain, num_predicates, options.selectivity);
      const int64_t start = rng.Uniform(spec.lo, spec.lo + domain - len);
      query.predicates.push_back({dims[i], static_cast<int32_t>(start),
                                  static_cast<int32_t>(start + len - 1)});
    }
    if (options.include_sa) {
      const int64_t domain = schema.sa.num_values;
      const int64_t len =
          TargetRangeLength(domain, num_predicates, options.selectivity);
      const int64_t start = rng.Uniform(0, domain - len);
      query.sa_lo = static_cast<int32_t>(start);
      query.sa_hi = static_cast<int32_t>(start + len - 1);
    }
    // Canonical attribute order, independent of the draw order.
    std::sort(query.predicates.begin(), query.predicates.end(),
              [](const QueryPredicate& a, const QueryPredicate& b) {
                return a.dim < b.dim;
              });
    // The generator's own output honors the boundary contract (distinct
    // in-range dimensions) by construction; keep that as a structural
    // assert so a generator change cannot silently break consumers.
    BETALIKE_CHECK(ValidateQuery(schema, query).ok());
    workload.push_back(std::move(query));
  }
  return workload;
}

std::vector<int64_t> PreciseCounts(
    const Table& table, const std::vector<AggregateQuery>& workload) {
  std::vector<int64_t> counts;
  counts.reserve(workload.size());
  for (const AggregateQuery& query : workload) {
    counts.push_back(CountMatchingRows(
        table.num_rows(), QueryRanges(table, query, /*with_sa=*/true)));
  }
  return counts;
}

std::vector<int64_t> PreciseSums(
    const Table& table, const std::vector<AggregateQuery>& workload) {
  std::vector<int64_t> sums;
  sums.reserve(workload.size());
  const int32_t* sa = table.sa_column().data();
  for (const AggregateQuery& query : workload) {
    int64_t sum = 0;
    ForEachMatchingRow(table.num_rows(),
                       QueryRanges(table, query, /*with_sa=*/true),
                       [&sum, sa](int64_t row) { sum += sa[row]; });
    sums.push_back(sum);
  }
  return sums;
}

std::vector<std::vector<int64_t>> PreciseGroupCounts(
    const Table& table, const std::vector<AggregateQuery>& workload) {
  std::vector<std::vector<int64_t>> groups;
  groups.reserve(workload.size());
  const int32_t* sa = table.sa_column().data();
  for (const AggregateQuery& query : workload) {
    std::vector<int64_t> per_value(
        static_cast<size_t>(table.sa_spec().num_values), 0);
    ForEachMatchingRow(table.num_rows(),
                       QueryRanges(table, query, /*with_sa=*/true),
                       [&per_value, sa](int64_t row) { ++per_value[sa[row]]; });
    groups.push_back(std::move(per_value));
  }
  return groups;
}

}  // namespace betalike
