// Test-only reference estimators: the plain scanning formulas every
// publication shape's Estimator must reproduce *bitwise* — one pass
// over every equivalence class (or every row), with no index, no
// prune, and no row-selection kernel; Anatomy's group moments are
// recounted from the source rows, never read from the ST. The
// fig8/fig9 goldens depend on that identity, so tests compare against
// these with EXPECT_EQ on raw doubles, not EXPECT_NEAR.
#ifndef BETALIKE_TESTS_ESTIMATOR_ORACLE_H_
#define BETALIKE_TESTS_ESTIMATOR_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "baseline/anatomy.h"
#include "data/table.h"
#include "perturb/perturbation.h"
#include "query/estimator.h"
#include "query/workload.h"

namespace betalike {
namespace oracle {

// Fraction of `ec`'s box the query's QI predicates cover under uniform
// spread, counting integer points; 0 when any predicate misses the
// box.
inline double CoveredFraction(const EquivalenceClass& ec,
                              const AggregateQuery& query) {
  double fraction = 1.0;
  for (const QueryPredicate& p : query.predicates) {
    const int32_t box_lo = ec.qi_min[p.dim];
    const int32_t box_hi = ec.qi_max[p.dim];
    const int32_t lo = std::max(box_lo, p.lo);
    const int32_t hi = std::min(box_hi, p.hi);
    if (lo > hi) return 0.0;
    fraction *= static_cast<double>(hi - lo + 1) /
                static_cast<double>(box_hi - box_lo + 1);
  }
  return fraction;
}

// Uniform-spread COUNT over a generalized table, recounting each
// class's SA matches by scanning its rows.
inline double Generalized(const GeneralizedTable& published,
                          const AggregateQuery& query) {
  const Table& source = published.source();
  double total = 0.0;
  for (const EquivalenceClass& ec : published.ecs()) {
    const double fraction = CoveredFraction(ec, query);
    if (fraction == 0.0) continue;
    double matching = static_cast<double>(ec.size());
    if (query.has_sa_predicate()) {
      int64_t count = 0;
      for (int64_t row : ec.rows) {
        const int32_t v = source.sa_value(row);
        if (v >= query.sa_lo && v <= query.sa_hi) ++count;
      }
      matching = static_cast<double>(count);
    }
    total += fraction * matching;
  }
  return total;
}

// True iff `row` satisfies every QI predicate of `query`.
inline bool MatchesQi(const Table& source, int64_t row,
                      const AggregateQuery& query) {
  for (const QueryPredicate& p : query.predicates) {
    const int32_t v = source.qi_value(row, p.dim);
    if (v < p.lo || v > p.hi) return false;
  }
  return true;
}

// Count, Σ v and Σ v² of one group's SA values v in a range.
struct SaMoments {
  int64_t count = 0;
  int64_t sum = 0;
  int64_t square_sum = 0;
};

// Every group's size and the moments of its SA values in [lo, hi],
// recounted from the source rows through group_of_row and the SA
// column — not from the ST under test.
struct GroupRecount {
  std::vector<int64_t> size;
  std::vector<SaMoments> moments;
};

inline GroupRecount RecountGroups(const AnatomizedTable& view, int32_t lo,
                                  int32_t hi) {
  const Table& source = view.source();
  GroupRecount out;
  out.size.assign(view.num_groups(), 0);
  out.moments.assign(view.num_groups(), SaMoments{});
  for (int64_t row = 0; row < source.num_rows(); ++row) {
    const int32_t g = view.group_of_row(row);
    ++out.size[g];
    const int64_t v = source.sa_value(row);
    if (v < lo || v > hi) continue;
    ++out.moments[g].count;
    out.moments[g].sum += v;
    out.moments[g].square_sum += v * v;
  }
  return out;
}

// Anatomy COUNT: every row matching the QI predicates contributes its
// group's SA-range fraction f with Bernoulli variance f(1-f) (1 and 0
// without an SA predicate).
inline EstimateWithVariance AnatomizedCount(const AnatomizedTable& view,
                                            const AggregateQuery& query) {
  const Table& source = view.source();
  const GroupRecount groups =
      RecountGroups(view, query.sa_lo, query.sa_hi);
  EstimateWithVariance out;
  for (int64_t row = 0; row < source.num_rows(); ++row) {
    if (!MatchesQi(source, row, query)) continue;
    if (!query.has_sa_predicate()) {
      out.estimate += 1.0;
      continue;
    }
    const int32_t g = view.group_of_row(row);
    const double fraction = static_cast<double>(groups.moments[g].count) /
                            static_cast<double>(groups.size[g]);
    out.estimate += fraction;
    out.variance += fraction * (1.0 - fraction);
  }
  return out;
}

// Anatomy SUM: every row matching the QI predicates contributes its
// group's mean masked value E[v·1{v in range}] with variance
// max(0, E[v²·1] - E[v·1]²), the range being the whole SA domain
// without an SA predicate.
inline EstimateWithVariance AnatomizedSum(const AnatomizedTable& view,
                                          const AggregateQuery& query) {
  const Table& source = view.source();
  int32_t lo = 0;
  int32_t hi = source.sa_spec().num_values - 1;
  if (query.has_sa_predicate()) {
    lo = query.sa_lo;
    hi = query.sa_hi;
  }
  const GroupRecount groups = RecountGroups(view, lo, hi);
  EstimateWithVariance out;
  for (int64_t row = 0; row < source.num_rows(); ++row) {
    if (!MatchesQi(source, row, query)) continue;
    const int32_t g = view.group_of_row(row);
    const SaMoments& moments = groups.moments[g];
    const double inv = 1.0 / static_cast<double>(groups.size[g]);
    const double mean = static_cast<double>(moments.sum) * inv;
    const double second = static_cast<double>(moments.square_sum) * inv;
    out.estimate += mean;
    out.variance += std::max(0.0, second - mean * mean);
  }
  return out;
}

// Anatomy AVG: the SUM above over the COUNT above, with the
// delta-method variance (varS + avg²·varC) / C²; {0, 0} for an empty
// selection.
inline EstimateWithVariance AnatomizedAvg(const AnatomizedTable& view,
                                          const AggregateQuery& query) {
  const EstimateWithVariance count = AnatomizedCount(view, query);
  const EstimateWithVariance sum = AnatomizedSum(view, query);
  if (count.estimate <= 0.0) return {};
  EstimateWithVariance out;
  out.estimate = sum.estimate / count.estimate;
  out.variance =
      (sum.variance + out.estimate * out.estimate * count.variance) /
      (count.estimate * count.estimate);
  return out;
}

// Perturbed COUNT: uniform spread over the view's boxes, each class's
// SA range count reconstructed from the perturbed one —
// ĉ = (ñ - n (1 - ρ) w / |SA|) / ρ clamped to [0, n].
inline double Perturbed(const PerturbedPublication& perturbed,
                        const EcSaIndex& index, const AggregateQuery& query) {
  const GeneralizedTable& published = perturbed.view;
  const int32_t num_values = published.source().sa_spec().num_values;
  double width = 0.0;
  if (query.has_sa_predicate()) {
    const int32_t lo = std::max(query.sa_lo, 0);
    const int32_t hi = std::min(query.sa_hi, num_values - 1);
    if (lo > hi) return 0.0;
    width = static_cast<double>(hi - lo + 1);
  }
  double total = 0.0;
  for (size_t e = 0; e < published.num_ecs(); ++e) {
    const EquivalenceClass& ec = published.ec(e);
    const double fraction = CoveredFraction(ec, query);
    if (fraction == 0.0) continue;
    const double size = static_cast<double>(ec.size());
    double matching = size;
    if (query.has_sa_predicate()) {
      const double noisy =
          static_cast<double>(index.Count(e, query.sa_lo, query.sa_hi));
      const double expected_noise = size * (1.0 - perturbed.retention) *
                                    width / static_cast<double>(num_values);
      matching = std::clamp((noisy - expected_noise) / perturbed.retention,
                            0.0, size);
    }
    total += fraction * matching;
  }
  return total;
}

}  // namespace oracle
}  // namespace betalike

#endif  // BETALIKE_TESTS_ESTIMATOR_ORACLE_H_
