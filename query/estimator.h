// Aggregate estimation from anonymized publications (§6.2–6.3): the
// data recipient answers COUNT(*), SUM(SA), AVG(SA) and GROUP-BY-SA
// COUNT queries from what each scheme publishes instead of the raw
// microdata.
//
//   - Generalized tables (BUREL, Mondrian, SABRE): each equivalence
//     class answers with its matching-SA tuple count times the
//     fraction of its QI box the query covers — the standard
//     uniform-spread assumption (Figure 8's estimator, now SA-aware).
//   - Anatomy: exact QI values, each group's SA values — matching rows
//     contribute their group's matching-SA fraction (Figure 9). An
//     answer with an SA predicate scatters the moments of only the ST
//     entries in its range (the value-major ST keeps them contiguous,
//     AnatomizedTable::ForEachEntryInRange) into per-thread per-group
//     scratch, then visits the QI-matching rows once; no answer makes
//     a pass over all groups. A COUNT without an SA predicate is the
//     exact matching-row count, and a SUM without one visits the rows
//     with full-domain records precomputed at construction. Records
//     are uint16_t when the publication bounds every moment below
//     2^16 (AnatomizedMomentBytes), int64_t otherwise.
//   - Perturbed publications: uniform spread over the boxes plus
//     reconstruction — the randomized response is inverted in
//     expectation before counting (Figure 9).
//
// All three shapes are served through one polymorphic interface:
// MakeEstimator(PublishedView) resolves the shape the way
// MakeAnonymizer resolves a scheme name, and the returned Estimator is
// immutable after construction — its per-publication index is
// precomputed once, so one instance can answer queries from many
// threads concurrently (the serve/ layer relies on this). Two
// operations do all the work: the row-selection kernel
// (query/row_filter.h) visits or counts the raw rows matching a
// query's ranges for Anatomy and the Precise* ground truth, and one
// box index visits the equivalence classes overlapping a query for the
// generalized and perturbed shapes.
//
// Workload-level accuracy is aggregated as median relative error, the
// paper's Figures 8/9 metric.
#ifndef BETALIKE_QUERY_ESTIMATOR_H_
#define BETALIKE_QUERY_ESTIMATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baseline/anatomy.h"
#include "common/status.h"
#include "data/table.h"
#include "perturb/perturbation.h"
#include "query/published_view.h"
#include "query/workload.h"

namespace betalike {

// A point estimate plus the variance the estimator's own model assigns
// to it. Box-spread terms use a clustered design effect — per class,
// f(1-f)·m² rather than the independent-tuple binomial f(1-f)·m —
// because real tuples land in a class's box in correlated clumps, not
// independently; perturbed shapes add randomized-response
// reconstruction noise. The serving layer turns the variance into a
// confidence interval. The estimate is accumulated independently of
// the variance, so it is bitwise the estimator's Estimate().
struct EstimateWithVariance {
  double estimate = 0.0;
  double variance = 0.0;
};

// The COUNT(*) and SUM(SA) answers of one query, the two parts of its
// AVG.
struct CountAndSum {
  EstimateWithVariance count;
  EstimateWithVariance sum;
};

// Interface every publication shape's estimator implements.
// Implementations are immutable after construction and safe to share
// across threads.
class Estimator {
 public:
  virtual ~Estimator() = default;

  // Stable display name ("generalized", "anatomized", "perturbed").
  virtual std::string Name() const = 0;

  // Ok iff `query` is well-formed against the wrapped publication's
  // schema (ValidateQuery). Every shape answers only validated
  // queries: a predicate on a dimension outside the schema reads out
  // of bounds. The serving layer checks each request here first. The
  // base accepts everything, so decorators that forward to a
  // validating estimator need not override it.
  virtual Status Validate(const AggregateQuery& /*query*/) const {
    return Status::Ok();
  }

  // COUNT(*) estimate of `query` over the wrapped publication with the
  // model variance of the answer.
  virtual EstimateWithVariance EstimateWithUncertainty(
      const AggregateQuery& query) const = 0;

  // The point estimate alone. Virtual so decorators can intercept it.
  virtual double Estimate(const AggregateQuery& query) const {
    return EstimateWithUncertainty(query).estimate;
  }

  // SA domain size of the wrapped publication; GROUP-BY answers carry
  // one slot per value code 0..sa_num_values()-1.
  virtual int32_t sa_num_values() const = 0;

  // SUM(SA) estimate of `query`: Σ sa over the rows matching every
  // predicate. Shapes answer with the same structure as their COUNT
  // path — uniform spread weights each class's in-range SA value sum
  // (generalized), QIT-matching rows contribute their group's mean
  // masked value (Anatomy), perturbed views reconstruct per-value
  // counts before weighting. Variance uses the same clustered design
  // effect, with f(1-f)·s² per class.
  virtual EstimateWithVariance EstimateSumWithUncertainty(
      const AggregateQuery& query) const = 0;

  // Both answers above for one query, each bitwise what its own call
  // returns. The default makes those two calls, so a decorator that
  // overrides only them keeps AVG consistent; a shape whose COUNT and
  // SUM read the same scan (Anatomy) overrides this to make it once.
  virtual CountAndSum EstimateCountAndSumWithUncertainty(
      const AggregateQuery& query) const {
    return {EstimateWithUncertainty(query), EstimateSumWithUncertainty(query)};
  }

  // AVG(SA) = SUM/COUNT of the two estimates above, read in one
  // EstimateCountAndSumWithUncertainty call, with the delta-method
  // variance (varS + avg²·varC) / C² (the S-C covariance term is
  // dropped — conservative for positively correlated numerator and
  // denominator). An empty selection (count <= 0) answers {0, 0}.
  // Non-virtual: every shape's AVG is its SUM over its COUNT by
  // construction, which the consistency tests rely on.
  EstimateWithVariance EstimateAvgWithUncertainty(
      const AggregateQuery& query) const;

  // GROUP-BY-SA COUNT: one COUNT estimate per SA value code, each a
  // width-1 SA range query (sa_lo = sa_hi = v) through
  // EstimateWithUncertainty — so every slot is bitwise identical to
  // the equivalent standalone COUNT query, and the serving layer's
  // expanded group requests agree with this method by construction.
  // Values outside the query's SA range (when it has one) are {0, 0},
  // matching the PreciseGroupCounts convention.
  std::vector<EstimateWithVariance> EstimateGroupByWithUncertainty(
      const AggregateQuery& query) const;
};

// Builds the estimator matching `view`'s shape, precomputing its
// per-publication index once. The estimator shares ownership of the
// underlying publication, so the view may be discarded. Fails on a
// degenerate publication (no equivalence classes / groups, or a
// perturbed view whose retention lies outside (0, 1]).
Result<std::unique_ptr<Estimator>> MakeEstimator(const PublishedView& view);

// The bytes per moment of the estimator MakeEstimator builds for an
// Anatomy view: 2 (uint16_t) when every group's size and full-domain
// Σ v and Σ v² are at most 65535 — SA values are >= 0, so these bound
// every SA range's count, Σ v and Σ v² — and 8 (int64_t) otherwise.
// The width is a property of the publication; answers are the same
// bits at either.
int AnatomizedMomentBytes(const AnatomizedTable& view);

// Accuracy aggregate of one (publication, workload) evaluation. Errors
// are percentages: 100 * |estimate - truth| / max(truth, 1), with the
// max(·, 1) floor keeping empty-result queries finite.
struct WorkloadError {
  double median_relative_error = 0.0;
  double mean_relative_error = 0.0;
  int num_queries = 0;
};

// Scores `estimates[i]` against `truth[i]` (PreciseCounts on the raw
// table) for every query of a workload. The median of an even-sized
// workload is the mean of the two middle errors; an empty one scores
// zero. CHECK-fails if the two sizes differ.
WorkloadError EvaluateWorkloadWithTruth(const std::vector<int64_t>& truth,
                                        const std::vector<double>& estimates);

}  // namespace betalike

#endif  // BETALIKE_QUERY_ESTIMATOR_H_
