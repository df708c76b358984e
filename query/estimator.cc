#include "query/estimator.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "query/row_filter.h"

namespace betalike {
namespace {

// ---------------------------------------------------------------------------
// Box index over a publication's equivalence classes: flattened per-EC
// box summaries plus a conservative per-dimension overlap prune.
//
// The serving layer answers millions of point queries from one
// publication, so the per-query cost is dominated by the scan over
// equivalence classes. Two precomputed structures cut it down:
//
//   - Box summaries in one contiguous EC-major array (the per-EC
//     vectors of the publication scatter every class across the heap).
//   - Per-dimension overlap bitsets over a fixed 128-cell domain grid:
//     A[d][c] holds the classes whose box can start at or before cell
//     c's upper edge, B[d][c] those whose box can end at or after cell
//     c's lower edge. ANDing the (A, B) pair of every predicate yields
//     a *superset* of the classes overlapping all predicates, so
//     skipping the rest drops only zero-contribution classes.
//
// ForEachOverlapping is the one EC loop of the query layer: the
// generalized and perturbed estimators all visit their classes through
// it, in ascending class order.
// ---------------------------------------------------------------------------

constexpr int kPruneCells = 128;

class GeneralizedBoxIndex {
 public:
  explicit GeneralizedBoxIndex(const GeneralizedTable& published)
      : schema_(published.source().schema()),
        num_dims_(schema_.num_qi()),
        num_ecs_(published.num_ecs()),
        words_((num_ecs_ + 63) / 64) {
    boxes_.resize(num_ecs_ * static_cast<size_t>(num_dims_) * 2);
    sizes_.reserve(num_ecs_);
    for (size_t e = 0; e < num_ecs_; ++e) {
      const EquivalenceClass& ec = published.ec(e);
      sizes_.push_back(static_cast<double>(ec.size()));
      for (int d = 0; d < num_dims_; ++d) {
        boxes_[(e * num_dims_ + d) * 2 + 0] = ec.qi_min[d];
        boxes_[(e * num_dims_ + d) * 2 + 1] = ec.qi_max[d];
      }
    }

    // A-table then B-table per dimension, kPruneCells bitsets each.
    overlap_bits_.assign(
        static_cast<size_t>(num_dims_) * 2 * kPruneCells * words_, 0);
    for (size_t e = 0; e < num_ecs_; ++e) {
      const EquivalenceClass& ec = published.ec(e);
      const uint64_t bit = uint64_t{1} << (e % 64);
      const size_t word = e / 64;
      for (int d = 0; d < num_dims_; ++d) {
        // box_lo <= upper_edge(c) holds for every cell from the one
        // containing box_lo upward; box_hi >= lower_edge(c) for every
        // cell up to the one containing box_hi.
        for (int c = Cell(d, ec.qi_min[d]); c < kPruneCells; ++c) {
          overlap_bits_[BitsetOffset(d, /*b_table=*/false, c) + word] |= bit;
        }
        for (int c = Cell(d, ec.qi_max[d]); c >= 0; --c) {
          overlap_bits_[BitsetOffset(d, /*b_table=*/true, c) + word] |= bit;
        }
      }
    }
  }

  const TableSchema& schema() const { return schema_; }
  double size(size_t e) const { return sizes_[e]; }

  // Calls visit(e, fraction) for every class whose box overlaps every
  // QI predicate of `query`, in ascending class order. `fraction` is
  // the share of the class's box the predicates cover under uniform
  // spread, Π_d |box_d ∩ range_d| / |box_d| counting integer points
  // (1 for a query without QI predicates). Classes the bitset prune
  // skips, and the false positives the exact test rejects, are exactly
  // those whose fraction would be 0.
  template <typename Visit>
  void ForEachOverlapping(const AggregateQuery& query, Visit&& visit) const {
    // Candidate mask: a superset of the overlapping classes, all-ones
    // (over the EC range) for a query without QI predicates. Per-thread
    // scratch: the index is shared across serving threads.
    thread_local std::vector<uint64_t> mask;
    mask.assign(words_, 0);
    bool first = true;
    for (const QueryPredicate& p : query.predicates) {
      const uint64_t* a =
          overlap_bits_.data() + BitsetOffset(p.dim, false, Cell(p.dim, p.hi));
      const uint64_t* b =
          overlap_bits_.data() + BitsetOffset(p.dim, true, Cell(p.dim, p.lo));
      for (size_t w = 0; w < words_; ++w) {
        mask[w] = (first ? a[w] : mask[w] & a[w]) & b[w];
      }
      first = false;
    }
    if (first) {
      for (size_t e = 0; e < num_ecs_; ++e) {
        mask[e / 64] |= uint64_t{1} << (e % 64);
      }
    }
    for (size_t w = 0; w < words_; ++w) {
      uint64_t bits = mask[w];
      while (bits != 0) {
        const size_t e = w * 64 + static_cast<size_t>(__builtin_ctzll(bits));
        bits &= bits - 1;
        double fraction = 1.0;
        bool overlap = true;
        for (const QueryPredicate& p : query.predicates) {
          const int32_t box_lo = boxes_[(e * num_dims_ + p.dim) * 2];
          const int32_t box_hi = boxes_[(e * num_dims_ + p.dim) * 2 + 1];
          const int32_t lo = std::max(box_lo, p.lo);
          const int32_t hi = std::min(box_hi, p.hi);
          if (lo > hi) {
            overlap = false;
            break;
          }
          fraction *= static_cast<double>(hi - lo + 1) /
                      static_cast<double>(box_hi - box_lo + 1);
        }
        if (overlap) visit(e, fraction);
      }
    }
  }

 private:
  // Cell of `value` on dimension `d`'s grid, with out-of-domain values
  // clamped — clamping keeps the cell's edge on the conservative side
  // of the query bound, so pruned sets stay supersets.
  int Cell(int d, int64_t value) const {
    const QiSpec& spec = schema_.qi[d];
    if (value < spec.lo) value = spec.lo;
    if (value > spec.hi) value = spec.hi;
    const int64_t offset = value - spec.lo;
    return static_cast<int>(offset * kPruneCells / (spec.extent() + 1));
  }

  // Offset of the (A or B) bitset of cell `c` on dimension `d`.
  size_t BitsetOffset(int d, bool b_table, int c) const {
    return ((static_cast<size_t>(d) * 2 + (b_table ? 1 : 0)) * kPruneCells +
            c) *
           words_;
  }

  TableSchema schema_;
  int num_dims_;
  size_t num_ecs_;
  size_t words_;
  std::vector<int32_t> boxes_;   // EC-major: [e][d][lo, hi]
  std::vector<double> sizes_;
  std::vector<uint64_t> overlap_bits_;
};

// Uniform spread over generalized boxes: every overlapping class
// contributes its count of tuples matching the SA predicate (all
// tuples when there is none) times its covered box fraction.
class GeneralizedEstimator final : public Estimator {
 public:
  explicit GeneralizedEstimator(
      std::shared_ptr<const GeneralizedTable> published)
      : published_(std::move(published)),
        sa_index_(*published_),
        boxes_(*published_),
        num_values_(published_->source().sa_spec().num_values) {}

  std::string Name() const override { return "generalized"; }
  Status Validate(const AggregateQuery& query) const override {
    return ValidateQuery(boxes_.schema(), query);
  }
  int32_t sa_num_values() const override { return num_values_; }

  EstimateWithVariance EstimateWithUncertainty(
      const AggregateQuery& query) const override {
    const bool sa = query.has_sa_predicate();
    EstimateWithVariance out;
    boxes_.ForEachOverlapping(query, [&](size_t e, double fraction) {
      const double matching =
          sa ? static_cast<double>(
                   sa_index_.Count(e, query.sa_lo, query.sa_hi))
             : boxes_.size(e);
      out.estimate += fraction * matching;
      // Clustered-spread variance f(1-f)·m²: a class's matching tuples
      // sit in correlated clumps, not independently (Binomial f(1-f)·m
      // covers only ~56% of truths at nominal 95% on CENSUS; treating
      // each class as one all-or-nothing block lands 0.93–0.96 across
      // the fig8 vary-λ panel).
      out.variance += fraction * (1.0 - fraction) * matching * matching;
    });
    return out;
  }

  // Uniform spread of each class's exact in-range SA value sum — the
  // SUM analogue of the count path, with the clustered f(1-f)·s²
  // variance per class.
  EstimateWithVariance EstimateSumWithUncertainty(
      const AggregateQuery& query) const override {
    int32_t lo = 0;
    int32_t hi = num_values_ - 1;
    if (query.has_sa_predicate()) {
      lo = query.sa_lo;
      hi = query.sa_hi;
    }
    EstimateWithVariance out;
    boxes_.ForEachOverlapping(query, [&](size_t e, double fraction) {
      const double sum = static_cast<double>(sa_index_.ValueSum(e, lo, hi));
      out.estimate += fraction * sum;
      out.variance += fraction * (1.0 - fraction) * sum * sum;
    });
    return out;
  }

 private:
  std::shared_ptr<const GeneralizedTable> published_;
  EcSaIndex sa_index_;
  GeneralizedBoxIndex boxes_;
  int32_t num_values_;
};

// Exact QI values, group-level SA values: rows matching the QI
// predicates are selected exactly (the QIT publishes exact values) and
// each contributes its group's share of the SA predicate.
//
// Every answer is one visit of the QI-matching rows that adds up one
// record per row, read from the row's group. A query with an SA
// predicate first fills its own records in one pass over the groups,
// each holding only what the visit reads: the fraction for COUNT (8 B),
// the first two moments for SUM (16 B), all three for both (24 B). The
// per-row variance terms are recomputed from them at every visited row;
// with contraction off that gives the bits a per-group precomputation
// would. The full-domain SUM records do not depend on the query, so
// they are built once, at construction.
class AnatomizedEstimator final : public Estimator {
 public:
  explicit AnatomizedEstimator(std::shared_ptr<const AnatomizedTable> view)
      : view_(std::move(view)) {
    const int32_t hi = sa_num_values() - 1;
    full_domain_sum_ = PerGroup([&](size_t g) {
      const SumRecord r = SumRecordOf(view_->GroupSaMoments(g, 0, hi), g);
      return EstimateWithVariance{r.mean, SumVariance(r)};
    });
  }

  std::string Name() const override { return "anatomized"; }
  Status Validate(const AggregateQuery& query) const override {
    return ValidateQuery(view_->source().schema(), query);
  }
  int32_t sa_num_values() const override {
    return view_->source().sa_spec().num_values;
  }

  // Without an SA predicate the QIT answers exactly: the matching-row
  // count. With one, under the within-group uniform-association model a
  // matching row carries the SA range with its group's probability
  // `fraction`: Bernoulli mean and variance per row.
  EstimateWithVariance EstimateWithUncertainty(
      const AggregateQuery& query) const override {
    if (!query.has_sa_predicate()) {
      // Below 2^53 rows the count is exactly the Σ 1.0 of a row visit.
      EstimateWithVariance out;
      out.estimate = static_cast<double>(
          CountMatchingRows(view_->num_rows(), QiRanges(query)));
      return out;
    }
    const std::vector<double> fractions = PerGroup([&](size_t g) {
      return FractionOf(view_->GroupSaMoments(g, query.sa_lo, query.sa_hi),
                        g);
    });
    return VisitMatchingRows<EstimateWithVariance>(query, fractions);
  }

  // A QIT-matching row's SA value is unknown (the group's linkage is
  // broken), so it contributes the group's mean masked value
  // E[v·1{v in range}] — which sums to the exact group total when a
  // whole group matches — with per-row variance E[v²·1] - E[v·1]² from
  // the same histogram moments.
  EstimateWithVariance EstimateSumWithUncertainty(
      const AggregateQuery& query) const override {
    if (!query.has_sa_predicate()) {
      return VisitMatchingRows<EstimateWithVariance>(query, full_domain_sum_);
    }
    const std::vector<SumRecord> records = PerGroup([&](size_t g) {
      return SumRecordOf(view_->GroupSaMoments(g, query.sa_lo, query.sa_hi),
                         g);
    });
    return VisitMatchingRows<EstimateWithVariance>(query, records);
  }

  // COUNT and SUM from one per-group pass (none without an SA
  // predicate) and one row visit, each accumulator adding the terms its
  // own call adds in the same row order.
  CountAndSum EstimateCountAndSumWithUncertainty(
      const AggregateQuery& query) const override {
    if (!query.has_sa_predicate()) {
      return VisitMatchingRows<CountAndSum>(query, full_domain_sum_);
    }
    const std::vector<CountSumRecord> records = PerGroup([&](size_t g) {
      const SaMoments m = view_->GroupSaMoments(g, query.sa_lo, query.sa_hi);
      return CountSumRecord{FractionOf(m, g), SumRecordOf(m, g)};
    });
    return VisitMatchingRows<CountAndSum>(query, records);
  }

 private:
  // A group's per-query SUM record: its mean masked value and mean
  // masked square.
  struct SumRecord {
    double mean;
    double second;
  };
  struct CountSumRecord {
    double fraction;
    SumRecord sum;
  };

  double FractionOf(const SaMoments& m, size_t g) const {
    return static_cast<double>(m.count) /
           static_cast<double>(view_->group_size(g));
  }
  SumRecord SumRecordOf(const SaMoments& m, size_t g) const {
    const double inv = 1.0 / static_cast<double>(view_->group_size(g));
    return {static_cast<double>(m.sum) * inv,
            static_cast<double>(m.square_sum) * inv};
  }
  // Non-negative mathematically; the max guards FP rounding only.
  static double SumVariance(const SumRecord& r) {
    return std::max(0.0, r.second - r.mean * r.mean);
  }

  // The terms one visited row adds, chosen by its record and the answer
  // it accumulates. COUNT: the Bernoulli mean f and variance f(1-f).
  static void AddRow(double fraction, EstimateWithVariance* out) {
    out->estimate += fraction;
    out->variance += fraction * (1.0 - fraction);
  }
  // SUM, from the two moments or from a precomputed {mean, variance}.
  static void AddRow(const SumRecord& r, EstimateWithVariance* out) {
    out->estimate += r.mean;
    out->variance += SumVariance(r);
  }
  static void AddRow(const EstimateWithVariance& r,
                     EstimateWithVariance* out) {
    out->estimate += r.estimate;
    out->variance += r.variance;
  }
  // Both, with and without an SA predicate. Without one every matching
  // row counts 1.0: below 2^53 rows the Σ 1.0 is exactly the no-SA
  // COUNT's matching-row count.
  static void AddRow(const CountSumRecord& r, CountAndSum* out) {
    AddRow(r.fraction, &out->count);
    AddRow(r.sum, &out->sum);
  }
  static void AddRow(const EstimateWithVariance& r, CountAndSum* out) {
    out->count.estimate += 1.0;
    AddRow(r, &out->sum);
  }

  // The query's QI predicates as kernel ranges. The SA column is what
  // Anatomy withholds per row, so an SA predicate acts only through the
  // groups' ST entries.
  std::vector<ColumnRange> QiRanges(const AggregateQuery& query) const {
    return QueryRanges(view_->source(), query, /*with_sa=*/false);
  }

  // The per-group pass: record(g) for every group, in group order.
  template <typename Record>
  auto PerGroup(Record record) const
      -> std::vector<decltype(record(size_t{0}))> {
    std::vector<decltype(record(size_t{0}))> out;
    out.reserve(view_->num_groups());
    for (size_t g = 0; g < view_->num_groups(); ++g) {
      out.push_back(record(g));
    }
    return out;
  }

  // The row visit every answer makes: AddRow(records[g], &out) for
  // each row matching the query's QI predicates, g its group, in
  // ascending row order.
  template <typename Out, typename Record>
  Out VisitMatchingRows(const AggregateQuery& query,
                        const std::vector<Record>& records) const {
    const AnatomizedTable& view = *view_;
    Out out;
    ForEachMatchingRow(view.num_rows(), QiRanges(query), [&](int64_t row) {
      AddRow(records[view.group_of_row(row)], &out);
    });
    return out;
  }

  std::shared_ptr<const AnatomizedTable> view_;
  // Per group: the {mean, variance} a row adds to a SUM without an SA
  // predicate (16 B per group).
  std::vector<EstimateWithVariance> full_domain_sum_;
};

// Uniform spread over the boxes of a randomized-response view, with
// each class's SA counts reconstructed from the perturbed ones —
// ĉ = (ñ - n (1 - ρ) w / |SA|) / ρ for a range covering w of |SA|
// values, clamped to [0, n].
class PerturbedEstimator final : public Estimator {
 public:
  explicit PerturbedEstimator(
      std::shared_ptr<const PerturbedPublication> publication)
      : publication_(std::move(publication)),
        sa_index_(publication_->view),
        boxes_(publication_->view),
        retention_(publication_->retention),
        num_values_(publication_->view.source().sa_spec().num_values) {}

  std::string Name() const override { return "perturbed"; }
  Status Validate(const AggregateQuery& query) const override {
    return ValidateQuery(boxes_.schema(), query);
  }
  int32_t sa_num_values() const override { return num_values_; }

  EstimateWithVariance EstimateWithUncertainty(
      const AggregateQuery& query) const override {
    const bool sa = query.has_sa_predicate();
    double width = 0.0;
    if (sa) {
      const int32_t lo = std::max(query.sa_lo, 0);
      const int32_t hi = std::min(query.sa_hi, num_values_ - 1);
      if (lo > hi) return {};
      width = static_cast<double>(hi - lo + 1);
    }
    EstimateWithVariance out;
    boxes_.ForEachOverlapping(query, [&](size_t e, double fraction) {
      const double size = boxes_.size(e);
      double matching = size;
      if (sa) {
        const double noisy =
            static_cast<double>(sa_index_.Count(e, query.sa_lo, query.sa_hi));
        const double expected_noise = size * (1.0 - retention_) * width /
                                      static_cast<double>(num_values_);
        matching =
            std::clamp((noisy - expected_noise) / retention_, 0.0, size);
        // The observed in-range count is a sum of per-tuple Bernoulli
        // reports; its variance (estimated from the observed rate) is
        // inflated by 1/ρ² when the mechanism is inverted.
        const double rate = noisy / size;
        out.variance += fraction * fraction * size * rate * (1.0 - rate) /
                        (retention_ * retention_);
      }
      out.estimate += fraction * matching;
      // Clustered-spread term; see the generalized estimator for the
      // f(1-f)·m² model.
      out.variance += fraction * (1.0 - fraction) * matching * matching;
    });
    return out;
  }

  // Each class's per-value counts are reconstructed independently (the
  // width-1 instance of the count path's formula, so GROUP-BY slots and
  // this sum agree on the same ĉ_v), value-weighted, then
  // uniform-spread like the count estimate.
  EstimateWithVariance EstimateSumWithUncertainty(
      const AggregateQuery& query) const override {
    int32_t lo = 0;
    int32_t hi = num_values_ - 1;
    if (query.has_sa_predicate()) {
      lo = std::max(query.sa_lo, 0);
      hi = std::min(query.sa_hi, num_values_ - 1);
      if (lo > hi) return {};
    }
    EstimateWithVariance out;
    boxes_.ForEachOverlapping(query, [&](size_t e, double fraction) {
      const double size = boxes_.size(e);
      double class_sum = 0.0;
      double recon_var = 0.0;
      for (int32_t v = lo; v <= hi; ++v) {
        const double noisy = static_cast<double>(sa_index_.Count(e, v, v));
        const double expected_noise =
            size * (1.0 - retention_) / static_cast<double>(num_values_);
        const double reconstructed =
            std::clamp((noisy - expected_noise) / retention_, 0.0, size);
        class_sum += reconstructed * static_cast<double>(v);
        const double rate = noisy / size;
        recon_var += static_cast<double>(v) * static_cast<double>(v) * size *
                     rate * (1.0 - rate) / (retention_ * retention_);
      }
      out.estimate += fraction * class_sum;
      out.variance += fraction * fraction * recon_var +
                      fraction * (1.0 - fraction) * class_sum * class_sum;
    });
    return out;
  }

 private:
  std::shared_ptr<const PerturbedPublication> publication_;
  EcSaIndex sa_index_;
  GeneralizedBoxIndex boxes_;
  double retention_;
  int32_t num_values_;
};

}  // namespace

EstimateWithVariance Estimator::EstimateAvgWithUncertainty(
    const AggregateQuery& query) const {
  const CountAndSum parts = EstimateCountAndSumWithUncertainty(query);
  const EstimateWithVariance& count = parts.count;
  const EstimateWithVariance& sum = parts.sum;
  if (count.estimate <= 0.0) return {};  // empty selection: AVG is 0
  EstimateWithVariance out;
  out.estimate = sum.estimate / count.estimate;
  // Delta method for the ratio S/C, with the (positive) S-C covariance
  // term dropped — conservative.
  out.variance =
      (sum.variance + out.estimate * out.estimate * count.variance) /
      (count.estimate * count.estimate);
  return out;
}

std::vector<EstimateWithVariance> Estimator::EstimateGroupByWithUncertainty(
    const AggregateQuery& query) const {
  const int32_t num_values = sa_num_values();
  std::vector<EstimateWithVariance> out(static_cast<size_t>(num_values));
  int32_t lo = 0;
  int32_t hi = num_values - 1;
  if (query.has_sa_predicate()) {
    lo = std::max(query.sa_lo, 0);
    hi = std::min(query.sa_hi, num_values - 1);
  }
  AggregateQuery point = query;
  for (int32_t v = lo; v <= hi; ++v) {
    point.sa_lo = v;
    point.sa_hi = v;
    out[static_cast<size_t>(v)] = EstimateWithUncertainty(point);
  }
  return out;
}

Result<std::unique_ptr<Estimator>> MakeEstimator(const PublishedView& view) {
  switch (view.kind()) {
    case PublishedView::Kind::kGeneralized:
      if (view.generalized().num_ecs() == 0) {
        return Status::FailedPrecondition(
            "generalized publication has no equivalence classes");
      }
      return std::unique_ptr<Estimator>(
          new GeneralizedEstimator(view.shared_generalized()));
    case PublishedView::Kind::kAnatomized:
      if (view.anatomized().num_groups() == 0) {
        return Status::FailedPrecondition(
            "anatomized publication has no groups");
      }
      return std::unique_ptr<Estimator>(
          new AnatomizedEstimator(view.shared_anatomized()));
    case PublishedView::Kind::kPerturbed: {
      const double retention = view.perturbed().retention;
      if (!(retention > 0.0 && retention <= 1.0)) {
        return Status::InvalidArgument(
            "perturbed publication retention outside (0, 1]");
      }
      if (view.perturbed().view.num_ecs() == 0) {
        return Status::FailedPrecondition(
            "perturbed publication has no equivalence classes");
      }
      return std::unique_ptr<Estimator>(
          new PerturbedEstimator(view.shared_perturbed()));
    }
  }
  return Status::Internal("unreachable PublishedView kind");
}

WorkloadError EvaluateWorkloadWithTruth(
    const std::vector<int64_t>& truth,
    const std::vector<AggregateQuery>& workload,
    const std::function<double(const AggregateQuery&)>& estimate) {
  BETALIKE_CHECK(truth.size() == workload.size())
      << "truth has " << truth.size() << " counts for a workload of "
      << workload.size() << " queries";
  WorkloadError out;
  out.num_queries = static_cast<int>(workload.size());
  if (workload.empty()) return out;

  std::vector<double> errors;
  errors.reserve(workload.size());
  double sum = 0.0;
  for (size_t i = 0; i < workload.size(); ++i) {
    const double actual = static_cast<double>(truth[i]);
    const double error = 100.0 * std::fabs(estimate(workload[i]) - actual) /
                         std::max(actual, 1.0);
    errors.push_back(error);
    sum += error;
  }
  out.mean_relative_error = sum / static_cast<double>(errors.size());

  const size_t mid = errors.size() / 2;
  std::nth_element(errors.begin(), errors.begin() + mid, errors.end());
  double median = errors[mid];
  if (errors.size() % 2 == 0) {
    // Lower middle: the largest element left of the nth_element pivot.
    median = 0.5 * (median +
                    *std::max_element(errors.begin(), errors.begin() + mid));
  }
  out.median_relative_error = median;
  return out;
}

WorkloadError EvaluateWorkloadWithTruth(
    const std::vector<int64_t>& truth,
    const std::vector<AggregateQuery>& workload, const Estimator& estimator) {
  return EvaluateWorkloadWithTruth(
      truth, workload,
      [&estimator](const AggregateQuery& q) { return estimator.Estimate(q); });
}

}  // namespace betalike
