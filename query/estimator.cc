#include "query/estimator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
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

// The moments an Anatomy per-group record holds, by what the answer
// reads: the in-range count (kCount), then Σ v and Σ v² (kSum).
enum MomentSet { kCount = 1, kSum = 2 };
constexpr int Width(int moments) {
  return (moments & kCount ? 1 : 0) + (moments & kSum ? 2 : 0);
}

// Adds every ST entry of `view` with a value in [sa_lo, sa_hi] to its
// group's record, moments[Width(kMoments) * g ...]. A record of M
// holds every in-range moment when it holds the full-domain ones: SA
// values are >= 0, so each in-range count, Σ v and Σ v² is at most
// the group's size, full-domain Σ v and full-domain Σ v².
template <int kMoments, typename M>
void ScatterMoments(const AnatomizedTable& view, int32_t sa_lo, int32_t sa_hi,
                    M* moments) {
  view.ForEachEntryInRange(sa_lo, sa_hi, [moments](int32_t v, int32_t g) {
    M* m = moments + Width(kMoments) * int64_t{g};
    if (kMoments & kCount) ++m[0];
    if (kMoments & kSum) {
      M* sums = m + Width(kMoments & kCount);
      const M value = static_cast<M>(v);
      sums[0] = static_cast<M>(sums[0] + value);
      sums[1] = static_cast<M>(sums[1] + value * value);
    }
  });
}

// Every group's full-domain record {Σ v, Σ v²} in int64.
std::vector<int64_t> FullDomainMoments(const AnatomizedTable& view) {
  std::vector<int64_t> moments(Width(kSum) * view.num_groups(), 0);
  ScatterMoments<kSum>(view, 0, view.source().sa_spec().num_values - 1,
                       moments.data());
  return moments;
}

// True iff every group's size and full-domain Σ v and Σ v² are at most
// 65535, so that uint16_t holds every moment an answer reads.
bool MomentsFitUint16(const AnatomizedTable& view,
                      const std::vector<int64_t>& full_domain) {
  constexpr int64_t kMax = std::numeric_limits<uint16_t>::max();
  for (size_t g = 0; g < view.num_groups(); ++g) {
    if (view.group_size(g) > kMax || full_domain[2 * g] > kMax ||
        full_domain[2 * g + 1] > kMax) {
      return false;
    }
  }
  return true;
}

// Exact QI values, group-level SA values: rows matching the QI
// predicates are selected exactly (the QIT publishes exact values) and
// each contributes its group's share of the SA predicate.
//
// Every answer but the no-SA COUNT is one visit of the QI-matching
// rows, each adding terms from its group's record of SA moments and a
// per-row copy of its group's size, with the expressions a per-group
// record of doubles would hold — with contraction off, the same bits.
// A query with an SA predicate first scatters the count, Σ v and Σ v²
// of only the ST entries in its range (the ST is value-major, so they
// are one contiguous run) into per-thread per-group scratch; one
// without reads the full-domain {Σ v, Σ v²} records built at
// construction. The moment type M is the narrowest the publication
// bounds (MakeAnatomizedEstimator): uint16_t, 2 / 4 / 6 B per group
// for a COUNT / SUM / fused record, when every group's size and
// full-domain Σ v and Σ v² fit, int64_t otherwise. Each integer
// converts to the same double at either width, so the answers are the
// same bits; the narrow records keep the visit's random reads by group
// in L2.
template <typename M>
class AnatomizedEstimator final : public Estimator {
 public:
  // `full_domain` holds every group's full-domain {Σ v, Σ v²}
  // (FullDomainMoments); they and the group sizes must fit in M.
  AnatomizedEstimator(std::shared_ptr<const AnatomizedTable> view,
                      const std::vector<int64_t>& full_domain)
      : view_(std::move(view)),
        full_domain_(full_domain.begin(), full_domain.end()) {
    row_group_size_.reserve(static_cast<size_t>(view_->num_rows()));
    for (int64_t row = 0; row < view_->num_rows(); ++row) {
      row_group_size_.push_back(
          static_cast<M>(view_->group_size(view_->group_of_row(row))));
    }
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
    return VisitWithMoments<EstimateWithVariance, kCount>(
        query, RangeMoments<kCount>(query),
        [](const M* m, M size, EstimateWithVariance* out) {
          AddCount(FractionOf(m[0], size), out);
        });
  }

  // A QIT-matching row's SA value is unknown (the group's linkage is
  // broken), so it contributes the group's mean masked value
  // E[v·1{v in range}] — which sums to the exact group total when a
  // whole group matches — with per-row variance E[v²·1] - E[v·1]² from
  // the same histogram moments.
  EstimateWithVariance EstimateSumWithUncertainty(
      const AggregateQuery& query) const override {
    const M* moments = query.has_sa_predicate() ? RangeMoments<kSum>(query)
                                                : full_domain_.data();
    return VisitWithMoments<EstimateWithVariance, kSum>(
        query, moments, [](const M* m, M size, EstimateWithVariance* out) {
          AddSum(SumTerms(m[0], m[1], size), out);
        });
  }

  // COUNT and SUM from one scatter (none without an SA predicate) and
  // one row visit, each accumulator adding the terms its own call adds
  // in the same row order. Without an SA predicate every matching row
  // counts 1.0: below 2^53 rows the Σ 1.0 is exactly the no-SA COUNT's
  // matching-row count.
  CountAndSum EstimateCountAndSumWithUncertainty(
      const AggregateQuery& query) const override {
    if (!query.has_sa_predicate()) {
      return VisitWithMoments<CountAndSum, kSum>(
          query, full_domain_.data(),
          [](const M* m, M size, CountAndSum* out) {
            out->count.estimate += 1.0;
            AddSum(SumTerms(m[0], m[1], size), &out->sum);
          });
    }
    return VisitWithMoments<CountAndSum, kCount | kSum>(
        query, RangeMoments<kCount | kSum>(query),
        [](const M* m, M size, CountAndSum* out) {
          AddCount(FractionOf(m[0], size), &out->count);
          AddSum(SumTerms(m[1], m[2], size), &out->sum);
        });
  }

 private:
  static double FractionOf(int64_t count, int64_t size) {
    return static_cast<double>(count) / static_cast<double>(size);
  }
  // A group's SUM terms: its mean masked value E[v·1] and variance
  // E[v²·1] - E[v·1]², non-negative mathematically (the max guards FP
  // rounding only).
  static EstimateWithVariance SumTerms(int64_t sum, int64_t square_sum,
                                       int64_t size) {
    const double inv = 1.0 / static_cast<double>(size);
    const double mean = static_cast<double>(sum) * inv;
    const double second = static_cast<double>(square_sum) * inv;
    return {mean, std::max(0.0, second - mean * mean)};
  }

  // The terms one visited row adds. COUNT: the Bernoulli mean f and
  // variance f(1-f). SUM: the group's {mean, variance}.
  static void AddCount(double fraction, EstimateWithVariance* out) {
    out->estimate += fraction;
    out->variance += fraction * (1.0 - fraction);
  }
  static void AddSum(const EstimateWithVariance& r, EstimateWithVariance* out) {
    out->estimate += r.estimate;
    out->variance += r.variance;
  }

  // The query's QI predicates as kernel ranges. The SA column is what
  // Anatomy withholds per row, so an SA predicate acts only through the
  // groups' ST entries.
  std::vector<ColumnRange> QiRanges(const AggregateQuery& query) const {
    return QueryRanges(view_->source(), query, /*with_sa=*/false);
  }

  // The calling thread's per-group scratch with its first
  // `width * num_groups` entries zeroed. There is one buffer per thread
  // and moment type (the estimator is shared by the serving threads),
  // reused by every answer the thread makes at that width. It is sized
  // for the widest record, and the old buffer is freed before a larger
  // one is made, so it never holds two buffers at once.
  static M* ZeroedScratch(size_t num_groups, int64_t width) {
    thread_local std::vector<M> scratch;
    const size_t widest = Width(kCount | kSum) * num_groups;
    if (scratch.size() < widest) {
      std::vector<M>().swap(scratch);
      scratch.resize(widest);
    }
    std::fill_n(scratch.data(), width * num_groups, M{0});
    return scratch.data();
  }

  // The query's SA-range records, scattered into this thread's scratch.
  template <int kMoments>
  const M* RangeMoments(const AggregateQuery& query) const {
    M* moments = ZeroedScratch(view_->num_groups(), Width(kMoments));
    ScatterMoments<kMoments>(*view_, query.sa_lo, query.sa_hi, moments);
    return moments;
  }

  // Calls add(moments + Width(kMoments) * g, size of g, &out) for each
  // row matching the query's QI predicates, g its group, in ascending
  // row order.
  template <typename Out, int kMoments, typename Add>
  Out VisitWithMoments(const AggregateQuery& query, const M* moments,
                       Add add) const {
    const AnatomizedTable& view = *view_;
    constexpr int64_t kWidth = Width(kMoments);
    const M* sizes = row_group_size_.data();
    Out out;
    ForEachMatchingRow(view.num_rows(), QiRanges(query), [&](int64_t row) {
      add(moments + kWidth * view.group_of_row(row), sizes[row], &out);
    });
    return out;
  }

  std::shared_ptr<const AnatomizedTable> view_;
  // Per group: its full-domain {Σ v, Σ v²}, what a SUM without an SA
  // predicate reads.
  std::vector<M> full_domain_;
  // Per row: the size of its group, so the row visit reads sizes in row
  // order instead of gathering them by group.
  std::vector<M> row_group_size_;
};

// Anatomy's estimator at the narrowest moment width `view` bounds.
std::unique_ptr<Estimator> MakeAnatomizedEstimator(
    std::shared_ptr<const AnatomizedTable> view) {
  const std::vector<int64_t> full_domain = FullDomainMoments(*view);
  if (MomentsFitUint16(*view, full_domain)) {
    return std::make_unique<AnatomizedEstimator<uint16_t>>(std::move(view),
                                                           full_domain);
  }
  return std::make_unique<AnatomizedEstimator<int64_t>>(std::move(view),
                                                        full_domain);
}

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
      return MakeAnatomizedEstimator(view.shared_anatomized());
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

int AnatomizedMomentBytes(const AnatomizedTable& view) {
  return MomentsFitUint16(view, FullDomainMoments(view)) ? 2 : 8;
}

WorkloadError EvaluateWorkloadWithTruth(const std::vector<int64_t>& truth,
                                        const std::vector<double>& estimates) {
  BETALIKE_CHECK(truth.size() == estimates.size())
      << "truth has " << truth.size() << " counts for " << estimates.size()
      << " estimates";
  WorkloadError out;
  out.num_queries = static_cast<int>(estimates.size());
  if (estimates.empty()) return out;

  std::vector<double> errors;
  errors.reserve(estimates.size());
  double sum = 0.0;
  for (size_t i = 0; i < estimates.size(); ++i) {
    const double actual = static_cast<double>(truth[i]);
    const double error =
        100.0 * std::fabs(estimates[i] - actual) / std::max(actual, 1.0);
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

}  // namespace betalike
