#include "core/formation.h"

#include <algorithm>
#include <limits>
#include <thread>

#ifdef __linux__
#include <sched.h>
#endif

#include "common/timer.h"

namespace betalike {
namespace {

constexpr int32_t kI32Max = std::numeric_limits<int32_t>::max();
constexpr int32_t kI32Min = std::numeric_limits<int32_t>::min();

}  // namespace

void MergeFormationProfile(const BurelProfile& from, BurelProfile* into) {
  into->sweep_seconds += from.sweep_seconds;
  into->axis_seconds += from.axis_seconds;
  into->partition_seconds += from.partition_seconds;
  into->nodes += from.nodes;
  into->leaves += from.leaves;
  into->parallel_tasks += from.parallel_tasks;
}

FormationWorker::FormationWorker(const FormationRun& run)
    : run_(run),
      value_count_(run.thresholds->size(), 0),
      value_count2_(run.thresholds->size(), 0),
      value_count3_(run.thresholds->size(), 0),
      box_min_(run.dims),
      box_max_(run.dims),
      box2_min_(run.dims),
      box2_max_(run.dims),
      seg_min_(run.dims),
      seg_max_(run.dims) {
  touched_.reserve(run.thresholds->size());
}

void FormationWorker::Form(int64_t lo, int64_t hi,
                           std::vector<std::pair<int64_t, int64_t>>* leaves,
                           BurelProfile* profile) {
  std::vector<std::pair<int64_t, int64_t>> stack;
  stack.emplace_back(lo, hi);
  while (!stack.empty()) {
    const auto [seg_lo, seg_hi] = stack.back();
    stack.pop_back();
    if (profile != nullptr) ++profile->nodes;
    const FormationCut cut = EvaluateNode(seg_lo, seg_hi, profile);
    if (cut.pos <= 0) {
      leaves->emplace_back(seg_lo, seg_hi);
      if (profile != nullptr) ++profile->leaves;
    } else {
      if (cut.dim >= 0) ApplyAxisCut(seg_lo, seg_hi, cut, profile);
      stack.emplace_back(seg_lo, seg_lo + cut.pos);
      stack.emplace_back(seg_lo + cut.pos, seg_hi);
    }
  }
}

FormationCut FormationWorker::EvaluateNode(int64_t lo, int64_t hi,
                                           BurelProfile* profile) {
  const int64_t len = hi - lo;
  FormationCut best;
  if (static_cast<double>(len) < run_.min_cut_len) return best;
  EnsureSegmentCapacity(len);
  const TableSchema& schema = *run_.schema;
  const std::vector<double>& thresholds = *run_.thresholds;
  const int dims = run_.dims;
  const int32_t* sa = run_.sa + lo;

  WallTimer section;
  // Forward sweep: feasibility and box loss of every prefix. The
  // loss is maintained incrementally, one NormalizedBoxLoss term per
  // dimension: a row that extends the box re-divides only the
  // dimensions it moved and re-sums the cached terms in fixed dim
  // order — the same divisions, additions, and order as a full
  // NormalizedBoxLoss call, so every stored value is bit-for-bit
  // what the direct call would produce. Hilbert locality makes
  // extensions frequent (the box grows as the curve advances), which
  // is what the per-dimension caching pays for. value_count_ is left
  // holding the full segment's SA histogram so the axis scans below
  // can derive right-side counts by subtraction instead of a second
  // row pass.
  // The running requirement is split across two interleaved count
  // arrays and two running maxima, even rows on one and odd rows on
  // the other: a value's count at row i is the exact integer sum of
  // its two halves, and the stored requirement max(even, odd) is
  // value-identical to the serial running max (max over positive
  // finite doubles is order-independent), while the loop-carried
  // store-to-load and maxsd chains each span two rows instead of
  // one. (The divisions here stay unconditional: they are off the
  // critical path — the maxsd chains — and hidden by the divider
  // unit, so guarding them behind a count threshold was measured
  // slower, the guard being an unpredictable branch that trips on
  // every increment of the max-achieving value. The axis-candidate
  // scan below is where the guard form wins.)
  double required_a = 1.0;
  double required_b = 1.0;
  double last_loss = 0.0;
  touched_.clear();
  loss_term_.assign(dims, 0.0);
  for (int d = 0; d < dims; ++d) {
    box_min_[d] = schema.qi[d].hi;
    box_max_[d] = schema.qi[d].lo;
  }
  const auto update_box = [&](int64_t i) {
    bool extended = false;
    for (int d = 0; d < dims; ++d) {
      const int32_t value = run_.qcol[d][lo + i];
      bool moved = false;
      if (value < box_min_[d]) {
        box_min_[d] = value;
        moved = true;
      }
      if (value > box_max_[d]) {
        box_max_[d] = value;
        moved = true;
      }
      if (moved) {
        const int64_t domain = schema.qi[d].extent();
        if (domain != 0) {
          loss_term_[d] =
              static_cast<double>(box_max_[d] - box_min_[d]) /
              static_cast<double>(domain);
        }
        extended = true;
      }
    }
    if (extended) {
      // Re-sum the per-dim terms in fixed order: identical
      // divisions, additions, and order as a NormalizedBoxLoss call
      // on the current box, so the result is bit-for-bit the same.
      double loss = 0.0;
      for (int d = 0; d < dims; ++d) loss += loss_term_[d];
      last_loss = loss / dims;
    }
  };
  {
    int64_t i = 0;
    for (; i + 1 < len; i += 2) {
      const int32_t v0 = sa[i];
      const int64_t c0 = ++value_count_[v0] + value_count3_[v0];
      if (c0 == 1) touched_.push_back(v0);
      required_a = std::max(
          required_a, static_cast<double>(c0) / thresholds[v0]);
      update_box(i);
      prefix_required_[i + 1] = std::max(required_a, required_b);
      prefix_loss_[i + 1] = last_loss;
      const int32_t v1 = sa[i + 1];
      const int64_t c1 = value_count_[v1] + ++value_count3_[v1];
      if (c1 == 1) touched_.push_back(v1);
      required_b = std::max(
          required_b, static_cast<double>(c1) / thresholds[v1]);
      update_box(i + 1);
      prefix_required_[i + 2] = std::max(required_a, required_b);
      prefix_loss_[i + 2] = last_loss;
    }
    if (i < len) {
      const int32_t v0 = sa[i];
      const int64_t c0 = ++value_count_[v0] + value_count3_[v0];
      if (c0 == 1) touched_.push_back(v0);
      required_a = std::max(
          required_a, static_cast<double>(c0) / thresholds[v0]);
      update_box(i);
      prefix_required_[i + 1] = std::max(required_a, required_b);
      prefix_loss_[i + 1] = last_loss;
    }
  }
  // Fold the odd-row counts back in: value_count_ is left holding
  // the full segment's SA histogram for the axis scans below, and
  // value_count3_ returns to all-zero for its next users.
  for (const int32_t v : touched_) {
    value_count_[v] += value_count3_[v];
    value_count3_[v] = 0;
  }
  // The forward sweep ends on the whole segment's box: keep it for
  // the axis-median scans below.
  for (int d = 0; d < dims; ++d) {
    seg_min_[d] = box_min_[d];
    seg_max_[d] = box_max_[d];
  }

  // Backward sweep: the same for every suffix (on the second count
  // array — the first keeps the segment histogram).
  required_a = 1.0;
  required_b = 1.0;
  last_loss = 0.0;
  loss_term_.assign(dims, 0.0);
  for (int d = 0; d < dims; ++d) {
    box_min_[d] = schema.qi[d].hi;
    box_max_[d] = schema.qi[d].lo;
  }
  {
    int64_t i = len - 1;
    for (; i >= 1; i -= 2) {
      const int32_t v0 = sa[i];
      const int64_t c0 = ++value_count2_[v0] + value_count3_[v0];
      required_a = std::max(
          required_a, static_cast<double>(c0) / thresholds[v0]);
      update_box(i);
      suffix_required_[i] = std::max(required_a, required_b);
      suffix_loss_[i] = last_loss;
      const int32_t v1 = sa[i - 1];
      const int64_t c1 = value_count2_[v1] + ++value_count3_[v1];
      required_b = std::max(
          required_b, static_cast<double>(c1) / thresholds[v1]);
      update_box(i - 1);
      suffix_required_[i - 1] = std::max(required_a, required_b);
      suffix_loss_[i - 1] = last_loss;
    }
    if (i == 0) {
      const int32_t v0 = sa[0];
      const int64_t c0 = ++value_count2_[v0] + value_count3_[v0];
      required_a = std::max(
          required_a, static_cast<double>(c0) / thresholds[v0]);
      update_box(0);
      suffix_required_[0] = std::max(required_a, required_b);
      suffix_loss_[0] = last_loss;
    }
  }
  for (const int32_t v : touched_) {
    value_count2_[v] = 0;
    value_count3_[v] = 0;
  }
  if (profile != nullptr) profile->sweep_seconds += section.ElapsedSeconds();

  // Best feasible cut: position k splits into sizes (k, len - k).
  // Cuts in the middle half keep the recursion balanced (O(n log n)
  // overall); the full range is only scanned when the middle has no
  // feasible cut, so slivers cannot be peeled off systematically.
  double best_score = -1.0;
  const auto search = [&](int64_t first, int64_t last) {
    // Two passes. The fill computes every candidate's score with the
    // infeasible ones blended to +inf — branchless, so it
    // vectorizes; feasible scores are the same expression on the
    // same values as before. The argmin scan then takes the first
    // strict minimum, which is exactly the serial selection: the
    // serial loop accepted the first feasible candidate (any finite
    // score beats +inf) and after that only strictly better ones.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    double* const scores = score_.data();
    // Generic over the index type: AVX2 converts packed int32 to
    // double (vcvtdq2pd) but has no int64 form, so segments that fit
    // int32 — all of them in practice — run the fill with an int32
    // induction; the int64 instantiation is the correctness fallback
    // for wider segments and computes identical values.
    const auto fill = [&](auto first_k, auto last_k, auto len_k) {
      for (auto k = first_k; k < last_k; ++k) {
        const double kk = static_cast<double>(k);
        const double rk = static_cast<double>(len_k - k);
        const bool feas_lo = kk >= prefix_required_[k];
        const bool feas_hi = rk >= suffix_required_[k];
        const double score = kk * prefix_loss_[k] + rk * suffix_loss_[k];
        scores[k] = (feas_lo & feas_hi) ? score : kInf;
      }
    };
    if (len <= std::numeric_limits<int32_t>::max()) {
      fill(static_cast<int32_t>(first), static_cast<int32_t>(last),
           static_cast<int32_t>(len));
    } else {
      fill(first, last, len);
    }
    double best_local = kInf;
    for (int64_t k = first; k < last; ++k) {
      if (scores[k] < best_local) {
        best.pos = k;
        best_local = scores[k];
      }
    }
  };
  search(std::max<int64_t>(1, len / 4), len - len / 4);
  if (best.pos < 0) search(1, len);
  if (best.pos > 0) {
    best_score = static_cast<double>(best.pos) * prefix_loss_[best.pos] +
                 static_cast<double>(len - best.pos) *
                     suffix_loss_[best.pos];
  }

  // Axis-median cuts: for each dimension, split at the median value
  // (left takes v <= median) and score the two halves the same way.
  if (profile != nullptr) section.Restart();
  for (int d = 0; d < dims; ++d) {
    const int32_t dim_min = seg_min_[d];
    const int32_t dim_max = seg_max_[d];
    if (dim_min == dim_max) continue;  // single-valued dimension
    const int32_t* dcol = run_.qcol[d] + lo;
    // Median (the value a sorted copy would hold at index len / 2):
    // by counting sort when the live extent is no wider than the
    // segment, by nth_element otherwise. Both paths also yield
    // n_left — the histogram's prefix sums are already at hand, the
    // fallback takes one vectorizable counting pass.
    int32_t split;
    int64_t n_left;
    bool have_hist;
    // Widened: an int32 domain can span more than 2^31.
    const int64_t dim_extent = static_cast<int64_t>(dim_max) - dim_min;
    if (dim_extent <= len) {
      have_hist = true;
      // Two interleaved histograms, merged afterwards: consecutive
      // rows often hit the same bucket (Hilbert locality), and
      // splitting them across arrays breaks the store-to-load
      // forwarding chain the single-array increment loop stalls on.
      hist_.assign(dim_extent + 1, 0);
      hist2_.assign(dim_extent + 1, 0);
      int64_t i = 0;
      for (; i + 1 < len; i += 2) {
        ++hist_[dcol[i] - static_cast<int64_t>(dim_min)];
        ++hist2_[dcol[i + 1] - static_cast<int64_t>(dim_min)];
      }
      if (i < len) ++hist_[dcol[i] - static_cast<int64_t>(dim_min)];
      for (int64_t b = 0; b <= dim_extent; ++b) hist_[b] += hist2_[b];
      int64_t cum = 0;
      int64_t bucket = 0;
      while (cum + hist_[bucket] <= len / 2) cum += hist_[bucket++];
      split = static_cast<int32_t>(dim_min + bucket);
      if (split == dim_max) {
        // Median capped to keep the right side nonempty: everything
        // below the top occupied bucket goes left.
        --split;
        n_left = len - hist_[dim_extent];
      } else {
        n_left = cum + hist_[bucket];
      }
    } else {
      have_hist = false;
      scratch_values_.assign(dcol, dcol + len);
      std::nth_element(scratch_values_.begin(),
                       scratch_values_.begin() + len / 2,
                       scratch_values_.end());
      split = scratch_values_[len / 2];
      if (split == dim_max) --split;
      n_left = 0;
      for (int64_t i = 0; i < len; ++i) {
        n_left += static_cast<int64_t>(dcol[i] <= split);
      }
    }
    if (split < dim_min) continue;
    const int64_t n_right = len - n_left;
    if (n_left == 0 || n_right == 0) continue;

    // Feasibility: the left SA histogram in one pass (right counts
    // follow by subtracting from the segment histogram the forward
    // sweep left in value_count_), so infeasible candidates — the
    // common case near the leaves — skip the O(dims * len) box
    // work. Interleaved across two count arrays for the same
    // store-forwarding reason as the median histogram above.
    {
      int64_t i = 0;
      for (; i + 1 < len; i += 2) {
        value_count2_[sa[i]] +=
            static_cast<int64_t>(dcol[i] <= split);
        value_count3_[sa[i + 1]] +=
            static_cast<int64_t>(dcol[i + 1] <= split);
      }
      if (i < len) {
        value_count2_[sa[i]] +=
            static_cast<int64_t>(dcol[i] <= split);
      }
    }
    // The candidate is infeasible iff some value's quotient exceeds
    // its side's size — the quotients themselves are never stored, so
    // the division is only spent on counts the multiply bound cannot
    // clear: count <= (int64)(size * t) - 1 proves count / t <= size
    // in the reals (same -1 rounding absorption as the sweep guards),
    // and everything else recomputes the exact rounded quotient the
    // two-maxima formulation compared, keeping the accept/reject
    // decision bit-identical.
    const double n_left_d = static_cast<double>(n_left);
    const double n_right_d = static_cast<double>(n_right);
    bool infeasible = false;
    for (const int32_t v : touched_) {
      const int64_t left_count = value_count2_[v] + value_count3_[v];
      const int64_t right_count = value_count_[v] - left_count;
      value_count2_[v] = 0;
      value_count3_[v] = 0;
      if (infeasible) continue;  // counts still need their reset
      const double threshold = thresholds[v];
      if (left_count >
              static_cast<int64_t>(n_left_d * threshold) - 1 &&
          left_count > 0 &&
          n_left_d < static_cast<double>(left_count) / threshold) {
        infeasible = true;
        continue;
      }
      if (right_count >
              static_cast<int64_t>(n_right_d * threshold) - 1 &&
          right_count > 0 &&
          n_right_d < static_cast<double>(right_count) / threshold) {
        infeasible = true;
      }
    }
    if (infeasible) continue;

    // The candidate is feasible — uncommon outside the top of the
    // tree — so only now is the O(dims * len) box work spent. Side
    // masks as full int32 words (-1 = left), contiguous so the
    // compare auto-vectorizes and the box sweeps below blend with
    // plain bitwise arithmetic.
    for (int64_t i = 0; i < len; ++i) {
      mask_[i] = -static_cast<int32_t>(dcol[i] <= split);
    }
    // Both sides' boxes column-wise over the masks. The blend
    // against the min/max identity keeps the loop branchless and
    // fixed-order — integer min/max over a blended stream, which the
    // auto-vectorizer turns into compare/blend/min SIMD — and an
    // empty side retains its inverted init, exactly like a row-wise
    // update (sides are non-empty here anyway). The cut dimension
    // itself needs no row pass when its histogram is at hand: the
    // sides' bounds are the occupied buckets adjacent to the split.
    for (int dd = 0; dd < dims; ++dd) {
      if (dd == d && have_hist) {
        box_min_[dd] = dim_min;
        int64_t b = split - static_cast<int64_t>(dim_min);
        while (hist_[b] == 0) --b;  // n_left > 0: some bucket is set
        box_max_[dd] = static_cast<int32_t>(dim_min + b);
        b = split - static_cast<int64_t>(dim_min) + 1;
        while (hist_[b] == 0) ++b;  // n_right > 0 likewise
        box2_min_[dd] = static_cast<int32_t>(dim_min + b);
        box2_max_[dd] = dim_max;
        continue;
      }
      int32_t lmin = schema.qi[dd].hi;
      int32_t lmax = schema.qi[dd].lo;
      int32_t rmin = lmin;
      int32_t rmax = lmax;
      const int32_t* column = run_.qcol[dd] + lo;
      for (int64_t i = 0; i < len; ++i) {
        const int32_t value = column[i];
        const int32_t m = mask_[i];
        const int32_t lv = (value & m) | (kI32Max & ~m);
        const int32_t lx = (value & m) | (kI32Min & ~m);
        const int32_t rv = (value & ~m) | (kI32Max & m);
        const int32_t rx = (value & ~m) | (kI32Min & m);
        lmin = lv < lmin ? lv : lmin;
        lmax = lx > lmax ? lx : lmax;
        rmin = rv < rmin ? rv : rmin;
        rmax = rx > rmax ? rx : rmax;
      }
      box_min_[dd] = lmin;
      box_max_[dd] = lmax;
      box2_min_[dd] = rmin;
      box2_max_[dd] = rmax;
    }
    const double left_loss = NormalizedBoxLoss(schema, box_min_, box_max_);
    const double right_loss =
        NormalizedBoxLoss(schema, box2_min_, box2_max_);
    const double score = static_cast<double>(n_left) * left_loss +
                         static_cast<double>(n_right) * right_loss;
    if (best_score < 0.0 || score < best_score) {
      best_score = score;
      best.dim = d;
      best.pos = n_left;
      best.split = split;
    }
  }
  for (int32_t v : touched_) value_count_[v] = 0;
  if (profile != nullptr) profile->axis_seconds += section.ElapsedSeconds();
  return best;
}

void FormationWorker::ApplyAxisCut(int64_t lo, int64_t hi,
                                   const FormationCut& cut,
                                   BurelProfile* profile) {
  const int64_t len = hi - lo;
  WallTimer section;
  // The side flags are re-derived from the winning dimension's values
  // in one vectorizable pass (cheaper than memoizing flags for every
  // losing candidate).
  const int32_t* dcol = run_.qcol[cut.dim] + lo;
  for (int64_t i = 0; i < len; ++i) {
    side_[i] = dcol[i] <= cut.split;
  }
  const auto apply = [&](auto* data, auto* scratch) {
    int64_t l = 0;
    int64_t r = cut.pos;
    for (int64_t i = 0; i < len; ++i) {
      if (side_[i]) {
        scratch[l++] = data[i];
      } else {
        scratch[r++] = data[i];
      }
    }
    std::copy(scratch, scratch + len, data);
  };
  apply(run_.sequence + lo, part64_.data());
  for (int d = 0; d < run_.dims; ++d) {
    apply(run_.qcol[d] + lo, part32_.data());
  }
  apply(run_.sa + lo, part32_.data());
  if (profile != nullptr) {
    profile->partition_seconds += section.ElapsedSeconds();
  }
}

void FormationWorker::EnsureSegmentCapacity(int64_t len) {
  if (static_cast<int64_t>(mask_.size()) >= len) return;
  prefix_required_.resize(len + 1);
  suffix_required_.resize(len + 1);
  prefix_loss_.resize(len + 1);
  suffix_loss_.resize(len + 1);
  score_.resize(len + 1);
  mask_.resize(len);
  side_.resize(len);
  part64_.resize(len);
  part32_.resize(len);
}

int AvailableConcurrency() {
#ifdef __linux__
  // hardware_concurrency() reports the host's thread count even when
  // the scheduler pins this process to fewer CPUs (containers, CI
  // runners, taskset); the affinity mask is what can actually run.
  cpu_set_t affinity;
  if (sched_getaffinity(0, sizeof(affinity), &affinity) == 0) {
    const int cpus = CPU_COUNT(&affinity);
    if (cpus > 0) return cpus;
  }
#endif
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int ResolveFormationThreads(int num_threads) {
  if (num_threads >= 1) return num_threads;
  // Auto: one worker per runnable CPU — and strictly serial on a
  // single-CPU host, where pool fan-out is pure queueing overhead
  // (the parallel path measured ~3% behind serial on a 1-core
  // container before this clamp).
  const int cpus = AvailableConcurrency();
  return cpus <= 1 ? 1 : cpus;
}

}  // namespace betalike
