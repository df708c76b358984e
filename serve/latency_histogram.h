// Fixed-size log-linear latency histogram (HDR-style): 64 power-of-two
// ranges × 8 linear sub-buckets = 512 counters covering the full
// uint64 nanosecond range with ≤ 12.5% relative quantile error.
// Recording is two shifts and an increment — cheap enough to sit on
// the serving hot path — and histograms merge by addition, so each
// worker records locally and the bench merges after the run.
#ifndef BETALIKE_SERVE_LATENCY_HISTOGRAM_H_
#define BETALIKE_SERVE_LATENCY_HISTOGRAM_H_

#include <array>
#include <cstdint>

namespace betalike {

class LatencyHistogram {
 public:
  static constexpr int kSubBucketBits = 3;  // 8 sub-buckets per range
  static constexpr int kNumBuckets = 64 << kSubBucketBits;

  void Record(uint64_t nanos) {
    ++counts_[BucketIndex(nanos)];
    ++total_;
  }

  // Upper edge of the bucket holding the q-quantile sample (q in
  // [0, 1]; NaN reads as 0, like any q below the range); 0 when
  // nothing was recorded. Conservative: never underestimates the
  // sample's latency by more than one sub-bucket.
  uint64_t QuantileNanos(double q) const {
    if (total_ == 0) return 0;
    // Negated so NaN clamps too; it would otherwise reach the
    // uint64_t cast below, which is UB for NaN.
    if (!(q >= 0.0)) q = 0.0;
    if (q > 1.0) q = 1.0;
    // Rank of the quantile sample, 1-based: ceil(q * total), the
    // nearest-rank definition. Truncating instead rounds the rank
    // down whenever q * total is fractional, which reports the sample
    // one below the quantile — e.g. p99 of 100 distinct samples came
    // back as the 99th-smallest bucket's edge but p99.9 as the 99th
    // too, instead of the 100th.
    const double exact = q * static_cast<double>(total_);
    uint64_t rank = static_cast<uint64_t>(exact);
    if (static_cast<double>(rank) < exact) ++rank;
    if (rank == 0) rank = 1;
    if (rank > total_) rank = total_;
    uint64_t seen = 0;
    for (int i = 0; i < kNumBuckets; ++i) {
      seen += counts_[i];
      if (seen >= rank) return BucketUpperEdge(i);
    }
    return BucketUpperEdge(kNumBuckets - 1);
  }

  void Merge(const LatencyHistogram& other) {
    for (int i = 0; i < kNumBuckets; ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
  }

  void Reset() {
    counts_.fill(0);
    total_ = 0;
  }

  uint64_t count() const { return total_; }

  // The bucket mapping is public (and static) so tests can sweep every
  // index without recording 2^64 samples.
  //
  // Values below 2^(kSubBucketBits+1) index directly; above that, the
  // range is the position of the most significant bit and the
  // sub-bucket the kSubBucketBits bits after it.
  static int BucketIndex(uint64_t nanos) {
    if (nanos < (uint64_t{2} << kSubBucketBits)) {
      return static_cast<int>(nanos);
    }
    const int msb = 63 - __builtin_clzll(nanos);
    const int sub = static_cast<int>((nanos >> (msb - kSubBucketBits)) &
                                     ((uint64_t{1} << kSubBucketBits) - 1));
    // Ranges start at index 2 << kSubBucketBits, right after the
    // directly-indexed values.
    return ((msb - kSubBucketBits + 1) << kSubBucketBits) | sub;
  }

  static uint64_t BucketUpperEdge(int index) {
    if (index < (2 << kSubBucketBits)) return static_cast<uint64_t>(index);
    const int range = index >> kSubBucketBits;
    const int sub = index & ((1 << kSubBucketBits) - 1);
    const int msb = range + kSubBucketBits - 1;
    // The last two octaves' edges overflow uint64, so saturate at
    // UINT64_MAX. Without this clamp, msb reaches 64..65 for indices
    // >= 496 and the shift below is undefined behavior — those indices
    // never hold samples (BucketIndex tops out at 495) but
    // QuantileNanos's final fallthrough evaluates the very last one.
    if (msb >= 64) return UINT64_MAX;
    // Upper edge of the sub-bucket: next sub-bucket's base minus one
    // (for the top sub-bucket that base is the next octave's start;
    // for the top sub-bucket of the 2^63 octave the sum wraps to 0 and
    // the -1 yields UINT64_MAX — defined unsigned arithmetic, and the
    // correct saturated edge).
    return ((uint64_t{1} << msb) +
            (static_cast<uint64_t>(sub + 1) << (msb - kSubBucketBits))) -
           1;
  }

 private:
  std::array<uint64_t, kNumBuckets> counts_{};
  uint64_t total_ = 0;
};

}  // namespace betalike

#endif  // BETALIKE_SERVE_LATENCY_HISTOGRAM_H_
