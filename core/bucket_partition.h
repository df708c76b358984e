// Step 1 of BUREL, extracted from core/burel.cc so the SA-value
// bucketization is separately testable and benchmarkable: β-likeness
// thresholds per SA value, and the greedy minimal packing of values
// into buckets (the paper's DP objective; greedy is optimal for this
// hereditary contiguous-partition constraint).
#ifndef BETALIKE_CORE_BUCKET_PARTITION_H_
#define BETALIKE_CORE_BUCKET_PARTITION_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace betalike {

struct BurelOptions {
  // The β-likeness privacy budget: an adversary's posterior belief in
  // any SA value may exceed its prior by at most a factor 1 + beta.
  double beta = 1.0;
  // Enhanced model caps the allowed gain at ln(1/p_v) for rare values.
  bool enhanced = true;
  // Formation worker threads, including the calling thread: 1 (the
  // default) runs serially, 0 uses one worker per hardware thread,
  // k > 1 uses exactly k (at most kMaxFormationThreads). The published
  // output is bit-identical for every setting — threads change
  // wall-clock only.
  int num_threads = 1;
};

// Upper bound on BurelOptions::num_threads: a larger count would only
// ask the OS for more threads than any host runs, and failing to spawn
// them aborts instead of returning a Status.
inline constexpr int kMaxFormationThreads = 1024;

// Ok iff `options` carries a positive finite β and a num_threads in
// [0, kMaxFormationThreads].
Status ValidateBurelOptions(const BurelOptions& options);

// Per-SA-value equivalence-class frequency caps for the chosen model:
// thresholds[v] = p_v * (1 + min(beta, ln(1/p_v))) (enhanced) or
// p_v * (1 + beta) (basic). Exposed for Mondrian baselines and tests.
std::vector<double> BetaLikenessThresholds(const std::vector<double>& freqs,
                                           const BurelOptions& options);

// SA-value buckets from step 1 of BUREL: each bucket is a set of value
// codes with similar frequencies; total bucket frequency respects the
// threshold of the rarest member. Exposed for tests and future
// formation variants.
Result<std::vector<std::vector<int32_t>>> BucketizeSaValues(
    const std::vector<double>& freqs, const BurelOptions& options);

}  // namespace betalike

#endif  // BETALIKE_CORE_BUCKET_PARTITION_H_
