#include "core/bucket_partition.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace betalike {

Status ValidateBurelOptions(const BurelOptions& options) {
  if (!(options.beta > 0.0) || !std::isfinite(options.beta)) {
    return Status::InvalidArgument(
        StrFormat("beta = %f must be a positive finite number",
                  options.beta));
  }
  if (options.num_threads < 0 ||
      options.num_threads > kMaxFormationThreads) {
    return Status::InvalidArgument(
        StrFormat("num_threads = %d outside [0, %d] (0 = auto)",
                  options.num_threads, kMaxFormationThreads));
  }
  return Status::Ok();
}

std::vector<double> BetaLikenessThresholds(const std::vector<double>& freqs,
                                           const BurelOptions& options) {
  std::vector<double> thresholds(freqs.size(), 0.0);
  for (size_t v = 0; v < freqs.size(); ++v) {
    const double p = freqs[v];
    if (p <= 0.0) continue;  // absent values may not appear at all
    const double gain =
        options.enhanced ? std::min(options.beta, std::log(1.0 / p))
                         : options.beta;
    thresholds[v] = std::min(1.0, p * (1.0 + gain));
  }
  return thresholds;
}

Result<std::vector<std::vector<int32_t>>> BucketizeSaValues(
    const std::vector<double>& freqs, const BurelOptions& options) {
  if (Status s = ValidateBurelOptions(options); !s.ok()) return s;
  for (double p : freqs) {
    if (p < 0.0 || !std::isfinite(p)) {
      return Status::InvalidArgument("negative or non-finite frequency");
    }
  }
  const std::vector<double> thresholds =
      BetaLikenessThresholds(freqs, options);

  // Values in descending frequency; p == 0 values never occur and are
  // left out of every bucket.
  std::vector<int32_t> order;
  for (size_t v = 0; v < freqs.size(); ++v) {
    if (freqs[v] > 0.0) order.push_back(static_cast<int32_t>(v));
  }
  if (order.empty()) {
    return Status::InvalidArgument("all frequencies are zero");
  }
  std::stable_sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
    return freqs[a] > freqs[b];
  });

  // Greedy contiguous packing. A bucket holding values V is feasible iff
  // sum(p_v) <= threshold(rarest member): then an EC drawing its share
  // of tuples from the bucket cannot breach β-likeness even if they all
  // carry the rarest value. Thresholds grow with p, so the rarest member
  // is always the newest, and feasibility is hereditary — greedy
  // extension yields the minimum number of buckets.
  std::vector<std::vector<int32_t>> buckets;
  double bucket_freq = 0.0;
  for (int32_t v : order) {
    if (!buckets.empty() && bucket_freq + freqs[v] <= thresholds[v]) {
      buckets.back().push_back(v);
      bucket_freq += freqs[v];
    } else {
      buckets.push_back({v});
      bucket_freq = freqs[v];
    }
  }
  return buckets;
}

}  // namespace betalike
