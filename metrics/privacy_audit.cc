#include "metrics/privacy_audit.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.h"

namespace betalike {
namespace {

// Refills `counts` (one slot per SA value) with the SA histogram of
// `ec`, so a pass over the classes reuses one buffer.
void FillEcCounts(const Table& source, const EquivalenceClass& ec,
                  std::vector<int64_t>* counts) {
  counts->assign(static_cast<size_t>(source.sa_spec().num_values), 0);
  for (int64_t row : ec.rows) ++(*counts)[source.sa_value(row)];
}

}  // namespace

double MeasuredBeta(const GeneralizedTable& published) {
  const std::vector<double> freqs = published.source().SaFrequencies();
  std::vector<int64_t> counts;
  double worst = 0.0;
  for (const EquivalenceClass& ec : published.ecs()) {
    FillEcCounts(published.source(), ec, &counts);
    const double n = static_cast<double>(ec.size());
    for (size_t v = 0; v < counts.size(); ++v) {
      if (counts[v] == 0 || freqs[v] <= 0.0) continue;
      const double q = static_cast<double>(counts[v]) / n;
      worst = std::max(worst, (q - freqs[v]) / freqs[v]);
    }
  }
  return worst;
}

double MeasuredCloseness(const GeneralizedTable& published) {
  const std::vector<double> freqs = published.source().SaFrequencies();
  std::vector<int64_t> counts;
  double worst = 0.0;
  for (const EquivalenceClass& ec : published.ecs()) {
    FillEcCounts(published.source(), ec, &counts);
    const double n = static_cast<double>(ec.size());
    double distance = 0.0;
    for (size_t v = 0; v < counts.size(); ++v) {
      distance += std::fabs(static_cast<double>(counts[v]) / n - freqs[v]);
    }
    worst = std::max(worst, 0.5 * distance);
  }
  return worst;
}

PrivacyAudit AuditPrivacy(const GeneralizedTable& published) {
  BETALIKE_CHECK(published.num_ecs() > 0)
      << "AuditPrivacy on a publication with no equivalence classes";
  const std::vector<double> freqs = published.source().SaFrequencies();
  const int32_t num_values = published.source().sa_spec().num_values;
  std::vector<int64_t> counts;

  PrivacyAudit audit;
  audit.min_diversity = num_values + 1;  // lowered by the first class
  audit.min_entropy_l = static_cast<double>(num_values) + 1.0;
  double sum_closeness = 0.0;
  double sum_diversity = 0.0;
  double sum_entropy_l = 0.0;
  for (const EquivalenceClass& ec : published.ecs()) {
    FillEcCounts(published.source(), ec, &counts);
    const double n = static_cast<double>(ec.size());
    double distance = 0.0;
    double entropy = 0.0;
    int distinct = 0;
    for (int32_t v = 0; v < num_values; ++v) {
      const int64_t count = counts[v];
      // The closeness term replicates MeasuredCloseness verbatim
      // (count 0 contributes |0 - p_v|), the beta term MeasuredBeta
      // (count 0 skipped), so the worst-EC fields compare equal.
      const double q = static_cast<double>(count) / n;
      distance += std::fabs(q - freqs[v]);
      if (count == 0) continue;
      ++distinct;
      if (freqs[v] > 0.0) {
        audit.max_beta = std::max(audit.max_beta, (q - freqs[v]) / freqs[v]);
      }
      entropy -= q * std::log(q);
    }
    const double closeness = 0.5 * distance;
    const double entropy_l = std::exp(entropy);
    audit.max_closeness = std::max(audit.max_closeness, closeness);
    audit.min_diversity = std::min(audit.min_diversity, distinct);
    audit.min_entropy_l = std::min(audit.min_entropy_l, entropy_l);
    sum_closeness += closeness;
    sum_diversity += static_cast<double>(distinct);
    sum_entropy_l += entropy_l;
  }
  const double num_ecs = static_cast<double>(published.num_ecs());
  audit.avg_closeness = sum_closeness / num_ecs;
  audit.avg_diversity = sum_diversity / num_ecs;
  audit.avg_entropy_l = sum_entropy_l / num_ecs;
  return audit;
}

}  // namespace betalike
