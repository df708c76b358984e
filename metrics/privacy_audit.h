// Achieved-privacy measurements of a published table (§6.1's "real β"
// and the t used by the Figure 4 equalizations).
#ifndef BETALIKE_METRICS_PRIVACY_AUDIT_H_
#define BETALIKE_METRICS_PRIVACY_AUDIT_H_

#include "data/table.h"

namespace betalike {

// The real β of a publication: the worst relative confidence gain
// max(0, (q_v - p_v) / p_v) over all equivalence classes and SA values,
// where p is the overall and q the in-class SA frequency. A table
// satisfies basic β-likeness iff MeasuredBeta(published) <= β.
double MeasuredBeta(const GeneralizedTable& published);

// The t-closeness the publication achieves: the worst over equivalence
// classes of the variational distance 0.5 * Σ_v |q_v - p_v| (EMD under
// the uniform ground metric, as used for the categorical SA).
double MeasuredCloseness(const GeneralizedTable& published);

// The full §7 audit of one publication: what t-closeness, distinct-ℓ
// and entropy-ℓ diversity, and real β the published classes actually
// achieve. `max_*`/`min_*` are the worst class; `avg_*` are unweighted
// per-class means (the paper's table reports both). Entropy-ℓ is the
// effective SA-value count exp(-Σ_v q_v ln q_v) — a class is
// entropy-ℓ-diverse iff its entropy-ℓ is at least ℓ.
struct PrivacyAudit {
  double max_closeness = 0.0;  // worst-EC t == MeasuredCloseness
  double avg_closeness = 0.0;
  int min_diversity = 0;       // worst-EC distinct SA count
  double avg_diversity = 0.0;
  double min_entropy_l = 0.0;  // worst-EC exp(entropy)
  double avg_entropy_l = 0.0;
  double max_beta = 0.0;       // real β == MeasuredBeta
};

// Computes every audit field in one pass over the classes, recounting
// each class's SA histogram into one reused buffer. The max_beta /
// max_closeness fields use the exact arithmetic of MeasuredBeta /
// MeasuredCloseness, in the same order, so they compare equal (==) to
// those metrics.
// CHECK-fails on a publication with no equivalence classes.
PrivacyAudit AuditPrivacy(const GeneralizedTable& published);

}  // namespace betalike

#endif  // BETALIKE_METRICS_PRIVACY_AUDIT_H_
