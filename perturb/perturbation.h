// SA perturbation of a generalized publication (§6.3 / Figure 9):
// instead of (or on top of) generalizing the quasi-identifiers, the
// publisher randomizes the sensitive value itself — each tuple keeps
// its SA value with probability `retention` and otherwise reports a
// uniform draw from the SA domain (uniform randomized response). The
// data recipient knows the mechanism, so aggregate queries are
// answered by inverting it in expectation (reconstruction; see the
// perturbed Estimator that query/estimator's MakeEstimator builds from
// a PublishedView::Perturbed).
//
// Perturbation runs equivalence class by equivalence class over an
// existing publication and keeps the EC structure intact, so the
// result is a GeneralizedTable view the uniform-spread estimator
// consumes exactly like any other scheme's output. All randomness
// comes from the platform-pinned common/Rng in one fixed draw order,
// so one (publication, seed) pair yields a bit-identical perturbed
// table everywhere — the golden regression pins a hash of it.
#ifndef BETALIKE_PERTURB_PERTURBATION_H_
#define BETALIKE_PERTURB_PERTURBATION_H_

#include <cstdint>

#include "common/status.h"
#include "data/table.h"

namespace betalike {

struct PerturbOptions {
  // Probability a tuple keeps its SA value; with probability
  // 1 - retention it reports a uniform draw from the whole SA domain
  // (which may coincide with the true value). Must lie in (0, 1]:
  // retention 0 would leave nothing for reconstruction to invert.
  double retention = 0.8;
  uint64_t seed = 1;
};

// Ok iff retention lies in (0, 1].
Status ValidatePerturbOptions(const PerturbOptions& options);

// A perturbed publication: the same equivalence classes as the input,
// over a source copy whose SA column went through randomized response.
struct PerturbedPublication {
  // Uniform-spread-compatible view: EC boxes identical to the input
  // publication, SA column perturbed.
  GeneralizedTable view;
  double retention = 1.0;
};

// Applies seeded uniform randomized response to the SA column of
// `published`'s source, EC by EC in emission order (row order within
// each EC), and rebuilds the same EC structure over the perturbed
// copy. Deterministic given (published, options).
Result<PerturbedPublication> PerturbSaWithinEcs(
    const GeneralizedTable& published, const PerturbOptions& options);

}  // namespace betalike

#endif  // BETALIKE_PERTURB_PERTURBATION_H_
