// Figure 9 (§6.3): median relative error of SA-involving COUNT(*)
// workloads — BUREL's generalized publication versus Anatomy's
// separate-table release and versus perturbed BUREL variants
// (randomized response over the SA inside the ECs, answered with
// reconstruction). Four fig8-shaped panels: vary λ, β, QI size, θ.
// The workloads carry an SA range predicate on top of the fig8 QI
// predicates: with exact published QIs (Anatomy) a QI-only query would
// be answered exactly, so the SA predicate is what exposes each
// scheme's broken or noisy QI-SA linkage.
//
// Read with fig4's realb column in mind: Anatomy's flat near-floor
// error buys no privacy (its groups leak realb ~60 on this table, and
// the synthetic CENSUS draws the SA independently of the QIs, which
// is Anatomy's best case — group-level delinkage cancels out in
// aggregates). The comparison the perturbed columns make is BUREL's
// own: how much utility randomized response costs on top of
// generalization (visible at low lambda, growing as retention falls,
// vanishing into estimator noise elsewhere), and how much
// reconstruction claws back.
#include <memory>
#include <utility>

#include "bench/scheme_driver.h"
#include "perturb/perturbation.h"
#include "query/published_view.h"

namespace betalike {
namespace {

constexpr double kRetentionHi = 0.9;
constexpr double kRetentionLo = 0.6;
constexpr uint64_t kPerturbSeed = 17;
constexpr int kAnatomyL = 4;

// Every publication the four columns answer from, all derived from
// registry-constructed schemes on one table and wrapped into
// Estimators through the unified interface — one estimator per
// publication shape (generalized, anatomized, perturbed ×2).
std::vector<bench::NamedEstimator> Release(
    const std::shared_ptr<const Table>& table, double beta) {
  const GeneralizedTable burel = bench::Publish(table, {"burel", beta});
  const PublishedView anatomized =
      PublishedView::Anatomized(AnatomizedTable::FromGrouping(bench::Publish(
          table, {"anatomy", static_cast<double>(kAnatomyL)})));
  std::vector<bench::NamedEstimator> columns;
  columns.push_back(
      {"BUREL", bench::MakeEstimatorOrDie(PublishedView::Generalized(burel))});
  columns.push_back({StrFormat("Anatomy(l=%d)", kAnatomyL),
                     bench::MakeEstimatorOrDie(anatomized)});
  for (double retention : {kRetentionHi, kRetentionLo}) {
    PerturbOptions popts;
    popts.seed = kPerturbSeed;
    popts.retention = retention;
    auto perturbed = PerturbSaWithinEcs(burel, popts);
    BETALIKE_CHECK(perturbed.ok()) << perturbed.status().ToString();
    const PublishedView view =
        PublishedView::Perturbed(std::move(perturbed).value());
    columns.push_back({StrFormat("perturb(p=%.1f)", retention),
                       bench::MakeEstimatorOrDie(view)});
  }
  return columns;
}

void Run() {
  bench::PrintHeader(
      "Figure 9: query error with SA predicates, BUREL vs Anatomy vs "
      "perturbed BUREL",
      "the perturbed variants track BUREL within noise, paying visible "
      "reconstruction error at low lambda that grows as retention "
      "falls; Anatomy's exact-QI answers stay flat near the noise "
      "floor (the synthetic SA is independent of the QIs) while "
      "fig4-style audits put its realb near 60");
  bench::QueryErrorSweepOptions options;
  options.figure = 9;
  options.seed_base = 500;
  options.include_sa = true;  // the fig9 twist on the fig8 workloads
  options.release = Release;
  bench::RunQueryErrorSweep(options);
}

}  // namespace
}  // namespace betalike

int main() {
  betalike::Run();
  return 0;
}
