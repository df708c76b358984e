// Shared sweep drivers for the paper benches, so a figure bench is just
// its sweep definition:
//   - RunAilTimeSweep (fig4–7): a list of SweepPoints (x cell, table,
//     AnonymizerSpecs), whose schemes the driver resolves through the
//     registry, times, and measures (AIL, achieved β / t).
//   - RunQueryErrorSweep (fig8–9): a release factory; the driver prints
//     the four query-error panels (vary λ, β, QI size, θ), answering
//     every COUNT workload through one QueryServer and scoring the
//     served answers against the raw table's truth.
#ifndef BETALIKE_BENCH_SCHEME_DRIVER_H_
#define BETALIKE_BENCH_SCHEME_DRIVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/anonymizer.h"
#include "data/table.h"
#include "query/estimator.h"

namespace betalike {
namespace bench {

// The paper's standard comparison trio at one β: BUREL vs the
// LMondrian and DMondrian baselines (every §6.2 figure runs these).
inline std::vector<AnonymizerSpec> StandardSpecs(double beta) {
  return {{"burel", beta}, {"lmondrian", beta}, {"dmondrian", beta}};
}

// The §7 cross-scheme attack panel: BUREL's reference publication
// plus the t-closeness and ℓ-diversity baselines at their §6
// parameters, attacked/audited by registry name in both sec7 benches
// (and pinned by the audit consistency test).
inline std::vector<AnonymizerSpec> Sec7Specs() {
  return {{"burel", 4.0},
          {"tmondrian", 0.2},
          {"sabre", 0.2},
          {"anatomy", 4.0}};
}

// Display names of `specs`, resolved through the registry (the bench
// table column headers). CHECK-fails on an unknown scheme.
std::vector<std::string> SchemeNames(
    const std::vector<AnonymizerSpec>& specs);

// One timed Anonymize run of one scheme. (Single untimed publications
// come from bench::Publish in bench_util.h.)
struct SchemeRun {
  std::string name;  // Anonymizer::Name()
  GeneralizedTable published;
  double seconds = 0.0;
};

// Instantiates every spec through the registry and runs it on `table`,
// timing each Anonymize. CHECK-fails on registry or anonymization
// errors — a bench with a broken scheme should die loudly.
std::vector<SchemeRun> RunSchemes(const std::shared_ptr<const Table>& table,
                                  const std::vector<AnonymizerSpec>& specs);

// One x-axis point of a figure sweep: the first-column cell, the table
// to anonymize at this point, and the schemes to run on it. Every
// point of one sweep must run the same scheme set (the column headers
// come from the first point).
struct SweepPoint {
  std::string x;
  std::shared_ptr<const Table> table;
  std::vector<AnonymizerSpec> specs;
};

struct AilTimeSweepOptions {
  std::string x_header;  // "beta" / "QI" / "rows"
  // Appends an "ECs(<first scheme>)" column (Figure 5's panel detail).
  bool first_scheme_ec_column = false;
  // Appends a "realb(scheme)" column per scheme — the worst relative
  // confidence gain MeasuredBeta audits, Figure 4's y-axis.
  bool measured_beta_columns = false;
  // Appends a "t(scheme)" column per scheme — the achieved closeness
  // MeasuredCloseness audits, showing Figure 4's equalizations held.
  bool closeness_columns = false;
};

// The fig5/6/7 shape (and, with the measured-privacy columns on,
// fig4's): runs every point's schemes and prints the AIL(scheme)...
// time_s(scheme)... table to stdout.
void RunAilTimeSweep(const std::vector<SweepPoint>& points,
                     const AilTimeSweepOptions& options);

// One column of a query-error panel: its header and its estimator.
struct NamedEstimator {
  std::string name;
  std::shared_ptr<const Estimator> estimator;
};

struct QueryErrorSweepOptions {
  int figure = 8;            // panel titles read "Fig. <figure>(a)" ...
  uint64_t seed_base = 100;  // panels (a)–(d) seed from base + 0/100/200/300
  bool include_sa = false;   // every query also gets an SA range predicate
  // The named estimators of one (table, β) release, in column order.
  std::function<std::vector<NamedEstimator>(
      const std::shared_ptr<const Table>& table, double beta)>
      release;
};

// The fig8/fig9 shape on DefaultRows() CENSUS rows with 5 QIs: four
// panels of median relative COUNT(*) error — (a) vary λ at θ = 0.1,
// β = 4; (b) vary β at λ = 3; (c) vary QI size at λ = min(QI, 3);
// (d) vary θ at λ = 3, β = 4. The full-table β = 4 release answers
// (a), (d), (b)'s β = 4 row and (c)'s QI = 5 row. Every row is served
// through one QueryServer with AvailableConcurrency() workers; served
// COUNT estimates are bitwise Estimator::Estimate, so the printed
// tables do not depend on the worker count.
void RunQueryErrorSweep(const QueryErrorSweepOptions& options);

}  // namespace bench
}  // namespace betalike

#endif  // BETALIKE_BENCH_SCHEME_DRIVER_H_
