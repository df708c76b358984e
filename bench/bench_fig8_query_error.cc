// Figure 8 (§6.2): median relative error of COUNT(*) workloads over
// generalized publications — four panels varying (a) the number of query
// predicates λ, (b) β, (c) QI size, (d) selectivity θ.
#include <algorithm>
#include <memory>

#include "bench/scheme_driver.h"
#include "query/estimator.h"
#include "query/published_view.h"
#include "query/workload.h"

namespace betalike {
namespace {

std::vector<std::string> PanelHeader(const std::string& x_header) {
  std::vector<std::string> header{x_header};
  const auto names = bench::SchemeNames(bench::StandardSpecs(4.0));
  header.insert(header.end(), names.begin(), names.end());
  return header;
}

// One estimator per scheme run, built through the unified interface
// (its answers are bit-identical to the plain per-EC scan; the
// committed tests/golden tables pin them).
std::vector<std::unique_ptr<Estimator>> MakeEstimators(
    const std::vector<bench::SchemeRun>& runs) {
  std::vector<std::unique_ptr<Estimator>> estimators;
  estimators.reserve(runs.size());
  for (const bench::SchemeRun& run : runs) {
    auto estimator =
        MakeEstimator(PublishedView::Generalized(run.published));
    BETALIKE_CHECK(estimator.ok()) << estimator.status().ToString();
    estimators.push_back(std::move(estimator).value());
  }
  return estimators;
}

// One TextTable row: per scheme, the median relative error of answering
// `workload` from its publication instead of the raw table. Each run
// must match the header column it fills.
std::vector<std::string> ErrorRow(
    const std::string& x, const std::vector<std::string>& header,
    const std::vector<int64_t>& truth,
    const std::vector<AggregateQuery>& workload,
    const std::vector<bench::SchemeRun>& runs,
    const std::vector<std::unique_ptr<Estimator>>& estimators) {
  BETALIKE_CHECK(runs.size() + 1 == header.size())
      << runs.size() << " runs for " << header.size() << " columns";
  std::vector<std::string> row{x};
  for (size_t i = 0; i < runs.size(); ++i) {
    BETALIKE_CHECK(runs[i].name == header[i + 1])
        << runs[i].name << " filling column " << header[i + 1];
    const WorkloadError error =
        EvaluateWorkloadWithTruth(truth, workload, *estimators[i]);
    row.push_back(StrFormat("%.1f%%", error.median_relative_error));
  }
  return row;
}

std::vector<AggregateQuery> MakeWorkload(const TableSchema& schema,
                                         int lambda, double theta,
                                         uint64_t seed) {
  WorkloadOptions options;
  options.num_queries = bench::DefaultQueries();
  options.lambda = lambda;
  options.selectivity = theta;
  options.seed = seed;
  auto workload = GenerateWorkload(schema, options);
  BETALIKE_CHECK(workload.ok()) << workload.status().ToString();
  return std::move(workload).value();
}

void Run() {
  bench::PrintHeader(
      "Figure 8: median relative query error over generalized tables",
      "BUREL at or below both Mondrian baselines at every beta (within "
      "a whisker of LMondrian elsewhere, DMondrian far worst); error "
      "falls with beta and theta, rises with QI size");
  auto full = bench::MakeCensus(bench::DefaultRows(), /*qi_prefix=*/5);

  // Panels (a), (d), and (b)'s beta = 4 row all measure the identical
  // (full table, beta = 4) publications; anonymize that trio once.
  const auto runs4 = bench::RunSchemes(full, bench::StandardSpecs(4.0));
  const auto estimators4 = MakeEstimators(runs4);

  {  // (a) vary lambda; QI = 5, theta = 0.1, beta = 4.
    const auto header = PanelHeader("lambda");
    TextTable out(header);
    for (int lambda = 1; lambda <= 5; ++lambda) {
      const auto workload =
          MakeWorkload(full->schema(), lambda, 0.1, 100 + lambda);
      out.AddRow(ErrorRow(StrFormat("%d", lambda), header,
                          PreciseCounts(*full, workload), workload, runs4,
                          estimators4));
    }
    std::printf("--- Fig. 8(a): vary lambda (QI=5, theta=0.1, beta=4) ---\n");
    std::printf("%s\n", out.ToString().c_str());
  }

  {  // (b) vary beta; lambda = 3, theta = 0.1, QI = 5.
    const auto workload = MakeWorkload(full->schema(), 3, 0.1, 200);
    const std::vector<int64_t> truth = PreciseCounts(*full, workload);
    const auto header = PanelHeader("beta");
    TextTable out(header);
    for (double beta : {1.0, 2.0, 3.0, 4.0, 5.0}) {
      std::vector<bench::SchemeRun> fresh;
      std::vector<std::unique_ptr<Estimator>> fresh_estimators;
      if (beta != 4.0) {
        fresh = bench::RunSchemes(full, bench::StandardSpecs(beta));
        fresh_estimators = MakeEstimators(fresh);
      }
      const auto& runs = beta == 4.0 ? runs4 : fresh;
      const auto& estimators = beta == 4.0 ? estimators4 : fresh_estimators;
      out.AddRow(ErrorRow(StrFormat("%.0f", beta), header, truth, workload,
                          runs, estimators));
    }
    std::printf("--- Fig. 8(b): vary beta (lambda=3, theta=0.1) ---\n");
    std::printf("%s\n", out.ToString().c_str());
  }

  {  // (c) vary QI size; lambda = min(QI, 3) — the paper keeps lambda
     // implicit; predicates are drawn from the available QIs.
    const auto header = PanelHeader("QI");
    TextTable out(header);
    for (int qi = 1; qi <= 5; ++qi) {
      // The qi = 5 point is the full table again — reuse runs4.
      std::shared_ptr<const Table> table = full;
      std::vector<bench::SchemeRun> fresh;
      std::vector<std::unique_ptr<Estimator>> fresh_estimators;
      if (qi < full->num_qi()) {
        auto view = full->WithQiPrefix(qi);
        BETALIKE_CHECK(view.ok()) << view.status().ToString();
        table = std::make_shared<Table>(std::move(view).value());
        fresh = bench::RunSchemes(table, bench::StandardSpecs(4.0));
        fresh_estimators = MakeEstimators(fresh);
      }
      const bool reuse = qi >= full->num_qi();
      const auto& runs = reuse ? runs4 : fresh;
      const auto& estimators = reuse ? estimators4 : fresh_estimators;
      const auto workload =
          MakeWorkload(table->schema(), std::min(qi, 3), 0.1, 300 + qi);
      out.AddRow(ErrorRow(StrFormat("%d", qi), header,
                          PreciseCounts(*table, workload), workload, runs,
                          estimators));
    }
    std::printf("--- Fig. 8(c): vary QI size (theta=0.1, beta=4) ---\n");
    std::printf("%s\n", out.ToString().c_str());
  }

  {  // (d) vary theta; lambda = 3, beta = 4, QI = 5.
    const auto header = PanelHeader("theta");
    TextTable out(header);
    for (double theta : {0.05, 0.10, 0.15, 0.20, 0.25}) {
      const auto workload = MakeWorkload(
          full->schema(), 3, theta, 400 + static_cast<int>(theta * 100));
      out.AddRow(ErrorRow(StrFormat("%.2f", theta), header,
                          PreciseCounts(*full, workload), workload, runs4,
                          estimators4));
    }
    std::printf("--- Fig. 8(d): vary theta (lambda=3, beta=4) ---\n");
    std::printf("%s\n", out.ToString().c_str());
  }
}

}  // namespace
}  // namespace betalike

int main() {
  betalike::Run();
  return 0;
}
