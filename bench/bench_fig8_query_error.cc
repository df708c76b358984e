// Figure 8 (§6.2): median relative error of COUNT(*) workloads over
// generalized publications — four panels varying (a) the number of query
// predicates λ, (b) β, (c) QI size, (d) selectivity θ.
#include <memory>
#include <utility>

#include "bench/scheme_driver.h"
#include "query/published_view.h"

namespace betalike {
namespace {

void Run() {
  bench::PrintHeader(
      "Figure 8: median relative query error over generalized tables",
      "BUREL at or below both Mondrian baselines at every beta (within "
      "a whisker of LMondrian elsewhere, DMondrian far worst); error "
      "falls with beta and theta, rises with QI size");
  bench::QueryErrorSweepOptions options;
  options.figure = 8;
  options.seed_base = 100;
  // One column per scheme of the standard trio, answered from its
  // generalized publication.
  options.release = [](const std::shared_ptr<const Table>& table,
                       double beta) {
    std::vector<bench::NamedEstimator> columns;
    for (bench::SchemeRun& run :
         bench::RunSchemes(table, bench::StandardSpecs(beta))) {
      const PublishedView view =
          PublishedView::Generalized(std::move(run.published));
      columns.push_back({run.name, bench::MakeEstimatorOrDie(view)});
    }
    return columns;
  };
  bench::RunQueryErrorSweep(options);
}

}  // namespace
}  // namespace betalike

int main() {
  betalike::Run();
  return 0;
}
