#include "bench/scheme_driver.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "metrics/info_loss.h"
#include "metrics/privacy_audit.h"
#include "query/workload.h"
#include "serve/query_server.h"

namespace betalike {
namespace bench {

std::vector<std::string> SchemeNames(
    const std::vector<AnonymizerSpec>& specs) {
  std::vector<std::string> names;
  names.reserve(specs.size());
  for (const AnonymizerSpec& spec : specs) {
    names.push_back(MakeAnonymizerOrDie(spec)->Name());
  }
  return names;
}

std::vector<SchemeRun> RunSchemes(const std::shared_ptr<const Table>& table,
                                  const std::vector<AnonymizerSpec>& specs) {
  std::vector<SchemeRun> runs;
  runs.reserve(specs.size());
  for (const AnonymizerSpec& spec : specs) {
    const std::unique_ptr<Anonymizer> scheme = MakeAnonymizerOrDie(spec);
    WallTimer timer;
    auto published = scheme->Anonymize(table);
    const double seconds = timer.ElapsedSeconds();
    BETALIKE_CHECK(published.ok())
        << scheme->Name() << ": " << published.status().ToString();
    runs.push_back({scheme->Name(), std::move(published).value(), seconds});
  }
  return runs;
}

void RunAilTimeSweep(const std::vector<SweepPoint>& points,
                     const AilTimeSweepOptions& options) {
  BETALIKE_CHECK(!points.empty()) << "empty sweep";
  const std::vector<std::string> names = SchemeNames(points.front().specs);

  std::vector<std::string> header{options.x_header};
  for (const std::string& name : names) {
    header.push_back(StrFormat("AIL(%s)", name.c_str()));
  }
  for (const std::string& name : names) {
    header.push_back(StrFormat("time_s(%s)", name.c_str()));
  }
  if (options.measured_beta_columns) {
    for (const std::string& name : names) {
      header.push_back(StrFormat("realb(%s)", name.c_str()));
    }
  }
  if (options.closeness_columns) {
    for (const std::string& name : names) {
      header.push_back(StrFormat("t(%s)", name.c_str()));
    }
  }
  if (options.first_scheme_ec_column) {
    header.push_back(StrFormat("ECs(%s)", names.front().c_str()));
  }

  TextTable out(std::move(header));
  for (const SweepPoint& point : points) {
    const std::vector<SchemeRun> runs = RunSchemes(point.table, point.specs);
    BETALIKE_CHECK(runs.size() == names.size())
        << "scheme count changed mid-sweep at x=" << point.x;
    std::vector<std::string> row{point.x};
    for (size_t i = 0; i < runs.size(); ++i) {
      BETALIKE_CHECK(runs[i].name == names[i])
          << "scheme order changed mid-sweep at x=" << point.x;
      row.push_back(StrFormat("%.4f", AverageInfoLoss(runs[i].published)));
    }
    for (const SchemeRun& run : runs) {
      row.push_back(StrFormat("%.3f", run.seconds));
    }
    if (options.measured_beta_columns) {
      for (const SchemeRun& run : runs) {
        row.push_back(StrFormat("%.2f", MeasuredBeta(run.published)));
      }
    }
    if (options.closeness_columns) {
      for (const SchemeRun& run : runs) {
        row.push_back(StrFormat("%.4f", MeasuredCloseness(run.published)));
      }
    }
    if (options.first_scheme_ec_column) {
      row.push_back(StrFormat("%zu", runs.front().published.num_ecs()));
    }
    out.AddRow(std::move(row));
  }
  std::printf("%s\n", out.ToString().c_str());
}

namespace {

// One row of a query-error panel: its x cell, the release it answers
// from (the full table's first `qi` QIs at budget `beta`), and the
// workload it draws.
struct QueryErrorPoint {
  std::string x;
  int qi;
  double beta;
  WorkloadOptions workload;
};

}  // namespace

void RunQueryErrorSweep(const QueryErrorSweepOptions& options) {
  QueryServerOptions server_options;
  server_options.num_workers = AvailableConcurrency();
  auto server = QueryServer::Create(server_options);
  BETALIKE_CHECK(server.ok()) << server.status().ToString();

  const auto full = MakeCensus(DefaultRows(), /*qi_prefix=*/5);
  const std::vector<NamedEstimator> release4 = options.release(full, 4.0);
  const auto print_panel = [&](char panel, const char* title,
                               const std::string& x_header,
                               const std::vector<QueryErrorPoint>& points) {
    std::vector<std::string> header{x_header};
    for (const NamedEstimator& column : release4) header.push_back(column.name);
    TextTable out(header);
    std::vector<AggregateQuery> workload;
    std::vector<int64_t> truth;
    for (size_t p = 0; p < points.size(); ++p) {
      const QueryErrorPoint& point = points[p];
      std::shared_ptr<const Table> table = full;
      if (point.qi < full->num_qi()) {
        auto view = full->WithQiPrefix(point.qi);
        BETALIKE_CHECK(view.ok()) << view.status().ToString();
        table = std::make_shared<Table>(std::move(view).value());
      }
      // Rows that draw one workload (panel (b)) share its truth scan.
      if (p == 0 || point.workload.seed != points[p - 1].workload.seed) {
        auto generated = GenerateWorkload(table->schema(), point.workload);
        BETALIKE_CHECK(generated.ok()) << generated.status().ToString();
        workload = std::move(generated).value();
        truth = PreciseCountsOnPool(*table, workload);
      }
      const std::vector<NamedEstimator> release =
          table == full && point.beta == 4.0
              ? release4
              : options.release(table, point.beta);
      std::vector<std::string> names{x_header}, row{point.x};
      for (const NamedEstimator& column : release) {
        names.push_back(column.name);
        auto answers = (*server)->AnswerBatch(column.estimator,
                                              CountRequests(workload));
        BETALIKE_CHECK(answers.ok()) << answers.status().ToString();
        std::vector<double> estimates;
        for (const ServedAnswer& answer : *answers) {
          BETALIKE_CHECK(answer.status == AnswerStatus::kOk);
          estimates.push_back(answer.estimate);
        }
        const WorkloadError error = EvaluateWorkloadWithTruth(truth, estimates);
        row.push_back(StrFormat("%.1f%%", error.median_relative_error));
      }
      BETALIKE_CHECK(names == header) << "columns changed at x=" << point.x;
      out.AddRow(std::move(row));
    }
    std::printf("--- Fig. %d(%c): %s ---\n", options.figure, panel, title);
    std::printf("%s\n", out.ToString().c_str());
  };

  // Workload fields: {num_queries, lambda, selectivity, include_sa, seed}.
  const int n = DefaultQueries();
  const bool sa = options.include_sa;
  const uint64_t seed = options.seed_base;
  const double thetas[] = {0.05, 0.10, 0.15, 0.20, 0.25};
  std::vector<QueryErrorPoint> by_lambda, by_beta, by_qi, by_theta;
  for (int i = 1; i <= 5; ++i) {
    const std::string x = StrFormat("%d", i);
    const double theta = thetas[i - 1];
    by_lambda.push_back({x, 5, 4.0, {n, i, 0.1, sa, seed + i}});
    by_beta.push_back(
        {x, 5, static_cast<double>(i), {n, 3, 0.1, sa, seed + 100}});
    // The paper keeps λ implicit in (c): predicates come from the QIs
    // available.
    by_qi.push_back({x, i, 4.0, {n, std::min(i, 3), 0.1, sa, seed + 200 + i}});
    by_theta.push_back(
        {StrFormat("%.2f", theta), 5, 4.0,
         {n, 3, theta, sa, seed + 300 + static_cast<int>(theta * 100)}});
  }
  print_panel('a', "vary lambda (QI=5, theta=0.1, beta=4)", "lambda",
              by_lambda);
  print_panel('b', "vary beta (lambda=3, theta=0.1)", "beta", by_beta);
  print_panel('c', "vary QI size (theta=0.1, beta=4)", "QI", by_qi);
  print_panel('d', "vary theta (lambda=3, beta=4)", "theta", by_theta);
}

}  // namespace bench
}  // namespace betalike
