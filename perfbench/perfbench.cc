// perfbench: the repository benchmark. Drives only the public betalike
// API through three workloads (see README.md for why each exists):
//
//   publish            form, audit and index β-likeness releases of a
//                      CENSUS table (resident β ladder + sharded
//                      chunked path), then serve the β=1 release briefly
//   serve_generalized  serve a BUREL β=1 release; halfway through the
//                      latency loop a perturbed release of the same
//                      classes is published as epoch 2
//   serve_anatomy      serve an Anatomy (l=4) release
//
// Usage: perfbench --workload W --seed N --seconds S --trace 0|1
//                  [--trace-dir DIR] [--commit ID]
//
// The last stdout line is one JSON object: correct / attempted / failed,
// every metric it measured (end-to-end and per-layer), the EC-structure
// hashes and the failed checks. perfbench/run.py builds this binary,
// runs it, and reduces that line to the metrics BENCHMARK.json declares.
#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baseline/anatomy.h"
#include "census/census.h"
#include "core/burel.h"
#include "core/sharded_burel.h"
#include "data/chunked_table.h"
#include "data/table.h"
#include "hilbert/hilbert.h"
#include "metrics/info_loss.h"
#include "metrics/privacy_audit.h"
#include "perfbench/pool.h"
#include "perfbench/serving.h"
#include "perfbench/trace.h"
#include "perfbench/util.h"
#include "perturb/perturbation.h"
#include "query/estimator.h"
#include "query/published_view.h"
#include "serve/epoch_server.h"

namespace perfbench {
namespace {

using betalike::Estimator;
using betalike::GeneralizedTable;
using betalike::PublishedView;
using betalike::Table;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;
  std::string commit = "unknown";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) Die("bad --seed " + value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) Die("bad --seconds " + value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Die("bad --trace " + value);
      args.trace = value == "1";
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || !have_seed) {
    Die("usage: perfbench --workload W --seed N --seconds S --trace 0|1");
  }
  return args;
}

// Per-layer samples; each metric reports the median of its samples.
class Samples {
 public:
  void Add(const std::string& name, double value) {
    samples_[name].push_back(value);
  }
  void ReportTo(Report* report) const {
    for (const auto& entry : samples_) {
      report->Set(entry.first, Median(entry.second));
    }
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
};

uint64_t EcStructureHash(const std::vector<betalike::EquivalenceClass>& ecs) {
  uint64_t hash = 1469598103934665603ULL;
  const auto mix = [&hash](uint64_t x) {
    hash ^= x;
    hash *= 1099511628211ULL;
  };
  for (const betalike::EquivalenceClass& ec : ecs) {
    mix(static_cast<uint64_t>(ec.size()));
    for (int64_t row : ec.rows) mix(static_cast<uint64_t>(row));
  }
  return hash;
}

// Times one call into a layer as a named span and a per-layer sample.
// Untraced runs pass no span recorder and make the plain call, so no
// timer runs while the end-to-end metrics are measured.
template <typename F>
auto Timed(LayerSpans* spans, Samples* samples, const std::string& name,
           double* seconds, F&& call) {
  if (spans == nullptr) return call();
  spans->Open(name);
  auto result = call();
  const double s = spans->Close();
  samples->Add(name, s);
  if (seconds != nullptr) *seconds = s;
  return result;
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

// Rows per second over every timed call of a run, each call forming
// `rows`: on a shared host a whole-run rate moves smoothly with the share
// of the run a slow or fast phase of the host covers, where the best or
// median call jumps between the phases' levels.
double RowsPerSecond(int64_t rows, const std::vector<double>& seconds) {
  double total = 0.0;
  for (double s : seconds) total += s;
  return static_cast<double>(rows) * static_cast<double>(seconds.size()) /
         total;
}

struct Census {
  std::shared_ptr<const Table> table;
  std::unique_ptr<betalike::ChunkedTable> chunked;
};

Census MakeCensus(int64_t rows, LayerSpans* spans, Samples* samples) {
  betalike::CensusOptions options;  // the default dataset seed
  options.num_rows = rows;
  Census out;
  out.table = std::make_shared<const Table>(
      Timed(spans, samples, "census.generate_s", nullptr, [&] {
        return Must(betalike::GenerateCensus(options), "GenerateCensus");
      }));
  out.chunked = std::make_unique<betalike::ChunkedTable>(
      Timed(spans, samples, "census.generate_chunked_s", nullptr, [&] {
        return Must(betalike::GenerateCensusChunked(options),
                    "GenerateCensusChunked");
      }));
  return out;
}

// One BUREL release as the publisher makes it: form, audit, measure
// AIL, and build the serving index.
struct Release {
  std::shared_ptr<const GeneralizedTable> published;
  std::shared_ptr<const Estimator> estimator;
  double seconds = 0.0;         // wall clock of form + audit + AIL + index
  double traced_seconds = 0.0;  // traced runs: the sum of those four spans
  double ail = 0.0;
  uint64_t hash = 0;
};

// `spans` is null on an untraced call.
Release PublishBurel(const std::shared_ptr<const Table>& table, double beta,
                     int threads, const std::string& tag, LayerSpans* spans,
                     Samples* samples, Report* report) {
  Release out;
  betalike::BurelOptions options;
  options.beta = beta;
  options.num_threads = threads;
  betalike::BurelProfile profile;
  double burel_s = 0.0;
  double audit_s = 0.0;
  double ail_s = 0.0;
  double index_s = 0.0;
  const int64_t start = NowNs();
  const PublishedView view = PublishedView::Generalized(
      Timed(spans, samples, "core.burel_s." + tag, &burel_s, [&] {
        return Must(betalike::AnonymizeWithBurel(table, options, &profile),
                    "AnonymizeWithBurel");
      }));
  out.published = view.shared_generalized();
  const GeneralizedTable& published = *out.published;
  const betalike::PrivacyAudit audit =
      Timed(spans, samples, "metrics.audit_s", &audit_s,
            [&] { return betalike::AuditPrivacy(published); });
  out.ail = Timed(spans, samples, "metrics.ail_s", &ail_s,
                  [&] { return betalike::AverageInfoLoss(published); });
  out.estimator = Timed(
      spans, samples, "query.index_build_s.generalized", &index_s, [&] {
        return std::shared_ptr<const Estimator>(
            Must(betalike::MakeEstimator(view), "MakeEstimator"));
      });
  out.seconds = SecondsSince(start);
  out.traced_seconds = burel_s + audit_s + ail_s + index_s;
  out.hash = EcStructureHash(published.ecs());
  report->Check(audit.max_beta <= beta,
                "AuditPrivacy max beta exceeds the budget " + tag);
  if (spans == nullptr) return out;

  const std::string p = "core.burel.";
  samples->Add(p + "encode_s", profile.encode_seconds);
  samples->Add(p + "sort_s", profile.sort_seconds);
  samples->Add(p + "gather_s", profile.gather_seconds);
  samples->Add(p + "sweep_s", profile.sweep_seconds);
  samples->Add(p + "axis_s", profile.axis_seconds);
  samples->Add(p + "partition_s", profile.partition_seconds);
  samples->Add(p + "form_s", profile.form_seconds);
  samples->Add(p + "nodes", static_cast<double>(profile.nodes));
  samples->Add(p + "ecs", static_cast<double>(published.num_ecs()));
  samples->Add(p + "parallel_tasks",
               static_cast<double>(profile.parallel_tasks));
  samples->Add("core.serial_prefix_frac",
               burel_s > 0.0 ? (burel_s - profile.form_seconds) / burel_s
                             : 0.0);
  return out;
}

// The chunked path: sharded BUREL of the ChunkedTable. Returns the wall
// clock of the call; a traced call (`spans` non-null) also sets
// `traced_seconds` to its span.
double PublishChunked(const betalike::ChunkedTable& chunked, int threads,
                      LayerSpans* spans, Samples* samples, uint64_t* hash,
                      double* traced_seconds = nullptr) {
  betalike::ShardedBurelOptions options;
  options.burel.beta = 4.0;
  options.burel.num_threads = threads;
  options.num_shards = 4;
  betalike::ShardStats stats;
  const int64_t start = NowNs();
  const betalike::ShardedPublication published =
      Timed(spans, samples, "core.sharded_s", traced_seconds, [&] {
        return Must(betalike::AnonymizeSharded(chunked, options, &stats),
                    "AnonymizeSharded");
      });
  const double seconds = SecondsSince(start);
  *hash = EcStructureHash(published.ecs);
  if (spans == nullptr) return seconds;
  const std::string p = "core.sharded.";
  samples->Add(p + "encode_s", stats.encode_seconds);
  samples->Add(p + "sort_s", stats.sort_seconds);
  samples->Add(p + "gather_s", stats.gather_seconds);
  samples->Add(p + "repair_s", stats.repair_seconds);
  samples->Add(p + "form_s", stats.form_seconds);
  samples->Add(p + "groups", stats.groups);
  samples->Add(p + "merged_slabs", stats.merged_slabs);
  return seconds;
}

// Box-overlap share: ECs whose box meets every QI predicate of a
// query, over all ECs, averaged over the pool's queries.
double OverlapFraction(const GeneralizedTable& published,
                       const RequestPool& pool) {
  double total = 0.0;
  for (const AggregateQuery& q : pool.queries) {
    int64_t meets = 0;
    for (const betalike::EquivalenceClass& ec : published.ecs()) {
      bool ok = true;
      for (const betalike::QueryPredicate& p : q.predicates) {
        if (ec.qi_max[p.dim] < p.lo || ec.qi_min[p.dim] > p.hi) ok = false;
      }
      meets += ok ? 1 : 0;
    }
    total += static_cast<double>(meets) / published.num_ecs();
  }
  return pool.queries.empty() ? 0.0 : total / pool.queries.size();
}

// Rows matching the QI predicates over rows scanned, for the checked
// queries (what an exact-QI row scan could have skipped).
double MatchFraction(const Table& table, const RequestPool& pool, int checked) {
  std::vector<AggregateQuery> qi_only(pool.queries.begin(),
                                      pool.queries.begin() + checked);
  for (AggregateQuery& q : qi_only) {
    q.sa_lo = 0;
    q.sa_hi = -1;
  }
  const std::vector<int64_t> counts = betalike::PreciseCounts(table, qi_only);
  double total = 0.0;
  for (int64_t c : counts) total += static_cast<double>(c) / table.num_rows();
  return counts.empty() ? 0.0 : total / counts.size();
}

// One epoch the serve phase may route to.
struct EpochSpec {
  std::shared_ptr<const Estimator> estimator;
  std::string shape;  // "generalized", "perturbed", "anatomized"
};

// Everything the analyst does against a release: probes, the closed
// latency loop (which moves to epoch 2 halfway when there is one), then
// the bulk loop and, in a traced run, the ladder, both routed to epoch 1,
// which is retired at the end.
void Serve(const std::vector<EpochSpec>& epochs, const RequestPool& pool,
           const ServeSettings& settings, const Args& args,
           const Table& table, int checked, Samples* samples,
           Report* report) {
  // Direct single-thread answers, the reference every served answer
  // must equal; in the traced run they also time each estimator shape.
  std::vector<Expected> expected;
  for (const EpochSpec& e : epochs) {
    const int repeats = args.trace && e.shape != "anatomized" ? 3 : 1;
    expected.push_back(DirectAnswers(*e.estimator, pool, repeats, report));
    for (const auto& kind : expected.back().micros) {
      const std::string suffix = e.shape + "." + kind.first;
      samples->Add("query.estimate_p50_us." + suffix,
                   Quantile(kind.second, 0.5));
      samples->Add("query.estimate_p99_us." + suffix,
                   Quantile(kind.second, 0.99));
    }
  }
  const Truth truth = ComputeTruth(table, pool, checked);
  std::vector<double> rel_errors;
  for (const Expected& e : expected) {
    const std::vector<double> more = CheckedErrors(e, truth);
    rel_errors.insert(rel_errors.end(), more.begin(), more.end());
  }
  report->Set("rel_err_pct", Median(rel_errors));

  auto served = [&](size_t i) -> std::shared_ptr<const Estimator> {
    if (!args.trace) return epochs[i].estimator;
    return std::make_shared<TimedEstimator>(epochs[i].estimator,
                                            static_cast<int32_t>(i + 1));
  };
  betalike::QueryServerOptions options;
  options.num_workers = kPoolThreads + 1;
  options.max_queued_requests = settings.max_queued;
  options.admission_policy = betalike::AdmissionPolicy::kReject;
  std::unique_ptr<EpochServer> server =
      Must(EpochServer::Create(1, served(0), options), "EpochServer::Create");

  ServeInputs in;
  in.server = server.get();
  in.pool = &pool;
  for (const Expected& e : expected) in.expected.push_back(&e);
  if (epochs.size() > 1) in.second_epoch = served(1);
  in.settings = settings;
  in.seed = args.seed;
  in.trace = args.trace;

  int64_t rejected = 0;
  int64_t deadline_shed = 0;
  RunProbes(in, report, &rejected, &deadline_shed);

  // Closed latency loop.
  std::vector<ClientLog> latency(kClients);
  for (ClientLog& log : latency) log.Init(epochs.size(), pool.items.size());
  EstimatorSpans::Get().Clear();
  server->query_server().ResetHistograms();
  const int64_t loop_start = NowNs();
  double swap_us = RunClosedLoop(in, false, settings.latency_s, &latency);
  const double loop_wall_s = static_cast<double>(NowNs() - loop_start) * 1e-9;
  const betalike::LatencyHistogram service =
      server->query_server().MergedHistogram();
  const betalike::LatencyHistogram batch =
      server->query_server().BatchHistogram();
  int64_t samples_n = 0;
  const std::pair<double, double> latency_us =
      FirstEpochLatencyUs(latency, &samples_n);
  report->Set("query_p50_us", latency_us.first);
  report->Set("query_p99_us", latency_us.second);

  std::vector<double> submit_us, wait_us, self_us;
  double first_batches = 0.0;
  double second_batches = 0.0;
  for (const ClientLog& log : latency) {
    for (const BatchRecord& r : log.batches) {
      submit_us.push_back(static_cast<double>(r.submitted_ns - r.submit_ns) *
                          1e-3);
      wait_us.push_back(static_cast<double>(r.ready_ns - r.submitted_ns) *
                        1e-3);
      (r.epoch == 1 ? first_batches : second_batches) += 1.0;
    }
  }
  samples->Add("serve.submit_p50_us", Quantile(submit_us, 0.5));
  samples->Add("serve.submit_p99_us", Quantile(submit_us, 0.99));
  samples->Add("serve.wait_p50_us", Quantile(wait_us, 0.5));
  samples->Add("serve.wait_p99_us", Quantile(wait_us, 0.99));
  samples->Add("serve.service_p50_us", service.QuantileNanos(0.5) * 1e-3);
  samples->Add("serve.service_p99_us", service.QuantileNanos(0.99) * 1e-3);
  samples->Add("serve.batch_p50_us", batch.QuantileNanos(0.5) * 1e-3);
  samples->Add("serve.batch_p99_us", batch.QuantileNanos(0.99) * 1e-3);
  samples->Add("epoch.batches.first", first_batches);
  samples->Add("epoch.batches.second", second_batches);

  if (args.trace) {
    const std::vector<EstimatorSpan> spans = EstimatorSpans::Get().Collect();
    std::vector<int64_t> batch_of;
    const int64_t unattributed = AttributeSpans(spans, &latency, &batch_of);
    double own = 0.0;
    double total = 0.0;
    for (const ClientLog& log : latency) {
      for (const BatchRecord& r : log.batches) {
        const double lat = static_cast<double>(r.ready_ns - r.submit_ns);
        self_us.push_back((lat - static_cast<double>(r.own_ns)) * 1e-3);
        own += static_cast<double>(r.own_ns);
        total += lat;
      }
    }
    samples->Add("serve.self_p50_us", Quantile(self_us, 0.5));
    samples->Add("serve.self_p99_us", Quantile(self_us, 0.99));
    samples->Add("query.busy_frac", total > 0.0 ? own / total : 0.0);
    report->Check(unattributed * 100 <= static_cast<int64_t>(spans.size()),
                  "more than 1% of estimator spans not attributed to a batch");

    // Cost of recording one span, measured on this thread.
    constexpr int kCalibration = 200000;
    const AggregateQuery& q = pool.items[0].query;
    const int64_t c0 = NowNs();
    for (int i = 0; i < kCalibration; ++i) {
      EstimatorSpan s;
      s.start_ns = NowNs();
      s.end_ns = NowNs();
      s.query = &q;
      s.fingerprint = PredicateFingerprint(q);
      EstimatorSpans::Get().Record(s);
    }
    const double per_span_ns =
        static_cast<double>(NowNs() - c0) / kCalibration;
    samples->Add("trace.overhead_frac",
                 spans.size() * per_span_ns /
                     (loop_wall_s * 1e9 * kPoolThreads));
    if (!args.trace_dir.empty()) {
      const std::string path = args.trace_dir + "/" + args.workload + ".csv";
      // The span file is diagnostic output; a write failure is reported
      // but is not a failed check of the program.
      if (!WriteSpans(path, {}, spans, batch_of)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      }
    }
    EstimatorSpans::Get().Clear();
  }

  // Closed bulk loop: large batches from the same clients.
  std::vector<ClientLog> bulk(kClients);
  for (ClientLog& log : bulk) log.Init(epochs.size(), pool.items.size());
  const int64_t bulk_start = NowNs();
  RunClosedLoop(in, true, settings.bulk_s, &bulk);
  int64_t bulk_answers = 0;
  int64_t bulk_end = bulk_start;
  for (const ClientLog& log : bulk) {
    bulk_answers += log.answers;
    for (const BatchRecord& r : log.batches) {
      bulk_end = std::max(bulk_end, r.ready_ns);
    }
  }
  report->Set("bulk_qps", static_cast<double>(bulk_answers) /
                              (static_cast<double>(bulk_end - bulk_start) *
                               1e-9));

  // The open-loop ladder runs in the traced run only, as the per-layer
  // serve.sustained_rps: its knee is a pass/fail search whose every step
  // sees a second of the host, so from run to run it spreads further than
  // an end-to-end bound allows.
  ClientLog ladder_log;
  ladder_log.Init(epochs.size(), pool.items.size());
  LadderResult ladder;
  if (args.trace) {
    ladder = RunLadder(in, latency_us.first, &ladder_log);
    samples->Add("serve.sustained_rps", ladder.sustained_rps);
  }
  if (epochs.size() > 1) {
    const int64_t t0 = NowNs();
    const betalike::Status retired = server->RetireEpoch(kFirstEpoch);
    swap_us += static_cast<double>(NowNs() - t0) * 1e-3;
    if (!retired.ok()) Die("RetireEpoch: " + retired.ToString());
    samples->Add("epoch.swap_us", swap_us);
  }
  std::vector<double> lags;
  int64_t ladder_answers = 0;
  for (const RungResult& r : ladder.rungs) {
    rejected += r.rejected;
    if (!r.pass) continue;
    lags.insert(lags.end(), r.lag_us.begin(), r.lag_us.end());
    ladder_answers += r.answers;
  }
  samples->Add("loadgen.lag_p99_us", Quantile(lags, 0.99));
  samples->Add("loadgen.lag_max_us", Quantile(lags, 1.0));
  if (ladder.best >= 0) {
    samples->Add("loadgen.open_p99_us",
                 Quantile(ladder.rungs[ladder.best].open_us, 0.99));
  }
  if (args.trace) {
    std::printf("# ladder:");
    for (const RungResult& r : ladder.rungs) {
      std::printf(" %.0f%s", r.rate, r.pass ? "+" : "-");
    }
    std::printf("  (batches/s; + pass, - fail)\n");
  }

  // Accounting and the answer checks.
  int64_t answers = ladder_answers;
  int64_t errors = 0;
  int64_t mismatches = ladder_log.mismatches;
  size_t queued_max = ladder_log.queued_max;
  std::vector<const ClientLog*> logs = {&ladder_log};
  for (const auto* group : {&latency, &bulk}) {
    for (const ClientLog& log : *group) {
      answers += log.answers;
      errors += log.errors;
      mismatches += log.mismatches;
      queued_max = std::max(queued_max, log.queued_max);
      logs.push_back(&log);
    }
  }
  // Repeats of one (epoch, item) must agree across every client too.
  std::vector<ServedAnswer> first(pool.items.size());
  std::vector<char> seen(pool.items.size(), 0);
  for (size_t e = 0; e < epochs.size(); ++e) {
    std::fill(seen.begin(), seen.end(), 0);
    for (const ClientLog* log : logs) {
      for (size_t i = 0; i < pool.items.size(); ++i) {
        if (!log->seen[e][i]) continue;
        if (!seen[i]) {
          seen[i] = 1;
          first[i] = log->first[e][i];
        } else if (std::memcmp(&first[i], &log->first[e][i],
                               sizeof(ServedAnswer)) != 0) {
          ++mismatches;
        }
      }
    }
    if (args.trace && e == 0) {
      // Interval coverage of the checked answers on the first epoch.
      std::map<std::string, std::pair<double, double>> cover;
      auto tally = [&](const char* kind, size_t item, double truth_value) {
        if (!seen[item]) return;
        auto& c = cover[kind];
        c.second += 1.0;
        const ServedAnswer& a = first[item];
        if (a.ci_lo <= truth_value && truth_value <= a.ci_hi) c.first += 1.0;
      };
      for (size_t q = 0; q < truth.counts.size(); ++q) {
        const double count = static_cast<double>(truth.counts[q]);
        const double sum = static_cast<double>(truth.sums[q]);
        tally("count", 3 * q, count);
        tally("sum", 3 * q + 1, sum);
        if (truth.counts[q] > 0) tally("avg", 3 * q + 2, sum / count);
      }
      if (!pool.group_queries.empty()) {
        const auto groups =
            betalike::PreciseGroupCounts(table, pool.group_queries);
        for (size_t g = 0; g < pool.group_batches.size(); ++g) {
          for (int item : pool.group_batches[g]) {
            tally("group", item,
                  static_cast<double>(groups[g][pool.items[item].group_value]));
          }
        }
      }
      for (const auto& c : cover) {
        samples->Add("query.ci_coverage." + c.first,
                     c.second.second > 0 ? c.second.first / c.second.second
                                         : 0.0);
      }
    }
  }
  report->Check(mismatches == 0,
                std::to_string(mismatches) +
                    " served answers differ from the direct Estimator call "
                    "or from another serving of the same request");
  report->attempted += answers + errors;
  report->failed += errors;
  samples->Add("serve.failed_frac",
               answers + errors > 0
                   ? static_cast<double>(errors) / (answers + errors)
                   : 0.0);
  samples->Add("serve.rejected", static_cast<double>(rejected));
  samples->Add("serve.deadline_shed", static_cast<double>(deadline_shed));
  if (args.trace) {
    samples->Add("serve.queued_max", static_cast<double>(queued_max));
  }
  std::vector<double> all_us = submit_us;
  for (size_t i = 0; i < all_us.size(); ++i) all_us[i] += wait_us[i];
  std::printf(
      "# serve: %zu closed-loop batches, %lld on epoch 1 (latency p50 %.1f "
      "p90 %.1f p99 %.1f p99.9 %.1f us), %lld answers checked\n",
      all_us.size(), static_cast<long long>(samples_n),
      Quantile(all_us, 0.5),
      Quantile(all_us, 0.9), Quantile(all_us, 0.99), Quantile(all_us, 0.999),
      static_cast<long long>(answers));
  if (args.trace) {
    std::printf("# ladder: generator lag p99 %.1f us max %.1f us\n",
                Quantile(lags, 0.99), Quantile(lags, 1.0));
  }
}

ServeSettings SettingsFor(const Args& args, double share) {
  ServeSettings s;
  s.latency_s = 0.40 * share * args.seconds;
  s.bulk_s = 0.20 * share * args.seconds;
  s.rung_s = 0.04 * args.seconds;
  return s;
}

// Set-up runs at least three times and, while its share of the run
// lasts, up to fifteen; setup_s reports the median.
bool MoreSetups(int done, int64_t deadline_ns) {
  return done < 3 || (done < 15 && NowNs() < deadline_ns);
}

int64_t SetupDeadline(const Args& args, double share) {
  return NowNs() + static_cast<int64_t>(share * args.seconds * 1e9);
}

// EC-structure hashes of the publish workload's releases of the default
// 1M-row CENSUS dataset. Every seed forms the same dataset, so these are
// the recorded values for each seed; a change that alters a published
// class fails the run.
constexpr uint64_t kRecordedHashes[] = {
    0x9705528b40c52c81ULL,  // BUREL β=1
    0xbec382a814750003ULL,  // BUREL β=2
    0xa25f9c1e513e40a7ULL,  // BUREL β=4
    0x7a895232c91e2fe5ULL,  // sharded P=4, β=4, chunked path
};

// Half the CPUs form: on a shared host, formation that takes every CPU
// measures the other tenants as much as the program.
int FormationThreads() { return std::max(1, Nproc() / 2); }

// A serve workload's publish_rows_per_s and chunked_rows_per_s samples:
// after the set-ups, rounds of the workload's own release (`publish`
// returns its wall clock) and one AnonymizeSharded call on the last
// set-up's tables, for `share` of the run.
template <typename F>
void FormationRounds(const Args& args, double share,
                     const betalike::ChunkedTable& chunked, LayerSpans* spans,
                     Samples* samples, F&& publish,
                     std::vector<double>* resident_s,
                     std::vector<double>* chunked_s, Report* report) {
  const int64_t end =
      NowNs() + static_cast<int64_t>(share * args.seconds * 1e9);
  do {
    resident_s->push_back(publish());
    uint64_t hash = 0;
    chunked_s->push_back(
        PublishChunked(chunked, FormationThreads(), spans, samples, &hash));
    report->attempted += 2;
  } while (NowNs() < end);
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

void RunPublish(const Args& args, LayerSpans* spans, Samples* samples,
                Report* report) {
  constexpr int64_t kRows = 1000000;
  const int threads = FormationThreads();
  LayerSpans* traced = args.trace ? spans : nullptr;
  std::vector<double> setup_s;
  Census census;
  const int64_t setup_deadline = SetupDeadline(args, 0.1);
  for (int i = 0; MoreSetups(i, setup_deadline); ++i) {
    census = Census();
    const int64_t t0 = NowNs();
    census = MakeCensus(kRows, traced, samples);
    setup_s.push_back(SecondsSince(t0));
  }
  report->Set("setup_s", Median(setup_s));

  // The timed phase: whole rounds of four calls — BUREL at β = 1, 2, 4
  // (each with audit, AIL and index) and the chunked path — each timed
  // by its own wall clock, for 60% of the run. A traced run
  // makes every call twice, untraced and traced, in alternating order,
  // so the layer spans are held against untraced wall time of the same
  // work; it spends 75% of the run here and serves nothing.
  const double betas[] = {1.0, 2.0, 4.0};
  const char* tags[] = {"b1", "b2", "b4"};
  // Per call: wall clocks of the untraced and the traced executions, and
  // the traced executions' span sums.
  std::vector<std::vector<double>> wall(4), traced_wall(4), traced_s(4);
  std::vector<uint64_t> first_hashes;
  double first_ail = 0.0;
  Release served;
  // Makes call `c` of a round; returns its EC-structure hash.
  auto call = [&](int c, bool tracing, double* ail) -> uint64_t {
    LayerSpans* s = tracing ? traced : nullptr;
    uint64_t hash = 0;
    double spans_s = 0.0;
    if (c == 3) {
      (tracing ? traced_wall : wall)[c].push_back(PublishChunked(
          *census.chunked, threads, s, samples, &hash, &spans_s));
      if (tracing) traced_s[c].push_back(spans_s);
      return hash;
    }
    Release release =
        PublishBurel(census.table, betas[c], threads, tags[c], s, samples,
                     report);
    (tracing ? traced_wall : wall)[c].push_back(release.seconds);
    if (tracing) traced_s[c].push_back(release.traced_seconds);
    *ail += release.ail;
    hash = release.hash;
    if (c == 0) served = std::move(release);
    return hash;
  };
  const int64_t phase_end =
      NowNs() +
      static_cast<int64_t>((traced != nullptr ? 0.75 : 0.6) * args.seconds *
                           1e9);
  for (int round = 0; round < 2 || NowNs() < phase_end; ++round) {
    double ail = 0.0;
    double traced_ail = 0.0;
    std::vector<uint64_t> hashes;
    for (int c = 0; c < 4; ++c) {
      if (traced != nullptr && round % 2 == 1) {
        hashes.push_back(call(c, true, &traced_ail));
        report->Check(call(c, false, &ail) == hashes.back(),
                      "traced publication differs from the untraced one");
      } else {
        hashes.push_back(call(c, false, &ail));
        if (traced != nullptr) {
          report->Check(call(c, true, &traced_ail) == hashes.back(),
                        "traced publication differs from the untraced one");
        }
      }
    }
    report->attempted += 4;
    if (round == 0) {
      first_hashes = hashes;
      first_ail = ail;
    } else {
      report->Check(hashes == first_hashes,
                    "publication differs between rounds of one seed");
      report->Check(ail == first_ail, "AIL differs between rounds");
    }
  }
  const char* hash_names[] = {"b1", "b2", "b4", "sharded_p4"};
  for (int h = 0; h < 4; ++h) {
    report->hashes.emplace_back(hash_names[h], HexU64(first_hashes[h]));
    report->Check(first_hashes[h] == kRecordedHashes[h],
                  std::string("EC-structure hash ") + hash_names[h] +
                      " differs from the recorded value");
  }
  std::vector<double> resident_s = wall[0];
  resident_s.insert(resident_s.end(), wall[1].begin(), wall[1].end());
  resident_s.insert(resident_s.end(), wall[2].begin(), wall[2].end());
  report->Set("publish_rows_per_s", RowsPerSecond(kRows, resident_s));
  report->Set("chunked_rows_per_s", RowsPerSecond(kRows, wall[3]));
  report->Set("ail", first_ail / 3.0);
  std::printf("# publish: %zu set-ups, %zu rounds of beta {1,2,4} + sharded "
              "P=4 on %lld rows, %d formation threads\n",
              setup_s.size(), wall[3].size(), static_cast<long long>(kRows),
              threads);

  if (traced == nullptr) {
    // The analyst's first look at the β=1 release.
    const RequestPool pool = MakePool(census.table->schema(), 128, 8);
    ServeSettings settings = SettingsFor(args, 0.3);
    settings.group_percent = 10;
    Serve({{served.estimator, "generalized"}}, pool, settings, args,
          *census.table, 32, samples, report);
    return;
  }
  // The traced layer calls against untraced wall time of the same calls,
  // median repeat of each call on both sides (trace.sum_frac). Separate
  // executions on a shared host differ by 10-20% from interference
  // alone, so this is reported, and the check is made within each traced
  // execution: its layer spans must cover 95% of its wall clock, which
  // spans the same program calls the untraced clock does. Work outside
  // the layer calls fails it; the spans' own cost is calibrated below.
  double untraced = 0.0;
  double median_traced = 0.0;
  double spans_total = 0.0;
  double traced_total = 0.0;
  for (int c = 0; c < 4; ++c) {
    untraced += Median(wall[c]);
    median_traced += Median(traced_s[c]);
    for (size_t i = 0; i < traced_s[c].size(); ++i) {
      spans_total += traced_s[c][i];
      traced_total += traced_wall[c][i];
    }
  }
  const double covered = spans_total / traced_total;
  samples->Add("trace.sum_frac", median_traced / untraced);
  samples->Add("trace.cover_frac", covered);
  report->Check(covered >= 0.95,
                "layer spans cover " + std::to_string(covered) +
                    " of the traced publish wall time, below 0.95");
  // Cost of one layer span (open, close, per-layer sample) against the
  // wall time of a round of untraced calls.
  constexpr int kCalibration = 20000;
  LayerSpans scratch;
  Samples scratch_samples;
  const int64_t c0 = NowNs();
  for (int i = 0; i < kCalibration; ++i) {
    Timed(&scratch, &scratch_samples, "metrics.audit_s", nullptr,
          [] { return 0; });
  }
  const double span_s = SecondsSince(c0) / kCalibration;
  const double spans_per_round =
      static_cast<double>(spans->spans().size()) / traced_s[0].size();
  const double overhead = span_s * spans_per_round / untraced;
  samples->Add("trace.overhead_frac", overhead);
  std::printf("# trace: layer spans cover %.4f of traced wall time; median "
              "traced/untraced %.4f; span cost %.0f ns, %.2g of a round\n",
              covered, median_traced / untraced, span_s * 1e9, overhead);
  report->Check(overhead <= 0.05, "layer span cost exceeds 5% of a round");
  const std::vector<uint64_t> keys =
      Timed(traced, samples, "hilbert.encode_s", nullptr,
            [&] { return betalike::ComputeHilbertKeys(*census.table); });
  const std::vector<int64_t> order =
      Timed(traced, samples, "hilbert.sort_s", nullptr,
            [&] { return betalike::SortRowsByHilbertKey(keys); });
  report->Check(order.size() == keys.size(), "Hilbert order size");
}

void RunServeGeneralized(const Args& args, LayerSpans* spans, Samples* samples,
                         Report* report) {
  constexpr int64_t kRows = 1000000;
  const int threads = FormationThreads();
  LayerSpans* traced = args.trace ? spans : nullptr;
  std::vector<double> setup_s, resident_s, chunked_s, ail;
  Census census;
  Release release;
  std::shared_ptr<const Estimator> perturbed;
  const int64_t setup_deadline = SetupDeadline(args, 0.15);
  for (int i = 0; MoreSetups(i, setup_deadline); ++i) {
    census = Census();
    release = Release();
    perturbed.reset();
    const int64_t t0 = NowNs();
    census = MakeCensus(kRows, traced, samples);
    release = PublishBurel(census.table, 1.0, threads, "b1", traced, samples,
                           report);
    const betalike::PerturbOptions perturb;
    PublishedView perturbed_view = PublishedView::Perturbed(
        Timed(traced, samples, "perturb.perturb_s", nullptr, [&] {
          return Must(betalike::PerturbSaWithinEcs(*release.published,
                                                   perturb),
                      "PerturbSaWithinEcs");
        }));
    perturbed = Timed(traced, samples, "query.index_build_s.perturbed",
                      nullptr, [&] {
                        return std::shared_ptr<const Estimator>(Must(
                            betalike::MakeEstimator(perturbed_view),
                            "MakeEstimator"));
                      });
    setup_s.push_back(SecondsSince(t0));
    resident_s.push_back(release.seconds);
    ail.push_back(release.ail);
    report->attempted += 1;
  }
  report->Set("setup_s", Median(setup_s));
  FormationRounds(
      args, 0.3, *census.chunked, traced, samples,
      [&] {
        return PublishBurel(census.table, 1.0, threads, "b1", traced, samples,
                            report)
            .seconds;
      },
      &resident_s, &chunked_s, report);
  report->Set("publish_rows_per_s", RowsPerSecond(kRows, resident_s));
  report->Set("chunked_rows_per_s", RowsPerSecond(kRows, chunked_s));
  report->Set("ail", Median(ail));

  const RequestPool pool = MakePool(census.table->schema(), 256, 16);
  if (args.trace) {
    samples->Add("query.overlap_frac",
                 OverlapFraction(*release.published, pool));
    samples->Add("query.match_frac", MatchFraction(*census.table, pool, 48));
  }
  ServeSettings settings = SettingsFor(args, 1.0);
  settings.latency_s = 0.3 * args.seconds;
  settings.bulk_s = 0.2 * args.seconds;
  settings.group_percent = 10;
  Serve({{release.estimator, "generalized"}, {perturbed, "perturbed"}}, pool,
        settings, args, *census.table, 48, samples, report);
}

// An Anatomy release as the publisher makes it: group, anatomize,
// audit, measure AIL, and build the serving index.
struct AnatomyRelease {
  std::unique_ptr<PublishedView> grouped;
  std::shared_ptr<const Estimator> estimator;
  double seconds = 0.0;  // wall clock of the five calls
  double ail = 0.0;
};

AnatomyRelease PublishAnatomy(const std::shared_ptr<const Table>& table,
                              LayerSpans* spans, Samples* samples) {
  AnatomyRelease out;
  const int64_t start = NowNs();
  const betalike::AnatomyOptions options;
  out.grouped = std::make_unique<PublishedView>(PublishedView::Generalized(
      Timed(spans, samples, "baseline.anatomy_s", nullptr, [&] {
        return Must(betalike::AnonymizeWithAnatomy(table, options),
                    "AnonymizeWithAnatomy");
      })));
  const GeneralizedTable& groups = out.grouped->generalized();
  PublishedView view = PublishedView::Anatomized(
      Timed(spans, samples, "baseline.anatomize_s", nullptr,
            [&] { return betalike::AnatomizedTable::FromGrouping(groups); }));
  Timed(spans, samples, "metrics.audit_s", nullptr,
        [&] { return betalike::AuditPrivacy(groups); });
  out.ail = Timed(spans, samples, "metrics.ail_s", nullptr,
                  [&] { return betalike::AverageInfoLoss(groups); });
  out.estimator = Timed(
      spans, samples, "query.index_build_s.anatomized", nullptr, [&] {
        return std::shared_ptr<const Estimator>(
            Must(betalike::MakeEstimator(view), "MakeEstimator"));
      });
  out.seconds = SecondsSince(start);
  return out;
}

void RunServeAnatomy(const Args& args, LayerSpans* spans, Samples* samples,
                     Report* report) {
  constexpr int64_t kRows = 500000;
  LayerSpans* traced = args.trace ? spans : nullptr;
  std::vector<double> setup_s, resident_s, chunked_s, ail;
  Census census;
  AnatomyRelease release;
  const int64_t setup_deadline = SetupDeadline(args, 0.15);
  for (int i = 0; MoreSetups(i, setup_deadline); ++i) {
    census = Census();
    release = AnatomyRelease();
    const int64_t t0 = NowNs();
    census = MakeCensus(kRows, traced, samples);
    release = PublishAnatomy(census.table, traced, samples);
    setup_s.push_back(SecondsSince(t0));
    resident_s.push_back(release.seconds);
    ail.push_back(release.ail);
    report->attempted += 1;
  }
  report->Set("setup_s", Median(setup_s));
  FormationRounds(
      args, 0.25, *census.chunked, traced, samples,
      [&] { return PublishAnatomy(census.table, traced, samples).seconds; },
      &resident_s, &chunked_s, report);
  report->Set("publish_rows_per_s", RowsPerSecond(kRows, resident_s));
  report->Set("chunked_rows_per_s", RowsPerSecond(kRows, chunked_s));
  report->Set("ail", Median(ail));

  const RequestPool pool = MakePool(census.table->schema(), 32, 0);
  if (args.trace) {
    samples->Add("query.overlap_frac",
                 OverlapFraction(release.grouped->generalized(), pool));
    samples->Add("query.match_frac", MatchFraction(*census.table, pool, 32));
  }
  ServeSettings settings = SettingsFor(args, 1.0);
  settings.latency_s = 0.35 * args.seconds;
  settings.bulk_s = 0.2 * args.seconds;
  settings.small_max = 1;
  settings.bulk_batch = 8;
  settings.max_queued = 256;
  Serve({{release.estimator, "anatomized"}}, pool, settings, args,
        *census.table, 32, samples, report);
}

void PrintJson(const Args& args, const Report& report) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, ",
              report.failed_checks.empty() ? "true" : "false",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed));
  std::printf("\"metrics\": {");
  bool first = true;
  for (const auto& m : report.metrics) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", m.first.c_str(),
                m.second);
    first = false;
  }
  std::printf("}, \"hashes\": {");
  first = true;
  for (const auto& h : report.hashes) {
    std::printf("%s\"%s\": \"%s\"", first ? "" : ", ", h.first.c_str(),
                h.second.c_str());
    first = false;
  }
  std::printf("}, \"failed_checks\": %zu, ", report.failed_checks.size());
  std::printf("\"meta\": {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %d, "
              "\"commit\": \"%s\", \"formation_threads\": %d}}\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              Nproc(), args.commit.c_str(), FormationThreads());
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  LayerSpans spans;
  Samples samples;
  Report report;
  NowNs();
  if (args.workload == "publish") {
    RunPublish(args, &spans, &samples, &report);
  } else if (args.workload == "serve_generalized") {
    RunServeGeneralized(args, &spans, &samples, &report);
  } else if (args.workload == "serve_anatomy") {
    RunServeAnatomy(args, &spans, &samples, &report);
  } else {
    Die("unknown workload " + args.workload);
  }
  samples.ReportTo(&report);
  report.Set("peak_rss_mb", PeakRssMb());
  if (args.trace && !args.trace_dir.empty()) {
    const std::string path =
        args.trace_dir + "/" + args.workload + "-layers.csv";
    if (!WriteSpans(path, spans.spans(), {}, {})) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    }
  }
  std::fflush(stderr);
  PrintJson(args, report);
  return report.failed_checks.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
