// Ablations over the design knobs BurelOptions actually carries:
//   1. Model strength: enhanced vs basic β-likeness — how much the
//      ln(1/p_v) cap on rare values' gain buys in information loss,
//      and what it costs the frequent values' in-EC frequency.
//   2. Parallel formation: serial vs pooled bisection. The combine
//      order is fixed, so the published ECs must be bit-identical
//      (checked by FNV-1a over the full EC structure) — the thread
//      count may only move wall-clock, never a row.
//   3. Thread-count sweep: formation wall-clock at 1, 2, 4, the
//      hardware thread count and auto, with the pool's task fan-out,
//      and the gate that auto threads keep pace with serial.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "core/burel.h"
#include "metrics/info_loss.h"
#include "metrics/privacy_audit.h"

namespace betalike {
namespace {

GeneralizedTable PublishOrDie(const std::shared_ptr<const Table>& table,
                              const BurelOptions& options,
                              BurelProfile* profile = nullptr) {
  auto published = AnonymizeWithBurel(table, options, profile);
  BETALIKE_CHECK(published.ok()) << published.status().ToString();
  return std::move(published).value();
}

void ModelAblation(const std::shared_ptr<const Table>& table) {
  std::printf("--- Ablation 1: enhanced vs basic beta-likeness ---\n");
  TextTable out({"mode", "beta", "AIL", "ECs", "real beta"});
  for (double beta : {1.0, 2.0, 4.0}) {
    for (bool enhanced : {true, false}) {
      BurelOptions opts;
      opts.beta = beta;
      opts.enhanced = enhanced;
      const GeneralizedTable published = PublishOrDie(table, opts);
      out.AddRow({enhanced ? "enhanced" : "basic", StrFormat("%.0f", beta),
                  StrFormat("%.4f", AverageInfoLoss(published)),
                  StrFormat("%zu", published.num_ecs()),
                  StrFormat("%.3f", MeasuredBeta(published))});
    }
  }
  std::printf("%s\n", out.ToString().c_str());
}

void ParallelBitIdentity(const std::shared_ptr<const Table>& table) {
  std::printf("--- Ablation 2: serial vs parallel formation ---\n");
  BurelOptions serial;
  serial.beta = 4.0;
  serial.num_threads = 1;
  const GeneralizedTable golden = PublishOrDie(table, serial);
  const uint64_t golden_hash = bench::EcStructureHash(golden.ecs());

  TextTable out({"threads", "EC hash", "identical"});
  out.AddRow({"1 (serial)", StrFormat("%016llx",
                                      (unsigned long long)golden_hash),
              "golden"});
  for (int threads : {2, 4, 0}) {
    BurelOptions opts = serial;
    opts.num_threads = threads;
    BurelProfile profile;
    const GeneralizedTable published = PublishOrDie(table, opts, &profile);
    const uint64_t hash = bench::EcStructureHash(published.ecs());
    BETALIKE_CHECK(hash == golden_hash)
        << "parallel formation with num_threads=" << threads
        << " diverged from the serial publication";
    out.AddRow({threads == 0 ? StrFormat("%d (auto)", profile.threads)
                             : StrFormat("%d", threads),
                StrFormat("%016llx", (unsigned long long)hash), "yes"});
  }
  std::printf("%s\n", out.ToString().c_str());
}

// Best end-to-end wall-clock of one formation configuration, the
// profile of the run that set it, and the best bisection wall-clock.
struct FormationTiming {
  double best_seconds = std::numeric_limits<double>::infinity();
  double best_form_seconds = std::numeric_limits<double>::infinity();
  BurelProfile best_profile;
};

void TimeFormation(const std::shared_ptr<const Table>& table,
                   const BurelOptions& options, FormationTiming* timing) {
  BurelProfile profile;
  WallTimer timer;
  PublishOrDie(table, options, &profile);
  const double seconds = timer.ElapsedSeconds();
  if (seconds < timing->best_seconds) {
    timing->best_seconds = seconds;
    timing->best_profile = profile;
  }
  timing->best_form_seconds =
      std::min(timing->best_form_seconds, profile.form_seconds);
}

std::string StageSeconds(const BurelProfile& p) {
  return StrFormat(
      "encode %.6f sort %.6f gather %.6f sweep %.6f axis %.6f "
      "partition %.6f form %.6f, parallel_tasks %lld",
      p.encode_seconds, p.sort_seconds, p.gather_seconds, p.sweep_seconds,
      p.axis_seconds, p.partition_seconds, p.form_seconds,
      static_cast<long long>(p.parallel_tasks));
}

// The sweep runs on 40K rows at REPRO_SCALE=1, the size its gate was
// calibrated at. Each thread count is timed best of 5 after a warmup.
void ThreadSweepAndGate() {
  // Auto threads must keep pace with serial end to end, within 5%.
  // The two are re-timed strictly interleaved, up to 15 times, so
  // background load hits both alike; the loop stops as soon as a quiet
  // window shows auto within the slack (a true regression never finds
  // one). A host where auto resolves to one thread runs the serial
  // path by construction (burel_test checks that it runs no pool
  // tasks), so there is nothing to time.
  constexpr double kAutoSlack = 1.05;
  constexpr int kRetimings = 15;
  // Guards against order-of-magnitude regressions, not noise.
  constexpr double kMaxSerialSeconds = 60.0;

  const int64_t rows = bench::DefaultRows() * 2 / 5;
  std::printf(
      "--- Ablation 3: formation wall-clock by thread count (%lld rows) "
      "---\n",
      static_cast<long long>(rows));
  auto table = bench::MakeCensus(rows, /*qi_prefix=*/3);
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  std::vector<int> counts = {1, 2, 4};
  if (hw > 4) counts.push_back(hw);
  counts.push_back(0);  // auto
  const auto options_for = [](int threads) {
    BurelOptions options;
    options.beta = 4.0;
    options.num_threads = threads;
    return options;
  };

  TextTable out({"threads", "pool tasks", "form ms", "speedup",
                 "end-to-end ms"});
  std::vector<FormationTiming> timings(counts.size());
  for (size_t i = 0; i < counts.size(); ++i) {
    const BurelOptions opts = options_for(counts[i]);
    PublishOrDie(table, opts);  // warmup: page in the inputs
    for (int rep = 0; rep < 5; ++rep) TimeFormation(table, opts, &timings[i]);
    const FormationTiming& t = timings[i];
    out.AddRow(
        {counts[i] == 0 ? StrFormat("auto (%d)", t.best_profile.threads)
                        : StrFormat("%d", counts[i]),
         StrFormat("%lld",
                   static_cast<long long>(t.best_profile.parallel_tasks)),
         StrFormat("%.3f", t.best_form_seconds * 1e3),
         StrFormat("%.2fx", timings[0].best_form_seconds /
                                t.best_form_seconds),
         StrFormat("%.3f", t.best_seconds * 1e3)});
  }
  std::printf("%s\n", out.ToString().c_str());
  std::fflush(stdout);  // the table must reach the log if the gate aborts

  FormationTiming& serial = timings.front();
  FormationTiming& auto_threads = timings.back();
  BETALIKE_CHECK(serial.best_seconds <= kMaxSerialSeconds)
      << "serial formation best " << serial.best_seconds
      << "s exceeds the " << kMaxSerialSeconds << "s ceiling";
  const int threads = auto_threads.best_profile.threads;
  if (threads <= 1) {
    std::printf("# gate: auto resolves to 1 thread, the serial path\n\n");
    return;
  }
  int retimings = 0;
  for (; retimings < kRetimings &&
         auto_threads.best_seconds > serial.best_seconds * kAutoSlack;
       ++retimings) {
    TimeFormation(table, options_for(1), &serial);
    TimeFormation(table, options_for(0), &auto_threads);
  }
  BETALIKE_CHECK(auto_threads.best_seconds <=
                 serial.best_seconds * kAutoSlack)
      << "auto-thread formation (" << auto_threads.best_seconds
      << "s at threads=" << threads << ") exceeds " << kAutoSlack
      << " x serial (" << serial.best_seconds << "s) after " << retimings
      << " interleaved re-timings. Stage seconds of each best run "
      << "(sweep, axis and partition summed over tasks; form is the "
      << "bisection's wall-clock):\n  serial: "
      << StageSeconds(serial.best_profile)
      << "\n  auto:   " << StageSeconds(auto_threads.best_profile);
  std::printf(
      "# gate: auto (%d threads) %.3f ms <= %.2f x serial %.3f ms "
      "(%d re-timings)\n\n",
      threads, auto_threads.best_seconds * 1e3, kAutoSlack,
      serial.best_seconds * 1e3, retimings);
}

void Run() {
  const int64_t rows = bench::DefaultRows() / 5;
  bench::PrintHeader(
      "Ablations: model strength, parallel formation, thread sweep",
      "basic mode loses less information but concedes higher in-EC "
      "frequencies; parallel formation is bit-identical to serial at "
      "every thread count; speedup tracks physical cores, and auto "
      "threads stay within 5% of serial end to end",
      rows);
  auto table = bench::MakeCensus(rows, /*qi_prefix=*/3);
  ModelAblation(table);
  ParallelBitIdentity(table);
  ThreadSweepAndGate();
}

}  // namespace
}  // namespace betalike

int main() {
  betalike::Run();
  return 0;
}
