// Scale-out formation benchmark: sharded BUREL (core/sharded_burel)
// over the chunked CENSUS generator, up a row ladder to 10M+ rows,
// across shard counts and thread counts. Each cell reports wall-clock,
// throughput (rows/sec), and peak RSS, plus the shard accounting
// (groups formed, slabs merged by boundary repair) — the numbers the
// README's Scaling section quotes — and the per-stage seconds and pool
// task count of the formation profile.
//
// Machine-independent properties are hard CHECKs, not reports:
//   - sharded P = 1 at 100K reproduces the pinned golden EC-structure
//     hash of the serial unsharded engine, and
//   - for every (rows, P), the publication hash is identical across
//     thread counts (threads move wall-clock only).
//
// Knobs (environment):
//   BENCH_SCALE_MAX_ROWS  cap on the row ladder   (default: 10,000,000)
//   BENCH_SCALE_JSON      output path             (default: BENCH_scale.json)
// Every cell forms at β = 4.
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "census/census.h"
#include "common/logging.h"
#include "common/timer.h"
#include "core/burel.h"
#include "core/formation.h"
#include "core/sharded_burel.h"
#include "data/chunked_table.h"
#include "metrics/info_loss.h"

namespace betalike {
namespace {

int64_t EnvInt64(const char* name, int64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(value, &end, 10);
  BETALIKE_CHECK(errno == 0 && end != value && *end == '\0' && parsed > 0)
      << name << "=\"" << value << "\" is not a positive integer";
  return parsed;
}

// Current peak resident set (VmHWM) in KiB; 0 when /proc is missing.
int64_t PeakRssKb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  int64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtoll(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

// Resets the VmHWM watermark so per-cell peaks are meaningful (Linux
// >= 4.0; silently a no-op elsewhere, where peaks are then monotone
// over the run — still an honest upper bound per cell).
void TryResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return;
  std::fputs("5", f);
  std::fclose(f);
}

struct ScaleCell {
  int64_t rows = 0;
  int shards = 0;
  int threads = 0;
  double seconds = 0.0;
  double rows_per_sec = 0.0;
  int64_t peak_rss_kb = 0;
  int64_t ecs = 0;
  double ail = 0.0;
  uint64_t hash = 0;
  ShardStats profile;
};

// The 100K determinism gate: sharded P = 1 must be the serial
// unsharded recursion bit for bit, pinned by golden_regression_test.
void CheckGoldenHash() {
  CensusOptions census;
  census.num_rows = 100000;  // seed stays the default 42
  auto full = GenerateCensus(census);
  BETALIKE_CHECK(full.ok()) << full.status().ToString();
  auto prefixed = full->WithQiPrefix(3);
  BETALIKE_CHECK(prefixed.ok()) << prefixed.status().ToString();
  auto table = std::make_shared<Table>(std::move(prefixed).value());

  ShardedBurelOptions options;
  options.burel.beta = 4.0;
  options.num_shards = 1;
  auto published = AnonymizeSharded(table, options);
  BETALIKE_CHECK(published.ok()) << published.status().ToString();
  BETALIKE_CHECK(published->num_ecs() == 1255u)
      << "sharded P=1 EC count " << published->num_ecs();
  const uint64_t hash = bench::EcStructureHash(published->ecs());
  BETALIKE_CHECK(hash == 0x21a40b92ecfa8985ULL)
      << "sharded P=1 diverged from the pinned golden hash";
  std::printf("# golden gate: sharded P=1 @100K hash ok (1255 ecs)\n");
}

void WriteJson(const std::string& path, int64_t max_rows, double beta,
               const std::vector<ScaleCell>& cells) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  BETALIKE_CHECK(f != nullptr) << "cannot open " << path;
  std::fprintf(f, "{\n  \"max_rows\": %lld,\n  \"beta\": %.3f,\n",
               static_cast<long long>(max_rows), beta);
  std::fprintf(f, "  \"cells\": [\n");
  for (size_t i = 0; i < cells.size(); ++i) {
    const ScaleCell& c = cells[i];
    const ShardStats& p = c.profile;
    std::fprintf(
        f,
        "    {\"rows\": %lld, \"shards\": %d, \"threads\": %d, "
        "\"seconds\": %.6f, \"rows_per_sec\": %.1f, "
        "\"peak_rss_kb\": %lld, \"ecs\": %lld, \"groups\": %d, "
        "\"merged_slabs\": %d, \"ail\": %.15f, \"encode_s\": %.6f, "
        "\"sort_s\": %.6f, \"gather_s\": %.6f, \"repair_s\": %.6f, "
        "\"form_s\": %.6f, \"sweep_s\": %.6f, \"axis_s\": %.6f, "
        "\"partition_s\": %.6f, \"parallel_tasks\": %lld}%s\n",
        static_cast<long long>(c.rows), c.shards, c.threads, c.seconds,
        c.rows_per_sec, static_cast<long long>(c.peak_rss_kb),
        static_cast<long long>(c.ecs), p.groups, p.merged_slabs, c.ail,
        p.encode_seconds, p.sort_seconds, p.gather_seconds, p.repair_seconds,
        p.form_seconds, p.sweep_seconds, p.axis_seconds, p.partition_seconds,
        static_cast<long long>(p.parallel_tasks),
        i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

int Main() {
  const int64_t max_rows = EnvInt64("BENCH_SCALE_MAX_ROWS", 10000000);
  constexpr double kBeta = 4.0;
  const char* json_env = std::getenv("BENCH_SCALE_JSON");
  const std::string json_path =
      (json_env != nullptr && *json_env != '\0') ? json_env
                                                 : "BENCH_scale.json";

  CheckGoldenHash();

  std::vector<int64_t> ladder;
  for (int64_t rows : {int64_t{100000}, int64_t{1000000}, int64_t{10000000}}) {
    if (rows <= max_rows) ladder.push_back(rows);
  }
  if (ladder.empty()) ladder.push_back(max_rows);
  const int kShardCounts[] = {1, 2, 4, 8};
  const int max_threads = AvailableConcurrency() > 1 ? 2 : 1;

  std::vector<ScaleCell> cells;
  std::printf("#%11s %6s %7s %9s %11s %11s %6s\n", "rows", "shards",
              "threads", "sec", "rows/sec", "peakRSS_kb", "groups");
  for (int64_t rows : ladder) {
    CensusOptions census;
    census.num_rows = rows;
    WallTimer gen_timer;
    auto table = GenerateCensusChunked(census);
    BETALIKE_CHECK(table.ok()) << table.status().ToString();
    std::printf("# generated %lld rows in %.2fs (%d chunks)\n",
                static_cast<long long>(rows), gen_timer.ElapsedSeconds(),
                table->num_chunks());

    for (int shards : kShardCounts) {
      uint64_t hash_at_one_thread = 0;
      for (int threads = 1; threads <= max_threads; ++threads) {
        ShardedBurelOptions options;
        options.burel.beta = kBeta;
        options.burel.num_threads = threads;
        options.num_shards = shards;

        TryResetPeakRss();
        ShardStats stats;
        WallTimer timer;
        auto published = AnonymizeSharded(*table, options, &stats);
        const double seconds = timer.ElapsedSeconds();
        BETALIKE_CHECK(published.ok()) << published.status().ToString();

        ScaleCell cell;
        cell.rows = rows;
        cell.shards = shards;
        cell.threads = threads;
        cell.seconds = seconds;
        cell.rows_per_sec = static_cast<double>(rows) / seconds;
        cell.peak_rss_kb = PeakRssKb();
        cell.ecs = static_cast<int64_t>(published->ecs.size());
        cell.ail = AverageInfoLossOfEcs(table->schema(), published->ecs);
        cell.hash = bench::EcStructureHash(published->ecs);
        cell.profile = stats;
        cells.push_back(cell);

        if (threads == 1) {
          hash_at_one_thread = cell.hash;
        } else {
          BETALIKE_CHECK(cell.hash == hash_at_one_thread)
              << "publication diverged across thread counts at rows="
              << rows << " shards=" << shards;
        }
        std::printf("%12lld %6d %7d %9.3f %11.0f %11lld %6d\n",
                    static_cast<long long>(rows), shards, threads, seconds,
                    cell.rows_per_sec,
                    static_cast<long long>(cell.peak_rss_kb), stats.groups);
      }
    }
  }

  WriteJson(json_path, max_rows, kBeta, cells);
  std::printf("# wrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace betalike

int main() { return betalike::Main(); }
