// Shared helpers for the paper-reproduction benches.
//
// Every bench binary regenerates one table/figure of the paper's
// evaluation (§6-7): it prints the same series the paper plots, plus a
// "# shape:" line stating the qualitative claim under reproduction.
// Dataset sizes scale with the REPRO_SCALE environment variable
// (default 1 = 100K-tuple CENSUS; REPRO_SCALE=5 reproduces the paper's
// 500K default).
#ifndef BETALIKE_BENCH_BENCH_UTIL_H_
#define BETALIKE_BENCH_BENCH_UTIL_H_

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "census/census.h"
#include "common/logging.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/anonymizer.h"
#include "core/formation.h"
#include "data/table.h"
#include "query/estimator.h"
#include "query/published_view.h"
#include "query/workload.h"

namespace betalike {
namespace bench {

// Largest accepted REPRO_SCALE (1000 => 100M-tuple CENSUS).
inline constexpr long kMaxReproScale = 1000;

// Parses one REPRO_SCALE value strictly: Ok(scale) for an integer in
// [1, kMaxReproScale], InvalidArgument otherwise (malformed text,
// zero, negative, or overflowing values — everything atoi would have
// silently folded into 0 or garbage).
inline Result<int> ParseReproScale(const char* value) {
  char* end = nullptr;
  errno = 0;
  const long scale = std::strtol(value, &end, 10);
  if (errno != 0 || end == value || *end != '\0') {
    return Status::InvalidArgument(
        StrFormat("REPRO_SCALE=\"%s\" is not an integer", value));
  }
  if (scale < 1 || scale > kMaxReproScale) {
    return Status::InvalidArgument(StrFormat(
        "REPRO_SCALE=%ld outside [1, %ld]", scale, kMaxReproScale));
  }
  return static_cast<int>(scale);
}

// The REPRO_SCALE environment variable, re-read on every call (tests
// change it at runtime); unset or empty means scale 1. An invalid
// value CHECK-fails the bench outright: a typo must not silently run
// the whole suite at the wrong scale (or, with atoi's 0, measure an
// empty census).
inline int ReproScale() {
  const char* env = std::getenv("REPRO_SCALE");
  if (env == nullptr || *env == '\0') return 1;
  const Result<int> scale = ParseReproScale(env);
  BETALIKE_CHECK(scale.ok())
      << scale.status().message()
      << "; set REPRO_SCALE to an integer in [1, " << kMaxReproScale
      << "] (or unset it for scale 1)";
  return *scale;
}

/// Default bench dataset size: 100K tuples at scale 1 (paper: 500K).
inline int64_t DefaultRows() { return 100000LL * ReproScale(); }

/// Number of aggregation queries per workload: 2K at scale 1 (paper: 10K).
inline int DefaultQueries() { return 2000 * ReproScale(); }

// SA Zipf exponent at which the synthetic CENSUS's modal occupation
// share matches the paper's CENSUS (~4.84%; the default exponent 1.0
// yields ~22%). The §7 attack benches run at this flattened marginal:
// the attack-accuracy floor and the achieved-ℓ regime both scale with
// the modal share, so matching it is what makes the paper's "ℓ stays
// >= 5-7, attack near the floor" trends reproducible.
inline constexpr double kPaperModalZipfExponent = 0.31;

/// CENSUS table with the first `qi_prefix` QI attributes (paper default 3).
inline std::shared_ptr<const Table> MakeCensus(int64_t rows, int qi_prefix,
                                               uint64_t seed = 42,
                                               double zipf_exponent = 1.0) {
  CensusOptions options;
  options.num_rows = rows;
  options.seed = seed;
  options.zipf_exponent = zipf_exponent;
  auto full = GenerateCensus(options);
  BETALIKE_CHECK(full.ok()) << full.status().ToString();
  auto table = std::make_shared<Table>(std::move(full).value());
  if (qi_prefix >= table->num_qi()) return table;
  auto prefixed = table->WithQiPrefix(qi_prefix);
  BETALIKE_CHECK(prefixed.ok()) << prefixed.status().ToString();
  return std::make_shared<Table>(std::move(prefixed).value());
}

// Registry lookup with CHECK-fail error handling — a bench asking for
// an unknown or misconfigured scheme should die loudly, not skip a
// series.
inline std::unique_ptr<Anonymizer> MakeAnonymizerOrDie(
    const AnonymizerSpec& spec) {
  auto scheme = MakeAnonymizer(spec);
  BETALIKE_CHECK(scheme.ok()) << scheme.status().ToString();
  return std::move(scheme).value();
}

// Registry-resolved single publication: MakeAnonymizer + Anonymize
// with CHECK-fail error handling. Shared by the figure benches (via
// scheme_driver) and the serving tests' CENSUS releases — the one
// place publication construction is spelled out.
inline GeneralizedTable Publish(const std::shared_ptr<const Table>& table,
                                const AnonymizerSpec& spec) {
  const std::unique_ptr<Anonymizer> scheme = MakeAnonymizerOrDie(spec);
  auto published = scheme->Anonymize(table);
  BETALIKE_CHECK(published.ok())
      << scheme->Name() << ": " << published.status().ToString();
  return std::move(published).value();
}

// MakeEstimator with CHECK-fail error handling, shared-owned so the
// estimator can go straight to a QueryServer batch.
inline std::shared_ptr<const Estimator> MakeEstimatorOrDie(
    const PublishedView& view) {
  auto estimator = MakeEstimator(view);
  BETALIKE_CHECK(estimator.ok()) << estimator.status().ToString();
  return std::move(estimator).value();
}

// PreciseCounts of `workload` over `table`, one ThreadPool task per
// contiguous slice (AvailableConcurrency() of them), concatenated in
// order. Each query's scan is PreciseCounts' own, so the truth equals
// one serial call.
inline std::vector<int64_t> PreciseCountsOnPool(
    const Table& table, const std::vector<AggregateQuery>& workload) {
  const size_t slices = static_cast<size_t>(AvailableConcurrency());
  ThreadPool pool(static_cast<int>(slices));
  std::vector<std::future<std::vector<int64_t>>> parts;
  for (size_t s = 0; s < slices; ++s) {
    const auto begin = workload.begin() + workload.size() * s / slices;
    const auto end = workload.begin() + workload.size() * (s + 1) / slices;
    parts.push_back(pool.Submit([&table, begin, end] {
      return PreciseCounts(table, std::vector<AggregateQuery>(begin, end));
    }));
  }
  std::vector<int64_t> truth;
  truth.reserve(workload.size());
  for (auto& part : parts) {
    const std::vector<int64_t> counts = part.get();
    truth.insert(truth.end(), counts.begin(), counts.end());
  }
  return truth;
}

// FNV-1a over the exact equivalence-class structure (sizes and member
// rows, in emission order): equal hashes mean the publications are
// identical row for row. The golden tests pin it, and the benches
// compare publications across thread and shard counts with it.
inline uint64_t EcStructureHash(const std::vector<EquivalenceClass>& ecs) {
  uint64_t hash = 1469598103934665603ULL;
  const auto mix = [&hash](uint64_t x) {
    hash ^= x;
    hash *= 1099511628211ULL;
  };
  for (const EquivalenceClass& ec : ecs) {
    mix(static_cast<uint64_t>(ec.size()));
    for (int64_t row : ec.rows) mix(static_cast<uint64_t>(row));
  }
  return hash;
}

// `rows` <= 0 means the bench uses the scaled default; a bench that
// runs on another size (bench_ablation_design_choices) passes the
// actual count so the header never contradicts the measurements.
inline void PrintHeader(const char* experiment, const char* shape,
                        int64_t rows = 0) {
  const std::string rule(62, '=');
  std::printf("%s\n", rule.c_str());
  std::printf("%s\n", experiment);
  std::printf("# dataset: synthetic CENSUS, %lld tuples (REPRO_SCALE=%d)\n",
              static_cast<long long>(rows > 0 ? rows : DefaultRows()),
              ReproScale());
  std::printf("# shape: %s\n", shape);
  std::printf("%s\n", rule.c_str());
}

}  // namespace bench
}  // namespace betalike

#endif  // BETALIKE_BENCH_BENCH_UTIL_H_
