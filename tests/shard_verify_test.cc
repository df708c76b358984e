// Boundary-repair verification for the sharded formation path
// (core/sharded_burel): at several shard counts, the published
// classes must cover every row exactly once, satisfy β-likeness by
// brute-force recount against the global SA distribution, keep AIL
// within a pinned bound of the unsharded result, and — at P = 1 —
// reproduce the unsharded publication bit-for-bit. The chunked-table
// overload must publish row-for-row, box-for-box what the resident
// Table overload publishes.
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "census/census.h"
#include "common/random.h"
#include "core/burel.h"
#include "core/sharded_burel.h"
#include "data/chunked_table.h"
#include "metrics/info_loss.h"
#include "metrics/privacy_audit.h"
#include "tests/betalike_test.h"

namespace betalike {
namespace {

constexpr int kShardCounts[] = {1, 2, 4, 7};

std::shared_ptr<const Table> GoldenCensus(int64_t rows) {
  CensusOptions options;
  options.num_rows = rows;  // seed stays the default 42
  auto full = GenerateCensus(options);
  BETALIKE_CHECK(full.ok()) << full.status().ToString();
  auto prefixed = full->WithQiPrefix(3);
  BETALIKE_CHECK(prefixed.ok()) << prefixed.status().ToString();
  return std::make_shared<Table>(std::move(prefixed).value());
}

std::shared_ptr<const Table> Census10k() { return GoldenCensus(10000); }

// Brute-force β-feasibility recount: every class's SA histogram obeys
// every per-value cap, under the same thresholds and the same
// double-division comparison the formation engine enforces.
void ExpectBetaFeasibleRows(const std::vector<int32_t>& sa_by_row,
                            int32_t num_values,
                            const std::vector<EquivalenceClass>& ecs,
                            const std::vector<double>& freqs,
                            const BurelOptions& options) {
  const std::vector<double> thresholds =
      BetaLikenessThresholds(freqs, options);
  for (const EquivalenceClass& ec : ecs) {
    ASSERT_TRUE(!ec.rows.empty());
    std::vector<int64_t> hist(num_values, 0);
    for (int64_t row : ec.rows) ++hist[sa_by_row[row]];
    const double size = static_cast<double>(ec.size());
    for (int32_t v = 0; v < num_values; ++v) {
      if (hist[v] == 0) continue;
      EXPECT_TRUE(size >=
                  static_cast<double>(hist[v]) / thresholds[v]);
    }
  }
}

// Every source row in exactly one class.
void ExpectFullCoverage(int64_t num_rows,
                        const std::vector<EquivalenceClass>& ecs) {
  std::vector<char> seen(num_rows, 0);
  int64_t covered = 0;
  for (const EquivalenceClass& ec : ecs) {
    for (int64_t row : ec.rows) {
      ASSERT_TRUE(row >= 0 && row < num_rows);
      EXPECT_EQ(static_cast<int>(seen[row]), 0);
      seen[row] = 1;
      ++covered;
    }
  }
  EXPECT_EQ(covered, num_rows);
}

TEST(ShardVerify, P1ReproducesUnshardedExactly) {
  auto table = Census10k();
  BurelOptions burel;
  burel.beta = 4.0;
  auto unsharded = AnonymizeWithBurel(table, burel);
  ASSERT_OK(unsharded);

  ShardedBurelOptions options;
  options.burel = burel;
  options.num_shards = 1;
  ShardStats stats;
  auto sharded = AnonymizeSharded(table, options, &stats);
  ASSERT_OK(sharded);
  EXPECT_EQ(stats.shards, 1);
  EXPECT_EQ(stats.groups, 1);
  EXPECT_EQ(stats.merged_slabs, 0);
  ASSERT_EQ(sharded->num_ecs(), unsharded->num_ecs());
  for (size_t e = 0; e < sharded->num_ecs(); ++e) {
    EXPECT_TRUE(sharded->ec(e).rows == unsharded->ec(e).rows);
    EXPECT_TRUE(sharded->ec(e).qi_min == unsharded->ec(e).qi_min);
    EXPECT_TRUE(sharded->ec(e).qi_max == unsharded->ec(e).qi_max);
  }
}

// The acceptance pin for the scale-out path: one shard over the fig7
// largest table is exactly the serial unsharded recursion, down to the
// pinned EC-structure hash.
TEST(ShardVerify, P1ReproducesPinned100kHash) {
  ShardedBurelOptions options;
  options.burel.beta = 4.0;
  options.num_shards = 1;
  auto published = AnonymizeSharded(GoldenCensus(100000), options);
  ASSERT_OK(published);
  EXPECT_EQ(published->num_ecs(), 1255u);
  EXPECT_EQ(bench::EcStructureHash(published->ecs()), 0x21a40b92ecfa8985ULL);
}

TEST(ShardVerify, CensusShardCountsKeepInvariants) {
  auto table = Census10k();
  BurelOptions burel;
  burel.beta = 4.0;
  auto unsharded = AnonymizeWithBurel(table, burel);
  ASSERT_OK(unsharded);
  const double base_ail = AverageInfoLoss(*unsharded);
  const std::vector<double> freqs = table->SaFrequencies();

  for (int shards : kShardCounts) {
    ShardedBurelOptions options;
    options.burel = burel;
    options.num_shards = shards;
    ShardStats stats;
    auto sharded = AnonymizeSharded(table, options, &stats);
    ASSERT_OK(sharded);  // Create() validated exact row coverage
    EXPECT_EQ(stats.shards, shards);
    EXPECT_TRUE(stats.groups >= 1 && stats.groups <= shards);
    EXPECT_EQ(stats.merged_slabs, shards - stats.groups);

    // β holds on the actual output: both the audited real β and the
    // per-value cap recount.
    EXPECT_TRUE(MeasuredBeta(*sharded) <= burel.beta);
    ExpectBetaFeasibleRows(table->sa_column(), table->sa_spec().num_values,
                           sharded->ecs(), freqs, burel);

    // Slab boundaries only constrain the cut tree; the loss they can
    // add at 10K rows is bounded (pinned with margin over measured
    // values, which stay within ~25% of unsharded here).
    EXPECT_TRUE(AverageInfoLoss(*sharded) <= base_ail * 1.5 + 1e-12);
  }
}

// Group boundaries depend only on (data, P), and inside each group the
// top of the cut tree forks into pool tasks whose leaves are combined
// in serial emission order, so thread count must never move the
// output — checked EC for EC (rows and boxes) against the serial run,
// at one group and at several, through the fork-join path (this also
// puts the group and subtree fan-out under the TSan preset).
TEST(ShardVerify, ThreadCountNeverMovesTheOutput) {
  auto table = Census10k();
  for (int shards : {1, 4}) {
    ShardedBurelOptions options;
    options.burel.beta = 4.0;
    options.num_shards = shards;
    ShardStats serial_stats;
    auto serial = AnonymizeSharded(table, options, &serial_stats);
    ASSERT_OK(serial);
    EXPECT_EQ(serial_stats.parallel_tasks, 0);
    for (int threads : {2, 4, 0}) {
      options.burel.num_threads = threads;
      ShardStats stats;
      auto threaded = AnonymizeSharded(table, options, &stats);
      ASSERT_OK(threaded);
      EXPECT_TRUE(stats.threads >= 1);
      ASSERT_EQ(threaded->num_ecs(), serial->num_ecs());
      for (size_t e = 0; e < threaded->num_ecs(); ++e) {
        EXPECT_TRUE(threaded->ec(e).rows == serial->ec(e).rows);
        EXPECT_TRUE(threaded->ec(e).qi_min == serial->ec(e).qi_min);
        EXPECT_TRUE(threaded->ec(e).qi_max == serial->ec(e).qi_max);
      }
      if (threads == 4) {
        EXPECT_EQ(stats.nodes, serial_stats.nodes);
        EXPECT_EQ(stats.leaves, serial_stats.leaves);
        EXPECT_EQ(stats.groups, serial_stats.groups);
      }
      // Subtree tasks, not just group tasks: groups fork internally.
      if (threads == 2 && shards == 4) {
        EXPECT_TRUE(stats.parallel_tasks > 0);
      }
    }
  }
}

TEST(ShardVerify, BetaHoldsAcrossBetasAndModels) {
  auto table = Census10k();
  const std::vector<double> freqs = table->SaFrequencies();
  for (double beta : {1.0, 2.0, 4.0}) {
    for (bool enhanced : {true, false}) {
      ShardedBurelOptions options;
      options.burel.beta = beta;
      options.burel.enhanced = enhanced;
      options.num_shards = 7;
      auto sharded = AnonymizeSharded(table, options);
      ASSERT_OK(sharded);
      EXPECT_TRUE(MeasuredBeta(*sharded) <= beta);
      ExpectBetaFeasibleRows(table->sa_column(),
                             table->sa_spec().num_values, sharded->ecs(),
                             freqs, options.burel);
    }
  }
}

// Random tables through BOTH overloads: the chunked pipeline must
// publish exactly what the resident-Table pipeline publishes, and both
// must keep coverage + β.
TEST(ShardVerify, ChunkedMatchesTableOnRandomInputs) {
  Rng rng(20260807);
  for (int trial = 0; trial < 6; ++trial) {
    const int dims = 2 + static_cast<int>(rng.Below(2));
    const int64_t rows = 512 + static_cast<int64_t>(rng.Below(1500));
    const int32_t num_values = 4 + static_cast<int32_t>(rng.Below(6));
    std::vector<QiSpec> qi_schema(dims);
    for (int d = 0; d < dims; ++d) {
      qi_schema[d].name = "q";
      qi_schema[d].lo = static_cast<int32_t>(rng.Below(5));
      qi_schema[d].hi =
          qi_schema[d].lo + 1 + static_cast<int32_t>(rng.Below(40));
    }
    const SaSpec sa_schema{"s", num_values};
    std::vector<std::vector<int32_t>> qi_cols(dims);
    std::vector<int32_t> sa_col;
    for (int64_t i = 0; i < rows; ++i) {
      for (int d = 0; d < dims; ++d) {
        qi_cols[d].push_back(
            qi_schema[d].lo +
            static_cast<int32_t>(rng.Below(static_cast<uint64_t>(
                qi_schema[d].hi - qi_schema[d].lo + 1))));
      }
      sa_col.push_back(static_cast<int32_t>(rng.Below(num_values)));
    }

    auto dense =
        Table::Create(qi_schema, sa_schema, qi_cols, sa_col);
    ASSERT_OK(dense);
    auto table = std::make_shared<Table>(std::move(*dense));

    auto builder =
        ChunkedTable::Builder::Create(qi_schema, sa_schema, 256);
    ASSERT_OK(builder);
    for (int64_t lo = 0; lo < rows; lo += 256) {
      const int64_t hi = std::min<int64_t>(rows, lo + 256);
      std::vector<std::vector<int32_t>> chunk_qi(dims);
      for (int d = 0; d < dims; ++d) {
        chunk_qi[d].assign(qi_cols[d].begin() + lo,
                           qi_cols[d].begin() + hi);
      }
      std::vector<int32_t> chunk_sa(sa_col.begin() + lo,
                                    sa_col.begin() + hi);
      ASSERT_OK(builder->AppendChunk(std::move(chunk_qi),
                                     std::move(chunk_sa)));
    }
    auto chunked = std::move(*builder).Finish();
    ASSERT_OK(chunked);

    for (int shards : {2, 4, 7}) {
      for (int threads : {1, 2, 4}) {
        ShardedBurelOptions options;
        options.burel.beta = 2.0;
        options.burel.num_threads = threads;
        options.num_shards = shards;
        auto from_table = AnonymizeSharded(table, options);
        ASSERT_OK(from_table);
        auto from_chunks = AnonymizeSharded(*chunked, options);
        ASSERT_OK(from_chunks);

        ASSERT_EQ(from_chunks->ecs.size(), from_table->num_ecs());
        for (size_t e = 0; e < from_chunks->ecs.size(); ++e) {
          EXPECT_TRUE(from_chunks->ecs[e].rows == from_table->ec(e).rows);
          EXPECT_TRUE(from_chunks->ecs[e].qi_min ==
                      from_table->ec(e).qi_min);
          EXPECT_TRUE(from_chunks->ecs[e].qi_max ==
                      from_table->ec(e).qi_max);
        }
        ExpectFullCoverage(rows, from_chunks->ecs);
        ExpectBetaFeasibleRows(sa_col, num_values, from_chunks->ecs,
                               table->SaFrequencies(), options.burel);
        EXPECT_NEAR(
            AverageInfoLossOfEcs(chunked->schema(), from_chunks->ecs),
            AverageInfoLoss(*from_table), 0.0);
      }
    }
  }
}

// The chunked census path end to end at 10K: generation, sharded
// formation, coverage, and β recount without ever materializing a
// Table (the ToTable() is only the test's cross-check).
TEST(ShardVerify, ChunkedCensusEndToEnd) {
  CensusOptions census;
  census.num_rows = 10000;
  auto chunked = GenerateCensusChunked(census, /*chunk_rows=*/1024);
  ASSERT_OK(chunked);

  ShardedBurelOptions options;
  options.burel.beta = 4.0;
  options.num_shards = 4;
  ShardStats stats;
  auto published = AnonymizeSharded(*chunked, options, &stats);
  ASSERT_OK(published);
  EXPECT_EQ(published->num_rows, census.num_rows);
  ExpectFullCoverage(census.num_rows, published->ecs);

  auto dense = chunked->ToTable();
  ASSERT_OK(dense);
  std::vector<int32_t> sa_by_row(dense->sa_column());
  ExpectBetaFeasibleRows(sa_by_row, dense->sa_spec().num_values,
                         published->ecs, chunked->SaFrequencies(),
                         options.burel);
  EXPECT_EQ(stats.leaves, static_cast<int64_t>(published->ecs.size()));
}

TEST(ShardVerify, OptionsAreValidated) {
  auto table = Census10k();
  ShardedBurelOptions options;
  options.burel.beta = 4.0;
  options.num_shards = 0;
  EXPECT_TRUE(!AnonymizeSharded(table, options).ok());
  options.num_shards = 4;
  options.burel.beta = -1.0;
  EXPECT_TRUE(!AnonymizeSharded(table, options).ok());
  options.burel.beta = 4.0;
  options.burel.num_threads = kMaxFormationThreads + 1;
  EXPECT_TRUE(!AnonymizeSharded(table, options).ok());
  options.burel.num_threads = -1;
  EXPECT_TRUE(!AnonymizeSharded(table, options).ok());
}

// More shards than rows: clamped, still a full valid publication.
TEST(ShardVerify, ShardCountClampedToRows) {
  CensusOptions census;
  census.num_rows = 37;
  auto small = GenerateCensus(census);
  ASSERT_OK(small);
  auto table = std::make_shared<Table>(std::move(*small));
  ShardedBurelOptions options;
  options.burel.beta = 4.0;
  options.num_shards = 1000;
  ShardStats stats;
  auto published = AnonymizeSharded(table, options, &stats);
  ASSERT_OK(published);
  EXPECT_EQ(stats.shards, 37);
}

}  // namespace
}  // namespace betalike
