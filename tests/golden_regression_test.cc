// Golden regression wall: BUREL and the three Mondrian baselines on the
// fixed-seed CENSUS table, pinned to checked-in EC counts, AIL, and
// measured β. Every value was captured from the pre-optimization
// formation (PR 1) — the hot-path rewrite (hilbert/ extraction, SoA
// sweeps, incremental extents, memoized axis partitions) is required to
// reproduce them bit-for-bit, and any future PR that silently changes
// published output fails here.
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "attack/definetti.h"
#include "attack/naive_bayes.h"
#include "baseline/anatomy.h"
#include "baseline/mondrian.h"
#include "baseline/sabre.h"
#include "bench/bench_util.h"
#include "census/census.h"
#include "core/anonymizer.h"
#include "core/burel.h"
#include "metrics/info_loss.h"
#include "metrics/privacy_audit.h"
#include "perturb/perturbation.h"
#include "tests/betalike_test.h"

namespace betalike {
namespace {

// Drift allowed on the pinned doubles. The values are printed with 15
// decimals, so this is dominated by real algorithmic change, not
// formatting.
constexpr double kTolerance = 1e-9;

std::shared_ptr<const Table> GoldenTable(int64_t rows) {
  CensusOptions options;
  options.num_rows = rows;  // seed stays the default 42
  auto full = GenerateCensus(options);
  BETALIKE_CHECK(full.ok()) << full.status().ToString();
  auto prefixed = full->WithQiPrefix(3);
  BETALIKE_CHECK(prefixed.ok()) << prefixed.status().ToString();
  return std::make_shared<Table>(std::move(prefixed).value());
}

// The single source of the pinned values: every case is checked both
// through the schemes' direct APIs (the per-scheme TESTs below) and
// through the Anonymizer registry (keyed by scheme/param here), so a
// legitimate golden update edits exactly one row.
struct GoldenCase {
  const char* scheme;  // registry name
  double param;
  size_t ecs;
  double ail;
  double beta;
};

constexpr GoldenCase kGoldenCases[] = {
    {"burel", 1.0, 13, 0.293250951199338, 1.0},
    {"burel", 4.0, 123, 0.070287593052109, 4.0},
    {"burel-basic", 4.0, 183, 0.069816046319272, 4.0},
    {"lmondrian", 4.0, 89, 0.081778287841191, 3.977600796416128},
    {"dmondrian", 4.0, 10, 0.312653349875931, 1.683043167183401},
    {"tmondrian", 0.2, 50, 0.111160463192721, 5.002400960384153},
    {"sabre", 0.2, 62, 0.460948014888337, 5.172839506172839},
    {"anatomy", 4.0, 2500, 0.607293465674112, 66.567567567567565},
};

const GoldenCase& Golden(const char* scheme, double param) {
  for (const GoldenCase& c : kGoldenCases) {
    if (std::string(c.scheme) == scheme && c.param == param) return c;
  }
  BETALIKE_CHECK(false) << "no golden case for " << scheme;
  std::abort();  // unreachable; CHECK above is fatal
}

void ExpectGolden(const Result<GeneralizedTable>& published,
                  const GoldenCase& golden) {
  ASSERT_OK(published);
  EXPECT_EQ(published->num_ecs(), golden.ecs);
  EXPECT_NEAR(AverageInfoLoss(*published), golden.ail, kTolerance);
  EXPECT_NEAR(MeasuredBeta(*published), golden.beta, kTolerance);
}

TEST(GoldenRegression, BurelEnhancedBeta1) {
  BurelOptions options;
  options.beta = 1.0;
  ExpectGolden(AnonymizeWithBurel(GoldenTable(10000), options),
               Golden("burel", 1.0));
}

TEST(GoldenRegression, BurelEnhancedBeta4) {
  BurelOptions options;
  options.beta = 4.0;
  ExpectGolden(AnonymizeWithBurel(GoldenTable(10000), options),
               Golden("burel", 4.0));
}

TEST(GoldenRegression, BurelBasicBeta4) {
  BurelOptions options;
  options.beta = 4.0;
  options.enhanced = false;
  ExpectGolden(AnonymizeWithBurel(GoldenTable(10000), options),
               Golden("burel-basic", 4.0));
}

TEST(GoldenRegression, LMondrianBeta4) {
  ExpectGolden(Mondrian::ForBetaLikeness(4.0).Anonymize(GoldenTable(10000)),
               Golden("lmondrian", 4.0));
}

TEST(GoldenRegression, DMondrianBeta4) {
  ExpectGolden(Mondrian::ForDeltaFromBeta(4.0).Anonymize(GoldenTable(10000)),
               Golden("dmondrian", 4.0));
}

TEST(GoldenRegression, TMondrianT02) {
  ExpectGolden(Mondrian::ForTCloseness(0.2).Anonymize(GoldenTable(10000)),
               Golden("tmondrian", 0.2));
}

TEST(GoldenRegression, SabreT02) {
  SabreOptions options;
  options.t = 0.2;
  ExpectGolden(AnonymizeWithSabre(GoldenTable(10000), options),
               Golden("sabre", 0.2));
}

TEST(GoldenRegression, AnatomyL4) {
  AnatomyOptions options;  // default seed, as the registry runs it
  options.l = 4;
  ExpectGolden(AnonymizeWithAnatomy(GoldenTable(10000), options),
               Golden("anatomy", 4.0));
}

// The strongest pin: the EC-structure hash of the fig7 largest table at
// scale 1. This is what "the optimization may not change published
// output" means literally — the hot path must take the same cut at
// every node.
TEST(GoldenRegression, BurelEcStructureHash100k) {
  BurelOptions options;
  options.beta = 4.0;
  auto published = AnonymizeWithBurel(GoldenTable(100000), options);
  ASSERT_OK(published);
  EXPECT_EQ(published->num_ecs(), 1255u);
  EXPECT_NEAR(AverageInfoLoss(*published), 0.006109627791563, kTolerance);
  EXPECT_EQ(bench::EcStructureHash(published->ecs()), 0x21a40b92ecfa8985ULL);
}

// The new baselines get the same 100K bitwise pin BUREL has: SABRE's
// slab apportionment and Anatomy's seeded draws must take identical
// decisions on every platform.
TEST(GoldenRegression, SabreEcStructureHash100k) {
  SabreOptions options;
  options.t = 0.2;
  auto published = AnonymizeWithSabre(GoldenTable(100000), options);
  ASSERT_OK(published);
  EXPECT_EQ(published->num_ecs(), 602u);
  EXPECT_NEAR(AverageInfoLoss(*published), 0.243548606286187, kTolerance);
  EXPECT_EQ(bench::EcStructureHash(published->ecs()), 0x0956d310c992ff0fULL);
}

TEST(GoldenRegression, AnatomyEcStructureHash100k) {
  AnatomyOptions options;
  options.l = 4;
  auto published = AnonymizeWithAnatomy(GoldenTable(100000), options);
  ASSERT_OK(published);
  EXPECT_EQ(published->num_ecs(), 25000u);
  EXPECT_NEAR(AverageInfoLoss(*published), 0.607798345740281, kTolerance);
  EXPECT_EQ(bench::EcStructureHash(published->ecs()), 0xbab61910259afc8bULL);
}

// Perturbation determinism across platforms: the seeded randomized
// response over BUREL's 10K publication must resample the SA column
// bit-identically everywhere (all draws go through the platform-pinned
// Rng; no libm calls whose ULPs could differ) — pinned as an FNV-1a
// hash, with a second run proving same-process reproducibility and the
// EC structure proving the view is untouched.
TEST(GoldenRegression, PerturbationIsBitIdenticalPerSeed) {
  BurelOptions burel;
  burel.beta = 4.0;
  auto published = AnonymizeWithBurel(GoldenTable(10000), burel);
  ASSERT_OK(published);

  PerturbOptions options;
  options.retention = 0.8;
  options.seed = 17;
  auto first = PerturbSaWithinEcs(*published, options);
  auto second = PerturbSaWithinEcs(*published, options);
  ASSERT_OK(first);
  ASSERT_OK(second);
  EXPECT_TRUE(first->view.source().sa_column() ==
              second->view.source().sa_column());
  EXPECT_EQ(bench::EcStructureHash(first->view.ecs()),
            bench::EcStructureHash(published->ecs()));

  uint64_t hash = 1469598103934665603ULL;
  for (int32_t v : first->view.source().sa_column()) {
    hash ^= static_cast<uint64_t>(static_cast<uint32_t>(v));
    hash *= 1099511628211ULL;
  }
  EXPECT_EQ(hash, 0x80acb66caeaf6c88ULL);
}

// ---------------------------------------------------------------------------
// §7 pins: the audit table and both attacks on the paper-modal 10K
// census (kPaperModalZipfExponent flattens the SA marginal to the
// paper's ~4.8% modal share — the §7 benches' setting). Any refactor
// of AuditPrivacy or the attack/ learners must stay decision-identical
// here.
// ---------------------------------------------------------------------------

std::shared_ptr<const Table> PaperModalTable10k() {
  return bench::MakeCensus(10000, /*qi_prefix=*/3, /*seed=*/42,
                           bench::kPaperModalZipfExponent);
}

struct AuditGolden {
  double beta;
  double max_t;
  double avg_t;
  int min_l;
  double avg_l;
  double min_entropy_l;
  double avg_entropy_l;
  double real_beta;
};

constexpr AuditGolden kAuditGoldens[] = {
    {1.0, 0.192134108527132, 0.146220396497183, 48, 49.629629629629626,
     41.467407090764659, 44.324596633730067, 0.998667554963358},
    {2.0, 0.503733333333333, 0.272245664566256, 23, 42.173913043478258,
     22.288570680240046, 36.339144313601579, 1.996703626011387},
    {3.0, 0.670400000000000, 0.394320787478890, 15, 31.502762430939228,
     14.003966168337609, 27.985776312283196, 2.997867803837952},
    {4.0, 0.699900000000000, 0.492536614429038, 13, 24.825454545454544,
     12.680131299694692, 22.570462640809971, 3.995004995004995},
    {5.0, 0.752000000000000, 0.515493632515992, 12, 23.513422818791945,
     11.484694984106930, 21.517581148804119, 4.296610169491526},
};

TEST(GoldenRegression, Sec7AuditTable10k) {
  auto table = PaperModalTable10k();
  for (const AuditGolden& golden : kAuditGoldens) {
    BurelOptions options;
    options.beta = golden.beta;
    auto published = AnonymizeWithBurel(table, options);
    ASSERT_OK(published);
    const PrivacyAudit audit = AuditPrivacy(*published);
    EXPECT_NEAR(audit.max_closeness, golden.max_t, kTolerance);
    EXPECT_NEAR(audit.avg_closeness, golden.avg_t, kTolerance);
    EXPECT_EQ(audit.min_diversity, golden.min_l);
    EXPECT_NEAR(audit.avg_diversity, golden.avg_l, kTolerance);
    EXPECT_NEAR(audit.min_entropy_l, golden.min_entropy_l, kTolerance);
    EXPECT_NEAR(audit.avg_entropy_l, golden.avg_entropy_l, kTolerance);
    EXPECT_NEAR(audit.max_beta, golden.real_beta, kTolerance);
  }
}

// Both attacks on BUREL's β = 4 publication of the same table: the
// Naive-Bayes decisions are pinned row by row (FNV-1a over the
// predicted SA codes — the attacks use no libm in decision paths, so
// the hash is platform-independent), the deFinetti posteriors through
// their measured success rate.
TEST(GoldenRegression, Sec7AttackDecisions10k) {
  auto table = PaperModalTable10k();
  BurelOptions options;
  options.beta = 4.0;
  auto published = AnonymizeWithBurel(table, options);
  ASSERT_OK(published);

  auto nb = NaiveBayesAttack::Train(*published);
  ASSERT_OK(nb);
  EXPECT_NEAR(nb->Accuracy(*table), 0.0483, kTolerance);
  uint64_t hash = 1469598103934665603ULL;
  std::vector<int32_t> qi(table->num_qi());
  for (int64_t row = 0; row < table->num_rows(); ++row) {
    for (int d = 0; d < table->num_qi(); ++d) {
      qi[d] = table->qi_value(row, d);
    }
    hash ^= static_cast<uint64_t>(static_cast<uint32_t>(nb->Predict(qi)));
    hash *= 1099511628211ULL;
  }
  EXPECT_EQ(hash, 0xa52543511f3c1d7cULL);

  auto definetti = DeFinettiAttack(*published);
  ASSERT_OK(definetti);
  EXPECT_NEAR(definetti->accuracy, 0.0633, kTolerance);
  EXPECT_NEAR(definetti->baseline_accuracy, 0.0884, kTolerance);
  EXPECT_EQ(definetti->iterations, 6);
}

// The Anonymizer-interface migration must be decision-identical: every
// scheme constructed by name through the registry reproduces the exact
// goldens its direct API is pinned to above.
TEST(GoldenRegression, AnonymizerInterfaceReproducesAllGoldens) {
  auto table = GoldenTable(10000);
  for (const GoldenCase& c : kGoldenCases) {
    auto scheme = MakeAnonymizer({c.scheme, c.param});
    ASSERT_OK(scheme);
    ExpectGolden((*scheme)->Anonymize(table), c);
  }
}

// ... and the bitwise pin holds through the interface too: the 100K EC
// structure hash is identical to the direct-API run above.
TEST(GoldenRegression, AnonymizerInterfaceEcStructureHash100k) {
  auto scheme = MakeAnonymizer({"burel", 4.0});
  ASSERT_OK(scheme);
  auto published = (*scheme)->Anonymize(GoldenTable(100000));
  ASSERT_OK(published);
  EXPECT_EQ(published->num_ecs(), 1255u);
  EXPECT_EQ(bench::EcStructureHash(published->ecs()), 0x21a40b92ecfa8985ULL);
}

}  // namespace
}  // namespace betalike
