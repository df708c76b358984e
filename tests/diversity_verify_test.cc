// Brute-force l-diversity cross-check (the Anatomy wall, mirroring
// tests/beta_verify_test.cc): an O(n * |SA|) counter that re-derives
// every group's SA composition from first principles — no shared
// helpers with the formation — and checks Anatomy's invariants: at
// least l distinct values per group, each value at most once per group
// (so no value exceeds a 1/l share). Run over randomized tables, where
// ineligible draws must fail with the matching precondition, and over
// the CENSUS sample; the separate-table view's per-group SA moments
// are cross-checked against the same recount.
#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baseline/anatomy.h"
#include "census/census.h"
#include "common/random.h"
#include "common/string_util.h"
#include "tests/betalike_test.h"

namespace betalike {
namespace {

struct NaiveAudit {
  bool satisfies = false;    // every group obeys both invariants
  int64_t min_distinct = 0;  // fewest distinct SA values in any group
  int64_t max_repeat = 0;    // most copies of one value in one group
  std::string violation;     // first offending group, for the log
};

// The O(n * |SA|) recount: each group is scanned once per SA value.
NaiveAudit NaiveVerify(const GeneralizedTable& published, int64_t l) {
  const Table& source = published.source();
  NaiveAudit audit;
  audit.satisfies = true;
  audit.min_distinct = source.num_rows();
  for (size_t g = 0; g < published.num_ecs(); ++g) {
    const EquivalenceClass& ec = published.ec(g);
    int64_t distinct = 0;
    int64_t worst = 0;
    for (int32_t v = 0; v < source.sa_spec().num_values; ++v) {
      int64_t count = 0;
      for (int64_t row : ec.rows) {
        if (source.sa_value(row) == v) ++count;
      }
      if (count > 0) ++distinct;
      worst = std::max(worst, count);
    }
    audit.min_distinct = std::min(audit.min_distinct, distinct);
    audit.max_repeat = std::max(audit.max_repeat, worst);
    if (distinct < l || worst > 1) {
      if (audit.satisfies) {
        audit.violation = StrFormat(
            "group %zu: %lld distinct values, worst repeat %lld (l=%lld)",
            g, static_cast<long long>(distinct),
            static_cast<long long>(worst), static_cast<long long>(l));
      }
      audit.satisfies = false;
    }
  }
  return audit;
}

// True iff `table` is Anatomy-eligible at l: no SA value above a 1/l
// share — recounted independently of the formation's check.
bool Eligible(const Table& table, int64_t l) {
  std::vector<int64_t> totals(table.sa_spec().num_values, 0);
  for (int64_t row = 0; row < table.num_rows(); ++row) {
    ++totals[table.sa_value(row)];
  }
  for (int64_t count : totals) {
    if (count * l > table.num_rows()) return false;
  }
  return table.num_rows() >= l;
}

Table RandomTable(Rng* rng) {
  const int dims = static_cast<int>(rng->Uniform(1, 3));
  const int64_t rows = rng->Uniform(20, 300);
  std::vector<QiSpec> qi_schema(dims);
  std::vector<std::vector<int32_t>> qi_columns(dims);
  for (int d = 0; d < dims; ++d) {
    const int32_t lo = static_cast<int32_t>(rng->Uniform(-20, 20));
    const int32_t hi = lo + static_cast<int32_t>(rng->Uniform(0, 12));
    qi_schema[d] = {"Q" + std::to_string(d), lo, hi};
    qi_columns[d].reserve(rows);
    for (int64_t i = 0; i < rows; ++i) {
      qi_columns[d].push_back(static_cast<int32_t>(rng->Uniform(lo, hi)));
    }
  }
  // Near-uniform SA draw over 4-9 values: usually eligible for small
  // l, with occasional skewed draws exercising the failure path.
  const int32_t sa_values = static_cast<int32_t>(rng->Uniform(4, 9));
  std::vector<int32_t> sa(rows);
  for (int64_t i = 0; i < rows; ++i) {
    sa[i] = static_cast<int32_t>(rng->Below(sa_values));
  }
  auto table = Table::Create(std::move(qi_schema), {"SA", sa_values},
                             std::move(qi_columns), std::move(sa));
  BETALIKE_CHECK(table.ok()) << table.status().ToString();
  return std::move(table).value();
}

TEST(NaiveDiversityVerify, AcceptsAnatomyOnRandomizedTables) {
  Rng rng(31337);
  int published_rounds = 0;
  for (int round = 0; round < 25; ++round) {
    auto table = std::make_shared<Table>(RandomTable(&rng));
    for (const int l : {2, 3, 4}) {
      AnatomyOptions options;
      options.l = l;
      options.seed = 100 + static_cast<uint64_t>(round);
      auto published = AnonymizeWithAnatomy(table, options);
      if (!Eligible(*table, l)) {
        // An ineligible draw must be refused, not silently broken.
        ASSERT_FALSE(published.ok());
        EXPECT_EQ(published.status().code(),
                  StatusCode::kFailedPrecondition);
        continue;
      }
      ASSERT_OK(published);
      ++published_rounds;
      EXPECT_EQ(published->num_rows(), table->num_rows());
      const NaiveAudit audit = NaiveVerify(*published, l);
      EXPECT_TRUE(audit.satisfies);
      if (!audit.satisfies) {
        BETALIKE_LOG(ERROR) << "round " << round << " l " << l << ": "
                            << audit.violation;
      }
      EXPECT_GE(audit.min_distinct, l);
      EXPECT_LE(audit.max_repeat, 1);
    }
  }
  // The generator must actually exercise the success path.
  EXPECT_GT(published_rounds, 25);
}

TEST(NaiveDiversityVerify, AcceptsAnatomyOnCensus) {
  CensusOptions census;
  census.num_rows = 2000;
  auto generated = GenerateCensus(census);
  ASSERT_OK(generated);
  auto prefixed = generated->WithQiPrefix(3);
  ASSERT_OK(prefixed);
  auto table = std::make_shared<Table>(std::move(prefixed).value());
  for (const int l : {2, 4}) {
    AnatomyOptions options;
    options.l = l;
    auto published = AnonymizeWithAnatomy(table, options);
    ASSERT_OK(published);
    const NaiveAudit audit = NaiveVerify(*published, l);
    EXPECT_TRUE(audit.satisfies);
    // Groups are as small as the model allows: l or l + 1 tuples.
    for (size_t g = 0; g < published->num_ecs(); ++g) {
      EXPECT_GE(published->ec(g).size(), l);
      EXPECT_LE(published->ec(g).size(), 2 * l);
    }
  }
}

// The verifier itself must reject hand-built violations of either
// invariant: a repeated value, and too few distinct values.
TEST(NaiveDiversityVerify, RejectsHandBuiltViolations) {
  std::vector<int32_t> qi = {0, 1, 2, 3, 4, 5};
  std::vector<int32_t> sa = {0, 0, 1, 2, 1, 2};
  auto table = Table::Create({{"A", 0, 5}}, {"SA", 3}, {qi}, sa);
  ASSERT_OK(table);
  auto shared = std::make_shared<Table>(std::move(table).value());

  // Group {0, 1} repeats value 0 and holds one distinct value.
  auto repeat = GeneralizedTable::Create(shared, {{0, 1}, {2, 3, 4, 5}});
  ASSERT_OK(repeat);
  const NaiveAudit repeat_audit = NaiveVerify(*repeat, 2);
  EXPECT_FALSE(repeat_audit.satisfies);
  EXPECT_EQ(repeat_audit.max_repeat, 2);

  // All groups distinct-valued but too small for l = 3.
  auto shallow = GeneralizedTable::Create(shared, {{0, 2}, {1, 3}, {4, 5}});
  ASSERT_OK(shallow);
  EXPECT_TRUE(NaiveVerify(*shallow, 2).satisfies);
  EXPECT_FALSE(NaiveVerify(*shallow, 3).satisfies);
}

// Checks the separate-table view of `grouped` against a row-by-row
// recount: group ids and sizes cover the partition; every SA value's
// ST slice lists the groups holding it, ascending, once per holding
// row; and scattering ForEachEntryInRange's entries gives every group
// the recounted count, Σ v and Σ v² for every [lo, hi] with both
// bounds in [-2, V + 1] or at an int32 extreme — zeros for inverted
// and out-of-domain ranges. Returns whether some group repeats an SA
// value.
bool ExpectViewMatchesRecount(const GeneralizedTable& grouped) {
  const Table& source = grouped.source();
  const int32_t num_values = source.sa_spec().num_values;
  std::vector<int32_t> bounds = {std::numeric_limits<int32_t>::min()};
  for (int32_t b = -2; b <= num_values + 1; ++b) bounds.push_back(b);
  bounds.push_back(std::numeric_limits<int32_t>::max());
  const AnatomizedTable view = AnatomizedTable::FromGrouping(grouped);
  EXPECT_EQ(view.num_groups(), grouped.num_ecs());
  EXPECT_EQ(view.num_rows(), source.num_rows());
  EXPECT_EQ(view.num_values(), num_values);
  bool repeats = false;
  int64_t total_size = 0;
  std::vector<std::vector<int32_t>> holders(static_cast<size_t>(num_values));
  for (size_t g = 0; g < grouped.num_ecs(); ++g) {
    const EquivalenceClass& ec = grouped.ec(g);
    EXPECT_EQ(view.group_size(g), ec.size());
    total_size += view.group_size(g);
    std::vector<int64_t> per_value(static_cast<size_t>(num_values), 0);
    for (int64_t row : ec.rows) {
      EXPECT_EQ(view.group_of_row(row), static_cast<int32_t>(g));
      if (++per_value[source.sa_value(row)] > 1) repeats = true;
      holders[source.sa_value(row)].push_back(static_cast<int32_t>(g));
    }
  }
  EXPECT_EQ(total_size, source.num_rows());
  for (int32_t v = 0; v < num_values; ++v) {
    const Span<int32_t> slice = view.groups_with_value(v);
    if (std::vector<int32_t>(slice.begin(), slice.end()) != holders[v]) {
      testing::Fail(__FILE__, __LINE__,
                    StrFormat("value %d: ST slice of %zu entries differs from "
                              "the %zu recounted holders",
                              v, slice.size(), holders[v].size()));
    }
  }

  struct Moments {
    int64_t count = 0;
    int64_t sum = 0;
    int64_t square_sum = 0;
  };
  std::vector<Moments> scattered(grouped.num_ecs());
  for (int32_t lo : bounds) {
    for (int32_t hi : bounds) {
      std::fill(scattered.begin(), scattered.end(), Moments{});
      std::pair<int32_t, int32_t> last = {-1, -1};
      bool ordered = true;
      view.ForEachEntryInRange(lo, hi, [&](int32_t v, int32_t g) {
        ordered &= std::make_pair(v, g) >= last;
        last = {v, g};
        scattered[g].count += 1;
        scattered[g].sum += v;
        scattered[g].square_sum += int64_t{v} * v;
      });
      if (!ordered) {
        testing::Fail(__FILE__, __LINE__,
                      StrFormat("range [%d, %d]: entries out of (value, "
                                "group) order",
                                lo, hi));
        return repeats;
      }
      for (size_t g = 0; g < grouped.num_ecs(); ++g) {
        int64_t count = 0;
        int64_t sum = 0;
        int64_t square_sum = 0;
        for (int64_t row : grouped.ec(g).rows) {
          const int64_t v = source.sa_value(row);
          if (v < lo || v > hi) continue;
          ++count;
          sum += v;
          square_sum += v * v;
        }
        const Moments& moments = scattered[g];
        if (moments.count != count || moments.sum != sum ||
            moments.square_sum != square_sum) {
          testing::Fail(
              __FILE__, __LINE__,
              StrFormat("group %zu, range [%d, %d]: moments {%lld, %lld, "
                        "%lld}, recount {%lld, %lld, %lld}",
                        g, lo, hi, static_cast<long long>(moments.count),
                        static_cast<long long>(moments.sum),
                        static_cast<long long>(moments.square_sum),
                        static_cast<long long>(count),
                        static_cast<long long>(sum),
                        static_cast<long long>(square_sum)));
          return repeats;
        }
      }
    }
  }
  return repeats;
}

// The separate-table view must agree with a row-by-row recount, on
// Anatomy's own groups (distinct values, size l or l + 1) and on a
// grouping Anatomy never forms: a few large groups that repeat values.
TEST(AnatomizedView, MatchesBruteForceRecount) {
  CensusOptions census;
  census.num_rows = 1000;
  auto generated = GenerateCensus(census);
  ASSERT_OK(generated);
  auto table = std::make_shared<Table>(std::move(generated).value());
  AnatomyOptions options;
  options.l = 3;
  auto published = AnonymizeWithAnatomy(table, options);
  ASSERT_OK(published);
  EXPECT_FALSE(ExpectViewMatchesRecount(*published));

  // Row r joins group r mod 4: 250-row groups over a 1000-row table.
  std::vector<std::vector<int64_t>> groups(4);
  for (int64_t row = 0; row < table->num_rows(); ++row) {
    groups[row % 4].push_back(row);
  }
  auto mod4 = GeneralizedTable::Create(table, std::move(groups));
  ASSERT_OK(mod4);
  EXPECT_TRUE(ExpectViewMatchesRecount(*mod4));
}

}  // namespace
}  // namespace betalike
