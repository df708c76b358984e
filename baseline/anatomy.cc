#include "baseline/anatomy.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"

namespace betalike {

Status ValidateAnatomyOptions(const AnatomyOptions& options) {
  if (options.l < 2) {
    return Status::InvalidArgument(
        StrFormat("l = %d must be at least 2", options.l));
  }
  return Status::Ok();
}

Result<GeneralizedTable> AnonymizeWithAnatomy(
    std::shared_ptr<const Table> table, const AnatomyOptions& options) {
  if (table == nullptr) return Status::InvalidArgument("null table");
  if (Status s = ValidateAnatomyOptions(options); !s.ok()) return s;
  const int64_t n = table->num_rows();
  if (n == 0) return Status::InvalidArgument("empty table");
  const Table& t = *table;
  const int64_t l = options.l;
  if (n < l) {
    return Status::FailedPrecondition(StrFormat(
        "table of %lld rows cannot form a group of l = %lld distinct values",
        static_cast<long long>(n), static_cast<long long>(l)));
  }

  // Per-value buckets, rows in table order. Eligibility: distinct
  // l-diversity is achievable iff every value's count stays within
  // n / l (each group of size s holds at most 1 of the value and needs
  // s >= l).
  const int32_t num_values = t.sa_spec().num_values;
  std::vector<std::vector<int64_t>> bucket(num_values);
  for (int64_t row = 0; row < n; ++row) {
    bucket[t.sa_value(row)].push_back(row);
  }
  for (int32_t v = 0; v < num_values; ++v) {
    if (static_cast<int64_t>(bucket[v].size()) * l > n) {
      return Status::FailedPrecondition(StrFormat(
          "SA value %d holds %zu of %lld rows, above the 1/%lld eligibility "
          "bound",
          v, bucket[v].size(), static_cast<long long>(n),
          static_cast<long long>(l)));
    }
  }

  // Group-creation phase: draw one random tuple from each of the l
  // largest buckets (ties to the lower value code) until fewer than l
  // buckets remain nonempty.
  Rng rng(options.seed);
  std::vector<std::vector<int64_t>> groups;
  std::vector<std::vector<int32_t>> group_values;  // values per group
  int32_t nonempty = 0;
  for (int32_t v = 0; v < num_values; ++v) {
    if (!bucket[v].empty()) ++nonempty;
  }
  while (nonempty >= l) {
    // Partial selection of the l largest buckets: value codes sorted
    // by (count desc, code asc), first l taken.
    std::vector<int32_t> order;
    order.reserve(nonempty);
    for (int32_t v = 0; v < num_values; ++v) {
      if (!bucket[v].empty()) order.push_back(v);
    }
    std::partial_sort(order.begin(), order.begin() + l, order.end(),
                      [&bucket](int32_t a, int32_t b) {
                        if (bucket[a].size() != bucket[b].size()) {
                          return bucket[a].size() > bucket[b].size();
                        }
                        return a < b;
                      });
    std::vector<int64_t> group;
    std::vector<int32_t> values;
    group.reserve(l);
    values.reserve(l);
    for (int64_t i = 0; i < l; ++i) {
      std::vector<int64_t>& rows = bucket[order[i]];
      const uint64_t pick = rng.Below(rows.size());
      std::swap(rows[pick], rows.back());
      group.push_back(rows.back());
      rows.pop_back();
      values.push_back(order[i]);
      if (rows.empty()) --nonempty;
    }
    groups.push_back(std::move(group));
    group_values.push_back(std::move(values));
  }

  // Residual phase: every leftover tuple joins a group that does not
  // yet contain its value — still at most one tuple per value per
  // group, so each group keeps >= l distinct values, each within a
  // 1 / l share. Distinct groups are preferred (the paper's sizes are
  // l or l + 1); stacking two residuals on one group is a fallback
  // that keeps both invariants intact.
  std::vector<bool> augmented(groups.size(), false);
  for (int32_t v = 0; v < num_values; ++v) {
    for (int64_t row : bucket[v]) {
      int64_t chosen = -1;
      for (int pass = 0; pass < 2 && chosen < 0; ++pass) {
        for (size_t g = 0; g < groups.size(); ++g) {
          if (pass == 0 && augmented[g]) continue;
          if (std::find(group_values[g].begin(), group_values[g].end(),
                        v) == group_values[g].end()) {
            chosen = static_cast<int64_t>(g);
            break;
          }
        }
      }
      if (chosen < 0) {
        return Status::Internal(StrFormat(
            "no residual group free of SA value %d (eligibility should "
            "rule this out)",
            v));
      }
      groups[chosen].push_back(row);
      group_values[chosen].push_back(v);
      augmented[chosen] = true;
    }
  }

  return GeneralizedTable::Create(std::move(table), std::move(groups));
}

AnatomizedTable AnatomizedTable::FromGrouping(
    const GeneralizedTable& grouped) {
  const Table& source = grouped.source();
  const int32_t num_values = source.sa_spec().num_values;
  AnatomizedTable out;
  out.source_ = grouped.shared_source();
  out.group_of_row_.assign(source.num_rows(), 0);
  out.group_sizes_.reserve(grouped.num_ecs());
  // Counting pass: group ids, sizes, and the entries per value.
  out.value_offsets_.assign(static_cast<size_t>(num_values) + 1, 0);
  for (size_t g = 0; g < grouped.num_ecs(); ++g) {
    const std::vector<int64_t>& rows = grouped.ec(g).rows;
    for (int64_t row : rows) {
      out.group_of_row_[row] = static_cast<int32_t>(g);
      ++out.value_offsets_[source.sa_value(row) + 1];
    }
    out.group_sizes_.push_back(static_cast<int64_t>(rows.size()));
  }
  for (int32_t v = 0; v < num_values; ++v) {
    out.value_offsets_[v + 1] += out.value_offsets_[v];
  }
  // Fill pass in group order, so every value's group ids ascend.
  std::vector<int64_t> next(out.value_offsets_.begin(),
                            out.value_offsets_.end() - 1);
  out.value_groups_.resize(static_cast<size_t>(source.num_rows()));
  for (size_t g = 0; g < grouped.num_ecs(); ++g) {
    for (int64_t row : grouped.ec(g).rows) {
      out.value_groups_[next[source.sa_value(row)]++] = static_cast<int32_t>(g);
    }
  }
  return out;
}

}  // namespace betalike
