#include "metrics/info_loss.h"

namespace betalike {

double EcInfoLoss(const GeneralizedTable& published,
                  const EquivalenceClass& ec) {
  return NormalizedBoxLoss(published.source().schema(), ec.qi_min,
                           ec.qi_max);
}

double AverageInfoLoss(const GeneralizedTable& published) {
  return AverageInfoLossOfEcs(published.source().schema(), published.ecs());
}

double AverageInfoLossOfEcs(const TableSchema& schema,
                            const std::vector<EquivalenceClass>& ecs) {
  int64_t rows = 0;
  double total = 0.0;
  for (const EquivalenceClass& ec : ecs) {
    rows += ec.size();
    total += NormalizedBoxLoss(schema, ec.qi_min, ec.qi_max) *
             static_cast<double>(ec.size());
  }
  if (rows == 0) return 0.0;
  return total / static_cast<double>(rows);
}

}  // namespace betalike
