// Information-loss metric (§6): Average Information Loss (AIL) of a
// published table — the mean, over tuples and QI attributes, of the
// generalized range's extent normalized by the attribute's domain
// extent. 0 = exact values published, 1 = every attribute fully
// suppressed.
#ifndef BETALIKE_METRICS_INFO_LOSS_H_
#define BETALIKE_METRICS_INFO_LOSS_H_

#include "data/table.h"

namespace betalike {

// Normalized information loss of a single equivalence class: the mean
// over QI attributes of (range extent / domain extent). Attributes with
// a single-point domain contribute 0.
double EcInfoLoss(const GeneralizedTable& published,
                  const EquivalenceClass& ec);

// Tuple-weighted mean of EcInfoLoss over all equivalence classes.
double AverageInfoLoss(const GeneralizedTable& published);

// The same tuple-weighted mean over a bare (schema, classes) pair, for
// publications produced without a materialized source Table
// (core/sharded_burel's chunked path). AverageInfoLoss is this over
// the publication's source schema and classes.
double AverageInfoLossOfEcs(const TableSchema& schema,
                            const std::vector<EquivalenceClass>& ecs);

}  // namespace betalike

#endif  // BETALIKE_METRICS_INFO_LOSS_H_
