// BUREL formation, the one pipeline behind AnonymizeWithBurel and the
// scale-out path: thresholds and bucketization, Hilbert key encode,
// radix sort, and the curve-ordered SoA mirror gather; then the sorted
// key range is split into P contiguous slabs, slabs are repaired into
// β-feasible groups, and every group runs the hybrid-bisection engine
// (core/formation). AnonymizeWithBurel is P = 1: one group spanning
// the table.
//
// Parallelism: each group is a thread-pool task, and inside a group
// the top three levels of the cut tree fork — a node is evaluated and
// cut, then both children run as pool tasks — while deeper subtrees
// form serially in one task. So P = 1 gets subtree
// parallelism and P > 1 gets slab-group and subtree parallelism.
//
// Why repair happens BEFORE formation instead of re-cutting straddling
// classes afterwards: if a segment is infeasible — some value v has
// count_v / threshold_v > len — then EVERY split of it leaves an
// infeasible side (for that v, the two sides' requirements sum to more
// than the two sides' lengths), so an infeasible slab cannot be formed
// into anything better than one giant violating class, and no
// post-hoc re-cut of boundary classes could fix it. Conversely a
// feasible root yields only feasible leaves (the engine applies a cut
// only when both sides are feasible). So the one and only global
// invariant to restore is root feasibility per slab, and merging
// infeasible slabs into feasible contiguous groups restores it
// exactly; the whole table is always feasible under its own global
// thresholds, so the merge terminates.
//
// Determinism: group boundaries depend only on (data, P), every node's
// cut is a pure function of its segment, and leaf lists are combined
// in the serial emission order (groups in slab order; within a fork,
// right child first, as the serial recursion pops them). So the
// published output is bit-identical for every thread count, and P = 1
// reproduces the serial recursion's pinned EC-structure hashes.
#ifndef BETALIKE_CORE_SHARDED_BUREL_H_
#define BETALIKE_CORE_SHARDED_BUREL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/bucket_partition.h"
#include "core/burel.h"
#include "data/chunked_table.h"
#include "data/table.h"

namespace betalike {

struct ShardedBurelOptions {
  BurelOptions burel;
  // P: contiguous Hilbert-range slabs. Clamped to the row count.
  int num_shards = 1;
};

Status ValidateShardedBurelOptions(const ShardedBurelOptions& options);

// The stage profile, shard accounting included, under the name the
// sharded benches use.
using ShardStats = BurelProfile;

// A publication without a materialized source Table: the schema plus
// the equivalence classes (member rows and bounding boxes). What the
// chunked path returns — at 10M+ rows there is no monolithic Table to
// hang a GeneralizedTable on.
struct ShardedPublication {
  TableSchema schema;
  int64_t num_rows = 0;
  std::vector<EquivalenceClass> ecs;
};

// Sharded formation of a resident Table; P = 1 is AnonymizeWithBurel.
// When `stats` is non-null it is overwritten with this call's profile.
Result<GeneralizedTable> AnonymizeSharded(
    std::shared_ptr<const Table> table, const ShardedBurelOptions& options,
    ShardStats* stats = nullptr);

// Sharded formation of a chunked table: same pipeline, with keys
// encoded chunk by chunk and the curve-order mirror gathered through
// O(1) chunk-indexed row access. Produces row-for-row, box-for-box the
// classes the Table overload produces on ToTable() input.
Result<ShardedPublication> AnonymizeSharded(
    const ChunkedTable& table, const ShardedBurelOptions& options,
    ShardStats* stats = nullptr);

}  // namespace betalike

#endif  // BETALIKE_CORE_SHARDED_BUREL_H_
