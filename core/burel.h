// BUREL — the paper's BUcketization-REdistribution aLgorithm for
// publishing microdata under β-likeness (Cao & Karras, PVLDB 2012).
//
// A published table satisfies enhanced β-likeness iff in every
// equivalence class, each SA value v with overall frequency p_v occurs
// with frequency q_v <= p_v * (1 + min(beta, ln(1/p_v))); the basic
// model uses q_v <= p_v * (1 + beta).
//
// The pipeline:
//   1. Bucketization (core/bucket_partition): SA values greedily packed
//      into the minimum number of buckets under their thresholds — the
//      feasibility precondition for redistribution.
//   2. Formation: tuples ordered along a Hilbert curve over the QI
//      space (hilbert/) are split by hybrid bisection — curve cuts at
//      any feasible position plus Mondrian-style axis-median cuts,
//      chosen by box loss. Curve locality keeps the classes' QI
//      bounding boxes tight, which is what gives BUREL its
//      information-loss edge over space-partitioning schemes.
// The pipeline itself lives in core/sharded_burel: AnonymizeWithBurel
// is its one-shard case. The paper's ECTree formation and
// Hilbert-curve retrieval variants are follow-up work.
#ifndef BETALIKE_CORE_BUREL_H_
#define BETALIKE_CORE_BUREL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "core/bucket_partition.h"
#include "data/table.h"

namespace betalike {

// Stage breakdown of one formation run (AnonymizeWithBurel or
// AnonymizeSharded), for the benches and perf regression tests. The
// sweep/axis/partition sections are summed across workers — CPU
// seconds, not wall-clock — when more than one thread runs; every
// other section is the wall-clock of its step.
struct BurelProfile {
  double bucketize_seconds = 0.0;  // SA-value bucketization
  double encode_seconds = 0.0;     // bulk Hilbert key computation
  double sort_seconds = 0.0;       // radix sort of the keys
  double gather_seconds = 0.0;     // SoA copies of the QI/SA columns
  double repair_seconds = 0.0;     // slab repair into feasible groups
  double sweep_seconds = 0.0;      // prefix/suffix feasibility sweeps
  double axis_seconds = 0.0;       // axis-median cut evaluation
  double partition_seconds = 0.0;  // applying the winning axis cuts
  double form_seconds = 0.0;       // wall-clock of the full bisection
  int shards = 0;                  // slabs after clamping to the rows
  int groups = 0;                  // feasible groups actually formed
  int merged_slabs = 0;            // slabs that lost their boundary
  int64_t nodes = 0;               // bisection nodes visited
  int64_t leaves = 0;              // equivalence classes emitted
  int threads = 1;                 // formation workers used
  int64_t parallel_tasks = 0;      // subtree tasks handed to the pool
};

// Anonymizes `table` so that the result satisfies β-likeness under
// `options`: sharded formation with one shard. Fails on invalid
// options or an empty table. When `profile` is non-null it is
// overwritten with the stage breakdown of this call.
Result<GeneralizedTable> AnonymizeWithBurel(
    std::shared_ptr<const Table> table, const BurelOptions& options,
    BurelProfile* profile = nullptr);

}  // namespace betalike

#endif  // BETALIKE_CORE_BUREL_H_
