// Internal hybrid-bisection engine behind BUREL formation. The one
// pipeline (core/sharded_burel) builds the curve-ordered SoA mirror,
// picks the segments to form — slab groups, and the subtrees its
// fork-join hands out — and combines the emitted leaves in the serial
// emission order; the engine itself never touches anything outside
// the [lo, hi) segment it was given, so independent segments run on
// different threads with no shared mutable state.
#ifndef BETALIKE_CORE_FORMATION_H_
#define BETALIKE_CORE_FORMATION_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/burel.h"
#include "data/table.h"

namespace betalike {

// Read-mostly context of one formation run, shared by every worker:
// the QI schema and per-value caps, plus the mutable curve-ordered
// SoA mirror. Workers only ever touch disjoint [lo, hi) segments of
// the mutable arrays, so sharing them is race-free.
struct FormationRun {
  const TableSchema* schema = nullptr;
  const std::vector<double>* thresholds = nullptr;
  double min_cut_len = 0.0;
  int dims = 0;
  std::vector<int32_t*> qcol;  // per-dim SoA mirror of the curve order
  int32_t* sa = nullptr;       // SA mirror
  int64_t* sequence = nullptr;  // row ids in curve order
};

// The cut EvaluateNode picks for one segment: pos <= 0 means the
// segment becomes a leaf; dim < 0 is a curve cut at pos, otherwise an
// axis-median cut on `dim` at value `split` with pos rows going left.
struct FormationCut {
  int64_t pos = -1;
  int dim = -1;
  int32_t split = 0;
};

// Folds a subtree task's formation sections and counters (sweep, axis,
// partition, nodes, leaves, parallel_tasks) into a parent profile.
void MergeFormationProfile(const BurelProfile& from, BurelProfile* into);

// Per-worker bisection engine: owns every scratch buffer node
// evaluation needs (segment-relative, lazily sized), so independent
// subtrees run on different workers with no shared mutable state
// beyond their disjoint mirror segments.
class FormationWorker {
 public:
  explicit FormationWorker(const FormationRun& run);

  // Forms segment [lo, hi): appends one (lo, hi) leaf range per
  // equivalence class, in the exact emission order of the serial
  // algorithm (right subtree first). Once emitted a leaf's range is
  // final — later cuts never touch it — so `run.sequence + lo ..
  // run.sequence + hi` still names the class members after the whole
  // run finishes.
  void Form(int64_t lo, int64_t hi,
            std::vector<std::pair<int64_t, int64_t>>* leaves,
            BurelProfile* profile);

  // Hybrid bisection of one node: the best feasible curve cut (any
  // position where both sides satisfy every per-value cap) against the
  // best feasible axis-median cut, by combined box loss.
  FormationCut EvaluateNode(int64_t lo, int64_t hi, BurelProfile* profile);

  // Applies the winning axis cut as a stable partition of `sequence`
  // and the SoA mirror: lefts keep curve order, then rights.
  void ApplyAxisCut(int64_t lo, int64_t hi, const FormationCut& cut,
                    BurelProfile* profile);

 private:
  void EnsureSegmentCapacity(int64_t len);

  const FormationRun& run_;
  // SA values present in the current segment, collected once per node
  // by the forward sweep: count resets and the axis cuts' per-value
  // feasibility maxima then run over the (at most |SA|) present
  // values instead of re-scanning the segment's rows.
  std::vector<int64_t> value_count_;
  std::vector<int64_t> value_count2_;
  std::vector<int64_t> value_count3_;
  std::vector<int32_t> touched_;
  // Cached NormalizedBoxLoss summands of the sweeps' running box, one
  // per dimension, so an extension re-divides only the moved dims.
  std::vector<double> loss_term_;
  // Histogram scratch for the axis medians of small-extent dimensions.
  std::vector<int64_t> hist_;
  std::vector<int64_t> hist2_;
  // Segment-relative scratch, lazily sized to the largest segment this
  // worker has seen: smallest feasible prefix/suffix size, normalized
  // box loss of each prefix/suffix, axis side masks, and the stable
  // partition buffers. The suffix arrays are indexed by cut position k
  // (the suffix is rows [k, len)), so the search loop reads every
  // array forward — a reverse-strided load has no vectype and would
  // keep the fill pass scalar.
  std::vector<double> prefix_required_, suffix_required_;
  std::vector<double> prefix_loss_, suffix_loss_;
  std::vector<double> score_;
  std::vector<int32_t> box_min_, box_max_;
  std::vector<int32_t> box2_min_, box2_max_;
  std::vector<int32_t> seg_min_, seg_max_;
  std::vector<int32_t> scratch_values_;
  std::vector<int32_t> mask_;
  std::vector<char> side_;
  std::vector<int64_t> part64_;
  std::vector<int32_t> part32_;
};

// Worker threads the process can actually run concurrently: the
// scheduling affinity count where available (containers often pin
// fewer CPUs than std::thread::hardware_concurrency reports), the
// hardware thread count otherwise, and at least 1.
int AvailableConcurrency();

// Resolves BurelOptions::num_threads: explicit counts pass through,
// 0 (auto) becomes AvailableConcurrency() — which is 1, i.e. fully
// serial, on single-core hosts where fanning out tasks only adds
// queueing overhead.
int ResolveFormationThreads(int num_threads);

}  // namespace betalike

#endif  // BETALIKE_CORE_FORMATION_H_
