#include "core/sharded_burel.h"

#include <algorithm>
#include <future>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/formation.h"
#include "hilbert/hilbert.h"

namespace betalike {
namespace {

// Cut-tree depth down to which a group forks into pool tasks: up to
// 2^depth serially formed subtrees per group.
constexpr int kParallelCutoffDepth = 3;

// Hilbert keys of every row, for the two table shapes the pipeline
// takes; everything downstream is shape-blind. A chunked table is
// encoded a chunk at a time: a key is a pure function of its own row's
// values, so the per-chunk spans produce exactly the keys of one
// whole-table pass.
std::vector<uint64_t> EncodeKeys(const Table& t) {
  return ComputeHilbertKeys(t);
}

std::vector<uint64_t> EncodeKeys(const ChunkedTable& t) {
  std::vector<uint64_t> keys(t.num_rows(), 0);
  const BulkHilbertEncoder encoder(t.schema());
  std::vector<const int32_t*> columns(t.num_qi());
  int64_t offset = 0;
  for (int c = 0; c < t.num_chunks(); ++c) {
    for (int d = 0; d < t.num_qi(); ++d) columns[d] = t.qi_chunk(c, d);
    encoder.EncodeSpan(columns.data(), t.chunk_size(c), keys.data() + offset);
    offset += t.chunk_size(c);
  }
  return keys;
}

// Root feasibility of a contiguous group, by the same arithmetic the
// engine's sweeps use (double division, then compare against the
// length): a group passing here can only produce β-feasible leaves.
bool GroupFeasible(const std::vector<int64_t>& hist,
                   const std::vector<double>& thresholds, int64_t len) {
  const double len_d = static_cast<double>(len);
  for (size_t v = 0; v < hist.size(); ++v) {
    if (hist[v] > 0 &&
        len_d < static_cast<double>(hist[v]) / thresholds[v]) {
      return false;
    }
  }
  return true;
}

using Leaves = std::vector<std::pair<int64_t, int64_t>>;

// The leaves and profile sections of one formed subtree.
struct Subtree {
  Leaves leaves;
  BurelProfile profile;
};

// Forms segment [lo, hi) at cut-tree depth `depth`. Without a pool, or
// at kParallelCutoffDepth, that is one serial FormationWorker::Form.
// Above it the node is evaluated and cut here and both children fork
// as pool tasks; their leaves are concatenated right child first — the
// order Form pops them — so the result is exactly the serial one.
Subtree FormSubtree(const FormationRun& run, ThreadPool* pool, int64_t lo,
                    int64_t hi, int depth) {
  Subtree out;
  if (pool == nullptr || depth >= kParallelCutoffDepth) {
    FormationWorker(run).Form(lo, hi, &out.leaves, &out.profile);
    return out;
  }
  FormationCut cut;
  {
    // Scoped so the worker's scratch (~57 B per segment row) is freed
    // before this task waits: otherwise it piles up down the fork chain.
    FormationWorker worker(run);
    ++out.profile.nodes;
    cut = worker.EvaluateNode(lo, hi, &out.profile);
    if (cut.pos > 0 && cut.dim >= 0) {
      worker.ApplyAxisCut(lo, hi, cut, &out.profile);
    }
  }
  if (cut.pos <= 0) {
    out.leaves.emplace_back(lo, hi);
    ++out.profile.leaves;
    return out;
  }
  const int64_t mid = lo + cut.pos;
  std::future<Subtree> left = pool->Submit([&run, pool, lo, mid, depth] {
    return FormSubtree(run, pool, lo, mid, depth + 1);
  });
  std::future<Subtree> right = pool->Submit([&run, pool, mid, hi, depth] {
    return FormSubtree(run, pool, mid, hi, depth + 1);
  });
  out.profile.parallel_tasks += 2;
  for (std::future<Subtree>* child : {&right, &left}) {
    const Subtree part = pool->GetAndHelp(std::move(*child));
    out.leaves.insert(out.leaves.end(), part.leaves.begin(),
                      part.leaves.end());
    MergeFormationProfile(part.profile, &out.profile);
  }
  return out;
}

// A formed run: one (lo, hi) range per equivalence class in global
// emission order, over the final curve-ordered mirror.
struct Formation {
  Leaves leaves;
  std::vector<int64_t> sequence;
  std::vector<std::vector<int32_t>> qi_pos;
  std::vector<int32_t> sa_pos;
};

// The pipeline: thresholds and the bucketization gate, key encode,
// radix sort, SoA mirror gather, slab repair into feasible groups, and
// per-group formation with slab-ordered combine. Overwrites `profile`.
template <typename SourceTable>
Result<Formation> RunSharded(const SourceTable& src,
                             const ShardedBurelOptions& options,
                             BurelProfile* profile) {
  *profile = BurelProfile{};
  if (Status s = ValidateShardedBurelOptions(options); !s.ok()) return s;
  const int64_t n = src.num_rows();
  if (n == 0) return Status::InvalidArgument("empty table");
  const TableSchema& schema = src.schema();

  const std::vector<double> freqs = src.SaFrequencies();
  const std::vector<double> thresholds =
      BetaLikenessThresholds(freqs, options.burel);

  // Bucketization (core/bucket_partition) proves redistribution is
  // feasible: every value fits some bucket under its threshold. The
  // bisection enforces the exact per-value caps instead, which is
  // precisely the β-likeness condition on the concrete output.
  // (Bucket-level caps must NOT be enforced on consecutive-run
  // classes: greedy packing fills buckets to their threshold, leaving
  // no slack for per-class fluctuation, and no class would close.)
  WallTimer section;
  auto buckets = BucketizeSaValues(freqs, options.burel);
  profile->bucketize_seconds = section.ElapsedSeconds();
  if (!buckets.ok()) return buckets.status();

  // More slabs than rows would leave some empty; clamp.
  const int shards =
      static_cast<int>(std::min<int64_t>(options.num_shards, n));
  profile->shards = shards;

  // Curve order: bulk key encoding, then a stable radix sort —
  // equivalent to comparison-sorting (key, row) pairs.
  Formation out;
  std::vector<int64_t>& sequence = out.sequence;
  {
    section.Restart();
    const std::vector<uint64_t> keys = EncodeKeys(src);
    profile->encode_seconds = section.ElapsedSeconds();
    section.Restart();
    sequence = SortRowsByHilbertKey(keys);
    profile->sort_seconds = section.ElapsedSeconds();
  }  // keys freed before the mirror is allocated

  // SoA mirror of the curve order: qi_pos[d][i] / sa_pos[i] hold row
  // sequence[i]'s values, so every sweep streams contiguous memory
  // instead of gathering rows through `sequence`, and formation never
  // reads the source again. Axis cuts permute `sequence` and the
  // mirror together, keeping the invariant for the whole recursion.
  section.Restart();
  const int dims = schema.num_qi();
  std::vector<std::vector<int32_t>>& qi_pos = out.qi_pos;
  qi_pos.assign(dims, {});
  for (int d = 0; d < dims; ++d) {
    qi_pos[d].resize(n);
    for (int64_t i = 0; i < n; ++i) {
      qi_pos[d][i] = src.qi_value(sequence[i], d);
    }
  }
  std::vector<int32_t>& sa_pos = out.sa_pos;
  sa_pos.resize(n);
  for (int64_t i = 0; i < n; ++i) sa_pos[i] = src.sa_value(sequence[i]);
  profile->gather_seconds = section.ElapsedSeconds();

  // Slab repair. Slab s covers curve positions [s*n/P, (s+1)*n/P); a
  // left-to-right greedy closes a group as soon as its accumulated SA
  // histogram is feasible for its length. An infeasible tail merges
  // backward into closed groups until feasible — the whole table is
  // feasible under its own global thresholds, so the merge terminates
  // (at worst as one group spanning the table).
  section.Restart();
  const int32_t num_values = schema.sa.num_values;
  std::vector<std::pair<int64_t, int64_t>> groups;
  std::vector<std::vector<int64_t>> group_hists;
  {
    std::vector<int64_t> cur_hist(num_values, 0);
    int64_t cur_lo = 0;
    for (int s = 0; s < shards; ++s) {
      const int64_t slab_hi = (s + 1) * n / shards;
      for (int64_t i = s * n / shards; i < slab_hi; ++i) {
        ++cur_hist[sa_pos[i]];
      }
      if (GroupFeasible(cur_hist, thresholds, slab_hi - cur_lo)) {
        groups.emplace_back(cur_lo, slab_hi);
        group_hists.push_back(cur_hist);
        std::fill(cur_hist.begin(), cur_hist.end(), 0);
        cur_lo = slab_hi;
      }
    }
    if (cur_lo < n) {
      while (!GroupFeasible(cur_hist, thresholds, n - cur_lo)) {
        BETALIKE_CHECK(!groups.empty())
            << "whole table infeasible under its own thresholds";
        const std::vector<int64_t>& prev = group_hists.back();
        for (int32_t v = 0; v < num_values; ++v) cur_hist[v] += prev[v];
        cur_lo = groups.back().first;
        groups.pop_back();
        group_hists.pop_back();
      }
      groups.emplace_back(cur_lo, n);
    }
  }
  profile->repair_seconds = section.ElapsedSeconds();
  profile->groups = static_cast<int>(groups.size());
  profile->merged_slabs = shards - static_cast<int>(groups.size());

  // Infeasibility floor: any nonempty class holds some value v, so its
  // size must reach count_v / threshold_v >= 1 / max threshold (and the
  // sweeps' floor of 1.0). A segment shorter than two floors cannot be
  // cut feasibly — curve or axis — so it is emitted as a leaf directly.
  double max_threshold = 0.0;
  for (size_t v = 0; v < freqs.size(); ++v) {
    if (freqs[v] > 0.0) {
      max_threshold = std::max(max_threshold, thresholds[v]);
    }
  }

  FormationRun run;
  run.schema = &schema;
  run.thresholds = &thresholds;
  run.min_cut_len = 2.0 * std::max(1.0, 1.0 / max_threshold);
  run.dims = dims;
  run.qcol.resize(dims);
  for (int d = 0; d < dims; ++d) run.qcol[d] = qi_pos[d].data();
  run.sa = sa_pos.data();
  run.sequence = sequence.data();

  // Per-group formation. Groups are disjoint segments of the mirror and
  // fork into disjoint subtrees, so tasks share no mutable state; the
  // combine concatenates leaf lists in group order, so the output
  // depends on (data, P) only, never on the thread count. A leaf's
  // segment is never touched again once emitted, so its member rows
  // are read back through `sequence` after the whole run.
  section.Restart();
  const int threads = ResolveFormationThreads(options.burel.num_threads);
  profile->threads = threads;
  const auto combine = [&](const Subtree& part) {
    out.leaves.insert(out.leaves.end(), part.leaves.begin(),
                      part.leaves.end());
    MergeFormationProfile(part.profile, profile);
  };
  if (threads <= 1) {
    for (const auto& [lo, hi] : groups) {
      combine(FormSubtree(run, nullptr, lo, hi, 0));
    }
  } else {
    ThreadPool pool(threads - 1);
    std::vector<std::future<Subtree>> tasks;
    tasks.reserve(groups.size());
    for (const auto& [lo, hi] : groups) {
      tasks.push_back(pool.Submit([&run, &pool, lo = lo, hi = hi] {
        return FormSubtree(run, &pool, lo, hi, 0);
      }));
    }
    for (std::future<Subtree>& task : tasks) {
      combine(pool.GetAndHelp(std::move(task)));
    }
  }
  profile->form_seconds = section.ElapsedSeconds();
  return out;
}

}  // namespace

Status ValidateShardedBurelOptions(const ShardedBurelOptions& options) {
  if (Status s = ValidateBurelOptions(options.burel); !s.ok()) return s;
  if (options.num_shards < 1) {
    return Status::InvalidArgument(
        StrFormat("num_shards = %d must be >= 1", options.num_shards));
  }
  return Status::Ok();
}

Result<GeneralizedTable> AnonymizeSharded(
    std::shared_ptr<const Table> table, const ShardedBurelOptions& options,
    ShardStats* stats) {
  if (table == nullptr) return Status::InvalidArgument("null table");
  ShardStats local;
  ShardStats* profile = stats != nullptr ? stats : &local;
  auto formed = RunSharded(*table, options, profile);
  if (!formed.ok()) return formed.status();
  const std::vector<int64_t>& sequence = formed->sequence;
  std::vector<std::vector<int64_t>> ecs;
  ecs.reserve(formed->leaves.size());
  for (const auto& [lo, hi] : formed->leaves) {
    ecs.emplace_back(sequence.data() + lo, sequence.data() + hi);
  }
  return GeneralizedTable::Create(std::move(table), std::move(ecs));
}

Result<ShardedPublication> AnonymizeSharded(
    const ChunkedTable& table, const ShardedBurelOptions& options,
    ShardStats* stats) {
  ShardStats local;
  ShardStats* profile = stats != nullptr ? stats : &local;
  auto formed = RunSharded(table, options, profile);
  if (!formed.ok()) return formed.status();
  // Boxes straight off the mirror: integer min/max over exactly the
  // member rows, so the ranges equal what GeneralizedTable::Create
  // computes by row access on a materialized Table.
  const std::vector<int64_t>& sequence = formed->sequence;
  const std::vector<std::vector<int32_t>>& qi_pos = formed->qi_pos;
  ShardedPublication out;
  out.schema = table.schema();
  out.num_rows = table.num_rows();
  const int dims = out.schema.num_qi();
  out.ecs.reserve(formed->leaves.size());
  for (const auto& [lo, hi] : formed->leaves) {
    EquivalenceClass ec;
    ec.rows.assign(sequence.data() + lo, sequence.data() + hi);
    ec.qi_min.resize(dims);
    ec.qi_max.resize(dims);
    for (int d = 0; d < dims; ++d) {
      int32_t mn = qi_pos[d][lo];
      int32_t mx = mn;
      for (int64_t i = lo + 1; i < hi; ++i) {
        mn = std::min(mn, qi_pos[d][i]);
        mx = std::max(mx, qi_pos[d][i]);
      }
      ec.qi_min[d] = mn;
      ec.qi_max[d] = mx;
    }
    out.ecs.push_back(std::move(ec));
  }
  return out;
}

}  // namespace betalike
