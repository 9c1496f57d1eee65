// The cell executor: a worker pool that runs a campaign's cells
// *concurrently* while every observable artifact stays byte-identical to a
// sequential run.
//
// Why. BENCH_perf.json spans ~2600× between the cheapest and the most
// expensive cell, so intra-cell trial threading alone leaves most cores
// idle on the long tail of small cells: a campaign's wall-clock is the sum
// of its cells. The executor makes it the max of its critical path
// instead: `jobs` workers pull cells off a shared queue, and a huge cell
// is additionally split into contiguous trial shards that run on several
// workers at once and merge through TrialAccumulator (whose aggregate is
// canonicalized by trial index, so shard boundaries are invisible).
//
// Scheduling. The queue is seeded in longest-processing-time order by a
// cost model: an a-priori weight from the cell's shape (trials × n ×
// agent count × a family factor for neighborhood-scan-heavy topologies),
// refined online by per-(program, family) seconds-per-weight rates
// observed from completed cells — so the second near-regular cell is
// scheduled with a measured cost, not a guess. Workers "steal" by popping
// the currently-most-expensive remaining unit under the queue lock; idle
// workers naturally drain a split cell's tail shards.
//
// Determinism (the headline contract). Completion order is timing-
// dependent; emission order is not. Finished results are staged in a
// reorder buffer and emit() fires on the *calling* thread, strictly in
// canonical grid order, only for the contiguous prefix of finished cells —
// so checkpoint lines, per-cell callbacks, fnrd replay frames, and merged
// JSON are byte-identical between --jobs=1 and --jobs=4, and a kill -9
// mid-parallel-run resumes cleanly (the flush boundary is unchanged).
// When the run stops early (cancel / max_cells), results stuck behind an
// unfinished cell are discarded rather than flushed out of order; they
// re-run on resume.
//
// jobs == 1 runs inline on the calling thread (no pool, no staging
// latency) and is the reference the parallel path is pinned against.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>

#include "campaign/campaign.hpp"
#include "sweep/spec.hpp"

namespace fnr::campaign {

struct ExecutorOptions {
  /// Worker-pool size (concurrent cells); 1 = inline, 0 = hardware threads.
  unsigned jobs = 1;
  /// Trial-runner pool *inside* one cell/shard. 0 = hardware threads at
  /// jobs == 1, but 1 at jobs > 1 (cell-parallel runs default to one
  /// trial thread per worker; anything else multiplies the two pools).
  unsigned trial_threads = 0;
  /// Lock-step SoA batch size handed to each cell (0/1 = scalar path).
  std::uint64_t batch = 0;
  /// Split threshold: a cell with >= 2 × this many trials may shard.
  std::uint64_t min_shard_trials = 32;
  /// Run only the first N cells of the batch (0 = no limit). Restricting
  /// the *schedulable set* — rather than counting starts in completion
  /// order — keeps the executed set identical to the sequential path at
  /// any jobs count, and means a paused campaign never discards work.
  std::uint64_t max_cells = 0;
  std::size_t graph_cache_capacity = 12;
};

/// The worker-pool size a `jobs` option means: itself, or the hardware
/// thread count (at least 1) for 0.
[[nodiscard]] unsigned resolve_jobs(unsigned jobs);

/// Telemetry of one CellExecutor::run (feeds CampaignRun).
struct ExecutorStats {
  std::uint64_t executed = 0;   ///< cells completed *and* emitted
  std::uint64_t discarded = 0;  ///< completed but blocked at stop — re-run
  std::uint64_t split_cells = 0;
  std::uint64_t shards = 0;  ///< work units executed (1 per unsplit cell)
  std::uint64_t total_rounds = 0;  ///< summed over emitted cells
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
};

/// Cost model behind the LPT seeding: estimate() ranks cells by expected
/// seconds, observe() refines per-(program label, topology family) rates
/// from completed cells. Thread-safe; estimates only need to be *relatively*
/// right — a misranked cell costs idle time, never correctness.
class CellCostModel {
 public:
  /// A-priori shape weight: trials × achieved_n × agents, scaled for
  /// neighborhood-scan-heavy families (near-regular, random-geometric).
  [[nodiscard]] static double weight(const sweep::SweepCell& cell);

  /// Expected seconds (arbitrary unit before the first observation).
  /// Unobserved (program, family) pairs rank by raw weight above every
  /// observed rate — explore unknown cost first, exactly what LPT wants.
  [[nodiscard]] double estimate(const sweep::SweepCell& cell) const;

  /// Folds a completed cell's wall-clock into its (program, family) rate.
  void observe(const sweep::SweepCell& cell, double seconds);

 private:
  mutable std::mutex mutex_;
  std::map<std::string, double> rate_;  ///< EMA seconds-per-weight
};

/// Runs one batch of cells. Construct per campaign run; run() is callable
/// once. The executor owns its graph cache and cost model.
class CellExecutor {
 public:
  explicit CellExecutor(ExecutorOptions options);

  /// Executes `cells` (must be in canonical grid order). emit() fires on
  /// the calling thread, in exactly the given order, for the contiguous
  /// prefix of cells that finished before the run stopped; the result is
  /// moved in. `cancel` is polled at unit boundaries. Rethrows the first
  /// non-CheckError worker exception after the pool drains (CheckErrors
  /// become ok = false results, as in a sequential run).
  ExecutorStats run(const std::vector<sweep::SweepCell>& cells,
                    const std::function<void(CellResult&&)>& emit,
                    const std::atomic<bool>& cancel);

 private:
  ExecutorOptions options_;
};

}  // namespace fnr::campaign
