#include "campaign/executor.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <optional>
#include <thread>
#include <vector>

#include "runner/trial_runner.hpp"
#include "scenario/run.hpp"
#include "scenario/scenario.hpp"

namespace fnr::campaign {

using sweep::SweepCell;

// --- cost model --------------------------------------------------------------

namespace {

/// Observed rates are keyed per (program label, topology family): the
/// program dominates the per-round constant, the family the per-round
/// neighborhood work, and everything else (n, trials, k) is what weight()
/// already scales by.
std::string rate_key(const SweepCell& cell) {
  return scenario::to_string(cell.program) + "|" + cell.topology.family;
}

}  // namespace

double CellCostModel::weight(const SweepCell& cell) {
  const double n =
      static_cast<double>(cell.achieved_n > 0 ? cell.achieved_n : cell.n);
  double agents = 2.0;
  if (cell.k.has_value()) {
    agents = static_cast<double>(*cell.k);
  } else {
    try {
      agents = static_cast<double>(
          scenario::find_scenario(cell.scenario).num_agents);
    } catch (const CheckError&) {
      // Unknown scenario: the cell will fail deterministically anyway;
      // any finite weight does.
    }
  }
  // Neighborhood-scan families cost far more per round than constant-
  // degree walks (BENCH_perf.json spans ~300-500× between near-regular
  // and torus at equal n) — a crude factor is enough for seeding, and
  // observe() replaces it with measured rates after the first completion.
  double family = 1.0;
  if (cell.topology.family == "near-regular") family = 30.0;
  else if (cell.topology.family == "random-geometric") family = 4.0;
  return std::max(1.0, static_cast<double>(cell.trials)) *
         std::max(4.0, n) * std::max(1.0, agents) * family;
}

double CellCostModel::estimate(const SweepCell& cell) const {
  const double w = weight(cell);
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = rate_.find(rate_key(cell));
  // Unobserved pairs return the raw weight — orders of magnitude above
  // any realistic seconds-per-weight rate, so unknown-cost cells are
  // pulled first and the model learns their rate as early as possible.
  if (it == rate_.end()) return w;
  return w * it->second;
}

void CellCostModel::observe(const SweepCell& cell, double seconds) {
  const double rate = std::max(seconds, 1e-9) / weight(cell);
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = rate_.try_emplace(rate_key(cell), rate);
  if (!inserted) it->second = 0.5 * it->second + 0.5 * rate;
}

// --- executor ----------------------------------------------------------------

namespace {

/// One schedulable unit: a contiguous trial span of one cell (the whole
/// cell when unsplit).
struct Unit {
  std::size_t slot = 0;  ///< index into the input cell vector
  std::uint64_t first = 0;
  std::uint64_t count = 0;
  std::uint64_t shard = 0;  ///< shard index within the cell
};

/// Shared per-cell completion state. Shard workers write disjoint slots
/// of accs/errors; the final fetch_sub(acq_rel) hands the merge to the
/// last finisher with all writes visible.
struct CellState {
  std::atomic<std::uint64_t> remaining{0};
  std::vector<runner::TrialAccumulator> accs;
  std::vector<std::string> errors;  ///< per shard; empty = shard ok
  std::chrono::steady_clock::time_point start{};
  bool started = false;  ///< guarded by the queue mutex
  std::uint64_t shard_count = 1;
};

/// Runs trials [first, first+count) of `cell` into `acc`. Returns the
/// CheckError text on a deterministic cell failure (empty = ok) — the
/// same catch boundary the sequential path has always had, so a cell
/// that cannot run is a recorded result, not a dead campaign.
std::string run_cell_span(const SweepCell& cell, GraphCache& cache,
                          const runner::TrialRunner& trial_runner,
                          std::uint64_t batch, std::uint64_t first,
                          std::uint64_t count,
                          runner::TrialAccumulator* acc) {
  try {
    const std::shared_ptr<const graph::Graph> g = cache.get_shared(cell);
    scenario::Scenario scen = scenario::find_scenario(cell.scenario);
    // Axis overrides run the registered scenario with fields swapped
    // (expand() already pruned overrides the scenario cannot host): the
    // `agents` axis replaces k, the `gathers` axis the predicate.
    if (cell.k.has_value()) scen.num_agents = *cell.k;
    if (cell.gather.has_value()) scen.gathering = *cell.gather;
    scenario::ScenarioOptions options;
    options.seed = cell.seed;
    options.fault = cell.fault;
    *acc = scenario::run_scenario_trial_span(scen, cell.program, *g, options,
                                             first, count, trial_runner,
                                             batch);
    return {};
  } catch (const CheckError& error) {
    std::string text = error.what();
    if (text.empty()) text = "CheckError";
    return text;
  }
}

/// Assembles the finished cell's result from its shard accumulators.
/// Shard boundaries are invisible: merge() is multiset-associative and
/// aggregate() canonicalizes by trial index, so the bytes equal an
/// unsharded run's.
CellResult assemble(const SweepCell& cell, CellState& state) {
  CellResult result;
  result.cell = cell;
  for (const std::string& error : state.errors) {
    if (!error.empty()) {
      // Deterministic failures throw identically in every shard; take the
      // lowest shard's text, which is what a sequential run would record.
      result.ok = false;
      result.error = error;
      break;
    }
  }
  if (result.ok) {
    runner::TrialAccumulator merged;
    for (const auto& acc : state.accs) merged.merge(acc);
    for (const auto& out : merged.sorted_outcomes())
      result.total_rounds += out.rounds;
    result.agg_json = merged.aggregate().to_json();
  }
  result.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - state.start)
                       .count();
  return result;
}

}  // namespace

unsigned resolve_jobs(unsigned jobs) {
  return jobs != 0 ? jobs : std::max(1u, std::thread::hardware_concurrency());
}

CellExecutor::CellExecutor(ExecutorOptions options)
    : options_(std::move(options)) {}

ExecutorStats CellExecutor::run(const std::vector<SweepCell>& cells,
                                const std::function<void(CellResult&&)>& emit,
                                const std::atomic<bool>& cancel) {
  ExecutorStats stats;
  GraphCache cache(options_.graph_cache_capacity);

  const unsigned jobs = resolve_jobs(options_.jobs);

  // --- jobs == 1: inline on the calling thread — the reference path the
  // parallel one is pinned against (no pool, no staging, no split cells).
  if (jobs == 1) {
    const runner::TrialRunner trial_runner(
        runner::RunnerOptions{options_.trial_threads});
    CellCostModel model;  // observed for symmetry; nothing to schedule
    for (const SweepCell& cell : cells) {
      if (cancel.load(std::memory_order_relaxed)) break;
      if (options_.max_cells > 0 && stats.executed >= options_.max_cells)
        break;
      const auto start = std::chrono::steady_clock::now();
      CellResult result;
      result.cell = cell;
      runner::TrialAccumulator acc;
      result.error = run_cell_span(cell, cache, trial_runner, options_.batch,
                                   0, cell.trials, &acc);
      if (result.error.empty()) {
        for (const auto& out : acc.sorted_outcomes())
          result.total_rounds += out.rounds;
        result.agg_json = acc.aggregate().to_json();
      } else {
        result.ok = false;
      }
      result.seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
      model.observe(cell, result.seconds);
      stats.total_rounds += result.total_rounds;
      ++stats.shards;
      ++stats.executed;
      emit(std::move(result));
    }
    stats.cache_hits = cache.hits();
    stats.cache_misses = cache.misses();
    stats.cache_evictions = cache.evictions();
    return stats;
  }

  // --- parallel path ---------------------------------------------------------

  // Cell-parallel runs default to one trial thread per worker: the worker
  // pool is the parallelism. An explicit trial_threads multiplies the two
  // pools (deliberate oversubscription — see docs/PERFORMANCE.md).
  const unsigned trial_threads =
      options_.trial_threads == 0 ? 1 : options_.trial_threads;
  const runner::TrialRunner trial_runner(
      runner::RunnerOptions{trial_threads});
  CellCostModel model;

  // max_cells restricts the *schedulable set* to the first N pending
  // cells — not started-cell count in completion order. The started set is
  // then a canonical prefix, so every cell that runs also flushes, the
  // executed set matches the sequential path exactly, and a paused
  // parallel campaign never burns work on cells it must discard.
  const std::size_t limit =
      options_.max_cells > 0
          ? static_cast<std::size_t>(std::min<std::uint64_t>(
                options_.max_cells, cells.size()))
          : cells.size();

  // Build the unit list: one unit per cell, or several contiguous trial
  // shards for cells big enough to split (>= 2 × min_shard_trials, at most
  // one shard per worker, never below min_shard_trials per shard).
  std::vector<CellState> states(cells.size());
  std::vector<Unit> queue;
  for (std::size_t slot = 0; slot < limit; ++slot) {
    const SweepCell& cell = cells[slot];
    std::uint64_t shards = 1;
    if (options_.min_shard_trials > 0 &&
        cell.trials >= 2 * options_.min_shard_trials)
      shards = std::min<std::uint64_t>(
          jobs, cell.trials / options_.min_shard_trials);
    CellState& state = states[slot];
    state.shard_count = shards;
    state.remaining.store(shards, std::memory_order_relaxed);
    state.accs.resize(shards);
    state.errors.resize(shards);
    if (shards > 1) ++stats.split_cells;
    const std::uint64_t base = cell.trials / shards;
    const std::uint64_t rem = cell.trials % shards;
    std::uint64_t first = 0;
    for (std::uint64_t s = 0; s < shards; ++s) {
      const std::uint64_t count = base + (s < rem ? 1 : 0);
      queue.push_back(Unit{slot, first, count, s});
      first += count;
    }
  }

  // Shared scheduling + staging state. The queue mutex serializes pops
  // (each pop scans remaining units for the most expensive — LPT with
  // online-refined estimates); the stage mutex hands finished results to
  // the calling thread, which alone runs emit() in canonical slot order.
  std::mutex queue_mutex;
  std::atomic<bool> stop{false};

  std::mutex stage_mutex;
  std::condition_variable stage_cv;
  std::vector<std::optional<CellResult>> staged(cells.size());
  unsigned active_workers = 0;
  std::exception_ptr worker_error;

  auto pop_unit = [&]() -> std::optional<Unit> {
    if (stop.load(std::memory_order_relaxed) ||
        cancel.load(std::memory_order_relaxed))
      return std::nullopt;
    std::lock_guard<std::mutex> lock(queue_mutex);
    std::size_t best = queue.size();
    double best_estimate = -1.0;
    for (std::size_t i = 0; i < queue.size(); ++i) {
      const Unit& unit = queue[i];
      const double estimate = model.estimate(cells[unit.slot]);
      if (best == queue.size() || estimate > best_estimate) {
        best = i;
        best_estimate = estimate;
        continue;
      }
      if (estimate == best_estimate) {
        // Deterministic tie-break: prefer the graph the pool is likely
        // still holding, then canonical order.
        const Unit& incumbent = queue[best];
        const auto unit_key = std::make_tuple(
            cells[unit.slot].graph_key(), cells[unit.slot].index, unit.shard);
        const auto best_key =
            std::make_tuple(cells[incumbent.slot].graph_key(),
                            cells[incumbent.slot].index, incumbent.shard);
        if (unit_key < best_key) best = i;
      }
    }
    if (best == queue.size()) return std::nullopt;
    Unit unit = queue[best];
    queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(best));
    CellState& state = states[unit.slot];
    if (!state.started) {
      state.started = true;
      state.start = std::chrono::steady_clock::now();
    }
    return unit;
  };

  auto worker = [&]() {
    try {
      for (;;) {
        const std::optional<Unit> unit = pop_unit();
        if (!unit.has_value()) break;
        const SweepCell& cell = cells[unit->slot];
        CellState& state = states[unit->slot];
        state.errors[unit->shard] =
            run_cell_span(cell, cache, trial_runner, options_.batch,
                          unit->first, unit->count, &state.accs[unit->shard]);
        if (state.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          // Last shard standing: merge, measure, stage for the flusher.
          CellResult result = assemble(cell, state);
          model.observe(cell, result.seconds);
          {
            std::lock_guard<std::mutex> lock(stage_mutex);
            staged[unit->slot] = std::move(result);
          }
          stage_cv.notify_all();
        }
        {
          std::lock_guard<std::mutex> lock(stage_mutex);
          ++stats.shards;
        }
      }
    } catch (...) {
      // Non-CheckError escapes (CheckErrors became results above): record
      // the first, stop the pool, and let the flusher unwind.
      std::lock_guard<std::mutex> lock(stage_mutex);
      if (!worker_error) worker_error = std::current_exception();
      stop.store(true, std::memory_order_relaxed);
    }
    {
      std::lock_guard<std::mutex> lock(stage_mutex);
      --active_workers;
    }
    stage_cv.notify_all();
  };

  const unsigned worker_count =
      static_cast<unsigned>(std::min<std::size_t>(jobs, queue.size()));
  std::vector<std::thread> pool;
  pool.reserve(worker_count);
  {
    std::lock_guard<std::mutex> lock(stage_mutex);
    active_workers = worker_count;
  }
  for (unsigned w = 0; w < worker_count; ++w) pool.emplace_back(worker);

  // The reorder buffer's flush loop: emit the contiguous canonical prefix
  // as it completes, on this thread only. An emit() failure (e.g. a full
  // disk under the checkpoint writer) stops the pool and rethrows after
  // the workers drain.
  std::size_t next = 0;
  std::exception_ptr emit_error;
  {
    std::unique_lock<std::mutex> lock(stage_mutex);
    for (;;) {
      stage_cv.wait(lock, [&] {
        return active_workers == 0 ||
               (next < staged.size() && staged[next].has_value());
      });
      while (next < staged.size() && staged[next].has_value()) {
        CellResult result = std::move(*staged[next]);
        staged[next].reset();
        ++next;
        lock.unlock();
        try {
          stats.total_rounds += result.total_rounds;
          ++stats.executed;
          emit(std::move(result));
        } catch (...) {
          emit_error = std::current_exception();
          stop.store(true, std::memory_order_relaxed);
        }
        lock.lock();
        if (emit_error) break;
      }
      if (emit_error) break;
      if (active_workers == 0 &&
          !(next < staged.size() && staged[next].has_value()))
        break;
    }
    // On an emit failure, wait out the pool under the predicate (workers
    // may still be staging).
    if (emit_error)
      stage_cv.wait(lock, [&] { return active_workers == 0; });
  }
  for (std::thread& thread : pool) thread.join();
  if (emit_error) std::rethrow_exception(emit_error);
  if (worker_error) std::rethrow_exception(worker_error);

  for (std::size_t i = next; i < staged.size(); ++i)
    if (staged[i].has_value()) ++stats.discarded;
  stats.cache_hits = cache.hits();
  stats.cache_misses = cache.misses();
  stats.cache_evictions = cache.evictions();
  return stats;
}

}  // namespace fnr::campaign
