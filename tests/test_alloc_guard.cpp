// Allocation-count guard for the scheduler hot path.
//
// The whole binary's global operator new/delete are replaced with counting
// versions; tests snapshot the counter around a scheduler run and assert
// the arena invariants of docs/PERFORMANCE.md:
//   1. Scheduler::run (the k=2 fast path) performs ZERO heap allocations
//      once the arena is warm.
//   2. run_scenario's per-ROUND loop is allocation-free: a 64x-longer run
//      allocates exactly as much as a short one (only the per-run result).
//   3. Building a NeighborTable allocates a constant number of flat arrays,
//      whatever the vertex count (no per-vertex rows).
//   4. An explore-rally walk allocates a constant number of times, whatever
//      the vertex count (no per-vertex map nodes or row copies).
// Plus bit-exactness regressions for arena reuse (a reused scheduler must
// reproduce a fresh scheduler's run exactly, including after a k-downsize).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "baselines/gather.hpp"
#include "fault/fault.hpp"
#include "graph/generators.hpp"
#include "sim/neighbor_table.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

std::uint64_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace fnr {
namespace {

/// Heap-free agent that exercises every hot-path observation: whiteboard
/// read + periodic write, neighbor IDs, arrival port, and movement.
class ProbeAgent final : public sim::Agent {
 public:
  sim::Action step(const sim::View& view) override {
    if (view.has_whiteboards()) (void)view.whiteboard();
    if (view.has_neighborhood_ids()) (void)view.neighbor_ids();
    (void)view.arrival_port();
    sim::Action action = sim::Action::move(view.round() % view.degree());
    if (view.has_whiteboards() && (view.round() & 7) == 0)
      action.whiteboard_write = view.here();
    return action;
  }
  [[nodiscard]] std::size_t memory_words() const override { return 2; }
};

/// Heap-free agent that stays put and writes its board every round; with
/// distinct starts a team of these never gathers, which pins the round
/// count of a scenario run to its cap exactly.
class CampingScribe final : public sim::Agent {
 public:
  sim::Action step(const sim::View& view) override {
    if (view.has_neighborhood_ids()) (void)view.neighbor_ids();
    sim::Action action = sim::Action::stay();
    if (view.has_whiteboards()) action.whiteboard_write = view.round();
    return action;
  }
};

graph::Graph guard_graph() {
  Rng rng(5, 17);
  return graph::make_near_regular(64, 8, rng);
}

TEST(AllocGuard, PairFastPathAllocatesNothingAfterWarmup) {
  const auto g = guard_graph();
  sim::Scheduler scheduler(g, sim::Model::full());

  {
    ProbeAgent a, b;
    const auto cold = allocation_count();
    (void)scheduler.run(a, b, {0, 1}, 512);  // warm-up fills the arena
    // Self-check that the counting operator new is actually linked in:
    // the cold run must allocate (arena growth, cache reservations).
    ASSERT_GT(allocation_count(), cold);
  }

  ProbeAgent a, b;  // constructed before the counted region
  const auto before = allocation_count();
  const auto result = scheduler.run(a, b, {0, 1}, 512);
  const auto after = allocation_count();

  EXPECT_EQ(after - before, 0u)
      << "Scheduler::run heap-allocated on a warm arena";
  EXPECT_GT(result.metrics.rounds, 0u);
  EXPECT_GT(result.metrics.whiteboard_reads, 0u);
}

TEST(AllocGuard, ScenarioRoundLoopIsAllocationFree) {
  const auto g = guard_graph();
  sim::Scheduler scheduler(g, sim::Model::full());

  sim::ScenarioPlacement placement;
  placement.starts = {0, 7, 21};

  const auto count_run = [&](std::uint64_t cap) {
    CampingScribe agents[3];
    const std::vector<sim::Agent*> team = {&agents[0], &agents[1],
                                           &agents[2]};
    const auto before = allocation_count();
    const auto result =
        scheduler.run_scenario(team, placement, sim::Gathering::AnyPair, cap);
    const auto after = allocation_count();
    EXPECT_FALSE(result.met);  // campers never co-locate
    EXPECT_EQ(result.rounds, cap);
    return after - before;
  };

  (void)count_run(8);  // warm-up
  const auto short_run = count_run(64);
  const auto long_run = count_run(4096);
  // Per-run cost (the result's agent vector) is allowed; per-round cost is
  // not: 64x the rounds must allocate exactly the same number of times.
  EXPECT_EQ(short_run, long_run)
      << "run_scenario's round loop heap-allocates per round";
}

TEST(AllocGuard, FaultLayerLeavesTheDisarmedHotPathAllocationFree) {
  // The fault hooks must be zero-cost when inactive: after a *faulty*
  // scenario dirtied the arena, a scheduler with the session cleared must
  // run the round loop without a single heap allocation — and produce the
  // exact metrics of a scheduler that never saw a fault session at all.
  const auto g = guard_graph();
  sim::Scheduler scheduler(g, sim::Model::full());

  sim::ScenarioPlacement placement;
  placement.starts = {0, 7, 21};
  const auto scribes_run = [&](sim::Scheduler& s, std::uint64_t cap) {
    CampingScribe agents[3];
    const std::vector<sim::Agent*> team = {&agents[0], &agents[1],
                                           &agents[2]};
    return s.run_scenario(team, placement, sim::Gathering::AnyPair, cap);
  };

  // Dirty the arena with an active session (stationary scribes tolerate
  // crashes of nobody: arm only whiteboard faults, which need no reviver).
  auto plan = fault::FaultPlan::parse("wb-drop?rate=0.5+wb-wipe?rate=0.25");
  fault::FaultSession session(plan, Rng(9, 21));
  scheduler.set_fault_session(&session);
  const auto faulty = scribes_run(scheduler, 64);
  scheduler.set_fault_session(nullptr);
  ASSERT_GT(faulty.faults.writes_dropped, 0u);

  (void)scribes_run(scheduler, 8);  // disarmed warm-up
  const auto counted = [&](std::uint64_t cap) {
    CampingScribe agents[3];
    const std::vector<sim::Agent*> team = {&agents[0], &agents[1],
                                           &agents[2]};
    const auto before = allocation_count();
    const auto result =
        scheduler.run_scenario(team, placement, sim::Gathering::AnyPair, cap);
    const auto after = allocation_count();
    EXPECT_FALSE(result.faults.any()) << "session leaked into a later run";
    return after - before;
  };
  EXPECT_EQ(counted(64), counted(4096))
      << "disarmed fault hooks heap-allocate per round";

  // And the disarmed scheduler's runs are indistinguishable from a
  // scheduler that never had a session installed.
  sim::Scheduler untouched(g, sim::Model::full());
  const auto ours = scribes_run(scheduler, 256);
  const auto theirs = scribes_run(untouched, 256);
  EXPECT_EQ(ours.rounds, theirs.rounds);
  EXPECT_EQ(ours.whiteboard_reads, theirs.whiteboard_reads);
  EXPECT_EQ(ours.whiteboard_writes, theirs.whiteboard_writes);
  EXPECT_EQ(ours.whiteboards_used, theirs.whiteboards_used);
  EXPECT_FALSE(ours.faults.any());
}

void expect_same_run(const sim::RunResult& x, const sim::RunResult& y) {
  EXPECT_EQ(x.met, y.met);
  EXPECT_EQ(x.meeting_round, y.meeting_round);
  EXPECT_EQ(x.meeting_vertex, y.meeting_vertex);
  EXPECT_EQ(x.metrics.rounds, y.metrics.rounds);
  EXPECT_EQ(x.metrics.moves, y.metrics.moves);
  EXPECT_EQ(x.metrics.whiteboard_reads, y.metrics.whiteboard_reads);
  EXPECT_EQ(x.metrics.whiteboard_writes, y.metrics.whiteboard_writes);
  EXPECT_EQ(x.metrics.whiteboards_used, y.metrics.whiteboards_used);
}

TEST(SchedulerArena, ReusedArenaIsBitExact) {
  const auto g = guard_graph();
  const auto run_probe = [&](sim::Scheduler& scheduler) {
    ProbeAgent a, b;
    return scheduler.run(a, b, {3, 40}, 777);
  };

  sim::Scheduler fresh(g, sim::Model::full());
  sim::Scheduler reused(g, sim::Model::full());
  const auto expected = run_probe(fresh);
  (void)run_probe(reused);  // dirty the arena and the whiteboards
  expect_same_run(run_probe(reused), expected);
}

TEST(SchedulerArena, DownsizedAgentCountIsBitExact) {
  // A k=3 scenario followed by a k=2 run on the same scheduler must not
  // leak the third agent's stale state into the gathering predicate.
  const auto g = guard_graph();
  sim::Scheduler scheduler(g, sim::Model::full());

  sim::ScenarioPlacement trio;
  trio.starts = {0, 7, 21};
  CampingScribe campers[3];
  (void)scheduler.run_scenario({&campers[0], &campers[1], &campers[2]}, trio,
                               sim::Gathering::AnyPair, 32);

  sim::Scheduler fresh(g, sim::Model::full());
  const auto run_pair = [](sim::Scheduler& scheduler_ref) {
    ProbeAgent a, b;
    return scheduler_ref.run(a, b, {3, 40}, 777);
  };
  expect_same_run(run_pair(scheduler), run_pair(fresh));
}

TEST(SchedulerArena, ScratchRebuildsOnlyOnGraphOrModelChange) {
  const auto g = guard_graph();
  const auto h = guard_graph();
  sim::SchedulerScratch scratch;
  sim::Scheduler& first = scratch.scheduler_for(g, sim::Model::full());
  EXPECT_EQ(&first, &scratch.scheduler_for(g, sim::Model::full()));
  sim::Scheduler& no_wb =
      scratch.scheduler_for(g, sim::Model::no_whiteboards());
  EXPECT_FALSE(no_wb.model().whiteboards);
  sim::Scheduler& other = scratch.scheduler_for(h, sim::Model::full());
  EXPECT_EQ(&other.graph(), &h);
}

TEST(AllocGuard, NeighborTableBuildAllocatesAConstantNumberOfArrays) {
  // Allocations of one table build, not counting the n² pair table, which
  // only graphs of at most 2048 vertices get. The rest is ids, rev,
  // index_by_id and the build cursor at any n; a table with one row vector
  // per vertex would count thousands here.
  const auto build_allocations = [](std::size_t n) {
    Rng rng(5, 17);
    const auto g = graph::make_near_regular(n, 8, rng);
    const auto before = allocation_count();
    const sim::NeighborTable table(g);
    const auto allocations = allocation_count() - before;
    return allocations - (table.port_by_pair.empty() ? 0 : 1);
  };
  const auto small = build_allocations(1024);
  const auto large = build_allocations(16384);
  EXPECT_EQ(small, large);
  EXPECT_LE(large, 4u);
}

TEST(AllocGuard, ExploreRallyAllocatesAConstantNumberOfTimes) {
  // One explore-rally walk sizes its learned map once, from the n the
  // model grants, and borrows neighbor rows from the scheduler's table, so
  // its allocation count does not grow with n. A map with a vector or a
  // hash node per vertex would count thousands more at the larger size.
  const auto walk_allocations = [](std::size_t n) {
    Rng rng(5, 17);
    const auto g = graph::make_near_regular(n, 16, rng);
    sim::Scheduler scheduler(g, sim::Model::full());
    baselines::GatherAtMinAgent agent;
    const auto before = allocation_count();
    (void)scheduler.run_single(agent, 1, 8 * n);
    const auto allocations = allocation_count() - before;
    EXPECT_TRUE(agent.arrived()) << "n = " << n;
    EXPECT_EQ(agent.visited_count(), n);
    return allocations;
  };
  // The only size-dependent allocations are the rally route's: the hop
  // list and the plan it fills grow by doubling with the route's length,
  // which is at most the diameter (small on both graphs).
  constexpr std::uint64_t kRallySlack = 4;
  const auto small = walk_allocations(1024);
  const auto large = walk_allocations(16384);
  EXPECT_LE(small, large + kRallySlack);
  EXPECT_LE(large, small + kRallySlack);
}

}  // namespace
}  // namespace fnr
