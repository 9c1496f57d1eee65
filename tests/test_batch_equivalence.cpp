// Bit-exactness of the batched SoA trial kernel against the scalar oracle.
//
// The scalar Scheduler path is the reference semantics; the BatchScheduler
// (lock-step SoA kernel, shared neighbor table, counter-based per-trial
// seeds) is pure throughput. These tests pin the contract at every layer:
//   - sim:      BatchScheduler vs Scheduler::run_scenario, same trials
//   - core:     run_trials_batched vs run_trials (all strategies)
//   - scenario: run_scenario_trials batched vs scalar (delays, k > 2, All)
//   - sweep:    the full registry-smoke grid, merged JSON byte-identical
// Aggregate comparisons use byte-level equality (memcmp / string ==), the
// same definition the determinism tests use.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "graph/generators.hpp"
#include "graph/id_space.hpp"
#include "scenario/run.hpp"
#include "sim/batch_scheduler.hpp"
#include "sweep/engine.hpp"
#include "sweep/spec.hpp"
#include "test_support.hpp"

namespace fnr {
namespace {

/// Deterministic heap-free agent exercising whiteboards, neighbor IDs, and
/// movement — behaviour depends only on the View, so scalar and batched
/// runs of the same trial must match exactly.
class SweepProbe final : public sim::Agent {
 public:
  sim::Action step(const sim::View& view) override {
    if (view.has_whiteboards()) (void)view.whiteboard();
    std::uint64_t pick = view.round() + view.here();
    if (view.has_neighborhood_ids())
      pick += view.neighbor_ids().front();  // exercise the shared table
    sim::Action action = sim::Action::move(pick % view.degree());
    if (view.has_whiteboards() && (view.round() & 3) == 0)
      action.whiteboard_write = view.here();
    return action;
  }
  [[nodiscard]] std::size_t memory_words() const override { return 1; }
};

void expect_same_scenario_run(const sim::ScenarioRunResult& x,
                              const sim::ScenarioRunResult& y) {
  EXPECT_EQ(x.met, y.met);
  EXPECT_EQ(x.meeting_round, y.meeting_round);
  EXPECT_EQ(x.meeting_vertex, y.meeting_vertex);
  EXPECT_EQ(x.meeting_agent_a, y.meeting_agent_a);
  EXPECT_EQ(x.meeting_agent_b, y.meeting_agent_b);
  EXPECT_EQ(x.rounds, y.rounds);
  EXPECT_EQ(x.whiteboard_reads, y.whiteboard_reads);
  EXPECT_EQ(x.whiteboard_writes, y.whiteboard_writes);
  EXPECT_EQ(x.whiteboards_used, y.whiteboards_used);
  ASSERT_EQ(x.agents.size(), y.agents.size());
  for (std::size_t i = 0; i < x.agents.size(); ++i) {
    EXPECT_EQ(x.agents[i].wake_delay, y.agents[i].wake_delay);
    EXPECT_EQ(x.agents[i].moves, y.agents[i].moves);
    EXPECT_EQ(x.agents[i].peak_memory_words, y.agents[i].peak_memory_words);
  }
}

TEST(BatchKernel, MatchesScalarSchedulerTrialByTrial) {
  Rng graph_rng(11, 17);
  const auto g = graph::make_near_regular(48, 6, graph_rng);

  // Three staged trials with different k-compatible placements, wake
  // delays, and caps — including one that times out and one that gathers.
  const std::vector<sim::ScenarioPlacement> placements = {
      {{0, 7, 21}, {0, 2, 5}},
      {{3, 40, 13}, {}},
      {{30, 1, 9}, {1, 0, 0}},
  };
  const std::vector<std::uint64_t> caps = {40, 400, 4};

  for (const auto gathering :
       {sim::Gathering::AnyPair, sim::Gathering::All}) {
    sim::BatchScheduler kernel(g, sim::Model::full());
    kernel.begin_batch(gathering);
    std::vector<std::unique_ptr<SweepProbe>> batch_agents;
    for (std::size_t t = 0; t < placements.size(); ++t) {
      std::vector<sim::Agent*> team;
      for (std::size_t i = 0; i < placements[t].num_agents(); ++i) {
        batch_agents.push_back(std::make_unique<SweepProbe>());
        team.push_back(batch_agents.back().get());
      }
      kernel.add_trial(team, placements[t], caps[t]);
    }
    const auto batched = kernel.run();
    ASSERT_EQ(batched.size(), placements.size());

    sim::Scheduler scalar(g, sim::Model::full());
    for (std::size_t t = 0; t < placements.size(); ++t) {
      std::vector<std::unique_ptr<SweepProbe>> agents;
      std::vector<sim::Agent*> team;
      for (std::size_t i = 0; i < placements[t].num_agents(); ++i) {
        agents.push_back(std::make_unique<SweepProbe>());
        team.push_back(agents.back().get());
      }
      const auto expected =
          scalar.run_scenario(team, placements[t], gathering, caps[t]);
      expect_same_scenario_run(batched[t], expected);
    }
  }
}

TEST(BatchKernel, SharedTableServesExactNeighborViews) {
  // A batched agent must observe the neighbor-ID sequence and ID index the
  // graph defines (same IDs, same port order).
  Rng graph_rng(23, 17);
  const auto g = graph::make_near_regular(32, 5, graph_rng);
  const sim::NeighborTable table(g);
  sim::Scheduler scalar(g, sim::Model::full());
  for (graph::VertexIndex v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    ASSERT_EQ(table.ids[v].size(), nbrs.size());
    for (std::size_t port = 0; port < nbrs.size(); ++port) {
      EXPECT_EQ(table.ids[v][port], g.id_of(nbrs[port]));
      ASSERT_LT(table.ids[v][port], table.index_by_id.size());
      EXPECT_EQ(table.index_by_id[table.ids[v][port]], nbrs[port]);
    }
  }
}

TEST(BatchTrials, CoreAggregatesAreBitIdenticalAcrossBatchSizes) {
  const auto g = test::dense_graph(96, 5);
  core::RendezvousOptions options;
  options.seed = 42;
  const runner::TrialRunner serial(runner::RunnerOptions{1});
  const runner::TrialRunner pooled(runner::RunnerOptions{3});

  for (const auto strategy :
       {core::Strategy::Whiteboard, core::Strategy::WhiteboardDoubling}) {
    const auto scalar =
        core::run_trials(strategy, g, options, 24, serial).aggregate();
    for (const std::uint64_t batch : {2u, 7u, 24u, 64u}) {
      const auto batched =
          core::run_trials_batched(strategy, g, options, 24, serial, batch)
              .aggregate();
      EXPECT_TRUE(test::bits_equal(scalar, batched))
          << to_string(strategy) << " diverged at batch=" << batch;
      // And across thread counts, same as the scalar determinism contract.
      const auto threaded =
          core::run_trials_batched(strategy, g, options, 24, pooled, batch)
              .aggregate();
      EXPECT_TRUE(test::bits_equal(scalar, threaded))
          << to_string(strategy) << " diverged at batch=" << batch
          << " with 3 threads";
    }
  }
}

TEST(BatchTrials, NoWhiteboardStrategyMatchesToo) {
  Rng rng(7, 17);
  const auto g = graph::make_near_regular(64, 20, rng);  // tight naming
  core::RendezvousOptions options;
  options.seed = 5;
  const runner::TrialRunner serial(runner::RunnerOptions{1});
  const auto scalar =
      core::run_trials(core::Strategy::NoWhiteboard, g, options, 12, serial)
          .aggregate();
  const auto batched =
      core::run_trials_batched(core::Strategy::NoWhiteboard, g, options, 12,
                               serial, 5)
          .aggregate();
  EXPECT_TRUE(test::bits_equal(scalar, batched));
}

TEST(BatchTrials, ScenarioLayerMatchesWithDelaysAndCrowds) {
  Rng rng(19, 17);
  const auto g = graph::make_near_regular(72, 24, rng);
  const scenario::Program program = scenario::find_program("whiteboard");
  scenario::Scenario crowd;
  crowd.name = "crowd";
  crowd.num_agents = 4;
  crowd.placement = scenario::PlacementModel::NeighborhoodCluster;
  crowd.delay = scenario::DelayModel::RandomUniform;
  crowd.max_delay = 9;
  crowd.gathering = sim::Gathering::AnyPair;

  scenario::ScenarioOptions options;
  options.seed = 1234;
  const runner::TrialRunner serial(runner::RunnerOptions{1});
  const auto scalar =
      run_scenario_trials(crowd, program, g, options, 10, serial).aggregate();
  for (const std::uint64_t batch : {3u, 10u, 32u}) {
    const auto batched =
        run_scenario_trials(crowd, program, g, options, 10, serial, batch)
            .aggregate();
    EXPECT_TRUE(test::bits_equal(scalar, batched))
        << "scenario batch=" << batch << " diverged";
  }
}

TEST(BatchSweep, RegistrySmokeGridIsByteIdenticalThroughBothPaths) {
  // The acceptance gate of the batched kernel: the full registry-smoke
  // grid (every registered program on every compatible scenario) merged
  // through the scalar path and through the batched path must serialize
  // to byte-identical JSON.
  const auto spec = sweep::find_spec("registry-smoke");
  sweep::SweepOptions scalar_options;
  scalar_options.threads = 2;
  const auto scalar = sweep::run_sweep(spec, scalar_options);
  ASSERT_TRUE(scalar.complete);

  sweep::SweepOptions batched_options = scalar_options;
  batched_options.threads = 1;  // also crosses thread counts
  batched_options.batch = 16;
  const auto batched = sweep::run_sweep(spec, batched_options);
  ASSERT_TRUE(batched.complete);

  EXPECT_EQ(sweep::to_json(spec, scalar.cells),
            sweep::to_json(spec, batched.cells));
}

}  // namespace
}  // namespace fnr
