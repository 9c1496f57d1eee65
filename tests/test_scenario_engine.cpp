// The scenario engine: k-agent runs, wake delays, gathering predicates, the
// scenario registry, and the invariant the whole refactor hangs on — a
// k = 2, zero-delay scenario is bit-for-bit the classic synchronous
// two-agent scheduler.
#include <gtest/gtest.h>

#include "baselines/gather.hpp"
#include "baselines/wait_and_sweep.hpp"
#include "graph/analysis.hpp"
#include "graph/builder.hpp"
#include "scenario/run.hpp"
#include "test_support.hpp"

namespace fnr {
namespace {

using test::bits_equal;

/// Walks back and forth through port 0 forever.
class PacingAgent final : public sim::Agent {
 public:
  sim::Action step(const sim::View&) override { return sim::Action::move(0); }
};

graph::Graph two_path() {
  graph::GraphBuilder builder(2);
  builder.add_edge(0, 1);
  return std::move(builder).build_identity_ids();
}

TEST(ScenarioEngine, ZeroDelayPairMatchesClassicRun) {
  // Deterministic agents, identical placements: the scenario engine's k=2,
  // zero-delay projection must equal Scheduler::run field for field.
  const auto g = test::dense_graph(96, 3);
  sim::Scheduler scheduler(g, sim::Model::full());
  Rng rng(77, 3);
  const auto pair = sim::random_adjacent_placement(g, rng);

  PacingAgent a1;
  baselines::WaitingAgent b1;
  const auto classic = scheduler.run(a1, b1, pair, 64);

  PacingAgent a2;
  baselines::WaitingAgent b2;
  sim::ScenarioPlacement placement;
  placement.starts = {pair.a_start, pair.b_start};
  const auto scenario_run = scheduler.run_scenario(
      {&a2, &b2}, placement, sim::Gathering::AnyPair, 64);
  const auto projected = scenario_run.to_run_result();

  EXPECT_EQ(classic.met, projected.met);
  EXPECT_EQ(classic.meeting_round, projected.meeting_round);
  EXPECT_EQ(classic.meeting_vertex, projected.meeting_vertex);
  EXPECT_EQ(classic.metrics.rounds, projected.metrics.rounds);
  EXPECT_EQ(classic.metrics.moves, projected.metrics.moves);
  EXPECT_EQ(classic.metrics.whiteboard_reads,
            projected.metrics.whiteboard_reads);
  EXPECT_EQ(classic.metrics.whiteboard_writes,
            projected.metrics.whiteboard_writes);
  EXPECT_EQ(classic.metrics.whiteboards_used,
            projected.metrics.whiteboards_used);
}

TEST(ScenarioEngine, SleepingAgentIsPhysicallyPresent) {
  // a paces onto the sleeping b's vertex: co-location with a sleeper is a
  // meeting (the sleeper is there, it just has not run yet).
  const auto g = two_path();
  sim::Scheduler scheduler(g, sim::Model::full());
  PacingAgent a, b;
  sim::ScenarioPlacement placement;
  placement.starts = {0, 1};
  placement.wake_delays = {0, 10};
  const auto result =
      scheduler.run_scenario({&a, &b}, placement, sim::Gathering::AnyPair, 50);
  EXPECT_TRUE(result.met);
  EXPECT_EQ(result.meeting_round, 1u);
  EXPECT_EQ(result.meeting_vertex, 1u);
  EXPECT_EQ(result.agents[1].moves, 0u);  // b never woke
}

TEST(ScenarioEngine, DelayBreaksThePacingParityLock) {
  // Two synchronized pacers on an edge swap endpoints forever (the classic
  // convention test). Any odd wake offset breaks the parity and they meet.
  const auto g = two_path();
  sim::Scheduler scheduler(g, sim::Model::full());
  {
    PacingAgent a, b;
    sim::ScenarioPlacement placement;
    placement.starts = {0, 1};
    const auto sync = scheduler.run_scenario({&a, &b}, placement,
                                             sim::Gathering::AnyPair, 50);
    EXPECT_FALSE(sync.met);
  }
  {
    PacingAgent a, b;
    sim::ScenarioPlacement placement;
    placement.starts = {0, 1};
    placement.wake_delays = {0, 1};
    const auto delayed = scheduler.run_scenario({&a, &b}, placement,
                                                sim::Gathering::AnyPair, 50);
    EXPECT_TRUE(delayed.met);
    EXPECT_EQ(delayed.meeting_round, 1u);
  }
}

/// Records the round counter it observes on its first step.
class ClockProbeAgent final : public sim::Agent {
 public:
  sim::Action step(const sim::View& view) override {
    if (!first_round_.has_value()) first_round_ = view.round();
    last_round_ = view.round();
    return sim::Action::stay();
  }
  std::optional<std::uint64_t> first_round_;
  std::uint64_t last_round_ = 0;
};

TEST(ScenarioEngine, DelayedAgentsRunOnTheirLocalClock) {
  // A program written against view.round() must see 0 on its first awake
  // round — delayed-start agents run unmodified on their own clock.
  graph::GraphBuilder builder(3);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  const auto g = std::move(builder).build_identity_ids();
  sim::Scheduler scheduler(g, sim::Model::full());
  ClockProbeAgent a, b;
  sim::ScenarioPlacement placement;
  placement.starts = {0, 2};
  placement.wake_delays = {0, 7};
  const auto result =
      scheduler.run_scenario({&a, &b}, placement, sim::Gathering::AnyPair, 20);
  EXPECT_FALSE(result.met);
  ASSERT_TRUE(a.first_round_.has_value());
  ASSERT_TRUE(b.first_round_.has_value());
  EXPECT_EQ(*a.first_round_, 0u);
  EXPECT_EQ(*b.first_round_, 0u);  // local, not global round 7
  EXPECT_EQ(a.last_round_, 19u);
  EXPECT_EQ(b.last_round_, 12u);  // 20 global rounds - 7 asleep - 1
}

/// Deterministic seeded walker: one uniform step per round.
class SeededWalkerAgent final : public sim::Agent {
 public:
  explicit SeededWalkerAgent(std::uint64_t seed) noexcept : rng_(seed, 21) {}
  sim::Action step(const sim::View& view) override {
    return sim::Action::move(
        static_cast<std::size_t>(rng_.below(view.degree())));
  }

 private:
  Rng rng_;
};

TEST(ScenarioEngine, UniformWakeDelayIsAPureTimeShift) {
  // The scheduler header's tie-break contract: k agents sharing one
  // identical wake delay d behave exactly like the zero-delay run prefixed
  // by d inert rounds. Every observable must shift by exactly d — meeting
  // round included — with the meeting vertex, pair, gathered count, and
  // per-agent move totals untouched.
  const auto g = test::dense_graph(48, 9, 6);
  sim::Scheduler scheduler(g, sim::Model::full());
  constexpr std::uint64_t kDelay = 13;
  constexpr std::uint64_t kCap = 256;

  const auto run_with_delay = [&](std::uint64_t delay, std::uint64_t cap) {
    SeededWalkerAgent a(101), b(202), c(303);
    sim::ScenarioPlacement placement;
    placement.starts = {0, 17, 33};
    if (delay > 0) placement.wake_delays.assign(3, delay);
    return scheduler.run_scenario({&a, &b, &c}, placement,
                                  sim::Gathering::quorum_of(2), cap);
  };

  const auto base = run_with_delay(0, kCap);
  const auto shifted = run_with_delay(kDelay, kCap + kDelay);
  ASSERT_TRUE(base.met);  // three walkers on 48 vertices meet fast
  ASSERT_TRUE(shifted.met);
  EXPECT_EQ(shifted.meeting_round, base.meeting_round + kDelay);
  EXPECT_EQ(shifted.meeting_vertex, base.meeting_vertex);
  EXPECT_EQ(shifted.meeting_agent_a, base.meeting_agent_a);
  EXPECT_EQ(shifted.meeting_agent_b, base.meeting_agent_b);
  EXPECT_EQ(shifted.gathered_count, base.gathered_count);
  ASSERT_EQ(shifted.agents.size(), base.agents.size());
  for (std::size_t i = 0; i < base.agents.size(); ++i) {
    EXPECT_EQ(shifted.agents[i].wake_delay, kDelay);
    EXPECT_EQ(shifted.agents[i].moves, base.agents[i].moves) << "agent " << i;
  }
}

TEST(ScenarioEngine, AllMeetIsStricterThanAnyPair) {
  // Three waiters, two of them adjacent and one pacing between: with the
  // static trio 0/1/2 on a path, agents 0 and 1 co-locate when 0 paces onto
  // 1 — any-pair ends there, all-meet never holds.
  graph::GraphBuilder builder(4);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(2, 3);
  const auto g = std::move(builder).build_identity_ids();
  sim::Scheduler scheduler(g, sim::Model::full());
  {
    PacingAgent a;
    baselines::WaitingAgent b, c;
    sim::ScenarioPlacement placement;
    placement.starts = {0, 1, 3};
    const auto result = scheduler.run_scenario({&a, &b, &c}, placement,
                                               sim::Gathering::AnyPair, 30);
    EXPECT_TRUE(result.met);
    EXPECT_EQ(result.meeting_round, 1u);
    EXPECT_EQ(result.meeting_agent_a, 0u);
    EXPECT_EQ(result.meeting_agent_b, 1u);
  }
  {
    PacingAgent a;
    baselines::WaitingAgent b, c;
    sim::ScenarioPlacement placement;
    placement.starts = {0, 1, 3};
    const auto result = scheduler.run_scenario({&a, &b, &c}, placement,
                                               sim::Gathering::All, 30);
    EXPECT_FALSE(result.met);
    EXPECT_EQ(result.rounds, 30u);
  }
}

TEST(ScenarioEngine, RejectsDuplicateStartsAndBadSizes) {
  const auto g = two_path();
  sim::Scheduler scheduler(g, sim::Model::full());
  PacingAgent a, b;
  sim::ScenarioPlacement placement;
  placement.starts = {1, 1};
  EXPECT_THROW((void)scheduler.run_scenario({&a, &b}, placement,
                                            sim::Gathering::AnyPair, 10),
               CheckError);
  placement.starts = {0, 1};
  placement.wake_delays = {1};  // wrong arity
  EXPECT_THROW((void)scheduler.run_scenario({&a, &b}, placement,
                                            sim::Gathering::AnyPair, 10),
               CheckError);
  EXPECT_THROW((void)scheduler.run_scenario({&a}, {{0}, {}},
                                            sim::Gathering::AnyPair, 10),
               CheckError);
}

// --- registry ----------------------------------------------------------------

TEST(ScenarioRegistry, BuiltinsAreValidAndFindable) {
  const auto& scenarios = scenario::all_scenarios();
  ASSERT_GE(scenarios.size(), 7u);
  EXPECT_EQ(scenarios.front().name, "sync-pair");
  for (const auto& s : scenarios) {
    EXPECT_NO_THROW(s.validate());
    EXPECT_TRUE(scenario::has_scenario(s.name));
    EXPECT_EQ(scenario::find_scenario(s.name).name, s.name);
    EXPECT_FALSE(s.describe().empty());
  }
  EXPECT_FALSE(scenario::has_scenario("no-such-scenario"));
  EXPECT_THROW((void)scenario::find_scenario("no-such-scenario"), CheckError);
}

TEST(ScenarioRegistry, RegisterRejectsDuplicatesAndInvalid) {
  scenario::Scenario custom;
  custom.name = "test-duo";
  custom.summary = "registered by the test suite";
  custom.num_agents = 2;
  custom.placement = scenario::PlacementModel::RandomDistinct;
  if (!scenario::has_scenario("test-duo")) {
    scenario::register_scenario(custom);
  }
  EXPECT_TRUE(scenario::has_scenario("test-duo"));
  EXPECT_THROW(scenario::register_scenario(custom), CheckError);

  scenario::Scenario bad = custom;
  bad.name = "test-bad";
  bad.placement = scenario::PlacementModel::AdjacentPair;
  bad.num_agents = 4;  // adjacent pairs are two-agent only
  EXPECT_THROW(scenario::register_scenario(bad), CheckError);

  scenario::Scenario bad_delay = custom;
  bad_delay.name = "test-bad-delay";
  bad_delay.delay = scenario::DelayModel::RandomUniform;
  bad_delay.max_delay = 0;  // delay model without a bound
  EXPECT_THROW(scenario::register_scenario(bad_delay), CheckError);
}

// --- instance drawing ---------------------------------------------------------

TEST(ScenarioInstances, ClusterStartsShareAClosedNeighborhood) {
  const auto g = test::dense_graph(64, 9, 8);
  const auto& trio = scenario::find_scenario("trio-neighborhood");
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed, 11);
    const auto placement = scenario::draw_instance(trio, g, rng);
    ASSERT_EQ(placement.starts.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i)
      for (std::size_t j = i + 1; j < 3; ++j) {
        EXPECT_NE(placement.starts[i], placement.starts[j]);
        // All members of one closed neighborhood are within distance 2.
        EXPECT_LE(
            graph::distance(g, placement.starts[i], placement.starts[j]), 2u);
      }
    EXPECT_TRUE(placement.wake_delays.empty());
  }
}

TEST(ScenarioInstances, DelaysRespectModelAndBound) {
  const auto g = test::dense_graph(64, 9, 8);
  const auto& delayed = scenario::find_scenario("delayed-pair");
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed, 11);
    const auto placement = scenario::draw_instance(delayed, g, rng);
    ASSERT_EQ(placement.wake_delays.size(), 2u);
    const auto earliest =
        std::min(placement.wake_delays[0], placement.wake_delays[1]);
    EXPECT_EQ(earliest, 0u);  // time starts when the first agent wakes
    for (const auto d : placement.wake_delays)
      EXPECT_LE(d, delayed.max_delay);
  }
  const auto& ambush = scenario::find_scenario("ambush-pair");
  Rng rng(3, 11);
  const auto placement = scenario::draw_instance(ambush, g, rng);
  EXPECT_EQ(placement.wake_delays[0], 0u);
  EXPECT_EQ(placement.wake_delays[1], ambush.max_delay);
}

TEST(ScenarioInstances, DrawingIsDeterministic) {
  const auto g = test::dense_graph(64, 9, 8);
  for (const auto& s : scenario::all_scenarios()) {
    Rng rng1(5, 11), rng2(5, 11);
    const auto p1 = scenario::draw_instance(s, g, rng1);
    const auto p2 = scenario::draw_instance(s, g, rng2);
    EXPECT_EQ(p1.starts, p2.starts) << s.name;
    EXPECT_EQ(p1.wake_delays, p2.wake_delays) << s.name;
  }
}

// --- programs -----------------------------------------------------------------

TEST(ScenarioPrograms, ExploreRallyGathersEveryone) {
  Rng graph_rng(13, 1);
  const auto g = graph::make_watts_strogatz(64, 3, 0.2, graph_rng);
  const auto& swarm = scenario::find_scenario("swarm-gather");
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed, 11);
    const auto placement = scenario::draw_instance(swarm, g, rng);
    scenario::ScenarioOptions options;
    options.seed = seed;
    const auto report = scenario::run_scenario(
        swarm, scenario::find_program("explore-rally"), g, placement, options);
    // All five gather deterministically within the O(n) budget. (The
    // gathering vertex may precede the rally: the agents' routes to the
    // minimum ID converge, so they can be co-located one hop early.)
    ASSERT_TRUE(report.run.met) << "seed " << seed;
    EXPECT_EQ(report.run.meeting_agent_a, 0u);
    EXPECT_EQ(report.run.meeting_agent_b, swarm.num_agents - 1);
    EXPECT_LE(report.run.meeting_round, 4 * g.num_vertices() + 1024);
  }
}

TEST(ScenarioPrograms, ExploreRallyEndsOnTheMinimumId) {
  // Alone (nobody to meet en route), the agent must finish exactly on the
  // globally smallest ID: vertex 0 under identity naming, an arbitrary
  // vertex under shuffled IDs, and under sparse IDs (bound 64^3 >> n) a map
  // indexed by ID would be the wrong size. On arrival the plan is empty and
  // the agent knows every row: 4 scalar words, 1 + deg per row (n + 2m), 2
  // per discovered and 2 per visited vertex (4n), so memory_words() must be
  // 4 + 5n + 2m.
  Rng graph_rng(13, 1);
  const auto base = graph::make_watts_strogatz(64, 3, 0.2, graph_rng);
  Rng id_rng(29, 2);
  const auto sparse = graph::sparse_ids(base.num_vertices(), 3.0, id_rng);
  ASSERT_GT(sparse.bound, 64u * base.num_vertices());
  const auto shuffled = graph::shuffled_ids(base.num_vertices(), id_rng);
  for (const auto& g : {graph::with_ids(base, graph::identity_ids(64)),
                        graph::with_ids(base, sparse),
                        graph::with_ids(base, shuffled)}) {
    const std::size_t n = g.num_vertices();
    graph::VertexIndex min_vertex = 0;
    for (graph::VertexIndex v = 1; v < n; ++v)
      if (g.id_of(v) < g.id_of(min_vertex)) min_vertex = v;
    sim::Scheduler scheduler(g, sim::Model::full());
    for (const graph::VertexIndex start : {0u, 5u, 17u, 63u}) {
      baselines::GatherAtMinAgent agent;
      const auto result = scheduler.run_single(agent, start, 8 * n);
      EXPECT_TRUE(agent.arrived()) << g.describe() << ", start " << start;
      EXPECT_EQ(result.meeting_vertex, min_vertex) << g.describe();
      EXPECT_EQ(agent.visited_count(), n);
      EXPECT_EQ(agent.memory_words(), 4 + 5 * n + 2 * g.num_edges())
          << g.describe() << ", start " << start;
    }
  }
}

TEST(ScenarioPrograms, StrategiesTolerateSleepersAndStrangers) {
  // No strategy may crash when its partner sleeps or when marks come from
  // foreign agents; failing to meet within the cap is a legal outcome.
  const auto g = test::dense_graph(96, 4);
  for (const auto& name :
       {"delayed-pair", "ambush-pair", "trio-neighborhood", "trio-delayed",
        "pair-anywhere"}) {
    const auto& s = scenario::find_scenario(name);
    for (const auto program :
         {scenario::find_program("whiteboard"), scenario::find_program("no-whiteboard")}) {
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        Rng rng(seed, 11);
        const auto placement = scenario::draw_instance(s, g, rng);
        scenario::ScenarioOptions options;
        options.seed = seed;
        options.max_rounds = 5000;  // keep the failure cap cheap
        EXPECT_NO_THROW({
          const auto report =
              scenario::run_scenario(s, program, g, placement, options);
          (void)report;
        }) << name << " / " << scenario::to_string(program);
      }
    }
  }
}

TEST(ScenarioPrograms, SyncPairWhiteboardStillMeets) {
  const auto g = test::dense_graph(128, 6);
  const auto& sync = scenario::find_scenario("sync-pair");
  const runner::TrialRunner runner(runner::RunnerOptions{1});
  scenario::ScenarioOptions options;
  options.seed = 5;
  const auto agg = scenario::run_scenario_trials(
                       sync, scenario::find_program("whiteboard"), g, options, 16,
                       runner)
                       .aggregate();
  EXPECT_EQ(agg.trials, 16u);
  EXPECT_EQ(agg.successes, 16u);  // Theorem 1 territory: must not regress
}

TEST(ScenarioTrials, BitIdenticalAcrossThreadCounts) {
  Rng graph_rng(31, 1);
  const auto g = graph::make_barabasi_albert(128, 5, graph_rng);
  const auto& s = scenario::find_scenario("trio-delayed");
  scenario::ScenarioOptions options;
  options.seed = 404;
  runner::TrialAggregate reference;
  bool first = true;
  for (const unsigned threads : {1u, 4u, 8u}) {
    const runner::TrialRunner runner(runner::RunnerOptions{threads});
    const auto agg = scenario::run_scenario_trials(
                         s, scenario::find_program("whiteboard"), g, options, 24,
                         runner)
                         .aggregate();
    if (first) {
      reference = agg;
      first = false;
    } else {
      EXPECT_TRUE(bits_equal(reference, agg))
          << "scenario aggregate differs at " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace fnr
