// Failure injection and model-enforcement coverage: every way a caller or
// an algorithm can step outside the paper's model must fail loudly, and the
// Construct ablation switch must preserve output quality.
#include <gtest/gtest.h>

#include "baselines/wait_and_sweep.hpp"
#include "core/construct.hpp"
#include "core/knowledge.hpp"
#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "sim/scheduler.hpp"
#include "sim/scripted_agent.hpp"
#include "test_support.hpp"

namespace fnr {
namespace {

// --- Knowledge (agent a's map) ---------------------------------------------

using Ids = std::vector<graph::VertexId>;

TEST(Knowledge, RoutesCoverZeroOneTwoHops) {
  core::Knowledge k;
  k.init_home(10, Ids{20, 30});
  (void)k.absorb_neighborhood(20, Ids{10, 40});
  EXPECT_TRUE(k.route_from_home(10).empty());
  EXPECT_EQ(k.route_from_home(30), (std::vector<graph::VertexId>{30}));
  EXPECT_EQ(k.route_from_home(40), (std::vector<graph::VertexId>{20, 40}));
  EXPECT_EQ(k.route_to_home(40), (std::vector<graph::VertexId>{20, 10}));
  EXPECT_EQ(k.route_to_home(30), (std::vector<graph::VertexId>{10}));
}

TEST(Knowledge, UnknownRouteThrows) {
  core::Knowledge k;
  k.init_home(1, Ids{2});
  EXPECT_THROW((void)k.route_from_home(99), CheckError);
  EXPECT_THROW((void)k.route_to_home(99), CheckError);
}

TEST(Knowledge, AbsorbReportsOnlyFreshVertices) {
  core::Knowledge k;
  k.init_home(1, Ids{2, 3});
  const auto fresh = k.absorb_neighborhood(2, Ids{1, 3, 4, 5});
  EXPECT_EQ(fresh, (std::vector<graph::VertexId>{4, 5}));
  // Absorbing again adds nothing.
  EXPECT_TRUE(k.absorb_neighborhood(2, Ids{1, 3, 4, 5}).empty());
  EXPECT_EQ(k.ns_size(), 5u);
}

TEST(Knowledge, ResetCoverageKeepsHomeBall) {
  core::Knowledge k;
  k.init_home(1, Ids{2, 3});
  (void)k.absorb_neighborhood(2, Ids{7});
  EXPECT_TRUE(k.in_ns(7));
  k.reset_coverage();  // doubling restart
  EXPECT_FALSE(k.in_ns(7));
  EXPECT_TRUE(k.in_ns(2));
  EXPECT_THROW((void)k.route_from_home(7), CheckError);
}

// --- model enforcement ------------------------------------------------------

TEST(ModelGuards, MovePlanNeedsKt1) {
  // A ScriptedAgent move is addressed by ID: in the port-only model the
  // translation throws, surfacing the model violation at its source.
  class IdMover final : public sim::ScriptedAgent {
   protected:
    void on_idle(const sim::View& view) override {
      if (view.round() == 0) plan_move(1);
    }
  };
  const auto g = graph::make_path(3);
  sim::Scheduler scheduler(g, sim::Model::port_only());
  IdMover a;
  baselines::WaitingAgent b;
  EXPECT_THROW((void)scheduler.run(a, b, sim::Placement{0, 2}, 4),
               CheckError);
}

TEST(ModelGuards, MovingToNonNeighborThrows) {
  class BadMover final : public sim::ScriptedAgent {
   protected:
    void on_idle(const sim::View& view) override {
      if (view.round() == 0) plan_move(3);  // distance 3 on a path
    }
  };
  const auto g = graph::make_path(5);
  sim::Scheduler scheduler(g, sim::Model::full());
  BadMover a;
  baselines::WaitingAgent b;
  EXPECT_THROW((void)scheduler.run(a, b, sim::Placement{0, 4}, 4),
               CheckError);
}

TEST(ModelGuards, PortOutOfRangeThrows) {
  class BadPort final : public sim::Agent {
   public:
    sim::Action step(const sim::View& view) override {
      return sim::Action::move(view.degree());  // one past the last port
    }
  };
  const auto g = graph::make_ring(5);
  sim::Scheduler scheduler(g, sim::Model::full());
  BadPort a;
  baselines::WaitingAgent b;
  EXPECT_THROW((void)scheduler.run(a, b, sim::Placement{0, 2}, 2),
               CheckError);
}

TEST(ModelGuards, StrategiesRefuseImpossibleModels) {
  // The facade re-checks every assumption its strategy needs.
  const auto g = test::dense_graph(128, 1);
  Rng rng(1, 3);
  const auto placement = sim::random_adjacent_placement(g, rng);

  // Distance-2 placement (violates I₁).
  graph::VertexIndex far = graph::kNoVertex;
  const auto dist = graph::bfs_distances(g, placement.a_start);
  for (graph::VertexIndex v = 0; v < g.num_vertices(); ++v)
    if (dist[v] == 2) far = v;
  ASSERT_NE(far, graph::kNoVertex);
  core::RendezvousOptions options;
  EXPECT_THROW((void)core::run_rendezvous(
                   g, sim::Placement{placement.a_start, far}, options),
               CheckError);
}

// --- graph substrate edge cases ---------------------------------------------

TEST(GraphEdgeCases, TwoVertexGraph) {
  const auto g = graph::make_path(2);
  Rng rng(5, 3);
  const auto placement = sim::random_adjacent_placement(g, rng);
  core::RendezvousOptions options;
  options.seed = 5;
  const auto report = core::run_rendezvous(g, placement, options);
  EXPECT_TRUE(report.run.met);
  EXPECT_LE(report.run.meeting_round, 16u);
}

TEST(GraphEdgeCases, TriangleAllStrategies) {
  const auto g = graph::make_complete(3);
  for (const auto strategy :
       {core::Strategy::Whiteboard, core::Strategy::WhiteboardDoubling,
        core::Strategy::NoWhiteboard}) {
    core::RendezvousOptions options;
    options.strategy = strategy;
    options.seed = 9;
    const auto report =
        core::run_rendezvous(g, sim::Placement{0, 1}, options);
    EXPECT_TRUE(report.run.met) << core::to_string(strategy);
  }
}

TEST(GraphEdgeCases, StarFromTheCenter) {
  // δ = 1 violates Theorem 1's premise; the algorithm must still terminate
  // (it degrades, it does not wedge).
  const auto g = graph::make_star(32);
  core::RendezvousOptions options;
  options.seed = 3;
  options.max_rounds = 500'000;
  const auto report = core::run_rendezvous(g, sim::Placement{0, 5}, options);
  EXPECT_TRUE(report.run.met);
}

TEST(GraphEdgeCases, RingIsSlowButSound) {
  // δ = 2 ring: far outside the dense regime; termination within the cap.
  const auto g = graph::make_ring(64);
  core::RendezvousOptions options;
  options.seed = 4;
  options.max_rounds = 2'000'000;
  const auto report = core::run_rendezvous(g, sim::Placement{0, 1}, options);
  EXPECT_TRUE(report.run.met);
}

// --- the Construct ablation switch -------------------------------------------

class StrictOnlyDriver final : public sim::ScriptedAgent {
 public:
  StrictOnlyDriver(const core::Params& params, double delta, Rng rng)
      : params_(params), delta_(delta), rng_(rng) {}
  [[nodiscard]] bool halted() const override { return done_; }
  std::vector<graph::VertexId> t_set;
  core::ConstructStats stats;

 protected:
  void on_idle(const sim::View& view) override {
    if (!init_) {
      knowledge_.init_home(view.here(), view.neighbor_ids());
      run_ = std::make_unique<core::ConstructRun>(knowledge_, params_, delta_,
                                                  view.num_vertices());
      init_ = true;
    }
    if (view.here() != knowledge_.home()) {
      run_->on_arrival(view);
      plan_route(knowledge_.route_to_home(view.here()));
      return;
    }
    while (auto target = run_->next_target(rng_)) {
      if (*target == view.here()) {
        run_->on_arrival(view);
        continue;
      }
      plan_route(knowledge_.route_from_home(*target));
      return;
    }
    t_set = run_->t_set();
    stats = run_->stats();
    done_ = true;
  }

 private:
  core::Params params_;
  double delta_;
  Rng rng_;
  bool init_ = false;
  bool done_ = false;
  core::Knowledge knowledge_;
  std::unique_ptr<core::ConstructRun> run_;
};

TEST(ConstructAblation, StrictOnlyProducesDenseSetToo) {
  const auto g = test::dense_graph(256, 3);
  auto params = core::Params::practical();
  params.optimistic_decision = false;
  sim::Scheduler scheduler(g, sim::Model::full());
  StrictOnlyDriver driver(params, static_cast<double>(g.min_degree()),
                          Rng(7));
  (void)scheduler.run_single(driver, 0, 100'000'000);
  ASSERT_TRUE(driver.halted());
  EXPECT_EQ(driver.stats.optimistic_runs, 0u);
  EXPECT_GE(driver.stats.strict_runs, 1u);
  EXPECT_TRUE(graph::is_dense_set(
      g, 0, test::to_indices(g, driver.t_set),
      static_cast<double>(g.min_degree()) / 8.0, 2));
}

TEST(ConstructAblation, TwoStepWinsWhenIterationsAreMany) {
  // The §3.3 motivation, asserted: once n/δ is large enough that Construct
  // needs many iterations, re-sampling all of N+(Sᵃ) every iteration
  // (strict-only) costs strictly more rounds than the paper's two-step
  // decision. (At small n/δ the two variants are within a constant of each
  // other — see bench/exp12 for the full sweep.)
  Rng grng(11, 911);
  const auto g = graph::make_near_regular(1024, 16, grng);  // n/δ ≈ 64
  const double delta = static_cast<double>(g.min_degree());

  auto measure = [&](bool optimistic) {
    auto params = core::Params::practical();
    params.optimistic_decision = optimistic;
    sim::Scheduler scheduler(g, sim::Model::full());
    StrictOnlyDriver driver(params, delta, Rng(13));
    const auto result = scheduler.run_single(driver, 0, 100'000'000);
    EXPECT_TRUE(driver.halted());
    return result.metrics.rounds;
  };
  const auto two_step = measure(true);
  const auto strict_only = measure(false);
  EXPECT_LT(two_step, strict_only);
}

// --- statistical battery on the RNG (distribution sanity) -------------------

TEST(RngBattery, ChiSquareUniformity) {
  Rng rng(20260610);
  constexpr int kBuckets = 16;
  constexpr int kDraws = 160000;
  double counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.below(kBuckets)];
  double chi2 = 0;
  const double expected = double(kDraws) / kBuckets;
  for (const double c : counts)
    chi2 += (c - expected) * (c - expected) / expected;
  // 15 degrees of freedom: p=0.001 critical value ≈ 37.7.
  EXPECT_LT(chi2, 37.7);
}

TEST(RngBattery, BitBalance) {
  Rng rng(42);
  int ones = 0;
  constexpr int kWords = 4096;
  for (int i = 0; i < kWords; ++i) ones += __builtin_popcountll(rng());
  const double total = 64.0 * kWords;
  EXPECT_NEAR(ones / total, 0.5, 0.01);
}

TEST(RngBattery, SerialCorrelationIsLow) {
  Rng rng(99);
  double prev = rng.uniform01();
  double sum_xy = 0, sum_x = 0, sum_x2 = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    const double cur = rng.uniform01();
    sum_xy += prev * cur;
    sum_x += prev;
    sum_x2 += prev * prev;
    prev = cur;
  }
  const double mean = sum_x / kDraws;
  const double var = sum_x2 / kDraws - mean * mean;
  const double cov = sum_xy / kDraws - mean * mean;
  EXPECT_LT(std::abs(cov / var), 0.02);
}

}  // namespace
}  // namespace fnr
