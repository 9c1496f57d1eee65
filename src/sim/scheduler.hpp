// Synchronous execution of k >= 2 agents on a graph (paper §2.1-2.2,
// generalized into a scenario engine).
//
// Round structure: at the beginning of each round the gathering predicate is
// evaluated over agent positions (any-pair co-location for the paper's
// two-agent rendezvous, all-meet for multi-agent gathering); if it holds the
// run is complete. Otherwise each awake agent observes its View, returns an
// Action (optional whiteboard write at its current vertex, then stay/move),
// and all actions are applied simultaneously. Note the paper's convention
// means agents that *cross* on an edge do not meet — only co-location at a
// round boundary counts.
//
// Delayed start: each agent may carry a wake delay (rounds it sleeps at its
// start vertex before its program runs). A sleeping agent is physically
// present — co-location with it counts toward the gathering predicate — but
// it neither observes nor acts, and its View's round counter is local (it
// reads 0 on the agent's first awake round), so programs that schedule
// against view.round() run unmodified on their own clock. A k=2, zero-delay
// scenario is exactly the paper's synchronous two-agent model, and
// Scheduler::run is that projection.
//
// Determinism and tie-breaking: within one round every per-agent stage —
// observation/step, whiteboard writes, movement — walks agents in index
// order, so simultaneous actions resolve deterministically (e.g. two
// co-located writers: the highest-indexed write wins). Wake delays shift
// when an agent's program starts but not this order; in particular, k
// agents sharing one identical wake delay d behave exactly like the
// zero-delay run prefixed by d inert rounds (tests pin this).
//
// Performance: a Scheduler is a reusable arena. All per-run scratch —
// positions, arrival ports (a flat uint32 array with a no-port sentinel,
// the batch kernel's SoA layout), staged actions, per-agent Views, the
// per-vertex occupancy counts, the whiteboard store — lives in the
// Scheduler and is reset (not reallocated) at the start of each run, so
// repeated trials on one Scheduler perform zero heap allocation after the
// first (warm-up) run. Views observe through one shared NeighborTable per
// arena, and moves resolve arrival ports with one load from the table's
// flat per-slot rev array.
// Scheduler::run additionally takes a branch-light two-agent fast path with
// no per-run vectors at all. tests/test_alloc_guard.cpp enforces these
// invariants; docs/PERFORMANCE.md and docs/ARCHITECTURE.md document them.
//
// Meeting detection: every gathering predicate is a per-vertex co-location
// threshold (Gathering::threshold), and run_scenario can evaluate it two
// ways. The pairwise oracle scans positions in O(k^2) per round; the
// occupancy path maintains per-vertex agent counts plus a count of vertices
// at/above the threshold incrementally, so a round boundary costs O(1) and
// each move O(1) — the massive-k path. Both report byte-identical results
// (meeting round/vertex/pair and all metrics); tests/test_swarm_differential
// enforces that, mirroring the batch kernel's scalar-oracle contract.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "fault/fault.hpp"
#include "graph/graph.hpp"
#include "sim/metrics.hpp"
#include "sim/model.hpp"
#include "sim/neighbor_table.hpp"
#include "sim/view.hpp"
#include "sim/whiteboard.hpp"
#include "util/rng.hpp"

namespace fnr::sim {

/// How Scheduler::run_scenario evaluates the gathering predicate. The two
/// concrete modes are byte-identical in every observable; Auto picks
/// occupancy above a small-k cutover where the O(k^2) scan starts to lose.
enum class MeetingDetection {
  Auto,       ///< pairwise at small k, occupancy above the cutover
  Pairwise,   ///< O(k^2)-per-round position scan (the oracle)
  Occupancy,  ///< incremental per-vertex counts, O(moves) per round
};

/// The agent count above which Auto switches to occupancy counting.
inline constexpr std::size_t kOccupancyAutoCutover = 8;

/// Initial placement of the two agents.
struct Placement {
  graph::VertexIndex a_start = graph::kNoVertex;
  graph::VertexIndex b_start = graph::kNoVertex;
};

/// Uniformly random adjacent pair (the neighborhood-rendezvous instance
/// class I_1): picks a uniform edge, then orients it uniformly.
[[nodiscard]] Placement random_adjacent_placement(const graph::Graph& g,
                                                  Rng& rng);

/// Initial placement of a k-agent scenario: k pairwise-distinct start
/// vertices plus per-agent wake delays (empty = everyone wakes at round 0).
/// Delays are normalized by convention: time starts when the first agent
/// wakes, so at least one delay should be 0 (not enforced — an all-delayed
/// placement just prepends dead rounds).
struct ScenarioPlacement {
  std::vector<graph::VertexIndex> starts;
  std::vector<std::uint64_t> wake_delays;  ///< size starts.size() or empty

  /// Number of agents this placement positions.
  [[nodiscard]] std::size_t num_agents() const noexcept {
    return starts.size();
  }
  /// Wake delay of `agent` (0 when wake_delays is empty).
  [[nodiscard]] std::uint64_t delay_of(std::size_t agent) const noexcept {
    return agent < wake_delays.size() ? wake_delays[agent] : 0;
  }
};

class Scheduler {
 public:
  /// Binds the arena to `g` (must outlive the Scheduler) and `model`.
  Scheduler(const graph::Graph& g, Model model);

  /// Runs agents from `placement` for at most `max_rounds` rounds.
  /// Agents must be freshly constructed (they carry run state).
  /// Exactly the k=2, zero-delay, any-pair projection of run_scenario,
  /// implemented as a branch-light fast path that allocates nothing.
  [[nodiscard]] RunResult run(Agent& agent_a, Agent& agent_b,
                              Placement placement, std::uint64_t max_rounds);

  /// Runs a k-agent scenario: agents[i] starts (asleep for
  /// placement.delay_of(i) rounds) on placement.starts[i]; the run ends when
  /// `gathering` holds at a round boundary or after `max_rounds` rounds.
  /// Agent 0 is named a, agents 1..k-1 are named b (the paper's asymmetric
  /// role split). Agents must be freshly constructed.
  [[nodiscard]] ScenarioRunResult run_scenario(
      const std::vector<Agent*>& agents, const ScenarioPlacement& placement,
      Gathering gathering, std::uint64_t max_rounds);

  /// Runs a single agent (as agent a) until it reports halted() or the cap.
  /// Used for exploration measurements and for exercising sub-protocols
  /// (e.g. Construct) without a partner ending the run early.
  [[nodiscard]] RunResult run_single(Agent& agent, graph::VertexIndex start,
                                     std::uint64_t max_rounds);

  /// The graph this arena is bound to.
  [[nodiscard]] const graph::Graph& graph() const noexcept { return graph_; }
  /// The computational model runs execute under.
  [[nodiscard]] const Model& model() const noexcept { return model_; }

  /// Arms subsequent run_scenario calls with a fault session (null
  /// disarms; the session must outlive those runs). With no session the
  /// round loop is bit-identical to a build without the fault layer — the
  /// only residue is one pointer null-check per agent-round — and the
  /// golden / allocation-guard contracts are measured in that state.
  /// Scheduler::run and run_single (the paper's reliable two-agent model)
  /// never inject regardless of the session.
  void set_fault_session(fault::FaultSession* session) noexcept {
    faults_ = session;
  }

  /// Selects the meeting-detection mode of subsequent run_scenario calls
  /// (default Auto). The modes are byte-identical in every observable —
  /// this is a throughput lever and a differential-test hook, never a
  /// semantic switch.
  void set_meeting_detection(MeetingDetection detection) noexcept {
    detection_ = detection;
  }

  /// Test hook: when enabled, occupancy-mode rounds re-derive the counts
  /// from scratch at every round boundary and CheckError on any divergence
  /// (counts summing to k, threshold counter consistent). O(n) per round —
  /// never enable outside tests.
  void set_occupancy_self_check(bool enabled) noexcept {
    self_check_ = enabled;
  }

 private:
  /// Sentinel in arrival_port_ / the fast-path arrays: no arrival port
  /// (start vertex, stay, or blocked move). Same encoding as the batch
  /// kernel's kNoPort.
  static constexpr std::uint32_t kNoArrival = 0xFFFFFFFFu;

  /// Grows the per-agent arena to `k` slots and resets the per-run state
  /// (positions untouched — callers seed them). Allocates only when `k`
  /// exceeds every previous run's agent count.
  void ensure_arena(std::size_t k);

  /// Points views_[agent] at (here, local_round, arrival) for this round.
  /// The view's graph/model bindings persist.
  void aim_view(std::size_t agent, AgentName name, std::uint64_t local_round,
                graph::VertexIndex here, std::uint32_t arrival);

  /// Whether run_scenario with `k` agents uses occupancy counting.
  [[nodiscard]] bool use_occupancy(std::size_t k) const noexcept {
    return detection_ == MeetingDetection::Occupancy ||
           (detection_ == MeetingDetection::Auto && k > kOccupancyAutoCutover);
  }

  /// O(n + k) recount of occ_ / at_threshold_ against pos_ (self-check).
  void verify_occupancy(std::size_t k, std::uint64_t threshold) const;

  const graph::Graph& graph_;
  Model model_;
  Whiteboards boards_;
  // Shared per-graph observation table (neighbor IDs, precomputed arrival
  // ports): every View answers from it, and moves look arrival ports up by
  // CSR slot instead of a per-move binary search.
  NeighborTable table_;
  fault::FaultSession* faults_ = nullptr;  // non-owning; null = reliable
  MeetingDetection detection_ = MeetingDetection::Auto;
  bool self_check_ = false;

  // --- per-run arena (reused across runs; zero-allocation after warm-up) ---
  std::vector<graph::VertexIndex> pos_;
  std::vector<std::uint32_t> arrival_port_;  // kNoArrival = none
  std::vector<Action> actions_;
  std::vector<View> views_;  // one per agent slot
  // Fault bookkeeping, sized with the arena so faulty runs stay
  // allocation-free too: the live instance per slot (crash revival swaps
  // pointers), the round each slot acts again (wake delay, then crash
  // downtime), the local-clock base, and the pending-revival flags.
  std::vector<Agent*> run_agents_;
  std::vector<std::uint64_t> wake_at_;
  std::vector<std::uint64_t> local_base_;
  std::vector<char> needs_revive_;
  // Occupancy-detection state: occ_[v] = agents standing on v (zero
  // between runs — a clean exit unseeds its k increments, so the array
  // never needs an O(n) clear on the hot path; occ_dirty_ flags a run that
  // threw mid-flight and forces the fill on the next occupancy run), and
  // at_threshold_ = vertices currently holding >= threshold agents
  // (gathered <=> at_threshold_ > 0).
  std::vector<std::uint32_t> occ_;
  std::uint64_t at_threshold_ = 0;
  bool occ_dirty_ = false;
};

/// Per-worker scheduler cache: hands out a Scheduler arena for a
/// (graph, model) pair, reconstructing only when either changes. Batch
/// loops (core::run_trials, scenario::run_scenario_trials) keep one
/// SchedulerScratch per worker thread, so after the first trial every
/// subsequent trial on that worker reuses a warm arena and the trial loop
/// stays allocation-free.
class SchedulerScratch {
 public:
  /// The cached Scheduler for (g, model); rebuilt if the cache currently
  /// holds a different graph or model. Graphs are identified by address
  /// (plus size sanity checks), so a graph handed to a scratch must stay
  /// the same live object across calls — scope a scratch within one
  /// graph's lifetime, as the batch runners do.
  [[nodiscard]] Scheduler& scheduler_for(const graph::Graph& g, Model model);

 private:
  std::optional<Scheduler> scheduler_;
  // Size snapshot taken when the cached Scheduler was built: catches a
  // *different* graph object reusing the cached graph's address (the
  // address alone cannot distinguish that case).
  std::size_t cached_vertices_ = 0;
  std::size_t cached_edges_ = 0;
};

}  // namespace fnr::sim
