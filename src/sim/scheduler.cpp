#include "sim/scheduler.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace fnr::sim {

namespace {

/// The pairwise oracle: does some vertex hold >= `threshold` of the k
/// positions? On success fills the canonical meeting pair — pair_a is the
/// lowest-indexed agent standing on any vertex at the threshold; pair_b is
/// the next agent sharing that vertex, except at threshold == k (all-meet,
/// also Quorum(k)/Fraction(1.0)) where it is the last such agent, i.e.
/// k - 1 — exactly the pre-swarm AnyPair/All conventions, which the golden
/// traces pin. O(k^2); the occupancy path must recover identical values.
bool gathered_threshold(const graph::VertexIndex* pos, std::size_t k,
                        std::uint64_t threshold, std::size_t& pair_a,
                        std::size_t& pair_b) {
  if (threshold > k) return false;  // an unreachable quorum never gathers
  for (std::size_t i = 0; i < k; ++i) {
    // Counting only j >= i is sound: if i is not the lowest index on its
    // vertex, that vertex was already counted fully at its lowest index.
    std::uint64_t count = 1;
    std::size_t second = i, last = i;
    for (std::size_t j = i + 1; j < k; ++j) {
      if (pos[j] != pos[i]) continue;
      ++count;
      if (second == i) second = j;
      last = j;
    }
    if (count >= threshold) {
      pair_a = i;
      pair_b = threshold == k ? last : second;
      return true;
    }
  }
  return false;
}

/// Agents standing on `vertex` (for ScenarioRunResult::gathered_count —
/// both detection paths report the same scan-derived value).
std::uint64_t count_at(const std::vector<graph::VertexIndex>& pos,
                       graph::VertexIndex vertex) {
  std::uint64_t count = 0;
  for (const auto p : pos)
    if (p == vertex) ++count;
  return count;
}

}  // namespace

Placement random_adjacent_placement(const graph::Graph& g, Rng& rng) {
  FNR_CHECK_MSG(g.num_edges() > 0, "graph has no edges to place agents on");
  // A uniform adjacency slot is a uniform directed edge, i.e. a uniform
  // undirected edge with a uniform orientation.
  const auto [u, v] = g.edge_at_slot(rng.below(2 * g.num_edges()));
  return Placement{u, v};
}

Scheduler::Scheduler(const graph::Graph& g, Model model)
    : graph_(g), model_(model), boards_(g.num_vertices()), table_(g) {}

void Scheduler::ensure_arena(std::size_t k) {
  if (views_.size() < k) {
    pos_.reserve(k);
    arrival_port_.resize(k);
    actions_.resize(k);
    run_agents_.resize(k);
    wake_at_.resize(k);
    local_base_.resize(k);
    needs_revive_.resize(k);
    views_.resize(k);
    for (auto& view : views_) {
      // Graph/model bindings never change for this arena; set them once.
      view.id_bound_ = graph_.id_bound();
      view.n_ = graph_.num_vertices();
      view.model_ = model_;
      view.graph_ = &graph_;
      view.boards_ = model_.whiteboards ? &boards_ : nullptr;
      // Neighborhood observations answer from the shared per-graph table
      // (no per-view neighbor storage, which matters at massive k).
      view.shared_ids_ = &table_;
    }
  }
  // pos_ is consumed whole by the gathering predicate, so it must hold
  // exactly k entries; resizing within the reserved capacity never
  // allocates.
  pos_.resize(k);
  std::fill_n(arrival_port_.begin(), k, kNoArrival);
}

void Scheduler::aim_view(std::size_t agent, AgentName name,
                         std::uint64_t local_round, graph::VertexIndex here,
                         std::uint32_t arrival) {
  View& view = views_[agent];
  view.agent_ = name;
  view.round_ = local_round;
  view.here_index_ = here;
  view.here_id_ = graph_.id_of(here);
  view.degree_ = graph_.degree(here);
  if (arrival == kNoArrival)
    view.arrival_port_.reset();
  else
    view.arrival_port_ = arrival;
}

void Scheduler::verify_occupancy(std::size_t k,
                                 std::uint64_t threshold) const {
  std::uint64_t total = 0, at_threshold = 0;
  for (const auto count : occ_) {
    total += count;
    if (count >= threshold) ++at_threshold;
  }
  FNR_CHECK_MSG(total == k, "occupancy self-check: counts sum to "
                                << total << " for " << k << " agents");
  FNR_CHECK_MSG(at_threshold == at_threshold_,
                "occupancy self-check: " << at_threshold
                                         << " vertices at threshold, counter "
                                         << "says " << at_threshold_);
  for (std::size_t i = 0; i < k; ++i)
    FNR_CHECK_MSG(occ_[pos_[i]] >= 1,
                  "occupancy self-check: agent " << i
                                                 << "'s vertex has count 0");
}

RunResult Scheduler::run(Agent& agent_a, Agent& agent_b, Placement placement,
                         std::uint64_t max_rounds) {
  // Branch-light two-agent fast path: the bit-exact k=2, zero-delay,
  // any-pair projection of run_scenario (pinned by the golden-regression
  // tests), with fixed-size state instead of per-run vectors.
  FNR_CHECK(placement.a_start < graph_.num_vertices());
  FNR_CHECK(placement.b_start < graph_.num_vertices());
  FNR_CHECK_MSG(placement.a_start != placement.b_start,
                "agents must start at distinct vertices");
  boards_.clear_all();
  ensure_arena(2);
  // The paper's reliable two-agent model: never inject here, and clear any
  // session pointer a previous faulty scenario run left in the arena views.
  views_[0].faults_ = views_[1].faults_ = nullptr;

  Agent* const agents[2] = {&agent_a, &agent_b};
  graph::VertexIndex pos[2] = {placement.a_start, placement.b_start};
  std::uint32_t arrival[2] = {kNoArrival, kNoArrival};
  Action actions[2];

  RunResult result;
  const std::uint64_t wb_reads0 = boards_.reads();
  const std::uint64_t wb_writes0 = boards_.writes();

  for (std::uint64_t round = 0; round <= max_rounds; ++round) {
    if (pos[0] == pos[1]) {
      result.met = true;
      result.meeting_round = round;
      result.meeting_vertex = pos[0];
      break;
    }
    if (round == max_rounds) break;  // budget exhausted without meeting
    result.metrics.rounds = round + 1;

    for (std::size_t i = 0; i < 2; ++i) {
      aim_view(i, i == 0 ? AgentName::A : AgentName::B, round, pos[i],
               arrival[i]);
      actions[i] = agents[i]->step(views_[i]);
      result.metrics.peak_memory_words[i] = std::max(
          result.metrics.peak_memory_words[i], agents[i]->memory_words());
    }

    // Writes land at the agents' current vertices before the simultaneous
    // movement (same order as run_scenario; co-location ended the run
    // above, so a write race between the two agents is impossible).
    for (std::size_t i = 0; i < 2; ++i) {
      if (actions[i].whiteboard_write.has_value()) {
        FNR_CHECK_MSG(model_.whiteboards,
                      "agent wrote a whiteboard in a whiteboard-free model");
        boards_.write(pos[i], *actions[i].whiteboard_write);
      }
    }

    for (std::size_t i = 0; i < 2; ++i) {
      const std::size_t port = actions[i].move_port;
      if (port == Action::kStay) {
        arrival[i] = kNoArrival;
        continue;
      }
      const graph::VertexIndex from = pos[i];
      pos[i] = graph_.neighbor_at_port(from, port);
      arrival[i] = table_.reverse_port(from, port);
      ++result.metrics.moves[i];
    }
  }

  result.metrics.whiteboard_reads = boards_.reads() - wb_reads0;
  result.metrics.whiteboard_writes = boards_.writes() - wb_writes0;
  result.metrics.whiteboards_used = boards_.used_boards();
  return result;
}

ScenarioRunResult Scheduler::run_scenario(const std::vector<Agent*>& agents,
                                          const ScenarioPlacement& placement,
                                          Gathering gathering,
                                          std::uint64_t max_rounds) {
  const std::size_t k = agents.size();
  FNR_CHECK_MSG(k >= 2, "a scenario needs at least two agents, got " << k);
  FNR_CHECK_MSG(placement.starts.size() == k,
                "placement has " << placement.starts.size() << " starts for "
                                 << k << " agents");
  FNR_CHECK_MSG(
      placement.wake_delays.empty() || placement.wake_delays.size() == k,
      "wake_delays must be empty or one per agent");
  for (std::size_t i = 0; i < k; ++i) {
    FNR_CHECK(agents[i] != nullptr);
    FNR_CHECK(placement.starts[i] < graph_.num_vertices());
  }
  {
    // Distinctness via sort-and-compare: the naive pairwise check is
    // O(k^2) and at massive k it dwarfs the run itself (at k = 10^6 it
    // would cost minutes before the first round executes).
    std::vector<graph::VertexIndex> sorted_starts(placement.starts);
    std::sort(sorted_starts.begin(), sorted_starts.end());
    for (std::size_t i = 1; i < k; ++i)
      FNR_CHECK_MSG(sorted_starts[i] != sorted_starts[i - 1],
                    "agents must start at distinct vertices");
  }
  boards_.clear_all();
  ensure_arena(k);

  ScenarioRunResult result;
  result.agents.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    result.agents[i].wake_delay = placement.delay_of(i);
    // The fault-free round loop below is the original loop with wake_at_
    // and local_base_ pre-filled to the wake delay: without a session the
    // per-round residue is exactly one null-check per agent (the
    // allocation-guard and golden contracts are measured in that state).
    run_agents_[i] = agents[i];
    wake_at_[i] = placement.delay_of(i);
    local_base_[i] = placement.delay_of(i);
    needs_revive_[i] = 0;
    views_[i].faults_ = faults_;
  }

  std::copy(placement.starts.begin(), placement.starts.end(), pos_.begin());

  const std::uint64_t threshold = gathering.threshold(k);
  const bool occupancy = use_occupancy(k);
  if (occupancy) {
    if (occ_.size() != graph_.num_vertices()) {
      occ_.assign(graph_.num_vertices(), 0);  // warm-up only
    } else if (occ_dirty_) {
      std::fill(occ_.begin(), occ_.end(), 0);  // a prior run threw mid-flight
    }
    // A clean exit unseeds its own k increments (cheaper than an O(n)
    // clear), so the array is all-zero here and seeding is pure increments.
    occ_dirty_ = true;
    at_threshold_ = 0;
    for (std::size_t i = 0; i < k; ++i)
      if (++occ_[pos_[i]] == threshold) ++at_threshold_;
  }

  const std::uint64_t wb_reads0 = boards_.reads();
  const std::uint64_t wb_writes0 = boards_.writes();

  for (std::uint64_t round = 0; round <= max_rounds; ++round) {
    bool met_now;
    if (occupancy) {
      if (self_check_) verify_occupancy(k, threshold);
      met_now = at_threshold_ > 0;
      if (met_now) {
        // Recover the canonical pair the pairwise oracle would report: the
        // minimal index satisfying either predicate form is the same agent
        // (the lowest index on a gathered vertex sees its full count).
        std::size_t pair_a = 0;
        for (std::size_t i = 0; i < k; ++i) {
          if (occ_[pos_[i]] >= threshold) {
            pair_a = i;
            break;
          }
        }
        std::size_t pair_b = pair_a;
        if (threshold == k) {
          pair_b = k - 1;  // all-meet: everyone shares the vertex
        } else {
          for (std::size_t j = pair_a + 1; j < k; ++j) {
            if (pos_[j] == pos_[pair_a]) {
              pair_b = j;
              break;
            }
          }
        }
        result.meeting_agent_a = pair_a;
        result.meeting_agent_b = pair_b;
      }
    } else {
      met_now = gathered_threshold(pos_.data(), k, threshold,
                                   result.meeting_agent_a,
                                   result.meeting_agent_b);
    }
    if (met_now) {
      result.met = true;
      result.meeting_round = round;
      result.meeting_vertex = pos_[result.meeting_agent_a];
      result.gathered_count = count_at(pos_, result.meeting_vertex);
      break;
    }
    if (round == max_rounds) break;  // budget exhausted without gathering
    result.rounds = round + 1;

    // wb-wipe: one opportunity per round, before anyone observes or acts.
    if (faults_ != nullptr && faults_->reach(fault::Site::WhiteboardWipe)) {
      boards_.clear_all();
      ++faults_->stats.wipes;
    }

    for (std::size_t i = 0; i < k; ++i) {
      if (round < wake_at_[i]) {
        actions_[i] = Action::stay();  // asleep or down: present but inert
        continue;
      }
      if (faults_ != nullptr) {
        if (needs_revive_[i]) {
          // Restart after the downtime: a factory-fresh instance on the
          // crash vertex, local clock back at 0, arrival port forgotten.
          FNR_CHECK_MSG(faults_->revive != nullptr,
                        "agent crash fired but the fault session has no "
                        "reviver installed");
          Agent* fresh = faults_->revive(i);
          FNR_CHECK_MSG(fresh != nullptr,
                        "fault reviver built no agent for slot " << i);
          run_agents_[i] = fresh;
          needs_revive_[i] = 0;
          local_base_[i] = round;
          arrival_port_[i] = kNoArrival;
          ++faults_->stats.restarts;
        }
        if (faults_->reach(fault::Site::AgentCrash)) {
          // Crash now: state is lost, the agent is inert for the downtime
          // window and revived on its first round back.
          ++faults_->stats.crashes;
          needs_revive_[i] = 1;
          wake_at_[i] = round + faults_->crash_downtime();
          actions_[i] = Action::stay();
          continue;
        }
      }
      aim_view(i, i == 0 ? AgentName::A : AgentName::B,
               round - local_base_[i] /* the agent's local clock */, pos_[i],
               arrival_port_[i]);
      actions_[i] = run_agents_[i]->step(views_[i]);
      result.agents[i].peak_memory_words =
          std::max(result.agents[i].peak_memory_words,
                   run_agents_[i]->memory_words());
    }

    // Whiteboard writes happen at the agents' current vertices before the
    // simultaneous movement. Under Gathering::All two co-located agents may
    // both write one board in the same round; writes apply in agent-index
    // order, so the highest-indexed writer wins (deterministic). Under
    // AnyPair co-location ends the run above, so the order is moot.
    for (std::size_t i = 0; i < k; ++i) {
      if (actions_[i].whiteboard_write.has_value()) {
        FNR_CHECK_MSG(model_.whiteboards,
                      "agent wrote a whiteboard in a whiteboard-free model");
        if (faults_ != nullptr &&
            faults_->reach(fault::Site::WhiteboardDrop)) {
          ++faults_->stats.writes_dropped;  // the write never lands
        } else {
          boards_.write(pos_[i], *actions_[i].whiteboard_write);
        }
      }
    }

    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t port = actions_[i].move_port;
      if (port == Action::kStay) {
        arrival_port_[i] = kNoArrival;
        continue;
      }
      const graph::VertexIndex from = pos_[i];
      const graph::VertexIndex to = graph_.neighbor_at_port(from, port);
      if (faults_ != nullptr && faults_->churn_armed() &&
          faults_->edge_down(round, from, to)) {
        // churn: the traversal fails and the agent holds position, exactly
        // like a stay (it knows it did not move — the arrival port clears).
        ++faults_->stats.moves_blocked;
        arrival_port_[i] = kNoArrival;
        continue;
      }
      pos_[i] = to;
      arrival_port_[i] = table_.reverse_port(from, port);
      ++result.agents[i].moves;
      if (occupancy) {
        // Each move is two O(1) count updates; the threshold counter moves
        // only on the exact crossing in either direction.
        if (occ_[from]-- == threshold) --at_threshold_;
        if (++occ_[to] == threshold) ++at_threshold_;
      }
    }
  }

  if (occupancy) {
    // Clean unseed: k decrements restore all-zero counts without touching
    // the other n - k entries, keeping round-loop cost independent of n.
    for (std::size_t i = 0; i < k; ++i) --occ_[pos_[i]];
    at_threshold_ = 0;
    occ_dirty_ = false;
  }

  result.whiteboard_reads = boards_.reads() - wb_reads0;
  result.whiteboard_writes = boards_.writes() - wb_writes0;
  result.whiteboards_used = boards_.used_boards();
  if (faults_ != nullptr) result.faults = faults_->stats;
  FNR_TRACE("scenario finished: " << result.describe());
  return result;
}

RunResult Scheduler::run_single(Agent& agent, graph::VertexIndex start,
                                std::uint64_t max_rounds) {
  FNR_CHECK(start < graph_.num_vertices());
  boards_.clear_all();
  ensure_arena(1);
  views_[0].faults_ = nullptr;  // reliable, like Scheduler::run

  RunResult result;
  graph::VertexIndex pos = start;
  std::uint32_t arrival_port = kNoArrival;

  const std::uint64_t wb_reads0 = boards_.reads();
  const std::uint64_t wb_writes0 = boards_.writes();

  for (std::uint64_t round = 0; round < max_rounds; ++round) {
    if (agent.halted()) break;
    result.metrics.rounds = round + 1;

    aim_view(0, AgentName::A, round, pos, arrival_port);
    const Action action = agent.step(views_[0]);
    result.metrics.peak_memory_words[0] =
        std::max(result.metrics.peak_memory_words[0], agent.memory_words());

    if (action.whiteboard_write.has_value()) {
      FNR_CHECK_MSG(model_.whiteboards,
                    "agent wrote a whiteboard in a whiteboard-free model");
      boards_.write(pos, *action.whiteboard_write);
    }
    if (action.move_port == Action::kStay) {
      arrival_port = kNoArrival;
    } else {
      const graph::VertexIndex from = pos;
      pos = graph_.neighbor_at_port(from, action.move_port);
      arrival_port = table_.reverse_port(from, action.move_port);
      ++result.metrics.moves[0];
    }
  }
  result.meeting_vertex = pos;  // final position (no partner to meet)
  result.metrics.whiteboard_reads = boards_.reads() - wb_reads0;
  result.metrics.whiteboard_writes = boards_.writes() - wb_writes0;
  result.metrics.whiteboards_used = boards_.used_boards();
  return result;
}

Scheduler& SchedulerScratch::scheduler_for(const graph::Graph& g,
                                           Model model) {
  // Identity is the graph's address plus a size snapshot taken at build
  // time: the snapshot catches a *different* graph object reusing a dead
  // graph's address (e.g. a loop-local Graph) — see the header contract.
  // (Equal-sized topology changes at one address remain undetectable;
  // hence the documented same-live-object requirement.)
  if (!scheduler_ || &scheduler_->graph() != &g ||
      cached_vertices_ != g.num_vertices() ||
      cached_edges_ != g.num_edges() || !(scheduler_->model() == model)) {
    scheduler_.emplace(g, model);
    cached_vertices_ = g.num_vertices();
    cached_edges_ = g.num_edges();
  }
  return *scheduler_;
}

}  // namespace fnr::sim
