// Theorem 6 — the adaptive adversary against deterministic algorithms.
//
// Lemma 9, made executable: given a deterministic agent and an ID space of
// n/2 + 1 vertices, the adversary starts from a star around the start vertex
// v₀ plus a clique on the reserve set P̄, and lazily pins down the rest of
// the graph as the agent walks: the first time the agent enters a vertex of
// the pool P, that vertex gets connected to every still-unvisited pool
// vertex. After t <= n/32 rounds at least 13n/32 pool vertices W remain that
// the agent never approached — each adjacent only to v₀.
//
// The full Theorem 6 instance glues two such transcripts (one per agent)
// with the edge (j, k) and a biclique on W_a × W_b, yielding a Θ(n)-degree
// distance-1 instance on which the two deterministic agents provably cannot
// meet within n/32 rounds (they reproduce their solo transcripts).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/builder.hpp"
#include "graph/graph.hpp"
#include "sim/scheduler.hpp"

namespace fnr::lower_bounds {

/// What a deterministic algorithm may observe in the adversary's world:
/// its position's ID, the IDs of the neighbors, and the round. (Determinism
/// is the point; there is no RNG anywhere in this interface.)
struct DetView {
  graph::VertexId here = 0;
  std::span<const graph::VertexId> neighbors;
  std::uint64_t round = 0;
};

class DeterministicAgent {
 public:
  virtual ~DeterministicAgent() = default;
  /// Returns the ID of a neighbor to move to, or `view.here` to stay.
  [[nodiscard]] virtual graph::VertexId choose_move(const DetView& view) = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Factory so the same algorithm can be instantiated for the solo transcript
/// and again (fresh) for the final two-agent run.
using DetAgentFactory =
    std::unique_ptr<DeterministicAgent> (*)();

/// Outcome of one solo adversary run (Lemma 9).
struct AdversaryTranscript {
  std::vector<graph::VertexId> ids;           ///< the ID space used
  graph::VertexId start = 0;                  ///< v₀
  std::vector<graph::VertexId> visited;       ///< Q_t in visit order
  std::vector<graph::VertexId> untouched;     ///< W = P \ Q_t
  /// Final adjacency (by ID) after the lazy construction.
  std::vector<std::pair<graph::VertexId, graph::VertexId>> edges;
};

/// Runs the Lemma 9 construction for `rounds` rounds against a fresh agent
/// from `factory`, over the ID space `ids` (distinct IDs; ids[0] is v₀).
[[nodiscard]] AdversaryTranscript run_lemma9(DetAgentFactory factory,
                                             std::vector<graph::VertexId> ids,
                                             std::uint64_t rounds);

/// The glued Theorem 6 instance built from two transcripts.
struct Theorem6Instance {
  graph::Graph graph;
  sim::Placement placement;  ///< agents start on the (j, k) bridge
  std::size_t w_a = 0;       ///< |W| of agent a's transcript
  std::size_t w_b = 0;
};

/// Builds the hard instance for a pair of deterministic algorithms on n
/// vertices (n must be a multiple of 32). Runs each solo transcript for
/// n/32 rounds, then glues per the Theorem 6 proof.
[[nodiscard]] Theorem6Instance build_theorem6_instance(
    DetAgentFactory factory_a, DetAgentFactory factory_b, std::size_t n);

/// Adapter: runs a DeterministicAgent inside the standard simulator (used
/// for the final two-agent run on the glued instance).
class DetAgentAdapter final : public sim::Agent {
 public:
  explicit DetAgentAdapter(std::unique_ptr<DeterministicAgent> inner)
      : inner_(std::move(inner)) {}
  sim::Action step(const sim::View& view) override;

 private:
  std::unique_ptr<DeterministicAgent> inner_;
};

// --- concrete deterministic strategies (the "any algorithm" witnesses) ----

/// Greedy DFS over vertex IDs (deterministic twin of ExploreAgent).
[[nodiscard]] std::unique_ptr<DeterministicAgent> make_lex_dfs();
/// Sweeps the start's neighborhood in ascending ID order (out and back).
[[nodiscard]] std::unique_ptr<DeterministicAgent> make_lex_sweep();
/// Always exits through the lexicographically next neighbor after the one
/// it arrived from (right-hand-rule flavour).
[[nodiscard]] std::unique_ptr<DeterministicAgent> make_rotor_walk();

}  // namespace fnr::lower_bounds
