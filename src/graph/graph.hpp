// Immutable undirected graph with distinct vertex identifiers.
//
// The paper's model (§2.1): each vertex carries a distinct integer ID in
// [0, n'-1] with n >= n' ... n' = n^{O(1)}; agents know n'. Internally
// vertices are dense indices [0, n); the ID space is attached at build time
// (see id_space.hpp). Adjacency is CSR with per-vertex neighbor lists sorted
// by neighbor index — that order defines the local port numbering ˆP_v.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace fnr::graph {

/// Dense internal vertex index in [0, n).
using VertexIndex = std::uint32_t;

/// Externally visible vertex identifier in [0, n').
using VertexId = std::uint64_t;

/// Sentinel for "no vertex".
inline constexpr VertexIndex kNoVertex = static_cast<VertexIndex>(-1);

/// The naming regime attached to a graph (paper §2.1 and §4.2).
struct IdSpace {
  std::vector<VertexId> ids;  ///< index -> ID, all distinct, < bound
  VertexId bound = 0;         ///< n' : exclusive upper bound, known to agents
  bool tight = false;         ///< n' = O(n) (required by Theorem 2)
};

/// Immutable simple undirected graph. Construct via GraphBuilder.
class Graph {
 public:
  Graph() = default;

  [[nodiscard]] std::size_t num_vertices() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  [[nodiscard]] std::size_t num_edges() const noexcept {
    return adjacency_.size() / 2;
  }

  [[nodiscard]] std::size_t degree(VertexIndex v) const {
    FNR_ASSERT(v < num_vertices());
    return offsets_[v + 1] - offsets_[v];
  }

  /// Neighbors of v ordered by increasing neighbor index; position in this
  /// span is the local port number ˆP_v.
  [[nodiscard]] std::span<const VertexIndex> neighbors(VertexIndex v) const {
    FNR_ASSERT(v < num_vertices());
    return {adjacency_.data() + offsets_[v],
            adjacency_.data() + offsets_[v + 1]};
  }

  /// CSR offsets, n+1 entries: v's adjacency slots are
  /// [offsets()[v], offsets()[v + 1]), and slot offsets()[v] + port is the
  /// directed edge (v, neighbors(v)[port]). Per-slot tables (NeighborTable)
  /// index by this instead of keeping their own copy.
  [[nodiscard]] std::span<const std::uint64_t> offsets() const noexcept {
    return offsets_;
  }

  /// The neighbor behind port `port` of vertex v (ˆP_v(port)).
  [[nodiscard]] VertexIndex neighbor_at_port(VertexIndex v,
                                             std::size_t port) const {
    const auto nbrs = neighbors(v);
    FNR_CHECK_MSG(port < nbrs.size(),
                  "port " << port << " out of range for degree "
                          << nbrs.size());
    return nbrs[port];
  }

  /// Inverse port map ˆP_v^{-1}: the port of v leading to u; kNoVertex-free:
  /// requires (v, u) to be an edge.
  [[nodiscard]] std::size_t port_to(VertexIndex v, VertexIndex u) const;

  [[nodiscard]] bool has_edge(VertexIndex u, VertexIndex v) const;

  /// Decodes flat adjacency slot `slot` in [0, 2m) into the directed pair
  /// (owner, neighbor). Each undirected edge owns exactly two slots, so a
  /// uniform slot is a uniform directed edge (used for uniform placements).
  [[nodiscard]] std::pair<VertexIndex, VertexIndex> edge_at_slot(
      std::uint64_t slot) const;

  [[nodiscard]] std::size_t min_degree() const noexcept { return min_degree_; }
  [[nodiscard]] std::size_t max_degree() const noexcept { return max_degree_; }

  // --- identifier space -----------------------------------------------

  [[nodiscard]] VertexId id_of(VertexIndex v) const {
    FNR_ASSERT(v < num_vertices());
    return id_space_.ids[v];
  }
  /// Throws CheckError if the ID does not name a vertex.
  [[nodiscard]] VertexIndex index_of(VertexId id) const;
  /// kNoVertex if the ID does not name a vertex.
  [[nodiscard]] VertexIndex try_index_of(VertexId id) const noexcept;

  /// n' — the exclusive ID bound known to agents.
  [[nodiscard]] VertexId id_bound() const noexcept { return id_space_.bound; }
  [[nodiscard]] bool tight_ids() const noexcept { return id_space_.tight; }

  /// Human-readable one-line summary (n, m, δ, Δ, naming).
  [[nodiscard]] std::string describe() const;

 private:
  friend class GraphBuilder;

  std::vector<std::uint64_t> offsets_;   // size n+1
  std::vector<VertexIndex> adjacency_;   // size 2m, sorted per vertex
  IdSpace id_space_;
  std::unordered_map<VertexId, VertexIndex> id_to_index_;
  std::size_t min_degree_ = 0;
  std::size_t max_degree_ = 0;
};

}  // namespace fnr::graph
