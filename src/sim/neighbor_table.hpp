// Graph-wide observation tables shared by every trial on one graph.
//
// Every trial of one sweep cell walks the same immutable graph, so what an
// agent can observe about a vertex's ports — the neighbors' IDs in port
// order, and the port it arrives through after crossing one — is computed
// once per scheduler instead of once per move.
//
// Layout: one flat array per observation, parallel to the graph's CSR
// adjacency. Slot s = offsets()[v] + port stands for the directed edge
// (v, neighbors(v)[port]); the table reuses the graph's offsets instead of
// copying them, so it must not outlive its graph. `ids` and `rev` expose
// the flat arrays as read-only rows (ids[v] is v's row, in port order).
//
// Build: O(n + m), no search. Adjacency lists are sorted by neighbor index,
// so when v walks up from 0, the v's that have u as a neighbor arrive in
// the order of u's own list: v always sits at u's next unused port. A
// per-vertex cursor therefore yields the reverse port directly,
// rev[slot(v, p)] = cursor[u]++ for u = neighbors(v)[p].
//
// Each Scheduler / BatchScheduler builds its own table, i.e. tables are
// rebuilt per cell even when the graph came from the cache. That is on
// purpose: the build is cheap, whereas caching one table next to each
// cached graph would keep them all live at once and add about 40% to the
// peak RSS of a large-n campaign (docs/PERFORMANCE.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace fnr::sim {

struct NeighborTable;

/// Read-only jagged rows over one flat per-slot array: rows[v] is the span
/// of v's slots in port order, and range-for yields the rows for v = 0..n-1.
template <class T>
class SlotRows {
 public:
  class iterator {
   public:
    std::span<const T> operator*() const { return (*rows_)[v_]; }
    iterator& operator++() {
      ++v_;
      return *this;
    }
    bool operator==(const iterator&) const = default;

   private:
    friend class SlotRows;
    iterator(const SlotRows* rows, graph::VertexIndex v)
        : rows_(rows), v_(v) {}
    const SlotRows* rows_;
    graph::VertexIndex v_;
  };

  /// Number of rows (the graph's vertex count).
  [[nodiscard]] std::size_t size() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  [[nodiscard]] std::span<const T> operator[](graph::VertexIndex v) const {
    return {flat_.get() + offsets_[v], flat_.get() + offsets_[v + 1]};
  }

  [[nodiscard]] iterator begin() const { return {this, 0}; }
  [[nodiscard]] iterator end() const {
    return {this, static_cast<graph::VertexIndex>(size())};
  }

 private:
  friend struct NeighborTable;

  /// Sizes the array for the graph with these CSR offsets, uninitialized:
  /// the build writes every slot, and zero-filling first costs a pass.
  void allocate(std::span<const std::uint64_t> offsets) {
    offsets_ = offsets;
    flat_ = std::make_unique_for_overwrite<T[]>(
        offsets.empty() ? 0 : offsets.back());
  }

  std::span<const std::uint64_t> offsets_;  // the graph's; n + 1 entries
  std::unique_ptr<T[]> flat_;               // one entry per CSR slot
};

struct NeighborTable {
  explicit NeighborTable(const graph::Graph& g);

  /// ids[v][port] — ID of vertex v's neighbor through `port`.
  SlotRows<graph::VertexId> ids;
  /// rev[v][port] — the arrival port an agent observes after crossing
  /// `port` from v: with u = neighbors(v)[port], rev[v][port] is
  /// Graph::port_to(u, v).
  SlotRows<std::uint32_t> rev;

  /// rev[v][port] by flat slot: the per-move lookup of the schedulers.
  [[nodiscard]] std::uint32_t reverse_port(graph::VertexIndex v,
                                           std::size_t port) const {
    return rev.flat_[rev.offsets_[v] + port];
  }

  /// index_by_id[id] — vertex index for `id`, kNoVertex for unused IDs.
  /// Built only when the ID space is dense enough (id_bound = O(n)) for a
  /// flat array to be cheap; empty under sparse polynomial naming, where
  /// lookups fall back to the graph's hash index.
  std::vector<graph::VertexIndex> index_by_id;

  /// Sentinel in port_by_pair for vertex pairs that share no edge.
  static constexpr std::uint16_t kNoPort = 0xFFFF;
  /// port_by_pair[v * num_vertices + u] — the port leading from v to u
  /// (kNoPort when vu is not an edge). Turns the route-following
  /// View::port_of binary search into one array load. Quadratic in n, so
  /// it is only built for small graphs; empty otherwise, and lookups fall
  /// back to Graph::port_to.
  std::vector<std::uint16_t> port_by_pair;
  std::size_t num_vertices = 0;
};

}  // namespace fnr::sim
