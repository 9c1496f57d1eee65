// Explore-then-rally gathering baseline.
//
// The classic way k >= 2 agents with unique vertex IDs gather without any
// pre-agreement: each agent DFS-explores the graph (KT1 makes the map
// learnable — every visited vertex reveals its neighbors' IDs), then walks
// to the smallest vertex ID it has seen and halts there. On a connected
// graph every agent learns the same minimum, so all agents end on one
// vertex within O(n) rounds — the coordination the independent random walks
// lack (k-way co-location of walkers has probability ~n^{1-k} per round).
// Symmetric: every agent runs the same program, any placement, any k.
//
// Learned map. Each vertex ID gets a dense *slot* in the order the agent
// discovers it. IDs may be sparse (up to n^c), so nothing is indexed by ID:
// one flat open-addressing table (linear probing, keys and values side by
// side) maps ID -> slot. It is sized once, on the first step, to a power of
// two >= 2n from the n the model grants, so it never rehashes. Per-slot
// state (ID, DFS parent, child cursor, neighbor row) lives in plain vectors
// reserved to n. The table is only ever probed for lookups; the DFS and the
// rally BFS walk rows in port order, so routes cannot depend on the hash.
//
// Borrowed rows. A visited vertex's row is the span View::neighbor_ids()
// returned: a row of the scheduler's NeighborTable, not a copy. It stays
// valid while that scheduler lives, so an agent must be stepped only by the
// scheduler that started it. arrived(), visited_count() and memory_words()
// read no row and stay usable after the scheduler is gone.
//
// memory_words() counts what the agent knows under the model, not how the
// simulator stores it: a real agent has no scheduler table to borrow from,
// so each visited row is charged in full (1 + degree words), plus 2 words
// per discovered vertex (its DFS parent), 2 per visited vertex (its child
// cursor) and 4 for the scalars. The probe table and the row spans are
// simulator storage and are not charged.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/scripted_agent.hpp"

namespace fnr::baselines {

class GatherAtMinAgent final : public sim::ScriptedAgent {
 public:
  GatherAtMinAgent() = default;

  /// True once the agent stands on the rally vertex with nothing to do.
  [[nodiscard]] bool arrived() const noexcept { return arrived_; }
  /// Lets single-agent runs stop at the rally instead of burning the cap.
  [[nodiscard]] bool halted() const override { return arrived_; }
  [[nodiscard]] std::size_t visited_count() const noexcept { return visited_; }
  [[nodiscard]] std::size_t memory_words() const override;

 protected:
  void on_idle(const sim::View& view) override;

 private:
  /// Dense per-agent index of a discovered vertex.
  using Slot = std::uint32_t;
  static constexpr Slot kNoSlot = static_cast<Slot>(-1);
  /// cursor_ value of a slot that is discovered but not yet visited.
  static constexpr std::uint32_t kUnvisited = static_cast<std::uint32_t>(-1);

  /// One ID -> slot table cell; slot == kNoSlot marks it empty.
  struct Entry {
    graph::VertexId id = 0;
    Slot slot = kNoSlot;
  };

  /// Sizes the table and the per-slot vectors from n; slots the start.
  void start(const sim::View& view);
  /// Table cell holding `id`, or the empty cell where it would go.
  [[nodiscard]] std::size_t probe(graph::VertexId id) const;
  /// Slot of `id`, or kNoSlot if the agent has not discovered it.
  [[nodiscard]] Slot slot_of(graph::VertexId id) const {
    return table_[probe(id)].slot;
  }
  /// Gives `id` the next slot, with DFS parent `parent`; `cell` is the
  /// empty table cell probe(id) returned.
  Slot discover(graph::VertexId id, Slot parent, std::size_t cell);
  /// BFS route over the learned map from `from` to `to` (exclusive of
  /// `from`, inclusive of `to`).
  [[nodiscard]] std::vector<graph::VertexId> route(Slot from, Slot to) const;

  bool rallying_ = false;
  bool arrived_ = false;
  Slot root_ = kNoSlot;
  graph::VertexId min_seen_ = 0;
  std::size_t visited_ = 0;
  // Words charged for the visited rows, maintained on visit: the scheduler
  // polls memory_words() every round, so recomputing it by walking the
  // learned map would cost O(m) per round (O(nm) per run — it dominated E13).
  std::size_t adjacency_words_ = 0;

  std::vector<Entry> table_;  // empty until start()
  int shift_ = 0;             // 64 - log2(table_.size())
  std::vector<graph::VertexId> id_;
  std::vector<Slot> parent_;
  std::vector<std::uint32_t> cursor_;  // next port to scan, or kUnvisited
  std::vector<std::span<const graph::VertexId>> row_;  // empty until visited
};

}  // namespace fnr::baselines
