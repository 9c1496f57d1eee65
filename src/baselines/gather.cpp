#include "baselines/gather.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"

namespace fnr::baselines {

namespace {

// Fibonacci hashing: the top bits of ID * 2^64/phi spread dense, strided
// and sparse IDs alike.
constexpr std::uint64_t kGoldenRatio = 0x9E3779B97F4A7C15ULL;

}  // namespace

void GatherAtMinAgent::start(const sim::View& view) {
  const std::size_t n = view.num_vertices();
  const std::size_t capacity = std::bit_ceil(std::max<std::size_t>(2 * n, 2));
  table_.assign(capacity, Entry{});
  shift_ = 64 - std::countr_zero(capacity);
  id_.reserve(n);
  parent_.reserve(n);
  cursor_.reserve(n);
  row_.reserve(n);
  const graph::VertexId here = view.here();
  root_ = discover(here, 0, probe(here));  // slot 0, its own parent
  min_seen_ = here;
}

std::size_t GatherAtMinAgent::probe(graph::VertexId id) const {
  const std::size_t mask = table_.size() - 1;
  for (std::size_t cell = (id * kGoldenRatio) >> shift_;;
       cell = (cell + 1) & mask) {
    const Entry& entry = table_[cell];
    if (entry.slot == kNoSlot || entry.id == id) return cell;
  }
}

GatherAtMinAgent::Slot GatherAtMinAgent::discover(graph::VertexId id,
                                                  Slot parent,
                                                  std::size_t cell) {
  FNR_CHECK_MSG(id_.size() < id_.capacity(),
                "explore-rally discovered more than n = " << id_.capacity()
                                                          << " vertices");
  const auto slot = static_cast<Slot>(id_.size());
  table_[cell] = Entry{id, slot};
  id_.push_back(id);
  parent_.push_back(parent);
  cursor_.push_back(kUnvisited);
  row_.emplace_back();
  return slot;
}

void GatherAtMinAgent::on_idle(const sim::View& view) {
  if (table_.empty()) start(view);
  if (arrived_) return;  // camped on the rally vertex

  const graph::VertexId here = view.here();
  const Slot slot = slot_of(here);
  FNR_CHECK_MSG(slot != kNoSlot,
                "explore-rally stands on undiscovered vertex " << here);
  if (!rallying_) {
    if (cursor_[slot] == kUnvisited) {
      row_[slot] = view.neighbor_ids();
      cursor_[slot] = 0;
      ++visited_;
      adjacency_words_ += 1 + row_[slot].size();
      min_seen_ = std::min(min_seen_, here);
    }
    // Resume this vertex's child scan where it left off (keeps the whole
    // DFS O(m) bookkeeping instead of O(sum deg^2)).
    const auto row = row_[slot];
    while (cursor_[slot] < row.size()) {
      const graph::VertexId u = row[cursor_[slot]++];
      const std::size_t cell = probe(u);
      if (table_[cell].slot != kNoSlot) continue;
      discover(u, slot, cell);
      plan_move(u);
      return;
    }
    if (slot != root_) {
      plan_move(id_[parent_[slot]]);
      return;
    }
    // DFS spent and we are back at the root: the map is complete for the
    // whole component. Rally at the smallest ID seen.
    rallying_ = true;
    if (here == min_seen_) {
      arrived_ = true;
      return;
    }
    plan_route(route(slot, slot_of(min_seen_)));
    return;
  }
  // Route consumed: we stand on the rally vertex.
  FNR_ASSERT(here == min_seen_);
  arrived_ = true;
}

std::vector<graph::VertexId> GatherAtMinAgent::route(Slot from,
                                                     Slot to) const {
  std::vector<Slot> prev(id_.size(), kNoSlot);
  std::vector<Slot> frontier;
  frontier.reserve(id_.size());
  frontier.push_back(from);
  prev[from] = from;
  for (std::size_t head = 0; head < frontier.size() && prev[to] == kNoSlot;
       ++head) {
    const Slot v = frontier[head];
    for (const graph::VertexId u : row_[v]) {  // empty unless visited
      const Slot s = slot_of(u);
      FNR_CHECK_MSG(s != kNoSlot, "neighbor " << u << " of visited vertex "
                                              << id_[v]
                                              << " has no slot in the map");
      if (prev[s] != kNoSlot) continue;
      prev[s] = v;
      frontier.push_back(s);
    }
  }
  FNR_CHECK_MSG(prev[to] != kNoSlot, "rally vertex "
                                         << id_[to]
                                         << " unreachable in the learned map");
  std::vector<graph::VertexId> hops;
  for (Slot v = to; v != from; v = prev[v]) hops.push_back(id_[v]);
  std::reverse(hops.begin(), hops.end());
  return hops;
}

std::size_t GatherAtMinAgent::memory_words() const {
  return sim::ScriptedAgent::memory_words() + 4 + adjacency_words_ +
         2 * id_.size() + 2 * visited_;
}

}  // namespace fnr::baselines
