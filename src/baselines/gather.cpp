#include "baselines/gather.hpp"

#include <algorithm>
#include <deque>

#include "util/check.hpp"

namespace fnr::baselines {

void GatherAtMinAgent::on_idle(const sim::View& view) {
  const graph::VertexId here = view.here();
  if (!init_) {
    root_ = here;
    min_seen_ = here;
    parent_[here] = here;
    init_ = true;
  }
  if (arrived_) return;  // camped on the rally vertex

  if (!rallying_) {
    if (!adjacency_.contains(here)) {
      const auto ids = view.neighbor_ids();
      adjacency_[here].assign(ids.begin(), ids.end());
      adjacency_words_ += 1 + ids.size();
      min_seen_ = std::min(min_seen_, here);
    }
    // Resume this vertex's child scan where it left off (keeps the whole
    // DFS O(m) bookkeeping instead of O(sum deg^2)).
    const auto& nbrs = adjacency_[here];
    std::size_t& cursor = next_child_[here];
    while (cursor < nbrs.size()) {
      const graph::VertexId u = nbrs[cursor++];
      if (parent_.contains(u)) continue;
      parent_[u] = here;
      plan_move(u);
      return;
    }
    if (here != root_) {
      plan_move(parent_.at(here));
      return;
    }
    // DFS spent and we are back at the root: the map is complete for the
    // whole component. Rally at the smallest ID seen.
    rallying_ = true;
    if (here == min_seen_) {
      arrived_ = true;
      return;
    }
    plan_route(route(here, min_seen_));
    return;
  }
  // Route consumed: we stand on the rally vertex.
  FNR_ASSERT(here == min_seen_);
  arrived_ = true;
}

std::vector<graph::VertexId> GatherAtMinAgent::route(graph::VertexId from,
                                                     graph::VertexId to) const {
  std::unordered_map<graph::VertexId, graph::VertexId> prev;
  std::deque<graph::VertexId> frontier{from};
  prev[from] = from;
  while (!frontier.empty() && !prev.contains(to)) {
    const graph::VertexId v = frontier.front();
    frontier.pop_front();
    const auto it = adjacency_.find(v);
    if (it == adjacency_.end()) continue;  // neighbor seen but never visited
    for (const graph::VertexId u : it->second) {
      if (prev.contains(u)) continue;
      prev[u] = v;
      frontier.push_back(u);
    }
  }
  FNR_CHECK_MSG(prev.contains(to),
                "rally vertex " << to << " unreachable in the learned map");
  std::vector<graph::VertexId> hops;
  for (graph::VertexId v = to; v != from; v = prev.at(v)) hops.push_back(v);
  std::reverse(hops.begin(), hops.end());
  return hops;
}

std::size_t GatherAtMinAgent::memory_words() const {
  return sim::ScriptedAgent::memory_words() + 4 + adjacency_words_ +
         2 * parent_.size() + 2 * next_child_.size();
}

}  // namespace fnr::baselines
