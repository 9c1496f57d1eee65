#include "baselines/wait_and_explore.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace fnr::baselines {

sim::Action ExploreAgent::step(const sim::View& view) {
  if (finished_) return sim::Action::stay();
  if (path_.empty()) {
    path_.push_back(view.here());
    visited_.insert(view.here());
  }
  FNR_ASSERT(path_.back() == view.here());

  // Descend to the smallest-ID unvisited neighbor, if any.
  const auto neighbors = view.neighbor_ids();
  graph::VertexId best = 0;
  bool found = false;
  for (const auto id : neighbors) {
    if (visited_.contains(id)) continue;
    if (!found || id < best) {
      best = id;
      found = true;
    }
  }
  if (found) {
    visited_.insert(best);
    path_.push_back(best);
    return sim::Action::move(view.port_of(best));
  }
  // Exhausted here: backtrack.
  path_.pop_back();
  if (path_.empty()) {
    finished_ = true;
    return sim::Action::stay();
  }
  return sim::Action::move(view.port_of(path_.back()));
}

}  // namespace fnr::baselines
