#include "sim/neighbor_table.hpp"

namespace fnr::sim {

NeighborTable::NeighborTable(const graph::Graph& g)
    : num_vertices(g.num_vertices()) {
  ids.allocate(g.offsets());
  rev.allocate(g.offsets());
  // The pair table costs n² halfwords; 2048 vertices (8 MB, transient, one
  // graph live at a time) is where we stop paying memory for the O(1) port
  // lookup and leave larger graphs on the binary search.
  const bool pair_table = num_vertices <= 2048;
  if (pair_table) port_by_pair.assign(num_vertices * num_vertices, kNoPort);
  for (graph::VertexIndex v = 0; v < num_vertices; ++v) {
    const auto nbrs = g.neighbors(v);
    graph::VertexId* row = ids.flat_.get() + g.offsets()[v];
    for (std::size_t port = 0; port < nbrs.size(); ++port) {
      row[port] = g.id_of(nbrs[port]);
      if (pair_table)
        port_by_pair[v * num_vertices + nbrs[port]] =
            static_cast<std::uint16_t>(port);
    }
  }
  // cursor[u] — how many of u's ports earlier v's have claimed; see the
  // header for why that is exactly port_to(u, v). A pass of its own: one
  // random-access stream per loop is measurably faster than two.
  std::vector<std::uint32_t> cursor(num_vertices, 0);
  for (graph::VertexIndex v = 0; v < num_vertices; ++v) {
    const auto nbrs = g.neighbors(v);
    std::uint32_t* row = rev.flat_.get() + g.offsets()[v];
    for (std::size_t port = 0; port < nbrs.size(); ++port)
      row[port] = cursor[nbrs[port]]++;
  }
  // Flat inverse map only for dense ID spaces: sparse polynomial naming
  // (id_bound = n^e) would make the array quadratic-or-worse in n.
  if (g.id_bound() <= 8 * g.num_vertices() + 1024) {
    index_by_id.assign(g.id_bound(), graph::kNoVertex);
    for (graph::VertexIndex v = 0; v < num_vertices; ++v)
      index_by_id[g.id_of(v)] = v;
  }
}

}  // namespace fnr::sim
