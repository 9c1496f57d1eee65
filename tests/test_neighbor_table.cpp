// NeighborTable against its oracle, the Graph itself.
//
// The table is built in O(m) from a per-vertex cursor instead of searching
// u's adjacency for v; these tests check every slot of every table against
// Graph::port_to and Graph::id_of, on every topology family of the sweep
// grid plus the lower-bound and hub families, on both sides of the pair-table
// cut-off (n <= 2048 builds port_by_pair, larger graphs do not), under sparse
// polynomial naming (no flat index_by_id) and on graphs with degree-1
// vertices.
#include <gtest/gtest.h>

#include <string>

#include "graph/generators.hpp"
#include "graph/id_space.hpp"
#include "sim/neighbor_table.hpp"
#include "sweep/spec.hpp"
#include "util/rng.hpp"

namespace fnr {
namespace {

using graph::Graph;
using graph::VertexIndex;
using sim::NeighborTable;

/// Checks every row and slot of `table` against `g`; `what` names the graph
/// in failure messages.
void expect_matches_graph(const Graph& g, const NeighborTable& table,
                          const std::string& what) {
  SCOPED_TRACE(what + ": " + g.describe());
  const std::size_t n = g.num_vertices();
  ASSERT_EQ(table.num_vertices, n);
  ASSERT_EQ(table.ids.size(), n);
  ASSERT_EQ(table.rev.size(), n);
  EXPECT_EQ(table.port_by_pair.empty(), n > 2048);

  for (VertexIndex v = 0; v < n; ++v) {
    const auto nbrs = g.neighbors(v);
    ASSERT_EQ(table.ids[v].size(), g.degree(v)) << "vertex " << v;
    ASSERT_EQ(table.rev[v].size(), g.degree(v)) << "vertex " << v;
    for (std::size_t port = 0; port < nbrs.size(); ++port) {
      const VertexIndex u = nbrs[port];
      ASSERT_EQ(table.ids[v][port], g.id_of(u)) << v << " port " << port;
      ASSERT_EQ(table.rev[v][port], g.port_to(u, v)) << v << " port " << port;
      ASSERT_EQ(table.reverse_port(v, port), g.port_to(u, v));
      if (!table.port_by_pair.empty())
        ASSERT_EQ(table.port_by_pair[v * n + u], port);
    }
  }

  // Range-for yields the same rows, in vertex order, back to back.
  VertexIndex v = 0;
  const graph::VertexId* next = n > 0 ? table.ids[0].data() : nullptr;
  for (const auto row : table.ids) {
    ASSERT_EQ(row.data(), next);
    ASSERT_EQ(row.size(), g.degree(v));
    next = row.data() + row.size();
    ++v;
  }
  EXPECT_EQ(v, n);

  if (table.index_by_id.empty()) {
    // Only sparse ID spaces skip the flat inverse map.
    EXPECT_GT(g.id_bound(), 8 * n + 1024);
  } else {
    ASSERT_EQ(table.index_by_id.size(), g.id_bound());
    for (VertexIndex w = 0; w < n; ++w)
      ASSERT_EQ(table.index_by_id[g.id_of(w)], w);
  }
}

void check_graph(const Graph& g, const std::string& what) {
  const NeighborTable table(g);
  expect_matches_graph(g, table, what);
}

TEST(NeighborTable, MatchesGraphOnEverySweepFamily) {
  for (const std::string& family : sweep::topology_families()) {
    const sweep::TopologySpec spec = sweep::parse_topology(family);
    // Both sides of the pair-table cut-off. The complete graph stays on the
    // small side: above 2048 vertices it alone would need ~100 MB.
    for (const std::uint64_t n : {300u, 4100u}) {
      if (family == "complete" && n > 2048) continue;
      const Graph g = spec.build(n, /*seed=*/7);
      check_graph(g, family + " n=" + std::to_string(n));
    }
  }
}

TEST(NeighborTable, MatchesGraphOnLowerBoundAndHubFamilies) {
  Rng rng(3, 17);
  check_graph(graph::make_star(40), "star");  // 40 degree-1 leaves
  check_graph(graph::make_path(9), "path");   // degree-1 endpoints
  check_graph(graph::make_double_star(12).graph, "double-star");
  check_graph(graph::make_double_star_cliques(4, 5).graph,
              "double-star-cliques");
  check_graph(graph::make_bridged_cliques(9).graph, "bridged-cliques");
  check_graph(graph::make_shared_vertex_cliques(9).graph,
              "shared-vertex-cliques");
  check_graph(graph::make_hub_augmented(3000, 4, 3, rng), "hub-augmented");
  check_graph(graph::make_grid(1, 2), "single edge");
}

TEST(NeighborTable, SparsePolynomialIdsLeaveIndexByIdEmpty) {
  Rng rng(9, 17);
  for (const std::size_t n : {500u, 3000u}) {
    const Graph base = graph::make_near_regular(n, 6, rng);
    const Graph g = graph::with_ids(base, graph::sparse_ids(n, 2.0, rng));
    const NeighborTable table(g);
    EXPECT_TRUE(table.index_by_id.empty());
    expect_matches_graph(g, table, "sparse ids n=" + std::to_string(n));
  }
}

TEST(NeighborTable, ShuffledIdsFollowTheGraphsNaming) {
  Rng rng(11, 17);
  const Graph base = graph::make_watts_strogatz(400, 4, 0.3, rng);
  check_graph(graph::with_ids(base, graph::shuffled_ids(400, rng)),
              "shuffled ids");
  check_graph(graph::with_ids(base, graph::tight_ids(400, 3.0, rng)),
              "tight ids");
}

TEST(NeighborTable, EmptyGraphHasNoRows) {
  const Graph g;
  const NeighborTable table(g);
  EXPECT_EQ(table.ids.size(), 0u);
  EXPECT_EQ(table.rev.size(), 0u);
  EXPECT_EQ(table.ids.begin(), table.ids.end());
}

}  // namespace
}  // namespace fnr
