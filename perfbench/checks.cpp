#include <iostream>

#include "bench.hpp"
#include "util/json.hpp"

namespace perfbench {

using fnr::graph::Graph;
using fnr::graph::VertexIndex;

void Checker::expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures_;
  // Enough to diagnose without flooding the log when a check fails on
  // every cell of a large grid.
  if (failures_ <= 20) std::cerr << "perfbench: CHECK FAILED: " << what << "\n";
}

namespace {

std::string where(const fnr::sweep::SweepCell& cell) {
  return "cell " + std::to_string(cell.index) + " (" + cell.key() + ")";
}

/// The family's rounding of a requested size, recomputed here: torus and
/// grid round down to a square, hypercube to a power of two.
std::uint64_t expected_vertices(const std::string& family, std::uint64_t n) {
  if (family == "torus" || family == "grid") {
    std::uint64_t side = 0;
    while ((side + 1) * (side + 1) <= n) ++side;
    return side * side;
  }
  if (family == "hypercube") {
    std::uint64_t p = 1;
    while (p * 2 <= n) p *= 2;
    return p;
  }
  return n;
}

}  // namespace

void check_graph(Checker& check, const fnr::sweep::SweepCell& cell,
                 const Graph& g) {
  const std::string at = "graph of " + where(cell);
  const std::size_t n = g.num_vertices();
  const std::uint64_t want_n = expected_vertices(cell.topology.family, cell.n);
  check.expect(n == want_n && cell.achieved_n == want_n,
               at + ": " + std::to_string(n) + " vertices, achieved_n " +
                   std::to_string(cell.achieved_n) + ", family rounding " +
                   std::to_string(want_n));
  if (n == 0) return;

  std::uint64_t degree_sum = 0;
  std::size_t min_degree = static_cast<std::size_t>(-1);
  std::size_t max_degree = 0;
  for (VertexIndex v = 0; v < n; ++v) {
    const std::size_t d = g.neighbors(v).size();
    degree_sum += d;
    min_degree = std::min(min_degree, d);
    max_degree = std::max(max_degree, d);
  }
  check.expect(degree_sum == 2 * g.num_edges(),
               at + ": degree sum " + std::to_string(degree_sum) +
                   " != 2m = " + std::to_string(2 * g.num_edges()));
  check.expect(min_degree >= 1, at + ": isolated vertex");
  if (cell.topology.family == "torus")
    check.expect(min_degree == 4 && max_degree == 4,
                 at + ": torus not 4-regular");
  if (cell.topology.family == "hypercube") {
    std::size_t dim = 0;
    while ((std::size_t{1} << dim) < n) ++dim;
    check.expect(min_degree == dim && max_degree == dim,
                 at + ": hypercube not " + std::to_string(dim) + "-regular");
  }

  std::vector<char> seen(n, 0);
  std::vector<VertexIndex> frontier{0};
  seen[0] = 1;
  std::size_t reached = 1;
  while (!frontier.empty()) {
    const VertexIndex v = frontier.back();
    frontier.pop_back();
    for (const VertexIndex u : g.neighbors(v)) {
      if (u >= n) {
        check.expect(false, at + ": neighbor index out of range");
        return;
      }
      if (!seen[u]) {
        seen[u] = 1;
        ++reached;
        frontier.push_back(u);
      }
    }
  }
  check.expect(reached == n, at + ": disconnected (" +
                                 std::to_string(reached) + " of " +
                                 std::to_string(n) + " reachable)");
}

void check_table(Checker& check, const Graph& g,
                 const fnr::sim::NeighborTable& table) {
  const std::size_t n = g.num_vertices();
  if (table.ids.size() != n || table.rev.size() != n) {
    check.expect(false, "neighbor table: sized for the wrong graph");
    return;
  }
  for (VertexIndex v = 0; v < n; ++v) {
    const auto nbrs = g.neighbors(v);
    if (table.ids[v].size() != nbrs.size() ||
        table.rev[v].size() != nbrs.size()) {
      check.expect(false, "neighbor table: vertex " + std::to_string(v) +
                              " row length differs from its degree");
      return;
    }
    for (std::size_t p = 0; p < nbrs.size(); ++p) {
      const VertexIndex u = nbrs[p];
      const auto back = g.neighbors(u);
      const std::uint32_t r = table.rev[v][p];
      if (r >= back.size() || back[r] != v || table.ids[v][p] != g.id_of(u)) {
        check.expect(false, "neighbor table: vertex " + std::to_string(v) +
                                " port " + std::to_string(p) +
                                ": reverse port or neighbor ID wrong");
        return;
      }
    }
  }
}

std::uint64_t table_bytes(const fnr::sim::NeighborTable& table) {
  std::uint64_t bytes = 0;
  for (const auto& row : table.ids)
    bytes += sizeof(row) + row.size() * sizeof(row[0]);
  for (const auto& row : table.rev)
    bytes += sizeof(row) + row.size() * sizeof(row[0]);
  bytes += table.index_by_id.size() * sizeof(fnr::graph::VertexIndex);
  bytes += table.port_by_pair.size() * sizeof(std::uint16_t);
  return bytes;
}

namespace {

/// The aggregate fields the checks read, parsed with the JSON cursor.
struct AggFields {
  std::uint64_t trials = 0, successes = 0, failures = 0;
  double success_rate = 0, mean_gathered = 0;
  double min = 0, median = 0, p90 = 0, p95 = 0, max = 0;
};

AggFields parse_agg(const std::string& json) {
  fnr::JsonCursor cursor(json, "aggregate");
  AggFields f;
  cursor.expect('{');
  bool first = true;
  while (!cursor.peek_is('}')) {
    if (!first) cursor.expect(',');
    first = false;
    const std::string field = cursor.parse_string();
    cursor.expect(':');
    if (field == "trials") f.trials = cursor.parse_uint64();
    else if (field == "successes") f.successes = cursor.parse_uint64();
    else if (field == "failures") f.failures = cursor.parse_uint64();
    else if (field == "success_rate") f.success_rate = cursor.parse_number();
    else if (field == "mean_gathered") f.mean_gathered = cursor.parse_number();
    else if (field == "rounds") {
      cursor.expect('{');
      bool inner_first = true;
      while (!cursor.peek_is('}')) {
        if (!inner_first) cursor.expect(',');
        inner_first = false;
        const std::string stat = cursor.parse_string();
        cursor.expect(':');
        const double value = cursor.parse_number();
        if (stat == "min") f.min = value;
        else if (stat == "median") f.median = value;
        else if (stat == "p90") f.p90 = value;
        else if (stat == "p95") f.p95 = value;
        else if (stat == "max") f.max = value;
      }
      cursor.expect('}');
    } else {
      cursor.skip_value();
    }
  }
  cursor.expect('}');
  return f;
}

}  // namespace

void check_aggregate(Checker& check, const fnr::sweep::SweepCell& cell,
                     const std::string& agg_json, std::uint64_t round_cap) {
  const std::string at = "aggregate of " + where(cell);
  AggFields f;
  try {
    f = parse_agg(agg_json);
  } catch (const std::exception& error) {
    check.expect(false, at + ": unparsable: " + error.what());
    return;
  }
  check.expect(f.trials == cell.trials && f.successes + f.failures == f.trials,
               at + ": successes + failures != trials");
  if (f.successes > 0) {
    check.expect(f.min <= f.median && f.median <= f.p90 && f.p90 <= f.p95 &&
                     f.p95 <= f.max,
                 at + ": rounds quantiles out of order");
    check.expect(f.min >= 1.0, at + ": a meeting at round 0 (starts "
                                    "must be distinct)");
    check.expect(f.max <= static_cast<double>(round_cap),
                 at + ": max rounds " + std::to_string(f.max) +
                     " above the round cap " + std::to_string(round_cap));
  }
  if (cell.gather.has_value() &&
      cell.gather->kind == fnr::sim::Gathering::Quorum) {
    const double q = static_cast<double>(cell.gather->quorum);
    check.expect(f.mean_gathered >= q * f.success_rate,
                 at + ": mean_gathered below quorum x success_rate");
  }
}

std::string json_field(const std::string& json, const std::string& name) {
  fnr::JsonCursor cursor(json, "frame");
  cursor.expect('{');
  bool first = true;
  while (!cursor.peek_is('}')) {
    if (!first) cursor.expect(',');
    first = false;
    const std::string field = cursor.parse_string();
    cursor.expect(':');
    if (field == name) return cursor.capture_value();
    cursor.skip_value();
  }
  return {};
}

}  // namespace perfbench
