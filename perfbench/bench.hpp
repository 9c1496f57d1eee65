// Shared pieces of the benchmark driver: the output checks and the fnrd
// client session. Everything here calls fnr_core through its public
// headers only; the checks recompute what they verify with their own code
// (degree counts, BFS, JSON field reads) rather than trusting the library.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "service/client.hpp"
#include "sim/neighbor_table.hpp"
#include "sweep/spec.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Collects failed checks. A run is correct when none failed; each
/// failure is also printed to stderr as it happens.
class Checker {
 public:
  void expect(bool ok, const std::string& what);
  [[nodiscard]] bool ok() const { return failures_ == 0; }

 private:
  std::uint64_t failures_ = 0;
};

/// Graph output: handshake sum, minimum degree >= 1, connectivity (BFS),
/// torus 4-regular, hypercube log2(n)-regular, and the vertex count equal
/// to the family's rounding of the requested size.
void check_graph(Checker& check, const fnr::sweep::SweepCell& cell,
                 const fnr::graph::Graph& g);

/// NeighborTable output: for every v, port p and u = neighbors(v)[p],
/// neighbors(u)[rev[v][p]] == v and ids[v][p] == id_of(u).
void check_table(Checker& check, const fnr::graph::Graph& g,
                 const fnr::sim::NeighborTable& table);

/// Bytes the table holds (vectors' element storage plus per-vertex
/// vector headers), computed from its sizes rather than measured.
[[nodiscard]] std::uint64_t table_bytes(const fnr::sim::NeighborTable& table);

/// Aggregate output: successes + failures == trials, min <= median <= p90
/// <= p95 <= max, 1 <= min and max <= round_cap when any trial met, and
/// mean_gathered >= q * success_rate on quorum cells.
void check_aggregate(Checker& check, const fnr::sweep::SweepCell& cell,
                     const std::string& agg_json, std::uint64_t round_cap);

/// The value bytes of a top-level field of a JSON object, verbatim.
[[nodiscard]] std::string json_field(const std::string& json,
                                     const std::string& name);

/// One served campaign as the client saw it.
struct ServedCampaign {
  double submit_s = 0.0;        ///< SUBMIT sent -> "submitted" frame
  double stream_s = 0.0;        ///< STREAM sent -> "end" frame
  double report_s = 0.0;        ///< REPORT sent -> "report" frame
  double first_result_s = 0.0;  ///< SUBMIT sent -> first cell frame
  double campaign_s = 0.0;      ///< SUBMIT sent -> "report" frame
  std::uint64_t frames = 0;     ///< every frame received
  std::uint64_t bytes_in = 0;   ///< frame payloads plus length prefixes
  std::vector<std::string> cell_keys;  ///< cell frames' keys, in order
  std::string end_state;
  std::string report;  ///< the merged report JSON, verbatim
};

/// A connection to the fnrd started for this run.
class ServedSession {
 public:
  /// Connects, retrying until the daemon's socket accepts or `timeout_s`
  /// passes (then throws).
  ServedSession(const std::string& socket_path, double timeout_s);

  /// SUBMIT, then STREAM to the end frame, then REPORT, on this
  /// connection.
  [[nodiscard]] ServedCampaign run(const std::string& campaign,
                                   const std::string& spec_text);

 private:
  std::unique_ptr<fnr::service::Connection> connection_;
};

/// User plus system CPU seconds of process `pid`, from /proc/<pid>/stat.
[[nodiscard]] double process_cpu_s(long pid);
/// Peak resident set (VmHWM) of process `pid` in MiB.
[[nodiscard]] double process_peak_rss_mb(long pid);

}  // namespace perfbench
