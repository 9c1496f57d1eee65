// Sweep-campaign driver: expands a declarative multi-axis spec into a
// deterministic cell grid and runs it — sharded, checkpointed, resumable.
// A thin client of the campaign core (src/campaign/campaign.hpp — see it
// for the determinism contract; docs/PERFORMANCE.md has the spec format):
// the same Campaign object the fnrd daemon serves, driven batch-style.
//
// SIGINT/SIGTERM cancel the campaign at the next cell boundary: the
// in-flight cell finishes, its checkpoint line is flushed, and the process
// exits with 128+signal after printing the resume command — nothing is
// ever torn mid-write by an interactive ^C.
//
// Flags:
//   --spec=NAME|PATH   predefined spec name (see --list) or spec-file path
//   --list             list predefined specs and exit
//   --list-programs    list the program registry (label, capabilities,
//                      description) and exit
//   --list-scenarios   list the scenario registry and exit
//   --cells            print the expanded cell grid (keys) and exit
//   --shard=I/OF       run cells with index % OF == I (default 0/1)
//   --checkpoint=PATH  append-only JSONL checkpoint; "auto" (default) picks
//                      sweep_<spec>[_shardI-OF].jsonl; empty disables
//   --resume           skip cells already in the checkpoint (fresh runs
//                      truncate an existing checkpoint instead)
//   --max-cells=N      stop after N newly-executed cells (CI interrupt)
//   --merge=P1,P2,...  merge shard checkpoints into the final report and
//                      exit (requires --spec for the grid; all cells must
//                      be covered)
//   --out=PATH         merged JSON report; "auto" (default) picks
//                      sweep_<spec>[_shardI-OF].json; empty skips; only
//                      written when the (shard's) campaign is complete
//   --trials=N         override the spec's per-cell trial count
//   --jobs=N           concurrent cells (executor worker pool; default 1,
//                      0 = hardware threads). Checkpoints, callbacks, and
//                      merged JSON are byte-identical for every value —
//                      results flush in canonical grid order regardless
//                      of completion order
//   --threads=N        trial-runner pool size *within* one cell
//                      (0 = hardware threads at --jobs=1, 1 at --jobs>1;
//                      see docs/PERFORMANCE.md before setting both)
//   --batch=N          lock-step SoA batch size (0/1 = scalar path); the
//                      kernel is bit-exact, so merged JSON is byte-identical
//                      either way (faulty cells always run scalar)
//   --csv / --json     also print the report to stdout
//   --quiet            suppress per-cell progress lines
#include <atomic>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "campaign/campaign.hpp"
#include "campaign/executor.hpp"
#include "sweep/engine.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

// Signal handling: the handler only forwards to Campaign::cancel (one
// relaxed atomic store — async-signal-safe) and records which signal
// fired; all reporting happens on the main thread after run() returns.
std::atomic<fnr::campaign::Campaign*> g_active{nullptr};
volatile std::sig_atomic_t g_signal = 0;

extern "C" void handle_cancel_signal(int sig) {
  g_signal = sig;
  if (auto* campaign = g_active.load(std::memory_order_relaxed))
    campaign->cancel();
}

/// Parses --shard=I/OF.
void parse_shard(const std::string& text, fnr::sweep::SweepOptions* options) {
  const auto slash = text.find('/');
  FNR_CHECK_MSG(slash != std::string::npos && slash > 0 &&
                    slash + 1 < text.size(),
                "--shard expects I/OF (e.g. 0/4), got '" << text << "'");
  char* end = nullptr;
  const unsigned long index = std::strtoul(text.c_str(), &end, 10);
  FNR_CHECK_MSG(end == text.c_str() + slash,
                "--shard index is not an integer in '" << text << "'");
  const unsigned long count = std::strtoul(text.c_str() + slash + 1, &end, 10);
  FNR_CHECK_MSG(*end == '\0' && count >= 1 && index < count &&
                    count <= 1u << 20,
                "--shard expects I in [0, OF), got '" << text << "'");
  options->shard_index = static_cast<std::uint32_t>(index);
  options->shard_count = static_cast<std::uint32_t>(count);
}

std::string shard_suffix(const fnr::sweep::SweepOptions& options) {
  if (options.shard_count == 1) return "";
  return "_shard" + std::to_string(options.shard_index) + "-" +
         std::to_string(options.shard_count);
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  FNR_CHECK_MSG(out.good(), "cannot open '" << path << "' for writing");
  out << content << "\n";
  out.flush();
  FNR_CHECK_MSG(out.good(), "write to '" << path << "' failed");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fnr;
  try {
    if (bench::handle_registry_listings(argc, argv)) return 0;
    Cli cli(argc, argv);
    const std::string spec_arg = cli.get_string("spec", "");
    const bool list = cli.get_flag("list");
    const bool cells_only = cli.get_flag("cells");
    const std::string shard_arg = cli.get_string("shard", "0/1");
    std::string checkpoint = cli.get_string("checkpoint", "auto");
    const bool resume = cli.get_flag("resume");
    const auto max_cells = cli.get_int("max-cells", 0);
    FNR_CHECK_MSG(max_cells >= 0, "--max-cells must be >= 0");
    const std::string merge = cli.get_string("merge", "");
    std::string out = cli.get_string("out", "auto");
    const auto trials = cli.get_int("trials", 0);
    FNR_CHECK_MSG(trials >= 0 && trials <= 100'000'000,
                  "--trials must be in [0, 1e8], got " << trials);
    const auto threads = cli.get_int("threads", 0);
    FNR_CHECK_MSG(threads >= 0 && threads <= 4096,
                  "--threads must be in [0, 4096], got " << threads);
    const auto jobs = cli.get_int("jobs", 1);
    FNR_CHECK_MSG(jobs >= 0 && jobs <= 4096,
                  "--jobs must be in [0, 4096], got " << jobs);
    const auto batch = cli.get_int("batch", 0);
    FNR_CHECK_MSG(batch >= 0 && batch <= 1'000'000,
                  "--batch must be in [0, 1e6], got " << batch);
    const bool csv = cli.get_flag("csv");
    const bool json = cli.get_flag("json");
    const bool quiet = cli.get_flag("quiet");
    cli.reject_unknown();

    if (list) {
      std::cout << "predefined sweep specs:\n";
      for (const auto& [name, text] : sweep::predefined_specs()) {
        const auto spec = sweep::parse_spec(text);
        std::cout << "  " << name << " — " << sweep::expand(spec).size()
                  << " cells, " << spec.trials << " trials each\n";
      }
      return 0;
    }

    FNR_CHECK_MSG(!spec_arg.empty(),
                  "--spec=NAME|PATH is required (see --list)");
    sweep::SweepSpec spec = sweep::find_spec(spec_arg);
    if (trials > 0) spec.trials = static_cast<std::uint64_t>(trials);

    if (cells_only) {
      for (const auto& cell : sweep::expand(spec))
        std::cout << cell.index << "\t" << cell.key() << "\n";
      return 0;
    }

    sweep::SweepOptions options;
    options.threads = static_cast<unsigned>(threads);
    options.jobs = static_cast<unsigned>(jobs);
    parse_shard(shard_arg, &options);
    options.resume = resume;
    options.max_cells = static_cast<std::uint64_t>(max_cells);
    options.batch = static_cast<std::uint64_t>(batch);
    if (!quiet) options.progress = &std::cout;
    if (checkpoint == "auto")
      checkpoint = "sweep_" + spec.name + shard_suffix(options) + ".jsonl";
    options.checkpoint_path = checkpoint;
    if (out == "auto")
      out = "sweep_" + spec.name + shard_suffix(options) + ".json";

    if (!merge.empty()) {
      // Merge mode: combine shard checkpoints into the full-campaign
      // report; no cells are executed.
      std::vector<std::map<std::string, sweep::CheckpointEntry>> checkpoints;
      std::string path;
      std::istringstream paths(merge);
      while (std::getline(paths, path, ','))
        if (!path.empty()) checkpoints.push_back(sweep::load_checkpoint(path));
      FNR_CHECK_MSG(!checkpoints.empty(), "--merge lists no checkpoints");
      const auto results = sweep::results_from_checkpoints(spec, checkpoints);
      const std::string report = sweep::to_json(spec, results);
      if (json) std::cout << report << "\n";
      if (csv) std::cout << sweep::to_csv(results);
      if (!out.empty()) {
        write_file(out, report);
        std::cout << "wrote " << out << " (" << results.size()
                  << " cells, merged from " << checkpoints.size()
                  << " checkpoints)\n";
      }
      return 0;
    }

    campaign::Campaign run(spec, options);
    g_active.store(&run, std::memory_order_relaxed);
    std::signal(SIGINT, handle_cancel_signal);
    std::signal(SIGTERM, handle_cancel_signal);
    const auto result = run.run();
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    g_active.store(nullptr, std::memory_order_relaxed);
    std::cout << "sweep '" << spec.name << "' shard " << options.shard_index
              << "/" << options.shard_count << ": " << result.executed
              << " executed (" << campaign::resolve_jobs(options.jobs)
              << " jobs, "
              << result.split_cells << " split, " << result.shards
              << " units), " << result.restored << " restored, "
              << result.discarded << " discarded, graph cache "
              << result.graph_cache_hits << " hits / "
              << result.graph_cache_misses << " misses / "
              << result.graph_cache_evictions << " evictions\n";

    if (result.cancelled && g_signal != 0) {
      std::cout << "interrupted by signal " << g_signal
                << "; checkpoint flushed through the last finished cell; "
                << "resume with --resume --checkpoint="
                << options.checkpoint_path << "\n";
      return 128 + static_cast<int>(g_signal);
    }
    if (!result.complete) {
      std::cout << "campaign incomplete (" << result.cells.size()
                << " cells finished); resume with --resume --checkpoint="
                << options.checkpoint_path << "\n";
      return 0;
    }
    const std::string report = sweep::to_json(spec, result.cells);
    if (json) std::cout << report << "\n";
    if (csv) std::cout << sweep::to_csv(result.cells);
    if (!out.empty()) {
      write_file(out, report);
      std::cout << "wrote " << out << " (" << result.cells.size()
                << " cells)\n";
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "sweep: " << error.what() << "\n";
    return 1;
  }
}
