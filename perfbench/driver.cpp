// perfbench_driver — runs one benchmark workload against fnr_core and
// prints one JSON result line (see README.md in this directory).
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --t0-ns NS [--socket PATH --fnrd-pid PID]
//
// --t0-ns is the CLOCK_MONOTONIC instant (ns) at which the launcher
// started this run's processes; set-up time is measured from it. --socket
// and --fnrd-pid name the fnrd the launcher started (served workload, and
// every traced run).
//
// Untraced runs repeat whole campaigns for --seconds and report medians of
// the end-to-end metrics; traced runs drive the same cells through each
// layer's public functions once and time every call.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "campaign/campaign.hpp"
#include "core/params.hpp"
#include "runner/trial_runner.hpp"
#include "scenario/run.hpp"
#include "scenario/scenario.hpp"
#include "sim/scheduler.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace {

using namespace perfbench;
using fnr::campaign::CellResult;
using fnr::sweep::SweepCell;
using fnr::sweep::SweepSpec;

// --- workloads ---------------------------------------------------------------

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// `count` distinct spec seeds in [1, 10^6] derived from the workload seed.
std::string seed_list(std::uint64_t seed, std::size_t count) {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; seeds.size() < count; ++i) {
    const std::uint64_t s = 1 + splitmix(seed * 1000 + i) % 1'000'000;
    if (std::find(seeds.begin(), seeds.end(), s) == seeds.end())
      seeds.push_back(s);
  }
  std::string out;
  for (std::size_t i = 0; i < seeds.size(); ++i)
    out += (i ? ", " : "") + std::to_string(seeds[i]);
  return out;
}

// Programs and scenarios are always listed by name (never `*`), so a later
// registry entry cannot change a workload. Why each workload exists is in
// README.md.
std::string pair_kernel_spec(std::uint64_t seed) {
  return "name = pair-kernel\n"
         "trials = 2000\n"
         "programs = whiteboard, whiteboard+doubling, no-whiteboard, "
         "random-walk\n"
         "scenarios = sync-pair\n"
         "topologies = near-regular:deg=64, torus, hypercube, "
         "watts-strogatz:k=6:beta=0.1\n"
         "sizes = 2048\n"
         "seeds = " + seed_list(seed, 1) + "\n";
}

std::string large_graphs_spec(std::uint64_t seed) {
  return "name = large-graphs\n"
         "trials = 4\n"
         "programs = whiteboard, whiteboard+doubling, no-whiteboard\n"
         "scenarios = sync-pair\n"
         "topologies = near-regular:deg=16, torus, hypercube, "
         "random-geometric\n"
         "sizes = 131072\n"
         "seeds = " + seed_list(seed, 1) + "\n";
}

// radius-factor=2: at the default 1.2 the q=16 cells on random-geometric
// graphs take either ~400 or ~2050 rounds per trial, so the campaign's
// cost swung by +-20% with the seed.
std::string swarm_gather_spec(std::uint64_t seed) {
  return "name = swarm-gather\n"
         "trials = 4\n"
         "programs = explore-rally\n"
         "scenarios = swarm-quorum\n"
         "agents = 256\n"
         "gathers = quorum?q=64, quorum?q=16\n"
         "topologies = torus, random-geometric:radius-factor=2\n"
         "sizes = 1024\n"
         "seeds = " + seed_list(seed, 1) + "\n";
}

std::string served_small_cells_spec(std::uint64_t seed) {
  return "name = served-small-cells\n"
         "trials = 4\n"
         "programs = whiteboard, whiteboard+doubling, no-whiteboard, "
         "random-walk, explore-rally, wait-and-explore, wait-and-sweep\n"
         "scenarios = sync-pair, delayed-pair, ambush-pair, "
         "trio-neighborhood, pair-anywhere, swarm-gather\n"
         "topologies = ring, torus, hypercube, near-regular:deg=6, "
         "watts-strogatz:k=3:beta=0.2\n"
         "sizes = 16, 32, 64\n"
         "seeds = " + seed_list(seed, 6) + "\n";
}

struct Workload {
  const char* name;
  unsigned jobs;  ///< executor pool size (cells in flight)
  bool served;    ///< campaigns go through fnrd rather than in process
  std::string (*spec)(std::uint64_t seed);
};

const Workload kWorkloads[] = {
    {"pair-kernel", 1, false, pair_kernel_spec},
    {"large-graphs", 1, false, large_graphs_spec},
    {"swarm-gather", 1, false, swarm_gather_spec},
    {"served-small-cells", 2, true, served_small_cells_spec},
};

// --- arguments and output ----------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  long long t0_ns = 0;
  std::string socket;
  long fnrd_pid = 0;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    FNR_CHECK_MSG(i + 1 < argc, "flag " << flag << " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::stoull(value);
    else if (flag == "--seconds") args.seconds = std::stod(value);
    else if (flag == "--trace") args.trace = value == "1";
    else if (flag == "--t0-ns") args.t0_ns = std::stoll(value);
    else if (flag == "--socket") args.socket = value;
    else if (flag == "--fnrd-pid") args.fnrd_pid = std::stol(value);
    else FNR_CHECK_MSG(false, "unknown flag " << flag);
  }
  FNR_CHECK_MSG(args.seconds > 0, "--seconds must be positive");
  return args;
}

double since_t0(long long t0_ns) {
  const long long now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            Clock::now().time_since_epoch())
                            .count();
  return static_cast<double>(now - t0_ns) * 1e-9;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
       << value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile.
double percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

struct Usage {
  double cpu_s;
  double peak_rss_mb;
};

Usage self_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return {secs(ru.ru_utime) + secs(ru.ru_stime),
          static_cast<double>(ru.ru_maxrss) / 1024.0};
}

// --- in-process campaigns ----------------------------------------------------

struct InProcessCampaign {
  fnr::campaign::CampaignRun run;
  std::string report;
  double campaign_s = 0.0;      ///< Campaign construction + run + to_json
  double first_result_s = 0.0;  ///< construction -> first on_cell
  double report_s = 0.0;        ///< to_json alone
};

InProcessCampaign run_in_process(const SweepSpec& spec, unsigned jobs,
                                 const std::string& checkpoint) {
  fnr::campaign::CampaignOptions options;
  options.threads = 1;
  options.jobs = jobs;
  options.checkpoint_path = checkpoint;
  InProcessCampaign out;
  bool first = true;
  const auto start = Clock::now();
  fnr::campaign::Campaign campaign(spec, options);
  out.run = campaign.run([&](const CellResult&) {
    if (first) out.first_result_s = seconds_since(start);
    first = false;
  });
  const auto report_start = Clock::now();
  out.report = fnr::campaign::to_json(spec, out.run.cells);
  out.report_s = seconds_since(report_start);
  out.campaign_s = seconds_since(start);
  return out;
}

std::uint64_t failed_cells(const std::vector<CellResult>& cells) {
  return static_cast<std::uint64_t>(std::count_if(
      cells.begin(), cells.end(), [](const CellResult& r) { return !r.ok; }));
}

// --- the graph pass: checks, and in traced runs the layer timings ------------

struct LayerTimes {
  double graph_build_s = 0, table_build_s = 0, span_s = 0, trial_s = 0,
         aggregate_s = 0;
  std::uint64_t table_bytes = 0, rounds = 0;
  std::vector<double> trial_us;
};

/// Rebuilds every distinct graph of the grid (first-appearance order),
/// checks it and its NeighborTable, and checks each cell's aggregate from
/// `reference` against the round cap on that graph. When `traced`, also
/// times each layer call and re-runs each cell through the trial span and
/// through this benchmark's own trial loop, requiring byte-equal aggregates.
LayerTimes graph_pass(const std::vector<SweepCell>& cells,
                      const std::vector<CellResult>& reference, bool traced,
                      Checker& check) {
  LayerTimes times;
  std::map<std::string, const CellResult*> by_key;
  for (const CellResult& r : reference) by_key[r.cell.key()] = &r;
  std::vector<std::string> order;
  std::map<std::string, std::vector<const SweepCell*>> groups;
  for (const SweepCell& cell : cells) {
    auto& group = groups[cell.graph_key()];
    if (group.empty()) order.push_back(cell.graph_key());
    group.push_back(&cell);
  }
  const fnr::runner::TrialRunner one_thread(fnr::runner::RunnerOptions{1});

  for (const std::string& key : order) {
    const std::vector<const SweepCell*>& group = groups[key];
    const SweepCell& first = *group.front();
    auto start = Clock::now();
    const fnr::graph::Graph g = first.topology.build(first.n, first.seed);
    times.graph_build_s += seconds_since(start);
    check_graph(check, first, g);
    {
      start = Clock::now();
      const fnr::sim::NeighborTable table(g);
      times.table_build_s += seconds_since(start);
      times.table_bytes += table_bytes(table);
      check_table(check, g, table);
    }
    // One warm scratch per graph: a scratch must not outlive its graph.
    fnr::sim::SchedulerScratch scratch;
    for (const SweepCell* cell : group) {
      const auto it = by_key.find(cell->key());
      check.expect(it != by_key.end(), "no result for cell " + cell->key());
      if (it == by_key.end() || !it->second->ok) continue;
      const std::string& want = it->second->agg_json;
      fnr::scenario::Scenario scen =
          fnr::scenario::find_scenario(cell->scenario);
      if (cell->k.has_value()) scen.num_agents = *cell->k;
      if (cell->gather.has_value()) scen.gathering = *cell->gather;
      const std::uint64_t cap = fnr::scenario::auto_round_cap(
          g, scen, cell->program, fnr::core::Params::practical());
      check_aggregate(check, *cell, want, cap);
      if (!traced) continue;

      fnr::scenario::ScenarioOptions options;
      options.seed = cell->seed;
      options.fault = cell->fault;
      start = Clock::now();
      const auto span = fnr::scenario::run_scenario_trial_span(
          scen, cell->program, g, options, 0, cell->trials, one_thread, 0);
      times.span_s += seconds_since(start);
      start = Clock::now();
      const std::string span_json = span.aggregate().to_json();
      times.aggregate_s += seconds_since(start);
      check.expect(span_json == want,
                   "trial span aggregate differs from Campaign::run's for " +
                       cell->key());

      // The trial loop: same per-trial seed and stream-11 instance draw as
      // the span, one run_scenario call timed per trial, on a scratch
      // warmed for this graph and model outside the timing.
      (void)scratch.scheduler_for(g, cell->program.def().model);
      fnr::runner::TrialAccumulator mine;
      for (std::uint64_t t = 0; t < cell->trials; ++t) {
        const std::uint64_t seed = fnr::runner::trial_seed(cell->seed, t);
        fnr::Rng instance_rng(seed, /*stream=*/11);
        const auto placement =
            fnr::scenario::draw_instance(scen, g, instance_rng);
        fnr::scenario::ScenarioOptions trial_options = options;
        trial_options.seed = seed;
        start = Clock::now();
        const auto report = fnr::scenario::run_scenario(
            scen, cell->program, g, placement, trial_options, scratch);
        const double dt = seconds_since(start);
        times.trial_s += dt;
        times.trial_us.push_back(dt * 1e6);
        times.rounds += report.run.rounds;
        mine.add(fnr::scenario::to_outcome(t, seed, report.run));
      }
      check.expect(mine.aggregate().to_json() == want,
                   "trial loop aggregate differs from Campaign::run's for " +
                       cell->key());
    }
  }
  return times;
}

void check_served(Checker& check, const ServedCampaign& served,
                  const std::vector<SweepCell>& cells) {
  check.expect(served.end_state == "done",
               "served campaign ended '" + served.end_state + "'");
  bool in_order = served.cell_keys.size() == cells.size();
  for (std::size_t i = 0; in_order && i < cells.size(); ++i)
    in_order = served.cell_keys[i] == cells[i].key();
  check.expect(in_order, "STREAM delivered " +
                             std::to_string(served.cell_keys.size()) +
                             " cell frames for " +
                             std::to_string(cells.size()) +
                             " cells, or out of canonical order");
}

// --- the two modes -----------------------------------------------------------

int run_untraced(const Args& args, const Workload& wl) {
  const std::string text = wl.spec(args.seed);
  const SweepSpec spec = fnr::sweep::parse_spec(text);
  const std::vector<SweepCell> cells = fnr::sweep::expand(spec);
  std::optional<ServedSession> session;
  if (wl.served) session.emplace(args.socket, 60.0);
  const double setup_s = since_t0(args.t0_ns);

  Checker check;
  std::vector<double> campaign_s, first_result_s, cpu_s;
  std::vector<CellResult> reference;
  std::string first_report;
  std::uint64_t campaigns = 0;
  double peak_rss_mb = 0;
  const auto start = Clock::now();
  while (campaigns == 0 || seconds_since(start) < args.seconds) {
    std::string report;
    if (wl.served) {
      const double cpu_before = process_cpu_s(args.fnrd_pid);
      std::string name = "c";
      name += std::to_string(campaigns);
      const ServedCampaign served = session->run(name, text);
      cpu_s.push_back(process_cpu_s(args.fnrd_pid) - cpu_before);
      campaign_s.push_back(served.campaign_s);
      first_result_s.push_back(served.first_result_s);
      check_served(check, served, cells);
      report = served.report;
    } else {
      const double cpu_before = self_usage().cpu_s;
      InProcessCampaign c = run_in_process(spec, wl.jobs, "campaign.jsonl");
      cpu_s.push_back(self_usage().cpu_s - cpu_before);
      campaign_s.push_back(c.campaign_s);
      first_result_s.push_back(c.first_result_s);
      check.expect(c.run.complete, "campaign did not complete");
      report = std::move(c.report);
      if (campaigns == 0) reference = std::move(c.run.cells);
    }
    if (campaigns == 0) {
      // Peak RSS through the first campaign: fnrd keeps every finished
      // campaign's frames and report, so its peak later grows with the
      // number of campaigns the run happened to fit in.
      peak_rss_mb = wl.served ? process_peak_rss_mb(args.fnrd_pid)
                              : self_usage().peak_rss_mb;
      first_report = report;
    }
    check.expect(report == first_report,
                 "campaign " + std::to_string(campaigns) +
                     " report differs from the run's first");
    ++campaigns;
  }

  if (wl.served) {
    // The served report must equal an in-process report at one job.
    InProcessCampaign c = run_in_process(spec, 1, "reference.jsonl");
    check.expect(c.report == first_report,
                 "served REPORT differs from the in-process report");
    reference = std::move(c.run.cells);
  }
  graph_pass(cells, reference, /*traced=*/false, check);

  print_result(check.ok(), campaigns * cells.size(),
               campaigns * failed_cells(reference),
               {{"setup_s", setup_s, "s"},
                {"campaign_s", median(campaign_s), "s"},
                {"first_result_s", median(first_result_s), "s"},
                {"cpu_s", median(cpu_s), "s"},
                {"peak_rss_mb", peak_rss_mb, "MiB"}});
  std::cerr << "perfbench: " << wl.name << " seed " << args.seed << ": "
            << campaigns << " campaigns of " << cells.size()
            << " cells; campaign_s";
  for (const double s : campaign_s) std::cerr << " " << s;
  std::cerr << "\n";
  return 0;
}

int run_traced(const Args& args, const Workload& wl) {
  Checker check;
  const std::string text = wl.spec(args.seed);
  auto start = Clock::now();
  const SweepSpec spec = fnr::sweep::parse_spec(text);
  const std::vector<SweepCell> cells = fnr::sweep::expand(spec);
  const double expand_s = seconds_since(start);

  InProcessCampaign traced = run_in_process(spec, wl.jobs, "trace.jsonl");
  check.expect(traced.run.complete, "traced campaign did not complete");
  const auto& run = traced.run;

  double cell_s = 0;
  for (const auto& [key, entry] : fnr::campaign::load_checkpoint("trace.jsonl"))
    cell_s += entry.seconds;

  // Checkpoint layer: the line the campaign appends per cell, written and
  // flushed the same way, timed per cell.
  double checkpoint_s = 0;
  std::uint64_t checkpoint_bytes = 0;
  {
    std::ofstream out("checkpoint-replay.jsonl", std::ios::trunc);
    for (const CellResult& r : run.cells) {
      start = Clock::now();
      out << fnr::campaign::checkpoint_line(r) << "\n" << std::flush;
      checkpoint_s += seconds_since(start);
      checkpoint_bytes += fnr::campaign::checkpoint_line(r).size() + 1;
    }
    check.expect(out.good(), "checkpoint replay write failed");
  }

  std::string one_job_report = traced.report;
  if (wl.jobs != 1) {
    InProcessCampaign sequential = run_in_process(spec, 1, "sequential.jsonl");
    check.expect(sequential.report == traced.report,
                 "report at " + std::to_string(wl.jobs) +
                     " jobs differs from the report at one job");
    one_job_report = sequential.report;
  }

  const LayerTimes layers = graph_pass(cells, run.cells, /*traced=*/true, check);
  check.expect(layers.rounds == run.total_rounds,
               "trial loop rounds " + std::to_string(layers.rounds) +
                   " != CampaignRun.total_rounds " +
                   std::to_string(run.total_rounds));

  ServedSession session(args.socket, 60.0);
  const ServedCampaign served = session.run("trace", text);
  check_served(check, served, cells);
  check.expect(served.report == one_job_report,
               "served REPORT differs from the in-process report");

  const double lookups =
      static_cast<double>(run.graph_cache_hits + run.graph_cache_misses);
  const double layer_total_s = expand_s + layers.graph_build_s +
                               layers.span_s + layers.aggregate_s +
                               checkpoint_s + traced.report_s;
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  print_result(
      check.ok(), cells.size() + served.cell_keys.size(),
      2 * failed_cells(run.cells),
      {{"graph.build_s", layers.graph_build_s, "s"},
       {"graph.builds", count(run.graph_cache_misses), "count"},
       {"graph.cache_hits", count(run.graph_cache_hits), "count"},
       {"graph.lookups", lookups, "count"},
       {"graph.cache_hit_ratio",
        lookups > 0 ? count(run.graph_cache_hits) / lookups : 0.0, "ratio"},
       {"sim.table_build_s", layers.table_build_s, "s"},
       {"sim.table_mb", count(layers.table_bytes) / (1024.0 * 1024.0),
        "MiB-computed"},
       {"sim.rounds", count(run.total_rounds), "count"},
       {"sim.rounds_per_s", count(layers.rounds) / layers.trial_s, "1/s"},
       {"scenario.span_s", layers.span_s, "s"},
       {"scenario.trial_s", layers.trial_s, "s"},
       {"scenario.span_setup_s", layers.span_s - layers.trial_s, "s"},
       {"scenario.trial_us_p50", percentile(layers.trial_us, 50), "us"},
       {"scenario.trial_us_p99", percentile(layers.trial_us, 99), "us"},
       {"scenario.trial_samples", count(layers.trial_us.size()), "count"},
       {"runner.aggregate_s", layers.aggregate_s, "s"},
       {"campaign.expand_s", expand_s, "s"},
       {"campaign.checkpoint_s", checkpoint_s, "s"},
       {"campaign.checkpoint_bytes", count(checkpoint_bytes), "bytes"},
       {"campaign.report_s", traced.report_s, "s"},
       {"campaign.report_bytes", count(traced.report.size()), "bytes"},
       {"campaign.traced_s", traced.campaign_s, "s"},
       {"executor.units", count(run.shards), "count"},
       {"executor.split_cells", count(run.split_cells), "count"},
       {"executor.cell_s", cell_s, "s"},
       {"executor.overhead_s", wl.jobs * traced.campaign_s - cell_s, "s"},
       {"service.submit_s", served.submit_s, "s"},
       {"service.stream_s", served.stream_s, "s"},
       {"service.report_s", served.report_s, "s"},
       {"service.frames", count(served.frames), "count"},
       {"net.bytes_in", count(served.bytes_in), "bytes"},
       {"trace.layer_total_s", layer_total_s, "s"}});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    for (const Workload& wl : kWorkloads)
      if (args.workload == wl.name)
        return args.trace ? run_traced(args, wl) : run_untraced(args, wl);
    FNR_CHECK_MSG(false, "unknown workload '" << args.workload << "'");
  } catch (const std::exception& error) {
    std::cerr << "perfbench_driver: " << error.what() << "\n";
  }
  return 1;
}
