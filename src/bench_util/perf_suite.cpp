#include "bench_util/perf_suite.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include "core/bader_cong.hpp"
#include "core/bfs.hpp"
#include "core/parallel_bfs.hpp"
#include "core/shiloach_vishkin.hpp"
#include "core/validate.hpp"
#include "gen/registry.hpp"
#include "graph/stats.hpp"
#include "model/cost_model.hpp"
#include "storage/blocked_graph.hpp"
#include "storage/csr_file.hpp"
#include "obs/trace.hpp"
#include "sched/thread_pool.hpp"
#include "support/assert.hpp"
#include "support/cpu.hpp"
#include "support/failpoint.hpp"
#include "support/topology.hpp"

namespace smpst::bench {

namespace {

/// Wall times can quantize to ~0 on tiny instances; dividing by the clamp
/// instead keeps every published speedup finite and positive.
constexpr double kMinSeconds = 1e-12;

double safe_speedup(double baseline_s, double this_s) {
  return (baseline_s < kMinSeconds ? kMinSeconds : baseline_s) /
         (this_s < kMinSeconds ? kMinSeconds : this_s);
}

VertexId scale_to_n(const std::string& scale) {
  if (scale == "tiny") return 1 << 12;
  if (scale == "small") return 1 << 15;
  if (scale == "medium") return 1 << 17;
  if (scale == "large") return 1 << 20;
  throw std::invalid_argument("unknown --scale '" + scale +
                              "' (tiny|small|medium|large)");
}

/// JSON string escaping for the keys/values we emit (family names, algo
/// names, failpoint specs). Control characters become \u00XX.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// JSON has no NaN/Infinity literals; non-finite values (which the suite
/// should never produce) degrade to 0 rather than corrupting the document.
std::string json_double(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

void write_timing(std::ostream& os, const TimingStats& t,
                  const char* indent) {
  os << "{\n"
     << indent << "  \"median_s\": " << json_double(t.median_s) << ",\n"
     << indent << "  \"min_s\": " << json_double(t.min_s) << ",\n"
     << indent << "  \"mean_s\": " << json_double(t.mean_s) << ",\n"
     << indent << "  \"stddev_s\": " << json_double(t.stddev_s) << ",\n"
     << indent << "  \"repetitions\": " << t.repetitions << "\n"
     << indent << "}";
}

PerfRun measure_bader_cong(const Graph& g, ThreadPool& pool, std::size_t p,
                           const PerfSuiteConfig& config, double seq_median) {
  BaderCongOptions opts;
  opts.seed = config.seed;
  SpanningForest forest;
  PerfRun run;
  run.algo = "bader_cong";
  run.p = p;
  run.timing = time_repeated(
      [&] { forest = bader_cong_spanning_tree(g, pool, opts); },
      config.repeats);
  const auto report = validate_spanning_forest(g, forest);
  SMPST_CHECK(report.ok, report.error.c_str());
  run.speedup_vs_seq_bfs = safe_speedup(seq_median, run.timing.median_s);

  // One extra instrumented run for the observability column (kept out of the
  // timed loop: stats collection is cheap but not free).
  TraversalStats stats;
  opts.stats = &stats;
  forest = bader_cong_spanning_tree(g, pool, opts);
  SMPST_CHECK(validate_spanning_forest(g, forest).ok,
              "instrumented bader_cong run produced an invalid forest");
  run.steals = stats.total_steals();
  for (const auto& t : stats.per_thread) {
    run.steal_attempts += t.steal_attempts;
    run.sleep_episodes += t.sleep_episodes;
    run.pending_updates += t.pending_updates;
    run.roots_claimed += t.roots_claimed;
  }
  run.duplicate_expansions = stats.duplicate_expansions;
  run.fallback_triggered = stats.fallback_triggered;
  run.load_imbalance = stats.load_imbalance();
  run.stub_s = stats.stub_seconds;
  run.traversal_s = stats.traversal_seconds;
  run.fallback_s = stats.fallback_seconds;
  run.tm_measured = stats.max_thread_accesses();
  run.tm_formula =
      model::bader_cong_cost(g.num_vertices(), g.num_edges(), p).mem_accesses;
  return run;
}

/// Shared by the "parallel_bfs" (kPushOnly: the pre-hybrid behaviour) and
/// "parallel_bfs_dir" (kAuto) columns; the pair isolates the
/// direction-optimizing heuristic's effect. Stats collection is free for
/// this algorithm (counters are maintained unconditionally and copied out
/// once), so the timed runs are also the instrumented ones.
PerfRun measure_parallel_bfs(const Graph& g, ThreadPool& pool, std::size_t p,
                             const PerfSuiteConfig& config, double seq_median,
                             BfsDirection direction, const char* algo_name) {
  ParallelBfsOptions opts;
  opts.direction = direction;
  ParallelBfsStats stats;
  opts.stats = &stats;
  SpanningForest forest;
  PerfRun run;
  run.algo = algo_name;
  run.p = p;
  run.timing = time_repeated(
      [&] { forest = parallel_bfs_spanning_tree(g, pool, opts); },
      config.repeats);
  const auto report = validate_spanning_forest(g, forest);
  SMPST_CHECK(report.ok, report.error.c_str());
  run.speedup_vs_seq_bfs = safe_speedup(seq_median, run.timing.median_s);
  run.pull_levels = stats.pull_levels;
  run.direction_switches = stats.direction_switches;
  return run;
}

PerfRun measure_sv(const Graph& g, ThreadPool& pool, std::size_t p,
                   const PerfSuiteConfig& config, double seq_median) {
  SvOptions opts;
  SvStats stats;
  opts.stats = &stats;
  SpanningForest forest;
  PerfRun run;
  run.algo = "sv";
  run.p = p;
  run.timing = time_repeated(
      [&] { forest = sv_spanning_tree(g, pool, opts); }, config.repeats);
  const auto report = validate_spanning_forest(g, forest);
  SMPST_CHECK(report.ok, report.error.c_str());
  run.speedup_vs_seq_bfs = safe_speedup(seq_median, run.timing.median_s);
  run.sv_iterations = stats.iterations;
  return run;
}

/// The blocked-backend sweep for one family: serialize the CSR once, then
/// time sequential BFS through the block cache at each budget percentage.
/// Sequential BFS is the purest cache workload of the columns — one thread
/// streaming adjacency in vertex order — so its slowdown isolates the
/// storage layer from scheduling effects.
void run_storage_sweep(const Graph& g, PerfFamilyResult& fam,
                       const PerfSuiteConfig& config, std::ostream& progress) {
  namespace fs = std::filesystem;
  const fs::path dir = config.storage_dir.empty()
                           ? fs::temp_directory_path()
                           : fs::path(config.storage_dir);
  const fs::path file = dir / ("smpst_perf_" + fam.family + ".csr");
  storage::write_csr_file(g, file.string());
  const auto header = storage::read_csr_header(file.string());
  fam.csr_bytes = header.payload_bytes();
  // Budgets are shares of the file's blocks, header included: a share of the
  // payload alone leaves a block without a frame at 100% whenever the
  // payload is a whole number of blocks.
  const std::uint64_t block_bytes = config.storage_block_bytes;
  const std::uint64_t file_block_bytes =
      (header.file_bytes + block_bytes - 1) / block_bytes * block_bytes;

  for (const std::int64_t pct : config.storage_budget_percents) {
    SMPST_CHECK(pct >= 1 && pct <= 100,
                "perf_suite: --storage-budgets entries must be in [1, 100]");
    storage::BlockCacheOptions copts;
    copts.block_bytes = config.storage_block_bytes;
    copts.budget_bytes = std::max<std::size_t>(
        copts.block_bytes,
        static_cast<std::size_t>(file_block_bytes *
                                 static_cast<std::uint64_t>(pct) / 100));
    const storage::BlockedGraph bg(file.string(), copts);

    PerfStorageRun run;
    run.budget_fraction = static_cast<double>(pct) / 100.0;
    run.budget_bytes = copts.budget_bytes;
    run.block_bytes = copts.block_bytes;
    // The warm-up and the validation pin blocks too; count only the timed
    // repeats.
    SpanningForest forest = bfs_spanning_tree(bg);
    const auto before = bg.cache_stats();
    run.timing = time_repeated([&] { forest = bfs_spanning_tree(bg); },
                               config.repeats, /*warmup=*/0);
    const auto after = bg.cache_stats();
    const auto report = validate_spanning_forest(bg, forest);
    SMPST_CHECK(report.ok, report.error.c_str());
    run.slowdown_vs_resident =
        safe_speedup(run.timing.median_s, fam.seq_bfs.median_s);
    run.hits = after.hits - before.hits;
    run.misses = after.misses - before.misses;
    run.evictions = after.evictions - before.evictions;
    run.hit_rate = storage::BlockCache::Stats{run.hits, run.misses}.hit_rate();
    const std::uint64_t expanded = run.timing.repetitions * fam.n;
    run.pins_per_vertex = static_cast<double>(run.hits + run.misses) /
                          static_cast<double>(expanded);
    progress << "#   storage budget=" << pct
             << "% hit_rate=" << json_double(run.hit_rate)
             << " pins_per_vertex=" << json_double(run.pins_per_vertex)
             << " slowdown=" << json_double(run.slowdown_vs_resident) << "\n";
    fam.storage.push_back(run);
  }
  std::error_code ec;
  fs::remove(file, ec);  // best-effort: a stale temp file is not a failure
}

}  // namespace

PerfSuiteConfig perf_suite_config_from_cli(const Cli& cli) {
  PerfSuiteConfig cfg;

  const std::string families = cli.get_string("families", "");
  if (!families.empty()) {
    cfg.families.clear();
    std::size_t start = 0;
    while (start <= families.size()) {
      const std::size_t comma = families.find(',', start);
      const std::size_t end = comma == std::string::npos ? families.size()
                                                         : comma;
      if (end > start) {
        cfg.families.push_back(families.substr(start, end - start));
      }
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
  }

  cfg.n = scale_to_n(cli.get_string("scale", "small"));
  cfg.n = static_cast<VertexId>(cli.get_int("n", cfg.n));
  cfg.threads = cli.get_int_list("threads", cfg.threads);
  cfg.repeats = static_cast<std::size_t>(cli.get_int("repeats", 5));
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed", 0x5eed));
  cfg.run_sv = !cli.get_bool("no-sv", false);
  cfg.run_parallel_bfs = !cli.get_bool("no-pbfs", false);
  cfg.run_dir = !cli.get_bool("no-dir", false);
  cfg.pin_threads = cli.get_bool("pin", false);
  cfg.numa_interleave = !cli.get_bool("no-interleave", false);
  cfg.trace_path = cli.get_string("trace", "");
  cfg.failpoint_spec = cli.get_string("failpoints", "");
  cfg.storage_sweep = cli.get_bool("storage", false);
  cfg.storage_budget_percents =
      cli.get_int_list("storage-budgets", cfg.storage_budget_percents);
  cfg.storage_block_bytes = static_cast<std::size_t>(cli.get_int(
      "storage-block", static_cast<std::int64_t>(cfg.storage_block_bytes)));
  cfg.storage_dir = cli.get_string("storage-dir", "");
  return cfg;
}

PerfSuiteResult run_perf_suite(const PerfSuiteConfig& config,
                               std::ostream& progress) {
  SMPST_CHECK(!config.families.empty(), "perf_suite: no families given");
  SMPST_CHECK(!config.threads.empty(), "perf_suite: no thread counts given");
  SMPST_CHECK(config.repeats >= 1, "perf_suite: repeats must be >= 1");
  for (const auto& family : config.families) {
    if (!gen::is_family(family)) {
      throw std::invalid_argument("perf_suite: unknown family '" + family +
                                  "'");
    }
  }
  for (const std::int64_t p : config.threads) {
    if (p < 1) {
      throw std::invalid_argument(
          "perf_suite: thread counts must be >= 1, got " + std::to_string(p));
    }
  }

  if (!config.trace_path.empty()) {
    obs::trace::label_current_thread("perf-suite-driver");
    obs::trace::enable();
  }
  if (!config.failpoint_spec.empty()) {
    fail::enable_from_spec_list(config.failpoint_spec);
  }

  PerfSuiteResult result;
  result.config = config;
  result.host_hardware_threads = hardware_threads();
  const CpuTopology topo = CpuTopology::discover();
  result.host_numa_nodes = topo.num_nodes;
  result.generated_unix_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();

  for (const auto& family : config.families) {
    PerfFamilyResult fam;
    fam.family = family;
    const Graph g = gen::make_family(family, config.n, config.seed);
    if (config.numa_interleave && topo.num_nodes > 1) {
      // The generator built the CSR single-threaded, so every page sits on
      // the builder's node; spread the shared read-only arrays before any
      // timing touches them. Both arrays must succeed to claim interleaved.
      const bool ok =
          interleave_memory(g.offsets().data(),
                            g.offsets().size() * sizeof(EdgeId)) &&
          interleave_memory(g.targets().data(),
                            g.targets().size() * sizeof(VertexId));
      result.csr_interleaved = ok;
      if (!ok) progress << "# numa: CSR interleave refused by the kernel\n";
    }
    const auto gstats = compute_stats(g);
    fam.n = g.num_vertices();
    fam.m = g.num_edges();
    fam.components = gstats.num_components;

    SpanningForest seq_forest;
    fam.seq_bfs = time_repeated(
        [&] { seq_forest = bfs_spanning_tree(g); }, config.repeats);
    SMPST_CHECK(validate_spanning_forest(g, seq_forest).ok,
                "sequential baseline produced an invalid forest");
    progress << "# family=" << family << " n=" << fam.n << " m=" << fam.m
             << " seq_bfs_median=" << json_double(fam.seq_bfs.median_s)
             << "s\n";

    for (const std::int64_t pi : config.threads) {
      const auto p = static_cast<std::size_t>(pi);
      ThreadPoolOptions pool_opts;
      pool_opts.pin_threads = config.pin_threads;
      ThreadPool pool(p, pool_opts);

      fam.runs.push_back(
          measure_bader_cong(g, pool, p, config, fam.seq_bfs.median_s));
      progress << "#   p=" << p << " bader_cong median="
               << json_double(fam.runs.back().timing.median_s) << "s speedup="
               << json_double(fam.runs.back().speedup_vs_seq_bfs) << "\n";

      if (config.run_parallel_bfs) {
        fam.runs.push_back(measure_parallel_bfs(g, pool, p, config,
                                                fam.seq_bfs.median_s,
                                                BfsDirection::kPushOnly,
                                                "parallel_bfs"));
      }
      if (config.run_dir) {
        fam.runs.push_back(measure_parallel_bfs(g, pool, p, config,
                                                fam.seq_bfs.median_s,
                                                BfsDirection::kAuto,
                                                "parallel_bfs_dir"));
        progress << "#   p=" << p << " parallel_bfs_dir median="
                 << json_double(fam.runs.back().timing.median_s)
                 << "s pull_levels=" << fam.runs.back().pull_levels << "\n";
      }
      if (config.run_sv) {
        fam.runs.push_back(
            measure_sv(g, pool, p, config, fam.seq_bfs.median_s));
      }
      // All regions have joined by now, so the count is exact for this pool.
      result.pin_failures += pool.pin_failures();
    }
    // Both candidates are validated one-thread forests timed in this
    // process, so the honest column needs no run of its own.
    fam.best_seq_median_s = fam.seq_bfs.median_s;
    for (const auto& run : fam.runs) {
      if (run.algo == "parallel_bfs_dir" && run.p == 1 &&
          run.timing.median_s < fam.best_seq_median_s) {
        fam.best_seq_algo = run.algo;
        fam.best_seq_median_s = run.timing.median_s;
      }
    }
    for (auto& run : fam.runs) {
      run.speedup_vs_best_seq =
          safe_speedup(fam.best_seq_median_s, run.timing.median_s);
    }
    progress << "#   best_seq=" << fam.best_seq_algo
             << " median=" << json_double(fam.best_seq_median_s) << "s\n";
    if (config.storage_sweep) {
      run_storage_sweep(g, fam, config, progress);
    }
    result.families.push_back(std::move(fam));
  }

  if (!config.trace_path.empty()) {
    std::size_t events = 0;
    if (obs::trace::write_chrome_trace_file(config.trace_path, &events)) {
      progress << "# trace: " << events << " events -> " << config.trace_path
               << "\n";
    } else {
      progress << "# trace: failed to write " << config.trace_path << "\n";
    }
  }
  if (!config.failpoint_spec.empty()) {
    fail::disable_all();  // leave the process clean for in-process callers
  }
  return result;
}

void write_perf_suite_json(const PerfSuiteResult& result, std::ostream& os) {
  const auto& cfg = result.config;
  os << "{\n"
     << "  \"schema_version\": " << kPerfSuiteSchemaVersion << ",\n"
     << "  \"benchmark\": \"smpst.perf_suite\",\n"
     << "  \"generated_unix_ms\": " << result.generated_unix_ms << ",\n"
     << "  \"host\": {\n"
     << "    \"hardware_threads\": " << result.host_hardware_threads << ",\n"
     << "    \"numa_nodes\": " << result.host_numa_nodes << ",\n"
     << "    \"pinned\": " << (cfg.pin_threads ? "true" : "false") << ",\n"
     << "    \"pin_failures\": " << result.pin_failures << ",\n"
     << "    \"csr_interleaved\": "
     << (result.csr_interleaved ? "true" : "false") << "\n"
     << "  },\n"
     << "  \"config\": {\n"
     << "    \"n\": " << cfg.n << ",\n"
     << "    \"repeats\": " << cfg.repeats << ",\n"
     << "    \"seed\": " << cfg.seed << ",\n"
     << "    \"failpoints\": \"" << json_escape(cfg.failpoint_spec) << "\",\n"
     << "    \"threads\": [";
  for (std::size_t i = 0; i < cfg.threads.size(); ++i) {
    os << (i == 0 ? "" : ", ") << cfg.threads[i];
  }
  os << "],\n"
     << "    \"families\": [";
  for (std::size_t i = 0; i < cfg.families.size(); ++i) {
    os << (i == 0 ? "" : ", ") << '"' << json_escape(cfg.families[i]) << '"';
  }
  os << "]\n"
     << "  },\n"
     << "  \"families\": [\n";

  for (std::size_t fi = 0; fi < result.families.size(); ++fi) {
    const auto& fam = result.families[fi];
    os << "    {\n"
       << "      \"family\": \"" << json_escape(fam.family) << "\",\n"
       << "      \"n\": " << fam.n << ",\n"
       << "      \"m\": " << fam.m << ",\n"
       << "      \"components\": " << fam.components << ",\n"
       << "      \"seq_bfs\": ";
    write_timing(os, fam.seq_bfs, "      ");
    os << ",\n"
       << "      \"best_seq\": {\n"
       << "        \"algo\": \"" << json_escape(fam.best_seq_algo) << "\",\n"
       << "        \"median_s\": " << json_double(fam.best_seq_median_s)
       << "\n"
       << "      },\n"
       << "      \"runs\": [\n";
    for (std::size_t ri = 0; ri < fam.runs.size(); ++ri) {
      const auto& run = fam.runs[ri];
      os << "        {\n"
         << "          \"algo\": \"" << json_escape(run.algo) << "\",\n"
         << "          \"p\": " << run.p << ",\n"
         << "          \"timing\": ";
      write_timing(os, run.timing, "          ");
      os << ",\n"
         << "          \"speedup_vs_seq_bfs\": "
         << json_double(run.speedup_vs_seq_bfs) << ",\n"
         << "          \"speedup_vs_best_seq\": "
         << json_double(run.speedup_vs_best_seq) << ",\n"
         << "          \"obs\": {\n"
         << "            \"steals\": " << run.steals << ",\n"
         << "            \"steal_attempts\": " << run.steal_attempts << ",\n"
         << "            \"duplicate_expansions\": "
         << run.duplicate_expansions << ",\n"
         << "            \"sleep_episodes\": " << run.sleep_episodes << ",\n"
         << "            \"pending_updates\": " << run.pending_updates << ",\n"
         << "            \"roots_claimed\": " << run.roots_claimed << ",\n"
         << "            \"fallback_triggered\": "
         << (run.fallback_triggered ? "true" : "false") << ",\n"
         << "            \"load_imbalance\": "
         << json_double(run.load_imbalance) << ",\n"
         << "            \"stub_s\": " << json_double(run.stub_s) << ",\n"
         << "            \"traversal_s\": " << json_double(run.traversal_s)
         << ",\n"
         << "            \"fallback_s\": " << json_double(run.fallback_s)
         << ",\n"
         << "            \"tm_measured\": " << run.tm_measured << ",\n"
         << "            \"tm_formula\": " << json_double(run.tm_formula)
         << ",\n"
         << "            \"sv_iterations\": " << run.sv_iterations << ",\n"
         << "            \"pull_levels\": " << run.pull_levels << ",\n"
         << "            \"direction_switches\": " << run.direction_switches
         << "\n"
         << "          }\n"
         << "        }" << (ri + 1 < fam.runs.size() ? "," : "") << "\n";
    }
    os << "      ]";
    if (!fam.storage.empty()) {
      // Additive section (schema stays v2): only emitted when the sweep ran,
      // so the resident-only document is byte-identical to before.
      os << ",\n"
         << "      \"csr_bytes\": " << fam.csr_bytes << ",\n"
         << "      \"storage\": [\n";
      for (std::size_t si = 0; si < fam.storage.size(); ++si) {
        const auto& srun = fam.storage[si];
        os << "        {\n"
           << "          \"budget_fraction\": "
           << json_double(srun.budget_fraction) << ",\n"
           << "          \"budget_bytes\": " << srun.budget_bytes << ",\n"
           << "          \"block_bytes\": " << srun.block_bytes << ",\n"
           << "          \"timing\": ";
        write_timing(os, srun.timing, "          ");
        os << ",\n"
           << "          \"slowdown_vs_resident\": "
           << json_double(srun.slowdown_vs_resident) << ",\n"
           << "          \"hit_rate\": " << json_double(srun.hit_rate)
           << ",\n"
           << "          \"hits\": " << srun.hits << ",\n"
           << "          \"misses\": " << srun.misses << ",\n"
           << "          \"evictions\": " << srun.evictions << ",\n"
           << "          \"pins_per_vertex\": "
           << json_double(srun.pins_per_vertex) << "\n"
           << "        }" << (si + 1 < fam.storage.size() ? "," : "") << "\n";
      }
      os << "      ]";
    }
    os << "\n    }" << (fi + 1 < result.families.size() ? "," : "") << "\n";
  }
  os << "  ]";
  if (!result.serving_json.empty()) {
    // Embed the ext_net_load summary verbatim; trim whitespace so the
    // document stays a single well-formed object.
    std::string serving = result.serving_json;
    while (!serving.empty() &&
           (serving.back() == '\n' || serving.back() == '\r' ||
            serving.back() == ' ')) {
      serving.pop_back();
    }
    os << ",\n  \"serving\": " << serving;
  }
  os << "\n}\n";
}

bool write_perf_suite_json_file(const PerfSuiteResult& result,
                                const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  write_perf_suite_json(result, out);
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace smpst::bench
