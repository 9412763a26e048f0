// Reproducible performance baseline harness (`bench/perf_suite`).
//
// Runs the paper's four algorithm columns — sequential BFS (the baseline the
// paper claims speedup over), Bader–Cong, level-synchronous parallel BFS,
// and Shiloach–Vishkin — over a configurable set of graph families and
// thread counts, reports median-of-k wall times plus speedup versus
// sequential BFS and versus the fastest one-thread forest (best_seq), and
// serializes everything into a machine-readable,
// schema-versioned `BENCH_smpst.json` so perf claims can be diffed across
// commits (docs/BENCHMARKING.md).
//
// It is also the figure driver: every Fig. 3/4 panel is one `--families=…
// --n=… --threads=…` command line (README). Lives in bench_util (not bench/)
// so tests can drive the suite in-process and so it composes with the rest
// of the harness: the failpoint spec grammar of the chaos tools.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "bench_util/cli.hpp"
#include "bench_util/stats.hpp"
#include "graph/graph.hpp"

namespace smpst::bench {

/// Version of the BENCH_smpst.json layout. Bump on any field rename,
/// removal, or semantic change; additions of new fields do not require a
/// bump (consumers must ignore unknown keys).
/// v2: optional top-level "serving" section (an embedded ext_net_load
/// summary: offered-load sweep, goodput, shed rate, tail latency) so the
/// serving-path baseline can be diffed alongside the algorithm columns.
inline constexpr int kPerfSuiteSchemaVersion = 2;

struct PerfSuiteConfig {
  /// Graph families to measure (names from gen::make_family). The default is
  /// the paper-representative subset covering regular (torus), random,
  /// mesh-like, geographic, and degenerate-chain structure.
  std::vector<std::string> families = {"torus-rowmajor", "random-nlogn",
                                       "2d60", "geo-flat", "chain-seq"};
  VertexId n = 1 << 15;
  std::vector<std::int64_t> threads = {1, 2, 4};
  std::size_t repeats = 5;  ///< samples per timing (median-of-k)
  std::uint64_t seed = 0x5eed;
  bool run_sv = true;  ///< SV is slow on degenerate inputs; can be skipped
  bool run_parallel_bfs = true;
  /// Direction-optimizing parallel BFS column ("parallel_bfs_dir",
  /// BfsDirection::kAuto). The plain "parallel_bfs" column stays kPushOnly so
  /// it keeps measuring the pre-hybrid behaviour and the pair isolates the
  /// push↔pull heuristic's effect.
  bool run_dir = true;
  bool pin_threads = false;  ///< opt-in worker affinity (ThreadPoolOptions)
  /// Interleave the generated CSR arrays across NUMA nodes before measuring.
  /// The generators build single-threaded, so without this every page of a
  /// shared read-only graph sits on the builder's node. No-op on single-node
  /// hosts (this is why the default is on).
  bool numa_interleave = true;

  /// Non-empty enables per-phase tracing and writes a Chrome trace_event
  /// file here when the suite finishes (docs/OBSERVABILITY.md).
  std::string trace_path;

  /// Failpoint spec list ("site=spec;..."), armed for the whole suite run —
  /// lets the chaos options compose with measurement (e.g. measuring the
  /// perf cost of delay-injected steals). Empty = untouched.
  std::string failpoint_spec;

  /// Opt-in out-of-core sweep: write each family's CSR to an SMPSTCSR file
  /// and re-run the sequential BFS column over the blocked backend
  /// (storage/blocked_graph.hpp) at each cache-budget percentage of the CSR
  /// payload, reporting block-cache hit rate and slowdown versus the
  /// in-memory sequential baseline. Off by default: it adds disk I/O to a
  /// timing run, so the resident columns stay untouched unless asked.
  bool storage_sweep = false;
  std::vector<std::int64_t> storage_budget_percents = {100, 50, 10};
  std::size_t storage_block_bytes = 1 << 16;
  /// Directory for the temporary CSR files; empty = the system temp dir.
  std::string storage_dir;
};

/// One timed (algorithm, thread-count) cell.
struct PerfRun {
  std::string algo;  ///< "bader_cong" | "parallel_bfs" | "parallel_bfs_dir"
                     ///< | "sv"
  std::size_t p = 1;
  TimingStats timing;
  double speedup_vs_seq_bfs = 0.0;   ///< seq median / this median
  double speedup_vs_best_seq = 0.0;  ///< best_seq median / this median

  // Observability column (from one instrumented, untimed run).
  // Bader–Cong only; zero elsewhere.
  std::uint64_t steals = 0;
  std::uint64_t steal_attempts = 0;
  std::uint64_t duplicate_expansions = 0;
  std::uint64_t sleep_episodes = 0;
  /// RMWs on the shared pending counter, summed over workers.
  std::uint64_t pending_updates = 0;
  /// Component roots claimed after the stub's, summed over workers.
  std::uint64_t roots_claimed = 0;
  bool fallback_triggered = false;
  double load_imbalance = 0.0;
  double stub_s = 0.0;  ///< TraversalStats phase times
  double traversal_s = 0.0;
  double fallback_s = 0.0;
  /// Measured T_M (TraversalStats::max_thread_accesses) beside the paper's
  /// closed form model::bader_cong_cost(n, m, p).mem_accesses.
  std::uint64_t tm_measured = 0;
  double tm_formula = 0.0;
  /// SV's iterations, or those of Bader–Cong's fallback; zero elsewhere.
  std::uint64_t sv_iterations = 0;
  // parallel_bfs columns only; zero elsewhere. pull_levels stays zero for
  // the kPushOnly column by construction.
  std::uint64_t pull_levels = 0;
  std::uint64_t direction_switches = 0;
  std::uint64_t solo_levels = 0;  ///< levels worker 0 expanded alone
  std::uint64_t barriers = 0;     ///< SpinBarrier episodes of one call
};

/// One blocked-backend cell of the storage sweep: sequential BFS, then
/// Bader–Cong at the largest thread count, with the block cache capped at
/// `budget_fraction` of the CSR payload. Cache counters cover the BFS
/// repeats only.
struct PerfStorageRun {
  double budget_fraction = 1.0;  ///< of the CSR payload bytes
  std::size_t budget_bytes = 0;
  std::size_t block_bytes = 0;
  TimingStats timing;
  double slowdown_vs_resident = 0.0;  ///< blocked median / resident median
  double hit_rate = 0.0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  /// (hits + misses) / (repetitions * n): block reads per BFS-expanded
  /// vertex, lock-free hits and pins alike.
  double reads_per_vertex = 0.0;
  /// Bader–Cong over the same cache at p = bader_cong_p, the largest
  /// thread count of the suite: where workers contend for the shard locks.
  std::size_t bader_cong_p = 0;
  TimingStats bader_cong;
  /// Blocked Bader–Cong median / resident Bader–Cong median at that p.
  double bader_cong_slowdown_vs_resident = 0.0;
};

struct PerfFamilyResult {
  std::string family;
  VertexId n = 0;
  EdgeId m = 0;
  std::uint64_t components = 0;
  TimingStats seq_bfs;  ///< the denominator of every speedup_vs_seq_bfs
  /// The fastest validated one-thread forest timed for this family: seq_bfs,
  /// or parallel_bfs_dir at p=1 when that cell ran and was faster. The
  /// denominator of every speedup_vs_best_seq.
  std::string best_seq_algo = "seq_bfs";
  double best_seq_median_s = 0.0;
  std::vector<PerfRun> runs;
  std::uint64_t csr_bytes = 0;  ///< on-disk payload; non-zero iff swept
  std::vector<PerfStorageRun> storage;  ///< empty unless storage_sweep
};

struct PerfSuiteResult {
  PerfSuiteConfig config;
  std::size_t host_hardware_threads = 0;  ///< CPU_COUNT of the allowed mask
  std::size_t host_numa_nodes = 0;        ///< nodes among the allowed CPUs
  /// Worker pin attempts that failed across every pool the suite created
  /// (support/cpu.hpp pin semantics). Non-zero means some timing ran
  /// unpinned even though --pin was requested.
  std::uint64_t pin_failures = 0;
  /// True when the CSR arrays were actually mbind-interleaved (multi-node
  /// host, config.numa_interleave, and the kernel accepted).
  bool csr_interleaved = false;
  std::int64_t generated_unix_ms = 0;
  std::vector<PerfFamilyResult> families;

  /// Optional serving-path measurement: the verbatim JSON object written by
  /// `bench/ext_net_load --json` (docs/SERVICE.md). Empty = section omitted.
  /// Embedded raw, not re-parsed — the load generator owns that layout.
  std::string serving_json;
};

/// Reads the suite flags: --families --scale (tiny|small|medium|large, a
/// preset for --n) --n --threads --repeats --seed --no-sv --no-pbfs
/// --no-dir --pin --no-interleave --trace --failpoints --storage
/// --storage-budgets (percent list) --storage-block --storage-dir. `--out`
/// is left to the caller (it names a file, not a measurement).
PerfSuiteConfig perf_suite_config_from_cli(const Cli& cli);

/// Runs every (family, algorithm, p) cell, validating each algorithm's
/// forest once per cell. Progress lines ("# family=... p=...") go to
/// `progress`. Throws on invalid config (unknown family, empty thread list,
/// a thread count below 1: std::invalid_argument before any pool is built).
PerfSuiteResult run_perf_suite(const PerfSuiteConfig& config,
                               std::ostream& progress);

/// Serializes the result as the BENCH_smpst.json document (schema above;
/// layout documented in docs/BENCHMARKING.md). Always emits finite numbers.
void write_perf_suite_json(const PerfSuiteResult& result, std::ostream& os);

/// write_perf_suite_json to `path`; returns false on I/O failure.
bool write_perf_suite_json_file(const PerfSuiteResult& result,
                                const std::string& path);

}  // namespace smpst::bench
