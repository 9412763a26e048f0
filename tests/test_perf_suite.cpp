// Tests for the perf_suite baseline harness: the emitted BENCH_smpst.json
// must parse as JSON, carry the advertised schema version, and publish a
// positive, finite speedup for every (family, algorithm, p) cell — the
// properties the cross-commit perf trajectory depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <sstream>
#include <string>

#include "bench_util/cli.hpp"
#include "bench_util/perf_suite.hpp"
#include "cc/connected_components.hpp"
#include "gen/registry.hpp"
#include "model/cost_model.hpp"
#include "storage/csr_file.hpp"

namespace smpst::bench {
namespace {

// ---------------------------------------------------------------------------
// Minimal strict JSON syntax checker (no document model): accepts exactly the
// RFC 8259 grammar, so NaN/Infinity tokens, trailing commas, or unbalanced
// brackets in the writer fail the test. Good enough to prove "parses".
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(
                    static_cast<unsigned char>(s_[pos_]))) return false;
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;
      }
      ++pos_;
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!digits()) return false;
    if (peek() == '.') { ++pos_; if (!digits()) return false; }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!digits()) return false;
    }
    return pos_ > start;
  }

  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_]))) ++pos_;
    return pos_ > start;
  }

  bool literal(const char* word) {
    for (const char* c = word; *c != '\0'; ++c, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *c) return false;
    }
    return true;
  }

  [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

PerfSuiteConfig tiny_config(std::uint64_t seed) {
  PerfSuiteConfig cfg;
  cfg.families = {"random-nlogn", "torus-rowmajor"};
  cfg.n = 512;
  cfg.threads = {1, 2, 4};
  cfg.repeats = 2;
  cfg.seed = seed;
  return cfg;
}

TEST(PerfSuite, JsonParsesAndSchemaVersionMatches) {
  std::ostringstream progress;
  const auto result = run_perf_suite(tiny_config(1), progress);
  std::ostringstream json;
  write_perf_suite_json(result, json);
  const std::string doc = json.str();

  EXPECT_TRUE(JsonChecker(doc).valid()) << doc;
  EXPECT_NE(doc.find("\"schema_version\": " +
                     std::to_string(kPerfSuiteSchemaVersion)),
            std::string::npos);
  EXPECT_NE(doc.find("\"benchmark\": \"smpst.perf_suite\""),
            std::string::npos);
  // JSON has no representation for these; the writer must never emit them.
  EXPECT_EQ(doc.find("nan"), std::string::npos);
  EXPECT_EQ(doc.find("inf"), std::string::npos);
}

// Property fuzz over seeds: every cell of every run must publish a positive,
// finite speedup at p in {1, 2, 4}, and the JSON must stay syntactically
// valid — run-to-run timing noise must never corrupt the document.
TEST(PerfSuite, SpeedupsPositiveAndFiniteAcrossSeeds) {
  for (const std::uint64_t seed : {7ULL, 99ULL, 2024ULL}) {
    std::ostringstream progress;
    const auto result = run_perf_suite(tiny_config(seed), progress);

    ASSERT_EQ(result.families.size(), 2u);
    for (const auto& fam : result.families) {
      EXPECT_GT(fam.n, 0u);
      EXPECT_GT(fam.seq_bfs.median_s, 0.0);
      // 3 thread counts x 4 algorithms (bader_cong, parallel_bfs,
      // parallel_bfs_dir, sv).
      ASSERT_EQ(fam.runs.size(), 12u) << fam.family;
      for (const auto& run : fam.runs) {
        EXPECT_TRUE(run.p == 1 || run.p == 2 || run.p == 4);
        EXPECT_GT(run.speedup_vs_seq_bfs, 0.0)
            << fam.family << " " << run.algo << " p=" << run.p;
        EXPECT_TRUE(std::isfinite(run.speedup_vs_seq_bfs))
            << fam.family << " " << run.algo << " p=" << run.p;
        EXPECT_GT(run.speedup_vs_best_seq, 0.0)
            << fam.family << " " << run.algo << " p=" << run.p;
        EXPECT_TRUE(std::isfinite(run.speedup_vs_best_seq))
            << fam.family << " " << run.algo << " p=" << run.p;
        EXPECT_GT(run.timing.median_s, 0.0);
        EXPECT_EQ(run.timing.repetitions, 2u);
      }
    }

    std::ostringstream json;
    write_perf_suite_json(result, json);
    EXPECT_TRUE(JsonChecker(json.str()).valid()) << "seed=" << seed;
  }
}

// best_seq is the faster of the two one-thread forests the suite timed, and
// every cell's speedup_vs_best_seq divides by it; without the p=1
// direction-optimizing cell, seq_bfs is the only candidate.
TEST(PerfSuite, BestSeqIsTheFasterOneThreadForest) {
  PerfSuiteConfig cfg;
  cfg.families = {"random-nlogn", "chain-seq"};
  cfg.n = 4096;
  cfg.threads = {2, 1};  // the p=1 cell comes last: the choice waits for it
  cfg.repeats = 2;
  cfg.seed = 5;
  cfg.run_sv = false;
  std::ostringstream progress;
  const auto result = run_perf_suite(cfg, progress);
  for (const auto& fam : result.families) {
    double dir_p1 = 0.0;
    for (const auto& run : fam.runs) {
      if (run.algo == "parallel_bfs_dir" && run.p == 1) {
        dir_p1 = run.timing.median_s;
      }
    }
    ASSERT_GT(dir_p1, 0.0) << fam.family;
    EXPECT_DOUBLE_EQ(fam.best_seq_median_s,
                     std::min(fam.seq_bfs.median_s, dir_p1))
        << fam.family;
    EXPECT_EQ(fam.best_seq_algo, fam.seq_bfs.median_s <= dir_p1
                                     ? "seq_bfs"
                                     : "parallel_bfs_dir")
        << fam.family;
    for (const auto& run : fam.runs) {
      EXPECT_DOUBLE_EQ(run.speedup_vs_best_seq,
                       fam.best_seq_median_s / run.timing.median_s)
          << fam.family << " " << run.algo << " p=" << run.p;
    }
  }
  std::ostringstream json;
  write_perf_suite_json(result, json);
  EXPECT_TRUE(JsonChecker(json.str()).valid());
  EXPECT_NE(json.str().find("\"best_seq\": {"), std::string::npos);
  EXPECT_NE(json.str().find("\"speedup_vs_best_seq\""), std::string::npos);

  cfg.run_dir = false;
  cfg.families = {"random-nlogn"};
  const auto no_dir = run_perf_suite(cfg, progress);
  EXPECT_EQ(no_dir.families[0].best_seq_algo, "seq_bfs");
  EXPECT_DOUBLE_EQ(no_dir.families[0].best_seq_median_s,
                   no_dir.families[0].seq_bfs.median_s);
}

TEST(PerfSuite, RejectsUnknownFamily) {
  PerfSuiteConfig cfg = tiny_config(1);
  cfg.families = {"no-such-family"};
  std::ostringstream progress;
  EXPECT_THROW(run_perf_suite(cfg, progress), std::invalid_argument);
}

// A negative count must be refused before the size_t cast turns it into a
// huge pool; the check runs before any family is generated or pool built.
TEST(PerfSuite, RejectsThreadCountBelowOne) {
  PerfSuiteConfig cfg = tiny_config(1);
  cfg.threads = {-1};
  std::ostringstream progress;
  EXPECT_THROW(run_perf_suite(cfg, progress), std::invalid_argument);
  EXPECT_TRUE(progress.str().empty()) << progress.str();
}

// Every family the registry cites for Fig. 3 or Fig. 4 runs through the suite
// with every column validated (run_perf_suite checks each forest) and a
// positive, finite speedup: no panel of the retired figure programs is lost.
TEST(PerfSuite, CoversEveryFigureFamily) {
  PerfSuiteConfig cfg;
  cfg.families.clear();
  for (const auto& spec : gen::families()) {
    if (spec.description.find("(Fig. ") != std::string::npos) {
      cfg.families.push_back(spec.name);
    }
  }
  // Fig. 3 (random-1.5n) and the ten Fig. 4 panels.
  ASSERT_EQ(cfg.families.size(), 11u);
  cfg.n = 1 << 10;
  cfg.threads = {1, 2};
  cfg.repeats = 1;
  cfg.seed = 3;
  std::ostringstream progress;
  const auto result = run_perf_suite(cfg, progress);
  ASSERT_EQ(result.families.size(), cfg.families.size());
  for (const auto& fam : result.families) {
    // 2 thread counts x 4 columns.
    ASSERT_EQ(fam.runs.size(), 8u) << fam.family;
    for (const auto& run : fam.runs) {
      EXPECT_GT(run.speedup_vs_seq_bfs, 0.0)
          << fam.family << " " << run.algo << " p=" << run.p;
      EXPECT_TRUE(std::isfinite(run.speedup_vs_seq_bfs))
          << fam.family << " " << run.algo << " p=" << run.p;
    }
  }
}

TEST(PerfSuite, CliRoundTrip) {
  const char* argv[] = {"perf_suite",      "--scale=tiny",
                        "--threads=1,2",   "--repeats=3",
                        "--families=ad3,chain-seq", "--no-sv", "--pin",
                        "--no-dir",        "--no-interleave"};
  const Cli cli(9, argv);
  const auto cfg = perf_suite_config_from_cli(cli);
  EXPECT_EQ(cfg.n, 4096u);
  EXPECT_EQ(cfg.threads, (std::vector<std::int64_t>{1, 2}));
  EXPECT_EQ(cfg.repeats, 3u);
  EXPECT_EQ(cfg.families, (std::vector<std::string>{"ad3", "chain-seq"}));
  EXPECT_FALSE(cfg.run_sv);
  EXPECT_TRUE(cfg.pin_threads);
  EXPECT_FALSE(cfg.run_dir);
  EXPECT_FALSE(cfg.numa_interleave);
  EXPECT_FALSE(cfg.storage_sweep);  // opt-in: off unless --storage
}

TEST(PerfSuite, StorageSweepCliFlags) {
  const char* argv[] = {"perf_suite", "--storage",
                        "--storage-budgets=100,25",
                        "--storage-block=4096"};
  const Cli cli(4, argv);
  const auto cfg = perf_suite_config_from_cli(cli);
  EXPECT_TRUE(cfg.storage_sweep);
  EXPECT_EQ(cfg.storage_budget_percents,
            (std::vector<std::int64_t>{100, 25}));
  EXPECT_EQ(cfg.storage_block_bytes, 4096u);
}

// Block reads one sequential BFS takes over a BlockedGraph of `g` with
// `block`-byte blocks, from the file layout alone: each vertex is expanded
// once, and neighbors(v) reads the offset pair's block (two when the pair
// straddles a boundary), then each block its target slice touches.
std::uint64_t reads_per_bfs(const Graph& g, std::uint64_t block) {
  const std::uint64_t n = g.num_vertices();
  const std::uint64_t targets_pos =
      storage::kCsrHeaderBytes + sizeof(EdgeId) * (n + 1);
  std::uint64_t reads = 0;
  for (std::uint64_t v = 0; v < n; ++v) {
    const std::uint64_t at = storage::kCsrHeaderBytes + sizeof(EdgeId) * v;
    reads += at / block == (at + 2 * sizeof(EdgeId) - 1) / block ? 1 : 2;
    const std::uint64_t lo = g.offsets()[v];
    const std::uint64_t hi = g.offsets()[v + 1];
    if (lo == hi) continue;
    reads += (targets_pos + sizeof(VertexId) * hi - 1) / block -
             (targets_pos + sizeof(VertexId) * lo) / block + 1;
  }
  return reads;
}

// The blocked-backend sweep: one PerfStorageRun per budget percentage, all
// slowdowns finite and positive, the 100% run at least as cache-friendly as
// the starved run, and the emitted JSON (with the additive "storage"
// section) still strictly valid. The counts cover the timed BFS repeats
// alone (no warm-up, no validation pass, no Bader–Cong): exactly `repeats`
// BFS runs' block reads, about two per vertex. Bader–Cong is timed at the
// largest thread count beside them.
TEST(PerfSuite, StorageSweepReportsHitRatePerBudget) {
  PerfSuiteConfig cfg;
  cfg.families = {"random-nlogn"};
  cfg.n = 2048;
  cfg.threads = {1, 2};
  cfg.repeats = 2;
  cfg.seed = 5;
  cfg.run_sv = false;
  cfg.run_parallel_bfs = false;
  cfg.run_dir = false;
  cfg.storage_sweep = true;
  cfg.storage_budget_percents = {100, 10};
  cfg.storage_block_bytes = 1 << 10;  // small blocks so 10% actually evicts
  std::ostringstream progress;
  const auto result = run_perf_suite(cfg, progress);

  ASSERT_EQ(result.families.size(), 1u);
  const auto& fam = result.families[0];
  EXPECT_GT(fam.csr_bytes, 0u);
  ASSERT_EQ(fam.storage.size(), 2u);
  const auto& full = fam.storage[0];
  const auto& starved = fam.storage[1];
  EXPECT_DOUBLE_EQ(full.budget_fraction, 1.0);
  EXPECT_DOUBLE_EQ(starved.budget_fraction, 0.1);
  EXPECT_LT(starved.budget_bytes, full.budget_bytes);
  for (const auto& srun : fam.storage) {
    EXPECT_GT(srun.slowdown_vs_resident, 0.0);
    EXPECT_TRUE(std::isfinite(srun.slowdown_vs_resident));
    EXPECT_GT(srun.hits + srun.misses, 0u);
    EXPECT_GE(srun.hit_rate, 0.0);
    EXPECT_LE(srun.hit_rate, 1.0);
  }
  // At full budget nothing is ever evicted; the starved cache must evict.
  EXPECT_EQ(full.evictions, 0u);
  EXPECT_GT(starved.evictions, 0u);
  EXPECT_GE(full.hit_rate, starved.hit_rate);
  // The untimed warm-up loaded every block the full budget ever needs.
  EXPECT_EQ(full.misses, 0u);

  const Graph g = gen::make_family("random-nlogn", cfg.n, cfg.seed);
  ASSERT_EQ(fam.n, g.num_vertices());
  const std::uint64_t per_bfs = reads_per_bfs(g, cfg.storage_block_bytes);
  for (const auto& srun : fam.storage) {
    EXPECT_EQ(srun.timing.repetitions, cfg.repeats);
    EXPECT_EQ(srun.hits + srun.misses, cfg.repeats * per_bfs);
    EXPECT_DOUBLE_EQ(srun.reads_per_vertex,
                     static_cast<double>(per_bfs) /
                         static_cast<double>(g.num_vertices()));
    EXPECT_GE(srun.reads_per_vertex, 2.0);
    EXPECT_LT(srun.reads_per_vertex, 2.5);
    EXPECT_EQ(srun.bader_cong_p, 2u);
    EXPECT_EQ(srun.bader_cong.repetitions, cfg.repeats);
    EXPECT_GT(srun.bader_cong_slowdown_vs_resident, 0.0);
    EXPECT_TRUE(std::isfinite(srun.bader_cong_slowdown_vs_resident));
  }

  std::ostringstream json;
  write_perf_suite_json(result, json);
  const std::string doc = json.str();
  EXPECT_TRUE(JsonChecker(doc).valid()) << doc;
  EXPECT_NE(doc.find("\"storage\": ["), std::string::npos);
  EXPECT_NE(doc.find("\"hit_rate\""), std::string::npos);
  EXPECT_NE(doc.find("\"reads_per_vertex\""), std::string::npos);
  EXPECT_NE(doc.find("\"bader_cong_slowdown_vs_resident\""),
            std::string::npos);
}

// A payload that is a whole number of blocks leaves the 64-byte header one
// block of its own. The budget is a share of the file's blocks, so at 100%
// every block has a frame and the timed repeats neither miss nor evict.
TEST(PerfSuite, FullBudgetNeverEvictsWhenPayloadFillsWholeBlocks) {
  PerfSuiteConfig cfg;
  cfg.families = {"chain-seq"};
  cfg.n = 2048;  // payload 8(n+1) + 4·2(n-1) = 16n bytes: 32 blocks of 1 KiB
  cfg.threads = {1};
  cfg.repeats = 2;
  cfg.seed = 5;
  cfg.run_sv = false;
  cfg.run_parallel_bfs = false;
  cfg.run_dir = false;
  cfg.storage_sweep = true;
  cfg.storage_budget_percents = {100};
  cfg.storage_block_bytes = 1 << 10;
  std::ostringstream progress;
  const auto result = run_perf_suite(cfg, progress);

  ASSERT_EQ(result.families.size(), 1u);
  const auto& fam = result.families[0];
  ASSERT_EQ(fam.csr_bytes % cfg.storage_block_bytes, 0u);
  ASSERT_EQ(fam.storage.size(), 1u);
  const auto& full = fam.storage[0];
  EXPECT_EQ(full.budget_bytes, fam.csr_bytes + cfg.storage_block_bytes);
  EXPECT_GT(full.hits, 0u);
  EXPECT_EQ(full.evictions, 0u);
  EXPECT_EQ(full.misses, 0u);
}

// Every bader_cong cell emits the roots its workers claimed after the
// stub's component: one per other component on a run without fallback.
TEST(PerfSuite, BaderCongCellsEmitRootsClaimed) {
  PerfSuiteConfig cfg;
  cfg.families = {"2d60"};
  cfg.n = 4096;
  cfg.threads = {1};
  cfg.repeats = 1;
  cfg.seed = 3;
  cfg.run_sv = false;
  cfg.run_parallel_bfs = false;
  cfg.run_dir = false;
  std::ostringstream progress;
  const auto result = run_perf_suite(cfg, progress);
  ASSERT_EQ(result.families.size(), 1u);
  const auto& fam = result.families[0];
  const auto components =
      cc::cc_union_find(gen::make_family("2d60", cfg.n, cfg.seed)).count;
  ASSERT_GT(components, 1u);
  bool saw_bc = false;
  for (const auto& run : fam.runs) {
    if (run.algo != "bader_cong") continue;
    saw_bc = true;
    ASSERT_FALSE(run.fallback_triggered);  // p=1 never falls back
    EXPECT_EQ(run.roots_claimed, components - 1);
  }
  EXPECT_TRUE(saw_bc);

  std::ostringstream json;
  write_perf_suite_json(result, json);
  EXPECT_NE(json.str().find("\"roots_claimed\": " +
                            std::to_string(components - 1)),
            std::string::npos);
}

// A Bader–Cong cell whose run fell back to Shiloach–Vishkin reports the
// fallback's SV iterations. Delayed publishes hold a worker's children out
// of reach, and the injected wake-ups let the idle worker sleep out its
// patience at once.
TEST(PerfSuite, BaderCongCellsEmitFallbackSvIterations) {
  PerfSuiteConfig cfg;
  cfg.families = {"2d60"};
  cfg.n = 4096;
  cfg.threads = {2};
  cfg.repeats = 1;
  cfg.seed = 5;
  cfg.run_sv = false;
  cfg.run_parallel_bfs = false;
  cfg.run_dir = false;
  cfg.failpoint_spec =
      "sched.termination.sleep=wake;sched.work_queue.pop=25%delay(2)";
  std::ostringstream progress;
  const auto result = run_perf_suite(cfg, progress);
  ASSERT_EQ(result.families.size(), 1u);
  ASSERT_EQ(result.families[0].runs.size(), 1u);
  const PerfRun& run = result.families[0].runs[0];
  ASSERT_TRUE(run.fallback_triggered);
  EXPECT_GT(run.sv_iterations, 0u);

  std::ostringstream json;
  write_perf_suite_json(result, json);
  EXPECT_NE(json.str().find("\"sv_iterations\": " +
                            std::to_string(run.sv_iterations)),
            std::string::npos);
}

// The direction-optimizing column must carry its observability fields: the
// push-only column never pulls by construction, and both defaults are on.
// The bader_cong cells carry their phase times and measured T_M beside the
// closed form.
TEST(PerfSuite, DirectionColumnPresentWithStats) {
  PerfSuiteConfig cfg;
  cfg.families = {"random-nlogn"};
  cfg.n = 4096;
  cfg.threads = {1, 2};
  cfg.repeats = 1;
  cfg.seed = 11;
  std::ostringstream progress;
  const auto result = run_perf_suite(cfg, progress);
  ASSERT_EQ(result.families.size(), 1u);
  const auto& fam = result.families[0];
  bool saw_push = false;
  bool saw_dir = false;
  bool saw_bc_p1 = false;
  for (const auto& run : fam.runs) {
    if (run.algo == "bader_cong") {
      // Phase times and T_M come from the instrumented run.
      EXPECT_GT(run.traversal_s, 0.0);
      EXPECT_GE(run.stub_s, 0.0);
      EXPECT_GE(run.fallback_s, 0.0);
      EXPECT_DOUBLE_EQ(run.tm_formula,
                       model::bader_cong_cost(fam.n, fam.m, run.p)
                           .mem_accesses);
      if (run.p == 1) {
        // One worker, no races: it dequeues each of the n vertices once and
        // scans each of the 2m arcs once.
        saw_bc_p1 = true;
        EXPECT_EQ(run.tm_measured, fam.n + 2 * fam.m);
      }
    }
    if (run.algo == "parallel_bfs") {
      saw_push = true;
      EXPECT_EQ(run.pull_levels, 0u) << "push-only column pulled";
    }
    if (run.algo.starts_with("parallel_bfs")) {
      // The root's level is thin, and the group meets at least to stop.
      EXPECT_GE(run.solo_levels, 1u) << run.algo;
      EXPECT_GE(run.barriers, 1u) << run.algo;
    }
    if (run.algo == "parallel_bfs_dir") {
      saw_dir = true;
      // random-nlogn at this size is low-diameter and dense enough that the
      // heuristic must pull at least once.
      EXPECT_GE(run.pull_levels, 1u);
    }
  }
  EXPECT_TRUE(saw_push);
  EXPECT_TRUE(saw_dir);
  EXPECT_TRUE(saw_bc_p1);

  std::ostringstream json;
  write_perf_suite_json(result, json);
  for (const char* key :
       {"\"stub_s\"", "\"traversal_s\"", "\"fallback_s\"", "\"tm_measured\"",
        "\"tm_formula\"", "\"solo_levels\"", "\"barriers\""}) {
    EXPECT_NE(json.str().find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace smpst::bench
