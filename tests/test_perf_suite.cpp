// Tests for the perf_suite baseline harness: the emitted BENCH_smpst.json
// must parse as JSON, carry the advertised schema version, and publish a
// positive, finite speedup for every (family, algorithm, p) cell — the
// properties the cross-commit perf trajectory depends on.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <sstream>
#include <string>

#include "bench_util/cli.hpp"
#include "bench_util/perf_suite.hpp"
#include "gen/registry.hpp"
#include "model/cost_model.hpp"

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
        EXPECT_GT(run.timing.median_s, 0.0);
        EXPECT_EQ(run.timing.repetitions, 2u);
      }
    }

    std::ostringstream json;
    write_perf_suite_json(result, json);
    EXPECT_TRUE(JsonChecker(json.str()).valid()) << "seed=" << seed;
  }
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

// The blocked-backend sweep: one PerfStorageRun per budget percentage, all
// slowdowns finite and positive, the 100% run at least as cache-friendly as
// the starved run, and the emitted JSON (with the additive "storage"
// section) still strictly valid.
TEST(PerfSuite, StorageSweepReportsHitRatePerBudget) {
  PerfSuiteConfig cfg;
  cfg.families = {"random-nlogn"};
  cfg.n = 2048;
  cfg.threads = {1};
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

  std::ostringstream json;
  write_perf_suite_json(result, json);
  const std::string doc = json.str();
  EXPECT_TRUE(JsonChecker(doc).valid()) << doc;
  EXPECT_NE(doc.find("\"storage\": ["), std::string::npos);
  EXPECT_NE(doc.find("\"hit_rate\""), std::string::npos);
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
  for (const char* key : {"\"stub_s\"", "\"traversal_s\"", "\"fallback_s\"",
                          "\"tm_measured\"", "\"tm_formula\""}) {
    EXPECT_NE(json.str().find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace smpst::bench
