// Tests for the benchmark harness utilities: CLI parsing, timing statistics,
// and table rendering.
#include <gtest/gtest.h>

#include <sstream>

#include "bench_util/cli.hpp"
#include "bench_util/stats.hpp"
#include "bench_util/table.hpp"

namespace smpst::bench {
namespace {

Cli make_cli(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, ParsesTypes) {
  const Cli cli = make_cli({"--n=1024", "--family=torus", "--ratio=1.5",
                            "--csv", "--verbose=false"});
  EXPECT_EQ(cli.get_int("n", 0), 1024);
  EXPECT_EQ(cli.get_string("family", ""), "torus");
  EXPECT_DOUBLE_EQ(cli.get_double("ratio", 0.0), 1.5);
  EXPECT_TRUE(cli.get_bool("csv", false));
  EXPECT_FALSE(cli.get_bool("verbose", true));
  EXPECT_TRUE(cli.has("csv"));
  EXPECT_FALSE(cli.has("absent"));
}

TEST(Cli, FallbacksApply) {
  const Cli cli = make_cli({});
  EXPECT_EQ(cli.get_int("n", 42), 42);
  EXPECT_EQ(cli.get_string("family", "x"), "x");
  EXPECT_TRUE(cli.get_bool("flag", true));
}

TEST(Cli, IntList) {
  const Cli cli = make_cli({"--threads=1,2,4,8"});
  EXPECT_EQ(cli.get_int_list("threads", {}),
            (std::vector<std::int64_t>{1, 2, 4, 8}));
  EXPECT_EQ(cli.get_int_list("absent", {3}), (std::vector<std::int64_t>{3}));
}

TEST(Cli, RejectsMalformedAndUnknown) {
  EXPECT_THROW(make_cli({"positional"}), std::invalid_argument);
  const Cli cli = make_cli({"--typo=1"});
  EXPECT_THROW(cli.reject_unknown(), std::invalid_argument);
  const Cli ok = make_cli({"--n=1"});
  ok.get_int("n", 0);
  ok.reject_unknown();  // no throw

  // Numeric values must be consumed whole: "2e4" is not read as 2, and the
  // error names the flag.
  EXPECT_THROW((void)make_cli({"--n="}).get_int("n", 0),
               std::invalid_argument);
  EXPECT_THROW((void)make_cli({"--threads=1,2x"}).get_int_list("threads", {}),
               std::invalid_argument);
  EXPECT_THROW((void)make_cli({"--ratio=1.5x"}).get_double("ratio", 0.0),
               std::invalid_argument);
  try {
    (void)make_cli({"--n=2e4"}).get_int("n", 0);
    ADD_FAILURE() << "--n=2e4 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--n"), std::string::npos)
        << e.what();
  }
}

TEST(TimingStats, SummarizeKnownSamples) {
  const auto s = summarize({3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(s.min_s, 1.0);
  EXPECT_DOUBLE_EQ(s.mean_s, 2.0);
  EXPECT_DOUBLE_EQ(s.median_s, 2.0);
  EXPECT_NEAR(s.stddev_s, 1.0, 1e-12);
  EXPECT_EQ(s.repetitions, 3u);
}

TEST(TimingStats, EmptyAndSingle) {
  EXPECT_EQ(summarize({}).repetitions, 0u);
  const auto s = summarize({5.0});
  EXPECT_DOUBLE_EQ(s.stddev_s, 0.0);
  EXPECT_DOUBLE_EQ(s.min_s, 5.0);
}

TEST(TimingStats, TimeRepeatedCountsCalls) {
  int calls = 0;
  const auto s = time_repeated([&] { ++calls; }, 5, 2);
  EXPECT_EQ(calls, 7);  // 2 warmup + 5 measured
  EXPECT_EQ(s.repetitions, 5u);
  EXPECT_GE(s.min_s, 0.0);
}

TEST(Table, AlignedRendering) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22222"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, CsvRendering) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, RejectsWrongWidth) {
  Table t({"a", "b"});
  EXPECT_DEATH(t.add_row({"only-one"}), "row width");
}

TEST(Formatting, HumanReadableDurations) {
  EXPECT_EQ(fmt_seconds(0.0000005), "0.5us");
  EXPECT_EQ(fmt_seconds(0.0015), "1.50ms");
  EXPECT_EQ(fmt_seconds(2.5), "2.500s");
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_count(42), "42");
}

}  // namespace
}  // namespace smpst::bench
