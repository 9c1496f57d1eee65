// Unit tests for src/util: RNG, statistics, tables, CLI.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace fnr {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42, 7), b(42, 7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentStreamsDiffer) {
  Rng a(42, 0), b(42, 1);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(1);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(99);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.below(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, 5 * std::sqrt(kDraws));
  }
}

TEST(Rng, BetweenInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.between(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRate) {
  Rng rng(13);
  int hits = 0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) hits += rng.bernoulli(0.25);
  EXPECT_NEAR(hits, kDraws * 0.25, 5 * std::sqrt(kDraws * 0.25 * 0.75));
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(21);
  Rng child = parent.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (parent() == child());
  EXPECT_LT(equal, 3);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(31);
  const auto sample = sample_without_replacement(100, 40, rng);
  ASSERT_EQ(sample.size(), 40u);
  std::set<std::uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 40u);
  for (const auto v : sample) EXPECT_LT(v, 100u);
}

TEST(Rng, SampleWithoutReplacementFullRange) {
  Rng rng(33);
  const auto sample = sample_without_replacement(10, 10, rng);
  std::set<std::uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(Rng, SampleWithoutReplacementRejectsOversample) {
  Rng rng(35);
  EXPECT_THROW((void)sample_without_replacement(5, 6, rng), CheckError);
}

TEST(Rng, ChooseRejectsEmpty) {
  Rng rng(1);
  std::vector<int> empty;
  EXPECT_THROW((void)choose(empty, rng), CheckError);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(77);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto w = v;
  shuffle(w, rng);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Stats, SummaryBasics) {
  const auto s = summarize({4.0, 1.0, 3.0, 2.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
}

TEST(Stats, SummaryEmptyIsZero) {
  const auto s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Stats, SummarySingleton) {
  const auto s = summarize({7.5});
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.median, 7.5);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> sorted{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 1.0), 10.0);
}

TEST(Stats, SummaryEmptyPinsAllFieldsToZero) {
  // The sweep engine's aggregate columns feed straight from Summary; an
  // all-failure cell must produce all-zero round statistics, not garbage.
  const auto s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.median, 0.0);
  EXPECT_DOUBLE_EQ(s.p90, 0.0);
  EXPECT_DOUBLE_EQ(s.p95, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
}

TEST(Stats, SummarySingletonPinsAllPercentilesToTheValue) {
  const auto s = summarize({7.5});
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 7.5);
  EXPECT_DOUBLE_EQ(s.min, 7.5);
  EXPECT_DOUBLE_EQ(s.median, 7.5);
  EXPECT_DOUBLE_EQ(s.p90, 7.5);
  EXPECT_DOUBLE_EQ(s.p95, 7.5);
  EXPECT_DOUBLE_EQ(s.max, 7.5);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Stats, PercentileEndpointsAreExact) {
  const std::vector<double> sorted{1.0, 2.0, 3.0, 4.0, 5.0};
  // q = 0 and q = 1 must return the endpoints with no interpolation drift.
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 1.0), 5.0);
  EXPECT_THROW((void)percentile_sorted(sorted, -0.1), CheckError);
  EXPECT_THROW((void)percentile_sorted(sorted, 1.1), CheckError);
  EXPECT_THROW((void)percentile_sorted({}, 0.5), CheckError);
}

TEST(Stats, TwoElementTailPercentilesInterpolateLinearly) {
  // Pin the linear-interpolation convention on two elements: position
  // q * (n - 1), so p90 = 0.9 of the way from min to max.
  const auto s = summarize({10.0, 20.0});
  EXPECT_DOUBLE_EQ(s.median, 15.0);
  EXPECT_DOUBLE_EQ(s.p90, 19.0);
  EXPECT_DOUBLE_EQ(s.p95, 19.5);
  // Sample (n-1 denominator) standard deviation.
  EXPECT_DOUBLE_EQ(s.stddev, std::sqrt(50.0));
}

TEST(Stats, PowerLawFitRecoversExponent) {
  // y = 3 x^2 exactly.
  std::vector<double> xs, ys;
  for (double x : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    xs.push_back(x);
    ys.push_back(3.0 * x * x);
  }
  const auto fit = fit_power_law(xs, ys);
  EXPECT_NEAR(fit.exponent, 2.0, 1e-9);
  EXPECT_NEAR(fit.prefactor, 3.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(Stats, PowerLawFitRejectsNonPositive) {
  EXPECT_THROW((void)fit_power_law({1.0, 2.0}, {0.0, 1.0}), CheckError);
}

TEST(Table, MarkdownShape) {
  Table t({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  const auto md = t.to_markdown();
  EXPECT_NE(md.find("| a "), std::string::npos);
  EXPECT_NE(md.find("| 333 |"), std::string::npos);
  // header + separator + 2 rows
  EXPECT_EQ(std::count(md.begin(), md.end(), '\n'), 4);
}

TEST(Table, RejectsArityMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

TEST(Table, CsvRoundTrip) {
  Table t({"x", "y"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "x,y\n1,2\n");
}

TEST(Table, RowBuilderFormats) {
  auto row = RowBuilder()
                 .add("s")
                 .add(std::int64_t{-5})
                 .add(std::uint64_t{7})
                 .add(3.14159, 2)
                 .build();
  ASSERT_EQ(row.size(), 4u);
  EXPECT_EQ(row[1], "-5");
  EXPECT_EQ(row[3], "3.14");
}

TEST(Table, FormatDoubleTrimsZeros) {
  EXPECT_EQ(format_double(2.0, 3), "2");
  EXPECT_EQ(format_double(2.5, 3), "2.5");
  EXPECT_EQ(format_double(1.0 / 0.0, 3), "inf");
}

TEST(Cli, ParsesTypedOptions) {
  const char* argv[] = {"prog", "--n=128", "--rate=0.5", "--name=abc",
                        "--fast"};
  Cli cli(5, argv);
  EXPECT_EQ(cli.get_int("n", 0), 128);
  EXPECT_DOUBLE_EQ(cli.get_double("rate", 0.0), 0.5);
  EXPECT_EQ(cli.get_string("name", ""), "abc");
  EXPECT_TRUE(cli.get_flag("fast"));
  EXPECT_EQ(cli.get_int("missing", 42), 42);
  cli.reject_unknown();
}

TEST(Cli, RejectsUnknownOption) {
  const char* argv[] = {"prog", "--oops=1"};
  Cli cli(2, argv);
  EXPECT_THROW(cli.reject_unknown(), CheckError);
}

TEST(Cli, UsageListsDeclaredOptionsWithDefaults) {
  const char* argv[] = {"prog"};
  Cli cli(1, argv);
  (void)cli.get_int("jobs", 1);
  (void)cli.get_double("rate", 0.5);
  (void)cli.get_string("out", "auto");
  (void)cli.get_flag("quiet");
  EXPECT_EQ(cli.usage(),
            "usage: prog [--name=value | --flag]...\n"
            "  --jobs  (default: 1)\n"
            "  --out  (default: 'auto')\n"
            "  --quiet  (default: off)\n"
            "  --rate  (default: 0.5)\n"
            "  --help  (print this list and exit)\n");
}

TEST(Cli, HelpPrintsUsageAndExitsZero) {
  const char* argv[] = {"prog", "--help", "--not-declared=1"};
  Cli cli(3, argv);
  (void)cli.get_int("jobs", 1);
  EXPECT_EXIT(cli.reject_unknown(), ::testing::ExitedWithCode(0), "");
}

TEST(Cli, RejectsMalformedNumbers) {
  const char* argv[] = {"prog", "--n=12x"};
  Cli cli(2, argv);
  EXPECT_THROW((void)cli.get_int("n", 0), CheckError);
}

TEST(Cli, RejectsNonOptionArgument) {
  const char* argv[] = {"prog", "positional"};
  EXPECT_THROW(Cli(2, argv), CheckError);
}

TEST(Cli, RejectsEmptyNumericValues) {
  // `--trials=` used to parse as 0 (strtoll leaves `end` at the start of
  // an empty string, and *end == '\0' held). It must fail loudly.
  const char* argv[] = {"prog", "--trials=", "--rate="};
  Cli cli(3, argv);
  EXPECT_THROW((void)cli.get_int("trials", 7), CheckError);
  EXPECT_THROW((void)cli.get_double("rate", 0.5), CheckError);
}

TEST(Cli, RejectsIntegerOverflow) {
  // strtoll clamps to LLONG_MAX/MIN with errno = ERANGE; clamping must not
  // be silent.
  const char* argv[] = {"prog", "--big=99999999999999999999",
                        "--small=-99999999999999999999",
                        "--huge=1e999", "--tiny=1e-310"};
  Cli cli(5, argv);
  EXPECT_THROW((void)cli.get_int("big", 0), CheckError);
  EXPECT_THROW((void)cli.get_int("small", 0), CheckError);
  EXPECT_THROW((void)cli.get_double("huge", 0.0), CheckError);
  // Underflow to a subnormal also sets ERANGE on glibc but the value is
  // representable — it must parse, not throw.
  EXPECT_GT(cli.get_double("tiny", 0.0), 0.0);
}

TEST(Cli, FlagSpellingsAreSymmetric) {
  const char* on_argv[] = {"prog", "--a=1", "--b=true", "--c=yes", "--d=on",
                           "--e"};
  Cli on(6, on_argv);
  for (const char* name : {"a", "b", "c", "d", "e"})
    EXPECT_TRUE(on.get_flag(name)) << name;
  const char* off_argv[] = {"prog", "--a=0", "--b=false", "--c=no",
                            "--d=off"};
  Cli off(5, off_argv);
  for (const char* name : {"a", "b", "c", "d"})
    EXPECT_FALSE(off.get_flag(name)) << name;
  EXPECT_FALSE(off.get_flag("absent"));
}

TEST(Cli, RejectsUnrecognizedBooleanSpellings) {
  // `--flag=no` historically meant *on*; unknown spellings now throw
  // instead of silently flipping the sense.
  const char* argv[] = {"prog", "--a=No", "--b=2", "--c=enabled"};
  Cli cli(4, argv);
  EXPECT_THROW((void)cli.get_flag("a"), CheckError);
  EXPECT_THROW((void)cli.get_flag("b"), CheckError);
  EXPECT_THROW((void)cli.get_flag("c"), CheckError);
}

TEST(Check, MacroThrowsWithMessage) {
  try {
    FNR_CHECK_MSG(false, "ctx " << 42);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("ctx 42"), std::string::npos);
  }
}

}  // namespace
}  // namespace fnr
