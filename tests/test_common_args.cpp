#include "ccnopt/common/args.hpp"

#include <gtest/gtest.h>

namespace ccnopt {
namespace {

ArgParser parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"tool"};
  argv.insert(argv.end(), args.begin(), args.end());
  const auto parser =
      ArgParser::parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(parser.has_value());
  return *parser;
}

TEST(ArgParser, PositionalsAndOptionsSeparate) {
  const ArgParser args = parse({"optimize", "--alpha=0.7", "us-a"});
  EXPECT_EQ(args.positional(),
            (std::vector<std::string>{"optimize", "us-a"}));
  EXPECT_EQ(args.get("alpha", ""), "0.7");
}

TEST(ArgParser, KeyValueBothSyntaxes) {
  const ArgParser args = parse({"--a=1", "--b", "2"});
  EXPECT_EQ(args.get("a", ""), "1");
  EXPECT_EQ(args.get("b", ""), "2");
}

TEST(ArgParser, BareFlag) {
  const ArgParser args = parse({"--verbose", "--csv", "out.csv"});
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_EQ(args.get("verbose", "x"), "");
  EXPECT_EQ(args.get("csv", ""), "out.csv");
  EXPECT_FALSE(args.has("quiet"));
}

TEST(ArgParser, TrailingFlagHasNoValue) {
  const ArgParser args = parse({"run", "--fast"});
  EXPECT_TRUE(args.has("fast"));
  EXPECT_EQ(args.positional().size(), 1u);
}

TEST(ArgParser, DoubleDashEndsOptions) {
  const ArgParser args = parse({"--a=1", "--", "--not-an-option"});
  EXPECT_EQ(args.positional(),
            (std::vector<std::string>{"--not-an-option"}));
}

TEST(ArgParser, NumericAccessors) {
  const ArgParser args = parse({"--alpha=0.25", "--count=42"});
  EXPECT_DOUBLE_EQ(*args.get_double("alpha", 0.0), 0.25);
  EXPECT_EQ(*args.get_int("count", 0), 42);
  EXPECT_DOUBLE_EQ(*args.get_double("missing", 9.5), 9.5);
  EXPECT_EQ(*args.get_int("missing", -3), -3);
}

TEST(ArgParser, MalformedNumbersFail) {
  const ArgParser args = parse({"--alpha=zero", "--count=4x"});
  EXPECT_FALSE(args.get_double("alpha", 0.0).has_value());
  EXPECT_FALSE(args.get_int("count", 0).has_value());
}

TEST(ArgParser, NegativeNumberAsValue) {
  // Only "--" prefixes mark options, so "-5" is consumable as a value.
  const ArgParser args = parse({"--offset", "-5"});
  EXPECT_EQ(*args.get_int("offset", 0), -5);
  const ArgParser eq = parse({"--offset=-5"});
  EXPECT_EQ(*eq.get_int("offset", 0), -5);
}

TEST(ArgParser, UnusedKeysDetected) {
  const ArgParser args = parse({"--used=1", "--typo=2"});
  (void)args.get("used", "");
  EXPECT_EQ(args.unused_keys(), (std::vector<std::string>{"typo"}));
}

TEST(ArgParser, SingleDashTokensArePositional) {
  const ArgParser args = parse({"-x", "-"});
  EXPECT_EQ(args.positional(), (std::vector<std::string>{"-x", "-"}));
}

TEST(ArgParser, EmptyCommandLine) {
  std::vector<const char*> argv{"tool"};
  const auto parser = ArgParser::parse(1, argv.data());
  ASSERT_TRUE(parser.has_value());
  EXPECT_TRUE(parser->positional().empty());
}

ArgReader reader(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"tool"};
  argv.insert(argv.end(), args.begin(), args.end());
  return ArgReader(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgReader, ReadsCountsNumbersTextAndFlags) {
  ArgReader args = reader({"us-a", "0.5", "7", "--threads", "4", "--label",
                           "big", "--fast"});
  EXPECT_EQ(args.text_at(0, ""), "us-a");
  EXPECT_EQ(args.number_at(1, 0.0), 0.5);
  EXPECT_EQ(args.count_at(2, 0), 7u);
  EXPECT_EQ(args.count_at(3, 9), 9u);  // absent positional: fallback
  EXPECT_EQ(args.count("threads", 1), 4u);
  EXPECT_EQ(args.text("label", ""), "big");
  EXPECT_TRUE(args.flag("fast"));
  EXPECT_FALSE(args.flag("slow"));
  EXPECT_EQ(args.count("requests", 60000), 60000u);
  EXPECT_TRUE(args.finish(3));
  EXPECT_TRUE(args.error().empty());
}

TEST(ArgReader, RejectsMalformedCounts) {
  for (const char* bad : {"abc", "-3", "4x", "", "99999999999999999999"}) {
    ArgReader args = reader({"--threads", bad});
    EXPECT_EQ(args.count("threads", 1), 1u) << bad;
    EXPECT_FALSE(args.finish()) << bad;
    EXPECT_NE(args.error().find("--threads"), std::string::npos) << bad;
  }
}

TEST(ArgReader, RejectsMalformedNumbers) {
  for (const char* bad : {"x", "inf", "0.5y", ""}) {
    ArgReader args = reader({bad});
    EXPECT_EQ(args.number_at(0, 0.8), 0.8) << bad;
    EXPECT_FALSE(args.finish(1)) << bad;
    EXPECT_NE(args.error().find("argument 1"), std::string::npos) << bad;
  }
}

TEST(ArgReader, RejectsUnknownFlagsAndSurplusPositionals) {
  ArgReader unknown = reader({"--bogus", "3"});
  EXPECT_FALSE(unknown.finish());
  EXPECT_EQ(unknown.error(), "unknown flag --bogus");

  ArgReader surplus = reader({"a", "b"});
  EXPECT_EQ(surplus.text_at(0, ""), "a");
  EXPECT_FALSE(surplus.finish(1));
  EXPECT_EQ(surplus.error(), "unexpected argument 'b'");
}

TEST(ArgReader, FlagGivenAValueIsAnError) {
  ArgReader args = reader({"--fixed-warmup=yes"});
  EXPECT_TRUE(args.flag("fixed-warmup"));
  EXPECT_FALSE(args.finish());
  EXPECT_EQ(args.error(), "--fixed-warmup takes no value");
}

}  // namespace
}  // namespace ccnopt
