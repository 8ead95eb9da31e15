#include "ccnopt/common/args.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <string>
#include <vector>

#include "ccnopt/common/random.hpp"

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

TEST(ArgParser, NonFiniteNumbersFail) {
  for (const char* bad : {"nan", "-nan", "inf", "-infinity", "1e400",
                          "-1e400"}) {
    const std::string option = std::string("--s=") + bad;
    const ArgParser args = parse({option.c_str()});
    const auto value = args.get_double("s", 0.8);
    ASSERT_FALSE(value.has_value()) << bad;
    EXPECT_EQ(value.status().code(), ErrorCode::kParseError) << bad;
  }
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

TEST(ArgParser, SeededRandomArgvReadsBackCleanly) {
  // 2,000 random command lines of up to 8 words from a fixed seed, over
  // hostile tokens: "--", "=", empty words, repeated keys, dashes and
  // non-UTF-8 bytes. parse() must return a parser or a Status; every key
  // it kept must read back as text, and as a number or a kParseError;
  // after that no key is unused.
  static const char* const kTokens[] = {
      "--",    "=",      "",         "--=",      "---",   "-",
      "--a",   "--a=1",  "--a=",     "--a=x",    "--a==", "--a=nan",
      "--b",   "--b=2",  "2",        "-3",       "pos",   "--=v",
      "\x80", "\xc3\x28", "--\xff\xfe", "--k=\x80", "--a=1e400",
      "--b=99999999999999999999"};
  Rng rng(20261018);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<const char*> argv{"tool"};
    const std::size_t words = rng.uniform_int(0, 8);
    for (std::size_t w = 0; w < words; ++w) {
      argv.push_back(kTokens[rng.uniform_int(0, std::size(kTokens) - 1)]);
    }
    const auto parsed =
        ArgParser::parse(static_cast<int>(argv.size()), argv.data());
    if (!parsed) {
      EXPECT_EQ(parsed.status().code(), ErrorCode::kParseError)
          << "trial " << trial;
      continue;
    }
    EXPECT_LE(parsed->positional().size(), words) << "trial " << trial;
    for (const std::string& key : parsed->unused_keys()) {
      EXPECT_TRUE(parsed->has(key)) << "trial " << trial << " key " << key;
      (void)parsed->get(key, "");
      const auto number = parsed->get_double(key, 0.0);
      if (!number) {
        EXPECT_EQ(number.status().code(), ErrorCode::kParseError);
      }
      const auto integer = parsed->get_int(key, 0);
      if (!integer) {
        EXPECT_EQ(integer.status().code(), ErrorCode::kParseError);
      }
    }
    EXPECT_TRUE(parsed->unused_keys().empty()) << "trial " << trial;
  }
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

TEST(ArgReader, SeededRandomArgvReadsBackCleanly) {
  // 2,000 random command lines of up to 8 words from a fixed seed, read
  // through every accessor: malformed, non-finite and overflowing numbers,
  // valued flags, unknown keys, surplus positionals and non-UTF-8 bytes.
  // Numbers read back finite; a rejected line leaves an error() that
  // finish() prints, and an accepted one leaves none.
  static const char* const kTokens[] = {
      "--",    "=",      "",      "--=",      "-",      "--n",
      "--n=3", "--n=-3", "--n=",  "--n=x",    "--t",    "--t=text",
      "--f",   "--f=yes", "--f=", "--x=1",    "7",      "0.25",
      "-1",    "nan",    "inf",   "1e400",    "1e-400", "0x1p3",
      "\x80",  "--\xff", "pos",   "99999999999999999999"};
  Rng rng(20261019);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<const char*> argv{"tool"};
    const std::size_t words = rng.uniform_int(0, 8);
    for (std::size_t w = 0; w < words; ++w) {
      argv.push_back(kTokens[rng.uniform_int(0, std::size(kTokens) - 1)]);
    }
    ArgReader args(static_cast<int>(argv.size()), argv.data());
    (void)args.count("n", 1);
    (void)args.text("t", "");
    (void)args.flag("f");
    EXPECT_TRUE(std::isfinite(args.number_at(0, 0.5))) << "trial " << trial;
    (void)args.count_at(1, 2);
    (void)args.text_at(2, "");
    ::testing::internal::CaptureStderr();
    const bool ok = args.finish(rng.uniform_int(0, 3));
    const std::string printed = ::testing::internal::GetCapturedStderr();
    if (ok) {
      ++accepted;
      EXPECT_TRUE(args.error().empty()) << "trial " << trial;
      EXPECT_TRUE(printed.empty()) << "trial " << trial;
    } else {
      ++rejected;
      EXPECT_FALSE(args.error().empty()) << "trial " << trial;
      EXPECT_NE(printed.find(args.error()), std::string::npos)
          << "trial " << trial;
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace ccnopt
