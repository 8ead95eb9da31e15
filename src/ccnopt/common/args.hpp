// Minimal command-line argument parser for the tools: positional words
// plus --key=value / --key value options and --flag switches.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ccnopt/common/error.hpp"

namespace ccnopt {

class ArgParser {
 public:
  /// Parses argv[1..); "--key=value" and "--key value" set options,
  /// "--flag" (no value-looking successor) sets a flag, everything else is
  /// positional. A standalone "--" ends option parsing.
  static Expected<ArgParser> parse(int argc, const char* const* argv);

  const std::vector<std::string>& positional() const { return positional_; }

  bool has(const std::string& key) const;

  /// String value of --key, or `fallback` when absent.
  std::string get(const std::string& key, const std::string& fallback) const;

  /// Numeric value of --key; kParseError on malformed or non-finite
  /// numbers (nan, inf, and overflow such as 1e400).
  Expected<double> get_double(const std::string& key, double fallback) const;
  Expected<std::int64_t> get_int(const std::string& key,
                                 std::int64_t fallback) const;

  /// Keys that were supplied but never read — typo detection for tools.
  std::vector<std::string> unused_keys() const;

 private:
  std::vector<std::string> positional_;
  std::map<std::string, std::string> options_;
  mutable std::map<std::string, bool> consumed_;
};

/// Strict argument reading for bench and example mains, on ArgParser. Each
/// accessor returns the parsed value, or `fallback` when the argument is
/// absent; the first malformed number, negative or overflowing count, or
/// flag given a value is kept as error(). finish() adds unread --keys and
/// surplus positionals, prints "<program>: <error>" to stderr, and returns
/// false, so a main ends its argument block with
/// `if (!args.finish(n)) return 2;`.
class ArgReader {
 public:
  ArgReader(int argc, const char* const* argv);

  std::uint64_t count(const std::string& key, std::uint64_t fallback);
  std::string text(const std::string& key, const std::string& fallback);
  /// True when the bare --key was given.
  bool flag(const std::string& key);

  /// The positional word at `index` (0-based), read like the keyed forms.
  std::uint64_t count_at(std::size_t index, std::uint64_t fallback);
  double number_at(std::size_t index, double fallback);
  std::string text_at(std::size_t index, const std::string& fallback);

  /// Accepts at most `max_positional` positional words; false (after
  /// printing the first error) when any argument was rejected.
  bool finish(std::size_t max_positional = 0);
  const std::string& error() const { return error_; }

 private:
  std::uint64_t parse_count(const std::string& what, const std::string& text,
                            std::uint64_t fallback);
  double parse_number(const std::string& what, const std::string& text,
                      double fallback);
  void fail(const std::string& message);

  std::string program_;
  ArgParser parser_;
  std::string error_;
};

}  // namespace ccnopt
