#include "ccnopt/common/args.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "ccnopt/common/strings.hpp"

namespace ccnopt {

Expected<ArgParser> ArgParser::parse(int argc, const char* const* argv) {
  ArgParser parser;
  bool options_done = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Only "--name" tokens are options; single-dash tokens (including
    // negative numbers) are positional.
    if (options_done || !starts_with(arg, "--")) {
      parser.positional_.push_back(arg);
      continue;
    }
    if (arg == "--") {
      options_done = true;
      continue;
    }
    const std::string body = arg.substr(2);
    const std::size_t eq = body.find('=');
    if (eq != std::string::npos) {
      parser.options_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // "--key value" consumes the next token unless it is another option;
    // otherwise the key is a bare flag. Note the ambiguity this buys:
    // a bare flag directly before a positional swallows it — use
    // "--flag=" or option order to disambiguate.
    if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
      parser.options_[body] = argv[++i];
    } else {
      parser.options_[body] = "";
    }
  }
  return parser;
}

bool ArgParser::has(const std::string& key) const {
  const bool present = options_.count(key) > 0;
  if (present) consumed_[key] = true;
  return present;
}

std::string ArgParser::get(const std::string& key,
                           const std::string& fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  consumed_[key] = true;
  return it->second;
}

Expected<double> ArgParser::get_double(const std::string& key,
                                       double fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  consumed_[key] = true;
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    return Status(ErrorCode::kParseError,
                  "--" + key + " expects a number, got '" + it->second + "'");
  }
  // strtod reads "nan" and "inf", and overflows to infinity.
  if (!std::isfinite(value)) {
    return Status(ErrorCode::kParseError,
                  "--" + key + " expects a finite number, got '" +
                      it->second + "'");
  }
  return value;
}

Expected<std::int64_t> ArgParser::get_int(const std::string& key,
                                          std::int64_t fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  consumed_[key] = true;
  char* end = nullptr;
  const long long value = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') {
    return Status(ErrorCode::kParseError,
                  "--" + key + " expects an integer, got '" + it->second +
                      "'");
  }
  return static_cast<std::int64_t>(value);
}

std::vector<std::string> ArgParser::unused_keys() const {
  std::vector<std::string> unused;
  for (const auto& [key, value] : options_) {
    if (consumed_.count(key) == 0) unused.push_back(key);
  }
  return unused;
}

ArgReader::ArgReader(int argc, const char* const* argv)
    : program_(argc > 0 ? argv[0] : "") {
  Expected<ArgParser> parsed = ArgParser::parse(argc, argv);
  if (parsed) {
    parser_ = std::move(*parsed);
  } else {
    fail(parsed.status().message());
  }
}

void ArgReader::fail(const std::string& message) {
  if (error_.empty()) error_ = message;
}

std::uint64_t ArgReader::parse_count(const std::string& what,
                                     const std::string& text,
                                     std::uint64_t fallback) {
  std::uint64_t value = 0;
  const char* const end = text.data() + text.size();
  const auto [stop, code] = std::from_chars(text.data(), end, value);
  if (text.empty() || code != std::errc() || stop != end) {
    fail(what + " expects a non-negative integer, got '" + text + "'");
    return fallback;
  }
  return value;
}

double ArgReader::parse_number(const std::string& what,
                               const std::string& text, double fallback) {
  char* stop = nullptr;
  const double value = std::strtod(text.c_str(), &stop);
  if (text.empty() || *stop != '\0' || !std::isfinite(value)) {
    fail(what + " expects a number, got '" + text + "'");
    return fallback;
  }
  return value;
}

std::uint64_t ArgReader::count(const std::string& key,
                               std::uint64_t fallback) {
  if (!parser_.has(key)) return fallback;
  return parse_count("--" + key, parser_.get(key, ""), fallback);
}

std::string ArgReader::text(const std::string& key,
                            const std::string& fallback) {
  return parser_.get(key, fallback);
}

bool ArgReader::flag(const std::string& key) {
  if (!parser_.has(key)) return false;
  if (!parser_.get(key, "").empty()) fail("--" + key + " takes no value");
  return true;
}

std::uint64_t ArgReader::count_at(std::size_t index, std::uint64_t fallback) {
  if (index >= parser_.positional().size()) return fallback;
  return parse_count("argument " + std::to_string(index + 1),
                     parser_.positional()[index], fallback);
}

double ArgReader::number_at(std::size_t index, double fallback) {
  if (index >= parser_.positional().size()) return fallback;
  return parse_number("argument " + std::to_string(index + 1),
                      parser_.positional()[index], fallback);
}

std::string ArgReader::text_at(std::size_t index,
                               const std::string& fallback) {
  return index < parser_.positional().size() ? parser_.positional()[index]
                                             : fallback;
}

bool ArgReader::finish(std::size_t max_positional) {
  for (const std::string& key : parser_.unused_keys()) {
    fail("unknown flag --" + key);
  }
  if (parser_.positional().size() > max_positional) {
    fail("unexpected argument '" + parser_.positional()[max_positional] +
         "'");
  }
  if (error_.empty()) return true;
  std::cerr << program_ << ": " << error_ << "\n";
  return false;
}

}  // namespace ccnopt
