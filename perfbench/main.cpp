// ccnopt benchmark program.
//
//   ccnopt_perfbench --workload NAME --seed N [--seconds S] [--trace 0|1]
//                    [--threads T] [--shards K] [--span-out PATH] [--tiny]
//
// --trace 0 prints every end-to-end metric, --trace 1 every per-layer
// metric (and writes the span file to --span-out). The last line of
// standard output is the result object {"correct", "attempted", "failed",
// "metrics"}; the line before it records the build and host provenance.
// Unknown flags, malformed numbers and out-of-range values exit 2; an
// unoptimized or sanitized build exits 3, so its figures never become a
// baseline. run.py builds this binary and is the usual entry point.
#include <cstdint>
#include <exception>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "ccnopt/common/args.hpp"
#include "ccnopt/obs/export.hpp"

namespace {

using namespace perfbench;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr const char* kSanitizer = "on";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr const char* kSanitizer = "on";
#else
constexpr const char* kSanitizer = "none";
#endif
#else
constexpr const char* kSanitizer = "none";
#endif

#ifdef __clang__
constexpr const char* kCompiler = "clang " __VERSION__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

int usage_error(const std::string& message) {
  std::cerr << "ccnopt_perfbench: " << message << "\n";
  return 2;
}

/// Reads an integer flag into `out`; false (with a message) on malformed
/// or out-of-range input. More than 18 digits is rejected outright, since
/// ArgParser saturates on overflow instead of failing.
bool read_count(const ArgParser& args, const std::string& key,
                std::int64_t fallback, std::int64_t lo, std::int64_t hi,
                std::uint64_t* out, std::string* error) {
  const Expected<std::int64_t> value = args.get_int(key, fallback);
  if (!value) {
    *error = value.status().message();
    return false;
  }
  if (args.get(key, "").size() > 18 || *value < lo || *value > hi) {
    *error = "--" + key + " must be in [" + std::to_string(lo) + ", " +
             std::to_string(hi) + "], got " + std::to_string(*value);
    return false;
  }
  *out = static_cast<std::uint64_t>(*value);
  return true;
}

void print_provenance(const Options& options) {
  std::cout << "{\"provenance\": {\"workload\": \"" << options.workload
            << "\", \"seed\": " << options.seed
            << ", \"trace\": " << (options.trace ? 1 : 0)
            << ", \"nproc\": " << nproc()
            << ", \"hardware_concurrency\": "
            << std::thread::hardware_concurrency()
            << ", \"threads\": " << options.threads
            << ", \"shards\": " << options.shards << ", \"compiler\": \""
            << obs::json_escape(kCompiler) << "\", \"ndebug\": "
            << (kNdebug ? "true" : "false")
            << ", \"optimize\": " << (kOptimized ? "true" : "false")
            << ", \"sanitizer\": \"" << kSanitizer << "\"}}\n";
}

void print_result(const Checks& checks, const Metrics& metrics) {
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << obs::json_number(m.value) << " "
              << m.unit << "\n";
  }
  std::cout << "  failed_ratio = "
            << obs::json_number(static_cast<double>(checks.failed()) /
                                static_cast<double>(checks.attempted()))
            << " (" << checks.failed() << " of " << checks.attempted()
            << " output checks)\n";
  std::cout << "{\"correct\": " << (checks.failed() == 0 ? "true" : "false")
            << ", \"attempted\": " << checks.attempted()
            << ", \"failed\": " << checks.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
              << "\": {\"value\": " << obs::json_number(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const Expected<ArgParser> parsed = ArgParser::parse(argc, argv);
  if (!parsed) return usage_error(parsed.status().message());
  const ArgParser& args = *parsed;
  if (!args.positional().empty()) {
    return usage_error("unexpected argument '" + args.positional().front() +
                       "'");
  }

  Options options;
  options.workload = args.get("workload", "");
  options.span_out = args.get("span-out", "");
  if (args.has("tiny")) {
    if (!args.get("tiny", "").empty()) {
      return usage_error("--tiny takes no value");
    }
    options.tiny = true;
  }
  const auto cores = static_cast<std::int64_t>(nproc());
  std::string error;
  std::uint64_t seconds = 0;
  std::uint64_t trace = 0;
  std::uint64_t threads = 0;
  std::uint64_t shards = 0;
  if (!args.has("seed")) return usage_error("--seed is required");
  if (!read_count(args, "seed", 0, 0, INT64_MAX, &options.seed, &error) ||
      !read_count(args, "seconds", 10, 1, 3600, &seconds, &error) ||
      !read_count(args, "trace", 0, 0, 1, &trace, &error) ||
      !read_count(args, "threads", cores, 1, cores, &threads, &error) ||
      !read_count(args, "shards", cores, 1, cores, &shards, &error)) {
    return usage_error(error);
  }
  const std::vector<std::string> unknown = args.unused_keys();
  if (!unknown.empty()) return usage_error("unknown flag --" + unknown.front());
  options.seconds = static_cast<double>(seconds);
  options.trace = trace == 1;
  options.threads = static_cast<std::size_t>(threads);
  options.shards = static_cast<std::size_t>(shards);

  Workload workload;
  if (!find_workload(options.workload, options.tiny, &workload)) {
    std::string names;
    for (const std::string& name : workload_names()) names += " " + name;
    return usage_error("--workload must be one of:" + names);
  }

  print_provenance(options);
  if (!kOptimized || std::string(kSanitizer) != "none") {
    std::cerr << "ccnopt_perfbench: refusing to measure an unoptimized or "
                 "sanitized build\n";
    return 3;
  }

  try {
    Checks checks;
    const Metrics metrics = options.trace
                                ? run_layers(workload, options, checks)
                                : run_end_to_end(workload, options, checks);
    print_result(checks, metrics);
  } catch (const std::exception& e) {
    std::cerr << "ccnopt_perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
