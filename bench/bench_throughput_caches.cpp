// Throughput bench: raw replacement-policy admit loops of the flat
// LRU/LFU/FIFO policies on a shared Zipf request stream. The headline
// requests_per_sec is the LRU rate; the per-policy rates land in outputs
// as <policy>_rps so a regression in any one policy is visible.
//
// Usage: bench_throughput_caches [ops] [capacity] [catalog]
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "ccnopt/cache/policy.hpp"
#include "ccnopt/common/args.hpp"
#include "ccnopt/common/random.hpp"
#include "ccnopt/common/strings.hpp"
#include "ccnopt/common/table.hpp"
#include "ccnopt/popularity/sampler.hpp"

namespace {

using namespace ccnopt;

double admit_loop_rps(cache::CachePolicy& policy,
                      const std::vector<cache::ContentId>& stream) {
  const bench::WallTimer timer;
  for (const cache::ContentId id : stream) policy.admit(id);
  const double seconds = timer.elapsed_seconds();
  return static_cast<double>(stream.size()) / (seconds > 0.0 ? seconds : 1e-9);
}

}  // namespace

int main(int argc, char** argv) {
  ArgReader args(argc, argv);
  const std::size_t ops = args.count_at(0, 400000);
  const std::size_t capacity = args.count_at(1, 2000);
  const std::uint64_t catalog = args.count_at(2, 50000);
  if (!args.finish(3)) return 2;
  bench::BenchReporter reporter("throughput_caches");
  std::cout << "=== Cache admit throughput (ops=" << ops
            << ", capacity=" << capacity << ", catalog=" << catalog
            << ", Zipf s=0.8) ===\n\n";

  // One shared stream so every policy sees identical requests.
  popularity::AliasSampler sampler(catalog, 0.8);
  Rng rng(20240806);
  std::vector<cache::ContentId> stream(ops);
  for (auto& id : stream) id = sampler.sample(rng);

  const cache::PolicyKind kinds[] = {cache::PolicyKind::kLru,
                                     cache::PolicyKind::kLfu,
                                     cache::PolicyKind::kFifo};
  TextTable table({"policy", "Mreq/s"});
  double lru_rps = 0.0;
  for (const cache::PolicyKind kind : kinds) {
    auto policy = cache::make_policy(kind, capacity, 7);
    const double rps = admit_loop_rps(*policy, stream);
    if (kind == cache::PolicyKind::kLru) lru_rps = rps;
    const std::string name = policy->name();
    table.add_row({name, format_double(rps / 1e6, 2)});
    reporter.set_output(name + "_rps", rps);
  }
  table.print(std::cout);

  reporter.set_output("requests_per_sec", lru_rps);
  reporter.set_output("threads", 1);
  reporter.set_output("catalog_size", catalog);
  reporter.set_output("ops", ops);
  reporter.set_output("capacity", capacity);
  return reporter.finish();
}
