// End-to-end tests of the `ccnopt` CLI binary: each subcommand is spawned
// as a real process (path injected by CMake) and its stdout inspected.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#ifndef CCNOPT_CLI_PATH
#error "CCNOPT_CLI_PATH must be defined by the build"
#endif

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;
};

RunResult run_cli(const std::string& arguments) {
  const std::string command =
      std::string(CCNOPT_CLI_PATH) + " " + arguments + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  RunResult result;
  std::array<char, 4096> buffer;
  while (fgets(buffer.data(), static_cast<int>(buffer.size()), pipe)) {
    result.output += buffer.data();
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

TEST(Cli, HelpListsSubcommands) {
  const RunResult result = run_cli("help");
  EXPECT_EQ(result.exit_code, 0);
  for (const char* subcommand :
       {"optimize", "sweep", "simulate", "adaptive", "hetero", "regret",
        "topology"}) {
    EXPECT_NE(result.output.find(subcommand), std::string::npos)
        << subcommand;
  }
}

TEST(Cli, NoArgumentsPrintsUsage) {
  const RunResult result = run_cli("");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("subcommands"), std::string::npos);
}

TEST(Cli, UnknownSubcommandFails) {
  const RunResult result = run_cli("frobnicate");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("unknown subcommand"), std::string::npos);
}

TEST(Cli, OptimizeReportsStrategyAndGains) {
  const RunResult result = run_cli("optimize --topology=abilene --alpha=0.8");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("l* ="), std::string::npos);
  EXPECT_NE(result.output.find("G_O ="), std::string::npos);
  EXPECT_NE(result.output.find("Abilene"), std::string::npos);
}

TEST(Cli, OptimizeRejectsBadTopology) {
  const RunResult result = run_cli("optimize --topology=arpanet");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("error"), std::string::npos);
}

TEST(Cli, OptimizeRejectsMalformedNumber) {
  const RunResult result = run_cli("optimize --alpha=high");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("expects a number"), std::string::npos);
}

TEST(Cli, NonFiniteNumbersFailWithParseError) {
  // strtod reads these; each must stop at the flag, not in the model.
  for (const char* arguments :
       {"simulate --topology=abilene --requests=2000 --s=nan",
        "simulate --topology=abilene --requests=2000 --s=1e400",
        "optimize --alpha=nan"}) {
    const RunResult result = run_cli(arguments);
    EXPECT_EQ(result.exit_code, 1) << arguments << result.output;
    EXPECT_NE(result.output.find("error: parse_error: "), std::string::npos)
        << arguments << result.output;
    EXPECT_NE(result.output.find("expects a finite number"),
              std::string::npos)
        << arguments << result.output;
  }
}

TEST(Cli, SweepPrintsSeries) {
  const RunResult result = run_cli("sweep --figure=4");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("gamma=10"), std::string::npos);
  EXPECT_NE(result.output.find("ell_star"), std::string::npos);
}

TEST(Cli, SweepRejectsUnknownFigure) {
  const RunResult result = run_cli("sweep --figure=99");
  EXPECT_NE(result.exit_code, 0);
}

TEST(Cli, SimulateReportsTiers) {
  const RunResult result = run_cli(
      "simulate --topology=abilene --x=20 --requests=5000 --catalog=2000 "
      "--c=50");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("origin="), std::string::npos);
  EXPECT_NE(result.output.find("mean_latency_ms="), std::string::npos);
}

TEST(Cli, SimulateReplicationsReportConfidenceIntervals) {
  const RunResult result = run_cli(
      "simulate --topology=abilene --x=20 --requests=3000 --catalog=2000 "
      "--c=50 --replications=3 --threads=2");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("3 replications"), std::string::npos);
  EXPECT_NE(result.output.find("ci95 half-width"), std::string::npos);
  EXPECT_NE(result.output.find("origin_load"), std::string::npos);
}

TEST(Cli, SimulateAcceptsRegisteredStrategy) {
  const RunResult result = run_cli(
      "simulate --topology=abilene --x=20 --requests=5000 --catalog=2000 "
      "--c=50 --strategy=lcd");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("strategy lcd"), std::string::npos);
  EXPECT_NE(result.output.find("origin="), std::string::npos);
}

TEST(Cli, SimulateOnPathStrategiesDefaultToLruAndDiffer) {
  // Static partitions never admit, so on-path runs default to LRU; the
  // three on-path strategies then place copies differently.
  std::vector<std::string> tiers;
  for (const char* strategy : {"lce", "lcd", "prob"}) {
    const RunResult result = run_cli(
        "simulate --topology=cernet --requests=20000 --seed=7 --strategy=" +
        std::string(strategy));
    EXPECT_EQ(result.exit_code, 0) << result.output;
    EXPECT_NE(result.output.find("policy lru, strategy " +
                                 std::string(strategy)),
              std::string::npos)
        << result.output;
    EXPECT_EQ(result.output.find("network=0 "), std::string::npos)
        << result.output;
    tiers.push_back(result.output.substr(result.output.find("local=")));
  }
  EXPECT_NE(tiers[0], tiers[1]);
  EXPECT_NE(tiers[1], tiers[2]);
  EXPECT_NE(tiers[0], tiers[2]);
}

TEST(Cli, SimulateRejectsStaticPolicyWithOnPathStrategy) {
  const RunResult result = run_cli(
      "simulate --topology=abilene --requests=2000 --policy=static "
      "--strategy=lcd");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("--policy=static"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("--strategy=lcd"), std::string::npos)
      << result.output;
  // Owner-table strategies keep static as their default and accept it.
  const RunResult owner = run_cli(
      "simulate --topology=abilene --x=20 --requests=2000 --catalog=2000 "
      "--c=50 --policy=static --strategy=coop-degree");
  EXPECT_EQ(owner.exit_code, 0) << owner.output;
}

TEST(Cli, SimulateDefaultsToCoordinatedSplitStrategy) {
  const RunResult result = run_cli(
      "simulate --topology=abilene --x=20 --requests=2000 --catalog=2000 "
      "--c=50");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("strategy coordinated-split"),
            std::string::npos);
}

TEST(Cli, SimulateRejectsUnknownStrategyListingAllNames) {
  const RunResult result = run_cli("simulate --strategy=telepathy");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("unknown strategy"), std::string::npos);
  // The error must enumerate the registered roster so users can self-serve.
  for (const char* name :
       {"coordinated-split", "coop-degree", "lce", "lcd", "prob",
        "prob-cap"}) {
    EXPECT_NE(result.output.find(name), std::string::npos) << name;
  }
}

TEST(Cli, SimulateRejectsOutOfRangeNumbers) {
  // Each must stop at its flag, before any simulation starts (the default
  // --c is 200).
  const std::vector<std::pair<std::string, std::string>> cases{
      {"--s=0", "--s"},         {"--s=-1", "--s"},
      {"--c=0", "--c"},         {"--c=-5", "--c"},
      {"--x=500", "--x"},       {"--x=-1", "--x"},
      {"--catalog=0", "--catalog"}, {"--requests=0", "--requests"},
      {"--requests=-1", "--requests"}};
  for (const auto& [flag, name] : cases) {
    const RunResult result =
        run_cli("simulate --topology=abilene --requests=2000 " + flag);
    EXPECT_EQ(result.exit_code, 1) << flag << result.output;
    EXPECT_NE(result.output.find("error: invalid_argument: " + name + " "),
              std::string::npos)
        << flag << result.output;
    EXPECT_EQ(result.output.find("policy"), std::string::npos)
        << flag << result.output;
  }
}

TEST(Cli, FailedSubcommandWritesNoExportsAndNoUnusedWarnings) {
  // --c=-5 stops the run before --metrics-out is read: that flag is not
  // "unused", and a run that never happened has no metrics to write.
  const std::string path = testing::TempDir() + "ccnopt_failed_metrics.json";
  std::remove(path.c_str());
  const RunResult result = run_cli(
      "simulate --topology=abilene --requests=2000 --c=-5 --metrics-out=" +
      path);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_EQ(result.output.find("unused option"), std::string::npos)
      << result.output;
  EXPECT_FALSE(std::ifstream(path).good()) << path;
  std::remove(path.c_str());
}

TEST(Cli, FailedSubcommandStillWarnsOfFlagsNoSubcommandReads) {
  // --C is read by no subcommand, so it is misspelled whatever stopped the
  // run; --requests and --metrics-out were only not reached.
  const std::string path =
      testing::TempDir() + "ccnopt_failed_misspelled_metrics.json";
  std::remove(path.c_str());
  const RunResult result = run_cli(
      "simulate --topology=abilene --requests=2000 --C=400 --c=-5 "
      "--metrics-out=" + path);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("warning: unused option --C\n"),
            std::string::npos)
      << result.output;
  EXPECT_EQ(result.output.find("unused option --requests"), std::string::npos)
      << result.output;
  EXPECT_EQ(result.output.find("unused option --metrics-out"),
            std::string::npos)
      << result.output;
  EXPECT_FALSE(std::ifstream(path).good()) << path;
  std::remove(path.c_str());
}

TEST(Cli, SimulateRejectsBadReplicationCount) {
  const RunResult result = run_cli("simulate --replications=0");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("--replications"), std::string::npos);
}

std::string slurp_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

TEST(Cli, MetricsOutIsByteIdenticalAcrossThreadCounts) {
  const std::string one_path = testing::TempDir() + "ccnopt_metrics_t1.json";
  const std::string eight_path = testing::TempDir() + "ccnopt_metrics_t8.json";
  const std::string base =
      "simulate --topology=abilene --x=20 --requests=3000 --catalog=2000 "
      "--c=50 --replications=4 --seed=7";
  const RunResult one =
      run_cli(base + " --threads=1 --metrics-out=" + one_path);
  const RunResult eight =
      run_cli(base + " --threads=8 --metrics-out=" + eight_path);
  EXPECT_EQ(one.exit_code, 0) << one.output;
  EXPECT_EQ(eight.exit_code, 0) << eight.output;
  const std::string one_json = slurp_file(one_path);
  ASSERT_FALSE(one_json.empty());
  EXPECT_NE(one_json.find("ccnopt-obs-v1"), std::string::npos);
  EXPECT_NE(one_json.find("sim.requests.measured"), std::string::npos);
  EXPECT_NE(one_json.find("sim.latency_ms"), std::string::npos);
  EXPECT_EQ(one_json, slurp_file(eight_path));
  std::remove(one_path.c_str());
  std::remove(eight_path.c_str());
}

TEST(Cli, TraceOutIsByteIdenticalAcrossThreadCounts) {
  const std::string one_path = testing::TempDir() + "ccnopt_trace_t1.csv";
  const std::string eight_path = testing::TempDir() + "ccnopt_trace_t8.csv";
  const std::string base =
      "simulate --topology=abilene --x=20 --requests=3000 --catalog=2000 "
      "--c=50 --replications=4 --seed=7 --trace-sample=20";
  const RunResult one = run_cli(base + " --threads=1 --trace-out=" + one_path);
  const RunResult eight =
      run_cli(base + " --threads=8 --trace-out=" + eight_path);
  EXPECT_EQ(one.exit_code, 0) << one.output;
  EXPECT_EQ(eight.exit_code, 0) << eight.output;
  const std::string one_csv = slurp_file(one_path);
  ASSERT_FALSE(one_csv.empty());
  EXPECT_EQ(one_csv.rfind("replication,request,router,content,tier,hops,"
                          "served_by,path,placement_depth,latency_ms\n",
                          0),
            0u);
  EXPECT_EQ(one_csv, slurp_file(eight_path));
  std::remove(one_path.c_str());
  std::remove(eight_path.c_str());
}

TEST(Cli, TraceOutJsonOnSingleRun) {
  const std::string path = testing::TempDir() + "ccnopt_trace_single.json";
  const RunResult result = run_cli(
      "simulate --topology=abilene --x=20 --requests=3000 --catalog=2000 "
      "--c=50 --trace-out=" +
      path);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("trace written to"), std::string::npos);
  const std::string json = slurp_file(path);
  EXPECT_NE(json.find("ccnopt-trace-v2"), std::string::npos);
  EXPECT_NE(json.find("\"path\": ["), std::string::npos);
  EXPECT_NE(json.find("\"placement_depth\": "), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, TopoOutIsByteIdenticalAcrossThreadCounts) {
  const std::string one_path = testing::TempDir() + "ccnopt_topo_t1.json";
  const std::string eight_path = testing::TempDir() + "ccnopt_topo_t8.json";
  const std::string base =
      "simulate --topology=geant --x=20 --requests=4000 --catalog=2000 "
      "--c=50 --replications=4 --seed=7";
  const RunResult one = run_cli(base + " --threads=1 --topo-out=" + one_path);
  const RunResult eight =
      run_cli(base + " --threads=8 --topo-out=" + eight_path);
  EXPECT_EQ(one.exit_code, 0) << one.output;
  EXPECT_EQ(eight.exit_code, 0) << eight.output;
  EXPECT_NE(one.output.find("topo telemetry written to"), std::string::npos);
  const std::string one_json = slurp_file(one_path);
  ASSERT_FALSE(one_json.empty());
  EXPECT_NE(one_json.find("ccnopt-topo-v1"), std::string::npos);
  EXPECT_NE(one_json.find("\"replications\": 4"), std::string::npos);
  EXPECT_NE(one_json.find("\"nodes\": ["), std::string::npos);
  EXPECT_NE(one_json.find("\"edges\": ["), std::string::npos);
  EXPECT_EQ(one_json, slurp_file(eight_path));
  std::remove(one_path.c_str());
  std::remove(eight_path.c_str());
}

TEST(Cli, TopoOutCsvOnSingleRun) {
  const std::string path = testing::TempDir() + "ccnopt_topo.csv";
  const RunResult result = run_cli(
      "simulate --topology=abilene --x=20 --requests=3000 --catalog=2000 "
      "--c=50 --topo-out=" +
      path);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("topo telemetry written to"),
            std::string::npos);
  const std::string csv = slurp_file(path);
  EXPECT_EQ(csv.rfind("kind,id,u,v,requests,local,network,origin,misses,", 0),
            0u);
  EXPECT_NE(csv.find("\nnode,0,"), std::string::npos);
  EXPECT_NE(csv.find("\nedge,,"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, TimelineOutIsByteIdenticalAcrossThreadCounts) {
  const std::string one_path = testing::TempDir() + "ccnopt_timeline_t1.json";
  const std::string eight_path =
      testing::TempDir() + "ccnopt_timeline_t8.json";
  const std::string base =
      "simulate --topology=geant --x=20 --requests=4000 --catalog=2000 "
      "--c=50 --replications=4 --seed=7 --timeline-epoch=500";
  const RunResult one =
      run_cli(base + " --threads=1 --timeline-out=" + one_path);
  const RunResult eight =
      run_cli(base + " --threads=8 --timeline-out=" + eight_path);
  EXPECT_EQ(one.exit_code, 0) << one.output;
  EXPECT_EQ(eight.exit_code, 0) << eight.output;
  const std::string one_json = slurp_file(one_path);
  ASSERT_FALSE(one_json.empty());
  EXPECT_NE(one_json.find("ccnopt-timeline-v1"), std::string::npos);
  EXPECT_NE(one_json.find("\"epoch_requests\": 500"), std::string::npos);
  EXPECT_NE(one_json.find("\"origin\""), std::string::npos);
  EXPECT_EQ(one_json, slurp_file(eight_path));
  std::remove(one_path.c_str());
  std::remove(eight_path.c_str());
}

TEST(Cli, TimelineOutCsvOnSingleRun) {
  const std::string path = testing::TempDir() + "ccnopt_timeline.csv";
  const RunResult result = run_cli(
      "simulate --topology=abilene --x=20 --requests=3000 --catalog=2000 "
      "--c=50 --timeline-epoch=999 --timeline-out=" +
      path);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("timeline written to"), std::string::npos);
  const std::string csv = slurp_file(path);
  EXPECT_EQ(csv.rfind("replication,epoch,first_request,last_request,"
                      "requests,local,network,origin,aggregated,",
                      0),
            0u);
  // 3000 requests at 999 per epoch: three full epochs plus the final
  // partial one.
  EXPECT_EQ(static_cast<int>(std::count(csv.begin(), csv.end(), '\n')), 5);
}

TEST(Cli, TimelineEpochMustBePositive) {
  const RunResult result = run_cli(
      "simulate --topology=abilene --requests=1000 --timeline-epoch=0 "
      "--timeline-out=/tmp/ccnopt_timeline_invalid.json");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("--timeline-epoch"), std::string::npos);
}

TEST(Cli, PerfettoOutWritesTraceEvents) {
  const std::string path = testing::TempDir() + "ccnopt_perfetto.json";
  const RunResult result = run_cli(
      "simulate --topology=abilene --x=20 --requests=3000 --catalog=2000 "
      "--c=50 --replications=2 --threads=2 --perfetto-out=" +
      path);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  const std::string json = slurp_file(path);
  EXPECT_NE(json.find("ccnopt-spans-v1"), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("sim.run"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, ProfileOutAlsoEmitsPerfettoSidecar) {
  const std::string path = testing::TempDir() + "ccnopt_profile_side.json";
  const std::string sidecar = path + ".perfetto.json";
  const RunResult result = run_cli(
      "simulate --topology=abilene --x=20 --requests=3000 --catalog=2000 "
      "--c=50 --profile-out=" +
      path);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  const std::string json = slurp_file(sidecar);
  EXPECT_NE(json.find("ccnopt-spans-v1"), std::string::npos);
  std::remove(path.c_str());
  std::remove(sidecar.c_str());
}

TEST(Cli, SweepMetricsOutIncludesOptimizerCounters) {
  const std::string path = testing::TempDir() + "ccnopt_sweep_metrics.json";
  const RunResult result =
      run_cli("sweep --figure=4 --metrics-out=" + path);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  const std::string json = slurp_file(path);
  EXPECT_NE(json.find("numerics.roots.brent.calls"), std::string::npos);
  EXPECT_NE(json.find("model.sweep.points"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, ProfileOutContainsSpansAndPerfCounters) {
  const std::string path = testing::TempDir() + "ccnopt_profile.json";
  const RunResult result = run_cli(
      "simulate --topology=abilene --x=20 --requests=3000 --catalog=2000 "
      "--c=50 --replications=2 --threads=2 --profile-out=" +
      path);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  const std::string json = slurp_file(path);
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
  EXPECT_NE(json.find("replication.run"), std::string::npos);
  EXPECT_NE(json.find("sim.run"), std::string::npos);
  EXPECT_NE(json.find("runtime.pool.tasks_executed"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, MetricsOutCsvFormat) {
  const std::string path = testing::TempDir() + "ccnopt_metrics.csv";
  const RunResult result = run_cli(
      "simulate --topology=abilene --x=20 --requests=2000 --catalog=2000 "
      "--c=50 --metrics-out=" +
      path);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  const std::string csv = slurp_file(path);
  EXPECT_EQ(csv.rfind("section,type,name,key,value\n", 0), 0u);
  EXPECT_NE(csv.find("metrics,counter,sim.runs,,1"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, HeteroComparesStrategies) {
  const RunResult result = run_cli("hetero --capacities=400x3,1200x3");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("equal coverage"), std::string::npos);
  EXPECT_NE(result.output.find("coordinate descent"), std::string::npos);
}

TEST(Cli, HeteroRejectsBadSpec) {
  const RunResult result = run_cli("hetero --capacities=0x3");
  EXPECT_NE(result.exit_code, 0);
}

TEST(Cli, TopologyLoadRejectsMalformedValues) {
  // Each file fails through the parse error, exit 1, never an abort.
  const std::string path = testing::TempDir() + "ccnopt_malformed.txt";
  for (const char* text :
       {"node a 0 0\nnode b 1 1\nnode c 2 2\nedge a b 1\nedge b c nan\n",
        "node a 0 0\nnode b 1 1\nnode c 2 2\nedge a b 1\nedge b c 1e300\n",
        "node a nan 0\nnode b 1 1\nedge a b 1\n"}) {
    {
      std::ofstream out(path);
      out << text;
    }
    const RunResult result = run_cli("topology --load=" + path);
    EXPECT_EQ(result.exit_code, 1) << text << result.output;
    EXPECT_NE(result.output.find("error: "), std::string::npos) << text;
    EXPECT_NE(result.output.find("line "), std::string::npos)
        << result.output;
  }
  std::remove(path.c_str());
}

TEST(Cli, TopologyStatsAndUnusedOptionWarning) {
  const RunResult result = run_cli("topology --name=geant --bogus=1");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("23 routers"), std::string::npos);
  EXPECT_NE(result.output.find("unused option --bogus"), std::string::npos);
}

}  // namespace
