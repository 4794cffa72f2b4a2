// decseq_perfbench — one workload per run, against the program's public API.
//
//   decseq_perfbench --workload fig3_steady|live_churn|udp_loopback
//                    --seed N --seconds S --trace 0|1 [--trace-dir DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same workload
// with spans around the calls into each layer and prints the per-layer
// metrics, writing the spans to DIR/<workload>-seed<N>.json. The last line
// of standard output is one JSON object: correct, attempted, failed and
// metrics. Any violated correctness check makes correct false and the exit
// code 1.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "deployment.h"
#include "trace.h"
#include "util.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "decseq_perfbench: %s\nusage: decseq_perfbench --workload "
               "fig3_steady|live_churn|udp_loopback --seed N --seconds S "
               "--trace 0|1 [--trace-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-dir") {
      options.trace_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  Metrics metrics;
  Outcome outcome;
  Trace trace;
  if (options.trace) {
    trace.enable(1 << 20);
    declare_layer_metrics(metrics);
  }
  try {
    if (options.workload == "fig3_steady") {
      run_fig3_steady(options, metrics, outcome, trace);
    } else if (options.workload == "live_churn") {
      run_live_churn(options, metrics, outcome, trace);
    } else if (options.workload == "udp_loopback") {
      run_udp_loopback(options, metrics, outcome, trace);
    } else {
      return usage(("unknown workload '" + options.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    outcome.violate(std::string("exception: ") + e.what());
  }

  if (options.trace) {
    metrics.set("trace.spans", "count",
                static_cast<double>(trace.totals().size()));
    if (!options.trace_dir.empty()) {
      const std::string path = options.trace_dir + "/" + options.workload +
                               "-seed" + std::to_string(options.seed) + ".json";
      if (trace.write(path)) {
        std::printf("# spans written to %s\n", path.c_str());
      } else {
        outcome.violate("cannot write " + path);
      }
    }
  }

  const bool correct = outcome.violations.empty();
  std::printf("# %s seed %llu: %llu publishes, %llu expected deliveries, "
              "%llu transitions attempted; %llu failed\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(outcome.publishes),
              static_cast<unsigned long long>(outcome.expected_deliveries),
              static_cast<unsigned long long>(outcome.transitions),
              static_cast<unsigned long long>(outcome.failed()));
  for (const std::string& v : outcome.violations) {
    std::printf("# VIOLATION: %s\n", v.c_str());
  }
  metrics.print_table();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted()),
              static_cast<unsigned long long>(outcome.failed()),
              metrics.json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
