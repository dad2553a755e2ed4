// perfbench: runs one workload against the in-process server and prints
// its metrics. Usage:
//
//   perfbench --workload prompt_mix|control_rtt --seed N --seconds S
//             --trace 0|1 [--commit REV] [--spans FILE]
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Lines before it are the host/build stamp, check notes and
// every metric with its sample count. Exits 1 when an output check failed,
// 2 on bad usage or a build that must not report timings.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/client.h"
#include "src/stamp.h"

namespace {

void PrintMetrics(const std::vector<perfbench::Metric>& metrics, const char* kind) {
  for (const auto& m : metrics) {
    std::printf("%s %-44s %16.6f %-6s n=%llu\n", kind, m.name.c_str(), m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.n));
  }
}

std::string ResultJson(const perfbench::WorkloadResult& result,
                       const std::vector<perfbench::Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--commit REV] [--spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr) {
      return Usage();
    }
    ++i;
    if (std::strcmp(arg, "--workload") == 0) {
      options.workload = value;
    } else if (std::strcmp(arg, "--seed") == 0) {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(arg, "--seconds") == 0) {
      options.seconds = std::atoi(value);
    } else if (std::strcmp(arg, "--trace") == 0) {
      options.trace = std::atoi(value) != 0;
    } else if (std::strcmp(arg, "--commit") == 0) {
      options.commit = value;
    } else if (std::strcmp(arg, "--spans") == 0) {
      options.spans_path = value;
    } else {
      return Usage();
    }
  }
  if (options.seconds < 1) {
    return Usage();
  }
  const std::string problem = perfbench::TimingBuildProblem();
  if (!problem.empty()) {
    std::fprintf(stderr, "perfbench: refusing to report timings from a %s\n", problem.c_str());
    return 2;
  }

  perfbench::WorkloadResult result;
  if (options.workload == "prompt_mix") {
    result = perfbench::RunPromptMix(options);
  } else if (options.workload == "control_rtt") {
    result = perfbench::RunControlRtt(options);
  } else {
    return Usage();
  }

  std::printf("stamp %s\n", perfbench::StampJson(options.commit, options.workload, options.seed,
                                                  options.seconds, options.trace)
                                 .c_str());
  for (const auto& note : result.notes) {
    std::printf("note %s\n", note.c_str());
  }
  std::printf("note attempted=%llu failed=%llu failed_ratio=%.6g\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              result.attempted == 0 ? 1.0
                                    : static_cast<double>(result.failed) /
                                          static_cast<double>(result.attempted));
  PrintMetrics(result.e2e, "e2e");
  PrintMetrics(result.layer, "layer");
  if (result.attempted == 0) {
    result.correct = false;
  }
  std::printf("%s\n", ResultJson(result, options.trace ? result.layer : result.e2e).c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
