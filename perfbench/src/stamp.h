// Host and build stamp attached to every result, and the guard that keeps
// sanitizer or unoptimised builds from reporting timings.

#ifndef PERFBENCH_SRC_STAMP_H_
#define PERFBENCH_SRC_STAMP_H_

#include <cstdint>
#include <string>

namespace perfbench {

// Empty when this binary may report timings; otherwise why not.
std::string TimingBuildProblem();

// One JSON object: nproc, cpu model, kernel, compiler, build type, the
// source revision `commit` (supplied by the launcher), workload and seed.
std::string StampJson(const std::string& commit, const std::string& workload, uint64_t seed,
                      int seconds, bool trace);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STAMP_H_
