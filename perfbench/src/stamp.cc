#include "src/stamp.h"

#include <sys/utsname.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

std::string TimingBuildProblem() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return "sanitizer build";
#endif
#endif
#if !defined(__OPTIMIZE__)
  return "unoptimised build (" PERFBENCH_BUILD_TYPE ")";
#else
  return "";
#endif
}

std::string StampJson(const std::string& commit, const std::string& workload, uint64_t seed,
                      int seconds, bool trace) {
  utsname u{};
  uname(&u);
  char buf[2048];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\":%ld,\"cpu\":\"%s\",\"kernel\":\"%s %s\",\"compiler\":\"%s\","
                "\"build_type\":\"%s\",\"commit\":\"%s\",\"workload\":\"%s\",\"seed\":%llu,"
                "\"seconds\":%d,\"trace\":%d}",
                sysconf(_SC_NPROCESSORS_ONLN), Escape(CpuModel()).c_str(),
                Escape(u.sysname).c_str(), Escape(u.release).c_str(),
                Escape(__VERSION__).c_str(), PERFBENCH_BUILD_TYPE, Escape(commit).c_str(),
                Escape(workload).c_str(), static_cast<unsigned long long>(seed), seconds,
                trace ? 1 : 0);
  return buf;
}

}  // namespace perfbench
