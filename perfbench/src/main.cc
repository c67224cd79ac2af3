// Entry point of the benchmark binary. perfbench/run.py builds it and
// execs it with the paths of the freshly built rne_tool and rne_server:
//
//   perfbench --workload zipf-reload|inproc-batch --seed N
//             --seconds S --trace 0|1 --bin-dir DIR --work-dir DIR
//
// Prints a "host {...}" line, informational lines, and as its last line
// the result object; exits 1 when a check failed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "zipf-reload|inproc-batch --seed N --seconds S "
               "--trace 0|1 --bin-dir DIR --work-dir DIR\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, bin_dir;
  Env env;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      env.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage("--seed expects a whole number");
    } else if (flag == "--seconds") {
      env.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(env.seconds > 0)) {
        return Usage("--seconds expects a positive number");
      }
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "1") == 0 ? 1 : std::strcmp(value, "0") == 0 ? 0 : -1;
    } else if (flag == "--bin-dir") {
      bin_dir = value;
    } else if (flag == "--work-dir") {
      env.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  Workload w;
  if (!ParseWorkload(workload, &w)) return Usage("unknown --workload");
  if (trace < 0) return Usage("--trace expects 0 or 1");
  if (bin_dir.empty() || env.work_dir.empty()) {
    return Usage("--bin-dir and --work-dir are required");
  }
  env.rne_tool = bin_dir + "/rne_tool";
  env.rne_server = bin_dir + "/rne_server";

  std::printf("host %s\n", HostFactsJson().c_str());
  std::fflush(stdout);
  const Result result = trace == 1            ? RunTraced(env, w)
                        : IsSocketWorkload(w) ? RunSocketWorkload(env, w)
                                              : RunInprocWorkload(env);
  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  }
  std::printf("%s\n", result.ToJson().c_str());
  return result.correct ? 0 : 1;
}
