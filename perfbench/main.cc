// perfbench — runs one workload of the benchmark and writes its raw
// measurements (per-query samples, per-job counters, set-up times, spans)
// as one JSON file. run.py builds this binary, runs it and turns the file
// into the end-to-end or per-layer metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --out FILE --scratch DIR
//
// Exit code 0 when the run completed (wrong results are reported in the
// file, not by the exit code), non-zero when it could not run at all.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Options* opts) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opts->workload = value;
    } else if (key == "--seed") {
      opts->seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return false;
    } else if (key == "--seconds") {
      opts->seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(opts->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      opts->trace = value[0] == '1';
    } else if (key == "--out") {
      opts->out_path = value;
    } else if (key == "--scratch") {
      opts->scratch_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opts->workload.empty() && !opts->out_path.empty() &&
         !opts->scratch_dir.empty();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  if (!ParseArgs(argc, argv, &opts)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --out FILE --scratch DIR\n");
    return 2;
  }
  if (opts.workload == "serve-mixed") return perfbench::RunServeWorkload(opts);
  return perfbench::RunBatchWorkload(opts);
}
