// perfbench: runs one named workload against the vnros modules and prints
// its metrics. Usually started through run.py, which builds this binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>] [--rev <text>]
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). Before it come the human-readable report and the run record.
// Exit status is 0 only when every correctness check passed and no op failed.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <string>

#include "harness.h"

namespace {

using perfbench::Options;
using perfbench::RunResult;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload kv_small_mixed|kv_large_put|vm_churn --seed N "
               "--seconds S --trace 0|1 [--out DIR] [--rev TEXT]\n");
  return 2;
}

std::string host_json(const std::string& rev) {
  return "{\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ",\"compiler\":\"" + perfbench::json_escape(__VERSION__) +
         "\",\"build_type\":\"" + PERFBENCH_BUILD_TYPE +
         "\",\"vnros_metrics\":true,\"revision\":\"" + perfbench::json_escape(rev) + "\"}";
}

// Names this run apart from every other, repeats of one seed included:
// start time (UTC) and process id.
std::string make_run_id() {
  char stamp[32];
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  gmtime_r(&now, &utc);
  std::strftime(stamp, sizeof stamp, "%Y%m%dT%H%M%SZ", &utc);
  return std::string(stamp) + "-" + std::to_string(getpid());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string rev = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0';
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), &end);
      have_seconds = end != nullptr && *end == '\0' && opt.seconds > 0;
    } else if (flag == "--trace") {
      opt.trace = val == "1";
      have_trace = val == "0" || val == "1";
    } else if (flag == "--out") {
      opt.out_dir = val;
    } else if (flag == "--rev") {
      rev = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage();
  }
  const std::string run_id = make_run_id();
  opt.run_name = opt.workload + "-seed" + std::to_string(opt.seed) +
                 (opt.trace ? "-trace-" : "-") + run_id;

  RunResult res;
  if (opt.workload == "kv_small_mixed" || opt.workload == "kv_large_put") {
    res = perfbench::run_kv(opt);
  } else if (opt.workload == "vm_churn") {
    res = perfbench::run_vm(opt);
  } else {
    return usage();
  }
  if (res.attempted == 0) {
    res.fail("no op was attempted");
  }

  std::printf("# perfbench %s seed %llu, %g s, %s\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? "traced (per-layer metrics)" : "untraced (end-to-end metrics)");
  for (const std::string& line : res.report) {
    std::printf("%s\n", line.c_str());
  }
  std::printf("  attempted %llu  failed %llu  error_rate %.6g\n",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed),
              static_cast<double>(res.failed) / static_cast<double>(res.attempted));
  for (const std::string& e : res.errors) {
    std::printf("  CHECK FAILED: %s\n", e.c_str());
  }

  std::string metrics = "{";
  for (size_t i = 0; i < res.metrics.size(); ++i) {
    const perfbench::Metric& m = res.metrics[i];
    metrics += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + perfbench::fmt_num(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  metrics += "}";
  const std::string record =
      "{\"workload\":\"" + perfbench::json_escape(opt.workload) +
      "\",\"run_id\":\"" + run_id + "\",\"seed\":" + std::to_string(opt.seed) +
      ",\"seconds\":" + perfbench::fmt_num(opt.seconds) +
      ",\"trace\":" + (opt.trace ? "true" : "false") + ",\"host\":" + host_json(rev) +
      ",\"params\":" + res.params_json + ",\"latency\":" +
      (res.samples_json.empty() ? "{}" : res.samples_json) +
      ",\"attempted\":" + std::to_string(res.attempted) +
      ",\"failed\":" + std::to_string(res.failed) + ",\"metrics\":" + metrics + "}";
  std::printf("# record %s\n", record.c_str());
  if (!opt.out_dir.empty()) {
    std::ofstream out(opt.out_dir + "/" + opt.run_name + ".json");
    out << record << "\n";
  }

  const bool correct = res.correct && res.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
