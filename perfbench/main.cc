// perfbench: one workload per process.
//
//   perfbench --workload <offline_full|offline_sharded|serve_zipf|
//                         stream_drift>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Prints a context line, then as its last line one JSON object with
// "correct", "attempted", "failed" and "metrics": the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Work files go under
// .bench_build/work-<pid> in the current directory and are removed at exit;
// a traced run leaves its spans in .bench_build/traces/.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "common/thread_pool.h"
#include "tensor/simd.h"
#include "workloads.h"

namespace {

using perfbench::Report;
using perfbench::RunArgs;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <offline_full|offline_sharded|"
               "serve_zipf|stream_drift> --seed <n> --seconds <s> "
               "--trace <0|1>\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, RunArgs* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || args->seconds <= 0) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

std::string ContextJson(const Report& report) {
  std::string out = "{";
  for (const auto& [key, value] : report.context) {
    if (out.size() > 1) out += ", ";
    out += "\"" + key + "\": " + value;
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  // Before anything can create the pool, the arena or the SIMD table: the
  // caller's GRIMP_* overrides must not change a workload.
  const std::vector<std::string> neutralised = perfbench::NeutraliseGrimpEnv();

  RunArgs args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  void (*run)(const RunArgs&, Report*) = nullptr;
  if (args.workload == "offline_full") run = perfbench::RunOfflineFull;
  if (args.workload == "offline_sharded") run = perfbench::RunOfflineSharded;
  if (args.workload == "serve_zipf") run = perfbench::RunServeZipf;
  if (args.workload == "stream_drift") run = perfbench::RunStreamDrift;
  if (run == nullptr) return Usage();

  Report report;
  report.context["workload"] = "\"" + args.workload + "\"";
  report.context["seed"] = std::to_string(args.seed);
  report.context["hardware_threads"] =
      std::to_string(std::thread::hardware_concurrency());
  report.context["load_avg_1m_at_start"] =
      std::to_string(perfbench::LoadAverage1m());
  std::string removed = "[";
  for (const std::string& name : neutralised) {
    removed += (removed.size() > 1 ? ", \"" : "\"") + name + "\"";
  }
  report.context["neutralised_env"] = removed + "]";

  const std::string work_dir =
      ".bench_build/work-" + std::to_string(static_cast<long>(getpid()));
  args.work_dir = work_dir;
  std::filesystem::create_directories(work_dir);

  const double start = perfbench::Now();
  run(args, &report);
  report.context["run_wall_s"] = std::to_string(perfbench::Now() - start);
  report.context["simd_level"] = std::string("\"") +
      grimp::SimdLevelName(grimp::ActiveSimdLevel()) + "\"";
  report.context["pool_threads_observed"] =
      std::to_string(grimp::ThreadPool::GlobalThreads());
  std::filesystem::remove_all(work_dir);

  const bool correct = report.failed == 0 && report.attempted > 0;
  if (args.trace) {
    std::filesystem::create_directories(".bench_build/traces");
    const std::string path = ".bench_build/traces/" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    if (!perfbench::Tracer::Global().WriteJson(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    report.context["trace_file"] = "\"" + path + "\"";
    for (const auto& [name, unit] : perfbench::LayerMetricUnits()) {
      if (!report.layers.Has(name)) report.layers.Set(name, 0.0, unit);
    }
  } else {
    report.e2e.Set("ok_frac",
                   1.0 - static_cast<double>(report.failed) /
                             static_cast<double>(std::max<int64_t>(
                                 1, report.attempted)),
                   "fraction");
    report.e2e.Set("peak_rss_mb", perfbench::PeakRssMb(), "MB");
  }
  std::printf("context: %s\n", ContextJson(report).c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<long long>(report.attempted),
      static_cast<long long>(report.failed),
      (args.trace ? report.layers : report.e2e).ToJson().c_str());
  return 0;
}
