// perfbench — the QDockBank end-to-end and per-layer benchmark harness.
//
//   perfbench --workload eval6|fold_batch|serve_mix --seed N --seconds S
//             --trace 0|1 --workdir DIR
//
// Normally started by perfbench/run.py, which builds this binary, pins the
// environment and gives every run its own scratch directory.  The last line
// on stdout is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end metrics of the workload;
// with --trace 1 they are the per-layer metrics (every layer is swept in
// every traced run) plus the workload's tracing overhead.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "quantum/kernels.h"
#include "util.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload eval6|fold_batch|serve_mix "
               "--seed N --seconds S --trace 0|1 --workdir DIR\n",
               why);
  std::exit(2);
}

perfbench::Args parse_args(int argc, char** argv) {
  perfbench::Args a;
  bool have_workdir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (key == "--workdir") {
      a.workdir = value;
      have_workdir = true;
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (a.workload != "eval6" && a.workload != "fold_batch" && a.workload != "serve_mix") {
    usage("unknown workload");
  }
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  if (!have_workdir) usage("--workdir is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse_args(argc, argv);
  std::printf("machine: nproc=%d simd=%s compiler=%s build=%s\n", perfbench::hardware_threads(),
              qdb::kernels_avx2_active() ? "avx2" : "scalar", QDB_PERF_COMPILER,
              QDB_PERF_BUILD_TYPE);
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::fflush(stdout);

  const perfbench::CpuTicks ticks0 = perfbench::cpu_ticks();
  perfbench::Outcome out;
  try {
    if (args.workload == "eval6") {
      perfbench::run_eval6(args, out);
    } else if (args.workload == "fold_batch") {
      perfbench::run_fold_batch(args, out);
    } else {
      perfbench::run_serve_mix(args, out);
    }
    if (args.trace) {
      const std::vector<perfbench::ChainResult> chain = perfbench::sweep_eval_layers(args, out);
      perfbench::sweep_fold_layers(args, out);
      perfbench::sweep_serve_layers(args, chain, out);
    } else {
      out.metrics.set("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench: %s\n", ex.what());
    return 1;
  }

  // Host noise diagnostic: time the hypervisor took from this VM's CPUs.
  std::printf("host: %.1f%% of CPU time stolen by the hypervisor during the run\n",
              100.0 * perfbench::steal_share(ticks0, perfbench::cpu_ticks()));
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              out.correct ? "true" : "false", static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed), out.metrics.to_json().c_str());
  return 0;
}
