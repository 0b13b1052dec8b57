// Benchmark program: runs one named workload from a seed and prints its
// metrics, one line each, then a JSON result as the last line of stdout.
//
//   kddn_perfbench --workload train-nursing-bk --seed 1 --seconds 30 --trace 0
//   kddn_perfbench --selftest
//
// --trace 0 prints the end-to-end metrics (tracing, GEMM timing and the
// per-layer probes off); --trace 1 prints the per-layer metrics. The exit
// code is nonzero when an output check fails. perfbench/run.py builds this
// binary and is the entry point BENCHMARK.json names.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "bench.h"
#include "common/thread_pool.h"
#include "loadgen.h"
#include "tensor/tensor_ops.h"

namespace {

[[noreturn]] void Usage(const char* error) {
  std::fprintf(stderr,
               "error: %s\nusage: kddn_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n       kddn_perfbench --selftest\n"
               "workloads:",
               error);
  for (const perfbench::WorkloadSpec& spec : perfbench::Workloads()) {
    std::fprintf(stderr, " %s", spec.name);
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunOptions options;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage(("missing value for " + arg).c_str());
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--selftest") {
      selftest = true;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  if (selftest) {
    return perfbench::SelfTest(nproc) ? 0 : 1;
  }
  const perfbench::WorkloadSpec* spec = nullptr;
  for (const perfbench::WorkloadSpec& candidate : perfbench::Workloads()) {
    if (workload == candidate.name) {
      spec = &candidate;
    }
  }
  if (spec == nullptr) {
    Usage(("unknown workload '" + workload + "'").c_str());
  }
  if (!(options.seconds > 0.0)) {
    Usage("--seconds must be positive");
  }
  std::printf("host nproc=%d gemm_isa=%s build_type=%s pool=%d seed=%llu "
              "workload=%s trace=%d seconds=%g\n",
              nproc, kddn::ActiveGemmIsa(), KDDN_PERFBENCH_BUILD_TYPE,
              kddn::GlobalThreadPoolSize(),
              static_cast<unsigned long long>(options.seed), spec->name,
              options.trace ? 1 : 0, options.seconds);
  perfbench::Report report;
  const perfbench::CpuTicks before = perfbench::ReadCpuTicks();
  try {
    perfbench::RunWorkload(*spec, options, &report);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "benchmark aborted: %s\n", error.what());
    return 1;
  }
  // Time taken by other guests on the host: a run with a large share was
  // slowed by its neighbours, not by the program.
  const perfbench::CpuTicks after = perfbench::ReadCpuTicks();
  const double total = after.total - before.total;
  std::printf("host steal_share=%.4f\n",
              total > 0.0 ? (after.steal - before.steal) / total : 0.0);
  report.Print();
  return report.correct() ? 0 : 1;
}
