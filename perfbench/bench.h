// Shared pieces of the benchmark program: the workload table, the metric
// report, and small statistics helpers.
#ifndef KDDN_PERFBENCH_BENCH_H_
#define KDDN_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "synth/cohort.h"

namespace perfbench {

/// One workload: the corpus and model it trains, and the traffic its
/// trained snapshots then serve. Every workload runs the same user path
/// (train -> evaluate -> freeze -> score offline -> serve over HTTP), so it
/// reports every end-to-end metric; the sizes decide which layers dominate.
struct WorkloadSpec {
  const char* name;
  kddn::synth::CorpusKind corpus;
  const char* model;  // "BK-DDN" or "AK-DDN".
  int embedding_dim;
  int patients;  // Training cohort, generated.
  int epochs;
  int max_words;
  int max_concepts;
  int train_reps;  // Build+train+eval repetitions at the default window.
  int b_examples;  // Snapshot B trains 1 epoch on this many examples.
  int heldout_docs;     // Held-out documents generated for scoring.
  int offline_chunks;   // Offline scoring: chunks x docs, one rate each.
  int offline_chunk_docs;
  double repeat_share;  // HTTP: share of requests re-sending a recent doc.
  double low_rps, low_s;
  double high_rps, high_s;
  double swap_rps, swap_s;
  double probe_start_rps;  // First max_rps probe, near the expected knee.
  double probe_s;          // Length of one max_rps probe.
};

/// The workload table, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& Workloads();

/// Named metric with unit; `detail` says what it is a statistic of (e.g.
/// "p99 of 1000 samples").
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string detail;
};

/// Collects metrics, output checks and failure counts for one run and
/// prints them: one human-readable line each, then the result JSON as the
/// last line of stdout.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& detail = "");
  /// Records an output check; a failed check makes the run incorrect.
  void Check(bool ok, const std::string& what);
  void Count(int64_t attempted, int64_t failed);
  void Note(const std::string& line);

  bool correct() const { return correct_; }
  /// Prints the metric lines and the final JSON line.
  void Print() const;

 private:
  std::vector<Metric> metrics_;
  bool correct_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);
double Median(std::vector<double> values);
/// Nearest-rank quantile, q in [0, 1].
double Quantile(std::vector<double> values, double q);
/// Peak resident set size of this process (VmHWM), MiB.
double PeakRssMb();
/// CPU time the hypervisor gave to other guests and the total CPU time
/// since boot, in clock ticks (/proc/stat); zeros where unavailable.
struct CpuTicks {
  double steal = 0.0;
  double total = 0.0;
};
CpuTicks ReadCpuTicks();
std::string Hex(uint64_t value);

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
};

/// Runs one workload end to end and fills `report`.
void RunWorkload(const WorkloadSpec& spec, const RunOptions& options,
                 Report* report);

}  // namespace perfbench

#endif  // KDDN_PERFBENCH_BENCH_H_
