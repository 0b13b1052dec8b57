#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

// Sizes are set so that one run measures for about the default 30-second
// window on a 4-core host, every percentile has at least 1,000 samples and
// every gated time spans seconds (see README.md for why each workload
// exists).
const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      // Short NURSING documents, BK-DDN at embedding 20: training is
      // autograd- and allocation-heavy with small GEMMs; serving is
      // encode-bound and every request misses the concept cache.
      {"train-nursing-bk", kddn::synth::CorpusKind::kNursing, "BK-DDN", 20,
       6622, 3, 160, 64, 2, 1500, 24000, 12, 1500, 0.0, 200, 5.0, 600, 2.5,
       400, 4.0, 1100, 1.0},
      // Serving-heavy: a one-epoch NURSING BK-DDN, then longer open-loop
      // phases where half the requests repeat a recent document
      // (concept-cache hits) and the swap phase flips snapshots every 250 ms.
      {"serve-triage", kddn::synth::CorpusKind::kNursing, "BK-DDN", 20, 6622,
       1, 160, 64, 3, 1500, 24000, 12, 1500, 0.5, 200, 6.0, 600, 3.0, 400, 4.0,
       1100, 1.0},
  };
  return kWorkloads;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, const std::string& detail) {
  metrics_.push_back({name, value, unit, detail});
  if (!std::isfinite(value)) {
    Check(false, "metric " + name + " is finite");
  }
}

void Report::Check(bool ok, const std::string& what) {
  std::printf("check %s: %s\n", ok ? "ok" : "FAILED", what.c_str());
  correct_ = correct_ && ok;
}

void Report::Count(int64_t attempted, int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Note(const std::string& line) {
  std::printf("%s\n", line.c_str());
}

void Report::Print() const {
  for (const Metric& m : metrics_) {
    std::printf("metric %-34s %16.6f %-10s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.detail.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct_ ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_) +
          ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0);
    json += (i == 0 ? "\"" : ", \"") + metrics_[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  CpuTicks ticks;
  stat >> cpu;
  // user nice system idle iowait irq softirq steal ...
  for (int field = 0; field < 8 && stat; ++field) {
    double value = 0.0;
    stat >> value;
    ticks.total += value;
    if (field == 7) {
      ticks.steal = value;
    }
  }
  return ticks;
}

std::string Hex(uint64_t value) {
  char text[20];
  std::snprintf(text, sizeof text, "%016llx",
                static_cast<unsigned long long>(value));
  return text;
}

}  // namespace perfbench
