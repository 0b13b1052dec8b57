// Open-loop HTTP load generator for the benchmark.
//
// One thread multiplexes at most `max_connections` keep-alive connections
// with ppoll(2). Request i is due at a fixed offset from the phase start; it
// goes out on the first idle connection once it is due, and its latency is
// measured from the due time, so a stalled server shows in every request
// queued behind the stall. The generator also reports how late it sent
// (relative to the moment a request was both due and had a connection) and
// how many due requests were waiting for a connection (its backlog).
#ifndef KDDN_PERFBENCH_LOADGEN_H_
#define KDDN_PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One scheduled request. `wire` is the complete HTTP/1.1 request and must
/// outlive the phase.
struct ScheduledRequest {
  double due_s = 0.0;  // Offset from the phase start.
  const std::string* wire = nullptr;
  int tag = -1;  // Caller's label (document index, or -1 for admin calls).
};

struct RequestResult {
  int status = 0;           // HTTP status; 0 on a transport error.
  double latency_ms = 0.0;  // Last response byte minus due time.
  double late_ms = 0.0;     // Send minus max(due, connection idle).
  std::string body;
};

struct PhaseResult {
  std::vector<RequestResult> results;  // results[i] answers request i.
  int connections = 0;                 // Connections opened.
  int backlog_max = 0;                 // Most due requests left unsent.
  int backlog_at_last_due = 0;         // Unsent when the last one fell due.
  double wall_s = 0.0;                 // Phase start to last response.
};

struct GeneratorOptions {
  int port = 0;
  int max_connections = 1;
  /// A request still unanswered this long after the last one fell due is a
  /// transport error.
  double drain_timeout_s = 10.0;
};

/// Runs one open-loop phase. Requests must be sorted by due time.
PhaseResult RunOpenLoop(const GeneratorOptions& options,
                        const std::vector<ScheduledRequest>& requests);

/// Builds a keep-alive POST with a JSON body.
std::string HttpPost(const std::string& target, const std::string& json);

/// Blocking GET on a fresh connection; returns the body ("" on failure).
std::string HttpGet(int port, const std::string& target);

/// JSON string literal (quotes included) for `text`.
std::string JsonString(const std::string& text);

/// The number after `"key":` in `json`, searched from the first occurrence
/// of `"section":` when `section` is non-empty. NaN if absent.
double JsonNumber(const std::string& json, const std::string& key,
                  const std::string& section = "");

/// The string value of `"key":` in `json` ("" if absent).
std::string JsonStringField(const std::string& json, const std::string& key);

/// Checks the generator against a stub server that stalls for a known time.
/// Prints what it checked; returns true when every check holds.
bool SelfTest(int max_connections);

}  // namespace perfbench

#endif  // KDDN_PERFBENCH_LOADGEN_H_
