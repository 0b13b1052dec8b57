#ifndef KDDN_COMMON_JOB_GRAPH_H_
#define KDDN_COMMON_JOB_GRAPH_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

namespace kddn::jobs {

/// Index of a job within one JobGraph (dense, assigned by AddJob in order).
using JobId = int32_t;

/// A reusable dependency graph of jobs (DESIGN.md §14). Build once — AddJob
/// for each unit of work, AddEdge for each before/after constraint, then
/// Finalize — and hand it to JobExecutor::Run as many times as needed: the
/// graph stores each job's initial indegree, so a run only resets atomic
/// countdown counters and never re-allocates. `generation()` counts completed
/// runs and is attached to every job's trace span, which is what lets a
/// Chrome-trace export show batch k+1's jobs overlapping batch k's.
///
/// Determinism contract: the executor promises only that a job runs after all
/// of its predecessors and exactly once per run. Any two jobs not ordered by
/// a path may run concurrently and in either order, so jobs must write
/// disjoint outputs unless an edge orders them — reductions belong in a
/// single fan-in job that combines partial results in a fixed order.
///
/// Job names must be string literals (or otherwise have static storage
/// duration): spans store the pointer, not a copy.
///
/// Not thread-safe to build concurrently; runs are driven by one caller at a
/// time (JobExecutor::Run is a barrier).
class JobGraph {
 public:
  JobGraph() = default;

  JobGraph(const JobGraph&) = delete;
  JobGraph& operator=(const JobGraph&) = delete;

  /// Adds a job and returns its id. `fn` may be empty (a pure ordering node).
  /// Only valid before Finalize().
  JobId AddJob(const char* name, std::function<void()> fn);

  /// Requires job `before` to complete before job `after` starts. Duplicate
  /// edges are allowed (counted consistently). Only valid before Finalize().
  void AddEdge(JobId before, JobId after);

  /// Freezes the graph: computes the root set and a topological order (Kahn,
  /// ascending-id tie-break — also the inline execution order), throwing
  /// KddnError if the edges form a cycle. Required before Run.
  void Finalize();

  bool finalized() const { return finalized_; }

  /// Number of jobs.
  int size() const { return static_cast<int>(jobs_.size()); }

  /// Completed runs of this graph (incremented by JobExecutor::Run on
  /// success; a run that rethrows a job exception does not count).
  uint64_t generation() const { return generation_; }

  const char* name(JobId id) const { return jobs_[id].name; }

  /// Deterministic ascending-id topological order (valid after Finalize).
  const std::vector<JobId>& topological_order() const { return topo_order_; }

 private:
  friend class JobExecutor;

  struct Job {
    const char* name = nullptr;
    std::function<void()> fn;
    std::vector<JobId> successors;
    int initial_pending = 0;        // Indegree at rest; reset source per run.
    std::atomic<int> pending{0};    // Live countdown during a run.
  };

  // deque, not vector: Job holds an atomic and must never relocate once an
  // executor run is counting it down.
  std::deque<Job> jobs_;
  std::vector<JobId> roots_;       // Jobs with no predecessors.
  std::vector<JobId> topo_order_;  // Kahn order, ascending-id tie-break.
  bool finalized_ = false;
  uint64_t generation_ = 0;
};

}  // namespace kddn::jobs

#endif  // KDDN_COMMON_JOB_GRAPH_H_
