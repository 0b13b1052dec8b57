#ifndef KDDN_COMMON_JOB_EXECUTOR_H_
#define KDDN_COMMON_JOB_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/job_graph.h"

namespace kddn::jobs {

/// The process's one scheduler (DESIGN.md §14): a work-stealing executor for
/// JobGraph that owns its threads. `JobExecutor(n)` gives n lanes — n-1 lane
/// threads parked between runs, plus the thread that calls Run, which always
/// drives a lane itself. A size-1 executor owns no threads and runs every
/// graph inline.
///
/// Run(graph) seeds the graph's roots round-robin across one deque per lane,
/// opens the run to the parked lane threads and drives lane 0 on the calling
/// thread. Each lane pops its own deque LIFO (back) for locality, steals FIFO
/// (front) from other lanes when empty, and sleeps on the run's condition
/// variable when the whole run has no ready job. Completing a job counts
/// down its successors' atomic indegrees; a successor that reaches zero is
/// pushed onto the completing lane's deque (topological wakeup). Run is a
/// barrier: it returns after every job has run, rethrowing the first job
/// exception (the remaining jobs' bodies are cancelled, but the countdown
/// still drains so the graph stays reusable — the next Run resets the
/// counters and starts clean).
///
/// Sharing: concurrent Runs from different threads (the engine batcher, the
/// HTTP reactor, the main thread) share the lane threads, oldest open run
/// first. Because the caller's lane steals from every deque of its run, a
/// caller can finish its graph alone: it waits only for lane threads that
/// joined its run to leave, never for one to come free.
///
/// Determinism: a property of the graph, never of the schedule. The executor
/// guarantees exactly-once execution respecting the edges; any steal
/// interleaving is allowed, so graphs put every ordered reduction inside a
/// single fan-in job (see JobGraph).
///
/// Nesting: Run called from inside a job body (of any executor), or on a
/// size-1 executor, executes the graph inline on the calling thread in the
/// canonical topological order.
///
/// Observability: every job body runs under a trace span named after the job
/// carrying the graph generation as its span arg, and under an
/// alloc::AllocScope tagged with the job name, so Chrome-trace exports show
/// cross-batch overlap and per-job allocation behaviour without any
/// instrumentation inside the job fns.
class JobExecutor {
 public:
  /// Creates an executor of `num_lanes` lanes (clamped to >= 1).
  explicit JobExecutor(int num_lanes);

  /// Joins the lane threads. No Run may be in flight.
  ~JobExecutor();

  JobExecutor(const JobExecutor&) = delete;
  JobExecutor& operator=(const JobExecutor&) = delete;

  /// Lanes, the calling thread's included.
  int num_lanes() const { return num_lanes_.load(std::memory_order_relaxed); }

  /// Re-sizes in place to `num_lanes` lanes (clamped to >= 1), joining and
  /// re-spawning the lane threads. No Run may be in flight.
  void Resize(int num_lanes);

  /// Runs `graph` (which must be finalized) to completion. See class comment.
  void Run(JobGraph* graph);

  /// Flat fan-out over [0, count) through Run: the range is cut into
  /// contiguous blocks of at least `min_block` iterations — up to four per
  /// lane, since stealing rebalances uneven block costs — and each block is
  /// one job named `name` (a static string) with no edges. fn(begin, end)
  /// calls must write disjoint outputs; blocks run in unspecified order, or
  /// in ascending order where Run inlines. A count <= 0 makes no call.
  void ParallelForBlocked(const char* name, int64_t count, int64_t min_block,
                          const std::function<void(int64_t, int64_t)>& fn);

 private:
  struct RunState;
  /// Body of each lane thread: park until a run is open, join it, leave.
  void LaneThread();
  void StartLanes(int num_lanes);
  void StopLanes();
  void LaneLoop(RunState* state, int lane);
  /// Runs job `id`, releases its successors, and returns the bypass
  /// continuation: the first successor this completion made ready, which the
  /// caller executes directly without a deque round-trip (-1 if none).
  JobId ExecuteJob(RunState* state, int lane, JobId id);
  void RunInline(JobGraph* graph);

  std::atomic<int> num_lanes_{1};
  std::vector<std::thread> threads_;
  /// Guards open_runs_, stopping_ and every open run's lane hand-out.
  std::mutex mu_;
  /// Parked lane threads wait here for an open run (or stopping_).
  std::condition_variable wake_;
  /// Runs that still take a lane thread, oldest first.
  std::deque<RunState*> open_runs_;
  bool stopping_ = false;
};

/// The process-wide executor, sized to the hardware concurrency on first
/// use. SetGlobalThreadPoolSize / GlobalThreadPoolSize (common/thread_pool.h)
/// resize and read it; binaries expose the size as --num_threads.
JobExecutor& GlobalExecutor();

}  // namespace kddn::jobs

#endif  // KDDN_COMMON_JOB_EXECUTOR_H_
