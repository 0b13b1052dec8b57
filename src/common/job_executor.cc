#include "common/job_executor.h"

#include <algorithm>
#include <exception>
#include <memory>

#include "common/alloc_tracker.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "common/trace.h"

namespace kddn::jobs {
namespace {

/// True while the calling thread drives a lane of any executor's run: a Run
/// nested in a job body then executes inline. The body already holds a lane,
/// so its nested graph runs on that lane in canonical order instead of
/// competing for the others — nested fan-outs never stack schedulers.
thread_local bool t_on_lane = false;

/// Marks the calling thread as on a lane for the current scope.
class OnLaneScope {
 public:
  OnLaneScope() : previous_(t_on_lane) { t_on_lane = true; }
  ~OnLaneScope() { t_on_lane = previous_; }

  OnLaneScope(const OnLaneScope&) = delete;
  OnLaneScope& operator=(const OnLaneScope&) = delete;

 private:
  bool previous_;
};

int HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

/// Shared state of one Run invocation. All of it lives on the calling
/// thread's stack: Run is a barrier that also waits for every lane thread
/// that joined to leave, so nothing outlives the call, and nested runs
/// (which execute inline) never touch another run's state.
struct JobExecutor::RunState {
  /// One scheduling lane's deque. The owner pushes and pops at the back
  /// (LIFO, cache-warm successors first); thieves take from the front (FIFO,
  /// oldest work first — the classic stealing split that keeps owner and
  /// thief off the same end).
  struct Lane {
    std::mutex mu;
    std::deque<JobId> jobs;
  };

  JobGraph* graph = nullptr;
  int num_lanes = 0;
  std::vector<std::unique_ptr<Lane>> lanes;

  /// Jobs sitting in some deque, not yet taken. Paired with `sleepers` in a
  /// seq_cst store/load protocol (see LaneLoop) so a pusher never misses a
  /// sleeping lane.
  std::atomic<int64_t> ready{0};
  /// Jobs not yet completed (taken or not). 0 ends the run.
  std::atomic<int64_t> remaining{0};
  /// Lanes blocked on idle_cv.
  std::atomic<int> sleepers{0};
  /// Set by the first job exception: later job bodies are skipped (their
  /// successor countdown still runs, so `remaining` drains to 0).
  std::atomic<bool> cancelled{false};

  std::mutex idle_mu;
  std::condition_variable idle_cv;

  std::mutex error_mu;
  std::exception_ptr error;

  /// Lane hand-out, guarded by the executor's mu_: the next lane index a
  /// joining lane thread takes (the caller drives lane 0), the lane threads
  /// currently inside LaneLoop, and the caller's wait for them to leave.
  int next_lane = 1;
  int helpers = 0;
  std::condition_variable helpers_left;

  bool Done() const { return remaining.load(std::memory_order_acquire) == 0; }

  void CaptureError() {
    cancelled.store(true, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(error_mu);
    if (!error) {
      error = std::current_exception();
    }
  }

  /// Wakes sleeping lanes after `ready` or `remaining` changed. The empty
  /// critical section orders the notify against a lane that is between its
  /// predicate check and the wait — the standard no-lost-wakeup handshake.
  void WakeSleepers() {
    if (sleepers.load(std::memory_order_seq_cst) > 0) {
      { std::lock_guard<std::mutex> lock(idle_mu); }
      idle_cv.notify_all();
    }
  }
};

JobExecutor::JobExecutor(int num_lanes) { StartLanes(num_lanes); }

JobExecutor::~JobExecutor() { StopLanes(); }

void JobExecutor::StartLanes(int num_lanes) {
  const int lanes = std::max(1, num_lanes);
  num_lanes_.store(lanes, std::memory_order_relaxed);
  stopping_ = false;
  threads_.reserve(lanes - 1);
  for (int i = 0; i < lanes - 1; ++i) {
    threads_.emplace_back([this] { LaneThread(); });
  }
}

void JobExecutor::StopLanes() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& thread : threads_) {
    thread.join();
  }
  threads_.clear();
}

void JobExecutor::Resize(int num_lanes) {
  if (std::max(1, num_lanes) == this->num_lanes()) {
    return;
  }
  StopLanes();
  StartLanes(num_lanes);
}

void JobExecutor::LaneThread() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    wake_.wait(lock, [this] { return stopping_ || !open_runs_.empty(); });
    if (stopping_) {
      return;
    }
    // Join the oldest open run on its next free lane; a run with all its
    // lanes handed out closes to later joiners.
    RunState* run = open_runs_.front();
    const int lane = run->next_lane++;
    if (run->next_lane == run->num_lanes) {
      open_runs_.pop_front();
    }
    ++run->helpers;
    lock.unlock();
    LaneLoop(run, lane);
    lock.lock();
    // Notified under mu_: the caller cannot see helpers == 0, return and
    // destroy the run state before this notify is done.
    if (--run->helpers == 0) {
      run->helpers_left.notify_all();
    }
  }
}

void JobExecutor::Run(JobGraph* graph) {
  KDDN_CHECK(graph != nullptr);
  KDDN_CHECK(graph->finalized()) << "Run on an unfinalized JobGraph";
  if (graph->jobs_.empty()) {
    ++graph->generation_;
    return;
  }
  const int lanes = static_cast<int>(std::min<int64_t>(
      num_lanes(), static_cast<int64_t>(graph->jobs_.size())));
  if (lanes <= 1 || t_on_lane) {
    RunInline(graph);
    return;
  }

  RunState state;
  state.graph = graph;
  state.num_lanes = lanes;
  state.lanes.reserve(lanes);
  for (int i = 0; i < lanes; ++i) {
    state.lanes.push_back(std::make_unique<RunState::Lane>());
  }
  // Arm the per-run countdowns from the graph's resting indegrees — this is
  // the whole cost of re-running a built graph.
  for (JobGraph::Job& job : graph->jobs_) {
    job.pending.store(job.initial_pending, std::memory_order_relaxed);
  }
  // Seed the roots round-robin before any lane runs (no locking needed yet).
  for (size_t i = 0; i < graph->roots_.size(); ++i) {
    state.lanes[i % lanes]->jobs.push_back(graph->roots_[i]);
  }
  state.ready.store(static_cast<int64_t>(graph->roots_.size()),
                    std::memory_order_relaxed);
  state.remaining.store(static_cast<int64_t>(graph->jobs_.size()),
                        std::memory_order_relaxed);

  // Open the run to the lane threads, then drive lane 0 here. The caller's
  // lane steals from every deque, so it finishes the graph even if no lane
  // thread is free to join.
  {
    std::lock_guard<std::mutex> lock(mu_);
    open_runs_.push_back(&state);
  }
  for (int i = 1; i < lanes; ++i) {
    wake_.notify_one();
  }
  LaneLoop(&state, 0);
  {
    // Close the run to late joiners, then wait only for the lane threads
    // that joined it to leave.
    std::unique_lock<std::mutex> lock(mu_);
    const auto open = std::find(open_runs_.begin(), open_runs_.end(), &state);
    if (open != open_runs_.end()) {
      open_runs_.erase(open);
    }
    state.helpers_left.wait(lock, [&] { return state.helpers == 0; });
  }

  if (state.error) {
    std::rethrow_exception(state.error);
  }
  ++graph->generation_;
}

void JobExecutor::LaneLoop(RunState* state, int lane) {
  OnLaneScope on_lane;
  RunState::Lane& own = *state->lanes[lane];
  for (;;) {
    JobId id = -1;
    {
      std::lock_guard<std::mutex> lock(own.mu);
      if (!own.jobs.empty()) {
        id = own.jobs.back();
        own.jobs.pop_back();
      }
    }
    if (id < 0) {
      // Steal scan, starting from the next lane so thieves spread out.
      for (int d = 1; d < state->num_lanes && id < 0; ++d) {
        RunState::Lane& victim = *state->lanes[(lane + d) % state->num_lanes];
        std::lock_guard<std::mutex> lock(victim.mu);
        if (!victim.jobs.empty()) {
          id = victim.jobs.front();
          victim.jobs.pop_front();
        }
      }
    }
    if (id < 0) {
      if (state->Done()) {
        return;
      }
      std::unique_lock<std::mutex> lock(state->idle_mu);
      state->sleepers.fetch_add(1, std::memory_order_seq_cst);
      state->idle_cv.wait(lock, [&] {
        return state->Done() ||
               state->ready.load(std::memory_order_seq_cst) > 0;
      });
      state->sleepers.fetch_sub(1, std::memory_order_seq_cst);
      if (state->Done()) {
        return;
      }
      continue;
    }
    state->ready.fetch_sub(1, std::memory_order_seq_cst);
    // Scheduler bypass: chase the continuation chain. Each completion hands
    // back the successor it alone made ready, which runs here directly —
    // a chain of N jobs costs one deque round-trip, not N.
    while (id >= 0) {
      id = ExecuteJob(state, lane, id);
    }
  }
}

JobId JobExecutor::ExecuteJob(RunState* state, int lane, JobId id) {
  JobGraph::Job& job = state->graph->jobs_[id];
  if (!state->cancelled.load(std::memory_order_relaxed) && job.fn) {
    try {
      trace::Span span(job.name, state->graph->generation_);
      alloc::AllocScope alloc_scope(job.name);
      job.fn();
    } catch (...) {
      state->CaptureError();
    }
  }
  // Topological wakeup: release successors whose last predecessor this was.
  // Runs even when cancelled so `remaining` always drains and the next Run
  // starts from clean counters. The first successor made ready is kept as
  // the bypass continuation — it goes straight from pending to running on
  // this lane, skipping the deque and the ready counter entirely; the rest
  // are published for thieves. The deque lock is taken lazily, so leaf jobs
  // and pure chains release successors without touching a mutex at all.
  JobId bypass = -1;
  int pushed = 0;
  size_t backlog = 0;
  {
    std::unique_lock<std::mutex> lock(state->lanes[lane]->mu,
                                      std::defer_lock);
    for (const JobId succ : job.successors) {
      if (state->graph->jobs_[succ].pending.fetch_sub(
              1, std::memory_order_acq_rel) != 1) {
        continue;
      }
      if (bypass < 0) {
        bypass = succ;
        continue;
      }
      if (!lock.owns_lock()) {
        lock.lock();
      }
      state->lanes[lane]->jobs.push_back(succ);
      ++pushed;
    }
    if (lock.owns_lock()) {
      backlog = state->lanes[lane]->jobs.size();
    }
  }
  if (pushed > 0) {
    state->ready.fetch_add(pushed, std::memory_order_seq_cst);
    // Notify only when a thief could actually take something. With a bypass
    // continuation in hand this lane is busy, so anything just pushed is up
    // for grabs; without one, a lone pushed job is popped by this lane on
    // its very next loop and waking a sleeper for it is pure churn (the
    // dominant cost on one core). Skipping the wake is stall-free: a lane
    // only *enters* sleep when `ready` is 0, and its wait predicate
    // re-checks `ready` under idle_mu, so a skipped job is either taken by
    // its owner next loop or blocks no one.
    if (bypass >= 0 || backlog > 1) {
      state->WakeSleepers();
    }
  }
  if (state->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last job: end the run. Wake unconditionally — every sleeper must exit.
    { std::lock_guard<std::mutex> lock(state->idle_mu); }
    state->idle_cv.notify_all();
  }
  return bypass;
}

void JobExecutor::RunInline(JobGraph* graph) {
  // Canonical topological order: deterministic FIFO, the reference schedule.
  // The calling thread is the run's one lane, so Runs nested in these job
  // bodies inline too.
  OnLaneScope on_lane;
  std::exception_ptr error;
  for (const JobId id : graph->topo_order_) {
    JobGraph::Job& job = graph->jobs_[id];
    if (error || !job.fn) {
      continue;
    }
    try {
      trace::Span span(job.name, graph->generation_);
      alloc::AllocScope alloc_scope(job.name);
      job.fn();
    } catch (...) {
      if (!error) {
        error = std::current_exception();
      }
    }
  }
  if (error) {
    std::rethrow_exception(error);
  }
  ++graph->generation_;
}

void JobExecutor::ParallelForBlocked(
    const char* name, int64_t count, int64_t min_block,
    const std::function<void(int64_t, int64_t)>& fn) {
  if (count <= 0) {
    return;
  }
  min_block = std::max<int64_t>(1, min_block);
  const int64_t blocks = std::min<int64_t>(
      static_cast<int64_t>(num_lanes()) * 4, (count + min_block - 1) / min_block);
  const int64_t block_len = (count + blocks - 1) / blocks;
  JobGraph graph;
  for (int64_t begin = 0; begin < count; begin += block_len) {
    const int64_t end = std::min(count, begin + block_len);
    graph.AddJob(name, [&fn, begin, end] { fn(begin, end); });
  }
  graph.Finalize();
  Run(&graph);
}

JobExecutor& GlobalExecutor() {
  static JobExecutor executor(HardwareThreads());
  return executor;
}

}  // namespace kddn::jobs

namespace kddn {

void SetGlobalThreadPoolSize(int num_threads) {
  jobs::GlobalExecutor().Resize(num_threads <= 0 ? jobs::HardwareThreads()
                                                 : num_threads);
}

int GlobalThreadPoolSize() { return jobs::GlobalExecutor().num_lanes(); }

}  // namespace kddn
