// Job-graph executor suite (DESIGN.md §14), the `jobs` label's scheduler
// half: dependency-order and exactly-once guarantees on diamond/fan-in
// shapes, cycle detection, steal-storm stress with deliberately unbalanced
// job durations, graph reuse across many generations, exception transport
// (and reusability after a failed run), nested-run inlining, the size-1
// inline executor, in-place resizing, concurrent runs from two threads
// sharing the lanes, the block fan-out ParallelForBlocked, and the
// generation tag on trace spans.
// The training-side half of the label — executor-vs-legacy bitwise weight
// goldens and the mid-run checkpoint/resume golden — lives in
// pipeline_test.cc, which is also labelled `jobs`. The whole label is
// `sanitize`-labelled and must stay TSan-clean.
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/job_executor.h"
#include "common/job_graph.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "gtest/gtest.h"

namespace kddn {
namespace {

/// Restores the process-wide pool size on scope exit.
struct PoolSizeGuard {
  int previous = GlobalThreadPoolSize();
  ~PoolSizeGuard() { SetGlobalThreadPoolSize(previous); }
};

/// Monotone completion stamps: each job records *when* it finished relative
/// to every other job, so dependency order is assertable after the run.
struct StampBoard {
  explicit StampBoard(int jobs) : stamps(jobs) {
    for (auto& s : stamps) {
      s.store(0, std::memory_order_relaxed);
    }
  }
  void Mark(int job) {
    stamps[job].store(clock.fetch_add(1, std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
  }
  uint64_t At(int job) const {
    return stamps[job].load(std::memory_order_relaxed);
  }
  std::atomic<uint64_t> clock{0};
  std::vector<std::atomic<uint64_t>> stamps;
};

/// SplitMix64 — deterministic per-job "durations" for the steal storm
/// without touching any global RNG state.
uint64_t Mix(uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void SpinFor(uint64_t iterations) {
  volatile uint64_t sink = 0;
  for (uint64_t i = 0; i < iterations; ++i) {
    sink = sink + i;
  }
}

// ---------------------------------------------------------------------------
// Graph construction and canonical order.
// ---------------------------------------------------------------------------

TEST(JobGraphTest, FinalizeComputesCanonicalDiamondOrder) {
  jobs::JobGraph graph;
  // Deliberately added out of id-order-friendly sequence: D, C, B, A.
  const jobs::JobId d = graph.AddJob("d", {});
  const jobs::JobId c = graph.AddJob("c", {});
  const jobs::JobId b = graph.AddJob("b", {});
  const jobs::JobId a = graph.AddJob("a", {});
  graph.AddEdge(a, b);
  graph.AddEdge(a, c);
  graph.AddEdge(b, d);
  graph.AddEdge(c, d);
  graph.Finalize();
  ASSERT_TRUE(graph.finalized());
  // Ascending-id tie-break: a(3) first as the only root, then c(1) before
  // b(2), then d(0).
  const std::vector<jobs::JobId> expected = {a, c, b, d};
  EXPECT_EQ(graph.topological_order(), expected);
  EXPECT_EQ(graph.size(), 4);
  EXPECT_STREQ(graph.name(a), "a");
}

TEST(JobGraphTest, CycleDetectionThrowsFromFinalize) {
  jobs::JobGraph graph;
  const jobs::JobId a = graph.AddJob("a", {});
  const jobs::JobId b = graph.AddJob("b", {});
  const jobs::JobId c = graph.AddJob("c", {});
  graph.AddEdge(a, b);
  graph.AddEdge(b, c);
  graph.AddEdge(c, a);
  EXPECT_THROW(graph.Finalize(), KddnError);
}

TEST(JobGraphTest, BuildTimeMisuseIsLoud) {
  jobs::JobGraph graph;
  const jobs::JobId a = graph.AddJob("a", {});
  EXPECT_THROW(graph.AddEdge(a, a), KddnError);        // Self-edge.
  EXPECT_THROW(graph.AddEdge(a, a + 7), KddnError);    // Out of range.
  graph.Finalize();
  EXPECT_THROW(graph.AddJob("late", {}), KddnError);   // Post-Finalize.
  EXPECT_THROW(graph.Finalize(), KddnError);           // Double Finalize.
  jobs::JobGraph unfinalized;
  unfinalized.AddJob("a", {});
  EXPECT_THROW(jobs::GlobalExecutor().Run(&unfinalized),
               KddnError);  // Run pre-Finalize.
}

// ---------------------------------------------------------------------------
// Execution order: diamond and fan-in, at every pool size.
// ---------------------------------------------------------------------------

TEST(JobExecutorTest, DiamondRespectsDependencyOrderAtEveryPoolSize) {
  PoolSizeGuard guard;
  for (const int pool_size : {1, 2, 4}) {
    SetGlobalThreadPoolSize(pool_size);
    StampBoard board(4);
    jobs::JobGraph graph;
    const jobs::JobId a = graph.AddJob("a", [&] { board.Mark(0); });
    const jobs::JobId b = graph.AddJob("b", [&] { board.Mark(1); });
    const jobs::JobId c = graph.AddJob("c", [&] { board.Mark(2); });
    const jobs::JobId d = graph.AddJob("d", [&] { board.Mark(3); });
    graph.AddEdge(a, b);
    graph.AddEdge(a, c);
    graph.AddEdge(b, d);
    graph.AddEdge(c, d);
    graph.Finalize();
    jobs::GlobalExecutor().Run(&graph);
    const std::string tag = "pool=" + std::to_string(pool_size);
    for (int j = 0; j < 4; ++j) {
      EXPECT_GT(board.At(j), 0u) << tag << " job " << j << " never ran";
    }
    EXPECT_LT(board.At(0), board.At(1)) << tag;
    EXPECT_LT(board.At(0), board.At(2)) << tag;
    EXPECT_LT(board.At(1), board.At(3)) << tag;
    EXPECT_LT(board.At(2), board.At(3)) << tag;
  }
}

TEST(JobExecutorTest, FanInSinkRunsOnceAfterAllPredecessors) {
  PoolSizeGuard guard;
  SetGlobalThreadPoolSize(4);
  constexpr int kSources = 24;
  StampBoard board(kSources + 1);
  std::atomic<int> sink_runs{0};
  jobs::JobGraph graph;
  const jobs::JobId sink = graph.AddJob("sink", [&] {
    board.Mark(kSources);
    sink_runs.fetch_add(1, std::memory_order_relaxed);
  });
  for (int i = 0; i < kSources; ++i) {
    const jobs::JobId source = graph.AddJob("source", [&, i] {
      SpinFor(Mix(static_cast<uint64_t>(i)) % 2000);
      board.Mark(i);
    });
    graph.AddEdge(source, sink);
  }
  graph.Finalize();
  jobs::GlobalExecutor().Run(&graph);
  EXPECT_EQ(sink_runs.load(), 1);
  for (int i = 0; i < kSources; ++i) {
    EXPECT_LT(board.At(i), board.At(kSources)) << "source " << i;
  }
}

// ---------------------------------------------------------------------------
// Steal storm: layered graph, wildly unbalanced durations, many runs.
// ---------------------------------------------------------------------------

TEST(JobExecutorTest, StealStormRunsEveryJobExactlyOncePerRun) {
  PoolSizeGuard guard;
  SetGlobalThreadPoolSize(4);
  constexpr int kLayers = 8;
  constexpr int kWidth = 12;
  constexpr int kRuns = 25;
  constexpr int kJobs = kLayers * kWidth;
  std::vector<std::atomic<int>> run_counts(kJobs);
  for (auto& c : run_counts) {
    c.store(0, std::memory_order_relaxed);
  }
  StampBoard board(kJobs);

  jobs::JobGraph graph;
  std::vector<jobs::JobId> previous_layer, layer;
  for (int l = 0; l < kLayers; ++l) {
    layer.clear();
    for (int w = 0; w < kWidth; ++w) {
      const int index = l * kWidth + w;
      layer.push_back(graph.AddJob("storm", [&, index] {
        // Durations spread over two orders of magnitude, reshuffled every
        // layer, so fast lanes drain and must steal from slow ones.
        SpinFor(Mix(static_cast<uint64_t>(index)) % 10000);
        board.Mark(index);
        run_counts[index].fetch_add(1, std::memory_order_relaxed);
      }));
      // Sparse cross-layer edges: each job depends on two jobs of the layer
      // above (wrap-around), leaving plenty of concurrency to fight over.
      if (l > 0) {
        graph.AddEdge(previous_layer[w], layer[w]);
        graph.AddEdge(previous_layer[(w + 5) % kWidth], layer[w]);
      }
    }
    previous_layer = layer;
  }
  graph.Finalize();

  jobs::JobExecutor& executor = jobs::GlobalExecutor();
  for (int run = 1; run <= kRuns; ++run) {
    executor.Run(&graph);
    for (int j = 0; j < kJobs; ++j) {
      ASSERT_EQ(run_counts[j].load(), run) << "job " << j << " run " << run;
    }
    // Spot-check the cross-layer constraints on the final stamps.
    for (int l = 1; l < kLayers; ++l) {
      for (int w = 0; w < kWidth; ++w) {
        ASSERT_LT(board.At((l - 1) * kWidth + w), board.At(l * kWidth + w));
      }
    }
  }
  EXPECT_EQ(graph.generation(), static_cast<uint64_t>(kRuns));
}

TEST(JobExecutorTest, GraphReuseAcrossManyGenerationsAccumulatesExactly) {
  PoolSizeGuard guard;
  SetGlobalThreadPoolSize(2);
  std::atomic<int64_t> total{0};
  jobs::JobGraph graph;
  const jobs::JobId add1 =
      graph.AddJob("add1", [&] { total.fetch_add(1, std::memory_order_relaxed); });
  const jobs::JobId add10 =
      graph.AddJob("add10", [&] { total.fetch_add(10, std::memory_order_relaxed); });
  const jobs::JobId add100 = graph.AddJob(
      "add100", [&] { total.fetch_add(100, std::memory_order_relaxed); });
  graph.AddEdge(add1, add10);
  graph.AddEdge(add10, add100);
  graph.Finalize();
  jobs::JobExecutor& executor = jobs::GlobalExecutor();
  for (int i = 0; i < 100; ++i) {
    executor.Run(&graph);
  }
  EXPECT_EQ(total.load(), 100 * 111);
  EXPECT_EQ(graph.generation(), 100u);
}

// ---------------------------------------------------------------------------
// Exceptions: first error wins, the run drains, the graph stays reusable.
// ---------------------------------------------------------------------------

TEST(JobExecutorTest, ExceptionPropagatesAndGraphStaysReusable) {
  PoolSizeGuard guard;
  for (const int pool_size : {1, 4}) {
    SetGlobalThreadPoolSize(pool_size);
    bool fail = true;
    std::atomic<int> tail_runs{0};
    jobs::JobGraph graph;
    const jobs::JobId boom = graph.AddJob("boom", [&] {
      if (fail) {
        KDDN_CHECK(false) << "injected job failure";
      }
    });
    const jobs::JobId tail = graph.AddJob(
        "tail", [&] { tail_runs.fetch_add(1, std::memory_order_relaxed); });
    graph.AddEdge(boom, tail);
    graph.Finalize();
    jobs::JobExecutor& executor = jobs::GlobalExecutor();
    EXPECT_THROW(executor.Run(&graph), KddnError);
    // A failed run is cancelled, not counted: successors of the failing job
    // are skipped and the generation stays put.
    EXPECT_EQ(tail_runs.load(), 0) << "pool=" << pool_size;
    EXPECT_EQ(graph.generation(), 0u) << "pool=" << pool_size;
    // The countdown drained, so the same graph runs clean immediately.
    fail = false;
    executor.Run(&graph);
    EXPECT_EQ(tail_runs.load(), 1) << "pool=" << pool_size;
    EXPECT_EQ(graph.generation(), 1u) << "pool=" << pool_size;
  }
}

// ---------------------------------------------------------------------------
// Nesting: job bodies may fan out (or run another graph) — it inlines.
// ---------------------------------------------------------------------------

TEST(JobExecutorTest, NestedParallelismInsideJobBodiesInlinesWithoutDeadlock) {
  PoolSizeGuard guard;
  SetGlobalThreadPoolSize(4);
  std::atomic<int64_t> nested_sum{0};
  // One inner graph per outer job: a graph is run by one caller at a time,
  // and the outer jobs run concurrently.
  std::array<jobs::JobGraph, 8> inner;
  jobs::JobGraph graph;
  for (jobs::JobGraph& g : inner) {
    g.AddJob("inner", [&] { nested_sum.fetch_add(1); });
    g.Finalize();
    graph.AddJob("outer", [&] {
      // Nested block fan-out: must inline on the executor lane (a lane
      // sleeping on its run's ready jobs could otherwise stall the run).
      jobs::GlobalExecutor().ParallelForBlocked(
          "inner.blocks", 16, 1,
          [&](int64_t begin, int64_t end) { nested_sum.fetch_add(end - begin); });
      // Nested executor run: takes the inline path for the same reason.
      jobs::GlobalExecutor().Run(&g);
    });
  }
  graph.Finalize();
  jobs::GlobalExecutor().Run(&graph);
  EXPECT_EQ(nested_sum.load(), 8 * 16 + 8);
  for (const jobs::JobGraph& g : inner) {
    EXPECT_EQ(g.generation(), 1u);
  }
}

// ---------------------------------------------------------------------------
// Work-stealing ParallelForBlocked.
// ---------------------------------------------------------------------------

TEST(JobExecutorTest, ParallelForBlockedCoversEveryIndexExactlyOnce) {
  PoolSizeGuard guard;
  struct Case {
    int64_t count;
    int64_t min_block;
  };
  for (const int pool_size : {1, 2, 4}) {
    SetGlobalThreadPoolSize(pool_size);
    jobs::JobExecutor& executor = jobs::GlobalExecutor();
    for (const Case c : {Case{1, 1}, Case{7, 1}, Case{64, 1}, Case{1000, 1},
                         Case{1001, 7}}) {
      std::vector<std::atomic<int>> touched(static_cast<size_t>(c.count));
      for (auto& t : touched) {
        t.store(0, std::memory_order_relaxed);
      }
      std::atomic<int> escaped_blocks{0};
      executor.ParallelForBlocked(
          "test.block", c.count, c.min_block, [&](int64_t begin, int64_t end) {
            ASSERT_LT(begin, end);
            // Every lane, the calling thread's included, runs its blocks as
            // job bodies, so a fan-out nested in a block runs inline.
            const std::thread::id self = std::this_thread::get_id();
            executor.ParallelForBlocked(
                "test.nested", 8, 1, [&](int64_t, int64_t) {
                  if (std::this_thread::get_id() != self) {
                    escaped_blocks.fetch_add(1, std::memory_order_relaxed);
                  }
                });
            SpinFor(Mix(static_cast<uint64_t>(begin)) % 3000);
            for (int64_t i = begin; i < end; ++i) {
              touched[static_cast<size_t>(i)].fetch_add(
                  1, std::memory_order_relaxed);
            }
          });
      for (int64_t i = 0; i < c.count; ++i) {
        ASSERT_EQ(touched[static_cast<size_t>(i)].load(), 1)
            << "pool=" << pool_size << " count=" << c.count
            << " min_block=" << c.min_block << " index " << i;
      }
      EXPECT_EQ(escaped_blocks.load(), 0)
          << "pool=" << pool_size << " count=" << c.count;
    }
    // Exceptions come back to the caller, whole and first-wins.
    EXPECT_THROW(executor.ParallelForBlocked(
                     "test.block", 100, 1,
                     [&](int64_t begin, int64_t) {
                       if (begin == 0) {
                         KDDN_CHECK(false) << "injected block failure";
                       }
                     }),
                 KddnError);
  }
}

// ---------------------------------------------------------------------------
// The executor's own contract: ranges, size 1, exceptions, nesting, resize.
// ---------------------------------------------------------------------------

TEST(JobExecutorTest, EmptyAndNegativeRangesMakeNoCall) {
  jobs::JobExecutor executor(4);
  int calls = 0;
  for (const int64_t count : {int64_t{0}, int64_t{-3}}) {
    executor.ParallelForBlocked("test.block", count, 8,
                                [&](int64_t, int64_t) { ++calls; });
  }
  EXPECT_EQ(calls, 0);
  // An empty graph runs (its generation counts) without touching a lane.
  jobs::JobGraph empty;
  empty.Finalize();
  executor.Run(&empty);
  EXPECT_EQ(empty.generation(), 1u);
}

TEST(JobExecutorTest, SingleLaneExecutorRunsInline) {
  jobs::JobExecutor executor(1);
  EXPECT_EQ(executor.num_lanes(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  bool all_on_caller = true;
  jobs::JobGraph graph;
  for (int i = 0; i < 17; ++i) {
    graph.AddJob("inline", [&, i] {
      order.push_back(i);
      all_on_caller = all_on_caller && std::this_thread::get_id() == caller;
    });
  }
  graph.Finalize();
  executor.Run(&graph);
  // No lane threads: the caller runs the canonical topological order.
  std::vector<int> expected(17);
  for (int i = 0; i < 17; ++i) {
    expected[i] = i;
  }
  EXPECT_EQ(order, expected);
  EXPECT_TRUE(all_on_caller);
}

TEST(JobExecutorTest, FirstExceptionReachesCaller) {
  jobs::JobExecutor executor(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(executor.ParallelForBlocked(
                   "test.block", 64, 1,
                   [&](int64_t begin, int64_t end) {
                     for (int64_t i = begin; i < end; ++i) {
                       ran.fetch_add(1, std::memory_order_relaxed);
                       if (i == 13) {
                         KDDN_CHECK(false) << "boom at " << i;
                       }
                     }
                   }),
               KddnError);
  // Cancellation is cooperative: blocks not yet started are skipped.
  EXPECT_GE(ran.load(), 1);
  EXPECT_LE(ran.load(), 64);
  // The executor is still whole: the next fan-out covers its range.
  std::atomic<int> after{0};
  executor.ParallelForBlocked("test.block", 64, 1,
                              [&](int64_t begin, int64_t end) {
                                after.fetch_add(static_cast<int>(end - begin));
                              });
  EXPECT_EQ(after.load(), 64);
}

TEST(JobExecutorTest, NestedFanOutRunsInlineOnItsLane) {
  // A job body that starts a nested fan-out must not wait on the executor it
  // occupies; the nested blocks run on that body's own thread.
  jobs::JobExecutor executor(4);
  std::atomic<int> inner_total{0};
  std::atomic<int> escaped{0};
  executor.ParallelForBlocked("test.outer", 8, 1, [&](int64_t, int64_t) {
    const std::thread::id self = std::this_thread::get_id();
    executor.ParallelForBlocked("test.inner", 5, 1,
                                [&](int64_t begin, int64_t end) {
                                  if (std::this_thread::get_id() != self) {
                                    escaped.fetch_add(1);
                                  }
                                  inner_total.fetch_add(
                                      static_cast<int>(end - begin));
                                });
  });
  EXPECT_EQ(inner_total.load(), 8 * 5);
  EXPECT_EQ(escaped.load(), 0);
}

TEST(JobExecutorTest, GlobalResizeRoundTripsInPlace) {
  PoolSizeGuard guard;
  jobs::JobExecutor* const global = &jobs::GlobalExecutor();
  SetGlobalThreadPoolSize(3);
  EXPECT_EQ(GlobalThreadPoolSize(), 3);
  EXPECT_EQ(global->num_lanes(), 3);
  EXPECT_EQ(&jobs::GlobalExecutor(), global);  // Resized, not replaced.
  SetGlobalThreadPoolSize(0);  // Restore the hardware default.
  EXPECT_GE(GlobalThreadPoolSize(), 1);
  // Still runs after the round trip.
  std::atomic<int> covered{0};
  global->ParallelForBlocked("test.block", 100, 1,
                             [&](int64_t begin, int64_t end) {
                               covered.fetch_add(static_cast<int>(end - begin));
                             });
  EXPECT_EQ(covered.load(), 100);
}

// ---------------------------------------------------------------------------
// Concurrent runs share the lanes: a caller never waits for one to free up.
// ---------------------------------------------------------------------------

TEST(JobExecutorTest, ConcurrentRunFinishesWhileAnotherHoldsEveryLane) {
  PoolSizeGuard guard;
  SetGlobalThreadPoolSize(4);
  constexpr int kLanes = 4;
  constexpr int kSecondJobs = 16;
  constexpr auto kPatience = std::chrono::seconds(20);
  std::mutex mu;
  std::condition_variable cv;
  int first_started = 0;
  bool second_done = false;
  bool first_timed_out = false;

  // The first graph (think: the engine batcher) parks one job per lane until
  // the second thread's run has returned, so every lane is held by it.
  jobs::JobGraph first;
  for (int i = 0; i < kLanes; ++i) {
    first.AddJob("test.hold_lane", [&] {
      std::unique_lock<std::mutex> lock(mu);
      ++first_started;
      cv.notify_all();
      if (!cv.wait_for(lock, kPatience, [&] { return second_done; })) {
        first_timed_out = true;
      }
    });
  }
  first.Finalize();
  // The second graph (think: the reactor's swap gate) runs while no lane is
  // free: its caller must finish it alone.
  std::atomic<int> second_runs{0};
  std::atomic<int> second_off_caller{0};
  std::thread::id second_caller;
  jobs::JobGraph second;
  for (int i = 0; i < kSecondJobs; ++i) {
    second.AddJob("test.gate", [&] {
      second_runs.fetch_add(1);
      if (std::this_thread::get_id() != second_caller) {
        second_off_caller.fetch_add(1);
      }
    });
  }
  second.Finalize();

  std::thread first_thread([&] { jobs::GlobalExecutor().Run(&first); });
  bool all_lanes_held = false;
  std::thread second_thread([&] {
    second_caller = std::this_thread::get_id();
    {
      std::unique_lock<std::mutex> lock(mu);
      all_lanes_held = cv.wait_for(
          lock, kPatience, [&] { return first_started == kLanes; });
    }
    jobs::GlobalExecutor().Run(&second);
    std::lock_guard<std::mutex> lock(mu);
    second_done = true;
    cv.notify_all();
  });
  second_thread.join();
  first_thread.join();

  EXPECT_TRUE(all_lanes_held);
  EXPECT_FALSE(first_timed_out) << "the second run never finished";
  EXPECT_EQ(second_runs.load(), kSecondJobs);
  // Every lane was parked in the first graph, so the second ran on its
  // caller alone.
  EXPECT_EQ(second_off_caller.load(), 0);
  EXPECT_EQ(first.generation(), 1u);
  EXPECT_EQ(second.generation(), 1u);
}

// ---------------------------------------------------------------------------
// Observability: every job span carries the graph generation as an arg.
// ---------------------------------------------------------------------------

TEST(JobsTraceTest, JobSpansCarryGraphGenerationArg) {
  PoolSizeGuard guard;
  SetGlobalThreadPoolSize(2);
  trace::Clear();
  trace::SetEnabled(true);
  jobs::JobGraph graph;
  const jobs::JobId a = graph.AddJob("jobs.test.alpha", [] {});
  const jobs::JobId b = graph.AddJob("jobs.test.beta", [] {});
  graph.AddEdge(a, b);
  graph.Finalize();
  jobs::JobExecutor& executor = jobs::GlobalExecutor();
  executor.Run(&graph);
  executor.Run(&graph);
  trace::SetEnabled(false);
  const std::string json = trace::ToChromeJson(trace::Snapshot());
  trace::Clear();
  // Both generations appear: the first run tagged 0, the second tagged 1.
  EXPECT_NE(json.find("\"name\":\"jobs.test.alpha\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"args\":{\"gen\":0}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"args\":{\"gen\":1}"), std::string::npos) << json;
}

}  // namespace
}  // namespace kddn
