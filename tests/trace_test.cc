// Observability tests (DESIGN.md §12): the trace layer's ring-buffer
// semantics (nesting, thread attribution, wraparound accounting), the
// Chrome-trace exporter's matched B/E pairs, the allocation tracker's
// live/peak units, and the two invariants the rest of the repo rides on —
// a warm frozen forward / cache-warm ScoreNote performs zero tensor
// allocations, and tracing never perturbs training determinism. The
// concurrent-span test drives a 4-lane executor, making this a sanitizer
// target (ctest -L sanitize).
#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/alloc_tracker.h"
#include "common/job_executor.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "gtest/gtest.h"
#include "kb/concept_extractor.h"
#include "kb/knowledge_base.h"
#include "models/ak_ddn.h"
#include "models/bk_ddn.h"
#include "serve/frozen_model.h"
#include "serve/inference_engine.h"
#include "serve/json_util.h"
#include "serve/load_gen.h"
#include "synth/cohort.h"
#include "tensor/tensor.h"
#include "tensor/tensor_pool.h"

namespace kddn {
namespace {

/// Leaves tracing disabled and the rings empty no matter how a test exits,
/// so span state never bleeds between tests in this binary.
struct TraceGuard {
  TraceGuard() {
    trace::SetEnabled(false);
    trace::Clear();
  }
  ~TraceGuard() {
    trace::SetEnabled(false);
    trace::Clear();
  }
};

/// Sum of events still resident across all thread snapshots.
size_t TotalEvents(const std::vector<trace::ThreadSnapshot>& snapshot) {
  size_t total = 0;
  for (const trace::ThreadSnapshot& thread : snapshot) {
    total += thread.events.size();
  }
  return total;
}

TEST(TraceTest, DisabledSpansRecordNothing) {
  TraceGuard guard;
  for (int i = 0; i < 100; ++i) {
    KDDN_TRACE_SPAN("disabled.span");
  }
  EXPECT_EQ(TotalEvents(trace::Snapshot()), 0u);
}

TEST(TraceTest, NestedSpansRecordContainedIntervalsOnOwnThread) {
  TraceGuard guard;
  trace::SetEnabled(true);
  {
    KDDN_TRACE_SPAN("outer");
    KDDN_TRACE_SPAN("inner");
  }
  trace::SetEnabled(false);

  const std::vector<trace::ThreadSnapshot> snapshot = trace::Snapshot();
  ASSERT_EQ(TotalEvents(snapshot), 2u);
  const int my_tid = trace::internal::CurrentThreadId();
  const trace::ThreadSnapshot* mine = nullptr;
  for (const trace::ThreadSnapshot& thread : snapshot) {
    if (thread.tid == my_tid) {
      mine = &thread;
    } else {
      EXPECT_TRUE(thread.events.empty())
          << "span attributed to foreign thread " << thread.tid;
    }
  }
  ASSERT_NE(mine, nullptr);
  ASSERT_EQ(mine->events.size(), 2u);
  // Rings hold completion order: the inner span closes first.
  const trace::SpanEvent& inner = mine->events[0];
  const trace::SpanEvent& outer = mine->events[1];
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_STREQ(outer.name, "outer");
  EXPECT_LE(outer.begin_ns, inner.begin_ns);
  EXPECT_LE(inner.begin_ns, inner.end_ns);
  EXPECT_LE(inner.end_ns, outer.end_ns);
}

TEST(TraceTest, RingWraparoundKeepsNewestAndCountsDropped) {
  TraceGuard guard;
  trace::SetEnabled(true);
  constexpr uint64_t kOverflow = 123;
  const uint64_t total = trace::internal::kRingCapacity + kOverflow;
  for (uint64_t i = 0; i < total; ++i) {
    KDDN_TRACE_SPAN("wrap.span");
  }
  trace::SetEnabled(false);

  const int my_tid = trace::internal::CurrentThreadId();
  for (const trace::ThreadSnapshot& thread : trace::Snapshot()) {
    if (thread.tid != my_tid) {
      continue;
    }
    EXPECT_EQ(thread.recorded, total);
    EXPECT_EQ(thread.events.size(), trace::internal::kRingCapacity);
    EXPECT_EQ(thread.dropped, kOverflow);
    // Oldest-first readout: timestamps never move backwards.
    for (size_t i = 1; i < thread.events.size(); ++i) {
      EXPECT_LE(thread.events[i - 1].begin_ns, thread.events[i].begin_ns);
    }
    return;
  }
  FAIL() << "no snapshot for the recording thread";
}

TEST(TraceTest, AggregateByNameRollsUpCountTotalMax) {
  TraceGuard guard;
  trace::SetEnabled(true);
  for (int i = 0; i < 5; ++i) {
    KDDN_TRACE_SPAN("agg.a");
  }
  {
    KDDN_TRACE_SPAN("agg.b");
  }
  trace::SetEnabled(false);

  const std::map<std::string, trace::SpanStats> stats =
      trace::AggregateByName(trace::Snapshot());
  ASSERT_EQ(stats.count("agg.a"), 1u);
  ASSERT_EQ(stats.count("agg.b"), 1u);
  EXPECT_EQ(stats.at("agg.a").count, 5u);
  EXPECT_EQ(stats.at("agg.b").count, 1u);
  EXPECT_GE(stats.at("agg.a").total_ns, stats.at("agg.a").max_ns);
  EXPECT_GE(stats.at("agg.a").max_ns, 0u);
}

TEST(TraceTest, ChromeJsonEmitsParseableMatchedBeginEndPairs) {
  TraceGuard guard;
  trace::SetEnabled(true);
  {
    KDDN_TRACE_SPAN("json.outer");
    for (int i = 0; i < 3; ++i) {
      KDDN_TRACE_SPAN("json.inner");
    }
  }
  trace::SetEnabled(false);

  const std::string json = trace::ToChromeJson(trace::Snapshot());
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json.substr(0, 60);
  EXPECT_NE(json.find("]}"), std::string::npos);

  // The exporter writes one flat event object per line, so the HTTP layer's
  // flat-object parser can check each one without a full JSON library.
  std::map<std::string, int> balance;  // name -> opens minus closes
  int events = 0;
  size_t pos = 0;
  while (pos < json.size()) {
    size_t end = json.find('\n', pos);
    if (end == std::string::npos) {
      end = json.size();
    }
    std::string line = json.substr(pos, end - pos);
    pos = end + 1;
    const size_t open = line.find('{');
    if (open == std::string::npos || line.find("\"name\"") == std::string::npos) {
      continue;
    }
    const size_t close = line.rfind('}');
    ASSERT_NE(close, std::string::npos) << line;
    std::map<std::string, serve::JsonValue> fields;
    std::string error;
    ASSERT_TRUE(serve::ParseFlatJsonObject(
        line.substr(open, close - open + 1), &fields, &error))
        << error << " in: " << line;
    ++events;
    ASSERT_EQ(fields.count("name"), 1u);
    ASSERT_EQ(fields.count("ph"), 1u);
    ASSERT_EQ(fields.count("ts"), 1u);
    ASSERT_EQ(fields.count("tid"), 1u);
    EXPECT_EQ(fields["cat"].string_value, "kddn");
    EXPECT_GE(fields["ts"].number_value, 0.0);
    const std::string& ph = fields["ph"].string_value;
    ASSERT_TRUE(ph == "B" || ph == "E") << ph;
    balance[fields["name"].string_value] += ph == "B" ? 1 : -1;
  }
  EXPECT_EQ(events, 8);  // 4 spans, one B and one E each.
  for (const auto& [name, open_minus_close] : balance) {
    EXPECT_EQ(open_minus_close, 0) << "unmatched B/E for " << name;
  }
}

TEST(TraceTest, ConcurrentSpansFromPoolThreadsAllLand) {
  TraceGuard guard;
  trace::SetEnabled(true);
  constexpr int64_t kItems = 512;
  {
    // The executor wraps each job body in a span named after the job.
    jobs::JobExecutor executor(4);
    jobs::JobGraph graph;
    for (int64_t i = 0; i < kItems; ++i) {
      graph.AddJob("pool.item", [i] {
        if (i % 64 == 0) {
          std::this_thread::yield();
        }
      });
    }
    graph.Finalize();
    executor.Run(&graph);
  }
  trace::SetEnabled(false);

  const std::vector<trace::ThreadSnapshot> snapshot = trace::Snapshot();
  std::set<int> tids;
  uint64_t recorded = 0;
  for (const trace::ThreadSnapshot& thread : snapshot) {
    EXPECT_TRUE(tids.insert(thread.tid).second)
        << "duplicate tid " << thread.tid << " in snapshot";
    recorded += thread.recorded;
    EXPECT_EQ(thread.dropped, 0u);
    for (const trace::SpanEvent& event : thread.events) {
      EXPECT_STREQ(event.name, "pool.item");
      EXPECT_LE(event.begin_ns, event.end_ns);
    }
  }
  EXPECT_EQ(recorded, static_cast<uint64_t>(kItems));
}

TEST(AllocTrackerTest, ScopeCountsTensorLifecycleInBytes) {
  const size_t bytes = 20 * sizeof(float);
  alloc::AllocScope scope("test.lifecycle");
  {
    Tensor t({4, 5});
    EXPECT_EQ(scope.allocations(), 1u);
    EXPECT_GE(scope.allocated_bytes(), bytes);
    EXPECT_GE(scope.live_delta(), static_cast<int64_t>(bytes));
  }
  EXPECT_EQ(scope.allocations(), 1u);
  EXPECT_EQ(scope.frees(), 1u);
  EXPECT_EQ(scope.live_delta(), 0);
}

TEST(AllocTrackerTest, CopyMoveAndPeakAccounting) {
  const alloc::Totals before = alloc::GlobalTotals();
  {
    alloc::AllocScope scope("test.copy_move");
    Tensor a({8, 8});
    Tensor b = a;  // Copy allocates.
    EXPECT_EQ(scope.allocations(), 2u);
    Tensor c = std::move(a);  // Move transfers — no event.
    EXPECT_EQ(scope.allocations(), 2u);
    EXPECT_EQ(scope.frees(), 0u);
    b = std::move(c);  // Move-assign frees b's old storage.
    EXPECT_EQ(scope.frees(), 1u);
  }
  const alloc::Totals after = alloc::GlobalTotals();
  EXPECT_EQ(after.live_bytes, before.live_bytes);
  EXPECT_GE(after.peak_bytes, before.peak_bytes);
  EXPECT_GE(after.peak_bytes, after.live_bytes);
}

TEST(AllocTrackerTest, WarmTensorPoolAcquireIsAllocationFree) {
  TensorPool pool;
  // Warm: the first acquire grows fresh storage, recycling it caches it.
  pool.Recycle(pool.Acquire({16, 3}));
  {
    alloc::AllocScope scope("test.pool_warm");
    Tensor t = pool.Acquire({16, 3});
    EXPECT_EQ(scope.allocations(), 0u)
        << "warm pool acquire touched the allocator";
    pool.Recycle(std::move(t));
    EXPECT_EQ(scope.frees(), 0u);
  }
}

/// Shared serving fixture: the small dataset and model config the
/// zero-allocation and determinism tests train on. Built once for the binary.
class TraceServingTest : public ::testing::Test {
 protected:
  struct Assets {
    kb::KnowledgeBase kb = kb::KnowledgeBase::BuildDefault();
    kb::ConceptExtractor extractor{&kb};
    data::MortalityDataset dataset;
    models::ModelConfig model_config;
    data::DatasetOptions data_options;
  };

  static Assets* assets() {
    static Assets* a = [] {
      auto* built = new Assets();
      synth::CohortConfig cohort_config;
      cohort_config.num_patients = 60;
      cohort_config.seed = 91;
      const synth::Cohort cohort =
          synth::Cohort::Generate(cohort_config, built->kb);
      built->data_options.max_words = 48;
      built->data_options.max_concepts = 24;
      built->dataset = data::MortalityDataset::Build(
          cohort, built->extractor, built->data_options);
      built->model_config.word_vocab_size =
          built->dataset.word_vocab().size();
      built->model_config.concept_vocab_size =
          built->dataset.concept_vocab().size();
      built->model_config.embedding_dim = 6;
      built->model_config.num_filters = 4;
      built->model_config.seed = 17;
      return built;
    }();
    return a;
  }

  /// One small training epoch on a one-lane executor. The global size is
  /// restored afterwards, so serving later in the same test keeps every
  /// lane.
  static void TrainSmall(models::NeuralDocumentModel* model) {
    struct PoolSizeGuard {
      int previous = GlobalThreadPoolSize();
      ~PoolSizeGuard() { SetGlobalThreadPoolSize(previous); }
    } guard;
    SetGlobalThreadPoolSize(1);
    core::TrainOptions options;
    options.epochs = 1;
    options.batch_size = 16;
    options.seed = 13;
    core::Trainer(options).Train(model, assets()->dataset.train(),
                                 assets()->dataset.validation(),
                                 synth::Horizon::kInHospital);
  }
};

TEST_F(TraceServingTest, WarmFrozenForwardPerformsZeroTensorAllocations) {
  TraceGuard guard;
  Assets* a = assets();
  ASSERT_GT(a->dataset.test().size(), 1u);
  models::BkDdn bk(a->model_config);
  models::AkDdn ak(a->model_config);
  for (models::NeuralDocumentModel* model :
       {static_cast<models::NeuralDocumentModel*>(&bk),
        static_cast<models::NeuralDocumentModel*>(&ak)}) {
    SCOPED_TRACE(model->name());
    TrainSmall(model);
    const serve::FrozenModel frozen = serve::FrozenModel::Freeze(*model);

    // Warm pass: grows every workspace buffer to the split's high-water
    // shape.
    serve::FrozenModel::Workspace ws;
    const std::vector<data::Example>& test = a->dataset.test();
    std::vector<float> warm;
    for (const data::Example& example : test) {
      warm.push_back(frozen.ScorePositive(example, &ws));
    }

    // Measured passes over mixed document lengths: zero tensor allocations,
    // and every score repeats the warm pass bit for bit.
    int mismatches = 0;
    alloc::AllocScope scope("test.frozen_forward");
    for (int rep = 0; rep < 2; ++rep) {
      for (size_t i = 0; i < test.size(); ++i) {
        mismatches += frozen.ScorePositive(test[i], &ws) != warm[i];
      }
    }
    EXPECT_EQ(scope.allocations(), 0u)
        << "warm FrozenModel::Logits allocated tensor storage";
    EXPECT_EQ(scope.live_delta(), 0);
    EXPECT_EQ(mismatches, 0);
  }
}

TEST_F(TraceServingTest, CacheWarmScoreNotePerformsZeroTensorAllocations) {
  TraceGuard guard;
  Assets* a = assets();
  models::BkDdn model(a->model_config);
  TrainSmall(&model);
  const serve::FrozenModel frozen = serve::FrozenModel::Freeze(model);

  serve::NotePipeline pipeline;
  pipeline.word_vocab = &a->dataset.word_vocab();
  pipeline.concept_vocab = &a->dataset.concept_vocab();
  pipeline.extractor = &a->extractor;
  pipeline.options = a->data_options;
  serve::InferenceEngine engine(&frozen, pipeline);

  const std::vector<std::string> notes = serve::BuildNotePool(7, 4);
  // Warm pass: fills the concept cache and the batcher thread's workspace.
  std::vector<float> warm;
  for (const std::string& note : notes) {
    warm.push_back(engine.ScoreNote(note));
  }

  alloc::AllocScope scope("test.score_note");
  for (size_t i = 0; i < notes.size(); ++i) {
    EXPECT_EQ(engine.ScoreNote(notes[i]), warm[i]);  // Bitwise repeatable.
  }
  EXPECT_EQ(scope.allocations(), 0u)
      << "cache-warm ScoreNote allocated tensor storage";
}

TEST_F(TraceServingTest, TracingDoesNotPerturbTrainingDeterminism) {
  TraceGuard guard;
  Assets* a = assets();

  struct Run {
    std::vector<Tensor> params;
    std::map<std::string, trace::SpanStats> stages;
    uint64_t dropped = 0;
  };
  const auto train_traced = [&] {
    trace::Clear();
    trace::SetEnabled(true);
    models::BkDdn model(a->model_config);
    TrainSmall(&model);
    trace::SetEnabled(false);
    Run run;
    for (const ag::NodePtr& param : model.params().all()) {
      run.params.push_back(param->value());
    }
    const std::vector<trace::ThreadSnapshot> snapshot = trace::Snapshot();
    run.stages = trace::AggregateByName(snapshot);
    for (const trace::ThreadSnapshot& thread : snapshot) {
      run.dropped += thread.dropped;
    }
    return run;
  };

  const Run first = train_traced();
  const Run second = train_traced();

  // Identical span structure: same stages, same count per stage, none lost.
  EXPECT_EQ(first.dropped, 0u);
  EXPECT_EQ(second.dropped, 0u);
  ASSERT_FALSE(first.stages.empty());
  ASSERT_EQ(first.stages.size(), second.stages.size());
  for (const auto& [name, stats] : first.stages) {
    ASSERT_EQ(second.stages.count(name), 1u) << name;
    EXPECT_EQ(stats.count, second.stages.at(name).count) << name;
  }
  ASSERT_EQ(first.stages.count("train.forward"), 1u);
  ASSERT_EQ(first.stages.count("train.backward"), 1u);
  ASSERT_EQ(first.stages.count("gemm.block"), 1u);

  // Bitwise-identical weights: tracing never touches the arithmetic.
  ASSERT_EQ(first.params.size(), second.params.size());
  for (size_t i = 0; i < first.params.size(); ++i) {
    ASSERT_TRUE(first.params[i].SameShape(second.params[i]));
    EXPECT_EQ(std::memcmp(first.params[i].data(), second.params[i].data(),
                          first.params[i].size() * sizeof(float)),
              0)
        << "parameter " << i << " diverged under tracing";
  }
}

}  // namespace
}  // namespace kddn
