// Serving-path suite: golden-prediction tests pinning serve::FrozenModel to
// the autograd forward bitwise, micro-batching / concurrency tests for
// serve::InferenceEngine (run under TSan via the `sanitize` label), edge-case
// notes through the raw-text pipeline, and unit tests for the LRU cache and
// serving stats.
#include <algorithm>
#include <cmath>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "core/trainer.h"
#include "gtest/gtest.h"
#include "models/ak_ddn.h"
#include "models/bk_ddn.h"
#include "models/text_cnn.h"
#include "nn/serialization.h"
#include "serve/frozen_model.h"
#include "serve/inference_engine.h"
#include "serve/lru_cache.h"
#include "serve/stats.h"
#include "testing/inference_engine_test_peer.h"

namespace kddn {
namespace {

// ---------------------------------------------------------------------------
// Shared fixture: one tiny cohort + dataset, one trained BK-DDN and AK-DDN.
// Built once per process (training is the slow part), used read-only by the
// golden tests.
// ---------------------------------------------------------------------------
struct TrainedWorld {
  kb::KnowledgeBase kb;
  std::unique_ptr<kb::ConceptExtractor> extractor;
  data::DatasetOptions data_options;
  data::MortalityDataset dataset;
  std::unique_ptr<models::BkDdn> bk;
  std::unique_ptr<models::AkDdn> ak;
};

TrainedWorld& World() {
  static TrainedWorld* world = [] {
    auto* w = new TrainedWorld();
    w->kb = kb::KnowledgeBase::BuildDefault();
    w->extractor = std::make_unique<kb::ConceptExtractor>(&w->kb);
    synth::CohortConfig config;
    config.num_patients = 200;
    config.seed = 33;
    const synth::Cohort cohort = synth::Cohort::Generate(config, w->kb);
    w->data_options.max_words = 96;
    w->data_options.max_concepts = 48;
    w->dataset =
        data::MortalityDataset::Build(cohort, *w->extractor, w->data_options);

    models::ModelConfig model_config;
    model_config.word_vocab_size = w->dataset.word_vocab().size();
    model_config.concept_vocab_size = w->dataset.concept_vocab().size();
    model_config.embedding_dim = 6;
    model_config.num_filters = 4;
    model_config.seed = 9;
    w->bk = std::make_unique<models::BkDdn>(model_config);
    w->ak = std::make_unique<models::AkDdn>(model_config);

    core::TrainOptions train_options;
    train_options.epochs = 2;
    train_options.batch_size = 16;
    core::Trainer trainer(train_options);
    trainer.Train(w->bk.get(), w->dataset.train(), w->dataset.validation(),
                  synth::Horizon::kInHospital);
    trainer.Train(w->ak.get(), w->dataset.train(), w->dataset.validation(),
                  synth::Horizon::kInHospital);
    return w;
  }();
  return *world;
}

/// The first up-to-`limit` test examples — enough length/content diversity to
/// exercise both branches and the attention shapes.
std::vector<data::Example> GoldenExamples(size_t limit = 12) {
  const auto& test = World().dataset.test();
  return {test.begin(),
          test.begin() + static_cast<long>(std::min(limit, test.size()))};
}

/// GoldenExamples() plus word and concept sequences of 1 and 2 ids, shorter
/// than the widest filter, so both CNN branches also run the pad stage.
std::vector<data::Example> GoldenAndShortExamples() {
  std::vector<data::Example> examples = GoldenExamples();
  for (const auto& [words, concepts] : {std::pair{1, 2}, std::pair{2, 1}}) {
    data::Example example = examples.front();
    example.word_ids.resize(words);
    example.concept_ids.resize(concepts);
    examples.push_back(std::move(example));
  }
  return examples;
}

/// Autograd-path reference scores (the training graph's forward).
std::vector<float> ReferenceScores(models::NeuralDocumentModel* model,
                                   const std::vector<data::Example>& examples) {
  std::vector<float> scores;
  for (const data::Example& example : examples) {
    scores.push_back(model->PredictPositiveProbability(example));
  }
  return scores;
}

/// Restores the global pool size on scope exit so tests can't leak a resize.
class PoolSizeGuard {
 public:
  PoolSizeGuard() : original_(GlobalThreadPoolSize()) {}
  ~PoolSizeGuard() { SetGlobalThreadPoolSize(original_); }

 private:
  int original_;
};

// ---------------------------------------------------------------------------
// Golden predictions: FrozenModel == autograd forward, bitwise, for both
// model kinds, at several thread counts, direct and through the engine at
// several batch shapes. The model name is a std::string rather than a
// const char* so the test IDs print its value, not a per-process address.
// ---------------------------------------------------------------------------
class GoldenPredictionTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {
 protected:
  models::NeuralDocumentModel* Model() const {
    return std::get<0>(GetParam()) == "BK-DDN"
               ? static_cast<models::NeuralDocumentModel*>(World().bk.get())
               : static_cast<models::NeuralDocumentModel*>(World().ak.get());
  }
  int Threads() const { return std::get<1>(GetParam()); }
};

TEST_P(GoldenPredictionTest, FrozenMatchesAutogradBitwise) {
  PoolSizeGuard guard;
  const std::vector<data::Example> examples = GoldenAndShortExamples();
  const std::vector<float> reference = ReferenceScores(Model(), examples);
  const serve::FrozenModel frozen = serve::FrozenModel::Freeze(*Model());

  SetGlobalThreadPoolSize(Threads());
  serve::FrozenModel::Workspace ws;
  for (size_t i = 0; i < examples.size(); ++i) {
    const float direct = frozen.ScorePositive(examples[i], &ws);
    EXPECT_EQ(direct, reference[i])
        << Model()->name() << " example " << i << " at " << Threads()
        << " threads: frozen forward diverged from the training graph";
  }
}

TEST_P(GoldenPredictionTest, EngineMatchesAutogradAtEveryBatchShape) {
  PoolSizeGuard guard;
  const std::vector<data::Example> examples = GoldenAndShortExamples();
  const std::vector<float> reference = ReferenceScores(Model(), examples);
  const serve::FrozenModel frozen = serve::FrozenModel::Freeze(*Model());

  SetGlobalThreadPoolSize(Threads());
  const int n = static_cast<int>(examples.size());
  for (int max_batch : {1, 3, 16}) {
    serve::EngineOptions options;
    options.max_batch = max_batch;
    serve::InferenceEngine engine(&frozen, options);
    // Queue everything behind the hold, then release: the batcher takes
    // n / max_batch full batches and one remainder batch, in queue order.
    serve::InferenceEngineTestPeer::Hold(&engine);
    std::vector<std::future<serve::Scored>> futures;
    for (const data::Example& example : examples) {
      futures.push_back(engine.ScoreAsync(example));
    }
    serve::InferenceEngineTestPeer::Release(&engine);
    for (size_t i = 0; i < futures.size(); ++i) {
      EXPECT_EQ(futures[i].get().score, reference[i])
          << Model()->name() << " example " << i << ", max_batch "
          << max_batch << ", " << Threads() << " threads";
    }
    const int full = std::min(n, max_batch);
    std::vector<int64_t> histogram(full + 1, 0);
    histogram[full] = n / full;
    if (n % full != 0) {
      histogram[n % full] = 1;
    }
    EXPECT_EQ(engine.stats().batch_size_histogram, histogram)
        << "max_batch " << max_batch;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndThreads, GoldenPredictionTest,
    ::testing::Combine(::testing::Values(std::string("BK-DDN"),
                                         std::string("AK-DDN")),
                       ::testing::Values(1, 2, 4)));

// ---------------------------------------------------------------------------
// Concurrency: many client threads scoring interleaved requests must each get
// bitwise-correct results (exercised under TSan via the sanitize label).
// ---------------------------------------------------------------------------
TEST(InferenceEngineTest, ConcurrentClientsGetBitwiseCorrectScores) {
  models::NeuralDocumentModel* model = World().ak.get();
  const std::vector<data::Example> examples = GoldenExamples();
  const std::vector<float> reference = ReferenceScores(model, examples);
  const serve::FrozenModel frozen = serve::FrozenModel::Freeze(*model);

  serve::EngineOptions options;
  options.max_batch = 4;
  serve::InferenceEngine engine(&frozen, options);

  constexpr int kClients = 4;
  constexpr int kRounds = 5;
  std::vector<std::thread> clients;
  std::vector<int> failures(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round) {
        // Each client walks the examples at its own offset so batches mix
        // documents of different lengths.
        const size_t i = (static_cast<size_t>(c) + round) % examples.size();
        if (engine.Score(examples[i]) != reference[i]) {
          ++failures[c];
        }
      }
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], 0) << "client " << c << " saw diverging scores";
  }
  const serve::StatsSnapshot stats = engine.stats();
  EXPECT_EQ(stats.requests, kClients * kRounds);
  EXPECT_GT(stats.batches, 0);
  EXPECT_GT(stats.p50_latency_ms, 0.0);
}

TEST(InferenceEngineTest, DestructorDrainsPendingRequests) {
  const serve::FrozenModel frozen = serve::FrozenModel::Freeze(*World().bk);
  const std::vector<data::Example> examples = GoldenExamples(4);
  std::vector<std::future<serve::Scored>> futures;
  {
    serve::InferenceEngine engine(&frozen);
    serve::InferenceEngineTestPeer::Hold(&engine);  // Only shutdown drains.
    for (const data::Example& example : examples) {
      futures.push_back(engine.ScoreAsync(example));
    }
    ASSERT_EQ(serve::InferenceEngineTestPeer::Queued(&engine),
              examples.size());
  }  // Destructor must score, not abandon, the queued requests.
  for (std::future<serve::Scored>& future : futures) {
    const float p = future.get().score;
    EXPECT_TRUE(std::isfinite(p));
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, 1.0f);
  }
}

// ---------------------------------------------------------------------------
// Raw-note edge cases through the full pipeline: every degenerate input must
// produce one well-defined, reproducible probability.
// ---------------------------------------------------------------------------
class NotePipelineTest : public ::testing::Test {
 protected:
  NotePipelineTest() : frozen_(serve::FrozenModel::Freeze(*World().ak)) {
    pipeline_.word_vocab = &World().dataset.word_vocab();
    pipeline_.concept_vocab = &World().dataset.concept_vocab();
    pipeline_.extractor = World().extractor.get();
    pipeline_.options = World().data_options;
  }

  serve::FrozenModel frozen_;
  serve::NotePipeline pipeline_;
};

TEST_F(NotePipelineTest, EdgeCaseNotesScoreWithoutCrashing) {
  serve::InferenceEngine engine(&frozen_, pipeline_);
  const std::vector<std::string> notes = {
      "",                                  // Empty.
      "?!... --- ,,, ;;; (((",             // Punctuation only.
      "the and of to a is are was been",   // Stop words only.
      "zzyzx qwfpgj xblorp vrisnak qq",    // Fully out-of-vocabulary.
      std::string(5000, 'x'),              // One absurd token.
      "pt w/ chf exacerbation, worsening pleural effusions bilaterally",
  };
  for (const std::string& note : notes) {
    const float p = engine.ScoreNote(note);
    EXPECT_TRUE(std::isfinite(p)) << "note: " << note.substr(0, 40);
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, 1.0f);
    // Scoring the same note again is deterministic.
    EXPECT_EQ(engine.ScoreNote(note), p);
  }
}

TEST_F(NotePipelineTest, EmptyNoteEqualsPadTokenForward) {
  // The engine leaves degenerate id sequences empty and FrozenModel scores
  // them as a single <pad> token — which must equal the autograd forward on
  // an explicit pad-token example.
  serve::InferenceEngine engine(&frozen_, pipeline_);
  data::Example pad_example;
  pad_example.word_ids = {text::Vocabulary::kPadId};
  pad_example.concept_ids = {text::Vocabulary::kPadId};
  const float reference = World().ak->PredictPositiveProbability(pad_example);
  EXPECT_EQ(engine.ScoreNote(""), reference);
}

TEST_F(NotePipelineTest, RepeatedNotesHitTheConceptCache) {
  serve::EngineOptions options;
  options.cache_capacity = 8;
  serve::InferenceEngine engine(&frozen_, pipeline_, options);
  const std::string note = "worsening pleural effusion with chf";
  const float first = engine.ScoreNote(note);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(engine.ScoreNote(note), first);
  }
  const serve::StatsSnapshot stats = engine.stats();
  EXPECT_EQ(stats.cache_misses, 1);
  EXPECT_EQ(stats.cache_hits, 3);
  EXPECT_DOUBLE_EQ(stats.cache_hit_rate, 0.75);
}

TEST_F(NotePipelineTest, CacheDisabledStillScores) {
  serve::EngineOptions options;
  options.cache_capacity = 0;
  serve::InferenceEngine engine(&frozen_, pipeline_, options);
  const std::string note = "chf with pleural effusion";
  const float first = engine.ScoreNote(note);
  EXPECT_EQ(engine.ScoreNote(note), first);
  EXPECT_EQ(engine.stats().cache_hits, 0);
}

TEST_F(NotePipelineTest, EncodeNoteMatchesDatasetPipeline) {
  // A note that survives preprocessing must encode the way the training
  // pipeline would: lemmatized, stop-word-filtered in-vocabulary ids only.
  serve::InferenceEngine engine(&frozen_, pipeline_);
  const data::Example example =
      engine.EncodeNote("the patient has worsening effusions");
  for (int id : example.word_ids) {
    EXPECT_GE(id, 0);
    EXPECT_LT(id, World().dataset.word_vocab().size());
  }
  EXPECT_LE(static_cast<int>(example.word_ids.size()),
            World().data_options.max_words);
  EXPECT_LE(static_cast<int>(example.concept_ids.size()),
            World().data_options.max_concepts);
}

// ---------------------------------------------------------------------------
// Snapshot semantics: freezing deep-copies the weights and fingerprints them.
// ---------------------------------------------------------------------------
TEST(FrozenModelTest, SnapshotIsImmuneToLaterTraining) {
  models::ModelConfig config;
  config.word_vocab_size = 30;
  config.concept_vocab_size = 12;
  config.embedding_dim = 5;
  config.num_filters = 3;
  config.seed = 17;
  models::BkDdn model(config);

  data::Example example;
  example.word_ids = {2, 5, 9, 3};
  example.concept_ids = {2, 4};
  const serve::FrozenModel frozen = serve::FrozenModel::Freeze(model);
  const uint64_t fingerprint = frozen.fingerprint();
  serve::FrozenModel::Workspace ws;
  const float before = frozen.ScorePositive(example, &ws);

  // "Continue training": clobber every source weight.
  for (const ag::NodePtr& param : model.params().all()) {
    param->mutable_value().Fill(0.25f);
  }
  EXPECT_EQ(frozen.ScorePositive(example, &ws), before)
      << "snapshot shares storage with the live model";
  EXPECT_EQ(frozen.fingerprint(), fingerprint);

  // Re-freezing the mutated model must yield a different fingerprint and
  // (for this input) a different score.
  const serve::FrozenModel refrozen = serve::FrozenModel::Freeze(model);
  EXPECT_NE(refrozen.fingerprint(), fingerprint);
}

TEST(FrozenModelTest, FingerprintIdentifiesWeights) {
  models::ModelConfig config;
  config.word_vocab_size = 30;
  config.concept_vocab_size = 12;
  config.embedding_dim = 5;
  config.num_filters = 3;
  config.seed = 21;
  models::AkDdn a(config);
  config.seed = 22;
  models::AkDdn b(config);
  EXPECT_EQ(serve::FrozenModel::Freeze(a).fingerprint(),
            serve::FrozenModel::Freeze(a).fingerprint());
  EXPECT_NE(serve::FrozenModel::Freeze(a).fingerprint(),
            serve::FrozenModel::Freeze(b).fingerprint());
}

TEST(FrozenModelTest, SerializationRoundTripPreservesFrozenScores) {
  // train -> save -> load -> freeze must be bitwise equivalent to freezing
  // the original (the quickstart's snapshot flow).
  models::NeuralDocumentModel* original = World().bk.get();
  std::stringstream buffer;
  nn::SaveParameters(original->params(), buffer);

  models::BkDdn restored(original->config());
  nn::LoadParameters(&restored.params(), buffer);

  const serve::FrozenModel frozen_original =
      serve::FrozenModel::Freeze(*original);
  const serve::FrozenModel frozen_restored =
      serve::FrozenModel::Freeze(restored);
  EXPECT_EQ(frozen_original.fingerprint(), frozen_restored.fingerprint());
  serve::FrozenModel::Workspace ws;
  for (const data::Example& example : GoldenExamples(6)) {
    EXPECT_EQ(frozen_original.ScorePositive(example, &ws),
              frozen_restored.ScorePositive(example, &ws));
  }
}

TEST(FrozenModelTest, RejectsUnsupportedModels) {
  // Only the two dual-network architectures have frozen forwards.
  models::ModelConfig config;
  config.word_vocab_size = 10;
  config.concept_vocab_size = 10;
  config.embedding_dim = 4;
  config.num_filters = 2;
  models::TextCnn text_only(config);
  EXPECT_THROW(serve::FrozenModel::Freeze(text_only), KddnError);
}

// ---------------------------------------------------------------------------
// LRU cache unit tests.
// ---------------------------------------------------------------------------
TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  serve::LruCache<int, std::string> cache(2);
  cache.Put(1, "one");
  cache.Put(2, "two");
  ASSERT_NE(cache.Get(1), nullptr);  // Touch 1 -> 2 becomes LRU.
  cache.Put(3, "three");             // Evicts 2.
  EXPECT_EQ(cache.Get(2), nullptr);
  ASSERT_NE(cache.Get(1), nullptr);
  EXPECT_EQ(*cache.Get(1), "one");
  ASSERT_NE(cache.Get(3), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LruCacheTest, PutOverwritesAndPromotes) {
  serve::LruCache<int, int> cache(2);
  cache.Put(1, 10);
  cache.Put(2, 20);
  cache.Put(1, 11);  // Overwrite promotes 1; 2 is now LRU.
  cache.Put(3, 30);
  EXPECT_EQ(cache.Get(2), nullptr);
  ASSERT_NE(cache.Get(1), nullptr);
  EXPECT_EQ(*cache.Get(1), 11);
}

TEST(LruCacheTest, ClearEmptiesWithoutChangingCapacity) {
  serve::LruCache<int, int> cache(3);
  cache.Put(1, 1);
  cache.Put(2, 2);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.capacity(), 3u);
  EXPECT_EQ(cache.Get(1), nullptr);
  cache.Put(4, 4);
  ASSERT_NE(cache.Get(4), nullptr);
}

// ---------------------------------------------------------------------------
// Stats unit tests.
// ---------------------------------------------------------------------------
TEST(ServeStatsTest, PercentilesUseNearestRank) {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) {
    samples.push_back(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(serve::PercentileOf(samples, 0.5), 50.0);
  EXPECT_DOUBLE_EQ(serve::PercentileOf(samples, 0.99), 99.0);
  EXPECT_DOUBLE_EQ(serve::PercentileOf(samples, 1.0), 100.0);
  EXPECT_DOUBLE_EQ(serve::PercentileOf(samples, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(serve::PercentileOf({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(serve::PercentileOf({7.0}, 0.99), 7.0);
}

TEST(ServeStatsTest, SnapshotAggregatesRecordings) {
  serve::Stats stats;
  for (int i = 1; i <= 4; ++i) {
    stats.RecordRequestLatencyMs(static_cast<double>(i));
  }
  stats.RecordBatch(3);
  stats.RecordBatch(1);
  stats.RecordCacheHit();
  stats.RecordCacheMiss();

  const serve::StatsSnapshot snapshot = stats.Snapshot();
  EXPECT_EQ(snapshot.requests, 4);
  EXPECT_EQ(snapshot.batches, 2);
  EXPECT_DOUBLE_EQ(snapshot.mean_batch_size, 2.0);
  EXPECT_DOUBLE_EQ(snapshot.mean_latency_ms, 2.5);
  EXPECT_DOUBLE_EQ(snapshot.max_latency_ms, 4.0);
  EXPECT_DOUBLE_EQ(snapshot.p50_latency_ms, 2.0);
  EXPECT_DOUBLE_EQ(snapshot.cache_hit_rate, 0.5);
  ASSERT_GE(snapshot.batch_size_histogram.size(), 4u);
  EXPECT_EQ(snapshot.batch_size_histogram[1], 1);
  EXPECT_EQ(snapshot.batch_size_histogram[3], 1);
  // JSON line mentions every top-level field name.
  const std::string json = snapshot.ToJson();
  for (const char* key : {"requests", "batches", "cache_hit_rate",
                          "p50_latency_ms", "p99_latency_ms",
                          "mean_batch_size"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace kddn
