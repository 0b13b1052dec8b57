// Robustness suite: crash-safe training (checkpoint/resume bitwise equal to
// the uninterrupted run, atomic checkpoint writes surviving injected
// mid-write crashes), deterministic fault injection, loader error paths with
// line-number diagnostics, and overload-safe serving (queue-full shedding,
// per-request deadlines, graceful degradation). Labelled `robustness` and
// `sanitize` — the whole suite runs under TSan.
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "autograd/ops.h"
#include "common/check.h"
#include "common/fault_injector.h"
#include "common/thread_pool.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "eval/metrics.h"
#include "gtest/gtest.h"
#include "kb/concept_extractor.h"
#include "kb/kb_io.h"
#include "models/bk_ddn.h"
#include "nn/optimizer.h"
#include "nn/serialization.h"
#include "serve/frozen_model.h"
#include "serve/inference_engine.h"
#include "serve/stats.h"
#include "synth/cohort.h"
#include "synth/corpus_io.h"
#include "testing/inference_engine_test_peer.h"
#include "text/vocabulary.h"

namespace kddn {
namespace {

// ---------------------------------------------------------------------------
// Shared fixture: one tiny cohort + dataset and a model config sized to it.
// Models are constructed fresh per test (training mutates them); identical
// configs give identical initial weights.
// ---------------------------------------------------------------------------
struct RobustWorld {
  kb::KnowledgeBase kb;
  std::unique_ptr<kb::ConceptExtractor> extractor;
  data::DatasetOptions data_options;
  data::MortalityDataset dataset;
  models::ModelConfig model_config;
};

RobustWorld& World() {
  static RobustWorld* world = [] {
    auto* w = new RobustWorld();
    w->kb = kb::KnowledgeBase::BuildDefault();
    w->extractor = std::make_unique<kb::ConceptExtractor>(&w->kb);
    synth::CohortConfig config;
    config.num_patients = 120;
    config.seed = 19;
    const synth::Cohort cohort = synth::Cohort::Generate(config, w->kb);
    w->data_options.max_words = 64;
    w->data_options.max_concepts = 32;
    w->dataset =
        data::MortalityDataset::Build(cohort, *w->extractor, w->data_options);
    w->model_config.word_vocab_size = w->dataset.word_vocab().size();
    w->model_config.concept_vocab_size = w->dataset.concept_vocab().size();
    w->model_config.embedding_dim = 6;
    w->model_config.num_filters = 4;
    w->model_config.seed = 9;
    return w;
  }();
  return *world;
}

std::unique_ptr<models::BkDdn> MakeModel() {
  return std::make_unique<models::BkDdn>(World().model_config);
}

/// Small standalone model for tests that don't need the dataset fixture.
models::ModelConfig TinyConfig(uint64_t seed = 13) {
  models::ModelConfig config;
  config.word_vocab_size = 20;
  config.concept_vocab_size = 10;
  config.embedding_dim = 4;
  config.num_filters = 3;
  config.seed = seed;
  return config;
}

data::Example TinyExample(int offset = 0) {
  data::Example example;
  example.word_ids = {1 + offset % 3, 2, 5};
  example.concept_ids = {1, 2};
  return example;
}

void ExpectSameParams(const nn::ParameterSet& actual,
                      const nn::ParameterSet& expected) {
  ASSERT_EQ(actual.all().size(), expected.all().size());
  for (size_t i = 0; i < actual.all().size(); ++i) {
    const Tensor& a = actual.all()[i]->value();
    const Tensor& b = expected.all()[i]->value();
    ASSERT_EQ(actual.all()[i]->name(), expected.all()[i]->name());
    ASSERT_EQ(a.shape(), b.shape());
    EXPECT_EQ(std::memcmp(a.data(), b.data(),
                          static_cast<size_t>(a.size()) * sizeof(float)),
              0)
        << "parameter " << actual.all()[i]->name()
        << " diverged from the reference run";
  }
}

/// Runs `fn`, which must throw KddnError, and returns the error message.
std::string ThrownMessage(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const KddnError& error) {
    return error.what();
  }
  ADD_FAILURE() << "expected KddnError";
  return "";
}

/// A fresh scratch directory under the test temp dir.
std::string ScratchDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "kddn_robustness_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// Fault injector unit tests.
// ---------------------------------------------------------------------------
TEST(FaultInjectorTest, UnarmedSitesAreNoOps) {
  FaultInjector::Instance().DisarmAll();
  KDDN_FAULT_POINT("robustness.unarmed");  // Must not throw.
  EXPECT_EQ(FaultInjector::Instance().HitCount("robustness.unarmed"), 0);
}

TEST(FaultInjectorTest, FiresExactlyOnTheArmedHitAndOnlyOnce) {
  auto& injector = FaultInjector::Instance();
  injector.Arm("robustness.third", /*fail_on_hit=*/2);
  KDDN_FAULT_POINT("robustness.third");
  KDDN_FAULT_POINT("robustness.third");
  const std::string message =
      ThrownMessage([] { KDDN_FAULT_POINT("robustness.third"); });
  EXPECT_NE(message.find("robustness.third"), std::string::npos) << message;
  // Fired once per arming: the retry after the "crash" proceeds normally.
  KDDN_FAULT_POINT("robustness.third");
  EXPECT_EQ(injector.HitCount("robustness.third"), 4);
  injector.Disarm("robustness.third");
  EXPECT_EQ(injector.HitCount("robustness.third"), 0);
}

TEST(FaultInjectorTest, ScopedFaultDisarmsOnExit) {
  {
    FaultInjector::ScopedFault fault("robustness.scoped");
    EXPECT_THROW(KDDN_FAULT_POINT("robustness.scoped"), KddnError);
  }
  KDDN_FAULT_POINT("robustness.scoped");  // Disarmed; must not throw.
  EXPECT_EQ(FaultInjector::Instance().HitCount("robustness.scoped"), 0);
}

// ---------------------------------------------------------------------------
// Checkpoint format: trainer state round-trips exactly; model-only
// checkpoints stay readable by both load paths.
// ---------------------------------------------------------------------------
TEST(CheckpointFormatTest, TrainerStateRoundTripsExactly) {
  models::BkDdn source(TinyConfig());
  nn::TrainerState state;
  state.completed_epochs = 3;
  state.seed = 77;
  state.best_validation_auc = 0.625;
  eval::CurvePoint point;
  point.epoch = 2;
  point.train_loss = 0.53125;
  point.validation_loss = 0.40625;
  point.validation_auc = 0.625;
  state.curve = {point};
  state.accumulators = {{"acc", Tensor::FromData({3}, {0.5f, 1.25f, 2.0f})}};
  state.best_params = {{"best", Tensor::FromData({2}, {-1.0f, 3.5f})}};

  std::stringstream buffer;
  nn::SaveCheckpoint(source.params(), &state, buffer);

  models::BkDdn restored(TinyConfig(14));  // Different init, same shapes.
  nn::TrainerState loaded;
  EXPECT_TRUE(nn::LoadCheckpoint(&restored.params(), &loaded, buffer));
  ExpectSameParams(restored.params(), source.params());
  EXPECT_EQ(loaded.completed_epochs, 3);
  EXPECT_EQ(loaded.seed, 77u);
  EXPECT_EQ(loaded.best_validation_auc, 0.625);
  ASSERT_EQ(loaded.curve.size(), 1u);
  EXPECT_EQ(loaded.curve[0].epoch, 2);
  EXPECT_EQ(loaded.curve[0].train_loss, 0.53125);
  EXPECT_EQ(loaded.curve[0].validation_loss, 0.40625);
  EXPECT_EQ(loaded.curve[0].validation_auc, 0.625);
  ASSERT_EQ(loaded.accumulators.size(), 1u);
  EXPECT_EQ(loaded.accumulators[0].first, "acc");
  EXPECT_EQ(loaded.accumulators[0].second[1], 1.25f);
  ASSERT_EQ(loaded.best_params.size(), 1u);
  EXPECT_EQ(loaded.best_params[0].first, "best");
  EXPECT_EQ(loaded.best_params[0].second[0], -1.0f);
}

TEST(CheckpointFormatTest, ModelOnlyCheckpointLoadsWithoutTrainerState) {
  models::BkDdn source(TinyConfig());
  std::stringstream buffer;
  nn::SaveParameters(source.params(), buffer);

  models::BkDdn restored(TinyConfig(14));
  nn::TrainerState state;
  EXPECT_FALSE(nn::LoadCheckpoint(&restored.params(), &state, buffer));
  ExpectSameParams(restored.params(), source.params());
}

TEST(CheckpointFormatTest, ModelOnlyLoaderIgnoresTrainerSection) {
  // Serving / --load consumers read trainer checkpoints as plain weights.
  models::BkDdn source(TinyConfig());
  nn::TrainerState state;
  state.completed_epochs = 1;
  state.seed = 5;
  std::stringstream buffer;
  nn::SaveCheckpoint(source.params(), &state, buffer);

  models::BkDdn restored(TinyConfig(14));
  nn::LoadParameters(&restored.params(), buffer);
  ExpectSameParams(restored.params(), source.params());
}

// ---------------------------------------------------------------------------
// Atomic checkpoint writes: a crash injected mid-write (body or commit)
// leaves the previous file intact and loadable; the disarmed retry succeeds.
// ---------------------------------------------------------------------------
class AtomicWriteTest : public ::testing::TestWithParam<const char*> {};

TEST_P(AtomicWriteTest, InjectedCrashPreservesThePreviousCheckpoint) {
  const std::string dir = ScratchDir(std::string("atomic_") +
                                     (std::string(GetParam()) == "nn.save.body"
                                          ? "body"
                                          : "commit"));
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/model.kddn";

  models::BkDdn first(TinyConfig(21));
  models::BkDdn second(TinyConfig(22));
  nn::SaveParametersToFile(first.params(), path);
  {
    FaultInjector::ScopedFault crash(GetParam());
    EXPECT_THROW(nn::SaveParametersToFile(second.params(), path), KddnError);
  }
  // The "crashed" write must not have clobbered the live checkpoint.
  models::BkDdn probe(TinyConfig(23));
  nn::LoadParametersFromFile(&probe.params(), path);
  ExpectSameParams(probe.params(), first.params());

  // After "recovery" (fault disarmed) the same write goes through.
  nn::SaveParametersToFile(second.params(), path);
  nn::LoadParametersFromFile(&probe.params(), path);
  ExpectSameParams(probe.params(), second.params());
}

INSTANTIATE_TEST_SUITE_P(CrashSites, AtomicWriteTest,
                         ::testing::Values("nn.save.body", "nn.save.commit"));

// ---------------------------------------------------------------------------
// Adagrad state export/import: a resumed optimizer continues bitwise.
// ---------------------------------------------------------------------------
TEST(AdagradStateTest, ImportedStateContinuesBitwise) {
  nn::ParameterSet straight_params, resumed_params;
  ag::NodePtr straight_w =
      straight_params.Create("w", Tensor::Full({3}, 1.0f));
  ag::NodePtr resumed_w = resumed_params.Create("w", Tensor::Full({3}, 1.0f));
  auto step = [](nn::ParameterSet& params, ag::NodePtr w, nn::Adagrad& opt) {
    ag::Backward(ag::SumAll(ag::Mul(w, w)));
    opt.Step(params.all());
  };

  nn::Adagrad straight_opt(0.1f);
  step(straight_params, straight_w, straight_opt);
  step(straight_params, straight_w, straight_opt);

  nn::Adagrad first_opt(0.1f);
  step(resumed_params, resumed_w, first_opt);
  nn::Adagrad second_opt(0.1f);  // "Restart": new optimizer, imported state.
  second_opt.ImportState(first_opt.ExportState());
  step(resumed_params, resumed_w, second_opt);

  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(resumed_w->value()[i], straight_w->value()[i]) << "weight " << i;
  }
}

TEST(AdagradStateTest, ImportRejectsDuplicateAndUnnamedAccumulators) {
  nn::Adagrad opt(0.1f);
  EXPECT_THROW(opt.ImportState({{"a", Tensor::Full({1}, 0.0f)},
                                {"a", Tensor::Full({1}, 0.0f)}}),
               KddnError);
  EXPECT_THROW(opt.ImportState({{"", Tensor::Full({1}, 0.0f)}}), KddnError);
}

// ---------------------------------------------------------------------------
// Resume determinism: killing training at an epoch boundary and resuming
// from the checkpoint must be bitwise identical to never having crashed, at
// one and several threads.
// ---------------------------------------------------------------------------
class ResumeDeterminismTest : public ::testing::TestWithParam<int> {};

TEST_P(ResumeDeterminismTest, ResumedRunMatchesStraightRunBitwise) {
  const int threads = GetParam();
  struct PoolSizeGuard {
    int previous = GlobalThreadPoolSize();
    ~PoolSizeGuard() { SetGlobalThreadPoolSize(previous); }
  } pool_guard;
  SetGlobalThreadPoolSize(threads);
  const auto& train = World().dataset.train();
  const auto& validation = World().dataset.validation();
  const auto& test = World().dataset.test();
  const synth::Horizon horizon = synth::Horizon::kInHospital;

  core::TrainOptions options;
  options.epochs = 8;
  options.batch_size = 16;
  options.seed = 11;

  // Reference: the uninterrupted run.
  auto straight = MakeModel();
  eval::CurveRecorder straight_curve =
      core::Trainer(options).Train(straight.get(), train, validation, horizon);
  const double straight_auc =
      core::Trainer::EvaluateSplit(straight.get(), test, horizon).auc;

  // "Crash" at the start of epoch 5: epochs 1-4 completed and checkpointed.
  core::TrainOptions checkpointed = options;
  checkpointed.checkpoint_dir =
      ScratchDir("resume_t" + std::to_string(threads));
  {
    FaultInjector::ScopedFault kill("core.train.epoch", /*fail_on_hit=*/4);
    auto crashed = MakeModel();
    EXPECT_THROW(core::Trainer(checkpointed)
                     .Train(crashed.get(), train, validation, horizon),
                 KddnError);
  }
  const std::string path = core::CheckpointPath(checkpointed.checkpoint_dir);
  ASSERT_TRUE(std::filesystem::exists(path));

  // The surviving checkpoint is a valid epoch-4 snapshot — readable by the
  // model-only loader and carrying four completed epochs of trainer state.
  {
    auto probe = MakeModel();
    nn::LoadParametersFromFile(&probe->params(), path);
    nn::TrainerState state;
    ASSERT_TRUE(nn::LoadCheckpointFromFile(&probe->params(), &state, path));
    EXPECT_EQ(state.completed_epochs, 4);
    EXPECT_EQ(state.seed, options.seed);
    EXPECT_EQ(state.curve.size(), 4u);
  }

  // Resume and finish epochs 5-8.
  checkpointed.resume = true;
  auto resumed = MakeModel();
  eval::CurveRecorder resumed_curve =
      core::Trainer(checkpointed)
          .Train(resumed.get(), train, validation, horizon);

  ExpectSameParams(resumed->params(), straight->params());
  EXPECT_EQ(core::Trainer::EvaluateSplit(resumed.get(), test, horizon).auc,
            straight_auc);
  ASSERT_EQ(resumed_curve.points().size(), straight_curve.points().size());
  for (size_t i = 0; i < straight_curve.points().size(); ++i) {
    EXPECT_EQ(resumed_curve.points()[i].epoch,
              straight_curve.points()[i].epoch);
    EXPECT_EQ(resumed_curve.points()[i].train_loss,
              straight_curve.points()[i].train_loss);
    EXPECT_EQ(resumed_curve.points()[i].validation_loss,
              straight_curve.points()[i].validation_loss);
    EXPECT_EQ(resumed_curve.points()[i].validation_auc,
              straight_curve.points()[i].validation_auc);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ResumeDeterminismTest,
                         ::testing::Values(1, 4));

TEST(ResumeCheckpointTest, SparseCheckpointsResumeFromTheLastBoundary) {
  // checkpoint_every=3 over 8 epochs checkpoints at 3, 6 and 8; a crash at
  // the start of epoch 8 resumes from the epoch-6 state and still converges
  // to the straight run bitwise.
  const auto& train = World().dataset.train();
  const auto& validation = World().dataset.validation();
  const synth::Horizon horizon = synth::Horizon::kInHospital;

  core::TrainOptions options;
  options.epochs = 8;
  options.batch_size = 16;
  options.seed = 11;

  auto straight = MakeModel();
  core::Trainer(options).Train(straight.get(), train, validation, horizon);

  core::TrainOptions checkpointed = options;
  checkpointed.checkpoint_dir = ScratchDir("resume_sparse");
  checkpointed.checkpoint_every = 3;
  {
    FaultInjector::ScopedFault kill("core.train.epoch", /*fail_on_hit=*/7);
    auto crashed = MakeModel();
    EXPECT_THROW(core::Trainer(checkpointed)
                     .Train(crashed.get(), train, validation, horizon),
                 KddnError);
  }
  nn::TrainerState state;
  {
    auto probe = MakeModel();
    ASSERT_TRUE(nn::LoadCheckpointFromFile(
        &probe->params(), &state,
        core::CheckpointPath(checkpointed.checkpoint_dir)));
  }
  EXPECT_EQ(state.completed_epochs, 6);

  checkpointed.resume = true;
  auto resumed = MakeModel();
  core::Trainer(checkpointed).Train(resumed.get(), train, validation, horizon);
  ExpectSameParams(resumed->params(), straight->params());
}

TEST(ResumeCheckpointTest, ResumeRejectsASeedMismatch) {
  const auto& train = World().dataset.train();
  const auto& validation = World().dataset.validation();
  const synth::Horizon horizon = synth::Horizon::kInHospital;

  core::TrainOptions options;
  options.epochs = 2;
  options.batch_size = 16;
  options.seed = 11;
  options.checkpoint_dir = ScratchDir("resume_seed");
  auto model = MakeModel();
  core::Trainer(options).Train(model.get(), train, validation, horizon);

  options.resume = true;
  options.seed = 12;  // Different shuffle stream: resuming would be silently
                      // wrong, so it must refuse.
  auto resumed = MakeModel();
  const std::string message = ThrownMessage([&] {
    core::Trainer(options).Train(resumed.get(), train, validation, horizon);
  });
  EXPECT_NE(message.find("seed"), std::string::npos) << message;
}

// ---------------------------------------------------------------------------
// Options validation: nonsensical settings fail at construction.
// ---------------------------------------------------------------------------
TEST(TrainOptionsValidationTest, InvalidOptionsThrowAtConstruction) {
  const auto with = [](const std::function<void(core::TrainOptions*)>& mutate) {
    core::TrainOptions options;
    mutate(&options);
    return options;
  };
  EXPECT_THROW(core::Trainer{with([](auto* o) { o->epochs = 0; })}, KddnError);
  EXPECT_THROW(core::Trainer{with([](auto* o) { o->batch_size = 0; })},
               KddnError);
  EXPECT_THROW(core::Trainer{with([](auto* o) { o->learning_rate = 0.0f; })},
               KddnError);
  EXPECT_THROW(core::Trainer{with([](auto* o) { o->grad_chunk_size = 0; })},
               KddnError);
  EXPECT_THROW(core::Trainer{with([](auto* o) { o->checkpoint_every = 0; })},
               KddnError);
  // Resume without a checkpoint directory is a contradiction.
  EXPECT_THROW(core::Trainer{with([](auto* o) { o->resume = true; })},
               KddnError);
  // The defaults are valid.
  core::Trainer ok{core::TrainOptions{}};
}

TEST(EngineOptionsValidationTest, InvalidOptionsThrowAtConstruction) {
  models::BkDdn model(TinyConfig());
  const serve::FrozenModel frozen = serve::FrozenModel::Freeze(model);
  const auto expect_throws = [&](serve::EngineOptions options) {
    EXPECT_THROW(serve::InferenceEngine(&frozen, options), KddnError);
  };
  serve::EngineOptions options;
  options.max_batch = 0;
  expect_throws(options);
  options = {};
  options.cache_capacity = -1;
  expect_throws(options);
  options = {};
  options.max_queue = -1;
  expect_throws(options);
  options = {};
  options.deadline_ms = -1;
  expect_throws(options);
}

// ---------------------------------------------------------------------------
// Loader error paths: malformed mid-file input names the offending line, and
// an injected read failure aborts instead of returning a partial result.
// ---------------------------------------------------------------------------
std::string ValidKbLine(const std::string& cui) {
  return cui + "\t" +
         kb::SemanticTypeName(kb::SemanticType::kDiseaseOrSyndrome) +
         "\tHeart failure\thf|chf\tA disease.\n";
}

TEST(KbLoaderErrorTest, UnknownSemanticTypeNamesTheLine) {
  std::istringstream in(ValidKbLine("C001") +
                        "C002\tnot-a-type\tName\t\tdef\n");
  const std::string message =
      ThrownMessage([&] { kb::ReadKnowledgeBaseTsv(in); });
  EXPECT_NE(message.find("line 2"), std::string::npos) << message;
  EXPECT_NE(message.find("unknown semantic type"), std::string::npos)
      << message;
}

TEST(KbLoaderErrorTest, WrongFieldCountNamesTheLine) {
  std::istringstream in(ValidKbLine("C001") + ValidKbLine("C002") +
                        "C003\tonly two fields\n");
  const std::string message =
      ThrownMessage([&] { kb::ReadKnowledgeBaseTsv(in); });
  EXPECT_NE(message.find("line 3"), std::string::npos) << message;
}

TEST(KbLoaderErrorTest, DuplicateCuiNamesTheLine) {
  std::istringstream in(ValidKbLine("C001") + ValidKbLine("C001"));
  const std::string message =
      ThrownMessage([&] { kb::ReadKnowledgeBaseTsv(in); });
  EXPECT_NE(message.find("line 2"), std::string::npos) << message;
  EXPECT_NE(message.find("duplicate CUI"), std::string::npos) << message;
}

TEST(KbLoaderErrorTest, InjectedReadFailureAbortsTheLoad) {
  std::ostringstream serialized;
  kb::WriteKnowledgeBaseTsv(World().kb, serialized);
  std::istringstream in(serialized.str());
  FaultInjector::ScopedFault fault("kb.read.line", /*fail_on_hit=*/2);
  // Must throw, not hand back a two-line knowledge base.
  EXPECT_THROW(kb::ReadKnowledgeBaseTsv(in), KddnError);
}

TEST(KbLoaderErrorTest, InjectedWriteFailureSurfaces) {
  std::ostringstream out;
  FaultInjector::ScopedFault fault("kb.write.line", /*fail_on_hit=*/1);
  EXPECT_THROW(kb::WriteKnowledgeBaseTsv(World().kb, out), KddnError);
}

std::string ValidCohortLine(int id) {
  return "{\"id\":" + std::to_string(id) +
         ",\"age\":70,\"outcome\":1,\"diseases\":[\"C1\"],"
         "\"worsening\":[true],\"text\":\"note\"}\n";
}

TEST(CorpusLoaderErrorTest, UnknownKeyNamesTheLine) {
  std::istringstream in(ValidCohortLine(1) + "{\"id\":2,\"oops\":3}\n");
  const std::string message =
      ThrownMessage([&] { synth::ReadCohortJsonl(in); });
  EXPECT_NE(message.find("line 2"), std::string::npos) << message;
  EXPECT_NE(message.find("unknown key"), std::string::npos) << message;
}

TEST(CorpusLoaderErrorTest, MalformedJsonNamesTheLine) {
  std::istringstream in(ValidCohortLine(1) + ValidCohortLine(2) +
                        "{\"id\":3,\"age\":\n");
  const std::string message =
      ThrownMessage([&] { synth::ReadCohortJsonl(in); });
  EXPECT_NE(message.find("line 3"), std::string::npos) << message;
}

TEST(CorpusLoaderErrorTest, OutOfRangeOutcomeNamesTheLine) {
  std::istringstream in("{\"id\":1,\"outcome\":7}\n");
  const std::string message =
      ThrownMessage([&] { synth::ReadCohortJsonl(in); });
  EXPECT_NE(message.find("line 1"), std::string::npos) << message;
  EXPECT_NE(message.find("bad outcome"), std::string::npos) << message;
}

TEST(CorpusLoaderErrorTest, InjectedReadFailureAbortsTheLoad) {
  std::istringstream in(ValidCohortLine(1) + ValidCohortLine(2) +
                        ValidCohortLine(3));
  FaultInjector::ScopedFault fault("corpus.read.line", /*fail_on_hit=*/1);
  EXPECT_THROW(synth::ReadCohortJsonl(in), KddnError);
}

TEST(CorpusLoaderErrorTest, InjectedWriteFailureSurfaces) {
  synth::CohortConfig config;
  config.num_patients = 3;
  config.seed = 4;
  const synth::Cohort cohort = synth::Cohort::Generate(config, World().kb);
  std::ostringstream out;
  FaultInjector::ScopedFault fault("corpus.write.line", /*fail_on_hit=*/1);
  EXPECT_THROW(synth::WriteCohortJsonl(cohort, out), KddnError);
}

// ---------------------------------------------------------------------------
// Admission control: queue-full shedding, deadline timeouts, and the
// shed/timeout/degraded counters in the stats snapshot.
// ---------------------------------------------------------------------------
TEST(AdmissionControlTest, BurstBeyondMaxQueueShedsAtTheDoor) {
  models::BkDdn model(TinyConfig());
  const serve::FrozenModel frozen = serve::FrozenModel::Freeze(model);
  serve::EngineOptions options;
  options.max_queue = 3;
  std::vector<std::future<serve::Scored>> admitted;
  {
    serve::InferenceEngine engine(&frozen, options);
    serve::InferenceEngineTestPeer::Hold(&engine);  // Queued ones stay queued.
    for (int i = 0; i < 3; ++i) {
      admitted.push_back(engine.ScoreAsync(TinyExample(i)));
    }
    // The burst's fourth request finds the queue at max_queue.
    try {
      engine.ScoreAsync(TinyExample(3));
      FAIL() << "expected the over-limit request to be shed";
    } catch (const serve::ShedError& error) {
      EXPECT_EQ(error.reason(), serve::ShedReason::kQueueFull);
      EXPECT_NE(std::string(error.what()).find("max_queue"),
                std::string::npos);
    }
    // The non-throwing API reports the same outcome as a value.
    const serve::ScoreResult result = engine.TryScore(TinyExample(4));
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.shed, serve::ShedReason::kQueueFull);
    EXPECT_STREQ(serve::ShedReasonName(result.shed), "queue-full");

    const serve::StatsSnapshot stats = engine.stats();
    EXPECT_EQ(stats.shed, 2);
    EXPECT_EQ(stats.timeouts, 0);
    EXPECT_NE(stats.ToJson().find("\"shed\": 2"), std::string::npos)
        << stats.ToJson();
  }  // Shutdown still drains the admitted requests.
  for (std::future<serve::Scored>& future : admitted) {
    const float p = future.get().score;
    EXPECT_TRUE(std::isfinite(p));
  }
}

TEST(AdmissionControlTest, StaleRequestsTimeOutInsteadOfBurningABatchSlot) {
  models::BkDdn model(TinyConfig());
  const serve::FrozenModel frozen = serve::FrozenModel::Freeze(model);
  serve::EngineOptions options;
  options.deadline_ms = 1;
  serve::InferenceEngine engine(&frozen, options);
  serve::InferenceEngineTestPeer::Hold(&engine);
  std::future<serve::Scored> future = engine.ScoreAsync(TinyExample());
  // Outwait the deadline behind the hold: the request is stale when the
  // batcher first sees it.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  serve::InferenceEngineTestPeer::Release(&engine);
  try {
    future.get();
    FAIL() << "expected the stale request to be shed";
  } catch (const serve::ShedError& error) {
    EXPECT_EQ(error.reason(), serve::ShedReason::kDeadlineExceeded);
  }
  const serve::StatsSnapshot stats = engine.stats();
  EXPECT_EQ(stats.timeouts, 1);
  EXPECT_EQ(stats.requests, 0);  // Shed requests are never scored.
  EXPECT_NE(stats.ToJson().find("\"timeouts\": 1"), std::string::npos)
      << stats.ToJson();
}

TEST(ScoreFaultTest, FailingScoreFailsOnlyItsOwnRequest) {
  models::BkDdn model(TinyConfig());
  const serve::FrozenModel frozen = serve::FrozenModel::Freeze(model);
  std::vector<float> reference;
  serve::FrozenModel::Workspace ws;
  for (int i = 0; i < 4; ++i) {
    reference.push_back(frozen.ScorePositive(TinyExample(i), &ws));
  }
  // One lane runs the batch's jobs inline in queue order, so the fault's
  // second hit is request 1's score.
  struct PoolSizeGuard {
    int previous = GlobalThreadPoolSize();
    ~PoolSizeGuard() { SetGlobalThreadPoolSize(previous); }
  } pool_guard;
  SetGlobalThreadPoolSize(1);
  serve::InferenceEngine engine(&frozen);
  serve::InferenceEngineTestPeer::Hold(&engine);
  std::vector<std::future<serve::Scored>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(engine.ScoreAsync(TinyExample(i)));
  }
  {
    FaultInjector::ScopedFault fault("serve.score", /*fail_on_hit=*/1);
    serve::InferenceEngineTestPeer::Release(&engine);
    EXPECT_EQ(futures[0].get().score, reference[0]);
    EXPECT_THROW(futures[1].get(), KddnError);
    EXPECT_EQ(futures[2].get().score, reference[2]);
  }
  EXPECT_EQ(engine.stats().batch_size_histogram,
            (std::vector<int64_t>{0, 0, 0, 1}));
  // The engine is not poisoned: the next request scores as ever.
  EXPECT_EQ(engine.Score(TinyExample(3)), reference[3]);
  EXPECT_EQ(engine.stats().requests, 3);  // Scored ones; the failure is not.
}

TEST(AdmissionControlTest, StatsJsonCarriesAllRobustnessCounters) {
  serve::Stats stats;
  stats.RecordShed();
  stats.RecordTimeout();
  stats.RecordDegraded();
  const serve::StatsSnapshot snapshot = stats.Snapshot();
  EXPECT_EQ(snapshot.shed, 1);
  EXPECT_EQ(snapshot.timeouts, 1);
  EXPECT_EQ(snapshot.degraded, 1);
  const std::string json = snapshot.ToJson();
  for (const char* key : {"\"shed\"", "\"timeouts\"", "\"degraded\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
}

// ---------------------------------------------------------------------------
// Graceful degradation: a concept-extraction failure serves the text branch
// against a <pad> concept row, ticks the degraded counter, and is never
// cached — a recovered extractor serves real concepts on the next miss.
// ---------------------------------------------------------------------------
TEST(GracefulDegradationTest, ExtractionFailureDegradesToPadConcepts) {
  models::BkDdn model(World().model_config);
  const serve::FrozenModel frozen = serve::FrozenModel::Freeze(model);
  serve::NotePipeline pipeline;
  pipeline.word_vocab = &World().dataset.word_vocab();
  pipeline.concept_vocab = &World().dataset.concept_vocab();
  pipeline.extractor = World().extractor.get();
  pipeline.options = World().data_options;
  const std::string note =
      "pt w/ chf exacerbation, worsening pleural effusions bilaterally";

  // References from an unfaulted engine: the full-pipeline score and the
  // score of the same words against a <pad> concept row.
  serve::InferenceEngine reference(&frozen, pipeline);
  const data::Example full = reference.EncodeNote(note);
  data::Example padded = full;
  padded.concept_ids = {text::Vocabulary::kPadId};
  const float full_score = reference.Score(full);
  const float degraded_score = reference.Score(padded);

  serve::InferenceEngine engine(&frozen, pipeline);
  {
    FaultInjector::ScopedFault broken("serve.encode.extract");
    EXPECT_EQ(engine.ScoreNote(note), degraded_score);
  }
  EXPECT_EQ(engine.stats().degraded, 1);
  // The degraded encoding was not cached: with extraction healthy again the
  // same note takes a fresh miss and scores through the real concepts.
  EXPECT_EQ(engine.ScoreNote(note), full_score);
  EXPECT_EQ(engine.stats().cache_misses, 2);
  EXPECT_EQ(engine.stats().cache_hits, 0);
  // The non-throwing note API returns ok results on the healthy path.
  const serve::ScoreResult result = engine.TryScoreNote(note);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.score, full_score);
}

}  // namespace
}  // namespace kddn
