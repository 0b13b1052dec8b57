// Snapshot hot-swap suite (DESIGN.md §13): RCU publish semantics on the
// engine (in-flight batches pin their snapshot, every result is tagged with
// the fingerprint that scored it), the SnapshotRegistry health gate
// (checksum + golden-note verification, rejection taxonomy), the probation
// watchdog's deterministic chaos-driven rollback, and — the acceptance test —
// a live-load swap over HTTP: concurrent clients score continuously while the
// active snapshot changes underneath them, with zero failed requests and no
// score inconsistent with the fingerprint its response carries.
#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/chaos.h"
#include "common/check.h"
#include "common/fault_injector.h"
#include "core/trainer.h"
#include "gtest/gtest.h"
#include "models/bk_ddn.h"
#include "serve/http_server.h"
#include "serve/inference_engine.h"
#include "serve/json_util.h"
#include "serve/load_gen.h"
#include "serve/snapshot_registry.h"

namespace kddn {
namespace {

using serve::FrozenModel;
using serve::InferenceEngine;
using serve::SnapshotRegistry;
using serve::SwapCode;
using serve::SwapPolicy;

// ---------------------------------------------------------------------------
// Shared fixture: one dataset, three briefly-trained BK-DDN snapshots (two
// swap partners plus a third whose fingerprint is free for corruption tests),
// built once per process.
// ---------------------------------------------------------------------------
struct SwapWorld {
  kb::KnowledgeBase kb;
  std::unique_ptr<kb::ConceptExtractor> extractor;
  data::DatasetOptions data_options;
  data::MortalityDataset dataset;
  std::unique_ptr<FrozenModel> frozen_a;
  std::unique_ptr<FrozenModel> frozen_b;
  std::unique_ptr<FrozenModel> frozen_c;
};

std::unique_ptr<FrozenModel> TrainSnapshot(const data::MortalityDataset& data,
                                           uint64_t seed) {
  models::ModelConfig model_config;
  model_config.word_vocab_size = data.word_vocab().size();
  model_config.concept_vocab_size = data.concept_vocab().size();
  model_config.embedding_dim = 6;
  model_config.num_filters = 4;
  model_config.seed = seed;
  models::BkDdn model(model_config);
  core::TrainOptions train_options;
  train_options.epochs = 1;
  train_options.batch_size = 16;
  core::Trainer trainer(train_options);
  trainer.Train(&model, data.train(), data.validation(),
                synth::Horizon::kInHospital);
  return std::make_unique<FrozenModel>(FrozenModel::Freeze(model));
}

SwapWorld& World() {
  static SwapWorld* world = [] {
    auto* w = new SwapWorld();
    w->kb = kb::KnowledgeBase::BuildDefault();
    w->extractor = std::make_unique<kb::ConceptExtractor>(&w->kb);
    synth::CohortConfig config;
    config.num_patients = 120;
    config.seed = 11;
    const synth::Cohort cohort = synth::Cohort::Generate(config, w->kb);
    w->data_options.max_words = 64;
    w->data_options.max_concepts = 32;
    w->dataset =
        data::MortalityDataset::Build(cohort, *w->extractor, w->data_options);
    w->frozen_a = TrainSnapshot(w->dataset, 9);
    w->frozen_b = TrainSnapshot(w->dataset, 13);
    w->frozen_c = TrainSnapshot(w->dataset, 17);
    return w;
  }();
  return *world;
}

serve::NotePipeline WorldPipeline() {
  serve::NotePipeline pipeline;
  pipeline.word_vocab = &World().dataset.word_vocab();
  pipeline.concept_vocab = &World().dataset.concept_vocab();
  pipeline.extractor = World().extractor.get();
  pipeline.options = World().data_options;
  return pipeline;
}

/// Offline reference score: the bitwise truth a served score must match.
float Reference(const FrozenModel& model, const data::Example& example) {
  FrozenModel::Workspace ws;
  return model.ScorePositive(example, &ws);
}

/// A few model-ready golden examples from the validation split.
std::vector<data::Example> GoldenExamples(int count) {
  const std::vector<data::Example>& pool = World().dataset.validation();
  KDDN_CHECK(static_cast<int>(pool.size()) >= count)
      << "fixture validation split too small";
  return std::vector<data::Example>(pool.begin(), pool.begin() + count);
}

std::vector<float> GoldenScores(const FrozenModel& model,
                                const std::vector<data::Example>& examples) {
  std::vector<float> scores;
  scores.reserve(examples.size());
  for (const data::Example& example : examples) {
    scores.push_back(Reference(model, example));
  }
  return scores;
}

serve::EngineOptions UncachedEngineOptions() {
  serve::EngineOptions options;
  options.max_batch = 8;
  // No concept cache: every ScoreNote traverses serve.encode.extract, which
  // is what makes the chaos schedules below fire on deterministic hits.
  options.cache_capacity = 0;
  return options;
}

class HotSwapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Instance().DisarmAll();
    FaultInjector::Instance().ClearFiredLog();
  }
  void TearDown() override {
    FaultInjector::Instance().DisarmAll();
    FaultInjector::Instance().ClearFiredLog();
  }
};

// ---------------------------------------------------------------------------
// Engine-level RCU publish.
// ---------------------------------------------------------------------------
TEST_F(HotSwapTest, SwapModelRetagsNewBatchesAndReturnsTheOldSnapshot) {
  auto a = std::make_shared<const FrozenModel>(*World().frozen_a);
  auto b = std::make_shared<const FrozenModel>(*World().frozen_b);
  InferenceEngine engine(a, WorldPipeline(), UncachedEngineOptions());
  const data::Example example = World().dataset.validation()[0];

  serve::Scored scored = engine.ScoreAsync(example).get();
  EXPECT_EQ(scored.fingerprint, a->fingerprint());
  EXPECT_EQ(scored.score, Reference(*a, example));

  const std::shared_ptr<const FrozenModel> old = engine.SwapModel(b);
  EXPECT_EQ(old.get(), a.get());
  EXPECT_EQ(engine.active_fingerprint(), b->fingerprint());

  scored = engine.ScoreAsync(example).get();
  EXPECT_EQ(scored.fingerprint, b->fingerprint());
  EXPECT_EQ(scored.score, Reference(*b, example));
}

// ---------------------------------------------------------------------------
// Registry health gate.
// ---------------------------------------------------------------------------
TEST_F(HotSwapTest, GatedSwapPublishesAndTracksState) {
  auto a = std::make_shared<const FrozenModel>(*World().frozen_a);
  InferenceEngine engine(a, UncachedEngineOptions());
  SnapshotRegistry registry(&engine);
  const std::vector<data::Example> goldens = GoldenExamples(4);
  registry.SetGoldenExamples(goldens);
  const uint64_t fp_b =
      registry.Add(*World().frozen_b, GoldenScores(*World().frozen_b, goldens));

  serve::RegistrySnapshot state = registry.snapshot();
  EXPECT_EQ(state.snapshot_count, 2);  // Incumbent + candidate.
  EXPECT_EQ(state.active_fingerprint, a->fingerprint());
  EXPECT_FALSE(state.in_probation);

  const serve::SwapOutcome outcome = registry.Swap(fp_b);
  EXPECT_EQ(outcome.code, SwapCode::kPublished) << outcome.message;
  EXPECT_EQ(outcome.active_fingerprint, fp_b);
  EXPECT_GE(outcome.swap_ms, 0.0);
  EXPECT_EQ(engine.active_fingerprint(), fp_b);

  state = registry.snapshot();
  EXPECT_TRUE(state.in_probation);
  EXPECT_EQ(state.swaps, 1);
  EXPECT_EQ(state.previous_fingerprint, a->fingerprint());

  // Swapping to the already-active snapshot is a cheap no-op, not a
  // re-publish (it must not restart probation bookkeeping as a new swap).
  EXPECT_EQ(registry.Swap(fp_b).code, SwapCode::kAlreadyActive);
  EXPECT_EQ(registry.snapshot().swaps, 1);

  EXPECT_EQ(registry.Swap(0xdeadbeefULL).code, SwapCode::kUnknownFingerprint);
  EXPECT_EQ(engine.active_fingerprint(), fp_b);
}

TEST_F(HotSwapTest, CorruptedCandidateIsRefusedByTheChecksumStage) {
  auto a = std::make_shared<const FrozenModel>(*World().frozen_a);
  InferenceEngine engine(a, UncachedEngineOptions());
  SnapshotRegistry registry(&engine);

  FrozenModel corrupt = *World().frozen_b;
  corrupt.CorruptWeightForTest(3);
  ASSERT_FALSE(corrupt.VerifyChecksum());
  const uint64_t fp = registry.Add(std::move(corrupt));

  const serve::SwapOutcome outcome = registry.Swap(fp);
  EXPECT_EQ(outcome.code, SwapCode::kChecksumMismatch);
  // The incumbent is untouched and the refusal is counted.
  EXPECT_EQ(engine.active_fingerprint(), a->fingerprint());
  EXPECT_EQ(outcome.active_fingerprint, a->fingerprint());
  EXPECT_EQ(registry.snapshot().rejected, 1);
  EXPECT_FALSE(registry.snapshot().in_probation);
}

TEST_F(HotSwapTest, GoldenImpostorIsRefusedByTheCanaryStage) {
  auto a = std::make_shared<const FrozenModel>(*World().frozen_a);
  InferenceEngine engine(a, UncachedEngineOptions());
  SnapshotRegistry registry(&engine);
  const std::vector<data::Example> goldens = GoldenExamples(4);
  registry.SetGoldenExamples(goldens);
  // The artifact claims to be snapshot B but ships A's golden scores — the
  // canary stage must notice it is not the model it says it is.
  const uint64_t fp =
      registry.Add(*World().frozen_b, GoldenScores(*World().frozen_a, goldens));

  const serve::SwapOutcome outcome = registry.Swap(fp);
  EXPECT_EQ(outcome.code, SwapCode::kGoldenMismatch);
  EXPECT_FALSE(outcome.message.empty());
  EXPECT_EQ(engine.active_fingerprint(), a->fingerprint());
  EXPECT_EQ(registry.snapshot().rejected, 1);

  // Re-adding the same fingerprint with honest goldens repairs the entry.
  registry.Add(*World().frozen_b, GoldenScores(*World().frozen_b, goldens));
  EXPECT_EQ(registry.Swap(fp).code, SwapCode::kPublished);
}

// ---------------------------------------------------------------------------
// Probation watchdog: a chaos burst breaches the failure budget and the
// registry rolls back on its own — deterministically, from one schedule.
// ---------------------------------------------------------------------------
TEST_F(HotSwapTest, ChaosBreachDuringProbationRollsBackDeterministically) {
  auto a = std::make_shared<const FrozenModel>(*World().frozen_a);
  SwapPolicy policy;
  policy.probation_requests = 64;
  policy.min_probation_samples = 2;
  policy.max_failure_rate = 0.0;  // Any failure during probation rolls back.
  InferenceEngine engine(a, WorldPipeline(), UncachedEngineOptions());
  SnapshotRegistry registry(&engine, policy);
  const std::vector<data::Example> goldens = GoldenExamples(4);
  registry.SetGoldenExamples(goldens);
  const uint64_t fp_b =
      registry.Add(*World().frozen_b, GoldenScores(*World().frozen_b, goldens));
  ASSERT_TRUE(registry.Swap(fp_b).published());

  // The schedule (replayable from its own text form) poisons the first four
  // concept extractions after publish; with the cache off those are exactly
  // requests 0..3, which degrade rather than fail.
  ChaosCampaign campaign(ChaosSchedule::Parse("serve.encode.extract@0x4"));
  const std::string note = "patient presents with severe sepsis and pneumonia";
  for (int i = 0; i < 4; ++i) {
    const serve::ScoreResult result = engine.TryScoreNote(note);
    EXPECT_TRUE(result.ok());
  }
  EXPECT_EQ(FaultInjector::Instance().FiredLog().size(), 4u);
  EXPECT_EQ(engine.stats().degraded, 4);

  EXPECT_TRUE(registry.PollProbation());
  const serve::RegistrySnapshot state = registry.snapshot();
  EXPECT_EQ(state.active_fingerprint, a->fingerprint());
  EXPECT_EQ(state.rollbacks, 1);
  EXPECT_GE(state.last_rollback_ms, 0.0);
  EXPECT_FALSE(state.in_probation);
  EXPECT_EQ(engine.active_fingerprint(), a->fingerprint());
  // The watchdog is quiescent once rolled back.
  EXPECT_FALSE(registry.PollProbation());
}

// ---------------------------------------------------------------------------
// The acceptance test: live-load hot swap over HTTP.
// ---------------------------------------------------------------------------
TEST_F(HotSwapTest, LiveLoadSwapIsZeroDowntimeWithConsistentScores) {
  SwapWorld& world = World();
  auto a = std::make_shared<const FrozenModel>(*world.frozen_a);
  const uint64_t fp_a = a->fingerprint();
  const uint64_t fp_b = world.frozen_b->fingerprint();

  serve::EngineOptions engine_options = UncachedEngineOptions();
  engine_options.max_queue = 512;
  SwapPolicy policy;
  policy.probation_requests = 48;
  policy.min_probation_samples = 4;
  policy.max_failure_rate = 0.0;
  InferenceEngine engine(a, WorldPipeline(), engine_options);
  SnapshotRegistry registry(&engine, policy);
  const std::vector<data::Example> goldens = GoldenExamples(4);
  registry.SetGoldenExamples(goldens);
  registry.Add(*world.frozen_b, GoldenScores(*world.frozen_b, goldens));

  serve::HttpServer server(&engine, &registry, {});
  server.Start();
  const int port = server.port();

  serve::LoadGenOptions load;
  load.port = port;
  load.requests = 160;
  load.concurrency = 4;
  load.seed = 21;
  load.note_pool_size = 12;
  load.max_retries = 2;

  // Offline references: score every pool note on both snapshots directly.
  // Each served 200 must match the reference for the fingerprint *it*
  // carries — which snapshot that is depends on when the swap lands.
  const std::vector<std::string> pool =
      serve::BuildNotePool(load.seed, load.note_pool_size);
  std::map<uint64_t, std::vector<float>> references;
  for (const std::string& note : pool) {
    const data::Example example = engine.EncodeNote(note);
    references[fp_a].push_back(Reference(*world.frozen_a, example));
    references[fp_b].push_back(Reference(*world.frozen_b, example));
  }

  // Phase 1 — swap mid-load. The client fleet scores continuously; once the
  // engine has demonstrably executed some of its requests we publish B
  // through the admin route.
  serve::LoadGenReport report;
  std::thread load_thread([&] { report = serve::RunLoadGen(load); });
  while (engine.stats().requests < 20) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  int status = 0;
  std::string body;
  ASSERT_TRUE(serve::HttpRequestJson(
      "127.0.0.1", port, "POST", "/v1/admin/swap",
      "{\"fingerprint\": \"" + serve::FingerprintToHex(fp_b) + "\"}", &status,
      &body));
  EXPECT_EQ(status, 200) << body;
  EXPECT_NE(body.find("published"), std::string::npos) << body;
  load_thread.join();

  // Zero downtime: every request in the stream came back 200, first try.
  EXPECT_EQ(report.ok, load.requests);
  EXPECT_EQ(report.transport_errors, 0);
  EXPECT_EQ(report.http_errors, 0);
  EXPECT_EQ(report.shed_queue_full + report.shed_deadline, 0);
  EXPECT_EQ(report.total_retries, 0);

  // Consistency: every score matches the offline reference for the snapshot
  // fingerprint its response carried, bitwise.
  int scored_by_a = 0;
  for (const serve::RequestOutcome& outcome : report.outcomes) {
    ASSERT_EQ(outcome.status, 200);
    ASSERT_TRUE(references.count(outcome.fingerprint))
        << "unknown fingerprint " << outcome.fingerprint;
    EXPECT_FALSE(outcome.degraded);
    EXPECT_EQ(outcome.score,
              references[outcome.fingerprint][static_cast<size_t>(
                  outcome.note_index)]);
    scored_by_a += outcome.fingerprint == fp_a ? 1 : 0;
  }
  // The swap landed after >= 20 executed requests, so A demonstrably served
  // part of the stream; and it published cleanly, so B serves now.
  EXPECT_GE(scored_by_a, 20);
  EXPECT_EQ(engine.active_fingerprint(), fp_b);

  // Phase 2 — the health gate holds over HTTP. A corrupted artifact and a
  // golden impostor (C's weights shipping B's reference scores) are both
  // refused with 409 and the active snapshot never changes.
  FrozenModel corrupt_c = *world.frozen_c;
  corrupt_c.CorruptWeightForTest(7);
  const uint64_t fp_c = registry.Add(std::move(corrupt_c));
  const std::string swap_c =
      "{\"fingerprint\": \"" + serve::FingerprintToHex(fp_c) + "\"}";
  ASSERT_TRUE(serve::HttpRequestJson("127.0.0.1", port, "POST",
                                     "/v1/admin/swap", swap_c, &status, &body));
  EXPECT_EQ(status, 409) << body;
  EXPECT_NE(body.find("checksum"), std::string::npos) << body;

  registry.Add(*world.frozen_c, GoldenScores(*world.frozen_b, goldens));
  ASSERT_TRUE(serve::HttpRequestJson("127.0.0.1", port, "POST",
                                     "/v1/admin/swap", swap_c, &status, &body));
  EXPECT_EQ(status, 409) << body;
  EXPECT_NE(body.find("golden"), std::string::npos) << body;

  ASSERT_TRUE(serve::HttpRequestJson("127.0.0.1", port, "POST",
                                     "/v1/admin/swap",
                                     "{\"fingerprint\": \"f00dface\"}", &status,
                                     &body));
  EXPECT_EQ(status, 404) << body;
  ASSERT_TRUE(serve::HttpRequestJson("127.0.0.1", port, "POST",
                                     "/v1/admin/swap",
                                     "{\"fingerprint\": \"not hex\"}", &status,
                                     &body));
  EXPECT_EQ(status, 400) << body;
  EXPECT_EQ(engine.active_fingerprint(), fp_b);

  // Phase 3 — chaos-driven auto-rollback. Publish A again (B becomes the
  // rollback target), then run load under a seeded fault burst on the
  // concept extractor. The degraded responses breach the zero-tolerance
  // probation budget and the reactor's watchdog republishes B — while every
  // request still gets a 200.
  ASSERT_TRUE(serve::HttpRequestJson(
      "127.0.0.1", port, "POST", "/v1/admin/swap",
      "{\"fingerprint\": \"" + serve::FingerprintToHex(fp_a) + "\"}", &status,
      &body));
  ASSERT_EQ(status, 200) << body;

  const ChaosSchedule schedule =
      ChaosSchedule::Parse("serve.encode.extract@0x6");
  serve::LoadGenReport chaos_report;
  {
    ChaosCampaign campaign(schedule);
    serve::LoadGenOptions chaos_load = load;
    chaos_load.requests = 80;
    chaos_report = serve::RunLoadGen(chaos_load);
    // Rollback is driven by the reactor loop; give it its poll interval.
    for (int i = 0; i < 500 && registry.snapshot().rollbacks == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  // The campaign replayed its schedule exactly: one six-hit burst.
  EXPECT_EQ(FaultInjector::Instance().FiredLog().size(), 6u);

  // Zero failed requests even under faults — the burst degraded six
  // responses, it did not fail them.
  EXPECT_EQ(chaos_report.ok, 80);
  EXPECT_EQ(chaos_report.transport_errors, 0);
  EXPECT_EQ(chaos_report.http_errors, 0);
  EXPECT_EQ(chaos_report.shed_queue_full + chaos_report.shed_deadline, 0);
  const int degraded_count = static_cast<int>(
      std::count_if(chaos_report.outcomes.begin(), chaos_report.outcomes.end(),
                    [](const serve::RequestOutcome& o) { return o.degraded; }));
  EXPECT_EQ(degraded_count, 6);

  // ... and the watchdog rolled back to B.
  const serve::RegistrySnapshot state = registry.snapshot();
  EXPECT_EQ(state.rollbacks, 1);
  EXPECT_EQ(state.active_fingerprint, fp_b);
  EXPECT_GE(state.last_rollback_ms, 0.0);
  EXPECT_EQ(engine.active_fingerprint(), fp_b);

  // Non-degraded scores stayed bitwise-consistent with their fingerprint
  // throughout the rollback (degraded ones intentionally score a <pad>
  // concept row and have no non-degraded reference).
  for (const serve::RequestOutcome& outcome : chaos_report.outcomes) {
    if (outcome.degraded) {
      continue;
    }
    ASSERT_TRUE(references.count(outcome.fingerprint));
    EXPECT_EQ(outcome.score,
              references[outcome.fingerprint][static_cast<size_t>(
                  outcome.note_index)]);
  }

  // The registry block is live on /v1/stats.
  ASSERT_TRUE(serve::HttpRequestJson("127.0.0.1", port, "GET", "/v1/stats", "",
                                     &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"registry\""), std::string::npos);
  EXPECT_NE(body.find("\"rollbacks\": 1"), std::string::npos) << body;
  EXPECT_NE(body.find("\"active_fingerprint\": \"" +
                      serve::FingerprintToHex(fp_b) + "\""),
            std::string::npos)
      << body;

  server.Stop();
}

TEST_F(HotSwapTest, AdminSwapWithoutARegistryAnswers501) {
  auto a = std::make_shared<const FrozenModel>(*World().frozen_a);
  InferenceEngine engine(a, WorldPipeline(), UncachedEngineOptions());
  serve::HttpServer server(&engine, {});
  server.Start();
  int status = 0;
  std::string body;
  ASSERT_TRUE(serve::HttpRequestJson("127.0.0.1", server.port(), "POST",
                                     "/v1/admin/swap",
                                     "{\"fingerprint\": \"1234\"}", &status,
                                     &body));
  EXPECT_EQ(status, 501) << body;
  server.Stop();
}

}  // namespace
}  // namespace kddn
