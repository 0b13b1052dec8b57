// Determinism goldens and the input-pipeline / evaluation-path suite
// (DESIGN.md §10, §14, §15). Committed FNV-1a fingerprints pin the built
// dataset's bytes and, for BK-DDN, AK-DDN and Text CNN, the trained weights
// plus every curve point, at 1, 2 and 4 threads and under the scalar GEMM;
// both resume paths (mid-run checkpoint, and a checkpoint written under the
// scalar GEMM resumed under SIMD) must land on the same constant.
// BatchAssembler must hand the trainer exactly the batches direct slicing
// would, and EvaluateSplit must equal a per-example graph forward. Labelled
// `pipeline` and `sanitize` — the whole suite runs under TSan.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "autograd/node.h"
#include "autograd/ops.h"
#include "common/check.h"
#include "common/fault_injector.h"
#include "common/fnv1a.h"
#include "common/thread_pool.h"
#include "core/batch_assembler.h"
#include "core/experiment.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "eval/metrics.h"
#include "gtest/gtest.h"
#include "kb/concept_extractor.h"
#include "kb/knowledge_base.h"
#include "models/bk_ddn.h"
#include "synth/cohort.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace kddn {
namespace {

/// Restores the process-wide pool size on scope exit.
struct PoolSizeGuard {
  int previous = GlobalThreadPoolSize();
  ~PoolSizeGuard() { SetGlobalThreadPoolSize(previous); }
};

std::string ScratchDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "kddn_pipeline_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Restores the process-wide GEMM kernel mode on scope exit.
struct GemmKernelGuard {
  GemmKernel previous = GetGemmKernel();
  ~GemmKernelGuard() { SetGemmKernel(previous); }
};

// ---------------------------------------------------------------------------
// Determinism goldens (DESIGN.md §15). Each constant was recorded before the
// reference paths (fork-join trainer, inline assembly, two-pass eval, dense
// embedding gradients, serial dataset build) were deleted, and those paths
// and the default path gave it alike, at 1, 2 and 4 threads, under both GEMM
// kernels, in RelWithDebInfo and Release. Re-pinning one needs a CHANGES.md
// entry that says why the bits changed.
// ---------------------------------------------------------------------------

constexpr uint64_t kDatasetGolden = 0x7b58fd59196e2840ULL;
constexpr uint64_t kBkDdnGolden = 0x7784e7c05e6035ceULL;
constexpr uint64_t kAkDdnGolden = 0xb8ae0294e2ffbe1dULL;
constexpr uint64_t kTextCnnGolden = 0x5e39578af8f7d791ULL;

/// Folds one trivially copyable value into an FNV-1a state.
template <typename T>
uint64_t HashValue(const T& value, uint64_t state) {
  return Fnv1a(&value, sizeof(value), state);
}

/// Folds a length-prefixed int sequence into an FNV-1a state.
uint64_t HashInts(const std::vector<int>& values, uint64_t state) {
  state = HashValue(static_cast<uint64_t>(values.size()), state);
  return Fnv1a(values.data(), values.size() * sizeof(int), state);
}

uint64_t HashVocab(const text::Vocabulary& vocab, uint64_t state) {
  state = HashValue(vocab.size(), state);
  for (int id = 0; id < vocab.size(); ++id) {
    const std::string& token = vocab.TokenOf(id);
    state = HashValue(static_cast<uint64_t>(token.size()), state);
    state = Fnv1a(token.data(), token.size(), state);
    state = HashValue(vocab.Frequency(id), state);
  }
  return state;
}

uint64_t HashSplit(const std::vector<data::Example>& split, uint64_t state) {
  state = HashValue(static_cast<uint64_t>(split.size()), state);
  for (const data::Example& example : split) {
    state = HashValue(example.patient_id, state);
    state = HashInts(example.word_ids, state);
    state = HashInts(example.concept_ids, state);
    for (const bool label : example.labels) {
      state = HashValue(static_cast<uint8_t>(label), state);
    }
  }
  return state;
}

/// The built dataset's bytes: exclusion count, both vocabularies (tokens and
/// frequencies in id order), every split's examples in order, and the raw
/// per-patient count moments (which pin the merge order of the count
/// vectors).
uint64_t DatasetFingerprint(const data::MortalityDataset& dataset) {
  uint64_t state = HashValue(dataset.excluded_zero_concept(), kFnv1aSeed);
  state = HashVocab(dataset.word_vocab(), state);
  state = HashVocab(dataset.concept_vocab(), state);
  state = HashSplit(dataset.train(), state);
  state = HashSplit(dataset.validation(), state);
  state = HashSplit(dataset.test(), state);
  for (const data::MomentStats& stats :
       {dataset.WordStats(), dataset.ConceptStats()}) {
    state = HashValue(stats.mean, state);
    state = HashValue(stats.stddev, state);
  }
  return state;
}

/// A trained run's bytes: every parameter in registration order, then every
/// curve point's train loss, validation loss and validation AUC.
uint64_t TrainingFingerprint(const models::NeuralDocumentModel& model,
                             const std::vector<eval::CurvePoint>& curve) {
  uint64_t state = kFnv1aSeed;
  for (const ag::NodePtr& param : model.params().all()) {
    const Tensor& value = param->value();
    state = Fnv1a(value.data(), value.size() * sizeof(float), state);
  }
  for (const eval::CurvePoint& point : curve) {
    state = HashValue(point.train_loss, state);
    state = HashValue(point.validation_loss, state);
    state = HashValue(point.validation_auc, state);
  }
  return state;
}

std::string Hex(uint64_t value) {
  char buffer[19];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

// ---------------------------------------------------------------------------
// BatchAssembler: exactly the batches direct slicing would produce.
// ---------------------------------------------------------------------------

std::vector<data::Example> TinyExamples(int count) {
  std::vector<data::Example> examples;
  for (int i = 0; i < count; ++i) {
    data::Example example;
    example.patient_id = 100 + i;
    example.word_ids = {1 + i % 3, 2, 5};
    example.concept_ids = {1, 2 + i % 2};
    example.labels = {i % 2 == 0, i % 3 == 0, true};
    examples.push_back(std::move(example));
  }
  return examples;
}

TEST(BatchAssemblerTest, BatchesMatchDirectSlicing) {
  const std::vector<data::Example> examples = TinyExamples(10);
  core::BatchAssembler::Options options;
  options.batch_size = 4;
  options.chunk_size = 2;
  options.seed = 77;
  options.horizon = synth::Horizon::kWithin30Days;
  const core::BatchAssembler assembler(&examples, options);

  // Two epochs with different orders; a batch is a pure function of
  // (order, epoch, index), so slots can be (re)filled in any sequence.
  std::vector<int> forward(10), reversed(10);
  for (int i = 0; i < 10; ++i) {
    forward[i] = i;
    reversed[i] = 9 - i;
  }
  const std::vector<const std::vector<int>*> orders = {&forward, &reversed};

  core::PreparedBatch batch;
  for (int epoch = 1; epoch <= 2; ++epoch) {
    const std::vector<int>& order = *orders[epoch - 1];
    ASSERT_EQ(assembler.BatchesPerEpoch(order.size()), 3u);
    for (size_t index = 0; index < 3; ++index) {
      // Reuse one slot across every call, as the trainer's double buffer
      // does: AssembleInto must fully overwrite the previous batch.
      assembler.AssembleInto(&batch, &order, epoch, index);
      const size_t begin = index * options.batch_size;
      const size_t end = std::min<size_t>(10, begin + options.batch_size);
      const std::string tag = "epoch=" + std::to_string(epoch) +
                              " batch=" + std::to_string(index);
      EXPECT_EQ(batch.epoch, epoch) << tag;
      EXPECT_EQ(batch.begin, begin) << tag;
      ASSERT_EQ(batch.size, end - begin) << tag;
      EXPECT_EQ(batch.num_chunks, (batch.size + 1) / 2) << tag;
      EXPECT_EQ(batch.inv_batch, 1.0f / static_cast<float>(batch.size))
          << tag;
      ASSERT_EQ(batch.examples.size(), batch.size) << tag;
      ASSERT_EQ(batch.dropout_seeds.size(), batch.size) << tag;
      ASSERT_EQ(batch.labels.size(), batch.size) << tag;
      for (size_t j = 0; j < batch.size; ++j) {
        const data::Example& expected = examples[order[begin + j]];
        EXPECT_EQ(batch.examples[j], &expected) << tag << " slot " << j;
        EXPECT_EQ(batch.dropout_seeds[j],
                  core::MixDropoutSeed(options.seed, epoch, begin + j))
            << tag << " slot " << j;
        EXPECT_EQ(batch.labels[j],
                  expected.Label(options.horizon) ? 1 : 0)
            << tag << " slot " << j;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end goldens on one shared small fixture.
// ---------------------------------------------------------------------------

class TrainingPipelineTest : public ::testing::Test {
 protected:
  TrainingPipelineTest()
      : kb_(kb::KnowledgeBase::BuildDefault()), extractor_(&kb_) {
    synth::CohortConfig config;
    config.num_patients = 120;
    config.seed = 91;
    cohort_ = synth::Cohort::Generate(config, kb_);
    dataset_ = data::MortalityDataset::Build(cohort_, extractor_,
                                             DatasetOptionsForFixture());
  }

  static data::DatasetOptions DatasetOptionsForFixture() {
    data::DatasetOptions options;
    options.max_words = 48;
    options.max_concepts = 24;
    return options;
  }

  models::ModelConfig ModelConfigForDataset() const {
    models::ModelConfig config;
    config.word_vocab_size = dataset_.word_vocab().size();
    config.concept_vocab_size = dataset_.concept_vocab().size();
    config.embedding_dim = 6;
    config.num_filters = 4;
    config.seed = 17;
    return config;
  }

  /// Four gradient chunks per batch: with two, any merge order gives the
  /// same bits (a + b == b + a), so a schedule-dependent merge could pass.
  static core::TrainOptions BaseOptions() {
    core::TrainOptions options;
    options.epochs = 3;
    options.batch_size = 16;
    options.grad_chunk_size = 4;
    options.seed = 13;
    return options;
  }

  /// Trains a fresh `model_name` and returns the run's TrainingFingerprint.
  uint64_t TrainFingerprint(const std::string& model_name,
                            const core::TrainOptions& options) {
    std::unique_ptr<models::NeuralDocumentModel> model =
        core::MakeDeepModel(model_name, ModelConfigForDataset());
    const eval::CurveRecorder recorder = core::Trainer(options).Train(
        model.get(), dataset_.train(), dataset_.validation(),
        synth::Horizon::kInHospital);
    return TrainingFingerprint(*model, recorder.points());
  }

  /// The golden check: the same fingerprint on a 1-, 2- and 4-lane global
  /// executor under both the dispatched and the scalar GEMM.
  void ExpectTrainingGolden(const std::string& model_name, uint64_t golden) {
    PoolSizeGuard pool_guard;
    GemmKernelGuard kernel_guard;
    for (const GemmKernel kernel : {GemmKernel::kAuto, GemmKernel::kScalar}) {
      SetGemmKernel(kernel);
      for (const int threads : {1, 2, 4}) {
        SetGlobalThreadPoolSize(threads);
        EXPECT_EQ(Hex(TrainFingerprint(model_name, BaseOptions())),
                  Hex(golden))
            << model_name << " kernel=" << GemmKernelName(kernel)
            << " threads=" << threads;
      }
    }
  }

  kb::KnowledgeBase kb_;
  kb::ConceptExtractor extractor_;
  synth::Cohort cohort_;
  data::MortalityDataset dataset_;
};

TEST_F(TrainingPipelineTest, DatasetMatchesGoldenAtEveryPoolSize) {
  PoolSizeGuard guard;
  EXPECT_EQ(Hex(DatasetFingerprint(dataset_)), Hex(kDatasetGolden));
  for (const int pool_size : {1, 2, 4}) {
    SetGlobalThreadPoolSize(pool_size);
    const data::MortalityDataset built = data::MortalityDataset::Build(
        cohort_, extractor_, DatasetOptionsForFixture());
    EXPECT_EQ(Hex(DatasetFingerprint(built)), Hex(kDatasetGolden))
        << "pool=" << pool_size;
  }
}

TEST_F(TrainingPipelineTest, BkDdnTrainingMatchesGolden) {
  ExpectTrainingGolden("BK-DDN", kBkDdnGolden);
}

TEST_F(TrainingPipelineTest, AkDdnTrainingMatchesGolden) {
  ExpectTrainingGolden("AK-DDN", kAkDdnGolden);
}

TEST_F(TrainingPipelineTest, TextCnnTrainingMatchesGolden) {
  ExpectTrainingGolden("Text CNN", kTextCnnGolden);
}

TEST_F(TrainingPipelineTest, ResumeMidRunWithPrefetchIsBitwiseExact) {
  PoolSizeGuard guard;
  SetGlobalThreadPoolSize(4);
  core::TrainOptions straight = BaseOptions();
  ASSERT_EQ(Hex(TrainFingerprint("BK-DDN", straight)), Hex(kBkDdnGolden));

  // Interrupted twin: stop after epoch 2, then resume to the full horizon.
  // Batch k+1 is assembled while step k runs, so the stop lands with a
  // batch in flight.
  core::TrainOptions interrupted = straight;
  interrupted.checkpoint_dir = ScratchDir("resume_mid_run");
  interrupted.epochs = 2;
  TrainFingerprint("BK-DDN", interrupted);
  interrupted.epochs = straight.epochs;
  interrupted.resume = true;
  EXPECT_EQ(Hex(TrainFingerprint("BK-DDN", interrupted)), Hex(kBkDdnGolden));
  std::filesystem::remove_all(interrupted.checkpoint_dir);
}

// Cross-kernel equivalence runs on the pipeline fixture under its own suite.
using TrainingEquivalenceTest = TrainingPipelineTest;

/// Cross-kernel resume: a checkpoint written while training under the
/// scalar reference must resume under the dispatched SIMD kernel and land
/// on the golden. A snapshot can migrate between hosts (or builds) with
/// different ISAs and training history never forks.
TEST_F(TrainingEquivalenceTest, ScalarCheckpointResumesBitwiseUnderSimd) {
  GemmKernelGuard guard;
  core::TrainOptions checkpointed = BaseOptions();
  checkpointed.checkpoint_dir = ScratchDir("cross_kernel_resume");

  // Epochs 1-2 under the scalar reference, "crash" at the start of epoch 3.
  SetGemmKernel(GemmKernel::kScalar);
  {
    FaultInjector::ScopedFault kill("core.train.epoch", /*fail_on_hit=*/2);
    EXPECT_THROW(TrainFingerprint("BK-DDN", checkpointed), KddnError);
  }
  ASSERT_TRUE(std::filesystem::exists(
      core::CheckpointPath(checkpointed.checkpoint_dir)));

  // Resume epoch 3 under the SIMD kernel.
  SetGemmKernel(GemmKernel::kAuto);
  checkpointed.resume = true;
  EXPECT_EQ(Hex(TrainFingerprint("BK-DDN", checkpointed)), Hex(kBkDdnGolden));
  std::filesystem::remove_all(checkpointed.checkpoint_dir);
}

/// EvaluateSplit against a two-pass reference computed here through the
/// training graph: pass one takes each example's cross-entropy, pass two its
/// positive-class probability, then the mean and the ROC AUC. BK-DDN covers
/// the frozen-snapshot route, Text CNN the plain graph route.
TEST_F(TrainingPipelineTest, EvaluateSplitMatchesTwoPassStatics) {
  const synth::Horizon horizon = synth::Horizon::kInHospital;
  core::TrainOptions options = BaseOptions();
  options.epochs = 1;
  for (const std::string model_name : {"BK-DDN", "Text CNN"}) {
    std::unique_ptr<models::NeuralDocumentModel> model =
        core::MakeDeepModel(model_name, ModelConfigForDataset());
    core::Trainer(options).Train(model.get(), dataset_.train(),
                                 dataset_.validation(), horizon);
    const std::vector<data::Example>& split = dataset_.test();
    const std::vector<int> labels = core::Trainer::Labels(split, horizon);
    nn::ForwardContext ctx;
    ctx.training = false;
    double total_loss = 0.0;
    for (size_t i = 0; i < split.size(); ++i) {
      total_loss += ag::ScalarValue(ag::SoftmaxCrossEntropy(
          model->Logits(split[i], ctx), labels[i]));
    }
    std::vector<float> scores;
    for (const data::Example& example : split) {
      scores.push_back(model->PredictPositiveProbability(example));
    }
    const core::Trainer::EvalMetrics metrics =
        core::Trainer::EvaluateSplit(model.get(), split, horizon);
    EXPECT_EQ(metrics.mean_loss,
              total_loss / static_cast<double>(split.size()))
        << model_name;
    EXPECT_EQ(metrics.auc, eval::RocAuc(scores, labels)) << model_name;
  }

  // Degenerate splits: the empty split reports {0.0, 0.5}, a one-class
  // split chance-level AUC.
  std::unique_ptr<models::NeuralDocumentModel> model =
      core::MakeDeepModel("BK-DDN", ModelConfigForDataset());
  const core::Trainer::EvalMetrics empty = core::Trainer::EvaluateSplit(
      model.get(), {}, synth::Horizon::kInHospital);
  EXPECT_EQ(empty.mean_loss, 0.0);
  EXPECT_EQ(empty.auc, 0.5);
  std::vector<data::Example> one_class(3, dataset_.test().front());
  for (data::Example& example : one_class) {
    example.labels = {true, true, true};
  }
  const core::Trainer::EvalMetrics degenerate = core::Trainer::EvaluateSplit(
      model.get(), one_class, synth::Horizon::kInHospital);
  EXPECT_EQ(degenerate.auc, 0.5);
  EXPECT_GT(degenerate.mean_loss, 0.0);
}

}  // namespace
}  // namespace kddn
