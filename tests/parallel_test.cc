// Training and evaluation at several executor sizes: the load-bearing
// guarantee that training is bitwise reproducible at any thread count thanks
// to the chunk-ordered gradient reduction in core::Trainer. (The executor's
// own scheduling contract is tested in jobs_test.cc.)
#include "common/thread_pool.h"

#include <cstring>
#include <vector>

#include "core/trainer.h"
#include "gtest/gtest.h"
#include "kb/concept_extractor.h"
#include "kb/knowledge_base.h"
#include "models/bk_ddn.h"
#include "synth/cohort.h"

namespace kddn {
namespace {

/// Restores the process-wide executor size on scope exit.
struct PoolSizeGuard {
  int previous = GlobalThreadPoolSize();
  ~PoolSizeGuard() { SetGlobalThreadPoolSize(previous); }
};

/// End-to-end determinism fixture: a small synthetic cohort, BK-DDN trained
/// for 2 epochs at several thread counts, compared bitwise.
class TrainingDeterminismTest : public ::testing::Test {
 protected:
  TrainingDeterminismTest()
      : kb_(kb::KnowledgeBase::BuildDefault()), extractor_(&kb_) {
    synth::CohortConfig config;
    config.num_patients = 150;
    config.seed = 33;
    cohort_ = synth::Cohort::Generate(config, kb_);
    data::DatasetOptions options;
    options.max_words = 64;
    options.max_concepts = 32;
    dataset_ = data::MortalityDataset::Build(cohort_, extractor_, options);
  }

  models::ModelConfig SmallModelConfig() const {
    models::ModelConfig config;
    config.word_vocab_size = dataset_.word_vocab().size();
    config.concept_vocab_size = dataset_.concept_vocab().size();
    config.embedding_dim = 6;
    config.num_filters = 4;
    config.seed = 11;
    return config;
  }

  /// Trains a fresh BK-DDN on a `num_threads`-lane global executor and
  /// returns (params, auc).
  std::pair<std::vector<Tensor>, double> TrainOnce(int num_threads) {
    SetGlobalThreadPoolSize(num_threads);
    models::BkDdn model(SmallModelConfig());
    core::TrainOptions options;
    options.epochs = 2;
    options.batch_size = 16;
    options.seed = 7;
    core::Trainer trainer(options);
    trainer.Train(&model, dataset_.train(), dataset_.validation(),
                  synth::Horizon::kInHospital);
    std::vector<Tensor> params;
    for (const ag::NodePtr& param : model.params().all()) {
      params.push_back(param->value());
    }
    const double auc = core::Trainer::EvaluateSplit(
                           &model, dataset_.test(), synth::Horizon::kInHospital)
                           .auc;
    return {std::move(params), auc};
  }

  kb::KnowledgeBase kb_;
  kb::ConceptExtractor extractor_;
  synth::Cohort cohort_;
  data::MortalityDataset dataset_;
};

TEST_F(TrainingDeterminismTest, BitwiseIdenticalParamsAtAnyThreadCount) {
  PoolSizeGuard guard;
  const auto [base_params, base_auc] = TrainOnce(1);
  ASSERT_FALSE(base_params.empty());
  for (int threads : {2, 4}) {
    const auto [params, auc] = TrainOnce(threads);
    ASSERT_EQ(params.size(), base_params.size()) << threads;
    for (size_t i = 0; i < params.size(); ++i) {
      ASSERT_TRUE(params[i].SameShape(base_params[i])) << threads;
      // Bitwise comparison: memcmp over the raw float storage, so even
      // sign-of-zero or last-ulp drift fails loudly.
      EXPECT_EQ(std::memcmp(params[i].data(), base_params[i].data(),
                            params[i].size() * sizeof(float)),
                0)
          << "param " << i << " differs at " << threads << " threads";
    }
    EXPECT_EQ(auc, base_auc) << threads;
  }
}

TEST_F(TrainingDeterminismTest, ScoresIdenticalAcrossGlobalPoolSizes) {
  PoolSizeGuard guard;
  models::BkDdn model(SmallModelConfig());
  SetGlobalThreadPoolSize(1);
  const core::Trainer::EvalMetrics serial = core::Trainer::EvaluateSplit(
      &model, dataset_.test(), synth::Horizon::kInHospital);
  for (int threads : {2, 4}) {
    SetGlobalThreadPoolSize(threads);
    const core::Trainer::EvalMetrics parallel = core::Trainer::EvaluateSplit(
        &model, dataset_.test(), synth::Horizon::kInHospital);
    EXPECT_EQ(parallel.mean_loss, serial.mean_loss) << threads;
    EXPECT_EQ(parallel.auc, serial.auc) << threads;
  }
}

}  // namespace
}  // namespace kddn
