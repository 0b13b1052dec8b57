#include "data/dataset.h"

#include <set>

#include "common/check.h"
#include "gtest/gtest.h"

namespace kddn::data {
namespace {

class DatasetTest : public ::testing::Test {
 protected:
  DatasetTest()
      : kb_(kb::KnowledgeBase::BuildDefault()), extractor_(&kb_) {
    synth::CohortConfig config;
    config.num_patients = 600;
    config.seed = 11;
    config.concept_free_fraction = 0.05;
    cohort_ = synth::Cohort::Generate(config, kb_);
  }
  kb::KnowledgeBase kb_;
  kb::ConceptExtractor extractor_;
  synth::Cohort cohort_;
};

TEST_F(DatasetTest, SplitProportionsMatchPaper) {
  MortalityDataset dataset = MortalityDataset::Build(cohort_, extractor_);
  const int total = dataset.num_patients();
  EXPECT_EQ(total + dataset.excluded_zero_concept(),
            static_cast<int>(cohort_.patients().size()));
  const double test_fraction =
      static_cast<double>(dataset.test().size()) / total;
  EXPECT_NEAR(test_fraction, 0.3, 0.02);
  const double validation_of_train =
      static_cast<double>(dataset.validation().size()) /
      (dataset.train().size() + dataset.validation().size());
  EXPECT_NEAR(validation_of_train, 0.1, 0.02);
}

TEST_F(DatasetTest, ZeroConceptPatientsAreExcluded) {
  MortalityDataset dataset = MortalityDataset::Build(cohort_, extractor_);
  EXPECT_GT(dataset.excluded_zero_concept(), 0);
  for (const std::vector<Example>* split :
       {&dataset.train(), &dataset.validation(), &dataset.test()}) {
    for (const Example& example : *split) {
      EXPECT_FALSE(example.concept_ids.empty());
      EXPECT_FALSE(example.word_ids.empty());
    }
  }
}

TEST_F(DatasetTest, SplitsArePatientDisjoint) {
  MortalityDataset dataset = MortalityDataset::Build(cohort_, extractor_);
  std::set<int> seen;
  for (const std::vector<Example>* split :
       {&dataset.train(), &dataset.validation(), &dataset.test()}) {
    for (const Example& example : *split) {
      EXPECT_TRUE(seen.insert(example.patient_id).second)
          << "patient " << example.patient_id << " in two splits";
    }
  }
}

TEST_F(DatasetTest, TruncationRespectsLimits) {
  DatasetOptions options;
  options.max_words = 32;
  options.max_concepts = 8;
  MortalityDataset dataset =
      MortalityDataset::Build(cohort_, extractor_, options);
  for (const Example& example : dataset.train()) {
    EXPECT_LE(example.word_ids.size(), 32u);
    EXPECT_LE(example.concept_ids.size(), 8u);
  }
}

TEST_F(DatasetTest, LabelsAreNested) {
  MortalityDataset dataset = MortalityDataset::Build(cohort_, extractor_);
  for (const Example& example : dataset.train()) {
    if (example.Label(synth::Horizon::kInHospital)) {
      EXPECT_TRUE(example.Label(synth::Horizon::kWithin30Days));
      EXPECT_TRUE(example.Label(synth::Horizon::kWithinYear));
    }
    if (example.Label(synth::Horizon::kWithin30Days)) {
      EXPECT_TRUE(example.Label(synth::Horizon::kWithinYear));
    }
  }
  EXPECT_GT(dataset.CountPositive(synth::Horizon::kWithinYear),
            dataset.CountPositive(synth::Horizon::kInHospital));
}

TEST_F(DatasetTest, VocabulariesAreReasonable) {
  MortalityDataset dataset = MortalityDataset::Build(cohort_, extractor_);
  // Stop words must not survive preprocessing.
  EXPECT_FALSE(dataset.word_vocab().Contains("the"));
  EXPECT_FALSE(dataset.word_vocab().Contains("is"));
  // Clinical vocabulary and concept CUIs must.
  EXPECT_TRUE(dataset.word_vocab().Contains("effusion") ||
              dataset.word_vocab().Contains("pneumonia"));
  EXPECT_GT(dataset.concept_vocab().size(), 20);
  EXPECT_LT(dataset.concept_vocab().size(), 200);
}

TEST_F(DatasetTest, DocumentStatisticsShapeMatchesTables) {
  MortalityDataset dataset = MortalityDataset::Build(cohort_, extractor_);
  const MomentStats words = dataset.WordStats();
  const MomentStats concepts = dataset.ConceptStats();
  // Tables III/IV shape: words per patient >> concepts per patient, and both
  // have nontrivial spread.
  EXPECT_GT(words.mean, concepts.mean * 1.5);
  EXPECT_GT(words.stddev, 0.0);
  EXPECT_GT(concepts.stddev, 0.0);
  EXPECT_GT(concepts.mean, 5.0);
}

TEST_F(DatasetTest, SplitSeedChangesAssignmentNotSize) {
  DatasetOptions a, b;
  a.split_seed = 1;
  b.split_seed = 2;
  MortalityDataset da = MortalityDataset::Build(cohort_, extractor_, a);
  MortalityDataset db = MortalityDataset::Build(cohort_, extractor_, b);
  EXPECT_EQ(da.test().size(), db.test().size());
  std::set<int> ta, tb;
  for (const Example& e : da.test()) ta.insert(e.patient_id);
  for (const Example& e : db.test()) tb.insert(e.patient_id);
  EXPECT_NE(ta, tb);
}

TEST_F(DatasetTest, InvalidOptionsRejected) {
  DatasetOptions bad;
  bad.test_fraction = 0.0;
  EXPECT_THROW(MortalityDataset::Build(cohort_, extractor_, bad), KddnError);
  bad = DatasetOptions();
  bad.max_words = 0;
  EXPECT_THROW(MortalityDataset::Build(cohort_, extractor_, bad), KddnError);
  // An empty cohort leaves no patient to keep.
  EXPECT_THROW(MortalityDataset::Build(synth::Cohort(), extractor_),
               KddnError);
}

TEST(MomentsTest, KnownValues) {
  const MomentStats stats = ComputeMoments({2, 4, 4, 4, 5, 5, 7, 9});
  EXPECT_NEAR(stats.mean, 5.0, 1e-9);
  EXPECT_NEAR(stats.stddev, 2.0, 1e-9);
  const MomentStats empty = ComputeMoments({});
  EXPECT_EQ(empty.mean, 0.0);
}

}  // namespace
}  // namespace kddn::data
