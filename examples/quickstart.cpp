// Quickstart: the whole K-DDN pipeline in ~60 lines.
//
//   synthetic ICU cohort -> MetaMap-lite concept extraction -> dataset
//   -> train AK-DDN -> test AUC -> score one patient.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "core/experiment.h"
#include "core/trainer.h"
#include "kb/concept_extractor.h"
#include "models/ak_ddn.h"

int main() {
  using namespace kddn;

  // 1. A knowledge base and a MetaMap-style extractor over it.
  kb::KnowledgeBase knowledge = kb::KnowledgeBase::BuildDefault();
  kb::ConceptExtractor extractor(&knowledge);

  // 2. A synthetic nursing-note cohort (stands in for MIMIC-III NURSING).
  synth::CohortConfig cohort_config;
  cohort_config.kind = synth::CorpusKind::kNursing;
  cohort_config.num_patients = 800;
  cohort_config.seed = 7;
  synth::Cohort cohort = synth::Cohort::Generate(cohort_config, knowledge);
  std::printf("cohort: %zu patients (%d minors excluded)\n",
              cohort.patients().size(), cohort.stats().excluded_minors);

  // 3. Preprocess into word/concept id sequences with a 7:3 split.
  data::MortalityDataset dataset =
      data::MortalityDataset::Build(cohort, extractor);
  std::printf("dataset: train=%zu val=%zu test=%zu (zero-concept dropped=%d)\n",
              dataset.train().size(), dataset.validation().size(),
              dataset.test().size(), dataset.excluded_zero_concept());

  // 4. Train the paper's best model, AK-DDN, for 30-day mortality.
  models::ModelConfig model_config;
  model_config.word_vocab_size = dataset.word_vocab().size();
  model_config.concept_vocab_size = dataset.concept_vocab().size();
  model_config.embedding_dim = 16;
  model_config.num_filters = 32;
  models::AkDdn model(model_config);

  core::TrainOptions train_options;
  train_options.epochs = 5;
  train_options.batch_size = 32;
  train_options.verbose = true;
  core::Trainer trainer(train_options);
  trainer.Train(&model, dataset.train(), dataset.validation(),
                synth::Horizon::kWithin30Days);

  // 5. Evaluate with the paper's metric.
  const double auc = core::Trainer::EvaluateSplit(
                         &model, dataset.test(), synth::Horizon::kWithin30Days)
                         .auc;
  std::printf("\ntest AUC (30-day mortality): %.3f\n", auc);

  // 6. Score an individual patient.
  const data::Example& patient = dataset.test().front();
  std::printf("patient %d: predicted death risk %.1f%%, true label %s\n",
              patient.patient_id,
              100.0f * model.PredictPositiveProbability(patient),
              patient.Label(synth::Horizon::kWithin30Days) ? "died"
                                                           : "survived");
  return 0;
}
