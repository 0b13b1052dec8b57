// Ablation benches for the design choices DESIGN.md calls out (beyond the
// paper's tables): AK-DDN residual embeddings, convolution filter-width sets,
// the extractor's semantic-type filter, and the co-attention block itself
// (AK-DDN vs BK-DDN on identical budgets). Run on NURSING, 30-day horizon.
#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "core/experiment.h"
#include "models/ak_ddn.h"
#include "models/bk_ddn.h"
#include "models/text_cnn.h"

namespace {

using namespace kddn;

double TrainAndScore(models::NeuralDocumentModel* model,
                     const data::MortalityDataset& dataset) {
  core::TrainOptions options;
  options.epochs = 6;
  options.batch_size = 32;
  options.learning_rate = 0.1f;  // Matches the Table V/VI bench settings.
  options.seed = 606;
  core::Trainer trainer(options);
  trainer.Train(model, dataset.train(), dataset.validation(),
                synth::Horizon::kWithin30Days);
  return core::Trainer::EvaluateSplit(model, dataset.test(),
                                      synth::Horizon::kWithin30Days)
      .auc;
}

models::ModelConfig BaseConfig(const data::MortalityDataset& dataset) {
  models::ModelConfig config;
  config.word_vocab_size = dataset.word_vocab().size();
  config.concept_vocab_size = dataset.concept_vocab().size();
  config.embedding_dim = 20;
  config.num_filters = 50;
  config.seed = 707;
  return config;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Ablations — K-DDN design choices (NURSING, 30-day horizon)",
      "not in the paper; quantifies DESIGN.md's design-choice claims");

  bench::BenchSetup setup = bench::MakeNursingSetup(1200, /*seed=*/321);
  const data::MortalityDataset& dataset = setup.dataset;

  std::printf("\n[1] Co-attention (the paper's central claim)\n");
  {
    models::BkDdn bk(BaseConfig(dataset));
    models::ModelConfig ak_config = BaseConfig(dataset);
    ak_config.akddn_residual = true;  // The library default.
    models::AkDdn ak(ak_config);
    const double bk_auc = TrainAndScore(&bk, dataset);
    const double ak_auc = TrainAndScore(&ak, dataset);
    std::printf("  BK-DDN (no interaction) AUC: %.3f\n", bk_auc);
    std::printf("  AK-DDN (co-attention)   AUC: %.3f  (delta %+.3f)\n",
                ak_auc, ak_auc - bk_auc);
  }

  std::printf("\n[2] AK-DDN residual raw embeddings\n");
  {
    models::ModelConfig plain_config = BaseConfig(dataset);
    plain_config.akddn_residual = false;  // Interactions only (paper's Fig 5
                                          // read literally).
    models::ModelConfig residual = BaseConfig(dataset);
    residual.akddn_residual = true;
    models::AkDdn plain(plain_config);
    models::AkDdn with_residual(residual);
    const double plain_auc = TrainAndScore(&plain, dataset);
    const double residual_auc = TrainAndScore(&with_residual, dataset);
    std::printf("  interactions only (paper) AUC: %.3f\n", plain_auc);
    std::printf("  interactions + residual   AUC: %.3f  (delta %+.3f)\n",
                residual_auc, residual_auc - plain_auc);
  }

  std::printf("\n[3] Convolution filter-width set (paper uses {1,2,3})\n");
  {
    const std::vector<std::vector<int>> width_sets = {{1}, {1, 2}, {1, 2, 3}};
    for (const auto& widths : width_sets) {
      models::ModelConfig config = BaseConfig(dataset);
      config.filter_widths = widths;
      models::AkDdn model(config);
      std::string label = "{";
      for (size_t i = 0; i < widths.size(); ++i) {
        label += (i ? "," : "") + std::to_string(widths[i]);
      }
      label += "}";
      std::printf("  widths %-8s AUC: %.3f\n", label.c_str(),
                  TrainAndScore(&model, dataset));
    }
  }

  std::printf("\n[4] Semantic-type filtering in concept extraction\n");
  {
    // The filter lives on Extract(); compare mention volume with and
    // without it over the whole cohort.
    kb::ConceptExtractor extractor(setup.kb.get());
    kb::ExtractionOptions no_filter;
    no_filter.filter_general = false;
    int64_t filtered_concepts = 0, unfiltered_concepts = 0;
    for (const synth::SyntheticPatient& patient : setup.cohort.patients()) {
      filtered_concepts +=
          static_cast<int64_t>(extractor.Extract(patient.text).size());
      unfiltered_concepts += static_cast<int64_t>(
          extractor.Extract(patient.text, no_filter).size());
    }
    std::printf("  concepts kept with filter   : %ld\n",
                static_cast<long>(filtered_concepts));
    std::printf("  concepts without filter     : %ld\n",
                static_cast<long>(unfiltered_concepts));
    std::printf("  general-meaning mentions cut: %.1f%%\n",
                100.0 * (unfiltered_concepts - filtered_concepts) /
                    static_cast<double>(unfiltered_concepts));
  }

  std::printf("\n[5] NegEx-lite negation filtering (extension beyond the "
              "paper)\n");
  {
    // MetaMap (and thus the paper) keeps negated concepts; filtering them is
    // a natural extension. Compare Concept CNN with and without the filter.
    data::DatasetOptions with_filter;
    with_filter.max_words = 160;
    with_filter.max_concepts = 64;
    with_filter.extraction.detect_negation = true;
    with_filter.extraction.filter_negated = true;
    kb::ConceptExtractor extractor(setup.kb.get());
    data::MortalityDataset filtered =
        data::MortalityDataset::Build(setup.cohort, extractor, with_filter);

    models::ModelConfig keep_config = BaseConfig(dataset);
    models::ConceptCnn keep_negated(keep_config);
    const double keep_auc = TrainAndScore(&keep_negated, dataset);

    models::ModelConfig drop_config = BaseConfig(filtered);
    models::ConceptCnn drop_negated(drop_config);
    core::TrainOptions options;
    options.epochs = 5;
    options.batch_size = 32;
    options.seed = 606;
    core::Trainer trainer(options);
    trainer.Train(&drop_negated, filtered.train(), filtered.validation(),
                  synth::Horizon::kWithin30Days);
    const double drop_auc =
        core::Trainer::EvaluateSplit(&drop_negated, filtered.test(),
                                     synth::Horizon::kWithin30Days)
            .auc;
    std::printf("  Concept CNN, negated concepts kept (MetaMap/paper): %.3f\n",
                keep_auc);
    std::printf("  Concept CNN, negated concepts dropped (NegEx-lite): %.3f  "
                "(delta %+.3f)\n",
                drop_auc, drop_auc - keep_auc);
  }

  std::printf("\n[6] Embedding width (paper: 20 on NURSING, 100 on RAD)\n");
  {
    for (int dim : {8, 20, 40}) {
      models::ModelConfig config = BaseConfig(dataset);
      config.embedding_dim = dim;
      models::AkDdn model(config);
      std::printf("  dim %-3d AUC: %.3f\n", dim, TrainAndScore(&model, dataset));
    }
  }
  return 0;
}
