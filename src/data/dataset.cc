#include "data/dataset.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/job_executor.h"
#include "common/job_graph.h"
#include "common/rng.h"
#include "common/trace.h"
#include "text/lemmatizer.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"

namespace kddn::data {
namespace {

/// Word-side preprocessing (paper §VII-B1): tokenize, lemmatize, drop stop
/// words.
std::vector<std::string> PreprocessWords(const std::string& raw,
                                         const text::Lemmatizer& lemmatizer,
                                         const text::StopwordList& stopwords) {
  return stopwords.Filter(lemmatizer.LemmatizeAll(text::TokenizeWords(raw)));
}

template <typename T>
std::vector<T> Truncate(std::vector<T> items, int limit) {
  if (static_cast<int>(items.size()) > limit) {
    items.resize(limit);
  }
  return items;
}

}  // namespace

MomentStats ComputeMoments(const std::vector<int>& counts) {
  MomentStats stats;
  if (counts.empty()) {
    return stats;
  }
  double total = 0.0;
  for (int c : counts) {
    total += c;
  }
  stats.mean = total / static_cast<double>(counts.size());
  double variance = 0.0;
  for (int c : counts) {
    const double d = c - stats.mean;
    variance += d * d;
  }
  stats.stddev = std::sqrt(variance / static_cast<double>(counts.size()));
  return stats;
}

MortalityDataset MortalityDataset::Build(const synth::Cohort& cohort,
                                         const kb::ConceptExtractor& extractor,
                                         const DatasetOptions& options) {
  KDDN_TRACE_SPAN("dataset.build");
  KDDN_CHECK(options.test_fraction > 0.0 && options.test_fraction < 1.0);
  KDDN_CHECK(options.validation_fraction >= 0.0 &&
             options.validation_fraction < 1.0);
  KDDN_CHECK_GT(options.max_words, 0);
  KDDN_CHECK_GT(options.max_concepts, 0);

  text::Lemmatizer lemmatizer;
  text::StopwordList stopwords;

  MortalityDataset dataset;

  // Per-patient token/concept sequences, zero-concept patients dropped.
  struct Prepared {
    int patient_id;
    std::vector<std::string> words;
    std::vector<std::string> cuis;
    std::array<bool, 3> labels;
  };

  // Per-patient preprocessing is a pure function of the patient's text (the
  // lemmatizer, stopword list, and extractor are immutable once built), so
  // one prepare-range job per executor lane fills disjoint slots and a single
  // dataset.merge job (DESIGN.md §14) folds them in patient order. The merge
  // starts the moment the last range lands, and its fixed order is what
  // keeps the built dataset byte-identical at every thread count.
  const std::vector<synth::SyntheticPatient>& patients = cohort.patients();
  std::vector<Prepared> slots(patients.size());
  auto prepare_one = [&](int64_t i) {
    KDDN_TRACE_SPAN("dataset.prepare");
    const synth::SyntheticPatient& patient = patients[i];
    Prepared& p = slots[i];
    p.patient_id = patient.id;
    p.words = PreprocessWords(patient.text, lemmatizer, stopwords);
    p.cuis = extractor.ExtractCuiSequence(patient.text, options.extraction);
    for (synth::Horizon horizon : synth::kAllHorizons) {
      p.labels[static_cast<int>(horizon)] =
          synth::IsPositive(patient.outcome, horizon);
    }
  };
  // Ordered merge, in original patient order: exclusions, the raw count
  // vectors, and the retained list grow in patient sequence.
  std::vector<Prepared> prepared;
  auto merge_prepared = [&] {
    prepared.reserve(slots.size());
    for (Prepared& p : slots) {
      if (p.cuis.empty()) {
        ++dataset.excluded_zero_concept_;
        continue;  // Paper §VII-B2: drop zero-concept patients.
      }
      dataset.raw_word_counts_.push_back(static_cast<int>(p.words.size()));
      dataset.raw_concept_counts_.push_back(static_cast<int>(p.cuis.size()));
      prepared.push_back(std::move(p));
    }
  };
  jobs::JobExecutor& executor = jobs::GlobalExecutor();
  const int64_t n = static_cast<int64_t>(patients.size());
  const int64_t ranges =
      std::max<int64_t>(1, std::min<int64_t>(executor.num_lanes(), n));
  const int64_t range_len = (n + ranges - 1) / ranges;
  jobs::JobGraph graph;
  const jobs::JobId merge = graph.AddJob("dataset.merge", merge_prepared);
  for (int64_t r = 0; r < ranges; ++r) {
    const int64_t begin = r * range_len;
    const int64_t end = std::min(n, begin + range_len);
    const jobs::JobId prepare =
        graph.AddJob("dataset.prepare_range", [&, begin, end] {
          for (int64_t i = begin; i < end; ++i) {
            prepare_one(i);
          }
        });
    graph.AddEdge(prepare, merge);
  }
  graph.Finalize();
  executor.Run(&graph);
  KDDN_CHECK(!prepared.empty()) << "every patient was excluded";

  // Random 7:3 split, then 10% of train as validation (paper §VII-C).
  std::vector<int> order(prepared.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<int>(i);
  }
  Rng rng(options.split_seed);
  rng.Shuffle(&order);
  const int num_test =
      static_cast<int>(std::lround(options.test_fraction * order.size()));
  const int num_train_total = static_cast<int>(order.size()) - num_test;
  const int num_validation = static_cast<int>(
      std::lround(options.validation_fraction * num_train_total));
  KDDN_CHECK_GT(num_train_total - num_validation, 0)
      << "no training patients left after splits";

  std::vector<int> train_idx, validation_idx, test_idx;
  for (int i = 0; i < static_cast<int>(order.size()); ++i) {
    if (i < num_test) {
      test_idx.push_back(order[i]);
    } else if (i < num_test + num_validation) {
      validation_idx.push_back(order[i]);
    } else {
      train_idx.push_back(order[i]);
    }
  }

  // Vocabularies are fit on the training split only so test-set surface
  // forms never leak into the embedding tables.
  std::vector<std::vector<std::string>> train_words, train_cuis;
  for (int i : train_idx) {
    train_words.push_back(prepared[i].words);
    train_cuis.push_back(prepared[i].cuis);
  }
  dataset.word_vocab_ =
      text::Vocabulary::Build(train_words, options.min_word_count);
  dataset.concept_vocab_ = text::Vocabulary::Build(train_cuis, 1);

  auto encode = [&](const Prepared& p) {
    KDDN_TRACE_SPAN("dataset.encode");
    Example example;
    example.patient_id = p.patient_id;
    example.word_ids =
        Truncate(dataset.word_vocab_.Encode(p.words), options.max_words);
    example.concept_ids = Truncate(dataset.concept_vocab_.Encode(p.cuis),
                                   options.max_concepts);
    example.labels = p.labels;
    return example;
  };
  for (int i : train_idx) {
    dataset.train_.push_back(encode(prepared[i]));
  }
  for (int i : validation_idx) {
    dataset.validation_.push_back(encode(prepared[i]));
  }
  for (int i : test_idx) {
    dataset.test_.push_back(encode(prepared[i]));
  }
  return dataset;
}

int MortalityDataset::CountPositive(synth::Horizon horizon) const {
  int count = 0;
  for (const std::vector<Example>* split : {&train_, &validation_, &test_}) {
    for (const Example& example : *split) {
      count += example.Label(horizon) ? 1 : 0;
    }
  }
  return count;
}

}  // namespace kddn::data
