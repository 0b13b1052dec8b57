// Parameterized property suites: invariants swept over grids of shapes,
// sizes, and the whole knowledge base, using TEST_P /
// INSTANTIATE_TEST_SUITE_P.
#include <cmath>
#include <string>
#include <tuple>

#include "autograd/ops.h"
#include "common/rng.h"
#include "eval/metrics.h"
#include "gtest/gtest.h"
#include "kb/concept_extractor.h"
#include "nn/layers.h"
#include "tensor/tensor_ops.h"
#include "testing/grad_check.h"
#include "text/lemmatizer.h"
#include "viz/tsne.h"

namespace kddn {
namespace {

/// Central-difference settings for the gradient checks below: step 1e-3,
/// relative tolerance 2e-2 over a scale floor of 1.
constexpr testing::GradCheckOptions kFiniteDifference{
    .epsilon = 1e-3f, .rel_tolerance = 2e-2f, .denom_floor = 1.0f};

// ---------------------------------------------------------------------------
// MatMul family: (A B)ᵀ == Bᵀ Aᵀ and the fused variants agree with the
// explicit-transpose forms, over a grid of shapes.
// ---------------------------------------------------------------------------
class MatMulPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatMulPropertyTest, FusedVariantsMatchExplicitTranspose) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<uint64_t>(m * 10007 + k * 101 + n));
  Tensor a = RandomNormal({m, k}, 0, 1, &rng);
  Tensor b = RandomNormal({k, n}, 0, 1, &rng);
  Tensor ab = MatMul(a, b);
  EXPECT_LT(MaxAbsDiff(Transpose(ab), MatMul(Transpose(b), Transpose(a))),
            1e-4f);
  EXPECT_LT(MaxAbsDiff(MatMulAtB(Transpose(a), b), ab), 1e-4f);
  EXPECT_LT(MaxAbsDiff(MatMulABt(a, Transpose(b)), ab), 1e-4f);
}

TEST_P(MatMulPropertyTest, GradientsCheckNumerically) {
  const auto [m, k, n] = GetParam();
  if (m * k * n > 200) {
    GTEST_SKIP() << "finite differences only on the small shapes";
  }
  Rng rng(3);
  ag::NodePtr a =
      ag::Node::Leaf(RandomNormal({m, k}, 0, 1, &rng), true, "a");
  ag::NodePtr b =
      ag::Node::Leaf(RandomNormal({k, n}, 0, 1, &rng), true, "b");
  testing::ExpectGradCheck(
      [&] {
        ag::NodePtr p = ag::MatMul(a, b);
        return ag::MeanAll(ag::Mul(p, p));
      },
      {a, b}, kFiniteDifference);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatMulPropertyTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(5, 1, 7), std::make_tuple(4, 8, 2),
                      std::make_tuple(16, 16, 16),
                      std::make_tuple(31, 7, 13)));

// ---------------------------------------------------------------------------
// Conv1dBank: output size and gradient flow over (widths, filters, tokens),
// including inputs shorter than the largest filter.
// ---------------------------------------------------------------------------
class ConvBankPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ConvBankPropertyTest, OutputShapeAndFiniteness) {
  const auto [num_widths, filters, tokens] = GetParam();
  std::vector<int> widths;
  for (int w = 1; w <= num_widths; ++w) {
    widths.push_back(w);
  }
  Rng rng(11);
  nn::ParameterSet params;
  nn::Conv1dBank bank(&params, "conv", 6, filters, widths, &rng);
  EXPECT_EQ(bank.output_dim(), filters * num_widths);
  ag::NodePtr x =
      ag::Node::Leaf(RandomNormal({tokens, 6}, 0, 1, &rng), true, "x");
  ag::NodePtr out = bank.Forward(x);
  ASSERT_EQ(out->value().rank(), 1);
  ASSERT_EQ(out->value().dim(0), bank.output_dim());
  for (int i = 0; i < out->value().dim(0); ++i) {
    EXPECT_FALSE(std::isnan(out->value().at(i)));
  }
  // Gradient reaches the input through ReLU + max-pool whenever any pooled
  // activation survived the ReLU (with one random filter, all activations
  // can legitimately be dead).
  ag::Backward(ag::SumAll(out));
  if (MaxValue(out->value()) > 0.0f) {
    EXPECT_GT(SquaredNorm(x->grad()) + SquaredNorm(params.all()[0]->grad()),
              0.0f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConvBankPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3),   // Width sets {1}..{1,2,3}
                       ::testing::Values(1, 4),      // Filters.
                       ::testing::Values(1, 2, 5, 40)));  // Tokens.

// ---------------------------------------------------------------------------
// ATTI: rows of the attention map are distributions and the output lies in
// the convex hull of the key rows (coordinate-wise bounds), for any shapes.
// ---------------------------------------------------------------------------
class AttiPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(AttiPropertyTest, OutputsAreConvexCombinations) {
  const auto [queries, keys] = GetParam();
  Rng rng(13);
  ag::NodePtr q =
      ag::Node::Leaf(RandomNormal({queries, 5}, 0, 2, &rng), false, "q");
  ag::NodePtr kv =
      ag::Node::Leaf(RandomNormal({keys, 5}, 0, 2, &rng), false, "kv");
  nn::AttiResult atti = nn::Atti(q, kv);
  for (int i = 0; i < queries; ++i) {
    float row_sum = 0.0f;
    for (int j = 0; j < keys; ++j) {
      const float w = atti.weights->value().at(i, j);
      EXPECT_GE(w, 0.0f);
      row_sum += w;
    }
    EXPECT_NEAR(row_sum, 1.0f, 1e-4f);
  }
  for (int dim = 0; dim < 5; ++dim) {
    float lo = kv->value().at(0, dim), hi = lo;
    for (int j = 1; j < keys; ++j) {
      lo = std::min(lo, kv->value().at(j, dim));
      hi = std::max(hi, kv->value().at(j, dim));
    }
    for (int i = 0; i < queries; ++i) {
      EXPECT_GE(atti.output->value().at(i, dim), lo - 1e-4f);
      EXPECT_LE(atti.output->value().at(i, dim), hi + 1e-4f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, AttiPropertyTest,
                         ::testing::Combine(::testing::Values(1, 3, 17),
                                            ::testing::Values(1, 2, 9)));

// ---------------------------------------------------------------------------
// ROC AUC properties over (size, prevalence): perfect separation gives 1,
// label inversion gives 1-AUC, adding a constant changes nothing.
// ---------------------------------------------------------------------------
class AucPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(AucPropertyTest, SeparationInversionAndShiftInvariance) {
  const auto [n, prevalence] = GetParam();
  Rng rng(static_cast<uint64_t>(n * 31 + prevalence * 1000));
  std::vector<float> scores;
  std::vector<int> labels;
  int positives = 0;
  for (int i = 0; i < n; ++i) {
    const int label = rng.Bernoulli(prevalence) ? 1 : 0;
    positives += label;
    labels.push_back(label);
    scores.push_back(static_cast<float>(rng.Normal(label * 2.0, 1.0)));
  }
  if (positives == 0 || positives == n) {
    GTEST_SKIP() << "single-class draw";
  }
  const double auc = eval::RocAuc(scores, labels);
  EXPECT_GT(auc, 0.5);

  // Perfectly separated version.
  std::vector<float> perfect;
  for (int label : labels) {
    perfect.push_back(label == 1 ? 1.0f : 0.0f);
  }
  EXPECT_DOUBLE_EQ(eval::RocAuc(perfect, labels), 1.0);

  // Inverting labels flips the AUC.
  std::vector<int> inverted;
  for (int label : labels) {
    inverted.push_back(1 - label);
  }
  EXPECT_NEAR(eval::RocAuc(scores, inverted), 1.0 - auc, 1e-9);

  // Shifting scores is a monotone transform.
  std::vector<float> shifted;
  for (float s : scores) {
    shifted.push_back(s + 100.0f);
  }
  EXPECT_NEAR(eval::RocAuc(shifted, labels), auc, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Grid, AucPropertyTest,
                         ::testing::Combine(::testing::Values(10, 100, 1000),
                                            ::testing::Values(0.1, 0.3,
                                                              0.5)));

// The O(n²) definition RocAuc must reproduce: over all (positive, negative)
// pairs, count 1 for positive > negative and 1/2 for a tie.
double PairwiseAuc(const std::vector<float>& scores,
                   const std::vector<int>& labels) {
  double wins = 0.0;
  int64_t pairs = 0;
  for (size_t p = 0; p < labels.size(); ++p) {
    if (labels[p] != 1) {
      continue;
    }
    for (size_t n = 0; n < labels.size(); ++n) {
      if (labels[n] != 0) {
        continue;
      }
      ++pairs;
      if (scores[p] > scores[n]) {
        wins += 1.0;
      } else if (scores[p] == scores[n]) {
        wins += 0.5;
      }
    }
  }
  return pairs > 0 ? wins / static_cast<double>(pairs) : 0.5;
}

TEST_P(AucPropertyTest, MatchesPairwiseDefinitionWithHeavyTies) {
  const auto [n, prevalence] = GetParam();
  Rng rng(static_cast<uint64_t>(n * 131 + prevalence * 7919));
  std::vector<float> scores;
  std::vector<int> labels;
  for (int i = 0; i < n; ++i) {
    labels.push_back(rng.Bernoulli(prevalence) ? 1 : 0);
    // Quantized scores force many exact ties across and within classes, the
    // regime where midrank handling matters.
    const double raw = rng.Normal(labels.back() * 1.0, 1.0);
    scores.push_back(static_cast<float>(std::round(raw * 2.0) / 2.0));
  }
  const double pairwise = PairwiseAuc(scores, labels);
  EXPECT_NEAR(eval::RocAuc(scores, labels), pairwise, 1e-9)
      << "midrank AUC diverged from the pairwise definition";
}

TEST(AucDegenerateTest, SingleClassReturnsChance) {
  // No (positive, negative) pair exists, so the pairwise definition is
  // vacuous; RocAuc documents 0.5 (chance) for this case, matching
  // core::Trainer::EvaluateSplit on one-class splits.
  EXPECT_DOUBLE_EQ(eval::RocAuc({0.2f, 0.9f, 0.4f}, {1, 1, 1}), 0.5);
  EXPECT_DOUBLE_EQ(eval::RocAuc({0.2f, 0.9f, 0.4f}, {0, 0, 0}), 0.5);
  EXPECT_DOUBLE_EQ(eval::RocAuc({0.7f}, {0}), 0.5);
}

TEST(AucDegenerateTest, AllTiedScoresAreChance) {
  EXPECT_DOUBLE_EQ(eval::RocAuc({0.5f, 0.5f, 0.5f, 0.5f}, {1, 0, 1, 0}), 0.5);
}

// ---------------------------------------------------------------------------
// Knowledge-base coverage: every concept's preferred name, embedded in a
// sentence, is recovered by the extractor with the right CUI and maximal
// confidence, and every alias maps to the same CUI.
// ---------------------------------------------------------------------------
class KbCoverageTest : public ::testing::TestWithParam<int> {
 protected:
  static const kb::KnowledgeBase& Kb() {
    static const kb::KnowledgeBase* kb =
        new kb::KnowledgeBase(kb::KnowledgeBase::BuildDefault());
    return *kb;
  }
  static const kb::ConceptExtractor& Extractor() {
    static const kb::ConceptExtractor* extractor =
        new kb::ConceptExtractor(&Kb());
    return *extractor;
  }
};

TEST_P(KbCoverageTest, PreferredNameAndAliasesExtract) {
  const kb::Concept& entry = Kb().concepts()[GetParam()];
  kb::ExtractionOptions options;
  options.filter_general = false;  // Cover general concepts too.

  std::vector<std::string> forms = entry.aliases;
  forms.push_back(entry.preferred_name);
  for (const std::string& form : forms) {
    const std::string sentence = "assessment shows " + form + " today";
    const auto mentions = Extractor().Extract(sentence, options);
    bool found = false;
    for (const auto& mention : mentions) {
      if (mention.cui == entry.cui) {
        found = true;
        EXPECT_GE(mention.score, 900.0f);
      }
    }
    EXPECT_TRUE(found) << entry.cui << " not found via \"" << form << "\"";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConcepts, KbCoverageTest,
    ::testing::Range(0, kb::KnowledgeBase::BuildDefault().size()));

// ---------------------------------------------------------------------------
// Lemmatizer: idempotence (lemma(lemma(w)) == lemma(w)) over clinical
// vocabulary and status words.
// ---------------------------------------------------------------------------
class LemmatizerPropertyTest : public ::testing::TestWithParam<const char*> {};

TEST_P(LemmatizerPropertyTest, Idempotent) {
  text::Lemmatizer lemmatizer;
  const std::string once = lemmatizer.Lemma(GetParam());
  EXPECT_EQ(lemmatizer.Lemma(once), once) << "from " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    ClinicalWords, LemmatizerPropertyTest,
    ::testing::Values("effusions", "worsening", "improved", "increased",
                      "coughs", "diagnoses", "emboli", "resolving",
                      "metastases", "therapies", "stopped", "lungs",
                      "masses", "was", "children", "tachycardia",
                      "intubated", "decreasing", "transfusions", "status"));

// ---------------------------------------------------------------------------
// t-SNE: finite output of the right shape for a sweep of sizes/perplexities.
// ---------------------------------------------------------------------------
class TsnePropertyTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(TsnePropertyTest, FiniteAndCorrectShape) {
  const auto [n, perplexity] = GetParam();
  Rng rng(17);
  Tensor points = RandomNormal({n, 8}, 0, 1, &rng);
  viz::TsneOptions options;
  options.iterations = 40;
  options.perplexity = perplexity;
  Tensor out = viz::Tsne(points, options);
  ASSERT_EQ(out.dim(0), n);
  ASSERT_EQ(out.dim(1), 2);
  for (int64_t i = 0; i < out.size(); ++i) {
    EXPECT_TRUE(std::isfinite(out[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, TsnePropertyTest,
                         ::testing::Combine(::testing::Values(8, 25, 60),
                                            ::testing::Values(2.0, 5.0)));

// ---------------------------------------------------------------------------
// Dropout preserves expectation for a sweep of rates.
// ---------------------------------------------------------------------------
class DropoutPropertyTest : public ::testing::TestWithParam<float> {};

TEST_P(DropoutPropertyTest, InvertedScalingKeepsMean) {
  const float rate = GetParam();
  Rng rng(19);
  ag::NodePtr x = ag::Node::Leaf(Tensor::Full({120, 120}, 1.0f), false, "x");
  ag::NodePtr y = ag::Dropout(x, rate, /*training=*/true, &rng);
  EXPECT_NEAR(Mean(y->value()), 1.0f, 0.06f) << "rate " << rate;
}

INSTANTIATE_TEST_SUITE_P(Rates, DropoutPropertyTest,
                         ::testing::Values(0.1f, 0.25f, 0.5f, 0.75f));

}  // namespace
}  // namespace kddn
