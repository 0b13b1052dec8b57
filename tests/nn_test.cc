#include "nn/layers.h"

#include <cmath>

#include "common/check.h"
#include "gtest/gtest.h"
#include "nn/optimizer.h"
#include "nn/parameter.h"
#include "tensor/tensor_ops.h"
#include "testing/grad_check.h"

namespace kddn::nn {
namespace {

using ::kddn::testing::ExpectGradCheck;
using ::kddn::testing::GradCheckOptions;

/// Central-difference settings for the checks below: step 1e-3, relative
/// tolerance 2e-2 over a scale floor of 1.
constexpr GradCheckOptions kFiniteDifference{
    .epsilon = 1e-3f, .rel_tolerance = 2e-2f, .denom_floor = 1.0f};

TEST(ParameterSetTest, CreateAndLookup) {
  ParameterSet params;
  Rng rng(1);
  ag::NodePtr w = params.Create("w", Tensor({2, 3}));
  ag::NodePtr b = params.Create("b", Tensor({3}));
  EXPECT_EQ(params.all().size(), 2u);
  EXPECT_EQ(params.Get("w").get(), w.get());
  EXPECT_EQ(params.Get("b").get(), b.get());
  EXPECT_EQ(params.TotalWeights(), 9);
  EXPECT_THROW(params.Get("missing"), KddnError);
  EXPECT_THROW(params.Create("w", Tensor({1})), KddnError);
}

TEST(ParameterSetTest, ZeroGrads) {
  ParameterSet params;
  ag::NodePtr w = params.Create("w", Tensor::Full({2}, 1.0f));
  ag::Backward(ag::SumAll(w));
  EXPECT_EQ(w->grad()[0], 1.0f);
  params.ZeroGrads();
  EXPECT_EQ(w->grad()[0], 0.0f);
}

TEST(InitializerTest, XavierBoundsAndNormalSpread) {
  Rng rng(2);
  Tensor x = XavierUniform({50, 50}, 50, 50, &rng);
  const float limit = std::sqrt(6.0f / 100.0f);
  for (int64_t i = 0; i < x.size(); ++i) {
    EXPECT_LE(std::fabs(x[i]), limit);
  }
  Tensor n = NormalInit({100, 100}, 0.1f, &rng);
  EXPECT_NEAR(Mean(n), 0.0f, 0.01f);
}

TEST(EmbeddingTest, LookupShapeAndRows) {
  ParameterSet params;
  Rng rng(3);
  Embedding emb(&params, "emb", 10, 4, &rng);
  ag::NodePtr out = emb.Forward({1, 3, 1});
  ASSERT_EQ(out->value().dim(0), 3);
  ASSERT_EQ(out->value().dim(1), 4);
  // Repeated id returns identical rows.
  for (int j = 0; j < 4; ++j) {
    EXPECT_EQ(out->value().at(0, j), out->value().at(2, j));
    EXPECT_EQ(out->value().at(0, j), emb.table()->value().at(1, j));
  }
}

TEST(DenseTest, Rank1AndRank2Agree) {
  ParameterSet params;
  Rng rng(4);
  Dense dense(&params, "fc", 3, 2, &rng);
  Tensor x = RandomNormal({3}, 0, 1, &rng);
  ag::NodePtr v = ag::Node::Leaf(x, false, "x");
  ag::NodePtr m = ag::Node::Leaf(x.Reshape({1, 3}), false, "xm");
  ag::NodePtr out_v = dense.Forward(v);
  ag::NodePtr out_m = dense.Forward(m);
  ASSERT_EQ(out_v->value().rank(), 1);
  ASSERT_EQ(out_m->value().rank(), 2);
  for (int j = 0; j < 2; ++j) {
    EXPECT_NEAR(out_v->value().at(j), out_m->value().at(0, j), 1e-6f);
  }
}

TEST(DenseTest, GradCheck) {
  ParameterSet params;
  Rng rng(5);
  Dense dense(&params, "fc", 4, 3, &rng);
  ag::NodePtr x =
      ag::Node::Leaf(RandomNormal({5, 4}, 0, 1, &rng), true, "x");
  std::vector<ag::NodePtr> leaves = params.all();
  leaves.push_back(x);
  ExpectGradCheck(
      [&] {
        ag::NodePtr y = dense.Forward(x);
        return ag::MeanAll(ag::Mul(y, y));
      },
      leaves, kFiniteDifference);
}

TEST(DenseTest, WidthMismatchThrows) {
  ParameterSet params;
  Rng rng(6);
  Dense dense(&params, "fc", 4, 2, &rng);
  ag::NodePtr bad = ag::Node::Leaf(Tensor({5, 3}), false, "bad");
  EXPECT_THROW(dense.Forward(bad), KddnError);
}

TEST(Conv1dBankTest, OutputDimAndShortInputPadding) {
  ParameterSet params;
  Rng rng(7);
  Conv1dBank conv(&params, "conv", 6, 5, {1, 2, 3}, &rng);
  EXPECT_EQ(conv.output_dim(), 15);
  // A single-token document must still work (paper notes vary in length).
  ag::NodePtr x = ag::Node::Leaf(RandomNormal({1, 6}, 0, 1, &rng), false, "x");
  ag::NodePtr feats = conv.Forward(x);
  ASSERT_EQ(feats->value().rank(), 1);
  EXPECT_EQ(feats->value().dim(0), 15);
}

TEST(Conv1dBankTest, GradCheckThroughWholeBlock) {
  ParameterSet params;
  Rng rng(8);
  Conv1dBank conv(&params, "conv", 3, 2, {1, 2}, &rng);
  ag::NodePtr x =
      ag::Node::Leaf(RandomNormal({5, 3}, 0, 1, &rng), true, "x");
  std::vector<ag::NodePtr> leaves = params.all();
  leaves.push_back(x);
  ExpectGradCheck(
      [&] {
        ag::NodePtr y = conv.Forward(x);
        return ag::MeanAll(ag::Mul(y, y));
      },
      leaves,
      GradCheckOptions{
          .epsilon = 1e-2f, .rel_tolerance = 4e-2f, .denom_floor = 1.0f});
}

TEST(AttiTest, WeightsRowsSumToOne) {
  Rng rng(9);
  ag::NodePtr q = ag::Node::Leaf(RandomNormal({4, 5}, 0, 1, &rng), false, "q");
  ag::NodePtr kv = ag::Node::Leaf(RandomNormal({7, 5}, 0, 1, &rng), false,
                                  "kv");
  AttiResult atti = Atti(q, kv);
  ASSERT_EQ(atti.weights->value().dim(0), 4);
  ASSERT_EQ(atti.weights->value().dim(1), 7);
  ASSERT_EQ(atti.output->value().dim(0), 4);
  ASSERT_EQ(atti.output->value().dim(1), 5);
  for (int i = 0; i < 4; ++i) {
    float total = 0.0f;
    for (int j = 0; j < 7; ++j) {
      total += atti.weights->value().at(i, j);
    }
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST(AttiTest, OutputRowsAreConvexCombinations) {
  // With a single key row, every output row equals that key row.
  Rng rng(10);
  ag::NodePtr q = ag::Node::Leaf(RandomNormal({3, 4}, 0, 1, &rng), false, "q");
  Tensor key = RandomNormal({1, 4}, 0, 1, &rng);
  ag::NodePtr kv = ag::Node::Leaf(key, false, "kv");
  AttiResult atti = Atti(q, kv);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_NEAR(atti.output->value().at(i, j), key.at(0, j), 1e-5f);
    }
  }
}

TEST(AttiTest, DimMismatchThrows) {
  ag::NodePtr q = ag::Node::Leaf(Tensor({3, 4}), false, "q");
  ag::NodePtr kv = ag::Node::Leaf(Tensor({5, 6}), false, "kv");
  EXPECT_THROW(Atti(q, kv), KddnError);
}

TEST(AdagradTest, ConvergesOnQuadratic) {
  // Minimise f(w) = ||w - target||^2 with Adagrad.
  ParameterSet params;
  ag::NodePtr w = params.Create("w", Tensor::Full({3}, 5.0f));
  ag::NodePtr target =
      ag::Node::Leaf(Tensor::FromData({3}, {1, -2, 0.5f}), false, "t");
  Adagrad opt(0.5f);
  for (int step = 0; step < 400; ++step) {
    ag::NodePtr diff = ag::Sub(w, target);
    ag::Backward(ag::SumAll(ag::Mul(diff, diff)));
    opt.Step(params.all());
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(w->value()[i], target->value()[i], 0.05f);
  }
}

TEST(AdagradTest, StepZeroesGradients) {
  ParameterSet params;
  ag::NodePtr w = params.Create("w", Tensor::Full({2}, 1.0f));
  ag::Backward(ag::SumAll(w));
  Adagrad opt(0.1f);
  opt.Step(params.all());
  EXPECT_EQ(w->grad()[0], 0.0f);
}

TEST(AdagradTest, EffectiveRateShrinksWithAccumulation) {
  ParameterSet params;
  ag::NodePtr w = params.Create("w", Tensor::Full({1}, 0.0f));
  Adagrad opt(1.0f);
  // Constant gradient of 1: first step ≈ -1, second ≈ -1/sqrt(2).
  ag::Backward(ag::SumAll(w));
  opt.Step(params.all());
  const float after_first = w->value()[0];
  EXPECT_NEAR(after_first, -1.0f, 1e-3f);
  ag::Backward(ag::SumAll(w));
  opt.Step(params.all());
  EXPECT_NEAR(w->value()[0] - after_first, -1.0f / std::sqrt(2.0f), 1e-3f);
}

TEST(SgdTest, WeightDecayShrinksWeights) {
  ParameterSet params;
  ag::NodePtr w = params.Create("w", Tensor::Full({1}, 10.0f));
  Sgd opt(0.1f, /*weight_decay=*/1.0f);
  // Zero loss gradient: only decay acts.
  w->ZeroGrad();
  opt.Step(params.all());
  EXPECT_NEAR(w->value()[0], 9.0f, 1e-4f);
}

TEST(OptimizerTest, InvalidHyperparametersThrow) {
  EXPECT_THROW(Adagrad(0.0f), KddnError);
  EXPECT_THROW(Adagrad(-1.0f), KddnError);
  EXPECT_THROW(Sgd(0.0f), KddnError);
  EXPECT_THROW(Sgd(0.1f, -0.5f), KddnError);
}

}  // namespace
}  // namespace kddn::nn
