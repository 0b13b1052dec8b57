#include "autograd/node.h"

#include <cmath>

#include "autograd/ops.h"
#include "common/check.h"
#include "common/rng.h"
#include "gtest/gtest.h"
#include "tensor/tensor_ops.h"
#include "testing/grad_check.h"

namespace kddn::ag {
namespace {

using ::kddn::testing::ExpectGradCheck;
using ::kddn::testing::GradCheckOptions;

/// Central-difference settings for the checks below: step 1e-3, relative
/// tolerance 2e-2 over a scale floor of 1.
constexpr GradCheckOptions kFiniteDifference{
    .epsilon = 1e-3f, .rel_tolerance = 2e-2f, .denom_floor = 1.0f};

NodePtr RandomLeaf(std::vector<int> shape, Rng* rng, const std::string& name) {
  return Node::Leaf(RandomNormal(std::move(shape), 0.0f, 1.0f, rng),
                    /*requires_grad=*/true, name);
}

TEST(NodeTest, LeafHoldsValue) {
  NodePtr leaf = Node::Leaf(Tensor::FromData({2}, {1, 2}), true, "x");
  EXPECT_EQ(leaf->value().at(1), 2.0f);
  EXPECT_TRUE(leaf->requires_grad());
  EXPECT_TRUE(leaf->parents().empty());
}

TEST(NodeTest, RequiresGradPropagates) {
  NodePtr a = Node::Leaf(Tensor({2}), false, "a");
  NodePtr b = Node::Leaf(Tensor({2}), true, "b");
  EXPECT_FALSE(Add(a, a)->requires_grad());
  EXPECT_TRUE(Add(a, b)->requires_grad());
}

TEST(NodeTest, ScalarValueChecksShape) {
  NodePtr scalar = Node::Leaf(Tensor::FromData({1}, {3.0f}), false, "s");
  EXPECT_EQ(ScalarValue(scalar), 3.0f);
  NodePtr vec = Node::Leaf(Tensor({3}), false, "v");
  EXPECT_THROW(ScalarValue(vec), KddnError);
}

TEST(BackwardTest, SimpleChainRule) {
  // loss = mean(2 * x), d loss/dx_i = 2/n.
  NodePtr x = Node::Leaf(Tensor::FromData({4}, {1, 2, 3, 4}), true, "x");
  NodePtr loss = MeanAll(Scale(x, 2.0f));
  Backward(loss);
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(x->grad()[i], 0.5f, 1e-6f);
  }
}

TEST(BackwardTest, LeafGradAccumulatesAcrossGraphs) {
  NodePtr x = Node::Leaf(Tensor::FromData({2}, {1, 1}), true, "x");
  Backward(SumAll(x));
  Backward(SumAll(x));
  EXPECT_NEAR(x->grad()[0], 2.0f, 1e-6f);
  x->ZeroGrad();
  EXPECT_EQ(x->grad()[0], 0.0f);
}

TEST(BackwardTest, DiamondGraphAccumulates) {
  // loss = sum(x + x): gradient 2 per element.
  NodePtr x = Node::Leaf(Tensor::FromData({3}, {1, 2, 3}), true, "x");
  Backward(SumAll(Add(x, x)));
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(x->grad()[i], 2.0f, 1e-6f);
  }
}

TEST(GradCheck, AddSubMulScale) {
  Rng rng(1);
  NodePtr a = RandomLeaf({3, 2}, &rng, "a");
  NodePtr b = RandomLeaf({3, 2}, &rng, "b");
  ExpectGradCheck(
      [&] { return MeanAll(Mul(Sub(Add(a, b), Scale(b, 0.3f)), a)); }, {a, b},
      kFiniteDifference);
}

TEST(GradCheck, MatMul) {
  Rng rng(2);
  NodePtr a = RandomLeaf({3, 4}, &rng, "a");
  NodePtr b = RandomLeaf({4, 2}, &rng, "b");
  ExpectGradCheck([&] { return MeanAll(MatMul(a, b)); }, {a, b},
                  kFiniteDifference);
}

TEST(GradCheck, MatMulABt) {
  Rng rng(3);
  NodePtr a = RandomLeaf({3, 4}, &rng, "a");
  NodePtr b = RandomLeaf({5, 4}, &rng, "b");
  // Square the product so the gradient depends on both inputs nontrivially.
  ExpectGradCheck(
      [&] {
        NodePtr p = MatMulABt(a, b);
        return MeanAll(Mul(p, p));
      },
      {a, b}, kFiniteDifference);
}

TEST(GradCheck, TransposeAndReshape) {
  Rng rng(4);
  NodePtr a = RandomLeaf({3, 4}, &rng, "a");
  ExpectGradCheck(
      [&] {
        NodePtr t = Transpose(a);
        NodePtr r = Reshape(t, {2, 6});
        return MeanAll(Mul(r, r));
      },
      {a}, kFiniteDifference);
}

TEST(GradCheck, ReluAwayFromKink) {
  Rng rng(5);
  // Keep values away from 0 so finite differences are valid.
  Tensor init = RandomNormal({4, 3}, 0.0f, 1.0f, &rng);
  for (int64_t i = 0; i < init.size(); ++i) {
    if (std::fabs(init[i]) < 0.2f) {
      init[i] = init[i] < 0 ? -0.5f : 0.5f;
    }
  }
  NodePtr a = Node::Leaf(init, true, "a");
  ExpectGradCheck([&] { return MeanAll(Relu(a)); }, {a}, kFiniteDifference);
}

TEST(GradCheck, Tanh) {
  Rng rng(6);
  NodePtr a = RandomLeaf({2, 5}, &rng, "a");
  ExpectGradCheck([&] { return MeanAll(Mul(Tanh(a), Tanh(a))); }, {a},
                  kFiniteDifference);
}

TEST(GradCheck, SoftmaxRows) {
  Rng rng(7);
  NodePtr a = RandomLeaf({3, 4}, &rng, "a");
  NodePtr w = RandomLeaf({3, 4}, &rng, "w");
  ExpectGradCheck([&] { return MeanAll(Mul(SoftmaxRows(a), w)); }, {a, w},
                  kFiniteDifference);
}

TEST(GradCheck, ConcatRank1) {
  Rng rng(8);
  NodePtr a = RandomLeaf({3}, &rng, "a");
  NodePtr b = RandomLeaf({2}, &rng, "b");
  ExpectGradCheck(
      [&] {
        NodePtr c = Concat({a, b}, 0);
        return MeanAll(Mul(c, c));
      },
      {a, b}, kFiniteDifference);
}

TEST(GradCheck, ConcatRank2BothAxes) {
  Rng rng(9);
  NodePtr a = RandomLeaf({2, 3}, &rng, "a");
  NodePtr b = RandomLeaf({2, 3}, &rng, "b");
  ExpectGradCheck(
      [&] {
        NodePtr rows = Concat({a, b}, 0);
        NodePtr cols = Concat({a, b}, 1);
        return Add(MeanAll(Mul(rows, rows)), MeanAll(Mul(cols, cols)));
      },
      {a, b}, kFiniteDifference);
}

TEST(ConcatTest, ShapeChecks) {
  NodePtr a = Node::Leaf(Tensor({2, 3}), false, "a");
  NodePtr b = Node::Leaf(Tensor({2, 4}), false, "b");
  EXPECT_THROW(Concat({a, b}, 0), KddnError);   // width mismatch
  EXPECT_NO_THROW(Concat({a, b}, 1));            // height matches
  EXPECT_THROW(Concat({}, 0), KddnError);
}

TEST(GradCheck, EmbeddingLookup) {
  Rng rng(10);
  NodePtr table = RandomLeaf({6, 3}, &rng, "emb");
  const std::vector<int> ids = {0, 2, 2, 5};  // Repeats accumulate gradient.
  ExpectGradCheck(
      [&] {
        NodePtr e = EmbeddingLookup(table, ids);
        return MeanAll(Mul(e, e));
      },
      {table}, kFiniteDifference);
}

TEST(EmbeddingLookupTest, OutOfRangeThrows) {
  NodePtr table = Node::Leaf(Tensor({4, 2}), true, "emb");
  EXPECT_THROW(EmbeddingLookup(table, {4}), KddnError);
  EXPECT_THROW(EmbeddingLookup(table, {-1}), KddnError);
  EXPECT_THROW(EmbeddingLookup(table, std::vector<int>{}), KddnError);
}

TEST(GradCheck, UnfoldAndPadRows) {
  Rng rng(11);
  NodePtr x = RandomLeaf({5, 2}, &rng, "x");
  ExpectGradCheck(
      [&] {
        NodePtr padded = PadRows(x, 7);
        NodePtr u = Unfold(padded, 3);
        return MeanAll(Mul(u, u));
      },
      {x}, kFiniteDifference);
}

TEST(UnfoldTest, ValuesAreWindows) {
  NodePtr x = Node::Leaf(Tensor::FromData({3, 2}, {1, 2, 3, 4, 5, 6}), false,
                         "x");
  NodePtr u = Unfold(x, 2);
  ASSERT_EQ(u->value().dim(0), 2);
  ASSERT_EQ(u->value().dim(1), 4);
  EXPECT_EQ(u->value().at(0, 0), 1.0f);
  EXPECT_EQ(u->value().at(0, 3), 4.0f);
  EXPECT_EQ(u->value().at(1, 0), 3.0f);
  EXPECT_EQ(u->value().at(1, 3), 6.0f);
  EXPECT_THROW(Unfold(x, 4), KddnError);
}

TEST(PadRowsTest, IdentityWhenLongEnough) {
  NodePtr x = Node::Leaf(Tensor({5, 2}), false, "x");
  EXPECT_EQ(PadRows(x, 3).get(), x.get());
  NodePtr padded = PadRows(x, 8);
  EXPECT_EQ(padded->value().dim(0), 8);
}

TEST(GradCheck, MaxOverTime) {
  Rng rng(12);
  NodePtr x = RandomLeaf({6, 4}, &rng, "x");
  ExpectGradCheck([&] { return MeanAll(MaxOverTime(x)); }, {x},
                  kFiniteDifference);
}

TEST(MaxOverTimeTest, PicksColumnMaxima) {
  // Both columns tie: 5 in rows 1 and 3, 9 in rows 0 and 3. The first
  // maximal row wins, and the gradient flows to it alone.
  NodePtr x = Node::Leaf(
      Tensor::FromData({4, 2}, {1, 9, 5, 2, 3, 4, 5, 9}), true, "x");
  NodePtr m = MaxOverTime(x);
  EXPECT_EQ(m->value().at(0), 5.0f);
  EXPECT_EQ(m->value().at(1), 9.0f);
  Backward(SumAll(m));
  EXPECT_EQ(x->grad().ToVector(),
            (std::vector<float>{0, 1, 1, 0, 0, 0, 0, 0}));
}

TEST(GradCheck, AddRowBroadcast) {
  Rng rng(13);
  NodePtr x = RandomLeaf({4, 3}, &rng, "x");
  NodePtr bias = RandomLeaf({3}, &rng, "b");
  ExpectGradCheck(
      [&] {
        NodePtr y = AddRowBroadcast(x, bias);
        return MeanAll(Mul(y, y));
      },
      {x, bias}, kFiniteDifference);
}

TEST(GradCheck, SoftmaxCrossEntropy) {
  Rng rng(14);
  NodePtr logits = RandomLeaf({4}, &rng, "logits");
  ExpectGradCheck([&] { return SoftmaxCrossEntropy(logits, 2); }, {logits},
                  kFiniteDifference);
}

TEST(SoftmaxCrossEntropyTest, LossMatchesClosedForm) {
  NodePtr logits =
      Node::Leaf(Tensor::FromData({2}, {0.0f, 0.0f}), true, "logits");
  NodePtr loss = SoftmaxCrossEntropy(logits, 0);
  EXPECT_NEAR(ScalarValue(loss), std::log(2.0f), 1e-5f);
  Backward(loss);
  EXPECT_NEAR(logits->grad()[0], -0.5f, 1e-5f);
  EXPECT_NEAR(logits->grad()[1], 0.5f, 1e-5f);
}

TEST(SoftmaxCrossEntropyTest, LabelRangeChecked) {
  NodePtr logits = Node::Leaf(Tensor({3}), true, "logits");
  EXPECT_THROW(SoftmaxCrossEntropy(logits, 3), KddnError);
  EXPECT_THROW(SoftmaxCrossEntropy(logits, -1), KddnError);
}

TEST(SoftmaxProbsTest, NormalisedAndStable) {
  Tensor p;
  SoftmaxInto(&p, Tensor::FromData({3}, {500, 500, 500}));
  EXPECT_NEAR(p[0], 1.0f / 3.0f, 1e-5f);
  EXPECT_NEAR(p[0] + p[1] + p[2], 1.0f, 1e-5f);
}

TEST(DropoutTest, InferenceIsIdentity) {
  Rng rng(15);
  NodePtr x = RandomLeaf({4, 4}, &rng, "x");
  NodePtr y = Dropout(x, 0.5f, /*training=*/false, nullptr);
  EXPECT_EQ(y.get(), x.get());
}

TEST(DropoutTest, TrainingPreservesExpectation) {
  Rng rng(16);
  NodePtr x = Node::Leaf(Tensor::Full({100, 100}, 1.0f), true, "x");
  NodePtr y = Dropout(x, 0.5f, /*training=*/true, &rng);
  // Inverted dropout: E[y] == E[x]; survivors are doubled.
  EXPECT_NEAR(Mean(y->value()), 1.0f, 0.05f);
  int zeros = 0;
  for (int64_t i = 0; i < y->value().size(); ++i) {
    const float v = y->value()[i];
    EXPECT_TRUE(v == 0.0f || std::fabs(v - 2.0f) < 1e-6f);
    zeros += (v == 0.0f) ? 1 : 0;
  }
  EXPECT_NEAR(zeros / 10000.0, 0.5, 0.03);
}

TEST(DropoutTest, BackwardRoutesThroughMask) {
  Rng rng(17);
  NodePtr x = Node::Leaf(Tensor::Full({10, 10}, 1.0f), true, "x");
  NodePtr y = Dropout(x, 0.5f, true, &rng);
  Backward(SumAll(y));
  for (int64_t i = 0; i < x->value().size(); ++i) {
    const bool dropped = (y->value()[i] == 0.0f);
    EXPECT_FLOAT_EQ(x->grad()[i], dropped ? 0.0f : 2.0f);
  }
}

TEST(DropoutTest, InvalidRateThrows) {
  NodePtr x = Node::Leaf(Tensor({2}), true, "x");
  Rng rng(1);
  EXPECT_THROW(Dropout(x, 1.0f, true, &rng), KddnError);
  EXPECT_THROW(Dropout(x, -0.1f, true, &rng), KddnError);
}

TEST(GradCheck, SoftmaxCrossEntropyEndToEnd) {
  // Tight (rel. error < 1e-3) end-to-end check of the training loss head:
  // embedding-style lookup -> matmul feature mix -> rank-1 logits ->
  // softmax cross-entropy, against central finite differences.
  Rng rng(31);
  NodePtr table = RandomLeaf({6, 4}, &rng, "table");
  NodePtr mix = RandomLeaf({4, 4}, &rng, "mix");
  NodePtr readout = RandomLeaf({4, 2}, &rng, "readout");
  auto build = [&] {
    NodePtr embedded = EmbeddingLookup(table, {1, 4, 2, 4});
    NodePtr features = Tanh(MatMul(embedded, mix));
    NodePtr pooled = MaxOverTime(MatMul(features, readout));
    return SoftmaxCrossEntropy(pooled, 1);
  };
  ExpectGradCheck(build, {table, mix, readout}, GradCheckOptions{});
}

TEST(GradCheck, SoftmaxCrossEntropyBothLabels) {
  Rng rng(32);
  NodePtr logits_src = RandomLeaf({5, 2}, &rng, "w");
  for (int label = 0; label < 2; ++label) {
    ExpectGradCheck(
        [&] { return SoftmaxCrossEntropy(MaxOverTime(logits_src), label); },
        {logits_src}, GradCheckOptions{});
  }
}

TEST(GradCheck, AttentionComposite) {
  // End-to-end co-attention block built from primitives, as used by AK-DDN:
  // out = softmax(Q K^T) K.
  Rng rng(18);
  NodePtr q = RandomLeaf({3, 4}, &rng, "q");
  NodePtr k = RandomLeaf({5, 4}, &rng, "k");
  ExpectGradCheck(
      [&] {
        NodePtr weights = SoftmaxRows(MatMulABt(q, k));
        NodePtr mixed = MatMul(weights, k);
        return MeanAll(Mul(mixed, mixed));
      },
      {q, k},
      GradCheckOptions{
          .epsilon = 1e-2f, .rel_tolerance = 3e-2f, .denom_floor = 1.0f});
}

}  // namespace
}  // namespace kddn::ag

namespace kddn::ag {
namespace {

TEST(GradCheck, Sigmoid) {
  Rng rng(21);
  NodePtr a = Node::Leaf(RandomNormal({3, 4}, 0, 1, &rng), true, "a");
  ExpectGradCheck([&] { return MeanAll(Mul(Sigmoid(a), Sigmoid(a))); }, {a},
                  kFiniteDifference);
}

TEST(SigmoidTest, Range) {
  NodePtr a = Node::Leaf(Tensor::FromData({3}, {-100, 0, 100}), false, "a");
  NodePtr y = Sigmoid(a);
  EXPECT_NEAR(y->value().at(0), 0.0f, 1e-6f);
  EXPECT_NEAR(y->value().at(1), 0.5f, 1e-6f);
  EXPECT_NEAR(y->value().at(2), 1.0f, 1e-6f);
}

TEST(GradCheck, SliceRows) {
  Rng rng(22);
  NodePtr x = Node::Leaf(RandomNormal({5, 3}, 0, 1, &rng), true, "x");
  ExpectGradCheck(
      [&] {
        NodePtr top = SliceRows(x, 0, 2);
        NodePtr bottom = SliceRows(x, 3, 5);
        return MeanAll(Mul(Concat({top, bottom}, 0),
                           Concat({bottom, top}, 0)));
      },
      {x}, kFiniteDifference);
}

TEST(SliceRowsTest, ValuesAndBounds) {
  NodePtr x = Node::Leaf(Tensor::FromData({3, 2}, {1, 2, 3, 4, 5, 6}), false,
                         "x");
  NodePtr middle = SliceRows(x, 1, 2);
  ASSERT_EQ(middle->value().dim(0), 1);
  EXPECT_EQ(middle->value().at(0, 0), 3.0f);
  EXPECT_EQ(middle->value().at(0, 1), 4.0f);
  EXPECT_THROW(SliceRows(x, 2, 2), KddnError);
  EXPECT_THROW(SliceRows(x, -1, 1), KddnError);
  EXPECT_THROW(SliceRows(x, 0, 4), KddnError);
}

}  // namespace
}  // namespace kddn::ag
