#include "tensor/tensor.h"

#include <cmath>

#include "common/check.h"
#include "common/rng.h"
#include "gtest/gtest.h"
#include "tensor/tensor_ops.h"

namespace kddn {
namespace {

TEST(TensorTest, DefaultIsEmpty) {
  Tensor t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.rank(), 0);
  EXPECT_EQ(t.size(), 0);
}

TEST(TensorTest, ZerosShapeAndContents) {
  Tensor t({2, 3});
  EXPECT_EQ(t.rank(), 2);
  EXPECT_EQ(t.size(), 6);
  for (int64_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(t[i], 0.0f);
  }
}

TEST(TensorTest, FromDataRoundTrip) {
  Tensor t = Tensor::FromData({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.at(0, 0), 1.0f);
  EXPECT_EQ(t.at(0, 1), 2.0f);
  EXPECT_EQ(t.at(1, 0), 3.0f);
  EXPECT_EQ(t.at(1, 1), 4.0f);
}

TEST(TensorTest, FromDataSizeMismatchThrows) {
  EXPECT_THROW(Tensor::FromData({2, 2}, {1, 2, 3}), KddnError);
}

TEST(TensorTest, EyeIsIdentity) {
  Tensor eye = Tensor::Eye(3);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_EQ(eye.at(i, j), i == j ? 1.0f : 0.0f);
    }
  }
}

TEST(TensorTest, NegativeAxisDim) {
  Tensor t({4, 5});
  EXPECT_EQ(t.dim(-1), 5);
  EXPECT_EQ(t.dim(-2), 4);
  EXPECT_THROW(t.dim(2), KddnError);
}

TEST(TensorTest, RankCheckedAccessors) {
  Tensor t({2, 2});
  EXPECT_THROW(t.at(0), KddnError);       // rank-1 access on rank-2
  EXPECT_THROW(t.at(0, 0, 0), KddnError); // rank-3 access on rank-2
  EXPECT_THROW(t.at(2, 0), KddnError);    // out of bounds
}

TEST(TensorTest, Rank3Access) {
  Tensor t({2, 3, 4});
  t.at(1, 2, 3) = 7.0f;
  EXPECT_EQ(t.at(1, 2, 3), 7.0f);
  EXPECT_EQ(t[t.size() - 1], 7.0f);
}

TEST(TensorTest, ReshapePreservesData) {
  Tensor t = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = t.Reshape({3, 2});
  EXPECT_EQ(r.at(2, 1), 6.0f);
  EXPECT_THROW(t.Reshape({4, 2}), KddnError);
}

TEST(TensorTest, FillAndShapeString) {
  Tensor t({2, 2});
  t.Fill(3.5f);
  EXPECT_EQ(t.at(1, 1), 3.5f);
  EXPECT_EQ(t.ShapeString(), "[2, 2]");
}

TEST(TensorTest, NegativeDimensionRejected) {
  EXPECT_THROW(Tensor({-1, 2}), KddnError);
}

TEST(TensorOpsTest, MatMulKnownValues) {
  Tensor a = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromData({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.at(0, 0), 58.0f);
  EXPECT_EQ(c.at(0, 1), 64.0f);
  EXPECT_EQ(c.at(1, 0), 139.0f);
  EXPECT_EQ(c.at(1, 1), 154.0f);
}

TEST(TensorOpsTest, MatMulShapeMismatchThrows) {
  Tensor a({2, 3});
  Tensor b({2, 3});
  EXPECT_THROW(MatMul(a, b), KddnError);
}

TEST(TensorOpsTest, TransposedVariantsAgreeWithExplicitTranspose) {
  Rng rng(5);
  Tensor a = RandomNormal({4, 3}, 0, 1, &rng);
  Tensor b = RandomNormal({4, 5}, 0, 1, &rng);
  Tensor expected = MatMul(Transpose(a), b);
  Tensor got = MatMulAtB(a, b);
  EXPECT_LT(MaxAbsDiff(expected, got), 1e-5f);

  Tensor c = RandomNormal({6, 3}, 0, 1, &rng);
  Tensor d = RandomNormal({2, 3}, 0, 1, &rng);
  Tensor expected2 = MatMul(c, Transpose(d));
  Tensor got2 = MatMulABt(c, d);
  EXPECT_LT(MaxAbsDiff(expected2, got2), 1e-5f);
}

TEST(TensorOpsTest, TransposeInvolution) {
  Rng rng(6);
  Tensor a = RandomNormal({3, 7}, 0, 1, &rng);
  EXPECT_LT(MaxAbsDiff(Transpose(Transpose(a)), a), 0.0f + 1e-9f);
}

TEST(TensorOpsTest, ElementwiseOps) {
  Tensor a = Tensor::FromData({2}, {1, 2});
  Tensor b = Tensor::FromData({2}, {3, 5});
  EXPECT_EQ(Add(a, b).at(1), 7.0f);
  EXPECT_EQ(Sub(b, a).at(0), 2.0f);
  EXPECT_EQ(Mul(a, b).at(1), 10.0f);
  EXPECT_EQ(Scale(a, 2.0f).at(1), 4.0f);

  // ReLU zeroes negatives only: -0 keeps its sign bit and NaN passes.
  Tensor r = Tensor::FromData({4}, {-1.0f, -0.0f, std::nanf(""), 2.0f});
  ReluInPlace(&r);
  EXPECT_EQ(r[0], 0.0f);
  EXPECT_FALSE(std::signbit(r[0]));
  EXPECT_EQ(r[1], 0.0f);
  EXPECT_TRUE(std::signbit(r[1]));
  EXPECT_TRUE(std::isnan(r[2]));
  EXPECT_EQ(r[3], 2.0f);
}

TEST(TensorOpsTest, InPlaceOps) {
  Tensor a = Tensor::FromData({2}, {1, 2});
  Tensor b = Tensor::FromData({2}, {10, 20});
  AddInPlace(&a, b);
  EXPECT_EQ(a.at(0), 11.0f);
  AxpyInPlace(&a, -0.5f, b);
  EXPECT_EQ(a.at(1), 12.0f);
}

TEST(TensorOpsTest, AddRowBroadcast) {
  Tensor a = Tensor::FromData({2, 2}, {1, 2, 3, 4});
  AddRowBroadcastInPlace(&a, Tensor::FromData({2}, {10, 20}));
  EXPECT_EQ(a.at(0, 0), 11.0f);
  EXPECT_EQ(a.at(1, 1), 24.0f);
  EXPECT_THROW(AddRowBroadcastInPlace(&a, Tensor({3})), KddnError);
}

TEST(TensorOpsTest, Reductions) {
  Tensor a = Tensor::FromData({2, 2}, {1, 2, 3, -4});
  EXPECT_EQ(Sum(a), 2.0f);
  EXPECT_EQ(Mean(a), 0.5f);
  EXPECT_EQ(MaxValue(a), 3.0f);
  EXPECT_EQ(SquaredNorm(a), 30.0f);
}

TEST(TensorOpsTest, SoftmaxRowsSumToOneAndOrder) {
  Tensor s;
  SoftmaxRowsInto(&s, Tensor::FromData({2, 3}, {1, 2, 3, -1, -1, -1}));
  for (int i = 0; i < 2; ++i) {
    float total = 0.0f;
    for (int j = 0; j < 3; ++j) {
      total += s.at(i, j);
    }
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
  EXPECT_GT(s.at(0, 2), s.at(0, 1));
  EXPECT_NEAR(s.at(1, 0), 1.0f / 3.0f, 1e-5f);
}

TEST(TensorOpsTest, SoftmaxRowsIsStableForLargeLogits) {
  Tensor s;
  SoftmaxRowsInto(&s, Tensor::FromData({1, 2}, {1000.0f, 1000.0f}));
  EXPECT_NEAR(s.at(0, 0), 0.5f, 1e-5f);
  EXPECT_FALSE(std::isnan(s.at(0, 1)));
}

TEST(TensorOpsTest, RandomTensorsRespectDistribution) {
  Rng rng(11);
  Tensor n = RandomNormal({100, 100}, 2.0f, 0.5f, &rng);
  EXPECT_NEAR(Mean(n), 2.0f, 0.02f);
  Tensor u = RandomUniform({100, 100}, -1.0f, 1.0f, &rng);
  EXPECT_NEAR(Mean(u), 0.0f, 0.02f);
  EXPECT_LE(MaxValue(u), 1.0f);
}

TEST(TensorOpsTest, MaxAbsDiff) {
  Tensor a = Tensor::FromData({2}, {1, 5});
  Tensor b = Tensor::FromData({2}, {1.5f, 4});
  EXPECT_NEAR(MaxAbsDiff(a, b), 1.0f, 1e-6f);
}

}  // namespace
}  // namespace kddn
