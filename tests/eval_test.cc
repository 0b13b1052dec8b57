#include "eval/metrics.h"

#include <sstream>

#include "common/check.h"
#include "common/rng.h"
#include "gtest/gtest.h"

namespace kddn::eval {
namespace {

TEST(RocAucTest, PerfectRanking) {
  EXPECT_NEAR(RocAuc({0.1f, 0.2f, 0.8f, 0.9f}, {0, 0, 1, 1}), 1.0, 1e-9);
}

TEST(RocAucTest, InvertedRanking) {
  EXPECT_NEAR(RocAuc({0.9f, 0.8f, 0.2f, 0.1f}, {0, 0, 1, 1}), 0.0, 1e-9);
}

TEST(RocAucTest, AllTiedIsChance) {
  EXPECT_NEAR(RocAuc({0.5f, 0.5f, 0.5f, 0.5f}, {0, 1, 0, 1}), 0.5, 1e-9);
}

TEST(RocAucTest, PartialTiesUseMidranks) {
  // scores: pos {0.8, 0.5}, neg {0.5, 0.2}. Pairs: (0.8>0.5)=1, (0.8>0.2)=1,
  // (0.5=0.5)=0.5, (0.5>0.2)=1 -> AUC = 3.5/4.
  EXPECT_NEAR(RocAuc({0.8f, 0.5f, 0.5f, 0.2f}, {1, 1, 0, 0}), 0.875, 1e-9);
}

TEST(RocAucTest, InvariantToMonotoneTransform) {
  Rng rng(3);
  std::vector<float> scores;
  std::vector<int> labels;
  for (int i = 0; i < 200; ++i) {
    scores.push_back(static_cast<float>(rng.Uniform()));
    labels.push_back(rng.Bernoulli(0.3) ? 1 : 0);
  }
  labels[0] = 1;
  labels[1] = 0;
  std::vector<float> transformed;
  for (float s : scores) {
    transformed.push_back(10.0f * s + 3.0f);
  }
  EXPECT_NEAR(RocAuc(scores, labels), RocAuc(transformed, labels), 1e-9);
}

TEST(RocAucTest, RandomScoresNearHalf) {
  Rng rng(4);
  std::vector<float> scores;
  std::vector<int> labels;
  for (int i = 0; i < 5000; ++i) {
    scores.push_back(static_cast<float>(rng.Uniform()));
    labels.push_back(rng.Bernoulli(0.2) ? 1 : 0);
  }
  EXPECT_NEAR(RocAuc(scores, labels), 0.5, 0.03);
}

TEST(RocAucTest, DegenerateInputsRejected) {
  EXPECT_THROW(RocAuc({}, {}), KddnError);
  EXPECT_THROW(RocAuc({0.5f}, {0, 1}), KddnError);         // Size mismatch.
  EXPECT_THROW(RocAuc({0.5f, 0.6f}, {0, 2}), KddnError);   // Bad label.
}

TEST(RocAucTest, OneClassInputsAreChance) {
  // One-class inputs have no (positive, negative) pair, so the pairwise
  // definition is vacuous; RocAuc documents chance level for them, the same
  // convention core::Trainer::EvaluateSplit uses for one-class splits.
  EXPECT_DOUBLE_EQ(RocAuc({0.5f, 0.6f}, {1, 1}), 0.5);
  EXPECT_DOUBLE_EQ(RocAuc({0.5f, 0.6f}, {0, 0}), 0.5);
}

TEST(AccuracyTest, ThresholdBehaviour) {
  const std::vector<float> scores = {0.1f, 0.4f, 0.6f, 0.9f};
  const std::vector<int> labels = {0, 1, 0, 1};
  EXPECT_NEAR(Accuracy(scores, labels), 0.5, 1e-9);
  EXPECT_NEAR(Accuracy(scores, labels, 0.95f), 0.5, 1e-9);
  EXPECT_NEAR(Accuracy(scores, labels, 0.05f), 0.5, 1e-9);
}

TEST(PrecisionRecallTest, KnownValues) {
  const std::vector<float> scores = {0.9f, 0.8f, 0.7f, 0.1f};
  const std::vector<int> labels = {1, 0, 1, 1};
  const PrecisionRecall pr = PrecisionRecallAt(scores, labels, 0.5f);
  EXPECT_NEAR(pr.precision, 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(pr.recall, 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(pr.f1, 2.0 / 3.0, 1e-9);
}

TEST(PrecisionRecallTest, NoPositivePredictions) {
  const PrecisionRecall pr =
      PrecisionRecallAt({0.1f, 0.2f}, {1, 0}, 0.5f);
  EXPECT_EQ(pr.precision, 0.0);
  EXPECT_EQ(pr.recall, 0.0);
  EXPECT_EQ(pr.f1, 0.0);
}

TEST(CurveRecorderTest, RecordsAndReportsBest) {
  CurveRecorder recorder;
  EXPECT_TRUE(recorder.empty());
  recorder.Add({1, 0.9, 0.8, 0.70});
  recorder.Add({2, 0.6, 0.55, 0.82});
  recorder.Add({3, 0.5, 0.60, 0.79});
  EXPECT_EQ(recorder.points().size(), 3u);
  EXPECT_NEAR(recorder.BestValidationAuc(), 0.82, 1e-9);
}

TEST(CurveRecorderTest, CsvFormat) {
  CurveRecorder recorder;
  recorder.Add({1, 0.9, 0.8, 0.7});
  std::ostringstream out;
  recorder.WriteCsv(out);
  EXPECT_EQ(out.str(),
            "epoch,train_loss,validation_loss,validation_auc\n"
            "1,0.9000,0.8000,0.7000\n");
}

TEST(CurveRecorderTest, AsciiChartContainsEveryEpoch) {
  CurveRecorder recorder;
  recorder.Add({1, 0.9, 0.8, 0.5});
  recorder.Add({2, 0.7, 0.6, 0.75});
  std::ostringstream out;
  recorder.WriteAscii(out);
  const std::string chart = out.str();
  EXPECT_NE(chart.find("0.500"), std::string::npos);
  EXPECT_NE(chart.find("0.750"), std::string::npos);
  std::ostringstream empty_out;
  CurveRecorder().WriteAscii(empty_out);
  EXPECT_NE(empty_out.str().find("no curve points"), std::string::npos);
}

}  // namespace
}  // namespace kddn::eval

#include <cmath>

#include "eval/roc.h"

namespace kddn::eval {
namespace {

TEST(RocCurveTest, KnownCurve) {
  const std::vector<float> scores = {0.9f, 0.7f, 0.4f, 0.2f};
  const std::vector<int> labels = {1, 0, 1, 0};
  const auto curve = RocCurve(scores, labels);
  ASSERT_EQ(curve.size(), 5u);
  EXPECT_EQ(curve.front().false_positive_rate, 0.0);
  EXPECT_EQ(curve.front().true_positive_rate, 0.0);
  EXPECT_EQ(curve.back().false_positive_rate, 1.0);
  EXPECT_EQ(curve.back().true_positive_rate, 1.0);
  // After the first threshold (0.9): TPR=0.5, FPR=0.
  EXPECT_EQ(curve[1].true_positive_rate, 0.5);
  EXPECT_EQ(curve[1].false_positive_rate, 0.0);
}

TEST(RocCurveTest, TiesGroupedIntoOnePoint) {
  const std::vector<float> scores = {0.5f, 0.5f, 0.5f, 0.5f};
  const std::vector<int> labels = {1, 0, 1, 0};
  const auto curve = RocCurve(scores, labels);
  ASSERT_EQ(curve.size(), 2u);  // (0,0) then (1,1) in one jump.
}

TEST(RocCurveTest, AreaMatchesMannWhitneyAuc) {
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<float> scores;
    std::vector<int> labels;
    for (int i = 0; i < 200; ++i) {
      const int label = rng.Bernoulli(0.3) ? 1 : 0;
      labels.push_back(label);
      // Quantised scores force plenty of ties.
      scores.push_back(
          std::round(static_cast<float>(rng.Normal(label, 1.0)) * 4) / 4);
    }
    labels[0] = 1;
    labels[1] = 0;
    EXPECT_NEAR(AucFromCurve(RocCurve(scores, labels)),
                RocAuc(scores, labels), 1e-9);
  }
}

TEST(RocCurveTest, DegenerateInputsThrow) {
  EXPECT_THROW(RocCurve({}, {}), KddnError);
  EXPECT_THROW(RocCurve({0.5f}, {1}), KddnError);
  EXPECT_THROW(AucFromCurve({}), KddnError);
}

TEST(BootstrapTest, IntervalCoversPointEstimate) {
  Rng rng(7);
  std::vector<float> scores;
  std::vector<int> labels;
  for (int i = 0; i < 300; ++i) {
    const int label = rng.Bernoulli(0.3) ? 1 : 0;
    labels.push_back(label);
    scores.push_back(static_cast<float>(rng.Normal(label * 1.5, 1.0)));
  }
  const AucInterval interval =
      BootstrapAucInterval(scores, labels, 200, 0.95, &rng);
  EXPECT_LE(interval.lower, interval.point);
  EXPECT_GE(interval.upper, interval.point);
  EXPECT_GT(interval.upper - interval.lower, 0.0);
  EXPECT_LT(interval.upper - interval.lower, 0.25);
}

TEST(BootstrapTest, NarrowerWithMoreData) {
  Rng rng(8);
  auto width_for = [&rng](int n) {
    std::vector<float> scores;
    std::vector<int> labels;
    for (int i = 0; i < n; ++i) {
      const int label = i % 3 == 0 ? 1 : 0;
      labels.push_back(label);
      scores.push_back(static_cast<float>(rng.Normal(label * 1.5, 1.0)));
    }
    const AucInterval interval =
        BootstrapAucInterval(scores, labels, 150, 0.95, &rng);
    return interval.upper - interval.lower;
  };
  EXPECT_GT(width_for(60), width_for(600));
}

TEST(BootstrapTest, ParameterValidation) {
  Rng rng(9);
  const std::vector<float> scores = {0.1f, 0.9f};
  const std::vector<int> labels = {0, 1};
  EXPECT_THROW(BootstrapAucInterval(scores, labels, 1, 0.95, &rng),
               KddnError);
  EXPECT_THROW(BootstrapAucInterval(scores, labels, 10, 1.5, &rng),
               KddnError);
  EXPECT_THROW(BootstrapAucInterval(scores, labels, 10, 0.95, nullptr),
               KddnError);
}

}  // namespace
}  // namespace kddn::eval

#include "eval/embedding_analysis.h"

namespace kddn::eval {
namespace {

Tensor ToyTable() {
  // Rows: 0,1 sentinels; 2: +x; 3: ~+x; 4: +y; 5: zero.
  return Tensor::FromData({6, 2}, {0, 0,       //
                                   0, 0,       //
                                   1, 0,       //
                                   0.9f, 0.1f, //
                                   0, 1,       //
                                   0, 0});
}

TEST(EmbeddingAnalysisTest, CosineSimilarityBasics) {
  const Tensor table = ToyTable();
  EXPECT_NEAR(CosineSimilarity(table, 2, 2), 1.0f, 1e-6f);
  EXPECT_NEAR(CosineSimilarity(table, 2, 4), 0.0f, 1e-6f);
  EXPECT_GT(CosineSimilarity(table, 2, 3), 0.9f);
  EXPECT_EQ(CosineSimilarity(table, 2, 5), 0.0f);  // Zero-norm row.
  EXPECT_THROW(CosineSimilarity(table, 2, 9), KddnError);
}

TEST(EmbeddingAnalysisTest, NearestNeighboursOrderAndSentinelSkip) {
  const Tensor table = ToyTable();
  const auto neighbours = NearestNeighbours(table, 2, 10);
  ASSERT_GE(neighbours.size(), 2u);
  EXPECT_EQ(neighbours[0].id, 3);  // Most similar.
  for (const Neighbour& n : neighbours) {
    EXPECT_GE(n.id, 2);  // Sentinels excluded.
    EXPECT_NE(n.id, 2);  // Self excluded.
  }
  const auto top1 = NearestNeighbours(table, 2, 1);
  ASSERT_EQ(top1.size(), 1u);
  EXPECT_THROW(NearestNeighbours(table, 2, 0), KddnError);
}

TEST(EmbeddingAnalysisTest, MeanGroupSimilarity) {
  const Tensor table = ToyTable();
  // x-ish group vs itself is high; vs y group is low.
  EXPECT_GT(MeanGroupSimilarity(table, {2}, {3}), 0.9f);
  EXPECT_LT(MeanGroupSimilarity(table, {2, 3}, {4}), 0.2f);
  EXPECT_THROW(MeanGroupSimilarity(table, {}, {2}), KddnError);
  EXPECT_THROW(MeanGroupSimilarity(table, {2}, {2}), KddnError);
}

}  // namespace
}  // namespace kddn::eval
