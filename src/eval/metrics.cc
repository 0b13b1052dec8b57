#include "eval/metrics.h"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "common/check.h"
#include "common/string_util.h"

namespace kddn::eval {

double RocAuc(const std::vector<float>& scores,
              const std::vector<int>& labels) {
  KDDN_CHECK_EQ(scores.size(), labels.size());
  KDDN_CHECK(!scores.empty());
  std::vector<int> order(scores.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<int>(i);
  }
  std::sort(order.begin(), order.end(),
            [&scores](int a, int b) { return scores[a] < scores[b]; });

  // Midranks over ties.
  std::vector<double> rank(scores.size());
  size_t i = 0;
  while (i < order.size()) {
    size_t j = i;
    while (j + 1 < order.size() &&
           scores[order[j + 1]] == scores[order[i]]) {
      ++j;
    }
    const double mid = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 +
                       1.0;  // 1-based midrank.
    for (size_t k = i; k <= j; ++k) {
      rank[order[k]] = mid;
    }
    i = j + 1;
  }

  int64_t positives = 0;
  double positive_rank_sum = 0.0;
  for (size_t k = 0; k < labels.size(); ++k) {
    KDDN_CHECK(labels[k] == 0 || labels[k] == 1) << "labels must be 0/1";
    if (labels[k] == 1) {
      ++positives;
      positive_rank_sum += rank[k];
    }
  }
  const int64_t negatives = static_cast<int64_t>(labels.size()) - positives;
  if (positives == 0 || negatives == 0) {
    // One-class input: no (positive, negative) pair exists, so the pairwise
    // definition is vacuous. Return chance level, the same convention
    // core::Trainer::EvaluateSplit uses for one-class validation splits.
    return 0.5;
  }
  const double u = positive_rank_sum -
                   static_cast<double>(positives) * (positives + 1) / 2.0;
  return u / (static_cast<double>(positives) * static_cast<double>(negatives));
}

double Accuracy(const std::vector<float>& scores,
                const std::vector<int>& labels, float threshold) {
  KDDN_CHECK_EQ(scores.size(), labels.size());
  KDDN_CHECK(!scores.empty());
  int correct = 0;
  for (size_t i = 0; i < scores.size(); ++i) {
    const int predicted = scores[i] >= threshold ? 1 : 0;
    correct += predicted == labels[i] ? 1 : 0;
  }
  return static_cast<double>(correct) / static_cast<double>(scores.size());
}

PrecisionRecall PrecisionRecallAt(const std::vector<float>& scores,
                                  const std::vector<int>& labels,
                                  float threshold) {
  KDDN_CHECK_EQ(scores.size(), labels.size());
  int tp = 0, fp = 0, fn = 0;
  for (size_t i = 0; i < scores.size(); ++i) {
    const int predicted = scores[i] >= threshold ? 1 : 0;
    if (predicted == 1 && labels[i] == 1) {
      ++tp;
    } else if (predicted == 1) {
      ++fp;
    } else if (labels[i] == 1) {
      ++fn;
    }
  }
  PrecisionRecall pr;
  pr.precision = (tp + fp) > 0 ? static_cast<double>(tp) / (tp + fp) : 0.0;
  pr.recall = (tp + fn) > 0 ? static_cast<double>(tp) / (tp + fn) : 0.0;
  pr.f1 = (pr.precision + pr.recall) > 0.0
              ? 2.0 * pr.precision * pr.recall / (pr.precision + pr.recall)
              : 0.0;
  return pr;
}

double CurveRecorder::BestValidationAuc() const {
  double best = 0.0;
  for (const CurvePoint& point : points_) {
    best = std::max(best, point.validation_auc);
  }
  return best;
}

void CurveRecorder::WriteCsv(std::ostream& out) const {
  out << "epoch,train_loss,validation_loss,validation_auc\n";
  for (const CurvePoint& point : points_) {
    out << point.epoch << "," << FormatDouble(point.train_loss, 4) << ","
        << FormatDouble(point.validation_loss, 4) << ","
        << FormatDouble(point.validation_auc, 4) << "\n";
  }
}

void CurveRecorder::WriteAscii(std::ostream& out) const {
  if (points_.empty()) {
    out << "(no curve points)\n";
    return;
  }
  double max_loss = 0.0;
  for (const CurvePoint& point : points_) {
    max_loss = std::max(max_loss, point.validation_loss);
  }
  max_loss = std::max(max_loss, 1e-9);
  out << "epoch | val loss" << std::string(32, ' ') << "| val auc\n";
  for (const CurvePoint& point : points_) {
    const int loss_bar = static_cast<int>(
        std::lround(point.validation_loss / max_loss * 38.0));
    const int auc_bar =
        static_cast<int>(std::lround(point.validation_auc * 38.0));
    out << (point.epoch < 10 ? "    " : point.epoch < 100 ? "   " : "  ")
        << point.epoch << " | " << std::string(loss_bar, '#')
        << std::string(40 - loss_bar, ' ') << "| "
        << std::string(auc_bar, '=') << " "
        << FormatDouble(point.validation_auc, 3) << "\n";
  }
}

}  // namespace kddn::eval
