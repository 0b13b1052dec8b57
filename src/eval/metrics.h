#ifndef KDDN_EVAL_METRICS_H_
#define KDDN_EVAL_METRICS_H_

#include <iosfwd>
#include <vector>

namespace kddn::eval {

/// Area under the ROC curve via the Mann–Whitney U statistic with midrank tie
/// handling — the paper's sole reported metric (§VII-C). `labels` are 0/1.
/// Equivalent to the pairwise definition: over all (positive, negative) pairs,
/// the fraction where the positive outscores the negative, counting ties as
/// half (tests/property_test.cc asserts this against the O(n²) form).
/// Degenerate one-class inputs return 0.5 — the chance value, matching
/// core::Trainer::EvaluateSplit's convention for one-class splits — because
/// no ranking is observable without both classes.
double RocAuc(const std::vector<float>& scores, const std::vector<int>& labels);

/// Fraction of correct predictions at the given score threshold.
double Accuracy(const std::vector<float>& scores,
                const std::vector<int>& labels, float threshold = 0.5f);

/// Precision/recall/F1 of the positive class at a threshold.
struct PrecisionRecall {
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
};
PrecisionRecall PrecisionRecallAt(const std::vector<float>& scores,
                                  const std::vector<int>& labels,
                                  float threshold = 0.5f);

/// One epoch on a Fig. 7–9 style training curve.
struct CurvePoint {
  int epoch = 0;
  double train_loss = 0.0;
  double validation_loss = 0.0;
  double validation_auc = 0.0;
};

/// Collects per-epoch metrics and renders them as CSV or a terminal sparkline
/// (the benches regenerate Figures 7–9 from this).
class CurveRecorder {
 public:
  void Add(CurvePoint point) { points_.push_back(point); }
  const std::vector<CurvePoint>& points() const { return points_; }
  bool empty() const { return points_.empty(); }

  /// Best (highest) validation AUC over all epochs; 0 if empty.
  double BestValidationAuc() const;

  /// "epoch,train_loss,validation_loss,validation_auc" rows.
  void WriteCsv(std::ostream& out) const;

  /// Compact fixed-width ASCII chart of validation loss and AUC per epoch.
  void WriteAscii(std::ostream& out) const;

 private:
  std::vector<CurvePoint> points_;
};

}  // namespace kddn::eval

#endif  // KDDN_EVAL_METRICS_H_
