#ifndef KDDN_CORE_TRAINER_H_
#define KDDN_CORE_TRAINER_H_

#include <string>
#include <vector>

#include "data/dataset.h"
#include "eval/metrics.h"
#include "models/neural_model.h"
#include "synth/cohort.h"

namespace kddn::core {

/// Training hyperparameters shared by all deep models (paper §VI: Adagrad,
/// categorical cross-entropy, dropout 0.5 handled inside the models). The
/// batch size is scaled down with the corpus (paper used 200 on 35k
/// patients).
struct TrainOptions {
  int epochs = 8;
  int batch_size = 32;
  float learning_rate = 0.08f;
  uint64_t seed = 5;
  bool verbose = false;  // Print per-epoch metrics to stderr.
  /// Examples per gradient-reduction chunk. Each chunk accumulates into its
  /// own buffer and chunks merge in index order, so the floating-point sum
  /// order depends only on this value, never on the thread count. Smaller
  /// chunks expose more parallelism; larger ones use less buffer memory.
  int grad_chunk_size = 8;
  /// Crash safety: when non-empty, the trainer atomically writes
  /// CheckpointPath(checkpoint_dir) — model weights plus trainer state
  /// (epoch, seed, Adagrad accumulators, best-validation snapshot, curve) —
  /// after every `checkpoint_every`-th epoch and after the final epoch. The
  /// directory is created if missing.
  std::string checkpoint_dir;
  int checkpoint_every = 1;
  /// Restart from the checkpoint in `checkpoint_dir` if one exists (a cold
  /// start otherwise). Resume is exact: the restarted run consumes the same
  /// shuffle stream, per-example dropout seeds, and optimizer state the
  /// uninterrupted run would have, so the trained parameters are bitwise
  /// identical to never having crashed (tests/robustness_test.cc enforces
  /// this at 1 and 4 threads). Requires the same TrainOptions::seed and an
  /// epoch horizon >= the checkpoint's completed epochs.
  bool resume = false;
};

/// The checkpoint file a Trainer reads and writes inside `checkpoint_dir`.
std::string CheckpointPath(const std::string& checkpoint_dir);

/// Mini-batch trainer: per-example graphs, gradient accumulation across the
/// batch, one Adagrad step per batch, per-epoch validation loss/AUC tracking
/// (the raw material of the paper's Figs 7–9).
///
/// Training is data-parallel within each mini-batch, on the process-wide
/// executor (jobs::GlobalExecutor(), sized by --num_threads in the
/// binaries): the batch is cut into fixed-size chunks
/// (TrainOptions::grad_chunk_size) that lanes process into per-chunk
/// ag::GradSink buffers, which one merge job then sums in chunk order. Dropout noise is drawn from a per-example Rng derived from
/// (seed, epoch, position), so neither the gradients nor the random stream
/// depend on scheduling — the trained parameters are bitwise identical at
/// any thread count (pinned by the goldens in tests/pipeline_test.cc,
/// DESIGN.md §15).
///
/// Each step runs as a reusable job graph (DESIGN.md §14): the gradient
/// chunks, the ordered merge, the Adagrad step, and the assembly of batch
/// k+1 are nodes of one jobs::JobGraph built once per Train call and re-run
/// every step by the work-stealing jobs::JobExecutor, so batch k+1's
/// featurisation overlaps batch k's merge and optimizer step.
///
/// With TrainOptions::checkpoint_dir set, training is also crash-safe:
/// checkpoints are written atomically at epoch boundaries, and
/// TrainOptions::resume restarts from the last one with bitwise-identical
/// results (see the TrainOptions field docs).
class Trainer {
 public:
  explicit Trainer(const TrainOptions& options = {});

  /// Trains `model` in place on `train` for the given horizon and returns the
  /// per-epoch curve (validation metrics computed on `validation`).
  eval::CurveRecorder Train(models::NeuralDocumentModel* model,
                            const std::vector<data::Example>& train,
                            const std::vector<data::Example>& validation,
                            synth::Horizon horizon);

  /// 0/1 labels of a split for a horizon.
  static std::vector<int> Labels(const std::vector<data::Example>& split,
                                 synth::Horizon horizon);

  /// Both split-level metrics from one gradient-free pass.
  struct EvalMetrics {
    double mean_loss = 0.0;  // Mean cross-entropy (0.0 on an empty split).
    double auc = 0.5;        // ROC AUC (0.5 when empty or one-class).
  };

  /// Gradient-free evaluation (DESIGN.md §10): one forward per example
  /// produces the softmax probabilities once, yielding the cross-entropy
  /// loss and the ranking score together. Models that
  /// serve::FrozenModel::Servable() accepts run through a refreshed frozen
  /// snapshot (no graph allocation at all); other models run their plain
  /// graph forward.
  /// Examples are scored in blocks on the process-wide executor into
  /// disjoint slots and losses summed in example order, so the result is
  /// identical at any thread count.
  static EvalMetrics EvaluateSplit(models::NeuralDocumentModel* model,
                                   const std::vector<data::Example>& split,
                                   synth::Horizon horizon);

 private:
  TrainOptions options_;
};

}  // namespace kddn::core

#endif  // KDDN_CORE_TRAINER_H_
