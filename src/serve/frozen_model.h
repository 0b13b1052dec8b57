#ifndef KDDN_SERVE_FROZEN_MODEL_H_
#define KDDN_SERVE_FROZEN_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "models/neural_model.h"
#include "tensor/tensor.h"

namespace kddn::serve {

/// Immutable inference snapshot of a trained BK-DDN or AK-DDN. Freeze()
/// deep-copies each of the model's parameters into the kernel-ready tensor
/// the forward reads (one copy of the weights) and fingerprints them for
/// cache keys and change detection. The forward pass is gradient-free: no
/// ag::Node graph is allocated, dropout is the identity, and all
/// intermediates live in a Workspace that the caller owns and reuses across
/// calls.
///
/// Bitwise contract: scoring an example through a FrozenModel produces the
/// same float, bit for bit, as NeuralDocumentModel::PredictPositiveProbability
/// on the source model — at any executor size and in any batch
/// interleaving. It holds by construction: every stage of Logits() is a call
/// to the tensor kernel (tensor/tensor_ops.h) that the matching autograd op
/// computes its forward value with. tests/serve_test.cc checks it.
class FrozenModel {
 public:
  enum class Kind { kBkDdn, kAkDdn };

  /// Per-call scratch, used by one call at a time. Buffers are reshaped in
  /// place and reallocated only when a document's shape outgrows them, so a
  /// warm workspace scores without any tensor allocation.
  struct Workspace {
    Tensor word_emb;      // [m_w, d] embedded words.
    Tensor concept_emb;   // [m_c, d] embedded concepts.
    Tensor word_in;       // AK-DDN residual CNN input [words | Ic].
    Tensor concept_in;    // AK-DDN residual CNN input [concepts | Iw].
    Tensor atti_scores;   // Co-attention scores (AK-DDN only).
    Tensor atti_weights;  // Row-softmaxed scores.
    Tensor ic;            // Word-queries-concepts interaction matrix.
    Tensor iw;            // Concept-queries-words interaction matrix.
    Tensor padded;        // Conv input padded to the largest filter width.
    Tensor windows;       // im2col windows for the current filter width.
    Tensor feature_map;   // Conv scores [windows, filters].
    Tensor fused;         // [1, out_w + out_c] pooled features.
    Tensor logits;        // [2].
    Tensor probs;         // [2] softmax of the logits.
  };

  /// True for the model kinds Freeze() accepts: BK-DDN and AK-DDN, the
  /// paper's end products.
  static bool Servable(const models::NeuralDocumentModel& model);

  /// Snapshots a trained model; a model that is not Servable() fails with a
  /// KddnError.
  static FrozenModel Freeze(const models::NeuralDocumentModel& model);

  /// Rank-1 logits [2] for one example, written through `ws`. The reference
  /// aliases `ws->logits` and is valid until the next call with the same
  /// workspace (returning by reference keeps the warm forward free of tensor
  /// allocations — a tested invariant, see tests/trace_test.cc). Empty word
  /// or concept sequences (possible for raw serving traffic; training drops
  /// such patients) are scored as a single <pad> token, so every input has a
  /// well-defined probability.
  const Tensor& Logits(const data::Example& example, Workspace* ws) const;

  /// Probability of the positive (death) class.
  float ScorePositive(const data::Example& example, Workspace* ws) const;

  const char* name() const {
    return kind_ == Kind::kBkDdn ? "BK-DDN" : "AK-DDN";
  }

  /// FNV-1a chained over the weight bytes of every parameter, in the model's
  /// registration order: two snapshots of identical weights share a
  /// fingerprint; any weight change alters it.
  uint64_t fingerprint() const { return fingerprint_; }

  /// Recomputes the FNV-1a checksum over the weights and compares it to the
  /// fingerprint recorded at Freeze() time. False means the snapshot's bytes
  /// no longer match what was frozen (bit rot, a bad copy, a poisoned
  /// artifact) — the swap health gate refuses to publish such a snapshot
  /// before it scores anything (DESIGN.md §13).
  bool VerifyChecksum() const;

  /// Test hook: flips a mantissa bit of word-embedding scalar `index`, a
  /// weight the forward reads, so VerifyChecksum() fails — the swap gate must
  /// refuse the snapshot at its checksum stage, before it scores anything.
  void CorruptWeightForTest(size_t index);

 private:
  FrozenModel() = default;

  /// Calls fn(name, tensor) for every weight of `self` (a FrozenModel, const
  /// or not) in the order BK-DDN and AK-DDN register their parameters — the
  /// order the fingerprint is chained in.
  template <typename Self, typename Fn>
  static void ForEachWeight(Self& self, Fn&& fn);

  /// The two CNN branches share this: pad, then per width unfold, convolve,
  /// bias, ReLU and max-over-time; pooled features are written to
  /// fused[0, offset .. offset + num_filters * |widths|).
  void ConvBank(const Tensor& input, const std::vector<Tensor>& weights,
                const std::vector<Tensor>& biases, Workspace* ws,
                int fused_offset) const;

  Kind kind_ = Kind::kBkDdn;
  int num_filters_ = 0;
  std::vector<int> filter_widths_;
  bool residual_ = true;  // AK-DDN: raw embeddings concatenated alongside.

  uint64_t fingerprint_ = 0;

  // Kernel-ready weights, copied from the model's parameters at Freeze().
  Tensor word_table_;                  // [V_w, d]
  Tensor concept_table_;               // [V_c, d]
  std::vector<Tensor> word_conv_w_;    // Per width: [filters, width * in_dim].
  std::vector<Tensor> word_conv_b_;    // Per width: [filters].
  std::vector<Tensor> concept_conv_w_;
  std::vector<Tensor> concept_conv_b_;
  Tensor cls_weight_;                  // [in, 2]
  Tensor cls_bias_;                    // [2]
};

}  // namespace kddn::serve

#endif  // KDDN_SERVE_FROZEN_MODEL_H_
