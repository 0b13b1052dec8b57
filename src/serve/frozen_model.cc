#include "serve/frozen_model.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "common/check.h"
#include "common/fnv1a.h"
#include "common/trace.h"
#include "tensor/tensor_ops.h"
#include "text/vocabulary.h"

namespace kddn::serve {
namespace {

const std::vector<int>& PadFallback() {
  static const std::vector<int> pad = {text::Vocabulary::kPadId};
  return pad;
}

uint64_t HashWeights(const Tensor& weights, uint64_t state) {
  return Fnv1a(weights.data(), weights.size() * sizeof(float), state);
}

}  // namespace

template <typename Self, typename Fn>
void FrozenModel::ForEachWeight(Self& self, Fn&& fn) {
  fn("word_emb.table", self.word_table_);
  fn("concept_emb.table", self.concept_table_);
  for (size_t i = 0; i < self.filter_widths_.size(); ++i) {
    const std::string width = std::to_string(self.filter_widths_[i]);
    fn("word_conv.w" + width, self.word_conv_w_[i]);
    fn("word_conv.b" + width, self.word_conv_b_[i]);
  }
  for (size_t i = 0; i < self.filter_widths_.size(); ++i) {
    const std::string width = std::to_string(self.filter_widths_[i]);
    fn("concept_conv.w" + width, self.concept_conv_w_[i]);
    fn("concept_conv.b" + width, self.concept_conv_b_[i]);
  }
  fn("cls.weight", self.cls_weight_);
  fn("cls.bias", self.cls_bias_);
}

bool FrozenModel::Servable(const models::NeuralDocumentModel& model) {
  const std::string name = model.name();
  return name == "BK-DDN" || name == "AK-DDN";
}

FrozenModel FrozenModel::Freeze(const models::NeuralDocumentModel& model) {
  KDDN_CHECK(Servable(model))
      << "FrozenModel serves BK-DDN / AK-DDN only, got " << model.name();
  FrozenModel frozen;
  frozen.kind_ = std::string(model.name()) == "BK-DDN" ? Kind::kBkDdn
                                                      : Kind::kAkDdn;
  const models::ModelConfig& config = model.config();
  frozen.num_filters_ = config.num_filters;
  frozen.filter_widths_ = config.filter_widths;
  frozen.residual_ = config.akddn_residual;
  KDDN_CHECK(!frozen.filter_widths_.empty()) << "model has no filter widths";

  // Copy every parameter, walking them in registration order: the
  // fingerprint chains FNV-1a over their bytes in that order, and the name
  // check proves ForEachWeight visits the copies in the same order, so
  // VerifyChecksum can recompute it from the copies alone.
  const std::vector<ag::NodePtr>& params = model.params().all();
  const size_t per_bank = frozen.filter_widths_.size();
  frozen.word_conv_w_.resize(per_bank);
  frozen.word_conv_b_.resize(per_bank);
  frozen.concept_conv_w_.resize(per_bank);
  frozen.concept_conv_b_.resize(per_bank);
  frozen.fingerprint_ = kFnv1aSeed;
  size_t next = 0;
  ForEachWeight(frozen, [&](const std::string& name, Tensor& weights) {
    KDDN_CHECK(next < params.size() && params[next]->name() == name)
        << "parameter " << next << " is not " << name;
    weights = params[next++]->value();
    frozen.fingerprint_ = HashWeights(weights, frozen.fingerprint_);
  });
  KDDN_CHECK_EQ(next, params.size()) << "model has parameters the snapshot "
                                        "does not serve";

  // Validate the copies against the config-derived shapes.
  KDDN_CHECK_EQ(frozen.word_table_.dim(1), config.embedding_dim)
      << "word embedding width mismatch";
  const int conv_in =
      config.embedding_dim *
      (frozen.kind_ == Kind::kAkDdn && frozen.residual_ ? 2 : 1);
  for (size_t i = 0; i < per_bank; ++i) {
    KDDN_CHECK_EQ(frozen.word_conv_w_[i].dim(1),
                  frozen.filter_widths_[i] * conv_in)
        << "conv fan-in mismatch for width " << frozen.filter_widths_[i];
  }
  const int fused_dim = 2 * frozen.num_filters_ *
                        static_cast<int>(frozen.filter_widths_.size());
  KDDN_CHECK_EQ(frozen.cls_weight_.dim(0), fused_dim)
      << "classifier fan-in mismatch";
  KDDN_CHECK_EQ(frozen.cls_weight_.dim(1), 2) << "binary classifier expected";
  return frozen;
}

void FrozenModel::ConvBank(const Tensor& input,
                           const std::vector<Tensor>& weights,
                           const std::vector<Tensor>& biases, Workspace* ws,
                           int fused_offset) const {
  // nn::Conv1dBank::Forward, stage for stage.
  const int max_width =
      *std::max_element(filter_widths_.begin(), filter_widths_.end());
  const Tensor* padded = &input;
  if (input.dim(0) < max_width) {
    kddn::PadRowsInto(&ws->padded, input, max_width);
    padded = &ws->padded;
  }
  float* pooled = ws->fused.data() + fused_offset;
  for (size_t i = 0; i < filter_widths_.size(); ++i) {
    kddn::UnfoldInto(&ws->windows, *padded, filter_widths_[i]);
    kddn::MatMulABtInto(&ws->feature_map, ws->windows, weights[i]);
    kddn::AddRowBroadcastInPlace(&ws->feature_map, biases[i]);
    kddn::ReluInPlace(&ws->feature_map);
    kddn::MaxOverTime(ws->feature_map, pooled + i * num_filters_);
  }
}

const Tensor& FrozenModel::Logits(const data::Example& example,
                                  Workspace* ws) const {
  KDDN_TRACE_SPAN("frozen.forward");
  KDDN_CHECK(ws != nullptr);
  kddn::GatherRowsInto(
      &ws->word_emb, word_table_,
      example.word_ids.empty() ? PadFallback() : example.word_ids);
  kddn::GatherRowsInto(
      &ws->concept_emb, concept_table_,
      example.concept_ids.empty() ? PadFallback() : example.concept_ids);

  const Tensor* word_in = &ws->word_emb;
  const Tensor* concept_in = &ws->concept_emb;
  if (kind_ == Kind::kAkDdn) {
    // Co-attention (nn::Atti): softmax(W Cᵀ) C and softmax(C Wᵀ) W.
    kddn::MatMulABtInto(&ws->atti_scores, ws->word_emb, ws->concept_emb);
    kddn::SoftmaxRowsInto(&ws->atti_weights, ws->atti_scores);
    kddn::MatMulInto(&ws->ic, ws->atti_weights, ws->concept_emb);
    kddn::MatMulABtInto(&ws->atti_scores, ws->concept_emb, ws->word_emb);
    kddn::SoftmaxRowsInto(&ws->atti_weights, ws->atti_scores);
    kddn::MatMulInto(&ws->iw, ws->atti_weights, ws->word_emb);
    word_in = &ws->ic;
    concept_in = &ws->iw;
    if (residual_) {
      const Tensor* word_parts[] = {&ws->word_emb, &ws->ic};
      const Tensor* concept_parts[] = {&ws->concept_emb, &ws->iw};
      kddn::ConcatColsInto(&ws->word_in, word_parts);
      kddn::ConcatColsInto(&ws->concept_in, concept_parts);
      word_in = &ws->word_in;
      concept_in = &ws->concept_in;
    }
  }

  // The pooled features of both branches, [1, 2 * branch_dim], are the
  // classifier's input row; no stage reads them before ConvBank writes them.
  const int branch_dim =
      num_filters_ * static_cast<int>(filter_widths_.size());
  ws->fused = Tensor::AdoptStorage({1, 2 * branch_dim},
                                   std::move(ws->fused).TakeStorage());
  ConvBank(*word_in, word_conv_w_, word_conv_b_, ws, /*fused_offset=*/0);
  ConvBank(*concept_in, concept_conv_w_, concept_conv_b_, ws,
           /*fused_offset=*/branch_dim);

  // nn::Dense on a rank-1 input: [1, in] x [in, 2] + bias, then rank 1.
  kddn::MatMulInto(&ws->logits, ws->fused, cls_weight_);
  kddn::AddRowBroadcastInPlace(&ws->logits, cls_bias_);
  ws->logits =
      Tensor::AdoptStorage({2}, std::move(ws->logits).TakeStorage());
  return ws->logits;
}

float FrozenModel::ScorePositive(const data::Example& example,
                                 Workspace* ws) const {
  kddn::SoftmaxInto(&ws->probs, Logits(example, ws));
  return ws->probs[1];
}

bool FrozenModel::VerifyChecksum() const {
  uint64_t checksum = kFnv1aSeed;
  ForEachWeight(*this, [&](const std::string&, const Tensor& weights) {
    checksum = HashWeights(weights, checksum);
  });
  return checksum == fingerprint_;
}

void FrozenModel::CorruptWeightForTest(size_t index) {
  KDDN_CHECK(index < static_cast<size_t>(word_table_.size()))
      << "corruption index out of range";
  uint32_t bits;
  std::memcpy(&bits, &word_table_[index], sizeof(bits));
  bits ^= 0x00400000u;  // Flip a mantissa bit: value changes, stays finite.
  std::memcpy(&word_table_[index], &bits, sizeof(bits));
}

}  // namespace kddn::serve
