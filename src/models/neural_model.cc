#include "models/neural_model.h"

#include "autograd/ops.h"
#include "tensor/tensor_ops.h"

namespace kddn::models {

float NeuralDocumentModel::PredictPositiveProbability(
    const data::Example& example) {
  nn::ForwardContext ctx;
  ctx.training = false;
  Tensor probs;
  SoftmaxInto(&probs, Logits(example, ctx)->value());
  return probs[1];
}

}  // namespace kddn::models
