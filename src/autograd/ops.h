#ifndef KDDN_AUTOGRAD_OPS_H_
#define KDDN_AUTOGRAD_OPS_H_

#include <memory>
#include <vector>

#include "autograd/node.h"
#include "common/rng.h"

namespace kddn::ag {

/// Elementwise sum; shapes must match.
NodePtr Add(const NodePtr& a, const NodePtr& b);

/// Elementwise difference; shapes must match.
NodePtr Sub(const NodePtr& a, const NodePtr& b);

/// Elementwise (Hadamard) product; shapes must match.
NodePtr Mul(const NodePtr& a, const NodePtr& b);

/// Scalar multiple s * a.
NodePtr Scale(const NodePtr& a, float s);

/// Matrix product A[m,k] * B[k,n].
NodePtr MatMul(const NodePtr& a, const NodePtr& b);

/// A[m,k] * B[n,k]^T -> [m,n]; the attention-score primitive.
NodePtr MatMulABt(const NodePtr& a, const NodePtr& b);

/// Matrix transpose of a rank-2 node.
NodePtr Transpose(const NodePtr& a);

/// Elementwise max(0, x).
NodePtr Relu(const NodePtr& a);

/// Elementwise tanh.
NodePtr Tanh(const NodePtr& a);

/// Elementwise logistic sigmoid 1/(1+exp(-x)).
NodePtr Sigmoid(const NodePtr& a);

/// Rows [begin, end) of a rank-2 node as a new [end-begin, cols] node.
NodePtr SliceRows(const NodePtr& x, int begin, int end);

/// Row-wise softmax of a rank-2 node (the attention-weight primitive).
NodePtr SoftmaxRows(const NodePtr& a);

/// Concatenation. Rank-1 nodes concatenate along axis 0; rank-2 nodes along
/// axis 0 (stack rows) or axis 1 (widen rows). All inputs must agree on the
/// non-concatenated extent.
NodePtr Concat(const std::vector<NodePtr>& nodes, int axis);

/// Gathers rows of `table`[V,d] at `ids` -> [len(ids), d]. Backward scatters
/// into the table rows, which is how embeddings are trained jointly with the
/// model (paper §IV-A).
NodePtr EmbeddingLookup(const NodePtr& table, const std::vector<int>& ids);

/// As above, but sharing ownership of an immutable id buffer: the backward
/// closure keeps the shared_ptr instead of copying the vector into the graph
/// (one lookup per example per table adds up). The buffer must not change
/// while the graph is alive.
NodePtr EmbeddingLookup(const NodePtr& table,
                        std::shared_ptr<const std::vector<int>> ids);

/// im2col for 1-D convolution: x[m,d] -> [m-width+1, width*d], row j being
/// the flattened window x[j..j+width). Requires m >= width.
NodePtr Unfold(const NodePtr& x, int width);

/// Zero-pads rows at the bottom so the result has at least `min_rows` rows.
/// Identity when x already has enough rows.
NodePtr PadRows(const NodePtr& x, int min_rows);

/// Column-wise max over rows: x[m,F] -> [F] (max-over-time pooling,
/// paper §IV-B3). Gradient flows to the arg-max row of each column.
NodePtr MaxOverTime(const NodePtr& x);

/// Mean of all elements -> scalar node of shape [1].
NodePtr MeanAll(const NodePtr& x);

/// Sum of all elements -> scalar node of shape [1].
NodePtr SumAll(const NodePtr& x);

/// Adds row vector `row`[n] to every row of x[m,n] (bias broadcast).
NodePtr AddRowBroadcast(const NodePtr& x, const NodePtr& row);

/// Reinterprets x with a new shape of identical element count.
NodePtr Reshape(const NodePtr& x, std::vector<int> shape);

/// Inverted dropout: during training each element is zeroed with probability
/// `rate` and survivors are scaled by 1/(1-rate); at inference it is the
/// identity (paper §VI uses rate 0.5).
NodePtr Dropout(const NodePtr& x, float rate, bool training, Rng* rng);

/// Softmax + categorical cross-entropy against an integer label for rank-1
/// logits[C] -> scalar loss. Combining the two keeps the backward pass the
/// numerically stable (probs - onehot) form. The forward value is
/// kddn::CrossEntropyValue of kddn::SoftmaxInto, the pair every prediction
/// and evaluation path reduces logits with.
NodePtr SoftmaxCrossEntropy(const NodePtr& logits, int label);

}  // namespace kddn::ag

#endif  // KDDN_AUTOGRAD_OPS_H_
