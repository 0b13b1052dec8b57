#ifndef KDDN_AUTOGRAD_NODE_H_
#define KDDN_AUTOGRAD_NODE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "tensor/tensor.h"

namespace kddn::ag {

class Node;
using NodePtr = std::shared_ptr<Node>;

/// Records which rows of a rank-2 gradient have been written since the last
/// Clear(), so merges and optimizer steps can visit only touched rows. An
/// embedding table sees a few dozen distinct rows per batch out of tens of
/// thousands; everything downstream of this tracker is O(touched) instead of
/// O(vocab).
///
/// Tri-state: kClean (no writes), kSparse (writes confined to rows()), and
/// kDense (at least one whole-tensor write; row info is meaningless). Dense
/// absorbs sparse — once dense, MarkRows is a no-op until Clear(). The
/// invariant every writer must uphold: any write to tracked gradient storage
/// is announced via MarkRows or MarkDense. mutable_grad() marks dense by
/// default, so forgetting to use the sparse entry point costs speed, never
/// correctness.
class SparseRows {
 public:
  enum class State { kClean, kSparse, kDense };

  State state() const { return state_; }

  /// Touched rows in first-touch order, deduplicated. Meaningful while
  /// kSparse; retained (not cleared) by MarkDense so a reader that captured
  /// the state before a dense mark still sees a stable list.
  const std::vector<int>& rows() const { return rows_; }

  /// Records `ids` (each in [0, num_rows)) as touched. No-op when kDense.
  void MarkRows(const std::vector<int>& ids, int num_rows);

  /// Records a whole-tensor write.
  void MarkDense() { state_ = State::kDense; }

  /// Back to kClean. O(touched): resets only the membership bits listed in
  /// rows_, which is why MarkDense must leave rows_/membership intact.
  void Clear();

 private:
  State state_ = State::kClean;
  std::vector<uint8_t> member_;  // Per-row touched bit; sized lazily.
  std::vector<int> rows_;
};

/// One vertex of the reverse-mode autodiff tape. A Node owns its forward
/// value, a lazily-allocated gradient of the same shape, its parents, and a
/// closure that scatters this node's gradient into the parents' gradients.
///
/// Graphs are built eagerly by the free functions in autograd/ops.h; calling
/// Backward(root) runs a reverse topological sweep. Nodes are created fresh on
/// every forward pass — persistent state (trainable parameters) is modelled as
/// leaf nodes that the caller keeps alive across passes (see nn::Parameter).
/// On destruction a node returns its tensors to the destroying thread's
/// TensorPool, so the per-example graph churn of the training loop recycles
/// storage instead of hitting the allocator.
class Node {
 public:
  /// Creates a leaf (no parents). `requires_grad` marks trainable leaves.
  static NodePtr Leaf(Tensor value, bool requires_grad,
                      std::string name = "leaf");

  /// Creates an interior op node. `backward` receives this node after its
  /// gradient is final and must accumulate (+=) into each parent's
  /// mutable_grad() (or RowSparseGrad for row-confined scatters); it may be
  /// empty for non-differentiable ops.
  static NodePtr Op(std::string name, Tensor value,
                    std::vector<NodePtr> parents,
                    std::function<void(Node*)> backward);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;
  ~Node();

  const Tensor& value() const { return value_; }
  Tensor& mutable_value() { return value_; }

  /// Gradient tensor; allocated zero-filled on first access. The const form
  /// never marks the row tracker; mutable_grad() marks tracked leaves dense
  /// (any caller holding Tensor& can write anywhere).
  const Tensor& grad() const;
  Tensor& mutable_grad();

  /// Gradient access for writers that touch only rows `ids` of a rank-2
  /// tracked leaf (embedding scatter). Marks those rows instead of going
  /// dense; falls back to mutable_grad() for untracked nodes.
  Tensor& RowSparseGrad(const std::vector<int>& ids);

  /// Row tracker for this node's real gradient (not any sink buffer).
  const SparseRows& grad_rows() const { return grad_rows_; }
  void ClearGradRows() { grad_rows_.Clear(); }

  /// True if any leaf beneath this node is trainable.
  bool requires_grad() const { return requires_grad_; }

  const std::string& name() const { return name_; }
  const std::vector<NodePtr>& parents() const { return parents_; }

  /// Clears the gradient back to zeros (keeps allocation) and resets the row
  /// tracker.
  void ZeroGrad();

  /// Runs the backward closure; internal to Backward().
  void RunBackward();

 private:
  Node() = default;

  /// Trainable leaves are the nodes whose gradient writes are worth
  /// tracking: they persist across graphs and feed the optimizer.
  bool Tracked() const { return parents_.empty() && requires_grad_; }

  std::string name_;
  Tensor value_;
  mutable Tensor grad_;  // Lazily sized to match value_.
  SparseRows grad_rows_;
  bool requires_grad_ = false;
  std::vector<NodePtr> parents_;
  std::function<void(Node*)> backward_;
};

/// Redirects gradient accumulation for a fixed set of shared leaves
/// (trainable parameters) into private per-sink buffers, so several threads
/// can run Backward() over graphs that share parameter leaves without racing
/// on the leaves' gradients.
///
/// Usage (see core::Trainer): the coordinating thread creates one GradSink
/// per work chunk over the parameter set; each worker installs the chunk's
/// sink with GradSink::Scope for the duration of its forward/backward calls.
/// While a sink is installed on a thread, Node::grad()/mutable_grad() on a
/// registered leaf resolve to the sink's buffer — every backward closure
/// already funnels through mutable_grad(), so no op needs to know. After the
/// workers join, the coordinator calls MergeInto() on each sink in a fixed
/// chunk order; floating-point accumulation order is then a function of the
/// chunk layout alone, never of thread count or scheduling, which is what
/// makes training bitwise reproducible at any --num_threads.
///
/// Each buffer carries a SparseRows tracker mirroring the leaf-side one:
/// embedding scatters land in the buffer row-sparse, MergeInto()/Reset()
/// then visit only touched rows and propagate the row set onto the leaf.
class GradSink {
 public:
  /// Registers `leaves` (typically nn::ParameterSet::all()) for redirection.
  explicit GradSink(const std::vector<NodePtr>& leaves);

  GradSink(const GradSink&) = delete;
  GradSink& operator=(const GradSink&) = delete;

  /// True if gradient access to `leaf` is redirected by this sink.
  bool Redirects(const Node* leaf) const;

  /// Sink-private gradient buffer for a registered leaf, allocated
  /// zero-filled (matching the leaf's value shape) on first access.
  /// DenseBufferFor marks the buffer dense; RowSparseBufferFor marks `ids`;
  /// PeekBufferFor only ensures allocation (read-only callers).
  Tensor& DenseBufferFor(const Node* leaf);
  Tensor& RowSparseBufferFor(const Node* leaf, const std::vector<int>& ids);
  Tensor& PeekBufferFor(const Node* leaf);

  /// Adds every touched buffer into its leaf's real gradient, iterating
  /// leaves in registration order; row-sparse buffers merge only their
  /// touched rows. Must run on a thread with no sink installed (otherwise
  /// the write would be redirected right back).
  void MergeInto();

  /// Zero-fills the touched parts of the buffers (whole tensor for dense,
  /// touched rows for sparse) and clears the trackers, so the sink can be
  /// reused for the next chunk without reallocating.
  void Reset();

  /// The sink installed on the calling thread, or nullptr.
  static GradSink* Current();

  /// RAII installation of a sink as the calling thread's redirect target.
  class Scope {
   public:
    explicit Scope(GradSink* sink);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    GradSink* previous_;
  };

 private:
  Tensor& EnsureBuffer(int index);

  std::vector<NodePtr> leaves_;             // Registration order, for merging.
  std::vector<Tensor> buffers_;             // Parallel to leaves_; lazy.
  std::vector<SparseRows> trackers_;        // Parallel to buffers_.
  std::unordered_map<const Node*, int> index_;
};

/// Reverse-mode sweep from `root`, whose gradient is seeded with ones (so a
/// scalar loss gets d(loss)/d(loss)=1). Every reachable node with
/// requires_grad() receives its accumulated gradient.
void Backward(const NodePtr& root);

/// Convenience: the single element of a one-element node.
float ScalarValue(const NodePtr& node);

}  // namespace kddn::ag

#endif  // KDDN_AUTOGRAD_NODE_H_
