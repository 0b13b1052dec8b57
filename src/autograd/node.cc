#include "autograd/node.h"

#include <unordered_set>

#include "common/check.h"
#include "tensor/tensor_pool.h"

namespace kddn::ag {
namespace {

thread_local GradSink* t_grad_sink = nullptr;

}  // namespace

void SparseRows::MarkRows(const std::vector<int>& ids, int num_rows) {
  if (state_ == State::kDense) {
    return;  // Dense absorbs row info.
  }
  state_ = State::kSparse;
  if (static_cast<int>(member_.size()) < num_rows) {
    member_.resize(static_cast<size_t>(num_rows), 0);
  }
  for (int id : ids) {
    KDDN_CHECK(id >= 0 && id < num_rows)
        << "SparseRows: row " << id << " out of range [0, " << num_rows << ")";
    if (!member_[id]) {
      member_[id] = 1;
      rows_.push_back(id);
    }
  }
}

void SparseRows::Clear() {
  for (int row : rows_) {
    member_[row] = 0;
  }
  rows_.clear();
  state_ = State::kClean;
}

GradSink::GradSink(const std::vector<NodePtr>& leaves) : leaves_(leaves) {
  buffers_.resize(leaves_.size());
  trackers_.resize(leaves_.size());
  index_.reserve(leaves_.size());
  for (size_t i = 0; i < leaves_.size(); ++i) {
    KDDN_CHECK(leaves_[i] != nullptr) << "null leaf registered with GradSink";
    index_.emplace(leaves_[i].get(), static_cast<int>(i));
  }
}

bool GradSink::Redirects(const Node* leaf) const {
  return index_.count(leaf) != 0;
}

Tensor& GradSink::EnsureBuffer(int index) {
  Tensor& buffer = buffers_[index];
  if (!buffer.SameShape(leaves_[index]->value())) {
    buffer = TensorPool::ThreadLocal().Acquire(leaves_[index]->value().shape());
  }
  return buffer;
}

Tensor& GradSink::DenseBufferFor(const Node* leaf) {
  const auto it = index_.find(leaf);
  KDDN_CHECK(it != index_.end()) << "DenseBufferFor on unregistered leaf";
  trackers_[it->second].MarkDense();
  return EnsureBuffer(it->second);
}

Tensor& GradSink::RowSparseBufferFor(const Node* leaf,
                                     const std::vector<int>& ids) {
  const auto it = index_.find(leaf);
  KDDN_CHECK(it != index_.end()) << "RowSparseBufferFor on unregistered leaf";
  trackers_[it->second].MarkRows(ids, leaf->value().dim(0));
  return EnsureBuffer(it->second);
}

Tensor& GradSink::PeekBufferFor(const Node* leaf) {
  const auto it = index_.find(leaf);
  KDDN_CHECK(it != index_.end()) << "PeekBufferFor on unregistered leaf";
  return EnsureBuffer(it->second);
}

void GradSink::MergeInto() {
  KDDN_CHECK(Current() != this)
      << "MergeInto while this sink is installed on the calling thread";
  for (size_t i = 0; i < leaves_.size(); ++i) {
    const SparseRows& tracker = trackers_[i];
    const Tensor& buffer = buffers_[i];
    switch (tracker.state()) {
      case SparseRows::State::kClean:
        // Never written this chunk: the buffer is all zeros (or not even
        // allocated) and merging zeros is an exact no-op, so skip it.
        break;
      case SparseRows::State::kSparse: {
        // Merge only the touched rows and hand the row set on to the leaf's
        // own tracker, so the optimizer step stays O(touched) too.
        Tensor& grad = leaves_[i]->RowSparseGrad(tracker.rows());
        const int cols = buffer.dim(1);
        const float* src = buffer.data();
        float* dst = grad.data();
        for (int row : tracker.rows()) {
          const float* srow = src + static_cast<int64_t>(row) * cols;
          float* drow = dst + static_cast<int64_t>(row) * cols;
          for (int j = 0; j < cols; ++j) {
            drow[j] += srow[j];
          }
        }
        break;
      }
      case SparseRows::State::kDense: {
        Tensor& grad = leaves_[i]->mutable_grad();
        const float* src = buffer.data();
        float* dst = grad.data();
        for (int64_t j = 0; j < grad.size(); ++j) {
          dst[j] += src[j];
        }
        break;
      }
    }
  }
}

void GradSink::Reset() {
  for (size_t i = 0; i < buffers_.size(); ++i) {
    SparseRows& tracker = trackers_[i];
    Tensor& buffer = buffers_[i];
    switch (tracker.state()) {
      case SparseRows::State::kClean:
        break;
      case SparseRows::State::kSparse: {
        // Untouched rows were never written, so they are still zero; only
        // the touched rows need re-zeroing.
        const int cols = buffer.dim(1);
        float* data = buffer.data();
        for (int row : tracker.rows()) {
          float* drow = data + static_cast<int64_t>(row) * cols;
          for (int j = 0; j < cols; ++j) {
            drow[j] = 0.0f;
          }
        }
        break;
      }
      case SparseRows::State::kDense:
        buffer.Fill(0.0f);
        break;
    }
    tracker.Clear();
  }
}

GradSink* GradSink::Current() { return t_grad_sink; }

GradSink::Scope::Scope(GradSink* sink) : previous_(t_grad_sink) {
  t_grad_sink = sink;
}

GradSink::Scope::~Scope() { t_grad_sink = previous_; }

NodePtr Node::Leaf(Tensor value, bool requires_grad, std::string name) {
  auto node = std::shared_ptr<Node>(new Node());
  node->name_ = std::move(name);
  node->value_ = std::move(value);
  node->requires_grad_ = requires_grad;
  return node;
}

NodePtr Node::Op(std::string name, Tensor value, std::vector<NodePtr> parents,
                 std::function<void(Node*)> backward) {
  auto node = std::shared_ptr<Node>(new Node());
  node->name_ = std::move(name);
  node->value_ = std::move(value);
  node->parents_ = std::move(parents);
  node->backward_ = std::move(backward);
  for (const NodePtr& parent : node->parents_) {
    KDDN_CHECK(parent != nullptr) << "null parent in op " << node->name_;
    node->requires_grad_ = node->requires_grad_ || parent->requires_grad();
  }
  return node;
}

Node::~Node() {
  // Per-example graphs churn through nodes; give the storage back to the
  // destroying thread's pool instead of the allocator.
  TensorPool& pool = TensorPool::ThreadLocal();
  pool.Recycle(std::move(value_));
  pool.Recycle(std::move(grad_));
}

const Tensor& Node::grad() const {
  if (GradSink* sink = t_grad_sink; sink != nullptr && sink->Redirects(this)) {
    return sink->PeekBufferFor(this);
  }
  if (!grad_.SameShape(value_)) {
    grad_ = TensorPool::ThreadLocal().Acquire(value_.shape());
  }
  return grad_;
}

Tensor& Node::mutable_grad() {
  if (GradSink* sink = t_grad_sink; sink != nullptr && sink->Redirects(this)) {
    return sink->DenseBufferFor(this);
  }
  if (Tracked()) {
    // The caller holds a mutable reference to the whole tensor, so assume
    // the worst; sparse writers use RowSparseGrad instead.
    grad_rows_.MarkDense();
  }
  if (!grad_.SameShape(value_)) {
    grad_ = TensorPool::ThreadLocal().Acquire(value_.shape());
  }
  return grad_;
}

Tensor& Node::RowSparseGrad(const std::vector<int>& ids) {
  if (!Tracked()) {
    return mutable_grad();
  }
  if (GradSink* sink = t_grad_sink; sink != nullptr && sink->Redirects(this)) {
    return sink->RowSparseBufferFor(this, ids);
  }
  grad_rows_.MarkRows(ids, value_.dim(0));
  if (!grad_.SameShape(value_)) {
    grad_ = TensorPool::ThreadLocal().Acquire(value_.shape());
  }
  return grad_;
}

void Node::ZeroGrad() {
  mutable_grad().Fill(0.0f);
  grad_rows_.Clear();
}

void Node::RunBackward() {
  if (backward_) {
    backward_(this);
  }
}

namespace {

/// Iterative post-order DFS producing a topological order (parents before
/// children in the returned vector; we then walk it in reverse).
void TopoSort(const NodePtr& root, std::vector<Node*>* order) {
  std::unordered_set<Node*> visited;
  struct Frame {
    NodePtr node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  if (visited.insert(root.get()).second) {
    stack.push_back({root, 0});
  }
  while (!stack.empty()) {
    Frame& frame = stack.back();
    const auto& parents = frame.node->parents();
    if (frame.next_parent < parents.size()) {
      const NodePtr& parent = parents[frame.next_parent++];
      if (visited.insert(parent.get()).second) {
        stack.push_back({parent, 0});
      }
    } else {
      order->push_back(frame.node.get());
      stack.pop_back();
    }
  }
}

}  // namespace

void Backward(const NodePtr& root) {
  KDDN_CHECK(root != nullptr);
  std::vector<Node*> order;
  TopoSort(root, &order);
  // Interior nodes belong to this graph only, so their gradients are reset
  // here; leaf gradients are deliberately left alone so that trainable
  // parameters accumulate across the per-example graphs of a minibatch (the
  // optimizer zeroes them after each step). The const grad() accessor
  // ensures allocation without marking the row tracker dense.
  for (Node* node : order) {
    if (!node->parents().empty()) {
      node->ZeroGrad();
    } else {
      node->grad();  // Ensure allocation for accumulation.
    }
  }
  root->mutable_grad().Fill(1.0f);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if ((*it)->requires_grad()) {
      (*it)->RunBackward();
    }
  }
}

float ScalarValue(const NodePtr& node) {
  KDDN_CHECK(node != nullptr);
  KDDN_CHECK_EQ(node->value().size(), 1)
      << "ScalarValue on non-scalar node " << node->name();
  return node->value()[0];
}

}  // namespace kddn::ag
