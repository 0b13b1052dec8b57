#include "autograd/ops.h"

#include <cmath>
#include <memory>

#include "common/check.h"
#include "tensor/tensor_ops.h"
#include "tensor/tensor_pool.h"

namespace kddn::ag {
namespace {

const Tensor& Val(const NodePtr& n) { return n->value(); }

}  // namespace

NodePtr Add(const NodePtr& a, const NodePtr& b) {
  Tensor out = kddn::Add(Val(a), Val(b));
  return Node::Op("add", std::move(out), {a, b}, [](Node* self) {
    for (const NodePtr& parent : self->parents()) {
      if (parent->requires_grad()) {
        AddInPlace(&parent->mutable_grad(), self->grad());
      }
    }
  });
}

NodePtr Sub(const NodePtr& a, const NodePtr& b) {
  Tensor out = kddn::Sub(Val(a), Val(b));
  return Node::Op("sub", std::move(out), {a, b}, [](Node* self) {
    const NodePtr& a = self->parents()[0];
    const NodePtr& b = self->parents()[1];
    if (a->requires_grad()) {
      AddInPlace(&a->mutable_grad(), self->grad());
    }
    if (b->requires_grad()) {
      AxpyInPlace(&b->mutable_grad(), -1.0f, self->grad());
    }
  });
}

NodePtr Mul(const NodePtr& a, const NodePtr& b) {
  Tensor out = kddn::Mul(Val(a), Val(b));
  return Node::Op("mul", std::move(out), {a, b}, [](Node* self) {
    const NodePtr& a = self->parents()[0];
    const NodePtr& b = self->parents()[1];
    if (a->requires_grad()) {
      AddInPlace(&a->mutable_grad(), kddn::Mul(self->grad(), b->value()));
    }
    if (b->requires_grad()) {
      AddInPlace(&b->mutable_grad(), kddn::Mul(self->grad(), a->value()));
    }
  });
}

NodePtr Scale(const NodePtr& a, float s) {
  Tensor out = kddn::Scale(Val(a), s);
  return Node::Op("scale", std::move(out), {a}, [s](Node* self) {
    const NodePtr& a = self->parents()[0];
    if (a->requires_grad()) {
      AxpyInPlace(&a->mutable_grad(), s, self->grad());
    }
  });
}

NodePtr MatMul(const NodePtr& a, const NodePtr& b) {
  Tensor out = kddn::MatMul(Val(a), Val(b));
  return Node::Op("matmul", std::move(out), {a, b}, [](Node* self) {
    const NodePtr& a = self->parents()[0];
    const NodePtr& b = self->parents()[1];
    if (a->requires_grad()) {
      AddInPlace(&a->mutable_grad(), kddn::MatMulABt(self->grad(), b->value()));
    }
    if (b->requires_grad()) {
      AddInPlace(&b->mutable_grad(), kddn::MatMulAtB(a->value(), self->grad()));
    }
  });
}

NodePtr MatMulABt(const NodePtr& a, const NodePtr& b) {
  Tensor out = kddn::MatMulABt(Val(a), Val(b));
  return Node::Op("matmul_abt", std::move(out), {a, b}, [](Node* self) {
    const NodePtr& a = self->parents()[0];
    const NodePtr& b = self->parents()[1];
    // out = A B^T, so dA = dOut * B and dB = dOut^T * A.
    if (a->requires_grad()) {
      AddInPlace(&a->mutable_grad(), kddn::MatMul(self->grad(), b->value()));
    }
    if (b->requires_grad()) {
      AddInPlace(&b->mutable_grad(), kddn::MatMulAtB(self->grad(), a->value()));
    }
  });
}

NodePtr Transpose(const NodePtr& a) {
  Tensor out = kddn::Transpose(Val(a));
  return Node::Op("transpose", std::move(out), {a}, [](Node* self) {
    const NodePtr& a = self->parents()[0];
    if (a->requires_grad()) {
      AddInPlace(&a->mutable_grad(), kddn::Transpose(self->grad()));
    }
  });
}

NodePtr Relu(const NodePtr& a) {
  Tensor out = TensorPool::ThreadLocal().AcquireCopy(Val(a));
  kddn::ReluInPlace(&out);
  return Node::Op("relu", std::move(out), {a}, [](Node* self) {
    const NodePtr& a = self->parents()[0];
    if (!a->requires_grad()) {
      return;
    }
    Tensor& agrad = a->mutable_grad();
    const Tensor& upstream = self->grad();
    const Tensor& input = a->value();
    for (int64_t i = 0; i < input.size(); ++i) {
      if (input[i] > 0.0f) {
        agrad[i] += upstream[i];
      }
    }
  });
}

NodePtr Tanh(const NodePtr& a) {
  Tensor out = TensorPool::ThreadLocal().AcquireCopy(Val(a));
  float* op = out.data();
  for (int64_t i = 0; i < out.size(); ++i) {
    op[i] = std::tanh(op[i]);
  }
  return Node::Op("tanh", std::move(out), {a}, [](Node* self) {
    const NodePtr& a = self->parents()[0];
    if (!a->requires_grad()) {
      return;
    }
    Tensor& agrad = a->mutable_grad();
    const Tensor& upstream = self->grad();
    const Tensor& y = self->value();
    for (int64_t i = 0; i < y.size(); ++i) {
      agrad[i] += upstream[i] * (1.0f - y[i] * y[i]);
    }
  });
}

NodePtr Sigmoid(const NodePtr& a) {
  Tensor out = TensorPool::ThreadLocal().AcquireCopy(Val(a));
  float* op = out.data();
  for (int64_t i = 0; i < out.size(); ++i) {
    op[i] = 1.0f / (1.0f + std::exp(-op[i]));
  }
  return Node::Op("sigmoid", std::move(out), {a}, [](Node* self) {
    const NodePtr& a = self->parents()[0];
    if (!a->requires_grad()) {
      return;
    }
    Tensor& agrad = a->mutable_grad();
    const Tensor& upstream = self->grad();
    const Tensor& y = self->value();
    for (int64_t i = 0; i < y.size(); ++i) {
      agrad[i] += upstream[i] * y[i] * (1.0f - y[i]);
    }
  });
}

NodePtr SliceRows(const NodePtr& x, int begin, int end) {
  const Tensor& v = x->value();
  KDDN_CHECK_EQ(v.rank(), 2) << "SliceRows input must be rank-2";
  KDDN_CHECK(begin >= 0 && begin < end && end <= v.dim(0))
      << "SliceRows range [" << begin << "," << end << ") out of "
      << v.ShapeString();
  const int cols = v.dim(1);
  Tensor out = TensorPool::ThreadLocal().AcquireUninit({end - begin, cols});
  for (int i = begin; i < end; ++i) {
    for (int j = 0; j < cols; ++j) {
      out.at(i - begin, j) = v.at(i, j);
    }
  }
  return Node::Op("slice_rows", std::move(out), {x},
                  [begin, end, cols](Node* self) {
                    const NodePtr& x = self->parents()[0];
                    if (!x->requires_grad()) {
                      return;
                    }
                    Tensor& dx = x->mutable_grad();
                    const Tensor& dy = self->grad();
                    for (int i = begin; i < end; ++i) {
                      for (int j = 0; j < cols; ++j) {
                        dx.at(i, j) += dy.at(i - begin, j);
                      }
                    }
                  });
}

NodePtr SoftmaxRows(const NodePtr& a) {
  Tensor out = TensorPool::ThreadLocal().AcquireUninit(Val(a).shape());
  kddn::SoftmaxRowsInto(&out, Val(a));
  return Node::Op("softmax_rows", std::move(out), {a}, [](Node* self) {
    const NodePtr& a = self->parents()[0];
    if (!a->requires_grad()) {
      return;
    }
    const Tensor& y = self->value();
    const Tensor& dy = self->grad();
    Tensor& dx = a->mutable_grad();
    const int m = y.dim(0), n = y.dim(1);
    for (int i = 0; i < m; ++i) {
      double dot = 0.0;
      for (int j = 0; j < n; ++j) {
        dot += static_cast<double>(dy.at(i, j)) * y.at(i, j);
      }
      for (int j = 0; j < n; ++j) {
        dx.at(i, j) +=
            y.at(i, j) * (dy.at(i, j) - static_cast<float>(dot));
      }
    }
  });
}

NodePtr Concat(const std::vector<NodePtr>& nodes, int axis) {
  KDDN_CHECK(!nodes.empty()) << "Concat of zero nodes";
  const int rank = nodes[0]->value().rank();
  KDDN_CHECK(rank == 1 || rank == 2) << "Concat supports rank 1 or 2";
  KDDN_CHECK(axis >= 0 && axis < rank) << "Concat axis out of range";
  for (const NodePtr& n : nodes) {
    KDDN_CHECK_EQ(n->value().rank(), rank) << "Concat rank mismatch";
  }

  Tensor out;
  if (rank == 1) {
    int total = 0;
    for (const NodePtr& n : nodes) {
      total += n->value().dim(0);
    }
    out = TensorPool::ThreadLocal().AcquireUninit({total});
    int offset = 0;
    for (const NodePtr& n : nodes) {
      const Tensor& v = n->value();
      for (int i = 0; i < v.dim(0); ++i) {
        out[offset + i] = v[i];
      }
      offset += v.dim(0);
    }
  } else if (axis == 0) {
    const int cols = nodes[0]->value().dim(1);
    int total_rows = 0;
    for (const NodePtr& n : nodes) {
      KDDN_CHECK_EQ(n->value().dim(1), cols) << "Concat(axis=0) width mismatch";
      total_rows += n->value().dim(0);
    }
    out = TensorPool::ThreadLocal().AcquireUninit({total_rows, cols});
    int row = 0;
    for (const NodePtr& n : nodes) {
      const Tensor& v = n->value();
      for (int i = 0; i < v.dim(0); ++i, ++row) {
        for (int j = 0; j < cols; ++j) {
          out.at(row, j) = v.at(i, j);
        }
      }
    }
  } else {
    std::vector<const Tensor*> parts;
    int total_cols = 0;
    for (const NodePtr& n : nodes) {
      parts.push_back(&n->value());
      total_cols += n->value().dim(1);
    }
    out = TensorPool::ThreadLocal().AcquireUninit(
        {nodes[0]->value().dim(0), total_cols});
    kddn::ConcatColsInto(&out, parts);
  }

  return Node::Op("concat", std::move(out), nodes, [axis, rank](Node* self) {
    const Tensor& dy = self->grad();
    if (rank == 1) {
      int offset = 0;
      for (const NodePtr& parent : self->parents()) {
        const int len = parent->value().dim(0);
        if (parent->requires_grad()) {
          Tensor& dp = parent->mutable_grad();
          for (int i = 0; i < len; ++i) {
            dp[i] += dy[offset + i];
          }
        }
        offset += len;
      }
    } else if (axis == 0) {
      int row = 0;
      for (const NodePtr& parent : self->parents()) {
        const int rows = parent->value().dim(0);
        const int cols = parent->value().dim(1);
        if (parent->requires_grad()) {
          Tensor& dp = parent->mutable_grad();
          for (int i = 0; i < rows; ++i) {
            for (int j = 0; j < cols; ++j) {
              dp.at(i, j) += dy.at(row + i, j);
            }
          }
        }
        row += rows;
      }
    } else {
      int col = 0;
      for (const NodePtr& parent : self->parents()) {
        const int rows = parent->value().dim(0);
        const int cols = parent->value().dim(1);
        if (parent->requires_grad()) {
          Tensor& dp = parent->mutable_grad();
          for (int i = 0; i < rows; ++i) {
            for (int j = 0; j < cols; ++j) {
              dp.at(i, j) += dy.at(i, col + j);
            }
          }
        }
        col += cols;
      }
    }
  });
}

NodePtr EmbeddingLookup(const NodePtr& table, const std::vector<int>& ids) {
  // One shared copy up front; the graph (closure) then only holds a pointer.
  return EmbeddingLookup(table, std::make_shared<const std::vector<int>>(ids));
}

NodePtr EmbeddingLookup(const NodePtr& table,
                        std::shared_ptr<const std::vector<int>> ids) {
  KDDN_CHECK(ids != nullptr) << "EmbeddingLookup with null id buffer";
  const Tensor& emb = Val(table);
  KDDN_CHECK_EQ(emb.rank(), 2) << "embedding table must be rank-2";
  const int d = emb.dim(1);
  Tensor out =
      TensorPool::ThreadLocal().AcquireUninit({static_cast<int>(ids->size()), d});
  kddn::GatherRowsInto(&out, emb, *ids);
  return Node::Op("embedding_lookup", std::move(out), {table},
                  [ids, d](Node* self) {
                    const NodePtr& table = self->parents()[0];
                    if (!table->requires_grad()) {
                      return;
                    }
                    // Row-sparse scatter: only the looked-up rows are
                    // touched, and the tracker is told exactly which.
                    Tensor& dtable = table->RowSparseGrad(*ids);
                    const Tensor& dy = self->grad();
                    for (size_t i = 0; i < ids->size(); ++i) {
                      float* dst =
                          dtable.data() + static_cast<int64_t>((*ids)[i]) * d;
                      const float* src =
                          dy.data() + static_cast<int64_t>(i) * d;
                      for (int j = 0; j < d; ++j) {
                        dst[j] += src[j];
                      }
                    }
                  });
}

NodePtr Unfold(const NodePtr& x, int width) {
  const Tensor& v = Val(x);
  KDDN_CHECK_EQ(v.rank(), 2) << "Unfold input must be rank-2";
  KDDN_CHECK_GT(width, 0);
  const int m = v.dim(0), d = v.dim(1);
  KDDN_CHECK_GE(m, width) << "Unfold: " << m << " rows < width " << width
                          << " (pad first)";
  Tensor out =
      TensorPool::ThreadLocal().AcquireUninit({m - width + 1, width * d});
  kddn::UnfoldInto(&out, v, width);
  return Node::Op("unfold", std::move(out), {x}, [width, d](Node* self) {
    const NodePtr& x = self->parents()[0];
    if (!x->requires_grad()) {
      return;
    }
    Tensor& dx = x->mutable_grad();
    const Tensor& dy = self->grad();
    const int windows = dy.dim(0);
    for (int j = 0; j < windows; ++j) {
      const float* src = dy.data() + static_cast<int64_t>(j) * width * d;
      float* dst = dx.data() + static_cast<int64_t>(j) * d;
      for (int t = 0; t < width * d; ++t) {
        dst[t] += src[t];
      }
    }
  });
}

NodePtr PadRows(const NodePtr& x, int min_rows) {
  const Tensor& v = Val(x);
  KDDN_CHECK_EQ(v.rank(), 2) << "PadRows input must be rank-2";
  const int m = v.dim(0), d = v.dim(1);
  if (m >= min_rows) {
    return x;
  }
  Tensor out = TensorPool::ThreadLocal().AcquireUninit({min_rows, d});
  kddn::PadRowsInto(&out, v, min_rows);
  return Node::Op("pad_rows", std::move(out), {x}, [m, d](Node* self) {
    const NodePtr& x = self->parents()[0];
    if (!x->requires_grad()) {
      return;
    }
    Tensor& dx = x->mutable_grad();
    const Tensor& dy = self->grad();
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < d; ++j) {
        dx.at(i, j) += dy.at(i, j);
      }
    }
  });
}

NodePtr MaxOverTime(const NodePtr& x) {
  const Tensor& v = Val(x);
  KDDN_CHECK_EQ(v.rank(), 2) << "MaxOverTime input must be rank-2";
  const int m = v.dim(0), f = v.dim(1);
  Tensor out = TensorPool::ThreadLocal().AcquireUninit({f});
  kddn::MaxOverTime(v, out.data());
  // The gradient goes to the row the sweep kept: the first row equal to the
  // maximum (an earlier row equal to it would have been kept instead), or
  // row 0 when the maximum is a NaN, which only a NaN in row 0 produces.
  auto argmax = std::make_shared<std::vector<int>>(f, 0);
  for (int j = 0; j < f; ++j) {
    for (int i = 0; i < m; ++i) {
      if (v.data()[static_cast<int64_t>(i) * f + j] == out[j]) {
        (*argmax)[j] = i;
        break;
      }
    }
  }
  return Node::Op("max_over_time", std::move(out), {x}, [argmax](Node* self) {
    const NodePtr& x = self->parents()[0];
    if (!x->requires_grad()) {
      return;
    }
    Tensor& dx = x->mutable_grad();
    const Tensor& dy = self->grad();
    const int f = dy.dim(0);
    for (int j = 0; j < f; ++j) {
      dx.at((*argmax)[j], j) += dy[j];
    }
  });
}

NodePtr MeanAll(const NodePtr& x) {
  Tensor out({1});
  out[0] = kddn::Mean(Val(x));
  const float inv = 1.0f / static_cast<float>(Val(x).size());
  return Node::Op("mean_all", std::move(out), {x}, [inv](Node* self) {
    const NodePtr& x = self->parents()[0];
    if (!x->requires_grad()) {
      return;
    }
    Tensor& dx = x->mutable_grad();
    const float g = self->grad()[0] * inv;
    for (int64_t i = 0; i < dx.size(); ++i) {
      dx[i] += g;
    }
  });
}

NodePtr SumAll(const NodePtr& x) {
  Tensor out({1});
  out[0] = kddn::Sum(Val(x));
  return Node::Op("sum_all", std::move(out), {x}, [](Node* self) {
    const NodePtr& x = self->parents()[0];
    if (!x->requires_grad()) {
      return;
    }
    Tensor& dx = x->mutable_grad();
    const float g = self->grad()[0];
    for (int64_t i = 0; i < dx.size(); ++i) {
      dx[i] += g;
    }
  });
}

NodePtr AddRowBroadcast(const NodePtr& x, const NodePtr& row) {
  Tensor out = TensorPool::ThreadLocal().AcquireCopy(Val(x));
  kddn::AddRowBroadcastInPlace(&out, Val(row));
  return Node::Op("add_row_broadcast", std::move(out), {x, row},
                  [](Node* self) {
                    const NodePtr& x = self->parents()[0];
                    const NodePtr& row = self->parents()[1];
                    const Tensor& dy = self->grad();
                    const int m = dy.dim(0), n = dy.dim(1);
                    if (x->requires_grad()) {
                      AddInPlace(&x->mutable_grad(), dy);
                    }
                    if (row->requires_grad()) {
                      Tensor& drow = row->mutable_grad();
                      for (int i = 0; i < m; ++i) {
                        for (int j = 0; j < n; ++j) {
                          drow[j] += dy.at(i, j);
                        }
                      }
                    }
                  });
}

NodePtr Reshape(const NodePtr& x, std::vector<int> shape) {
  Tensor out = Val(x).Reshape(shape);
  return Node::Op("reshape", std::move(out), {x}, [](Node* self) {
    const NodePtr& x = self->parents()[0];
    if (!x->requires_grad()) {
      return;
    }
    AddInPlace(&x->mutable_grad(),
               self->grad().Reshape(x->value().shape()));
  });
}

NodePtr Dropout(const NodePtr& x, float rate, bool training, Rng* rng) {
  KDDN_CHECK(rate >= 0.0f && rate < 1.0f) << "dropout rate must be in [0,1)";
  if (!training || rate == 0.0f) {
    return x;
  }
  KDDN_CHECK(rng != nullptr) << "training-mode dropout needs an Rng";
  const Tensor& v = Val(x);
  const float keep = 1.0f - rate;
  const float inv_keep = 1.0f / keep;
  auto mask = std::make_shared<std::vector<float>>(v.size(), 0.0f);
  Tensor out = TensorPool::ThreadLocal().AcquireCopy(v);
  for (int64_t i = 0; i < out.size(); ++i) {
    if (rng->Bernoulli(keep)) {
      (*mask)[i] = inv_keep;
      out[i] *= inv_keep;
    } else {
      out[i] = 0.0f;
    }
  }
  return Node::Op("dropout", std::move(out), {x}, [mask](Node* self) {
    const NodePtr& x = self->parents()[0];
    if (!x->requires_grad()) {
      return;
    }
    Tensor& dx = x->mutable_grad();
    const Tensor& dy = self->grad();
    for (int64_t i = 0; i < dx.size(); ++i) {
      dx[i] += dy[i] * (*mask)[i];
    }
  });
}

NodePtr SoftmaxCrossEntropy(const NodePtr& logits, int label) {
  const Tensor& v = Val(logits);
  KDDN_CHECK_EQ(v.rank(), 1) << "SoftmaxCrossEntropy wants rank-1 logits";
  // The probabilities are recomputed in backward rather than captured: the
  // softmax of the unchanged logits is the same bits, and both copies come
  // from and return to the tensor pool.
  TensorPool& pool = TensorPool::ThreadLocal();
  Tensor probs = pool.AcquireUninit(v.shape());
  kddn::SoftmaxInto(&probs, v);
  Tensor out({1});
  out[0] = kddn::CrossEntropyValue(probs, label);
  pool.Recycle(std::move(probs));
  return Node::Op("softmax_xent", std::move(out), {logits}, [label](Node* self) {
    const NodePtr& logits = self->parents()[0];
    if (!logits->requires_grad()) {
      return;
    }
    TensorPool& pool = TensorPool::ThreadLocal();
    Tensor probs = pool.AcquireUninit(logits->value().shape());
    kddn::SoftmaxInto(&probs, logits->value());
    Tensor& dx = logits->mutable_grad();
    const float g = self->grad()[0];
    for (int64_t j = 0; j < probs.size(); ++j) {
      const float target = (j == label) ? 1.0f : 0.0f;
      dx[j] += g * (probs[j] - target);
    }
    pool.Recycle(std::move(probs));
  });
}

}  // namespace kddn::ag
