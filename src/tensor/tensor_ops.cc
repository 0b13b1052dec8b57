#include "tensor/tensor_ops.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>

#include "common/check.h"
#include "common/trace.h"
#include "tensor/gemm.h"
#include "tensor/tensor_pool.h"

namespace kddn {
namespace {

void CheckRank2(const Tensor& t, const char* name) {
  KDDN_CHECK_EQ(t.rank(), 2) << name << " must be rank-2, got "
                             << t.ShapeString();
}

void CheckSameShape(const Tensor& a, const Tensor& b, const char* op) {
  KDDN_CHECK(a.SameShape(b)) << op << ": shape mismatch " << a.ShapeString()
                             << " vs " << b.ShapeString();
}

std::atomic<GemmKernel> g_gemm_kernel{GemmKernel::kAuto};

using GemmFn = detail::GemmFn;

std::atomic<bool> g_gemm_timing_enabled{false};
std::atomic<uint64_t> g_gemm_timing_calls{0};
std::atomic<uint64_t> g_gemm_timing_ns{0};

/// Runs `fn` over all m output rows on the calling thread (parallelism lives
/// one level up, in the job graphs that call the kernels). C must already be
/// zero-filled (the kernels accumulate).
void DispatchGemm(GemmFn fn, const float* a, const float* b, float* c, int m,
                  int k, int n) {
  KDDN_TRACE_SPAN("gemm.block");
  const bool timing = g_gemm_timing_enabled.load(std::memory_order_relaxed);
  const auto start = timing ? std::chrono::steady_clock::now()
                            : std::chrono::steady_clock::time_point();
  fn(a, b, c, m, k, n);
  if (timing) {
    const auto elapsed = std::chrono::steady_clock::now() - start;
    g_gemm_timing_calls.fetch_add(1, std::memory_order_relaxed);
    g_gemm_timing_ns.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count(),
        std::memory_order_relaxed);
  }
}

GemmFn PickNN() {
  switch (g_gemm_kernel.load(std::memory_order_relaxed)) {
    case GemmKernel::kScalar:
      return detail::GemmNNScalar;
    case GemmKernel::kAuto:
      break;
  }
  return detail::ActiveGemmImpl().nn;
}

GemmFn PickTN() {
  switch (g_gemm_kernel.load(std::memory_order_relaxed)) {
    case GemmKernel::kScalar:
      return detail::GemmTNScalar;
    case GemmKernel::kAuto:
      break;
  }
  return detail::ActiveGemmImpl().tn;
}

GemmFn PickNT() {
  switch (g_gemm_kernel.load(std::memory_order_relaxed)) {
    case GemmKernel::kScalar:
      return detail::GemmNTScalar;
    case GemmKernel::kAuto:
      break;
  }
  return detail::ActiveGemmImpl().nt;
}

/// Reshapes `*out` to `shape` reusing its storage; the contents are
/// unspecified afterwards. Once a workspace tensor has grown to a workload's
/// high-water size, shape changes stop allocating.
void ReshapeOut(Tensor* out, std::vector<int> shape) {
  KDDN_CHECK(out != nullptr);
  *out = Tensor::AdoptStorage(std::move(shape), std::move(*out).TakeStorage());
}

/// ReshapeOut, then zero-fill ready for an accumulating GEMM kernel.
void PrepareOut(Tensor* out, std::vector<int> shape) {
  ReshapeOut(out, std::move(shape));
  out->Fill(0.0f);
}

struct MatMulDims {
  int m, k, n;
};

MatMulDims CheckMatMul(const Tensor& a, const Tensor& b) {
  CheckRank2(a, "MatMul lhs");
  CheckRank2(b, "MatMul rhs");
  KDDN_CHECK_EQ(a.dim(1), b.dim(0))
      << "MatMul inner-dimension mismatch " << a.ShapeString() << " * "
      << b.ShapeString();
  return {a.dim(0), a.dim(1), b.dim(1)};
}

MatMulDims CheckMatMulAtB(const Tensor& a, const Tensor& b) {
  CheckRank2(a, "MatMulAtB lhs");
  CheckRank2(b, "MatMulAtB rhs");
  KDDN_CHECK_EQ(a.dim(0), b.dim(0))
      << "MatMulAtB shared-dimension mismatch " << a.ShapeString() << " vs "
      << b.ShapeString();
  return {a.dim(1), a.dim(0), b.dim(1)};
}

MatMulDims CheckMatMulABt(const Tensor& a, const Tensor& b) {
  CheckRank2(a, "MatMulABt lhs");
  CheckRank2(b, "MatMulABt rhs");
  KDDN_CHECK_EQ(a.dim(1), b.dim(1))
      << "MatMulABt shared-dimension mismatch " << a.ShapeString() << " vs "
      << b.ShapeString();
  return {a.dim(0), a.dim(1), b.dim(0)};
}

}  // namespace

void SetGemmKernel(GemmKernel kernel) {
  g_gemm_kernel.store(kernel, std::memory_order_relaxed);
}

GemmKernel GetGemmKernel() {
  return g_gemm_kernel.load(std::memory_order_relaxed);
}

const char* GemmKernelName(GemmKernel kernel) {
  switch (kernel) {
    case GemmKernel::kScalar:
      return "scalar";
    case GemmKernel::kAuto:
      break;
  }
  return "auto";
}

const char* ActiveGemmIsa() { return detail::GemmIsaName(); }

void SetGemmTimingEnabled(bool enabled) {
  g_gemm_timing_enabled.store(enabled, std::memory_order_relaxed);
}

void ResetGemmTiming() {
  g_gemm_timing_calls.store(0, std::memory_order_relaxed);
  g_gemm_timing_ns.store(0, std::memory_order_relaxed);
}

GemmTimingStats GetGemmTiming() {
  return {g_gemm_timing_calls.load(std::memory_order_relaxed),
          g_gemm_timing_ns.load(std::memory_order_relaxed)};
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  const MatMulDims d = CheckMatMul(a, b);
  Tensor out = TensorPool::ThreadLocal().Acquire({d.m, d.n});
  DispatchGemm(PickNN(), a.data(), b.data(), out.data(), d.m, d.k, d.n);
  return out;
}

Tensor MatMulAtB(const Tensor& a, const Tensor& b) {
  const MatMulDims d = CheckMatMulAtB(a, b);
  Tensor out = TensorPool::ThreadLocal().Acquire({d.m, d.n});
  DispatchGemm(PickTN(), a.data(), b.data(), out.data(), d.m, d.k, d.n);
  return out;
}

Tensor MatMulABt(const Tensor& a, const Tensor& b) {
  const MatMulDims d = CheckMatMulABt(a, b);
  Tensor out = TensorPool::ThreadLocal().Acquire({d.m, d.n});
  DispatchGemm(PickNT(), a.data(), b.data(), out.data(), d.m, d.k, d.n);
  return out;
}

void MatMulInto(Tensor* out, const Tensor& a, const Tensor& b) {
  const MatMulDims d = CheckMatMul(a, b);
  KDDN_CHECK(out != &a && out != &b) << "MatMulInto: out aliases an input";
  PrepareOut(out, {d.m, d.n});
  DispatchGemm(PickNN(), a.data(), b.data(), out->data(), d.m, d.k, d.n);
}

void MatMulAtBInto(Tensor* out, const Tensor& a, const Tensor& b) {
  const MatMulDims d = CheckMatMulAtB(a, b);
  KDDN_CHECK(out != &a && out != &b) << "MatMulAtBInto: out aliases an input";
  PrepareOut(out, {d.m, d.n});
  DispatchGemm(PickTN(), a.data(), b.data(), out->data(), d.m, d.k, d.n);
}

void MatMulABtInto(Tensor* out, const Tensor& a, const Tensor& b) {
  const MatMulDims d = CheckMatMulABt(a, b);
  KDDN_CHECK(out != &a && out != &b) << "MatMulABtInto: out aliases an input";
  PrepareOut(out, {d.m, d.n});
  DispatchGemm(PickNT(), a.data(), b.data(), out->data(), d.m, d.k, d.n);
}

Tensor Transpose(const Tensor& a) {
  CheckRank2(a, "Transpose");
  const int m = a.dim(0), n = a.dim(1);
  // Every element is written below, so uninitialised storage is safe.
  Tensor out = TensorPool::ThreadLocal().AcquireUninit({n, m});
  const float* ap = a.data();
  float* op = out.data();
  // Pure data movement: there is no accumulation here, so the lane-split
  // order contract is vacuous and any vectorisation is trivially bitwise-
  // safe — the compiler's auto-vectoriser is free to (and does) use it.
  // Square tiling keeps one side of the scattered accesses cache-resident;
  // 32x32 float tiles are 4 KiB from each matrix.
  constexpr int kTile = 32;
  for (int ib = 0; ib < m; ib += kTile) {
    const int iend = std::min(m, ib + kTile);
    for (int jb = 0; jb < n; jb += kTile) {
      const int jend = std::min(n, jb + kTile);
      for (int i = ib; i < iend; ++i) {
        const float* arow = ap + static_cast<int64_t>(i) * n;
        for (int j = jb; j < jend; ++j) {
          op[static_cast<int64_t>(j) * m + i] = arow[j];
        }
      }
    }
  }
  return out;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Add");
  Tensor out = TensorPool::ThreadLocal().AcquireCopy(a);
  AddInPlace(&out, b);
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Sub");
  Tensor out = TensorPool::ThreadLocal().AcquireCopy(a);
  float* op = out.data();
  const float* bp = b.data();
  for (int64_t i = 0; i < out.size(); ++i) {
    op[i] -= bp[i];
  }
  return out;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Mul");
  Tensor out = TensorPool::ThreadLocal().AcquireCopy(a);
  float* op = out.data();
  const float* bp = b.data();
  for (int64_t i = 0; i < out.size(); ++i) {
    op[i] *= bp[i];
  }
  return out;
}

Tensor Scale(const Tensor& a, float s) {
  Tensor out = TensorPool::ThreadLocal().AcquireCopy(a);
  float* op = out.data();
  for (int64_t i = 0; i < out.size(); ++i) {
    op[i] *= s;
  }
  return out;
}

void AddInPlace(Tensor* a, const Tensor& b) {
  CheckSameShape(*a, b, "AddInPlace");
  float* ap = a->data();
  const float* bp = b.data();
  for (int64_t i = 0; i < a->size(); ++i) {
    ap[i] += bp[i];
  }
}

void AxpyInPlace(Tensor* a, float s, const Tensor& b) {
  CheckSameShape(*a, b, "AxpyInPlace");
  float* ap = a->data();
  const float* bp = b.data();
  for (int64_t i = 0; i < a->size(); ++i) {
    ap[i] += s * bp[i];
  }
}

float Sum(const Tensor& a) {
  double acc = 0.0;
  const float* ap = a.data();
  for (int64_t i = 0; i < a.size(); ++i) {
    acc += ap[i];
  }
  return static_cast<float>(acc);
}

float Mean(const Tensor& a) {
  KDDN_CHECK_GT(a.size(), 0) << "Mean of empty tensor";
  return Sum(a) / static_cast<float>(a.size());
}

float MaxValue(const Tensor& a) {
  KDDN_CHECK_GT(a.size(), 0) << "MaxValue of empty tensor";
  return *std::max_element(a.data(), a.data() + a.size());
}

// Deliberately scalar — not routed through the GEMM lane-split helpers
// (DESIGN.md §9). The row max is a sequential std::max chain whose NaN
// semantics (first operand wins) differ from vector min/max lane rules, so a
// lane-split max is not bitwise-safe in general; and the exp sum accumulates
// in double precision, where an 8-way float-style lane split would change
// both the type and the rounding of every partial. Neither loop is on the
// GEMM-dominated hot path: exp() dwarfs both.
void SoftmaxRowsInto(Tensor* out, const Tensor& a) {
  CheckRank2(a, "SoftmaxRows");
  const int m = a.dim(0), n = a.dim(1);
  KDDN_CHECK_GT(n, 0) << "SoftmaxRows over zero-width rows";
  KDDN_CHECK(out != &a) << "SoftmaxRowsInto: out aliases the input";
  ReshapeOut(out, {m, n});
  const float* ap = a.data();
  float* op = out->data();
  for (int i = 0; i < m; ++i) {
    const float* arow = ap + static_cast<int64_t>(i) * n;
    float* orow = op + static_cast<int64_t>(i) * n;
    float row_max = arow[0];
    for (int j = 1; j < n; ++j) {
      row_max = std::max(row_max, arow[j]);
    }
    double total = 0.0;
    for (int j = 0; j < n; ++j) {
      const float e = std::exp(arow[j] - row_max);
      orow[j] = e;
      total += e;
    }
    const float inv = static_cast<float>(1.0 / total);
    for (int j = 0; j < n; ++j) {
      orow[j] *= inv;
    }
  }
}

void GatherRowsInto(Tensor* out, const Tensor& table,
                    const std::vector<int>& ids) {
  CheckRank2(table, "embedding table");
  KDDN_CHECK(!ids.empty()) << "GatherRows with empty id list";
  KDDN_CHECK(out != &table) << "GatherRowsInto: out aliases the table";
  const int vocab = table.dim(0), d = table.dim(1);
  ReshapeOut(out, {static_cast<int>(ids.size()), d});
  for (size_t i = 0; i < ids.size(); ++i) {
    const int id = ids[i];
    KDDN_CHECK(id >= 0 && id < vocab)
        << "embedding id " << id << " out of range [0," << vocab << ")";
    std::copy_n(table.data() + static_cast<int64_t>(id) * d, d,
                out->data() + static_cast<int64_t>(i) * d);
  }
}

void PadRowsInto(Tensor* out, const Tensor& x, int min_rows) {
  CheckRank2(x, "PadRows input");
  KDDN_CHECK_LT(x.dim(0), min_rows) << "PadRows: nothing to pad";
  KDDN_CHECK(out != &x) << "PadRowsInto: out aliases the input";
  ReshapeOut(out, {min_rows, x.dim(1)});
  // Rows [0, m) are the input, contiguous in both tensors; the tail is zero.
  float* tail = std::copy_n(x.data(), x.size(), out->data());
  std::fill(tail, out->data() + out->size(), 0.0f);
}

void UnfoldInto(Tensor* out, const Tensor& x, int width) {
  CheckRank2(x, "Unfold input");
  KDDN_CHECK_GT(width, 0);
  const int m = x.dim(0), d = x.dim(1);
  KDDN_CHECK_GE(m, width) << "Unfold: " << m << " rows < width " << width
                          << " (pad first)";
  KDDN_CHECK(out != &x) << "UnfoldInto: out aliases the input";
  const int windows = m - width + 1;
  const int64_t window_size = static_cast<int64_t>(width) * d;
  ReshapeOut(out, {windows, static_cast<int>(window_size)});
  // Window j is the contiguous input rows [j, j + width).
  for (int j = 0; j < windows; ++j) {
    std::copy_n(x.data() + static_cast<int64_t>(j) * d, window_size,
                out->data() + j * window_size);
  }
}

void ConcatColsInto(Tensor* out, std::span<const Tensor* const> parts) {
  KDDN_CHECK(!parts.empty()) << "ConcatCols of zero parts";
  const int rows = parts[0]->dim(0);
  int total_cols = 0;
  for (const Tensor* part : parts) {
    CheckRank2(*part, "ConcatCols part");
    KDDN_CHECK_EQ(part->dim(0), rows) << "Concat(axis=1) height mismatch";
    KDDN_CHECK(out != part) << "ConcatColsInto: out aliases a part";
    total_cols += part->dim(1);
  }
  ReshapeOut(out, {rows, total_cols});
  float* dst = out->data();
  for (int i = 0; i < rows; ++i) {
    for (const Tensor* part : parts) {
      const int cols = part->dim(1);
      dst = std::copy_n(part->data() + static_cast<int64_t>(i) * cols, cols,
                        dst);
    }
  }
}

void AddRowBroadcastInPlace(Tensor* a, const Tensor& row) {
  CheckRank2(*a, "AddRowBroadcast input");
  KDDN_CHECK_EQ(row.rank(), 1) << "AddRowBroadcast row must be rank-1";
  const int m = a->dim(0), n = a->dim(1);
  KDDN_CHECK_EQ(n, row.dim(0)) << "AddRowBroadcast width mismatch";
  float* ap = a->data();
  const float* rp = row.data();
  for (int i = 0; i < m; ++i) {
    float* arow = ap + static_cast<int64_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      arow[j] += rp[j];
    }
  }
}

void ReluInPlace(Tensor* a) {
  // A select, not `if (x < 0) x = 0`: the same bits for every input, but
  // about half of a feature map is negative, so the branch would mispredict.
  float* ap = a->data();
  for (int64_t i = 0; i < a->size(); ++i) {
    ap[i] = ap[i] < 0.0f ? 0.0f : ap[i];
  }
}

void MaxOverTime(const Tensor& x, float* out) {
  CheckRank2(x, "MaxOverTime input");
  const int m = x.dim(0), f = x.dim(1);
  KDDN_CHECK_GT(m, 0) << "MaxOverTime over zero rows";
  // One column at a time with the running maximum in a local: the select
  // compiles to a max instruction, with no branch to mispredict and no store
  // that could alias the input.
  const float* xp = x.data();
  for (int j = 0; j < f; ++j) {
    float best = xp[j];
    for (int i = 1; i < m; ++i) {
      const float v = xp[static_cast<int64_t>(i) * f + j];
      best = v > best ? v : best;
    }
    out[j] = best;
  }
}

void SoftmaxInto(Tensor* out, const Tensor& logits) {
  KDDN_CHECK_EQ(logits.rank(), 1) << "Softmax wants rank-1 logits";
  const int n = logits.dim(0);
  KDDN_CHECK_GT(n, 0) << "Softmax over zero logits";
  KDDN_CHECK(out != &logits) << "SoftmaxInto: out aliases the logits";
  ReshapeOut(out, {n});
  const float* lp = logits.data();
  float* op = out->data();
  float max_logit = lp[0];
  for (int j = 1; j < n; ++j) {
    max_logit = std::max(max_logit, lp[j]);
  }
  double total = 0.0;
  for (int j = 0; j < n; ++j) {
    op[j] = std::exp(lp[j] - max_logit);
    total += op[j];
  }
  for (int j = 0; j < n; ++j) {
    op[j] = static_cast<float>(op[j] / total);
  }
}

float CrossEntropyValue(const Tensor& probs, int label) {
  KDDN_CHECK(label >= 0 && label < probs.size())
      << "label " << label << " out of range for " << probs.size()
      << " classes";
  return -std::log(std::max(probs[label], 1e-12f));
}

float SquaredNorm(const Tensor& a) {
  double acc = 0.0;
  const float* ap = a.data();
  for (int64_t i = 0; i < a.size(); ++i) {
    acc += static_cast<double>(ap[i]) * ap[i];
  }
  return static_cast<float>(acc);
}

float MaxAbsDiff(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "MaxAbsDiff");
  float worst = 0.0f;
  const float* ap = a.data();
  const float* bp = b.data();
  for (int64_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::fabs(ap[i] - bp[i]));
  }
  return worst;
}

Tensor RandomNormal(std::vector<int> shape, float mean, float stddev,
                    Rng* rng) {
  KDDN_CHECK(rng != nullptr);
  Tensor out(std::move(shape));
  float* op = out.data();
  for (int64_t i = 0; i < out.size(); ++i) {
    op[i] = static_cast<float>(rng->Normal(mean, stddev));
  }
  return out;
}

Tensor RandomUniform(std::vector<int> shape, float lo, float hi, Rng* rng) {
  KDDN_CHECK(rng != nullptr);
  Tensor out(std::move(shape));
  float* op = out.data();
  for (int64_t i = 0; i < out.size(); ++i) {
    op[i] = static_cast<float>(rng->Uniform(lo, hi));
  }
  return out;
}

}  // namespace kddn
