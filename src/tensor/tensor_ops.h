#ifndef KDDN_TENSOR_TENSOR_OPS_H_
#define KDDN_TENSOR_TENSOR_OPS_H_

#include <span>
#include <vector>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace kddn {

/// Which GEMM implementation the three MatMul entry points dispatch to.
///
///  - kAuto (default): the blocked SIMD kernels, selected once per process
///    by runtime CPU-feature detection (AVX2 > SSE2 > NEON, falling back to
///    the scalar lane-faithful reference; the KDDN_FORCE_SCALAR_GEMM
///    environment variable forces the fallback).
///  - kScalar: the scalar lane-faithful reference — plain C++ emulating the
///    identical canonical accumulation order, so its results are bitwise
///    equal to kAuto on every host, with or without the ISA.
enum class GemmKernel { kAuto, kScalar };

/// Sets the process-wide GEMM dispatch mode (atomic; default kAuto).
/// Intended for tests and benchmarks, not concurrent flipping mid-training.
void SetGemmKernel(GemmKernel kernel);
GemmKernel GetGemmKernel();

/// Lowercase name of the dispatch mode: "auto" or "scalar".
const char* GemmKernelName(GemmKernel kernel);

/// Name of the kernel set kAuto dispatches to on this host ("avx2", "sse2",
/// "neon", or "scalar"), resolved once per process. Surfaced through
/// `GET /v1/stats` and the microbench JSON so hosts report what they run.
const char* ActiveGemmIsa();

/// Opt-in GEMM wall-clock accounting. The training microbench uses this to
/// measure the GEMM share of a real run in situ: `simd_vs_scalar_speedup` in
/// BENCH_train.json is the ratio of accumulated GEMM nanoseconds between
/// kernel modes on the identical workload, undiluted by the non-GEMM epoch
/// cost. Disabled (the default) it costs one relaxed atomic load per matmul
/// — the same fast-path budget as a disabled trace span. Enabled it adds two
/// steady_clock reads around each dispatch (tens of ns against multi-µs
/// kernels). Counters are process-wide and atomically accumulated, so
/// concurrent matmuls from pool workers are counted correctly.
struct GemmTimingStats {
  uint64_t calls = 0;
  uint64_t total_ns = 0;
};
void SetGemmTimingEnabled(bool enabled);
void ResetGemmTiming();
GemmTimingStats GetGemmTiming();

/// Matrix product A[m,k] * B[k,n] -> [m,n].
Tensor MatMul(const Tensor& a, const Tensor& b);

/// A^T * B for A[k,m], B[k,n] -> [m,n] (without materialising A^T).
Tensor MatMulAtB(const Tensor& a, const Tensor& b);

/// A * B^T for A[m,k], B[n,k] -> [m,n] (without materialising B^T).
Tensor MatMulABt(const Tensor& a, const Tensor& b);

/// Destination-reusing variants: write the product into `*out`, reusing its
/// storage when the capacity fits (the shape is overwritten). Serving keeps
/// workspace tensors alive across requests and calls these so the hot path
/// never allocates. Results are bitwise identical to the allocating forms.
void MatMulInto(Tensor* out, const Tensor& a, const Tensor& b);
void MatMulAtBInto(Tensor* out, const Tensor& a, const Tensor& b);
void MatMulABtInto(Tensor* out, const Tensor& a, const Tensor& b);

/// Row-wise softmax of a rank-2 tensor (max-shifted, exp sum in double)
/// into `*out` (storage reused like MatMulInto).
void SoftmaxRowsInto(Tensor* out, const Tensor& a);

// Forward value kernels (DESIGN.md §9). Each stage of the BK-DDN / AK-DDN
// forward has exactly one: the autograd op computes its value through the
// kernel into a pooled tensor, and serve::FrozenModel calls the same kernel
// into its Workspace, so the two forwards are one arithmetic. The `Into`
// kernels reshape `*out` in place reusing its storage, as MatMulInto does;
// `out` must not alias an input.

/// Row gather (embedding lookup): out[i] = table[ids[i]], [len(ids), d].
void GatherRowsInto(Tensor* out, const Tensor& table,
                    const std::vector<int>& ids);

/// Zero-pads x[m, d] at the bottom to [min_rows, d]; requires m < min_rows.
void PadRowsInto(Tensor* out, const Tensor& x, int min_rows);

/// im2col for 1-D convolution: x[m, d] -> [m - width + 1, width * d], row j
/// being the flattened window x[j .. j + width). Requires m >= width.
void UnfoldInto(Tensor* out, const Tensor& x, int width);

/// Column concatenation [p0 | p1 | ...] of rank-2 parts of equal height.
void ConcatColsInto(Tensor* out, std::span<const Tensor* const> parts);

/// Adds row[n] to every row of a[m, n] in place (bias broadcast).
void AddRowBroadcastInPlace(Tensor* a, const Tensor& row);

/// In-place ReLU as the branchless select `x < 0 ? 0 : x`, so -0 and NaN
/// pass through unchanged.
void ReluInPlace(Tensor* a);

/// Max-over-time pooling of x[m, f] (m > 0) into out[0 .. f): each column's
/// rows swept in order, keeping a row only when it compares strictly `>`
/// the running maximum, so a tie keeps the first maximal row.
void MaxOverTime(const Tensor& x, float* out);

/// Softmax of rank-1 logits[n] into `*out` (max-shifted; the exp sum and the
/// normalising division run in double).
void SoftmaxInto(Tensor* out, const Tensor& logits);

/// Cross-entropy value of rank-1 softmax `probs` against `label`:
/// -log(max(probs[label], 1e-12)).
float CrossEntropyValue(const Tensor& probs, int label);

/// Matrix transpose of a rank-2 tensor.
Tensor Transpose(const Tensor& a);

/// Elementwise sum; shapes must match.
Tensor Add(const Tensor& a, const Tensor& b);

/// Elementwise difference; shapes must match.
Tensor Sub(const Tensor& a, const Tensor& b);

/// Elementwise (Hadamard) product; shapes must match.
Tensor Mul(const Tensor& a, const Tensor& b);

/// Scalar multiple.
Tensor Scale(const Tensor& a, float s);

/// In-place a += b; shapes must match.
void AddInPlace(Tensor* a, const Tensor& b);

/// In-place a += s * b; shapes must match.
void AxpyInPlace(Tensor* a, float s, const Tensor& b);

/// Sum of all elements.
float Sum(const Tensor& a);

/// Mean of all elements; tensor must be non-empty.
float Mean(const Tensor& a);

/// Largest element; tensor must be non-empty.
float MaxValue(const Tensor& a);

/// Squared L2 norm of all elements.
float SquaredNorm(const Tensor& a);

/// Max absolute elementwise difference between two same-shaped tensors.
float MaxAbsDiff(const Tensor& a, const Tensor& b);

/// Tensor with i.i.d. N(mean, stddev) entries.
Tensor RandomNormal(std::vector<int> shape, float mean, float stddev,
                    Rng* rng);

/// Tensor with i.i.d. Uniform[lo, hi) entries.
Tensor RandomUniform(std::vector<int> shape, float lo, float hi, Rng* rng);

}  // namespace kddn

#endif  // KDDN_TENSOR_TENSOR_OPS_H_
