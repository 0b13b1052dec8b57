#ifndef KDDN_TENSOR_GEMM_H_
#define KDDN_TENSOR_GEMM_H_

#include "common/cpu_features.h"

namespace kddn::detail {

/// SIMD and scalar GEMM micro-kernels behind MatMul / MatMulAtB / MatMulABt.
///
/// Contracts shared by every kernel here:
///  - C is row-major [m, n] and must be zero-initialised; kernels accumulate.
///  - Each output element's floating-point accumulation order is a fixed
///    property of the *shape and matmul form* — never of the ISA, the thread
///    count, or the schedule. That is the repo's bitwise-determinism contract
///    (DESIGN.md §9); it is what lets the AVX2/SSE2/NEON kernels, the scalar
///    lane-faithful reference, and every thread count produce identical bits.
///
/// The canonical per-element accumulation order:
///  - k is processed in ascending chunks of kGemmKc (the cache-resident
///    panel); chunk contributions reach C in ascending-chunk order.
///  - NN (A*B) and TN (A^T*B) stream B rows, so vector lanes cover
///    *output columns*: every C element keeps a single running value updated
///    in ascending-k order within each chunk — lane l of a vector is a
///    distinct output element, and vectorisation never touches any element's
///    chain. The scalar kernels ARE the canonical order here.
///  - NT (A*B^T) reduces *along* k, so its canonical order is a fixed
///    lane-split: within a chunk, chunk-local index t contributes to partial
///    sum lane (t % kGemmLanes); the kGemmLanes partials are then combined by
///    the fixed tree TreeReduce8 below and the tree total is added to the
///    running C value. A width-8 SIMD loop reproduces this exactly; 4-lane
///    ISAs (SSE2, NEON) use register pairs so the 8-lane split is identical.
///
/// No kernel uses fused multiply-add: `acc + a*b` is always two IEEE-rounded
/// operations, which is what makes scalar and vector lanes bit-equal (an FMA
/// would skip the intermediate rounding; NEON's vmlaq fuses and must not be
/// used). Likewise there is no data-dependent branching in the hot kernels.

/// k-extent of one cache-resident panel chunk.
inline constexpr int kGemmKc = 256;
/// C-row micro-block (rows sharing one streamed B vector).
inline constexpr int kGemmMr = 4;
/// C-column micro-block of the A*B^T dot kernel.
inline constexpr int kGemmNr = 4;
/// Lane count of the canonical k-split in the NT form. A compile-time
/// constant on every ISA and host — part of the determinism contract, so it
/// must never be derived from the vector width the host happens to have.
inline constexpr int kGemmLanes = 8;
static_assert((kGemmLanes & (kGemmLanes - 1)) == 0,
              "lane masking in the kernels requires a power of two");

/// The canonical combine tree over the kGemmLanes NT partial sums:
///   ((l0+l4) + (l2+l6)) + ((l1+l5) + (l3+l7))
/// This is the order a 128-bit-halves reduction of an 8-lane register
/// produces, so every ISA can emit it natively; the scalar reference and the
/// SIMD remainder paths call this exact function. The parenthesisation is
/// load-bearing: C++ forbids reassociating it.
inline float TreeReduce8(const float lanes[kGemmLanes]) {
  return ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6])) +
         ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]));
}

using GemmFn = void (*)(const float* a, const float* b, float* c, int m,
                        int k, int n);

/// Scalar lane-faithful reference kernels: plain C++ implementations of the
/// canonical order above. Production fallback on hosts without a compiled
/// SIMD ISA, and the bitwise reference the SIMD kernels are tested against
/// (tests/perf_test.cc sweeps shapes, lane remainders, and special values).

/// C[i,j] += sum_k A[i,k] * B[k,j].  A: [m,k], B: [k,n].
void GemmNNScalar(const float* a, const float* b, float* c, int m, int k,
                  int n);

/// C[i,j] += sum_k A[k,i] * B[k,j].  A: [k,m], B: [k,n] (A read transposed).
void GemmTNScalar(const float* a, const float* b, float* c, int m, int k,
                  int n);

/// C[i,j] += sum_k A[i,k] * B[j,k].  A: [m,k], B: [n,k] (B read transposed).
void GemmNTScalar(const float* a, const float* b, float* c, int m, int k,
                  int n);

/// One ISA's kernel set plus the name it reports through `GET /v1/stats` and
/// the microbench JSON.
struct GemmSimdKernels {
  GemmFn nn;
  GemmFn tn;
  GemmFn nt;
  const char* isa;
};

/// Per-ISA factories, each defined in its own translation unit so only that
/// TU is built with the ISA's flags (src/CMakeLists.txt). Returns nullptr
/// when the ISA was not compiled in (wrong arch, or -DKDDN_SIMD=OFF).
const GemmSimdKernels* GetGemmKernelsAvx2();
const GemmSimdKernels* GetGemmKernelsSse2();
const GemmSimdKernels* GetGemmKernelsNeon();

/// Pure selection logic: best compiled-in ISA the host supports, else the
/// scalar lane-faithful set (isa == "scalar"). Unit-tested directly.
GemmSimdKernels SelectGemmImpl(const CpuFeatures& features, bool force_scalar);

/// SelectGemmImpl driven by the real host: CPUID/auxval detection plus the
/// KDDN_FORCE_SCALAR_GEMM environment override (any non-empty value other
/// than "0" forces the scalar reference — CI uses this to exercise the
/// fallback on hosts that do have the ISA).
GemmSimdKernels ResolveGemmImplFromEnv();

/// ResolveGemmImplFromEnv resolved once at first GEMM and cached for the
/// process lifetime (the dispatch is one predicted branch per matmul).
const GemmSimdKernels& ActiveGemmImpl();

/// Name of the kernel set ActiveGemmImpl dispatches to: "avx2", "sse2",
/// "neon", or "scalar".
const char* GemmIsaName();

}  // namespace kddn::detail

#endif  // KDDN_TENSOR_GEMM_H_
