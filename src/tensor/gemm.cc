#include "tensor/gemm.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>

namespace kddn::detail {
namespace {

/// Single-row saxpy over one k chunk: crow[j] += achunk[t] * B[kc+t][j],
/// ascending t. `achunk` points at the row's first element of this chunk.
/// Shared by the NN remainder path and the packed TN kernel.
inline void AxpyRowChunk(const float* achunk, const float* bchunk, float* crow,
                         int klen, int n) {
  for (int t = 0; t < klen; ++t) {
    const float av = achunk[t];
    const float* brow = bchunk + static_cast<int64_t>(t) * n;
    for (int j = 0; j < n; ++j) {
      crow[j] += av * brow[j];
    }
  }
}

/// kGemmMr-row saxpy micro-kernel over one k chunk: every streamed B element
/// feeds four C rows, so B traffic per multiply-add drops 4x versus the
/// row-at-a-time loop. Pointers are chunk-relative like AxpyRowChunk's.
inline void MicroKernelRowsChunk(const float* const a_chunks[kGemmMr],
                                 const float* bchunk,
                                 float* const c_rows[kGemmMr], int klen,
                                 int n) {
  for (int t = 0; t < klen; ++t) {
    const float a0 = a_chunks[0][t];
    const float a1 = a_chunks[1][t];
    const float a2 = a_chunks[2][t];
    const float a3 = a_chunks[3][t];
    const float* brow = bchunk + static_cast<int64_t>(t) * n;
    for (int j = 0; j < n; ++j) {
      const float bv = brow[j];
      c_rows[0][j] += a0 * bv;
      c_rows[1][j] += a1 * bv;
      c_rows[2][j] += a2 * bv;
      c_rows[3][j] += a3 * bv;
    }
  }
}

}  // namespace

void GemmNNScalar(const float* a, const float* b, float* c, int m, int k,
                  int n) {
  for (int kc = 0; kc < k; kc += kGemmKc) {
    const int klen = std::min(k, kc + kGemmKc) - kc;
    const float* bchunk = b + static_cast<int64_t>(kc) * n;
    int i = 0;
    for (; i + kGemmMr <= m; i += kGemmMr) {
      const float* a_chunks[kGemmMr];
      float* c_rows[kGemmMr];
      for (int r = 0; r < kGemmMr; ++r) {
        a_chunks[r] = a + static_cast<int64_t>(i + r) * k + kc;
        c_rows[r] = c + static_cast<int64_t>(i + r) * n;
      }
      MicroKernelRowsChunk(a_chunks, bchunk, c_rows, klen, n);
    }
    for (; i < m; ++i) {
      AxpyRowChunk(a + static_cast<int64_t>(i) * k + kc, bchunk,
                   c + static_cast<int64_t>(i) * n, klen, n);
    }
  }
}

void GemmTNScalar(const float* a, const float* b, float* c, int m, int k,
                  int n) {
  // A is [k, m] and read column-wise (stride m): pack each micro-panel of up
  // to kGemmMr columns x kGemmKc k-entries into contiguous scratch so the
  // inner loop matches the NN kernel exactly. Packing copies values without
  // arithmetic, so it cannot perturb the accumulation order.
  float panel[kGemmMr * kGemmKc];
  for (int kc = 0; kc < k; kc += kGemmKc) {
    const int klen = std::min(k, kc + kGemmKc) - kc;
    const float* bchunk = b + static_cast<int64_t>(kc) * n;
    for (int i = 0; i < m; i += kGemmMr) {
      const int rows = std::min(kGemmMr, m - i);
      for (int t = 0; t < klen; ++t) {
        const float* asrc = a + static_cast<int64_t>(kc + t) * m + i;
        for (int r = 0; r < rows; ++r) {
          panel[r * klen + t] = asrc[r];
        }
      }
      if (rows == kGemmMr) {
        const float* a_chunks[kGemmMr];
        float* c_rows[kGemmMr];
        for (int r = 0; r < kGemmMr; ++r) {
          a_chunks[r] = panel + r * klen;
          c_rows[r] = c + static_cast<int64_t>(i + r) * n;
        }
        MicroKernelRowsChunk(a_chunks, bchunk, c_rows, klen, n);
      } else {
        for (int r = 0; r < rows; ++r) {
          AxpyRowChunk(panel + r * klen,
                       bchunk, c + static_cast<int64_t>(i + r) * n, klen, n);
        }
      }
    }
  }
}

void GemmNTScalar(const float* a, const float* b, float* c, int m, int k,
                  int n) {
  // Dot-product form: the canonical lane-split order, emulated in plain
  // scalar code. Within each k chunk, chunk-local index t feeds lane
  // (t % kGemmLanes) — the same per-lane add sequence a width-8 SIMD loop
  // produces — and the lanes are combined by the fixed TreeReduce8 tree
  // before the chunk total joins the running C value.
  float lanes[kGemmLanes];
  for (int kc = 0; kc < k; kc += kGemmKc) {
    const int klen = std::min(k, kc + kGemmKc) - kc;
    for (int i = 0; i < m; ++i) {
      const float* achunk = a + static_cast<int64_t>(i) * k + kc;
      float* crow = c + static_cast<int64_t>(i) * n;
      for (int j = 0; j < n; ++j) {
        const float* bchunk = b + static_cast<int64_t>(j) * k + kc;
        std::memset(lanes, 0, sizeof(lanes));
        for (int t = 0; t < klen; ++t) {
          lanes[t & (kGemmLanes - 1)] += achunk[t] * bchunk[t];
        }
        crow[j] += TreeReduce8(lanes);
      }
    }
  }
}

namespace {

GemmSimdKernels ScalarKernels() {
  return {&GemmNNScalar, &GemmTNScalar, &GemmNTScalar, "scalar"};
}

}  // namespace

GemmSimdKernels SelectGemmImpl(const CpuFeatures& features,
                               bool force_scalar) {
  if (!force_scalar) {
    // Widest compiled-in ISA the host supports wins. Every candidate
    // implements the identical canonical order, so this choice can never
    // change a result bit — only wall-clock.
    if (features.avx2) {
      if (const GemmSimdKernels* kernels = GetGemmKernelsAvx2()) {
        return *kernels;
      }
    }
    if (features.sse2) {
      if (const GemmSimdKernels* kernels = GetGemmKernelsSse2()) {
        return *kernels;
      }
    }
    if (features.neon) {
      if (const GemmSimdKernels* kernels = GetGemmKernelsNeon()) {
        return *kernels;
      }
    }
  }
  return ScalarKernels();
}

GemmSimdKernels ResolveGemmImplFromEnv() {
  const char* force = std::getenv("KDDN_FORCE_SCALAR_GEMM");
  const bool force_scalar =
      force != nullptr && force[0] != '\0' && std::strcmp(force, "0") != 0;
  return SelectGemmImpl(CpuFeaturesDetected(), force_scalar);
}

const GemmSimdKernels& ActiveGemmImpl() {
  static const GemmSimdKernels impl = ResolveGemmImplFromEnv();
  return impl;
}

const char* GemmIsaName() { return ActiveGemmImpl().isa; }

}  // namespace kddn::detail
