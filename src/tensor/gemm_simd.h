#ifndef KDDN_TENSOR_GEMM_SIMD_H_
#define KDDN_TENSOR_GEMM_SIMD_H_

/// ISA-generic bodies of the SIMD GEMM micro-kernels, instantiated by each
/// per-ISA translation unit (gemm_avx2.cc, gemm_sse2.cc, gemm_neon.cc) with a
/// vector-traits struct V. Keeping the bodies here means every ISA runs the
/// *same* loop structure — the property the bitwise contract rests on — and
/// an ISA port is just a traits struct.
///
/// V models an 8-lane float vector (kGemmLanes), regardless of the native
/// register width — 4-lane ISAs pass a register pair — and provides:
///
///   struct V {
///     using Reg = ...;
///     static Reg Zero();
///     static Reg Load(const float* p);        // unaligned
///     static void Store(float* p, Reg r);     // unaligned
///     static Reg Broadcast(float v);
///     static Reg MulAdd(Reg acc, Reg a, Reg b);  // acc + a*b, TWO roundings
///   };
///
/// MulAdd must be a separate IEEE multiply and add — never a fused
/// multiply-add — so each vector lane performs bit-for-bit the operations of
/// the scalar reference (DESIGN.md §9). Lane l of every register always holds
/// the data a scalar run would process at the same position, which is why no
/// kernel here needs its own correctness argument beyond "the loop structure
/// matches gemm.cc".

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "tensor/gemm.h"

namespace kddn::detail {

template <class V>
struct SimdGemm {
  using Reg = typename V::Reg;

  /// kGemmMr-row saxpy tile over one k chunk, vectorised across output
  /// columns: a column-block of C stays in registers across the whole chunk
  /// (the scalar kernel re-loads C every t; holding the running value in a
  /// register instead does not alter the per-element ascending-k chain).
  static void MicroTileRows(const float* const a_chunks[kGemmMr],
                            const float* bchunk,
                            float* const c_rows[kGemmMr], int klen, int n) {
    int j = 0;
    for (; j + kGemmLanes <= n; j += kGemmLanes) {
      Reg acc0 = V::Load(c_rows[0] + j);
      Reg acc1 = V::Load(c_rows[1] + j);
      Reg acc2 = V::Load(c_rows[2] + j);
      Reg acc3 = V::Load(c_rows[3] + j);
      const float* brow = bchunk + j;
      for (int t = 0; t < klen; ++t, brow += n) {
        const Reg bv = V::Load(brow);
        acc0 = V::MulAdd(acc0, V::Broadcast(a_chunks[0][t]), bv);
        acc1 = V::MulAdd(acc1, V::Broadcast(a_chunks[1][t]), bv);
        acc2 = V::MulAdd(acc2, V::Broadcast(a_chunks[2][t]), bv);
        acc3 = V::MulAdd(acc3, V::Broadcast(a_chunks[3][t]), bv);
      }
      V::Store(c_rows[0] + j, acc0);
      V::Store(c_rows[1] + j, acc1);
      V::Store(c_rows[2] + j, acc2);
      V::Store(c_rows[3] + j, acc3);
    }
    for (; j < n; ++j) {
      float acc0 = c_rows[0][j];
      float acc1 = c_rows[1][j];
      float acc2 = c_rows[2][j];
      float acc3 = c_rows[3][j];
      const float* bcol = bchunk + j;
      for (int t = 0; t < klen; ++t, bcol += n) {
        const float bv = *bcol;
        acc0 += a_chunks[0][t] * bv;
        acc1 += a_chunks[1][t] * bv;
        acc2 += a_chunks[2][t] * bv;
        acc3 += a_chunks[3][t] * bv;
      }
      c_rows[0][j] = acc0;
      c_rows[1][j] = acc1;
      c_rows[2][j] = acc2;
      c_rows[3][j] = acc3;
    }
  }

  /// Single-row variant for the row remainder of a micro-block.
  static void MicroRow(const float* achunk, const float* bchunk, float* crow,
                       int klen, int n) {
    int j = 0;
    for (; j + kGemmLanes <= n; j += kGemmLanes) {
      Reg acc = V::Load(crow + j);
      const float* brow = bchunk + j;
      for (int t = 0; t < klen; ++t, brow += n) {
        acc = V::MulAdd(acc, V::Broadcast(achunk[t]), V::Load(brow));
      }
      V::Store(crow + j, acc);
    }
    for (; j < n; ++j) {
      float acc = crow[j];
      const float* bcol = bchunk + j;
      for (int t = 0; t < klen; ++t, bcol += n) {
        acc += achunk[t] * *bcol;
      }
      crow[j] = acc;
    }
  }

  static void GemmNN(const float* a, const float* b, float* c, int m, int k,
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
        MicroTileRows(a_chunks, bchunk, c_rows, klen, n);
      }
      for (; i < m; ++i) {
        MicroRow(a + static_cast<int64_t>(i) * k + kc, bchunk,
                 c + static_cast<int64_t>(i) * n, klen, n);
      }
    }
  }

  static void GemmTN(const float* a, const float* b, float* c, int m, int k,
                     int n) {
    // Same packed-panel schedule as the scalar reference: packing copies
    // values without arithmetic, then the NN micro-kernels run on the panel.
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
          MicroTileRows(a_chunks, bchunk, c_rows, klen, n);
        } else {
          for (int r = 0; r < rows; ++r) {
            MicroRow(panel + r * klen, bchunk,
                     c + static_cast<int64_t>(i + r) * n, klen, n);
          }
        }
      }
    }
  }

  /// One NT dot product over one k chunk: the width-kGemmLanes main loop
  /// feeds the vector accumulator (lane l sees chunk-local indices t with
  /// t % kGemmLanes == l, in ascending order — the canonical split), then
  /// the register is spilled and the remainder + combine run through the
  /// *same scalar code* as the lane-faithful reference, so the tail is
  /// bitwise-identical by construction rather than by a masking argument.
  static float DotChunkLanes(const float* achunk, const float* bchunk,
                             int klen) {
    Reg acc = V::Zero();
    int t = 0;
    for (; t + kGemmLanes <= klen; t += kGemmLanes) {
      acc = V::MulAdd(acc, V::Load(achunk + t), V::Load(bchunk + t));
    }
    alignas(32) float lanes[kGemmLanes];
    V::Store(lanes, acc);
    for (; t < klen; ++t) {
      lanes[t & (kGemmLanes - 1)] += achunk[t] * bchunk[t];
    }
    return TreeReduce8(lanes);
  }

  static void GemmNT(const float* a, const float* b, float* c, int m, int k,
                     int n) {
    for (int kc = 0; kc < k; kc += kGemmKc) {
      const int klen = std::min(k, kc + kGemmKc) - kc;
      for (int i = 0; i < m; ++i) {
        const float* achunk = a + static_cast<int64_t>(i) * k + kc;
        float* crow = c + static_cast<int64_t>(i) * n;
        int j = 0;
        // kGemmNr dot products share each streamed A vector.
        for (; j + kGemmNr <= n; j += kGemmNr) {
          const float* b0 = b + static_cast<int64_t>(j + 0) * k + kc;
          const float* b1 = b + static_cast<int64_t>(j + 1) * k + kc;
          const float* b2 = b + static_cast<int64_t>(j + 2) * k + kc;
          const float* b3 = b + static_cast<int64_t>(j + 3) * k + kc;
          Reg s0 = V::Zero();
          Reg s1 = V::Zero();
          Reg s2 = V::Zero();
          Reg s3 = V::Zero();
          int t = 0;
          for (; t + kGemmLanes <= klen; t += kGemmLanes) {
            const Reg av = V::Load(achunk + t);
            s0 = V::MulAdd(s0, av, V::Load(b0 + t));
            s1 = V::MulAdd(s1, av, V::Load(b1 + t));
            s2 = V::MulAdd(s2, av, V::Load(b2 + t));
            s3 = V::MulAdd(s3, av, V::Load(b3 + t));
          }
          alignas(32) float lanes[kGemmNr][kGemmLanes];
          V::Store(lanes[0], s0);
          V::Store(lanes[1], s1);
          V::Store(lanes[2], s2);
          V::Store(lanes[3], s3);
          for (; t < klen; ++t) {
            const float av = achunk[t];
            lanes[0][t & (kGemmLanes - 1)] += av * b0[t];
            lanes[1][t & (kGemmLanes - 1)] += av * b1[t];
            lanes[2][t & (kGemmLanes - 1)] += av * b2[t];
            lanes[3][t & (kGemmLanes - 1)] += av * b3[t];
          }
          crow[j + 0] += TreeReduce8(lanes[0]);
          crow[j + 1] += TreeReduce8(lanes[1]);
          crow[j + 2] += TreeReduce8(lanes[2]);
          crow[j + 3] += TreeReduce8(lanes[3]);
        }
        for (; j < n; ++j) {
          crow[j] += DotChunkLanes(achunk,
                                   b + static_cast<int64_t>(j) * k + kc, klen);
        }
      }
    }
  }
};

}  // namespace kddn::detail

#endif  // KDDN_TENSOR_GEMM_SIMD_H_
