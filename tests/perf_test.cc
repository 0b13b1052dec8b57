// Performance-architecture tests (DESIGN.md §9): the runtime-dispatched SIMD
// GEMM kernels must match the scalar lane-faithful reference bitwise at every
// awkward shape, lane remainder, thread count, and special-value pattern; the
// dispatch logic must pick the widest compiled-in ISA and honour the
// force-scalar override; the TensorPool must recycle storage without leaking
// stale bytes into results; and the row tracker must obey its marking rules,
// with a row-sparse Adagrad step bitwise equal to a dense one. The
// end-to-end training goldens live in tests/pipeline_test.cc.
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "autograd/node.h"
#include "autograd/ops.h"
#include "common/cpu_features.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "gtest/gtest.h"
#include "nn/optimizer.h"
#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"
#include "tensor/tensor_pool.h"

namespace kddn {
namespace {

/// Restores the process-wide GEMM kernel mode on scope exit.
struct GemmKernelGuard {
  GemmKernel previous = GetGemmKernel();
  ~GemmKernelGuard() { SetGemmKernel(previous); }
};

/// Restores the process-wide executor size on scope exit.
struct PoolSizeGuard {
  int previous = GlobalThreadPoolSize();
  ~PoolSizeGuard() { SetGlobalThreadPoolSize(previous); }
};

void ExpectBitwiseEqual(const Tensor& a, const Tensor& b,
                        const std::string& what) {
  ASSERT_TRUE(a.SameShape(b)) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << what;
}

/// Runs all three matmul forms under the given kernel mode.
struct GemmResults {
  Tensor nn, nt, tn;
};

GemmResults RunAllForms(GemmKernel kernel, const Tensor& a, const Tensor& b,
                        const Tensor& bt, const Tensor& at) {
  SetGemmKernel(kernel);
  return {MatMul(a, b), MatMulABt(a, bt), MatMulAtB(at, b)};
}

/// Sweeps sub-tile, prime, and just-past-tile extents through all three
/// matmul forms. The dispatched SIMD kernels (kAuto) must match the scalar
/// lane-faithful reference (kScalar) bitwise everywhere. 256 and 301 in the
/// k sweep cross the kGemmKc chunk boundary.
TEST(GemmKernelTest, SimdMatchesScalarReferenceAcrossShapes) {
  GemmKernelGuard guard;
  Rng rng(123);
  const std::vector<int> extents = {1, 2, 3, 7, 17, 64, 65};
  std::vector<int> k_extents = extents;
  k_extents.push_back(256);
  k_extents.push_back(301);
  for (int m : extents) {
    for (int k : k_extents) {
      for (int n : extents) {
        const Tensor a = RandomNormal({m, k}, 0, 1, &rng);
        const Tensor b = RandomNormal({k, n}, 0, 1, &rng);
        const Tensor bt = RandomNormal({n, k}, 0, 1, &rng);
        const Tensor at = RandomNormal({k, m}, 0, 1, &rng);
        const GemmResults scalar =
            RunAllForms(GemmKernel::kScalar, a, b, bt, at);
        const GemmResults simd = RunAllForms(GemmKernel::kAuto, a, b, bt, at);
        const std::string shape = " at m=" + std::to_string(m) +
                                  " k=" + std::to_string(k) +
                                  " n=" + std::to_string(n);
        ExpectBitwiseEqual(simd.nn, scalar.nn, "simd MatMul" + shape);
        ExpectBitwiseEqual(simd.nt, scalar.nt, "simd MatMulABt" + shape);
        ExpectBitwiseEqual(simd.tn, scalar.tn, "simd MatMulAtB" + shape);
      }
    }
  }
}

/// The lane-remainder sweep: every k tail length against kGemmLanes (1 ..
/// 2*lanes+1), primes, and the kGemmKc chunk boundary (kc-1, kc, kc+1,
/// 2*kc+3), at executor sizes 1, 2 and 4. The accumulation order is a
/// property of the shape alone, so the dispatched kernel must reproduce the
/// scalar reference bitwise at every (k, threads) point, and the reference
/// must reproduce itself at every executor size (a GEMM runs on its caller's
/// thread, so the size must never reach the kernels).
TEST(GemmKernelTest, LaneRemainderSweepAcrossThreads) {
  GemmKernelGuard guard;
  PoolSizeGuard pool_guard;
  Rng rng(777);
  std::vector<int> k_extents;
  for (int k = 1; k <= 2 * detail::kGemmLanes + 1; ++k) {
    k_extents.push_back(k);  // 1 .. 17: every remainder class, twice.
  }
  for (int k : {19, 23, 29, 31, detail::kGemmKc - 1, detail::kGemmKc,
                detail::kGemmKc + 1, 2 * detail::kGemmKc + 3}) {
    k_extents.push_back(k);
  }
  const int m = 64, n = 64;
  for (int k : k_extents) {
    const Tensor a = RandomNormal({m, k}, 0, 1, &rng);
    const Tensor b = RandomNormal({k, n}, 0, 1, &rng);
    const Tensor bt = RandomNormal({n, k}, 0, 1, &rng);
    const Tensor at = RandomNormal({k, m}, 0, 1, &rng);
    SetGlobalThreadPoolSize(1);
    const GemmResults ref = RunAllForms(GemmKernel::kScalar, a, b, bt, at);
    for (int threads : {1, 2, 4}) {
      SetGlobalThreadPoolSize(threads);
      const std::string where =
          " at k=" + std::to_string(k) + " threads=" + std::to_string(threads);
      const GemmResults scalar =
          RunAllForms(GemmKernel::kScalar, a, b, bt, at);
      ExpectBitwiseEqual(scalar.nn, ref.nn, "scalar MatMul" + where);
      ExpectBitwiseEqual(scalar.nt, ref.nt, "scalar MatMulABt" + where);
      ExpectBitwiseEqual(scalar.tn, ref.tn, "scalar MatMulAtB" + where);
      const GemmResults simd = RunAllForms(GemmKernel::kAuto, a, b, bt, at);
      ExpectBitwiseEqual(simd.nn, ref.nn, "simd MatMul" + where);
      ExpectBitwiseEqual(simd.nt, ref.nt, "simd MatMulABt" + where);
      ExpectBitwiseEqual(simd.tn, ref.tn, "simd MatMulAtB" + where);
    }
  }
}

/// Element-wise comparison for the special-values test: every non-NaN
/// result must agree bit-for-bit (signed zeros and infinities included),
/// and NaN-ness must agree — but NaN *payloads* are exempt. They are the
/// one thing the kernels cannot contract: C++ lets the compiler commute
/// `a * b`, and x86's mul/add return the payload of whichever NaN operand
/// comes first, so identical operation *orders* can still surface different
/// payload bits. Nothing downstream reads payloads.
void ExpectBitwiseEqualModuloNanPayload(const Tensor& a, const Tensor& b,
                                        const std::string& what) {
  ASSERT_TRUE(a.SameShape(b)) << what;
  for (int64_t i = 0; i < a.size(); ++i) {
    const float x = a.data()[i];
    const float y = b.data()[i];
    if (std::isnan(x) || std::isnan(y)) {
      EXPECT_TRUE(std::isnan(x) && std::isnan(y))
          << what << ": NaN-ness differs at " << i << " (" << x << " vs " << y
          << ")";
    } else {
      EXPECT_EQ(std::memcmp(&x, &y, sizeof(float)), 0)
          << what << ": bits differ at " << i << " (" << x << " vs " << y
          << ")";
    }
  }
}

/// Special values: signed zeros, denormals, infinities and NaNs sprinkled
/// through both operands. The SIMD kernels execute the same IEEE operations
/// in the same order as the scalar reference, so results must agree
/// bit-for-bit except for NaN payloads (see above).
TEST(GemmKernelTest, SpecialValuesMatchScalarBitwise) {
  GemmKernelGuard guard;
  Rng rng(2024);
  const int m = 9, k = 300, n = 11;  // k crosses the kGemmKc chunk boundary.
  Tensor a = RandomNormal({m, k}, 0, 1, &rng);
  Tensor b = RandomNormal({k, n}, 0, 1, &rng);
  Tensor bt = RandomNormal({n, k}, 0, 1, &rng);
  Tensor at = RandomNormal({k, m}, 0, 1, &rng);
  const float specials[] = {0.0f, -0.0f, 1e-42f, -1e-42f, INFINITY,
                            -INFINITY, NAN};
  constexpr int kNumSpecials = 7;
  auto sprinkle = [&](Tensor* t, int phase) {
    for (int64_t i = phase; i < t->size(); i += 5) {
      t->data()[i] = specials[(i / 5 + phase) % kNumSpecials];
    }
  };
  sprinkle(&a, 0);
  sprinkle(&b, 1);
  sprinkle(&bt, 2);
  sprinkle(&at, 3);
  const GemmResults scalar = RunAllForms(GemmKernel::kScalar, a, b, bt, at);
  const GemmResults simd = RunAllForms(GemmKernel::kAuto, a, b, bt, at);
  ExpectBitwiseEqualModuloNanPayload(simd.nn, scalar.nn,
                                     "special-value MatMul");
  ExpectBitwiseEqualModuloNanPayload(simd.nt, scalar.nt,
                                     "special-value MatMulABt");
  ExpectBitwiseEqualModuloNanPayload(simd.tn, scalar.tn,
                                     "special-value MatMulAtB");
}

/// Zeros and negative zeros scattered through the operands: the kernels
/// multiply through zeros rather than skipping them, so every a*0 and
/// a*(-0) must reach the same signed-zero bits in SIMD lanes as in the
/// scalar reference.
TEST(GemmKernelTest, ZeroRichOperandsStillMatchBitwise) {
  GemmKernelGuard guard;
  Rng rng(321);
  Tensor a = RandomNormal({17, 65}, 0, 1, &rng);
  Tensor b = RandomNormal({65, 7}, 0, 1, &rng);
  for (int64_t i = 0; i < a.size(); i += 3) {
    a.data()[i] = 0.0f;
  }
  for (int64_t i = 0; i < b.size(); i += 2) {
    b.data()[i] = -0.0f;
  }
  const Tensor bt = Transpose(b);
  const Tensor at = Transpose(a);
  const GemmResults scalar = RunAllForms(GemmKernel::kScalar, a, b, bt, at);
  const GemmResults simd = RunAllForms(GemmKernel::kAuto, a, b, bt, at);
  ExpectBitwiseEqual(simd.nn, scalar.nn, "zero-rich MatMul");
  ExpectBitwiseEqual(simd.nt, scalar.nt, "zero-rich MatMulABt");
  ExpectBitwiseEqual(simd.tn, scalar.tn, "zero-rich MatMulAtB");
}

TEST(GemmKernelTest, IntoVariantsMatchAllocatingForms) {
  Rng rng(55);
  const Tensor a = RandomNormal({9, 33}, 0, 1, &rng);
  const Tensor b = RandomNormal({33, 5}, 0, 1, &rng);
  const Tensor bt = RandomNormal({5, 33}, 0, 1, &rng);
  const Tensor at = RandomNormal({33, 9}, 0, 1, &rng);
  Tensor out;
  MatMulInto(&out, a, b);
  ExpectBitwiseEqual(out, MatMul(a, b), "MatMulInto");
  MatMulABtInto(&out, a, bt);  // Reuses the same storage across shapes.
  ExpectBitwiseEqual(out, MatMulABt(a, bt), "MatMulABtInto");
  MatMulAtBInto(&out, at, b);
  ExpectBitwiseEqual(out, MatMulAtB(at, b), "MatMulAtBInto");
}

// ---------------------------------------------------------------------------
// Dispatch logic: pure selection over synthetic feature sets, the env
// override, and the names surfaced through /v1/stats and the microbench.
// ---------------------------------------------------------------------------

bool IsKnownIsa(const char* isa) {
  return std::strcmp(isa, "avx2") == 0 || std::strcmp(isa, "sse2") == 0 ||
         std::strcmp(isa, "neon") == 0 || std::strcmp(isa, "scalar") == 0;
}

TEST(GemmDispatchTest, SelectsWidestCompiledIsa) {
  CpuFeatures f;  // All false: nothing supported -> scalar, unconditionally.
  EXPECT_STREQ(detail::SelectGemmImpl(f, false).isa, "scalar");

  f.avx2 = f.sse2 = true;
  const detail::GemmSimdKernels wide = detail::SelectGemmImpl(f, false);
  if (detail::GetGemmKernelsAvx2() != nullptr) {
    EXPECT_STREQ(wide.isa, "avx2");
  } else if (detail::GetGemmKernelsSse2() != nullptr) {
    EXPECT_STREQ(wide.isa, "sse2");
  } else {
    EXPECT_STREQ(wide.isa, "scalar");
  }

  CpuFeatures sse_only;
  sse_only.sse2 = true;  // AVX2 claimed absent: must not pick avx2.
  const detail::GemmSimdKernels narrow = detail::SelectGemmImpl(sse_only, false);
  EXPECT_TRUE(std::strcmp(narrow.isa, "sse2") == 0 ||
              std::strcmp(narrow.isa, "scalar") == 0)
      << narrow.isa;

  CpuFeatures arm;
  arm.neon = true;
  const detail::GemmSimdKernels neon = detail::SelectGemmImpl(arm, false);
  EXPECT_TRUE(std::strcmp(neon.isa, "neon") == 0 ||
              std::strcmp(neon.isa, "scalar") == 0)
      << neon.isa;

  // Every selection returns a complete kernel set.
  for (const auto& impl : {wide, narrow, neon}) {
    EXPECT_NE(impl.nn, nullptr);
    EXPECT_NE(impl.tn, nullptr);
    EXPECT_NE(impl.nt, nullptr);
  }
}

TEST(GemmDispatchTest, ForceScalarOverridesEveryFeatureSet) {
  CpuFeatures f;
  f.avx2 = f.sse2 = f.neon = true;
  EXPECT_STREQ(detail::SelectGemmImpl(f, true).isa, "scalar");
}

TEST(GemmDispatchTest, EnvResolverHonoursForceScalar) {
  const char* saved = std::getenv("KDDN_FORCE_SCALAR_GEMM");
  const std::string restore = saved != nullptr ? saved : "";

  ::setenv("KDDN_FORCE_SCALAR_GEMM", "1", /*overwrite=*/1);
  EXPECT_STREQ(detail::ResolveGemmImplFromEnv().isa, "scalar");

  // "0" and empty mean "no override": resolve to the host's best ISA.
  const char* best =
      detail::SelectGemmImpl(CpuFeaturesDetected(), false).isa;
  ::setenv("KDDN_FORCE_SCALAR_GEMM", "0", /*overwrite=*/1);
  EXPECT_STREQ(detail::ResolveGemmImplFromEnv().isa, best);
  ::setenv("KDDN_FORCE_SCALAR_GEMM", "", /*overwrite=*/1);
  EXPECT_STREQ(detail::ResolveGemmImplFromEnv().isa, best);

  if (saved != nullptr) {
    ::setenv("KDDN_FORCE_SCALAR_GEMM", restore.c_str(), /*overwrite=*/1);
  } else {
    ::unsetenv("KDDN_FORCE_SCALAR_GEMM");
  }
}

TEST(GemmDispatchTest, ActiveIsaIsAKnownNameAndStable) {
  // ActiveGemmImpl resolves once per process (possibly under the
  // KDDN_FORCE_SCALAR_GEMM override the forced-scalar ctest variant sets),
  // so assert membership and stability rather than a specific ISA.
  ASSERT_NE(ActiveGemmIsa(), nullptr);
  EXPECT_TRUE(IsKnownIsa(ActiveGemmIsa())) << ActiveGemmIsa();
  EXPECT_STREQ(ActiveGemmIsa(), detail::GemmIsaName());
  EXPECT_STREQ(ActiveGemmIsa(), detail::ActiveGemmImpl().isa);
}

TEST(GemmDispatchTest, KernelModeNames) {
  EXPECT_STREQ(GemmKernelName(GemmKernel::kAuto), "auto");
  EXPECT_STREQ(GemmKernelName(GemmKernel::kScalar), "scalar");
}

TEST(GemmDispatchTest, TimingAccumulatorCountsOnlyWhenEnabled) {
  Rng rng(31);
  const Tensor a = RandomNormal({8, 24}, 0, 1, &rng);
  const Tensor b = RandomNormal({24, 8}, 0, 1, &rng);
  ResetGemmTiming();
  MatMul(a, b);  // Disabled (the default): must not count.
  EXPECT_EQ(GetGemmTiming().calls, 0u);
  SetGemmTimingEnabled(true);
  MatMul(a, b);
  MatMul(a, b);
  SetGemmTimingEnabled(false);
  const GemmTimingStats stats = GetGemmTiming();
  EXPECT_EQ(stats.calls, 2u);
  EXPECT_GT(stats.total_ns, 0u);
  MatMul(a, b);  // Disabled again: frozen.
  EXPECT_EQ(GetGemmTiming().calls, 2u);
  ResetGemmTiming();
  EXPECT_EQ(GetGemmTiming().calls, 0u);
  EXPECT_EQ(GetGemmTiming().total_ns, 0u);
}

TEST(CpuFeaturesTest, DetectionIsCachedAndSelfConsistent) {
  const CpuFeatures& first = CpuFeaturesDetected();
  const CpuFeatures& second = CpuFeaturesDetected();
  EXPECT_EQ(&first, &second);  // One detection per process.
#if defined(__x86_64__) || defined(_M_X64)
  EXPECT_TRUE(first.sse2);  // Architectural baseline on x86-64.
  // Feature implications the decode must preserve.
  if (first.avx2) {
    EXPECT_TRUE(first.avx);
  }
  if (first.fma) {
    EXPECT_TRUE(first.avx);
  }
#endif
#if defined(__aarch64__)
  EXPECT_TRUE(first.neon);  // Mandatory in AArch64.
#endif
  EXPECT_FALSE(CpuFeaturesSummary(first).empty());
}

TEST(TensorPoolTest, RecycledStorageIsReusedAndRezeroed) {
  TensorPool& pool = TensorPool::ThreadLocal();
  pool.Trim();
  Tensor t = pool.Acquire({4, 5});
  t.Fill(3.5f);  // Dirty the buffer before recycling.
  const int64_t reuses_before = pool.reuses();
  pool.Recycle(std::move(t));
  Tensor again = pool.Acquire({5, 4});  // Same element count, new shape.
  EXPECT_EQ(pool.reuses(), reuses_before + 1);
  for (int64_t i = 0; i < again.size(); ++i) {
    EXPECT_EQ(again.data()[i], 0.0f) << "stale bytes leaked at " << i;
  }
}

TEST(TensorPoolTest, AcquireCopyMatchesSource) {
  TensorPool& pool = TensorPool::ThreadLocal();
  Rng rng(9);
  const Tensor src = RandomNormal({3, 7}, 0, 1, &rng);
  const Tensor copy = pool.AcquireCopy(src);
  ExpectBitwiseEqual(copy, src, "AcquireCopy");
}

TEST(TensorPoolTest, BestFitPrefersSmallestSufficientBuffer) {
  TensorPool& pool = TensorPool::ThreadLocal();
  pool.Trim();
  const int64_t allocations_before = pool.allocations();
  pool.Recycle(pool.AcquireUninit({100}));
  pool.Recycle(pool.AcquireUninit({10}));
  // Wants 8 floats: both cached buffers fit, the 10-float one is the best
  // fit and must be chosen — leaving the 100-float buffer to serve the
  // 90-float ask below. A worst-fit pool would have to allocate here.
  Tensor small = pool.Acquire({8});
  Tensor big = pool.AcquireUninit({90});
  EXPECT_EQ(pool.allocations(), allocations_before + 2);  // Seeds only.
}

TEST(SparseRowsTest, TracksDeduplicatedRowsAndDenseAbsorbs) {
  ag::SparseRows tracker;
  EXPECT_EQ(tracker.state(), ag::SparseRows::State::kClean);
  tracker.MarkRows({3, 1, 3, 1, 5}, 8);
  EXPECT_EQ(tracker.state(), ag::SparseRows::State::kSparse);
  EXPECT_EQ(tracker.rows(), (std::vector<int>{3, 1, 5}));
  tracker.MarkDense();
  EXPECT_EQ(tracker.state(), ag::SparseRows::State::kDense);
  // Dense absorbs later row marks...
  tracker.MarkRows({0}, 8);
  EXPECT_EQ(tracker.state(), ag::SparseRows::State::kDense);
  // ...but keeps the earlier row list readable for in-flight captures.
  EXPECT_EQ(tracker.rows(), (std::vector<int>{3, 1, 5}));
  tracker.Clear();
  EXPECT_EQ(tracker.state(), ag::SparseRows::State::kClean);
  tracker.MarkRows({2}, 8);  // Membership bits must have been reset.
  EXPECT_EQ(tracker.rows(), (std::vector<int>{2}));
}

/// One embedding backward + Adagrad step, row-sparse vs dense, on identical
/// tables: values and accumulators must end bitwise identical, and repeated
/// ids must accumulate exactly once per occurrence. The dense leg touches
/// mutable_grad() before each step, which marks the row tracker dense, so
/// the optimizer takes its whole-table path.
TEST(SparseAdagradTest, StepBitwiseEqualToDense) {
  Rng rng(4242);
  const Tensor init = RandomNormal({12, 4}, 0, 0.5f, &rng);
  const std::vector<int> ids = {0, 7, 7, 3, 0};

  auto run = [&](bool sparse) {
    ag::NodePtr table = ag::Node::Leaf(init, true, "emb.table");
    nn::Adagrad opt(0.1f);
    for (int step = 0; step < 3; ++step) {
      ag::NodePtr e = ag::EmbeddingLookup(table, ids);
      ag::Backward(ag::MeanAll(ag::Mul(e, e)));
      EXPECT_EQ(table->grad_rows().state(), ag::SparseRows::State::kSparse)
          << "step " << step;
      EXPECT_EQ(table->grad_rows().rows(), (std::vector<int>{0, 7, 3}));
      if (!sparse) {
        table->mutable_grad();
        EXPECT_EQ(table->grad_rows().state(), ag::SparseRows::State::kDense)
            << "step " << step;
      }
      opt.Step({table});
      EXPECT_EQ(table->grad_rows().state(), ag::SparseRows::State::kClean);
    }
    return std::make_pair(table->value(), opt.ExportState());
  };

  const auto [dense_value, dense_state] = run(false);
  const auto [sparse_value, sparse_state] = run(true);
  ExpectBitwiseEqual(sparse_value, dense_value, "table value");
  ASSERT_EQ(sparse_state.size(), dense_state.size());
  for (size_t i = 0; i < dense_state.size(); ++i) {
    EXPECT_EQ(sparse_state[i].first, dense_state[i].first);
    ExpectBitwiseEqual(sparse_state[i].second, dense_state[i].second,
                       "accumulator " + dense_state[i].first);
  }
}

}  // namespace
}  // namespace kddn
