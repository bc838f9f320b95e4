#include "convbound/gemm/gemm.hpp"

#include <algorithm>
#include <cstring>

#include "convbound/util/check.hpp"
#include "convbound/util/math.hpp"

namespace convbound {

void gemm_ref(const float* a, const float* b, float* c, std::int64_t m,
              std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) c[i * n + j] = 0.0f;
    for (std::int64_t p = 0; p < k; ++p) {
      const float av = a[i * k + p];
      for (std::int64_t j = 0; j < n; ++j) c[i * n + j] += av * b[p * n + j];
    }
  }
}

namespace {

/// Four floats as one value: a GCC/Clang generic vector type, which the
/// compiler lowers to whatever SIMD the build targets (SSE2 on baseline
/// x86-64) or to scalar code. Lane-wise + and * round exactly as the scalar
/// operations do.
using f32x4 = float __attribute__((vector_size(16)));

/// C(MR x NV*W) += A(MR x k) * B(k x NV*W), where Vec holds W floats
/// (f32x4, or float for single columns). The C block lives in MR*NV
/// registers for the whole reduction; each step broadcasts one A element
/// per row against NV values of one B row.
template <typename Vec, int MR, int NV>
void gemm_block(const float* a, std::int64_t lda, const float* b,
                std::int64_t ldb, float* c, std::int64_t ldc,
                std::int64_t k) {
  constexpr int kW = sizeof(Vec) / sizeof(float);
  Vec acc[MR][NV];
  for (int i = 0; i < MR; ++i)
    for (int v = 0; v < NV; ++v)
      std::memcpy(&acc[i][v], c + i * ldc + kW * v, sizeof(Vec));
  for (std::int64_t p = 0; p < k; ++p) {
    Vec brow[NV];
    for (int v = 0; v < NV; ++v)
      std::memcpy(&brow[v], b + p * ldb + kW * v, sizeof(Vec));
    for (int i = 0; i < MR; ++i) {
      const float av = a[i * lda + p];
      for (int v = 0; v < NV; ++v) acc[i][v] += av * brow[v];
    }
  }
  for (int i = 0; i < MR; ++i)
    for (int v = 0; v < NV; ++v)
      std::memcpy(c + i * ldc + kW * v, &acc[i][v], sizeof(Vec));
}

/// MR rows of C: 8-wide column blocks, then a 4-wide one, then single
/// columns.
template <int MR>
void gemm_rows(const float* a, std::int64_t lda, const float* b,
               std::int64_t ldb, float* c, std::int64_t ldc, std::int64_t n,
               std::int64_t k) {
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8)
    gemm_block<f32x4, MR, 2>(a, lda, b + j, ldb, c + j, ldc, k);
  if (j + 4 <= n) {
    gemm_block<f32x4, MR, 1>(a, lda, b + j, ldb, c + j, ldc, k);
    j += 4;
  }
  for (; j < n; ++j)
    gemm_block<float, MR, 1>(a, lda, b + j, ldb, c + j, ldc, k);
}

}  // namespace

void gemm_accumulate(const float* a, std::int64_t lda, const float* b,
                     std::int64_t ldb, float* c, std::int64_t ldc,
                     std::int64_t m, std::int64_t n, std::int64_t k) {
  std::int64_t i = 0;
  for (; i + 4 <= m; i += 4)
    gemm_rows<4>(a + i * lda, lda, b, ldb, c + i * ldc, ldc, n, k);
  a += i * lda;
  c += i * ldc;
  switch (m - i) {
    case 3: gemm_rows<3>(a, lda, b, ldb, c, ldc, n, k); break;
    case 2: gemm_rows<2>(a, lda, b, ldb, c, ldc, n, k); break;
    case 1: gemm_rows<1>(a, lda, b, ldb, c, ldc, n, k); break;
    default: break;
  }
}

LaunchStats gemm_sim(SimGpu& gpu, const float* a, const float* b, float* c,
                     std::int64_t m, std::int64_t k, std::int64_t n,
                     const GemmConfig& cfg) {
  CB_CHECK(m > 0 && k > 0 && n > 0);
  const std::int64_t tm = std::min(cfg.tile_m, m);
  const std::int64_t tn = std::min(cfg.tile_n, n);
  const std::int64_t tk = std::min(cfg.tile_k, k);
  const std::int64_t grid_m = ceil_div(m, tm);
  const std::int64_t grid_n = ceil_div(n, tn);

  LaunchConfig lc;
  lc.num_blocks = grid_m * grid_n;
  lc.threads_per_block = cfg.threads_per_block;
  lc.smem_bytes_per_block =
      static_cast<std::int64_t>((tm * tk + tk * tn + tm * tn) * sizeof(float));

  return gpu.launch(lc, [&, tm, tn, tk](BlockContext& ctx) {
    const std::int64_t bm = (ctx.block_id() / grid_n) * tm;
    const std::int64_t bn = (ctx.block_id() % grid_n) * tn;
    const std::int64_t em = std::min(tm, m - bm);  // effective tile dims
    const std::int64_t en = std::min(tn, n - bn);

    auto at = ctx.smem().alloc<float>(static_cast<std::size_t>(tm * tk));
    auto bt = ctx.smem().alloc<float>(static_cast<std::size_t>(tk * tn));
    auto ct = ctx.smem().alloc<float>(static_cast<std::size_t>(tm * tn));
    std::fill(ct.begin(), ct.end(), 0.0f);

    for (std::int64_t p0 = 0; p0 < k; p0 += tk) {
      const std::int64_t ek = std::min(tk, k - p0);
      ctx.load_strided(a + bm * k + p0, k, at.data(),
                       static_cast<std::size_t>(em),
                       static_cast<std::size_t>(ek));
      ctx.load_strided(b + p0 * n + bn, n, bt.data(),
                       static_cast<std::size_t>(ek),
                       static_cast<std::size_t>(en));
      gemm_accumulate(at.data(), ek, bt.data(), en, ct.data(), tn, em, en,
                      ek);
      ctx.add_flops(static_cast<std::uint64_t>(2 * em * en * ek));
    }
    for (std::int64_t i = 0; i < em; ++i) {
      ctx.store(c + (bm + i) * n + bn, ct.data() + i * tn,
                static_cast<std::size_t>(en));
    }
  });
}

}  // namespace convbound
