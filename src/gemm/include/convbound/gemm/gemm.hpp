// Blocked GEMM on the simulated accelerator.
//
// Substrate for the im2col convolution baseline (the path cuDNN most often
// picks for "direct" convolution, per the paper's Section 7) and for the
// batched element-wise stage of phased Winograd.
#pragma once

#include <cstdint>

#include "convbound/machine/sim_gpu.hpp"

namespace convbound {

/// Host reference: C(m x n) = A(m x k) * B(k x n), row-major, C overwritten.
void gemm_ref(const float* a, const float* b, float* c, std::int64_t m,
              std::int64_t k, std::int64_t n);

/// Host micro-kernel: C(m x n) += A(m x k) * B(k x n), row-major with
/// leading dimensions lda >= k, ldb >= n, ldc >= n. Blocks of C stay in
/// registers across the whole reduction, and every C element adds its k
/// products one at a time in order p = 0..k-1, so the result is
/// bit-identical to the plain i/p/j triple loop. Pure host arithmetic: it
/// counts no traffic and no flops.
void gemm_accumulate(const float* a, std::int64_t lda, const float* b,
                     std::int64_t ldb, float* c, std::int64_t ldc,
                     std::int64_t m, std::int64_t n, std::int64_t k);

struct GemmConfig {
  std::int64_t tile_m = 64;
  std::int64_t tile_n = 64;
  std::int64_t tile_k = 32;
  int threads_per_block = 128;

  std::int64_t smem_floats() const {
    return tile_m * tile_k + tile_k * tile_n + tile_m * tile_n;
  }
};

/// Simulated blocked GEMM: each block stages A/B tiles through shared
/// memory, keeps its C tile on chip, and writes it exactly once.
LaunchStats gemm_sim(SimGpu& gpu, const float* a, const float* b, float* c,
                     std::int64_t m, std::int64_t k, std::int64_t n,
                     const GemmConfig& cfg = {});

}  // namespace convbound
