// Internal helpers for moving 2-D tiles between global tensors and shared
// memory with exact I/O accounting (padding reads are free: real kernels
// synthesise zeros on chip), and the direct kernels' single-output-channel
// tile update.
#pragma once

#include <algorithm>
#include <cstring>

#include "convbound/machine/sim_gpu.hpp"
#include "convbound/tensor/tensor.hpp"

namespace convbound::detail {

/// Loads input(b, c, h0:h0+rows, w0:w0+cols) into dst (packed rows*cols),
/// zero-filling out-of-range positions without counting them as traffic.
/// Honours the tensor layout: W-contiguous layouts load row segments,
/// others pay gather (transaction-granular) cost.
inline void load_input_tile(BlockContext& ctx, const Tensor4<float>& in,
                            std::int64_t b, std::int64_t c, std::int64_t h0,
                            std::int64_t w0, std::int64_t rows,
                            std::int64_t cols, float* dst) {
  const auto& st = in.strides();
  for (std::int64_t r = 0; r < rows; ++r) {
    float* drow = dst + r * cols;
    const std::int64_t ih = h0 + r;
    if (ih < 0 || ih >= in.h()) {
      std::memset(drow, 0, static_cast<std::size_t>(cols) * sizeof(float));
      continue;
    }
    const std::int64_t lo = std::max<std::int64_t>(0, -w0);
    const std::int64_t hi = std::min<std::int64_t>(cols, in.w() - w0);
    if (lo > 0)
      std::memset(drow, 0, static_cast<std::size_t>(lo) * sizeof(float));
    if (hi < cols)
      std::memset(drow + hi, 0,
                  static_cast<std::size_t>(cols - hi) * sizeof(float));
    if (lo >= hi) continue;
    const float* src = in.data() + in.index(b, c, ih, w0 + lo);
    if (st.w == 1) {
      ctx.load(src, drow + lo, static_cast<std::size_t>(hi - lo));
    } else {
      ctx.load_gather(src, st.w, drow + lo, static_cast<std::size_t>(hi - lo));
    }
  }
}

/// Stores a packed rows*cols tile into out(b, c, h0:, w0:), clipped to the
/// tensor bounds. Out tensors are NCHW, so rows are contiguous.
inline void store_output_tile(BlockContext& ctx, Tensor4<float>& out,
                              std::int64_t b, std::int64_t c, std::int64_t h0,
                              std::int64_t w0, std::int64_t rows,
                              std::int64_t cols, const float* src,
                              std::int64_t src_stride) {
  const std::int64_t re = std::min(rows, out.h() - h0);
  const std::int64_t ce = std::min(cols, out.w() - w0);
  for (std::int64_t r = 0; r < re; ++r) {
    ctx.store(out.data() + out.index(b, c, h0 + r, w0),
              src + r * src_stride, static_cast<std::size_t>(ce));
  }
}

/// The update of one output channel's resident tile by one input channel
/// slice (direct_naive, and direct_tiled when z is 1): for dx < ex, dy < ey,
///   acc[dx*acc_stride + dy] += sum_{fh,fw} w[fh*kw + fw] *
///       tile[(dx*stride + fh)*tile_stride + dy*stride + fw].
/// Pure host arithmetic (no counted traffic). Each weight is hoisted to a
/// scalar and the output column dy runs innermost over a contiguous row, so
/// the loop vectorizes.
inline void accumulate_direct(float* __restrict acc, std::int64_t acc_stride,
                              const float* __restrict tile,
                              std::int64_t tile_stride, const float* w,
                              std::int64_t kh, std::int64_t kw,
                              std::int64_t stride, std::int64_t ex,
                              std::int64_t ey) {
  if (kh == 1 && kw == 1 && stride == 1 && ey == acc_stride &&
      ey == tile_stride) {
    // 1x1, stride 1, full rows: the whole tile is one contiguous axpy.
    ey *= ex;
    ex = 1;
  }
  for (std::int64_t fh = 0; fh < kh; ++fh) {
    for (std::int64_t fw = 0; fw < kw; ++fw) {
      const float wv = w[fh * kw + fw];
      for (std::int64_t dx = 0; dx < ex; ++dx) {
        float* __restrict arow = acc + dx * acc_stride;
        const float* __restrict trow =
            tile + (dx * stride + fh) * tile_stride + fw;
        if (stride == 1) {
          for (std::int64_t dy = 0; dy < ey; ++dy) arow[dy] += wv * trow[dy];
        } else {
          for (std::int64_t dy = 0; dy < ey; ++dy)
            arow[dy] += wv * trow[dy * stride];
        }
      }
    }
  }
}

}  // namespace convbound::detail
