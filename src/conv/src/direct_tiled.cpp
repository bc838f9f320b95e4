#include <algorithm>
#include <cstring>
#include <vector>

#include "convbound/conv/direct.hpp"
#include "convbound/gemm/gemm.hpp"
#include "convbound/util/math.hpp"
#include "tile_io.hpp"

namespace convbound {

namespace {

/// Packs the staged input tile into the GEMM panel
///   panel[fh*kw + fw][dx*y + dy] = tile[(dx*stride + fh)*tile_stride +
///                                       dy*stride + fw]
/// for dx < ex, dy < ey, with columns ey..y of each dx row zero, so that
/// the tile update is acc(z x ex*y) += w(z x kh*kw) * panel.
void pack_panel(const float* tile, std::int64_t tile_stride, std::int64_t kh,
                std::int64_t kw, std::int64_t stride, std::int64_t ex,
                std::int64_t ey, std::int64_t y, float* panel) {
  for (std::int64_t fh = 0; fh < kh; ++fh) {
    for (std::int64_t fw = 0; fw < kw; ++fw) {
      for (std::int64_t dx = 0; dx < ex; ++dx) {
        const float* trow = tile + (dx * stride + fh) * tile_stride + fw;
        if (stride == 1) {
          std::memcpy(panel, trow,
                      static_cast<std::size_t>(ey) * sizeof(float));
        } else {
          for (std::int64_t dy = 0; dy < ey; ++dy)
            panel[dy] = trow[dy * stride];
        }
        std::fill(panel + ey, panel + y, 0.0f);
        panel += y;
      }
    }
  }
}

/// One block of one output channel (a z = 1 block): output channel oc's
/// tile at (oh0, ow0) of image b, updated from each of its group's input
/// channel slices by the single-channel row-wise update, where a one-row
/// GEMM would not pay for its packing. Kept out of line: inlined into the
/// generic block body it runs measurably slower.
[[gnu::noinline]] void channel_block(BlockContext& ctx,
                                     const Tensor4<float>& input,
                                     const Tensor4<float>& weights,
                                     const ConvShape& s, Tensor4<float>& out,
                                     std::int64_t x, std::int64_t y,
                                     std::int64_t b, std::int64_t oc,
                                     std::int64_t oh0, std::int64_t ow0) {
  const std::int64_t ex = std::min(x, s.hout() - oh0);
  const std::int64_t ey = std::min(y, s.wout() - ow0);
  const std::int64_t in_rows = (x - 1) * s.stride + s.kh;
  const std::int64_t in_cols = (y - 1) * s.stride + s.kw;
  const std::int64_t kker = s.kh * s.kw;

  auto acc = ctx.smem().alloc<float>(static_cast<std::size_t>(x * y));
  auto tile =
      ctx.smem().alloc<float>(static_cast<std::size_t>(in_rows * in_cols));
  auto wbuf = ctx.smem().alloc<float>(static_cast<std::size_t>(kker));
  std::fill(acc.begin(), acc.end(), 0.0f);

  const std::int64_t rows_eff = (ex - 1) * s.stride + s.kh;
  const std::int64_t cols_eff = (ey - 1) * s.stride + s.kw;

  const std::int64_t cpg = s.cin_per_group();
  const std::int64_t c_base = (oc / s.cout_per_group()) * cpg;
  for (std::int64_t dc = 0; dc < cpg; ++dc) {
    detail::load_input_tile(ctx, input, b, c_base + dc,
                            oh0 * s.stride - s.pad, ow0 * s.stride - s.pad,
                            rows_eff, cols_eff, tile.data());
    ctx.load(weights.data() + weights.index(oc, dc, 0, 0), wbuf.data(),
             static_cast<std::size_t>(kker));
    detail::accumulate_direct(acc.data(), y, tile.data(), cols_eff,
                              wbuf.data(), s.kh, s.kw, s.stride, ex, ey);
    ctx.add_flops(static_cast<std::uint64_t>(2 * ex * ey * kker));
  }
  detail::store_output_tile(ctx, out, b, oc, oh0, ow0, ex, ey, acc.data(), y);
}

}  // namespace

ConvConfig naive_direct_config(const ConvShape& s) {
  ConvConfig cfg;  // defaults: z = 1, nzt = 1, S_b from the footprint
  cfg.x = std::min<std::int64_t>(8, s.hout());
  cfg.y = std::min<std::int64_t>(8, s.wout());
  cfg.nxt = cfg.nyt = 8;
  return cfg;
}

std::int64_t direct_tiled_smem_bytes(const ConvShape& s,
                                     const ConvConfig& cfg) {
  const std::int64_t in_rows = (cfg.x - 1) * s.stride + s.kh;
  const std::int64_t in_cols = (cfg.y - 1) * s.stride + s.kw;
  const std::int64_t floats =
      cfg.x * cfg.y * cfg.z + in_rows * in_cols + cfg.z * s.kh * s.kw;
  return floats * static_cast<std::int64_t>(sizeof(float));
}

LaunchStats direct_tiled_sim(SimGpu& gpu, const Tensor4<float>& input,
                             const Tensor4<float>& weights,
                             const ConvShape& s, const ConvConfig& cfg,
                             Tensor4<float>& out) {
  s.validate();
  CB_CHECK(cfg.x > 0 && cfg.y > 0 && cfg.z > 0);
  CB_CHECK(input.n() == s.batch && input.c() == s.cin &&
           input.h() == s.hin && input.w() == s.win);
  CB_CHECK(out.n() == s.batch && out.c() == s.cout &&
           out.h() == s.hout() && out.w() == s.wout());

  const std::int64_t hout = s.hout(), wout = s.wout();
  const std::int64_t x = std::min(cfg.x, hout), y = std::min(cfg.y, wout);
  // Grouped convolution: a z-tile must not straddle a channel group, so the
  // clamped z is snapped down to a divisor of cout_per_group.
  std::int64_t z = std::min(cfg.z, s.cout_per_group());
  while (s.cout_per_group() % z != 0) --z;
  const std::int64_t cpg = s.cin_per_group();
  const std::int64_t nx = ceil_div(hout, x), ny = ceil_div(wout, y),
                     nz = ceil_div(s.cout, z);
  const std::int64_t in_rows = (x - 1) * s.stride + s.kh;
  const std::int64_t in_cols = (y - 1) * s.stride + s.kw;
  const std::int64_t kker = s.kh * s.kw;

  LaunchConfig lc;
  lc.num_blocks = s.batch * nz * nx * ny;
  lc.threads_per_block = cfg.threads();
  const std::int64_t needed =
      (x * y * z + in_rows * in_cols + z * kker) *
      static_cast<std::int64_t>(sizeof(float));
  lc.smem_bytes_per_block = cfg.smem_budget > 0 ? cfg.smem_budget : needed;

  return gpu.launch(lc, [&, x, y, z](BlockContext& ctx) {
    // Decode block -> (batch, z-block, x-block, y-block).
    std::int64_t id = ctx.block_id();
    const std::int64_t iy = id % ny; id /= ny;
    const std::int64_t ix = id % nx; id /= nx;
    const std::int64_t iz = id % nz; id /= nz;
    const std::int64_t b = id;
    const std::int64_t oh0 = ix * x, ow0 = iy * y, oc0 = iz * z;
    const std::int64_t ex = std::min(x, hout - oh0);
    const std::int64_t ey = std::min(y, wout - ow0);
    const std::int64_t ez = std::min(z, s.cout - oc0);
    if (ez == 1) {
      channel_block(ctx, input, weights, s, out, x, y, b, oc0, oh0, ow0);
      return;
    }

    auto acc = ctx.smem().alloc<float>(static_cast<std::size_t>(x * y * z));
    auto tile =
        ctx.smem().alloc<float>(static_cast<std::size_t>(in_rows * in_cols));
    auto wbuf = ctx.smem().alloc<float>(static_cast<std::size_t>(z * kker));
    std::fill(acc.begin(), acc.end(), 0.0f);
    // Host staging for the GEMM, not shared memory: it holds no data the
    // staged tile does not, so it moves no counted byte.
    std::vector<float> panel(static_cast<std::size_t>(kker * ex * y));

    const std::int64_t rows_eff = (ex - 1) * s.stride + s.kh;
    const std::int64_t cols_eff = (ey - 1) * s.stride + s.kw;

    // Slide the x'*y' input tile along the (group's) channel direction
    // (alpha = 1).
    const std::int64_t c_base = (oc0 / s.cout_per_group()) * cpg;
    for (std::int64_t dc = 0; dc < cpg; ++dc) {
      detail::load_input_tile(ctx, input, b, c_base + dc,
                              oh0 * s.stride - s.pad, ow0 * s.stride - s.pad,
                              rows_eff, cols_eff, tile.data());
      for (std::int64_t dz = 0; dz < ez; ++dz) {
        ctx.load(weights.data() + weights.index(oc0 + dz, dc, 0, 0),
                 wbuf.data() + dz * kker, static_cast<std::size_t>(kker));
      }
      // Partial update of the resident output sub-block: one GEMM over
      // the kh*kw taps.
      pack_panel(tile.data(), cols_eff, s.kh, s.kw, s.stride, ex, ey, y,
                 panel.data());
      gemm_accumulate(wbuf.data(), kker, panel.data(), ex * y, acc.data(),
                      x * y, ez, ex * y, kker);
      ctx.add_flops(static_cast<std::uint64_t>(2 * ez * ex * ey * kker));
    }
    // Outputs leave the chip exactly once.
    for (std::int64_t dz = 0; dz < ez; ++dz) {
      detail::store_output_tile(ctx, out, b, oc0 + dz, oh0, ow0, ex, ey,
                                acc.data() + dz * x * y, y);
    }
  });
}

}  // namespace convbound
