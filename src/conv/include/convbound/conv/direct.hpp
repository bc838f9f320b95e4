// Direct-convolution implementations on the simulated accelerator.
#pragma once

#include "convbound/conv/conv_config.hpp"
#include "convbound/gemm/gemm.hpp"
#include "convbound/machine/sim_gpu.hpp"
#include "convbound/tensor/conv_shape.hpp"
#include "convbound/tensor/tensor.hpp"

namespace convbound {

/// The paper's near I/O-optimal dataflow (Section 5.2): one block owns an
/// x*y*z output sub-block held entirely in shared memory; an x'*y' input
/// tile slides along the channel direction (alpha = 1); inputs and weights
/// are read exactly once per block and outputs are written exactly once.
/// `out` must be pre-shaped [batch, cout, hout, wout] NCHW.
LaunchStats direct_tiled_sim(SimGpu& gpu, const Tensor4<float>& input,
                             const Tensor4<float>& weights,
                             const ConvShape& s, const ConvConfig& cfg,
                             Tensor4<float>& out);

/// The generic direct kernel standing in for cuDNN's non-im2col direct path
/// (ConvAlgorithm::kDirectNaive) is direct_tiled_sim at this fixed
/// configuration: 8x8 spatial tiles (clamped to the output), one output
/// channel per block (z = 1), 8x8x1 threads and a footprint-sized S_b. The
/// input tile is re-read C_out times — correct and competent, but with no
/// output-channel data reuse.
ConvConfig naive_direct_config(const ConvShape& s);

/// im2col + blocked GEMM, the path cuDNN usually prefers for direct
/// convolution (paper Section 7). The column matrix is materialised in
/// global memory (counted), then multiplied by the weight matrix.
LaunchStats im2col_sim(SimGpu& gpu, const Tensor4<float>& input,
                       const Tensor4<float>& weights, const ConvShape& s,
                       Tensor4<float>& out, const GemmConfig& gemm_cfg = {});

}  // namespace convbound
