// Unified entry point over all convolution implementations.
#pragma once

#include <string>

#include "convbound/conv/conv_config.hpp"
#include "convbound/conv/direct.hpp"
#include "convbound/conv/winograd.hpp"

namespace convbound {

enum class ConvAlgorithm {
  kDirectTiled,     ///< paper dataflow, Section 5.2 (tunable)
  kDirectNaive,     ///< generic direct kernel (baseline component)
  kIm2col,          ///< im2col + GEMM (baseline component)
  kCudnnDirect,     ///< best of {kDirectNaive, kIm2col} — the paper's cuDNN
                    ///< direct-convolution comparison point
  kWinogradFused,   ///< paper dataflow, Section 5.3 (tunable)
  kWinogradPhased,  ///< cuDNN-style Winograd baseline
};

std::string to_string(ConvAlgorithm algo);

/// The centralized capability query: true when `algo` can run `s`. All
/// eligibility rules live here — Winograd needs a square 2..7 kernel,
/// stride 1 and groups == 1; im2col needs groups == 1; the direct paths
/// take anything. Callers (planner, CLI, benches) must not re-derive these.
bool algorithm_supports(ConvAlgorithm algo, const ConvShape& s);

struct ConvResult {
  Tensor4<float> output;
  LaunchStats stats;
};

/// Runs `algo` on the simulated machine into the caller-shaped `out`
/// [batch, cout, hout, wout]: the one place an algorithm selects its
/// kernel. `cfg` is honoured by the tunable algorithms and ignored by the
/// baselines; `e` selects the Winograd variant F(e x e, r x r).
/// kCudnnDirect is a best-of over two kernels, not one, so only run_conv
/// (and the planner) resolve it; here it throws.
LaunchStats run_conv_into(SimGpu& gpu, ConvAlgorithm algo,
                          const Tensor4<float>& input,
                          const Tensor4<float>& weights, const ConvShape& s,
                          const ConvConfig& cfg, std::int64_t e,
                          Tensor4<float>& out);

/// run_conv_into with a freshly allocated output, and kCudnnDirect run as
/// the better of kDirectNaive and kIm2col.
ConvResult run_conv(SimGpu& gpu, ConvAlgorithm algo,
                    const Tensor4<float>& input, const Tensor4<float>& weights,
                    const ConvShape& s, const ConvConfig& cfg = {},
                    std::int64_t e = 2);

/// Default untuned-but-sane config for the tiled dataflow: the optimality
/// condition tile x*y = R*z under the budget S_sm/(2 * elements).
ConvConfig default_tiled_config(const ConvShape& s, const MachineSpec& spec);

/// Same for the fused Winograd dataflow (tile budget from Section 5.3).
ConvConfig default_winograd_config(const ConvShape& s, std::int64_t e,
                                   const MachineSpec& spec);

}  // namespace convbound
