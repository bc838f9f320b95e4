#include "convbound/conv/algorithms.hpp"

#include <algorithm>

#include "convbound/bounds/conv_bounds.hpp"
#include "convbound/util/math.hpp"

namespace convbound {

std::string to_string(ConvAlgorithm algo) {
  switch (algo) {
    case ConvAlgorithm::kDirectTiled: return "direct-tiled(ours)";
    case ConvAlgorithm::kDirectNaive: return "direct-naive";
    case ConvAlgorithm::kIm2col: return "im2col+gemm";
    case ConvAlgorithm::kCudnnDirect: return "cudnn-direct(best-of)";
    case ConvAlgorithm::kWinogradFused: return "winograd-fused(ours)";
    case ConvAlgorithm::kWinogradPhased: return "winograd-phased";
  }
  return "?";
}

bool algorithm_supports(ConvAlgorithm algo, const ConvShape& s) {
  switch (algo) {
    case ConvAlgorithm::kWinogradFused:
    case ConvAlgorithm::kWinogradPhased:
      // Square non-trivial kernel, unit stride, ungrouped (the minimal
      // filtering identity has no grouped/strided form), and a kernel edge
      // r for which an F(e >= 2, r) transform exists (e + r - 1 <= 8).
      return s.kh == s.kw && s.stride == 1 && s.groups == 1 && s.kh >= 2 &&
             s.kh <= 7;
    case ConvAlgorithm::kIm2col:
      // The column-matrix layout assumes every output channel reads every
      // input channel; grouped shapes take the direct paths instead.
      return s.groups == 1;
    case ConvAlgorithm::kDirectTiled:
    case ConvAlgorithm::kDirectNaive:
    case ConvAlgorithm::kCudnnDirect:
      return true;
  }
  return false;
}

LaunchStats run_conv_into(SimGpu& gpu, ConvAlgorithm algo,
                          const Tensor4<float>& input,
                          const Tensor4<float>& weights, const ConvShape& s,
                          const ConvConfig& cfg, std::int64_t e,
                          Tensor4<float>& out) {
  s.validate();
  CB_CHECK_MSG(out.n() == s.batch && out.c() == s.cout &&
                   out.h() == s.hout() && out.w() == s.wout(),
               "output tensor does not match shape " << s.to_string());
  switch (algo) {
    case ConvAlgorithm::kDirectTiled:
      return direct_tiled_sim(gpu, input, weights, s, cfg, out);
    case ConvAlgorithm::kDirectNaive:
      return direct_tiled_sim(gpu, input, weights, s, naive_direct_config(s),
                              out);
    case ConvAlgorithm::kIm2col:
      return im2col_sim(gpu, input, weights, s, out);
    case ConvAlgorithm::kWinogradFused:
      return winograd_fused_sim(gpu, input, weights, s, e, cfg, out);
    case ConvAlgorithm::kWinogradPhased:
      return winograd_phased_sim(gpu, input, weights, s, e, out);
    case ConvAlgorithm::kCudnnDirect:
      break;  // falls through to the check below
  }
  CB_CHECK_MSG(false, "non-executable algorithm "
                          << to_string(algo)
                          << " (run_conv and the planner resolve best-of "
                             "aliases)");
  return {};
}

ConvResult run_conv(SimGpu& gpu, ConvAlgorithm algo,
                    const Tensor4<float>& input, const Tensor4<float>& weights,
                    const ConvShape& s, const ConvConfig& cfg,
                    std::int64_t e) {
  s.validate();
  const auto run = [&](ConvAlgorithm a) {
    ConvResult r{Tensor4<float>(s.batch, s.cout, s.hout(), s.wout()), {}};
    r.stats = run_conv_into(gpu, a, input, weights, s, cfg, e, r.output);
    return r;
  };
  if (algo != ConvAlgorithm::kCudnnDirect) return run(algo);
  // cuDNN picks the better of its direct implementations per shape (paper
  // Section 7: "we compare with the best one of two direct implementations
  // in cuDNN"). Grouped shapes only have the direct path.
  ConvResult naive = run(ConvAlgorithm::kDirectNaive);
  if (s.groups > 1) return naive;
  ConvResult i2c = run(ConvAlgorithm::kIm2col);
  return naive.stats.sim_time <= i2c.stats.sim_time ? std::move(naive)
                                                    : std::move(i2c);
}

ConvConfig default_tiled_config(const ConvShape& s, const MachineSpec& spec) {
  // S_b <= S_sm / 2 so two blocks fit per SM (Table 1); the output tile gets
  // roughly half of S_b, the rest covers the input tile and weight slice.
  const std::int64_t budget = spec.smem_floats() / 4;
  const OptimalTile t = optimal_output_tile(s, static_cast<double>(budget));
  ConvConfig cfg;
  cfg.x = t.x;
  cfg.y = t.y;
  cfg.z = t.z;
  cfg.nxt = static_cast<int>(std::min<std::int64_t>(8, t.x));
  cfg.nyt = static_cast<int>(std::min<std::int64_t>(8, t.y));
  cfg.nzt = std::max(1, static_cast<int>(std::min<std::int64_t>(
                            t.z, 256 / (cfg.nxt * cfg.nyt))));
  cfg.smem_budget = 0;  // derive from footprint
  return cfg;
}

ConvConfig default_winograd_config(const ConvShape& s, std::int64_t e,
                                   const MachineSpec& spec) {
  const std::int64_t r = s.kh;
  const std::int64_t a = e + r - 1;
  // Section 5.3: 2*(a/e)^2 * xyz ~= S/N_p with the budget S_sm/2 per block.
  const double budget = static_cast<double>(spec.smem_floats()) / 2.0 *
                        static_cast<double>(e * e) /
                        (2.0 * static_cast<double>(a * a));
  OptimalTile t = optimal_output_tile(s, budget);
  ConvConfig cfg;
  cfg.x = std::max<std::int64_t>(e, (t.x / e) * e);
  cfg.y = std::max<std::int64_t>(e, (t.y / e) * e);
  cfg.z = t.z;
  cfg.nxt = static_cast<int>(std::min<std::int64_t>(8, cfg.x));
  cfg.nyt = static_cast<int>(std::min<std::int64_t>(8, cfg.y));
  cfg.nzt = std::max(1, static_cast<int>(std::min<std::int64_t>(
                            cfg.z, 256 / (cfg.nxt * cfg.nyt))));
  cfg.smem_budget = 0;
  return cfg;
}

}  // namespace convbound
