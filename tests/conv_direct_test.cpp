#include <gtest/gtest.h>

#include "convbound/bounds/conv_bounds.hpp"
#include "convbound/conv/algorithms.hpp"
#include "convbound/conv/reference.hpp"

namespace convbound {
namespace {

ConvShape shape(std::int64_t b, std::int64_t cin, std::int64_t hw,
                std::int64_t cout, std::int64_t k, std::int64_t stride,
                std::int64_t pad) {
  ConvShape s;
  s.batch = b;
  s.cin = cin;
  s.hin = s.win = hw;
  s.cout = cout;
  s.kh = s.kw = k;
  s.stride = stride;
  s.pad = pad;
  return s;
}

struct DirectCase {
  ConvShape s;
  ConvConfig cfg;
};

class DirectTiledCorrectness : public ::testing::TestWithParam<DirectCase> {};

TEST_P(DirectTiledCorrectness, MatchesReference) {
  const auto& p = GetParam();
  const ConvProblem prob = make_problem(p.s, 7, p.cfg.layout);
  const Tensor4<float> expect = conv2d_ref(prob.input, prob.weights, p.s);
  SimGpu gpu(MachineSpec::v100());
  Tensor4<float> out(p.s.batch, p.s.cout, p.s.hout(), p.s.wout());
  direct_tiled_sim(gpu, prob.input, prob.weights, p.s, p.cfg, out);
  EXPECT_TRUE(allclose(expect, out, 1e-3, 1e-3))
      << p.s.to_string() << " " << p.cfg.to_string()
      << " maxdiff=" << max_abs_diff(expect, out);
}

ConvConfig cfg(std::int64_t x, std::int64_t y, std::int64_t z,
               Layout layout = Layout::kNCHW) {
  ConvConfig c;
  c.x = x;
  c.y = y;
  c.z = z;
  c.layout = layout;
  return c;
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, DirectTiledCorrectness,
    ::testing::Values(
        DirectCase{shape(1, 1, 5, 1, 3, 1, 0), cfg(1, 1, 1)},
        DirectCase{shape(1, 3, 8, 4, 3, 1, 1), cfg(4, 4, 2)},
        DirectCase{shape(2, 4, 9, 6, 3, 2, 1), cfg(2, 2, 3)},
        DirectCase{shape(1, 2, 11, 3, 5, 1, 2), cfg(3, 3, 3)},
        DirectCase{shape(1, 3, 12, 4, 1, 1, 0), cfg(6, 6, 2)},   // 1x1 kernel
        DirectCase{shape(1, 2, 13, 5, 3, 4, 0), cfg(2, 2, 5)},   // stride 4
        DirectCase{shape(1, 8, 14, 16, 3, 1, 1), cfg(7, 14, 4)},  // wide tile
        DirectCase{shape(1, 3, 10, 4, 3, 1, 1), cfg(32, 32, 64)},  // > image
        DirectCase{shape(1, 3, 8, 4, 3, 1, 1), cfg(4, 4, 2, Layout::kNHWC)},
        DirectCase{shape(1, 3, 8, 4, 3, 1, 1), cfg(4, 4, 2, Layout::kNCWH)},
        DirectCase{shape(3, 2, 7, 3, 3, 1, 0), cfg(5, 5, 3)},    // batch > 1
        DirectCase{shape(1, 5, 9, 7, 2, 1, 0), cfg(4, 4, 7)},    // even kernel
        DirectCase{shape(1, 6, 14, 8, 1, 2, 0), cfg(3, 4, 4)},   // 1x1 s2
        DirectCase{shape(1, 3, 19, 4, 7, 2, 3), cfg(4, 3, 3)},   // 7x7 s2 p3
        DirectCase{shape(1, 4, 13, 6, 1, 1, 0), cfg(4, 5, 3)},   // 1x1, w % y
        DirectCase{shape(1, 4, 13, 6, 1, 1, 0), cfg(5, 13, 3)},  // full rows
        // Tails of the 4x8 GEMM register block: z = 6 (4 + 2 rows); z = 26
        // on a 7x7 output (ex*y = 49 columns); an edge tile with ey = 9
        // (21 = 12 + 9) and ex = 1; 3x3 stride 2 with z >= 4.
        DirectCase{shape(1, 3, 10, 12, 3, 1, 1), cfg(4, 5, 6)},
        DirectCase{shape(1, 4, 7, 26, 3, 1, 1), cfg(7, 7, 26)},
        DirectCase{shape(1, 3, 21, 8, 3, 1, 1), cfg(4, 12, 8)},
        DirectCase{shape(1, 5, 15, 8, 3, 2, 1), cfg(4, 6, 4)}));

class DirectBaselineCorrectness
    : public ::testing::TestWithParam<ConvShape> {};

TEST_P(DirectBaselineCorrectness, NaiveMatchesReference) {
  const ConvShape s = GetParam();
  const ConvProblem prob = make_problem(s, 13);
  const Tensor4<float> expect = conv2d_ref(prob.input, prob.weights, s);
  SimGpu gpu(MachineSpec::v100());
  const ConvResult got =
      run_conv(gpu, ConvAlgorithm::kDirectNaive, prob.input, prob.weights, s);
  EXPECT_TRUE(allclose(expect, got.output, 1e-3, 1e-3)) << s.to_string();
}

TEST_P(DirectBaselineCorrectness, Im2colMatchesReference) {
  const ConvShape s = GetParam();
  const ConvProblem prob = make_problem(s, 13);
  const Tensor4<float> expect = conv2d_ref(prob.input, prob.weights, s);
  SimGpu gpu(MachineSpec::v100());
  Tensor4<float> out(s.batch, s.cout, s.hout(), s.wout());
  im2col_sim(gpu, prob.input, prob.weights, s, out);
  EXPECT_TRUE(allclose(expect, out, 1e-3, 1e-3)) << s.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, DirectBaselineCorrectness,
    ::testing::Values(shape(1, 1, 5, 1, 3, 1, 0),
                      shape(1, 3, 8, 4, 3, 1, 1),
                      shape(2, 4, 9, 6, 3, 2, 1),
                      shape(1, 2, 11, 3, 5, 1, 2),
                      shape(1, 3, 12, 4, 1, 1, 0),
                      shape(1, 2, 16, 5, 3, 4, 0),
                      shape(1, 6, 14, 8, 1, 2, 0),     // 1x1 stride 2
                      shape(1, 3, 19, 4, 7, 2, 3),     // 7x7 s2 p3
                      shape(1, 4, 13, 6, 1, 1, 0)));   // 1x1, 13 % 8 != 0

TEST(DirectTiled, OutputsStoredExactlyOnce) {
  const ConvShape s = shape(1, 8, 16, 8, 3, 1, 1);
  const ConvProblem prob = make_problem(s, 3);
  SimGpu gpu(MachineSpec::v100());
  Tensor4<float> out(s.batch, s.cout, s.hout(), s.wout());
  const auto stats =
      direct_tiled_sim(gpu, prob.input, prob.weights, s, cfg(8, 8, 4), out);
  EXPECT_EQ(stats.bytes_stored,
            static_cast<std::uint64_t>(s.output_elems() * 4));
}

TEST(DirectTiled, ReadsMatchEquation20) {
  // No padding, tiles dividing the output exactly: counted loads must equal
  // the Equation (20) prediction.
  const ConvShape s = shape(1, 16, 18, 8, 3, 1, 0);  // hout = wout = 16
  const ConvProblem prob = make_problem(s, 5);
  SimGpu gpu(MachineSpec::v100());
  Tensor4<float> out(s.batch, s.cout, s.hout(), s.wout());
  const ConvConfig c = cfg(8, 8, 4);
  const auto stats = direct_tiled_sim(gpu, prob.input, prob.weights, s, c, out);
  // Equation (20) with x' = x + k - 1 (the formula's x' ~ mu*x approximates
  // the halo; count it exactly here).
  const double blocks = (16.0 / 8) * (16.0 / 8) * (8.0 / 4);
  const double per_block = 10.0 * 10 * 16 + 3 * 3 * 16 * 4;
  EXPECT_EQ(stats.bytes_loaded,
            static_cast<std::uint64_t>(blocks * per_block * 4));
  // And the Equation (20) idealised prediction is within the halo slack.
  const double eq20 = direct_dataflow_reads(s, 8, 8, 4) * 4;
  EXPECT_NEAR(static_cast<double>(stats.bytes_loaded) / eq20, 1.0, 0.6);
}

TEST(DirectTiled, OptimalityConditionBeatsOffCondition) {
  // Same tile budget, on- vs off-condition: on-condition must move less.
  const ConvShape s = shape(1, 64, 32, 64, 3, 1, 1);  // R = 9
  const ConvProblem prob = make_problem(s, 5);
  SimGpu gpu(MachineSpec::v100());
  Tensor4<float> out(s.batch, s.cout, s.hout(), s.wout());
  // budget 576: on-condition z = 8, xy = 72 -> (8, 9, 8)? xy=72=9*8 ✓.
  const auto on = direct_tiled_sim(gpu, prob.input, prob.weights, s,
                                   cfg(8, 9, 8), out);
  const auto off = direct_tiled_sim(gpu, prob.input, prob.weights, s,
                                    cfg(3, 3, 64), out);
  EXPECT_LT(on.bytes_total(), off.bytes_total());
}

TEST(DirectTiled, BeatsBaselinesOnIo) {
  const ConvShape s = shape(1, 64, 28, 128, 3, 1, 1);
  const ConvProblem prob = make_problem(s, 21);
  SimGpu gpu(MachineSpec::gtx1080ti());
  Tensor4<float> out(s.batch, s.cout, s.hout(), s.wout());
  const ConvConfig c = default_tiled_config(s, gpu.spec());
  const auto ours = direct_tiled_sim(gpu, prob.input, prob.weights, s, c, out);
  const auto naive =
      run_conv(gpu, ConvAlgorithm::kDirectNaive, prob.input, prob.weights, s)
          .stats;
  const auto i2c = im2col_sim(gpu, prob.input, prob.weights, s, out);
  EXPECT_LT(ours.bytes_total(), naive.bytes_total());
  EXPECT_LT(ours.bytes_total(), i2c.bytes_total());
}

TEST(DirectTiled, IoAboveLowerBound) {
  const ConvShape s = shape(1, 32, 28, 32, 3, 1, 1);
  const ConvProblem prob = make_problem(s, 23);
  SimGpu gpu(MachineSpec::v100());
  Tensor4<float> out(s.batch, s.cout, s.hout(), s.wout());
  const ConvConfig c = default_tiled_config(s, gpu.spec());
  const auto stats = direct_tiled_sim(gpu, prob.input, prob.weights, s, c, out);
  // Per-block fast memory is S_sm (in elements); every real execution must
  // move at least the theoretical minimum.
  const double bound =
      direct_conv_lower_bound(s, static_cast<double>(gpu.spec().smem_floats()));
  EXPECT_GE(static_cast<double>(stats.bytes_total()) / 4.0, bound);
}

TEST(DirectTiled, SmemBudgetEnforced) {
  const ConvShape s = shape(1, 8, 16, 8, 3, 1, 1);
  const ConvProblem prob = make_problem(s, 3);
  SimGpu gpu(MachineSpec::v100());
  Tensor4<float> out(s.batch, s.cout, s.hout(), s.wout());
  ConvConfig c = cfg(16, 16, 8);
  c.smem_budget = 1024;  // deliberately too small
  EXPECT_THROW(direct_tiled_sim(gpu, prob.input, prob.weights, s, c, out),
               Error);
}

TEST(RunConv, DispatchesAllAlgorithms) {
  const ConvShape s = shape(1, 4, 10, 4, 3, 1, 1);
  const ConvProblem prob = make_problem(s, 77);
  const Tensor4<float> expect = conv2d_ref(prob.input, prob.weights, s);
  SimGpu gpu(MachineSpec::v100());
  for (ConvAlgorithm algo :
       {ConvAlgorithm::kDirectTiled, ConvAlgorithm::kDirectNaive,
        ConvAlgorithm::kIm2col, ConvAlgorithm::kCudnnDirect,
        ConvAlgorithm::kWinogradFused, ConvAlgorithm::kWinogradPhased}) {
    ASSERT_TRUE(algorithm_supports(algo, s));
    const ConvConfig c = algo == ConvAlgorithm::kWinogradFused
                             ? default_winograd_config(s, 2, gpu.spec())
                             : default_tiled_config(s, gpu.spec());
    const ConvResult r = run_conv(gpu, algo, prob.input, prob.weights, s, c);
    EXPECT_TRUE(allclose(expect, r.output, 1e-3, 1e-3)) << to_string(algo);
    EXPECT_GT(r.stats.sim_time, 0) << to_string(algo);
  }
}

TEST(RunConv, WinogradUnsupportedForStride2) {
  const ConvShape s = shape(1, 4, 10, 4, 3, 2, 1);
  EXPECT_FALSE(algorithm_supports(ConvAlgorithm::kWinogradFused, s));
  EXPECT_TRUE(algorithm_supports(ConvAlgorithm::kDirectTiled, s));
}

}  // namespace
}  // namespace convbound
