#include <gtest/gtest.h>

#include <limits>

#include "convbound/gemm/gemm.hpp"
#include "convbound/util/rng.hpp"

namespace convbound {
namespace {

void fill_random(std::vector<float>& v, Rng& rng) {
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1, 1));
}

double max_diff(const std::vector<float>& a, const std::vector<float>& b) {
  double m = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(static_cast<double>(a[i]) - b[i]));
  return m;
}

struct GemmCase {
  std::int64_t m, k, n;
  GemmConfig cfg;
};

class GemmSimCorrectness : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmSimCorrectness, MatchesReference) {
  const auto& p = GetParam();
  Rng rng(99);
  std::vector<float> a(static_cast<std::size_t>(p.m * p.k)),
      b(static_cast<std::size_t>(p.k * p.n)),
      c_ref(static_cast<std::size_t>(p.m * p.n)),
      c_sim(static_cast<std::size_t>(p.m * p.n));
  fill_random(a, rng);
  fill_random(b, rng);
  gemm_ref(a.data(), b.data(), c_ref.data(), p.m, p.k, p.n);

  SimGpu gpu(MachineSpec::v100());
  const auto stats =
      gemm_sim(gpu, a.data(), b.data(), c_sim.data(), p.m, p.k, p.n, p.cfg);
  EXPECT_LT(max_diff(c_ref, c_sim), 1e-3);
  EXPECT_EQ(stats.flops, static_cast<std::uint64_t>(2 * p.m * p.k * p.n));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSimCorrectness,
    ::testing::Values(
        GemmCase{1, 1, 1, {}},                 // degenerate
        GemmCase{5, 7, 3, {}},                 // smaller than tiles
        GemmCase{64, 64, 64, {}},              // exact tiles
        GemmCase{65, 33, 70, {}},              // ragged edges
        GemmCase{128, 96, 60, {32, 16, 8, 64}},  // custom tiling
        GemmCase{17, 255, 19, {8, 8, 128, 32}}));

TEST(GemmSim, OutputWrittenExactlyOnce) {
  const std::int64_t m = 64, k = 256, n = 64;
  Rng rng(1);
  std::vector<float> a(static_cast<std::size_t>(m * k)),
      b(static_cast<std::size_t>(k * n)), c(static_cast<std::size_t>(m * n));
  fill_random(a, rng);
  fill_random(b, rng);
  SimGpu gpu(MachineSpec::v100());
  const auto stats = gemm_sim(gpu, a.data(), b.data(), c.data(), m, k, n);
  EXPECT_EQ(stats.bytes_stored, static_cast<std::uint64_t>(m * n * 4));
}

TEST(GemmSim, TileReuseReducesLoads) {
  const std::int64_t m = 128, k = 128, n = 128;
  Rng rng(2);
  std::vector<float> a(static_cast<std::size_t>(m * k)),
      b(static_cast<std::size_t>(k * n)), c(static_cast<std::size_t>(m * n));
  fill_random(a, rng);
  fill_random(b, rng);
  SimGpu gpu(MachineSpec::v100());
  GemmConfig big{64, 64, 32, 128};
  GemmConfig tiny{8, 8, 8, 64};
  const auto big_stats = gemm_sim(gpu, a.data(), b.data(), c.data(), m, k, n, big);
  const auto tiny_stats =
      gemm_sim(gpu, a.data(), b.data(), c.data(), m, k, n, tiny);
  EXPECT_LT(big_stats.bytes_loaded, tiny_stats.bytes_loaded);
}

TEST(GemmAccumulate, BitIdenticalToTripleLoop) {
  // Padded leading dimensions: A and B padding holds NaN, so a read past
  // column k of A or n of B poisons C; C padding holds a sentinel that
  // must survive.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float sentinel = 1234.5f;
  Rng rng(3);
  for (const std::int64_t m : {1, 3, 4, 5, 9}) {
    for (const std::int64_t n : {1, 7, 8, 9, 17, 33}) {
      for (const std::int64_t k : {1, 9, 49}) {
        const std::int64_t lda = k + 3, ldb = n + 5, ldc = n + 2;
        std::vector<float> a(static_cast<std::size_t>(m * lda), nan),
            b(static_cast<std::size_t>(k * ldb), nan),
            c(static_cast<std::size_t>(m * ldc), sentinel);
        for (std::int64_t i = 0; i < m; ++i)
          for (std::int64_t p = 0; p < k; ++p)
            a[static_cast<std::size_t>(i * lda + p)] =
                static_cast<float>(rng.uniform(-1, 1));
        for (std::int64_t p = 0; p < k; ++p)
          for (std::int64_t j = 0; j < n; ++j)
            b[static_cast<std::size_t>(p * ldb + j)] =
                static_cast<float>(rng.uniform(-1, 1));
        for (std::int64_t i = 0; i < m; ++i)
          for (std::int64_t j = 0; j < n; ++j)
            c[static_cast<std::size_t>(i * ldc + j)] =
                static_cast<float>(rng.uniform(-1, 1));

        std::vector<float> want = c;
        for (std::int64_t i = 0; i < m; ++i)
          for (std::int64_t p = 0; p < k; ++p)
            for (std::int64_t j = 0; j < n; ++j)
              want[static_cast<std::size_t>(i * ldc + j)] +=
                  a[static_cast<std::size_t>(i * lda + p)] *
                  b[static_cast<std::size_t>(p * ldb + j)];

        gemm_accumulate(a.data(), lda, b.data(), ldb, c.data(), ldc, m, n, k);
        for (std::size_t idx = 0; idx < c.size(); ++idx)
          ASSERT_EQ(c[idx], want[idx])
              << "m=" << m << " n=" << n << " k=" << k << " at row "
              << idx / static_cast<std::size_t>(ldc) << " col "
              << idx % static_cast<std::size_t>(ldc);
      }
    }
  }
}

TEST(GemmSim, RejectsBadDims) {
  SimGpu gpu(MachineSpec::v100());
  float x = 0;
  EXPECT_THROW(gemm_sim(gpu, &x, &x, &x, 0, 1, 1), Error);
}

}  // namespace
}  // namespace convbound
